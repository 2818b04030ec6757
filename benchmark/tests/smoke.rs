//! Reduced-size run of every workload through the built binary, in both
//! trace modes: every metric `BENCHMARK.json` names must be reported,
//! finite and (end to end) nonzero, on outputs the run itself verified.
//! Plus net hygiene: an aborted launch leaves no `net-node` behind.

use std::process::{Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `name` of every object in the JSON array `key`.
fn names(key: &str) -> Vec<String> {
    let body = &BENCHMARK_JSON[BENCHMARK_JSON.find(&format!("\"{key}\": [")).expect(key)..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("string end")].to_string())
        .collect()
}

/// `"<name>": {"value": <v>` → v.
fn value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn smoke(workload: &str, trace: &str) -> String {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("running the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line").to_string();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{line}");
    line
}

#[test]
fn every_workload_reports_every_named_metric() {
    for workload in names("workloads") {
        let line = smoke(&workload, "0");
        for metric in names("end_to_end") {
            let v = value(&line, &metric)
                .unwrap_or_else(|| panic!("{workload}: {metric} missing in {line}"));
            assert!(v.is_finite() && v > 0.0, "{workload}: {metric} = {v}");
        }
        let line = smoke(&workload, "1");
        for metric in names("per_layer") {
            let v = value(&line, &metric)
                .unwrap_or_else(|| panic!("{workload}: {metric} missing in {line}"));
            assert!(v.is_finite(), "{workload}: {metric} = {v}");
        }
        // The traced run attributes its timed region to layer spans.
        let unattributed = value(&line, "bench.unattributed_pct").expect("unattributed");
        assert!(
            unattributed < 5.0,
            "{workload}: {unattributed}% of the timed region unattributed"
        );
    }
}

/// Command lines of live processes that mention `needle`.
fn processes_mentioning(needle: &str) -> Vec<String> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| std::fs::read(e.path().join("cmdline")).ok())
        .map(|raw| String::from_utf8_lossy(&raw).replace('\0', " "))
        .filter(|cmd| cmd.contains(needle))
        .collect()
}

#[test]
fn an_aborted_net_run_leaves_no_server_behind() {
    let mut launcher = Command::new(BIN)
        .args([
            "--workload",
            "net-loopback",
            "--seconds",
            "60",
            "--trace",
            "0",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("running the benchmark");
    // Its servers carry the launcher's pid in their record path.
    let needle = format!("/net-{}-", launcher.id());
    // Deadlines are bounded polls: the workspace lint keeps the wall
    // clock to one helper, and a sleep count serves as well.
    let mut polls = 0;
    while processes_mentioning(&needle).is_empty() {
        polls += 1;
        assert!(polls < 6_000, "no net-node child appeared within 30 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    launcher.kill().expect("killing the launcher");
    launcher.wait().expect("reaping the launcher");
    let mut polls = 0;
    loop {
        let left = processes_mentioning(&needle);
        if left.is_empty() {
            break;
        }
        polls += 1;
        assert!(
            polls < 500,
            "orphaned net-node children after 10 s: {left:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The killed launcher could not remove its last record directory.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    for entry in std::fs::read_dir(out).into_iter().flatten().flatten() {
        if entry
            .file_name()
            .to_string_lossy()
            .starts_with(&needle[1..])
        {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}
