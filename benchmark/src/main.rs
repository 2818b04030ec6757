//! The repo benchmark. See `README.md` for workloads and metrics.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark [--traced] [--seed <n>] [--seconds <s>]     every workload, one table
//! benchmark --self-check                                two full runs compared against the bounds
//! ```
//!
//! The first form is the driver contract: one workload in this process,
//! one JSON object as the last line of standard output. The other two
//! re-execute this binary once per workload, so each workload's peak
//! memory is its own.

mod audit;
mod clock;
mod metrics;
mod netload;
mod simload;
mod span;
mod stats;
mod workload;

use metrics::{is_deterministic, per_layer, Better, Outcome, END_TO_END, WORKLOADS};
use span::Recorder;
use stats::RunResult;
use std::process::{Command, ExitCode, Stdio};
use workload::RunArgs;

/// Seconds measured per workload when `--seconds` is not given: about
/// 30 s for the five together.
const DEFAULT_SECONDS: f64 = 6.0;
/// The same for `--self-check`, which judges single runs against the
/// bounds: `BENCHMARK.json`'s `run_seconds`.
const SELF_CHECK_SECONDS: f64 = 15.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `cbf_net::run_cluster` re-executes the current binary as
    // `net-node …` once per server process.
    if args.first().map(String::as_str) == Some("net-node") {
        return match cbf_net::node_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("net-node: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(usage) => {
            eprintln!("benchmark: {usage}");
            eprintln!("usage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--traced] [--self-check] [--smoke]");
            eprintln!("workloads: {}", WORKLOADS.join(" "));
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: 0.0,
        traced: false,
        smoke: false,
    };
    let mut seconds = None;
    let mut self_check = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => run.traced = true,
            "--smoke" => run.smoke = true,
            "--self-check" => self_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    run.seconds = seconds.unwrap_or(if self_check {
        SELF_CHECK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    // One driver thread; the checker and the theorem harness fan out
    // through cbf-par only where `par.table1_speedup` asks them to.
    std::env::set_var(cbf_par::THREADS_ENV, "1");
    if !run.workload.is_empty() {
        if !WORKLOADS.contains(&run.workload.as_str()) {
            return Err(format!("unknown workload {:?}", run.workload));
        }
        return Ok(run_workload(&run));
    }
    if self_check {
        let (a, ok_a) = run_all(&run, false);
        let (b, ok_b) = run_all(&run, false);
        return Ok(self_check_table(&a, &b) && ok_a && ok_b);
    }
    let (_, ok) = run_all(&run, false);
    Ok(ok && (!run.traced || run_all(&run, true).1))
}

/// Run one workload in this process and print its result.
fn run_workload(args: &RunArgs) -> bool {
    println!("host: {}", clock::host_stamp(args.seed));
    let mut rec = Recorder::new(args.traced);
    let root = rec.enter("bench.workload");
    let mut out = match args.workload.as_str() {
        "theorem-audit" => audit::run(args, &mut rec),
        "net-loopback" => netload::run(args, &mut rec),
        sim => {
            let spec = workload::sim_spec(sim, args.smoke).expect("a simulated workload");
            workload::run_sim(args, &spec, &mut rec)
        }
    };
    rec.exit(root);
    if args.traced {
        let path = format!("{}/trace-{}.json", netload::out_dir(), args.workload);
        let written = std::fs::create_dir_all(netload::out_dir())
            .and_then(|()| std::fs::write(&path, rec.to_json()));
        match written {
            Ok(()) => println!("trace: {} spans written to {path}", rec.mark()),
            Err(e) => out.problems.push(format!("cannot write {path}: {e}")),
        }
    }
    report(args, &out)
}

/// Print every metric of the selected set by name, with unit and sample
/// count, then the contract's JSON line. Returns whether the run was
/// correct and complete.
fn report(args: &RunArgs, out: &Outcome) -> bool {
    let mut result = RunResult {
        correct: out.problems.is_empty(),
        attempted: out.attempted,
        failed: out.failed,
        ..RunResult::default()
    };
    let names: Vec<(String, &str)> = if args.traced {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut missing = Vec::new();
    println!(
        "workload {} seed {} ({})",
        args.workload,
        args.seed,
        if args.traced {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    for (name, unit) in names {
        // A layer the workload does not exercise reads 0; an end-to-end
        // metric must always be measured.
        let v = out.values.get(&name).copied();
        if v.is_none() && !args.traced {
            missing.push(name.clone());
        }
        let v = v.unwrap_or(metrics::Value {
            value: 0.0,
            samples: 0,
        });
        if !v.value.is_finite() {
            missing.push(name.clone());
        }
        println!("  {name:<40} {:>16.4} {unit:<6} n={}", v.value, v.samples);
        result.metrics.insert(name, (v.value, unit.to_string()));
    }
    let mut problems = out.problems.clone();
    problems.dedup();
    for p in problems.iter().take(8) {
        eprintln!("INCORRECT: {p}");
    }
    for m in &missing {
        eprintln!("INCORRECT: metric {m} was not measured");
    }
    result.correct &= missing.is_empty();
    println!("{}", result.to_line());
    result.correct && result.failed == 0
}

/// Re-execute this binary once per workload and print one table. Returns
/// each workload's result (None where the child failed to report).
fn run_all(args: &RunArgs, traced: bool) -> (Vec<Option<RunResult>>, bool) {
    let exe = std::env::current_exe().expect("current executable");
    let mut all_ok = true;
    let results: Vec<Option<RunResult>> = WORKLOADS
        .iter()
        .map(|w| {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().expect("re-executing the benchmark");
            let text = String::from_utf8_lossy(&output.stdout);
            let result = text.lines().last().and_then(RunResult::parse);
            all_ok &= output.status.success() && result.is_some();
            print!(
                "{}",
                text.lines()
                    .filter(|l| !l.starts_with('{'))
                    .map(|l| format!("{l}\n"))
                    .collect::<String>()
            );
            if let Some(r) = &result {
                println!(
                    "  correct={} attempted={} failed={}\n",
                    r.correct, r.attempted, r.failed
                );
            } else {
                println!("  {w}: no result (exit {})\n", output.status);
            }
            result
        })
        .collect();
    (results, all_ok)
}

/// Compare two full runs of one tree, one row per (metric, workload):
/// `pass` within the bound, `unresolved` when the two runs differ by more
/// than the bound (the run-to-run spread is wider than the bound, so a
/// regression of that size could not be told from noise), `FAIL` when a
/// deterministic metric differs at all or a result is missing.
fn self_check_table(a: &[Option<RunResult>], b: &[Option<RunResult>]) -> bool {
    println!("self-check: two runs of the same tree against each end-to-end bound");
    println!(
        "{:<16} {:<16} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut all_pass = true;
    for ((w, ra), rb) in WORKLOADS.iter().zip(a).zip(b) {
        for m in &END_TO_END {
            let pair = ra
                .as_ref()
                .zip(rb.as_ref())
                .and_then(|(ra, rb)| Some((ra.metrics.get(m.name)?.0, rb.metrics.get(m.name)?.0)));
            let Some((x, y)) = pair else {
                println!(
                    "{w:<16} {:<16} {:>16} {:>16} {:>9} {:>6}  FAIL (no result)",
                    m.name, "-", "-", "-", m.bound
                );
                all_pass = false;
                continue;
            };
            // Same tree, so either run may be the "parent": take the
            // larger of the two directions.
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            let worse = match m.better {
                Better::Lower => hi / lo - 1.0,
                Better::Higher => 1.0 - lo / hi,
            };
            let verdict = if is_deterministic(m.name, w) {
                if x == y {
                    "pass (identical)"
                } else {
                    "FAIL (deterministic metric differs)"
                }
            } else if worse <= m.bound {
                "pass"
            } else {
                "unresolved"
            };
            all_pass &= verdict.starts_with("pass");
            println!(
                "{w:<16} {:<16} {x:>16.4} {y:>16.4} {:>8.2}% {:>5.0}%  {verdict}",
                m.name,
                100.0 * worse,
                100.0 * m.bound
            );
        }
    }
    all_pass
}
