//! End-to-end checks of the `repro` binary's failure modes: bad working
//! directories and bad exhibit names must produce contextual errors and
//! nonzero exits, never silent half-results.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A scratch cwd where `results` already exists as a *file*, so the
/// binary cannot create its output directory.
fn blocked_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("results"), b"not a directory").unwrap();
    dir
}

#[test]
fn unwritable_results_dir_is_a_contextual_error() {
    let dir = blocked_dir("blocked");
    let out = repro().arg("table2").current_dir(&dir).output().unwrap();
    assert!(
        !out.status.success(),
        "repro must fail when results/ cannot be created"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("repro: error:") && stderr.contains("results"),
        "stderr names the failing path: {stderr}"
    );
    assert_eq!(out.status.code(), Some(1), "I/O failures exit 1");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_exhibit_lists_the_known_ones() {
    let dir = std::env::temp_dir().join(format!("repro-cli-unknown-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // `perfbench` and `scale` were exhibits once; the repo benchmark
    // replaced them.
    for name in ["no-such-exhibit", "perfbench", "scale"] {
        let out = repro().arg(name).current_dir(&dir).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown exhibit"));
        let known = stderr.lines().find(|l| l.starts_with("known:")).unwrap();
        assert!(known.contains("table1"), "lists the valid exhibits");
        assert!(
            !known.contains("perfbench") && !known.contains("scale"),
            "{known}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_counts_exit_1_before_anything_runs() {
    let dir = std::env::temp_dir().join(format!("repro-cli-count-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // An overflowing count must not wrap into a garbage target, `load`
    // and `soak` reject the same inputs, and a zero-event soak would
    // pass its plateau gate without running a batch.
    for args in [
        ["soak", "99999999999999999m"],
        ["load", "12x"],
        ["soak", "0"],
    ] {
        let out = repro().args(args).current_dir(&dir).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("repro: error: bad "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed an exhibit header");
        let written = std::fs::read_dir(dir.join("results")).unwrap().count();
        assert_eq!(written, 0, "{args:?} wrote an artifact");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cheap_exhibit_succeeds_and_writes_its_artifact() {
    let dir = std::env::temp_dir().join(format!("repro-cli-ok-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = repro().arg("table1").current_dir(&dir).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        dir.join("results/table1_measured.json").exists(),
        "table1 writes results/table1_measured.json"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
