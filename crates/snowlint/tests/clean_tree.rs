//! The committed tree must lint clean: zero errors, zero warnings
//! (warnings mean allowlist rot), all protocol modules checked, and
//! the snowflow derivation of every module pinned — `EXPECTED` here and
//! the CI-diffed `results/LINT_report.json` are the only places a
//! protocol's SNOW tuple is written down.

/// (system prefix, rounds, values, nonblocking, write_tx).
type ExpectedTuple = (&'static str, Option<u32>, Option<u32>, bool, bool);

/// The SNOW tuples snowflow must derive from the handler graphs —
/// `None` bounds mean unbounded. Keyed by system name prefix so
/// exhibit suffixes ("(§3.4)", "-like") stay out of the table.
const EXPECTED: &[ExpectedTuple] = &[
    ("COPS-RW", Some(1), None, true, true),
    ("COPS-SNOW", Some(1), Some(1), true, false),
    ("COPS", Some(2), Some(2), true, false),
    ("Calvin", Some(2), Some(1), false, true),
    ("Contrarian", Some(2), Some(1), true, false),
    ("Cure", Some(2), Some(1), false, true),
    ("Eiger", Some(3), Some(2), true, true),
    ("GentleRain", Some(2), Some(1), false, false),
    ("Occult", None, None, true, true),
    ("RAMP", Some(2), Some(2), true, true),
    ("Spanner", Some(1), Some(1), false, true),
    ("Wren", Some(2), Some(1), true, true),
    ("naive", Some(1), Some(1), true, true),
    ("pinned", Some(1), Some(1), true, true),
];

#[test]
fn head_is_clean_and_fully_covered() {
    let root = snowlint::find_workspace_root().expect("workspace root");
    let report = snowlint::check_workspace(&root);
    assert!(
        report.is_clean(),
        "snowlint errors on HEAD:\n{}",
        report.render()
    );
    assert!(
        report.warnings.is_empty(),
        "snowlint warnings on HEAD (allowlist rot):\n{}",
        report.render()
    );
    assert_eq!(
        report.protocols_checked, 14,
        "every protocol module went through the flow pass"
    );
    assert!(
        report.files_scanned >= 50,
        "the scan saw the whole workspace, not a subtree ({} files)",
        report.files_scanned
    );
    // The sanctioned suppressions: no crate reads a clock under an
    // allowlist entry (wall-clock is measured by `benchmark/` only), and
    // the two Theorem-1 exhibits' derived tuples hit the documented hatch.
    assert!(
        !report
            .suppressed
            .iter()
            .any(|s| s.finding.rule == "wall-clock" && s.finding.path.starts_with("crates/")),
        "a wall-clock finding under crates/ is suppressed:\n{}",
        report.render()
    );
    for exhibit in ["naive.rs", "pinned.rs"] {
        assert!(
            report
                .suppressed
                .iter()
                .any(|s| s.finding.rule == "flow-impossible" && s.finding.path.ends_with(exhibit)),
            "{exhibit} derives a Theorem-1-impossible tuple through the toml hatch"
        );
    }
}

#[test]
fn snowflow_derivations_are_pinned() {
    let root = snowlint::find_workspace_root().expect("workspace root");
    let report = snowlint::check_workspace(&root);
    assert_eq!(
        report.flows.len(),
        14,
        "one handler graph per protocol module"
    );
    for (prefix, rounds, values, nonblocking, write_tx) in EXPECTED {
        let g = report
            .flows
            .iter()
            .find(|g| {
                g.system.starts_with(prefix)
                    && !(*prefix == "COPS" && g.system.starts_with("COPS-"))
            })
            .unwrap_or_else(|| panic!("no handler graph for {prefix}"));
        let d = &g.derived;
        assert_eq!(
            (d.rounds, d.values, d.nonblocking, d.write_tx),
            (*rounds, *values, *nonblocking, *write_tx),
            "derived SNOW tuple for {} ({})",
            g.system,
            g.path
        );
        assert!(!g.arms.is_empty(), "{} has handler arms", g.system);
    }
    // The links snowlint resolved, and the soundness debt it leaned on:
    // `eiger.rs` and `cops_rw.rs` each carry one `values(..)` hint.
    let linked = report.flows.iter().filter(|g| g.paper_row.is_some());
    assert_eq!(linked.count(), 12, "12 modules reproduce a Table 1 row");
    assert_eq!(report.flow_hints(), 2, "a new hint is new soundness debt");

    // The artifacts render from the same graphs the report carries.
    let json = report.to_json();
    assert!(json.contains("\"flow_hints\": 2"));
    assert!(json.contains("\"paper_row\":\"SwiftCloud\""));
    assert!(json.contains("\"schema\": \"snowlint/2\""));
    assert!(json.contains("\"schema_version\": 2"));
    assert!(json.contains("\"system\":\"Eiger\""));
    let dot = snowlint::graph::HandlerGraph::render_dot(&report.flows);
    assert!(dot.contains("digraph snowflow"));
    assert_eq!(dot.matches("subgraph cluster_").count(), 14);
}
