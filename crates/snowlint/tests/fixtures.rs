//! The lint must *fail* on the known-bad fixtures — each rule at the
//! right file and line. Fixtures live in `crates/snowlint/fixtures/`
//! (excluded from the workspace scan) and are lexed here under the
//! path a real offender would have.

use snowlint::lexer::lex;
use snowlint::report::Finding;
use snowlint::table1::{Link, PaperRow, Table1};
use snowlint::{determinism, flow};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// 1-based line of the first line containing `marker`.
fn line_of(src: &str, marker: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(marker))
        .unwrap_or_else(|| panic!("marker {marker:?} not in fixture")) as u32
        + 1
}

/// A one-row Table 1 linking the fixture called `system` to a causal,
/// read-only-write row with the given R/V bounds and N column — the
/// row the test passes in is what the fixture is judged against.
fn linked(system: &str, r: &str, v: &str, n: bool) -> Table1 {
    Table1 {
        rows: vec![PaperRow {
            system: "ROW".into(),
            r: r.into(),
            v: v.into(),
            n,
            w: false,
            consistency: "Causal Consistency".into(),
        }],
        links: vec![Link {
            system: system.into(),
            paper_row: Some("ROW".into()),
            line: 1,
        }],
    }
}

fn render(findings: &[Finding]) -> String {
    findings.iter().map(|f| f.render()).collect()
}

fn expect(findings: &[Finding], rule: &str, path: &str, line: u32) {
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rule && f.path == path && f.line == line),
        "expected {rule} at {path}:{line}; got:\n{}",
        render(findings)
    );
}

/// Each `(rule, marker)` fired on the line carrying `// line: <marker>`.
fn expect_marked(findings: &[Finding], src: &str, path: &str, marked: &[(&str, &str)]) {
    for (rule, marker) in marked {
        let line = line_of(src, &format!("// line: {marker}"));
        expect(findings, rule, path, line);
    }
}

/// Exactly `n` findings.
fn expect_count(findings: &[Finding], n: usize, what: &str) {
    assert_eq!(findings.len(), n, "{what}:\n{}", render(findings));
}

#[test]
fn bad_checker_breaks_every_determinism_rule() {
    let src = fixture("bad_checker.rs");
    let path = "crates/model/src/bad_checker.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);

    expect_marked(
        &out,
        &src,
        path,
        &[
            (determinism::RULE_HASH, "hash-use"),
            (determinism::RULE_HASH, "hash-field"),
            (determinism::RULE_CLOCK, "clock"),
            (determinism::RULE_THREAD, "thread"),
            (determinism::RULE_UNSAFE, "unsafe"),
        ],
    );
    assert_eq!(out.len(), 5, "exactly the five marked violations");
}

#[test]
fn bad_checker_is_clean_outside_deterministic_crates_except_global_rules() {
    // The same source under crates/bench is allowed its HashMaps — but
    // clock, thread and unsafe are global rules and still fire.
    let src = fixture("bad_checker.rs");
    let path = "crates/bench/src/bad_checker.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_HASH));
    assert_eq!(out.len(), 3);
}

#[test]
fn bad_sink_fails_the_guard_and_determinism_rules() {
    // The segment sink is the guarded module of the sim crate: a clone
    // that drops its `#![deny(unsafe_code)]` guard and reaches for
    // HashMap/Instant/unsafe must light up every applicable rule.
    let src = fixture("bad_sink.rs");
    let path = "crates/sim/src/sink.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);

    expect(&out, determinism::RULE_GUARD, path, 1);
    expect_marked(
        &out,
        &src,
        path,
        &[
            (determinism::RULE_HASH, "hash"),
            (determinism::RULE_HASH, "hash-field"),
            (determinism::RULE_CLOCK, "clock"),
            (determinism::RULE_UNSAFE, "unsafe"),
        ],
    );
    expect_count(&out, 5, "exactly the five violations");

    // Restoring the guard silences only the guard rule.
    let fixed = format!("#![deny(unsafe_code)]\n{src}");
    let mut out = Vec::new();
    determinism::check(path, &lex(&fixed), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));
    assert_eq!(out.len(), 4);
}

#[test]
fn bad_pipeline_fails_the_guard_and_determinism_rules() {
    // The streaming-pipeline modules (PR 5) get the same treatment
    // as the sink: a clone that drops its `#![deny(unsafe_code)]` guard
    // and reaches for threads/Instant/unsafe must light up every
    // applicable rule at the exact file and line.
    let src = fixture("bad_pipeline.rs");
    let path = "crates/bench/src/pipeline.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);

    expect(&out, determinism::RULE_GUARD, path, 1);
    expect_marked(
        &out,
        &src,
        path,
        &[
            (determinism::RULE_CLOCK, "clock"),
            (determinism::RULE_THREAD, "thread"),
            (determinism::RULE_UNSAFE, "unsafe"),
        ],
    );
    // bench may use HashMap, so exactly the four violations above.
    expect_count(&out, 4, "exactly the four violations");

    // The same source under the sharded checker's path is inside a
    // deterministic crate: the hash rule joins in at its marked lines.
    let path = "crates/model/src/streaming.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    expect(&out, determinism::RULE_GUARD, path, 1);
    expect_marked(
        &out,
        &src,
        path,
        &[
            (determinism::RULE_HASH, "hash"),
            (determinism::RULE_HASH, "hash-field"),
        ],
    );
    expect_count(&out, 6, "guard + 2 hash + clock + thread + unsafe");

    // Restoring the guard silences only the guard rule.
    let fixed = format!("#![deny(unsafe_code)]\n{src}");
    let mut out = Vec::new();
    determinism::check("crates/bench/src/pipeline.rs", &lex(&fixed), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));
    assert_eq!(out.len(), 3);
}

#[test]
fn bad_gc_fails_the_guard_and_determinism_rules() {
    // The checker's frontier GC and the soak harness (PR 7) join
    // GUARDED_FILES: a clone that drops its `#![deny(unsafe_code)]`
    // guard, triggers collection off the wall clock and compacts its
    // arena with raw pointer copies must light up every applicable
    // rule at the exact file and line. Under the model path the hash
    // rule joins in at its marked lines.
    let src = fixture("bad_gc.rs");
    let path = "crates/model/src/incremental.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);

    expect(&out, determinism::RULE_GUARD, path, 1);
    expect_marked(
        &out,
        &src,
        path,
        &[
            (determinism::RULE_HASH, "hash"),
            (determinism::RULE_HASH, "hash-field"),
            (determinism::RULE_CLOCK, "clock"),
            (determinism::RULE_UNSAFE, "unsafe"),
        ],
    );
    expect_count(&out, 5, "guard + 2 hash + clock + unsafe");

    // The soak harness path is guarded too, but lives in bench where
    // hash maps are legal and the wall clock is allowlisted at the
    // workspace level (snowlint.toml) — the raw pass still reports it.
    let path = "crates/bench/src/soak.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    expect(&out, determinism::RULE_GUARD, path, 1);
    expect_marked(&out, &src, path, &[(determinism::RULE_UNSAFE, "unsafe")]);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_HASH));

    // Restoring the guard silences only the guard rule.
    let fixed = format!("#![deny(unsafe_code)]\n{src}");
    let mut out = Vec::new();
    determinism::check("crates/model/src/incremental.rs", &lex(&fixed), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));
    assert_eq!(out.len(), 4);
}

#[test]
fn bad_workload_fails_the_guard_and_determinism_rules() {
    // The workload generators (PR 8) join both lists: `workloads` is a
    // deterministic crate (its op stream is folded into pinned trace
    // digests) and the swarm/alias hot paths are guarded files. A swarm
    // clone that drops its `#![deny(unsafe_code)]` guard, seeds from
    // the wall clock, drains clients in HashMap order and indexes its
    // table unchecked must light up every rule at the exact line.
    let src = fixture("bad_workload.rs");
    let path = "crates/workloads/src/swarm.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);

    expect(&out, determinism::RULE_GUARD, path, 1);
    expect_marked(
        &out,
        &src,
        path,
        &[
            (determinism::RULE_HASH, "hash-use"),
            (determinism::RULE_HASH, "hash-field"),
            (determinism::RULE_CLOCK, "clock"),
            (determinism::RULE_THREAD, "thread"),
            (determinism::RULE_UNSAFE, "unsafe"),
        ],
    );
    // The fixture constructs two more HashMaps inside `new`.
    let hash_count = out
        .iter()
        .filter(|f| f.rule == determinism::RULE_HASH)
        .count();
    assert!(
        hash_count >= 2,
        "at least the two marked hash sites:\n{}",
        render(&out)
    );

    // Restoring the guard silences only the guard rule.
    let fixed = format!("#![deny(unsafe_code)]\n{src}");
    let mut out = Vec::new();
    determinism::check(path, &lex(&fixed), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));

    // The same source under a path outside the deterministic crates
    // and the guarded list keeps only the global rules.
    let path = "crates/bench/src/bad_workload.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_HASH));
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));
    // Clock fires on every `SystemTime` mention (the use, the ::now
    // and UNIX_EPOCH), plus the thread and unsafe sites.
    expect_count(&out, 5, "3 clock + thread + unsafe");
}

#[test]
fn bad_net_crosses_the_runtime_boundary_both_ways() {
    // The real-socket runtime (PR 10) draws a two-way boundary: sockets
    // stay inside crates/net, and the simulator's oracle types stay out
    // of crates/net's hot path. One fixture violates both, and which
    // rules fire depends on which side of the boundary it is lexed on.
    let src = fixture("bad_net.rs");

    // Under a deterministic crate the sockets are the offence, and the
    // net carve-outs do not apply: clock and thread fire too.
    let path = "crates/sim/src/transport.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    for marker in [
        "// line: socket-use",
        "// line: socket-dial",
        "// line: socket-connect",
    ] {
        expect(&out, determinism::RULE_NET, path, line_of(&src, marker));
    }
    expect_marked(
        &out,
        &src,
        path,
        &[
            (determinism::RULE_CLOCK, "clock"),
            (determinism::RULE_THREAD, "thread"),
        ],
    );
    expect_count(&out, 5, "3 sockets + clock + thread");

    // Under the event loop's own path the sockets, clock and thread are
    // the runtime's business — but the oracle types in the hot path and
    // the dropped `#![deny(unsafe_code)]` guard fire.
    let path = "crates/net/src/node.rs";
    let mut out = Vec::new();
    determinism::check(path, &lex(&src), &mut out);
    expect(&out, determinism::RULE_GUARD, path, 1);
    expect_marked(
        &out,
        &src,
        path,
        &[
            (determinism::RULE_SIM_IN_NET, "sim-world"),
            (determinism::RULE_SIM_IN_NET, "sim-config"),
        ],
    );
    expect_count(&out, 3, "guard + 2 oracle types");

    // Restoring the guard silences only the guard rule.
    let fixed = format!("#![deny(unsafe_code)]\n{src}");
    let mut out = Vec::new();
    determinism::check(path, &lex(&fixed), &mut out);
    assert!(out.iter().all(|f| f.rule != determinism::RULE_GUARD));
    assert_eq!(out.len(), 2);

    // The replay oracle is the sanctioned home for every one of these
    // names: same source, zero findings.
    let mut out = Vec::new();
    determinism::check("crates/net/src/replay.rs", &lex(&src), &mut out);
    expect_count(&out, 0, "clean");
}

#[test]
fn bad_flow_rounds_fires_on_the_extra_round_send() {
    let src = fixture("bad_flow_rounds.rs");
    let path = "crates/protocols/src/bad_flow_rounds.rs";
    let mut out = Vec::new();
    let row = linked("BAD-FLOW-ROUNDS", "1", "1", true);
    let g = flow::check_protocol(path, &lex(&src), &row, &mut out).expect("graph");

    // The finding points at the second server-bound hop — the first
    // send beyond the row's one-round budget — not the `const NAME`.
    expect_marked(&out, &src, path, &[(flow::RULE_FLOW_ROUNDS, "extra-round")]);
    assert_eq!(g.derived.rounds, Some(2));
    expect_count(&out, 1, "exactly the marked violation");

    // A row that allows what the handlers actually do silences the
    // rule: the finding is about the row/derivation gap, not the hops.
    assert_clean(path, &src, &linked("BAD-FLOW-ROUNDS", "2", "1", true));
}

/// The honest variant: the same fixture against a matching row.
fn assert_clean(path: &str, src: &str, table: &Table1) {
    let mut out = Vec::new();
    flow::check_protocol(path, &lex(src), table, &mut out).expect("graph");
    expect_count(&out, 0, "clean");
}

#[test]
fn bad_flow_values_fires_on_the_second_version_reply() {
    let src = fixture("bad_flow_values.rs");
    let path = "crates/protocols/src/bad_flow_values.rs";
    let mut out = Vec::new();
    let row = linked("BAD-FLOW-VALUES", "2", "1", true);
    let g = flow::check_protocol(path, &lex(&src), &row, &mut out).expect("graph");

    expect_marked(
        &out,
        &src,
        path,
        &[(flow::RULE_FLOW_VALUES, "second-version")],
    );
    assert_eq!(g.derived.values, Some(2));
    expect_count(&out, 1, "exactly the marked violation");
    assert_clean(path, &src, &linked("BAD-FLOW-VALUES", "2", "≤2", true));
}

#[test]
fn bad_flow_blocking_fires_on_the_deferred_reply() {
    let src = fixture("bad_flow_blocking.rs");
    let path = "crates/protocols/src/bad_flow_blocking.rs";
    let mut out = Vec::new();
    let row = linked("BAD-FLOW-BLOCKING", "1", "1", true);
    let g = flow::check_protocol(path, &lex(&src), &row, &mut out).expect("graph");

    // The reply reached through the drain helper goes to a *stored*
    // client pid; the finding lands on that send, not the stash site.
    expect_marked(
        &out,
        &src,
        path,
        &[(flow::RULE_FLOW_BLOCKING, "deferred-reply")],
    );
    assert!(!g.derived.nonblocking);
    assert_eq!(g.derived.rounds, Some(1), "the stash itself is one round");
    expect_count(&out, 1, "exactly the marked violation");
    assert_clean(path, &src, &linked("BAD-FLOW-BLOCKING", "1", "1", false));
}

#[test]
fn bad_flow_taint_fires_on_the_source_with_its_call_chain() {
    let src = fixture("bad_flow_taint.rs");
    let path = "crates/protocols/src/bad_flow_taint.rs";
    let mut out = Vec::new();
    let row = linked("BAD-FLOW-TAINT", "1", "1", true);
    flow::check_protocol(path, &lex(&src), &row, &mut out).expect("graph");

    let line = line_of(&src, "// line: taint-source");
    expect(&out, flow::RULE_FLOW_TAINT, path, line);
    let f = out
        .iter()
        .find(|f| f.rule == flow::RULE_FLOW_TAINT)
        .unwrap();
    assert!(
        f.message.contains("backoff_jitter") && f.message.contains("seed_from_os"),
        "the finding names the call chain: {}",
        f.message
    );
    expect_count(&out, 1, "exactly the marked violation");
}

#[test]
fn bad_flow_dead_arm_fires_on_the_unreachable_arm() {
    let src = fixture("bad_flow_dead_arm.rs");
    let path = "crates/protocols/src/bad_flow_dead_arm.rs";
    let mut out = Vec::new();
    let row = linked("BAD-FLOW-DEAD-ARM", "1", "1", true);
    flow::check_protocol(path, &lex(&src), &row, &mut out).expect("graph");

    expect_marked(&out, &src, path, &[(flow::RULE_FLOW_DEAD_ARM, "dead-arm")]);
    expect_count(&out, 1, "exactly the marked violation");
}

#[test]
fn bad_common_effect_fires_on_each_hidden_effect_outside_tests() {
    let src = fixture("bad_common_effect.rs");
    let path = "crates/protocols/src/common/bad_common_effect.rs";
    let mut out = Vec::new();
    flow::check_common(path, &lex(&src), &mut out);

    let rule = flow::RULE_COMMON_EFFECT;
    let marked = [(rule, "completion"), (rule, "send"), (rule, "timer")];
    expect_marked(&out, &src, path, &marked);
    expect_count(
        &out,
        3,
        "the marked effects, none in comments, strings or test items",
    );
}
