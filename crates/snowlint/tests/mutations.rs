//! The redundancy proof behind deleting the declared SNOW tuples, kept
//! permanent: every code-side drift the declaration rules used to catch
//! is caught by the flow family alone. Each case mutates the real
//! `cops_snow.rs` / `eiger.rs` source in memory, lexes it under its real
//! path and runs the flow pass against the real Table 1 data.
//!
//! What stays invisible to the static pass, and is covered by
//! `audit_rot`'s runtime R/V measurement (`repro table1`, the
//! `theorem-audit` benchmark workload) instead:
//!
//! - a `msg_values` arm that under-counts without being literally `0`
//!   (any non-zero arm weighs one version per object);
//! - anything behind a `// snowflow:` hint — the hint is believed
//!   (`LINT_report.json`'s `flow_hints` counts them);
//! - a drift that stays inside a `≤n` budget — zeroing Eiger's
//!   `Read1Resp` arm derives V=1 under its `≤2` row — which only
//!   `clean_tree.rs::EXPECTED` and the CI diff of the report pin.

use snowlint::lexer::lex;
use snowlint::table1::Table1;
use snowlint::{find_workspace_root, flow};

const COPS_SNOW: &str = "crates/protocols/src/cops_snow.rs";
const EIGER: &str = "crates/protocols/src/eiger.rs";

/// (file, drift, find, replace, the flow rule that must fire).
const CASES: &[(&str, &str, &str, &str, &str)] = &[
    (
        COPS_SNOW,
        "msg_is_request loses a read request",
        "matches!(msg, Msg::RotReq { .. } | Msg::PutReq { .. })",
        "matches!(msg, Msg::PutReq { .. })",
        flow::RULE_FLOW_REQUESTS,
    ),
    (
        COPS_SNOW,
        "msg_is_request loses a write request",
        "matches!(msg, Msg::RotReq { .. } | Msg::PutReq { .. })",
        "matches!(msg, Msg::RotReq { .. })",
        flow::RULE_FLOW_REQUESTS,
    ),
    (
        COPS_SNOW,
        "msg_is_request gains a server→server variant",
        "matches!(msg, Msg::RotReq { .. } | Msg::PutReq { .. })",
        "matches!(msg, Msg::RotReq { .. } | Msg::PutReq { .. } | Msg::OldReaderQuery { .. })",
        flow::RULE_FLOW_REQUESTS,
    ),
    (
        COPS_SNOW,
        "msg_values arm → 0",
        "Msg::RotResp { reads, .. } => crate::common::max_values_per_object(
                reads
                    .iter()
                    .filter(|(_, v, _)| !v.is_bottom())
                    .map(|&(k, _, _)| k),
            ),",
        "Msg::RotResp { .. } => 0,",
        flow::RULE_FLOW_VALUES,
    ),
    (
        COPS_SNOW,
        "SUPPORTS_MULTI_WRITE flipped",
        "const SUPPORTS_MULTI_WRITE: bool = false;",
        "const SUPPORTS_MULTI_WRITE: bool = true;",
        flow::RULE_FLOW_PAPER,
    ),
    (
        COPS_SNOW,
        "CONSISTENCY changed",
        "ConsistencyLevel = ConsistencyLevel::Causal;",
        "ConsistencyLevel = ConsistencyLevel::ReadAtomicity;",
        flow::RULE_FLOW_PAPER,
    ),
    (
        COPS_SNOW,
        "a client arm gains a second server-bound send",
        "                Msg::RotResp { id, reads } => {\n",
        "                Msg::RotResp { id, reads } => {
                    ctx.send(c.topo.primary(Key(0)), Msg::PutReq { id, key: Key(0), value: Value(0), deps: vec![] });\n",
        flow::RULE_FLOW_ROUNDS,
    ),
    (
        COPS_SNOW,
        "a server reply moved behind a stored-client destination",
        "ctx.send(env.from, Msg::RotResp { id, reads });",
        "ctx.send(r.client, Msg::RotResp { id, reads });",
        flow::RULE_FLOW_BLOCKING,
    ),
    (
        EIGER,
        "msg_is_request loses a read request",
        "Msg::Read1 { .. } | Msg::Read2 { .. } | Msg::CheckTx { .. }",
        "Msg::Read1 { .. } | Msg::CheckTx { .. }",
        flow::RULE_FLOW_REQUESTS,
    ),
    (
        EIGER,
        "msg_is_request loses a write request",
        "Msg::CheckTx { .. } | Msg::WtxReq { .. }",
        "Msg::CheckTx { .. }",
        flow::RULE_FLOW_REQUESTS,
    ),
    (
        EIGER,
        "msg_is_request gains a server→server variant",
        "Msg::CheckTx { .. } | Msg::WtxReq { .. }",
        "Msg::CheckTx { .. } | Msg::WtxReq { .. } | Msg::Prepare { .. }",
        flow::RULE_FLOW_REQUESTS,
    ),
    (
        EIGER,
        "SUPPORTS_MULTI_WRITE flipped",
        "const SUPPORTS_MULTI_WRITE: bool = true;",
        "const SUPPORTS_MULTI_WRITE: bool = false;",
        flow::RULE_FLOW_PAPER,
    ),
    (
        EIGER,
        "CONSISTENCY changed",
        "ConsistencyLevel = ConsistencyLevel::Causal;",
        "ConsistencyLevel = ConsistencyLevel::ReadAtomicity;",
        flow::RULE_FLOW_PAPER,
    ),
    (
        EIGER,
        "a client arm gains a fourth server-bound send",
        "                Msg::CheckResp { id, decisions } => {\n",
        "                Msg::CheckResp { id, decisions } => {
                    ctx.send(c.topo.primary(Key(0)), Msg::CheckTx { id, txs: vec![] });\n",
        flow::RULE_FLOW_ROUNDS,
    ),
    (
        EIGER,
        "a server reply moved behind a stored-client destination",
        "                        env.from,\n                        Msg::Read1Resp {",
        "                        r.client,\n                        Msg::Read1Resp {",
        flow::RULE_FLOW_BLOCKING,
    ),
];

#[test]
fn every_code_side_drift_is_caught_by_the_flow_family() {
    let root = find_workspace_root().expect("workspace root");
    let mut problems = Vec::new();
    let table = Table1::load(&root, &mut problems);
    assert!(problems.is_empty(), "{problems:?}");
    let run = |file: &str, src: &str| {
        let mut out = Vec::new();
        flow::check_protocol(file, &lex(src), &table, &mut out).expect("graph");
        out
    };

    for file in [COPS_SNOW, EIGER] {
        let src = std::fs::read_to_string(root.join(file)).expect("protocol source");
        let clean = run(file, &src);
        assert!(clean.is_empty(), "{file} unmutated: {clean:?}");

        for (_, drift, find, replace, rule) in CASES.iter().filter(|c| c.0 == file) {
            let mutated = src.replacen(find, replace, 1);
            assert_ne!(mutated, src, "{file}: `{drift}` replaced nothing");
            let out = run(file, &mutated);
            assert!(
                out.iter().any(|f| f.rule == *rule && f.path == file),
                "{file}: `{drift}` must fire {rule}; got:\n{}",
                out.iter().map(|f| f.render()).collect::<String>()
            );
        }
    }
}
