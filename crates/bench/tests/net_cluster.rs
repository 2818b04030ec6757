//! End-to-end checks of the real-socket runtime through the `repro`
//! binary: a loopback smoke cluster must run, replay bit-identically
//! against the simulator and write its artifact; the hidden `net-node`
//! child entry point and the tier parser must fail loudly, never
//! silently half-run. Plus the two Table-1 protocols whose real-socket
//! histories `repro net` reports without gating on the causal check
//! (DESIGN §2.13), each with the reason pinned in the simulator.

use cbf_model::{ClientId, Key, Value};
use cbf_protocols::pinned::PinnedNode;
use cbf_protocols::ramp::RampNode;
use cbf_protocols::{Cluster, ProtocolNode, Topology};
use cbf_sim::{ProcessId, SECONDS};
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn net_smoke_runs_replays_and_writes_the_artifact() {
    let dir = scratch("smoke");
    let out = repro()
        .args(["net", "smoke"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "net smoke failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("replayed bit-identically"),
        "success epilogue announces the replay verdict: {stdout}"
    );
    let json = std::fs::read_to_string(dir.join("results/BENCH_net.json"))
        .expect("net smoke writes results/BENCH_net.json");
    assert!(json.contains("snowbound-net-v1"), "schema tag: {json}");
    assert!(json.contains("\"tier\": \"smoke\""));
    assert!(
        json.contains("COPS-SNOW"),
        "both smoke protocols present: {json}"
    );
    assert!(json.contains("\"replay_ok\": true"));
    assert!(json.contains("\"causal_ok\": true"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn net_node_with_bad_args_exits_one() {
    // The hidden child entry point must exit 1 on malformed invocation
    // so the launcher's exit-status propagation sees a real failure.
    let out = repro().args(["net-node", "cops"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "net-node arg errors exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("net-node:") && stderr.contains("7 args"),
        "stderr names the problem: {stderr}"
    );
}

#[test]
fn net_rejects_unknown_tiers() {
    let dir = scratch("tier");
    let out = repro()
        .args(["net", "warp"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "usage errors are errors");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown net tier") && stderr.contains("smoke"),
        "stderr lists the valid tiers: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ungated_protocols_are_exactly_the_two_with_a_pinned_reason() {
    assert_eq!(cbf_bench::net::CAUSAL_UNGATED, ["pinned", "ramp"]);
    // RAMP: read atomicity is all it claims.
    assert!(!RampNode::CONSISTENCY.implies_causal());
    // pinned claims causal — see the next test for what a real network
    // does to that claim.
    assert!(PinnedNode::CONSISTENCY.implies_causal());
}

/// `pinned`'s coordinator sends `WtxAck` to the client in the same step
/// as `Commit` to the participants. On the simulator's equal-latency
/// links the two land together and nobody can tell; a real kernel
/// delivers them whenever it likes. Hold one `Commit` back and a second
/// client, pinned past the commit timestamp by a write of its own, reads
/// half of the transaction: the causal violation `repro net table1`
/// occasionally meets on loopback.
#[test]
fn pinned_reads_half_a_transaction_when_a_commit_lags_its_ack() {
    let mut c: Cluster<PinnedNode> = Cluster::new(Topology::sharded(2, 2, 4));
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    let (writer, reader) = (ClientId(0), ClientId(1));

    // Keys 0 and 1 live on p0 and p1; p0 coordinates. Let `Prepare`
    // through, then freeze p0 → p1 so p1 never sees `Commit`.
    let tx = c.begin_write_tx(writer, &[Key(0), Key(1)]).unwrap();
    let prepared = c
        .world
        .run_until_within(SECONDS, |w| !w.in_flight_on(p1, p0).is_empty());
    assert!(prepared.is_settled());
    c.world.hold(p0, p1);
    assert!(c.run_open(std::slice::from_ref(&tx)), "acked without p1");
    let written = tx.writes.clone();
    c.finish_tx(tx).unwrap();

    // The reader advances its pin past that commit with a write of its
    // own on p0 (key 2), then reads both keys at the pin.
    c.write_tx_auto(reader, &[Key(2)]).unwrap();
    let r = c.read_tx(reader, &[Key(0), Key(1)]).unwrap();
    assert_eq!(r.reads, vec![written[0], (Key(1), Value::BOTTOM)]);
    assert!(!c.check().is_ok(), "half a transaction is not causal");
}
