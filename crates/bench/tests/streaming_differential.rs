//! Differential suite: streamed checking and mid-run trace recycling vs
//! the legacy batch path, on real protocol clusters.
//!
//! Thirteen chaos scenarios — protocol clusters under the nemesis
//! (drop/duplicate/crash fault plans), each on its own seed. The
//! observed history is checked twice — streamed one transaction at a
//! time through a [`ShardedChecker`] and batched through
//! [`check_causal_legacy`] — and the run is replayed with sealed trace
//! segments recycled mid-run to pin the digest against the fully
//! retained twin.
//!
//! A final set of cells mutates chaos histories into *violating* ones
//! (a fresh client reads a newer version, then an older one), so the
//! rendering comparison also covers the failure path, not just the
//! all-OK case.

use cbf_bench::chaos::fault_plan;
use cbf_model::{check_causal_legacy, ShardedChecker, TxRecord, Verdict};
use cbf_sim::{CountingSink, LatencyModel, SimConfig, MILLIS, SEAL_CAP};
use snowbound::prelude::*;

/// Seeds 19..32: one per chaos scenario below.
const CHAOS_SEED_BASE: u64 = 19;

/// Everything one chaos scenario contributes to the differential.
struct ChaosCell {
    /// Transactions the clients completed.
    txs: usize,
    /// Verdict from streaming the history through a [`ShardedChecker`].
    streaming: Verdict,
    /// Verdict from the legacy batch oracle.
    legacy: Verdict,
    /// Digest of the fully retained trace.
    full_digest: u64,
    /// Digest after the replay that recycled sealed segments mid-run.
    drained_digest: u64,
    /// Events recycled in the drained replay.
    recycled: usize,
    /// Total trace events recorded (either replay — asserted equal).
    trace_events: usize,
    /// The observed history, for the mutation cells.
    history: History,
}

/// Run one chaos cell twice — retained and drained — and check its
/// history both ways. The workload is the chaos exhibit's: 5 rounds of
/// every client writing one key and reading both, retries enabled.
fn chaos_cell<N: ProtocolNode>(drop_pm: u16, dup_pm: u16, crash: bool, seed: u64) -> ChaosCell {
    let run = |drain: bool| {
        let mut cluster: Cluster<N> = Cluster::with_network(
            Topology::minimal(4).with_retry(MILLIS),
            LatencyModel::constant_default(),
            SimConfig {
                fault: Some(fault_plan(drop_pm, dup_pm, crash, seed)),
                ..SimConfig::default()
            },
        );
        let mut sink = CountingSink::default();
        for round in 0..5u32 {
            for cl in 0..4u32 {
                let _ = cluster.write_tx_auto(ClientId(cl), &[Key((round + cl) % 2)]);
                let _ = cluster.read_tx(ClientId((cl + 1) % 4), &[Key(0), Key(1)]);
            }
            if drain {
                // Recycle everything sealed so far: the digest keeps
                // folding, the events leave memory.
                cluster.world.trace.drain_sealed(&mut sink);
            }
        }
        cluster
    };

    let retained = run(false);
    let drained = run(true);
    let history = retained.history().clone();

    let mut streaming = ShardedChecker::new(1);
    for t in history.transactions() {
        streaming.ingest(t.clone());
    }

    // `Trace::len` counts recycled events too, so the two replays must
    // agree on it directly.
    let trace_events = retained.world.trace.len();
    assert_eq!(
        trace_events,
        drained.world.trace.len(),
        "the drained replay lost or invented events"
    );

    ChaosCell {
        txs: history.len(),
        streaming: streaming.verdict(),
        legacy: check_causal_legacy(&history),
        full_digest: retained.world.trace.digest(),
        drained_digest: drained.world.trace.digest(),
        recycled: drained.world.trace.recycled_events(),
        trace_events,
        history,
    }
}

/// The 13 chaos scenarios: the exhibit's rate grid (fault-free,
/// moderate faults, heavy faults + crash) across the four
/// retry-hardened protocols, plus one extra heavy-drop cell without a
/// crash. Each runs on its own seed of the sweep.
fn chaos_scenarios() -> Vec<ChaosCell> {
    let mut cells = Vec::new();
    let grid: [(u16, u16, bool); 3] = [(0, 0, false), (20, 20, false), (50, 50, true)];
    let mut seed = CHAOS_SEED_BASE;
    for (drop_pm, dup_pm, crash) in grid {
        cells.push(chaos_cell::<CopsNode>(drop_pm, dup_pm, crash, seed));
        cells.push(chaos_cell::<CopsSnowNode>(drop_pm, dup_pm, crash, seed + 1));
        cells.push(chaos_cell::<EigerNode>(drop_pm, dup_pm, crash, seed + 2));
        cells.push(chaos_cell::<SpannerNode>(drop_pm, dup_pm, crash, seed + 3));
        seed += 4;
    }
    cells.push(chaos_cell::<CopsNode>(50, 50, false, seed));
    assert_eq!(seed + 1, 32, "the sweep must end exactly at seed 32");
    assert_eq!(cells.len(), 13);
    cells
}

#[test]
fn chaos_scenarios_check_identically_streamed_and_batched() {
    for (i, cell) in chaos_scenarios().into_iter().enumerate() {
        assert!(cell.txs > 0, "scenario {i} completed nothing");
        assert_eq!(
            cell.streaming, cell.legacy,
            "scenario {i}: streaming and legacy verdicts diverged"
        );
        assert_eq!(
            cell.streaming.render(),
            cell.legacy.render(),
            "scenario {i}: verdict renderings diverged"
        );
        assert!(
            cell.streaming.is_ok(),
            "scenario {i}: retry-hardened protocols must stay causal under the nemesis"
        );
        assert_eq!(
            cell.full_digest, cell.drained_digest,
            "scenario {i}: recycling sealed segments changed the digest"
        );
        if cell.trace_events > SEAL_CAP {
            assert!(
                cell.recycled > 0,
                "scenario {i}: {} events but nothing recycled",
                cell.trace_events
            );
        }
    }
}

/// Append two read transactions by a fresh client — newer version
/// first, then an older one of the same key — turning a causal history
/// into a stale-read violation both checkers must flag identically.
fn poison(history: &History) -> Option<History> {
    // A key written at least twice, with its values in completion order.
    let mut versions: Vec<(Key, Vec<Value>)> = Vec::new();
    for t in history.transactions() {
        for &(k, v) in &t.writes {
            match versions.iter_mut().find(|(kk, _)| *kk == k) {
                Some((_, vs)) => vs.push(v),
                None => versions.push((k, vec![v])),
            }
        }
    }
    let (key, vals) = versions.into_iter().find(|(_, vs)| vs.len() >= 2)?;
    let (old, new) = (vals[0], *vals.last().expect("len >= 2"));

    let mut poisoned = history.clone();
    let base = history.len() as u64;
    let fresh = ClientId(99);
    for (i, v) in [(0u64, new), (1u64, old)] {
        poisoned.push(TxRecord {
            id: TxId(1_000_000 + base + i),
            client: fresh,
            reads: vec![(key, v)],
            writes: vec![],
            invoked_at: 0,
            completed_at: 0,
        });
    }
    Some(poisoned)
}

#[test]
fn poisoned_chaos_histories_render_identically() {
    let mut violations_exercised = 0usize;
    for (i, cell) in chaos_scenarios().into_iter().enumerate() {
        let Some(poisoned) = poison(&cell.history) else {
            continue;
        };
        let mut streaming = ShardedChecker::new(1);
        for t in poisoned.transactions() {
            streaming.ingest(t.clone());
        }
        let streamed = streaming.verdict();
        let legacy = check_causal_legacy(&poisoned);
        assert_eq!(streamed, legacy, "poisoned scenario {i}: verdicts diverged");
        assert_eq!(
            streamed.render(),
            legacy.render(),
            "poisoned scenario {i}: violation renderings diverged"
        );
        if !streamed.is_ok() {
            violations_exercised += 1;
        }
    }
    assert!(
        violations_exercised > 0,
        "no poisoned cell produced a violation — the rendering \
         comparison never saw the failure path"
    );
}
