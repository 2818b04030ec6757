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
//!
//! The memory guard drives the benchmark's `rot-stream` shape at small
//! scale — every key written once, then a read-only YCSB-C stream — on
//! real COPS and Spanner clusters, GC'ing the streaming checker every 64
//! epochs: the verdict must match legacy, GC must retire past the
//! preload's live writers, and the resident state must not grow with the
//! stream.

use cbf_bench::chaos::fault_plan;
use cbf_model::{
    check_causal_legacy, FallbackCounts, ResidentStats, ShardedChecker, TxRecord, Verdict,
};
use cbf_sim::{CountingSink, LatencyModel, ServiceModel, SimConfig, MICROS, MILLIS, SEAL_CAP};
use cbf_workloads::{ClientSwarm, SwarmOp, SwarmSpec};
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

/// What one preload-then-read-only stream left in its checker.
struct StreamCell {
    streaming: Verdict,
    legacy: Verdict,
    txs: usize,
    retired: usize,
    blocked_passes: u64,
    resident: ResidentStats,
    fallbacks: FallbackCounts,
}

/// The `rot-stream` epoch loop at small scale: `sharded(3, 48, 256)`
/// with a 20 µs service time, 24 transactions in flight per epoch, the
/// preload (key `k` written by client `k % 48`), then `periods` × 64
/// read-only epochs. Every epoch's records go through the streaming
/// checker; GC runs every 64 stream epochs, so the last epoch ends on a
/// pass.
fn rot_stream_cell<N: ProtocolNode>(periods: u64, seed: u64) -> StreamCell {
    const KEYS: u32 = 256;
    const CLIENTS: u32 = 48;
    const EPOCH: usize = 24;
    const GC_EVERY: u64 = 64;
    let config = SimConfig {
        service: Some(ServiceModel {
            servers: 3,
            service_time: 20 * MICROS,
        }),
        ..SimConfig::default()
    };
    let mut cluster: Cluster<N> = Cluster::with_network(
        Topology::sharded(3, CLIENTS, KEYS),
        LatencyModel::constant_default(),
        config,
    );
    let mut checker = ShardedChecker::new(1);
    let mut sink = CountingSink::default();
    let (mut ingested, mut retired, mut blocked_passes) = (0usize, 0usize, 0u64);
    let mut epoch = |cluster: &mut Cluster<N>, ops: &[SwarmOp], gc: bool| {
        let open: Vec<_> = ops
            .iter()
            .map(|op| {
                let keys: Vec<Key> = op.keys[..op.nkeys as usize]
                    .iter()
                    .map(|&k| Key(k))
                    .collect();
                let client = ClientId(op.client);
                if op.write {
                    cluster
                        .begin_write_tx(client, &keys)
                        .expect("single-key writes")
                } else {
                    cluster.begin_read_tx(client, &keys)
                }
            })
            .collect();
        assert!(cluster.run_open(&open), "{}: epoch stalled", N::NAME);
        for t in open {
            cluster.finish_tx(t).expect("fault-free epochs complete");
        }
        cluster.world.trace.drain_sealed(&mut sink);
        for t in &cluster.history().transactions()[ingested..] {
            checker.ingest(t.clone());
        }
        ingested = cluster.history().len();
        if gc {
            let stats = checker.gc();
            retired += stats.retired;
            blocked_passes += stats.blocked.is_some() as u64;
        }
    };

    let preload: Vec<SwarmOp> = (0..KEYS)
        .map(|k| SwarmOp {
            client: k % CLIENTS,
            write: true,
            nkeys: 1,
            keys: [k, 0, 0, 0],
        })
        .collect();
    for ops in preload.chunks(EPOCH) {
        epoch(&mut cluster, ops, false);
    }

    let mut swarm = ClientSwarm::new(
        SwarmSpec {
            num_clients: CLIENTS,
            num_keys: KEYS,
            theta: 0.99,
            mix: Mix::ycsb_c(),
            read_keys: 2,
            write_keys: 2,
            wheel_slots: 16,
        },
        seed,
    );
    // At most one op per client per epoch; the rest wait their turn.
    let (mut carry, mut fresh, mut ops) = (Vec::new(), Vec::new(), Vec::new());
    for e in 1..=periods * GC_EVERY {
        let mut busy = [false; CLIENTS as usize];
        ops.clear();
        carry.retain(|op: &SwarmOp| {
            let take = ops.len() < EPOCH && !busy[op.client as usize];
            if take {
                busy[op.client as usize] = true;
                ops.push(*op);
            }
            !take
        });
        while ops.len() < EPOCH {
            swarm.fill_batch(EPOCH - ops.len(), &mut fresh);
            for &op in &fresh {
                if std::mem::replace(&mut busy[op.client as usize], true) {
                    carry.push(op);
                } else {
                    ops.push(op);
                }
            }
        }
        epoch(&mut cluster, &ops, e % GC_EVERY == 0);
    }

    StreamCell {
        streaming: checker.verdict(),
        legacy: check_causal_legacy(cluster.history()),
        txs: checker.len(),
        retired,
        blocked_passes,
        resident: checker.resident_stats(),
        fallbacks: checker.fallbacks(),
    }
}

/// Tier-1 memory guard for checker GC on the `rot-stream` shape: GC'd
/// streaming agrees with legacy, retires at least 90 % of the run
/// (the preload's writers, live forever, become stubs instead of pinning
/// the cut), and the resident rows plus stubs do not grow when the
/// stream doubles.
#[test]
fn rot_stream_checker_memory_stays_flat() {
    fn check<N: ProtocolNode>(seed: u64) {
        let short = rot_stream_cell::<N>(1, seed);
        let long = rot_stream_cell::<N>(2, seed);
        for cell in [&short, &long] {
            assert_eq!(
                cell.streaming,
                cell.legacy,
                "{}: verdicts diverged",
                N::NAME
            );
            assert!(
                cell.streaming.is_ok(),
                "{}: {}",
                N::NAME,
                cell.streaming.render()
            );
            assert_eq!(cell.blocked_passes, 0, "{}: a GC pass refused", N::NAME);
            assert_eq!(
                cell.fallbacks,
                FallbackCounts::default(),
                "{}: a fallback arm fired on a read-only stream",
                N::NAME
            );
            assert!(
                cell.retired * 10 >= cell.txs * 9,
                "{}: retired {} of {} transactions",
                N::NAME,
                cell.retired,
                cell.txs
            );
            assert!(
                cell.resident.stubs > 0,
                "{}: no live writer was stubbed",
                N::NAME
            );
        }
        let footprint = |c: &StreamCell| c.resident.txs + c.resident.stubs;
        assert!(
            footprint(&long) <= footprint(&short) + 48,
            "{}: resident rows + stubs grew from {} to {} when the stream doubled",
            N::NAME,
            footprint(&short),
            footprint(&long)
        );
    }
    check::<CopsNode>(7);
    check::<SpannerNode>(8);
}
