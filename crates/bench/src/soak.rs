//! The soak exhibit: a bounded-memory forever-run under the nemesis.
//!
//! It drives the 8-server key-value world of [`crate::pipeline`] — its
//! seeded op stream ([`OpGen`]) in batches, each server's commit log
//! streamed into its own checker shard, sealed trace segments recycled
//! after every batch — with three forever-run twists:
//!
//! * **a rolling fault plan**: continuous message drops and duplicates,
//!   a crash/recover cycling through the servers every few virtual
//!   milliseconds, and periodic ring partitions. Client ops are
//!   injected at a ring *neighbour* of the owning server, so every op
//!   crosses the network once and the nemesis can drop, duplicate or
//!   crash it;
//! * **frontier GC**: the run garbage-collects the
//!   [`ShardedChecker`] every few batches, so checker state tracks the
//!   causal frontier instead of the run length — the model-side
//!   differential suite proves the GC invisible, and this run is where
//!   that invisibility pays rent;
//! * **memory sampling**: every few batches the run records process
//!   RSS, checker resident sizes and the running verdict. The report
//!   asserts a *flat plateau*: final RSS within [`PLATEAU_HEADROOM`] of
//!   the RSS at 10% progress. A leak anywhere in the sim → check path
//!   shows up as a failed plateau, not as an OOM three days in.
//!
//! Batches advance by a fixed virtual-time slice ([`BATCH_SLICE`],
//! via [`World::run_for`]) rather than running to quiescence: the fault
//! plan's whole schedule is queued up front, and quiescence would
//! fast-forward through it in one gulp. A slice comfortably covers a
//! batch's two-hop traffic (constant 50 µs latency), so the dedup
//! window's one-batch in-flight bound still holds; ops a partition
//! freezes past a slice boundary deliver a batch late, still inside the
//! window — and anything older reads as settled history and is
//! absorbed, which is indistinguishable from the drop the nemesis
//! already inflicts.
//!
//! Everything is deterministic in `(target_events, seed)`: the op
//! stream, the fault schedule and the virtual clock are all seeded, so
//! a soak failure replays bit-identically at any tier.
//!
//! [`World::run_for`]: cbf_sim::World::run_for

#![deny(unsafe_code)]

use cbf_model::{ResidentStats, ShardedChecker};
use cbf_sim::{CountingSink, FaultPlan, LatencyModel, ProcessId, SimConfig, World, MILLIS};

use crate::memstats::MemStats;
use crate::pipeline::{KvServer, OpGen, BATCH_OPS, SERVERS};

/// Key space of the soak world.
pub const SOAK_KEYS: u32 = 64;

/// Virtual time one batch is given to settle ([`cbf_sim::World::run_for`]).
pub const BATCH_SLICE: cbf_sim::Time = MILLIS;

/// GC the sharded checker every this many batches.
const GC_EVERY_BATCHES: u64 = 8;

/// Record a sample every this many batches (and always on the last).
const SAMPLE_EVERY_BATCHES: u64 = 32;

/// Message drop/duplication rates of the rolling plan, per mille.
const SOAK_DROP_PM: u16 = 10;
const SOAK_DUP_PM: u16 = 10;

/// Final-RSS budget relative to the 10%-progress sample: the flat
/// plateau the forever-run claim rests on.
pub const PLATEAU_HEADROOM: f64 = 1.15;

/// The rolling fault plan: continuous drops/dups, a crash cycling
/// through the servers every 5 virtual ms (dark for 1 ms, store kept —
/// a restart, not a disk loss), and a ring partition every 23 ms
/// healing after 1 ms. Entries are pre-scheduled at absolute virtual
/// times far past any realistic run; ones beyond the actual span simply
/// never fire.
pub fn soak_fault_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed)
        .with_drops(SOAK_DROP_PM)
        .with_dups(SOAK_DUP_PM);
    for k in 0..6_000u64 {
        let pid = ProcessId((k % SERVERS as u64) as u32);
        let at = MILLIS + k * 5 * MILLIS;
        plan = plan.with_crash(pid, at, at + MILLIS, false);
    }
    for k in 0..1_300u64 {
        let a = (k % SERVERS as u64) as u32;
        let b = ((k + 3) % SERVERS as u64) as u32;
        let at = 2 * MILLIS + k * 23 * MILLIS;
        plan = plan.with_partition(ProcessId(a), ProcessId(b), at, at + MILLIS);
    }
    plan
}

/// One point on the soak's memory/state timeline.
#[derive(Clone, Debug)]
pub struct SoakSample {
    /// Batch index at the sample.
    pub batch: u64,
    /// Simulator events processed so far.
    pub events: u64,
    /// Transactions ingested into the checker so far.
    pub txs: u64,
    /// Checker transactions resident (across shards) after GC.
    pub resident_txs: u64,
    /// Checker version-chain entries resident (across shards).
    pub resident_chain_entries: u64,
    /// Transactions retired by GC so far (cumulative).
    pub retired: u64,
    /// Process RSS at the sample, kB.
    pub current_rss_kb: u64,
    /// Running causal verdict — must hold at *every* sample, not just
    /// at the end.
    pub causal_ok: bool,
}

/// What one soak run sustained and proved.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Events the run was asked to sustain.
    pub target_events: u64,
    /// Simulator events actually processed (first batch boundary past
    /// the target).
    pub events: u64,
    /// Client ops injected.
    pub ops: u64,
    /// Batches driven.
    pub batches: u64,
    /// Transactions checked.
    pub txs: u64,
    /// Transactions retired by checker GC over the run.
    pub retired: u64,
    /// GC passes that retired nothing and said why (legacy-fallback
    /// windows); 0 on a healthy soak.
    pub gc_blocked_passes: u64,
    /// Duplicate op deliveries absorbed by the servers' dedup windows.
    pub dups_absorbed: u64,
    /// Reads of never-written keys skipped (init writes the nemesis ate).
    pub reads_skipped: u64,
    /// Final causal verdict (and every sample's — see `samples`).
    pub causal_ok: bool,
    /// Trace digest: recycling folds segments into a running digest state,
    /// so this fingerprints the whole run.
    pub digest: u64,
    /// Checker resident sizes at the end, summed across shards.
    pub resident: ResidentStats,
    /// Peak/current process RSS at the end of the run.
    pub memory: MemStats,
    /// RSS at the first sample at or past 10% progress, kB.
    pub plateau_baseline_rss_kb: u64,
    /// RSS at the final sample, kB.
    pub plateau_final_rss_kb: u64,
    /// `final / baseline`; must stay ≤ [`PLATEAU_HEADROOM`].
    pub plateau_ratio: f64,
    /// The flat-plateau claim: `plateau_ratio ≤ PLATEAU_HEADROOM`.
    pub plateau_ok: bool,
    /// The sampled timeline.
    pub samples: Vec<SoakSample>,
}

/// Run the soak until at least `target_events` simulator events have
/// been processed. See module docs for what is asserted and why.
pub fn run_soak(target_events: u64, seed: u64) -> SoakReport {
    run_soak_gc(target_events, seed, true)
}

/// [`run_soak`] with the checker GC switchable — the differential tests
/// run both and assert GC changes *nothing observable* (digest, txs,
/// verdict), only resident state. Never disable it for real soaks: the
/// bounded-memory claim is the point.
pub fn run_soak_gc(target_events: u64, seed: u64, gc: bool) -> SoakReport {
    let actors: Vec<KvServer> = (0..SERVERS).map(|s| KvServer::new(s, SOAK_KEYS)).collect();
    let mut w = World::new(
        actors,
        LatencyModel::constant_default(),
        SimConfig {
            record_trace: true,
            fault: Some(soak_fault_plan(seed)),
            ..SimConfig::default()
        },
    );
    let mut sink = CountingSink::default();
    let mut checker = ShardedChecker::new(SERVERS as usize);
    let mut gen = OpGen::new(SOAK_KEYS, seed);

    let mut ops = 0u64;
    let mut batch = 0u64;
    let mut retired = 0u64;
    let mut gc_blocked_passes = 0u64;
    let mut samples: Vec<SoakSample> = Vec::new();
    let mut events = 0u64;

    while events < target_events {
        batch += 1;
        for _ in 0..BATCH_OPS {
            let (owner, msg) = gen.next_op();
            // One hop ahead of the owner on the ring: the op must cross
            // the network, where the nemesis lives.
            let ingress = ProcessId((owner.0 + SERVERS - 1) % SERVERS);
            w.inject_no_step(ingress, msg);
            ops += 1;
        }
        for s in 0..SERVERS {
            w.kick(ProcessId(s));
        }
        w.run_for(BATCH_SLICE);
        for s in 0..SERVERS {
            for t in w.actor_mut(ProcessId(s)).take_log() {
                checker.ingest_to(s as usize, t);
            }
        }
        w.trace.drain_sealed(&mut sink);
        if gc && batch.is_multiple_of(GC_EVERY_BATCHES) {
            let stats = checker.gc();
            retired += stats.retired as u64;
            if stats.retired == 0 && stats.blocked.is_some() {
                gc_blocked_passes += 1;
            }
        }
        events = w.stats().events;
        if batch.is_multiple_of(SAMPLE_EVERY_BATCHES) || events >= target_events {
            let resident = checker.resident_stats();
            samples.push(SoakSample {
                batch,
                events,
                txs: checker.len() as u64,
                resident_txs: resident.txs as u64,
                resident_chain_entries: resident.chain_entries as u64,
                retired,
                current_rss_kb: MemStats::sample().current_rss_kb,
                causal_ok: checker.verdict().is_ok(),
            });
        }
    }
    w.trace.drain_rest(&mut sink);

    let verdict = checker.verdict();
    let resident = checker.resident_stats();
    let (mut dups_absorbed, mut reads_skipped) = (0u64, 0u64);
    for s in 0..SERVERS {
        let (d, r) = w.actor(ProcessId(s)).absorb_stats();
        dups_absorbed += d;
        reads_skipped += r;
    }

    // The plateau: memory at the end vs memory once the run had warmed
    // up (first sample at or past 10% progress). A run too short to
    // have two distinct points trivially passes — the soak tiers are
    // sized so it never is.
    let baseline = samples
        .iter()
        .find(|s| 10 * s.events >= target_events)
        .or(samples.first())
        .map(|s| s.current_rss_kb)
        .unwrap_or(0);
    let final_rss = samples.last().map(|s| s.current_rss_kb).unwrap_or(0);
    let plateau_ratio = if baseline > 0 {
        final_rss as f64 / baseline as f64
    } else {
        1.0
    };

    SoakReport {
        target_events,
        events,
        ops,
        batches: batch,
        txs: checker.len() as u64,
        retired,
        gc_blocked_passes,
        dups_absorbed,
        reads_skipped,
        causal_ok: verdict.is_ok() && samples.iter().all(|s| s.causal_ok),
        digest: w.trace.digest(),
        resident,
        memory: MemStats::sample(),
        plateau_baseline_rss_kb: baseline,
        plateau_final_rss_kb: final_rss,
        plateau_ratio,
        plateau_ok: plateau_ratio <= PLATEAU_HEADROOM,
        samples,
    }
}

/// Render the `repro soak` text block.
pub fn render_soak(r: &SoakReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "   events {} (target {}), ops {}, batches {}, txs {}\n",
        r.events, r.target_events, r.ops, r.batches, r.txs
    ));
    out.push_str(&format!(
        "   nemesis: dups absorbed {}, reads skipped {}, gc retired {} (blocked passes {})\n",
        r.dups_absorbed, r.reads_skipped, r.retired, r.gc_blocked_passes
    ));
    out.push_str(&format!(
        "   resident: txs {}, chains {}, clock slots {} | rss {} kB (peak {})\n",
        r.resident.txs,
        r.resident.chain_entries,
        r.resident.clock_slots,
        r.memory.current_rss_kb,
        r.memory.peak_rss_kb
    ));
    out.push_str(&format!(
        "   plateau: {} kB @10% -> {} kB final (x{:.3}, budget x{}) {}\n",
        r.plateau_baseline_rss_kb,
        r.plateau_final_rss_kb,
        r.plateau_ratio,
        PLATEAU_HEADROOM,
        if r.plateau_ok { "OK" } else { "FAIL" }
    ));
    out.push_str(&format!(
        "   causal {} | digest {:016x}\n",
        if r.causal_ok { "OK" } else { "FAIL" },
        r.digest
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ~40 batches: enough for crashes, partitions, several GC passes
    /// and a couple of samples, small enough for the unit suite.
    const TEST_EVENTS: u64 = 400_000;

    #[test]
    fn soak_is_deterministic_and_stays_causal() {
        let a = run_soak(TEST_EVENTS, 42);
        let b = run_soak(TEST_EVENTS, 42);
        assert_eq!(a.digest, b.digest, "soak must replay bit-identically");
        assert_eq!(a.txs, b.txs);
        assert_eq!(a.ops, b.ops);
        assert!(a.causal_ok, "nemesis broke causality");
        assert!(a.events >= TEST_EVENTS);
        assert!(!a.samples.is_empty());
    }

    #[test]
    fn the_nemesis_actually_bites_and_gc_actually_retires() {
        let r = run_soak(TEST_EVENTS, 7);
        // Drops/dups at 10‰ over tens of thousands of forwarded ops:
        // if these are zero the forwarding hop regressed to injection.
        assert!(r.dups_absorbed > 0, "no duplicate was ever absorbed");
        assert!(r.txs < r.ops, "no op was ever lost to the nemesis");
        // The bounded-memory half: GC must retire the settled prefix,
        // not spin blocked.
        assert!(r.retired > 0, "GC retired nothing over {} txs", r.txs);
        assert!(
            (r.resident.txs as u64) < r.txs / 2,
            "resident {} txs out of {} ingested: frontier is pinned",
            r.resident.txs,
            r.txs
        );
        assert_eq!(r.gc_blocked_passes, 0, "GC fell back to window mode");
    }

    #[test]
    fn gc_is_invisible_to_the_soak() {
        // The soak half of the GC-soundness differential: same run with
        // and without GC must agree on everything observable — the
        // trace digest (GC must not touch the sim), the tx count, the
        // verdict — and differ only in resident state.
        let with_gc = run_soak_gc(TEST_EVENTS, 13, true);
        let without = run_soak_gc(TEST_EVENTS, 13, false);
        assert_eq!(with_gc.digest, without.digest);
        assert_eq!(with_gc.ops, without.ops);
        assert_eq!(with_gc.txs, without.txs);
        assert_eq!(with_gc.causal_ok, without.causal_ok);
        assert!(with_gc.retired > 0);
        assert_eq!(without.retired, 0);
        assert!(
            with_gc.resident.txs < without.resident.txs,
            "GC did not shrink resident state ({} vs {})",
            with_gc.resident.txs,
            without.resident.txs
        );
    }
}
