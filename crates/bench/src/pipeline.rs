//! The streaming sim→check pipeline: simulation overlapped with
//! sharded incremental checking.
//!
//! The offline flow runs the simulator to completion, materializes the
//! full trace and the full history, and only then checks — at the 1M
//! tier that is a multi-second, O(trace)-memory detour before the first
//! verdict bit exists. This module overlaps the two halves:
//!
//! * a **producer** drives a deterministic 8-server key-value [`World`]
//!   in batches, drains each server's commit log after every batch, and
//!   feeds `(shard, transactions)` bundles through a channel; sealed
//!   trace segments are recycled ([`Trace::drain_sealed`]) as soon as
//!   the batch that produced them has been forwarded, so resident trace
//!   memory stays O(batch), not O(run);
//! * a **consumer** routes every bundle into a [`ShardedChecker`] —
//!   per-server shards, sound because the workload is single-homed
//!   (client `c < 8` writes only keys `k ≡ c (mod 8)`, client `8+s`
//!   reads only keys `k ≡ s (mod 8)`, so no client or key ever crosses
//!   a server boundary) — and renders one verdict at the end.
//!
//! The two run concurrently through [`cbf_par::overlap`]: with
//! `SNOWBOUND_THREADS=1` they run sequentially (producer to completion,
//! then consumer) over an unbounded channel — the literal offline path.
//! In parallel mode the channel is bounded, so a slow consumer
//! backpressures the simulation instead of buffering the whole run.
//! Either way the world's schedule, the drain order, the per-shard
//! ingest order, the verdict and the trace digest are bit-identical:
//! the channel carries data out of the simulation and nothing flows
//! back in.
//!
//! [`World`]: cbf_sim::World
//! [`Trace::drain_sealed`]: cbf_sim::Trace::drain_sealed
//! [`ShardedChecker`]: cbf_model::ShardedChecker

#![deny(unsafe_code)]

use std::sync::mpsc;
use std::time::Instant;

use cbf_model::checker::Verdict;
use cbf_model::history::TxRecord;
use cbf_model::{ClientId, Key, ResidentStats, ShardedChecker, TxId, Value};
use cbf_sim::{Actor, CountingSink, Ctx, LatencyModel, ProcessId, SimConfig, Time, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Servers (= checker shards) in the pipeline world.
pub const SERVERS: u32 = 8;

/// Operations injected per batch. Also bounds resident trace segments:
/// a batch generates ~2–3 events per op, all recycled at batch end.
pub const BATCH_OPS: usize = 4_096;

/// Bounded-channel depth (in batches) for the parallel mode.
const CHANNEL_BATCHES: usize = 8;

/// Ids covered by each server's duplicate-filter window. Batches are
/// injected in id order and the world runs to quiescence between them,
/// so every delivery (duplicates included — a dup samples its own
/// latency but still lands inside its batch's quiescent run) carries an
/// id from the current batch; one batch of slack on top is paranoia,
/// not necessity. Ids below the window are *settled history*: nothing
/// in flight can carry them, so treating them as duplicates is sound
/// and the filter stays O(window), not O(run).
pub const DEDUP_WINDOW_IDS: u64 = 2 * BATCH_OPS as u64;

/// A sliding-window duplicate filter over the driver's monotone op ids:
/// the frontier-keyed bound that keeps per-server dedup state constant
/// over unbounded runs (1 KiB of bits, regardless of run length).
#[derive(Clone, Debug)]
struct OpWindow {
    /// First id the bitmap covers; ids below are settled history.
    base: u64,
    /// One bit per id in `[base, base + DEDUP_WINDOW_IDS)`.
    bits: Vec<u64>,
}

impl OpWindow {
    fn new() -> Self {
        OpWindow {
            base: 0,
            bits: vec![0; (DEDUP_WINDOW_IDS / 64) as usize],
        }
    }

    /// True the first time `id` is seen; false for duplicates and for
    /// ids that fell below the window (settled — see
    /// [`DEDUP_WINDOW_IDS`] for why none of those can be first
    /// sightings).
    fn first_sighting(&mut self, id: u64) -> bool {
        if id < self.base {
            return false;
        }
        // Slide forward one word at a time, retiring settled ids.
        // Amortized O(1): ids only move forward, one batch per slide.
        while id >= self.base + DEDUP_WINDOW_IDS {
            self.bits.rotate_left(1);
            let last = self.bits.last_mut().expect("window is never empty");
            *last = 0;
            self.base += 64;
        }
        let off = (id - self.base) as usize;
        let (word, bit) = (off / 64, off % 64);
        let seen = self.bits[word] & (1 << bit) != 0;
        self.bits[word] |= 1 << bit;
        !seen
    }
}

/// Wire format between the driver and a server.
#[derive(Clone, Debug)]
pub enum KvMsg {
    /// Write `key := val` on the owning server, on behalf of the
    /// writer client homed there.
    Write {
        /// Transaction id (global op index).
        id: u64,
        /// Key, homed at server `key % SERVERS`.
        key: u32,
        /// Driver-allocated distinct value.
        val: u64,
    },
    /// Read `key` on the owning server, on behalf of the reader client
    /// homed there.
    Read {
        /// Transaction id (global op index).
        id: u64,
        /// Key, homed at server `key % SERVERS`.
        key: u32,
    },
    /// Fire-and-forget replication gossip to a peer: absorbed into a
    /// shadow store, never logged as a transaction (so it exercises the
    /// network path without crossing checker shards).
    Repl {
        /// Replicated key.
        key: u32,
        /// Replicated value.
        val: u64,
    },
}

/// One key-value server: applies writes/reads for the keys it owns,
/// appends a [`TxRecord`] per operation to its commit log, and gossips
/// every fourth write to its ring neighbour.
#[derive(Clone)]
pub struct KvServer {
    me: u32,
    store: Vec<Option<u64>>,
    shadow: Vec<Option<u64>>,
    writes_seen: u64,
    log: Vec<TxRecord>,
    seen: OpWindow,
    dups_absorbed: u64,
    reads_skipped: u64,
}

impl KvServer {
    /// A server owning the keys `≡ me (mod SERVERS)` of a `keys`-key space.
    pub fn new(me: u32, keys: u32) -> Self {
        KvServer {
            me,
            store: vec![None; keys as usize],
            shadow: vec![None; keys as usize],
            writes_seen: 0,
            log: Vec::new(),
            seen: OpWindow::new(),
            dups_absorbed: 0,
            reads_skipped: 0,
        }
    }

    /// Drain the commit log (the producer calls this after each batch).
    pub fn take_log(&mut self) -> Vec<TxRecord> {
        std::mem::take(&mut self.log)
    }

    /// Nemesis-absorption counters: `(duplicate ops absorbed, reads of
    /// never-written keys skipped)`. Both stay 0 on fault-free runs —
    /// the fixture digests pin that.
    pub fn absorb_stats(&self) -> (u64, u64) {
        (self.dups_absorbed, self.reads_skipped)
    }

    fn record(
        &mut self,
        id: u64,
        client: u32,
        reads: Vec<(Key, Value)>,
        writes: Vec<(Key, Value)>,
        at: Time,
    ) {
        self.log.push(TxRecord {
            id: TxId(id),
            client: ClientId(client),
            reads,
            writes,
            invoked_at: at,
            completed_at: at,
        });
    }
}

impl Actor for KvServer {
    type Msg = KvMsg;
    fn step(&mut self, ctx: &mut Ctx<KvMsg>) {
        let now = ctx.now();
        for env in ctx.recv() {
            match env.msg {
                KvMsg::Write { id, key, val } => {
                    // Ops for keys homed elsewhere take one network hop
                    // to their owner. The pipeline exhibits inject
                    // straight at the owner (this arm is dead there and
                    // their digests pin that); the soak injects at a
                    // ring neighbour so client ops cross the network —
                    // where the nemesis can drop, duplicate and crash
                    // them.
                    if key % SERVERS != self.me {
                        ctx.send(ProcessId(key % SERVERS), KvMsg::Write { id, key, val });
                        continue;
                    }
                    // A duplicated delivery must not log a second
                    // TxRecord under the same TxId (the history would
                    // claim one client committed twice).
                    if !self.seen.first_sighting(id) {
                        self.dups_absorbed += 1;
                        continue;
                    }
                    self.store[key as usize] = Some(val);
                    self.writes_seen += 1;
                    // Writer client homed on this server.
                    self.record(id, self.me, vec![], vec![(Key(key), Value(val))], now);
                    if self.writes_seen.is_multiple_of(4) {
                        ctx.send(ProcessId((self.me + 1) % SERVERS), KvMsg::Repl { key, val });
                    }
                }
                KvMsg::Read { id, key } => {
                    if key % SERVERS != self.me {
                        ctx.send(ProcessId(key % SERVERS), KvMsg::Read { id, key });
                        continue;
                    }
                    if !self.seen.first_sighting(id) {
                        self.dups_absorbed += 1;
                        continue;
                    }
                    // Under the nemesis the init-prefix write may have
                    // been dropped; a read of a never-written key is
                    // skipped (it has no value to report), not a crash.
                    let Some(v) = self.store[key as usize] else {
                        self.reads_skipped += 1;
                        continue;
                    };
                    // Reader client homed on this server.
                    self.record(
                        id,
                        SERVERS + self.me,
                        vec![(Key(key), Value(v))],
                        vec![],
                        now,
                    );
                }
                KvMsg::Repl { key, val } => {
                    // Absorbed: visible to nobody's reads, so shards
                    // stay isolated; the message still exercised the
                    // in-flight table, the event queue and the trace.
                    self.shadow[key as usize] = Some(val);
                }
            }
        }
    }
}

/// The deterministic op stream: the first `keys` ops initialize every
/// key, then a seeded 50/50 read/write mix over random keys — the same
/// shape as `scale_history`, but executed *through the simulator*.
///
/// Generated lazily, one op at a time, so nothing ever materializes a
/// schedule: the scale exhibits pull a few million ops, the soak pulls
/// tens of millions, and both hold O(1) generator state. Ids are the
/// global op index, allocated here, so every consumer agrees on them.
pub struct OpGen {
    rng: StdRng,
    next_val: u64,
    next_id: u64,
    keys: u32,
}

impl OpGen {
    /// A fresh stream over `keys` keys; same `(keys, seed)` ⇒ the same
    /// op sequence, forever.
    pub fn new(keys: u32, seed: u64) -> Self {
        OpGen {
            rng: StdRng::seed_from_u64(seed),
            next_val: 1,
            next_id: 0,
            keys,
        }
    }

    /// The next op, addressed to the server that homes its key.
    pub fn next_op(&mut self) -> (ProcessId, KvMsg) {
        let id = self.next_id;
        self.next_id += 1;
        let init = id < self.keys as u64;
        let write = init || self.rng.gen_bool(0.5);
        let (key, msg) = if write {
            let key = if init {
                id as u32
            } else {
                self.rng.gen_range(0..self.keys)
            };
            let val = self.next_val;
            self.next_val += 1;
            (key, KvMsg::Write { id, key, val })
        } else {
            let key = self.rng.gen_range(0..self.keys);
            (key, KvMsg::Read { id, key })
        };
        (ProcessId(key % SERVERS), msg)
    }
}

/// What one pipeline run produced and proved.
#[derive(Clone, Debug)]
pub struct PipelineOutcome {
    /// Transactions committed and checked.
    pub txs: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Trace events recorded (including recycled ones).
    pub trace_events: u64,
    /// Trace digest — recycling folds segments into a running FNV
    /// state, so this equals the full-retention digest bit for bit.
    pub digest: u64,
    /// Peak sealed segments resident at any drain point: the memory
    /// bound the streaming claim rests on (O(batch), not O(run)).
    pub peak_segments_resident: u64,
    /// Segments recycled through the sink over the whole run.
    pub recycled_segments: u64,
    /// Transactions per shard, in shard order.
    pub shard_txs: Vec<u64>,
    /// Producer (sim + drain) busy span, milliseconds.
    pub sim_span_ms: f64,
    /// Consumer (ingest + verdict) busy span, milliseconds.
    pub check_span_ms: f64,
    /// Wall-clock of the overlapped run, milliseconds.
    pub wall_ms: f64,
    /// `(sim_span + check_span) / wall − 1`, clamped to `[0, 1]`: 0 =
    /// fully sequential (the serial mode), →1 = fully overlapped.
    pub overlap_ratio: f64,
    /// The merged verdict.
    pub verdict: Verdict,
    /// Checker resident-state sizes after the verdict (summed across
    /// shards) — what the soak tier bounds and the scale rows report.
    pub resident: ResidentStats,
}

/// Run the streaming pipeline: `ops` operations over `keys` keys,
/// seeded, checked in `SERVERS` shards while the simulation is still
/// running. See module docs for the determinism contract.
pub fn run_pipeline(ops: usize, keys: u32, seed: u64) -> PipelineOutcome {
    assert!(keys >= SERVERS, "need at least one key per server");
    assert!(
        keys.is_multiple_of(SERVERS),
        "key space must split evenly across servers for the init prefix"
    );

    // Serial mode must buffer the whole run (producer finishes before
    // the consumer starts); parallel mode bounds the handoff so a slow
    // checker backpressures the simulation.
    let parallel = cbf_par::parallel_enabled();
    let (bounded_tx, bounded_rx) =
        mpsc::sync_channel::<Vec<(usize, Vec<TxRecord>)>>(CHANNEL_BATCHES);
    let (unbounded_tx, unbounded_rx) = mpsc::channel::<Vec<(usize, Vec<TxRecord>)>>();

    enum Tx {
        Bounded(mpsc::SyncSender<Vec<(usize, Vec<TxRecord>)>>),
        Unbounded(mpsc::Sender<Vec<(usize, Vec<TxRecord>)>>),
    }
    impl Tx {
        fn send(&self, v: Vec<(usize, Vec<TxRecord>)>) {
            match self {
                Tx::Bounded(s) => s.send(v).expect("checker hung up"),
                Tx::Unbounded(s) => s.send(v).expect("checker hung up"),
            }
        }
    }
    let (sender, receiver) = if parallel {
        drop(unbounded_rx);
        (Tx::Bounded(bounded_tx), bounded_rx)
    } else {
        drop(bounded_rx);
        (Tx::Unbounded(unbounded_tx), unbounded_rx)
    };

    let wall0 = Instant::now();
    let producer = move || {
        let t0 = Instant::now();
        let actors: Vec<KvServer> = (0..SERVERS).map(|s| KvServer::new(s, keys)).collect();
        let mut w = World::new(
            actors,
            LatencyModel::constant_default(),
            SimConfig::default(),
        );
        let mut sink = CountingSink::default();
        let mut peak_segments = 0usize;
        let mut gen = OpGen::new(keys, seed);
        let mut remaining = ops;
        while remaining > 0 {
            let batch = BATCH_OPS.min(remaining);
            remaining -= batch;
            for _ in 0..batch {
                let (server, msg) = gen.next_op();
                w.inject_no_step(server, msg);
            }
            for s in 0..SERVERS {
                w.kick(ProcessId(s));
            }
            w.run_until_quiescent();
            let bundle: Vec<(usize, Vec<TxRecord>)> = (0..SERVERS)
                .map(|s| (s as usize, w.actor_mut(ProcessId(s)).take_log()))
                .collect();
            sender.send(bundle);
            peak_segments = peak_segments.max(w.trace.resident_segments());
            w.trace.drain_sealed(&mut sink);
        }
        peak_segments = peak_segments.max(w.trace.resident_segments());
        w.trace.drain_rest(&mut sink);
        drop(sender); // close the channel: the consumer's recv loop ends
        (
            w.trace.digest(),
            w.stats().events,
            w.trace.len() as u64,
            peak_segments as u64,
            sink.segments as u64,
            t0.elapsed().as_secs_f64() * 1e3,
        )
    };
    let consumer = move || {
        let t0 = Instant::now();
        let mut checker = ShardedChecker::new(SERVERS as usize);
        while let Ok(bundle) = receiver.recv() {
            for (shard, txs) in bundle {
                for t in txs {
                    checker.ingest_to(shard, t);
                }
            }
        }
        let verdict = checker.verdict();
        let resident = checker.resident_stats();
        let shard_txs: Vec<u64> = checker.shard_lens().iter().map(|&n| n as u64).collect();
        (
            checker.len() as u64,
            shard_txs,
            verdict,
            resident,
            t0.elapsed().as_secs_f64() * 1e3,
        )
    };

    let (
        (digest, events, trace_events, peak_segments, recycled_segments, sim_span_ms),
        (txs, shard_txs, verdict, resident, check_span_ms),
    ) = cbf_par::overlap(producer, consumer);
    let wall_ms = wall0.elapsed().as_secs_f64() * 1e3;

    PipelineOutcome {
        txs,
        events,
        trace_events,
        digest,
        peak_segments_resident: peak_segments,
        recycled_segments,
        shard_txs,
        sim_span_ms,
        check_span_ms,
        wall_ms,
        overlap_ratio: ((sim_span_ms + check_span_ms) / wall_ms - 1.0).clamp(0.0, 1.0),
        verdict,
        resident,
    }
}

/// The offline twin of [`run_pipeline`]: identical world, identical
/// schedule, but full trace retention and one batch check at the end.
/// The differential suite asserts the two agree on verdict, violation
/// rendering and trace digest; it is also the reference the streaming
/// path's "bit-identical to the serial offline path" claim is tested
/// against.
pub fn run_offline(ops: usize, keys: u32, seed: u64) -> PipelineOutcome {
    assert!(keys >= SERVERS && keys.is_multiple_of(SERVERS));
    let t0 = Instant::now();
    let actors: Vec<KvServer> = (0..SERVERS).map(|s| KvServer::new(s, keys)).collect();
    let mut w = World::new(
        actors,
        LatencyModel::constant_default(),
        SimConfig::default(),
    );
    // Identical batch structure to the streaming producer — the trace
    // digest comparison is only meaningful over the same event schedule.
    let mut gen = OpGen::new(keys, seed);
    let mut remaining = ops;
    while remaining > 0 {
        let batch = BATCH_OPS.min(remaining);
        remaining -= batch;
        for _ in 0..batch {
            let (server, msg) = gen.next_op();
            w.inject_no_step(server, msg);
        }
        for s in 0..SERVERS {
            w.kick(ProcessId(s));
        }
        w.run_until_quiescent();
    }
    let sim_span_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let mut checker = ShardedChecker::new(SERVERS as usize);
    for s in 0..SERVERS {
        for t in w.actor_mut(ProcessId(s)).take_log() {
            checker.ingest_to(s as usize, t);
        }
    }
    let verdict = checker.verdict();
    let resident = checker.resident_stats();
    let check_span_ms = t1.elapsed().as_secs_f64() * 1e3;

    PipelineOutcome {
        txs: checker.len() as u64,
        events: w.stats().events,
        trace_events: w.trace.len() as u64,
        digest: w.trace.digest(),
        peak_segments_resident: w.trace.resident_segments() as u64,
        recycled_segments: 0,
        shard_txs: checker.shard_lens().iter().map(|&n| n as u64).collect(),
        sim_span_ms,
        check_span_ms,
        wall_ms: sim_span_ms + check_span_ms,
        overlap_ratio: 0.0,
        verdict,
        resident,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_matches_offline_end_to_end() {
        let a = run_pipeline(3_000, 64, 42);
        let b = run_offline(3_000, 64, 42);
        assert_eq!(a.txs, b.txs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.trace_events, b.trace_events);
        assert_eq!(a.digest, b.digest, "recycled digest != full retention");
        assert_eq!(a.shard_txs, b.shard_txs);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.verdict.render(), b.verdict.render());
        assert!(a.verdict.is_ok(), "{}", a.verdict.render());
    }

    #[test]
    fn streaming_is_deterministic_and_bounded() {
        let a = run_pipeline(2_500, 64, 7);
        let b = run_pipeline(2_500, 64, 7);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.txs, b.txs);
        assert_eq!(a.shard_txs, b.shard_txs);
        // The memory claim: resident segments stay O(batch) even though
        // the run recycles many more.
        let batch_segments = (4 * BATCH_OPS / cbf_sim::SEAL_CAP) as u64 + 2;
        assert!(
            a.peak_segments_resident <= batch_segments,
            "peak {} resident segments exceeds the one-batch bound {}",
            a.peak_segments_resident,
            batch_segments
        );
        assert!(a.recycled_segments > 0, "nothing was recycled");
    }

    #[test]
    fn op_window_filters_duplicates_and_settled_ids() {
        let mut w = OpWindow::new();
        assert!(w.first_sighting(0));
        assert!(!w.first_sighting(0), "second sighting is a duplicate");
        assert!(w.first_sighting(5));
        // Slide far forward: everything below the new window is settled
        // history and reads as duplicate, in-window ids still register.
        assert!(w.first_sighting(DEDUP_WINDOW_IDS + 100));
        assert!(!w.first_sighting(0), "settled id must not re-register");
        assert!(!w.first_sighting(DEDUP_WINDOW_IDS + 100));
        assert!(w.first_sighting(DEDUP_WINDOW_IDS + 99));
    }

    #[test]
    fn serial_mode_is_bit_identical() {
        // Force the literal offline ordering through the env knob the
        // determinism suite uses, then compare against the ambient run.
        let ambient = run_pipeline(2_000, 64, 11);
        let saved = std::env::var(cbf_par::THREADS_ENV).ok();
        std::env::set_var(cbf_par::THREADS_ENV, "1");
        let serial = run_pipeline(2_000, 64, 11);
        match saved {
            Some(v) => std::env::set_var(cbf_par::THREADS_ENV, v),
            None => std::env::remove_var(cbf_par::THREADS_ENV),
        }
        assert_eq!(ambient.digest, serial.digest);
        assert_eq!(ambient.txs, serial.txs);
        assert_eq!(ambient.shard_txs, serial.shard_txs);
        assert_eq!(ambient.verdict, serial.verdict);
    }
}
