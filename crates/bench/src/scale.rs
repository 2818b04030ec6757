//! The `repro scale` exhibit: verification-pipeline throughput at
//! 10k / 100k / 1M transactions (checker) and events (simulator).
//!
//! Three product claims are measured here, wall-clock, on every run:
//!
//! * **Checker scaling** — [`CausalChecker`] ingests a single-writer-
//!   per-key workload one transaction at a time and renders one verdict
//!   at the end. The legacy dense-closure oracle
//!   ([`check_causal_legacy`]) holds `n × n` bit matrices — quadratic
//!   memory, and a copy per client to saturate — so it is
//!   measured **once, at a small anchor tier only** (`legacy_measured_at`
//!   in the JSON); each tier's `speedup_vs_legacy` divides that tier's
//!   incremental throughput by the legacy throughput *at the small
//!   tier*. Legacy per-transaction cost grows with history length, so
//!   the quoted ratios at 100k/1M are **underestimates** — and they are
//!   printed, not gated: a faster oracle lowers them.
//! * **Scheduler scaling** — a ring [`World`] forwards a token
//!   10k/100k/1M hops. Each tier records its trace digest (checked
//!   against the committed fixture `fixtures/scale_digests.txt`) and
//!   the trace length, so a scheduler change that perturbs event order
//!   fails `repro scale` — and the fixture unit test — before it
//!   reaches any protocol suite.
//! * **Streaming pipeline** — [`crate::pipeline::run_pipeline`] drives a
//!   key-value world and checks it *while it runs*: committed
//!   transactions flow through a channel into a sharded incremental
//!   checker, and sealed trace segments are recycled as soon as they are
//!   folded into the running digest. The gates assert the digest against
//!   its own committed fixture, the O(batch) resident-segment bound, and
//!   bit-identity with the full-retention offline twin at the cheap tier.
//!
//! Everything here is deterministic: the workload is seeded, the worlds
//! are virtual-time, and only the wall-clock fields vary run to run.

use std::time::Instant;

use cbf_model::history::TxRecord;
use cbf_model::{check_causal_legacy, CausalChecker, ClientId, History, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, LatencyModel, ProcessId, SimConfig, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Transaction-count tiers for the checker measurement.
pub const CHECKER_TIERS: &[usize] = &[10_000, 100_000, 1_000_000];

/// Hop-count tiers for the simulator measurement.
pub const WORLD_TIERS: &[u32] = &[10_000, 100_000, 1_000_000];

/// Operation-count tiers for the streaming pipeline measurement, with
/// the key-space width each runs over (≥ one key per server, divisible
/// by the server count — see [`crate::pipeline::run_pipeline`]).
pub const PIPELINE_TIERS: &[(usize, u32)] = &[(10_000, 256), (100_000, 1_024), (1_000_000, 4_096)];

/// The streaming path must agree with its offline twin bit for bit;
/// asserting that at every tier would double the run, so the scale gate
/// replays both paths at this (cheap) tier only. The full 32-seed sweep
/// lives in the differential test suite.
pub const PIPELINE_DIFF_TIER: usize = 10_000;

/// The legacy oracle is measured at this tier only (dense matrices: a
/// few thousand transactions cost milliseconds, but 100k would allocate
/// two ~1.2 GB bit matrices and copy one per client). Every other
/// exhibit cell stays above the `cbf_par`
/// work floor; this one tier is the deliberate exception that anchors
/// the speedup columns.
pub const LEGACY_TIER: usize = 2_000;

/// Committed trace digests per world tier; regenerate by running
/// `repro scale` and copying the printed digests.
const DIGEST_FIXTURE: &str = include_str!("../fixtures/scale_digests.txt");

/// Committed trace digests per pipeline tier (same format); the
/// streaming path recycles segments as it goes, so a digest match here
/// proves the running-fold bookkeeping, not just the schedule.
const PIPELINE_DIGEST_FIXTURE: &str = include_str!("../fixtures/pipeline_digests.txt");

/// One checker tier: incremental wall-clock vs the small-tier legacy
/// baseline.
#[derive(Clone, Debug)]
pub struct CheckerScaleRow {
    /// Transactions ingested.
    pub tier: u64,
    /// Incremental ingest + verdict wall-clock, milliseconds.
    pub incr_ms: f64,
    /// Incremental throughput, transactions/second.
    pub incr_tps: f64,
    /// Legacy wall-clock at [`LEGACY_TIER`], milliseconds.
    pub legacy_ms: f64,
    /// Legacy throughput at [`LEGACY_TIER`], transactions/second.
    pub legacy_tps: f64,
    /// The tier the legacy columns were measured at (see module docs).
    pub legacy_measured_at: u64,
    /// `incr_tps / legacy_tps` — an underestimate above
    /// [`LEGACY_TIER`], since legacy cost per transaction grows.
    pub speedup_vs_legacy: f64,
    /// The verdict came back consistent (workload sanity).
    pub verdict_ok: bool,
    /// Checker transactions resident after the verdict (= ingested:
    /// this exhibit never GCs; the soak tier owns the bounded claim).
    pub resident_txs: u64,
    /// Version-chain entries resident after the verdict.
    pub resident_chain_entries: u64,
}

/// One simulator tier: event throughput plus the digest/trace evidence.
#[derive(Clone, Debug)]
pub struct WorldScaleRow {
    /// Token hops requested (≈ messages delivered).
    pub tier: u64,
    /// Events the world processed.
    pub events: u64,
    /// Wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Events per second of wall-clock.
    pub events_per_sec: f64,
    /// Trace length.
    pub trace_events: u64,
    /// The run's trace digest — must match the committed fixture.
    pub digest: u64,
}

/// One streaming-pipeline tier: simulation overlapped with sharded
/// checking, segment recycling on.
#[derive(Clone, Debug)]
pub struct PipelineScaleRow {
    /// Operations driven through the world (= transactions checked).
    pub tier: u64,
    /// End-to-end wall-clock of the overlapped run, milliseconds.
    pub wall_ms: f64,
    /// Producer (simulate + drain) busy span, milliseconds.
    pub sim_span_ms: f64,
    /// Consumer (ingest + verdict) busy span, milliseconds.
    pub check_span_ms: f64,
    /// `(sim + check) / wall − 1` clamped to `[0, 1]`: 0 = sequential,
    /// →1 = fully overlapped. Serial mode reports 0 by construction.
    pub overlap_ratio: f64,
    /// Checked transactions per second of wall-clock.
    pub tx_per_sec: f64,
    /// Transactions per second per checker shard, shard order.
    pub shard_tps: Vec<f64>,
    /// Simulator events processed.
    pub events: u64,
    /// Trace events recorded (recycled ones included).
    pub trace_events: u64,
    /// Peak sealed segments resident at any drain point — the streaming
    /// memory bound (O(batch), not O(trace)).
    pub peak_segments_resident: u64,
    /// Segments recycled through the sink over the run.
    pub recycled_segments: u64,
    /// Trace digest (running fold over recycled + resident events).
    pub digest: u64,
    /// The merged sharded verdict came back consistent.
    pub verdict_ok: bool,
    /// Summed checker transactions resident across shards after the
    /// verdict (this exhibit never GCs; the soak tier owns the bounded
    /// claim).
    pub checker_resident_txs: u64,
}

/// The whole scale report.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// Checker tiers actually run (bounded by the CLI tier cap).
    pub checker: Vec<CheckerScaleRow>,
    /// Simulator tiers actually run.
    pub world: Vec<WorldScaleRow>,
    /// Streaming-pipeline tiers actually run.
    pub pipeline: Vec<PipelineScaleRow>,
    /// Peak/current RSS sampled after all tiers (see
    /// [`crate::memstats`]); the only run-to-run-varying non-wall-clock
    /// fields, so replay comparisons must filter them out.
    pub memory: crate::memstats::MemStats,
}

/// A consistent single-writer-per-key workload: key `k` is owned by
/// client `k % 8`, which writes monotonically increasing values;
/// clients 8..16 read the globally-latest value of a random key. Every
/// reads-from edge points backward and no read ever has an extra
/// writer in its window, so the history exercises the incremental
/// checker's fast path — the regime the chaos and Table-1 pipelines
/// live in — and is consistent by construction.
pub fn scale_history(n: usize, keys: u32, seed: u64) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut latest: Vec<Option<Value>> = vec![None; keys as usize];
    let mut next = 1u64;
    (0..n)
        .map(|i| {
            // The first `keys` transactions initialize every key so
            // reads always resolve to a real writer, never ⊥.
            let write = i < keys as usize || rng.gen_bool(0.5);
            if write {
                let k = if i < keys as usize {
                    i as u32
                } else {
                    rng.gen_range(0..keys)
                };
                let v = Value(next);
                next += 1;
                latest[k as usize] = Some(v);
                TxRecord {
                    id: TxId(i as u64),
                    client: ClientId(k % 8),
                    reads: vec![],
                    writes: vec![(Key(k), v)],
                    invoked_at: 0,
                    completed_at: 0,
                }
            } else {
                let k = rng.gen_range(0..keys);
                let v = latest[k as usize].expect("all keys initialized");
                TxRecord {
                    id: TxId(i as u64),
                    client: ClientId(8 + (rng.gen_range(0..8u32))),
                    reads: vec![(Key(k), v)],
                    writes: vec![],
                    invoked_at: 0,
                    completed_at: 0,
                }
            }
        })
        .collect()
}

/// Measure the checker tiers up to `max_tier` transactions.
pub fn checker_scale(max_tier: u64) -> Vec<CheckerScaleRow> {
    // The legacy baseline, once. The differential claim — incremental
    // verdict bit-identical to legacy — is re-asserted here on the
    // exact workload being timed.
    let h = scale_history(LEGACY_TIER, 64, 42);
    let t0 = Instant::now();
    let legacy = check_causal_legacy(&h);
    let legacy_ms = t0.elapsed().as_secs_f64() * 1e3;
    let legacy_tps = LEGACY_TIER as f64 / (legacy_ms / 1e3);
    assert!(legacy.is_ok(), "scale workload must be consistent");
    {
        // The differential claim, re-asserted on the exact workload the
        // legacy columns come from (the measured tiers sit above the
        // legacy tier, so they cannot carry this check themselves).
        let mut ck = CausalChecker::new();
        for t in h.transactions() {
            ck.ingest(t.clone());
        }
        assert_eq!(
            ck.verdict(),
            legacy,
            "incremental verdict diverged from legacy at the anchor tier"
        );
    }

    CHECKER_TIERS
        .iter()
        .filter(|&&n| n as u64 <= max_tier)
        .map(|&n| {
            let h = scale_history(n, 64, 42);
            let t0 = Instant::now();
            let mut ck = CausalChecker::new();
            for t in h.transactions() {
                ck.ingest(t.clone());
            }
            let v = ck.verdict();
            let incr_ms = t0.elapsed().as_secs_f64() * 1e3;
            let incr_tps = n as f64 / (incr_ms / 1e3);
            let resident = ck.resident_stats();
            CheckerScaleRow {
                tier: n as u64,
                incr_ms,
                incr_tps,
                legacy_ms,
                legacy_tps,
                legacy_measured_at: LEGACY_TIER as u64,
                speedup_vs_legacy: incr_tps / legacy_tps,
                verdict_ok: v.is_ok(),
                resident_txs: resident.txs as u64,
                resident_chain_entries: resident.chain_entries as u64,
            }
        })
        .collect()
}

/// A ring of actors forwarding a hot-potato token `hops` times.
#[derive(Clone)]
struct Ring {
    next: ProcessId,
    hops: u32,
}

impl Actor for Ring {
    type Msg = u32;
    fn step(&mut self, ctx: &mut Ctx<u32>) {
        for env in ctx.recv() {
            if env.msg < self.hops {
                ctx.send(self.next, env.msg + 1);
            }
        }
    }
}

/// Measure one simulator tier: `hops` token hops around an 8-process
/// ring, trace recording on.
pub fn world_row(hops: u32) -> WorldScaleRow {
    let actors: Vec<Ring> = (0..8)
        .map(|i| Ring {
            next: ProcessId((i + 1) % 8),
            hops,
        })
        .collect();
    let mut w = World::new(
        actors,
        LatencyModel::constant_default(),
        SimConfig::default(),
    );
    let t0 = Instant::now();
    w.inject(ProcessId(0), 0);
    w.run_until_quiescent();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let events = w.stats().events;
    WorldScaleRow {
        tier: hops as u64,
        events,
        wall_ms,
        events_per_sec: events as f64 / (wall_ms / 1e3),
        trace_events: w.trace.len() as u64,
        digest: w.trace.digest(),
    }
}

/// Measure the simulator tiers up to `max_tier` hops.
pub fn world_scale(max_tier: u64) -> Vec<WorldScaleRow> {
    // Untimed warm-up: the first sizeable allocation after the checker
    // tiers makes the allocator consolidate everything they freed
    // (~8 ms after the 1M tier), which would land in the first row.
    world_row(1_000);
    WORLD_TIERS
        .iter()
        .filter(|&&hops| hops as u64 <= max_tier)
        .map(|&hops| world_row(hops))
        .collect()
}

/// Measure the streaming-pipeline tiers up to `max_tier` operations.
pub fn pipeline_scale(max_tier: u64) -> Vec<PipelineScaleRow> {
    PIPELINE_TIERS
        .iter()
        .filter(|&&(ops, _)| ops as u64 <= max_tier)
        .map(|&(ops, keys)| {
            let out = crate::pipeline::run_pipeline(ops, keys, 42);
            let check_s = (out.check_span_ms / 1e3).max(1e-9);
            PipelineScaleRow {
                tier: out.txs,
                wall_ms: out.wall_ms,
                sim_span_ms: out.sim_span_ms,
                check_span_ms: out.check_span_ms,
                overlap_ratio: out.overlap_ratio,
                tx_per_sec: out.txs as f64 / (out.wall_ms / 1e3).max(1e-9),
                shard_tps: out.shard_txs.iter().map(|&n| n as f64 / check_s).collect(),
                events: out.events,
                trace_events: out.trace_events,
                peak_segments_resident: out.peak_segments_resident,
                recycled_segments: out.recycled_segments,
                digest: out.digest,
                verdict_ok: out.verdict.is_ok(),
                checker_resident_txs: out.resident.txs as u64,
            }
        })
        .collect()
}

/// The streaming pipeline may hold at most this many sealed segments
/// resident: the events of one inject batch (~4 per operation) plus the
/// boundary segment on either side. Independent of run length — that is
/// the streaming claim.
pub fn pipeline_segment_bound() -> u64 {
    (4 * crate::pipeline::BATCH_OPS / cbf_sim::SEAL_CAP) as u64 + 2
}

/// The committed digest for a world tier, if the fixture pins one.
pub fn expected_digest(tier: u64) -> Option<u64> {
    fixture_digest(DIGEST_FIXTURE, tier)
}

/// The committed digest for a pipeline tier, if the fixture pins one.
pub fn expected_pipeline_digest(tier: u64) -> Option<u64> {
    fixture_digest(PIPELINE_DIGEST_FIXTURE, tier)
}

fn fixture_digest(fixture: &str, tier: u64) -> Option<u64> {
    fixture.lines().find_map(|line| {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let (t, d) = line.split_once(char::is_whitespace)?;
        (t.parse::<u64>().ok()? == tier)
            .then(|| u64::from_str_radix(d.trim(), 16).ok())
            .flatten()
    })
}

/// Run both measurements. `max_tier` bounds the tiers (the CI job runs
/// `repro scale 100k` to skip the million-event tier); digests are
/// checked against the committed fixture for every tier that has one.
pub fn scale_report(max_tier: u64) -> Result<ScaleReport, String> {
    let report = ScaleReport {
        checker: checker_scale(max_tier),
        world: world_scale(max_tier),
        pipeline: pipeline_scale(max_tier),
        memory: crate::memstats::MemStats::sample(),
    };
    for row in &report.world {
        if let Some(want) = expected_digest(row.tier) {
            if row.digest != want {
                return Err(format!(
                    "scale: world tier {} digest {:016x} != committed fixture {:016x} \
                     — the scheduler's event order changed",
                    row.tier, row.digest, want
                ));
            }
        }
    }
    let seg_bound = pipeline_segment_bound();
    for row in &report.pipeline {
        if let Some(want) = expected_pipeline_digest(row.tier) {
            if row.digest != want {
                return Err(format!(
                    "scale: pipeline tier {} digest {:016x} != committed fixture {:016x} \
                     — the streaming schedule or the recycling fold changed",
                    row.tier, row.digest, want
                ));
            }
        }
        if row.peak_segments_resident > seg_bound {
            return Err(format!(
                "scale: pipeline tier {} held {} sealed segments resident (bound {}) \
                 — recycling is no longer keeping memory O(batch)",
                row.tier, row.peak_segments_resident, seg_bound
            ));
        }
    }
    // The bit-identity gate: replay the cheapest tier through both the
    // streaming path and its full-retention offline twin.
    if PIPELINE_DIFF_TIER as u64 <= max_tier {
        let (ops, keys) = *PIPELINE_TIERS
            .iter()
            .find(|&&(ops, _)| ops == PIPELINE_DIFF_TIER)
            .expect("diff tier must be a pipeline tier");
        let streamed = crate::pipeline::run_pipeline(ops, keys, 42);
        let offline = crate::pipeline::run_offline(ops, keys, 42);
        if streamed.digest != offline.digest
            || streamed.verdict != offline.verdict
            || streamed.shard_txs != offline.shard_txs
        {
            return Err(format!(
                "scale: streaming pipeline diverged from the offline path at {ops} ops: \
                 digest {:016x} vs {:016x}, verdicts {}equal",
                streamed.digest,
                offline.digest,
                if streamed.verdict == offline.verdict {
                    ""
                } else {
                    "not "
                }
            ));
        }
    }
    Ok(report)
}

/// Render the report as the `repro scale` text block.
pub fn render_scale(report: &ScaleReport) -> String {
    let mut out = String::new();
    out.push_str(
        "-- checker (legacy measured at the smallest tier; speedups above it are floors)\n",
    );
    out.push_str(&format!(
        "   {:>9} {:>12} {:>14} {:>12} {:>14} {:>9}\n",
        "txs", "incr ms", "incr tx/s", "legacy ms", "legacy tx/s", "speedup"
    ));
    for r in &report.checker {
        out.push_str(&format!(
            "   {:>9} {:>12.1} {:>14.0} {:>12.1} {:>14.0} {:>8.1}x\n",
            r.tier, r.incr_ms, r.incr_tps, r.legacy_ms, r.legacy_tps, r.speedup_vs_legacy
        ));
    }
    out.push_str("\n-- simulator (8-process ring, trace recorded, digest pinned)\n");
    out.push_str(&format!(
        "   {:>9} {:>9} {:>10} {:>14} {:>11}  digest\n",
        "hops", "events", "wall ms", "events/s", "trace len"
    ));
    for r in &report.world {
        out.push_str(&format!(
            "   {:>9} {:>9} {:>10.1} {:>14.0} {:>11}  {:016x}\n",
            r.tier, r.events, r.wall_ms, r.events_per_sec, r.trace_events, r.digest
        ));
    }
    out.push_str(
        "\n-- streaming pipeline (sim overlapped with sharded check, segments recycled)\n",
    );
    out.push_str(&format!(
        "   {:>9} {:>9} {:>9} {:>9} {:>8} {:>12} {:>9} {:>8}  digest\n",
        "txs", "wall ms", "sim ms", "check ms", "overlap", "tx/s", "trace", "peak seg"
    ));
    for r in &report.pipeline {
        out.push_str(&format!(
            "   {:>9} {:>9.1} {:>9.1} {:>9.1} {:>8.2} {:>12.0} {:>9} {:>8}  {:016x}\n",
            r.tier,
            r.wall_ms,
            r.sim_span_ms,
            r.check_span_ms,
            r.overlap_ratio,
            r.tx_per_sec,
            r.trace_events,
            r.peak_segments_resident,
            r.digest
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbf_model::check_causal;

    #[test]
    fn scale_history_is_consistent_and_deterministic() {
        let a = scale_history(500, 16, 7);
        let b = scale_history(500, 16, 7);
        assert_eq!(
            format!("{:?}", a.transactions()),
            format!("{:?}", b.transactions())
        );
        assert!(check_causal(&a).is_ok());
        assert_eq!(check_causal(&a), check_causal_legacy(&a));
    }

    #[test]
    fn world_tier_digest_matches_committed_fixture() {
        // The digest-stability gate at unit-test speed: the smallest
        // tier replays bit-identically against the committed fixture.
        let row = world_row(10_000);
        let want = expected_digest(10_000).expect("fixture must pin the 10k tier");
        assert_eq!(
            row.digest, want,
            "10k-hop trace digest {:016x} != fixture {:016x}",
            row.digest, want
        );
        // The trace logs send + deliver + step per hop, so it is a
        // strict superset of the delivery count.
        assert!(
            row.trace_events >= row.events,
            "trace must cover every event"
        );
    }

    #[test]
    fn pipeline_tier_digest_matches_committed_fixture() {
        // Same gate as the world fixture, for the streaming path: the
        // smallest pipeline tier must replay bit-identically, running
        // digest fold and all.
        let rows = pipeline_scale(PIPELINE_DIFF_TIER as u64);
        let row = &rows[0];
        let want = expected_pipeline_digest(row.tier).expect("fixture must pin the smallest tier");
        assert_eq!(
            row.digest, want,
            "pipeline trace digest {:016x} != fixture {:016x}",
            row.digest, want
        );
        assert!(row.verdict_ok);
        assert!(
            row.peak_segments_resident <= pipeline_segment_bound(),
            "peak resident segments {} exceeded the O(batch) bound {}",
            row.peak_segments_resident,
            pipeline_segment_bound()
        );
        assert!(row.recycled_segments > 0, "nothing was recycled");
    }

    #[test]
    fn world_rows_are_deterministic_across_runs() {
        let a = world_row(2_000);
        let b = world_row(2_000);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.trace_events, b.trace_events);
    }
}
