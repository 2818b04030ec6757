//! # cbf-bench — the exhibit code behind the `repro` binary.
//!
//! `cargo run --release -p cbf-bench --bin repro -- <exhibit>`
//! regenerates the paper's tables and figures (virtual-time results,
//! deterministic). Wall-clock performance of the artifact itself is
//! measured by the repo benchmark (`benchmark/`, `BENCHMARK.json`), not
//! here.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use snowbound::prelude::*;
use snowbound::theorem;

pub mod chaos;
pub mod hist;
pub mod json;
pub mod load;
pub mod memstats;
pub mod net;
pub mod pipeline;
pub mod soak;

/// Latency landmark of one protocol under one mix: mean / p50 / p99 of
/// ROT latency in virtual microseconds, plus write latency and message
/// counts.
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// Protocol name.
    pub protocol: String,
    /// Workload mix label.
    pub mix: String,
    /// ROTs completed.
    pub rots: u64,
    /// Mean ROT latency (virtual µs).
    pub rot_mean_us: f64,
    /// Median ROT latency (virtual µs).
    pub rot_p50_us: u64,
    /// Tail ROT latency (virtual µs).
    pub rot_p99_us: u64,
    /// Extreme-tail ROT latency (virtual µs).
    pub rot_p999_us: u64,
    /// Maximum ROT latency observed (virtual µs).
    pub rot_max_us: u64,
    /// Log-bucketed histogram of ROT latencies (virtual µs). The
    /// scalar percentiles above are exact (computed from the sorted
    /// sample); the histogram carries the full shape for the JSON
    /// export at bounded size.
    pub rot_hist_us: hist::LogHist,
    /// Messages sent per completed operation.
    pub msgs_per_op: f64,
    /// Worst values-per-message observed (V).
    pub max_values: u32,
    /// History check passed.
    pub causal_ok: bool,
}

/// Run `ops` operations of `mix` against a fresh deployment of `N` and
/// summarize. Deterministic in `seed`.
pub fn latency_row<N: ProtocolNode>(mix: Mix, mix_name: &str, ops: usize, seed: u64) -> LatencyRow {
    let mut cluster: Cluster<N> = Cluster::new(Topology::minimal(4));
    let mut wl = Workload::new(WorkloadSpec::minimal(mix), seed);
    let before_msgs = cluster.world.stats().total_sent();
    let summary = drive(&mut cluster, &mut wl, ops).unwrap_or_else(|e| panic!("{}: {e}", N::NAME));
    let sent = cluster.world.stats().total_sent() - before_msgs;
    let mut h = hist::LogHist::new();
    for &ns in &summary.rot_latencies {
        h.record(ns / 1_000); // virtual µs
    }
    LatencyRow {
        protocol: N::NAME.to_string(),
        mix: mix_name.to_string(),
        rots: summary.rot_latencies.len() as u64,
        rot_mean_us: summary.profile.mean_rot_latency() / 1_000.0,
        rot_p50_us: summary.rot_latency_percentile(50.0) / 1_000,
        rot_p99_us: summary.rot_latency_percentile(99.0) / 1_000,
        rot_p999_us: summary.rot_latency_percentile(99.9) / 1_000,
        rot_max_us: summary.rot_latencies.iter().copied().max().unwrap_or(0) / 1_000,
        rot_hist_us: h,
        msgs_per_op: sent as f64 / summary.completed.max(1) as f64,
        max_values: summary.profile.max_values,
        causal_ok: summary.verdict.is_ok(),
    }
}

/// The versioned latency artifact: schema tag plus every (protocol,
/// mix) row. `latency-v1` was the bare row array with flat p50/p99;
/// v2 wraps it and each row carries p999, max and the log-bucketed
/// histogram.
#[derive(Clone, Debug)]
pub struct LatencyReport {
    /// One row per (protocol, mix) cell.
    pub rows: Vec<LatencyRow>,
}

/// The latency table across the whole implemented design space, for one
/// mix. Order: fast-read corner first.
///
/// Each protocol's deployment is an independent simulation, so the rows
/// are produced with [`cbf_par::parallel_map`]; results come back in
/// this fixed order regardless of the thread budget, and each row is a
/// pure function of `(mix, ops, seed)`, so the table is bit-identical
/// to the serial loop (`SNOWBOUND_THREADS=1` *is* the serial loop).
pub fn latency_table(mix: Mix, mix_name: &str, ops: usize, seed: u64) -> Vec<LatencyRow> {
    latency_tables(&[(mix, mix_name)], ops, seed)
        .pop()
        .expect("one mix in, one table out")
}

/// Protocols per mix in [`latency_table`] / [`latency_tables`].
const LATENCY_PROTOCOLS: usize = 10;

/// Every (protocol, mix) latency cell of the design space, in one flat
/// fan-out.
///
/// The old shape ran one `parallel_map` per mix — sequential 10-job
/// barriers, each ending in a join that idles most workers while the
/// slowest protocol finishes. Flattened, all cells are independent
/// units of work in a single fan-out, so the thread pool stays busy end
/// to end. Returns one table per input mix, in input order, each in the
/// same fixed protocol order as [`latency_table`]; every cell is a pure
/// function of `(mix, ops, seed)`, so the result is bit-identical to
/// calling [`latency_table`] once per mix (and to the serial loop).
pub fn latency_tables<'a>(mixes: &[(Mix, &'a str)], ops: usize, seed: u64) -> Vec<Vec<LatencyRow>> {
    let mut jobs: Vec<Box<dyn Fn() -> LatencyRow + Send + 'a>> = Vec::new();
    for &(mix, name) in mixes {
        jobs.push(Box::new(move || {
            latency_row::<CopsSnowNode>(mix, name, ops, seed)
        }));
        jobs.push(Box::new(move || {
            latency_row::<CopsNode>(mix, name, ops, seed)
        }));
        jobs.push(Box::new(move || {
            latency_row::<RampNode>(mix, name, ops, seed)
        }));
        jobs.push(Box::new(move || {
            latency_row::<EigerNode>(mix, name, ops, seed)
        }));
        jobs.push(Box::new(move || {
            latency_row::<ContrarianNode>(mix, name, ops, seed)
        }));
        jobs.push(Box::new(move || {
            latency_row::<WrenNode>(mix, name, ops, seed)
        }));
        jobs.push(Box::new(move || {
            latency_row::<GentleRainNode>(mix, name, ops, seed)
        }));
        jobs.push(Box::new(move || {
            latency_row::<CopsRwNode>(mix, name, ops, seed)
        }));
        jobs.push(Box::new(move || {
            latency_row::<CalvinNode>(mix, name, ops, seed)
        }));
        jobs.push(Box::new(move || {
            latency_row::<SpannerNode>(mix, name, ops, seed)
        }));
    }
    debug_assert_eq!(jobs.len(), mixes.len() * LATENCY_PROTOCOLS);
    let mut cells = cbf_par::parallel_map(jobs, |job| job()).into_iter();
    mixes
        .iter()
        .map(|_| cells.by_ref().take(LATENCY_PROTOCOLS).collect())
        .collect()
}

/// Render one mix's latency table as the `repro latency` text block.
pub fn render_latency_table(mix_name: &str, rows: &[LatencyRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("-- {mix_name}\n"));
    out.push_str(&format!(
        "   {:<16} {:>6} {:>10} {:>9} {:>9} {:>9} {:>9} {:>5}  causal\n",
        "protocol", "ROTs", "mean µs", "p50 µs", "p99 µs", "p999 µs", "msgs/op", "V"
    ));
    for r in rows {
        out.push_str(&format!(
            "   {:<16} {:>6} {:>10.1} {:>9} {:>9} {:>9} {:>9.2} {:>5}  {}\n",
            r.protocol,
            r.rots,
            r.rot_mean_us,
            r.rot_p50_us,
            r.rot_p99_us,
            r.rot_p999_us,
            r.msgs_per_op,
            r.max_values,
            if r.causal_ok { "OK" } else { "FAIL" }
        ));
    }
    out
}

/// The measured Table 1 rows — one theorem audit per implemented
/// protocol. The audits share nothing (each deploys its own cluster),
/// so they fan out through [`cbf_par::parallel_map`]; the returned
/// order is fixed and the rows are bit-identical to a serial run.
pub fn table1_rows() -> Vec<theorem::SystemRow> {
    use snowbound::theorem::{audit_protocol, audit_protocol_on};
    let jobs: Vec<Box<dyn Fn() -> theorem::SystemRow + Send>> = vec![
        Box::new(|| audit_protocol::<RampNode>(8)),
        Box::new(|| audit_protocol::<CopsNode>(8)),
        Box::new(|| audit_protocol::<GentleRainNode>(8)),
        Box::new(|| audit_protocol::<ContrarianNode>(8)),
        Box::new(|| audit_protocol::<CopsSnowNode>(8)),
        Box::new(|| audit_protocol::<EigerNode>(8)),
        Box::new(|| audit_protocol::<WrenNode>(8)),
        Box::new(|| audit_protocol::<CureNode>(8)),
        Box::new(|| audit_protocol::<CopsRwNode>(8)),
        Box::new(|| audit_protocol::<SpannerNode>(8)),
        Box::new(|| audit_protocol_on::<OccultNode>(Topology::partially_replicated(3, 5, 2, 2), 8)),
        Box::new(|| audit_protocol::<CalvinNode>(8)),
        Box::new(|| audit_protocol::<NaiveFast>(8)),
        Box::new(|| audit_protocol::<NaiveTwoPhase>(8)),
    ];
    cbf_par::parallel_map(jobs, |job| job())
}

/// Render the measured Table 1 rows as the `repro table1` text block.
pub fn render_table1(rows: &[theorem::SystemRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "| {:<14} | {:>2} | {:>2} | {:^3} | {:^3} | {:<22} | {:^6} | theorem\n",
        "system", "R", "V", "N", "W", "consistency", "causal"
    ));
    out.push_str(&format!("|{}\n", "-".repeat(100)));
    for r in rows {
        out.push_str(&format!(
            "| {:<14} | {:>2} | {:>2} | {:^3} | {:^3} | {:<22} | {:^6} | {}\n",
            r.name,
            r.rounds,
            r.values,
            if r.nonblocking { "yes" } else { "no" },
            if r.write_tx { "yes" } else { "no" },
            r.consistency,
            if r.causal_ok { "OK" } else { "FAIL" },
            r.theorem
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_rows_are_deterministic() {
        let a = latency_row::<WrenNode>(Mix::ycsb_b(), "b", 30, 5);
        let b = latency_row::<WrenNode>(Mix::ycsb_b(), "b", 30, 5);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.causal_ok);
    }

    #[test]
    fn fast_reader_beats_two_round_reader_on_virtual_latency() {
        // The theorem's trade-off, quantified: COPS-SNOW's one-round
        // reads complete in about half the virtual time of Wren's
        // two-round reads.
        let snow = latency_row::<CopsSnowNode>(Mix::ycsb_c(), "c", 40, 9);
        let wren = latency_row::<WrenNode>(Mix::ycsb_c(), "c", 40, 9);
        assert!(
            snow.rot_p50_us * 2 <= wren.rot_p50_us + 10,
            "snow {} vs wren {}",
            snow.rot_p50_us,
            wren.rot_p50_us
        );
    }
}
