//! The `repro net` exhibit: real-socket cluster runs with the
//! deterministic simulator as replay oracle.
//!
//! Each cell spawns a loopback cluster (one OS process per server, all
//! clients in the launcher — see `cbf-net`), drives a closed-loop
//! workload, then replays the recorded delivery order through the
//! simulator and demands the causal history come back bit-identical.
//! Latencies here are *wall-clock* nanoseconds, unlike every other
//! exhibit's virtual time — which is the point: the same actors, a real
//! kernel between them.

use crate::hist::LogHist;
use cbf_model::check_causal;
use cbf_net::{replay_and_diff, run_cluster, NetConfig};
use cbf_protocols::{all_snow_decls, ProtocolNode, Topology, Wire};
use cbf_workloads::{Mix, WorkloadSpec};
use std::time::Duration;

/// One (protocol, mix) cell of a real-socket run.
#[derive(Clone, Debug)]
pub struct NetRow {
    /// Protocol name.
    pub protocol: String,
    /// Workload mix label.
    pub mix: String,
    /// Transactions completed.
    pub txs: u64,
    /// Read-only transactions among them.
    pub rots: u64,
    /// Median wall-clock ROT latency (µs).
    pub rot_p50_us: u64,
    /// Tail wall-clock ROT latency (µs).
    pub rot_p99_us: u64,
    /// Extreme-tail wall-clock ROT latency (µs).
    pub rot_p999_us: u64,
    /// Median wall-clock write latency (µs).
    pub wtx_p50_us: u64,
    /// Tail wall-clock write latency (µs).
    pub wtx_p99_us: u64,
    /// Full ROT latency histogram (µs).
    pub rot_hist_us: LogHist,
    /// Full write latency histogram (µs).
    pub wtx_hist_us: LogHist,
    /// Computation steps recorded across all processes.
    pub recorded_steps: u64,
    /// Steps the replay executed (equals `recorded_steps` on success).
    pub replay_steps: u64,
    /// Trace digest of the replayed run — the run's fingerprint.
    pub digest: u64,
    /// The real run's history passed the causal checker.
    pub causal_ok: bool,
    /// Whether a failed causal check fails the cell (see
    /// [`CAUSAL_UNGATED`]).
    pub causal_gated: bool,
    /// Replay reproduced the history bit-identically (twice, with
    /// identical digests).
    pub replay_ok: bool,
}

/// The full exhibit: rows plus the tier that produced them.
#[derive(Clone, Debug)]
pub struct NetReport {
    /// Tier name (`smoke` or `table1`).
    pub tier: String,
    /// One row per (protocol, mix) cell, in run order.
    pub rows: Vec<NetRow>,
}

/// Outcome of a tier run: always carries every completed row, so the
/// caller can flush a partial artifact even when a later cell failed.
pub struct NetOutcome {
    /// The (possibly partial) report.
    pub report: NetReport,
    /// The first cell failure, if any.
    pub error: Option<String>,
}

impl NetRow {
    /// The row's one-word verdict: `acausal` is a causal violation in a
    /// protocol the gate does not hold to causality.
    pub fn verdict(&self) -> &'static str {
        match (self.replay_ok, self.causal_ok, self.causal_gated) {
            (true, true, _) => "ok",
            (true, false, false) => "acausal",
            _ => "FAIL",
        }
    }
}

/// Protocols whose real-socket histories are causally checked and
/// reported, but not gated on the verdict (DESIGN §2.13): RAMP promises
/// read atomicity only; `pinned` acks a write transaction while its
/// `Commit`s are still in flight, which the simulator's equal-latency
/// links hide and a real kernel's scheduling does not (pinned down in
/// `tests/net_cluster.rs`).
pub const CAUSAL_UNGATED: &[&str] = &["pinned", "ramp"];

/// A named workload mix: label plus constructor.
type NamedMix = (&'static str, fn() -> Mix);

/// One cell runner per protocol: `(key, NAME, cell::<Node>)`.
type Cell = fn(&str, &Tier, &str, Mix) -> Result<NetRow, String>;
const PROTOCOLS: [(&str, &str, Cell); 14] = cbf_net::protocol_table!(cell);

/// A tier's shape: which mixes, how many transactions, and which rows
/// of [`PROTOCOLS`] (asked by key and name).
struct Tier {
    name: &'static str,
    num_servers: u32,
    txs: usize,
    mixes: &'static [NamedMix],
    runs: fn(&str, &str) -> bool,
}

const SMOKE: Tier = Tier {
    name: "smoke",
    num_servers: 3,
    txs: 200,
    mixes: &[("ycsb_b", Mix::ycsb_b)],
    runs: |key, _| matches!(key, "cops" | "cops-snow"),
};

/// `table1` runs every protocol with a row in the paper's Table 1 over
/// two mixes with ≥1000 transactions each (600 × 2), matching the
/// exhibit the paper's Table 1 latency claims are judged on.
const TABLE1: Tier = Tier {
    name: "table1",
    num_servers: 3,
    txs: 600,
    mixes: &[("ycsb_a", Mix::ycsb_a), ("ycsb_b", Mix::ycsb_b)],
    runs: |_, name| {
        all_snow_decls()
            .iter()
            .any(|d| d.system == name && d.paper_row.is_some())
    },
};

/// Parse a tier argument.
pub fn parse_tier(arg: &str) -> Result<&'static str, String> {
    match arg {
        "smoke" => Ok("smoke"),
        "table1" => Ok("table1"),
        other => Err(format!("unknown net tier {other:?}: use smoke or table1")),
    }
}

/// Run one tier. Never panics on a cell failure — completed rows are
/// returned alongside the error so the artifact can be flushed partial.
pub fn run_net(tier_name: &str) -> NetOutcome {
    let tier = match tier_name {
        "smoke" => &SMOKE,
        _ => &TABLE1,
    };
    let mut rows = Vec::new();
    let mut error = None;
    'outer: for (key, name, cell) in PROTOCOLS {
        if !(tier.runs)(key, name) {
            continue;
        }
        for &(mix_name, mix) in tier.mixes {
            match cell(key, tier, mix_name, mix()) {
                Ok(row) => rows.push(row),
                Err(e) => {
                    error = Some(format!("{key}:{mix_name}: {e}"));
                    break 'outer;
                }
            }
        }
    }
    NetOutcome {
        report: NetReport {
            tier: tier.name.to_string(),
            rows,
        },
        error,
    }
}

fn cell<N: ProtocolNode>(
    proto: &str,
    tier: &Tier,
    mix_name: &str,
    mix: Mix,
) -> Result<NetRow, String>
where
    N::Msg: Wire,
{
    let spec = WorkloadSpec {
        num_keys: 12,
        num_clients: 6,
        rot_size: 2,
        wtx_size: 2,
        theta: 0.99,
        mix,
    };
    let record_dir = std::env::temp_dir().join(format!(
        "cbf-net-{}-{}-{}",
        std::process::id(),
        proto,
        mix_name
    ));
    let cfg = NetConfig {
        protocol: proto.to_string(),
        num_servers: tier.num_servers,
        spec,
        txs: tier.txs,
        seed: 42,
        record_dir: record_dir.clone(),
        stall_timeout: Duration::from_secs(30),
    };
    let run = run_cluster::<N>(&cfg).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&record_dir);

    let topo = Topology::sharded(cfg.num_servers, spec.num_clients, spec.num_keys);
    let causal_ok = check_causal(&run.history).is_ok();
    let report =
        replay_and_diff::<N>(&topo, &run.recording, &run.history).map_err(|e| e.to_string())?;

    let mut rot_hist_us = LogHist::new();
    for &ns in &run.rot_ns {
        rot_hist_us.record(ns / 1_000);
    }
    let mut wtx_hist_us = LogHist::new();
    for &ns in &run.wtx_ns {
        wtx_hist_us.record(ns / 1_000);
    }
    Ok(NetRow {
        protocol: N::NAME.to_string(),
        mix: mix_name.to_string(),
        txs: run.history.len() as u64,
        rots: run.rot_ns.len() as u64,
        rot_p50_us: rot_hist_us.percentile(50.0),
        rot_p99_us: rot_hist_us.percentile(99.0),
        rot_p999_us: rot_hist_us.percentile(99.9),
        wtx_p50_us: wtx_hist_us.percentile(50.0),
        wtx_p99_us: wtx_hist_us.percentile(99.0),
        rot_hist_us,
        wtx_hist_us,
        recorded_steps: run.recording.total_steps() as u64,
        replay_steps: report.steps as u64,
        digest: report.digest,
        causal_ok,
        causal_gated: !CAUSAL_UNGATED.contains(&proto),
        replay_ok: true,
    })
}

/// Render the rows as the printed table.
pub fn render_net(report: &NetReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<8} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>18}",
        "protocol",
        "mix",
        "txs",
        "rots",
        "rot p50",
        "rot p99",
        "rot p999",
        "wtx p50",
        "steps",
        "replay",
        "digest"
    );
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{:<14} {:<8} {:>5} {:>5} {:>7}µs {:>7}µs {:>7}µs {:>7}µs {:>8} {:>7} {:>18}",
            r.protocol,
            r.mix,
            r.txs,
            r.rots,
            r.rot_p50_us,
            r.rot_p99_us,
            r.rot_p999_us,
            r.wtx_p50_us,
            r.recorded_steps,
            r.verdict(),
            format!("{:016x}", r.digest)
        );
    }
    out
}
