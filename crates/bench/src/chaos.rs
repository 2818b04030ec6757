//! The chaos exhibit: protocols under the nemesis.
//!
//! Sweeps fault rates (message drop/duplication, with and without a
//! server crash/recover) across the retry-hardened protocols and
//! reports, per cell: how many client transactions completed, whether
//! the observed history stayed causal, and the run's trace digest.
//! Every cell is a pure function of `(protocol, rates, crash, seed)` —
//! re-running a seed replays the identical fault schedule and produces
//! the identical digest, so any failure reproduces bit-for-bit.

use cbf_sim::{FaultPlan, LatencyModel, ProcessId, SimConfig, MILLIS};
use snowbound::prelude::*;

/// One cell of the chaos sweep.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Protocol name.
    pub protocol: String,
    /// Message drop rate, per mille.
    pub drop_pm: u16,
    /// Message duplication rate, per mille.
    pub dup_pm: u16,
    /// Whether a server crash/recover (with volatile loss) was scheduled.
    pub crash: bool,
    /// The fault plan's RNG seed.
    pub seed: u64,
    /// Client transactions that completed (via retry where needed).
    pub completed: u64,
    /// Client transactions issued.
    pub total: u64,
    /// The causal checker's verdict over the observed history.
    pub causal_ok: bool,
    /// Digest of the full trace: the replay fingerprint.
    pub digest: u64,
    /// Checker transactions resident after one GC pass over the cell's
    /// history — the bounded-memory evidence at the chaos tier.
    pub checker_resident_txs: u64,
    /// Transactions that GC pass retired (0 when the history's shape
    /// pins the frontier, e.g. an unresolved read or a pending rule-4
    /// fixpoint).
    pub checker_retired: u64,
}

/// The drop/duplicate rate grid of the sweep, in per mille.
pub const CHAOS_RATES: &[(u16, u16)] = &[(0, 0), (20, 20), (50, 50)];

/// The fault schedule of one cell: drops and duplicates at the given
/// rates, plus (optionally) server `p1` crashing at 2 ms and recovering
/// at 8 ms with its volatile state lost.
pub fn fault_plan(drop_pm: u16, dup_pm: u16, crash: bool, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed).with_drops(drop_pm).with_dups(dup_pm);
    if crash {
        plan = plan.with_crash(ProcessId(1), 2 * MILLIS, 8 * MILLIS, true);
    }
    plan
}

/// Run one cell: the mixed workload of the chaos integration tests — 5
/// rounds of every client writing one key and reading both — against a
/// retry-enabled minimal deployment under the cell's fault plan.
pub fn chaos_row<N: ProtocolNode>(drop_pm: u16, dup_pm: u16, crash: bool, seed: u64) -> ChaosRow {
    chaos_cell::<N>(drop_pm, dup_pm, crash, seed).0
}

/// [`chaos_row`], together with the cluster the cell ran on (its trace
/// fully retained).
pub fn chaos_cell<N: ProtocolNode>(
    drop_pm: u16,
    dup_pm: u16,
    crash: bool,
    seed: u64,
) -> (ChaosRow, Cluster<N>) {
    let mut cluster: Cluster<N> = Cluster::with_network(
        Topology::minimal(4).with_retry(MILLIS),
        LatencyModel::constant_default(),
        SimConfig {
            fault: Some(fault_plan(drop_pm, dup_pm, crash, seed)),
            ..SimConfig::default()
        },
    );
    let mut completed = 0u64;
    let mut total = 0u64;
    for round in 0..5u32 {
        for cl in 0..4u32 {
            total += 1;
            if cluster
                .write_tx_auto(ClientId(cl), &[Key((round + cl) % 2)])
                .is_ok()
            {
                completed += 1;
            }
            total += 1;
            if cluster
                .read_tx(ClientId((cl + 1) % 4), &[Key(0), Key(1)])
                .is_ok()
            {
                completed += 1;
            }
        }
    }
    let offline = cluster.check();
    // The same history through the online checker, garbage-collected:
    // GC must be invisible (bit-identical verdict) on every chaos cell,
    // and the resident count after it is the cell's bounded-memory
    // evidence.
    let mut online = cbf_model::CausalChecker::new();
    for t in cluster.history().transactions() {
        online.ingest(t.clone());
    }
    let gc = online.gc();
    assert_eq!(
        online.verdict(),
        offline,
        "{}: GC'd online verdict diverged from check_causal",
        N::NAME
    );
    let row = ChaosRow {
        protocol: N::NAME.to_string(),
        drop_pm,
        dup_pm,
        crash,
        seed,
        completed,
        total,
        causal_ok: offline.is_ok(),
        digest: cluster.world.trace.digest(),
        checker_resident_txs: gc.resident as u64,
        checker_retired: gc.retired as u64,
    };
    (row, cluster)
}

/// The chaos artifact: the sweep rows under a schema tag. Every field is
/// a pure function of the seed, so two runs write identical files.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The sweep, in fixed cell order.
    pub rows: Vec<ChaosRow>,
}

/// The full sweep: every rate × crash cell for each retry-hardened
/// protocol. Cells share nothing, so they fan out through
/// [`cbf_par::parallel_map`]; the returned order is fixed and each cell
/// is a pure function of its parameters, so the table is bit-identical
/// to a serial run.
pub fn chaos_table(seed: u64) -> Vec<ChaosRow> {
    let mut jobs: Vec<Box<dyn Fn() -> ChaosRow + Send>> = Vec::new();
    for &(drop_pm, dup_pm) in CHAOS_RATES {
        for crash in [false, true] {
            jobs.push(Box::new(move || {
                chaos_row::<CopsNode>(drop_pm, dup_pm, crash, seed)
            }));
            jobs.push(Box::new(move || {
                chaos_row::<CopsSnowNode>(drop_pm, dup_pm, crash, seed)
            }));
            jobs.push(Box::new(move || {
                chaos_row::<EigerNode>(drop_pm, dup_pm, crash, seed)
            }));
            jobs.push(Box::new(move || {
                chaos_row::<SpannerNode>(drop_pm, dup_pm, crash, seed)
            }));
        }
    }
    cbf_par::parallel_map(jobs, |job| job())
}

/// Render the sweep as the `repro chaos` text block.
pub fn render_chaos_table(rows: &[ChaosRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "   {:<16} {:>7} {:>6} {:>6} {:>10} {:>7}  {:<16}\n",
        "protocol", "drop‰", "dup‰", "crash", "completed", "causal", "digest"
    ));
    for r in rows {
        out.push_str(&format!(
            "   {:<16} {:>7} {:>6} {:>6} {:>7}/{:<3} {:>6}  {:016x}\n",
            r.protocol,
            r.drop_pm,
            r.dup_pm,
            if r.crash { "yes" } else { "no" },
            r.completed,
            r.total,
            if r.causal_ok { "OK" } else { "FAIL" },
            r.digest
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_rows_are_deterministic() {
        let a = chaos_row::<CopsNode>(30, 30, true, 9);
        let b = chaos_row::<CopsNode>(30, 30, true, 9);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.completed, b.completed);
        assert!(a.causal_ok);
        assert_eq!(a.completed, a.total, "retry must ride out the faults");
    }

    #[test]
    fn fault_free_cell_matches_the_plain_simulator() {
        // Rate-0, no-crash cells run the exact pre-nemesis message flow
        // (retry timers only ever no-op), so everything completes.
        let r = chaos_row::<SpannerNode>(0, 0, false, 1);
        assert_eq!(r.completed, r.total);
        assert!(r.causal_ok);
    }
}
