//! Drive a generated workload against any protocol deployment and
//! collect cross-cutting statistics. Shared by the examples, the
//! integration tests and the benchmark harness.

use cbf_model::checker::Verdict;
use cbf_model::{PropertyProfile, Value};
use cbf_protocols::{Cluster, ProtocolNode, TxError};
use cbf_workloads::{Op, Workload};

/// Summary of one driven workload.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Operations successfully completed.
    pub completed: u64,
    /// Multi-writes rejected by single-object protocols and
    /// down-converted to single writes.
    pub rejected_multi_writes: u64,
    /// Aggregated fast-ROT measurements.
    pub profile: PropertyProfile,
    /// Causal-consistency verdict over the full history.
    pub verdict: Verdict,
    /// ROT latencies in virtual nanoseconds, in completion order.
    pub rot_latencies: Vec<u64>,
    /// Virtual time elapsed across the run.
    pub virtual_elapsed: u64,
}

impl RunSummary {
    /// The p-th latency percentile (0–100) of read-only transactions.
    pub fn rot_latency_percentile(&self, p: f64) -> u64 {
        if self.rot_latencies.is_empty() {
            return 0;
        }
        let mut v = self.rot_latencies.clone();
        v.sort_unstable();
        let idx = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
        v[idx.min(v.len() - 1)]
    }
}

// Background machinery (stabilization timers) runs for `SETTLE_FOR`
// virtual ns after every `SETTLE_EVERY` operations.
const SETTLE_EVERY: usize = 16;
const SETTLE_FOR: u64 = cbf_sim::MILLIS;

/// Run `n_ops` operations from `workload` against `cluster`. A
/// multi-object write that a protocol without W rejects is retried as a
/// single-object write, so the same stream runs everywhere.
pub fn drive<N: ProtocolNode>(
    cluster: &mut Cluster<N>,
    workload: &mut Workload,
    n_ops: usize,
) -> Result<RunSummary, TxError> {
    let start = cluster.world.now();
    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut rot_latencies = Vec::new();
    for i in 0..n_ops {
        match workload.next_op() {
            Op::Rot { client, keys } => {
                let r = cluster.read_tx(client, &keys)?;
                rot_latencies.push(r.audit.latency);
                completed += 1;
            }
            Op::Write { client, key } => {
                let v: Value = cluster.alloc_value();
                cluster.write(client, key, v)?;
                completed += 1;
            }
            Op::MultiWrite { client, keys } => match cluster.write_tx_auto(client, &keys) {
                Ok(_) => completed += 1,
                Err(TxError::MultiWriteUnsupported) => {
                    rejected += 1;
                    cluster.write_tx_auto(client, &keys[..1])?;
                    completed += 1;
                }
                Err(e) => return Err(e),
            },
        }
        if (i + 1).is_multiple_of(SETTLE_EVERY) {
            cluster.world.run_for(SETTLE_FOR);
        }
    }
    Ok(RunSummary {
        completed,
        rejected_multi_writes: rejected,
        profile: cluster.profile().clone(),
        verdict: cluster.check(),
        rot_latencies,
        virtual_elapsed: cluster.world.now() - start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbf_protocols::cops_snow::CopsSnowNode;
    use cbf_protocols::wren::WrenNode;
    use cbf_protocols::Topology;
    use cbf_workloads::{Mix, WorkloadSpec};

    #[test]
    fn drives_a_mixed_workload_and_stays_causal() {
        let mut cluster: Cluster<WrenNode> = Cluster::new(Topology::minimal(4));
        let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_a()), 42);
        let s = drive(&mut cluster, &mut wl, 60).unwrap();
        assert_eq!(s.completed, 60);
        assert!(s.verdict.is_ok(), "{:?}", s.verdict.violations);
        assert!(s.profile.multi_write_supported);
        assert!(!s.rot_latencies.is_empty());
        assert!(s.virtual_elapsed > 0);
    }

    #[test]
    fn downgrades_multi_writes_for_single_object_protocols() {
        let mut cluster: Cluster<CopsSnowNode> = Cluster::new(Topology::minimal(4));
        let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_a()), 42);
        let s = drive(&mut cluster, &mut wl, 60).unwrap();
        assert_eq!(s.completed, 60);
        assert!(s.rejected_multi_writes > 0);
        assert!(!s.profile.multi_write_supported);
        assert!(s.profile.fast_rots());
        assert!(s.verdict.is_ok());
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut cluster: Cluster<WrenNode> = Cluster::new(Topology::minimal(4));
        let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_b()), 1);
        let s = drive(&mut cluster, &mut wl, 40).unwrap();
        let p50 = s.rot_latency_percentile(50.0);
        let p99 = s.rot_latency_percentile(99.0);
        assert!(p50 <= p99);
        assert!(p50 > 0);
    }
}
