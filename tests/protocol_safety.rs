//! Cross-crate safety sweep: every protocol, driven by generated
//! workloads over multiple seeds and schedule perturbations, must
//! produce causally consistent histories — and the session guarantees
//! its design promises.

use snowbound::model::{check_monotonic_reads, check_read_atomicity, check_read_your_writes};
use snowbound::prelude::*;

fn sweep<N: ProtocolNode>(seeds: std::ops::Range<u64>, ops: usize) {
    for seed in seeds {
        let mut cluster: Cluster<N> = Cluster::new(Topology::minimal(4));
        let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_a()), seed);
        let summary = drive(&mut cluster, &mut wl, ops)
            .unwrap_or_else(|e| panic!("{}: seed {seed}: {e}", N::NAME));
        assert!(
            summary.verdict.is_ok(),
            "{} seed {seed}: {:?}",
            N::NAME,
            summary.verdict.violations
        );
        // Chaotic post-run: drain all remaining traffic in random order;
        // anything that completed must still check out.
        cluster.world.run_chaotic(seed, 200_000);
        assert!(
            cluster.check().is_ok(),
            "{} seed {seed} post-chaos",
            N::NAME
        );
    }
}

#[test]
fn cops_is_causal_across_seeds() {
    sweep::<CopsNode>(0..8, 40);
}

#[test]
fn cops_snow_is_causal_across_seeds() {
    sweep::<CopsSnowNode>(0..8, 40);
}

#[test]
fn eiger_is_causal_across_seeds() {
    sweep::<EigerNode>(0..8, 40);
}

#[test]
fn wren_is_causal_across_seeds() {
    sweep::<WrenNode>(0..8, 40);
}

#[test]
fn cops_rw_is_causal_across_seeds() {
    sweep::<CopsRwNode>(0..8, 40);
}

#[test]
fn spanner_is_causal_across_seeds() {
    sweep::<SpannerNode>(0..6, 30);
}

#[test]
fn contrarian_is_causal_across_seeds() {
    sweep::<ContrarianNode>(0..8, 40);
}

#[test]
fn gentlerain_is_causal_across_seeds() {
    sweep::<GentleRainNode>(0..6, 30);
}

#[test]
fn ramp_provides_read_atomicity_across_seeds() {
    // RAMP is *not* causal by design; its sweep checks read atomicity.
    use snowbound::model::check_read_atomicity;
    for seed in 0..8u64 {
        let mut cluster: Cluster<RampNode> = Cluster::new(Topology::minimal(4));
        let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_a()), seed);
        drive(&mut cluster, &mut wl, 40).unwrap();
        cluster.world.run_chaotic(seed, 200_000);
        assert!(
            check_read_atomicity(cluster.history()).is_empty(),
            "seed {seed}: fractured reads"
        );
    }
}

#[test]
fn calvin_is_strictly_consistent_across_seeds() {
    sweep::<CalvinNode>(0..6, 30);
}

#[test]
fn cure_is_causal_across_seeds() {
    sweep::<CureNode>(0..6, 30);
}

#[test]
fn occult_is_causal_across_seeds() {
    // Occult needs a replicated deployment for its slave path; the
    // driver runs on its own topology here.
    for seed in 0..6u64 {
        let mut cluster: Cluster<OccultNode> =
            Cluster::new(Topology::partially_replicated(3, 4, 2, 2));
        let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_a()), seed);
        let s = drive(&mut cluster, &mut wl, 30).unwrap();
        assert!(s.verdict.is_ok(), "seed {seed}: {:?}", s.verdict.violations);
        cluster.world.run_chaotic(seed, 200_000);
        assert!(cluster.check().is_ok(), "seed {seed} post-chaos");
    }
}

#[test]
fn naive_fast_is_causal_only_under_friendly_schedules() {
    // Without an adversary the claimants behave; that is why they are
    // dangerous. (The theorem tests show the adversary breaking them.)
    sweep::<NaiveFast>(0..4, 40);
}

#[test]
fn session_guarantees_hold_for_causal_protocols() {
    fn session_check<N: ProtocolNode>() {
        let mut cluster: Cluster<N> = Cluster::new(Topology::minimal(4));
        let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_a()), 77);
        drive(&mut cluster, &mut wl, 50).unwrap();
        let h = cluster.history();
        assert!(
            check_read_your_writes(h).is_empty(),
            "{}: RYW violations",
            N::NAME
        );
        assert!(
            check_monotonic_reads(h).is_empty(),
            "{}: MR violations",
            N::NAME
        );
    }
    session_check::<CopsNode>();
    session_check::<ContrarianNode>();
    session_check::<GentleRainNode>();
    session_check::<CopsSnowNode>();
    session_check::<EigerNode>();
    session_check::<WrenNode>();
    session_check::<CopsRwNode>();
    session_check::<SpannerNode>();
}

#[test]
fn write_transactions_are_never_fractured() {
    fn ra_check<N: ProtocolNode>() {
        let mut cluster: Cluster<N> = Cluster::new(Topology::minimal(4));
        let mut wl = Workload::new(
            WorkloadSpec {
                num_keys: 2,
                num_clients: 4,
                rot_size: 2,
                wtx_size: 2,
                theta: 0.0,
                mix: Mix {
                    read: 0.5,
                    write: 0.0,
                    multi_write: 0.5,
                },
            },
            3,
        );
        drive(&mut cluster, &mut wl, 40).unwrap();
        assert!(
            check_read_atomicity(cluster.history()).is_empty(),
            "{}: fractured reads",
            N::NAME
        );
    }
    ra_check::<EigerNode>();
    ra_check::<WrenNode>();
    ra_check::<CopsRwNode>();
    ra_check::<SpannerNode>();
}

#[test]
fn bigger_deployments_stay_causal() {
    // Four servers, eight keys, six clients — beyond the minimal model.
    for seed in 0..3u64 {
        let mut cluster: Cluster<EigerNode> = Cluster::new(Topology::sharded(4, 6, 8));
        let mut wl = Workload::new(
            WorkloadSpec {
                num_keys: 8,
                num_clients: 6,
                rot_size: 4,
                wtx_size: 3,
                theta: 0.99,
                mix: Mix::ycsb_a(),
            },
            seed,
        );
        let s = drive(&mut cluster, &mut wl, 60).unwrap();
        assert!(s.verdict.is_ok(), "seed {seed}: {:?}", s.verdict.violations);
    }
}

#[test]
fn partially_replicated_writes_reach_all_replicas() {
    let topo = Topology::partially_replicated(3, 4, 3, 2);
    let mut cluster: Cluster<NaiveFast> = Cluster::new(topo);
    let w = cluster
        .write_tx(ClientId(0), &[(Key(0), Value(500))])
        .unwrap();
    let _ = w;
    // Reads served by the primary see it; and since replication is
    // all-replica synchronous here, a fork that asks any replica agrees.
    let r = cluster.read_tx(ClientId(1), &[Key(0)]).unwrap();
    assert_eq!(r.reads[0].1, Value(500));
}
