//! Robustness: the theorem's witnesses and the protocols' guarantees
//! must not depend on the network's latency distribution or the
//! deployment size.

use snowbound::prelude::*;
use snowbound::sim::{LatencyKind, LatencyModel, SimConfig, MICROS, MILLIS};
use snowbound::theorem::minimal_topology;

#[test]
fn the_attack_works_under_every_latency_model() {
    // The adversary's schedule control subsumes the latency model: the
    // mixed-snapshot witness appears regardless of the distribution.
    for (name, kind) in [
        ("constant", LatencyKind::Constant(50 * MICROS)),
        (
            "uniform",
            LatencyKind::Uniform {
                lo: 10 * MICROS,
                hi: 2 * MILLIS,
            },
        ),
        (
            "lognormal",
            LatencyKind::LogNormal {
                median: 100 * MICROS,
                sigma: 0.8,
            },
        ),
        (
            "tiered",
            LatencyKind::Tiered {
                first_client: snowbound::sim::ProcessId(2),
                client_server: 50 * MICROS,
                server_server: 500 * MICROS,
            },
        ),
    ] {
        let setup = {
            // setup_c0 builds its own cluster on the default network;
            // run the Figure 1 sequence manually on the custom one.
            let mut cluster: Cluster<NaiveFast> = Cluster::with_network(
                minimal_topology(),
                LatencyModel::new(kind, 9),
                SimConfig::default(),
            );
            let v0 = cluster.alloc_value();
            let v1 = cluster.alloc_value();
            cluster.write(ClientId(0), Key(0), v0).unwrap();
            cluster.write(ClientId(1), Key(1), v1).unwrap();
            let r = cluster.read_tx(ClientId(2), &[Key(0), Key(1)]).unwrap();
            assert_eq!(
                r.reads,
                vec![(Key(0), v0), (Key(1), v1)],
                "{name}: C0 setup"
            );
            snowbound::theorem::TheoremSetup {
                cluster,
                keys: vec![Key(0), Key(1)],
                x_in: vec![v0, v1],
                c_in: vec![ClientId(0), ClientId(1)],
                cw: ClientId(2),
                reader: ClientId(3),
                probe: ClientId(4),
            }
        };
        let out = attack_all_servers(&setup).unwrap();
        assert!(
            out.caught(),
            "{name}: claimant escaped; reads {:?}",
            out.reads
        );
        assert_eq!(out.snapshot_kind(), SnapshotKind::Mixed, "{name}");
    }
}

#[test]
fn protocols_stay_causal_on_skewed_slow_networks() {
    for (kind, seed) in [
        (
            LatencyKind::Uniform {
                lo: 10 * MICROS,
                hi: 3 * MILLIS,
            },
            4u64,
        ),
        (
            LatencyKind::LogNormal {
                median: 200 * MICROS,
                sigma: 1.0,
            },
            5,
        ),
    ] {
        let mut cluster: Cluster<EigerNode> = Cluster::with_network(
            Topology::minimal(4),
            LatencyModel::new(kind, seed),
            SimConfig::default(),
        );
        let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_a()), seed);
        let s = drive(&mut cluster, &mut wl, 40).unwrap();
        assert!(s.verdict.is_ok(), "{kind:?}: {:?}", s.verdict.violations);
    }
}

#[test]
fn wide_deployments_stay_causal_and_audited() {
    // Eight servers, 24 keys, 8 clients, zipf-skewed 4-key transactions.
    let mut cluster: Cluster<WrenNode> = Cluster::new(Topology::sharded(8, 8, 24));
    let mut wl = Workload::new(
        WorkloadSpec {
            num_keys: 24,
            num_clients: 8,
            rot_size: 4,
            wtx_size: 4,
            theta: 0.99,
            mix: Mix::ycsb_a(),
        },
        13,
    );
    let s = drive(&mut cluster, &mut wl, 100).unwrap();
    assert!(s.verdict.is_ok(), "{:?}", s.verdict.violations);
    // Wren's audit envelope holds at scale too.
    assert!(s.profile.max_rounds <= 2);
    assert!(s.profile.max_values <= 1);
    assert!(!s.profile.any_blocking);
}

#[test]
fn the_checker_scales_to_long_histories() {
    // 500+ transactions through the full pipeline; the bitset closure
    // keeps the check fast enough for tests even in debug builds.
    let mut cluster: Cluster<CopsSnowNode> = Cluster::new(Topology::sharded(4, 6, 8));
    let mut wl = Workload::new(
        WorkloadSpec {
            num_keys: 8,
            num_clients: 6,
            rot_size: 3,
            wtx_size: 1,
            theta: 0.5,
            mix: Mix::ycsb_b(),
        },
        21,
    );
    let s = drive(&mut cluster, &mut wl, 500).unwrap();
    assert_eq!(s.completed, 500);
    assert!(s.verdict.is_ok());
    assert!(cluster.history().len() >= 500);
}

#[test]
fn fifo_links_change_nothing_for_dep_carrying_protocols() {
    // The protocols carry explicit dependencies, so per-link FIFO (which
    // the paper's model does not grant) must be irrelevant.
    for fifo in [false, true] {
        let mut cluster: Cluster<CopsNode> = Cluster::with_network(
            Topology::minimal(4),
            LatencyModel::new(
                LatencyKind::Uniform {
                    lo: 10,
                    hi: 100 * MICROS,
                },
                3,
            ),
            SimConfig {
                fifo_links: fifo,
                ..SimConfig::default()
            },
        );
        let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_a()), 17);
        let s = drive(&mut cluster, &mut wl, 40).unwrap();
        assert!(s.verdict.is_ok(), "fifo={fifo}: {:?}", s.verdict.violations);
    }
}
