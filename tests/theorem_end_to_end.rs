//! End-to-end theorem runs: the full pipeline (simulator → protocol →
//! trace audit → checker → Lemma 3 machinery) against every protocol.

use snowbound::prelude::*;
use snowbound::theorem::{general_topologies, minimal_topology, TheoremReport};

fn caught_at(report: &TheoremReport) -> Option<u32> {
    match report.conclusion {
        Conclusion::Caught { at_k, .. } => Some(at_k),
        _ => None,
    }
}

#[test]
fn theorem_catches_every_claimant_in_the_phase_family() {
    // P coordination phases ⇒ caught at k = 2P − 2 (P ≥ 2); P = 1 at k = 1.
    assert_eq!(caught_at(&run_theorem::<NaiveNode<1>>(12)), Some(1));
    assert_eq!(caught_at(&run_theorem::<NaiveNode<2>>(12)), Some(2));
    assert_eq!(caught_at(&run_theorem::<NaiveNode<3>>(12)), Some(4));
    assert_eq!(caught_at(&run_theorem::<NaiveNode<4>>(12)), Some(6));
}

#[test]
fn every_witness_is_a_checker_verified_mixed_snapshot() {
    for report in [
        run_theorem::<NaiveNode<1>>(12),
        run_theorem::<NaiveNode<2>>(12),
        run_theorem::<NaiveNode<3>>(12),
    ] {
        let Conclusion::Caught { witness, .. } = &report.conclusion else {
            panic!("expected caught: {}", report.render());
        };
        assert_eq!(witness.snapshot_kind(), SnapshotKind::Mixed);
        assert!(!witness.violations.is_empty());
        // The ROT that was caught satisfied Definition 4: the protocol
        // really delivered a *fast* read — that is why it is broken.
        assert!(witness.audit.is_fast(), "audit: {:?}", witness.audit);
    }
}

#[test]
fn claim_2_holds_at_every_prefix() {
    // At every constructed C_k the written values are not visible.
    for report in [
        run_theorem::<NaiveNode<3>>(12),
        run_theorem::<NaiveNode<4>>(12),
    ] {
        assert!(!report.steps.is_empty());
        for step in &report.steps {
            assert!(
                step.visible.iter().all(|&v| !v),
                "claim 2 failed at k={}: {:?}",
                step.k,
                step.visible
            );
        }
    }
}

#[test]
fn forced_messages_alternate_servers() {
    // Lemma 3's claim 1 names p_{k%2} as the sender at step k.
    let report = run_theorem::<NaiveNode<4>>(12);
    for step in &report.steps {
        assert_eq!(
            step.forced.from,
            snowbound::sim::ProcessId(step.k % 2),
            "step {} came from the wrong server",
            step.k
        );
    }
}

#[test]
fn the_design_space_corners_survive_the_gamma_schedule() {
    // N+V+W (Wren), N+R+W (COPS-RW), R+V+W (Spanner-like), Eiger.
    let s = setup_c0::<WrenNode>(minimal_topology()).unwrap();
    assert!(!attack_all_servers(&s).unwrap().caught());
    let s = setup_c0::<CopsRwNode>(minimal_topology()).unwrap();
    assert!(!attack_all_servers(&s).unwrap().caught());
    let s = setup_c0::<SpannerNode>(minimal_topology()).unwrap();
    assert!(!attack_all_servers(&s).unwrap().caught());
    let s = setup_c0::<EigerNode>(minimal_topology()).unwrap();
    assert!(!attack_all_servers(&s).unwrap().caught());
}

/// FNV-1a over the rendered bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// γ from each first server against the two naive claimants, pinned:
/// the 120-event excerpt `repro fig3` prints (by hash), what the reader
/// returned, the checker's violations and the trace audit.
#[test]
fn gamma_is_pinned_on_the_minimal_topology() {
    use snowbound::model::Violation;
    use snowbound::sim::ProcessId;
    use snowbound::theorem::{attack_excerpt, TheoremSetup};

    /// `pins[i]` = (excerpt hash, values read) with `p_i` answering first.
    fn check<N: ProtocolNode>(latency: u64, pins: [(u64, [u64; 2]); 2]) {
        let s: TheoremSetup<N> = setup_c0(minimal_topology()).unwrap();
        for (i, (excerpt, [v0, v1])) in pins.into_iter().enumerate() {
            let srv = ProcessId(i as u32);
            let out = mixed_snapshot_attack(&s, srv, None).unwrap();
            let rendered = attack_excerpt(&s, srv, 120).unwrap();
            assert_eq!(fnv1a(&rendered), excerpt, "{} from {srv}", N::NAME);
            let reads = vec![(Key(0), Value(v0)), (Key(1), Value(v1))];
            assert_eq!(out.reads, reads, "{} from {srv}", N::NAME);
            // `p_i` answered with `x_in_i`, which `T_in_i` wrote and
            // `Tw` (T3) overwrote before the reader (T4) completed.
            let stale = Violation::StaleRead {
                reader: TxId(4),
                key: Key(i as u32),
                read_from: TxId(i as u64),
                overwritten_by: TxId(3),
            };
            let torn = Violation::Unserializable {
                client: ClientId(3),
            };
            assert_eq!(out.violations, vec![stale, torn], "{} from {srv}", N::NAME);
            let fast = RotAudit {
                rounds: 1,
                server_msgs: 2,
                max_values_per_msg: 1,
                blocked: false,
                latency,
            };
            assert_eq!(out.audit, fast, "{} from {srv}", N::NAME);
        }
    }

    check::<NaiveFast>(
        250_000,
        [
            (0x09cf_32b8_79ea_59b9, [1, 4]),
            (0x88a7_73fc_78d8_cd51, [3, 2]),
        ],
    );
    check::<NaiveTwoPhase>(
        350_000,
        [
            (0x09fa_2847_2463_0f7f, [1, 4]),
            (0x43e1_10af_87ec_3c4b, [3, 2]),
        ],
    );
}

#[test]
fn theorem_2_catches_claimants_on_every_general_topology() {
    for topo in general_topologies() {
        let r = run_general::<NaiveFast>(topo).unwrap();
        assert!(r.caught(), "{}", r.render());
        // The witness violates Lemma 1's generalization (Observation 3).
        let w = r.witness.unwrap();
        assert_eq!(w.snapshot_kind(), SnapshotKind::Mixed);
    }
}

#[test]
fn theorem_2_lets_eiger_survive_on_many_servers() {
    let topo = Topology::sharded(4, 8, 4);
    let r = run_general::<EigerNode>(topo).unwrap();
    assert!(!r.caught(), "{}", r.render());
}
