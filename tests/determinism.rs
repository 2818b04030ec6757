//! Full-stack determinism: the same seed must produce bit-identical
//! histories, traces and theorem reports. This is the property that
//! makes every figure and witness in EXPERIMENTS.md reproducible.

use snowbound::prelude::*;

fn run_once<N: ProtocolNode>(seed: u64) -> (String, String) {
    let mut cluster: Cluster<N> = Cluster::new(Topology::minimal(4));
    let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_a()), seed);
    drive(&mut cluster, &mut wl, 40).unwrap();
    let history = format!("{:?}", cluster.history().transactions());
    let trace = cluster.render_trace_len();
    (history, trace)
}

trait TraceLen {
    fn render_trace_len(&self) -> String;
}
impl<N: ProtocolNode> TraceLen for Cluster<N> {
    fn render_trace_len(&self) -> String {
        format!(
            "{} events, now={}",
            self.world.trace.len(),
            self.world.now()
        )
    }
}

#[test]
fn histories_are_reproducible_per_seed() {
    for seed in [0u64, 7, 42] {
        assert_eq!(run_once::<WrenNode>(seed), run_once::<WrenNode>(seed));
        assert_eq!(run_once::<EigerNode>(seed), run_once::<EigerNode>(seed));
        assert_eq!(
            run_once::<CopsSnowNode>(seed),
            run_once::<CopsSnowNode>(seed)
        );
        assert_eq!(run_once::<SpannerNode>(seed), run_once::<SpannerNode>(seed));
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity: the generator actually varies with the seed.
    assert_ne!(run_once::<WrenNode>(1).0, run_once::<WrenNode>(2).0);
}

#[test]
fn theorem_reports_are_reproducible() {
    let a = run_theorem::<NaiveTwoPhase>(10).render();
    let b = run_theorem::<NaiveTwoPhase>(10).render();
    assert_eq!(a, b);
}

#[test]
fn witnesses_are_reproducible() {
    let w1 = {
        let s = setup_c0::<NaiveFast>(snowbound::theorem::minimal_topology()).unwrap();
        format!("{:?}", attack_all_servers(&s).unwrap().reads)
    };
    let w2 = {
        let s = setup_c0::<NaiveFast>(snowbound::theorem::minimal_topology()).unwrap();
        format!("{:?}", attack_all_servers(&s).unwrap().reads)
    };
    assert_eq!(w1, w2);
}

#[test]
fn forked_clusters_diverge_independently() {
    let mut a: Cluster<WrenNode> = Cluster::new(Topology::minimal(4));
    a.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
    let mut b = a.fork();
    // Different continuations.
    a.write_tx_auto(ClientId(1), &[Key(0)]).unwrap();
    b.read_tx(ClientId(2), &[Key(0), Key(1)]).unwrap();
    assert_eq!(a.history().len(), 2);
    assert_eq!(b.history().len(), 2);
    assert!(a.history().transactions()[1].is_write_only());
    assert!(b.history().transactions()[1].is_read_only());
    // Both stay causal.
    assert!(a.check().is_ok());
    assert!(b.check().is_ok());
}
