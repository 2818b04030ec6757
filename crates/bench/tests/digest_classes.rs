//! The trace digest fingerprints each payload's `Payload` bytes, folded
//! a word at a time. It used to hash each payload's `Debug` text with
//! FNV-1a, and every pinned digest was recorded under that fold. This
//! suite keeps the old fold as a reference and checks that the two
//! fingerprints tell runs apart in the same way: over the chaos sweep,
//! the `run_open` epochs of `run_open_pin.rs` and the `repro load`
//! cells, two runs of one protocol have equal new digests if and only
//! if they have equal old digests.
//!
//! Across protocols the new digest may be finer, never coarser: two
//! alphabets can render different messages to the same `Debug` text,
//! but their wire tables give them different bytes.

use cbf_bench::chaos::{chaos_cell, CHAOS_RATES};
use cbf_bench::load::load_cell;
use cbf_sim::{
    FaultPlan, LatencyModel, ServiceModel, SimConfig, Trace, TraceEvent, MICROS, MILLIS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snowbound::prelude::*;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// The digest as it was: FNV-1a over a one-byte tag, the envelope
/// fields as little-endian bytes, and the payload's `Debug` text.
/// Folds incrementally, so a run can be fingerprinted after every epoch
/// without re-reading its prefix.
struct DebugFold {
    h: u64,
    folded: usize,
}

impl DebugFold {
    fn new() -> Self {
        DebugFold {
            h: 0xcbf29ce484222325,
            folded: 0,
        }
    }

    /// The old digest of `trace`, folding only the events added since
    /// the last call.
    fn digest<M: Clone + fmt::Debug + cbf_sim::Payload>(&mut self, trace: &Trace<M>) -> u64 {
        assert_eq!(
            trace.recycled_events(),
            0,
            "the reference needs every event"
        );
        for i in self.folded..trace.len() {
            self.fold(&trace.event_at(i));
        }
        self.folded = trace.len();
        self.h
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x100000001b3);
        }
    }

    fn fold<M: fmt::Debug>(&mut self, ev: &TraceEvent<M>) {
        match ev {
            TraceEvent::Send {
                at,
                id,
                from,
                to,
                msg,
            } => {
                self.mix(&[0]);
                self.mix(&at.to_le_bytes());
                self.mix(&id.0.to_le_bytes());
                self.mix(&from.0.to_le_bytes());
                self.mix(&to.0.to_le_bytes());
                let _ = write!(self, "{msg:?}");
            }
            TraceEvent::Deliver { at, id, from, to } => {
                self.mix(&[1]);
                self.mix(&at.to_le_bytes());
                self.mix(&id.0.to_le_bytes());
                self.mix(&from.0.to_le_bytes());
                self.mix(&to.0.to_le_bytes());
            }
            TraceEvent::Step { at, pid } => {
                self.mix(&[2]);
                self.mix(&at.to_le_bytes());
                self.mix(&pid.0.to_le_bytes());
            }
            TraceEvent::Inject { at, pid, msg } => {
                self.mix(&[3]);
                self.mix(&at.to_le_bytes());
                self.mix(&pid.0.to_le_bytes());
                let _ = write!(self, "{msg:?}");
            }
            TraceEvent::TimerFire { at, pid } => {
                self.mix(&[4]);
                self.mix(&at.to_le_bytes());
                self.mix(&pid.0.to_le_bytes());
            }
            TraceEvent::Drop { at, id, from, to } => {
                self.mix(&[5]);
                self.mix(&at.to_le_bytes());
                self.mix(&id.0.to_le_bytes());
                self.mix(&from.0.to_le_bytes());
                self.mix(&to.0.to_le_bytes());
            }
            TraceEvent::Duplicate {
                at,
                id,
                of,
                from,
                to,
            } => {
                self.mix(&[6]);
                self.mix(&at.to_le_bytes());
                self.mix(&id.0.to_le_bytes());
                self.mix(&of.0.to_le_bytes());
                self.mix(&from.0.to_le_bytes());
                self.mix(&to.0.to_le_bytes());
            }
            TraceEvent::Partition { at, a, b, healed } => {
                self.mix(&[7]);
                self.mix(&at.to_le_bytes());
                self.mix(&a.0.to_le_bytes());
                self.mix(&b.0.to_le_bytes());
                self.mix(&[u8::from(*healed)]);
            }
            TraceEvent::Crash { at, pid } => {
                self.mix(&[8]);
                self.mix(&at.to_le_bytes());
                self.mix(&pid.0.to_le_bytes());
            }
            TraceEvent::Recover { at, pid } => {
                self.mix(&[9]);
                self.mix(&at.to_le_bytes());
                self.mix(&pid.0.to_le_bytes());
            }
        }
    }
}

impl fmt::Write for DebugFold {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.mix(s.as_bytes());
        Ok(())
    }
}

/// One fingerprinted run: which protocol's alphabet it speaks, what it
/// is, and its digest under the old and the new fold.
struct Run {
    alphabet: &'static str,
    what: String,
    old: u64,
    new: u64,
}

fn run<N: ProtocolNode>(what: String, old: u64, new: u64) -> Run {
    Run {
        alphabet: N::NAME,
        what,
        old,
        new,
    }
}

/// The chaos exhibit's cells, for 32 seeds, with and without a crash.
fn chaos_runs<N: ProtocolNode>(runs: &mut Vec<Run>) {
    for &(drop_pm, dup_pm) in CHAOS_RATES {
        for crash in [false, true] {
            for seed in 0..32 {
                let (row, cluster) = chaos_cell::<N>(drop_pm, dup_pm, crash, seed);
                let old = DebugFold::new().digest(&cluster.world.trace);
                let what = format!("chaos {drop_pm}/{dup_pm} crash {crash} seed {seed}");
                runs.push(run::<N>(what, old, row.digest));
            }
        }
    }
}

/// `run_open_pin.rs`'s deployment and epochs: 48 clients on 3 servers
/// with a 20 µs service queue, 24 transactions in flight per epoch over
/// the first `hot_keys` keys. Each epoch's stop is one run.
fn run_open_runs<N: ProtocolNode>(
    runs: &mut Vec<Run>,
    (keys, hot_keys): (u32, u32),
    chaos: bool,
    epochs: u32,
    write_one_in: u32,
) {
    const SEED: u64 = 0x5EED_0013;
    let mut topo = Topology::sharded(3, 48, keys);
    let mut config = SimConfig {
        service: Some(ServiceModel {
            servers: 3,
            service_time: 20 * MICROS,
        }),
        ..SimConfig::default()
    };
    if chaos {
        topo = topo.with_retry(MILLIS);
        config.fault = Some(FaultPlan::new(SEED).with_drops(30).with_dups(150));
    }
    let mut c: Cluster<N> = Cluster::with_network(topo, LatencyModel::constant_default(), config);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut fold = DebugFold::new();
    for epoch in 0..epochs {
        let mut open = Vec::new();
        for slot in 0..24 {
            let client = ClientId((epoch * 24 + slot) % 48);
            let a = Key(rng.gen_range(0..hot_keys));
            let b = Key(rng.gen_range(0..hot_keys));
            let write = epoch == 0 || rng.gen_range(0..write_one_in) == 0;
            open.push(if write {
                c.begin_write_tx(client, &[a]).expect("single-key write")
            } else {
                c.begin_read_tx(client, &[a, b])
            });
        }
        assert!(c.run_open(&open), "{} epoch {epoch}: horizon", N::NAME);
        let what = format!("run_open keys {keys} chaos {chaos} epoch {epoch}");
        let old = fold.digest(&c.world.trace);
        runs.push(run::<N>(what, old, c.world.trace.digest()));
        for t in open {
            c.finish_tx(t).expect("epoch completed");
        }
    }
}

/// The `repro load` cells, seed 21.
fn load_runs<N: ProtocolNode>(runs: &mut Vec<Run>) {
    for (mix, name) in [(Mix::ycsb_a(), "ycsb_a"), (Mix::ycsb_b(), "ycsb_b")] {
        let (cell, cluster) = load_cell::<N>(mix, name, 21);
        let old = DebugFold::new().digest(&cluster.world.trace);
        runs.push(run::<N>(format!("load {name}"), old, cell.digest));
    }
}

/// Every pair of runs: new digests equal ⇔ old digests equal within one
/// alphabet, and new equal ⇒ old equal across alphabets.
#[test]
fn payload_digest_partitions_runs_like_the_debug_digest() {
    let mut runs = Vec::new();
    chaos_runs::<CopsNode>(&mut runs);
    chaos_runs::<CopsSnowNode>(&mut runs);
    chaos_runs::<EigerNode>(&mut runs);
    chaos_runs::<SpannerNode>(&mut runs);
    for chaos in [false, true] {
        run_open_runs::<CopsNode>(&mut runs, (1024, 48), chaos, 4, 4);
        run_open_runs::<CopsSnowNode>(&mut runs, (1024, 48), chaos, 4, 4);
        run_open_runs::<EigerNode>(&mut runs, (1024, 48), chaos, 4, 4);
        run_open_runs::<SpannerNode>(&mut runs, (1024, 48), chaos, 4, 4);
    }
    run_open_runs::<CopsSnowNode>(&mut runs, (64, 64), false, 32, 2);
    load_runs::<CopsSnowNode>(&mut runs);
    load_runs::<CopsNode>(&mut runs);
    load_runs::<EigerNode>(&mut runs);
    load_runs::<RampNode>(&mut runs);
    load_runs::<SpannerNode>(&mut runs);

    // The reference is the old fold: it reproduces the digests the
    // `repro load` cells were pinned to before the repin.
    let old_pins = [
        ("COPS-SNOW", "load ycsb_a", 0x492624264d6e61cb),
        ("COPS", "load ycsb_a", 0x98cfc46e98e92fd1),
        ("Eiger", "load ycsb_a", 0x813d92c6a7d1821e),
        ("RAMP", "load ycsb_a", 0x04aa03ac831412bc),
        ("Spanner-like", "load ycsb_a", 0xc51dd96a286ffc71),
        ("COPS-SNOW", "load ycsb_b", 0xe136514f81394a72),
        ("COPS", "load ycsb_b", 0x0d2ad2d9de62412f),
        ("Eiger", "load ycsb_b", 0x5b0c405e0e890c9f),
        ("RAMP", "load ycsb_b", 0x65aea587b26548ac),
        ("Spanner-like", "load ycsb_b", 0x82c30de1390855a7),
    ];
    for (alphabet, what, pin) in old_pins {
        let r = runs
            .iter()
            .find(|r| r.alphabet == alphabet && r.what == what)
            .expect("every load cell ran");
        assert_eq!(r.old, pin, "{alphabet} {what}: the reference fold drifted");
    }

    // Within an alphabet each digest names exactly one class of the
    // other; across alphabets a new digest still names one old class.
    let mut new_to_old: BTreeMap<u64, (u64, &Run)> = BTreeMap::new();
    let mut old_to_new: BTreeMap<(&str, u64), (u64, &Run)> = BTreeMap::new();
    for r in &runs {
        let (old, first) = *new_to_old.entry(r.new).or_insert((r.old, r));
        assert_eq!(
            old, r.old,
            "{} {} and {} {}: equal payload digests, different Debug digests",
            first.alphabet, first.what, r.alphabet, r.what
        );
        let (new, first) = *old_to_new.entry((r.alphabet, r.old)).or_insert((r.new, r));
        assert_eq!(
            new, r.new,
            "{} {} and {}: equal Debug digests, different payload digests",
            r.alphabet, first.what, r.what
        );
    }
    // Not vacuous: both folds see many classes, and many runs share one.
    assert_eq!(runs.len(), 4 * 3 * 2 * 32 + 2 * 4 * 4 + 32 + 10);
    assert!(new_to_old.len() > 400, "only {} classes", new_to_old.len());
    assert!(
        runs.len() - new_to_old.len() > 100,
        "only {} runs repeat another's digest",
        runs.len() - new_to_old.len()
    );
}
