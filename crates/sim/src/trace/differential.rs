//! Differential test of the two-column trace against a plain `Vec` of
//! owned events: seeded sequences of every push variant, seals, forks,
//! drains and reads, checked after every operation against the
//! reference kept beside each trace.

use super::*;
use crate::sink::FnSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A message whose payload is its bytes, of varying length so the
/// digest's length prefix and padded tail word are exercised.
#[derive(Clone, Debug, PartialEq)]
struct Blob(Vec<u8>);

impl Payload for Blob {
    fn payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

/// The reference: one event that owns its message.
#[derive(Clone, Debug)]
enum Owned {
    Send(Time, MsgId, ProcessId, ProcessId, Blob),
    Deliver(Time, MsgId, ProcessId, ProcessId),
    Step(Time, ProcessId),
    Inject(Time, ProcessId, Blob),
    TimerFire(Time, ProcessId),
    Drop(Time, MsgId, ProcessId, ProcessId),
    Duplicate(Time, MsgId, MsgId, ProcessId, ProcessId),
    Partition(Time, ProcessId, ProcessId, bool),
    Crash(Time, ProcessId),
    Recover(Time, ProcessId),
}

impl Owned {
    fn view(&self) -> TraceEvent<'_, Blob> {
        match *self {
            Owned::Send(at, id, from, to, ref msg) => TraceEvent::Send {
                at,
                id,
                from,
                to,
                msg,
            },
            Owned::Deliver(at, id, from, to) => TraceEvent::Deliver { at, id, from, to },
            Owned::Step(at, pid) => TraceEvent::Step { at, pid },
            Owned::Inject(at, pid, ref msg) => TraceEvent::Inject { at, pid, msg },
            Owned::TimerFire(at, pid) => TraceEvent::TimerFire { at, pid },
            Owned::Drop(at, id, from, to) => TraceEvent::Drop { at, id, from, to },
            Owned::Duplicate(at, id, of, from, to) => TraceEvent::Duplicate {
                at,
                id,
                of,
                from,
                to,
            },
            Owned::Partition(at, a, b, healed) => TraceEvent::Partition { at, a, b, healed },
            Owned::Crash(at, pid) => TraceEvent::Crash { at, pid },
            Owned::Recover(at, pid) => TraceEvent::Recover { at, pid },
        }
    }

    /// A random event of a random variant, with full-width fields.
    fn random(rng: &mut StdRng) -> Owned {
        let at: Time = rng.gen();
        let id = MsgId(rng.gen());
        let p = ProcessId(rng.gen());
        let q = ProcessId(rng.gen());
        let blob = |rng: &mut StdRng| {
            let n = rng.gen_range(0..24usize);
            Blob((0..n).map(|_| rng.gen::<u32>() as u8).collect())
        };
        match rng.gen_range(0..10u32) {
            0 => Owned::Send(at, id, p, q, blob(rng)),
            1 => Owned::Deliver(at, id, p, q),
            2 => Owned::Step(at, p),
            3 => Owned::Inject(at, p, blob(rng)),
            4 => Owned::TimerFire(at, p),
            5 => Owned::Drop(at, id, p, q),
            6 => Owned::Duplicate(at, id, MsgId(rng.gen()), p, q),
            7 => Owned::Partition(at, p, q, rng.gen_bool(0.5)),
            8 => Owned::Crash(at, p),
            _ => Owned::Recover(at, p),
        }
    }
}

/// A trace and the owned events it must hold.
#[derive(Clone)]
struct Pair {
    trace: Trace<Blob>,
    reference: Vec<Owned>,
}

/// The digest of `events` folded from the seed, as one `Vec`.
fn reference_digest(events: &[Owned]) -> u64 {
    let mut h = DIGEST_SEED;
    let mut buf = Vec::new();
    for ev in events {
        fold_event(&mut h, &mut buf, ev.view());
    }
    h
}

impl Pair {
    fn push(&mut self, ev: Owned) {
        self.trace.push(ev.view());
        self.reference.push(ev);
    }

    /// Drain through a sink that checks every segment against the
    /// reference at the recycle frontier; `rest` also drains the tail.
    fn drain(&mut self, rest: bool) {
        let reference = &self.reference;
        let mut at = self.trace.recycled_events();
        let mut sink = FnSink(|seg: Segment<'_, Blob>| {
            assert!(rest || seg.len() == SEAL_CAP, "short sealed segment");
            for (k, ev) in seg.iter().enumerate() {
                assert_eq!(ev, reference[at + k].view(), "sink event {}", at + k);
            }
            assert_eq!(seg.iter().count(), seg.len());
            at += seg.len();
        });
        if rest {
            self.trace.drain_rest(&mut sink);
            assert_eq!(self.trace.recycled_events(), self.reference.len());
        } else {
            self.trace.drain_sealed(&mut sink);
            assert_eq!(self.trace.resident_segments(), 0);
        }
    }

    /// What every operation must leave true; `every_mark` also compares
    /// `since` at every mark (quadratic, so only now and then).
    fn check(&self, every_mark: bool) {
        let t = &self.trace;
        let r = &self.reference;
        let front = t.recycled_events();
        assert_eq!(t.len(), r.len());
        assert_eq!(t.is_empty(), r.is_empty());
        assert!(front <= r.len());
        assert_eq!(t.digest(), reference_digest(r), "digest at len {}", r.len());
        for (i, ev) in r.iter().enumerate().skip(front) {
            assert_eq!(t.event_at(i), ev.view(), "event_at({i})");
        }
        let all = t.events();
        assert_eq!(all.len(), r.len() - front);
        assert_eq!(all.iter().len(), all.len());
        assert!(all.iter().eq(r[front..].iter().map(Owned::view)));
        assert_eq!(t.iter().count(), r.len() - front);
        let marks: Vec<usize> = if every_mark {
            (0..=r.len()).collect()
        } else {
            // The frontier, the segment boundaries and the ends.
            let mut m = vec![0, front, r.len()];
            m.extend(
                (SEAL_CAP..r.len())
                    .step_by(SEAL_CAP)
                    .flat_map(|b| [b - 1, b, b + 1]),
            );
            m.retain(|&k| k <= r.len());
            m
        };
        for mark in marks {
            let v = t.since(mark);
            let want = &r[mark.max(front)..];
            assert_eq!(v.len(), want.len(), "since({mark}).len()");
            assert!(v.iter().eq(want.iter().map(Owned::view)), "since({mark})");
            if let Some(last) = want.last() {
                assert_eq!(v.get(want.len() - 1), Some(last.view()));
                let half = want.len() / 2;
                let tail = v.slice(half..);
                assert_eq!(tail.len(), want.len() - half);
                assert_eq!(tail.get(0), Some(want[half].view()));
                // A view that ends inside a segment stops there.
                let head = v.slice(..half);
                assert!(head.iter().eq(want[..half].iter().map(Owned::view)));
            }
            assert_eq!(v.get(want.len()), None);
        }
    }
}

/// One seeded sequence: pushes of every variant interleaved with forks,
/// drains, clears and reads, on a handful of live forks at once.
fn run_sequence(seed: u64, ops: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live = vec![Pair {
        trace: Trace::new(true),
        reference: Vec::new(),
    }];
    for op in 0..ops {
        let k = rng.gen_range(0..live.len());
        match rng.gen_range(0..1000u32) {
            0..=4 if live.len() < 4 => {
                // Fork: both sides must diverge independently from here.
                let fork = live[k].clone();
                live.push(fork);
            }
            5..=6 if live.len() > 1 => {
                live.swap_remove(k);
            }
            7..=9 => live[k].drain(false),
            10 => live[k].drain(true),
            11 if rng.gen_bool(0.2) => {
                live[k].trace.clear();
                live[k].reference.clear();
            }
            _ => {
                let ev = Owned::random(&mut rng);
                live[k].push(ev);
            }
        }
        if op % 97 == 0 {
            for p in &live {
                p.check(false);
            }
        }
    }
    for p in &live {
        p.check(true);
    }
}

#[test]
fn two_column_trace_matches_a_plain_vec() {
    for seed in 0..6 {
        run_sequence(seed, 2_500);
    }
}

#[test]
fn forks_share_sealed_history_but_never_appends() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut a = Pair {
        trace: Trace::new(true),
        reference: Vec::new(),
    };
    for _ in 0..SEAL_CAP + 40 {
        a.push(Owned::random(&mut rng));
    }
    let mut b = a.clone();
    for _ in 0..SEAL_CAP {
        a.push(Owned::random(&mut rng));
        b.push(Owned::random(&mut rng));
    }
    b.drain(false);
    a.check(true);
    b.check(true);
    assert_eq!(a.trace.recycled_events(), 0);
    assert_ne!(a.trace.digest(), b.trace.digest());
}

#[test]
fn a_record_is_33_bytes_whatever_the_message() {
    // The tag, `at`, `id`, two process ids and the aux word, packed: a
    // new field must widen this on purpose, not by accident.
    assert_eq!(std::mem::size_of::<Record>(), 33);
    assert_eq!(std::mem::size_of::<Column<[u64; 16]>>(), 48);
}
