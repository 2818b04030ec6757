//! One seeded schedule through every case the event queue and the
//! in-flight table once special-cased: a recovery seconds past every other
//! event, deliveries pushed at the current instant, a queued `Deliver`
//! whose message the adversary already delivered, nemesis duplicates and
//! drops, and the id order of each in-flight inspection call. The pinned
//! values were recorded at the parent of the commit that replaced the
//! calendar queue and the generation slab with `BinaryHeap` and `BTreeMap`.
//! The digest was repinned once since, when the trace fold moved from
//! each payload's `Debug` text to its `Payload` bytes; the schedule
//! values below it did not move.
//!
//! A second pin holds `run_chaotic`'s walk over `World::enabled` on two
//! seeds, recorded when that walk replaced the adversary's private timer
//! and due-step pools, so a later change to the choice order is deliberate.

use cbf_sim::{
    Actor, Ctx, FaultPlan, LatencyKind, LatencyModel, MsgId, Payload, ProcessId, RunOutcome,
    SimConfig, TraceEvent, World, MILLIS, SECONDS,
};

const SERVER: ProcessId = ProcessId(0);
const A: ProcessId = ProcessId(1);
const B: ProcessId = ProcessId(2);
const C: ProcessId = ProcessId(3);

#[derive(Clone, Debug)]
enum Msg {
    Ping(u32),
    Pong(u32),
    Tick,
}

impl Payload for Msg {
    fn payload(&self, out: &mut Vec<u8>) {
        match *self {
            Msg::Ping(x) => {
                out.push(0);
                x.payload(out);
            }
            Msg::Pong(x) => {
                out.push(1);
                x.payload(out);
            }
            Msg::Tick => out.push(2),
        }
    }
}

/// Clients forward injected pings to the server, which answers each one.
/// Every node runs two interleaved chains of identical ticks, so a crash
/// defers two equal timers to one recovery instant.
#[derive(Clone)]
struct Node {
    ticks: u32,
    pongs: u32,
}

impl Actor for Node {
    type Msg = Msg;
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        ctx.set_timer(300_000, Msg::Tick);
        ctx.set_timer(450_000, Msg::Tick);
    }
    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::Ping(x) if ctx.me() == SERVER => ctx.send(env.from, Msg::Pong(x)),
                Msg::Ping(x) => ctx.send(SERVER, Msg::Ping(x)),
                Msg::Pong(x) => self.pongs += x,
                Msg::Tick => {
                    self.ticks += 1;
                    if self.ticks < 16 {
                        ctx.set_timer(300_000, Msg::Tick);
                    }
                }
            }
        }
    }
}

fn ids(v: impl IntoIterator<Item = MsgId>) -> Vec<u64> {
    v.into_iter().map(|id| id.0).collect()
}

#[test]
fn special_cased_schedule_keeps_its_digest() {
    let plan = FaultPlan::new(23).with_dups(250).with_drops(60).with_crash(
        SERVER,
        2 * MILLIS,
        3 * SECONDS,
        false,
    );
    let mut w = World::new(
        vec![Node { ticks: 0, pongs: 0 }; 4],
        LatencyModel::new(
            LatencyKind::Uniform {
                lo: 10_000,
                hi: 90_000,
            },
            17,
        ),
        SimConfig {
            fault: Some(plan),
            ..SimConfig::default()
        },
    );

    // Pongs to A freeze on a held link while B and C round-trip.
    w.hold(SERVER, A);
    for i in 0..8 {
        w.inject([A, B, C][i as usize % 3], Msg::Ping(i));
    }
    assert_eq!(w.run_for(MILLIS), RunOutcome::Horizon);
    let frozen = ids(w.in_flight_on(SERVER, A));
    assert_eq!(frozen, [18, 19, 26, 30, 31]);

    // Manual sends: four pings leave B in one step, after A's frozen pongs
    // in id order.
    for i in 100..104 {
        w.inject_no_step(B, Msg::Ping(i));
    }
    w.step_now(B);
    let from_b = w.in_flight_on(B, SERVER);
    assert_eq!(ids(from_b.clone()), [58, 59, 60, 61]);
    let all = ids(w.in_flight().map(|(id, _)| id));
    assert_eq!(all, [frozen, ids(from_b.clone())].concat());

    // The adversary delivers the newest first: its queued Deliver is now
    // stale and must be skipped, not delivered twice.
    let newest = from_b[3];
    assert_eq!(w.peek(newest).map(|f| f.to), Some(SERVER));
    assert_eq!(w.deliver_now(newest), Some(SERVER));
    assert_eq!(w.deliver_now(newest), None);
    assert!(w.peek(newest).is_none());
    w.step_now(SERVER);

    // Release pushes the frozen deliveries at the current instant.
    w.release(SERVER, A);
    assert_eq!(w.run_for(MILLIS / 2), RunOutcome::Horizon);

    // Into the dark window: arrivals at the crashed server are dropped,
    // its ticks wait (coalesced) for the far-future recovery.
    for i in 200..206 {
        w.inject([A, B, C][i as usize % 3], Msg::Ping(i));
    }
    assert_eq!(w.run_for(2 * MILLIS), RunOutcome::Horizon);
    assert!(w.is_crashed(SERVER));
    assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
    assert!(!w.is_crashed(SERVER) && w.now() >= 3 * SECONDS);

    // After recovery: strand C's pings on a held link and drain them.
    w.hold(C, SERVER);
    for i in 300..303 {
        w.inject(C, Msg::Ping(i));
        w.inject(A, Msg::Ping(i));
    }
    assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
    assert_eq!(ids(w.in_flight_on(C, SERVER)), [140, 141, 142]);
    let drained = w.drain_undelivered().into_iter().map(|(id, _)| id);
    assert_eq!(ids(drained), [140, 141, 142]);
    assert_eq!(w.undelivered_count(), 0);
    w.release(C, SERVER);
    assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);

    let has = |f: fn(TraceEvent<Msg>) -> bool| w.trace.iter().any(f);
    assert!(has(|e| matches!(e, TraceEvent::Duplicate { .. })));
    assert!(has(|e| matches!(e, TraceEvent::Drop { .. })));
    assert!(w.stats().timers_coalesced > 0);
    assert_eq!([A, B, C].map(|p| w.actor(p).pongs), [1921, 1247, 215]);
    assert_eq!(w.stats().events, 154);
    assert_eq!(w.trace.digest(), 3289276254418055051);
}

#[test]
fn chaotic_schedules_keep_their_digests() {
    let run = |seed: u64| {
        let mut w = World::new(
            vec![Node { ticks: 0, pongs: 0 }; 4],
            LatencyModel::new(
                LatencyKind::Uniform {
                    lo: 10_000,
                    hi: 90_000,
                },
                17,
            ),
            SimConfig::default(),
        );
        // Pongs to A wait on a held link through the whole chaotic run.
        w.hold(SERVER, A);
        for i in 0..8 {
            w.inject([A, B, C][i as usize % 3], Msg::Ping(i));
        }
        assert_eq!(w.run_chaotic(seed, 100_000), RunOutcome::Quiescent);
        let held = w.undelivered_count();
        w.release(SERVER, A);
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        assert_eq!(w.undelivered_count(), 0);
        let pongs = [A, B, C].map(|p| w.actor(p).pongs);
        (held, pongs, w.stats().events, w.trace.digest())
    };
    assert_eq!(run(1), (3, [9, 12, 7], 92, 10997288549289798427));
    assert_eq!(run(2), (3, [9, 12, 7], 92, 7710478027483159516));
}
