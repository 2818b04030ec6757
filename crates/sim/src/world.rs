//! The simulated distributed system: processes, links, buffers, and the
//! event loop.
//!
//! A [`World`] is a *configuration* in the paper's sense — the full state of
//! every process plus every message in transit. Worlds are `Clone`, so the
//! proof's configuration-centric arguments ("consider configuration `C`…",
//! "value `x` is visible in `C` iff every legal continuation…") become
//! executable: fork the world and run the continuation.
//!
//! Four execution regimes are provided:
//!
//! * **automatic** ([`World::run_until_quiescent`] and friends): events in
//!   virtual-time order, latencies from the seeded [`LatencyModel`];
//! * **restricted** ([`World::run_restricted_until_within`]): only a chosen
//!   set of processes take steps — the paper's "*T executes solo*". With
//!   [`World::hold`], this is what the theorem machinery in `cbf-core` drives;
//! * **chosen** ([`World::enabled`], [`World::take`]): the adversary names
//!   every next action; [`World::run_chaotic`] is a seeded walk over them;
//! * **manual** ([`World::deliver_now`], [`World::step_now_at`],
//!   [`World::deliver_next_on`]): by hand, outside the queue — how
//!   `cbf-net` replays a recorded socket run.

use crate::actor::{Actor, Ctx, Envelope, Payload};
use crate::latency::LatencyModel;
use crate::trace::{Trace, TraceEvent};
use crate::types::{Link, MsgId, ProcessId, RunOutcome, ServiceStats, SimConfig, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global count of [`World::fork`] calls across all worlds, ever. The
/// theorem machinery's inner-loop currency; the repo benchmark reports
/// deltas of this counter as `core.forks_per_rep`.
static FORKS: AtomicU64 = AtomicU64::new(0);

/// Total [`World::fork`] calls taken by this process so far.
pub fn forks_taken() -> u64 {
    FORKS.load(Ordering::Relaxed)
}

/// A message in transit: sent, not yet placed in the destination's income
/// buffer.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub struct Flight<M> {
    pub from: ProcessId,
    pub to: ProcessId,
    pub msg: M,
    pub sent_at: Time,
}

#[derive(Clone, Debug)]
enum EvKind<M> {
    /// Move a message into the destination's income buffer, then step it.
    /// Stale (a miss in the in-flight table) once the adversary has
    /// delivered the message by hand.
    Deliver(MsgId),
    /// A timer set by `pid` fires, carrying `msg`.
    Timer(ProcessId, M),
    /// A step is due (after an injection or an explicit schedule).
    StepDue(ProcessId),
    /// A scheduled nemesis action (see [`FaultPlan`]).
    Fault(FaultEv),
}

/// A scheduled nemesis action. Partitions and crashes from a
/// [`FaultPlan`] are expanded into these at world construction, so they
/// ride the same deterministic event queue as everything else.
#[derive(Clone, Debug)]
enum FaultEv {
    PartitionStart {
        a: ProcessId,
        b: ProcessId,
    },
    PartitionHeal {
        a: ProcessId,
        b: ProcessId,
    },
    Crash {
        pid: ProcessId,
        lose_volatile: bool,
        recover_at: Time,
    },
    Recover {
        pid: ProcessId,
    },
}

/// One action the adversary may take next (see [`World::enabled`]). Timers
/// and due steps are named by their queue `seq`: unique, and kept by forks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Choice {
    /// Deliver this in-flight message and step its destination.
    Deliver(MsgId),
    /// Fire the queued timer with this sequence number.
    Timer(u64),
    /// Run the queued due step with this sequence number.
    Due(u64),
    /// Step this process, whose income buffer is non-empty.
    Step(ProcessId),
}

#[derive(Clone, Debug)]
struct QueuedEvent<M> {
    time: Time,
    seq: u64,
    kind: EvKind<M>,
}

impl<M> QueuedEvent<M> {
    /// The adversary's name for a queued timer or due step.
    fn choice(&self) -> Option<Choice> {
        match self.kind {
            EvKind::Timer(..) => Some(Choice::Timer(self.seq)),
            EvKind::StepDue(_) => Some(Choice::Due(self.seq)),
            EvKind::Deliver(_) | EvKind::Fault(_) => None,
        }
    }
}

// Min-heap ordering on (time, seq): BinaryHeap is a max-heap, so compare
// reversed. `seq` breaks ties deterministically in schedule order.
impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Per-process counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Messages sent by this process.
    pub sent: u64,
    /// Messages delivered to this process.
    pub delivered: u64,
    /// Computation steps taken.
    pub steps: u64,
}

/// World-level counters.
#[derive(Clone, Debug, Default)]
#[allow(missing_docs)] // fields are self-describing
pub struct WorldStats {
    pub events: u64,
    pub per_process: Vec<ProcStats>,
    /// Timer fires swallowed because an instance of the same message
    /// kind was already deferred to the same process's recovery instant
    /// (see the crash-deferral coalescing in the event loop).
    pub timers_coalesced: u64,
}

impl WorldStats {
    /// Total messages sent across all processes.
    pub fn total_sent(&self) -> u64 {
        self.per_process.iter().map(|p| p.sent).sum()
    }
    /// Total computation steps across all processes.
    pub fn total_steps(&self) -> u64 {
        self.per_process.iter().map(|p| p.steps).sum()
    }
}

/// A complete configuration of the simulated system. See module docs.
#[derive(Clone)]
pub struct World<A: Actor> {
    /// Actor state machines. `Option` so [`World::do_step`] can *move* the
    /// actor out for the duration of its step (a split borrow against the
    /// rest of the world) instead of cloning it — a per-step `clone()`
    /// is O(actor state) and dominates runs whose actors carry stores or
    /// commit logs. A slot is only ever `None` inside `do_step`.
    actors: Vec<Option<A>>,
    /// Display labels; immutable per run in practice, so forks share
    /// them through the `Arc` (copy-on-write via [`World::set_label`]).
    labels: Arc<Vec<String>>,
    inboxes: Vec<Vec<Envelope<A::Msg>>>,
    /// Messages in transit. Ids are minted in send order and never
    /// reused, so iteration is send order and a delivered message's id
    /// simply stops resolving.
    in_flight: BTreeMap<MsgId, Flight<A::Msg>>,
    /// Pending events, earliest `(time, seq)` on top.
    queue: BinaryHeap<QueuedEvent<A::Msg>>,
    /// Messages whose Deliver event fired while their link was held; they
    /// wait here until the link is released.
    frozen: BTreeMap<Link, Vec<MsgId>>,
    /// With [`SimConfig::fifo_links`]: the latest scheduled arrival per
    /// directed link, so later sends never overtake earlier ones.
    last_arrival: BTreeMap<Link, Time>,
    held: BTreeSet<Link>,
    /// Processes currently crashed, mapped to their recovery time.
    /// Deliveries to a crashed process are dropped; its timers and due
    /// steps are deferred to the recovery instant.
    crashed: BTreeMap<ProcessId, Time>,
    now: Time,
    next_msg: u64,
    next_seq: u64,
    latency: LatencyModel,
    /// Full event log (see [`Trace`]); public so harnesses can mark/inspect.
    pub trace: Trace<A::Msg>,
    config: SimConfig,
    stats: WorldStats,
    /// Recycled outbox/timer buffers for [`Ctx`]: cleared after every
    /// step and handed to the next one, so steps stop allocating.
    scratch_outbox: Vec<(ProcessId, A::Msg)>,
    scratch_timers: Vec<(Time, A::Msg)>,
    /// Timer kinds already deferred to a crashed process's recovery
    /// instant. Identical timer instances (periodic ticks, re-arms of
    /// the same retransmit) all land on the *same* recovery instant —
    /// without coalescing a long dark window grows the queue linearly
    /// with its length. One instance per (process, message value) is
    /// exact: at recovery the actor observes "the timer fired", re-arms,
    /// and proceeds; swallowed *identical* duplicates carried no other
    /// information, while timers that differ in any payload field (a
    /// per-request retry id, say) are all kept. The kind key is the
    /// message's [`Payload`] bytes — `A::Msg` promises no `Eq`/`Ord`,
    /// and its payload is injective and deterministic. Entries clear at
    /// recovery; linear scan on purpose (the set is small and a hash
    /// map would break the sim's determinism rules).
    deferred_timer_kinds: Vec<(ProcessId, Vec<u8>)>,
    /// Same guard for `StepDue` events: all due steps deferred by one
    /// dark window collapse into a single step at recovery (a step
    /// drains the whole income buffer, so one is exact too).
    deferred_steps: Vec<ProcessId>,
    /// With [`SimConfig::service`]: per-server time at which the server
    /// next becomes free. Indexed by `ProcessId`; entries past
    /// `service.servers` are unused. Empty when no model is configured.
    service_free: Vec<Time>,
    service_stats: ServiceStats,
}

impl<A: Actor> World<A> {
    /// Build a world from the given actors (process ids are assigned in
    /// order: actor `i` is `ProcessId(i)`) and run every actor's
    /// [`Actor::on_start`].
    pub fn new(actors: Vec<A>, latency: LatencyModel, config: SimConfig) -> Self {
        let n = actors.len();
        let mut w = World {
            actors: actors.into_iter().map(Some).collect(),
            labels: Arc::new((0..n).map(|i| format!("P{i}")).collect()),
            inboxes: vec![Vec::new(); n],
            in_flight: BTreeMap::new(),
            queue: BinaryHeap::new(),
            frozen: BTreeMap::new(),
            last_arrival: BTreeMap::new(),
            held: BTreeSet::new(),
            crashed: BTreeMap::new(),
            now: 0,
            next_msg: 0,
            next_seq: 0,
            latency,
            trace: Trace::new(config.record_trace),
            config,
            stats: WorldStats {
                events: 0,
                per_process: vec![ProcStats::default(); n],
                ..WorldStats::default()
            },
            deferred_timer_kinds: Vec::new(),
            deferred_steps: Vec::new(),
            scratch_outbox: Vec::new(),
            scratch_timers: Vec::new(),
            service_free: Vec::new(),
            service_stats: ServiceStats::default(),
        };
        if let Some(sm) = w.config.service {
            assert!(sm.service_time > 0, "service_time must be positive");
            w.service_free = vec![0; (sm.servers as usize).min(n)];
        }
        // Expand the fault plan's scheduled events into the queue before
        // anything runs, so they interleave deterministically with
        // protocol traffic. (Seq order makes a Recover at time T process
        // before any Timer re-deferred to T.)
        if let Some(plan) = w.config.fault.clone() {
            for p in plan.partitions() {
                w.push_event(
                    p.from,
                    EvKind::Fault(FaultEv::PartitionStart { a: p.a, b: p.b }),
                );
                w.push_event(
                    p.until,
                    EvKind::Fault(FaultEv::PartitionHeal { a: p.a, b: p.b }),
                );
            }
            for c in plan.crashes() {
                w.push_event(
                    c.at,
                    EvKind::Fault(FaultEv::Crash {
                        pid: c.pid,
                        lose_volatile: c.lose_volatile,
                        recover_at: c.recover_at,
                    }),
                );
                w.push_event(c.recover_at, EvKind::Fault(FaultEv::Recover { pid: c.pid }));
            }
        }
        for i in 0..n {
            let pid = ProcessId(i as u32);
            let mut ctx = Ctx::new(pid, 0, Vec::new());
            w.actors[i]
                .as_mut()
                .expect("actors are all home before the first step")
                .on_start(&mut ctx);
            w.flush_ctx(pid, ctx);
        }
        w
    }

    /// A convenience constructor with default latency and config.
    pub fn with_defaults(actors: Vec<A>) -> Self {
        Self::new(
            actors,
            LatencyModel::constant_default(),
            SimConfig::default(),
        )
    }

    /// Attach a display label to a process (used by trace rendering).
    /// Copy-on-write: if any fork shares the label table, it is copied
    /// here so the fork keeps its old labels.
    pub fn set_label(&mut self, pid: ProcessId, label: impl Into<String>) {
        Arc::make_mut(&mut self.labels)[pid.index()] = label.into();
    }

    /// The display label of a process.
    pub fn label(&self, pid: ProcessId) -> &str {
        &self.labels[pid.index()]
    }

    /// Render the full trace with process labels.
    pub fn render_trace(&self) -> String {
        let labels = self.labels.clone();
        self.trace
            .render(&move |p: ProcessId| labels[p.index()].clone())
    }

    /// Render the full trace as a space-time lane diagram with process
    /// labels (see [`Trace::render_lanes`]).
    pub fn render_lanes(&self) -> String {
        self.render_lanes_range(0, usize::MAX)
    }

    /// Render a slice of the trace (`[from, from + limit)`) as a lane
    /// diagram.
    pub fn render_lanes_range(&self, from: usize, limit: usize) -> String {
        let labels = self.labels.clone();
        self.trace
            .render_lanes_range(from, limit, self.actors.len(), &move |p: ProcessId| {
                labels[p.index()].clone()
            })
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of processes.
    #[inline]
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// True if the world hosts no processes.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Immutable access to a process's state machine.
    #[inline]
    pub fn actor(&self, pid: ProcessId) -> &A {
        self.actors[pid.index()]
            .as_ref()
            .expect("actor is mid-step; World::actor is not reentrant")
    }

    /// Mutable access to a process's state machine. Intended for harness
    /// facades that poll client actors for transaction responses; mutating
    /// protocol state directly from a test invalidates the experiment.
    #[inline]
    pub fn actor_mut(&mut self, pid: ProcessId) -> &mut A {
        self.actors[pid.index()]
            .as_mut()
            .expect("actor is mid-step; World::actor_mut is not reentrant")
    }

    /// Counters.
    pub fn stats(&self) -> &WorldStats {
        &self.stats
    }

    /// Service-queue counters (all zeros unless [`SimConfig::service`]
    /// is set).
    pub fn service_stats(&self) -> ServiceStats {
        self.service_stats
    }

    // ------------------------------------------------------------------
    // Internal mechanics
    // ------------------------------------------------------------------

    fn fresh_msg_id(&mut self) -> MsgId {
        let id = MsgId(self.next_msg);
        self.next_msg += 1;
        id
    }

    fn push_event(&mut self, time: Time, kind: EvKind<A::Msg>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(QueuedEvent { time, seq, kind });
    }

    /// Apply a completed step's outputs: enqueue sends and timers.
    fn flush_ctx(&mut self, pid: ProcessId, ctx: Ctx<A::Msg>) {
        if self.config.strict_steps {
            let mut seen = BTreeSet::new();
            for (to, _) in &ctx.outbox {
                assert!(
                    seen.insert(*to),
                    "strict step semantics: {pid:?} sent two messages to {to:?} in one step"
                );
            }
        }
        let Ctx {
            mut outbox,
            mut timers,
            ..
        } = ctx;
        for (to, msg) in outbox.drain(..) {
            self.send_from(pid, to, msg);
        }
        for (delay, msg) in timers.drain(..) {
            let at = self.now + delay;
            self.push_event(at, EvKind::Timer(pid, msg));
        }
        // Hand the (now empty) buffers back for the next step.
        self.scratch_outbox = outbox;
        self.scratch_timers = timers;
    }

    /// Sample a latency, insert the flight, and queue its delivery.
    fn schedule_arrival(&mut self, id: MsgId, from: ProcessId, to: ProcessId, msg: A::Msg) {
        let delay = self.latency.sample(from, to);
        let mut arrival = self.now + delay;
        if self.config.fifo_links {
            // FIFO links: a later send never overtakes an earlier one.
            let link = Link::new(from, to);
            let floor = self.last_arrival.get(&link).copied().unwrap_or(0);
            arrival = arrival.max(floor.saturating_add(1));
            self.last_arrival.insert(link, arrival);
        }
        // Service model: a message delivered to a server occupies it for
        // `service_time`, and queues behind whatever is already booked.
        // Deliveries are re-timed to service *completion*, so queueing
        // delay shows up in end-to-end latency. Note this books service
        // in *send* order (the sim is single-threaded and deterministic);
        // with heterogeneous network delays a message can book ahead of
        // one that would arrive earlier — an acceptable approximation
        // for the constant-latency deployments that use the model. Each
        // directed link's deliveries stay in order because completion
        // times per server are monotone.
        if let Some(sm) = self.config.service {
            if (to.0 as usize) < self.service_free.len() && sm.service_time > 0 {
                let free = &mut self.service_free[to.index()];
                let start = arrival.max(*free);
                let wait = start - arrival;
                self.service_stats.served += 1;
                if wait > 0 {
                    self.service_stats.delayed += 1;
                    self.service_stats.max_wait = self.service_stats.max_wait.max(wait);
                }
                arrival = start + sm.service_time;
                *free = arrival;
            }
        }
        self.in_flight.insert(
            id,
            Flight {
                from,
                to,
                msg,
                sent_at: self.now,
            },
        );
        self.push_event(arrival, EvKind::Deliver(id));
    }

    fn send_from(&mut self, from: ProcessId, to: ProcessId, msg: A::Msg) {
        let id = self.fresh_msg_id();
        self.trace.push(TraceEvent::Send {
            at: self.now,
            id,
            from,
            to,
            msg: &msg,
        });
        self.stats.per_process[from.index()].sent += 1;
        // Nemesis: one fate roll per send, drawn from the plan's own
        // seeded RNG so the whole schedule replays from the seed.
        let fate = self.config.fault.as_mut().map(|p| p.roll_send());
        if fate.is_some_and(|f| f.drop) {
            // Lost in the network: the Send is on record, but no flight
            // and no Deliver event exist.
            self.trace.push(TraceEvent::Drop {
                at: self.now,
                id,
                from,
                to,
            });
            return;
        }
        if fate.is_some_and(|f| f.duplicate) {
            let dup_id = self.fresh_msg_id();
            self.trace.push(TraceEvent::Duplicate {
                at: self.now,
                id: dup_id,
                of: id,
                from,
                to,
            });
            self.schedule_arrival(dup_id, from, to, msg.clone());
        }
        self.schedule_arrival(id, from, to, msg);
    }

    /// Move an in-flight message into its destination's income buffer.
    /// Returns the destination, or `None` if the message was already
    /// delivered.
    fn do_deliver(&mut self, id: MsgId) -> Option<ProcessId> {
        let flight = self.in_flight.remove(&id)?;
        self.trace.push(TraceEvent::Deliver {
            at: self.now,
            id,
            from: flight.from,
            to: flight.to,
        });
        self.stats.per_process[flight.to.index()].delivered += 1;
        self.inboxes[flight.to.index()].push(Envelope {
            from: flight.from,
            id,
            msg: flight.msg,
        });
        Some(flight.to)
    }

    fn do_step(&mut self, pid: ProcessId) {
        let inbox = std::mem::take(&mut self.inboxes[pid.index()]);
        let mut ctx = Ctx::recycled(
            pid,
            self.now,
            inbox,
            std::mem::take(&mut self.scratch_outbox),
            std::mem::take(&mut self.scratch_timers),
        );
        self.trace.push(TraceEvent::Step { at: self.now, pid });
        self.stats.per_process[pid.index()].steps += 1;
        // Split-borrow: *move* the actor out so `self` stays usable.
        // Taking (not cloning) keeps a step O(work done), independent of
        // how much state the actor carries; the slot is restored below,
        // so it is `None` only while `step` runs (a panicking step leaves
        // it empty, but the panic unwinds the whole run with it).
        let mut actor = self.actors[pid.index()]
            .take()
            .expect("actor is mid-step; steps do not nest");
        actor.step(&mut ctx);
        self.actors[pid.index()] = Some(actor);
        self.flush_ctx(pid, ctx);
    }

    /// Execute one scheduled nemesis action.
    fn apply_fault(&mut self, f: FaultEv) {
        match f {
            FaultEv::PartitionStart { a, b } => {
                self.trace.push(TraceEvent::Partition {
                    at: self.now,
                    a,
                    b,
                    healed: false,
                });
                self.hold_pair(a, b);
            }
            FaultEv::PartitionHeal { a, b } => {
                self.trace.push(TraceEvent::Partition {
                    at: self.now,
                    a,
                    b,
                    healed: true,
                });
                self.release_pair(a, b);
            }
            FaultEv::Crash {
                pid,
                lose_volatile,
                recover_at,
            } => {
                self.trace.push(TraceEvent::Crash { at: self.now, pid });
                self.crashed.insert(pid, recover_at);
                // Undelivered mail in the income buffer dies with the
                // process; in-flight messages die on arrival instead.
                self.inboxes[pid.index()].clear();
                if lose_volatile {
                    self.actors[pid.index()]
                        .as_mut()
                        .expect("actor is mid-step during a crash fault")
                        .on_crash();
                }
            }
            FaultEv::Recover { pid } => {
                self.trace.push(TraceEvent::Recover { at: self.now, pid });
                self.crashed.remove(&pid);
                // The deferred-event guards only cover the dark window;
                // the surviving instances fire right after this (same
                // instant, larger seq) and future crashes start fresh.
                self.deferred_timer_kinds.retain(|(p, _)| *p != pid);
                self.deferred_steps.retain(|&p| p != pid);
            }
        }
    }

    /// Whether `pid` is currently crashed by the nemesis.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.crashed.contains_key(&pid)
    }

    // ------------------------------------------------------------------
    // Manual (adversarial) control
    // ------------------------------------------------------------------

    /// All messages currently in transit, in send order.
    pub fn in_flight(&self) -> impl Iterator<Item = (MsgId, &Flight<A::Msg>)> {
        self.in_flight.iter().map(|(id, f)| (*id, f))
    }

    /// Number of messages sent but neither delivered nor dropped. A
    /// fault-free run that ends [`RunOutcome::Quiescent`] always leaves
    /// this at zero; a nonzero count after quiescence means messages are
    /// frozen on held links (or were stranded by the nemesis).
    pub fn undelivered_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Drain every undelivered in-flight message, returning them in
    /// message-id (send) order. Clears frozen-link bookkeeping and any
    /// queued delivery events for them (they become stale). Inspection
    /// API for post-mortems: "what was still in the network when the
    /// run ended?"
    pub fn drain_undelivered(&mut self) -> Vec<(MsgId, Flight<A::Msg>)> {
        self.frozen.clear();
        std::mem::take(&mut self.in_flight).into_iter().collect()
    }

    /// In-transit messages on the directed link `src → dst`.
    pub fn in_flight_on(&self, src: ProcessId, dst: ProcessId) -> Vec<MsgId> {
        self.on_link(src, dst).collect()
    }

    /// Number of messages in flight on `src → dst` — the length of
    /// [`World::in_flight_on`], counted without collecting.
    pub fn in_flight_count_on(&self, src: ProcessId, dst: ProcessId) -> usize {
        self.on_link(src, dst).count()
    }

    /// The in-flight messages on `src → dst`, MsgId-ascending.
    fn on_link(&self, src: ProcessId, dst: ProcessId) -> impl Iterator<Item = MsgId> + '_ {
        self.in_flight
            .iter()
            .filter(move |(_, f)| f.from == src && f.to == dst)
            .map(|(id, _)| *id)
    }

    /// Inspect one in-flight message.
    pub fn peek(&self, id: MsgId) -> Option<&Flight<A::Msg>> {
        self.in_flight.get(&id)
    }

    /// Adversary: deliver a specific in-flight message *now*, ignoring its
    /// sampled latency and any link hold. Does **not** step the
    /// destination — pair with [`World::step_now`]. Returns the
    /// destination process.
    pub fn deliver_now(&mut self, id: MsgId) -> Option<ProcessId> {
        self.do_deliver(id)
    }

    /// Adversary: make `pid` take one computation step now.
    pub fn step_now(&mut self, pid: ProcessId) {
        self.do_step(pid);
    }

    /// Replay: make `pid` take one computation step with the virtual
    /// clock set to exactly `at`. This is the entry point for replaying
    /// a recorded real-socket run (cbf-net), where each step carries the
    /// wall-clock instant it happened at and the merged order can
    /// interleave per-process clocks non-monotonically — hence an exact
    /// assignment, not a `max`. Outside replay prefer [`World::step_now`],
    /// which preserves the usual monotone virtual time.
    pub fn step_now_at(&mut self, pid: ProcessId, at: Time) {
        self.now = at;
        self.do_step(pid);
    }

    /// Replay: deliver the *oldest* in-flight message on the directed
    /// link `src → dst` (send order — per-link FIFO, exactly a TCP
    /// connection's order), without stepping the destination. Returns
    /// the delivered message's id, or `None` if the link is empty —
    /// which during replay means the recorded order references a message
    /// the replayed actors never sent (a divergence).
    pub fn deliver_next_on(&mut self, src: ProcessId, dst: ProcessId) -> Option<MsgId> {
        // The link's messages come MsgId-ascending; ids are minted in
        // send order, so the head is the oldest undelivered message.
        let id = self.on_link(src, dst).next()?;
        self.do_deliver(id)?;
        Some(id)
    }

    /// Freeze the directed link `src → dst`: messages on it stay in
    /// transit until [`World::release`] (automatic scheduler only; the
    /// adversary's [`World::deliver_now`] overrides holds).
    pub fn hold(&mut self, src: ProcessId, dst: ProcessId) {
        self.held.insert(Link::new(src, dst));
    }

    /// Freeze both directions between `a` and `b`.
    pub fn hold_pair(&mut self, a: ProcessId, b: ProcessId) {
        self.hold(a, b);
        self.hold(b, a);
    }

    /// Un-freeze `src → dst` and schedule delivery of everything frozen on
    /// it.
    pub fn release(&mut self, src: ProcessId, dst: ProcessId) {
        let link = Link::new(src, dst);
        self.held.remove(&link);
        if let Some(ids) = self.frozen.remove(&link) {
            for id in ids {
                self.push_event(self.now, EvKind::Deliver(id));
            }
        }
    }

    /// Un-freeze both directions between `a` and `b`.
    pub fn release_pair(&mut self, a: ProcessId, b: ProcessId) {
        self.release(a, b);
        self.release(b, a);
    }

    /// Inject an external request (a transaction invocation from the
    /// application) into `pid`'s income buffer and schedule a step. The
    /// paper models invocations as external inputs to the client's state
    /// machine; this is that input.
    pub fn inject(&mut self, pid: ProcessId, msg: A::Msg) {
        self.inject_no_step(pid, msg);
        self.kick(pid);
    }

    /// Schedule a computation step for `pid` at the current virtual time.
    /// Pairs with [`World::inject_no_step`] for batched driving: inject a
    /// whole batch without steps, then kick each target once — the step
    /// drains the full income buffer, so the run processes the same
    /// messages with O(processes) scheduler events instead of O(batch).
    pub fn kick(&mut self, pid: ProcessId) {
        self.push_event(self.now, EvKind::StepDue(pid));
    }

    /// Like [`World::inject`] but without scheduling a step — the
    /// adversary decides when the process runs (see [`World::kick`]).
    pub fn inject_no_step(&mut self, pid: ProcessId, msg: A::Msg) {
        if self.config.trace_injects {
            self.trace.push(TraceEvent::Inject {
                at: self.now,
                pid,
                msg: &msg,
            });
        }
        let id = self.fresh_msg_id();
        self.inboxes[pid.index()].push(Envelope { from: pid, id, msg });
    }

    /// Fork this configuration. The fork is observationally independent
    /// of the original — both replay deterministically and never see
    /// each other's subsequent events — while immutable state (labels,
    /// sealed trace history) is structurally shared, so fork cost is
    /// proportional to *live* state, not to execution history.
    pub fn fork(&self) -> Self
    where
        A: Clone,
    {
        FORKS.fetch_add(1, Ordering::Relaxed);
        self.clone()
    }

    // ------------------------------------------------------------------
    // Automatic scheduling
    // ------------------------------------------------------------------

    fn allowed(set: Option<&BTreeSet<ProcessId>>, pid: ProcessId) -> bool {
        set.is_none_or(|s| s.contains(&pid))
    }

    fn run_core(
        &mut self,
        restrict: Option<&BTreeSet<ProcessId>>,
        horizon: Option<Time>,
        mut pred: Option<&mut dyn FnMut(&Self) -> bool>,
    ) -> RunOutcome {
        let mut deferred: Vec<QueuedEvent<A::Msg>> = Vec::new();
        let mut processed: u64 = 0;
        let outcome = loop {
            if let Some(p) = pred.as_mut() {
                if p(self) {
                    break RunOutcome::Predicate;
                }
            }
            if processed >= self.config.max_events {
                break RunOutcome::EventLimit;
            }
            let ev = match self.queue.pop() {
                Some(ev) => ev,
                None => break RunOutcome::Quiescent,
            };
            if let Some(h) = horizon {
                if ev.time > h {
                    self.queue.push(ev);
                    self.now = self.now.max(h);
                    break RunOutcome::Horizon;
                }
            }
            processed += 1;
            self.stats.events += 1;
            match ev.kind {
                EvKind::Deliver(id) => {
                    let Some(flight) = self.in_flight.get(&id) else {
                        continue; // stale: adversary already delivered it
                    };
                    let link = Link::new(flight.from, flight.to);
                    if self.held.contains(&link) {
                        self.frozen.entry(link).or_default().push(id);
                        continue;
                    }
                    if self.crashed.contains_key(&flight.to) {
                        // Arrived at a dark process: lost.
                        self.now = self.now.max(ev.time);
                        let (from, to) = (flight.from, flight.to);
                        self.in_flight.remove(&id);
                        self.trace.push(TraceEvent::Drop {
                            at: self.now,
                            id,
                            from,
                            to,
                        });
                        continue;
                    }
                    if !Self::allowed(restrict, flight.from) || !Self::allowed(restrict, flight.to)
                    {
                        deferred.push(ev);
                        continue;
                    }
                    self.now = self.now.max(ev.time);
                    if let Some(dst) = self.do_deliver(id) {
                        self.do_step(dst);
                    }
                }
                EvKind::Timer(pid, msg) => {
                    if let Some(&recover_at) = self.crashed.get(&pid) {
                        // A dark process keeps its timers; they fire at
                        // recovery. (Recover at the same instant has a
                        // smaller seq, so it is processed first.) Fires
                        // coalesce per (process, message value): all the
                        // deferred instances land on the same recovery
                        // instant, so keeping one of each identical
                        // message is exact and keeps a long dark window
                        // from growing the queue linearly.
                        let mut kind = Vec::new();
                        msg.payload(&mut kind);
                        if self
                            .deferred_timer_kinds
                            .iter()
                            .any(|(p, k)| *p == pid && *k == kind)
                        {
                            self.stats.timers_coalesced += 1;
                            continue;
                        }
                        self.deferred_timer_kinds.push((pid, kind));
                        self.push_event(recover_at.max(ev.time), EvKind::Timer(pid, msg));
                        continue;
                    }
                    if !Self::allowed(restrict, pid) {
                        deferred.push(QueuedEvent {
                            time: ev.time,
                            seq: ev.seq,
                            kind: EvKind::Timer(pid, msg),
                        });
                        continue;
                    }
                    self.now = self.now.max(ev.time);
                    self.trace.push(TraceEvent::TimerFire { at: self.now, pid });
                    let id = self.fresh_msg_id();
                    self.inboxes[pid.index()].push(Envelope { from: pid, id, msg });
                    self.do_step(pid);
                }
                EvKind::StepDue(pid) => {
                    if let Some(&recover_at) = self.crashed.get(&pid) {
                        // Same coalescing as timers: one due step at
                        // recovery drains everything the others would.
                        if self.deferred_steps.contains(&pid) {
                            self.stats.timers_coalesced += 1;
                            continue;
                        }
                        self.deferred_steps.push(pid);
                        self.push_event(recover_at.max(ev.time), EvKind::StepDue(pid));
                        continue;
                    }
                    if !Self::allowed(restrict, pid) {
                        deferred.push(ev);
                        continue;
                    }
                    self.now = self.now.max(ev.time);
                    self.do_step(pid);
                }
                EvKind::Fault(f) => {
                    // Nemesis actions are not process steps: they ignore
                    // `restrict` and fire exactly on schedule.
                    self.now = self.now.max(ev.time);
                    self.apply_fault(f);
                }
            }
        };
        // Deferred events go back into the queue: a restricted run is an
        // adversarial *delay* of everyone else, not a drop.
        for ev in deferred {
            self.queue.push(ev);
        }
        outcome
    }

    /// Process events in virtual-time order until nothing is pending.
    /// Protocols with periodic timers never quiesce — use
    /// [`World::run_for`] or [`World::run_until`] for those.
    pub fn run_until_quiescent(&mut self) -> RunOutcome {
        self.run_core(None, None, None)
    }

    /// Run for `dt` of virtual time.
    pub fn run_for(&mut self, dt: Time) -> RunOutcome {
        let h = self.now + dt;
        self.run_core(None, Some(h), None)
    }

    /// Run until `pred` holds (checked before every event), the system
    /// quiesces, or the event cap is hit.
    pub fn run_until(&mut self, mut pred: impl FnMut(&Self) -> bool) -> RunOutcome {
        self.run_core(None, None, Some(&mut pred))
    }

    /// Run until `pred` holds, with a virtual-time horizon.
    pub fn run_until_within(
        &mut self,
        dt: Time,
        mut pred: impl FnMut(&Self) -> bool,
    ) -> RunOutcome {
        let h = self.now + dt;
        self.run_core(None, Some(h), Some(&mut pred))
    }

    /// "Solo" execution: only `allowed` processes take steps and exchange
    /// messages; everything else is adversarially delayed. Runs until
    /// quiescent-among-allowed or the cap.
    pub fn run_restricted(&mut self, allowed: &[ProcessId]) -> RunOutcome {
        let set: BTreeSet<ProcessId> = allowed.iter().copied().collect();
        self.run_core(Some(&set), None, None)
    }

    /// Restricted run with a predicate and a virtual-time horizon.
    pub fn run_restricted_until_within(
        &mut self,
        allowed: &[ProcessId],
        dt: Time,
        mut pred: impl FnMut(&Self) -> bool,
    ) -> RunOutcome {
        let set: BTreeSet<ProcessId> = allowed.iter().copied().collect();
        let h = self.now + dt;
        self.run_core(Some(&set), Some(h), Some(&mut pred))
    }

    // ------------------------------------------------------------------
    // Chosen scheduling: the adversary names each action
    // ------------------------------------------------------------------

    /// The actions the adversary may take next, into `out` (cleared first):
    /// in-flight messages by id (held links excluded), queued timers, then
    /// due steps, by `seq`, then processes with mail, by id.
    pub fn enabled(&self, out: &mut Vec<Choice>) {
        out.clear();
        let free = self.in_flight.iter().filter(|(_, f)| !self.on_held(f));
        out.extend(free.map(|(id, _)| Choice::Deliver(*id)));
        let queued = out.len();
        out.extend(self.queue.iter().filter_map(QueuedEvent::choice));
        out[queued..].sort_unstable();
        for (i, inbox) in self.inboxes.iter().enumerate() {
            if !inbox.is_empty() {
                out.push(Choice::Step(ProcessId(i as u32)));
            }
        }
    }

    /// Take one action listed by [`World::enabled`]: advance the clock one
    /// past now or the event's due time, then step the receiver (after a
    /// [`TraceEvent::TimerFire`] for a timer). The event leaves the queue (a
    /// delivered message's `Deliver` too); one not enabled is a `false` no-op.
    pub fn take(&mut self, choice: Choice) -> bool {
        let (pid, timer) = match choice {
            Choice::Deliver(id) => {
                if self.in_flight.get(&id).is_none_or(|f| self.on_held(f)) {
                    return false;
                }
                self.queue
                    .retain(|e| !matches!(e.kind, EvKind::Deliver(d) if d == id));
                self.now += 1;
                (self.do_deliver(id).expect("checked in flight"), None)
            }
            Choice::Timer(_) | Choice::Due(_) => {
                let Some(ev) = self.unqueue(choice) else {
                    return false;
                };
                self.now = self.now.max(ev.time) + 1;
                match ev.kind {
                    EvKind::Timer(pid, msg) => (pid, Some(msg)),
                    EvKind::StepDue(pid) => (pid, None),
                    EvKind::Deliver(_) | EvKind::Fault(_) => unreachable!("not a timed choice"),
                }
            }
            Choice::Step(pid) => {
                if self.inboxes.get(pid.index()).is_none_or(Vec::is_empty) {
                    return false;
                }
                self.now += 1;
                (pid, None)
            }
        };
        if let Some(msg) = timer {
            self.trace.push(TraceEvent::TimerFire { at: self.now, pid });
            let id = self.fresh_msg_id();
            self.inboxes[pid.index()].push(Envelope { from: pid, id, msg });
        }
        self.do_step(pid);
        self.stats.events += 1;
        true
    }

    fn on_held(&self, f: &Flight<A::Msg>) -> bool {
        self.held.contains(&Link::new(f.from, f.to))
    }

    /// Remove the queued event that `choice` names, if there is one.
    fn unqueue(&mut self, choice: Choice) -> Option<QueuedEvent<A::Msg>> {
        let i = self.queue.iter().position(|e| e.choice() == Some(choice))?;
        let mut evs = std::mem::take(&mut self.queue).into_vec();
        let ev = evs.swap_remove(i);
        self.queue = evs.into();
        Some(ev)
    }

    /// Run under a random adversary: up to `max_actions` times, take one of
    /// [`World::enabled`]'s actions uniformly, deterministically in `seed`.
    /// Explores schedules the latency model would never produce.
    pub fn run_chaotic(&mut self, seed: u64, max_actions: u64) -> RunOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut choices = Vec::new();
        for _ in 0..max_actions {
            self.enabled(&mut choices);
            if choices.is_empty() {
                return RunOutcome::Quiescent; // up to held links
            }
            self.take(choices[rng.gen_range(0..choices.len())]);
        }
        RunOutcome::EventLimit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{LatencyKind, LatencyModel};

    /// A tiny request/response protocol: clients ping, servers pong.
    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    impl Payload for Msg {
        fn payload(&self, out: &mut Vec<u8>) {
            let (tag, x) = match *self {
                Msg::Ping(x) => (0, x),
                Msg::Pong(x) => (1, x),
            };
            out.push(tag);
            x.payload(out);
        }
    }

    #[derive(Clone)]
    enum Node {
        Server { count: u32 },
        Client { server: ProcessId, got: Vec<u32> },
    }

    impl Actor for Node {
        type Msg = Msg;
        fn step(&mut self, ctx: &mut Ctx<Msg>) {
            for env in ctx.recv() {
                match (&mut *self, env.msg) {
                    (Node::Server { count }, Msg::Ping(x)) => {
                        *count += 1;
                        ctx.send(env.from, Msg::Pong(x * 2));
                    }
                    (Node::Client { got, .. }, Msg::Pong(x)) => got.push(x),
                    (Node::Client { server, .. }, Msg::Ping(x)) => {
                        // Injected request: forward to the server.
                        let s = *server;
                        ctx.send(s, Msg::Ping(x));
                    }
                    _ => {}
                }
            }
        }
    }

    fn two_node_world() -> World<Node> {
        World::with_defaults(vec![
            Node::Server { count: 0 },
            Node::Client {
                server: ProcessId(0),
                got: vec![],
            },
        ])
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut w = two_node_world();
        w.inject(ProcessId(1), Msg::Ping(21));
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert_eq!(got, &vec![42]),
            _ => unreachable!(),
        }
        // Two messages crossed the network: ping + pong.
        assert_eq!(w.stats().total_sent(), 2);
        // Virtual time advanced by one round trip (2 × 50 µs).
        assert_eq!(w.now(), 100 * crate::types::MICROS);
        // A fault-free quiescent run leaves nothing in the network.
        assert_eq!(w.undelivered_count(), 0);
        assert!(w.drain_undelivered().is_empty());
    }

    #[test]
    fn held_link_freezes_delivery_until_release() {
        let mut w = two_node_world();
        w.hold(ProcessId(0), ProcessId(1)); // freeze pongs
        w.inject(ProcessId(1), Msg::Ping(1));
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert!(got.is_empty()),
            _ => unreachable!(),
        }
        // The pong is frozen in transit: visible via the inspection API.
        assert_eq!(w.in_flight_on(ProcessId(0), ProcessId(1)).len(), 1);
        assert_eq!(w.undelivered_count(), 1);
        w.release(ProcessId(0), ProcessId(1));
        w.run_until_quiescent();
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert_eq!(got, &vec![2]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn manual_delivery_bypasses_latency_and_holds() {
        let mut w = two_node_world();
        w.hold_pair(ProcessId(0), ProcessId(1));
        w.inject_no_step(ProcessId(1), Msg::Ping(3));
        w.step_now(ProcessId(1)); // client sends ping (held link)
        let ids = w.in_flight_on(ProcessId(1), ProcessId(0));
        assert_eq!(ids.len(), 1);
        let dst = w.deliver_now(ids[0]).unwrap();
        assert_eq!(dst, ProcessId(0));
        w.step_now(ProcessId(0)); // server processes ping, sends pong
        let pongs = w.in_flight_on(ProcessId(0), ProcessId(1));
        assert_eq!(pongs.len(), 1);
        w.deliver_now(pongs[0]);
        w.step_now(ProcessId(1));
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert_eq!(got, &vec![6]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn step_now_at_pins_the_clock_even_backwards() {
        let mut w = two_node_world();
        w.inject_no_step(ProcessId(1), Msg::Ping(1));
        w.step_now_at(ProcessId(1), 900);
        assert_eq!(w.now(), 900);
        // Replay merges per-process wall clocks, which need not be
        // monotone across processes: an earlier instant must stick.
        w.deliver_next_on(ProcessId(1), ProcessId(0)).unwrap();
        w.step_now_at(ProcessId(0), 350);
        assert_eq!(w.now(), 350);
        w.deliver_next_on(ProcessId(0), ProcessId(1)).unwrap();
        w.step_now_at(ProcessId(1), 1100);
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert_eq!(got, &vec![2]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn deliver_next_on_is_per_link_fifo() {
        let mut w = two_node_world();
        w.inject_no_step(ProcessId(1), Msg::Ping(1));
        w.inject_no_step(ProcessId(1), Msg::Ping(2));
        w.step_now(ProcessId(1)); // both pings depart in one step
        assert_eq!(w.in_flight_on(ProcessId(1), ProcessId(0)).len(), 2);
        let first = w.deliver_next_on(ProcessId(1), ProcessId(0)).unwrap();
        let second = w.deliver_next_on(ProcessId(1), ProcessId(0)).unwrap();
        assert!(first < second, "send order: {first:?} then {second:?}");
        // Empty link: a recorded delivery with no matching send is None,
        // never a panic — replay reports it as divergence.
        assert_eq!(w.deliver_next_on(ProcessId(1), ProcessId(0)), None);
        w.step_now(ProcessId(0));
        match w.actor(ProcessId(0)) {
            Node::Server { count } => assert_eq!(*count, 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn stale_deliver_events_are_skipped() {
        let mut w = two_node_world();
        w.inject_no_step(ProcessId(1), Msg::Ping(3));
        w.step_now(ProcessId(1));
        let ids = w.in_flight_on(ProcessId(1), ProcessId(0));
        // Adversary delivers manually; the queued Deliver event is stale.
        w.deliver_now(ids[0]);
        w.step_now(ProcessId(0));
        // Auto-run must not double-deliver.
        w.run_until_quiescent();
        match w.actor(ProcessId(0)) {
            Node::Server { count } => assert_eq!(*count, 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn fork_is_independent() {
        let mut w = two_node_world();
        w.inject(ProcessId(1), Msg::Ping(1));
        let mut f = w.fork();
        w.run_until_quiescent();
        // The fork still has everything pending.
        match f.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert!(got.is_empty()),
            _ => unreachable!(),
        }
        f.run_until_quiescent();
        match f.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert_eq!(got, &vec![2]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn restricted_run_defers_other_processes() {
        let mut w = World::with_defaults(vec![
            Node::Server { count: 0 },
            Node::Client {
                server: ProcessId(0),
                got: vec![],
            },
            Node::Client {
                server: ProcessId(0),
                got: vec![],
            },
        ]);
        w.inject(ProcessId(1), Msg::Ping(1));
        w.inject(ProcessId(2), Msg::Ping(2));
        // Only client 1 and the server run.
        w.run_restricted(&[ProcessId(0), ProcessId(1)]);
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert_eq!(got, &vec![2]),
            _ => unreachable!(),
        }
        match w.actor(ProcessId(2)) {
            Node::Client { got, .. } => assert!(got.is_empty()),
            _ => unreachable!(),
        }
        // Releasing the restriction completes client 2.
        w.run_until_quiescent();
        match w.actor(ProcessId(2)) {
            Node::Client { got, .. } => assert_eq!(got, &vec![4]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn run_for_respects_horizon() {
        let mut w = World::new(
            vec![
                Node::Server { count: 0 },
                Node::Client {
                    server: ProcessId(0),
                    got: vec![],
                },
            ],
            LatencyModel::new(LatencyKind::Constant(1000), 0),
            SimConfig::default(),
        );
        w.inject(ProcessId(1), Msg::Ping(1));
        // Horizon before the ping arrives.
        assert_eq!(w.run_for(500), RunOutcome::Horizon);
        match w.actor(ProcessId(0)) {
            Node::Server { count } => assert_eq!(*count, 0),
            _ => unreachable!(),
        }
        assert_eq!(w.now(), 500);
        // Continue past it.
        assert_eq!(w.run_for(5000), RunOutcome::Quiescent);
        match w.actor(ProcessId(0)) {
            Node::Server { count } => assert_eq!(*count, 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let mut w = two_node_world();
        w.inject(ProcessId(1), Msg::Ping(1));
        let out = w.run_until(|w| match w.actor(ProcessId(0)) {
            Node::Server { count } => *count >= 1,
            _ => false,
        });
        assert_eq!(out, RunOutcome::Predicate);
        // The pong may still be in flight.
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert!(got.is_empty()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let build = || {
            let mut w = World::new(
                vec![
                    Node::Server { count: 0 },
                    Node::Client {
                        server: ProcessId(0),
                        got: vec![],
                    },
                    Node::Client {
                        server: ProcessId(0),
                        got: vec![],
                    },
                ],
                LatencyModel::new(LatencyKind::Uniform { lo: 10, hi: 500 }, 77),
                SimConfig::default(),
            );
            for i in 0..20 {
                w.inject(ProcessId(1 + (i % 2)), Msg::Ping(i));
            }
            w.run_until_quiescent();
            w.trace.len()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn chaotic_run_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut w = two_node_world();
            for i in 0..10 {
                w.inject_no_step(ProcessId(1), Msg::Ping(i));
            }
            w.run_chaotic(seed, 10_000);
            format!("{:?}", w.trace.events().len())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn chaotic_run_completes_all_work() {
        let mut w = two_node_world();
        for i in 0..10 {
            w.inject_no_step(ProcessId(1), Msg::Ping(i));
        }
        assert_eq!(w.run_chaotic(123, 100_000), RunOutcome::Quiescent);
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert_eq!(got.len(), 10),
            _ => unreachable!(),
        }
        // Chaotic schedules deliver everything too: empty network at the
        // end of a fault-free run.
        assert_eq!(w.undelivered_count(), 0);
    }

    fn client_got(w: &World<Node>) -> usize {
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => got.len(),
            Node::Server { .. } => unreachable!(),
        }
    }

    #[test]
    fn chaotic_run_cut_short_leaves_its_messages_queued() {
        let mut w = two_node_world();
        for i in 0..10 {
            w.inject_no_step(ProcessId(1), Msg::Ping(i));
        }
        assert_eq!(w.run_chaotic(7, 2), RunOutcome::EventLimit);
        assert!(w.undelivered_count() > 0);
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        assert_eq!(w.undelivered_count(), 0);
        assert_eq!(client_got(&w), 10);
    }

    #[test]
    fn release_after_chaotic_run_delivers_what_the_hold_kept() {
        let mut w = two_node_world();
        w.hold(ProcessId(1), ProcessId(0));
        for i in 0..10 {
            w.inject_no_step(ProcessId(1), Msg::Ping(i));
        }
        assert_eq!(w.run_chaotic(7, 1_000), RunOutcome::Quiescent);
        assert_eq!(w.undelivered_count(), 10);
        w.release(ProcessId(1), ProcessId(0));
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        assert_eq!(w.undelivered_count(), 0);
        assert_eq!(client_got(&w), 10);
    }

    #[test]
    fn enabled_choices_are_taken_alike_on_forks() {
        let (server, client) = (ProcessId(0), ProcessId(1));
        let mut w = two_node_world();
        w.inject(client, Msg::Ping(1));
        w.inject_no_step(client, Msg::Ping(2));
        let mut choices = Vec::new();
        w.enabled(&mut choices);
        let [Choice::Due(due), Choice::Step(p)] = choices[..] else {
            panic!("expected a due step and a mailful client, got {choices:?}");
        };
        assert_eq!(p, client);

        // Not enabled: wrong kind for the seq, unknown ids, no mail.
        let digest = w.trace.digest();
        for c in [
            Choice::Timer(due),
            Choice::Due(due + 100),
            Choice::Deliver(MsgId(99)),
            Choice::Step(server),
            Choice::Step(ProcessId(7)),
        ] {
            assert!(!w.take(c), "{c:?} is not enabled");
        }
        assert_eq!((w.trace.digest(), w.stats().events), (digest, 0));

        // The due step drains the client's mail: two pings to the server.
        assert!(w.take(Choice::Due(due)));
        w.enabled(&mut choices);
        let sent: Vec<MsgId> = w.in_flight_on(client, server);
        assert_eq!(
            choices,
            sent.iter()
                .map(|&id| Choice::Deliver(id))
                .collect::<Vec<_>>()
        );
        let (mut a, mut b) = (w.fork(), w.fork());
        assert!(a.take(choices[1]) && b.take(choices[1]));
        assert_eq!(a.trace.digest(), b.trace.digest());
        assert_ne!(a.trace.digest(), w.trace.digest());
        assert!(
            !a.take(choices[1]),
            "a delivered message is no longer enabled"
        );

        // A held link's messages are never enabled; its queued deliveries
        // survive until release.
        w.hold(client, server);
        w.enabled(&mut choices);
        assert!(choices.is_empty());
        assert!(!w.take(Choice::Deliver(sent[0])));
        w.release(client, server);
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        assert_eq!(client_got(&w), 2);
    }

    #[test]
    fn labels_render() {
        let mut w = two_node_world();
        w.set_label(ProcessId(0), "server-0");
        w.inject(ProcessId(1), Msg::Ping(1));
        w.run_until_quiescent();
        let trace = w.render_trace();
        assert!(trace.contains("server-0"));
    }

    #[test]
    fn event_limit_guards_runaway() {
        /// A pair of actors that bounce a message forever.
        #[derive(Clone)]
        struct Bouncer(ProcessId);
        impl Actor for Bouncer {
            type Msg = ();
            fn step(&mut self, ctx: &mut Ctx<()>) {
                for _ in ctx.recv() {
                    ctx.send(self.0, ());
                }
            }
        }
        let mut w = World::new(
            vec![Bouncer(ProcessId(1)), Bouncer(ProcessId(0))],
            LatencyModel::constant_default(),
            SimConfig {
                max_events: 1000,
                ..SimConfig::default()
            },
        );
        w.inject(ProcessId(0), ());
        assert_eq!(w.run_until_quiescent(), RunOutcome::EventLimit);
    }

    #[test]
    fn fifo_links_prevent_overtaking() {
        /// P0 forwards injected payloads to P1; P1 just swallows them.
        #[derive(Clone)]
        struct Fwd {
            sink: bool,
        }
        impl Actor for Fwd {
            type Msg = u32;
            fn step(&mut self, ctx: &mut Ctx<u32>) {
                for env in ctx.recv() {
                    if !self.sink {
                        ctx.send(ProcessId(1), env.msg);
                    }
                }
            }
        }
        let delivery_order = |fifo: bool| {
            let mut w = World::new(
                vec![Fwd { sink: false }, Fwd { sink: true }],
                // Wildly variable latency: reordering is the norm.
                LatencyModel::new(LatencyKind::Uniform { lo: 1, hi: 100_000 }, 3),
                SimConfig {
                    fifo_links: fifo,
                    ..SimConfig::default()
                },
            );
            for i in 0..20u32 {
                w.inject_no_step(ProcessId(0), i);
                w.step_now(ProcessId(0));
            }
            w.run_until_quiescent();
            // Recover P1's delivery order from the trace.
            w.trace
                .events()
                .iter()
                .filter_map(|ev| match ev {
                    TraceEvent::Deliver {
                        id,
                        to: ProcessId(1),
                        ..
                    } => Some(id.0),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let fifo_order = delivery_order(true);
        let mut sorted = fifo_order.clone();
        sorted.sort_unstable();
        assert_eq!(fifo_order, sorted, "FIFO must deliver in send order");
        // And the unconstrained network genuinely reorders (sanity).
        let wild = delivery_order(false);
        let mut wild_sorted = wild.clone();
        wild_sorted.sort_unstable();
        assert_ne!(wild, wild_sorted, "this seed should reorder without FIFO");
    }

    #[test]
    #[should_panic(expected = "strict step semantics")]
    fn strict_steps_catches_double_send() {
        #[derive(Clone)]
        struct Chatty;
        impl Actor for Chatty {
            type Msg = ();
            fn step(&mut self, ctx: &mut Ctx<()>) {
                for _ in ctx.recv() {
                    ctx.send(ProcessId(1), ());
                    ctx.send(ProcessId(1), ());
                }
            }
        }
        let mut w = World::new(
            vec![Chatty, Chatty],
            LatencyModel::constant_default(),
            SimConfig {
                strict_steps: true,
                ..SimConfig::default()
            },
        );
        w.inject(ProcessId(0), ());
        w.run_until_quiescent();
    }

    // ------------------------------------------------------------------
    // Nemesis (fault plan) behaviour
    // ------------------------------------------------------------------

    use crate::fault::FaultPlan;
    use crate::types::{MICROS, MILLIS};

    fn faulty_world(plan: FaultPlan) -> World<Node> {
        World::new(
            vec![
                Node::Server { count: 0 },
                Node::Client {
                    server: ProcessId(0),
                    got: vec![],
                },
            ],
            LatencyModel::constant_default(),
            SimConfig {
                fault: Some(plan),
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn certain_drops_lose_every_message() {
        let mut w = faulty_world(FaultPlan::new(1).with_drops(1000));
        w.inject(ProcessId(1), Msg::Ping(1));
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        // The ping never arrived; no reply, nothing stranded in flight.
        match w.actor(ProcessId(0)) {
            Node::Server { count } => assert_eq!(*count, 0),
            _ => unreachable!(),
        }
        assert_eq!(w.undelivered_count(), 0);
        assert!(w.trace.iter().any(|e| matches!(e, TraceEvent::Drop { .. })));
    }

    #[test]
    fn certain_dups_deliver_every_message_twice() {
        let mut w = faulty_world(FaultPlan::new(1).with_dups(1000));
        w.inject(ProcessId(1), Msg::Ping(1));
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        // Ping delivered twice → two server steps → two pongs, each
        // duplicated again → four client deliveries.
        match w.actor(ProcessId(0)) {
            Node::Server { count } => assert_eq!(*count, 2),
            _ => unreachable!(),
        }
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert_eq!(got, &vec![2, 2, 2, 2]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn partition_delays_traffic_until_heal() {
        let heal = 300 * MICROS;
        let mut w =
            faulty_world(FaultPlan::new(0).with_partition(ProcessId(0), ProcessId(1), 0, heal));
        w.inject(ProcessId(1), Msg::Ping(1));
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        // Partitioned messages are delayed, not lost: the round trip
        // completes, but only after the heal.
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert_eq!(got, &vec![2]),
            _ => unreachable!(),
        }
        assert!(
            w.now() >= heal,
            "completed at {} before heal {heal}",
            w.now()
        );
        assert_eq!(w.undelivered_count(), 0);
    }

    #[test]
    fn crashed_process_loses_arrivals_until_recovery() {
        // Server dark from 10 µs to 200 µs: the ping (arriving at 50 µs)
        // is lost; a ping sent after recovery round-trips normally.
        let mut w = faulty_world(FaultPlan::new(0).with_crash(
            ProcessId(0),
            10 * MICROS,
            200 * MICROS,
            false,
        ));
        w.inject(ProcessId(1), Msg::Ping(1));
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        match w.actor(ProcessId(0)) {
            Node::Server { count } => assert_eq!(*count, 0),
            _ => unreachable!(),
        }
        assert!(!w.is_crashed(ProcessId(0)), "recovered by quiescence");
        w.inject(ProcessId(1), Msg::Ping(5));
        w.run_until_quiescent();
        match w.actor(ProcessId(1)) {
            Node::Client { got, .. } => assert_eq!(got, &vec![10]),
            _ => unreachable!(),
        }
    }

    /// A node that arms a timer at start and records when it fires.
    #[derive(Clone)]
    struct TimerNode {
        fired_at: Vec<Time>,
        volatile: u32,
    }
    impl Actor for TimerNode {
        type Msg = u8;
        fn on_start(&mut self, ctx: &mut Ctx<u8>) {
            ctx.set_timer(20 * MICROS, 0);
        }
        fn step(&mut self, ctx: &mut Ctx<u8>) {
            for env in ctx.recv() {
                if env.msg == 0 {
                    self.fired_at.push(ctx.now());
                    self.volatile += 1;
                    ctx.send(ProcessId(1), 1);
                }
            }
        }
        fn on_crash(&mut self) {
            self.volatile = 0;
        }
    }

    #[test]
    fn crash_defers_timers_to_recovery_and_loses_volatile_state() {
        let mut w = World::new(
            vec![
                TimerNode {
                    fired_at: vec![],
                    volatile: 0,
                },
                TimerNode {
                    fired_at: vec![],
                    volatile: 0,
                },
            ],
            LatencyModel::constant_default(),
            SimConfig {
                fault: Some(FaultPlan::new(0).with_crash(
                    ProcessId(0),
                    10 * MICROS,
                    100 * MICROS,
                    true,
                )),
                ..SimConfig::default()
            },
        );
        w.run_until_quiescent();
        let n0 = w.actor(ProcessId(0));
        // The 20 µs timer survived the crash and fired at recovery.
        assert_eq!(n0.fired_at, vec![100 * MICROS]);
        // on_crash ran: the counter was reset before the post-recovery
        // fire, so it shows exactly the one fire.
        assert_eq!(n0.volatile, 1);
    }

    #[derive(Clone, Default)]
    struct MultiTimerNode {
        zero_fires: Vec<Time>,
        one_fires: Vec<Time>,
    }
    impl Actor for MultiTimerNode {
        type Msg = u8;
        fn on_start(&mut self, ctx: &mut Ctx<u8>) {
            // Several pending instances of the same timer kind (a
            // protocol that re-arms per request looks like this), plus
            // one of a different kind.
            for d in [20, 40, 60, 80] {
                ctx.set_timer(d * MICROS, 0);
            }
            ctx.set_timer(50 * MICROS, 1);
        }
        fn step(&mut self, ctx: &mut Ctx<u8>) {
            for env in ctx.recv() {
                match env.msg {
                    0 => self.zero_fires.push(ctx.now()),
                    _ => self.one_fires.push(ctx.now()),
                }
            }
        }
    }

    /// Satellite: timers deferred by a crash coalesce per (process,
    /// message kind) — a long dark window must not pile one event per
    /// swallowed fire onto the recovery instant.
    #[test]
    fn crash_deferred_timers_coalesce_per_kind() {
        let mut w = World::new(
            vec![MultiTimerNode::default(), MultiTimerNode::default()],
            LatencyModel::constant_default(),
            SimConfig {
                fault: Some(FaultPlan::new(0).with_crash(ProcessId(0), 10 * MICROS, MILLIS, false)),
                ..SimConfig::default()
            },
        );
        w.run_until_quiescent();
        let n0 = w.actor(ProcessId(0));
        // One surviving instance per kind, both firing at recovery.
        assert_eq!(n0.zero_fires, vec![MILLIS]);
        assert_eq!(n0.one_fires, vec![MILLIS]);
        // The other three kind-0 fires were swallowed, and counted.
        assert_eq!(w.stats().timers_coalesced, 3);
        // The untouched twin saw all five fires on schedule.
        let n1 = w.actor(ProcessId(1));
        assert_eq!(n1.zero_fires.len(), 4);
        assert_eq!(n1.one_fires.len(), 1);
    }

    /// A retry timer with two fields, so two kinds can differ in either.
    #[derive(Clone, Debug, PartialEq)]
    struct Retry {
        id: u32,
        attempt: u32,
    }

    impl Payload for Retry {
        fn payload(&self, out: &mut Vec<u8>) {
            self.id.payload(out);
            self.attempt.payload(out);
        }
    }

    #[derive(Clone, Default)]
    struct RetryNode {
        fired: Vec<(Time, Retry)>,
    }
    impl Actor for RetryNode {
        type Msg = Retry;
        fn on_start(&mut self, ctx: &mut Ctx<Retry>) {
            let arm = [(7, 0), (7, 0), (7, 1), (7, 0), (8, 0), (1 << 8, 0)];
            for (i, (id, attempt)) in arm.into_iter().enumerate() {
                ctx.set_timer((20 + 10 * i as Time) * MICROS, Retry { id, attempt });
            }
        }
        fn step(&mut self, ctx: &mut Ctx<Retry>) {
            for env in ctx.recv() {
                self.fired.push((ctx.now(), env.msg));
            }
        }
    }

    /// Crash-window coalescing keys on the payload bytes: timers with
    /// equal bytes collapse into one fire at recovery, and timers that
    /// differ in any field — here the attempt, or the id in its second
    /// byte — all fire.
    #[test]
    fn crash_deferred_timers_coalesce_on_equal_payload_bytes() {
        let mut w = World::new(
            vec![RetryNode::default()],
            LatencyModel::constant_default(),
            SimConfig {
                fault: Some(FaultPlan::new(0).with_crash(ProcessId(0), 10 * MICROS, MILLIS, false)),
                ..SimConfig::default()
            },
        );
        w.run_until_quiescent();
        let retry = |id, attempt| (MILLIS, Retry { id, attempt });
        assert_eq!(
            w.actor(ProcessId(0)).fired,
            vec![retry(7, 0), retry(7, 1), retry(8, 0), retry(1 << 8, 0)]
        );
        assert_eq!(w.stats().timers_coalesced, 2);
    }

    /// Regression (satellite): freezing a process's links must not stall
    /// its self-timers — holds apply to network messages only.
    #[test]
    fn frozen_link_does_not_stall_self_timers() {
        let mut w = World::with_defaults(vec![
            TimerNode {
                fired_at: vec![],
                volatile: 0,
            },
            TimerNode {
                fired_at: vec![],
                volatile: 0,
            },
        ]);
        w.hold_pair(ProcessId(0), ProcessId(1));
        w.run_for(MILLIS);
        let n0 = w.actor(ProcessId(0));
        assert_eq!(n0.fired_at, vec![20 * MICROS], "timer fired despite hold");
        // The message it sent on firing is frozen, not lost.
        assert_eq!(w.undelivered_count(), 1);
        let drained = w.drain_undelivered();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].1.to, ProcessId(1));
        assert_eq!(w.undelivered_count(), 0);
    }

    #[test]
    fn fault_schedule_replays_bit_identically_from_its_seed() {
        let digest = |seed: u64| {
            let mut w = World::new(
                vec![
                    Node::Server { count: 0 },
                    Node::Client {
                        server: ProcessId(0),
                        got: vec![],
                    },
                    Node::Client {
                        server: ProcessId(0),
                        got: vec![],
                    },
                ],
                LatencyModel::new(LatencyKind::Uniform { lo: 10, hi: 900 }, 11),
                SimConfig {
                    fault: Some(
                        FaultPlan::new(seed)
                            .with_drops(150)
                            .with_dups(150)
                            .with_partition(ProcessId(0), ProcessId(2), 100, 700)
                            .with_crash(ProcessId(0), 2000, 4000, false),
                    ),
                    ..SimConfig::default()
                },
            );
            for i in 0..30 {
                w.inject(ProcessId(1 + (i % 2)), Msg::Ping(i));
            }
            w.run_until_quiescent();
            w.trace.digest()
        };
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6), "different seeds take different paths");
    }

    fn service_world(service: Option<crate::types::ServiceModel>) -> World<Node> {
        World::new(
            vec![
                Node::Server { count: 0 },
                Node::Client {
                    server: ProcessId(0),
                    got: vec![],
                },
                Node::Client {
                    server: ProcessId(0),
                    got: vec![],
                },
            ],
            LatencyModel::constant_default(),
            SimConfig {
                service,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn service_queue_serialises_concurrent_arrivals() {
        use crate::types::MICROS;
        let mut w = service_world(Some(crate::types::ServiceModel {
            servers: 1,
            service_time: 10 * MICROS,
        }));
        w.inject(ProcessId(1), Msg::Ping(1));
        w.inject(ProcessId(2), Msg::Ping(2));
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        // Both pings would arrive at 50 µs; the server serves them one at
        // a time (10 µs each), so the second completes service at 70 µs
        // and its pong (clients don't queue) lands at 120 µs.
        assert_eq!(w.now(), 120 * MICROS);
        let ss = w.service_stats();
        assert_eq!(ss.served, 2);
        assert_eq!(ss.delayed, 1);
        assert_eq!(ss.max_wait, 10 * MICROS, "second ping waited one slot");
        match w.actor(ProcessId(0)) {
            Node::Server { count } => assert_eq!(*count, 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn no_service_model_is_the_legacy_timing() {
        use crate::types::MICROS;
        let mut w = service_world(None);
        w.inject(ProcessId(1), Msg::Ping(1));
        w.inject(ProcessId(2), Msg::Ping(2));
        assert_eq!(w.run_until_quiescent(), RunOutcome::Quiescent);
        // Without the model both round trips overlap perfectly.
        assert_eq!(w.now(), 100 * MICROS);
        assert_eq!(w.service_stats(), crate::types::ServiceStats::default());
    }

    #[test]
    fn service_model_keeps_runs_deterministic() {
        use crate::types::MICROS;
        let digest = || {
            let mut w = service_world(Some(crate::types::ServiceModel {
                servers: 1,
                service_time: 7 * MICROS,
            }));
            w.inject(ProcessId(1), Msg::Ping(1));
            w.inject(ProcessId(2), Msg::Ping(2));
            w.run_until_quiescent();
            w.trace.digest()
        };
        assert_eq!(digest(), digest());
    }
}
