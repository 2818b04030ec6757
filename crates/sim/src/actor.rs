//! The process abstraction: state machines that take computation steps.

use crate::types::{MsgId, ProcessId, Time};

/// A message sitting in (or delivered from) an income buffer.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// The process that sent the message.
    pub from: ProcessId,
    /// Globally unique id of this message instance.
    pub id: MsgId,
    /// The payload.
    pub msg: M,
}

/// Messages a step sent, as `(destination, payload)` in send order.
pub type Sends<M> = Vec<(ProcessId, M)>;

/// Timers a step armed, as `(delay, payload)` in arm order.
pub type ArmedTimers<M> = Vec<(Time, M)>;

/// Everything a process may do during one computation step.
///
/// Mirrors the paper's step semantics: the process *reads all messages
/// residing in its income buffers, performs some local computation and may
/// send (at most) one message to each of its neighboring processes*. The
/// one-per-neighbour cap is checked when [`crate::SimConfig::strict_steps`]
/// is set; the protocols in this workspace that feed the theorem machinery
/// respect it.
pub struct Ctx<M> {
    me: ProcessId,
    now: Time,
    inbox: Vec<Envelope<M>>,
    pub(crate) outbox: Vec<(ProcessId, M)>,
    pub(crate) timers: Vec<(Time, M)>,
}

impl<M> Ctx<M> {
    pub(crate) fn new(me: ProcessId, now: Time, inbox: Vec<Envelope<M>>) -> Self {
        Ctx {
            me,
            now,
            inbox,
            outbox: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Like [`Ctx::new`], but reusing previously-allocated (empty)
    /// outbox/timer buffers. The world recycles these scratch vectors
    /// across steps so the hot event loop stops allocating per step.
    pub(crate) fn recycled(
        me: ProcessId,
        now: Time,
        inbox: Vec<Envelope<M>>,
        outbox: Vec<(ProcessId, M)>,
        timers: Vec<(Time, M)>,
    ) -> Self {
        debug_assert!(outbox.is_empty() && timers.is_empty());
        Ctx {
            me,
            now,
            inbox,
            outbox,
            timers,
        }
    }

    /// Build a context outside any [`crate::World`] — the entry point for
    /// alternative runtimes (cbf-net's socket event loop) that drive the
    /// same actors without a simulator. Pair with [`Ctx::into_outputs`]
    /// to collect what the step produced.
    pub fn standalone(me: ProcessId, now: Time, inbox: Vec<Envelope<M>>) -> Self {
        Ctx::new(me, now, inbox)
    }

    /// Consume the context after a step, returning `(sends, timers)`:
    /// the messages the actor sent (in send order) and the timers it
    /// armed (as `(delay, msg)` pairs). Only useful with
    /// [`Ctx::standalone`]; inside a `World` the simulator drains these
    /// buffers itself.
    pub fn into_outputs(self) -> (Sends<M>, ArmedTimers<M>) {
        (self.outbox, self.timers)
    }

    /// The id of the process taking this step.
    #[inline]
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Take all messages delivered since the previous step, in delivery
    /// order. Subsequent calls within the same step return an empty vec.
    #[inline]
    pub fn recv(&mut self) -> Vec<Envelope<M>> {
        std::mem::take(&mut self.inbox)
    }

    /// True if at least one message was delivered for this step.
    #[inline]
    pub fn has_mail(&self) -> bool {
        !self.inbox.is_empty()
    }

    /// Send `msg` to `to`. The message departs when the step completes and
    /// arrives after a link-latency delay (or when the adversary says so).
    #[inline]
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Arrange for `msg` to be delivered back to this process after
    /// `delay` virtual time. Used for periodic work (heartbeats, stable
    /// snapshot broadcasts) and timeouts.
    #[inline]
    pub fn set_timer(&mut self, delay: Time, msg: M) {
        self.timers.push((delay, msg));
    }
}

/// A message's canonical bytes: what [`Trace::digest`](crate::Trace::digest)
/// fingerprints, and what crash-window timer coalescing compares.
///
/// The bytes must be a total, injective function of the value — equal
/// bytes for equal messages, distinct bytes for distinct ones — and
/// must not depend on anything outside it (addresses, hash seeds,
/// iteration order of a hash map). A protocol's alphabet forwards to
/// its wire codec; toy alphabets write their fields out by hand.
pub trait Payload {
    /// Append this value's bytes to `out`.
    fn payload(&self, out: &mut Vec<u8>);
}

impl Payload for () {
    fn payload(&self, _: &mut Vec<u8>) {}
}

impl Payload for u8 {
    fn payload(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Payload for u32 {
    fn payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Payload for u64 {
    fn payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

/// A process: a deterministic state machine driven by computation steps.
///
/// `Clone` is required so that entire configurations (the [`crate::World`])
/// can be forked; the paper's indistinguishability and visibility arguments
/// become runnable experiments on forks. `Send + Sync` (actors are plain
/// data, never handles) lets whole configurations cross threads:
/// independent exhibit cells run their clusters on `cbf-par` workers.
pub trait Actor: Clone + Send + Sync {
    /// The protocol's message alphabet (requests, responses, replication,
    /// timer payloads — everything that crosses a link). `Debug` renders
    /// traces for people; [`Payload`] fingerprints them.
    type Msg: Clone + Send + Sync + std::fmt::Debug + Payload;

    /// One computation step. All messages delivered since the previous
    /// step are available via [`Ctx::recv`].
    fn step(&mut self, ctx: &mut Ctx<Self::Msg>);

    /// Called once when the world starts, before any message flows.
    /// Default: do nothing.
    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>) {
        let _ = ctx;
    }

    /// Called when the nemesis crash-recovers this process with volatile
    /// state loss (see [`crate::FaultPlan::with_crash`]). Implementations
    /// should discard whatever a real process would lose on restart —
    /// in-progress coordination state, parked work — while durable state
    /// (the store) survives. Default: lose nothing.
    fn on_crash(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Echo;
    impl Actor for Echo {
        type Msg = u32;
        fn step(&mut self, ctx: &mut Ctx<u32>) {
            for env in ctx.recv() {
                ctx.send(env.from, env.msg + 1);
            }
        }
    }

    #[test]
    fn ctx_recv_drains_once() {
        let inbox = vec![Envelope {
            from: ProcessId(1),
            id: MsgId(0),
            msg: 5u32,
        }];
        let mut ctx = Ctx::new(ProcessId(0), 0, inbox);
        assert!(ctx.has_mail());
        assert_eq!(ctx.recv().len(), 1);
        assert!(ctx.recv().is_empty());
        assert!(!ctx.has_mail());
    }

    #[test]
    fn step_produces_outbox() {
        let inbox = vec![Envelope {
            from: ProcessId(1),
            id: MsgId(0),
            msg: 5u32,
        }];
        let mut ctx = Ctx::new(ProcessId(0), 7, inbox);
        let mut a = Echo;
        a.step(&mut ctx);
        assert_eq!(ctx.outbox, vec![(ProcessId(1), 6u32)]);
        assert_eq!(ctx.now(), 7);
        assert_eq!(ctx.me(), ProcessId(0));
    }

    #[test]
    fn timers_accumulate() {
        let mut ctx: Ctx<u32> = Ctx::new(ProcessId(0), 0, vec![]);
        ctx.set_timer(10, 1);
        ctx.set_timer(20, 2);
        assert_eq!(ctx.timers, vec![(10, 1), (20, 2)]);
    }
}
