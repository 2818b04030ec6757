//! Execution traces.
//!
//! Every send, delivery, step and injection can be recorded. Traces are the
//! raw material for (a) the one-value / one-round audits in `cbf-model`,
//! (b) the figure renderers in `cbf-bench`, and (c) determinism tests
//! (same seed ⇒ identical trace).
//!
//! ## Sharing on fork
//!
//! The theorem machinery forks a [`World`](crate::World) thousands of
//! times per run, and each fork used to deep-copy the whole event log —
//! the dominant fork cost once a trace grows past a few thousand events.
//! The log is append-only, so history is shared structurally instead:
//! events accumulate in a mutable `tail`, and every [`SEAL_CAP`] events
//! the tail is sealed into an immutable [`Arc`] segment. Cloning a trace
//! bumps the segment refcounts and copies only the tail (< `SEAL_CAP`
//! events), making fork cost O(`SEAL_CAP`) instead of O(history).
//! Sealed segments are never mutated, so clones never observe each
//! other's appends.
//!
//! Because every sealed segment holds exactly `SEAL_CAP` events,
//! [`Trace::event_at`] is O(1) index arithmetic. Range views
//! ([`Trace::events`], [`Trace::since`]) return a [`TraceView`] that
//! borrows directly from the tail when the requested range lies inside
//! it (the common "what did this sub-execution do" audit) and
//! materializes a copy only when the range crosses sealed segments.

use crate::sink::SegmentSink;
use crate::types::{MsgId, ProcessId, Time};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Events per sealed segment. Every sealed segment holds exactly this
/// many events, which is what makes [`Trace::event_at`] O(1).
pub const SEAL_CAP: usize = 512;

/// FNV-1a offset basis (the digest's initial state).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// Fold one event into an FNV-1a state, factored out so the recycled
/// prefix and the resident suffix use one code path.
///
/// The byte stream is a compact binary encoding: a one-byte variant
/// tag, then each envelope field (times, message ids, process ids) as
/// little-endian bytes, then — for the variants that carry one — the
/// message payload's `Debug` rendering. The digest used to hash the
/// whole event's `Debug` rendering; at the swarm tiers' millions of
/// events per second the formatter became the single hottest path in
/// the repository, and integer fields don't need decimal rendering to
/// be fingerprinted. Changing this encoding changes every trace digest
/// — the pinned fixtures (`load_digests.txt` and the pin suites) were
/// repinned when it landed.
fn fold_event<M: fmt::Debug>(h: &mut u64, ev: &TraceEvent<M>) {
    use fmt::Write as _;
    #[inline]
    fn mix(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(FNV_PRIME);
        }
    }
    // Streaming adapter: hashes the formatter's output as it is
    // produced instead of materializing a `String` per message — the
    // digest fold runs once per trace event, so the allocation would be
    // the hot path's dominant cost.
    struct Fnv<'a>(&'a mut u64);
    impl fmt::Write for Fnv<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            mix(self.0, s.as_bytes());
            Ok(())
        }
    }
    match ev {
        TraceEvent::Send {
            at,
            id,
            from,
            to,
            msg,
        } => {
            mix(h, &[0]);
            mix(h, &at.to_le_bytes());
            mix(h, &id.0.to_le_bytes());
            mix(h, &from.0.to_le_bytes());
            mix(h, &to.0.to_le_bytes());
            let _ = write!(Fnv(h), "{msg:?}");
        }
        TraceEvent::Deliver { at, id, from, to } => {
            mix(h, &[1]);
            mix(h, &at.to_le_bytes());
            mix(h, &id.0.to_le_bytes());
            mix(h, &from.0.to_le_bytes());
            mix(h, &to.0.to_le_bytes());
        }
        TraceEvent::Step { at, pid } => {
            mix(h, &[2]);
            mix(h, &at.to_le_bytes());
            mix(h, &pid.0.to_le_bytes());
        }
        TraceEvent::Inject { at, pid, msg } => {
            mix(h, &[3]);
            mix(h, &at.to_le_bytes());
            mix(h, &pid.0.to_le_bytes());
            let _ = write!(Fnv(h), "{msg:?}");
        }
        TraceEvent::TimerFire { at, pid } => {
            mix(h, &[4]);
            mix(h, &at.to_le_bytes());
            mix(h, &pid.0.to_le_bytes());
        }
        TraceEvent::Drop { at, id, from, to } => {
            mix(h, &[5]);
            mix(h, &at.to_le_bytes());
            mix(h, &id.0.to_le_bytes());
            mix(h, &from.0.to_le_bytes());
            mix(h, &to.0.to_le_bytes());
        }
        TraceEvent::Duplicate {
            at,
            id,
            of,
            from,
            to,
        } => {
            mix(h, &[6]);
            mix(h, &at.to_le_bytes());
            mix(h, &id.0.to_le_bytes());
            mix(h, &of.0.to_le_bytes());
            mix(h, &from.0.to_le_bytes());
            mix(h, &to.0.to_le_bytes());
        }
        TraceEvent::Partition { at, a, b, healed } => {
            mix(h, &[7]);
            mix(h, &at.to_le_bytes());
            mix(h, &a.0.to_le_bytes());
            mix(h, &b.0.to_le_bytes());
            mix(h, &[u8::from(*healed)]);
        }
        TraceEvent::Crash { at, pid } => {
            mix(h, &[8]);
            mix(h, &at.to_le_bytes());
            mix(h, &pid.0.to_le_bytes());
        }
        TraceEvent::Recover { at, pid } => {
            mix(h, &[9]);
            mix(h, &at.to_le_bytes());
            mix(h, &pid.0.to_le_bytes());
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // fields are self-describing
pub enum TraceEvent<M> {
    /// A process emitted a message during a computation step.
    Send {
        at: Time,
        id: MsgId,
        from: ProcessId,
        to: ProcessId,
        msg: M,
    },
    /// A message moved from the link into the destination's income buffer.
    Deliver {
        at: Time,
        id: MsgId,
        from: ProcessId,
        to: ProcessId,
    },
    /// A process took a computation step.
    Step { at: Time, pid: ProcessId },
    /// The harness injected an external request (a transaction invocation)
    /// into a process's income buffer.
    Inject { at: Time, pid: ProcessId, msg: M },
    /// A timer fired (delivered to its owner as a self-message).
    TimerFire { at: Time, pid: ProcessId },
    /// The nemesis dropped a message: sent but never delivered.
    Drop {
        at: Time,
        id: MsgId,
        from: ProcessId,
        to: ProcessId,
    },
    /// The nemesis duplicated message `of`; the copy travels as `id`
    /// with its own independently-sampled latency.
    Duplicate {
        at: Time,
        id: MsgId,
        of: MsgId,
        from: ProcessId,
        to: ProcessId,
    },
    /// A link partition between `a` and `b` started (`healed == false`)
    /// or healed (`healed == true`).
    Partition {
        at: Time,
        a: ProcessId,
        b: ProcessId,
        healed: bool,
    },
    /// The nemesis crashed a process.
    Crash { at: Time, pid: ProcessId },
    /// A crashed process recovered.
    Recover { at: Time, pid: ProcessId },
}

impl<M> TraceEvent<M> {
    /// Virtual time at which the event occurred.
    pub fn at(&self) -> Time {
        match *self {
            TraceEvent::Send { at, .. }
            | TraceEvent::Deliver { at, .. }
            | TraceEvent::Step { at, .. }
            | TraceEvent::Inject { at, .. }
            | TraceEvent::TimerFire { at, .. }
            | TraceEvent::Drop { at, .. }
            | TraceEvent::Duplicate { at, .. }
            | TraceEvent::Partition { at, .. }
            | TraceEvent::Crash { at, .. }
            | TraceEvent::Recover { at, .. } => at,
        }
    }
}

/// A contiguous range of trace events. Borrows from the trace's tail
/// when the range lies entirely inside it; otherwise holds a
/// materialized copy. Either way it derefs to `[TraceEvent<M>]`, so
/// call sites treat it as a slice.
pub enum TraceView<'a, M> {
    /// The range is inside the mutable tail; no copy was made.
    Borrowed(&'a [TraceEvent<M>]),
    /// The range crossed sealed segments and was copied out.
    Owned(Vec<TraceEvent<M>>),
}

impl<M> Deref for TraceView<'_, M> {
    type Target = [TraceEvent<M>];
    fn deref(&self) -> &[TraceEvent<M>] {
        match self {
            TraceView::Borrowed(s) => s,
            TraceView::Owned(v) => v,
        }
    }
}

impl<'a, 'b, M> IntoIterator for &'b TraceView<'a, M> {
    type Item = &'b TraceEvent<M>;
    type IntoIter = std::slice::Iter<'b, TraceEvent<M>>;
    fn into_iter(self) -> Self::IntoIter {
        self.deref().iter()
    }
}

impl<M: fmt::Debug> fmt::Debug for TraceView<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.deref()).finish()
    }
}

/// An append-only log of [`TraceEvent`]s with structurally shared
/// history (see module docs).
#[derive(Clone, Debug)]
pub struct Trace<M> {
    /// Sealed history: each segment holds exactly [`SEAL_CAP`] events
    /// and is immutable from the moment it is sealed.
    segments: Vec<Arc<Vec<TraceEvent<M>>>>,
    /// Events not yet sealed; always shorter than [`SEAL_CAP`].
    tail: Vec<TraceEvent<M>>,
    enabled: bool,
    /// Events recycled through a [`SegmentSink`] and freed. Always a
    /// prefix of the logical event sequence; indices below this are no
    /// longer addressable.
    recycled: usize,
    /// Running FNV-1a state over the recycled prefix, so
    /// [`Trace::digest`] stays bit-identical to full retention.
    recycled_digest: u64,
}

impl<M: Clone + fmt::Debug> Trace<M> {
    /// A new trace; when `enabled` is false, pushes are dropped.
    pub fn new(enabled: bool) -> Self {
        Trace {
            segments: Vec::new(),
            tail: Vec::new(),
            enabled,
            recycled: 0,
            recycled_digest: FNV_OFFSET,
        }
    }

    /// Number of events logically before the tail: recycled events plus
    /// events in resident sealed segments.
    #[inline]
    fn sealed_len(&self) -> usize {
        self.recycled + self.segments.len() * SEAL_CAP
    }

    #[inline]
    pub(crate) fn push(&mut self, ev: TraceEvent<M>) {
        if !self.enabled {
            return;
        }
        self.tail.push(ev);
        if self.tail.len() == SEAL_CAP {
            let sealed = std::mem::take(&mut self.tail);
            self.segments.push(Arc::new(sealed));
        }
    }

    /// The event at index `i` (panics when out of bounds *or recycled*).
    /// O(1): sealed segments have fixed size, so this is index
    /// arithmetic. Indices below [`Trace::recycled_events`] were handed
    /// to a sink and freed; streaming runs must not index behind the
    /// recycle frontier.
    #[inline]
    pub fn event_at(&self, i: usize) -> &TraceEvent<M> {
        let rel = i
            .checked_sub(self.recycled)
            .expect("event was recycled through a SegmentSink");
        let resident_sealed = self.segments.len() * SEAL_CAP;
        if rel < resident_sealed {
            &self.segments[rel / SEAL_CAP][rel % SEAL_CAP]
        } else {
            &self.tail[rel - resident_sealed]
        }
    }

    /// All recorded events, in order. Borrows when the whole trace is
    /// still in the tail; copies otherwise — prefer [`Trace::event_at`]
    /// or [`Trace::iter`] in loops over long traces.
    pub fn events(&self) -> TraceView<'_, M> {
        if self.segments.is_empty() {
            TraceView::Borrowed(&self.tail)
        } else {
            TraceView::Owned(self.iter().cloned().collect())
        }
    }

    /// Iterate all *resident* events in order without copying. Before
    /// any recycling this is every event; after recycling the freed
    /// prefix is gone and iteration starts at the recycle frontier.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent<M>> {
        self.segments
            .iter()
            .flat_map(|s| s.iter())
            .chain(self.tail.iter())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.sealed_len() + self.tail.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events recorded after index `mark`; use with [`Trace::len`] to
    /// observe what a sub-execution did. Borrows (no copy) when `mark`
    /// falls inside the tail — true whenever fewer than [`SEAL_CAP`]
    /// events ran since the mark was taken near the head of the tail.
    pub fn since(&self, mark: usize) -> TraceView<'_, M> {
        let sealed = self.sealed_len();
        if mark >= sealed {
            TraceView::Borrowed(&self.tail[mark - sealed..])
        } else {
            // `iter` starts at the recycle frontier; a mark behind it
            // can only return what is still resident.
            TraceView::Owned(
                self.iter()
                    .skip(mark.saturating_sub(self.recycled))
                    .cloned()
                    .collect(),
            )
        }
    }

    /// Drop all recorded events (keeps the enabled flag) and reset the
    /// recycle frontier and its digest state.
    pub fn clear(&mut self) {
        self.segments.clear();
        self.tail.clear();
        self.recycled = 0;
        self.recycled_digest = FNV_OFFSET;
    }

    /// Hand every *resident sealed* segment to `sink`, fold it into the
    /// running digest, and free it. Returns the number of segments
    /// drained. The tail (still mutable, shorter than [`SEAL_CAP`])
    /// stays put — call this periodically during a streaming run, then
    /// [`Trace::drain_rest`] once at the end.
    pub fn drain_sealed<S: SegmentSink<M> + ?Sized>(&mut self, sink: &mut S) -> usize {
        let n = self.segments.len();
        for seg in self.segments.drain(..) {
            sink.consume(&seg);
            for ev in seg.iter() {
                fold_event(&mut self.recycled_digest, ev);
            }
            self.recycled += seg.len();
        }
        n
    }

    /// End-of-run flush: drain remaining sealed segments, then the tail
    /// (the one segment allowed to be shorter than [`SEAL_CAP`]).
    /// Returns segments handed to the sink. After this every recorded
    /// event has passed through exactly one `consume` call and
    /// [`Trace::digest`] equals the full-retention digest.
    pub fn drain_rest<S: SegmentSink<M> + ?Sized>(&mut self, sink: &mut S) -> usize {
        let mut n = self.drain_sealed(sink);
        if !self.tail.is_empty() {
            let tail = std::mem::take(&mut self.tail);
            sink.consume(&tail);
            for ev in &tail {
                fold_event(&mut self.recycled_digest, ev);
            }
            self.recycled += tail.len();
            n += 1;
        }
        n
    }

    /// Events recycled through a sink so far (the recycle frontier).
    #[inline]
    pub fn recycled_events(&self) -> usize {
        self.recycled
    }

    /// Sealed segments currently resident in memory — the quantity the
    /// streaming pipeline bounds (peak resident ≪ total segments).
    #[inline]
    pub fn resident_segments(&self) -> usize {
        self.segments.len()
    }

    /// A 64-bit FNV-1a digest of the whole trace (over each event's
    /// `Debug` rendering). Two runs with the same digest took the same
    /// schedule; the determinism sweeps compare these, and a chaos
    /// failure is replayed by matching its digest from the same seed.
    pub fn digest(&self) -> u64 {
        // FNV-1a is sequential over the event stream, so the state
        // folded in at recycle time continues seamlessly over the
        // resident suffix: recycling never changes the digest.
        let mut h = self.recycled_digest;
        for ev in self.iter() {
            fold_event(&mut h, ev);
        }
        h
    }

    /// All `Send` events from `from` to `to` after index `mark`.
    pub fn sends_between(&self, from: ProcessId, to: ProcessId, mark: usize) -> Vec<TraceEvent<M>> {
        self.iter()
            .skip(mark.saturating_sub(self.recycled))
            .filter(
                |e| matches!(e, TraceEvent::Send { from: f, to: t, .. } if *f == from && *t == to),
            )
            .cloned()
            .collect()
    }

    /// Render the trace as a human-readable listing (used by the figure
    /// reproductions). `names` maps process ids to display labels.
    pub fn render(&self, names: &dyn Fn(ProcessId) -> String) -> String {
        let mut out = String::new();
        for ev in self.iter() {
            let line = match ev {
                TraceEvent::Send {
                    at,
                    id,
                    from,
                    to,
                    msg,
                } => format!(
                    "{:>12} ns  SEND    {:?} {} -> {}  {:?}",
                    at,
                    id,
                    names(*from),
                    names(*to),
                    msg
                ),
                TraceEvent::Deliver { at, id, from, to } => format!(
                    "{:>12} ns  DELIVER {:?} {} -> {}",
                    at,
                    id,
                    names(*from),
                    names(*to)
                ),
                TraceEvent::Step { at, pid } => {
                    format!("{:>12} ns  STEP    {}", at, names(*pid))
                }
                TraceEvent::Inject { at, pid, msg } => {
                    format!("{:>12} ns  INJECT  {}  {:?}", at, names(*pid), msg)
                }
                TraceEvent::TimerFire { at, pid } => {
                    format!("{:>12} ns  TIMER   {}", at, names(*pid))
                }
                TraceEvent::Drop { at, id, from, to } => format!(
                    "{:>12} ns  DROP    {:?} {} -> {}",
                    at,
                    id,
                    names(*from),
                    names(*to)
                ),
                TraceEvent::Duplicate {
                    at,
                    id,
                    of,
                    from,
                    to,
                } => format!(
                    "{:>12} ns  DUP     {:?} (of {:?}) {} -> {}",
                    at,
                    id,
                    of,
                    names(*from),
                    names(*to)
                ),
                TraceEvent::Partition { at, a, b, healed } => format!(
                    "{:>12} ns  {} {} <-> {}",
                    at,
                    if *healed { "HEAL   " } else { "PARTIT " },
                    names(*a),
                    names(*b)
                ),
                TraceEvent::Crash { at, pid } => {
                    format!("{:>12} ns  CRASH   {}", at, names(*pid))
                }
                TraceEvent::Recover { at, pid } => {
                    format!("{:>12} ns  RECOVER {}", at, names(*pid))
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Render the trace as an ASCII space-time diagram: one lane per
    /// process, one row per event, annotated on the right. `n` is the
    /// number of processes; `names` maps ids to short labels (rendered in
    /// the header). Useful for reproducing the paper's execution figures.
    pub fn render_lanes(&self, n: usize, names: &dyn Fn(ProcessId) -> String) -> String {
        self.render_lanes_range(0, usize::MAX, n, names)
    }

    /// Like [`Trace::render_lanes`], but over the event range
    /// `[from, from + limit)`.
    pub fn render_lanes_range(
        &self,
        from: usize,
        limit: usize,
        n: usize,
        names: &dyn Fn(ProcessId) -> String,
    ) -> String {
        const W: usize = 9;
        let mut out = String::new();
        // Header.
        out.push_str(&" ".repeat(14));
        for i in 0..n {
            let label = names(ProcessId(i as u32));
            out.push_str(&format!("{label:^W$}"));
        }
        out.push('\n');
        let lane = |cols: &mut Vec<String>, p: ProcessId, sym: &str| {
            cols[p.index()] = format!("{sym:^W$}");
        };
        for ev in self.iter().skip(from).take(limit) {
            let mut cols: Vec<String> = vec![" ".repeat(W); n];
            let note = match ev {
                TraceEvent::Send {
                    at,
                    id,
                    from,
                    to,
                    msg,
                } => {
                    lane(&mut cols, *from, &format!("{id:?}→"));
                    format!(
                        "t={at:>9} {} sends {id:?} to {}: {msg:?}",
                        names(*from),
                        names(*to)
                    )
                }
                TraceEvent::Deliver { at, id, from, to } => {
                    lane(&mut cols, *to, &format!("▶{id:?}"));
                    format!(
                        "t={at:>9} {} receives {id:?} from {}",
                        names(*to),
                        names(*from)
                    )
                }
                TraceEvent::Step { at, pid } => {
                    lane(&mut cols, *pid, "●");
                    format!("t={at:>9} {} takes a step", names(*pid))
                }
                TraceEvent::Inject { at, pid, msg } => {
                    lane(&mut cols, *pid, "◆");
                    format!("t={at:>9} {} invoked: {msg:?}", names(*pid))
                }
                TraceEvent::TimerFire { at, pid } => {
                    lane(&mut cols, *pid, "⏲");
                    format!("t={at:>9} {} timer fires", names(*pid))
                }
                TraceEvent::Drop { at, id, from, to } => {
                    lane(&mut cols, *to, &format!("✗{id:?}"));
                    format!(
                        "t={at:>9} {id:?} from {} to {} dropped",
                        names(*from),
                        names(*to)
                    )
                }
                TraceEvent::Duplicate {
                    at,
                    id,
                    of,
                    from,
                    to,
                } => {
                    lane(&mut cols, *from, &format!("{id:?}⧉"));
                    format!(
                        "t={at:>9} {} duplicate of {of:?} to {} travels as {id:?}",
                        names(*from),
                        names(*to)
                    )
                }
                TraceEvent::Partition { at, a, b, healed } => {
                    lane(&mut cols, *a, if *healed { "═" } else { "╳" });
                    lane(&mut cols, *b, if *healed { "═" } else { "╳" });
                    format!(
                        "t={at:>9} link {} <-> {} {}",
                        names(*a),
                        names(*b),
                        if *healed { "heals" } else { "partitions" }
                    )
                }
                TraceEvent::Crash { at, pid } => {
                    lane(&mut cols, *pid, "☠");
                    format!("t={at:>9} {} crashes", names(*pid))
                }
                TraceEvent::Recover { at, pid } => {
                    lane(&mut cols, *pid, "↺");
                    format!("t={at:>9} {} recovers", names(*pid))
                }
            };
            out.push_str(&" ".repeat(14));
            for c in cols {
                out.push_str(&c);
            }
            out.push_str("  ");
            out.push_str(&note);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace<u32> {
        let mut t = Trace::new(true);
        t.push(TraceEvent::Send {
            at: 0,
            id: MsgId(0),
            from: ProcessId(0),
            to: ProcessId(1),
            msg: 9,
        });
        t.push(TraceEvent::Deliver {
            at: 5,
            id: MsgId(0),
            from: ProcessId(0),
            to: ProcessId(1),
        });
        t.push(TraceEvent::Step {
            at: 5,
            pid: ProcessId(1),
        });
        t
    }

    /// A trace of `n` step events whose times count up from 0.
    fn long_trace(n: usize) -> Trace<u32> {
        let mut t = Trace::new(true);
        for i in 0..n {
            t.push(TraceEvent::Step {
                at: i as Time,
                pid: ProcessId((i % 3) as u32),
            });
        }
        t
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t: Trace<u32> = Trace::new(false);
        t.push(TraceEvent::Step {
            at: 1,
            pid: ProcessId(0),
        });
        assert!(t.is_empty());
    }

    #[test]
    fn since_returns_suffix() {
        let t = sample_trace();
        assert_eq!(t.since(1).len(), 2);
        assert_eq!(t.since(3).len(), 0);
    }

    #[test]
    fn sends_between_filters() {
        let t = sample_trace();
        assert_eq!(t.sends_between(ProcessId(0), ProcessId(1), 0).len(), 1);
        assert_eq!(t.sends_between(ProcessId(1), ProcessId(0), 0).len(), 0);
    }

    #[test]
    fn event_times_are_accessible() {
        let t = sample_trace();
        let times: Vec<_> = t.events().iter().map(|e| e.at()).collect();
        assert_eq!(times, vec![0, 5, 5]);
    }

    #[test]
    fn render_lanes_draws_one_row_per_event() {
        let t = sample_trace();
        let s = t.render_lanes(2, &|p| format!("{p}"));
        // Header + 3 events.
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("m0→"));
        assert!(s.contains("▶m0"));
        assert!(s.contains("●"));
        assert!(s.contains("P0"));
        assert!(s.contains("P1"));
    }

    #[test]
    fn render_mentions_every_event() {
        let t = sample_trace();
        let s = t.render(&|p| format!("{p}"));
        assert!(s.contains("SEND"));
        assert!(s.contains("DELIVER"));
        assert!(s.contains("STEP"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn sealing_preserves_order_and_indexing() {
        let n = 3 * SEAL_CAP + 17;
        let t = long_trace(n);
        assert_eq!(t.len(), n);
        // event_at crosses segment boundaries correctly.
        for &i in &[0, 1, SEAL_CAP - 1, SEAL_CAP, 2 * SEAL_CAP, n - 1] {
            assert_eq!(t.event_at(i).at(), i as Time, "index {i}");
        }
        // The full materialized view matches the indexed view.
        let all = t.events();
        assert_eq!(all.len(), n);
        for (i, ev) in all.iter().enumerate() {
            assert_eq!(ev.at(), i as Time);
        }
    }

    #[test]
    fn since_borrows_inside_tail_and_copies_across_segments() {
        let n = SEAL_CAP + 10;
        let t = long_trace(n);
        // Inside the tail: a borrow.
        let v = t.since(SEAL_CAP + 2);
        assert!(matches!(v, TraceView::Borrowed(_)));
        assert_eq!(v.len(), 8);
        assert_eq!(v[0].at(), (SEAL_CAP + 2) as Time);
        // Across the boundary: a copy, same contents.
        let v = t.since(SEAL_CAP - 2);
        assert!(matches!(v, TraceView::Owned(_)));
        assert_eq!(v.len(), 12);
        assert_eq!(v[0].at(), (SEAL_CAP - 2) as Time);
    }

    #[test]
    fn clones_share_history_but_diverge_independently() {
        let mut a = long_trace(2 * SEAL_CAP + 5);
        let mut b = a.clone();
        a.push(TraceEvent::Step {
            at: 9001,
            pid: ProcessId(0),
        });
        b.push(TraceEvent::Step {
            at: 9002,
            pid: ProcessId(1),
        });
        b.push(TraceEvent::Step {
            at: 9003,
            pid: ProcessId(1),
        });
        assert_eq!(a.len(), 2 * SEAL_CAP + 6);
        assert_eq!(b.len(), 2 * SEAL_CAP + 7);
        assert_eq!(a.event_at(a.len() - 1).at(), 9001);
        assert_eq!(b.event_at(b.len() - 1).at(), 9003);
        // Shared history intact in both.
        assert_eq!(a.event_at(17).at(), 17);
        assert_eq!(b.event_at(17).at(), 17);
    }

    #[test]
    fn recycling_preserves_digest_and_counts() {
        use crate::sink::CountingSink;
        let n = 5 * SEAL_CAP + 123;
        let full = long_trace(n);
        let want = full.digest();

        // Stream the same events, draining sealed segments as they
        // appear (as the pipeline does), then flush the tail.
        let mut t: Trace<u32> = Trace::new(true);
        let mut sink = CountingSink::default();
        for i in 0..n {
            t.push(TraceEvent::Step {
                at: i as Time,
                pid: ProcessId((i % 3) as u32),
            });
            if i % (2 * SEAL_CAP) == 0 {
                t.drain_sealed(&mut sink);
                assert!(t.resident_segments() <= 2);
            }
        }
        t.drain_rest(&mut sink);
        assert_eq!(t.len(), n, "recycling must not change the logical length");
        assert_eq!(t.recycled_events(), n);
        assert_eq!(sink.events, n, "every event reaches the sink exactly once");
        assert_eq!(
            t.digest(),
            want,
            "recycled digest must equal full retention"
        );
    }

    #[test]
    fn drain_midway_keeps_digest_and_tail_indexing() {
        let n = 3 * SEAL_CAP + 7;
        let mut t = long_trace(n);
        let want = long_trace(n).digest();
        let mut sink = crate::sink::CountingSink::default();
        assert_eq!(t.drain_sealed(&mut sink), 3);
        assert_eq!(t.digest(), want);
        // Resident tail events stay addressable at their global index.
        assert_eq!(t.event_at(n - 1).at(), (n - 1) as Time);
        assert_eq!(t.since(3 * SEAL_CAP).len(), 7);
        // Pushes keep working after a drain; the digest keeps matching
        // a never-recycled twin.
        t.push(TraceEvent::Step {
            at: 9999,
            pid: ProcessId(0),
        });
        let mut twin = long_trace(n);
        twin.push(TraceEvent::Step {
            at: 9999,
            pid: ProcessId(0),
        });
        assert_eq!(t.digest(), twin.digest());
    }

    #[test]
    #[should_panic(expected = "recycled")]
    fn indexing_behind_the_recycle_frontier_panics() {
        let mut t = long_trace(2 * SEAL_CAP);
        let mut sink = crate::sink::CountingSink::default();
        t.drain_sealed(&mut sink);
        let _ = t.event_at(0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = long_trace(SEAL_CAP + 3);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        t.push(TraceEvent::Step {
            at: 1,
            pid: ProcessId(0),
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.event_at(0).at(), 1);
    }
}
