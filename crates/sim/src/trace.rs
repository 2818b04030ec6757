//! Execution traces.
//!
//! Every send, delivery, step and injection can be recorded. Traces are the
//! raw material for (a) the one-value / one-round audits in `cbf-model`,
//! (b) the figure renderers in `cbf-bench`, and (c) determinism tests
//! (same seed ⇒ identical trace).
//!
//! ## Two columns per segment
//!
//! Most events carry no message (`Step`, `Deliver`, `TimerFire` are
//! about 72 % of a Wren run), so an event enum with a `msg: M` slot
//! paid for the largest message on every one of them: 72 bytes an
//! event for a 48-byte `Msg`. A segment therefore keeps two columns:
//! fixed-size, payload-free records of 33 bytes (the tag,
//! the time, one message id, two process ids and one aux word), and a
//! `Vec<M>` holding only the messages of `Send` and `Inject`, which a
//! record names by its index in that column. Reads decode a record into
//! a borrowed [`TraceEvent`] whose `msg` is a `&M` into the column, so
//! no read clones a message.
//!
//! ## Sharing on fork
//!
//! The theorem machinery forks a [`World`](crate::World) thousands of
//! times per run, and each fork used to deep-copy the whole event log —
//! the dominant fork cost once a trace grows past a few thousand events.
//! The log is append-only, so history is shared structurally instead:
//! events accumulate in a mutable `tail`, and every [`SEAL_CAP`] events
//! the tail is sealed into an immutable [`Arc`] segment (its message
//! column trimmed to its length). Cloning a trace bumps the segment
//! refcounts and copies only the tail (< `SEAL_CAP` records and their
//! messages), making fork cost O(`SEAL_CAP`) instead of O(history).
//! Sealed segments are never mutated, so clones never observe each
//! other's appends.
//!
//! Because every sealed segment holds exactly `SEAL_CAP` events,
//! [`Trace::event_at`] is O(1) index arithmetic. Range reads
//! ([`Trace::events`], [`Trace::since`]) return a [`TraceView`]: a
//! borrowed index range that decodes events as it is read, whether the
//! range lies in the tail or crosses sealed segments.
//!
//! ## Digest
//!
//! [`Trace::digest`] fingerprints the event sequence a 64-bit word at a
//! time: each event's tag and envelope fields, then — for sends and
//! injections — the message's [`Payload`] bytes, length-prefixed and
//! zero-padded to whole words. No payload is formatted. The fold runs
//! over recycled segments as they drain, so recycling never changes the
//! digest.

use crate::actor::Payload;
use crate::sink::SegmentSink;
use crate::types::{MsgId, ProcessId, Time};
use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Events per sealed segment. Every sealed segment holds exactly this
/// many events, which is what makes [`Trace::event_at`] O(1).
pub const SEAL_CAP: usize = 512;

/// The digest's initial state.
const DIGEST_SEED: u64 = 0xcbf29ce484222325;
/// The digest's odd multiplier (2⁶⁴ / φ).
const DIGEST_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Mix one 64-bit word into the digest state: a 64 × 64 → 128-bit
/// multiply whose halves are folded together, so every input bit
/// reaches every state bit within one word.
#[inline]
fn mix(h: &mut u64, word: u64) {
    let m = u128::from(*h ^ word) * u128::from(DIGEST_MUL);
    *h = (m as u64) ^ ((m >> 64) as u64);
}

/// Mix a message's [`Payload`] bytes: their length, then the bytes in
/// 8-byte little-endian words, the last one zero-padded. The length
/// keeps `[1]` and `[1, 0]` apart. `buf` is scratch space reused across
/// events.
#[inline]
fn mix_payload<M: Payload>(h: &mut u64, buf: &mut Vec<u8>, msg: &M) {
    buf.clear();
    msg.payload(buf);
    mix(h, buf.len() as u64);
    let mut words = buf.chunks_exact(8);
    for w in &mut words {
        let mut b = [0; 8];
        b.copy_from_slice(w);
        mix(h, u64::from_le_bytes(b));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut b = [0; 8];
        b[..tail.len()].copy_from_slice(tail);
        mix(h, u64::from_le_bytes(b));
    }
}

/// Fold one event into the digest state, factored out so the recycled
/// prefix and the resident suffix use one code path.
///
/// The event is a sequence of 64-bit words: the variant tag, then one
/// word per envelope field (times, message ids, process ids, flags),
/// then — for the variants that carry one — the message's
/// [`Payload`] bytes (see [`mix_payload`]). Nothing is formatted: a
/// payload costs one multiply per 8 bytes. Changing this encoding changes every trace digest; the pinned
/// fixtures (`load_digests.txt` and the pin suites) are repinned
/// together with it.
fn fold_event<M: Payload>(h: &mut u64, buf: &mut Vec<u8>, ev: TraceEvent<'_, M>) {
    let pid = |p: ProcessId| u64::from(p.0);
    match ev {
        TraceEvent::Send {
            at,
            id,
            from,
            to,
            msg,
        } => {
            for w in [0, at, id.0, pid(from), pid(to)] {
                mix(h, w);
            }
            mix_payload(h, buf, msg);
        }
        TraceEvent::Deliver { at, id, from, to } => {
            for w in [1, at, id.0, pid(from), pid(to)] {
                mix(h, w);
            }
        }
        TraceEvent::Step { at, pid: p } => {
            for w in [2, at, pid(p)] {
                mix(h, w);
            }
        }
        TraceEvent::Inject { at, pid: p, msg } => {
            for w in [3, at, pid(p)] {
                mix(h, w);
            }
            mix_payload(h, buf, msg);
        }
        TraceEvent::TimerFire { at, pid: p } => {
            for w in [4, at, pid(p)] {
                mix(h, w);
            }
        }
        TraceEvent::Drop { at, id, from, to } => {
            for w in [5, at, id.0, pid(from), pid(to)] {
                mix(h, w);
            }
        }
        TraceEvent::Duplicate {
            at,
            id,
            of,
            from,
            to,
        } => {
            for w in [6, at, id.0, of.0, pid(from), pid(to)] {
                mix(h, w);
            }
        }
        TraceEvent::Partition { at, a, b, healed } => {
            for w in [7, at, pid(a), pid(b), u64::from(healed)] {
                mix(h, w);
            }
        }
        TraceEvent::Crash { at, pid: p } => {
            for w in [8, at, pid(p)] {
                mix(h, w);
            }
        }
        TraceEvent::Recover { at, pid: p } => {
            for w in [9, at, pid(p)] {
                mix(h, w);
            }
        }
    }
}

/// One recorded event, read through a borrowed view: `Send` and
/// `Inject` point into their segment's message column. `Copy`, so
/// reads hand events around by value.
#[derive(Debug, PartialEq)]
#[allow(missing_docs)] // fields are self-describing
pub enum TraceEvent<'a, M> {
    /// A process emitted a message during a computation step.
    Send {
        at: Time,
        id: MsgId,
        from: ProcessId,
        to: ProcessId,
        msg: &'a M,
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
    Inject {
        at: Time,
        pid: ProcessId,
        msg: &'a M,
    },
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

impl<M> Clone for TraceEvent<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for TraceEvent<'_, M> {}

impl<M> TraceEvent<'_, M> {
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

/// A record's variant; the discriminants are the digest's tag words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Tag {
    Send = 0,
    Deliver = 1,
    Step = 2,
    Inject = 3,
    TimerFire = 4,
    Drop = 5,
    Duplicate = 6,
    Partition = 7,
    Crash = 8,
    Recover = 9,
}

/// One event's payload-free record, packed to 33 bytes. `a` and
/// `b` are the two process ids (`from`/`to`, or `pid` alone); `aux` is
/// the message's index in the segment's message column for `Send` and
/// `Inject`, `of` for `Duplicate` and `healed` for `Partition`. Unused
/// fields are zero.
#[derive(Clone, Copy, Debug)]
#[repr(C, packed)]
struct Record {
    tag: Tag,
    at: Time,
    id: u64,
    a: u32,
    b: u32,
    aux: u64,
}

impl Record {
    /// Decode into a borrowed event; `msgs` is the record's segment's
    /// message column.
    #[inline(always)]
    fn event<'a, M>(&self, msgs: &'a [M]) -> TraceEvent<'a, M> {
        let Record {
            tag,
            at,
            id,
            a,
            b,
            aux,
        } = *self;
        let (id, a, b) = (MsgId(id), ProcessId(a), ProcessId(b));
        match tag {
            Tag::Send => TraceEvent::Send {
                at,
                id,
                from: a,
                to: b,
                msg: &msgs[aux as usize],
            },
            Tag::Deliver => TraceEvent::Deliver {
                at,
                id,
                from: a,
                to: b,
            },
            Tag::Step => TraceEvent::Step { at, pid: a },
            Tag::Inject => TraceEvent::Inject {
                at,
                pid: a,
                msg: &msgs[aux as usize],
            },
            Tag::TimerFire => TraceEvent::TimerFire { at, pid: a },
            Tag::Drop => TraceEvent::Drop {
                at,
                id,
                from: a,
                to: b,
            },
            Tag::Duplicate => TraceEvent::Duplicate {
                at,
                id,
                of: MsgId(aux),
                from: a,
                to: b,
            },
            Tag::Partition => TraceEvent::Partition {
                at,
                a,
                b,
                healed: aux != 0,
            },
            Tag::Crash => TraceEvent::Crash { at, pid: a },
            Tag::Recover => TraceEvent::Recover { at, pid: a },
        }
    }
}

/// One segment's two columns: records, and the messages of its `Send`
/// and `Inject` records in record order.
#[derive(Clone, Debug)]
struct Column<M> {
    recs: Vec<Record>,
    msgs: Vec<M>,
}

impl<M> Default for Column<M> {
    fn default() -> Self {
        Column {
            recs: Vec::new(),
            msgs: Vec::new(),
        }
    }
}

impl<M> Column<M> {
    /// Records `from..` of this column.
    fn view_from(&self, from: usize) -> Segment<'_, M> {
        Segment {
            recs: &self.recs[from..],
            msgs: &self.msgs,
        }
    }
}

/// A run of consecutive events inside one segment, borrowed. This is
/// what a [`SegmentSink`] receives.
pub struct Segment<'a, M> {
    recs: &'a [Record],
    /// The whole segment's message column: records index into it.
    msgs: &'a [M],
}

impl<M> Clone for Segment<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Segment<'_, M> {}

impl<'a, M> Segment<'a, M> {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True if the run holds no event.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// The events in order.
    pub fn iter(&self) -> TraceIter<'a, M> {
        TraceIter {
            recs: self.recs.iter(),
            msgs: self.msgs,
            rest: None,
            next: 0,
            end: 0,
        }
    }
}

impl<'a, M> IntoIterator for Segment<'a, M> {
    type Item = TraceEvent<'a, M>;
    type IntoIter = TraceIter<'a, M>;
    fn into_iter(self) -> TraceIter<'a, M> {
        self.iter()
    }
}

/// Iterator over borrowed events: the current segment's records, then
/// — for a [`TraceView`] — the later segments of the range.
pub struct TraceIter<'a, M> {
    recs: std::slice::Iter<'a, Record>,
    msgs: &'a [M],
    /// The trace the rest of the range lies in, if any.
    rest: Option<&'a Trace<M>>,
    /// Global index of the first event after `recs`.
    next: usize,
    /// Global index one past the range.
    end: usize,
}

impl<'a, M> Iterator for TraceIter<'a, M> {
    type Item = TraceEvent<'a, M>;

    // Always inlined, decode included: the decode's match then folds
    // into the reader's own match (a reader that wants sends tests one
    // tag), where a call per event made short audits several times
    // slower than iterating a slice of enums.
    #[inline(always)]
    fn next(&mut self) -> Option<TraceEvent<'a, M>> {
        loop {
            if let Some(r) = self.recs.next() {
                return Some(r.event(self.msgs));
            }
            if self.next >= self.end {
                return None;
            }
            let seg = next_run(self.rest?, self.next, self.end);
            self.next += seg.len();
            self.recs = seg.recs.iter();
            self.msgs = seg.msgs;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.recs.len() + (self.end - self.next);
        (n, Some(n))
    }
}

impl<M> ExactSizeIterator for TraceIter<'_, M> {}

/// The run of `trace` from `next` to the end of its segment or `end`:
/// the slow path of [`TraceIter::next`], taken when a range crosses
/// into a sealed segment. It takes and returns values, so the
/// iterator's state never leaves registers in the hot loop.
#[cold]
#[inline(never)]
fn next_run<M>(trace: &Trace<M>, next: usize, end: usize) -> Segment<'_, M> {
    trace.run(next, end)
}

/// A contiguous range of trace events, borrowed from the trace. Events
/// are decoded as they are read; nothing is copied, whether the range
/// lies in the tail or crosses sealed segments.
pub struct TraceView<'a, M> {
    trace: &'a Trace<M>,
    /// Global index of the first event.
    start: usize,
    /// Global index one past the last event.
    end: usize,
}

impl<M> Clone for TraceView<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for TraceView<'_, M> {}

impl<'a, M> TraceView<'a, M> {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the range holds no event.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The `i`-th event of the range. O(1).
    pub fn get(&self, i: usize) -> Option<TraceEvent<'a, M>> {
        (i < self.len()).then(|| self.trace.event_at(self.start + i))
    }

    /// The sub-range `range` of this range, as slicing would give it.
    /// Panics when the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> TraceView<'a, M> {
        let lo = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "trace view range out of bounds"
        );
        TraceView {
            trace: self.trace,
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// The events in order.
    pub fn iter(&self) -> TraceIter<'a, M> {
        // The first run is looked up here, so a range inside one segment
        // (most are: audits read what a transaction just did) never
        // takes the iterator's slow path.
        let first = if self.is_empty() {
            Segment {
                recs: &[],
                msgs: &[],
            }
        } else {
            self.trace.run(self.start, self.end)
        };
        TraceIter {
            recs: first.recs.iter(),
            msgs: first.msgs,
            rest: Some(self.trace),
            next: self.start + first.len(),
            end: self.end,
        }
    }
}

impl<'a, M> IntoIterator for TraceView<'a, M> {
    type Item = TraceEvent<'a, M>;
    type IntoIter = TraceIter<'a, M>;
    fn into_iter(self) -> TraceIter<'a, M> {
        self.iter()
    }
}

impl<M: fmt::Debug> fmt::Debug for TraceView<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An append-only log of events with structurally shared history (see
/// module docs).
#[derive(Clone, Debug)]
pub struct Trace<M> {
    /// Sealed history: each segment holds exactly [`SEAL_CAP`] events
    /// and is immutable from the moment it is sealed.
    segments: Vec<Arc<Column<M>>>,
    /// Events not yet sealed; always shorter than [`SEAL_CAP`].
    tail: Column<M>,
    enabled: bool,
    /// Events recycled through a [`SegmentSink`] and freed. Always a
    /// prefix of the logical event sequence; indices below this are no
    /// longer addressable.
    recycled: usize,
    /// Running digest state over the recycled prefix, so
    /// [`Trace::digest`] stays bit-identical to full retention.
    recycled_digest: u64,
}

impl<M> Trace<M> {
    /// Number of events logically before the tail: recycled events plus
    /// events in resident sealed segments.
    #[inline]
    fn sealed_len(&self) -> usize {
        self.recycled + self.segments.len() * SEAL_CAP
    }

    /// The segment holding resident event `i` and `i`'s offset in it.
    #[inline]
    fn locate(&self, i: usize) -> (&Column<M>, usize) {
        let rel = i
            .checked_sub(self.recycled)
            .expect("event was recycled through a SegmentSink");
        let resident_sealed = self.segments.len() * SEAL_CAP;
        if rel < resident_sealed {
            (&self.segments[rel / SEAL_CAP], rel % SEAL_CAP)
        } else {
            (&self.tail, rel - resident_sealed)
        }
    }

    /// The events from global index `i` to the end of `i`'s segment or
    /// to `end`, whichever comes first.
    #[inline]
    fn run(&self, i: usize, end: usize) -> Segment<'_, M> {
        let (col, off) = self.locate(i);
        let mut seg = col.view_from(off);
        seg.recs = &seg.recs[..seg.recs.len().min(end - i)];
        seg
    }

    /// The event at index `i` (panics when out of bounds *or recycled*).
    /// O(1): sealed segments have fixed size, so this is index
    /// arithmetic. Indices below [`Trace::recycled_events`] were handed
    /// to a sink and freed; streaming runs must not index behind the
    /// recycle frontier.
    #[inline]
    pub fn event_at(&self, i: usize) -> TraceEvent<'_, M> {
        let (col, off) = self.locate(i);
        col.recs[off].event(&col.msgs)
    }

    /// All *resident* events, in order: before any recycling this is
    /// every event; after recycling the freed prefix is gone and the
    /// view starts at the recycle frontier.
    pub fn events(&self) -> TraceView<'_, M> {
        self.since(0)
    }

    /// Iterate all resident events in order (see [`Trace::events`]).
    pub fn iter(&self) -> TraceIter<'_, M> {
        self.events().iter()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.sealed_len() + self.tail.recs.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events recorded after index `mark`; use with [`Trace::len`] to
    /// observe what a sub-execution did. A mark behind the recycle
    /// frontier yields only what is still resident. Panics when `mark`
    /// is past the end.
    pub fn since(&self, mark: usize) -> TraceView<'_, M> {
        let end = self.len();
        assert!(mark <= end, "mark {mark} is past the trace's end {end}");
        TraceView {
            trace: self,
            start: mark.max(self.recycled),
            end,
        }
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

    /// All `Send` events from `from` to `to` after index `mark`.
    pub fn sends_between(
        &self,
        from: ProcessId,
        to: ProcessId,
        mark: usize,
    ) -> Vec<TraceEvent<'_, M>> {
        self.since(mark)
            .iter()
            .filter(
                |e| matches!(*e, TraceEvent::Send { from: f, to: t, .. } if f == from && t == to),
            )
            .collect()
    }
}

impl<M: Clone + fmt::Debug + Payload> Trace<M> {
    /// A new trace; when `enabled` is false, pushes are dropped.
    pub fn new(enabled: bool) -> Self {
        Trace {
            segments: Vec::new(),
            tail: Column::default(),
            enabled,
            recycled: 0,
            recycled_digest: DIGEST_SEED,
        }
    }

    /// Record `ev`, copying its message (if any) into the tail's
    /// message column. A disabled trace copies nothing.
    #[inline]
    pub(crate) fn push(&mut self, ev: TraceEvent<'_, M>) {
        if !self.enabled {
            return;
        }
        let tail = &mut self.tail;
        let mut msg_index = |msg: &M| {
            tail.msgs.push(msg.clone());
            (tail.msgs.len() - 1) as u64
        };
        let (tag, at, id, a, b, aux) = match ev {
            TraceEvent::Send {
                at,
                id,
                from,
                to,
                msg,
            } => (Tag::Send, at, id, from, to, msg_index(msg)),
            TraceEvent::Deliver { at, id, from, to } => (Tag::Deliver, at, id, from, to, 0),
            TraceEvent::Step { at, pid } => (Tag::Step, at, MsgId(0), pid, ProcessId(0), 0),
            TraceEvent::Inject { at, pid, msg } => {
                (Tag::Inject, at, MsgId(0), pid, ProcessId(0), msg_index(msg))
            }
            TraceEvent::TimerFire { at, pid } => {
                (Tag::TimerFire, at, MsgId(0), pid, ProcessId(0), 0)
            }
            TraceEvent::Drop { at, id, from, to } => (Tag::Drop, at, id, from, to, 0),
            TraceEvent::Duplicate {
                at,
                id,
                of,
                from,
                to,
            } => (Tag::Duplicate, at, id, from, to, of.0),
            TraceEvent::Partition { at, a, b, healed } => {
                (Tag::Partition, at, MsgId(0), a, b, u64::from(healed))
            }
            TraceEvent::Crash { at, pid } => (Tag::Crash, at, MsgId(0), pid, ProcessId(0), 0),
            TraceEvent::Recover { at, pid } => (Tag::Recover, at, MsgId(0), pid, ProcessId(0), 0),
        };
        tail.recs.push(Record {
            tag,
            at,
            id: id.0,
            a: a.0,
            b: b.0,
            aux,
        });
        if tail.recs.len() == SEAL_CAP {
            let mut sealed = std::mem::take(tail);
            sealed.msgs.shrink_to_fit();
            self.segments.push(Arc::new(sealed));
        }
    }

    /// Drop all recorded events (keeps the enabled flag) and reset the
    /// recycle frontier and its digest state.
    pub fn clear(&mut self) {
        self.segments.clear();
        self.tail = Column::default();
        self.recycled = 0;
        self.recycled_digest = DIGEST_SEED;
    }

    /// Hand every *resident sealed* segment to `sink`, fold it into the
    /// running digest, and free it. Returns the number of segments
    /// drained. The tail (still mutable, shorter than [`SEAL_CAP`])
    /// stays put — call this periodically during a streaming run, then
    /// [`Trace::drain_rest`] once at the end.
    pub fn drain_sealed<S: SegmentSink<M> + ?Sized>(&mut self, sink: &mut S) -> usize {
        let n = self.segments.len();
        let mut buf = Vec::new();
        for seg in self.segments.drain(..) {
            let view = seg.view_from(0);
            sink.consume(view);
            for ev in view {
                fold_event(&mut self.recycled_digest, &mut buf, ev);
            }
            self.recycled += view.len();
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
        if !self.tail.recs.is_empty() {
            let tail = std::mem::take(&mut self.tail);
            let view = tail.view_from(0);
            sink.consume(view);
            let mut buf = Vec::new();
            for ev in view {
                fold_event(&mut self.recycled_digest, &mut buf, ev);
            }
            self.recycled += view.len();
            n += 1;
        }
        n
    }

    /// A 64-bit digest of the whole trace: each event's envelope fields
    /// and its message's [`Payload`] bytes, folded a word at a time (see
    /// `fold_event`). Two runs with the same digest took the same
    /// schedule; the determinism sweeps compare these, and a chaos
    /// failure is replayed by matching its digest from the same seed.
    pub fn digest(&self) -> u64 {
        // The fold is sequential over the event stream, so the state
        // folded in at recycle time continues seamlessly over the
        // resident suffix: recycling never changes the digest.
        let mut h = self.recycled_digest;
        let mut buf = Vec::new();
        for ev in self.iter() {
            fold_event(&mut h, &mut buf, ev);
        }
        h
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
                    names(from),
                    names(to),
                    msg
                ),
                TraceEvent::Deliver { at, id, from, to } => format!(
                    "{:>12} ns  DELIVER {:?} {} -> {}",
                    at,
                    id,
                    names(from),
                    names(to)
                ),
                TraceEvent::Step { at, pid } => {
                    format!("{:>12} ns  STEP    {}", at, names(pid))
                }
                TraceEvent::Inject { at, pid, msg } => {
                    format!("{:>12} ns  INJECT  {}  {:?}", at, names(pid), msg)
                }
                TraceEvent::TimerFire { at, pid } => {
                    format!("{:>12} ns  TIMER   {}", at, names(pid))
                }
                TraceEvent::Drop { at, id, from, to } => format!(
                    "{:>12} ns  DROP    {:?} {} -> {}",
                    at,
                    id,
                    names(from),
                    names(to)
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
                    names(from),
                    names(to)
                ),
                TraceEvent::Partition { at, a, b, healed } => format!(
                    "{:>12} ns  {} {} <-> {}",
                    at,
                    if healed { "HEAL   " } else { "PARTIT " },
                    names(a),
                    names(b)
                ),
                TraceEvent::Crash { at, pid } => {
                    format!("{:>12} ns  CRASH   {}", at, names(pid))
                }
                TraceEvent::Recover { at, pid } => {
                    format!("{:>12} ns  RECOVER {}", at, names(pid))
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
                    lane(&mut cols, from, &format!("{id:?}→"));
                    format!(
                        "t={at:>9} {} sends {id:?} to {}: {:?}",
                        names(from),
                        names(to),
                        msg
                    )
                }
                TraceEvent::Deliver { at, id, from, to } => {
                    lane(&mut cols, to, &format!("▶{id:?}"));
                    format!(
                        "t={at:>9} {} receives {id:?} from {}",
                        names(to),
                        names(from)
                    )
                }
                TraceEvent::Step { at, pid } => {
                    lane(&mut cols, pid, "●");
                    format!("t={at:>9} {} takes a step", names(pid))
                }
                TraceEvent::Inject { at, pid, msg } => {
                    lane(&mut cols, pid, "◆");
                    format!("t={at:>9} {} invoked: {:?}", names(pid), msg)
                }
                TraceEvent::TimerFire { at, pid } => {
                    lane(&mut cols, pid, "⏲");
                    format!("t={at:>9} {} timer fires", names(pid))
                }
                TraceEvent::Drop { at, id, from, to } => {
                    lane(&mut cols, to, &format!("✗{id:?}"));
                    format!(
                        "t={at:>9} {id:?} from {} to {} dropped",
                        names(from),
                        names(to)
                    )
                }
                TraceEvent::Duplicate {
                    at,
                    id,
                    of,
                    from,
                    to,
                } => {
                    lane(&mut cols, from, &format!("{id:?}⧉"));
                    format!(
                        "t={at:>9} {} duplicate of {of:?} to {} travels as {id:?}",
                        names(from),
                        names(to)
                    )
                }
                TraceEvent::Partition { at, a, b, healed } => {
                    lane(&mut cols, a, if healed { "═" } else { "╳" });
                    lane(&mut cols, b, if healed { "═" } else { "╳" });
                    format!(
                        "t={at:>9} link {} <-> {} {}",
                        names(a),
                        names(b),
                        if healed { "heals" } else { "partitions" }
                    )
                }
                TraceEvent::Crash { at, pid } => {
                    lane(&mut cols, pid, "☠");
                    format!("t={at:>9} {} crashes", names(pid))
                }
                TraceEvent::Recover { at, pid } => {
                    lane(&mut cols, pid, "↺");
                    format!("t={at:>9} {} recovers", names(pid))
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
mod differential;

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
            msg: &9,
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
    fn since_reads_inside_tail_and_across_segments() {
        let n = SEAL_CAP + 10;
        let t = long_trace(n);
        // Inside the tail.
        let v = t.since(SEAL_CAP + 2);
        assert_eq!(v.len(), 8);
        assert_eq!(v.get(0).unwrap().at(), (SEAL_CAP + 2) as Time);
        // Across the boundary: the same borrowed view, same contents.
        let v = t.since(SEAL_CAP - 2);
        assert_eq!(v.len(), 12);
        assert_eq!(v.get(0).unwrap().at(), (SEAL_CAP - 2) as Time);
        let times: Vec<Time> = v.iter().map(|e| e.at()).collect();
        let want: Vec<Time> = (SEAL_CAP - 2..n).map(|i| i as Time).collect();
        assert_eq!(times, want);
        assert_eq!(v.slice(4..).get(0).unwrap().at(), (SEAL_CAP + 2) as Time);
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

    /// A payload that is its bytes, verbatim.
    #[derive(Clone, Debug)]
    struct Bytes(Vec<u8>);
    impl Payload for Bytes {
        fn payload(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
    }

    fn digest_of_inject(bytes: &[u8]) -> u64 {
        let mut t = Trace::new(true);
        t.push(TraceEvent::Inject {
            at: 3,
            pid: ProcessId(1),
            msg: &Bytes(bytes.to_vec()),
        });
        t.digest()
    }

    #[test]
    fn payload_length_and_padded_tail_are_folded() {
        // Equal after zero-padding to whole words; apart by length.
        assert_ne!(digest_of_inject(&[0; 8]), digest_of_inject(&[0; 9]));
        assert_ne!(digest_of_inject(&[1]), digest_of_inject(&[1, 0]));
        assert_ne!(digest_of_inject(&[]), digest_of_inject(&[0]));
        // The tail word carries its bytes, little-endian.
        assert_ne!(digest_of_inject(&[1, 2, 3]), digest_of_inject(&[3, 2, 1]));
        assert_eq!(digest_of_inject(&[7; 13]), digest_of_inject(&[7; 13]));
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
