//! Streaming trace consumption: the sink side of the sim→check pipeline.
//!
//! The offline flow materializes a full trace (3M events at the 1M
//! tier) and only then checks it — the harness's own avoidable latency
//! floor. The streaming flow hands each sealed [`SEAL_CAP`]-event
//! segment to a [`SegmentSink`] the moment it seals, and the trace
//! *recycles* the segment: the events leave memory, but their
//! contribution to [`Trace::digest`] is folded into the running digest
//! state first, so the digest of a recycled trace is bit-identical to
//! the digest of a fully retained one. Peak memory becomes
//! O(undrained segments), not O(trace).
//!
//! Determinism contract: sinks observe segments in seal order, which is
//! append order, which the simulator guarantees is a pure function of
//! the seed. A sink must not feed anything back into the simulation;
//! it is a consumer, never an oracle.
//!
//! [`SEAL_CAP`]: crate::SEAL_CAP
//! [`Trace::digest`]: crate::Trace::digest

#![deny(unsafe_code)]

use crate::trace::Segment;

/// Consumes sealed trace segments as the simulation produces them.
///
/// Implementors receive every recorded event exactly once, in record
/// order, in segments of exactly [`crate::SEAL_CAP`] events (only the
/// final flush, `Trace::drain_rest`, may be shorter). The segment is
/// borrowed: a sink that needs the events beyond the call must copy out
/// what it keeps.
pub trait SegmentSink<M> {
    /// Accept one sealed segment, in record order.
    fn consume(&mut self, events: Segment<'_, M>);
}

/// A sink that counts what passed through and otherwise drops it: the
/// cheapest way to recycle memory, and the accounting used by the
/// peak-segments-resident measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Segments consumed.
    pub segments: usize,
    /// Events consumed.
    pub events: usize,
}

impl<M> SegmentSink<M> for CountingSink {
    fn consume(&mut self, events: Segment<'_, M>) {
        self.segments += 1;
        self.events += events.len();
    }
}

/// A sink that hands each segment to any `FnMut` — the glue between
/// trace recycling and code that extracts what it needs from each
/// segment (into a channel, say: the bounded channel of the streaming
/// pipeline lives in harness code; this adapter keeps the sim crate
/// free of any channel policy).
pub struct FnSink<F>(pub F);

impl<M, F: FnMut(Segment<'_, M>)> SegmentSink<M> for FnSink<F> {
    fn consume(&mut self, events: Segment<'_, M>) {
        (self.0)(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Trace, TraceEvent};
    use crate::types::ProcessId;

    /// A trace of `n` steps whose times count up from 0, drained into
    /// `sink` as whole segments.
    fn drain_steps<S: SegmentSink<u32>>(n: u64, sink: &mut S) {
        let mut t: Trace<u32> = Trace::new(true);
        for i in 0..n {
            t.push(TraceEvent::Step {
                at: i,
                pid: ProcessId(0),
            });
        }
        t.drain_rest(sink);
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        drain_steps(crate::SEAL_CAP as u64 + 2, &mut s);
        assert_eq!(s.segments, 2);
        assert_eq!(s.events, crate::SEAL_CAP + 2);
    }

    #[test]
    fn fn_sink_forwards_in_order() {
        let mut got: Vec<u64> = Vec::new();
        let mut s = FnSink(|events: Segment<'_, u32>| {
            got.extend(events.iter().map(|e| e.at()));
        });
        drain_steps(crate::SEAL_CAP as u64 + 4, &mut s);
        let want: Vec<u64> = (0..crate::SEAL_CAP as u64 + 4).collect();
        assert_eq!(got, want);
    }
}
