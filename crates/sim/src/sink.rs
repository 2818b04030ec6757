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

use crate::trace::TraceEvent;

/// Consumes sealed trace segments as the simulation produces them.
///
/// Implementors receive every recorded event exactly once, in record
/// order, in slices of exactly [`crate::SEAL_CAP`] events (only a final
/// explicit flush may be shorter — see `Trace::drain_all` in the trace
/// module). The slice is borrowed: a sink that needs the events beyond
/// the call must copy them (or forward them into a channel).
pub trait SegmentSink<M> {
    /// Accept one sealed segment, in record order.
    fn consume(&mut self, events: &[TraceEvent<M>]);
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
    fn consume(&mut self, events: &[TraceEvent<M>]) {
        self.segments += 1;
        self.events += events.len();
    }
}

/// A sink that forwards each segment's events into any `FnMut` — the
/// glue between trace recycling and a channel sender (the bounded
/// channel of the streaming pipeline lives in harness code; this
/// adapter keeps the sim crate free of any channel policy).
pub struct FnSink<F>(pub F);

impl<M: Clone, F: FnMut(Vec<TraceEvent<M>>)> SegmentSink<M> for FnSink<F> {
    fn consume(&mut self, events: &[TraceEvent<M>]) {
        (self.0)(events.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProcessId;

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        let seg: Vec<TraceEvent<u32>> = (0..4)
            .map(|i| TraceEvent::Step {
                at: i,
                pid: ProcessId(0),
            })
            .collect();
        SegmentSink::<u32>::consume(&mut s, &seg);
        SegmentSink::<u32>::consume(&mut s, &seg[..2]);
        assert_eq!(s.segments, 2);
        assert_eq!(s.events, 6);
    }

    #[test]
    fn fn_sink_forwards_in_order() {
        let mut got: Vec<u64> = Vec::new();
        {
            let mut s = FnSink(|events: Vec<TraceEvent<u32>>| {
                got.extend(events.iter().map(|e| e.at()));
            });
            for chunk in [[0u64, 1], [2, 3]] {
                let seg: Vec<TraceEvent<u32>> = chunk
                    .iter()
                    .map(|&i| TraceEvent::Step {
                        at: i,
                        pid: ProcessId(0),
                    })
                    .collect();
                s.consume(&seg);
            }
        }
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
