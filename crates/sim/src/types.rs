//! Core identifier and time types shared by the whole simulator.

use crate::fault::FaultPlan;
use std::fmt;

/// Virtual time, in nanoseconds since the start of the execution.
///
/// The simulator is a discrete-event system: time only advances when an
/// event is processed, and two events never race. All latency models and
/// timers are expressed in this unit.
pub type Time = u64;

/// One virtual microsecond.
pub const MICROS: Time = 1_000;
/// One virtual millisecond.
pub const MILLIS: Time = 1_000_000;
/// One virtual second.
pub const SECONDS: Time = 1_000_000_000;

/// Identifies a process (a client or a server) in the system graph.
///
/// The paper models the system as an undirected graph whose nodes are
/// processes; links connect every pair of processes. `ProcessId` is the
/// node label.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// The numeric index of this process.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Globally unique identifier of a message instance.
///
/// Assigned in send order; never reused. The adversary uses `MsgId`s to
/// pick exactly which in-flight message to deliver next.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId(pub u64);

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// An undirected-graph link endpoint pair, stored directed (src → dst)
/// because buffers are per direction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub struct Link {
    pub src: ProcessId,
    pub dst: ProcessId,
}

impl Link {
    #[inline]
    /// The directed link from `src` to `dst`.
    pub fn new(src: ProcessId, dst: ProcessId) -> Self {
        Link { src, dst }
    }
}

/// A per-server service-time model: each message delivered to a server
/// process occupies that server for `service_time` of virtual time, and
/// a message arriving while the server is busy queues behind the work in
/// front of it. Deliveries to non-server processes (clients, drivers)
/// are unaffected.
///
/// This makes delivery latency *load-dependent*: under contention a hot
/// server's queue grows and its percentile tail stretches, which is what
/// separates a latency-optimal protocol from one paying extra server
/// rounds. The model is deterministic — queueing delay is a pure
/// function of the arrival schedule — so traces and digests stay
/// replayable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceModel {
    /// Processes `0..servers` are servers and queue; the rest do not.
    pub servers: u32,
    /// Virtual time one message occupies its server (M/D/1-style
    /// deterministic service).
    pub service_time: Time,
}

/// Counters for the service-time model, reported by
/// [`crate::World::service_stats`]. All zeros when no model is
/// configured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Messages that passed through a server's service queue.
    pub served: u64,
    /// Of those, how many found the server busy and had to wait.
    pub delayed: u64,
    /// The largest queueing wait (virtual ns) any message experienced,
    /// excluding its own service time.
    pub max_wait: Time,
}

/// Simulator-wide configuration knobs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Record a full trace of sends/deliveries/steps. Turn off in
    /// throughput benchmarks; required by the figure renderers and the
    /// one-value audit.
    pub record_trace: bool,
    /// Enforce the paper's step semantics (at most one message per
    /// neighbour per computation step) with a panic in debug builds.
    pub strict_steps: bool,
    /// Deliver messages on each directed link in FIFO order in the
    /// automatic scheduler. The paper's network is non-FIFO; protocols in
    /// this workspace carry explicit dependencies and do not need FIFO,
    /// but deterministic FIFO is convenient for some tests.
    pub fifo_links: bool,
    /// Hard cap on events processed by any `run_*` call, as a runaway
    /// guard. Exceeding it is reported as [`RunOutcome::EventLimit`].
    pub max_events: u64,
    /// Optional nemesis: a seeded, replayable schedule of message drops,
    /// duplicates, link partitions and process crashes. `None` (the
    /// default) is a fault-free network.
    pub fault: Option<FaultPlan>,
    /// Optional per-server service-time/queueing model. `None` (the
    /// default) delivers at the sampled network latency with no
    /// queueing, exactly as before the model existed.
    pub service: Option<ServiceModel>,
    /// Record `Inject` events in the trace. Injections are harness
    /// inputs, not network behaviour — the million-client exhibits turn
    /// this off so the trace (and its digest) covers exactly the
    /// sends, deliveries and steps of the simulated system, at one
    /// less recorded event (and one less message clone) per driven op.
    /// On by default: existing pinned digests include injections.
    pub trace_injects: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            record_trace: true,
            strict_steps: false,
            fifo_links: false,
            max_events: 10_000_000,
            fault: None,
            service: None,
            trace_injects: true,
        }
    }
}

/// Why a `run_*` call returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// No deliverable message, no pending timer: the system is quiescent
    /// (up to held links, whose messages stay frozen in transit).
    Quiescent,
    /// The supplied predicate became true.
    Predicate,
    /// Virtual time reached the requested horizon.
    Horizon,
    /// The event cap was hit before anything else; almost always a bug in
    /// the protocol under test (e.g. a heartbeat storm).
    EventLimit,
}

impl RunOutcome {
    /// True when the run ended for the reason the caller was waiting for.
    #[inline]
    pub fn is_settled(self) -> bool {
        matches!(self, RunOutcome::Quiescent | RunOutcome::Predicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_formats_compactly() {
        assert_eq!(format!("{:?}", ProcessId(3)), "P3");
        assert_eq!(format!("{}", ProcessId(3)), "P3");
    }

    #[test]
    fn msg_id_formats_compactly() {
        assert_eq!(format!("{:?}", MsgId(42)), "m42");
    }

    #[test]
    fn default_config_records_traces() {
        let c = SimConfig::default();
        assert!(c.record_trace);
        assert!(!c.strict_steps);
        assert!(c.max_events > 0);
    }

    #[test]
    fn run_outcome_settled() {
        assert!(RunOutcome::Quiescent.is_settled());
        assert!(RunOutcome::Predicate.is_settled());
        assert!(!RunOutcome::Horizon.is_settled());
        assert!(!RunOutcome::EventLimit.is_settled());
    }

    #[test]
    fn time_unit_relationships() {
        assert_eq!(MILLIS, 1000 * MICROS);
        assert_eq!(SECONDS, 1000 * MILLIS);
    }
}
