//! # cbf-sim — the system model of *Distributed Transactional Systems
//! Cannot Be Fast*, executable
//!
//! A deterministic discrete-event simulator of the paper's asynchronous
//! message-passing model (§2 *System model*):
//!
//! * processes (clients and servers) are state machines with income and
//!   outcome buffers, connected pairwise by reliable links;
//! * a **computation step** reads all delivered messages, performs local
//!   computation, and may send at most one message per neighbour;
//! * a **delivery event** moves a message from the link to the
//!   destination's income buffer;
//! * the order of events is controlled by an **adversary** — here, either
//!   a virtual-time scheduler with seeded latencies (for measurement), a
//!   seeded random interleaver (for schedule exploration), or fully manual
//!   control (for the impossibility proof's constructions).
//!
//! Configurations are first-class: [`World`] is `Clone`, so the paper's
//! arguments over configurations ("fork `C`, run a probe transaction, see
//! what it returns") are literally runnable.
//!
//! ```
//! use cbf_sim::{Actor, Ctx, ProcessId, World};
//!
//! #[derive(Clone)]
//! struct Counter(u64);
//! impl Actor for Counter {
//!     type Msg = u64;
//!     fn step(&mut self, ctx: &mut Ctx<u64>) {
//!         for env in ctx.recv() {
//!             self.0 += env.msg;
//!         }
//!     }
//! }
//!
//! let mut w = World::with_defaults(vec![Counter(0), Counter(0)]);
//! w.inject(ProcessId(0), 5);
//! w.run_until_quiescent();
//! assert_eq!(w.actor(ProcessId(0)).0, 5);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod actor;
mod fault;
mod latency;
mod sink;
mod trace;
mod types;
mod world;

pub use actor::{Actor, Ctx, Envelope, Payload};
pub use fault::{Crash, FaultPlan, Partition};
pub use latency::{LatencyKind, LatencyModel};
pub use sink::{CountingSink, FnSink, SegmentSink};
pub use trace::{Segment, Trace, TraceEvent, TraceIter, TraceView, SEAL_CAP};
pub use types::{
    Link, MsgId, ProcessId, RunOutcome, ServiceModel, ServiceStats, SimConfig, Time, MICROS,
    MILLIS, SECONDS,
};
pub use world::{forks_taken, Choice, Flight, ProcStats, World, WorldStats};
