//! # snowbound
//!
//! An executable reproduction of **“Distributed Transactional Systems
//! Cannot Be Fast”** (Didona, Fatourou, Guerraoui, Wang, Zwaenepoel —
//! SPAA 2019): no causally consistent distributed storage system can
//! provide fast read-only transactions (one-round, non-blocking,
//! one-value) *and* multi-object write transactions.
//!
//! The workspace turns every moving part of the paper into code:
//!
//! * [`sim`] — the asynchronous message-passing system model as a
//!   deterministic, forkable discrete-event simulator;
//! * [`model`] — histories, causal consistency (Definition 1) as a
//!   checker validated against an exhaustive search, and the fast-ROT
//!   property audits (Definition 4/5);
//! * [`protocols`] — the design space of §3.4 / Table 1: COPS,
//!   COPS-SNOW, Eiger, Wren, a Spanner-like design, the fat-message
//!   N+R+W sketch, and a family of "impossible claimants";
//! * [`theorem`] — the paper's contribution as machinery: Figure 1
//!   setup, Definition 2 visibility probes, the contradictory execution
//!   `γ`, the Lemma 3 induction, Theorem 2 on partial replication, and
//!   a property auditor that regenerates Table 1 from measurements;
//! * [`workloads`] — seeded Zipfian/YCSB-style generators;
//! * [`driver`] — runs generated workloads against any protocol.
//!
//! ## Quickstart
//!
//! ```
//! use snowbound::prelude::*;
//!
//! // Deploy Wren (causal, multi-object write txs, 2-round reads) on the
//! // paper's minimal topology: two servers, two objects.
//! let mut db: Cluster<WrenNode> = Cluster::new(Topology::minimal(4));
//! let w = db.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
//! db.world.run_for(cbf_sim::MILLIS); // let the snapshot stabilize
//! let r = db.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
//! assert_eq!(r.reads[0].1, w.writes[0].1);
//! assert_eq!(r.audit.rounds, 2);      // Wren's price for W: a round
//! assert!(db.check().is_ok());        // the history is causal
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;

pub use cbf_core as theorem;
pub use cbf_model as model;
pub use cbf_protocols as protocols;
pub use cbf_sim as sim;
pub use cbf_workloads as workloads;

/// Everything most programs need, in one import.
pub mod prelude {
    pub use crate::driver::{drive, RunSummary};
    pub use cbf_core::{
        attack_all_servers, audit_protocol, audit_protocol_on, is_visible, mixed_snapshot_attack,
        run_general, run_theorem, setup_c0, Conclusion, SnapshotKind,
    };
    pub use cbf_model::{
        check_causal, ClientId, History, Key, PropertyProfile, RotAudit, TxId, Value,
    };
    pub use cbf_protocols::calvin::CalvinNode;
    pub use cbf_protocols::contrarian::ContrarianNode;
    pub use cbf_protocols::cops::CopsNode;
    pub use cbf_protocols::cops_rw::CopsRwNode;
    pub use cbf_protocols::cops_snow::CopsSnowNode;
    pub use cbf_protocols::cure::CureNode;
    pub use cbf_protocols::eiger::EigerNode;
    pub use cbf_protocols::gentlerain::GentleRainNode;
    pub use cbf_protocols::naive::{NaiveFast, NaiveNode, NaiveTwoPhase};
    pub use cbf_protocols::occult::OccultNode;
    pub use cbf_protocols::pinned::PinnedNode;
    pub use cbf_protocols::ramp::RampNode;
    pub use cbf_protocols::spanner::SpannerNode;
    pub use cbf_protocols::wren::WrenNode;
    pub use cbf_protocols::{Cluster, ProtocolNode, Topology, TxError};
    pub use cbf_workloads::{Mix, Op, Workload, WorkloadSpec};
}
