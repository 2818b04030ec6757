//! # cbf-core — the impossibility theorem, executable
//!
//! The primary contribution of *Distributed Transactional Systems Cannot
//! Be Fast* as running machinery:
//!
//! * [`setup`] — Figure 1 (`Qin → Q0 → C0`);
//! * [`visibility`] — Definition 2 as forked-world probes;
//! * [`attack`] — the contradictory execution `γ` (Figure 3), generic
//!   over protocols: it catches the naive claimants with the forbidden
//!   mixed snapshot and documents each real system's escape hatch;
//! * [`induction`] — Lemma 3: the prefixes `α_k` of the troublesome
//!   infinite execution, with the forced inter-server messages `ms_k`;
//! * [`general`] — Theorem 2 (Appendix A): the same impossibility on
//!   partially replicated deployments with any number of servers;
//! * [`audit`] — the property auditor regenerating Table 1 rows from
//!   measurements, plus the paper's reference table.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attack;
pub mod audit;
pub mod general;
pub mod induction;
pub mod setup;
pub mod visibility;

pub use attack::{
    attack_all_servers, attack_excerpt, mixed_snapshot_attack, AttackOutcome, SnapshotKind,
};
pub use audit::{audit_protocol, audit_protocol_on, paper_table1, PaperRow, SystemRow};
pub use general::{general_topologies, run_general, run_theorem_general, GeneralReport};
pub use induction::{run_theorem, Conclusion, InductionStep, TheoremReport};
pub use setup::{minimal_topology, setup_c0, TheoremSetup};
pub use visibility::{fast_visible, is_visible, probe_reads, ProbeSchedule};
