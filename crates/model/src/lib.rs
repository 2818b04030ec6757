//! # cbf-model — the formal model of *Distributed Transactional Systems
//! Cannot Be Fast*
//!
//! Everything in §2 of the paper, as data types and decision procedures:
//!
//! * [`TxSpec`], [`TxRecord`], [`History`] — static transactions and the
//!   histories executions induce;
//! * [`CausalOrder`] — program order, the reads-from relation, and their
//!   transitive closure `<c`;
//! * [`check_causal`] — a polynomial-time checker for Definition 1
//!   (causal consistency) under distinct written values, with
//!   [`check_causal_exhaustive`] as the literal-search oracle it is
//!   validated against;
//! * session-guarantee checkers ([`check_read_your_writes`],
//!   [`check_monotonic_reads`], [`check_read_atomicity`]) for localizing
//!   protocol bugs and characterizing weaker systems;
//! * [`RotAudit`] / [`PropertyProfile`] — Definition 4's fast-ROT
//!   properties (one-round, non-blocking, one-value) as *measurements*.
//!
//! ```
//! use cbf_model::{check_causal, history::tx, History};
//!
//! // The paper's forbidden mixed snapshot: new X1 with old X0.
//! let h: History = vec![
//!     tx(0, 0, &[], &[(0, 1)]),             // T_in_0: w(X0)=1
//!     tx(1, 1, &[], &[(1, 2)]),             // T_in_1: w(X1)=2
//!     tx(2, 2, &[(0, 1), (1, 2)], &[]),     // T_in_r by cw
//!     tx(3, 2, &[], &[(0, 10), (1, 11)]),   // Tw by cw
//!     tx(4, 3, &[(0, 1), (1, 11)], &[]),    // Tr: old X0, new X1
//! ].into_iter().collect();
//! assert!(!check_causal(&h).is_ok());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod checker;
pub mod exhaustive;
pub mod freshness;
pub mod history;
pub mod incremental;
pub mod relations;
pub mod session;
pub mod streaming;
pub mod types;

pub use audit::{ConsistencyLevel, PropertyProfile, RotAudit, WtxAudit};
pub use checker::{check_causal, check_causal_legacy, Verdict, Violation};
pub use exhaustive::{check_causal_exhaustive, Exhaustive};
pub use freshness::{measure_freshness, FreshnessReport};
pub use history::{History, TxRecord, TxSpec};
pub use incremental::{
    check_causal_incremental, CausalChecker, FallbackCounts, GcStats, ResidentStats,
};
pub use relations::{CausalOrder, ReadIndex, ReadsFrom, Relation};
pub use session::{
    check_monotonic_reads, check_read_atomicity, check_read_your_writes, SessionViolation,
};
pub use streaming::ShardedChecker;
pub use types::{ClientId, Key, TxId, Value};
