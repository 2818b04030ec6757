//! # cbf-protocols — the design space of §3.4 and Table 1
//!
//! Implementations of distributed transactional KV protocols on the
//! `cbf-sim` substrate, all speaking the same [`ProtocolNode`] interface
//! so the auditor and the theorem machinery can drive any of them.
//!
//! | module | models | properties |
//! |---|---|---|
//! | [`naive`] | impossible claimants | claim N+R+V+W (the theorem breaks them) |
//! | [`cops`] | COPS-GT | N, R≤2, V, no W |
//! | [`cops_snow`] | COPS-SNOW | **fast ROTs** (N+R+V), no W |
//! | [`eiger`] | Eiger | N, R≤3, V≤2, W |
//! | [`wren`] | Wren | N, R=2, V, W |
//! | [`cops_rw`] | §3.4 N+R+W sketch | N, R=1, V≫1, W |
//! | [`spanner`] | Spanner | R=1, V, W, blocking |
//! | [`contrarian`] | Contrarian | N, R=2, V, no W |
//! | [`gentlerain`] | GentleRain | R=2, V, no W, blocking |
//! | [`ramp`] | RAMP | N, R≤2, W — read atomicity, *not* causal |
//! | [`pinned`] | SwiftCloud/Eiger-PS (†) | fast + W + causal — but no minimal progress |
//! | [`occult`] | Occult | N, R≥1 (client retries), W — per-client PSI |
//! | [`cure`] | Cure | R=2, V, W, blocking |
//! | [`calvin`] | Calvin | sequencer-ordered, W, blocking, strict-ser — no 2PC |

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calvin;
pub mod common;
pub mod contrarian;
pub mod cops;
pub mod cops_rw;
pub mod cops_snow;
pub mod cure;
pub mod eiger;
pub mod gentlerain;
pub mod naive;
pub mod occult;
pub mod pinned;
pub mod ramp;
pub mod spanner;
pub mod wren;

pub use common::{
    Cluster, Completed, InFlightTx, ProtocolNode, RotResult, SnowLink, Topology, TxError, Wire,
    WireError, WtxResult,
};
pub use naive::{NaiveFast, NaiveFourPhase, NaiveNode, NaiveThreePhase, NaiveTwoPhase};

/// Every protocol module's Table 1 link ([`SnowLink`]), in module
/// order: the one table `snowlint` and the Table 1 audits both read.
pub fn all_snow_decls() -> &'static [SnowLink] {
    &common::snow::SNOW_LINKS
}
