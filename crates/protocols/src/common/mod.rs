//! Shared substrate for every protocol implementation: cluster layout,
//! logical clocks, the multi-version storage engine, the uniform protocol
//! interface, and the generic deployment facade with trace-based audits.

pub mod api;
pub mod clock;
pub mod cluster;
pub mod snow;
pub mod store;
pub mod topology;
pub mod wire;

pub use api::{Completed, ProtocolNode, TxError};
pub use snow::SnowLink;
pub use wire::{Wire, WireError, MAX_SEQ_LEN};

/// Maximum client retry attempts when [`Topology::retry_after`] is set.
/// With exponential doubling the total retry window is
/// `retry_after * (2^MAX_RETRIES - 1)` virtual ns — for a 1 ms base that
/// is ~1.02 s, well inside the harness horizons.
pub const MAX_RETRIES: u32 = 10;

/// Count the per-object multiplicity of carried values: the `V` metric
/// is the maximum number of values a message carries for one object.
pub fn max_values_per_object(keys: impl Iterator<Item = cbf_model::Key>) -> u32 {
    let mut counts: std::collections::HashMap<cbf_model::Key, u32> = Default::default();
    let mut max = 0;
    for k in keys {
        let c = counts.entry(k).or_insert(0);
        *c += 1;
        max = max.max(*c);
    }
    max
}
pub use clock::{HybridClock, LamportClock, TrueTime};
pub use cluster::{audit_rot, count_rounds, Cluster, InFlightTx, RotResult, WtxResult};
pub use store::{MvStore, Version};
pub use topology::Topology;
