//! Shared substrate for every protocol implementation: cluster layout,
//! logical clocks, the multi-version storage engine, the uniform protocol
//! interface, and the generic deployment facade with trace-based audits.

pub mod api;
pub mod clock;
pub mod cluster;
pub mod snow;
pub mod store;
pub mod topology;
pub mod tx;
pub mod wire;

pub use api::{Completed, ProtocolNode, TxError};
pub use snow::SnowLink;
pub use wire::{Payload, Wire, WireError, MAX_SEQ_LEN};

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
pub use topology::{Topology, MAX_RETRIES};
pub use tx::{Gather, Tally};
