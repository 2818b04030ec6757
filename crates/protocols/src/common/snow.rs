//! The link from each protocol to its row in the paper's Table 1.
//!
//! A protocol's `(R, V, N, W)` tuple is never written down: `snowlint`
//! derives it from the handler code and `audit_rot` measures it at
//! runtime. What neither can recover is *which* published row a module
//! reproduces, so that — and only that — is recorded here, once.
//! `snowlint` parses these literals, keyed by the module's literal
//! `ProtocolNode::NAME`; the Table 1 audits read them at runtime.

/// One protocol's Table 1 link.
#[derive(Clone, Copy, Debug)]
pub struct SnowLink {
    /// `ProtocolNode::NAME` (the naive family's NAME varies per phase
    /// count, so its claimants share one row).
    pub system: &'static str,
    /// The system's row in `cbf_core::paper_table1()`, or `None` for
    /// artifacts with no published row.
    pub paper_row: Option<&'static str>,
}

/// Every protocol module's link, in module order.
#[rustfmt::skip]
pub static SNOW_LINKS: [SnowLink; 14] = [
    SnowLink { system: "Calvin", paper_row: Some("Calvin") },
    SnowLink { system: "Contrarian", paper_row: Some("Contrarian") },
    SnowLink { system: "COPS", paper_row: Some("COPS") },
    SnowLink { system: "COPS-RW (§3.4)", paper_row: None },
    SnowLink { system: "COPS-SNOW", paper_row: Some("COPS-SNOW") },
    SnowLink { system: "Cure", paper_row: Some("Cure") },
    SnowLink { system: "Eiger", paper_row: Some("Eiger") },
    SnowLink { system: "GentleRain", paper_row: Some("GentleRain") },
    SnowLink { system: "naive claimant family", paper_row: None },
    SnowLink { system: "Occult", paper_row: Some("Occult") },
    SnowLink { system: "pinned (†-style)", paper_row: Some("SwiftCloud") },
    SnowLink { system: "RAMP", paper_row: Some("RAMP") },
    SnowLink { system: "Spanner-like", paper_row: Some("Spanner") },
    SnowLink { system: "Wren", paper_row: Some("Wren") },
];
