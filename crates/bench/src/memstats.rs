//! Shared memory self-measurement for the bench exhibits.
//!
//! Every long-running exhibit wants the same two numbers — the process
//! peak RSS (`VmHWM`, a high-water mark over the whole process
//! lifetime) and the *current* RSS (`VmRSS`, the number that must stay
//! flat for the bounded-memory claim) — plus the checker's own resident
//! state sizes. This module is the one place they are read and
//! rendered. Only `BENCH_soak.json` carries them: its plateau gate reads
//! RSS, while the pinned chaos and load artifacts must not vary by run.
//!
//! Peak RSS is a process-lifetime maximum, so it is only a *proxy* for
//! any single exhibit's footprint; current RSS sampled over time is the
//! signal the soak plateau assertion uses. Both read `/proc/self/status`
//! and degrade to 0 where procfs is unavailable (non-Linux).

#![deny(unsafe_code)]

use crate::json::{Obj, ToJson};
use cbf_model::ResidentStats;

/// One point-in-time memory sample of this process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Peak resident set size, kB (`VmHWM`): high-water mark over the
    /// process lifetime.
    pub peak_rss_kb: u64,
    /// Current resident set size, kB (`VmRSS`): the number the soak
    /// plateau assertion watches.
    pub current_rss_kb: u64,
}

impl MemStats {
    /// Read both RSS fields from one read of `/proc/self/status`, so
    /// the peak can never be sampled before a later, larger current
    /// size. Returns zeros where procfs is unavailable.
    pub fn sample() -> Self {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        MemStats {
            peak_rss_kb: status_kb(&status, "VmHWM:"),
            current_rss_kb: status_kb(&status, "VmRSS:"),
        }
    }
}

impl ToJson for MemStats {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .u64("peak_rss_kb", self.peak_rss_kb)
            .u64("current_rss_kb", self.current_rss_kb)
            .render(indent)
    }
}

/// One `kB`-denominated field of a `/proc/self/status` text, 0 when
/// absent.
fn status_kb(status: &str, prefix: &str) -> u64 {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(prefix) {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Render the checker's resident-state sizes as a JSON object — the
/// "checker state sizes" half of every memory sample.
pub fn resident_json(r: &ResidentStats, indent: usize) -> String {
    Obj::new()
        .u64("txs", r.txs as u64)
        .u64("clock_slots", r.clock_slots as u64)
        .u64("chain_entries", r.chain_entries as u64)
        .u64("open_edges", r.open_edges as u64)
        .u64("spill_entries", r.spill_entries as u64)
        .u64("settled_violations", r.settled_violations as u64)
        .u64("stubs", r.stubs as u64)
        .render(indent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_read_something_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            let m = MemStats::sample();
            assert!(m.peak_rss_kb > 0);
            assert!(m.current_rss_kb > 0);
            // The high-water mark can never sit below the current size.
            assert!(m.peak_rss_kb >= m.current_rss_kb);
        }
    }

    #[test]
    fn renders_both_fields() {
        let m = MemStats {
            peak_rss_kb: 2048,
            current_rss_kb: 1024,
        };
        let s = m.to_json(0);
        assert!(s.contains("\"peak_rss_kb\": 2048"));
        assert!(s.contains("\"current_rss_kb\": 1024"));
    }

    #[test]
    fn resident_stats_render_every_field() {
        let r = ResidentStats::default();
        let s = resident_json(&r, 0);
        for field in [
            "txs",
            "clock_slots",
            "chain_entries",
            "open_edges",
            "spill_entries",
            "settled_violations",
            "stubs",
        ] {
            assert!(s.contains(field), "missing {field}: {s}");
        }
    }
}
