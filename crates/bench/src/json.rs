//! Minimal JSON emission for the `results/` artifacts.
//!
//! The repro pipeline writes small, flat, machine-readable files (rows
//! of numbers and strings); a hand-rolled emitter covers that without an
//! external serializer. Output is deterministic: fields appear in the
//! order they are pushed, floats print via Rust's shortest round-trip
//! `Display`, and non-finite floats degrade to `null`.

/// Escape a string for a JSON string literal (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An object under construction: ordered `key: value` pairs with
/// pre-rendered values.
#[derive(Clone, Debug, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    /// Empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Add a float field (`null` when non-finite).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            // Keep an explicit decimal point so the field parses as a
            // float everywhere.
            if value.fract() == 0.0 && value.abs() < 1e15 {
                format!("{value:.1}")
            } else {
                format!("{value}")
            }
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Add an already-rendered JSON value.
    pub fn raw(mut self, key: &str, rendered: String) -> Self {
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Render with two-space indentation at `indent` levels deep.
    pub fn render(&self, indent: usize) -> String {
        if self.fields.is_empty() {
            return "{}".to_string();
        }
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{pad}\"{}\": {v}", escape(k)))
            .collect();
        format!("{{\n{}\n{close}}}", body.join(",\n"))
    }
}

/// Types that render themselves as one JSON value.
pub trait ToJson {
    /// Render at the given indent depth.
    fn to_json(&self, indent: usize) -> String;
}

impl ToJson for Obj {
    fn to_json(&self, indent: usize) -> String {
        self.render(indent)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self, indent: usize) -> String {
        if self.is_empty() {
            return "[]".to_string();
        }
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        let body: Vec<String> = self
            .iter()
            .map(|v| format!("{pad}{}", v.to_json(indent + 1)))
            .collect();
        format!("[\n{}\n{close}]", body.join(",\n"))
    }
}

impl ToJson for crate::LatencyRow {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .str("protocol", &self.protocol)
            .str("mix", &self.mix)
            .u64("rots", self.rots)
            .f64("rot_mean_us", self.rot_mean_us)
            .u64("rot_p50_us", self.rot_p50_us)
            .u64("rot_p99_us", self.rot_p99_us)
            .u64("rot_p999_us", self.rot_p999_us)
            .u64("rot_max_us", self.rot_max_us)
            // Sparse log-bucketed histogram: [[bucket_low_us, count], …].
            .raw("rot_hist_us", self.rot_hist_us.buckets_json())
            .f64("msgs_per_op", self.msgs_per_op)
            .u64("max_values", self.max_values as u64)
            .bool("causal_ok", self.causal_ok)
            .render(indent)
    }
}

impl ToJson for crate::LatencyReport {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            // v1 was the bare row array with flat p50/p99; v2 adds the
            // schema tag, p999/max, and per-row histograms.
            .str("schema", "snowbound-latency-v2")
            .raw("rows", self.rows.to_json(indent + 1))
            .render(indent)
    }
}

impl ToJson for crate::load::LoadCell {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .str("protocol", &self.protocol)
            .str("mix", &self.mix)
            .u64("ops", self.ops)
            .u64("reads", self.reads)
            .u64("downgraded", self.downgraded)
            .u64("read_p50_us", self.read_hist_us.percentile(50.0))
            .u64("read_p99_us", self.read_hist_us.percentile(99.0))
            .u64("read_p999_us", self.read_hist_us.percentile(99.9))
            .u64("write_p50_us", self.write_hist_us.percentile(50.0))
            .u64("write_p99_us", self.write_hist_us.percentile(99.0))
            .raw("read_hist_us", self.read_hist_us.buckets_json())
            .raw("write_hist_us", self.write_hist_us.buckets_json())
            .f64("msgs_per_op", self.msgs_per_op)
            .f64("queued_frac", self.queued_frac)
            .bool("causal_ok", self.causal_ok)
            .str("digest", &format!("{:016x}", self.digest))
            .render(indent)
    }
}

impl ToJson for crate::load::SwarmTier {
    fn to_json(&self, indent: usize) -> String {
        let shard_txs = format!(
            "[{}]",
            self.shard_txs
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        Obj::new()
            .u64("clients", self.clients)
            .u64("ops", self.ops)
            .u64("init_ops", self.init_ops)
            .u64("events", self.events)
            .u64("trace_events", self.trace_events)
            .u64("read_p50_us", self.read_hist_us.percentile(50.0))
            .u64("read_p99_us", self.read_hist_us.percentile(99.0))
            .u64("read_p999_us", self.read_hist_us.percentile(99.9))
            .u64("write_p50_us", self.write_hist_us.percentile(50.0))
            .u64("write_p99_us", self.write_hist_us.percentile(99.0))
            .raw("read_hist_us", self.read_hist_us.buckets_json())
            .raw("write_hist_us", self.write_hist_us.buckets_json())
            .f64("queued_frac", self.queued_frac)
            .u64("max_queue_wait_us", self.max_queue_wait_us)
            .u64("peak_segments_resident", self.peak_segments_resident)
            .u64("recycled_segments", self.recycled_segments)
            .raw("shard_txs", shard_txs)
            .u64("gc_passes", self.gc_passes)
            .u64("gc_retired", self.gc_retired)
            .u64("checker_resident_txs", self.resident.txs as u64)
            .bool("causal_ok", self.verdict.is_ok())
            .str("digest", &format!("{:016x}", self.digest))
            .render(indent)
    }
}

impl ToJson for crate::load::LoadReport {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            // v3 drops v2's process RSS sample: the artifact is pinned.
            .str("schema", "snowbound-load-v3")
            .raw("cells", self.cells.to_json(indent + 1))
            .raw("tiers", self.tiers.to_json(indent + 1))
            .render(indent)
    }
}

impl ToJson for crate::net::NetRow {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .str("protocol", &self.protocol)
            .str("mix", &self.mix)
            .u64("txs", self.txs)
            .u64("rots", self.rots)
            // Wall-clock microseconds — the only exhibit measured on a
            // real kernel rather than in virtual time.
            .u64("rot_p50_us", self.rot_p50_us)
            .u64("rot_p99_us", self.rot_p99_us)
            .u64("rot_p999_us", self.rot_p999_us)
            .u64("wtx_p50_us", self.wtx_p50_us)
            .u64("wtx_p99_us", self.wtx_p99_us)
            .raw("rot_hist_us", self.rot_hist_us.buckets_json())
            .raw("wtx_hist_us", self.wtx_hist_us.buckets_json())
            .u64("recorded_steps", self.recorded_steps)
            .u64("replay_steps", self.replay_steps)
            .str("digest", &format!("{:016x}", self.digest))
            .bool("causal_ok", self.causal_ok)
            .bool("causal_gated", self.causal_gated)
            .bool("replay_ok", self.replay_ok)
            .render(indent)
    }
}

impl ToJson for crate::net::NetReport {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .str("schema", "snowbound-net-v1")
            .str("tier", &self.tier)
            .raw("rows", self.rows.to_json(indent + 1))
            .render(indent)
    }
}

impl ToJson for crate::chaos::ChaosRow {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .str("protocol", &self.protocol)
            .u64("drop_pm", self.drop_pm as u64)
            .u64("dup_pm", self.dup_pm as u64)
            .bool("crash", self.crash)
            .u64("seed", self.seed)
            .u64("completed", self.completed)
            .u64("total", self.total)
            .bool("causal_ok", self.causal_ok)
            // Hex keeps the 64-bit fingerprint exact in JSON consumers
            // that parse numbers as doubles.
            .str("digest", &format!("{:016x}", self.digest))
            .u64("checker_resident_txs", self.checker_resident_txs)
            .u64("checker_retired", self.checker_retired)
            .render(indent)
    }
}

impl ToJson for crate::chaos::ChaosReport {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            // v3 drops v2's process RSS sample: the artifact is pinned.
            .str("schema", "snowbound-chaos-v3")
            .raw("rows", self.rows.to_json(indent + 1))
            .render(indent)
    }
}

impl ToJson for crate::soak::SoakSample {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .u64("batch", self.batch)
            .u64("events", self.events)
            .u64("txs", self.txs)
            .u64("resident_txs", self.resident_txs)
            .u64("resident_chain_entries", self.resident_chain_entries)
            .u64("resident_stubs", self.resident_stubs)
            .u64("retired", self.retired)
            .u64("current_rss_kb", self.current_rss_kb)
            .bool("causal_ok", self.causal_ok)
            .render(indent)
    }
}

impl ToJson for crate::soak::SoakReport {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .str("schema", "snowbound-soak-v3")
            .u64("target_events", self.target_events)
            .u64("events", self.events)
            .u64("ops", self.ops)
            .u64("batches", self.batches)
            .u64("txs", self.txs)
            .u64("retired", self.retired)
            .u64("gc_blocked_passes", self.gc_blocked_passes)
            .u64("dups_absorbed", self.dups_absorbed)
            .u64("reads_skipped", self.reads_skipped)
            .bool("causal_ok", self.causal_ok)
            .str("digest", &format!("{:016x}", self.digest))
            .raw(
                "resident",
                crate::memstats::resident_json(&self.resident, indent + 1),
            )
            .raw("memory", self.memory.to_json(indent + 1))
            .u64("plateau_baseline_rss_kb", self.plateau_baseline_rss_kb)
            .u64("plateau_final_rss_kb", self.plateau_final_rss_kb)
            .f64("plateau_ratio", self.plateau_ratio)
            .u64("checker_baseline", self.checker_baseline)
            .u64("checker_final", self.checker_final)
            .bool("plateau_ok", self.plateau_ok)
            .raw("samples", self.samples.to_json(indent + 1))
            .render(indent)
    }
}

impl ToJson for snowbound::theorem::SystemRow {
    fn to_json(&self, indent: usize) -> String {
        Obj::new()
            .str("name", &self.name)
            .u64("rounds", self.rounds as u64)
            .u64("values", self.values as u64)
            .bool("nonblocking", self.nonblocking)
            .bool("write_tx", self.write_tx)
            .str("consistency", &self.consistency)
            .bool("causal_ok", self.causal_ok)
            .f64("mean_rot_latency", self.mean_rot_latency)
            .str("theorem", &self.theorem)
            .render(indent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn renders_flat_object() {
        let o = Obj::new()
            .str("name", "wren")
            .u64("rounds", 2)
            .bool("ok", true);
        let s = o.render(0);
        assert_eq!(
            s,
            "{\n  \"name\": \"wren\",\n  \"rounds\": 2,\n  \"ok\": true\n}"
        );
    }

    #[test]
    fn renders_float_variants() {
        let s = Obj::new()
            .f64("a", 1.0)
            .f64("b", 2.5)
            .f64("c", f64::NAN)
            .render(0);
        assert!(s.contains("\"a\": 1.0"));
        assert!(s.contains("\"b\": 2.5"));
        assert!(s.contains("\"c\": null"));
    }

    #[test]
    fn renders_nested_array() {
        let rows = vec![Obj::new().u64("i", 0), Obj::new().u64("i", 1)];
        let s = rows.to_json(0);
        assert!(s.starts_with("[\n  {"));
        assert!(s.ends_with("\n]"));
        assert!(s.contains("\"i\": 1"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Obj::new().render(0), "{}");
        assert_eq!(Vec::<Obj>::new().to_json(0), "[]");
    }
}
