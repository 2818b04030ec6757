//! The metric vocabulary: every name `BENCHMARK.json` lists, with its
//! unit, direction and (end-to-end only) regression bound. A test keeps
//! this table and `BENCHMARK.json` identical.

use std::collections::BTreeMap;

/// The five workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "rot-stream",
    "mixed-contended",
    "chaos-mixed",
    "theorem-audit",
    "net-loopback",
];

/// Metric-name keys of the four protocols with `Wire` codecs, in run
/// order (COPS-SNOW, COPS, Eiger, Spanner-like).
pub const PROTOCOLS: [&str; 4] = ["cops_snow", "cops", "eiger", "spanner"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: measured with tracing off, reported by every
/// workload, guarded by `bound` (the share of the parent's median by
/// which it may worsen).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "verified_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "rot_p50_vus",
        unit: "vus",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "rot_p99_vus",
        unit: "vus",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wtx_p50_vus",
        unit: "vus",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "msgs_per_tx",
        unit: "count",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Is `metric` on `workload` a pure function of the seed (so that two
/// runs of one tree must report it identically)?
pub fn is_deterministic(metric: &str, workload: &str) -> bool {
    match metric {
        "rot_p50_vus" | "rot_p99_vus" | "wtx_p50_vus" => true,
        // On net-loopback messages are counted in the real run's recording.
        "msgs_per_tx" => workload != "net-loopback",
        _ => false,
    }
}

/// The per-layer metrics (traced run), as `(name, unit, better)`. A
/// workload that does not exercise a layer reports 0 for its metrics.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    use Better::{Higher, Lower};
    let mut m: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |name: &str, unit, better| m.push((name.to_string(), unit, better));
    for layer in ["workloads", "sim", "protocols", "model", "core", "net"] {
        add(&format!("{layer}.share_pct"), "%", Lower);
    }
    add("workloads.gen_ns_per_op", "ns", Lower);
    add("workloads.swarm_build_ms", "ms", Lower);
    add("sim.run_ns_per_event", "ns", Lower);
    add("sim.events_per_tx", "count", Lower);
    add("sim.trace_events_per_tx", "count", Lower);
    add("sim.sink_ns_per_event", "ns", Lower);
    add("sim.echo_ns_per_event", "ns", Lower);
    add("sim.queued_frac", "ratio", Lower);
    add("sim.max_queue_wait_vus", "vus", Lower);
    add("sim.peak_segments_resident", "count", Lower);
    add("sim.timers_coalesced", "count", Higher);
    add("sim.world_fork_us", "us", Lower);
    for p in PROTOCOLS {
        add(&format!("protocols.{p}.drive_ns_per_tx"), "ns", Lower);
        add(&format!("protocols.{p}.msgs_per_tx"), "count", Lower);
        add(&format!("protocols.{p}.steps_per_tx"), "count", Lower);
        add(&format!("protocols.{p}.rot_p50_vus"), "vus", Lower);
        add(&format!("protocols.{p}.rot_p99_vus"), "vus", Lower);
        add(&format!("protocols.{p}.wtx_p50_vus"), "vus", Lower);
    }
    add("protocols.begin_finish_ns_per_tx", "ns", Lower);
    add("protocols.downgraded_share", "ratio", Lower);
    add("protocols.cluster_fork_us", "us", Lower);
    add("model.ingest_ns_per_tx", "ns", Lower);
    add("model.verdict_ns_per_tx", "ns", Lower);
    add("model.gc_ns_per_pass", "ns", Lower);
    add("model.gc_retired_share", "ratio", Higher);
    add("model.gc_blocked_passes", "count", Lower);
    add("model.resident_txs", "count", Lower);
    add("core.table1_ms", "ms", Lower);
    add("core.theorem1_ms", "ms", Lower);
    add("core.theorem2_ms", "ms", Lower);
    add("core.forks_per_rep", "count", Lower);
    add("core.caught_share", "ratio", Higher);
    add("par.table1_speedup", "ratio", Higher);
    for p in PROTOCOLS {
        add(&format!("net.{p}.run_ns_per_tx"), "ns", Lower);
        add(&format!("net.{p}.rot_p50_wall_us"), "us", Lower);
        add(&format!("net.{p}.rot_p99_wall_us"), "us", Lower);
    }
    add("net.spawn_ms", "ms", Lower);
    add("net.shutdown_ms", "ms", Lower);
    add("net.cpu_us_per_tx", "us", Lower);
    add("net.steps_per_tx", "count", Lower);
    add("net.record_bytes_per_tx", "B", Lower);
    add("net.replay_ns_per_step", "ns", Lower);
    add("net.check_ns_per_tx", "ns", Lower);
    add("net.frame_encode_ns", "ns", Lower);
    add("net.frame_decode_ns", "ns", Lower);
    add("net.wire_encode_ns", "ns", Lower);
    add("net.wire_decode_ns", "ns", Lower);
    add("net.rep_spread", "ratio", Lower);
    add("bench.trace_overhead_pct", "%", Lower);
    add("bench.unattributed_pct", "%", Lower);
    m
}

/// A measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: u64,
}

/// What one workload run measured, keyed by metric name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, Value>,
    /// Why the outputs are not correct (empty = correct).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        self.values
            .insert(name.to_string(), Value { value, samples });
    }

    /// Record a failed correctness check.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every object in the JSON array `key`.
    fn listed(json: &str, key: &str) -> Vec<(String, String, String)> {
        let body = &json[json.find(&format!("\"{key}\": [")).expect(key)..];
        let body = &body[..body.find(']').expect("array end")];
        let field = |obj: &str, f: &str| {
            let rest = &obj[obj.find(&format!("\"{f}\": \"")).expect(f) + f.len() + 5..];
            rest[..rest.find('"').expect("string end")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    fn word(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_this_table() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    word(m.better).to_string(),
                )
            })
            .collect();
        assert_eq!(listed(json, "end_to_end"), e2e);
        for m in &END_TO_END {
            assert!(
                json.contains(&format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    word(m.better),
                    m.bound
                )),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), word(b).to_string()))
            .collect();
        assert_eq!(listed(json, "per_layer"), layers);
        assert!(layers.len() <= 128);
        let names: Vec<_> = listed_names(json);
        assert_eq!(names, WORKLOADS);
    }

    fn listed_names(json: &str) -> Vec<String> {
        let body = &json[json.find("\"workloads\": [").expect("workloads")..];
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("string end")].to_string())
            .collect()
    }
}
