//! The per-protocol handler graph snowflow extracts.
//!
//! Nodes are handler *arms* — one per `Msg::Variant` pattern a
//! `client_step`/`server_step` dispatch match consumes. Edges are
//! message *emissions* — every `ctx.send(dest, Msg::Variant { .. })`
//! or `ctx.set_timer(delay, Msg::Variant { .. })` reachable from the
//! arm's body through the module's own call graph. The flow pass
//! ([`crate::flow`]) derives the SNOW tuple from walks over this graph;
//! this module only holds the data model and its JSON/DOT renderings.

use crate::report::json_str;
use std::fmt::Write as _;

/// Which side of the wire a handler arm runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Client-side handler (`client_step`).
    Client,
    /// Server-side handler (`server_step`).
    Server,
}

impl Role {
    /// Lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            Role::Client => "client",
            Role::Server => "server",
        }
    }
}

/// Destination class of one emission, from the first `ctx.send`
/// argument's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DestClass {
    /// `env.from` — the reply goes to whoever sent the message being
    /// handled, inside the same activation. Never deferrable.
    Sender,
    /// A client process id read back out of node state (`r.client`,
    /// `tx.client`, …) — the response addressee was stashed, so the
    /// response is decoupled from its request's arrival: deferrable.
    StoredClient,
    /// A server (`server`, `coordinator`, `part`, `topo.primary(..)`,
    /// a sequencer constant, …).
    Server,
    /// `ctx.set_timer` — delivered to the emitting node itself later.
    SelfTimer,
    /// Unrecognised destination expression; needs a
    /// `// snowflow: dest(..)` hint.
    Unknown,
}

impl DestClass {
    /// Lowercase display name (matches the `dest(..)` hint vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            DestClass::Sender => "sender",
            DestClass::StoredClient => "stored-client",
            DestClass::Server => "server",
            DestClass::SelfTimer => "self-timer",
            DestClass::Unknown => "unknown",
        }
    }
}

/// One message emission reachable from a handler arm.
#[derive(Clone, Debug)]
pub struct Emission {
    /// The `Msg` variant constructed at the send site.
    pub variant: String,
    /// Destination class.
    pub dest: DestClass,
    /// 1-based line of the `send`/`set_timer` call.
    pub line: u32,
    /// Call chain from the arm to the send site (empty = direct).
    pub via: Vec<String>,
}

/// One handler arm — a node of the graph.
#[derive(Clone, Debug)]
pub struct Arm {
    /// Which step fn the arm lives in.
    pub role: Role,
    /// The `Msg` variants the pattern consumes (`|` patterns list all).
    pub variants: Vec<String>,
    /// 1-based line of the pattern.
    pub line: u32,
    /// Emissions reachable from the arm body via the module call graph.
    pub emissions: Vec<Emission>,
    /// Whether the closure records a completed transaction
    /// (`completed.insert`).
    pub completes: bool,
}

impl Arm {
    /// Display label, e.g. `client/InvokeRot`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.role.name(), self.variants.join("|"))
    }
}

/// The derived SNOW facts for one protocol, from walks over the graph.
/// `None` bounds mean unbounded.
#[derive(Clone, Debug, Default)]
pub struct Derived {
    /// R: request waves toward servers on the fault-free read path.
    pub rounds: Option<u32>,
    /// V: value-reply versions accumulated along the read path.
    pub values: Option<u32>,
    /// N: no read response is deferrable.
    pub nonblocking: bool,
    /// W: from `const SUPPORTS_MULTI_WRITE`.
    pub write_tx: bool,
    /// From `const CONSISTENCY`.
    pub consistency: String,
    /// Messages on the longest fault-free read path (requests + replies).
    pub msgs_per_read: Option<u32>,
    /// Messages on the longest fault-free direct write path.
    pub msgs_per_write: Option<u32>,
}

impl Derived {
    /// Definition 4 over the derivation: one round, one value,
    /// non-blocking.
    pub fn fast(&self) -> bool {
        self.rounds == Some(1) && self.values == Some(1) && self.nonblocking
    }
}

/// A whole protocol module's handler graph plus its derivation.
#[derive(Clone, Debug)]
pub struct HandlerGraph {
    /// The module's single literal `const NAME`, else its file stem.
    pub system: String,
    /// Workspace-relative module path.
    pub path: String,
    /// The Table 1 row `system` links to, if any.
    pub paper_row: Option<String>,
    /// The `// snowflow:` hints the derivation consumed, as
    /// `(line, "key(value)")` — each one is soundness debt.
    pub hints: Vec<(u32, String)>,
    /// The arms (nodes).
    pub arms: Vec<Arm>,
    /// Variants injected by the workload driver
    /// (`rot_invoke` / `wtx_invoke` returns).
    pub injected: Vec<String>,
    /// Variants that only ever arrive via `set_timer`.
    pub timer_only: Vec<String>,
    /// The derived tuple.
    pub derived: Derived,
}

fn bound(v: Option<u32>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "\"unbounded\"".to_string(),
    }
}

fn opt_bound_label(v: Option<u32>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "∞".to_string(),
    }
}

impl HandlerGraph {
    /// The JSON object for the `protocols` section of
    /// `LINT_report.json` v2.
    pub fn to_json(&self) -> String {
        let mut arms = Vec::new();
        for a in &self.arms {
            let emissions: Vec<String> = a
                .emissions
                .iter()
                .map(|e| {
                    format!(
                        "{{\"variant\":{},\"dest\":{},\"line\":{}}}",
                        json_str(&e.variant),
                        json_str(e.dest.name()),
                        e.line
                    )
                })
                .collect();
            arms.push(format!(
                "{{\"role\":{},\"consumes\":[{}],\"line\":{},\"completes\":{},\"emits\":[{}]}}",
                json_str(a.role.name()),
                a.variants
                    .iter()
                    .map(|v| json_str(v))
                    .collect::<Vec<_>>()
                    .join(","),
                a.line,
                a.completes,
                emissions.join(",")
            ));
        }
        let d = &self.derived;
        let names = |vs: &[String]| vs.iter().map(|v| json_str(v)).collect::<Vec<_>>().join(",");
        let hints: Vec<String> = self
            .hints
            .iter()
            .map(|(line, hint)| format!("{{\"line\":{line},\"hint\":{}}}", json_str(hint)))
            .collect();
        format!(
            "{{\"system\":{},\"path\":{},\"paper_row\":{},\"hints\":[{}],\"derived\":{{\"rounds\":{},\"values\":{},\
             \"nonblocking\":{},\"write_tx\":{},\"consistency\":{},\
             \"msgs_per_read\":{},\"msgs_per_write\":{}}},\"arms\":[{}],\
             \"injected\":[{}],\"timer_only\":[{}]}}",
            json_str(&self.system),
            json_str(&self.path),
            self.paper_row.as_deref().map_or("null".to_string(), json_str),
            hints.join(","),
            bound(d.rounds),
            bound(d.values),
            d.nonblocking,
            d.write_tx,
            json_str(&d.consistency),
            bound(d.msgs_per_read),
            bound(d.msgs_per_write),
            arms.join(","),
            names(&self.injected),
            names(&self.timer_only)
        )
    }

    /// This protocol's subgraph cluster in the workspace DOT artifact.
    fn to_dot_cluster(&self, idx: usize, out: &mut String) {
        let d = &self.derived;
        let _ = writeln!(out, "  subgraph cluster_{idx} {{");
        let _ = writeln!(
            out,
            "    label=\"{} — R={} V={} N={} W={}\";",
            self.system,
            opt_bound_label(d.rounds),
            opt_bound_label(d.values),
            d.nonblocking,
            d.write_tx
        );
        let _ = writeln!(out, "    style=rounded; color=gray60;");
        let node_id = |a: &Arm| format!("p{}_{}_{}", idx, a.role.name(), a.variants.join("_"));
        for a in &self.arms {
            let shape = match a.role {
                Role::Client => "ellipse",
                Role::Server => "box",
            };
            let peri = if a.completes { ", peripheries=2" } else { "" };
            let _ = writeln!(
                out,
                "    {} [label=\"{}\", shape={}{}];",
                node_id(a),
                a.label(),
                shape,
                peri
            );
        }
        // Edges: resolve each emission to the arm(s) consuming the
        // variant, exactly like the flow walk does.
        for a in &self.arms {
            for e in &a.emissions {
                let style = match e.dest {
                    DestClass::SelfTimer => " [style=dashed]",
                    DestClass::StoredClient => " [color=red, penwidth=2]",
                    _ => "",
                };
                for b in &self.arms {
                    if b.variants.iter().any(|v| v == &e.variant) {
                        let _ = writeln!(
                            out,
                            "    {} -> {} [label=\"{}\"]{};",
                            node_id(a),
                            node_id(b),
                            e.variant,
                            style
                        );
                    }
                }
            }
        }
        let _ = writeln!(out, "  }}");
    }

    /// Render a set of protocol graphs as one DOT digraph
    /// (`results/FLOW_graph.dot`). Renders with e.g.
    /// `dot -Tsvg results/FLOW_graph.dot -o flow.svg`.
    pub fn render_dot(graphs: &[HandlerGraph]) -> String {
        let mut out = String::new();
        out.push_str("// snowflow handler graphs — emitted by `cargo run -p snowlint`.\n");
        out.push_str("// Ellipses: client arms. Boxes: server arms. Double border:\n");
        out.push_str("// completion point. Dashed: self-timer. Red: deferrable response\n");
        out.push_str("// (destination is a stashed client pid, not env.from).\n");
        out.push_str("digraph snowflow {\n  rankdir=LR;\n  fontsize=10;\n");
        for (i, g) in graphs.iter().enumerate() {
            g.to_dot_cluster(i, &mut out);
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_graph() -> HandlerGraph {
        HandlerGraph {
            system: "MINI".into(),
            path: "crates/protocols/src/mini.rs".into(),
            paper_row: None,
            hints: vec![(7, "values(1)".into())],
            arms: vec![
                Arm {
                    role: Role::Client,
                    variants: vec!["InvokeRot".into()],
                    line: 10,
                    emissions: vec![Emission {
                        variant: "Req".into(),
                        dest: DestClass::Server,
                        line: 11,
                        via: vec![],
                    }],
                    completes: false,
                },
                Arm {
                    role: Role::Server,
                    variants: vec!["Req".into()],
                    line: 20,
                    emissions: vec![Emission {
                        variant: "Resp".into(),
                        dest: DestClass::Sender,
                        line: 21,
                        via: vec![],
                    }],
                    completes: false,
                },
                Arm {
                    role: Role::Client,
                    variants: vec!["Resp".into()],
                    line: 30,
                    emissions: vec![],
                    completes: true,
                },
            ],
            injected: vec!["InvokeRot".into()],
            timer_only: vec![],
            derived: Derived {
                rounds: Some(1),
                values: Some(1),
                nonblocking: true,
                write_tx: false,
                consistency: "Causal".into(),
                msgs_per_read: Some(2),
                msgs_per_write: None,
            },
        }
    }

    #[test]
    fn json_has_the_derived_tuple_and_arms() {
        let j = mini_graph().to_json();
        assert!(j.contains("\"system\":\"MINI\""));
        assert!(j.contains("\"paper_row\":null"));
        assert!(j.contains("\"hints\":[{\"line\":7,\"hint\":\"values(1)\"}]"));
        assert!(j.contains("\"rounds\":1"));
        assert!(j.contains("\"msgs_per_write\":\"unbounded\""));
        assert!(j.contains("\"consumes\":[\"InvokeRot\"]"));
        assert!(j.contains("\"dest\":\"sender\""));
        assert!(j.contains("\"injected\":[\"InvokeRot\"]"));
        assert!(j.contains("\"timer_only\":[]"));
    }

    #[test]
    fn dot_is_a_digraph_with_edges() {
        let dot = HandlerGraph::render_dot(&[mini_graph()]);
        assert!(dot.starts_with("// snowflow handler graphs"));
        assert!(dot.contains("digraph snowflow"));
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("label=\"MINI — R=1 V=1 N=true W=false\""));
        assert!(dot.contains("p0_client_InvokeRot -> p0_server_Req [label=\"Req\"]"));
        assert!(dot.contains("peripheries=2"));
    }
}
