//! snowflow — the message-flow rule family, and the one place a
//! protocol's SNOW tuple comes from.
//!
//! Nothing declares `(R, V, N, W)`: this pass derives it from what the
//! handlers *do*. It parses each protocol module's
//! `client_step`/`server_step` dispatch match into a handler graph
//! ([`crate::graph`]), closes every arm over the module's own call
//! graph, and walks the graph to bound:
//!
//! - **R (rounds)** — the maximum number of server-bound messages on
//!   any acyclic fault-free read path from the `rot_invoke` entry arm.
//!   Timer edges are excluded (retries are the faulty path). A cycle
//!   through a server-bound edge makes R unbounded.
//! - **V (values)** — the maximum sum of value-reply weights along the
//!   same walk. A reply's weight comes from its `msg_values` arm: `0`
//!   means not a value reply, anything else counts one version per
//!   object unless the arm aggregates across transactions (`flat_map`),
//!   which is ambiguous and requires a `// snowflow: values(..)` hint.
//! - **N (non-blocking)** — no value reply anywhere in the module is
//!   addressed to a *stored* client pid (`r.client`). Replying to
//!   `env.from` happens inside the request's own activation and cannot
//!   be deferred; replying to a stashed pid means the response was
//!   parked and re-driven later — the definition of blocking.
//! - **W, consistency** — read off `const SUPPORTS_MULTI_WRITE` and
//!   `const CONSISTENCY`, which the cluster and the auditor branch on.
//! - **msgs/op** — the longest acyclic path's total non-timer edge
//!   count, for both the read and the direct write path (report-only).
//!
//! The derived tuple is checked against the `paper_table1()` row the
//! module's literal `const NAME` links to ([`crate::table1`]) — R, V
//! and N each point at the evidence line, W and consistency at the
//! `const NAME` — and `msg_is_request`, which the runtime auditor counts
//! rounds with, must name exactly the variants client arms send to
//! servers. A derived (R=1, V=1, N) + write-tx + causal tuple —
//! Theorem-1 impossible — must hit a `snowlint.toml` entry: code makes
//! the claim, so the hatch lives where it ages and gets re-audited.
//! Modules with no linked row are pinned by `tests/clean_tree.rs` and
//! the CI-diffed `results/LINT_report.json` alone. The same graph feeds
//! a determinism taint pass (ambient randomness/clocks reachable from
//! handlers) and a dead-arm check (consumed variants nothing emits).
//! Since the closure stops at the module, [`check_common`] keeps sends,
//! timers and completions out of the shared `common/` helpers.

use crate::graph::{Arm, Derived, DestClass, Emission, HandlerGraph, Role};
use crate::lexer::{Hint, Lexed, TokKind, Token};
use crate::report::Finding;
use crate::syntax::{block_end, find_match_on, match_arms, split_arms};
use crate::table1::{
    consistency_matches, implies_causal, Bound, Table1, LINK_TABLE_FILE, RULE_UNKNOWN_ROW,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Rule: derived rounds-per-read fall outside the Table 1 row's bound.
pub const RULE_FLOW_ROUNDS: &str = "flow-rounds";
/// Rule: derived values-per-read fall outside the Table 1 row's bound.
pub const RULE_FLOW_VALUES: &str = "flow-values";
/// Rule: derived blocking behaviour diverges from the Table 1 row.
pub const RULE_FLOW_BLOCKING: &str = "flow-blocking";
/// Rule: `SUPPORTS_MULTI_WRITE` or `CONSISTENCY` diverges from the row.
pub const RULE_FLOW_PAPER: &str = "flow-paper";
/// Rule: derived tuple is Theorem-1 impossible (needs a toml hatch).
pub const RULE_FLOW_IMPOSSIBLE: &str = "flow-impossible";
/// Rule: handler arm consumes a variant nothing emits.
pub const RULE_FLOW_DEAD_ARM: &str = "flow-dead-arm";
/// Rule: nondeterminism source reachable from a handler.
pub const RULE_FLOW_TAINT: &str = "flow-taint";
/// Rule: inference needs (or got a malformed) `// snowflow:` hint.
pub const RULE_FLOW_HINT: &str = "flow-hint";
/// Rule: `msg_is_request` diverges from what clients send to servers.
pub const RULE_FLOW_REQUESTS: &str = "flow-requests";
/// Rule: a shared `common/` helper sends, arms a timer or records a
/// completion, out of the flow pass's sight.
pub const RULE_COMMON_EFFECT: &str = "flow-common-effect";

/// Destination idents that name a server-class process (matched
/// case-insensitively against the first `ctx.send` argument).
const SERVER_WORDS: &[&str] = &[
    "server",
    "servers",
    "srv",
    "coordinator",
    "coord",
    "part",
    "parts",
    "participants",
    "primary",
    "home",
    "sequencer",
    "replica",
    "replicas",
    "shard",
    "shards",
    "leader",
    "master",
];

/// Idents that introduce nondeterminism if reachable from a handler.
const TAINT_SOURCES: &[&str] = &["thread_rng", "from_entropy", "getrandom", "SystemTime"];

/// Sentinel weight for an unbounded value reply.
const UNBOUNDED: u32 = u32::MAX;

/// One module fn: name, source line, body token range.
struct FnDef {
    name: String,
    line: u32,
    body: (usize, usize),
}

/// What a straight-line scan of one token range found.
#[derive(Default, Clone)]
struct Facts {
    emissions: Vec<Emission>,
    calls: Vec<String>,
    completes: bool,
    taints: Vec<(String, u32)>,
}

/// Shared scan context for one module.
struct Scan<'a> {
    path: &'a str,
    toks: &'a [Token],
    hints: &'a [Hint],
    /// Indices into `hints` of the ones an inference consumed.
    used_hints: RefCell<BTreeSet<usize>>,
    fns: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// All distinct `Msg::X` variant names in a token slice, in order.
fn msg_variants_in(s: &[Token]) -> Vec<String> {
    let mut vs: Vec<String> = Vec::new();
    for i in 0..s.len().saturating_sub(2) {
        if s[i].is_ident("Msg") && s[i + 1].is_punct("::") && s[i + 2].kind == TokKind::Ident {
            let v = &s[i + 2].text;
            if !vs.iter().any(|x| x == v) {
                vs.push(v.clone());
            }
        }
    }
    vs
}

/// Truncate the stream at `mod tests` — the analysis only reads the
/// protocol implementation, never its unit tests.
fn cut_tests(toks: &[Token]) -> &[Token] {
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].is_ident("mod") && toks[i + 1].is_ident("tests") {
            return &toks[..i];
        }
    }
    toks
}

impl<'a> Scan<'a> {
    fn new(path: &'a str, toks: &'a [Token], hints: &'a [Hint]) -> Self {
        let mut fns = Vec::new();
        let mut i = 0;
        while i + 1 < toks.len() {
            if toks[i].is_ident("fn") && toks[i + 1].kind == TokKind::Ident {
                // Find the body `{`, giving up at a `;` (trait method
                // declarations have no body).
                let mut j = i + 2;
                while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct("{") {
                    if let Some(end) = block_end(toks, j) {
                        fns.push(FnDef {
                            name: toks[i + 1].text.clone(),
                            line: toks[i + 1].line,
                            body: (j + 1, end),
                        });
                        i = j + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(idx);
        }
        Scan {
            path,
            toks,
            hints,
            used_hints: RefCell::default(),
            fns,
            by_name,
        }
    }

    /// An error finding in this module.
    fn err(&self, rule: &str, line: u32, message: String) -> Finding {
        Finding::error(rule, self.path, line, 1, message)
    }

    /// The value of hint `key` covering `line` (its own or the next).
    /// Every hint an inference leans on is soundness debt, so the ones
    /// consumed are remembered for the report.
    fn hint(&self, key: &str, line: u32) -> Option<&str> {
        let (i, h) = self
            .hints
            .iter()
            .enumerate()
            .find(|(_, h)| h.key == key && (h.line == line || h.line + 1 == line))?;
        self.used_hints.borrow_mut().insert(i);
        Some(h.value.as_str())
    }

    /// The body tokens of the first module fn called `name`.
    fn body_of(&self, name: &str) -> Option<(&FnDef, &'a [Token])> {
        let f = &self.fns[*self.by_name.get(name)?.first()?];
        Some((f, &self.toks[f.body.0..f.body.1]))
    }

    /// `(line, value tokens)` of every `const <name>: .. = value;` item.
    fn consts(&self, name: &str) -> Vec<(u32, &'a [Token])> {
        let toks = self.toks;
        let end_of = |i: usize| (i..toks.len()).find(|&j| toks[j].is_punct(";"));
        (0..toks.len().saturating_sub(1))
            .filter(|&i| toks[i].is_ident("const") && toks[i + 1].is_ident(name))
            .filter_map(|i| {
                let eq = (i..end_of(i)?).find(|&j| toks[j].is_punct("="))?;
                Some((toks[i].line, &toks[eq + 1..end_of(eq)?]))
            })
            .collect()
    }

    /// Classify the first `ctx.send` argument.
    fn classify_dest(&self, dest: &[Token], line: u32, out: &mut Vec<Finding>) -> DestClass {
        if let Some(v) = self.hint("dest", line) {
            return match v {
                "sender" => DestClass::Sender,
                "client" | "stored-client" => DestClass::StoredClient,
                "server" => DestClass::Server,
                other => {
                    let why = format!("unknown dest hint `{other}` (want server|client|sender)");
                    out.push(self.err(RULE_FLOW_HINT, line, why));
                    DestClass::Unknown
                }
            };
        }
        let idents: Vec<&str> = dest
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        if idents.contains(&"from") {
            return DestClass::Sender;
        }
        if idents.contains(&"client") {
            return DestClass::StoredClient;
        }
        if idents
            .iter()
            .any(|s| SERVER_WORDS.contains(&s.to_ascii_lowercase().as_str()))
        {
            return DestClass::Server;
        }
        let why = format!("cannot classify send destination `{}`", idents.join("."));
        let help = "add a `// snowflow: dest(server|client|sender): why` hint";
        out.push(self.err(RULE_FLOW_HINT, line, why).with_help(help.into()));
        DestClass::Unknown
    }

    /// Straight-line facts of one token slice: direct emissions, calls
    /// into module fns, completion recording, taint sources.
    fn facts_of(&self, s: &[Token], out: &mut Vec<Finding>) -> Facts {
        let mut f = Facts::default();
        let mut i = 0;
        while i < s.len() {
            let t = &s[i];
            // ctx.send(dest, Msg::V { .. }) / ctx.set_timer(d, Msg::V { .. })
            if t.is_ident("ctx")
                && s.get(i + 1).is_some_and(|t| t.is_punct("."))
                && s.get(i + 2)
                    .is_some_and(|t| t.is_ident("send") || t.is_ident("set_timer"))
                && s.get(i + 3).is_some_and(|t| t.is_punct("("))
            {
                let timer = s[i + 2].is_ident("set_timer");
                let line = t.line;
                let open = i + 3;
                if let Some(close) = block_end(s, open) {
                    let mut depth = 0i32;
                    let mut comma = None;
                    for (j, a) in s.iter().enumerate().take(close).skip(open + 1) {
                        if a.kind == TokKind::Punct {
                            match a.text.as_str() {
                                "(" | "[" | "{" => depth += 1,
                                ")" | "]" | "}" => depth -= 1,
                                "," if depth == 0 => {
                                    comma = Some(j);
                                    break;
                                }
                                _ => {}
                            }
                        }
                    }
                    let (dest_toks, payload) = match comma {
                        Some(c) => (&s[open + 1..c], &s[c + 1..close]),
                        None => (&s[open + 1..close], &s[open + 1..close]),
                    };
                    match msg_variants_in(payload).into_iter().next() {
                        Some(variant) => {
                            let dest = if timer {
                                DestClass::SelfTimer
                            } else {
                                self.classify_dest(dest_toks, line, out)
                            };
                            f.emissions.push(Emission {
                                variant,
                                dest,
                                line,
                                via: Vec::new(),
                            });
                        }
                        None => {
                            let why = "send without a literal Msg:: variant in its payload";
                            out.push(self.err(RULE_FLOW_HINT, line, why.into()));
                        }
                    }
                    i = open + 1;
                    continue;
                }
            }
            // completed.insert(..) — the arm finishes a transaction.
            if t.is_ident("completed")
                && s.get(i + 1).is_some_and(|t| t.is_punct("."))
                && s.get(i + 2).is_some_and(|t| t.is_ident("insert"))
            {
                f.completes = true;
            }
            if t.kind == TokKind::Ident {
                let name = t.text.as_str();
                if TAINT_SOURCES.contains(&name)
                    || (name == "Instant"
                        && s.get(i + 1).is_some_and(|t| t.is_punct("::"))
                        && s.get(i + 2).is_some_and(|t| t.is_ident("now")))
                {
                    f.taints.push((t.text.clone(), t.line));
                }
                // A call into another fn of this module.
                if self.by_name.contains_key(name)
                    && s.get(i + 1).is_some_and(|t| t.is_punct("("))
                    && !(i > 0 && s[i - 1].is_ident("fn"))
                {
                    f.calls.push(name.to_string());
                }
            }
            i += 1;
        }
        f
    }

    /// Close `direct` over the module call graph: every emission,
    /// completion and fn reachable through calls, with the call chain
    /// that reaches it.
    fn close(&self, direct: &Facts, facts: &[Facts]) -> (Facts, Vec<(usize, Vec<String>)>) {
        let mut total = direct.clone();
        let mut reached: Vec<(usize, Vec<String>)> = Vec::new();
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        let mut queue: Vec<(String, Vec<String>)> = direct
            .calls
            .iter()
            .map(|c| (c.clone(), vec![c.clone()]))
            .collect();
        while let Some((name, chain)) = queue.pop() {
            let Some(idxs) = self.by_name.get(&name) else {
                continue;
            };
            if !visited.insert(self.fns[idxs[0]].name.as_str()) {
                continue;
            }
            for &idx in idxs {
                reached.push((idx, chain.clone()));
                let ff = &facts[idx];
                total.completes |= ff.completes;
                for e in &ff.emissions {
                    let mut e = e.clone();
                    e.via = chain.clone();
                    total.emissions.push(e);
                }
                for c in &ff.calls {
                    if !visited.contains(c.as_str()) {
                        let mut ch = chain.clone();
                        ch.push(c.clone());
                        queue.push((c.clone(), ch));
                    }
                }
            }
        }
        // The same send site can be reachable via several chains; one
        // edge per site is enough.
        let mut seen = BTreeSet::new();
        total
            .emissions
            .retain(|e| seen.insert((e.variant.clone(), e.dest.name(), e.line)));
        (total, reached)
    }

    /// Per-variant version weight from the `msg_values` arms. Absent
    /// variants are not value replies.
    fn value_weights(&self, out: &mut Vec<Finding>) -> BTreeMap<String, u32> {
        let mut weights = BTreeMap::new();
        let Some((f, _)) = self.body_of("msg_values") else {
            return weights;
        };
        for (pat, body) in match_arms(self.toks, f.body.0, f.body.1) {
            let vars = msg_variants_in(pat);
            let Some(first) = pat.first() else { continue };
            if vars.is_empty() {
                continue; // wildcard `_ => 0`
            }
            let pline = first.line;
            let w = if body.iter().any(|t| t.is_ident("flat_map")) {
                // Aggregating across carried transactions: how many
                // versions per object that amounts to is not decidable
                // from the token stream.
                match self.hint("values", pline) {
                    Some("unbounded") => UNBOUNDED,
                    Some(v) => v.parse().unwrap_or_else(|_| {
                        let why = format!("bad values hint `{v}` (want a number or `unbounded`)");
                        out.push(self.err(RULE_FLOW_HINT, pline, why));
                        1
                    }),
                    None => {
                        let why = format!(
                            "msg_values arm for {} aggregates across records; \
                             its per-object version count is ambiguous",
                            vars.join("|")
                        );
                        let help = "add `// snowflow: values(N|unbounded): why` above the arm";
                        out.push(self.err(RULE_FLOW_HINT, pline, why).with_help(help.into()));
                        1
                    }
                }
            } else if body.len() == 1 && body[0].kind == TokKind::Number && body[0].text == "0" {
                0
            } else {
                1
            };
            if w > 0 {
                for v in vars {
                    weights.insert(v, w);
                }
            }
        }
        weights
    }
}

/// One walkable edge of the handler graph (timer edges are excluded
/// before this point).
#[derive(Clone)]
struct Edge {
    to: usize,
    server: bool,
    value: u32,
    line: u32,
}

/// The maxima a DFS over acyclic paths found, plus which cycles broke
/// which bound.
#[derive(Default)]
struct Best {
    rounds: u32,
    rounds_lines: Vec<u32>,
    rounds_unbounded: Option<u32>,
    values: u32,
    values_lines: Vec<u32>,
    values_unbounded: Option<u32>,
    msgs: u32,
    msgs_unbounded: bool,
}

fn dfs(adj: &[Vec<Edge>], on_path: &mut Vec<usize>, edges: &mut Vec<Edge>, best: &mut Best) {
    let rounds = edges.iter().filter(|e| e.server).count() as u32;
    if rounds > best.rounds {
        best.rounds = rounds;
        best.rounds_lines = edges.iter().filter(|e| e.server).map(|e| e.line).collect();
    }
    if let Some(e) = edges.iter().find(|e| e.value == UNBOUNDED) {
        best.values_unbounded.get_or_insert(e.line);
    } else {
        let vsum: u32 = edges.iter().map(|e| e.value).sum();
        if vsum > best.values {
            best.values = vsum;
            best.values_lines = edges
                .iter()
                .filter(|e| e.value > 0)
                .map(|e| e.line)
                .collect();
        }
    }
    best.msgs = best.msgs.max(edges.len() as u32);

    let node = *on_path.last().expect("path is never empty");
    for e in &adj[node] {
        if let Some(pos) = on_path.iter().position(|&n| n == e.to) {
            // A cycle: any bound consumed inside it is unbounded.
            let cycle: Vec<&Edge> = edges[pos..].iter().chain(std::iter::once(e)).collect();
            if best.rounds_unbounded.is_none() {
                if let Some(se) = cycle.iter().find(|x| x.server) {
                    best.rounds_unbounded = Some(se.line);
                }
            }
            if best.values_unbounded.is_none() {
                if let Some(ve) = cycle.iter().find(|x| x.value > 0) {
                    best.values_unbounded = Some(ve.line);
                }
            }
            best.msgs_unbounded = true;
            continue;
        }
        on_path.push(e.to);
        edges.push(e.clone());
        dfs(adj, on_path, edges, best);
        edges.pop();
        on_path.pop();
    }
}

fn walk(adj: &[Vec<Edge>], entries: &[usize]) -> Best {
    let mut best = Best::default();
    for &entry in entries {
        let mut on_path = vec![entry];
        let mut edges = Vec::new();
        dfs(adj, &mut on_path, &mut edges, &mut best);
    }
    best
}

/// Derive the handler graph and SNOW tuple for one protocol module and
/// check them against the Table 1 row its `const NAME` links to.
/// Returns None when the module has no recognisable handler arms or
/// read entry (each already reported).
pub fn check_protocol(
    path: &str,
    lx: &Lexed,
    table: &Table1,
    out: &mut Vec<Finding>,
) -> Option<HandlerGraph> {
    let toks = cut_tests(&lx.tokens);
    let scan = Scan::new(path, toks, &lx.hints);
    // What the walk cannot see: the `ProtocolNode` consts the cluster
    // and the auditor branch on, and the `msg_is_request` vocabulary.
    let names = scan.consts("NAME");
    let name_line = names.first().map_or(1, |c| c.0);
    let name = match names[..] {
        [(_, [v])] if v.kind == TokKind::Str => Some(v.text.as_str()),
        _ => None,
    };
    let last_text = |consts: Vec<(u32, &[Token])>| -> Option<String> {
        Some(consts.first()?.1.last()?.text.clone())
    };
    let write_tx = last_text(scan.consts("SUPPORTS_MULTI_WRITE")).as_deref() == Some("true");
    let consistency = last_text(scan.consts("CONSISTENCY")).unwrap_or_default();
    let (requests_line, requests) = match scan.body_of("msg_is_request") {
        Some((f, body)) => (f.line, msg_variants_in(body).into_iter().collect()),
        None => (name_line, BTreeSet::new()),
    };
    // The graph is called what the module calls itself; a module whose
    // NAME is computed (the naive family) goes by its file stem and has
    // no link to look up.
    let stem = path.rsplit('/').next().unwrap_or(path);
    let system = name
        .unwrap_or(stem.strip_suffix(".rs").unwrap_or(stem))
        .to_string();
    let link = name.and_then(|name| table.link(name));
    if name.is_some() && link.is_none() {
        let why = format!(
            "{system:?} has no row in the link table behind all_snow_decls() ({LINK_TABLE_FILE})"
        );
        out.push(scan.err(RULE_UNKNOWN_ROW, name_line, why));
    }
    // A link to a row that does not exist is reported at the link.
    let paper_row = link.and_then(|l| l.paper_row.clone());
    let row = paper_row.as_deref().and_then(|name| table.row(name));

    // Straight-line facts for every fn, then the value-weight table.
    let mut facts = Vec::with_capacity(scan.fns.len());
    for f in &scan.fns {
        facts.push(scan.facts_of(&toks[f.body.0..f.body.1], out));
    }
    let weights = scan.value_weights(out);

    // Workload-injected variants: what rot_invoke / wtx_invoke return.
    let invoked = |name: &str| -> Vec<String> {
        scan.body_of(name)
            .map(|(_, body)| msg_variants_in(body))
            .unwrap_or_default()
    };
    let rot_variants = invoked("rot_invoke");
    let wtx_variants = invoked("wtx_invoke");

    // Handler arms: every Msg::V pattern of a step fn's dispatch match,
    // closed over the call graph.
    let mut arms: Vec<Arm> = Vec::new();
    let mut handler_fns: Vec<usize> = Vec::new();
    for (fi, f) in scan.fns.iter().enumerate() {
        // A handler drains its mailbox: `for env in ctx.recv()`.
        let (lo, hi) = f.body;
        let mut recv = None;
        for k in lo..hi.saturating_sub(5) {
            if toks[k].is_ident("for")
                && toks[k + 1].kind == TokKind::Ident
                && toks[k + 2].is_ident("in")
                && toks[k + 3].is_ident("ctx")
                && toks[k + 4].is_punct(".")
                && toks[k + 5].is_ident("recv")
            {
                recv = Some((toks[k + 1].text.clone(), k));
                break;
            }
        }
        let Some((binding, k)) = recv else { continue };
        handler_fns.push(fi);
        let role = if f.name.contains("client") {
            Role::Client
        } else if f.name.contains("server") {
            Role::Server
        } else {
            match scan.hint("role", f.line) {
                Some("client") => Role::Client,
                Some("server") => Role::Server,
                _ => {
                    let why = format!("cannot infer the role of handler fn `{}`", f.name);
                    let help = "add `// snowflow: role(client|server): why`";
                    out.push(scan.err(RULE_FLOW_HINT, f.line, why).with_help(help.into()));
                    continue;
                }
            }
        };
        let Some(open) = find_match_on(toks, k, hi, &binding, "msg") else {
            let why = format!(
                "handler fn `{}` has no `match {binding}.msg` dispatch",
                f.name
            );
            out.push(scan.err(RULE_FLOW_HINT, f.line, why));
            continue;
        };
        for (pat, body) in split_arms(toks, open) {
            let variants = msg_variants_in(pat);
            let Some(first) = pat.first() else { continue };
            if variants.is_empty() {
                continue; // wildcard arm
            }
            let direct = scan.facts_of(body, out);
            let (closed, _) = scan.close(&direct, &facts);
            arms.push(Arm {
                role,
                variants,
                line: first.line,
                emissions: closed.emissions,
                completes: closed.completes,
            });
        }
    }
    if arms.is_empty() {
        let why = format!("no handler arms found for {system}");
        out.push(scan.err(RULE_FLOW_HINT, name_line, why));
        return None;
    }

    // Taint: nondeterminism sources reachable from any handler fn.
    let mut taint_reported: BTreeSet<u32> = BTreeSet::new();
    for &fi in &handler_fns {
        let (_, reached) = scan.close(&facts[fi], &facts);
        for (idx, chain) in std::iter::once((fi, Vec::new())).chain(reached) {
            for (name, line) in &facts[idx].taints {
                if !taint_reported.insert(*line) {
                    continue;
                }
                let via = if chain.is_empty() {
                    String::new()
                } else {
                    format!(" via {}", chain.join(" -> "))
                };
                let handler = &scan.fns[fi].name;
                let why = format!(
                    "nondeterminism source `{name}` reachable from handler `{handler}`{via}"
                );
                let help = "protocol code must draw randomness and time from the sim only";
                out.push(scan.err(RULE_FLOW_TAINT, *line, why).with_help(help.into()));
            }
        }
    }

    // Dead arms: consumed variants nothing emits or injects.
    let mut sent: BTreeSet<&str> = BTreeSet::new();
    let mut timed: BTreeSet<&str> = BTreeSet::new();
    for f in &facts {
        for e in &f.emissions {
            if e.dest == DestClass::SelfTimer {
                timed.insert(e.variant.as_str());
            } else {
                sent.insert(e.variant.as_str());
            }
        }
    }
    let live = |v: &str| {
        sent.contains(v)
            || timed.contains(v)
            || rot_variants.iter().any(|x| x == v)
            || wtx_variants.iter().any(|x| x == v)
    };
    for a in &arms {
        if !a.variants.iter().any(|v| live(v)) {
            let why = format!(
                "handler arm {} consumes a variant no code path emits",
                a.label()
            );
            let help = "dead protocol code: delete the arm or wire up its sender";
            out.push(
                scan.err(RULE_FLOW_DEAD_ARM, a.line, why)
                    .with_help(help.into()),
            );
        }
    }

    // Build the walkable edge list (timer and unknown edges excluded;
    // consumers resolved by destination class, preferring the natural
    // role and falling back to any consumer — `env.from` replies can
    // legitimately target the emitter's own role, as in COPS-SNOW's
    // old-reader handshake).
    let adj: Vec<Vec<Edge>> = arms
        .iter()
        .map(|a| {
            let mut es = Vec::new();
            for e in &a.emissions {
                if matches!(e.dest, DestClass::SelfTimer | DestClass::Unknown) {
                    continue;
                }
                let consumers: Vec<usize> = arms
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.variants.contains(&e.variant))
                    .map(|(i, _)| i)
                    .collect();
                let preferred: Vec<usize> = consumers
                    .iter()
                    .copied()
                    .filter(|&i| match e.dest {
                        DestClass::Sender => arms[i].role != a.role,
                        DestClass::StoredClient => arms[i].role == Role::Client,
                        DestClass::Server => arms[i].role == Role::Server,
                        _ => false,
                    })
                    .collect();
                let targets = if preferred.is_empty() {
                    consumers
                } else {
                    preferred
                };
                for t in targets {
                    es.push(Edge {
                        to: t,
                        server: arms[t].role == Role::Server,
                        value: if arms[t].role == Role::Client {
                            weights.get(&e.variant).copied().unwrap_or(0)
                        } else {
                            0
                        },
                        line: e.line,
                    });
                }
            }
            es
        })
        .collect();

    let entries_for = |injected: &[String]| -> Vec<usize> {
        arms.iter()
            .enumerate()
            .filter(|(_, a)| {
                a.role == Role::Client && a.variants.iter().any(|v| injected.contains(v))
            })
            .map(|(i, _)| i)
            .collect()
    };
    let rot_entries = entries_for(&rot_variants);
    if rot_entries.is_empty() {
        let why = format!(
            "cannot locate the read entry arm for {system} (no client arm consumes {})",
            rot_variants.join("|")
        );
        out.push(scan.err(RULE_FLOW_HINT, name_line, why));
        return None;
    }
    let read = walk(&adj, &rot_entries);
    let write = walk(&adj, &entries_for(&wtx_variants));

    // Blocking: a value reply addressed to a stored client pid means
    // the response can be parked and re-driven later.
    let deferred: Vec<(u32, &str)> = arms
        .iter()
        .flat_map(|a| a.emissions.iter())
        .filter(|e| {
            e.dest == DestClass::StoredClient && weights.get(&e.variant).copied().unwrap_or(0) > 0
        })
        .map(|e| (e.line, e.variant.as_str()))
        .collect();

    let derived = Derived {
        rounds: read.rounds_unbounded.is_none().then_some(read.rounds),
        values: read.values_unbounded.is_none().then_some(read.values),
        nonblocking: deferred.is_empty(),
        write_tx,
        consistency,
        msgs_per_read: (!read.msgs_unbounded).then_some(read.msgs),
        msgs_per_write: (!write.msgs_unbounded).then_some(write.msgs),
    };

    // msg_is_request is what the runtime auditor counts rounds with: it
    // must name exactly the variants client arms send to servers.
    let client_to_server: BTreeSet<String> = arms
        .iter()
        .filter(|a| a.role == Role::Client)
        .flat_map(|a| a.emissions.iter())
        .filter(|e| e.dest == DestClass::Server)
        .map(|e| e.variant.clone())
        .collect();
    if requests != client_to_server {
        let unmatched: Vec<&String> = client_to_server.difference(&requests).collect();
        let unsent: Vec<&String> = requests.difference(&client_to_server).collect();
        let why = format!(
            "msg_is_request diverges from what client arms send to servers: \
             sent but unmatched {unmatched:?}, matched but never sent {unsent:?}"
        );
        let help = "the auditor measures R by counting exactly these messages";
        out.push(
            scan.err(RULE_FLOW_REQUESTS, requests_line, why)
                .with_help(help.into()),
        );
    }

    // Derivation vs the linked Table 1 row; each finding points at the
    // evidence, falling back to the `const NAME` that made the link.
    if let Some(row) = row {
        let at = &row.system;
        // R and V against the printed bound: the cycle's hop when the
        // walk diverged to unbounded, the first hop *beyond* the row's
        // budget when it merely overshot.
        let mut bound_check =
            |rule, what: &str, got: Option<u32>, printed: &str, cycle, lines: &[u32]| {
                let bound = Bound::parse(printed);
                if bound.is_some_and(|b| b.admits(got)) {
                    return;
                }
                let line = match (got, bound.and_then(Bound::budget)) {
                    (None, _) => cycle,
                    (Some(d), Some(c)) if d > c => lines.get(c as usize).or(lines.last()).copied(),
                    _ => None,
                };
                let got = got.map_or("unbounded".to_string(), |n| n.to_string());
                let why =
                    format!("read path {what}: {got}, but Table 1 row `{at}` allows {printed}");
                out.push(scan.err(rule, line.unwrap_or(name_line), why));
            };
        let (r, v) = (derived.rounds, derived.values);
        bound_check(
            RULE_FLOW_ROUNDS,
            "server rounds",
            r,
            &row.r,
            read.rounds_unbounded,
            &read.rounds_lines,
        );
        bound_check(
            RULE_FLOW_VALUES,
            "versions accumulated",
            v,
            &row.v,
            read.values_unbounded,
            &read.values_lines,
        );
        if let (true, Some(&(line, variant))) = (row.n, deferred.first()) {
            let why = format!(
                "{variant} is a value reply sent to a stored client pid — the response \
                 is deferrable, but Table 1 row `{at}` is non-blocking"
            );
            let help = "reply to env.from inside the request's activation";
            out.push(
                scan.err(RULE_FLOW_BLOCKING, line, why)
                    .with_help(help.into()),
            );
        } else if !row.n && deferred.is_empty() {
            let why = format!(
                "Table 1 row `{at}` has blocking reads but every value reply goes to env.from"
            );
            out.push(scan.err(RULE_FLOW_BLOCKING, name_line, why));
        }
        if derived.write_tx != row.w {
            let (w, paper) = (derived.write_tx, row.w);
            let why = format!("SUPPORTS_MULTI_WRITE is {w} but Table 1 row `{at}` says W={paper}");
            out.push(scan.err(RULE_FLOW_PAPER, name_line, why));
        }
        if !consistency_matches(&derived.consistency, &row.consistency) {
            let (c, paper) = (&derived.consistency, &row.consistency);
            let why = format!("CONSISTENCY is {c:?} but Table 1 row `{at}` says {paper:?}");
            out.push(scan.err(RULE_FLOW_PAPER, name_line, why));
        }
    }

    // Theorem 1 over the derived tuple: the code is making the claim,
    // so the hatch must live in snowlint.toml where it ages and gets
    // re-audited.
    if derived.fast() && derived.write_tx && implies_causal(&derived.consistency) {
        let why = format!(
            "derived tuple for {system} is (R=1, V=1, N) with write transactions and {} — \
             impossible by Theorem 1",
            derived.consistency
        );
        let help = "exhibits of the impossibility boundary need a snowlint.toml entry \
                    explaining which SNOW property the system actually gives up";
        out.push(
            scan.err(RULE_FLOW_IMPOSSIBLE, name_line, why)
                .with_help(help.into()),
        );
    }

    let timer_only: Vec<String> = arms
        .iter()
        .flat_map(|a| a.variants.iter())
        .filter(|v| timed.contains(v.as_str()) && !sent.contains(v.as_str()))
        .filter(|v| !rot_variants.contains(v) && !wtx_variants.contains(v))
        .cloned()
        .collect();
    let mut injected = rot_variants;
    injected.extend(wtx_variants);
    injected.dedup();

    let hints = scan
        .used_hints
        .borrow()
        .iter()
        .map(|&i| {
            (
                lx.hints[i].line,
                format!("{}({})", lx.hints[i].key, lx.hints[i].value),
            )
        })
        .collect();
    Some(HandlerGraph {
        system,
        path: path.to_string(),
        paper_row,
        hints,
        arms,
        injected,
        timer_only,
        derived,
    })
}

/// The guard at the flow pass's module boundary. snowflow closes each
/// handler over its own module's call graph and sees nothing else, so a
/// `ctx.send`, `ctx.set_timer` or `completed.insert` inside a
/// `crates/protocols/src/common/` helper would be a hop or a completion
/// no derived tuple counts. Non-test code there may have none of them;
/// `#[cfg(test)]` items (test actors) are skipped whole.
pub fn check_common(path: &str, lx: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lx.tokens;
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("cfg") && (text(i + 1), text(i + 2), text(i + 3)) == ("(", "test", ")")
        {
            // Skip the attributed item: up to its `;`, or over its block.
            let item = (i + 4..toks.len()).find(|&j| matches!(text(j), "{" | ";"));
            i = match item {
                Some(j) if text(j) == "{" => block_end(toks, j).unwrap_or(toks.len()),
                Some(j) => j,
                None => toks.len(),
            };
        } else if toks[i].kind == TokKind::Ident && text(i + 1) == "." {
            let (what, kind) = match (text(i), text(i + 2)) {
                ("ctx", "send") => ("ctx.send", "emission"),
                ("ctx", "set_timer") => ("ctx.set_timer", "emission"),
                ("completed", "insert") => ("completed.insert", "completion"),
                _ => ("", ""),
            };
            if !what.is_empty() {
                let why = format!(
                    "`{what}` in a shared helper: snowflow closes handlers over their own \
                     module only, so this {kind} is invisible to every derived SNOW tuple"
                );
                let help = "return the state the caller needs and keep every send, timer \
                            and `completed.insert` in the protocol module";
                let t = &toks[i];
                let f = Finding::error(RULE_COMMON_EFFECT, path, t.line, t.col, why);
                out.push(f.with_help(help.into()));
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// A minimal well-formed protocol module: one round, one value,
    /// non-blocking, no write transactions.
    const MINI: &str = r#"
        pub enum Msg {
            InvokeRot { id: u64 },
            ReadReq { id: u64 },
            ReadResp { id: u64 },
        }
        impl Node {
            fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
                for env in ctx.recv() {
                    match env.msg {
                        Msg::InvokeRot { id } => {
                            ctx.send(c.topo.primary(id), Msg::ReadReq { id });
                        }
                        Msg::ReadResp { id } => {
                            c.completed.insert(id);
                        }
                        _ => {}
                    }
                }
            }
            fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
                for env in ctx.recv() {
                    match env.msg {
                        Msg::ReadReq { id } => {
                            ctx.send(env.from, Msg::ReadResp { id });
                        }
                        _ => {}
                    }
                }
            }
            fn rot_invoke(id: u64) -> Msg { Msg::InvokeRot { id } }
            fn wtx_invoke(id: u64) -> Msg { Msg::InvokeRot { id } }
            fn msg_values(msg: &Msg) -> u32 {
                match msg {
                    Msg::ReadResp { .. } => 1,
                    _ => 0,
                }
            }
            fn msg_is_request(msg: &Msg) -> bool {
                matches!(msg, Msg::ReadReq { .. })
            }
        }
    "#;

    /// MINI has no `const NAME`, so it goes by its file stem and links
    /// to nothing: the empty table checks the derivation alone.
    fn derive(src: &str) -> (HandlerGraph, Vec<Finding>) {
        let mut out = Vec::new();
        let g = check_protocol("p.rs", &lex(src), &Table1::default(), &mut out).expect("graph");
        (g, out)
    }

    #[test]
    fn mini_module_derives_one_round_one_value_nonblocking() {
        let (g, out) = derive(MINI);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(g.system, "p");
        assert_eq!(g.derived.rounds, Some(1));
        assert_eq!(g.derived.values, Some(1));
        assert!(g.derived.nonblocking);
        assert!(!g.derived.write_tx);
        assert_eq!(g.derived.msgs_per_read, Some(2));
        assert_eq!(g.arms.len(), 3);
    }

    #[test]
    fn retry_cycle_makes_rounds_unbounded() {
        let src = MINI.replace(
            "Msg::ReadResp { id } => {\n                            c.completed.insert(id);",
            "Msg::ReadResp { id } => {\n                            ctx.send(c.topo.primary(id), Msg::ReadReq { id });\n                            c.completed.insert(id);",
        );
        let (g, out) = derive(&src);
        assert!(
            out.is_empty(),
            "no linked row, nothing to overshoot: {out:?}"
        );
        assert_eq!(g.derived.rounds, None);
        assert_eq!(g.derived.values, None);
    }

    #[test]
    fn timer_resends_stay_off_the_fault_free_path() {
        let src = MINI.replace(
            "c.completed.insert(id);",
            "c.completed.insert(id);\n                            ctx.set_timer(10, Msg::InvokeRot { id });",
        );
        let (g, out) = derive(&src);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(g.derived.rounds, Some(1));
    }

    #[test]
    fn msg_is_request_must_equal_the_client_to_server_sends() {
        for drifted in [
            "Msg::ReadResp { .. }",
            "Msg::ReadReq { .. } | Msg::ReadResp { .. }",
        ] {
            let src = MINI.replace(
                "matches!(msg, Msg::ReadReq { .. })",
                &format!("matches!(msg, {drifted})"),
            );
            let (_, out) = derive(&src);
            assert_eq!(out.len(), 1, "{out:?}");
            assert_eq!(out[0].rule, RULE_FLOW_REQUESTS);
            assert!(out[0].message.contains("ReadResp"), "{}", out[0].message);
        }
    }
}
