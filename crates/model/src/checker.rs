//! Graph-based causal-consistency checker.
//!
//! Implements Definition 1 as a polynomial-time decision procedure for
//! histories with distinct written values (which the harnesses guarantee
//! by construction, and the paper assumes when explaining its definitions):
//!
//! 1. every read must return `⊥` or a value some transaction wrote;
//! 2. the causal relation `<c = (∪ program-order ∪ reads-from)⁺` must be
//!    acyclic;
//! 3. **no stale read**: if `T` reads object `k` from writer `W1`, no other
//!    writer `W2` of `k` may satisfy `W1 <c W2 <c T` — in every
//!    serialization respecting `<c`, `W2` would sit between `W1` and `T`,
//!    making the read illegal (this is the rule the paper's contradictory
//!    execution `γ` trips: the mixed snapshot `(x_in_{k%2}, x_{(k-1)%2})`);
//! 4. **per-client serializability under `<c`**: for each client, the
//!    constraint graph (causal edges plus, for every read by that client,
//!    "any other writer of the same object that must precede the reader
//!    must precede the writer it read from") must be acyclic. This catches
//!    fractured reads between *concurrent* multi-object write transactions
//!    that rule 3 alone cannot see.
//!
//! Rules 1–4 together are checked against the literal Definition 1 search
//! ([`crate::exhaustive`]) by property tests.

use std::collections::BTreeMap;

use crate::history::History;
use crate::relations::{CausalOrder, ReadIndex, ReadsFrom};
use crate::types::{ClientId, Key, TxId, Value};

/// A specific way a history fails causal consistency.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)] // fields are self-describing
pub enum Violation {
    /// Two transactions wrote the same value; the graph checker requires
    /// distinct values (the harnesses allocate them from a counter).
    DuplicateValues,
    /// A read returned a value nobody wrote.
    UnknownValue {
        reader: TxId,
        key: Key,
        value: Value,
    },
    /// Program order and reads-from form a cycle.
    CausalityCycle,
    /// `reader` read `key` from `read_from`, but `overwritten_by` writes
    /// `key` and `read_from <c overwritten_by <c reader`.
    StaleRead {
        reader: TxId,
        key: Key,
        read_from: TxId,
        overwritten_by: TxId,
    },
    /// `reader` read `⊥` for `key` although `written_by` writes `key`
    /// and `written_by <c reader` — the initial value was already
    /// causally overwritten.
    BottomReadAfterWrite {
        reader: TxId,
        key: Key,
        written_by: TxId,
    },
    /// No serialization respecting the causal order makes this client's
    /// reads legal (fractured reads across concurrent write transactions).
    Unserializable { client: ClientId },
    /// A garbage-collected incremental checker met a shape only the
    /// compacted history could decide (a forward reads-from edge, or a
    /// client that needs the rule-4 fixpoint). The verdict is not OK,
    /// and `reason` says which shape. The legacy checker never emits it.
    Undecided { reason: &'static str },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DuplicateValues => {
                write!(f, "two transactions wrote the same value (checker precondition)")
            }
            Violation::UnknownValue { reader, key, value } => {
                write!(f, "{reader:?} read {value:?} for {key:?}, which nobody wrote")
            }
            Violation::CausalityCycle => write!(f, "program order and reads-from form a cycle"),
            Violation::StaleRead { reader, key, read_from, overwritten_by } => write!(
                f,
                "{reader:?} read {key:?} from {read_from:?}, but {overwritten_by:?} overwrote it causally in between"
            ),
            Violation::BottomReadAfterWrite { reader, key, written_by } => write!(
                f,
                "{reader:?} read ⊥ for {key:?} although {written_by:?} causally preceded it"
            ),
            Violation::Unserializable { client } => write!(
                f,
                "no serialization respecting causality makes client {client}'s reads legal"
            ),
            Violation::Undecided { reason } => {
                write!(f, "undecided after GC compacted the history: {reason}")
            }
        }
    }
}

/// The checker's result: empty `violations` means the history is causally
/// consistent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// All detected violations, in detection order.
    pub violations: Vec<Violation>,
}

/// Distinct violation lines [`Verdict::render`] prints before summarizing
/// the rest — a failing million-transaction run repeats a handful of
/// shapes millions of times, and an unbounded report would dwarf the
/// history it describes.
const RENDER_MAX_DISTINCT: usize = 1_000;

impl Verdict {
    /// True if the history passed.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// A human-readable multi-line report. Duplicate violations collapse
    /// into one line with a `(×count)` suffix, in first-occurrence order,
    /// and the report is capped at [`RENDER_MAX_DISTINCT`] distinct lines
    /// so its size is bounded by the violation variety, not the history
    /// length.
    pub fn render(&self) -> String {
        if self.is_ok() {
            return "causally consistent".to_string();
        }
        // first-occurrence order ↔ count, via a sorted index.
        let mut counts: std::collections::BTreeMap<&Violation, (usize, u64)> = Default::default();
        for (i, v) in self.violations.iter().enumerate() {
            counts.entry(v).or_insert((i, 0)).1 += 1;
        }
        let mut distinct: Vec<(&Violation, usize, u64)> =
            counts.into_iter().map(|(v, (i, n))| (v, i, n)).collect();
        distinct.sort_unstable_by_key(|&(_, first, _)| first);

        let mut out = format!("{} violation(s):\n", self.violations.len());
        let shown = distinct.len().min(RENDER_MAX_DISTINCT);
        for &(v, _, n) in &distinct[..shown] {
            if n == 1 {
                out.push_str(&format!("  - {v}\n"));
            } else {
                out.push_str(&format!("  - {v} (×{n})\n"));
            }
        }
        if distinct.len() > shown {
            out.push_str(&format!(
                "  … and {} more distinct violation(s)\n",
                distinct.len() - shown
            ));
        }
        out
    }
}

/// Check a history for causal consistency. See module docs for the rules.
///
/// This is a thin wrapper over the incremental checker
/// ([`crate::incremental::check_causal_incremental`]), whose verdicts are
/// asserted bit-identical to [`check_causal_legacy`] by the differential
/// suite in `tests/differential.rs`.
pub fn check_causal(h: &History) -> Verdict {
    crate::incremental::check_causal_incremental(h)
}

/// The original recompute-from-scratch checker: builds the full
/// [`CausalOrder`] (dense transitive closure), walks each read's per-key
/// writer list for rules 3/3b and decides rule 4 per client by
/// `client_serializable` over frontiers swept from that order. Kept as
/// the differential-testing oracle for the incremental path and as its
/// exact fallback. Memory is quadratic (n²/8 bytes per matrix), which is
/// what caps the history size; on an acyclic history time is
/// `O(edges·n/64)` for the closure plus, per client, a few saturation
/// rounds over `sessions`-wide frontiers — the cubic Floyd–Warshall runs
/// only when program order and reads-from already form a cycle.
pub fn check_causal_legacy(h: &History) -> Verdict {
    let mut v = Verdict::default();
    if !h.values_distinct() {
        v.violations.push(Violation::DuplicateValues);
        return v;
    }
    let co = CausalOrder::build(h);
    let index = &co.index;

    for &(reader, key, value) in &index.unknown_reads {
        v.violations.push(Violation::UnknownValue {
            reader: co.tx_ids[reader],
            key,
            value,
        });
    }

    if !co.causal.is_irreflexive() {
        v.violations.push(Violation::CausalityCycle);
        return v; // the remaining rules assume a partial order
    }

    // Rule 3: stale reads. Only a writer of the key can overwrite it, so
    // walk the key's ascending writer list, not every transaction.
    let txs = h.transactions();
    for rf in &index.reads_from {
        for &j in index.writers_of(rf.key) {
            if j == rf.writer || j == rf.reader {
                continue;
            }
            if co.before(rf.writer, j) && co.before(j, rf.reader) {
                v.violations.push(Violation::StaleRead {
                    reader: co.tx_ids[rf.reader],
                    key: rf.key,
                    read_from: co.tx_ids[rf.writer],
                    overwritten_by: co.tx_ids[j],
                });
            }
        }
    }

    // Rule 3b: reads of ⊥ that a causally-preceding write already
    // invalidated.
    for (i, t) in txs.iter().enumerate() {
        for &(k, val) in &t.reads {
            if !val.is_bottom() {
                continue;
            }
            for &j in index.writers_of(k) {
                if j != i && co.before(j, i) {
                    v.violations.push(Violation::BottomReadAfterWrite {
                        reader: co.tx_ids[i],
                        key: k,
                        written_by: co.tx_ids[j],
                    });
                }
            }
        }
    }

    // Rule 4: per-client constraint saturation, in client order.
    let fr = SweptFrontiers::build(h, &co);
    for client in h.clients() {
        if !client_serializable(h, index, &fr, client) {
            v.violations.push(Violation::Unserializable { client });
        }
    }

    v
}

/// Per-session causal frontiers: the encoding rule 4's saturation runs
/// over. Sessions are the clients, numbered densely, and `clock(t)[s]`
/// counts the transactions of session `s` in the causal past of `t`,
/// `t` included. Program order totally orders a session, so that past is
/// a prefix of it and `a <c b ⟺ a ≠ b ∧ clock(b)[session(a)] > pos(a)`.
pub(crate) trait Frontiers {
    /// Number of sessions: the width every frontier is read at.
    fn width(&self) -> usize;
    /// Dense session index of transaction `t`.
    fn session_of(&self, t: usize) -> u32;
    /// Program-order position of `t` within its session.
    fn position(&self, t: usize) -> u32;
    /// `clock(t)`; entries past the end of the slice read 0.
    fn clock(&self, t: usize) -> &[u32];
}

/// The frontiers of an acyclic [`CausalOrder`], from one sweep over
/// `po ∪ rf` in topological order. History order need not be one: a
/// reads-from edge may point forward.
struct SweptFrontiers {
    width: usize,
    session: Vec<u32>,
    pos: Vec<u32>,
    /// `n × width`: row `t` is `clock(t)`.
    clocks: Vec<u32>,
}

impl SweptFrontiers {
    fn build(h: &History, co: &CausalOrder) -> SweptFrontiers {
        let txs = h.transactions();
        let n = txs.len();
        let mut sessions: BTreeMap<ClientId, u32> = BTreeMap::new();
        let (mut session, mut pos) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut prev: Vec<Option<usize>> = Vec::with_capacity(n);
        let mut last: Vec<usize> = Vec::new(); // per session
        for (i, t) in txs.iter().enumerate() {
            let fresh = sessions.len() as u32;
            let s = *sessions.entry(t.client).or_insert(fresh);
            if s == fresh {
                last.push(i);
                prev.push(None);
                pos.push(0);
            } else {
                let p = std::mem::replace(&mut last[s as usize], i);
                prev.push(Some(p));
                pos.push(pos[p] + 1);
            }
            session.push(s);
        }

        let width = sessions.len();
        let mut direct = co.program_order.clone();
        let rf = &co.index.reads_from;
        for e in rf {
            direct.set(e.writer, e.reader);
        }
        let order = direct
            .topo_order()
            .expect("rule 2 rejected every causality cycle");
        let mut clocks = vec![0u32; n * width];
        let mut row = vec![0u32; width];
        for t in order {
            row.fill(0);
            // `reads_from` is in reader order.
            let into_t = rf[rf.partition_point(|e| e.reader < t)..]
                .iter()
                .take_while(|e| e.reader == t);
            for p in prev[t].into_iter().chain(into_t.map(|e| e.writer)) {
                join(&mut row, &clocks[p * width..][..width]);
            }
            row[session[t] as usize] = pos[t] + 1;
            clocks[t * width..][..width].copy_from_slice(&row);
        }
        SweptFrontiers {
            width,
            session,
            pos,
            clocks,
        }
    }
}

impl Frontiers for SweptFrontiers {
    fn width(&self) -> usize {
        self.width
    }
    fn session_of(&self, t: usize) -> u32 {
        self.session[t]
    }
    fn position(&self, t: usize) -> u32 {
        self.pos[t]
    }
    fn clock(&self, t: usize) -> &[u32] {
        &self.clocks[t * self.width..][..self.width]
    }
}

/// `t` is in the past a frontier encodes (`past` may be shorter than
/// the width; missing entries read 0).
#[inline]
fn holds(fr: &impl Frontiers, past: &[u32], t: usize) -> bool {
    past.get(fr.session_of(t) as usize)
        .is_some_and(|&c| c > fr.position(t))
}

/// `into ⊔= from`, pointwise; true if `into` grew.
#[inline]
fn join(into: &mut [u32], from: &[u32]) -> bool {
    let mut grew = false;
    for (a, &b) in into.iter_mut().zip(from) {
        grew |= b > *a;
        *a = (*a).max(b);
    }
    grew
}

/// Decide rule 4 for one client: does some serialization respecting
/// `<c` make every read of `client` legal? Constraint: for each read by
/// `client`'s transaction `T` of object `k` from `W1`, every other writer
/// `W2` of `k` that is forced before `T` must be forced before `W1`; the
/// client is serializable iff the least forced relation closed under
/// that rule is acyclic and leaves every `⊥`-read of the client before
/// all writers of its key.
///
/// The forced relation contains `<c`, which contains program order, so
/// each transaction's forced past is still a program-order prefix per
/// session and a frontier encodes it exactly. Every forced edge `W2 →
/// W1` points into a writer the client read — a *target* — so the
/// saturation keeps one closed frontier per target (its forced past,
/// containing the closed frontier of every target inside it), and the
/// forced past of any transaction is its causal frontier joined with the
/// closed frontier of each target in that causal frontier. A round
/// closes the target frontiers, looks for a cycle, checks the `⊥`-reads,
/// and scans the client's reads × the key's writers for edges that are
/// forced but missing; a round that finds none answers `true`. The least
/// fixpoint is unique and both exits are monotone in the forced
/// relation, so the answer does not depend on the order edges are
/// discovered in.
pub(crate) fn client_serializable(
    h: &History,
    index: &ReadIndex,
    fr: &impl Frontiers,
    client: ClientId,
) -> bool {
    let txs = h.transactions();
    let reads: Vec<&ReadsFrom> = index
        .reads_from
        .iter()
        .filter(|rf| txs[rf.reader].client == client)
        .collect();
    // ⊥-reads by this client: (reader index, key). No writer of the key
    // may ever be forced before the reader.
    let bottom_reads: Vec<(usize, Key)> = txs
        .iter()
        .enumerate()
        .filter(|(_, t)| t.client == client)
        .flat_map(|(i, t)| {
            t.reads
                .iter()
                .filter(|(_, v)| v.is_bottom())
                .map(move |&(k, _)| (i, k))
        })
        .collect();

    let w = fr.width();
    // The transactions a round needs the forced past of, ascending; row
    // `i` of `past` is the forced past of `nodes[i]`.
    let mut nodes: Vec<usize> = reads
        .iter()
        .flat_map(|rf| [rf.reader, rf.writer])
        .chain(bottom_reads.iter().map(|&(r, _)| r))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    let row = |t: usize| nodes.partition_point(|&x| x < t);
    let mut past = vec![0u32; nodes.len() * w];
    for (i, &x) in nodes.iter().enumerate() {
        let cx = fr.clock(x);
        past[i * w..][..cx.len()].copy_from_slice(cx);
    }
    // Forced pasts only grow. A read whose two rows did not grow since
    // the last scan finds nothing new: an edge that scan found into its
    // source grew the source's row.
    let mut grew = vec![true; nodes.len()];

    // Targets, and row `i` of `closed`: the forced past of `targets[i]`.
    // Rows only grow: `closed_at[i]` is row `i`'s version, bumped each
    // time it grows, and `past_took[j]` the version of row `j` that the
    // rows of `past` hold (`took` is the same per pair of targets).
    let mut targets: Vec<usize> = Vec::new();
    let mut closed: Vec<u32> = Vec::new();
    let mut closed_at: Vec<u32> = Vec::new();
    let mut took: Vec<Vec<u32>> = Vec::new();
    let mut past_took: Vec<u32> = Vec::new();
    let mut fresh: Vec<(usize, usize)> = Vec::new();
    loop {
        close_targets(fr, &targets, &mut closed, &mut closed_at, &mut took);
        // A cycle runs through some forced edge `a → t`, so `t` is in the
        // forced past of `a`: either `t <c a` (caught when the edge went
        // in, below), or `t` lies in the closed frontier of another
        // target `u` in the past of `a` — and then `u`, like all of `a`'s
        // past, lies in `t`'s.
        for (i, &ti) in targets.iter().enumerate() {
            for (j, &tj) in targets.iter().enumerate().skip(i + 1) {
                if holds(fr, &closed[i * w..][..w], tj) && holds(fr, &closed[j * w..][..w], ti) {
                    return false;
                }
            }
        }
        for (i, &x) in nodes.iter().enumerate() {
            let (out, cx) = (&mut past[i * w..][..w], fr.clock(x));
            for (j, &t) in targets.iter().enumerate() {
                if past_took[j] != closed_at[j] && holds(fr, cx, t) {
                    grew[i] |= join(out, &closed[j * w..][..w]);
                }
            }
        }
        past_took.clone_from(&closed_at);
        let past_of = |t: usize| &past[row(t) * w..][..w];

        for &(reader, k) in &bottom_reads {
            let p = past_of(reader);
            if index
                .writers_of(k)
                .iter()
                .any(|&j| j != reader && holds(fr, p, j))
            {
                return false;
            }
        }
        fresh.clear();
        for rf in &reads {
            if !grew[row(rf.reader)] && !grew[row(rf.writer)] {
                continue;
            }
            let (pr, pw) = (past_of(rf.reader), past_of(rf.writer));
            for &w2 in index.writers_of(rf.key) {
                if w2 != rf.writer && w2 != rf.reader && holds(fr, pr, w2) && !holds(fr, pw, w2) {
                    fresh.push((w2, rf.writer));
                }
            }
        }
        if fresh.is_empty() {
            return true;
        }
        grew.fill(false);
        for &(a, t) in &fresh {
            let ca = fr.clock(a);
            if holds(fr, ca, t) {
                return false; // t <c a: the edge closes a cycle
            }
            let i = targets.iter().position(|&x| x == t).unwrap_or_else(|| {
                targets.push(t);
                closed.extend(fr.clock(t));
                closed.resize(targets.len() * w, 0);
                closed_at.push(1);
                past_took.push(0);
                targets.len() - 1
            });
            if join(&mut closed[i * w..][..w], ca) {
                closed_at[i] += 1;
            }
        }
    }
}

/// Bring every target's frontier to its closure: it contains the
/// frontier of each target inside it. `took[i][j]` is the version of row
/// `j` that row `i` last took in; rows only grow, so a pair whose row `j`
/// kept that version is still closed.
fn close_targets(
    fr: &impl Frontiers,
    targets: &[usize],
    closed: &mut [u32],
    closed_at: &mut [u32],
    took: &mut Vec<Vec<u32>>,
) {
    let (w, n) = (fr.width(), targets.len());
    took.resize_with(n, Vec::new);
    for row in took.iter_mut() {
        row.resize(n, 0);
    }
    loop {
        let mut grew = false;
        for i in 0..n {
            for (j, &tj) in targets.iter().enumerate() {
                if i == j || took[i][j] == closed_at[j] || !holds(fr, &closed[i * w..][..w], tj) {
                    continue;
                }
                took[i][j] = closed_at[j];
                let (into, from) = if i < j {
                    let (lo, hi) = closed.split_at_mut(j * w);
                    (&mut lo[i * w..][..w], &hi[..w])
                } else {
                    let (lo, hi) = closed.split_at_mut(i * w);
                    (&mut hi[..w], &lo[j * w..][..w])
                };
                if join(into, from) {
                    closed_at[i] += 1;
                    grew = true;
                }
            }
        }
        if !grew {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::tx;

    fn ok(h: &History) {
        let v = check_causal(h);
        assert!(v.is_ok(), "unexpected violations: {:?}", v.violations);
    }

    fn bad(h: &History) -> Vec<Violation> {
        let v = check_causal(h);
        assert!(!v.is_ok(), "expected violations, found none");
        v.violations
    }

    #[test]
    fn empty_history_is_consistent() {
        ok(&History::new());
    }

    #[test]
    fn simple_write_then_read_is_consistent() {
        ok(&vec![tx(0, 0, &[], &[(0, 1)]), tx(1, 1, &[(0, 1)], &[])]
            .into_iter()
            .collect());
    }

    #[test]
    fn read_of_bottom_is_consistent() {
        ok(&vec![tx(0, 0, &[(0, u64::MAX)], &[])].into_iter().collect());
    }

    #[test]
    fn unknown_value_is_flagged() {
        let vs = bad(&vec![tx(0, 0, &[(0, 7)], &[])].into_iter().collect());
        assert!(matches!(vs[0], Violation::UnknownValue { .. }));
    }

    #[test]
    fn duplicate_values_are_flagged() {
        let vs = bad(&vec![tx(0, 0, &[], &[(0, 1)]), tx(1, 1, &[], &[(1, 1)])]
            .into_iter()
            .collect());
        assert_eq!(vs, vec![Violation::DuplicateValues]);
    }

    #[test]
    fn the_papers_mixed_snapshot_is_a_stale_read() {
        // The γ execution of Lemma 3 for k=1:
        //   T0 = T_in_0 writes X0=1; T1 = T_in_1 writes X1=2   (init)
        //   T2 = T_in_r by cw reads (X0=1, X1=2)               (C0 setup)
        //   T3 = Tw by cw writes X0=10, X1=11
        //   T4 = Tr by cr reads (X0=1, X1=11)  ← old X0, new X1: forbidden
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[], &[(1, 2)]),
            tx(2, 2, &[(0, 1), (1, 2)], &[]),
            tx(3, 2, &[], &[(0, 10), (1, 11)]),
            tx(4, 3, &[(0, 1), (1, 11)], &[]),
        ]
        .into_iter()
        .collect();
        let vs = bad(&h);
        assert!(
            vs.iter().any(|v| matches!(
                v,
                Violation::StaleRead {
                    reader: TxId(4),
                    key: Key(0),
                    read_from: TxId(0),
                    overwritten_by: TxId(3)
                }
            )),
            "got {vs:?}"
        );
    }

    #[test]
    fn fresh_snapshot_of_both_values_is_consistent() {
        // Same prefix, but Tr reads both new values: fine.
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[], &[(1, 2)]),
            tx(2, 2, &[(0, 1), (1, 2)], &[]),
            tx(3, 2, &[], &[(0, 10), (1, 11)]),
            tx(4, 3, &[(0, 10), (1, 11)], &[]),
        ]
        .into_iter()
        .collect();
        ok(&h);
    }

    #[test]
    fn old_snapshot_of_both_values_is_consistent() {
        // ...and reading both old values is also fine (causal ≠ fresh).
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[], &[(1, 2)]),
            tx(2, 2, &[(0, 1), (1, 2)], &[]),
            tx(3, 2, &[], &[(0, 10), (1, 11)]),
            tx(4, 3, &[(0, 1), (1, 2)], &[]),
        ]
        .into_iter()
        .collect();
        ok(&h);
    }

    #[test]
    fn stale_read_via_program_order_chain() {
        // c0 writes X0=1, then X0=2. c1 reads X0=2 then X0=1: the second
        // read is stale (W1=T0 <c W2=T1 <c reader via rf on first read?).
        // Here: reader T3 reads from T0, and T1 (writes X0) satisfies
        // T0 <po T1 and T1 <rf T2 <po T3.
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 0, &[], &[(0, 2)]),
            tx(2, 1, &[(0, 2)], &[]),
            tx(3, 1, &[(0, 1)], &[]),
        ]
        .into_iter()
        .collect();
        let vs = bad(&h);
        assert!(vs.iter().any(|v| matches!(v, Violation::StaleRead { .. })));
    }

    #[test]
    fn concurrent_writes_may_be_read_in_either_order_by_different_clients() {
        // W(X0)=1 by c0 and W(X0)=2 by c1 are concurrent. c2 reads 1 then
        // 2; c3 reads 2 then... reading 2 then 1 *is* allowed under causal
        // consistency (no convergence requirement): each client has its
        // own serialization.
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[], &[(0, 2)]),
            tx(2, 2, &[(0, 1)], &[]),
            tx(3, 2, &[(0, 2)], &[]),
            tx(4, 3, &[(0, 2)], &[]),
            tx(5, 3, &[(0, 1)], &[]),
        ]
        .into_iter()
        .collect();
        ok(&h);
    }

    #[test]
    fn oscillating_reads_by_one_client_are_flagged() {
        // One client reading 1, 2, 1 for the same object: after seeing
        // 2 (which must be serialized after 1 given read 1 first? no —
        // but re-reading 1 after 2 forces 1 between 2 and the reader and
        // simultaneously 1 before 2): unserializable for that client.
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[], &[(0, 2)]),
            tx(2, 2, &[(0, 1)], &[]),
            tx(3, 2, &[(0, 2)], &[]),
            tx(4, 2, &[(0, 1)], &[]),
        ]
        .into_iter()
        .collect();
        let vs = bad(&h);
        assert!(
            vs.iter().any(|v| matches!(
                v,
                Violation::Unserializable {
                    client: ClientId(2)
                } | Violation::StaleRead { .. }
            )),
            "got {vs:?}"
        );
    }

    #[test]
    fn fractured_read_of_concurrent_write_txs_is_flagged() {
        // Tw1 writes (X0=1, X1=2); Tw2 writes (X0=3, X1=4); concurrent.
        // Tr reads X0=1 (from Tw1) and X1=4 (from Tw2). For Tr's client:
        // Tw2 <c Tr (rf), Tw2 writes X0 → must precede Tw1; Tw1 <c Tr
        // (rf), Tw1 writes X1 → must precede Tw2. Cycle → unserializable.
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1), (1, 2)]),
            tx(1, 1, &[], &[(0, 3), (1, 4)]),
            tx(2, 2, &[(0, 1), (1, 4)], &[]),
        ]
        .into_iter()
        .collect();
        let vs = bad(&h);
        assert!(
            vs.iter().any(|v| matches!(
                v,
                Violation::Unserializable {
                    client: ClientId(2)
                }
            )),
            "got {vs:?}"
        );
    }

    #[test]
    fn reading_concurrent_write_txs_whole_is_consistent() {
        // Same two write transactions, but the reader sees Tw2 entirely.
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1), (1, 2)]),
            tx(1, 1, &[], &[(0, 3), (1, 4)]),
            tx(2, 2, &[(0, 3), (1, 4)], &[]),
        ]
        .into_iter()
        .collect();
        ok(&h);
    }

    #[test]
    fn causality_cycle_is_flagged() {
        // T0 (c0) reads c1's value and writes its own; T1 (c1) reads T0's
        // value and wrote the value T0 read: rf cycle.
        let h: History = vec![
            tx(0, 0, &[(0, 2)], &[(1, 1)]),
            tx(1, 1, &[(1, 1)], &[(0, 2)]),
        ]
        .into_iter()
        .collect();
        let vs = bad(&h);
        assert!(vs.contains(&Violation::CausalityCycle));
    }

    #[test]
    fn long_causal_chain_is_consistent() {
        // A relay: each client reads the previous value and writes the
        // next; a final reader sees the latest.
        let mut txs = vec![tx(0, 0, &[], &[(0, 100)])];
        for i in 1..20u64 {
            txs.push(tx(i, i as u32, &[(0, 99 + i)], &[(0, 100 + i)]));
        }
        txs.push(tx(20, 20, &[(0, 119)], &[]));
        ok(&txs.into_iter().collect());
    }

    #[test]
    fn read_your_writes_violation_is_not_necessarily_causal_violation() {
        // c0 writes 1 then reads a *concurrent* write 2: allowed by
        // causal consistency (2 can serialize after 1).
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[], &[(0, 2)]),
            tx(2, 0, &[(0, 2)], &[]),
        ]
        .into_iter()
        .collect();
        ok(&h);
    }

    #[test]
    fn violations_render_readably() {
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 0, &[], &[(0, 2)]),
            tx(2, 0, &[(0, 1)], &[]),
        ]
        .into_iter()
        .collect();
        let v = check_causal(&h);
        let report = v.render();
        assert!(report.contains("violation"));
        assert!(report.contains("overwrote it causally"), "{report}");
        // And the happy path.
        assert_eq!(
            check_causal(&History::new()).render(),
            "causally consistent"
        );
    }

    #[test]
    fn reading_own_overwritten_value_is_stale() {
        // c0 writes 1, overwrites with 2, then reads 1 again: stale.
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 0, &[], &[(0, 2)]),
            tx(2, 0, &[(0, 1)], &[]),
        ]
        .into_iter()
        .collect();
        let vs = bad(&h);
        assert!(vs.iter().any(|v| matches!(v, Violation::StaleRead { .. })));
    }
}
