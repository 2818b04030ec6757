//! The relations of Definition 1: program order, reads-from, and the
//! causal relation (their transitive closure), over dense bit-matrices.

use crate::history::History;
use crate::types::{Key, TxId, Value};
use std::collections::BTreeMap;

/// A binary relation over `n` transactions, stored as a row-major
/// bit-matrix. Rows are `ceil(n/64)` words; `get(i, j)` is bit `j` of row
/// `i`. Dense bitsets keep the transitive closure cache-friendly — the
/// checker's hot loop is `row_i |= row_k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl Relation {
    /// The empty relation over `n` elements.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Relation {
            n,
            words,
            bits: vec![0; n * words],
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the relation is over zero elements.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Add the pair `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) {
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.words + j / 64] |= 1 << (j % 64);
    }

    /// Whether `(i, j)` is in the relation.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.words + j / 64] & (1 << (j % 64)) != 0
    }

    /// In-place union with another relation over the same elements.
    pub fn union_with(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
    }

    /// Split the matrix around row `k`: `(rows before, row k, rows after)`,
    /// so other rows can absorb row `k` without cloning it.
    #[inline]
    fn split_row(&mut self, k: usize) -> (&mut [u64], &mut [u64], &mut [u64]) {
        let (before, rest) = self.bits.split_at_mut(k * self.words);
        let (row_k, after) = rest.split_at_mut(self.words);
        (before, row_k, after)
    }

    /// Transitively close an *acyclic* relation in one sweep: visit the
    /// elements in reverse topological order, so each row absorbs the
    /// already-closed rows of its direct successors. `O(edges·n/64)`.
    /// Returns `false`, leaving the relation untouched, when it has a
    /// cycle — [`transitive_close`](Self::transitive_close) handles that.
    pub(crate) fn close_acyclic(&mut self) -> bool {
        let Some(order) = self.topo_order() else {
            return false;
        };
        let w = self.words;
        let mut succ = Vec::new();
        for &i in order.iter().rev() {
            succ.clear();
            self.for_each_successor(i, |j| succ.push(j));
            let (before, row_i, after) = self.split_row(i);
            // `topo_order` looks past self-pairs, and so does the sweep.
            for &j in succ.iter().filter(|&&j| j != i) {
                let row_j = if j < i {
                    &before[j * w..][..w]
                } else {
                    &after[(j - i - 1) * w..][..w]
                };
                for (x, y) in row_i.iter_mut().zip(row_j) {
                    *x |= *y;
                }
            }
        }
        true
    }

    /// Replace this relation with its transitive closure.
    ///
    /// Bitset Floyd–Warshall: for each intermediate `k`, every row that
    /// reaches `k` absorbs `k`'s row. `O(n²·n/64)`: the checkers keep it
    /// for genuinely cyclic graphs and as the reference that
    /// [`close_acyclic`](Self::close_acyclic) is property-tested against.
    pub fn transitive_close(&mut self) {
        let w = self.words;
        for k in 0..self.n {
            let (before, row_k, after) = self.split_row(k);
            for row_i in before.chunks_exact_mut(w).chain(after.chunks_exact_mut(w)) {
                if row_i[k / 64] & (1 << (k % 64)) != 0 {
                    for (a, b) in row_i.iter_mut().zip(row_k.iter()) {
                        *a |= *b;
                    }
                }
            }
        }
    }

    /// True if no element reaches itself (after closing, this means the
    /// underlying relation is acyclic).
    pub fn is_irreflexive(&self) -> bool {
        (0..self.n).all(|i| !self.get(i, i))
    }

    /// Call `f(j)` for every successor `j` of `i`, in ascending order.
    /// Walks the set bits of row `i` word-by-word with `trailing_zeros`,
    /// so sparse rows cost O(words + set bits) rather than `n` probes.
    #[inline]
    fn for_each_successor(&self, i: usize, mut f: impl FnMut(usize)) {
        let row = &self.bits[i * self.words..(i + 1) * self.words];
        for (wi, &word) in row.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                f(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1; // clear lowest set bit
            }
        }
    }

    /// All pairs in the relation, for debugging and tests.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            self.for_each_successor(i, |j| out.push((i, j)));
        }
        out
    }

    /// One topological order of the elements consistent with the relation
    /// (which must be acyclic when closed). Kahn's algorithm with
    /// smallest-index tie-breaking, so the result is deterministic.
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let mut indeg = vec![0usize; self.n];
        for i in 0..self.n {
            self.for_each_successor(i, |j| {
                if j != i {
                    indeg[j] += 1;
                }
            });
        }
        let mut ready: Vec<usize> = (0..self.n).filter(|&i| indeg[i] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a)); // pop smallest from the back
        let mut out = Vec::with_capacity(self.n);
        while let Some(i) = ready.pop() {
            out.push(i);
            self.for_each_successor(i, |j| {
                if j != i {
                    indeg[j] -= 1;
                    if indeg[j] == 0 {
                        // Keep `ready` sorted descending.
                        let pos = ready.partition_point(|&x| x > j);
                        ready.insert(pos, j);
                    }
                }
            });
        }
        (out.len() == self.n).then_some(out)
    }
}

/// A reads-from edge: transaction `reader` read `value` for `key`, and
/// `writer` is the transaction that wrote it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // fields are self-describing
pub struct ReadsFrom {
    pub reader: usize,
    pub writer: usize,
    pub key: Key,
    pub value: Value,
}

/// The reads-from side of a history, with no matrix: every read resolved
/// to its writer, every read nobody wrote, and each key's writers.
#[derive(Clone, Debug)]
pub struct ReadIndex {
    /// Reads-from edges (one per read that found a writer), in reader
    /// order.
    pub reads_from: Vec<ReadsFrom>,
    /// Reads whose value no transaction wrote (and is not `⊥`):
    /// `(reader index, key, value)`.
    pub unknown_reads: Vec<(usize, Key, Value)>,
    /// Key → its writers, ascending; see [`writers_of`](Self::writers_of).
    writers: BTreeMap<Key, Vec<usize>>,
}

impl ReadIndex {
    /// Resolve every read of `h` against the whole history's writers.
    ///
    /// Requires distinct written values (`h.values_distinct()`), which
    /// makes the reads-from relation unique — the paper makes the same
    /// simplifying assumption when discussing its definitions.
    pub fn build(h: &History) -> ReadIndex {
        let txs = h.transactions();
        // Writer indexes: (key, value) → writing transaction, and
        // key → every writer.
        let mut writer: BTreeMap<(Key, Value), usize> = BTreeMap::new();
        let mut writers: BTreeMap<Key, Vec<usize>> = BTreeMap::new();
        for (i, t) in txs.iter().enumerate() {
            for &(k, v) in &t.writes {
                writer.insert((k, v), i);
                let ws = writers.entry(k).or_default();
                if ws.last() != Some(&i) {
                    ws.push(i);
                }
            }
        }

        let mut reads_from = Vec::new();
        let mut unknown_reads = Vec::new();
        for (i, t) in txs.iter().enumerate() {
            for &(k, v) in &t.reads {
                if v.is_bottom() {
                    continue; // read of the initial ⊥: no writer
                }
                match writer.get(&(k, v)) {
                    Some(&w) if w != i => reads_from.push(ReadsFrom {
                        reader: i,
                        writer: w,
                        key: k,
                        value: v,
                    }),
                    // Transactions are one-shot: reads observe the
                    // pre-state, so "reading one's own write" means
                    // reading a value that does not exist yet.
                    Some(_) => unknown_reads.push((i, k, v)),
                    None => unknown_reads.push((i, k, v)),
                }
            }
        }
        ReadIndex {
            reads_from,
            unknown_reads,
            writers,
        }
    }

    /// The transactions that write `k`, ascending: the only candidates
    /// rules 3 and 3b and every client's rule-4 saturation have to look
    /// at.
    pub fn writers_of(&self, k: Key) -> &[usize] {
        self.writers.get(&k).map_or(&[], Vec::as_slice)
    }
}

/// The causal apparatus of a history: index maps, program order,
/// reads-from, and the (closed) causal relation
/// `<c = (∪_c <_{H|c} ∪ <r)⁺`.
#[derive(Clone, Debug)]
pub struct CausalOrder {
    /// Maps history position → TxId (positions index the relation).
    pub tx_ids: Vec<TxId>,
    /// Program order, unclosed.
    pub program_order: Relation,
    /// Reads-from edges, unknown reads and each key's writers.
    pub index: ReadIndex,
    /// The causal relation, transitively closed.
    pub causal: Relation,
}

impl CausalOrder {
    /// Build the causal order of `h` (distinct written values required,
    /// as for [`ReadIndex::build`]).
    pub fn build(h: &History) -> CausalOrder {
        let txs = h.transactions();
        let n = txs.len();
        let tx_ids: Vec<TxId> = txs.iter().map(|t| t.id).collect();

        // Program order: consecutive transactions of the same client.
        let mut po = Relation::new(n);
        let mut last_of_client: BTreeMap<crate::types::ClientId, usize> = BTreeMap::new();
        for (i, t) in txs.iter().enumerate() {
            if let Some(&prev) = last_of_client.get(&t.client) {
                po.set(prev, i);
            }
            last_of_client.insert(t.client, i);
        }

        let index = ReadIndex::build(h);
        let mut causal = po.clone();
        for rf in &index.reads_from {
            causal.set(rf.writer, rf.reader);
        }
        // `po ∪ rf` is a DAG unless a forward reads-from edge closed a
        // cycle; only then pay for Floyd–Warshall (the verdict is
        // `CausalityCycle` straight after).
        if !causal.close_acyclic() {
            causal.transitive_close();
        }

        CausalOrder {
            tx_ids,
            program_order: po,
            index,
            causal,
        }
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.tx_ids.len()
    }

    /// True if the order covers no transactions.
    pub fn is_empty(&self) -> bool {
        self.tx_ids.is_empty()
    }

    /// `a <c b`?
    #[inline]
    pub fn before(&self, a: usize, b: usize) -> bool {
        self.causal.get(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::tx;

    #[test]
    fn closure_of_chain() {
        let mut r = Relation::new(4);
        r.set(0, 1);
        r.set(1, 2);
        r.set(2, 3);
        r.transitive_close();
        assert!(r.get(0, 3));
        assert!(r.get(1, 3));
        assert!(!r.get(3, 0));
        assert!(r.is_irreflexive());
    }

    #[test]
    fn closure_detects_cycle() {
        let mut r = Relation::new(3);
        r.set(0, 1);
        r.set(1, 2);
        r.set(2, 0);
        r.transitive_close();
        assert!(!r.is_irreflexive());
    }

    #[test]
    fn closure_across_word_boundary() {
        // 100 elements: rows span two words.
        let n = 100;
        let mut r = Relation::new(n);
        for i in 0..n - 1 {
            r.set(i, i + 1);
        }
        r.transitive_close();
        assert!(r.get(0, 99));
        assert!(r.get(63, 64));
        assert!(!r.get(99, 0));
    }

    #[test]
    fn pairs_walk_set_bits_across_word_boundaries() {
        let mut r = Relation::new(130);
        r.set(0, 0);
        r.set(0, 63);
        r.set(0, 64);
        r.set(1, 129);
        r.set(129, 1);
        assert_eq!(
            r.pairs(),
            vec![(0, 0), (0, 63), (0, 64), (1, 129), (129, 1)]
        );
    }

    #[test]
    fn topo_order_matches_across_word_boundaries() {
        // A 70-element chain exercises successors in the second word.
        let n = 70;
        let mut r = Relation::new(n);
        for i in 0..n - 1 {
            r.set(i, i + 1);
        }
        assert_eq!(r.topo_order().unwrap(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut r = Relation::new(4);
        r.set(2, 0);
        r.set(0, 1);
        r.set(3, 1);
        let order = r.topo_order().unwrap();
        let pos = |x: usize| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(2) < pos(0));
        assert!(pos(0) < pos(1));
        assert!(pos(3) < pos(1));
    }

    #[test]
    fn topo_order_fails_on_cycle() {
        let mut r = Relation::new(2);
        r.set(0, 1);
        r.set(1, 0);
        assert!(r.topo_order().is_none());
    }

    #[test]
    fn union_with_merges() {
        let mut a = Relation::new(2);
        a.set(0, 1);
        let mut b = Relation::new(2);
        b.set(1, 0);
        a.union_with(&b);
        assert!(a.get(0, 1) && a.get(1, 0));
    }

    #[test]
    fn causal_order_of_simple_history() {
        // c0: writes X0=1 then X1=2. c1: reads X0=1 (rf) then writes X0=3.
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 0, &[], &[(1, 2)]),
            tx(2, 1, &[(0, 1)], &[]),
            tx(3, 1, &[], &[(0, 3)]),
        ]
        .into_iter()
        .collect();
        let co = CausalOrder::build(&h);
        assert_eq!(co.len(), 4);
        assert_eq!(co.index.reads_from.len(), 1);
        assert_eq!(co.index.reads_from[0].writer, 0);
        assert_eq!(co.index.reads_from[0].reader, 2);
        // Closure: T0 <c T2 <c T3, T0 <c T1 (po).
        assert!(co.before(0, 2));
        assert!(co.before(0, 3));
        assert!(co.before(2, 3));
        assert!(co.before(0, 1));
        assert!(!co.before(1, 2)); // different clients, no rf
        assert!(co.causal.is_irreflexive());
    }

    #[test]
    fn bottom_reads_add_no_edges() {
        let h: History = vec![tx(0, 0, &[(0, u64::MAX)], &[])].into_iter().collect();
        let co = CausalOrder::build(&h);
        assert!(co.index.reads_from.is_empty());
        assert!(co.index.unknown_reads.is_empty());
    }

    #[test]
    fn unknown_value_reads_are_reported() {
        let h: History = vec![tx(0, 0, &[(0, 42)], &[])].into_iter().collect();
        let co = CausalOrder::build(&h);
        assert_eq!(co.index.unknown_reads, vec![(0, Key(0), Value(42))]);
    }

    #[test]
    fn own_write_read_is_an_unknown_pre_state_read() {
        // One-shot transactions read the pre-state; a transaction cannot
        // observe its own (later) write.
        let h: History = vec![tx(0, 0, &[(0, 1)], &[(0, 1)])].into_iter().collect();
        let co = CausalOrder::build(&h);
        assert!(co.index.reads_from.is_empty());
        assert_eq!(co.index.unknown_reads.len(), 1);
    }
}
