//! Literal Definition 1: search over equivalent sequential histories.
//!
//! For each client `c_i`, Definition 1 asks for *some* sequential execution
//! `σ_i` containing all complete transactions such that `H(σ_i)` respects
//! the causal order and every transaction of `c_i` is legal in `σ_i`.
//! With distinct written values the reads-from relation — and hence the
//! causal relation — is unique, so the search reduces to: *does a
//! topological order of `<c` exist in which all of `c_i`'s reads are
//! legal?*
//!
//! This module answers that by backtracking over topological orders with
//! incremental legality pruning. It is exponential in the worst case and
//! only used on small histories — its job is to cross-validate the
//! polynomial checker ([`crate::checker`]), which property tests do on
//! thousands of random histories.

use crate::history::History;
use crate::relations::CausalOrder;
use crate::types::{ClientId, Key, Value};
use std::collections::BTreeMap;

/// Outcome of the exhaustive search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exhaustive {
    /// Every client has a legal serialization: causally consistent.
    Consistent,
    /// Some client has none: not causally consistent.
    Inconsistent(ClientId),
    /// The search budget was exhausted before a verdict.
    Unknown,
}

/// Check causal consistency by explicit search. `budget` bounds the total
/// number of search nodes (per client); pick a few million for histories
/// of ≤ 10 transactions.
pub fn check_causal_exhaustive(h: &History, budget: u64) -> Exhaustive {
    if h.is_empty() {
        return Exhaustive::Consistent;
    }
    if !h.values_distinct() {
        // The unique-reads-from reduction needs distinct values.
        return Exhaustive::Unknown;
    }
    let co = CausalOrder::build(h);
    if !co.index.unknown_reads.is_empty() {
        // A read of a never-written, non-⊥ value has no legal writer in
        // any serialization.
        let (reader, _, _) = co.index.unknown_reads[0];
        return Exhaustive::Inconsistent(h.transactions()[reader].client);
    }
    if !co.causal.is_irreflexive() {
        return Exhaustive::Inconsistent(h.transactions()[0].client);
    }
    // Definition 1 quantifies per client: search each client's
    // serializations in client order, each with its own node budget, and
    // answer for the first client that fails or runs out.
    for client in h.clients() {
        let mut nodes = 0u64;
        match search_for_client(h, &co, client, budget, &mut nodes) {
            Some(true) => {}
            Some(false) => return Exhaustive::Inconsistent(client),
            None => return Exhaustive::Unknown,
        }
    }
    Exhaustive::Consistent
}

/// Backtracking search for one client's legal serialization.
/// Returns `Some(true)` if one exists, `Some(false)` if provably none,
/// `None` if the budget ran out.
#[allow(clippy::needless_range_loop)] // index-driven over a bit-matrix
fn search_for_client(
    h: &History,
    co: &CausalOrder,
    client: ClientId,
    budget: u64,
    nodes: &mut u64,
) -> Option<bool> {
    let n = h.len();
    let txs = h.transactions();
    // Remaining causal predecessors per transaction.
    let mut pred_count = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && co.before(j, i) {
                pred_count[i] += 1;
            }
        }
    }
    let mut placed = vec![false; n];
    let mut state: BTreeMap<Key, Value> = BTreeMap::new();

    #[allow(clippy::too_many_arguments)] // explicit search state beats a struct here
    fn rec(
        txs: &[crate::history::TxRecord],
        co: &CausalOrder,
        client: ClientId,
        pred_count: &mut Vec<usize>,
        placed: &mut Vec<bool>,
        state: &mut BTreeMap<Key, Value>,
        remaining: usize,
        budget: u64,
        nodes: &mut u64,
    ) -> Option<bool> {
        if remaining == 0 {
            return Some(true);
        }
        *nodes += 1;
        if *nodes > budget {
            return None;
        }
        let n = txs.len();
        let mut budget_hit = false;
        for i in 0..n {
            if placed[i] || pred_count[i] != 0 {
                continue;
            }
            // Legality check when placing one of `client`'s transactions:
            // every read must see the current state (⊥ if unwritten).
            if txs[i].client == client {
                let legal = txs[i].reads.iter().all(|&(k, v)| {
                    let cur = state.get(&k).copied().unwrap_or(Value::BOTTOM);
                    cur == v
                });
                if !legal {
                    continue;
                }
            }
            // Place i.
            placed[i] = true;
            let saved: Vec<(Key, Option<Value>)> = txs[i]
                .writes
                .iter()
                .map(|&(k, _)| (k, state.get(&k).copied()))
                .collect();
            for &(k, v) in &txs[i].writes {
                state.insert(k, v);
            }
            for j in 0..n {
                if j != i && co.before(i, j) {
                    pred_count[j] -= 1;
                }
            }
            let r = rec(
                txs,
                co,
                client,
                pred_count,
                placed,
                state,
                remaining - 1,
                budget,
                nodes,
            );
            // Undo.
            for j in 0..n {
                if j != i && co.before(i, j) {
                    pred_count[j] += 1;
                }
            }
            for (k, old) in saved.into_iter().rev() {
                match old {
                    Some(v) => state.insert(k, v),
                    None => state.remove(&k),
                };
            }
            placed[i] = false;
            match r {
                Some(true) => return Some(true),
                Some(false) => {}
                None => budget_hit = true,
            }
        }
        if budget_hit {
            None
        } else {
            Some(false)
        }
    }

    rec(
        txs,
        co,
        client,
        &mut pred_count,
        &mut placed,
        &mut state,
        n,
        budget,
        nodes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::tx;

    const BUDGET: u64 = 2_000_000;

    #[test]
    fn empty_is_consistent() {
        assert_eq!(
            check_causal_exhaustive(&History::new(), BUDGET),
            Exhaustive::Consistent
        );
    }

    #[test]
    fn simple_rf_is_consistent() {
        let h: History = vec![tx(0, 0, &[], &[(0, 1)]), tx(1, 1, &[(0, 1)], &[])]
            .into_iter()
            .collect();
        assert_eq!(check_causal_exhaustive(&h, BUDGET), Exhaustive::Consistent);
    }

    #[test]
    fn mixed_snapshot_is_inconsistent() {
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[], &[(1, 2)]),
            tx(2, 2, &[(0, 1), (1, 2)], &[]),
            tx(3, 2, &[], &[(0, 10), (1, 11)]),
            tx(4, 3, &[(0, 1), (1, 11)], &[]),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            check_causal_exhaustive(&h, BUDGET),
            Exhaustive::Inconsistent(ClientId(3))
        );
    }

    #[test]
    fn fractured_concurrent_write_txs_are_inconsistent() {
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1), (1, 2)]),
            tx(1, 1, &[], &[(0, 3), (1, 4)]),
            tx(2, 2, &[(0, 1), (1, 4)], &[]),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            check_causal_exhaustive(&h, BUDGET),
            Exhaustive::Inconsistent(ClientId(2))
        );
    }

    #[test]
    fn either_order_of_concurrent_writes_is_consistent() {
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
        assert_eq!(check_causal_exhaustive(&h, BUDGET), Exhaustive::Consistent);
    }

    #[test]
    fn unknown_value_is_inconsistent() {
        let h: History = vec![tx(0, 5, &[(0, 7)], &[])].into_iter().collect();
        assert_eq!(
            check_causal_exhaustive(&h, BUDGET),
            Exhaustive::Inconsistent(ClientId(5))
        );
    }

    #[test]
    fn tiny_budget_reports_unknown() {
        // Large enough history that 1 node cannot settle it.
        let h: History = (0..6)
            .map(|i| tx(i, i as u32, &[], &[(i as u32, i + 100)]))
            .collect();
        assert_eq!(check_causal_exhaustive(&h, 1), Exhaustive::Unknown);
    }

    #[test]
    fn agrees_with_graph_checker_on_fixture_histories() {
        use crate::checker::check_causal;
        let fixtures: Vec<History> = vec![
            vec![tx(0, 0, &[], &[(0, 1)]), tx(1, 1, &[(0, 1)], &[])]
                .into_iter()
                .collect(),
            vec![
                tx(0, 0, &[], &[(0, 1)]),
                tx(1, 0, &[], &[(0, 2)]),
                tx(2, 1, &[(0, 2)], &[]),
                tx(3, 1, &[(0, 1)], &[]),
            ]
            .into_iter()
            .collect(),
            vec![
                tx(0, 0, &[], &[(0, 1), (1, 2)]),
                tx(1, 1, &[], &[(0, 3), (1, 4)]),
                tx(2, 2, &[(0, 3), (1, 4)], &[]),
            ]
            .into_iter()
            .collect(),
        ];
        for h in &fixtures {
            let graph = check_causal(h).is_ok();
            let exact = check_causal_exhaustive(h, BUDGET);
            match exact {
                Exhaustive::Consistent => assert!(graph, "graph rejects consistent {h:?}"),
                Exhaustive::Inconsistent(_) => {
                    assert!(!graph, "graph accepts inconsistent {h:?}")
                }
                Exhaustive::Unknown => panic!("budget too small for fixture"),
            }
        }
    }
}
