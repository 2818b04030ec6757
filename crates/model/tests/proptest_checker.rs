//! Property tests: the polynomial graph checker must agree with the
//! literal Definition 1 search on random small histories.

use cbf_model::history::TxRecord;
use cbf_model::{
    check_causal, check_causal_exhaustive, check_causal_legacy, ClientId, Exhaustive, History, Key,
    TxId, Value,
};
use proptest::prelude::*;

/// Generator-level description of one transaction.
#[derive(Clone, Debug)]
struct TxGen {
    client: u32,
    /// Bitmask over keys {0,1}: which keys to write.
    write_mask: u8,
    /// For each key in {0,1,2}: None = don't read; Some(c) = read, with
    /// `c` choosing among the candidate values for that key.
    read_choice: [Option<u8>; 3],
}

fn tx_gen() -> impl Strategy<Value = TxGen> {
    (
        0u32..3,
        0u8..4,
        prop::array::uniform3(prop::option::of(0u8..8)),
    )
        .prop_map(|(client, write_mask, read_choice)| TxGen {
            client,
            write_mask,
            read_choice,
        })
}

/// Materialize a history: writes get globally unique values; each read
/// picks among ⊥ and every value anyone wrote to that key (including
/// values written *later* in completion order — the checkers must cope).
fn materialize(gens: &[TxGen]) -> History {
    // First pass: assign write values.
    let mut writes_per_tx: Vec<Vec<(Key, Value)>> = Vec::new();
    let mut per_key_values: [Vec<Value>; 3] = [vec![], vec![], vec![]];
    let mut next = 100u64;
    for g in gens {
        let mut ws = Vec::new();
        for k in 0..2u32 {
            if g.write_mask & (1 << k) != 0 {
                let v = Value(next);
                next += 1;
                ws.push((Key(k), v));
                per_key_values[k as usize].push(v);
            }
        }
        writes_per_tx.push(ws);
    }
    // Second pass: resolve reads.
    gens.iter()
        .enumerate()
        .map(|(i, g)| {
            let mut reads = Vec::new();
            for k in 0..3u32 {
                if let Some(c) = g.read_choice[k as usize] {
                    let candidates = &per_key_values[k as usize];
                    let v = if candidates.is_empty() {
                        Value::BOTTOM
                    } else {
                        let idx = (c as usize) % (candidates.len() + 1);
                        if idx == 0 {
                            Value::BOTTOM
                        } else {
                            candidates[idx - 1]
                        }
                    };
                    reads.push((Key(k), v));
                }
            }
            TxRecord {
                id: TxId(i as u64),
                client: ClientId(g.client),
                reads,
                writes: writes_per_tx[i].clone(),
                invoked_at: 0,
                completed_at: 0,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The polynomial checker and the exhaustive search agree.
    #[test]
    fn graph_checker_matches_definition_1(gens in prop::collection::vec(tx_gen(), 0..6)) {
        let h = materialize(&gens);
        let graph_ok = check_causal(&h).is_ok();
        match check_causal_exhaustive(&h, 5_000_000) {
            Exhaustive::Consistent => prop_assert!(
                graph_ok,
                "graph checker rejected a Definition-1-consistent history: {h:?}"
            ),
            Exhaustive::Inconsistent(c) => prop_assert!(
                !graph_ok,
                "graph checker accepted a history client {c:?} cannot serialize: {h:?}"
            ),
            Exhaustive::Unknown => {} // budget ran out: no claim
        }
    }

    /// The incremental fast path (what `check_causal` now runs) must be
    /// bit-identical to the legacy dense-closure checker — violations,
    /// order and all — on histories with forward reads, ⊥-reads,
    /// duplicate values and cycles.
    #[test]
    fn incremental_matches_legacy(gens in prop::collection::vec(tx_gen(), 0..8)) {
        let h = materialize(&gens);
        prop_assert_eq!(check_causal(&h), check_causal_legacy(&h));
    }

    /// Checking is deterministic and non-destructive.
    #[test]
    fn checker_is_deterministic(gens in prop::collection::vec(tx_gen(), 0..6)) {
        let h = materialize(&gens);
        let a = format!("{:?}", check_causal(&h).violations);
        let b = format!("{:?}", check_causal(&h).violations);
        prop_assert_eq!(a, b);
    }

    /// Write-only histories are always causally consistent.
    #[test]
    fn write_only_histories_are_consistent(
        clients in prop::collection::vec(0u32..4, 0..8)
    ) {
        let h: History = clients
            .iter()
            .enumerate()
            .map(|(i, &c)| TxRecord {
                id: TxId(i as u64),
                client: ClientId(c),
                reads: vec![],
                writes: vec![(Key(i as u32 % 2), Value(1000 + i as u64))],
                invoked_at: 0,
                completed_at: 0,
            })
            .collect();
        prop_assert!(check_causal(&h).is_ok());
    }

    /// Reading the latest value in a single-writer sequential history is
    /// always consistent; reading any *earlier* own-client value is not.
    #[test]
    fn sequential_single_writer(reads_latest in any::<bool>(), n in 2usize..6) {
        let mut txs: Vec<TxRecord> = (0..n)
            .map(|i| TxRecord {
                id: TxId(i as u64),
                client: ClientId(0),
                reads: vec![],
                writes: vec![(Key(0), Value(100 + i as u64))],
                invoked_at: 0,
                completed_at: 0,
            })
            .collect();
        let read_val = if reads_latest { 100 + n as u64 - 1 } else { 100 };
        txs.push(TxRecord {
            id: TxId(n as u64),
            client: ClientId(0),
            reads: vec![(Key(0), Value(read_val))],
            writes: vec![],
            invoked_at: 0,
            completed_at: 0,
        });
        let h: History = txs.into_iter().collect();
        prop_assert_eq!(check_causal(&h).is_ok(), reads_latest);
    }
}
