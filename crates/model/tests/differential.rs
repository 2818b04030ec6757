//! Differential harness: the incremental checker must be **bit-identical**
//! to the legacy dense-closure checker on every history — same
//! violations, same order. Three generators feed the comparison:
//!
//! 1. an exhaustive enumerator over all two-transaction histories built
//!    from a shape alphabet that covers duplicate values, unknown values,
//!    ⊥-reads, stale reads, forward references and causality cycles;
//! 2. the same alphabet (curated) over all three-transaction histories
//!    and client partitions, which is where fractured reads between
//!    concurrent write transactions (the rule-4 fixpoint) first appear;
//! 3. a 32-seed random sweep over larger histories (up to ~60
//!    transactions, 6 clients, 4 keys) with injected duplicates, ⊥-reads
//!    and future-value reads.
//!
//! The chaos-trace leg of the differential suite lives in
//! `crates/protocols/tests/chaos.rs`, where the recorded scenarios end in
//! a legacy-vs-incremental comparison over real protocol histories.

use cbf_model::history::TxRecord;
use cbf_model::{check_causal, check_causal_legacy, ClientId, History, Key, TxId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One transaction shape: reads and writes over keys {0,1} with values
/// from a tiny alphabet. `9` never gets written (unknown value); `1`/`2`
/// are writable; `MAX` is ⊥.
type Shape = (&'static [(u32, u64)], &'static [(u32, u64)]);

const B: u64 = u64::MAX; // ⊥

/// The full alphabet for the 2-transaction cross product.
const SHAPES: &[Shape] = &[
    (&[], &[]),
    // pure writes
    (&[], &[(0, 1)]),
    (&[], &[(0, 2)]),
    (&[], &[(1, 2)]),
    (&[], &[(0, 1), (1, 2)]),
    (&[], &[(0, 2), (1, 1)]),
    // pure reads: hits, misses, ⊥, double
    (&[(0, 1)], &[]),
    (&[(0, 2)], &[]),
    (&[(1, 2)], &[]),
    (&[(0, 9)], &[]),
    (&[(0, B)], &[]),
    (&[(0, 1), (1, 2)], &[]),
    (&[(0, 2), (1, 1)], &[]),
    (&[(0, B), (1, 2)], &[]),
    // read-write combinations (incl. own-write reads and relay chains)
    (&[(0, 1)], &[(0, 2)]),
    (&[(0, 2)], &[(0, 1)]),
    (&[(0, 1)], &[(1, 2)]),
    (&[(1, 2)], &[(0, 1)]),
    (&[(0, 1)], &[(0, 1)]),
    (&[(0, B)], &[(0, 1)]),
    // duplicate-value writers
    (&[], &[(0, 1), (1, 1)]),
];

/// The curated alphabet for the 3-transaction enumeration: enough to
/// build stale reads, fractured reads of concurrent write transactions,
/// cycles and bottom-read violations, while keeping the product small.
const SHAPES3: &[Shape] = &[
    (&[], &[(0, 1)]),
    (&[], &[(0, 2)]),
    (&[], &[(0, 1), (1, 2)]),
    (&[], &[(0, 2), (1, 1)]),
    (&[(0, 1)], &[]),
    (&[(0, 2)], &[]),
    (&[(0, 1), (1, 2)], &[]),
    (&[(0, 1), (1, 1)], &[]),
    (&[(0, B)], &[]),
    (&[(0, 1)], &[(0, 2)]),
    (&[(0, 2)], &[(0, 1)]),
    (&[(1, 2)], &[(0, 1)]),
];

fn record(i: usize, client: u32, shape: Shape) -> TxRecord {
    TxRecord {
        id: TxId(i as u64),
        client: ClientId(client),
        reads: shape.0.iter().map(|&(k, v)| (Key(k), Value(v))).collect(),
        writes: shape.1.iter().map(|&(k, v)| (Key(k), Value(v))).collect(),
        invoked_at: 0,
        completed_at: 0,
    }
}

fn assert_identical(h: &History) {
    let inc = check_causal(h);
    let leg = check_causal_legacy(h);
    assert_eq!(
        inc,
        leg,
        "incremental and legacy verdicts diverged on {:?}",
        h.transactions()
    );
}

#[test]
fn exhaustive_two_transaction_histories() {
    let mut checked = 0usize;
    for (si, &a) in SHAPES.iter().enumerate() {
        for (sj, &b) in SHAPES.iter().enumerate() {
            let _ = (si, sj);
            for clients in [[0, 0], [0, 1]] {
                let h: History = vec![record(0, clients[0], a), record(1, clients[1], b)]
                    .into_iter()
                    .collect();
                assert_identical(&h);
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 800,
        "enumerator shrank: only {checked} histories"
    );
}

#[test]
fn exhaustive_three_transaction_histories() {
    // All client partitions of three transactions, up to renaming.
    const PARTITIONS: &[[u32; 3]] = &[[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]];
    let mut checked = 0usize;
    for &a in SHAPES3 {
        for &b in SHAPES3 {
            for &c in SHAPES3 {
                for clients in PARTITIONS {
                    let h: History = vec![
                        record(0, clients[0], a),
                        record(1, clients[1], b),
                        record(2, clients[2], c),
                    ]
                    .into_iter()
                    .collect();
                    assert_identical(&h);
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked >= 8_000,
        "enumerator shrank: only {checked} histories"
    );
}

/// Random larger histories, 32 seeds. Writes allocate mostly-unique
/// values (with a small duplicate probability); reads pick among every
/// value ever written to the key — including values written *later*
/// (forward references / cycles) — plus ⊥ and an unknown value.
#[test]
fn thirty_two_seed_random_sweep() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(4..60);
        let keys = 4u32;
        let clients = 6u32;

        // First pass: writes (values 1000+; occasional duplicates).
        let mut writes: Vec<Vec<(Key, Value)>> = Vec::new();
        let mut per_key: Vec<Vec<Value>> = vec![Vec::new(); keys as usize];
        let mut next = 1000u64;
        for _ in 0..n {
            let mut ws = Vec::new();
            for k in 0..keys {
                if rng.gen_bool(0.3) {
                    let v = if rng.gen_bool(0.03) && next > 1000 {
                        Value(1000 + rng.gen_range(0..(next - 1000))) // duplicate
                    } else {
                        next += 1;
                        Value(next - 1)
                    };
                    ws.push((Key(k), v));
                    per_key[k as usize].push(v);
                }
            }
            writes.push(ws);
        }
        // Second pass: reads over the full value pools.
        let h: History = (0..n)
            .map(|i| {
                let mut reads = Vec::new();
                for k in 0..keys {
                    if rng.gen_bool(0.35) {
                        let pool = &per_key[k as usize];
                        let v = match rng.gen_range(0..10) {
                            0 => Value::BOTTOM,
                            1 => Value(7), // unknown: never allocated
                            _ if !pool.is_empty() => pool[rng.gen_range(0..pool.len())],
                            _ => Value::BOTTOM,
                        };
                        reads.push((Key(k), v));
                    }
                }
                TxRecord {
                    id: TxId(i as u64),
                    client: ClientId(rng.gen_range(0..clients)),
                    reads,
                    writes: writes[i].clone(),
                    invoked_at: 0,
                    completed_at: 0,
                }
            })
            .collect();
        assert_identical(&h);
    }
}

/// Five clients read and overwrite one key: the incremental path's
/// per-session scans must merge back into the legacy verdict.
#[test]
fn incremental_matches_legacy_on_one_contended_key() {
    let mut rng = StdRng::seed_from_u64(99);
    let h: History = (0..40)
        .map(|i| {
            let v = 500 + i as u64;
            TxRecord {
                id: TxId(i as u64),
                client: ClientId(rng.gen_range(0..5)),
                reads: if i > 0 && rng.gen_bool(0.5) {
                    vec![(Key(0), Value(500 + rng.gen_range(0..i) as u64))]
                } else {
                    vec![]
                },
                writes: vec![(Key(0), Value(v))],
                invoked_at: 0,
                completed_at: 0,
            }
        })
        .collect();
    assert_eq!(check_causal(&h), check_causal_legacy(&h));
}
