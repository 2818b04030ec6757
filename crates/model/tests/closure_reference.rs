//! The word-parallel closure code and rule 4's frontier saturation
//! against their references, at sizes where a row spans several words.
//! Every other generator in this directory tops out at ~60 transactions
//! — one-word rows — so the one-sweep closure in `CausalOrder::build` and
//! `check_causal_legacy` are compared here with the code they replaced:
//! `Relation::set` + `Relation::transitive_close` (Floyd–Warshall), the
//! `reads_from × transactions` scans and the dense per-client fixpoint,
//! written out below from the public API only.
//!
//! 1. `CausalOrder::build` ≡ the reference order on random histories
//!    with forward reads-from edges, acyclic and cyclic;
//! 2. `check_causal_legacy` ≡ the old checker on 65–300-transaction
//!    executions of a causal store (16 clients, 4–8 keys, concurrent
//!    multi-key writers, a little injected noise), where several clients
//!    need more than one saturation round — recorded in causal order,
//!    and recorded out of it, so that reads-from edges point forward and
//!    the saturation's frontiers come from a topological sweep.

use cbf_model::history::TxRecord;
use cbf_model::{
    check_causal_legacy, CausalOrder, ClientId, History, Key, ReadsFrom, Relation, TxId, Value,
    Verdict, Violation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// The reference: the checker as it was before the closure work.
// ---------------------------------------------------------------------

/// What `CausalOrder::build` computes, from the history alone: reads-from
/// edges, unknown reads, and `(po ∪ rf)⁺` closed by Floyd–Warshall.
fn reference_order(h: &History) -> (Vec<ReadsFrom>, Vec<(usize, Key, Value)>, Relation) {
    let txs = h.transactions();
    let mut causal = Relation::new(txs.len());
    let mut last_of_client = BTreeMap::new();
    let mut writer = BTreeMap::new();
    for (i, t) in txs.iter().enumerate() {
        if let Some(prev) = last_of_client.insert(t.client, i) {
            causal.set(prev, i);
        }
        for &(k, v) in &t.writes {
            writer.insert((k, v), i);
        }
    }
    let (mut rf, mut unknown) = (Vec::new(), Vec::new());
    for (i, t) in txs.iter().enumerate() {
        for &(k, v) in t.reads.iter().filter(|(_, v)| !v.is_bottom()) {
            match writer.get(&(k, v)) {
                Some(&w) if w != i => {
                    rf.push(ReadsFrom {
                        reader: i,
                        writer: w,
                        key: k,
                        value: v,
                    });
                    causal.set(w, i);
                }
                _ => unknown.push((i, k, v)),
            }
        }
    }
    causal.transitive_close();
    (rf, unknown, causal)
}

/// The old per-client fixpoint: collect a round of constraint edges with
/// `set`, re-close the whole matrix, repeat. Returns the answer and the
/// number of rounds that added edges.
fn reference_client_serializable(
    h: &History,
    rf: &[ReadsFrom],
    causal: &Relation,
    client: ClientId,
) -> (bool, usize) {
    let txs = h.transactions();
    let writers_of = |k: Key| (0..txs.len()).filter(move |&j| txs[j].wrote(k).is_some());
    let bottom_ok = |forced: &Relation| {
        txs.iter().enumerate().all(|(i, t)| {
            t.client != client
                || t.reads
                    .iter()
                    .filter(|(_, v)| v.is_bottom())
                    .all(|&(k, _)| writers_of(k).all(|w| w == i || !forced.get(w, i)))
        })
    };
    let mut forced = causal.clone();
    let mut rounds = 0;
    loop {
        if !bottom_ok(&forced) {
            return (false, rounds);
        }
        let mut added = false;
        for e in rf.iter().filter(|e| txs[e.reader].client == client) {
            for w2 in writers_of(e.key) {
                if w2 != e.writer
                    && w2 != e.reader
                    && forced.get(w2, e.reader)
                    && !forced.get(w2, e.writer)
                {
                    forced.set(w2, e.writer);
                    added = true;
                }
            }
        }
        if !added {
            return (forced.is_irreflexive(), rounds);
        }
        rounds += 1;
        forced.transitive_close();
        if !forced.is_irreflexive() {
            return (false, rounds);
        }
    }
}

/// The old `check_causal_legacy`, plus the round count of every client
/// the rule-4 loop ran for.
fn reference_legacy(h: &History) -> (Verdict, Vec<usize>) {
    let mut v = Verdict::default();
    if !h.values_distinct() {
        v.violations.push(Violation::DuplicateValues);
        return (v, Vec::new());
    }
    let txs = h.transactions();
    let id = |i: usize| txs[i].id;
    let (rf, unknown, causal) = reference_order(h);
    for &(reader, key, value) in &unknown {
        v.violations.push(Violation::UnknownValue {
            reader: id(reader),
            key,
            value,
        });
    }
    if !causal.is_irreflexive() {
        v.violations.push(Violation::CausalityCycle);
        return (v, Vec::new());
    }
    for e in &rf {
        for (j, t) in txs.iter().enumerate() {
            if j != e.writer
                && j != e.reader
                && t.wrote(e.key).is_some()
                && causal.get(e.writer, j)
                && causal.get(j, e.reader)
            {
                v.violations.push(Violation::StaleRead {
                    reader: id(e.reader),
                    key: e.key,
                    read_from: id(e.writer),
                    overwritten_by: id(j),
                });
            }
        }
    }
    for (i, t) in txs.iter().enumerate() {
        for &(k, _) in t.reads.iter().filter(|(_, v)| v.is_bottom()) {
            for (j, w) in txs.iter().enumerate() {
                if j != i && w.wrote(k).is_some() && causal.get(j, i) {
                    v.violations.push(Violation::BottomReadAfterWrite {
                        reader: id(i),
                        key: k,
                        written_by: id(j),
                    });
                }
            }
        }
    }
    let mut rounds = Vec::new();
    for client in h.clients() {
        let (ok, r) = reference_client_serializable(h, &rf, &causal, client);
        rounds.push(r);
        if !ok {
            v.violations.push(Violation::Unserializable { client });
        }
    }
    (v, rounds)
}

fn record(i: usize, client: u32, reads: Vec<(Key, Value)>, writes: Vec<(Key, Value)>) -> TxRecord {
    TxRecord {
        id: TxId(i as u64),
        client: ClientId(client),
        reads,
        writes,
        invoked_at: 0,
        completed_at: 0,
    }
}

// ---------------------------------------------------------------------
// 1. CausalOrder::build
// ---------------------------------------------------------------------

/// Single-key-per-op histories over 8 clients and 6 keys whose reads pick
/// any value of the key — mostly one written earlier, with probability
/// `forward` one written within the next few transactions (the shape that
/// can close a cycle, and near enough that it often does not).
fn history_with_forward_reads(rng: &mut StdRng, n: usize, forward: f64) -> History {
    let (keys, clients) = (6u32, 8u32);
    let key_of: Vec<u32> = (0..n).map(|_| rng.gen_range(0..keys)).collect();
    let writes: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    (0..n)
        .map(|i| {
            let k = key_of[i];
            let value_of = |j: usize| (Key(k), Value(1_000 + j as u64));
            let client = rng.gen_range(0..clients);
            if writes[i] {
                return record(i, client, vec![], vec![value_of(i)]);
            }
            let range = if rng.gen_bool(forward) {
                i + 1..n.min(i + 12)
            } else {
                0..i
            };
            let pool: Vec<usize> = range.filter(|&j| writes[j] && key_of[j] == k).collect();
            let read = match pool.as_slice() {
                [] => (Key(k), Value::BOTTOM),
                ws => value_of(ws[rng.gen_range(0..ws.len())]),
            };
            record(i, client, vec![read], vec![])
        })
        .collect()
}

#[test]
fn build_sweep_closure_matches_floyd_warshall() {
    let (mut acyclic_with_forward, mut cyclic) = (0usize, 0usize);
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xC105 + seed);
        let n = [65, 100, 130, 200][seed as usize % 4];
        let forward = [0.0, 0.05, 0.1, 0.3][seed as usize / 4 % 4];
        let h = history_with_forward_reads(&mut rng, n, forward);
        let co = CausalOrder::build(&h);
        let (rf, unknown, causal) = reference_order(&h);
        assert_eq!(co.index.reads_from, rf, "seed {seed}");
        assert_eq!(co.index.unknown_reads, unknown, "seed {seed}");
        assert_eq!(co.causal, causal, "seed {seed}: closures differ at n = {n}");
        if !causal.is_irreflexive() {
            cyclic += 1;
        } else if rf.iter().any(|e| e.writer > e.reader) {
            acyclic_with_forward += 1;
        }
    }
    assert!(
        acyclic_with_forward >= 8 && cyclic >= 8,
        "generator drifted: {acyclic_with_forward} acyclic-with-forward, {cyclic} cyclic"
    );
}

// ---------------------------------------------------------------------
// 2. check_causal_legacy at size
// ---------------------------------------------------------------------

/// One client's replica of a causal store without convergence: writes
/// are applied in a client-local order that respects causality, and a
/// read returns the last applied writer of the key.
#[derive(Clone, Default)]
struct Replica {
    seen: Vec<bool>,
    latest: BTreeMap<Key, usize>,
    last_tx: Option<usize>,
}

/// Apply `t` at `r`, its causal past first.
fn deliver(r: &mut Replica, t: usize, deps: &[Vec<usize>], txs: &[TxRecord]) {
    if r.seen[t] {
        return;
    }
    r.seen[t] = true;
    for &d in &deps[t] {
        deliver(r, d, deps, txs);
    }
    for &(k, _) in &txs[t].writes {
        r.latest.insert(k, t);
    }
}

/// An execution of that store: 16 clients, `keys` keys, multi-key reads
/// and writes, replicas syncing a few random transactions per step — so
/// concurrent multi-key writers are seen in different orders by different
/// clients, which is what sends rule 4 into its fixpoint. With
/// probability `noise` a read returns a random writer's value or `⊥`
/// instead of the replica's.
fn causal_store_run(rng: &mut StdRng, n: usize, keys: u32, noise: f64) -> History {
    let mut replicas = vec![
        Replica {
            seen: vec![false; n],
            ..Replica::default()
        };
        16
    ];
    let mut txs: Vec<TxRecord> = Vec::new();
    let mut deps: Vec<Vec<usize>> = Vec::new();
    let mut writers_of: BTreeMap<Key, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        let c = rng.gen_range(0..replicas.len());
        let r = &mut replicas[c];
        for _ in 0..rng.gen_range(0..4) {
            if i > 0 {
                deliver(r, rng.gen_range(0..i), &deps, &txs);
            }
        }
        let mut ks: Vec<Key> = (0..rng.gen_range(1..4))
            .map(|_| Key(rng.gen_range(0..keys)))
            .collect();
        ks.sort_unstable();
        ks.dedup();
        let mut dep: Vec<usize> = r.last_tx.into_iter().collect();
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        if rng.gen_bool(0.4) {
            for (x, &k) in ks.iter().enumerate() {
                writes.push((k, Value((i * 4 + x) as u64)));
                writers_of.entry(k).or_default().push(i);
            }
        } else {
            for &k in &ks {
                let all = writers_of.get(&k).map_or(&[][..], Vec::as_slice);
                let w = match (rng.gen_bool(noise), all) {
                    (true, [_, ..]) if rng.gen_bool(0.8) => Some(all[rng.gen_range(0..all.len())]),
                    (true, _) => None,
                    (false, _) => r.latest.get(&k).copied(),
                };
                reads.push((k, w.map_or(Value::BOTTOM, |w| txs[w].wrote(k).unwrap())));
                dep.extend(w);
            }
        }
        txs.push(record(i, c as u32, reads, writes));
        deps.push(dep);
        deliver(r, i, &deps, &txs);
        r.last_tx = Some(i);
    }
    txs.into_iter().collect()
}

#[test]
fn legacy_checker_matches_its_old_self_at_multi_word_sizes() {
    let (mut multi_round, mut in_fixpoint, mut unserializable, mut clean) = (0, 0, 0, 0);
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5A7 + seed);
        let n = rng.gen_range(65..301);
        let keys = rng.gen_range(4..9);
        let noise = [0.0, 0.002, 0.01][seed as usize % 3];
        let h = causal_store_run(&mut rng, n, keys, noise);
        let (expected, rounds) = reference_legacy(&h);
        let got = check_causal_legacy(&h);
        assert_eq!(got, expected, "seed {seed}: n = {n}, {keys} keys");

        multi_round += rounds.iter().filter(|&&r| r >= 2).count();
        in_fixpoint += rounds.iter().filter(|&&r| r >= 1).count();
        let bad = |v: &Violation| matches!(v, Violation::Unserializable { .. });
        unserializable += expected.violations.iter().filter(|v| bad(v)).count();
        clean += usize::from(expected.is_ok());
    }
    assert!(
        multi_round >= 20 && in_fixpoint >= 100 && unserializable >= 10 && clean >= 10,
        "generator drifted: {multi_round} multi-round clients, {in_fixpoint} in the \
         fixpoint, {unserializable} unserializable, {clean} clean histories"
    );
}

/// The same execution, recorded in another completion order: the
/// clients' sequences interleaved at random. Program order and
/// reads-from are unchanged, and so is the (acyclic) causal order, but a
/// reader may now be recorded before the writer it read from.
fn interleave(rng: &mut StdRng, h: &History) -> History {
    let mut queues: BTreeMap<ClientId, Vec<TxRecord>> = BTreeMap::new();
    for t in h.transactions().iter().rev() {
        queues.entry(t.client).or_default().push(t.clone());
    }
    let mut queues: Vec<Vec<TxRecord>> = queues.into_values().collect();
    let mut out = History::new();
    while !queues.is_empty() {
        let c = rng.gen_range(0..queues.len());
        out.push(queues[c].pop().unwrap());
        if queues[c].is_empty() {
            queues.swap_remove(c);
        }
    }
    out
}

#[test]
fn legacy_checker_matches_its_old_self_out_of_causal_order() {
    let (mut forward, mut in_fixpoint, mut unserializable) = (0, 0, 0);
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xF0A5 + seed);
        let n = rng.gen_range(65..301);
        let keys = rng.gen_range(4..9);
        let noise = [0.0, 0.002, 0.01][seed as usize % 3];
        let run = causal_store_run(&mut rng, n, keys, noise);
        let h = interleave(&mut rng, &run);
        let (expected, rounds) = reference_legacy(&h);
        let got = check_causal_legacy(&h);
        assert_eq!(got, expected, "seed {seed}: n = {n}, {keys} keys");

        let (rf, _, causal) = reference_order(&h);
        assert!(
            causal.is_irreflexive(),
            "seed {seed}: interleaving made a cycle"
        );
        forward += usize::from(rf.iter().any(|e| e.writer > e.reader));
        in_fixpoint += rounds.iter().filter(|&&r| r >= 1).count();
        let bad = |v: &Violation| matches!(v, Violation::Unserializable { .. });
        unserializable += expected.violations.iter().filter(|v| bad(v)).count();
    }
    assert!(
        forward == 24 && in_fixpoint >= 100 && unserializable >= 3,
        "generator drifted: {forward} of 24 histories with a forward edge, {in_fixpoint} \
         clients in the fixpoint, {unserializable} unserializable"
    );
}
