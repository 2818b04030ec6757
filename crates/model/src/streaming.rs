//! Sharded streaming verification: the check side of the sim→check
//! pipeline.
//!
//! [`CausalChecker`] is already online — `ingest` one transaction at a
//! time, `verdict` whenever asked. This module adds the fan-out the
//! streaming pipeline needs: a [`ShardedChecker`] owning `n`
//! independent [`CausalChecker`] shards, each responsible for a
//! *closed* subset of the workload (no client and no key appears on two
//! shards). Under that isolation the global causal order is the
//! disjoint union of the per-shard orders — program order never crosses
//! shards because clients do not, and reads-from never crosses shards
//! because keys do not — so the union of per-shard verdicts *is* the
//! global verdict. In particular a history is causally consistent iff
//! every shard says so.
//!
//! Isolation is the caller's promise (the scale pipeline constructs
//! single-homed workloads where it holds by construction) but it is
//! **checked**, not trusted: every `ingest_to` records which shard each
//! client and key landed on and panics on the first cross-shard access,
//! because a violated promise would silently turn the checker into a
//! weaker one. General histories (the protocol suites, chaos runs) use
//! one shard, which is exactly the plain [`CausalChecker`].

#![deny(unsafe_code)]

use crate::checker::Verdict;
use crate::history::TxRecord;
use crate::incremental::{CausalChecker, FallbackCounts, GcStats, ResidentStats};

/// `n` independent online checkers plus the client/key→shard ledger
/// that enforces the isolation promise. See module docs.
#[derive(Clone, Debug, Default)]
pub struct ShardedChecker {
    shards: Vec<CausalChecker>,
    /// Shard each client index has been seen on (`-1` = not yet).
    /// Dense `Vec`s, not maps: this sits on the pipeline's hot path.
    client_shard: Vec<i32>,
    /// Shard each key index has been seen on (`-1` = not yet).
    key_shard: Vec<i32>,
}

impl ShardedChecker {
    /// A checker with `n ≥ 1` shards.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a sharded checker needs at least one shard");
        ShardedChecker {
            shards: (0..n).map(|_| CausalChecker::new()).collect(),
            client_shard: Vec::new(),
            key_shard: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Transactions ingested per shard, in shard order.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Total transactions ingested.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feed one transaction to shard `shard`. Panics if the shard index
    /// is out of range or if the transaction touches a client or key
    /// already homed on a different shard (a broken isolation promise —
    /// a harness bug, never a property of the data).
    pub fn ingest_to(&mut self, shard: usize, t: TxRecord) {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        let s = shard as i32;
        Self::pin(&mut self.client_shard, t.client.0 as usize, s, "client");
        for &(k, _) in &t.reads {
            Self::pin(&mut self.key_shard, k.0 as usize, s, "key");
        }
        for &(k, _) in &t.writes {
            Self::pin(&mut self.key_shard, k.0 as usize, s, "key");
        }
        self.shards[shard].ingest(t);
    }

    /// Single-shard convenience: the plain online checker.
    pub fn ingest(&mut self, t: TxRecord) {
        assert_eq!(self.shards.len(), 1, "ingest() requires exactly one shard");
        self.shards[0].ingest(t);
    }

    fn pin(ledger: &mut Vec<i32>, idx: usize, shard: i32, what: &str) {
        if ledger.len() <= idx {
            ledger.resize(idx + 1, -1);
        }
        let prev = ledger[idx];
        if prev < 0 {
            ledger[idx] = shard;
        } else {
            assert_eq!(
                prev, shard,
                "{what} {idx} crossed shards {prev}→{shard}: the sharding is \
                 unsound for this workload; use one shard"
            );
        }
    }

    /// Garbage-collect every shard independently — no cross-shard
    /// coordination is needed because shard isolation already guarantees
    /// no client or key (and therefore no causal edge or frontier)
    /// crosses a shard boundary: each shard's global minimum frontier
    /// *is* the global one restricted to its clients. Uses the
    /// self-derived monotone-workload contract of [`CausalChecker::gc`];
    /// stats are summed, and `blocked` reports the first shard that
    /// refused (others may still have retired state).
    pub fn gc(&mut self) -> GcStats {
        let mut total = GcStats::default();
        for shard in &mut self.shards {
            let s = shard.gc();
            total.retired += s.retired;
            total.resident += s.resident;
            total.settled_edges += s.settled_edges;
            total.freed_clock_slots += s.freed_clock_slots;
            total.fixpoint_runs += s.fixpoint_runs;
            if total.blocked.is_none() {
                total.blocked = s.blocked;
            }
        }
        total
    }

    /// Summed resident-state sizes across shards, for memory sampling.
    pub fn resident_stats(&self) -> ResidentStats {
        let mut total = ResidentStats::default();
        for shard in &self.shards {
            let r = shard.resident_stats();
            total.txs += r.txs;
            total.clock_slots += r.clock_slots;
            total.chain_entries += r.chain_entries;
            total.open_edges += r.open_edges;
            total.spill_entries += r.spill_entries;
            total.settled_violations += r.settled_violations;
            total.stubs += r.stubs;
        }
        total
    }

    /// Summed fallback-arm counters across shards.
    pub fn fallbacks(&self) -> FallbackCounts {
        let mut total = FallbackCounts::default();
        for shard in &self.shards {
            let c = shard.fallbacks();
            total.legacy_verdicts += c.legacy_verdicts;
            total.fixpoint_runs += c.fixpoint_runs;
            total.undecided += c.undecided;
            total.gc_blocked_forward_edge += c.gc_blocked_forward_edge;
            total.gc_blocked_fixpoint += c.gc_blocked_fixpoint;
            total.gc_blocked_other += c.gc_blocked_other;
        }
        total
    }

    /// The merged verdict: per-shard verdicts computed independently and
    /// concatenated in shard order. With one shard this is exactly the
    /// plain checker's verdict; with many, isolation makes "all shards
    /// consistent" equivalent to "the union history is consistent".
    pub fn verdict(&self) -> Verdict {
        let mut merged = Verdict::default();
        for shard in &self.shards {
            merged.violations.extend(shard.verdict().violations);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_causal;
    use crate::history::{tx, History};

    /// A 2-shard-isolated history: clients 0,2 touch keys 0,2; clients
    /// 1,3 touch keys 1,3.
    fn isolated_history() -> Vec<(usize, TxRecord)> {
        vec![
            (0, tx(0, 0, &[], &[(0, 1)])),
            (1, tx(1, 1, &[], &[(1, 2)])),
            (0, tx(2, 2, &[(0, 1)], &[(2, 3)])),
            (1, tx(3, 3, &[(1, 2)], &[(3, 4)])),
            (0, tx(4, 2, &[(2, 3)], &[])),
            (1, tx(5, 3, &[(3, 4)], &[])),
        ]
    }

    #[test]
    fn sharded_matches_global_on_isolated_history() {
        let mut sharded = ShardedChecker::new(2);
        let mut h = History::new();
        for (shard, t) in isolated_history() {
            h.push(t.clone());
            sharded.ingest_to(shard, t);
        }
        let global = check_causal(&h);
        let merged = sharded.verdict();
        assert_eq!(global, merged);
        assert!(merged.is_ok());
        assert_eq!(sharded.shard_lens(), vec![3, 3]);
    }

    #[test]
    fn one_shard_is_the_plain_checker() {
        // A violating history: T4 reads old X0 with new X1.
        let txs = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[], &[(1, 2)]),
            tx(2, 2, &[(0, 1), (1, 2)], &[]),
            tx(3, 2, &[], &[(0, 10), (1, 11)]),
            tx(4, 3, &[(0, 1), (1, 11)], &[]),
        ];
        let h: History = txs.clone().into_iter().collect();
        let mut sc = ShardedChecker::new(1);
        for t in txs {
            sc.ingest(t);
        }
        let global = check_causal(&h);
        let streamed = sc.verdict();
        assert_eq!(global, streamed);
        assert_eq!(global.render(), streamed.render());
        assert!(!streamed.is_ok());
    }

    #[test]
    #[should_panic(expected = "crossed shards")]
    fn cross_shard_key_access_panics() {
        let mut sc = ShardedChecker::new(2);
        sc.ingest_to(0, tx(0, 0, &[], &[(7, 1)]));
        // Client 1 on shard 1 touching shard 0's key 7: unsound.
        sc.ingest_to(1, tx(1, 1, &[(7, 1)], &[]));
    }

    #[test]
    #[should_panic(expected = "crossed shards")]
    fn cross_shard_client_access_panics() {
        let mut sc = ShardedChecker::new(2);
        sc.ingest_to(0, tx(0, 5, &[], &[(0, 1)]));
        sc.ingest_to(1, tx(1, 5, &[], &[(1, 2)]));
    }
}
