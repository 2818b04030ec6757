//! Client bookkeeping the protocol modules share: the read-only
//! [`Gather`] and the [`Completed`] constructors.
//!
//! Pure state only: nothing here sends, arms a timer or records a
//! completion. snowflow derives a protocol's SNOW tuple from the sends
//! and `completed.insert` calls in that module's own call graph, so a
//! helper here that did either would hide hops from the derivation
//! (snowlint's `flow-common-effect` rule keeps it out).

use crate::common::api::Completed;
use crate::common::topology::Topology;
use cbf_model::{Key, TxId, Value};
use cbf_sim::{ProcessId, Time};
use std::collections::HashMap;

/// An in-flight read-only transaction at its client: the read-set in
/// invocation order, what the servers returned per key so far, and how
/// many responses are still outstanding.
#[derive(Clone, Debug)]
pub struct Gather<T> {
    /// The read-set, in invocation order.
    pub keys: Vec<Key>,
    /// The response per key so far: a value, or whatever the protocol
    /// picks a value from (a `(value, ts)` pair, …).
    pub got: HashMap<Key, T>,
    /// Responses still outstanding.
    pub awaiting: usize,
    /// Virtual time of invocation.
    pub invoked_at: Time,
}

impl<T> Gather<T> {
    /// A gather over `keys` expecting `awaiting` responses (0 while the
    /// fan-out waits on an earlier round).
    pub fn new(keys: Vec<Key>, awaiting: usize, invoked_at: Time) -> Self {
        Gather {
            keys,
            got: HashMap::new(),
            awaiting,
            invoked_at,
        }
    }

    /// The read-set grouped by primary server, expecting one response
    /// per group: the caller sends one request to each.
    pub fn by_primary(&mut self, topo: &Topology) -> Vec<(ProcessId, Vec<Key>)> {
        let groups = topo.group_by_primary(&self.keys);
        self.awaiting = groups.len();
        groups
    }

    /// Count one response in: `true` when it was the last outstanding.
    pub fn arrived(&mut self) -> bool {
        self.awaiting -= 1;
        self.awaiting == 0
    }

    /// The finished record: every key of the read-set in invocation
    /// order, valued by `value_of(key, response)`. `response` is `None`
    /// for a key no response named; the closure picks its ⊥.
    pub fn finish(
        self,
        id: TxId,
        now: Time,
        mut value_of: impl FnMut(Key, Option<&T>) -> Value,
    ) -> Completed {
        let reads = self
            .keys
            .iter()
            .map(|&k| (k, value_of(k, self.got.get(&k))))
            .collect();
        Completed::read(id, reads, self.invoked_at, now)
    }
}

/// Read-your-writes over a client's write cache: the snapshot `read` of a
/// key (`None` is ⊥ at ts 0) unless the client's own `cached` write of
/// it is newer.
pub fn read_your_writes(read: Option<&(Value, u64)>, cached: Option<&(Value, u64)>) -> Value {
    let (v, ts) = read.copied().unwrap_or((Value::BOTTOM, 0));
    match cached {
        Some(&(cv, cts)) if cts > ts => cv,
        _ => v,
    }
}

impl Completed {
    /// A read-only transaction answered with `reads` at `now`.
    pub fn read(id: TxId, reads: Vec<(Key, Value)>, invoked_at: Time, now: Time) -> Self {
        Completed {
            id,
            reads,
            invoked_at,
            completed_at: now,
        }
    }

    /// A write transaction acknowledged at `now`.
    pub fn write(id: TxId, invoked_at: Time, now: Time) -> Self {
        Completed::read(id, Vec::new(), invoked_at, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_keeps_invocation_order_not_key_order() {
        let mut g = Gather::new(vec![Key(7), Key(2), Key(5)], 2, 10);
        for k in [5, 2, 7] {
            g.got.insert(Key(k), Value(u64::from(k) * 10));
        }
        let done = g.finish(TxId(1), 30, |_, v| v.copied().unwrap_or(Value::BOTTOM));
        let want = [
            (Key(7), Value(70)),
            (Key(2), Value(20)),
            (Key(5), Value(50)),
        ];
        assert_eq!(done.reads, want);
    }

    #[test]
    fn a_key_no_response_named_reads_the_closures_bottom() {
        let mut g: Gather<(Value, u64)> = Gather::new(vec![Key(0), Key(1)], 1, 0);
        g.got.insert(Key(1), (Value(9), 4));
        let done = g.finish(TxId(2), 5, |_, r| r.map_or(Value::BOTTOM, |&(v, _)| v));
        assert_eq!(done.reads, [(Key(0), Value::BOTTOM), (Key(1), Value(9))]);
        // The closure, not the gather, decides what a missing key reads.
        let g: Gather<Value> = Gather::new(vec![Key(3)], 1, 0);
        let done = g.finish(TxId(3), 5, |k, v| v.copied().unwrap_or(Value(k.0.into())));
        assert_eq!(done.reads, [(Key(3), Value(3))]);
    }

    #[test]
    fn the_countdown_reports_last_exactly_once() {
        let topo = Topology::sharded(2, 1, 4);
        let mut g: Gather<Value> = Gather::new(vec![Key(3), Key(0), Key(2)], 0, 0);
        assert_eq!(g.by_primary(&topo), topo.group_by_primary(&g.keys));
        let lasts: Vec<bool> = (0..2).map(|_| g.arrived()).collect();
        assert_eq!(lasts, [false, true], "one response per primary server");
    }

    #[test]
    fn the_cached_write_wins_only_when_newer() {
        let (read, cached) = ((Value(1), 5), (Value(2), 7));
        assert_eq!(read_your_writes(Some(&read), Some(&cached)), Value(2));
        assert_eq!(read_your_writes(Some(&cached), Some(&read)), Value(2));
        assert_eq!(
            read_your_writes(Some(&read), Some(&(Value(2), 5))),
            Value(1)
        );
        assert_eq!(read_your_writes(None, Some(&cached)), Value(2));
        assert_eq!(read_your_writes(None, None), Value::BOTTOM);
    }

    #[test]
    fn constructors_build_the_literal_record() {
        let reads = vec![(Key(1), Value(2))];
        let literal = |reads| Completed {
            id: TxId(4),
            reads,
            invoked_at: 3,
            completed_at: 8,
        };
        assert_eq!(
            Completed::read(TxId(4), reads.clone(), 3, 8),
            literal(reads)
        );
        assert_eq!(Completed::write(TxId(4), 3, 8), literal(Vec::new()));
        let g: Gather<Value> = Gather::new(vec![], 1, 3);
        assert_eq!(
            g.finish(TxId(4), 8, |_, v| v.copied().unwrap_or(Value::BOTTOM)),
            literal(Vec::new())
        );
    }
}
