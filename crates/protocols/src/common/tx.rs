//! Transaction bookkeeping the protocol modules share: the read-only
//! [`Gather`], the two-phase-commit [`Tally`] and the [`Completed`]
//! constructors.
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

/// One two-phase-commit fan-out: its participants, which of them have
/// answered, and the running maximum of their proposals. A repeat
/// answer, or one from outside the fan-out, changes nothing, so a
/// duplicated response can never end the phase early.
#[derive(Clone, Debug)]
pub struct Tally {
    /// Each participant, ascending, beside whether it answered.
    parts: Vec<(ProcessId, bool)>,
    /// Participants yet to answer.
    left: usize,
    /// The largest proposal answered so far (0 before any).
    max: u64,
}

impl Tally {
    /// A tally over `participants` (sorted, repeats folded), none of
    /// them answered yet.
    pub fn new(participants: impl IntoIterator<Item = ProcessId>) -> Self {
        let mut parts: Vec<(ProcessId, bool)> =
            participants.into_iter().map(|p| (p, false)).collect();
        parts.sort_unstable();
        parts.dedup();
        Tally {
            left: parts.len(),
            parts,
            max: 0,
        }
    }

    /// Count `from`'s answer carrying `proposed`: `true` exactly once,
    /// when the last distinct participant answers.
    pub fn answer(&mut self, from: ProcessId, proposed: u64) -> bool {
        match self.parts.iter_mut().find(|(p, _)| *p == from) {
            Some((_, seen @ false)) => {
                *seen = true;
                self.left -= 1;
                self.max = self.max.max(proposed);
                self.left == 0
            }
            _ => false,
        }
    }

    /// Has participant `p` answered this phase?
    pub fn answered(&self, p: ProcessId) -> bool {
        self.parts.contains(&(p, true))
    }

    /// The largest proposal answered so far: the commit timestamp input.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The participants, ascending.
    pub fn participants(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.parts.iter().map(|&(p, _)| p)
    }

    /// Start the next phase over the same participants: nobody has
    /// answered it and nothing is proposed.
    pub fn restart(&mut self) {
        for (_, seen) in &mut self.parts {
            *seen = false;
        }
        self.left = self.parts.len();
        self.max = 0;
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

    fn pids(ps: &[u32]) -> Vec<ProcessId> {
        ps.iter().map(|&p| ProcessId(p)).collect()
    }

    #[test]
    fn the_last_distinct_answer_finishes_exactly_once() {
        let mut t = Tally::new(pids(&[0, 1, 2]));
        let lasts: Vec<bool> = [(2, 5), (0, 9), (1, 7)]
            .iter()
            .map(|&(p, ts)| t.answer(ProcessId(p), ts))
            .collect();
        assert_eq!(lasts, [false, false, true]);
        // Finished: a late repeat reports nothing a second time.
        assert!(!t.answer(ProcessId(1), 7));
        assert_eq!(t.participants().collect::<Vec<_>>(), pids(&[0, 1, 2]));
        // Participants are kept sorted and a repeated one counts once.
        let mut t = Tally::new(pids(&[2, 0, 2]));
        assert_eq!(t.participants().collect::<Vec<_>>(), pids(&[0, 2]));
        assert!(!t.answer(ProcessId(2), 0));
        assert!(t.answer(ProcessId(0), 0));
    }

    #[test]
    fn a_duplicate_or_foreign_answer_changes_nothing() {
        let mut t = Tally::new(pids(&[0, 1]));
        assert!(!t.answer(ProcessId(0), 4));
        assert!(!t.answer(ProcessId(0), 4), "a duplicate is not the last");
        assert!(!t.answer(ProcessId(7), 99), "not a participant");
        assert_eq!(t.max(), 4, "ignored answers propose nothing");
        assert!(t.answered(ProcessId(0)));
        assert!(!t.answered(ProcessId(1)) && !t.answered(ProcessId(7)));
        assert!(t.answer(ProcessId(1), 3));
    }

    #[test]
    fn max_is_the_largest_proposal_in_any_order() {
        let props = [(0, 12), (1, 30), (2, 7)];
        for rot in 0..props.len() {
            let mut t = Tally::new(pids(&[0, 1, 2]));
            assert_eq!(t.max(), 0, "nothing proposed yet");
            for &(p, ts) in props.iter().cycle().skip(rot).take(props.len()) {
                t.answer(ProcessId(p), ts);
            }
            assert_eq!(t.max(), props.iter().map(|&(_, ts)| ts).max().unwrap());
        }
    }

    #[test]
    fn restart_counts_the_next_phase_afresh() {
        let mut t = Tally::new(pids(&[3, 5]));
        assert!(!t.answer(ProcessId(3), 8));
        assert!(t.answer(ProcessId(5), 2));
        t.restart();
        assert_eq!(t.max(), 0);
        assert!(!t.answered(ProcessId(3)) && !t.answered(ProcessId(5)));
        assert!(!t.answer(ProcessId(5), 0));
        assert!(!t.answer(ProcessId(5), 0), "a duplicate in the new phase");
        assert!(t.answer(ProcessId(3), 0));
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
