//! Auxiliary session-guarantee and atomicity checkers.
//!
//! Causal consistency (Definition 1) is the property the theorem needs;
//! these weaker/incomparable checks are used in protocol tests to localize
//! failures (e.g. RAMP provides read atomicity but not causality) and to
//! characterize the consistency column of Table 1.

use crate::history::History;
use crate::relations::CausalOrder;
use crate::types::{ClientId, Key, TxId};

/// A session-level anomaly.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // fields are self-describing
pub enum SessionViolation {
    /// A client failed to observe its own earlier write: it read an older
    /// value that is causally dominated by its own write.
    ReadYourWrites {
        client: ClientId,
        reader: TxId,
        key: Key,
    },
    /// A client's successive reads of a key went causally backwards.
    MonotonicReads {
        client: ClientId,
        reader: TxId,
        key: Key,
    },
    /// A transaction observed part of another transaction's write-set
    /// alongside a causally older value for a sibling key (fractured
    /// read, RAMP's "read atomicity" anomaly).
    FracturedRead { reader: TxId, key: Key },
}

/// Check read-your-writes: if a client wrote `k` and later reads `k`, the
/// read must not return a value whose writer is causally *before* the
/// client's own write.
pub fn check_read_your_writes(h: &History) -> Vec<SessionViolation> {
    let co = CausalOrder::build(h);
    let txs = h.transactions();
    let mut out = Vec::new();
    for client in h.clients() {
        let mine: Vec<usize> = (0..txs.len())
            .filter(|&i| txs[i].client == client)
            .collect();
        for (pos, &i) in mine.iter().enumerate() {
            for &(k, v) in &txs[i].reads {
                // Last own write of k before this transaction.
                let last_own_write = mine[..pos]
                    .iter()
                    .rev()
                    .find(|&&j| txs[j].wrote(k).is_some())
                    .copied();
                let Some(w_own) = last_own_write else {
                    continue;
                };
                if txs[w_own].wrote(k) == Some(v) {
                    continue; // read its own write: fine
                }
                // Otherwise the observed writer must not be causally
                // before the own write.
                let observed = co
                    .index
                    .reads_from
                    .iter()
                    .find(|rf| rf.reader == i && rf.key == k)
                    .map(|rf| rf.writer);
                if let Some(w_obs) = observed {
                    if co.before(w_obs, w_own) || w_obs == w_own {
                        out.push(SessionViolation::ReadYourWrites {
                            client,
                            reader: txs[i].id,
                            key: k,
                        });
                    }
                } else if v.is_bottom() {
                    // Reading ⊥ after writing is always a violation.
                    out.push(SessionViolation::ReadYourWrites {
                        client,
                        reader: txs[i].id,
                        key: k,
                    });
                }
            }
        }
    }
    out
}

/// Check monotonic reads: a client's successive reads of the same key must
/// not observe writers that go causally backwards.
pub fn check_monotonic_reads(h: &History) -> Vec<SessionViolation> {
    let co = CausalOrder::build(h);
    let txs = h.transactions();
    let mut out = Vec::new();
    for client in h.clients() {
        let mine: Vec<usize> = (0..txs.len())
            .filter(|&i| txs[i].client == client)
            .collect();
        // For each key, the sequence of observed writers.
        let mut last_writer: std::collections::BTreeMap<Key, usize> = Default::default();
        for &i in &mine {
            for &(k, _) in &txs[i].reads {
                let observed = co
                    .index
                    .reads_from
                    .iter()
                    .find(|rf| rf.reader == i && rf.key == k)
                    .map(|rf| rf.writer);
                let Some(w) = observed else { continue };
                if let Some(&prev) = last_writer.get(&k) {
                    if co.before(w, prev) {
                        out.push(SessionViolation::MonotonicReads {
                            client,
                            reader: txs[i].id,
                            key: k,
                        });
                    }
                }
                last_writer.insert(k, w);
            }
        }
    }
    out
}

/// Check read atomicity (RAMP): if `T` observes `W`'s write to some key,
/// then for every other key both `W` wrote and `T` read, `T` must not
/// observe a writer causally older than `W`.
pub fn check_read_atomicity(h: &History) -> Vec<SessionViolation> {
    let co = CausalOrder::build(h);
    let txs = h.transactions();
    let mut out = Vec::new();
    for (i, t) in txs.iter().enumerate() {
        // Writers observed per key by this transaction.
        let observed: Vec<(Key, usize)> = co
            .index
            .reads_from
            .iter()
            .filter(|rf| rf.reader == i)
            .map(|rf| (rf.key, rf.writer))
            .collect();
        for &(_, w) in &observed {
            for &(k2, w2) in &observed {
                if w2 == w {
                    continue;
                }
                // If w also wrote k2 but T observed an older writer: fractured.
                if txs[w].wrote(k2).is_some() && co.before(w2, w) {
                    out.push(SessionViolation::FracturedRead {
                        reader: t.id,
                        key: k2,
                    });
                }
            }
        }
    }
    out.sort_by_key(|v| match v {
        SessionViolation::FracturedRead { reader, key } => (reader.0, key.0),
        _ => (0, 0),
    });
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::tx;

    #[test]
    fn ryw_ok_when_reading_own_write() {
        let h: History = vec![tx(0, 0, &[], &[(0, 1)]), tx(1, 0, &[(0, 1)], &[])]
            .into_iter()
            .collect();
        assert!(check_read_your_writes(&h).is_empty());
    }

    #[test]
    fn ryw_flags_reading_bottom_after_write() {
        let h: History = vec![tx(0, 0, &[], &[(0, 1)]), tx(1, 0, &[(0, u64::MAX)], &[])]
            .into_iter()
            .collect();
        assert_eq!(check_read_your_writes(&h).len(), 1);
    }

    #[test]
    fn ryw_flags_reading_causally_older_value() {
        // c1 reads c0's write, writes its own, then reads c0's again.
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[(0, 1)], &[(0, 2)]),
            tx(2, 1, &[(0, 1)], &[]),
        ]
        .into_iter()
        .collect();
        assert_eq!(check_read_your_writes(&h).len(), 1);
    }

    #[test]
    fn ryw_allows_newer_foreign_value() {
        // c0 writes 1; c1 reads 1 (so 1 <c c1's write 2); c0 then reads 2:
        // newer than its own write, fine.
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[(0, 1)], &[(0, 2)]),
            tx(2, 0, &[(0, 2)], &[]),
        ]
        .into_iter()
        .collect();
        assert!(check_read_your_writes(&h).is_empty());
    }

    #[test]
    fn monotonic_reads_flags_backwards_observation() {
        // c2 reads 2 (which causally follows 1) and then reads 1.
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[(0, 1)], &[(0, 2)]),
            tx(2, 2, &[(0, 2)], &[]),
            tx(3, 2, &[(0, 1)], &[]),
        ]
        .into_iter()
        .collect();
        assert_eq!(check_monotonic_reads(&h).len(), 1);
    }

    #[test]
    fn monotonic_reads_allows_concurrent_switch() {
        // Values 1 and 2 are concurrent; switching between them does not
        // violate monotonic reads (no causal regression).
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[], &[(0, 2)]),
            tx(2, 2, &[(0, 2)], &[]),
            tx(3, 2, &[(0, 1)], &[]),
        ]
        .into_iter()
        .collect();
        assert!(check_monotonic_reads(&h).is_empty());
    }

    #[test]
    fn read_atomicity_flags_fractured_read() {
        // W writes (X0, X1); T sees W's X0 but init's X1 where init <c W.
        let h: History = vec![
            tx(0, 0, &[], &[(1, 9)]),
            tx(1, 1, &[(1, 9)], &[(0, 1), (1, 2)]),
            tx(2, 2, &[(0, 1), (1, 9)], &[]),
        ]
        .into_iter()
        .collect();
        let v = check_read_atomicity(&h);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            SessionViolation::FracturedRead { key: Key(1), .. }
        ));
    }

    #[test]
    fn read_atomicity_ok_for_whole_snapshot() {
        let h: History = vec![
            tx(0, 0, &[], &[(1, 9)]),
            tx(1, 1, &[(1, 9)], &[(0, 1), (1, 2)]),
            tx(2, 2, &[(0, 1), (1, 2)], &[]),
        ]
        .into_iter()
        .collect();
        assert!(check_read_atomicity(&h).is_empty());
    }
}
