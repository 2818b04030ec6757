//! A multi-version key-value store, the storage engine inside every
//! simulated server.

use cbf_model::{Key, TxId, Value};
use std::collections::HashMap;

/// One stored version of one object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Version {
    /// The written value.
    pub value: Value,
    /// Commit timestamp (protocol-specific clock domain). Versions of a
    /// key are kept sorted ascending by `ts`.
    pub ts: u64,
    /// The writing transaction.
    pub tx: TxId,
}

/// An in-memory multi-version store. Versions are retained forever — the
/// simulator's runs are finite and several protocols (COPS-GT, Eiger)
/// need to serve old versions.
#[derive(Clone, Debug, Default)]
pub struct MvStore {
    data: HashMap<Key, Vec<Version>>,
}

impl MvStore {
    /// An empty store.
    pub fn new() -> Self {
        MvStore::default()
    }

    /// Insert a version, keeping the per-key list sorted by timestamp.
    /// Equal-timestamp inserts keep the newcomer after existing entries
    /// (timestamps are unique in all protocols here, so this is moot).
    pub fn insert(&mut self, key: Key, v: Version) {
        let versions = self.data.entry(key).or_default();
        let pos = versions.partition_point(|x| x.ts <= v.ts);
        versions.insert(pos, v);
    }

    /// Apply a committed write set: every `(key, value)` of transaction
    /// `id`, at timestamp `ts`.
    pub fn commit(&mut self, id: TxId, ts: u64, writes: impl IntoIterator<Item = (Key, Value)>) {
        for (key, value) in writes {
            self.insert(key, Version { value, ts, tx: id });
        }
    }

    /// The newest version of `key`.
    pub fn latest(&self, key: Key) -> Option<&Version> {
        self.data.get(&key).and_then(|v| v.last())
    }

    /// The newest version with `ts <= bound`.
    pub fn latest_at(&self, key: Key, bound: u64) -> Option<&Version> {
        let versions = self.data.get(&key)?;
        let pos = versions.partition_point(|x| x.ts <= bound);
        pos.checked_sub(1).map(|i| &versions[i])
    }

    /// The newest version satisfying `pred`.
    pub fn latest_matching(&self, key: Key, pred: impl Fn(&Version) -> bool) -> Option<&Version> {
        self.data.get(&key)?.iter().rev().find(|v| pred(v))
    }

    /// The version with exactly this timestamp.
    pub fn at_exact(&self, key: Key, ts: u64) -> Option<&Version> {
        self.data.get(&key)?.iter().find(|v| v.ts == ts)
    }

    /// All versions of `key`, oldest first.
    pub fn versions(&self, key: Key) -> &[Version] {
        self.data.get(&key).map_or(&[], |v| v.as_slice())
    }

    /// Number of keys with at least one version.
    pub fn num_keys(&self) -> usize {
        self.data.len()
    }

    /// Total stored versions across all keys.
    pub fn num_versions(&self) -> usize {
        self.data.values().map(|v| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(val: u64, ts: u64) -> Version {
        Version {
            value: Value(val),
            ts,
            tx: TxId(ts),
        }
    }

    #[test]
    fn empty_store_returns_nothing() {
        let s = MvStore::new();
        assert!(s.latest(Key(0)).is_none());
        assert!(s.latest_at(Key(0), 100).is_none());
        assert_eq!(s.versions(Key(0)), &[]);
        assert_eq!(s.num_keys(), 0);
    }

    #[test]
    fn versions_stay_sorted_regardless_of_insert_order() {
        let mut s = MvStore::new();
        s.insert(Key(0), v(3, 30));
        s.insert(Key(0), v(1, 10));
        s.insert(Key(0), v(2, 20));
        let ts: Vec<u64> = s.versions(Key(0)).iter().map(|x| x.ts).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        assert_eq!(s.latest(Key(0)).unwrap().value, Value(3));
        assert_eq!(s.num_versions(), 3);
    }

    #[test]
    fn latest_at_is_a_floor_lookup() {
        let mut s = MvStore::new();
        s.insert(Key(0), v(1, 10));
        s.insert(Key(0), v(2, 20));
        s.insert(Key(0), v(3, 30));
        assert_eq!(s.latest_at(Key(0), 25).unwrap().value, Value(2));
        assert_eq!(s.latest_at(Key(0), 30).unwrap().value, Value(3));
        assert_eq!(s.latest_at(Key(0), 9), None);
        assert_eq!(s.latest_at(Key(0), u64::MAX).unwrap().value, Value(3));
    }

    #[test]
    fn latest_matching_scans_from_newest() {
        let mut s = MvStore::new();
        s.insert(Key(0), v(1, 10));
        s.insert(Key(0), v(2, 20));
        s.insert(Key(0), v(3, 30));
        let found = s.latest_matching(Key(0), |x| x.ts < 30).unwrap();
        assert_eq!(found.value, Value(2));
        assert!(s.latest_matching(Key(0), |_| false).is_none());
    }

    #[test]
    fn commit_inserts_the_write_set_at_one_timestamp() {
        let mut s = MvStore::new();
        s.insert(Key(0), v(1, 30));
        s.commit(TxId(9), 20, [(Key(0), Value(5)), (Key(1), Value(6))]);
        let at = |k| s.latest_at(Key(k), 20).cloned();
        let version = |value| Version {
            value: Value(value),
            ts: 20,
            tx: TxId(9),
        };
        assert_eq!(at(0), Some(version(5)));
        assert_eq!(at(1), Some(version(6)));
        assert_eq!(s.latest(Key(0)).unwrap().ts, 30, "kept in timestamp order");
    }

    #[test]
    fn at_exact_finds_only_exact() {
        let mut s = MvStore::new();
        s.insert(Key(1), v(5, 50));
        assert_eq!(s.at_exact(Key(1), 50).unwrap().value, Value(5));
        assert!(s.at_exact(Key(1), 49).is_none());
    }
}
