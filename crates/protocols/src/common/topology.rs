//! Cluster layout: which process is a server, which is a client, and
//! which server(s) store which object.

use cbf_model::{ClientId, Key, Value};
use cbf_sim::ProcessId;

/// Maximum client retry attempts when [`Topology::retry_after`] is set.
/// With exponential doubling the total retry window is
/// `retry_after * (2^MAX_RETRIES - 1)` virtual ns — for a 1 ms base that
/// is ~1.02 s, well inside the harness horizons.
pub const MAX_RETRIES: u32 = 10;

/// The shape of a simulated deployment.
///
/// Process ids are laid out as `[servers..., clients...]`: server `i` is
/// `ProcessId(i)` for `i < num_servers`, client `j` is
/// `ProcessId(num_servers + j)`.
///
/// In the default (disjoint) layout each key lives on exactly one server
/// (`key % num_servers`). A partially replicated layout stores key `k` on
/// `replication` consecutive servers starting at `k % num_servers` — each
/// server then stores several keys, the replica sets overlap, and no
/// server stores everything (Appendix A's setting) provided
/// `replication < num_servers`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of servers (`m > 1` in the paper).
    pub num_servers: u32,
    /// Number of clients (the theorem needs at least four).
    pub num_clients: u32,
    /// Number of objects stored in the system.
    pub num_keys: u32,
    /// Copies of each key (1 = disjoint shards; `2..num_servers` =
    /// partial replication).
    pub replication: u32,
    /// Protocol-specific tuning knob (0 = protocol default). Used by the
    /// ablation benchmarks: Spanner-like reads it as the TrueTime ε,
    /// the stabilization protocols as their broadcast period (both in
    /// virtual ns).
    pub tuning: u64,
    /// Per-request retry timeout base in virtual ns; 0 (the default)
    /// disables client retries entirely, which keeps fault-free traces
    /// byte-identical to the pre-nemesis simulator. When set, clients
    /// arm a timer per transaction and re-send outstanding requests with
    /// exponential backoff (base, 2×base, 4×base, …) up to
    /// [`MAX_RETRIES`] attempts.
    pub retry_after: u64,
}

impl Topology {
    /// The paper's minimal setting: two servers, two objects (one each),
    /// `n` clients.
    pub fn minimal(num_clients: u32) -> Self {
        Topology {
            num_servers: 2,
            num_clients,
            num_keys: 2,
            replication: 1,
            tuning: 0,
            retry_after: 0,
        }
    }

    /// A sharded, non-replicated deployment.
    pub fn sharded(num_servers: u32, num_clients: u32, num_keys: u32) -> Self {
        assert!(num_servers > 0 && num_keys >= num_servers);
        Topology {
            num_servers,
            num_clients,
            num_keys,
            replication: 1,
            tuning: 0,
            retry_after: 0,
        }
    }

    /// A partially replicated deployment (Appendix A): each key on
    /// `replication` servers, no server holding every key.
    pub fn partially_replicated(
        num_servers: u32,
        num_clients: u32,
        num_keys: u32,
        replication: u32,
    ) -> Self {
        assert!(replication >= 1 && replication < num_servers);
        Topology {
            num_servers,
            num_clients,
            num_keys,
            replication,
            tuning: 0,
            retry_after: 0,
        }
    }

    /// Set the protocol tuning knob (builder style).
    pub fn with_tuning(mut self, tuning: u64) -> Self {
        self.tuning = tuning;
        self
    }

    /// Enable client-side retry with the given timeout base (builder
    /// style). See [`Topology::retry_after`].
    pub fn with_retry(mut self, base: u64) -> Self {
        self.retry_after = base;
        self
    }

    /// The backoff before retry `attempt` (0-based): `retry_after <<
    /// attempt`, or `None` when retries are disabled or exhausted.
    pub fn retry_delay(&self, attempt: u32) -> Option<u64> {
        (self.retry_after != 0 && attempt < MAX_RETRIES).then(|| self.retry_after << attempt)
    }

    /// Total processes.
    pub fn num_processes(&self) -> usize {
        (self.num_servers + self.num_clients) as usize
    }

    /// Is this process a server?
    pub fn is_server(&self, p: ProcessId) -> bool {
        p.0 < self.num_servers
    }

    /// All server process ids.
    pub fn servers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.num_servers).map(ProcessId)
    }

    /// All client process ids.
    pub fn clients(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (self.num_servers..self.num_servers + self.num_clients).map(ProcessId)
    }

    /// The process id of a client.
    pub fn client_pid(&self, c: ClientId) -> ProcessId {
        assert!(c.0 < self.num_clients, "client {c:?} out of range");
        ProcessId(self.num_servers + c.0)
    }

    /// The client id of a client process.
    pub fn client_of(&self, p: ProcessId) -> Option<ClientId> {
        (p.0 >= self.num_servers && p.0 < self.num_servers + self.num_clients)
            .then(|| ClientId(p.0 - self.num_servers))
    }

    /// The servers storing `key`, primary first.
    pub fn replicas(&self, key: Key) -> Vec<ProcessId> {
        let primary = key.0 % self.num_servers;
        (0..self.replication)
            .map(|r| ProcessId((primary + r) % self.num_servers))
            .collect()
    }

    /// The primary server of `key` (its canonical home).
    pub fn primary(&self, key: Key) -> ProcessId {
        ProcessId(key.0 % self.num_servers)
    }

    /// Does `server` store `key`?
    pub fn stores(&self, server: ProcessId, key: Key) -> bool {
        self.replicas(key).contains(&server)
    }

    /// The keys stored by `server`.
    pub fn keys_of(&self, server: ProcessId) -> Vec<Key> {
        (0..self.num_keys)
            .map(Key)
            .filter(|k| self.stores(server, *k))
            .collect()
    }

    /// The last server storing `key` (the tail of [`Topology::replicas`]):
    /// its most remote copy, a non-primary whenever the key is replicated.
    pub fn last_replica(&self, key: Key) -> ProcessId {
        ProcessId((self.primary(key).0 + self.replication - 1) % self.num_servers)
    }

    /// Group `items` by the server `server_of` assigns each one's key,
    /// servers ascending and each group in input order: the one fan-out
    /// grouping behind every read and write request.
    pub fn group_by<T: Keyed>(
        items: &[T],
        server_of: impl Fn(Key) -> ProcessId,
    ) -> Vec<(ProcessId, Vec<T>)> {
        let mut groups: Vec<(ProcessId, Vec<T>)> = Vec::new();
        for &item in items {
            let server = server_of(item.key());
            let i = match groups.iter().position(|&(s, _)| s == server) {
                Some(i) => i,
                None => {
                    groups.push((server, Vec::new()));
                    groups.len() - 1
                }
            };
            groups[i].1.push(item);
        }
        groups.sort_unstable_by_key(|&(s, _)| s);
        groups
    }

    /// Group `items` by their key's primary server (for request fan-out).
    pub fn group_by_primary<T: Keyed>(&self, items: &[T]) -> Vec<(ProcessId, Vec<T>)> {
        Self::group_by(items, |k| self.primary(k))
    }
}

/// What a fan-out groups: a bare key (a read) or a `(key, value)` write,
/// placed by its key.
pub trait Keyed: Copy {
    /// The key that places this item.
    fn key(&self) -> Key;
}

impl Keyed for Key {
    fn key(&self) -> Key {
        *self
    }
}

impl Keyed for (Key, Value) {
    fn key(&self) -> Key {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_layout() {
        let t = Topology::minimal(4);
        assert_eq!(t.num_processes(), 6);
        assert!(t.is_server(ProcessId(0)));
        assert!(t.is_server(ProcessId(1)));
        assert!(!t.is_server(ProcessId(2)));
        assert_eq!(t.client_pid(ClientId(0)), ProcessId(2));
        assert_eq!(t.client_of(ProcessId(3)), Some(ClientId(1)));
        assert_eq!(t.client_of(ProcessId(0)), None);
        assert_eq!(t.primary(Key(0)), ProcessId(0));
        assert_eq!(t.primary(Key(1)), ProcessId(1));
        assert_eq!(t.replicas(Key(1)), vec![ProcessId(1)]);
    }

    #[test]
    fn sharded_spreads_keys() {
        let t = Topology::sharded(3, 2, 9);
        assert_eq!(t.keys_of(ProcessId(0)), vec![Key(0), Key(3), Key(6)]);
        assert_eq!(t.keys_of(ProcessId(2)).len(), 3);
    }

    #[test]
    fn partial_replication_overlaps_without_full_copies() {
        let t = Topology::partially_replicated(3, 4, 3, 2);
        assert_eq!(t.replicas(Key(0)), vec![ProcessId(0), ProcessId(1)]);
        assert_eq!(t.replicas(Key(2)), vec![ProcessId(2), ProcessId(0)]);
        // Every server stores some but not all keys.
        for s in t.servers() {
            let ks = t.keys_of(s);
            assert!(!ks.is_empty());
            assert!(ks.len() < t.num_keys as usize);
        }
    }

    #[test]
    fn group_by_primary_partitions_request() {
        let t = Topology::sharded(2, 1, 4);
        let groups = t.group_by_primary(&[Key(0), Key(1), Key(2), Key(3)]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (ProcessId(0), vec![Key(0), Key(2)]));
        assert_eq!(groups[1], (ProcessId(1), vec![Key(1), Key(3)]));
    }

    #[test]
    fn writes_group_like_their_keys_and_keep_input_order() {
        let t = Topology::sharded(3, 1, 9);
        let writes = [(Key(5), Value(1)), (Key(0), Value(2)), (Key(2), Value(3))];
        let groups = t.group_by_primary(&writes);
        assert_eq!(
            groups,
            [
                (ProcessId(0), vec![(Key(0), Value(2))]),
                (ProcessId(2), vec![(Key(5), Value(1)), (Key(2), Value(3))]),
            ]
        );
        let keys: Vec<Key> = writes.iter().map(|&(k, _)| k).collect();
        let by_key: Vec<ProcessId> = t.group_by_primary(&keys).iter().map(|g| g.0).collect();
        assert_eq!(by_key, [ProcessId(0), ProcessId(2)]);
    }

    #[test]
    fn last_replica_is_the_tail_of_replicas() {
        for t in [
            Topology::minimal(1),
            Topology::sharded(3, 1, 9),
            Topology::partially_replicated(3, 1, 6, 2),
            Topology::partially_replicated(5, 1, 10, 4),
        ] {
            for k in (0..t.num_keys).map(Key) {
                assert_eq!(
                    Some(&t.last_replica(k)),
                    t.replicas(k).last(),
                    "{t:?} {k:?}"
                );
            }
        }
    }

    #[test]
    fn retry_delay_doubles_until_the_budget_runs_out() {
        assert_eq!(Topology::minimal(1).retry_delay(0), None);
        let t = Topology::minimal(1).with_retry(100);
        assert_eq!(t.retry_delay(0), Some(100));
        assert_eq!(t.retry_delay(3), Some(800));
        assert_eq!(
            t.retry_delay(MAX_RETRIES - 1),
            Some(100 << (MAX_RETRIES - 1))
        );
        assert_eq!(t.retry_delay(MAX_RETRIES), None);
    }

    #[test]
    #[should_panic]
    fn client_pid_bounds_checked() {
        Topology::minimal(2).client_pid(ClientId(5));
    }
}
