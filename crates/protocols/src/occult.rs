//! Occult [Mehdi et al., NSDI 2017]: "I Can't Believe It's Not Causal!" —
//! causal reads without slowdown cascades, via **client-side validation
//! and retries**.
//!
//! Table 1 row: R ≥ 1, V ≥ 1, non-blocking, W, Per-Client Parallel SI.
//!
//! The structural ideas reproduced here:
//!
//! * every key has a **master** replica (the primary) and asynchronous
//!   **slave** replicas — slaves may lag arbitrarily and never delay
//!   writes;
//! * clients carry *causal timestamps* (per-shard high-water marks);
//!   reads go to the **closest replica** (the slave, when one exists) and
//!   the server answers immediately with whatever it has — servers never
//!   block and are oblivious to staleness;
//! * the **client** validates: a response below its causal timestamp, or
//!   a transactionally fractured pair (detected from the write-set
//!   metadata), triggers a retry at the master — so the round count is
//!   1 in the common case and grows with staleness, never with blocking;
//! * write transactions run two-phase across masters and replicate to
//!   slaves asynchronously afterwards.
//!
//! The deployment must be partially replicated
//! ([`Topology::partially_replicated`]) for the slave path to exist;
//! on a plain sharded topology reads hit masters and validation never
//! fires.

use crate::common::{
    Completed, Gather, LamportClock, MvStore, ProtocolNode, Tally, Topology, Version,
};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId};
use std::collections::HashMap;

/// One read-response item: value + timestamp + the writing transaction's
/// key-list (for fracture detection).
#[derive(Clone, Debug)]
pub struct Item {
    /// The object.
    pub key: Key,
    /// Its value (`⊥` if this replica has nothing yet).
    pub value: Value,
    /// The writing transaction's timestamp (0 for `⊥`).
    pub ts: u64,
    /// The writing transaction's full key-list.
    pub tx_keys: Vec<Key>,
}

/// Occult message alphabet.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub enum Msg {
    /// Injection: read-only transaction.
    InvokeRot { id: TxId, keys: Vec<Key> },
    /// Injection: write-only transaction.
    InvokeWtx { id: TxId, writes: Vec<(Key, Value)> },
    /// Client → replica: read these keys (answered from local state,
    /// stale or not).
    Read { id: TxId, keys: Vec<Key> },
    /// Replica → client: best-effort items.
    ReadResp { id: TxId, items: Vec<Item> },
    /// Client → master: run this write-only transaction.
    WtxReq {
        id: TxId,
        writes: Vec<(Key, Value)>,
        dep_ts: u64,
    },
    /// Master coordinator → master participant: propose and hold.
    Prepare {
        id: TxId,
        writes: Vec<(Key, Value)>,
        tx_keys: Vec<Key>,
        dep_ts: u64,
        coordinator: ProcessId,
    },
    /// Participant → coordinator.
    PrepareResp { id: TxId, proposed: u64 },
    /// Coordinator → participant: commit at `ts`.
    Commit { id: TxId, ts: u64 },
    /// Coordinator → client: committed at `ts`.
    WtxAck { id: TxId, ts: u64 },
    /// Master → slave: asynchronous replication of a committed version.
    Replicate {
        key: Key,
        value: Value,
        ts: u64,
        tx: TxId,
        tx_keys: Vec<Key>,
    },
}

/// In-flight ROT at the client: the gather (newest version per key),
/// beside the returned items' key-lists and the re-reads spent.
type PendingRead = (Gather<(Value, u64)>, Vec<Item>, u32);

/// Occult client: per-key causal high-water marks.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    /// Causal timestamp: the newest version (per key) this client has
    /// observed or written.
    causal: HashMap<Key, u64>,
    rots: HashMap<TxId, PendingRead>,
    /// In-flight write transactions: id → (written keys, invoked_at).
    wtxs: HashMap<TxId, (Vec<Key>, u64)>,
    completed: HashMap<TxId, Completed>,
}

/// A prepared transaction at a master: `(proposal, writes, tx_keys)`.
type PreparedTx = (u64, Vec<(Key, Value)>, Vec<Key>);

/// Occult server: master for its primary keys, slave for the rest.
#[derive(Clone, Debug)]
pub struct ServerState {
    topo: Topology,
    me: ProcessId,
    store: MvStore,
    /// Key-lists per (key, ts).
    meta: HashMap<(Key, u64), Vec<Key>>,
    clock: LamportClock,
    pending: HashMap<TxId, PreparedTx>,
    /// Coordinator side: each 2PC's prepare tally beside its client.
    coordinating: HashMap<TxId, (Tally, ProcessId)>,
}

/// An Occult node.
#[derive(Clone, Debug)]
pub enum OccultNode {
    /// A client.
    Client(ClientState),
    /// A server.
    Server(ServerState),
}

/// Re-reads of stale keys at their masters a ROT may spend before it
/// answers with what it has (it converges well before this in practice).
const MAX_REREADS: u32 = 8;

impl OccultNode {
    /// Send a read of `keys` to each key's master, or else to the
    /// replica a client prefers: the last (most remote) one, a slave
    /// whenever the key is replicated. Returns the number of requests.
    fn send_reads(
        c: &ClientState,
        ctx: &mut Ctx<Msg>,
        id: TxId,
        keys: &[Key],
        to_master: bool,
    ) -> usize {
        let groups = Topology::group_by(keys, |k| {
            if to_master {
                c.topo.primary(k)
            } else {
                c.topo.last_replica(k)
            }
        });
        let n = groups.len();
        for (server, ks) in groups {
            ctx.send(server, Msg::Read { id, keys: ks });
        }
        n
    }

    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id, keys } => {
                    let awaiting = Self::send_reads(c, ctx, id, &keys, false);
                    c.rots
                        .insert(id, (Gather::new(keys, awaiting, ctx.now()), Vec::new(), 0));
                }
                Msg::ReadResp { id, items } => {
                    let Some((p, meta, _)) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    for it in &items {
                        let cur = p.got.get(&it.key).map_or(0, |&(_, ts)| ts);
                        if it.ts >= cur {
                            p.got.insert(it.key, (it.value, it.ts));
                        }
                    }
                    meta.extend(items);
                    if p.arrived() {
                        Self::validate_rot(c, id, ctx);
                    }
                }
                Msg::InvokeWtx { id, writes } => {
                    let coordinator = c.topo.primary(writes[0].0);
                    let dep_ts = c.causal.values().copied().max().unwrap_or(0);
                    let keys: Vec<Key> = writes.iter().map(|&(k, _)| k).collect();
                    ctx.send(coordinator, Msg::WtxReq { id, writes, dep_ts });
                    c.wtxs.insert(id, (keys, ctx.now()));
                }
                Msg::WtxAck { id, ts } => {
                    if let Some((keys, invoked_at)) = c.wtxs.remove(&id) {
                        // The causal timestamp advances for the written
                        // keys: the client's own writes are in its past.
                        for k in keys {
                            let slot = c.causal.entry(k).or_insert(0);
                            *slot = (*slot).max(ts);
                        }
                        c.completed
                            .insert(id, Completed::write(id, invoked_at, ctx.now()));
                    }
                }
                _ => {}
            }
        }
    }

    /// Client-side validation: staleness against the causal timestamp
    /// and transactional fracture against the key-list metadata. Any
    /// miss triggers a retry of the lagging keys at their masters.
    fn validate_rot(c: &mut ClientState, id: TxId, ctx: &mut Ctx<Msg>) {
        let Some((p, meta, retries)) = c.rots.get_mut(&id) else {
            return;
        };
        // Required floor per key: the client's causal timestamp and the
        // fracture rule (if any returned transaction wrote k at ts, our
        // value for k must be ≥ ts).
        let mut required: HashMap<Key, u64> = HashMap::new();
        for &k in &p.keys {
            let mut need = c.causal.get(&k).copied().unwrap_or(0);
            for it in meta.iter() {
                if it.tx_keys.contains(&k) {
                    need = need.max(it.ts);
                }
            }
            required.insert(k, need);
        }
        let stale: Vec<Key> = p
            .keys
            .iter()
            .copied()
            .filter(|k| p.got.get(k).map_or(0, |&(_, ts)| ts) < required[k])
            .collect();
        if !stale.is_empty() && *retries < MAX_REREADS {
            *retries += 1;
            let awaiting = Self::send_reads(c, ctx, id, &stale, true);
            if let Some((p, _, _)) = c.rots.get_mut(&id) {
                p.awaiting = awaiting;
            }
            return;
        }
        // Done: record what we saw in the causal timestamp and respond.
        let Some((p, _, _)) = c.rots.remove(&id) else {
            return;
        };
        let done = p.finish(id, ctx.now(), |k, r| {
            let (v, ts) = r.copied().unwrap_or((Value::BOTTOM, 0));
            let slot = c.causal.entry(k).or_insert(0);
            *slot = (*slot).max(ts);
            v
        });
        c.completed.insert(id, done);
    }

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::Read { id, keys } => {
                    // Serve whatever is local — stale is the client's
                    // problem; that is the no-slowdown-cascade design.
                    let items: Vec<Item> = keys
                        .iter()
                        .map(|&k| match s.store.latest(k) {
                            Some(v) => Item {
                                key: k,
                                value: v.value,
                                ts: v.ts,
                                tx_keys: s.meta.get(&(k, v.ts)).cloned().unwrap_or_default(),
                            },
                            None => Item {
                                key: k,
                                value: Value::BOTTOM,
                                ts: 0,
                                tx_keys: Vec::new(),
                            },
                        })
                        .collect();
                    ctx.send(env.from, Msg::ReadResp { id, items });
                }
                Msg::WtxReq { id, writes, dep_ts } => {
                    s.clock.witness(dep_ts);
                    let tx_keys: Vec<Key> = writes.iter().map(|&(k, _)| k).collect();
                    let groups = s.topo.group_by_primary(&writes);
                    let tally = Tally::new(groups.iter().map(|&(p, _)| p));
                    s.coordinating.insert(id, (tally, env.from));
                    let me = ctx.me();
                    for (server, ws) in groups {
                        ctx.send(
                            server,
                            Msg::Prepare {
                                id,
                                writes: ws,
                                tx_keys: tx_keys.clone(),
                                dep_ts,
                                coordinator: me,
                            },
                        );
                    }
                }
                Msg::Prepare {
                    id,
                    writes,
                    tx_keys,
                    dep_ts,
                    coordinator,
                } => {
                    s.clock.witness(dep_ts);
                    let proposed = s.clock.tick();
                    s.pending.insert(id, (proposed, writes, tx_keys));
                    ctx.send(coordinator, Msg::PrepareResp { id, proposed });
                }
                Msg::PrepareResp { id, proposed } => {
                    let Some((tally, _)) = s.coordinating.get_mut(&id) else {
                        continue;
                    };
                    if !tally.answer(env.from, proposed) {
                        continue;
                    }
                    let Some((tally, client)) = s.coordinating.remove(&id) else {
                        continue;
                    };
                    let ts = tally.max();
                    s.clock.witness(ts);
                    for part in tally.participants() {
                        ctx.send(part, Msg::Commit { id, ts });
                    }
                    ctx.send(client, Msg::WtxAck { id, ts });
                }
                Msg::Commit { id, ts } => {
                    if let Some((_, writes, tx_keys)) = s.pending.remove(&id) {
                        s.clock.witness(ts);
                        for &(k, v) in &writes {
                            s.meta.insert((k, ts), tx_keys.clone());
                            // Asynchronous replication to this key's
                            // slaves — writes never wait for it.
                            for replica in s.topo.replicas(k) {
                                if replica != s.me {
                                    ctx.send(
                                        replica,
                                        Msg::Replicate {
                                            key: k,
                                            value: v,
                                            ts,
                                            tx: id,
                                            tx_keys: tx_keys.clone(),
                                        },
                                    );
                                }
                            }
                        }
                        s.store.commit(id, ts, writes);
                    }
                }
                Msg::Replicate {
                    key,
                    value,
                    ts,
                    tx,
                    tx_keys,
                } => {
                    s.clock.witness(ts);
                    s.store.insert(key, Version { value, ts, tx });
                    s.meta.insert((key, ts), tx_keys);
                }
                _ => {}
            }
        }
    }
}

impl Actor for OccultNode {
    type Msg = Msg;
    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            OccultNode::Client(c) => Self::client_step(c, ctx),
            OccultNode::Server(s) => Self::server_step(s, ctx),
        }
    }
}

impl ProtocolNode for OccultNode {
    const NAME: &'static str = "Occult";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::PerClientPSI;
    const SUPPORTS_MULTI_WRITE: bool = true;

    fn server(topo: &Topology, id: ProcessId) -> Self {
        OccultNode::Server(ServerState {
            topo: topo.clone(),
            me: id,
            store: MvStore::new(),
            meta: HashMap::new(),
            clock: LamportClock::new(id.0 as u8),
            pending: HashMap::new(),
            coordinating: HashMap::new(),
        })
    }

    fn client(topo: &Topology, _id: ProcessId) -> Self {
        OccultNode::Client(ClientState {
            topo: topo.clone(),
            causal: HashMap::new(),
            rots: HashMap::new(),
            wtxs: HashMap::new(),
            completed: HashMap::new(),
        })
    }

    fn rot_invoke(id: TxId, keys: Vec<Key>) -> Msg {
        Msg::InvokeRot { id, keys }
    }

    fn wtx_invoke(id: TxId, writes: Vec<(Key, Value)>) -> Msg {
        Msg::InvokeWtx { id, writes }
    }

    fn completed(&self, id: TxId) -> Option<&Completed> {
        match self {
            OccultNode::Client(c) => c.completed.get(&id),
            OccultNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            OccultNode::Client(c) => c.completed.remove(&id),
            OccultNode::Server(_) => None,
        }
    }

    fn msg_values(msg: &Msg) -> u32 {
        match msg {
            Msg::ReadResp { items, .. } => crate::common::max_values_per_object(
                items
                    .iter()
                    .filter(|it| !it.value.is_bottom())
                    .map(|it| it.key),
            ),
            _ => 0,
        }
    }

    fn msg_is_request(msg: &Msg) -> bool {
        matches!(msg, Msg::Read { .. } | Msg::WtxReq { .. })
    }
}

crate::wire_struct!(Item {
    key,
    value,
    ts,
    tx_keys
});

crate::wire_enum!(Msg as "occult::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => Read { id, keys },
    3 => ReadResp { id, items },
    4 => WtxReq { id, writes, dep_ts },
    5 => Prepare { id, writes, tx_keys, dep_ts, coordinator },
    6 => PrepareResp { id, proposed },
    7 => Commit { id, ts },
    8 => WtxAck { id, ts },
    9 => Replicate { key, value, ts, tx, tx_keys },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Cluster;
    use cbf_model::{check_causal, check_read_atomicity, ClientId};
    use cbf_sim::MILLIS;

    /// Three servers, two keys, two replicas: key 0 lives on {P0, P1},
    /// key 1 on {P1, P2}. Masters are P0 and P1; P2 is a pure slave, so
    /// holding P1→P2 stalls replication without touching the 2PC links.
    fn replicated() -> Cluster<OccultNode> {
        Cluster::new(Topology::partially_replicated(3, 4, 2, 2))
    }

    #[test]
    fn reads_prefer_slaves_and_validate() {
        let mut c = replicated();
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        // Let replication land.
        c.world.run_for(MILLIS);
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads[0].1, w.writes[0].1);
        assert_eq!(r.reads[1].1, w.writes[1].1);
        assert!(!r.audit.blocked);
    }

    #[test]
    fn stale_slave_triggers_a_retry_round() {
        // Freeze replication (server↔server) so the slaves lag; the
        // writer's own next read must detect staleness via its causal
        // timestamp and retry at the masters.
        let mut c = replicated();
        c.world.hold(ProcessId(1), ProcessId(2)); // key1 replication only
        let w = c.write_tx_auto(ClientId(2), &[Key(0), Key(1)]).unwrap();
        let r = c.read_tx(ClientId(2), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads[1].1, w.writes[1].1, "RYW via retry");
        assert!(r.audit.rounds >= 2, "expected a retry: {:?}", r.audit);
        assert!(!r.audit.blocked, "servers never block");
        c.world.release(ProcessId(1), ProcessId(2));
        c.world.run_for(MILLIS);
        assert!(check_causal(c.history()).is_ok());
    }

    #[test]
    fn fracture_detection_repairs_split_transactions() {
        // One master commits before the other's replication lands; the
        // key-list metadata forces the reader to fetch the sibling from
        // its master.
        let mut c = replicated();
        c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        c.world.run_for(MILLIS);
        // Freeze key 1's replication: commits apply at the masters but
        // the pure slave P2 stalls.
        c.world.hold(ProcessId(1), ProcessId(2));
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        let _ = w;
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        // Whatever mix of slave/master answers arrived, the result must
        // not fracture the write transaction.
        let mut h = c.history().clone();
        let _ = &mut h;
        assert!(
            check_read_atomicity(c.history()).is_empty(),
            "fractured: {:?} (reads {:?})",
            check_read_atomicity(c.history()),
            r.reads
        );
        c.world.release(ProcessId(1), ProcessId(2));
    }

    #[test]
    fn chaotic_schedules_stay_causal() {
        for seed in 0..5u64 {
            let mut c = replicated();
            for i in 0..10u32 {
                let cl = ClientId(i % 4);
                if i % 2 == 0 {
                    c.write_tx_auto(cl, &[Key(0), Key(1)]).unwrap();
                } else {
                    c.read_tx(cl, &[Key(0), Key(1)]).unwrap();
                }
                if i % 3 == 0 {
                    c.world.run_for(MILLIS);
                }
            }
            c.world.run_chaotic(seed, 300_000);
            assert!(
                check_causal(c.history()).is_ok(),
                "seed {seed}: {:?}",
                check_causal(c.history()).violations
            );
        }
    }

    #[test]
    fn profile_matches_the_table_row() {
        let mut c = replicated();
        for i in 0..8u32 {
            c.write_tx_auto(ClientId(i % 4), &[Key(0), Key(1)]).unwrap();
            c.read_tx(ClientId((i + 1) % 4), &[Key(0), Key(1)]).unwrap();
        }
        let p = c.profile();
        assert!(p.multi_write_supported);
        assert!(p.nonblocking());
        // R ≥ 1: retries may or may not have fired, but never blocking.
        assert!(p.max_rounds >= 1);
    }
}
