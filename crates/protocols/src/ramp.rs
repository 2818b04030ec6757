//! RAMP-Fast [Bailis et al., SIGMOD 2014]: **read atomicity** — never
//! observe half of a write transaction — without causal consistency.
//!
//! Table 1 row: R ≤ 2, V ≤ 2, non-blocking, W, Read Atomicity.
//!
//! RAMP is the row that shows the consistency column matters: it
//! supports multi-object write transactions with nearly-fast reads by
//! promising *less* than causal consistency. Its detection metadata is
//! per-transaction only — each item carries the id/timestamp and the
//! key-list of its writing transaction — so a reader can repair a
//! fractured view of one transaction (fetch the sibling version in a
//! second round) but has no idea about cross-transaction causal order.
//! The checkers in `cbf-model` make the difference observable: RAMP
//! histories pass `check_read_atomicity` and can fail `check_causal`
//! (see the tests).
//!
//! * **Write transactions**: client-coordinated two-phase — `Prepare`
//!   each key's version (carrying the transaction's full key-list),
//!   then `Commit`; versions are readable once committed, and round-2
//!   sibling fetches may read *prepared* versions (RAMP-Fast's trick,
//!   which is what keeps reads non-blocking).
//! * **Read-only transactions**: round 1 fetches the latest committed
//!   version per key; the client compares the returned timestamps with
//!   the sibling key-lists and, on a fracture, round 2 fetches the
//!   missing sibling versions by exact timestamp.

use crate::common::{Completed, Gather, LamportClock, MvStore, ProtocolNode, Tally, Topology};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId};
use std::collections::HashMap;

/// One read-response item: a version plus its transaction's key-list.
#[derive(Clone, Debug)]
pub struct RampItem {
    /// The object.
    pub key: Key,
    /// Its value (`⊥` if never written).
    pub value: Value,
    /// The writing transaction's timestamp (0 for `⊥`).
    pub ts: u64,
    /// All keys the writing transaction wrote (the detection metadata).
    pub tx_keys: Vec<Key>,
}

/// RAMP message alphabet.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub enum Msg {
    /// Injection: read-only transaction.
    InvokeRot { id: TxId, keys: Vec<Key> },
    /// Injection: write transaction.
    InvokeWtx { id: TxId, writes: Vec<(Key, Value)> },
    /// Client → server: prepare these versions (phase 1).
    Prepare {
        id: TxId,
        ts: u64,
        writes: Vec<(Key, Value)>,
        tx_keys: Vec<Key>,
    },
    /// Server → client: prepared.
    PrepareAck { id: TxId },
    /// Client → server: commit (phase 2).
    Commit { id: TxId, ts: u64 },
    /// Server → client: committed.
    CommitAck { id: TxId },
    /// Client → server: round-1 read.
    Read1 { id: TxId, keys: Vec<Key> },
    /// Server → client: latest committed versions + metadata.
    Read1Resp { id: TxId, items: Vec<RampItem> },
    /// Client → server: round-2 sibling fetch at exact `ts`.
    Read2 { id: TxId, key: Key, ts: u64 },
    /// Server → client: the sibling version (prepared or committed).
    Read2Resp {
        id: TxId,
        key: Key,
        value: Value,
        ts: u64,
    },
}

/// In-flight ROT at the client: the gather, beside its round-1 items'
/// key-lists.
type PendingRead = (Gather<(Value, u64)>, Vec<RampItem>);

/// In-flight write transaction at the client: the participants' tally
/// (restarted for the commit phase), the write timestamp, whether the
/// commit phase has begun, and the invocation time.
type PendingWrite = (Tally, u64, bool, u64);

/// RAMP client.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    clock: LamportClock,
    rots: HashMap<TxId, PendingRead>,
    wtxs: HashMap<TxId, PendingWrite>,
    completed: HashMap<TxId, Completed>,
}

/// A prepared transaction at a server: `(ts, writes, tx_keys)`.
type PreparedTx = (u64, Vec<(Key, Value)>, Vec<Key>);

/// RAMP server: committed multi-version store plus prepared versions.
#[derive(Clone, Debug)]
pub struct ServerState {
    store: MvStore,
    /// Key-lists per (key, ts): which keys the writing tx touched.
    meta: HashMap<(Key, u64), Vec<Key>>,
    /// Prepared-but-uncommitted versions, servable by round-2 fetches.
    prepared: HashMap<TxId, PreparedTx>,
}

/// A RAMP node.
#[derive(Clone, Debug)]
pub enum RampNode {
    /// A client.
    Client(ClientState),
    /// A server.
    Server(ServerState),
}

impl RampNode {
    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id, keys } => {
                    let mut p = Gather::new(keys, 0, ctx.now());
                    for (server, ks) in p.by_primary(&c.topo) {
                        ctx.send(server, Msg::Read1 { id, keys: ks });
                    }
                    c.rots.insert(id, (p, Vec::new()));
                }
                Msg::InvokeWtx { id, writes } => {
                    let ts = c.clock.tick();
                    let tx_keys: Vec<Key> = writes.iter().map(|&(k, _)| k).collect();
                    let groups = c.topo.group_by_primary(&writes);
                    let tally = Tally::new(groups.iter().map(|&(p, _)| p));
                    for (server, ws) in groups {
                        ctx.send(
                            server,
                            Msg::Prepare {
                                id,
                                ts,
                                writes: ws,
                                tx_keys: tx_keys.clone(),
                            },
                        );
                    }
                    c.wtxs.insert(id, (tally, ts, false, ctx.now()));
                }
                Msg::PrepareAck { id } => {
                    let Some((tally, ts, committing, _)) = c.wtxs.get_mut(&id) else {
                        continue;
                    };
                    // Commit only once every participant has prepared.
                    if *committing || !tally.answer(env.from, 0) {
                        continue;
                    }
                    *committing = true;
                    tally.restart();
                    let ts = *ts;
                    for server in tally.participants() {
                        ctx.send(server, Msg::Commit { id, ts });
                    }
                }
                Msg::CommitAck { id } => {
                    let Some((tally, _, committing, _)) = c.wtxs.get_mut(&id) else {
                        continue;
                    };
                    if !*committing || !tally.answer(env.from, 0) {
                        continue;
                    }
                    let Some((.., invoked_at)) = c.wtxs.remove(&id) else {
                        continue;
                    };
                    c.completed
                        .insert(id, Completed::write(id, invoked_at, ctx.now()));
                }
                Msg::Read1Resp { id, items } => {
                    let Some((p, meta)) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    for it in &items {
                        // Witnessing observed timestamps keeps the version
                        // order an extension of observed causality, so the
                        // sibling-repair rule composes with sessions.
                        c.clock.witness(it.ts);
                        p.got.insert(it.key, (it.value, it.ts));
                    }
                    meta.extend(items);
                    if p.arrived() {
                        Self::after_round_one(c, id, ctx);
                    }
                }
                Msg::Read2Resp { id, key, value, ts } => {
                    let Some((p, _)) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    c.clock.witness(ts);
                    p.got.insert(key, (value, ts));
                    if p.arrived() {
                        Self::complete_rot(c, id, ctx.now());
                    }
                }
                _ => {}
            }
        }
    }

    /// RAMP-Fast detection: for every read key, the highest timestamp of
    /// any returned transaction that wrote it; fetch siblings where the
    /// optimistic read lags.
    fn after_round_one(c: &mut ClientState, id: TxId, ctx: &mut Ctx<Msg>) {
        let Some((p, meta)) = c.rots.get_mut(&id) else {
            return;
        };
        let mut latest: HashMap<Key, u64> = HashMap::new();
        for it in meta.iter() {
            for &k in &it.tx_keys {
                let slot = latest.entry(k).or_insert(0);
                *slot = (*slot).max(it.ts);
            }
        }
        let mut refetch = Vec::new();
        for &k in &p.keys {
            let have = p.got.get(&k).map_or(0, |&(_, ts)| ts);
            if let Some(&need) = latest.get(&k) {
                if need > have {
                    refetch.push((k, need));
                }
            }
        }
        if refetch.is_empty() {
            Self::complete_rot(c, id, ctx.now());
            return;
        }
        p.awaiting = refetch.len();
        for (key, ts) in refetch {
            ctx.send(c.topo.primary(key), Msg::Read2 { id, key, ts });
        }
    }

    fn complete_rot(c: &mut ClientState, id: TxId, now: u64) {
        let Some((p, _)) = c.rots.remove(&id) else {
            return;
        };
        let done = p.finish(id, now, |_, r| r.map_or(Value::BOTTOM, |&(v, _)| v));
        c.completed.insert(id, done);
    }

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::Prepare {
                    id,
                    ts,
                    writes,
                    tx_keys,
                } => {
                    s.prepared.insert(id, (ts, writes, tx_keys));
                    ctx.send(env.from, Msg::PrepareAck { id });
                }
                Msg::Commit { id, ts } => {
                    if let Some((pts, writes, tx_keys)) = s.prepared.remove(&id) {
                        debug_assert_eq!(pts, ts);
                        for &(k, _) in &writes {
                            s.meta.insert((k, ts), tx_keys.clone());
                        }
                        s.store.commit(id, ts, writes);
                    }
                    ctx.send(env.from, Msg::CommitAck { id });
                }
                Msg::Read1 { id, keys } => {
                    let items: Vec<RampItem> = keys
                        .iter()
                        .map(|&k| match s.store.latest(k) {
                            Some(v) => RampItem {
                                key: k,
                                value: v.value,
                                ts: v.ts,
                                tx_keys: s.meta.get(&(k, v.ts)).cloned().unwrap_or_default(),
                            },
                            None => RampItem {
                                key: k,
                                value: Value::BOTTOM,
                                ts: 0,
                                tx_keys: Vec::new(),
                            },
                        })
                        .collect();
                    ctx.send(env.from, Msg::Read1Resp { id, items });
                }
                Msg::Read2 { id, key, ts } => {
                    // Serve the exact version: committed, or — RAMP-Fast —
                    // still prepared (the commit is in flight; read
                    // atomicity says the sibling counts as written).
                    let committed = s.store.at_exact(key, ts).map(|v| v.value);
                    let value = committed.or_else(|| {
                        s.prepared.values().find_map(|(pts, writes, _)| {
                            (*pts == ts)
                                .then(|| writes.iter().find(|(k, _)| *k == key).map(|&(_, v)| v))
                                .flatten()
                        })
                    });
                    // The version must exist: its metadata was visible.
                    // snowlint: allow(handler-unwrap): this shard served the (key, ts) metadata itself, so the sibling is prepared or committed here; RAMP declares no crash durability model and is not run under the nemesis
                    let value = value.expect("sibling version must be prepared or committed");
                    ctx.send(env.from, Msg::Read2Resp { id, key, value, ts });
                }
                _ => {}
            }
        }
    }
}

impl Actor for RampNode {
    type Msg = Msg;
    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            RampNode::Client(c) => Self::client_step(c, ctx),
            RampNode::Server(s) => Self::server_step(s, ctx),
        }
    }
}

impl ProtocolNode for RampNode {
    const NAME: &'static str = "RAMP";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::ReadAtomicity;
    const SUPPORTS_MULTI_WRITE: bool = true;

    fn server(_topo: &Topology, _id: ProcessId) -> Self {
        RampNode::Server(ServerState {
            store: MvStore::new(),
            meta: HashMap::new(),
            prepared: HashMap::new(),
        })
    }

    fn client(topo: &Topology, id: ProcessId) -> Self {
        RampNode::Client(ClientState {
            topo: topo.clone(),
            clock: LamportClock::new(id.0 as u8),
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
            RampNode::Client(c) => c.completed.get(&id),
            RampNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            RampNode::Client(c) => c.completed.remove(&id),
            RampNode::Server(_) => None,
        }
    }

    fn msg_values(msg: &Msg) -> u32 {
        match msg {
            Msg::Read1Resp { items, .. } => crate::common::max_values_per_object(
                items
                    .iter()
                    .filter(|it| !it.value.is_bottom())
                    .map(|it| it.key),
            ),
            Msg::Read2Resp { .. } => 1,
            _ => 0,
        }
    }

    fn msg_is_request(msg: &Msg) -> bool {
        matches!(
            msg,
            Msg::Read1 { .. } | Msg::Read2 { .. } | Msg::Prepare { .. } | Msg::Commit { .. }
        )
    }
}

crate::wire_struct!(RampItem {
    key,
    value,
    ts,
    tx_keys
});

crate::wire_enum!(Msg as "ramp::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => Prepare { id, ts, writes, tx_keys },
    3 => PrepareAck { id },
    4 => Commit { id, ts },
    5 => CommitAck { id },
    6 => Read1 { id, keys },
    7 => Read1Resp { id, items },
    8 => Read2 { id, key, ts },
    9 => Read2Resp { id, key, value, ts },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Cluster;
    use cbf_model::{check_causal, check_read_atomicity, ClientId};
    use cbf_sim::MILLIS;

    fn minimal() -> Cluster<RampNode> {
        Cluster::new(Topology::minimal(4))
    }

    #[test]
    fn write_tx_round_trip() {
        let mut c = minimal();
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        assert_eq!(w.audit.rounds, 2); // prepare + commit
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads[0].1, w.writes[0].1);
        assert_eq!(r.reads[1].1, w.writes[1].1);
    }

    #[test]
    fn fractured_view_is_repaired_in_round_two() {
        // Commit lands at p0 but is frozen to p1; the reader detects the
        // fracture from the key-list metadata and fetches the sibling —
        // which p1 still holds only as *prepared*.
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();

        let wpid = c.topo.client_pid(ClientId(0));
        let id = c.alloc_tx();
        let (v0, v1) = (c.alloc_value(), c.alloc_value());
        c.world.inject(
            wpid,
            Msg::InvokeWtx {
                id,
                writes: vec![(Key(0), v0), (Key(1), v1)],
            },
        );
        // Prepares round-trip by 100 µs; commits go out at 100 µs. Freeze
        // the commit to p1 only.
        c.world.run_for(120 * cbf_sim::MICROS);
        c.world.hold(wpid, ProcessId(1));
        c.world.run_for(MILLIS);

        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        // Read atomicity: both new values, via the round-2 sibling fetch.
        assert_eq!(r.reads, vec![(Key(0), v0), (Key(1), v1)]);
        assert_eq!(r.audit.rounds, 2, "audit: {:?}", r.audit);
        assert!(!r.audit.blocked);
        assert!(check_read_atomicity(c.history()).is_empty());
    }

    #[test]
    fn ramp_guarantees_read_atomicity_under_chaos() {
        for seed in 0..6u64 {
            let mut c = minimal();
            for i in 0..10u32 {
                let cl = ClientId(i % 4);
                if i % 2 == 0 {
                    c.write_tx_auto(cl, &[Key(0), Key(1)]).unwrap();
                } else {
                    c.read_tx(cl, &[Key(0), Key(1)]).unwrap();
                }
            }
            c.world.run_chaotic(seed, 200_000);
            assert!(
                check_read_atomicity(c.history()).is_empty(),
                "seed {seed}: fractured reads"
            );
        }
    }

    #[test]
    fn ramp_is_not_causally_consistent() {
        // The distinguishing anomaly: c0 writes X0 (tx1) then X1 (tx2) —
        // two *separate* transactions, causally ordered through c0. A
        // reader whose X0 request is delayed past both writes sees
        // (old X0, new X1): fine for read atomicity, a causal violation.
        let mut c = minimal();
        let init0 = c.alloc_value();
        let init1 = c.alloc_value();
        c.write_tx(ClientId(0), &[(Key(0), init0)]).unwrap();
        c.write_tx(ClientId(0), &[(Key(1), init1)]).unwrap();
        // The writer reads both (causal hinge, as in Lemma 1's setup).
        c.read_tx(ClientId(0), &[Key(0), Key(1)]).unwrap();

        // Reader's ROT: X0 answered now (old), X1 frozen.
        let rpid = c.topo.client_pid(ClientId(1));
        c.world.hold_pair(rpid, ProcessId(1));
        let rot = c.alloc_tx();
        c.world.inject(
            rpid,
            Msg::InvokeRot {
                id: rot,
                keys: vec![Key(0), Key(1)],
            },
        );
        c.world.run_for(MILLIS);

        // Two causally ordered single-key transactions by the writer.
        let v0 = c.alloc_value();
        let v1 = c.alloc_value();
        c.write_tx(ClientId(0), &[(Key(0), v0)]).unwrap();
        c.write_tx(ClientId(0), &[(Key(1), v1)]).unwrap();

        c.world.release_pair(rpid, ProcessId(1));
        c.world
            .run_until_within(cbf_sim::SECONDS, |w| w.actor(rpid).completed(rot).is_some());
        let done = c.world.actor_mut(rpid).take_completed(rot).unwrap();
        assert_eq!(
            done.reads,
            vec![(Key(0), init0), (Key(1), v1)],
            "expected the causal anomaly (old X0, new X1)"
        );

        // Record it and let the checkers disagree — that is RAMP's row.
        let mut h = c.history().clone();
        h.push(cbf_model::history::TxRecord {
            id: rot,
            client: ClientId(1),
            reads: done.reads,
            writes: vec![],
            invoked_at: 0,
            completed_at: 0,
        });
        assert!(check_read_atomicity(&h).is_empty(), "RA must hold");
        assert!(!check_causal(&h).is_ok(), "causal must fail");
    }

    #[test]
    fn profile_matches_table_row() {
        let mut c = minimal();
        for i in 0..8u32 {
            c.write_tx_auto(ClientId(i % 2), &[Key(0), Key(1)]).unwrap();
            c.read_tx(ClientId(2 + i % 2), &[Key(0), Key(1)]).unwrap();
        }
        let p = c.profile();
        assert!(p.max_rounds <= 2);
        assert!(p.nonblocking());
        assert!(p.multi_write_supported);
    }
}
