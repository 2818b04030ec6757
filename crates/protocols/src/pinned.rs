//! The † row, demystified: a protocol with fast ROTs **and** multi-object
//! write transactions **and** causal consistency — which escapes the
//! theorem only by violating its progress premise.
//!
//! Table 1 marks SwiftCloud and Eiger-PS with † ("different system
//! model"). The paper's related-work section explains why they do not
//! contradict the theorem: *"Although they eventually complete all
//! writes, the values they write may be invisible to some clients for an
//! indefinitely long time."* — i.e., they give up Definition 3 (minimal
//! progress for write-only transactions), the premise every other result
//! in the paper leans on.
//!
//! `PinnedNode` is the distilled version: every client reads from a
//! **pinned snapshot** that advances only on the client's *own* commits
//! (mimicking the client-side caching of SwiftCloud and the
//! process-ordered snapshots of Eiger-PS, without server→client pushes,
//! which the model forbids):
//!
//! * reads are one round, one value, non-blocking — genuinely fast;
//! * multi-object write transactions commit via 2PC with monotonically
//!   increasing timestamps;
//! * each ROT reads at the client's pinned timestamp, so the snapshot is
//!   trivially causal (it is a prefix of the timestamp order)…
//! * …but a client that never writes *never observes anyone else's
//!   writes*: Definition 2 visibility fails forever, and the theorem
//!   machinery reports `NoProgress` instead of a mixed snapshot.
//!
//! Run `repro daggers` to see the audit call it out.

use crate::common::tx::read_your_writes;
use crate::common::{Completed, Gather, LamportClock, MvStore, ProtocolNode, Tally, Topology};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId};
use std::collections::HashMap;

/// Pinned-snapshot message alphabet.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub enum Msg {
    /// Injection: read-only transaction.
    InvokeRot { id: TxId, keys: Vec<Key> },
    /// Injection: write-only transaction.
    InvokeWtx { id: TxId, writes: Vec<(Key, Value)> },
    /// Client → server: read keys at the client's pinned snapshot.
    ReadAt { id: TxId, keys: Vec<Key>, at: u64 },
    /// Server → client: one value per key at the snapshot.
    ReadAtResp {
        id: TxId,
        reads: Vec<(Key, Value, u64)>,
    },
    /// Client → coordinator: run this write-only transaction.
    WtxReq {
        id: TxId,
        writes: Vec<(Key, Value)>,
        dep_ts: u64,
    },
    /// Coordinator → participant: propose and hold.
    Prepare {
        id: TxId,
        writes: Vec<(Key, Value)>,
        dep_ts: u64,
        coordinator: ProcessId,
    },
    /// Participant → coordinator: proposal.
    PrepareResp { id: TxId, proposed: u64 },
    /// Coordinator → participant: commit at `ts`.
    Commit { id: TxId, ts: u64 },
    /// Coordinator → client: committed at `ts`.
    WtxAck { id: TxId, ts: u64 },
}

/// Pinned-snapshot client.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    /// The snapshot this client reads at. Advances ONLY on own commits.
    pinned: u64,
    /// Own writes above the pin, for read-your-writes.
    cache: HashMap<Key, (Value, u64)>,
    rots: HashMap<TxId, Gather<(Value, u64)>>,
    wtxs: HashMap<TxId, (Vec<(Key, Value)>, u64)>,
    completed: HashMap<TxId, Completed>,
}

/// Pinned-snapshot server: a plain multi-version store + 2PC.
#[derive(Clone, Debug)]
pub struct ServerState {
    topo: Topology,
    store: MvStore,
    clock: LamportClock,
    pending: HashMap<TxId, (u64, Vec<(Key, Value)>)>,
    /// Coordinator side: each 2PC's prepare tally beside its client.
    coordinating: HashMap<TxId, (Tally, ProcessId)>,
}

/// A pinned-snapshot node.
#[derive(Clone, Debug)]
pub enum PinnedNode {
    /// A client.
    Client(ClientState),
    /// A server.
    Server(ServerState),
}

impl PinnedNode {
    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id, keys } => {
                    let at = c.pinned;
                    let mut p = Gather::new(keys, 0, ctx.now());
                    for (server, ks) in p.by_primary(&c.topo) {
                        ctx.send(server, Msg::ReadAt { id, keys: ks, at });
                    }
                    c.rots.insert(id, p);
                }
                Msg::ReadAtResp { id, reads } => {
                    let Some(p) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    for (k, v, ts) in reads {
                        p.got.insert(k, (v, ts));
                    }
                    if p.arrived() {
                        let Some(p) = c.rots.remove(&id) else {
                            continue;
                        };
                        let done =
                            p.finish(id, ctx.now(), |k, r| read_your_writes(r, c.cache.get(&k)));
                        c.completed.insert(id, done);
                    }
                }
                Msg::InvokeWtx { id, writes } => {
                    let coordinator = c.topo.primary(writes[0].0);
                    ctx.send(
                        coordinator,
                        Msg::WtxReq {
                            id,
                            writes: writes.clone(),
                            dep_ts: c.pinned,
                        },
                    );
                    c.wtxs.insert(id, (writes, ctx.now()));
                }
                Msg::WtxAck { id, ts } => {
                    if let Some((writes, invoked_at)) = c.wtxs.remove(&id) {
                        // The pin advances only here: the client's own
                        // commit. Everyone else's writes stay invisible
                        // to this client until it writes again.
                        c.pinned = c.pinned.max(ts);
                        for (k, v) in writes {
                            c.cache.insert(k, (v, ts));
                        }
                        c.completed
                            .insert(id, Completed::write(id, invoked_at, ctx.now()));
                    }
                }
                _ => {}
            }
        }
    }

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::ReadAt { id, keys, at } => {
                    let reads: Vec<(Key, Value, u64)> = keys
                        .iter()
                        .map(|&k| match s.store.latest_at(k, at) {
                            Some(v) => (k, v.value, v.ts),
                            None => (k, Value::BOTTOM, 0),
                        })
                        .collect();
                    ctx.send(env.from, Msg::ReadAtResp { id, reads });
                }
                Msg::WtxReq { id, writes, dep_ts } => {
                    s.clock.witness(dep_ts);
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
                                dep_ts,
                                coordinator: me,
                            },
                        );
                    }
                }
                Msg::Prepare {
                    id,
                    writes,
                    dep_ts,
                    coordinator,
                } => {
                    s.clock.witness(dep_ts);
                    let proposed = s.clock.tick();
                    s.pending.insert(id, (proposed, writes));
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
                    if let Some((_, writes)) = s.pending.remove(&id) {
                        s.clock.witness(ts);
                        s.store.commit(id, ts, writes);
                    }
                }
                _ => {}
            }
        }
    }
}

impl Actor for PinnedNode {
    type Msg = Msg;
    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            PinnedNode::Client(c) => Self::client_step(c, ctx),
            PinnedNode::Server(s) => Self::server_step(s, ctx),
        }
    }
}

impl ProtocolNode for PinnedNode {
    const NAME: &'static str = "pinned (†-style)";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = true;

    fn server(topo: &Topology, id: ProcessId) -> Self {
        PinnedNode::Server(ServerState {
            topo: topo.clone(),
            store: MvStore::new(),
            clock: LamportClock::new(id.0 as u8),
            pending: HashMap::new(),
            coordinating: HashMap::new(),
        })
    }

    fn client(topo: &Topology, _id: ProcessId) -> Self {
        PinnedNode::Client(ClientState {
            topo: topo.clone(),
            pinned: 0,
            cache: HashMap::new(),
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
            PinnedNode::Client(c) => c.completed.get(&id),
            PinnedNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            PinnedNode::Client(c) => c.completed.remove(&id),
            PinnedNode::Server(_) => None,
        }
    }

    fn msg_values(msg: &Msg) -> u32 {
        match msg {
            Msg::ReadAtResp { reads, .. } => crate::common::max_values_per_object(
                reads
                    .iter()
                    .filter(|(_, v, _)| !v.is_bottom())
                    .map(|&(k, _, _)| k),
            ),
            _ => 0,
        }
    }

    fn msg_is_request(msg: &Msg) -> bool {
        matches!(msg, Msg::ReadAt { .. } | Msg::WtxReq { .. })
    }
}

crate::wire_enum!(Msg as "pinned::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => ReadAt { id, keys, at },
    3 => ReadAtResp { id, reads },
    4 => WtxReq { id, writes, dep_ts },
    5 => Prepare { id, writes, dep_ts, coordinator },
    6 => PrepareResp { id, proposed },
    7 => Commit { id, ts },
    8 => WtxAck { id, ts },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Cluster;
    use cbf_model::ClientId;

    fn minimal() -> Cluster<PinnedNode> {
        Cluster::new(Topology::minimal(4))
    }

    #[test]
    fn reads_are_fast_and_writes_are_transactions() {
        let mut c = minimal();
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        let _ = w;
        let r = c.read_tx(ClientId(0), &[Key(0), Key(1)]).unwrap();
        // The writer sees its own transaction (pin advanced)…
        assert_eq!(r.reads[0].1, w.writes[0].1);
        assert!(r.audit.is_fast(), "audit: {:?}", r.audit);
        assert!(c.profile().multi_write_supported);
    }

    #[test]
    fn other_clients_never_see_the_write() {
        // …but a non-writing client reads ⊥ forever: the † escape hatch.
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        for _ in 0..5 {
            c.world.run_for(10 * cbf_sim::MILLIS);
            let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
            assert_eq!(r.reads[0].1, Value::BOTTOM, "the pin never advances");
        }
        // The history is still causal: reading the initial state forever
        // is consistent — just useless.
        assert!(c.check().is_ok());
    }

    #[test]
    fn a_client_catches_up_by_writing() {
        let mut c = minimal();
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        // Client 1 commits its own (single-key-overwriting) transaction:
        // its pin jumps past w's timestamp.
        let v = c.alloc_value();
        c.write_tx(ClientId(1), &[(Key(0), v)]).unwrap();
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads[0].1, v); // own cache
        assert_eq!(r.reads[1].1, w.writes[1].1); // now visible
        assert!(c.check().is_ok(), "{:?}", c.check().violations);
    }

    #[test]
    fn profile_claims_all_four_properties() {
        let mut c = minimal();
        for i in 0..6u32 {
            c.write_tx_auto(ClientId(i % 4), &[Key(0), Key(1)]).unwrap();
            c.read_tx(ClientId(i % 4), &[Key(0), Key(1)]).unwrap();
        }
        let p = c.profile();
        assert!(p.fast_rots(), "profile: {p:?}");
        assert!(p.multi_write_supported);
        assert!(p.claims_the_impossible());
        assert!(c.check().is_ok());
    }

    #[test]
    fn chaos_cannot_break_what_never_progresses() {
        for seed in 0..4u64 {
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
            assert!(c.check().is_ok(), "seed {seed}: {:?}", c.check().violations);
        }
    }
}
