//! Cure [Akkoorath et al., ICDCS 2016]: causal consistency with
//! multi-object write transactions and snapshot reads that may **block**
//! behind stabilization.
//!
//! Table 1 row: R = 2, V = 1, blocking, W, causal consistency.
//!
//! Cure completes the causal design space's W column: like Wren it runs
//! two-phase write transactions above a stabilized snapshot, and like
//! GentleRain it has no client-side write cache — a client's snapshot
//! floor (its own commits and reads) can run ahead of the global stable
//! time, in which case the serving replica **parks the read** until
//! stabilization catches up. Wren's contribution (DSN 2018) was exactly
//! the removal of this blocking; running the two side by side quantifies
//! it. (Real Cure uses per-datacenter vector clocks; the scalar stable
//! time here preserves the blocking-vs-freshness behaviour the theorem
//! cares about, per DESIGN.md's substitution rules.)

use crate::common::{Completed, Gather, HybridClock, MvStore, ProtocolNode, Tally, Topology};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId, Time, MILLIS};
use std::collections::HashMap;

/// Stabilization broadcast period (tunable via `Topology::tuning`).
pub const STABLE_PERIOD: Time = MILLIS;

/// Cure message alphabet.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub enum Msg {
    /// Injection: read-only transaction.
    InvokeRot { id: TxId, keys: Vec<Key> },
    /// Injection: write-only transaction.
    InvokeWtx { id: TxId, writes: Vec<(Key, Value)> },
    /// Timer: broadcast my local stable time.
    StableTick,
    /// Server → server: my local stable time.
    LstBcast { lst: u64 },
    /// Client → any server: current global stable time?
    GstReq { id: TxId },
    /// Server → client: the GST.
    GstResp { id: TxId, gst: u64 },
    /// Client → server: read keys at snapshot `at` (parks if unstable).
    ReadAt { id: TxId, keys: Vec<Key>, at: u64 },
    /// Server → client: one value per key.
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

/// A read parked at a server until stabilization reaches `at`.
#[derive(Clone, Debug)]
struct ParkedRead {
    client: ProcessId,
    id: TxId,
    keys: Vec<Key>,
    at: u64,
}

/// Cure client: snapshot floor, no write cache.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    /// Highest commit/read timestamp observed.
    dep_ts: u64,
    last_snapshot: u64,
    rots: HashMap<TxId, Gather<Value>>,
    wtxs: HashMap<TxId, u64>,
    completed: HashMap<TxId, Completed>,
}

/// Cure server: Wren's pending-aware stabilization plus GentleRain's
/// parked reads.
#[derive(Clone, Debug)]
pub struct ServerState {
    topo: Topology,
    store: MvStore,
    clock: HybridClock,
    pending: HashMap<TxId, (u64, Vec<(Key, Value)>)>,
    /// Coordinator side: each 2PC's prepare tally beside its client.
    coordinating: HashMap<TxId, (Tally, ProcessId)>,
    known_lst: Vec<u64>,
    me: ProcessId,
    period: Time,
    parked: Vec<ParkedRead>,
}

impl ServerState {
    fn lst(&mut self, now: Time) -> u64 {
        let min_pending = self.pending.values().map(|&(p, _)| p).min();
        match min_pending {
            Some(p) => p - 1,
            None => self.clock.tick(now),
        }
    }

    fn gst(&self) -> u64 {
        self.known_lst.iter().copied().min().unwrap_or(0)
    }

    fn refresh_own_lst(&mut self, now: Time) -> u64 {
        let lst = self.lst(now);
        let my = self.me.index();
        self.known_lst[my] = self.known_lst[my].max(lst);
        lst
    }

    fn serve(&self, keys: &[Key], at: u64) -> Vec<(Key, Value, u64)> {
        keys.iter()
            .map(|&k| match self.store.latest_at(k, at) {
                Some(v) => (k, v.value, v.ts),
                None => (k, Value::BOTTOM, 0),
            })
            .collect()
    }

    fn drain_parked(&mut self, ctx: &mut Ctx<Msg>) {
        let gst = self.gst();
        let (ready, still): (Vec<ParkedRead>, Vec<ParkedRead>) = std::mem::take(&mut self.parked)
            .into_iter()
            .partition(|r| r.at <= gst);
        self.parked = still;
        for r in ready {
            let reads = self.serve(&r.keys, r.at);
            ctx.send(r.client, Msg::ReadAtResp { id: r.id, reads });
        }
    }
}

/// A Cure node.
#[derive(Clone, Debug)]
pub enum CureNode {
    /// A client.
    Client(ClientState),
    /// A server.
    Server(ServerState),
}

impl CureNode {
    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id, keys } => {
                    let server = c.topo.primary(keys[0]);
                    ctx.send(server, Msg::GstReq { id });
                    c.rots.insert(id, Gather::new(keys, 0, ctx.now()));
                }
                Msg::GstResp { id, gst } => {
                    let Some(p) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    // RYW + monotonic reads without a cache: the floor
                    // includes the client's own commits — the server
                    // parks until that is stable (the blocking).
                    let at = gst.max(c.dep_ts).max(c.last_snapshot);
                    c.last_snapshot = at;
                    for (server, ks) in p.by_primary(&c.topo) {
                        ctx.send(server, Msg::ReadAt { id, keys: ks, at });
                    }
                }
                Msg::ReadAtResp { id, reads } => {
                    let Some(p) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    for (k, v, ts) in reads {
                        c.dep_ts = c.dep_ts.max(ts);
                        p.got.insert(k, v);
                    }
                    if p.arrived() {
                        let Some(p) = c.rots.remove(&id) else {
                            continue;
                        };
                        let done =
                            p.finish(id, ctx.now(), |_, v| v.copied().unwrap_or(Value::BOTTOM));
                        c.completed.insert(id, done);
                    }
                }
                Msg::InvokeWtx { id, writes } => {
                    let coordinator = c.topo.primary(writes[0].0);
                    ctx.send(
                        coordinator,
                        Msg::WtxReq {
                            id,
                            writes,
                            dep_ts: c.dep_ts,
                        },
                    );
                    c.wtxs.insert(id, ctx.now());
                }
                Msg::WtxAck { id, ts } => {
                    if let Some(invoked_at) = c.wtxs.remove(&id) {
                        c.dep_ts = c.dep_ts.max(ts);
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
                Msg::StableTick => {
                    let lst = s.refresh_own_lst(ctx.now());
                    for srv in s.topo.servers() {
                        if srv != s.me {
                            ctx.send(srv, Msg::LstBcast { lst });
                        }
                    }
                    ctx.set_timer(s.period, Msg::StableTick);
                    s.drain_parked(ctx);
                }
                Msg::LstBcast { lst } => {
                    let idx = env.from.index();
                    s.known_lst[idx] = s.known_lst[idx].max(lst);
                    s.drain_parked(ctx);
                }
                Msg::GstReq { id } => {
                    s.refresh_own_lst(ctx.now());
                    ctx.send(env.from, Msg::GstResp { id, gst: s.gst() });
                }
                Msg::ReadAt { id, keys, at } => {
                    s.refresh_own_lst(ctx.now());
                    if at <= s.gst() {
                        let reads = s.serve(&keys, at);
                        ctx.send(env.from, Msg::ReadAtResp { id, reads });
                    } else {
                        s.parked.push(ParkedRead {
                            client: env.from,
                            id,
                            keys,
                            at,
                        });
                    }
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
                    let proposed = s.clock.tick(ctx.now());
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
                        s.drain_parked(ctx);
                    }
                }
                _ => {}
            }
        }
    }
}

impl Actor for CureNode {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        if let CureNode::Server(s) = self {
            ctx.set_timer(s.period, Msg::StableTick);
        }
    }

    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            CureNode::Client(c) => Self::client_step(c, ctx),
            CureNode::Server(s) => Self::server_step(s, ctx),
        }
    }
}

impl ProtocolNode for CureNode {
    const NAME: &'static str = "Cure";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = true;

    fn server(topo: &Topology, id: ProcessId) -> Self {
        CureNode::Server(ServerState {
            topo: topo.clone(),
            store: MvStore::new(),
            clock: HybridClock::new(id.0 as u8),
            pending: HashMap::new(),
            coordinating: HashMap::new(),
            known_lst: vec![0; topo.num_servers as usize],
            me: id,
            period: if topo.tuning > 0 {
                topo.tuning
            } else {
                STABLE_PERIOD
            },
            parked: Vec::new(),
        })
    }

    fn client(topo: &Topology, _id: ProcessId) -> Self {
        CureNode::Client(ClientState {
            topo: topo.clone(),
            dep_ts: 0,
            last_snapshot: 0,
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
            CureNode::Client(c) => c.completed.get(&id),
            CureNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            CureNode::Client(c) => c.completed.remove(&id),
            CureNode::Server(_) => None,
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
        matches!(
            msg,
            Msg::GstReq { .. } | Msg::ReadAt { .. } | Msg::WtxReq { .. }
        )
    }
}

crate::wire_enum!(Msg as "cure::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => StableTick,
    3 => LstBcast { lst },
    4 => GstReq { id },
    5 => GstResp { id, gst },
    6 => ReadAt { id, keys, at },
    7 => ReadAtResp { id, reads },
    8 => WtxReq { id, writes, dep_ts },
    9 => Prepare { id, writes, dep_ts, coordinator },
    10 => PrepareResp { id, proposed },
    11 => Commit { id, ts },
    12 => WtxAck { id, ts },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Cluster;
    use cbf_model::{check_read_atomicity, check_read_your_writes, ClientId};

    fn minimal() -> Cluster<CureNode> {
        Cluster::new(Topology::minimal(4))
    }

    fn stabilize(c: &mut Cluster<CureNode>) {
        c.world.run_for(5 * STABLE_PERIOD);
    }

    #[test]
    fn write_tx_then_stable_read() {
        let mut c = minimal();
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        stabilize(&mut c);
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads[0].1, w.writes[0].1);
        assert_eq!(r.audit.rounds, 2);
        assert!(r.audit.max_values_per_msg <= 1);
        assert!(c.check().is_ok());
    }

    #[test]
    fn write_then_read_blocks_like_gentlerain() {
        let mut c = minimal();
        let w = c.write_tx_auto(ClientId(2), &[Key(0), Key(1)]).unwrap();
        let r = c.read_tx(ClientId(2), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads[0].1, w.writes[0].1, "RYW via blocking");
        assert!(r.audit.blocked, "audit: {:?}", r.audit);
        assert!(check_read_your_writes(c.history()).is_empty());
    }

    #[test]
    fn snapshots_never_fracture_write_txs() {
        for seed in 0..5u64 {
            let mut c = minimal();
            for i in 0..10u32 {
                let cl = ClientId(i % 4);
                if i % 2 == 0 {
                    c.write_tx_auto(cl, &[Key(0), Key(1)]).unwrap();
                } else {
                    c.read_tx(cl, &[Key(0), Key(1)]).unwrap();
                }
                if i % 3 == 0 {
                    c.world.run_for(STABLE_PERIOD);
                }
            }
            c.world.run_chaotic(seed, 200_000);
            assert!(c.check().is_ok(), "seed {seed}: {:?}", c.check().violations);
            assert!(check_read_atomicity(c.history()).is_empty());
        }
    }

    #[test]
    fn profile_matches_the_table_row() {
        let mut c = minimal();
        for i in 0..6u32 {
            c.write_tx_auto(ClientId(i % 4), &[Key(0), Key(1)]).unwrap();
            c.read_tx(ClientId(i % 4), &[Key(0), Key(1)]).unwrap();
        }
        let p = c.profile();
        assert_eq!(p.max_rounds, 2);
        assert!(p.max_values <= 1);
        assert!(p.any_blocking, "profile: {p:?}");
        assert!(p.multi_write_supported);
        assert!(c.check().is_ok());
    }
}
