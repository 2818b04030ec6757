//! Wren [Spirovska et al., DSN 2018]: the N + V + W corner — non-blocking
//! one-value reads and multi-object write transactions, paying with a
//! **second round** of client communication.
//!
//! Table 1 row: R = 2, V = 1, non-blocking, W, causal consistency.
//!
//! Mechanism (§3.4 of the paper): servers continuously agree on a *global
//! stable snapshot* (GSS) — a timestamp below which no transaction is
//! still pending anywhere. A read-only transaction first asks any server
//! for the current GSS (round 1), then reads every key at that snapshot
//! (round 2): the snapshot is in the sealed past, so servers answer from
//! storage immediately with exactly one value. Writes commit *above* the
//! GSS and become readable only after stabilization; each client caches
//! its own recent writes so it still reads them (read-your-writes)
//! before they stabilize.
//!
//! Stabilization protocol: each server tracks its *local stable time*
//! (LST = just below its lowest pending proposal, or its clock when idle)
//! and broadcasts it on a timer; GSS = the minimum LST heard from every
//! server. LSTs are monotonic, hence so is the GSS.

use crate::common::tx::read_your_writes;
use crate::common::{Completed, Gather, HybridClock, MvStore, ProtocolNode, Tally, Topology};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId, Time, MICROS};
use std::collections::HashMap;

/// How often servers broadcast their local stable time.
pub const STABLE_PERIOD: Time = 100 * MICROS;

/// Wren message alphabet.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub enum Msg {
    /// Injection: read-only transaction.
    InvokeRot { id: TxId, keys: Vec<Key> },
    /// Injection: write-only transaction.
    InvokeWtx { id: TxId, writes: Vec<(Key, Value)> },

    /// Timer: broadcast my LST.
    StableTick,
    /// Server → server: my local stable time.
    LstBcast { lst: u64 },

    /// Client → any server: what is the global stable snapshot?
    GssReq { id: TxId },
    /// Server → client: the GSS (a timestamp — metadata, zero values).
    GssResp { id: TxId, gss: u64 },
    /// Client → server: read these keys at snapshot `at`.
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

/// Wren client: write cache for read-your-writes + snapshot floor for
/// monotonicity.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    /// Own writes not yet known stable: key → (value, commit ts).
    cache: HashMap<Key, (Value, u64)>,
    /// Highest commit timestamp of own transactions (carried as dep).
    dep_ts: u64,
    /// Highest snapshot used so far (monotonic reads across ROTs).
    last_snapshot: u64,
    /// In-flight ROTs, each beside the snapshot it reads at.
    rots: HashMap<TxId, (Gather<(Value, u64)>, u64)>,
    wtxs: HashMap<TxId, (Vec<(Key, Value)>, u64)>,
    completed: HashMap<TxId, Completed>,
}

/// Wren server.
#[derive(Clone, Debug)]
pub struct ServerState {
    topo: Topology,
    store: MvStore,
    clock: HybridClock,
    /// Prepared, undecided transactions: tx → proposal.
    pending: HashMap<TxId, (u64, Vec<(Key, Value)>)>,
    /// Coordinator side: each 2PC's prepare tally beside its client.
    coordinating: HashMap<TxId, (Tally, ProcessId)>,
    /// Last LST heard per server (index by server id), own slot included.
    known_lst: Vec<u64>,
    me: ProcessId,
    /// Stabilization broadcast period (tunable via `Topology::tuning`).
    period: cbf_sim::Time,
}

impl ServerState {
    /// Local stable time: everything at or below this is sealed here.
    fn lst(&mut self, now: Time) -> u64 {
        let min_pending = self.pending.values().map(|&(p, _)| p).min();
        match min_pending {
            Some(p) => p - 1,
            None => self.clock.tick(now),
        }
    }

    /// Global stable snapshot: the minimum LST heard from every server.
    fn gss(&self) -> u64 {
        self.known_lst.iter().copied().min().unwrap_or(0)
    }
}

/// A Wren node.
#[derive(Clone, Debug)]
pub enum WrenNode {
    /// A client.
    Client(ClientState),
    /// A server.
    Server(ServerState),
}

impl WrenNode {
    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id, keys } => {
                    // Round 1: ask the primary of the first key for the GSS.
                    let server = c.topo.primary(keys[0]);
                    ctx.send(server, Msg::GssReq { id });
                    c.rots.insert(id, (Gather::new(keys, 0, ctx.now()), 0));
                }
                Msg::GssResp { id, gss } => {
                    let Some((p, snapshot)) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    // Snapshot floor keeps reads monotonic across ROTs.
                    let at = gss.max(c.last_snapshot);
                    c.last_snapshot = at;
                    *snapshot = at;
                    for (server, ks) in p.by_primary(&c.topo) {
                        ctx.send(server, Msg::ReadAt { id, keys: ks, at });
                    }
                }
                Msg::ReadAtResp { id, reads } => {
                    let Some((p, _)) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    for (k, v, ts) in reads {
                        p.got.insert(k, (v, ts));
                    }
                    if p.arrived() {
                        let Some((p, snap)) = c.rots.remove(&id) else {
                            continue;
                        };
                        let done =
                            p.finish(id, ctx.now(), |k, r| read_your_writes(r, c.cache.get(&k)));
                        // Prune cache entries now covered by the snapshot.
                        c.cache.retain(|_, &mut (_, ts)| ts > snap);
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
                            dep_ts: c.dep_ts,
                        },
                    );
                    c.wtxs.insert(id, (writes, ctx.now()));
                }
                Msg::WtxAck { id, ts } => {
                    if let Some((writes, invoked_at)) = c.wtxs.remove(&id) {
                        c.dep_ts = c.dep_ts.max(ts);
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
                Msg::StableTick => {
                    let lst = s.lst(ctx.now());
                    let my = s.me.index();
                    s.known_lst[my] = s.known_lst[my].max(lst);
                    for srv in s.topo.servers() {
                        if srv != s.me {
                            ctx.send(srv, Msg::LstBcast { lst });
                        }
                    }
                    ctx.set_timer(s.period, Msg::StableTick);
                }
                Msg::LstBcast { lst } => {
                    let idx = env.from.index();
                    s.known_lst[idx] = s.known_lst[idx].max(lst);
                }
                Msg::GssReq { id } => {
                    // Refresh the own-LST slot before answering so a
                    // single-server deployment stabilizes without timers.
                    let lst = s.lst(ctx.now());
                    let my = s.me.index();
                    s.known_lst[my] = s.known_lst[my].max(lst);
                    ctx.send(env.from, Msg::GssResp { id, gss: s.gss() });
                }
                Msg::ReadAt { id, keys, at } => {
                    // `at ≤ GSS`: sealed — the latest version ≤ at is
                    // final, served immediately (non-blocking, one value).
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
                    // Proposal above our LST and above the dep: pendings
                    // hold the LST down until the commit resolves.
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
                    }
                }
                _ => {}
            }
        }
    }
}

impl Actor for WrenNode {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        if let WrenNode::Server(s) = self {
            ctx.set_timer(s.period, Msg::StableTick);
        }
    }

    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            WrenNode::Client(c) => Self::client_step(c, ctx),
            WrenNode::Server(s) => Self::server_step(s, ctx),
        }
    }
}

impl ProtocolNode for WrenNode {
    const NAME: &'static str = "Wren";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = true;

    fn server(topo: &Topology, id: ProcessId) -> Self {
        WrenNode::Server(ServerState {
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
        })
    }

    fn client(topo: &Topology, _id: ProcessId) -> Self {
        WrenNode::Client(ClientState {
            topo: topo.clone(),
            cache: HashMap::new(),
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
            WrenNode::Client(c) => c.completed.get(&id),
            WrenNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            WrenNode::Client(c) => c.completed.remove(&id),
            WrenNode::Server(_) => None,
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
            // GssResp carries a timestamp only — metadata, zero values.
            _ => 0,
        }
    }

    fn msg_is_request(msg: &Msg) -> bool {
        matches!(
            msg,
            Msg::GssReq { .. } | Msg::ReadAt { .. } | Msg::WtxReq { .. }
        )
    }
}

crate::wire_enum!(Msg as "wren::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => StableTick,
    3 => LstBcast { lst },
    4 => GssReq { id },
    5 => GssResp { id, gss },
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
    use cbf_model::ClientId;
    use cbf_sim::MILLIS;

    fn minimal() -> Cluster<WrenNode> {
        Cluster::new(Topology::minimal(4))
    }

    /// Let the stabilization protocol run for a few periods.
    fn stabilize(c: &mut Cluster<WrenNode>) {
        c.world.run_for(5 * STABLE_PERIOD);
    }

    #[test]
    fn reads_take_exactly_two_rounds_and_one_value() {
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        stabilize(&mut c);
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.audit.rounds, 2, "audit: {:?}", r.audit);
        assert!(r.audit.max_values_per_msg <= 1);
        assert!(!r.audit.blocked);
    }

    #[test]
    fn stabilized_writes_become_visible() {
        let mut c = minimal();
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        stabilize(&mut c);
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads[0].1, w.writes[0].1);
        assert_eq!(r.reads[1].1, w.writes[1].1);
        assert!(c.check().is_ok());
    }

    #[test]
    fn unstabilized_write_is_invisible_to_others_but_visible_to_writer() {
        let mut c = minimal();
        let init0 = c.alloc_value();
        let init1 = c.alloc_value();
        c.write_tx(ClientId(0), &[(Key(0), init0), (Key(1), init1)])
            .unwrap();
        stabilize(&mut c);

        // A fresh write, NOT stabilized: committed above the GSS.
        let w = c.write_tx_auto(ClientId(2), &[Key(0), Key(1)]).unwrap();
        // Another client still reads the old snapshot — causal but stale.
        let other = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(other.reads, vec![(Key(0), init0), (Key(1), init1)]);
        // The writer reads its own cache.
        let own = c.read_tx(ClientId(2), &[Key(0), Key(1)]).unwrap();
        assert_eq!(own.reads[0].1, w.writes[0].1);
        assert_eq!(own.reads[1].1, w.writes[1].1);
        assert!(c.check().is_ok(), "{:?}", c.check().violations);
        assert!(cbf_model::check_read_your_writes(c.history()).is_empty());
    }

    #[test]
    fn snapshot_is_never_torn() {
        // The GSS snapshot can never split a write transaction: both keys
        // commit at one timestamp, and the snapshot either covers it or
        // not.
        for seed in 0..6u64 {
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
            assert!(c.check().is_ok(), "seed {seed}: {:?}", c.check().violations);
            assert!(cbf_model::check_read_atomicity(c.history()).is_empty());
        }
    }

    #[test]
    fn gss_is_monotonic_at_every_server() {
        let mut c = minimal();
        let mut last = 0;
        for i in 0..8u32 {
            c.write_tx_auto(ClientId(i % 4), &[Key(0), Key(1)]).unwrap();
            c.world.run_for(STABLE_PERIOD);
            if let WrenNode::Server(s) = c.world.actor(ProcessId(0)) {
                let g = s.gss();
                assert!(g >= last, "GSS went backwards: {g} < {last}");
                last = g;
            }
        }
        assert!(last > 0);
    }

    #[test]
    fn monotonic_reads_hold_across_rots() {
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        stabilize(&mut c);
        for _ in 0..4 {
            c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
            c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
            c.world.run_for(STABLE_PERIOD / 2);
        }
        assert!(cbf_model::check_monotonic_reads(c.history()).is_empty());
        assert!(c.check().is_ok());
    }

    #[test]
    fn visibility_lag_is_bounded_by_stabilization() {
        let mut c = minimal();
        let w = c.write_tx_auto(ClientId(0), &[Key(0)]).unwrap();
        // Within a couple of stabilization periods the write is readable.
        c.world.run_for(3 * STABLE_PERIOD + MILLIS);
        let r = c.read_tx(ClientId(1), &[Key(0)]).unwrap();
        assert_eq!(r.reads[0].1, w.writes[0].1);
    }
}
