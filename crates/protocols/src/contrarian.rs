//! Contrarian [Didona et al., VLDB 2018]: latency-optimal **non-blocking**
//! two-round causally consistent ROTs, without write transactions.
//!
//! Table 1 row: R = 2, V = 1, non-blocking, no W, causal consistency.
//!
//! Contrarian is the paper's companion-work data point: even giving up
//! multi-object write transactions, a *non-blocking* causal ROT costs
//! two rounds unless you pay COPS-SNOW's write-side price (that is the
//! lower-bound result of the companion paper). The implementation is the stabilization
//! pattern specialized to single-key writes:
//!
//! * servers tick hybrid clocks, broadcast their local stable time on a
//!   timer, and maintain the global stable snapshot (GSS = min heard);
//!   with single-key apply-on-arrival writes there are never pending
//!   transactions, so LST is just the clock;
//! * a ROT asks one server for the GSS (round 1), then reads every key
//!   at that snapshot (round 2) — sealed past, so servers answer
//!   immediately with one value;
//! * clients cache their own recent writes for read-your-writes and keep
//!   a snapshot floor for monotonic reads.

use crate::common::tx::read_your_writes;
use crate::common::{Completed, Gather, HybridClock, MvStore, ProtocolNode, Topology, Version};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId, Time, MICROS};
use std::collections::HashMap;

/// Stabilization broadcast period.
pub const STABLE_PERIOD: Time = 100 * MICROS;

/// Contrarian message alphabet.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub enum Msg {
    /// Injection: read-only transaction.
    InvokeRot { id: TxId, keys: Vec<Key> },
    /// Injection: (single-object) write.
    InvokeWtx { id: TxId, writes: Vec<(Key, Value)> },
    /// Timer: broadcast my stable time.
    StableTick,
    /// Server → server: my local stable time.
    LstBcast { lst: u64 },
    /// Client → any server: current GSS?
    GssReq { id: TxId },
    /// Server → client: the GSS.
    GssResp { id: TxId, gss: u64 },
    /// Client → server: read keys at snapshot `at`.
    ReadAt { id: TxId, keys: Vec<Key>, at: u64 },
    /// Server → client: one value per key.
    ReadAtResp {
        id: TxId,
        reads: Vec<(Key, Value, u64)>,
    },
    /// Client → server: single-key write.
    PutReq {
        id: TxId,
        key: Key,
        value: Value,
        dep_ts: u64,
    },
    /// Server → client: applied at `ts`.
    PutAck { id: TxId, key: Key, ts: u64 },
}

/// Contrarian client.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    /// Own unstabilized writes: key → (value, ts).
    cache: HashMap<Key, (Value, u64)>,
    dep_ts: u64,
    last_snapshot: u64,
    /// In-flight ROTs, each beside the snapshot it reads at.
    rots: HashMap<TxId, (Gather<(Value, u64)>, u64)>,
    /// In-flight single-key writes: id → (value, invoked_at).
    puts: HashMap<TxId, (Value, u64)>,
    completed: HashMap<TxId, Completed>,
}

/// Contrarian server.
#[derive(Clone, Debug)]
pub struct ServerState {
    topo: Topology,
    store: MvStore,
    clock: HybridClock,
    known_lst: Vec<u64>,
    me: ProcessId,
    /// Stabilization broadcast period (tunable via `Topology::tuning`).
    period: cbf_sim::Time,
}

impl ServerState {
    fn gss(&self) -> u64 {
        self.known_lst.iter().copied().min().unwrap_or(0)
    }

    fn refresh_own_lst(&mut self, now: Time) -> u64 {
        let lst = self.clock.tick(now);
        let my = self.me.index();
        self.known_lst[my] = self.known_lst[my].max(lst);
        lst
    }
}

/// A Contrarian node.
#[derive(Clone, Debug)]
pub enum ContrarianNode {
    /// A client.
    Client(ClientState),
    /// A server.
    Server(ServerState),
}

impl ContrarianNode {
    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id, keys } => {
                    let server = c.topo.primary(keys[0]);
                    ctx.send(server, Msg::GssReq { id });
                    c.rots.insert(id, (Gather::new(keys, 0, ctx.now()), 0));
                }
                Msg::GssResp { id, gss } => {
                    let Some((p, snapshot)) = c.rots.get_mut(&id) else {
                        continue;
                    };
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
                        c.cache.retain(|_, &mut (_, ts)| ts > snap);
                        c.completed.insert(id, done);
                    }
                }
                Msg::InvokeWtx { id, writes } => {
                    let (key, value) = writes[0];
                    ctx.send(
                        c.topo.primary(key),
                        Msg::PutReq {
                            id,
                            key,
                            value,
                            dep_ts: c.dep_ts,
                        },
                    );
                    c.puts.insert(id, (value, ctx.now()));
                }
                Msg::PutAck { id, key, ts } => {
                    if let Some((value, invoked_at)) = c.puts.remove(&id) {
                        c.dep_ts = c.dep_ts.max(ts);
                        // Cache the write for read-your-writes until the
                        // snapshot catches up to it.
                        c.cache.insert(key, (value, ts));
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
                }
                Msg::LstBcast { lst } => {
                    let idx = env.from.index();
                    s.known_lst[idx] = s.known_lst[idx].max(lst);
                }
                Msg::GssReq { id } => {
                    s.refresh_own_lst(ctx.now());
                    ctx.send(env.from, Msg::GssResp { id, gss: s.gss() });
                }
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
                Msg::PutReq {
                    id,
                    key,
                    value,
                    dep_ts,
                } => {
                    s.clock.witness(dep_ts);
                    let ts = s.clock.tick(ctx.now());
                    s.store.insert(key, Version { value, ts, tx: id });
                    ctx.send(env.from, Msg::PutAck { id, key, ts });
                }
                _ => {}
            }
        }
    }
}

impl Actor for ContrarianNode {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        if let ContrarianNode::Server(s) = self {
            ctx.set_timer(s.period, Msg::StableTick);
        }
    }

    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            ContrarianNode::Client(c) => Self::client_step(c, ctx),
            ContrarianNode::Server(s) => Self::server_step(s, ctx),
        }
    }
}

impl ProtocolNode for ContrarianNode {
    const NAME: &'static str = "Contrarian";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = false;

    fn server(topo: &Topology, id: ProcessId) -> Self {
        ContrarianNode::Server(ServerState {
            topo: topo.clone(),
            store: MvStore::new(),
            clock: HybridClock::new(id.0 as u8),
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
        ContrarianNode::Client(ClientState {
            topo: topo.clone(),
            cache: HashMap::new(),
            dep_ts: 0,
            last_snapshot: 0,
            rots: HashMap::new(),
            puts: HashMap::new(),
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
            ContrarianNode::Client(c) => c.completed.get(&id),
            ContrarianNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            ContrarianNode::Client(c) => c.completed.remove(&id),
            ContrarianNode::Server(_) => None,
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
            Msg::GssReq { .. } | Msg::ReadAt { .. } | Msg::PutReq { .. }
        )
    }
}

crate::wire_enum!(Msg as "contrarian::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => StableTick,
    3 => LstBcast { lst },
    4 => GssReq { id },
    5 => GssResp { id, gss },
    6 => ReadAt { id, keys, at },
    7 => ReadAtResp { id, reads },
    8 => PutReq { id, key, value, dep_ts },
    9 => PutAck { id, key, ts },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Cluster, TxError};
    use cbf_model::ClientId;

    fn minimal() -> Cluster<ContrarianNode> {
        Cluster::new(Topology::minimal(4))
    }

    fn stabilize(c: &mut Cluster<ContrarianNode>) {
        c.world.run_for(5 * STABLE_PERIOD);
    }

    #[test]
    fn two_round_nonblocking_reads() {
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0)]).unwrap();
        c.write_tx_auto(ClientId(0), &[Key(1)]).unwrap();
        stabilize(&mut c);
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.audit.rounds, 2, "audit: {:?}", r.audit);
        assert!(r.audit.max_values_per_msg <= 1);
        assert!(!r.audit.blocked);
        assert!(c.check().is_ok());
    }

    #[test]
    fn multi_write_is_rejected() {
        let mut c = minimal();
        let err = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap_err();
        assert_eq!(err, TxError::MultiWriteUnsupported);
    }

    #[test]
    fn snapshot_reads_are_causal_under_races() {
        // The dependency race that forces COPS into round 2 and breaks
        // naive-fast: Contrarian's sealed snapshot just returns the old
        // world consistently.
        let mut c = minimal();
        let v0_old = c.alloc_value();
        let v1_old = c.alloc_value();
        c.write_tx(ClientId(0), &[(Key(0), v0_old)]).unwrap();
        c.write_tx(ClientId(0), &[(Key(1), v1_old)]).unwrap();
        stabilize(&mut c);

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
        c.world.run_for(cbf_sim::MILLIS);

        let v0_new = c.alloc_value();
        let v1_new = c.alloc_value();
        c.write_tx(ClientId(0), &[(Key(0), v0_new)]).unwrap();
        c.write_tx(ClientId(0), &[(Key(1), v1_new)]).unwrap();
        stabilize(&mut c);

        c.world.release_pair(rpid, ProcessId(1));
        c.world
            .run_until_within(cbf_sim::SECONDS, |w| w.actor(rpid).completed(rot).is_some());
        let done = c.world.actor_mut(rpid).take_completed(rot).unwrap();
        assert_eq!(done.reads, vec![(Key(0), v0_old), (Key(1), v1_old)]);
    }

    #[test]
    fn chaotic_schedules_stay_causal() {
        for seed in 0..5u64 {
            let mut c = minimal();
            for i in 0..12u32 {
                let cl = ClientId(i % 4);
                if i % 3 == 0 {
                    c.write_tx_auto(cl, &[Key(i % 2)]).unwrap();
                } else {
                    c.read_tx(cl, &[Key(0), Key(1)]).unwrap();
                }
                if i % 4 == 0 {
                    c.world.run_for(STABLE_PERIOD);
                }
            }
            assert!(c.check().is_ok(), "seed {seed}: {:?}", c.check().violations);
        }
    }
}
