//! GentleRain [Du et al., SoCC 2014]: causal consistency with cheap
//! metadata — a single stable-time scalar — at the price of **blocking**
//! reads.
//!
//! Table 1 row: R = 2, V = 1, blocking, no W, causal consistency.
//!
//! GentleRain is Contrarian's foil: the same two-round stable-snapshot
//! read, but without the client-side write cache. Read-your-writes is
//! instead enforced server-side: the client's snapshot request carries
//! its dependency time, and a server asked to read at a snapshot beyond
//! its current global stable time **parks the request** until
//! stabilization catches up. A client that writes and immediately reads
//! therefore blocks for up to a stabilization period — the N violation
//! the paper's Table 1 records.

use crate::common::{Completed, Gather, HybridClock, MvStore, ProtocolNode, Topology, Version};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId, Time, MILLIS};
use std::collections::HashMap;

/// Stabilization broadcast period. Realistic deployments stabilize much
/// less often than a client round trip (100 µs here), which is exactly
/// what makes the blocking reads observable.
pub const STABLE_PERIOD: Time = MILLIS;

/// GentleRain message alphabet.
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
    /// Client → any server: current global stable time?
    GstReq { id: TxId },
    /// Server → client: the GST.
    GstResp { id: TxId, gst: u64 },
    /// Client → server: read keys at snapshot `at` (parks if `at` is
    /// beyond this server's GST — the blocking).
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

/// A read parked at a server until its GST reaches `at`.
#[derive(Clone, Debug)]
struct ParkedRead {
    client: ProcessId,
    id: TxId,
    keys: Vec<Key>,
    at: u64,
}

/// GentleRain client: no write cache — reads block instead.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    /// Highest timestamp observed (own writes and reads).
    dep_ts: u64,
    last_snapshot: u64,
    rots: HashMap<TxId, Gather<Value>>,
    puts: HashMap<TxId, u64>,
    completed: HashMap<TxId, Completed>,
}

/// GentleRain server.
#[derive(Clone, Debug)]
pub struct ServerState {
    topo: Topology,
    store: MvStore,
    clock: HybridClock,
    known_lst: Vec<u64>,
    me: ProcessId,
    /// Stabilization broadcast period (tunable via `Topology::tuning`).
    period: cbf_sim::Time,
    parked: Vec<ParkedRead>,
}

impl ServerState {
    fn gst(&self) -> u64 {
        self.known_lst.iter().copied().min().unwrap_or(0)
    }

    fn refresh_own_lst(&mut self, now: Time) -> u64 {
        let lst = self.clock.tick(now);
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

    /// Serve every parked read whose snapshot is now stable.
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

/// A GentleRain node.
#[derive(Clone, Debug)]
pub enum GentleRainNode {
    /// A client.
    Client(ClientState),
    /// A server.
    Server(ServerState),
}

impl GentleRainNode {
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
                    // RYW + monotonic reads without a cache: the snapshot
                    // floor includes the client's own dependency time —
                    // the server will block until it is stable.
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
                    c.puts.insert(id, ctx.now());
                }
                Msg::PutAck { id, ts, .. } => {
                    if let Some(invoked_at) = c.puts.remove(&id) {
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
                        // The snapshot is ahead of stabilization: park —
                        // GentleRain's blocking.
                        s.parked.push(ParkedRead {
                            client: env.from,
                            id,
                            keys,
                            at,
                        });
                    }
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

impl Actor for GentleRainNode {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        if let GentleRainNode::Server(s) = self {
            ctx.set_timer(s.period, Msg::StableTick);
        }
    }

    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            GentleRainNode::Client(c) => Self::client_step(c, ctx),
            GentleRainNode::Server(s) => Self::server_step(s, ctx),
        }
    }
}

impl ProtocolNode for GentleRainNode {
    const NAME: &'static str = "GentleRain";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = false;

    fn server(topo: &Topology, id: ProcessId) -> Self {
        GentleRainNode::Server(ServerState {
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
            parked: Vec::new(),
        })
    }

    fn client(topo: &Topology, _id: ProcessId) -> Self {
        GentleRainNode::Client(ClientState {
            topo: topo.clone(),
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
            GentleRainNode::Client(c) => c.completed.get(&id),
            GentleRainNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            GentleRainNode::Client(c) => c.completed.remove(&id),
            GentleRainNode::Server(_) => None,
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
            Msg::GstReq { .. } | Msg::ReadAt { .. } | Msg::PutReq { .. }
        )
    }
}

crate::wire_enum!(Msg as "gentlerain::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => StableTick,
    3 => LstBcast { lst },
    4 => GstReq { id },
    5 => GstResp { id, gst },
    6 => ReadAt { id, keys, at },
    7 => ReadAtResp { id, reads },
    8 => PutReq { id, key, value, dep_ts },
    9 => PutAck { id, key, ts },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Cluster;
    use cbf_model::{check_read_your_writes, ClientId};

    fn minimal() -> Cluster<GentleRainNode> {
        Cluster::new(Topology::minimal(4))
    }

    fn stabilize(c: &mut Cluster<GentleRainNode>) {
        c.world.run_for(5 * STABLE_PERIOD);
    }

    #[test]
    fn stable_reads_are_two_round_one_value() {
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0)]).unwrap();
        c.write_tx_auto(ClientId(0), &[Key(1)]).unwrap();
        stabilize(&mut c);
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.audit.rounds, 2);
        assert!(r.audit.max_values_per_msg <= 1);
        assert!(c.check().is_ok());
    }

    #[test]
    fn write_then_read_blocks_until_stabilization() {
        // The signature GentleRain behaviour: read-your-writes is served
        // by parking the read until the GST passes the client's write.
        let mut c = minimal();
        let w = c.write_tx_auto(ClientId(2), &[Key(0)]).unwrap();
        let r = c.read_tx(ClientId(2), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads[0].1, w.writes[0].1, "RYW must hold");
        assert!(r.audit.blocked, "audit: {:?}", r.audit);
        // The blocked read waited for a stabilization round: well above
        // the 200 µs two-round floor.
        assert!(
            r.audit.latency > 400 * cbf_sim::MICROS,
            "latency {}",
            r.audit.latency
        );
        assert!(check_read_your_writes(c.history()).is_empty());
    }

    #[test]
    fn profile_records_the_blocking() {
        let mut c = minimal();
        for i in 0..6u32 {
            c.write_tx_auto(ClientId(i % 4), &[Key(i % 2)]).unwrap();
            c.read_tx(ClientId(i % 4), &[Key(0), Key(1)]).unwrap();
        }
        let p = c.profile();
        assert!(p.any_blocking, "profile: {p:?}");
        assert!(!p.multi_write_supported);
        assert!(c.check().is_ok());
    }

    #[test]
    fn chaotic_schedules_stay_causal() {
        for seed in 0..5u64 {
            let mut c = minimal();
            for i in 0..10u32 {
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
