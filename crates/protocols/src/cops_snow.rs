//! COPS-SNOW [Lu et al., OSDI 2016]: the N + R + V corner of the design
//! space — genuinely **fast** read-only transactions (one round,
//! non-blocking, one-value), bought by giving up multi-object write
//! transactions and by making writes expensive.
//!
//! Mechanism (§3.4 of the paper): before a server makes a new version
//! visible, it asks the servers of the version's dependencies for the
//! *old readers* — the ids of read-only transactions that read an older
//! version of a dependency. The new version is then hidden from exactly
//! those ROTs: a reader that saw the old world keeps seeing the old
//! world, and a one-round, one-value read can never return a causally
//! torn pair.
//!
//! The visibility blacklist must be transitive across dependency chains:
//! the old readers of a version `ts` of key `k` include both the ROTs
//! that read `k` below `ts` and the ROTs blacklisted on any version
//! `≤ ts` of `k`.

use crate::common::{
    Completed, LamportClock, MvStore, ProtocolNode, Topology, Version, MAX_RETRIES,
};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A dependency: `(key, version timestamp)`.
pub type Dep = (Key, u64);

/// COPS-SNOW message alphabet.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub enum Msg {
    /// Injection: read-only transaction.
    InvokeRot { id: TxId, keys: Vec<Key> },
    /// Injection: write transaction (single-object only).
    InvokeWtx { id: TxId, writes: Vec<(Key, Value)> },
    /// Client → server: one-round ROT read of these keys.
    RotReq { id: TxId, keys: Vec<Key> },
    /// Server → client: `(key, value, version)` per requested key — one
    /// written value per key, no transitive payload.
    RotResp {
        id: TxId,
        reads: Vec<(Key, Value, u64)>,
    },
    /// Client → server: dependency-tracked single-key put.
    PutReq {
        id: TxId,
        key: Key,
        value: Value,
        deps: Vec<Dep>,
    },
    /// Server → server: who read any of these dependencies *before* the
    /// dependency's version? (`put` identifies the pending write.)
    OldReaderQuery { put: TxId, deps: Vec<Dep> },
    /// Server → server: the old readers.
    OldReaderResp { put: TxId, readers: Vec<TxId> },
    /// Server → client: put is visible.
    PutAck { id: TxId, key: Key, ts: u64 },
    /// Self-timer: retry outstanding requests of transaction `id` if it
    /// is still pending (armed only when `Topology::retry_after > 0`).
    RetryTick { id: TxId, attempt: u32 },
}

/// In-flight ROT at the client. The waiting *set* (not a counter) makes
/// response handling idempotent under duplicated deliveries.
#[derive(Clone, Debug)]
struct PendingRot {
    keys: Vec<Key>,
    got: HashMap<Key, (Value, u64)>,
    waiting: BTreeSet<ProcessId>,
    invoked_at: u64,
}

/// In-flight put at the client (kept until acked, for resend).
#[derive(Clone, Debug)]
struct PendingWrite {
    key: Key,
    value: Value,
    deps: Vec<Dep>,
    invoked_at: u64,
}

/// COPS-SNOW client.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    /// Latest observed version per key, attached to puts as dependencies.
    context: HashMap<Key, u64>,
    rots: HashMap<TxId, PendingRot>,
    puts: HashMap<TxId, PendingWrite>,
    completed: HashMap<TxId, Completed>,
}

/// A put waiting for old-reader responses before becoming visible.
#[derive(Clone, Debug)]
struct PendingPut {
    key: Key,
    ts: u64,
    client: ProcessId,
    /// Dependency servers whose old-reader response is outstanding.
    waiting: BTreeSet<ProcessId>,
    /// The per-server dependency lists (kept so a client retry can
    /// re-send old-reader queries that were lost in flight).
    remote_deps: BTreeMap<ProcessId, Vec<Dep>>,
    invisible_to: HashSet<TxId>,
}

/// COPS-SNOW server.
#[derive(Clone, Debug)]
pub struct ServerState {
    topo: Topology,
    store: MvStore,
    clock: LamportClock,
    /// Versions inserted but not yet visible (old-reader queries pending).
    pending_visible: HashSet<(Key, u64)>,
    /// Per visible version: the ROTs it is hidden from.
    invisible: HashMap<(Key, u64), HashSet<TxId>>,
    /// ROT read log: per key, `(rot id, version read)`.
    readers: HashMap<Key, Vec<(TxId, u64)>>,
    /// Puts awaiting old-reader responses.
    pending_puts: HashMap<TxId, PendingPut>,
    /// Puts already made visible: `tx → (key, ts)`. A re-delivered
    /// `PutReq` (duplicate or client retry racing the ack) re-acks from
    /// here instead of minting a second version.
    done_puts: HashMap<TxId, (Key, u64)>,
}

impl ServerState {
    /// Old readers of dependency `(key, ts)`: ROTs that read below `ts`,
    /// plus ROTs blacklisted on any version `≤ ts` (transitivity).
    fn old_readers(&self, key: Key, ts: u64) -> HashSet<TxId> {
        let mut out: HashSet<TxId> = self
            .readers
            .get(&key)
            .into_iter()
            .flatten()
            .filter(|&&(_, read_ts)| read_ts < ts)
            .map(|&(rot, _)| rot)
            .collect();
        for ((k, vts), rots) in &self.invisible {
            if *k == key && *vts <= ts {
                out.extend(rots.iter().copied());
            }
        }
        out
    }

    /// The version of `key` served to ROT `rot`: the newest visible
    /// version not blacklisted for `rot`.
    fn serve(&mut self, key: Key, rot: TxId) -> (Value, u64) {
        let chosen = self
            .store
            .versions(key)
            .iter()
            .rev()
            .find(|v| {
                !self.pending_visible.contains(&(key, v.ts))
                    && !self
                        .invisible
                        .get(&(key, v.ts))
                        .is_some_and(|s| s.contains(&rot))
            })
            .map(|v| (v.value, v.ts))
            .unwrap_or((Value::BOTTOM, 0));
        self.readers.entry(key).or_default().push((rot, chosen.1));
        chosen
    }

    /// All old-reader responses arrived (or none were needed): make the
    /// version visible (except to its blacklist) and ack the writer.
    fn finalize_put(&mut self, put: TxId, ctx: &mut Ctx<Msg>) {
        let Some(p) = self.pending_puts.remove(&put) else {
            return;
        };
        self.pending_visible.remove(&(p.key, p.ts));
        if !p.invisible_to.is_empty() {
            self.invisible.insert((p.key, p.ts), p.invisible_to);
        }
        self.done_puts.insert(put, (p.key, p.ts));
        ctx.send(
            p.client,
            Msg::PutAck {
                id: put,
                key: p.key,
                ts: p.ts,
            },
        );
    }
}

/// A COPS-SNOW node.
#[derive(Clone, Debug)]
pub enum CopsSnowNode {
    /// A client.
    Client(ClientState),
    /// A server.
    Server(ServerState),
}

impl CopsSnowNode {
    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id, keys } => {
                    let groups = c.topo.group_by_primary(&keys);
                    let waiting: BTreeSet<ProcessId> = groups.iter().map(|&(s, _)| s).collect();
                    for (server, ks) in groups {
                        ctx.send(server, Msg::RotReq { id, keys: ks });
                    }
                    c.rots.insert(
                        id,
                        PendingRot {
                            keys,
                            got: HashMap::new(),
                            waiting,
                            invoked_at: ctx.now(),
                        },
                    );
                    Self::arm_retry(c, id, 0, ctx);
                }
                Msg::InvokeWtx { id, writes } => {
                    let (key, value) = writes[0];
                    let mut deps: Vec<Dep> = c.context.iter().map(|(&k, &t)| (k, t)).collect();
                    deps.sort_unstable();
                    ctx.send(
                        c.topo.primary(key),
                        Msg::PutReq {
                            id,
                            key,
                            value,
                            deps: deps.clone(),
                        },
                    );
                    c.puts.insert(
                        id,
                        PendingWrite {
                            key,
                            value,
                            deps,
                            invoked_at: ctx.now(),
                        },
                    );
                    Self::arm_retry(c, id, 0, ctx);
                }
                Msg::RotResp { id, reads } => {
                    let Some(p) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    // Duplicate (or already-answered retry): ignore the
                    // whole response.
                    if !p.waiting.remove(&env.from) {
                        continue;
                    }
                    for (k, v, ts) in reads {
                        p.got.insert(k, (v, ts));
                    }
                    if p.waiting.is_empty() {
                        let Some(p) = c.rots.remove(&id) else {
                            continue;
                        };
                        let mut out = Vec::with_capacity(p.keys.len());
                        for &k in &p.keys {
                            let (v, ts) = p.got.get(&k).copied().unwrap_or((Value::BOTTOM, 0));
                            out.push((k, v));
                            if ts > 0 {
                                let slot = c.context.entry(k).or_insert(0);
                                *slot = (*slot).max(ts);
                            }
                        }
                        c.completed.insert(
                            id,
                            Completed {
                                id,
                                reads: out,
                                invoked_at: p.invoked_at,
                                completed_at: ctx.now(),
                            },
                        );
                    }
                }
                Msg::PutAck { id, key, ts } => {
                    // `remove` makes a duplicated ack a no-op.
                    if let Some(pw) = c.puts.remove(&id) {
                        let slot = c.context.entry(key).or_insert(0);
                        *slot = (*slot).max(ts);
                        c.completed.insert(
                            id,
                            Completed {
                                id,
                                reads: Vec::new(),
                                invoked_at: pw.invoked_at,
                                completed_at: ctx.now(),
                            },
                        );
                    }
                }
                Msg::RetryTick { id, attempt } => {
                    let mut live = false;
                    if let Some(p) = c.rots.get(&id) {
                        live = true;
                        for (server, ks) in c.topo.group_by_primary(&p.keys) {
                            if p.waiting.contains(&server) {
                                ctx.send(server, Msg::RotReq { id, keys: ks });
                            }
                        }
                    }
                    if let Some(pw) = c.puts.get(&id) {
                        live = true;
                        ctx.send(
                            c.topo.primary(pw.key),
                            Msg::PutReq {
                                id,
                                key: pw.key,
                                value: pw.value,
                                deps: pw.deps.clone(),
                            },
                        );
                    }
                    if live {
                        Self::arm_retry(c, id, attempt + 1, ctx);
                    }
                }
                _ => {}
            }
        }
    }

    /// Arm (or re-arm, with exponential backoff) the per-transaction
    /// retry timer. No-op when retries are disabled or exhausted.
    fn arm_retry(c: &ClientState, id: TxId, attempt: u32, ctx: &mut Ctx<Msg>) {
        if c.topo.retry_after == 0 || attempt >= MAX_RETRIES {
            return;
        }
        ctx.set_timer(
            c.topo.retry_after << attempt,
            Msg::RetryTick { id, attempt },
        );
    }

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::RotReq { id, keys } => {
                    let reads: Vec<(Key, Value, u64)> = keys
                        .iter()
                        .map(|&k| {
                            let (v, ts) = s.serve(k, id);
                            (k, v, ts)
                        })
                        .collect();
                    ctx.send(env.from, Msg::RotResp { id, reads });
                }
                Msg::PutReq {
                    id,
                    key,
                    value,
                    deps,
                } => {
                    // Idempotence: an already-visible put re-acks; a put
                    // still gathering old readers re-drives its
                    // outstanding queries (they may have been lost).
                    if let Some(&(k, ts)) = s.done_puts.get(&id) {
                        ctx.send(env.from, Msg::PutAck { id, key: k, ts });
                        continue;
                    }
                    if let Some(p) = s.pending_puts.get(&id) {
                        for server in p.waiting.iter().copied().collect::<Vec<_>>() {
                            let deps = p.remote_deps.get(&server).cloned().unwrap_or_default();
                            ctx.send(server, Msg::OldReaderQuery { put: id, deps });
                        }
                        continue;
                    }
                    for &(_, t) in &deps {
                        s.clock.witness(t);
                    }
                    let ts = s.clock.tick();
                    s.store.insert(key, Version { value, ts, tx: id });
                    s.pending_visible.insert((key, ts));

                    // Local deps resolve immediately; remote deps need a
                    // query round. (One message per dep server, as the
                    // paper's step semantics require.)
                    let mut invisible_to = HashSet::new();
                    let mut remote: BTreeMap<ProcessId, Vec<Dep>> = Default::default();
                    for &(dk, dts) in &deps {
                        let home = s.topo.primary(dk);
                        if home == ctx.me() {
                            invisible_to.extend(s.old_readers(dk, dts));
                        } else {
                            remote.entry(home).or_default().push((dk, dts));
                        }
                    }
                    let waiting: BTreeSet<ProcessId> = remote.keys().copied().collect();
                    s.pending_puts.insert(
                        id,
                        PendingPut {
                            key,
                            ts,
                            client: env.from,
                            waiting,
                            remote_deps: remote.clone(),
                            invisible_to,
                        },
                    );
                    if remote.is_empty() {
                        s.finalize_put(id, ctx);
                    } else {
                        for (server, deps) in remote {
                            ctx.send(server, Msg::OldReaderQuery { put: id, deps });
                        }
                    }
                }
                Msg::OldReaderQuery { put, deps } => {
                    let mut readers: HashSet<TxId> = HashSet::new();
                    for (dk, dts) in deps {
                        readers.extend(s.old_readers(dk, dts));
                    }
                    let mut readers: Vec<TxId> = readers.into_iter().collect();
                    readers.sort_unstable();
                    ctx.send(env.from, Msg::OldReaderResp { put, readers });
                }
                Msg::OldReaderResp { put, readers } => {
                    let finalize = {
                        let Some(p) = s.pending_puts.get_mut(&put) else {
                            continue;
                        };
                        // Duplicate response from this server: ignore.
                        if !p.waiting.remove(&env.from) {
                            continue;
                        }
                        p.invisible_to.extend(readers);
                        p.waiting.is_empty()
                    };
                    if finalize {
                        s.finalize_put(put, ctx);
                    }
                }
                _ => {}
            }
        }
    }
}

impl Actor for CopsSnowNode {
    type Msg = Msg;
    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            CopsSnowNode::Client(c) => Self::client_step(c, ctx),
            CopsSnowNode::Server(s) => Self::server_step(s, ctx),
        }
    }

    fn on_crash(&mut self) {
        if let CopsSnowNode::Server(s) = self {
            // In-progress old-reader gathering is volatile. The orphaned
            // versions stay in `pending_visible` forever — never acked,
            // never a dependency, so hiding them is causally safe. The
            // writer's retry re-puts under the same tx id and mints a
            // fresh version. Store, read log, visibility blacklists and
            // the done-put log are durable.
            s.pending_puts.clear();
        }
    }
}

impl ProtocolNode for CopsSnowNode {
    const NAME: &'static str = "COPS-SNOW";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = false;

    fn server(topo: &Topology, id: ProcessId) -> Self {
        CopsSnowNode::Server(ServerState {
            topo: topo.clone(),
            store: MvStore::new(),
            clock: LamportClock::new(id.0 as u8),
            pending_visible: HashSet::new(),
            invisible: HashMap::new(),
            readers: HashMap::new(),
            pending_puts: HashMap::new(),
            done_puts: HashMap::new(),
        })
    }

    fn client(topo: &Topology, _id: ProcessId) -> Self {
        CopsSnowNode::Client(ClientState {
            topo: topo.clone(),
            context: HashMap::new(),
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
            CopsSnowNode::Client(c) => c.completed.get(&id),
            CopsSnowNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            CopsSnowNode::Client(c) => c.completed.remove(&id),
            CopsSnowNode::Server(_) => None,
        }
    }

    fn msg_values(msg: &Msg) -> u32 {
        match msg {
            Msg::RotResp { reads, .. } => crate::common::max_values_per_object(
                reads
                    .iter()
                    .filter(|(_, v, _)| !v.is_bottom())
                    .map(|&(k, _, _)| k),
            ),
            _ => 0,
        }
    }

    fn msg_is_request(msg: &Msg) -> bool {
        matches!(msg, Msg::RotReq { .. } | Msg::PutReq { .. })
    }
}

crate::wire_enum!(Msg as "cops_snow::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => RotReq { id, keys },
    3 => RotResp { id, reads },
    4 => PutReq { id, key, value, deps },
    5 => OldReaderQuery { put, deps },
    6 => OldReaderResp { put, readers },
    7 => PutAck { id, key, ts },
    8 => RetryTick { id, attempt },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Cluster, TxError};
    use cbf_model::ClientId;
    use cbf_sim::MILLIS;

    fn minimal() -> Cluster<CopsSnowNode> {
        Cluster::new(Topology::minimal(4))
    }

    #[test]
    fn rots_are_fast() {
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0)]).unwrap();
        c.write_tx_auto(ClientId(0), &[Key(1)]).unwrap();
        for i in 0..6u32 {
            let r = c.read_tx(ClientId(1 + i % 3), &[Key(0), Key(1)]).unwrap();
            assert!(r.audit.is_fast(), "audit: {:?}", r.audit);
        }
        assert!(c.profile().fast_rots());
        assert!(!c.profile().multi_write_supported);
        assert!(c.check().is_ok());
    }

    #[test]
    fn multi_write_is_rejected() {
        let mut c = minimal();
        let err = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap_err();
        assert_eq!(err, TxError::MultiWriteUnsupported);
    }

    #[test]
    fn old_reader_keeps_seeing_the_old_world() {
        // The signature COPS-SNOW behaviour: a ROT that read old X0 is
        // blacklisted from the dependent new X1.
        let mut c = minimal();
        let writer = ClientId(0);
        let v0_old = c.alloc_value();
        let v1_old = c.alloc_value();
        c.write_tx(writer, &[(Key(0), v0_old)]).unwrap();
        c.write_tx(writer, &[(Key(1), v1_old)]).unwrap();

        // Reader's ROT: the request to p0 is delivered now (reads old
        // X0); the request to p1 is frozen.
        let reader = ClientId(1);
        let rpid = c.topo.client_pid(reader);
        c.world.hold(rpid, ProcessId(1));
        let rot = c.alloc_tx();
        c.world.inject(
            rpid,
            Msg::InvokeRot {
                id: rot,
                keys: vec![Key(0), Key(1)],
            },
        );
        c.world.run_for(MILLIS); // p0 serves (v0_old); records the read

        // Writer (who knows the old X0): new X0, then X1 dep new-X0.
        let v0_new = c.alloc_value();
        let v1_new = c.alloc_value();
        c.write_tx(writer, &[(Key(0), v0_new)]).unwrap();
        c.write_tx(writer, &[(Key(1), v1_new)]).unwrap();

        // Release the frozen request: p1 must serve v1_old to this ROT
        // (v1_new is invisible to it), keeping the snapshot causal.
        c.world.release(rpid, ProcessId(1));
        c.world
            .run_until_within(cbf_sim::SECONDS, |w| w.actor(rpid).completed(rot).is_some());
        let done = c.world.actor_mut(rpid).take_completed(rot).unwrap();
        assert_eq!(done.reads, vec![(Key(0), v0_old), (Key(1), v1_old)]);

        // A fresh ROT sees the new world.
        let fresh = c.read_tx(ClientId(2), &[Key(0), Key(1)]).unwrap();
        assert_eq!(fresh.reads, vec![(Key(0), v0_new), (Key(1), v1_new)]);
    }

    #[test]
    fn blacklist_is_transitive_across_dependency_chains() {
        // reader reads old X0; writer writes X0', then X1 dep X0'; a
        // second writer reads X1 and writes... a chain X0' → X1' → X0''?
        // Here: chain over two keys: X0' then X1'(dep X0'), then another
        // client reads X1' and writes X0''(dep X1'). The old reader of
        // X0 must not see X0'' either — its blacklist propagates through
        // X1'.
        let mut c = minimal();
        let v0_old = c.alloc_value();
        let v1_old = c.alloc_value();
        c.write_tx(ClientId(0), &[(Key(0), v0_old)]).unwrap();
        c.write_tx(ClientId(0), &[(Key(1), v1_old)]).unwrap();

        let reader = ClientId(1);
        let rpid = c.topo.client_pid(reader);
        // Freeze BOTH of the reader's request links; deliver to p0 only.
        c.world.hold(rpid, ProcessId(1));
        let rot = c.alloc_tx();
        c.world.inject(
            rpid,
            Msg::InvokeRot {
                id: rot,
                keys: vec![Key(0), Key(1)],
            },
        );
        c.world.run_for(MILLIS); // p0 served old X0

        // Chain: c0 writes X0'; c2 reads (X0', X1) and writes X1' dep X0';
        // c3 reads X1' and writes X0'' dep X1'.
        let v0_p = c.alloc_value();
        c.write_tx(ClientId(0), &[(Key(0), v0_p)]).unwrap();
        c.read_tx(ClientId(2), &[Key(0)]).unwrap();
        let v1_p = c.alloc_value();
        c.write_tx(ClientId(2), &[(Key(1), v1_p)]).unwrap();
        c.read_tx(ClientId(3), &[Key(1)]).unwrap();
        let v0_pp = c.alloc_value();
        c.write_tx(ClientId(3), &[(Key(0), v0_pp)]).unwrap();

        // The old reader's frozen request to p1 now lands: it must see
        // v1_old (not v1_p which depends on X0').
        c.world.release(rpid, ProcessId(1));
        c.world
            .run_until_within(cbf_sim::SECONDS, |w| w.actor(rpid).completed(rot).is_some());
        let done = c.world.actor_mut(rpid).take_completed(rot).unwrap();
        assert_eq!(done.reads, vec![(Key(0), v0_old), (Key(1), v1_old)]);

        // Everything recorded stays causal.
        assert!(c.check().is_ok(), "{:?}", c.check().violations);
    }

    #[test]
    fn writes_pay_the_latency_of_old_reader_queries() {
        let mut c = minimal();
        // Prime the context so the second write carries a cross-server dep.
        let v0 = c.alloc_value();
        c.write_tx(ClientId(0), &[(Key(0), v0)]).unwrap();
        let w = c.write_tx_auto(ClientId(0), &[Key(1)]).unwrap();
        // One client round...
        assert_eq!(w.audit.rounds, 1);
        // ...but the ack took client→p1 + p1→p0 + p0→p1 + p1→client:
        // 4 one-way hops at 50 µs each.
        assert_eq!(w.audit.latency, 200 * cbf_sim::MICROS);
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
            }
            c.world.run_chaotic(seed, 100_000);
            assert!(c.check().is_ok(), "seed {seed}: {:?}", c.check().violations);
        }
    }
}
