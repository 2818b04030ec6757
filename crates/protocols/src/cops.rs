//! COPS-GT [Lloyd et al., SOSP 2011]: causal consistency with
//! dependency-tracked single-key writes and up-to-two-round read-only
//! transactions.
//!
//! Table 1 row: R ≤ 2, V ≤ 2, non-blocking, **no** multi-object write
//! transactions, causal consistency.
//!
//! Shape of the protocol (as relevant to the theorem):
//!
//! * every client carries a *dependency context* — the latest version it
//!   has observed per object;
//! * a `put` ships the context with the value; the server stores the
//!   version with its dependencies;
//! * a read-only transaction optimistically fetches the latest version of
//!   every key (round 1), computes the *causally correct version* cut
//!   from the returned dependencies, and — only when the optimistic
//!   result is causally torn — fetches the exact dependency versions in a
//!   second round. Both rounds answer from already-stored versions, so no
//!   server ever blocks.
//!
//! Substitution note (see DESIGN.md): real COPS is geo-replicated; this
//! implementation shards without replication, which preserves exactly the
//! message pattern (rounds, values, blocking) the theorem is about.

use crate::common::{Completed, LamportClock, MvStore, ProtocolNode, Topology, Version};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId};
use std::collections::{BTreeSet, HashMap};

/// A dependency: the client observed version `ts` of `key`.
pub type Dep = (Key, u64);

/// One item of a read response.
#[derive(Clone, Debug)]
pub struct Item {
    /// The object.
    pub key: Key,
    /// Its value (`⊥` if never written).
    pub value: Value,
    /// Version timestamp (0 for `⊥`).
    pub ts: u64,
    /// The version's stored dependencies (metadata, not values).
    pub deps: Vec<Dep>,
}

/// COPS message alphabet.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub enum Msg {
    /// Injection: read-only transaction.
    InvokeRot { id: TxId, keys: Vec<Key> },
    /// Injection: write transaction (single-object only).
    InvokeWtx { id: TxId, writes: Vec<(Key, Value)> },
    /// Client → server: dependency-tracked single-key put.
    PutReq {
        id: TxId,
        key: Key,
        value: Value,
        deps: Vec<Dep>,
    },
    /// Server → client: put applied at version `ts`.
    PutAck { id: TxId, key: Key, ts: u64 },
    /// Client → server: optimistic read of these keys (round 1).
    GetReq { id: TxId, keys: Vec<Key> },
    /// Server → client: latest versions (round 1 response).
    GetResp { id: TxId, items: Vec<Item> },
    /// Client → server: fetch the exact version `ts` of `key` (round 2).
    GetExactReq { id: TxId, key: Key, ts: u64 },
    /// Server → client: the exact version.
    GetExactResp {
        id: TxId,
        key: Key,
        value: Value,
        ts: u64,
    },
    /// Self-timer: retry outstanding requests of transaction `id` if it
    /// is still pending (armed only when `Topology::retry_after > 0`).
    RetryTick { id: TxId, attempt: u32 },
}

/// In-flight ROT state at the client.
///
/// Waiting *sets* (rather than counters) make response handling
/// idempotent: a duplicated or retried-then-both-delivered response is
/// recognised and dropped instead of double-decrementing a counter.
#[derive(Clone, Debug)]
struct PendingRot {
    keys: Vec<Key>,
    got: HashMap<Key, (Value, u64)>,
    /// The stored dependencies of each version round 1 returned.
    deps_seen: Vec<Vec<Dep>>,
    /// Servers whose round-1 response is still outstanding.
    round1_waiting: BTreeSet<ProcessId>,
    /// Keys whose round-2 exact fetch is still outstanding.
    round2_waiting: BTreeSet<Key>,
    /// The exact version each round-2 key needs (kept for resend).
    round2_need: HashMap<Key, u64>,
    invoked_at: u64,
}

/// In-flight put state at the client (kept until acked, for resend).
#[derive(Clone, Debug)]
struct PendingWrite {
    key: Key,
    value: Value,
    deps: Vec<Dep>,
    invoked_at: u64,
}

/// COPS client: dependency context plus in-flight transactions.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    /// Latest observed version per key (the COPS "context").
    context: HashMap<Key, u64>,
    rots: HashMap<TxId, PendingRot>,
    puts: HashMap<TxId, PendingWrite>,
    completed: HashMap<TxId, Completed>,
}

/// COPS server: a multi-version store with per-version dependencies.
#[derive(Clone, Debug)]
pub struct ServerState {
    store: MvStore,
    /// Dependencies per (key, ts).
    deps: HashMap<(Key, u64), Vec<Dep>>,
    clock: LamportClock,
    /// Transactions already applied: `tx → (key, ts)`. A re-delivered
    /// `PutReq` (duplicate or client retry racing the ack) is answered
    /// from here instead of creating a second version.
    applied: HashMap<TxId, (Key, u64)>,
}

/// A COPS node.
#[derive(Clone, Debug)]
pub enum CopsNode {
    /// A client.
    Client(ClientState),
    /// A server.
    Server(ServerState),
}

impl CopsNode {
    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id, keys } => {
                    let groups = c.topo.group_by_primary(&keys);
                    let round1_waiting: BTreeSet<ProcessId> =
                        groups.iter().map(|&(s, _)| s).collect();
                    for (server, ks) in groups {
                        ctx.send(server, Msg::GetReq { id, keys: ks });
                    }
                    c.rots.insert(
                        id,
                        PendingRot {
                            keys,
                            got: HashMap::new(),
                            deps_seen: Vec::new(),
                            round1_waiting,
                            round2_waiting: BTreeSet::new(),
                            round2_need: HashMap::new(),
                            invoked_at: ctx.now(),
                        },
                    );
                    Self::arm_retry(c, id, 0, ctx);
                }
                Msg::InvokeWtx { id, writes } => {
                    // COPS supports only single-object writes; the Cluster
                    // facade rejects multi-writes before injection.
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
                Msg::PutAck { id, key, ts } => {
                    // `remove` makes a duplicated ack a no-op.
                    if let Some(pw) = c.puts.remove(&id) {
                        let slot = c.context.entry(key).or_insert(0);
                        *slot = (*slot).max(ts);
                        c.completed
                            .insert(id, Completed::write(id, pw.invoked_at, ctx.now()));
                    }
                }
                Msg::GetResp { id, items } => {
                    let Some(p) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    // Duplicate (or already-answered retry): ignore whole
                    // response so round-1 state is touched exactly once
                    // per server.
                    if !p.round1_waiting.remove(&env.from) {
                        continue;
                    }
                    for it in items {
                        p.got.insert(it.key, (it.value, it.ts));
                        p.deps_seen.push(it.deps);
                    }
                    if p.round1_waiting.is_empty() {
                        Self::finish_round_one(c, id, ctx);
                    }
                }
                Msg::GetExactResp { id, key, value, ts } => {
                    let Some(p) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    if !p.round2_waiting.remove(&key) {
                        continue;
                    }
                    p.got.insert(key, (value, ts));
                    if p.round1_waiting.is_empty() && p.round2_waiting.is_empty() {
                        Self::complete_rot(c, id, ctx.now());
                    }
                }
                Msg::RetryTick { id, attempt } => {
                    let mut live = false;
                    if let Some(p) = c.rots.get(&id) {
                        live = true;
                        if !p.round1_waiting.is_empty() {
                            for (server, ks) in c.topo.group_by_primary(&p.keys) {
                                if p.round1_waiting.contains(&server) {
                                    ctx.send(server, Msg::GetReq { id, keys: ks });
                                }
                            }
                        } else {
                            for &key in &p.round2_waiting {
                                let ts = p.round2_need.get(&key).copied().unwrap_or(0);
                                ctx.send(c.topo.primary(key), Msg::GetExactReq { id, key, ts });
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
        if let Some(delay) = c.topo.retry_delay(attempt) {
            ctx.set_timer(delay, Msg::RetryTick { id, attempt });
        }
    }

    /// After all round-1 responses: compute the causally-correct-version
    /// cut; fetch exact versions where the optimistic read is torn.
    fn finish_round_one(c: &mut ClientState, id: TxId, ctx: &mut Ctx<Msg>) {
        let Some(p) = c.rots.get_mut(&id) else {
            return;
        };
        let refetch = torn_reads(&p.keys, &p.got, &p.deps_seen, &c.context);
        if refetch.is_empty() {
            Self::complete_rot(c, id, ctx.now());
            return;
        }
        p.round2_waiting = refetch.iter().map(|&(k, _)| k).collect();
        p.round2_need = refetch.iter().copied().collect();
        for (key, ts) in refetch {
            ctx.send(c.topo.primary(key), Msg::GetExactReq { id, key, ts });
        }
    }

    fn complete_rot(c: &mut ClientState, id: TxId, now: u64) {
        let Some(p) = c.rots.remove(&id) else {
            return;
        };
        let mut reads: Vec<(Key, Value)> = Vec::with_capacity(p.keys.len());
        for &k in &p.keys {
            let (v, ts) = p.got.get(&k).copied().unwrap_or((Value::BOTTOM, 0));
            reads.push((k, v));
            if ts > 0 {
                let slot = c.context.entry(k).or_insert(0);
                *slot = (*slot).max(ts);
            }
        }
        c.completed
            .insert(id, Completed::read(id, reads, p.invoked_at, now));
    }

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::PutReq {
                    id,
                    key,
                    value,
                    deps,
                } => {
                    // Idempotence: a re-delivered put (duplicate or retry)
                    // re-acks the already-applied version instead of
                    // minting a second one.
                    if let Some(&(k, ts)) = s.applied.get(&id) {
                        ctx.send(env.from, Msg::PutAck { id, key: k, ts });
                        continue;
                    }
                    for &(_, t) in &deps {
                        s.clock.witness(t);
                    }
                    let ts = s.clock.tick();
                    s.store.insert(key, Version { value, ts, tx: id });
                    s.deps.insert((key, ts), deps);
                    s.applied.insert(id, (key, ts));
                    ctx.send(env.from, Msg::PutAck { id, key, ts });
                }
                Msg::GetReq { id, keys } => {
                    let items: Vec<Item> = keys
                        .iter()
                        .map(|&k| match s.store.latest(k) {
                            Some(v) => Item {
                                key: k,
                                value: v.value,
                                ts: v.ts,
                                deps: s.deps.get(&(k, v.ts)).cloned().unwrap_or_default(),
                            },
                            None => Item {
                                key: k,
                                value: Value::BOTTOM,
                                ts: 0,
                                deps: Vec::new(),
                            },
                        })
                        .collect();
                    ctx.send(env.from, Msg::GetResp { id, items });
                }
                Msg::GetExactReq { id, key, ts } => {
                    // The requested version is a dependency some client
                    // observed, so it was acked and exists here. Under
                    // fault injection we still answer defensively: the
                    // newest version at-or-before `ts` is the causally
                    // closest substitute if the exact one is missing.
                    let (value, ts) = match s.store.at_exact(key, ts) {
                        Some(v) => (v.value, v.ts),
                        None => s
                            .store
                            .latest_at(key, ts)
                            .map_or((Value::BOTTOM, 0), |v| (v.value, v.ts)),
                    };
                    ctx.send(env.from, Msg::GetExactResp { id, key, value, ts });
                }
                _ => {}
            }
        }
    }
}

/// The round-2 fetch list of a ROT, in request order: each requested key
/// whose causally correct version — the newest one required by the
/// client's own context or by the dependencies of anything round 1
/// returned — is newer than the version round 1 returned for it.
///
/// Computed per requested key, so a ROT costs O(|keys| · |returned
/// deps|) however many keys the client's context has accumulated.
fn torn_reads(
    keys: &[Key],
    got: &HashMap<Key, (Value, u64)>,
    deps_seen: &[Vec<Dep>],
    context: &HashMap<Key, u64>,
) -> Vec<(Key, u64)> {
    let mut refetch = Vec::new();
    for &k in keys {
        let have = got.get(&k).map_or(0, |&(_, ts)| ts);
        let need = deps_seen
            .iter()
            .flatten()
            .filter(|&&(dep_key, _)| dep_key == k)
            .map(|&(_, ts)| ts)
            .fold(context.get(&k).copied().unwrap_or(0), u64::max);
        if need > have {
            refetch.push((k, need));
        }
    }
    refetch
}

impl Actor for CopsNode {
    type Msg = Msg;
    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            CopsNode::Client(c) => Self::client_step(c, ctx),
            CopsNode::Server(s) => Self::server_step(s, ctx),
        }
    }
}

impl ProtocolNode for CopsNode {
    const NAME: &'static str = "COPS";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = false;

    fn server(_topo: &Topology, id: ProcessId) -> Self {
        CopsNode::Server(ServerState {
            store: MvStore::new(),
            deps: HashMap::new(),
            clock: LamportClock::new(id.0 as u8),
            applied: HashMap::new(),
        })
    }

    fn client(topo: &Topology, _id: ProcessId) -> Self {
        CopsNode::Client(ClientState {
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
            CopsNode::Client(c) => c.completed.get(&id),
            CopsNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            CopsNode::Client(c) => c.completed.remove(&id),
            CopsNode::Server(_) => None,
        }
    }

    fn msg_values(msg: &Msg) -> u32 {
        match msg {
            Msg::GetResp { items, .. } => crate::common::max_values_per_object(
                items
                    .iter()
                    .filter(|it| !it.value.is_bottom())
                    .map(|it| it.key),
            ),
            Msg::GetExactResp { .. } => 1,
            _ => 0,
        }
    }

    fn msg_is_request(msg: &Msg) -> bool {
        matches!(
            msg,
            Msg::GetReq { .. } | Msg::GetExactReq { .. } | Msg::PutReq { .. }
        )
    }
}

crate::wire_struct!(Item {
    key,
    value,
    ts,
    deps
});

crate::wire_enum!(Msg as "cops::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => PutReq { id, key, value, deps },
    3 => PutAck { id, key, ts },
    4 => GetReq { id, keys },
    5 => GetResp { id, items },
    6 => GetExactReq { id, key, ts },
    7 => GetExactResp { id, key, value, ts },
    8 => RetryTick { id, attempt },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Cluster, TxError};
    use cbf_model::ClientId;

    fn minimal() -> Cluster<CopsNode> {
        Cluster::new(Topology::minimal(4))
    }

    /// The cut as it was computed before it was cut down to the requested
    /// keys: build the causally-correct-version map over *everything*
    /// seen — every returned dependency and the client's whole context —
    /// then look the requested keys up in it. Kept as the reference
    /// [`torn_reads`] is tested against.
    fn torn_reads_full_context(
        keys: &[Key],
        got: &HashMap<Key, (Value, u64)>,
        deps_seen: &[Vec<Dep>],
        context: &HashMap<Key, u64>,
    ) -> Vec<(Key, u64)> {
        let mut ccv: HashMap<Key, u64> = HashMap::new();
        for deps in deps_seen {
            for &(k, t) in deps {
                let slot = ccv.entry(k).or_insert(0);
                *slot = (*slot).max(t);
            }
        }
        for (&k, &t) in context {
            let slot = ccv.entry(k).or_insert(0);
            *slot = (*slot).max(t);
        }
        let mut refetch: Vec<(Key, u64)> = Vec::new();
        for &k in keys {
            let have = got.get(&k).map_or(0, |&(_, ts)| ts);
            if let Some(&need) = ccv.get(&k) {
                if need > have {
                    refetch.push((k, need));
                }
            }
        }
        refetch
    }

    #[test]
    fn per_key_cut_matches_the_full_context_cut() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut torn = 0usize;
        let mut clean = 0usize;
        for seed in 0..2_000u64 {
            let mut rng = StdRng::seed_from_u64(0xC0B5 ^ seed);
            // Few keys and small timestamps: collisions between the
            // context, the returned versions and their deps are the
            // common case, in every order (dep newer than, equal to and
            // older than the returned version; context likewise).
            let num_keys = rng.gen_range(1..12u32);
            let max_ts = rng.gen_range(1..9u64);
            let context: HashMap<Key, u64> = (0..rng.gen_range(0..num_keys + 1))
                .map(|_| (Key(rng.gen_range(0..num_keys)), rng.gen_range(0..max_ts)))
                .collect();
            // Requested keys: duplicates allowed, some outside the context.
            let keys: Vec<Key> = (0..rng.gen_range(1..5usize))
                .map(|_| Key(rng.gen_range(0..num_keys)))
                .collect();
            let mut got = HashMap::new();
            let mut deps_seen = Vec::new();
            for &k in &keys {
                // ts = 0 is the `⊥` item a never-written key returns.
                let ts = rng.gen_range(0..max_ts);
                let deps: Vec<Dep> = (0..if ts == 0 { 0 } else { rng.gen_range(0..6usize) })
                    .map(|_| {
                        (
                            Key(rng.gen_range(0..num_keys)),
                            rng.gen_range(0..max_ts + 2),
                        )
                    })
                    .collect();
                got.insert(k, (Value(ts), ts));
                deps_seen.push(deps);
            }
            // A server that never answered leaves its keys out of `got`.
            if rng.gen_bool(0.1) {
                got.remove(&keys[0]);
            }

            let cut = torn_reads(&keys, &got, &deps_seen, &context);
            let reference = torn_reads_full_context(&keys, &got, &deps_seen, &context);
            assert_eq!(cut, reference, "seed {seed}: keys {keys:?}");
            if cut.is_empty() {
                clean += 1;
            } else {
                torn += 1;
            }
        }
        // The sweep exercises both outcomes, not one of them 2,000 times.
        assert!(torn > 200 && clean > 200, "torn {torn}, clean {clean}");
    }

    #[test]
    fn multi_write_is_rejected() {
        let mut c = minimal();
        let err = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap_err();
        assert_eq!(err, TxError::MultiWriteUnsupported);
    }

    #[test]
    fn single_writes_and_one_round_reads() {
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0)]).unwrap();
        c.write_tx_auto(ClientId(0), &[Key(1)]).unwrap();
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        // Quiescent system: the optimistic round suffices.
        assert_eq!(r.audit.rounds, 1);
        assert!(!r.audit.blocked);
        assert!(c.check().is_ok());
    }

    #[test]
    fn torn_read_takes_a_second_round() {
        // Build a torn situation: the reader's optimistic request to p0
        // is served with the old X0, then the writer's dependent put
        // lands on p1 before the reader's request to p1 is delivered.
        let mut c = minimal();
        let writer = ClientId(0);
        let v_old = c.alloc_value();
        c.write_tx(writer, &[(Key(0), v_old)]).unwrap();

        let reader = ClientId(1);
        let rpid = c.topo.client_pid(reader);
        c.world.hold(rpid, ProcessId(1));
        let id = c.alloc_tx();
        c.world.inject(
            rpid,
            Msg::InvokeRot {
                id,
                keys: vec![Key(0), Key(1)],
            },
        );
        c.world.run_for(cbf_sim::MILLIS); // p0 answers; p1 request frozen

        // Writer: new X0, then X1 depending on it.
        let v0_new = c.alloc_value();
        let v1_new = c.alloc_value();
        c.write_tx(writer, &[(Key(0), v0_new)]).unwrap();
        c.write_tx(writer, &[(Key(1), v1_new)]).unwrap();

        // Release: p1 returns X1=new with dep X0@new → second round.
        c.world.release(rpid, ProcessId(1));
        c.world
            .run_until_within(cbf_sim::SECONDS, |w| w.actor(rpid).completed(id).is_some());
        let done = c.world.actor_mut(rpid).take_completed(id).unwrap();
        // The reader must see the new X0 (fetched in round 2), not v_old.
        assert_eq!(done.reads, vec![(Key(0), v0_new), (Key(1), v1_new)]);
    }

    #[test]
    fn context_gives_read_your_writes() {
        let mut c = minimal();
        let v = c.alloc_value();
        c.write_tx(ClientId(2), &[(Key(0), v)]).unwrap();
        let r = c.read_tx(ClientId(2), &[Key(0)]).unwrap();
        assert_eq!(r.reads, vec![(Key(0), v)]);
        assert!(cbf_model::check_read_your_writes(c.history()).is_empty());
    }

    #[test]
    fn history_is_causal_under_chaotic_schedules() {
        // Issue a mixed workload, then let the chaotic scheduler deliver
        // in random orders; the completed history must stay causal.
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

    #[test]
    fn profile_shows_no_write_tx_and_at_most_two_rounds() {
        let mut c = minimal();
        for i in 0..8u32 {
            c.write_tx_auto(ClientId(i % 2), &[Key(i % 2)]).unwrap();
            c.read_tx(ClientId(2 + (i % 2)), &[Key(0), Key(1)]).unwrap();
        }
        let p = c.profile();
        assert!(p.max_rounds <= 2, "rounds {}", p.max_rounds);
        assert!(!p.multi_write_supported);
        assert!(p.nonblocking());
    }
}
