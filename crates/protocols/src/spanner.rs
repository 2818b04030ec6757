//! A Spanner-like protocol [Corbett et al., TOCS 2013]: the R + V + W
//! corner — one-round, one-value reads and multi-object write
//! transactions, paying by **blocking**: servers defer read responses
//! until their safe time passes the read timestamp, and commits wait out
//! the clock-uncertainty bound.
//!
//! Table 1 row: R = 1, V = 1, blocking, W, strict serializability (which
//! implies causal consistency — so the theorem applies, and blocking is
//! the property this design gives up).
//!
//! TrueTime is simulated on virtual time ([`crate::common::TrueTime`]):
//! every process owns a clock with a fixed skew bounded by ε, and the
//! `TT.now()` interval is honest. Substitution note (DESIGN.md): the
//! commit-wait and safe-time logic depend only on the ε bound, which the
//! simulated oracle provides exactly.
//!
//! * **Write transactions**: 2PC. Participants choose prepare timestamps
//!   above their local clock; the coordinator commits at
//!   `s = max(prepare timestamps, TT.now().latest)` and **commit-waits**
//!   until `TT.after(s)` before acking and releasing the commit.
//! * **Read-only transactions**: the client picks
//!   `s_read = TT.now().latest` and reads every key at `s_read` in one
//!   round. A server answers only when its *safe time*
//!   `t_safe = min(local clock, min prepared ts − 1)` has passed
//!   `s_read`; otherwise it parks the read — that is the blocking.

use crate::common::{Completed, MvStore, ProtocolNode, Tally, Topology, TrueTime};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId, Time, MICROS};
use std::collections::{BTreeSet, HashMap};

/// The advertised TrueTime uncertainty bound ε (virtual ns).
pub const EPSILON: u64 = 250 * MICROS;

/// How often a server with parked work re-checks its clock.
const POLL: Time = 20 * MICROS;

/// How long a coordinator waits for a participant's `CommitAck` before
/// re-sending `Commit` (well above one RTT, so fault-free runs never
/// resend). A lost commit would otherwise pin the participant's
/// `prepared` floor and stall `t_safe` forever.
const COMMIT_RESEND: Time = 500 * MICROS;

/// Spanner-like message alphabet.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub enum Msg {
    /// Injection: read-only transaction.
    InvokeRot { id: TxId, keys: Vec<Key> },
    /// Injection: write-only transaction.
    InvokeWtx { id: TxId, writes: Vec<(Key, Value)> },

    /// Client → server: read these keys at timestamp `at` (one round).
    ReadAt { id: TxId, keys: Vec<Key>, at: u64 },
    /// Server → client: one value per key at `at`.
    ReadAtResp {
        id: TxId,
        reads: Vec<(Key, Value, u64)>,
    },

    /// Client → coordinator: run this write-only transaction.
    WtxReq { id: TxId, writes: Vec<(Key, Value)> },
    /// Coordinator → participant: prepare.
    Prepare {
        id: TxId,
        writes: Vec<(Key, Value)>,
        coordinator: ProcessId,
    },
    /// Participant → coordinator: prepared at `ts`.
    PrepareResp { id: TxId, ts: u64 },
    /// Coordinator → participant: commit at `ts` (after commit-wait).
    Commit { id: TxId, ts: u64 },
    /// Participant → coordinator: commit applied (stops the re-drive).
    CommitAck { id: TxId },
    /// Coordinator → client: committed at `ts`.
    WtxAck { id: TxId, ts: u64 },

    /// Timer: re-check parked reads / finish commit-wait.
    Poll,
    /// Self-timer: retry outstanding requests of transaction `id` if it
    /// is still pending (armed only when `Topology::retry_after > 0`).
    RetryTick { id: TxId, attempt: u32 },
}

/// A read parked at a server until its safe time passes `at`.
#[derive(Clone, Debug)]
struct ParkedRead {
    client: ProcessId,
    id: TxId,
    keys: Vec<Key>,
    at: u64,
}

/// Coordinator-side 2PC state: the prepare tally beside its client, and
/// the per-participant writes a client retry re-drives lost `Prepare`s
/// from.
type Coordinated = (Tally, ProcessId, Vec<(ProcessId, Vec<(Key, Value)>)>);

/// A commit decided but still in its commit-wait window, beside its
/// finished prepare tally.
#[derive(Clone, Debug)]
struct WaitingCommit {
    client: ProcessId,
    tally: Tally,
    ts: u64,
}

/// A released commit being re-driven until every participant acks: its
/// tally, restarted to count the commit acks.
#[derive(Clone, Debug)]
struct CommitDrive {
    acks: Tally,
    ts: u64,
    sent_at: Time,
}

/// Spanner-like server.
#[derive(Clone, Debug)]
pub struct ServerState {
    topo: Topology,
    store: MvStore,
    tt: TrueTime,
    /// Highest timestamp used locally (keeps prepare ts monotonic).
    high_water: u64,
    /// Prepared, undecided transactions: tx → (prepare ts, writes).
    prepared: HashMap<TxId, (u64, Vec<(Key, Value)>)>,
    coordinating: HashMap<TxId, Coordinated>,
    commit_waits: HashMap<TxId, WaitingCommit>,
    parked: Vec<ParkedRead>,
    poll_armed: bool,
    /// Participant side: transactions already committed here, with their
    /// commit ts. A re-delivered `Prepare` re-acks from this; a
    /// re-delivered `Commit` is ignored.
    decided: HashMap<TxId, u64>,
    /// Coordinator side: transactions fully acked, for re-acking a
    /// retried `WtxReq` whose ack was lost.
    coord_done: HashMap<TxId, u64>,
    /// Coordinator side: commits released but not yet acked by every
    /// participant; re-driven from the durable decision (as real Spanner
    /// re-drives commits from the Paxos log), because a lost `Commit`
    /// would stall the participant's `t_safe` forever.
    committing: HashMap<TxId, CommitDrive>,
}

/// Spanner-like client: owns a TrueTime clock for read timestamps.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    tt: TrueTime,
    rots: HashMap<TxId, PendingRot>,
    /// In-flight write transactions, kept for resend: `(writes,
    /// invoked_at)`.
    wtxs: HashMap<TxId, (Vec<(Key, Value)>, u64)>,
    completed: HashMap<TxId, Completed>,
}

/// In-flight ROT at the client. The read timestamp is kept so a retried
/// `ReadAt` re-reads at the *same* snapshot (idempotent); the waiting
/// set makes duplicated responses no-ops.
#[derive(Clone, Debug)]
struct PendingRot {
    keys: Vec<Key>,
    at: u64,
    got: HashMap<Key, Value>,
    waiting: BTreeSet<ProcessId>,
    invoked_at: u64,
}

/// A Spanner-like node.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // one node per process; size is fine
pub enum SpannerNode {
    /// A client.
    Client(ClientState),
    /// A server.
    Server(ServerState),
}

impl ServerState {
    /// Safe time: reads at or below this are final here.
    fn t_safe(&self, now: Time) -> u64 {
        let clock = self.tt.local(now);
        let min_prepared = self
            .prepared
            .values()
            .map(|&(ts, _)| ts)
            .min()
            .unwrap_or(u64::MAX);
        clock.min(min_prepared.saturating_sub(1))
    }

    fn arm_poll(&mut self, ctx: &mut Ctx<Msg>) {
        if !self.poll_armed {
            self.poll_armed = true;
            ctx.set_timer(POLL, Msg::Poll);
        }
    }

    /// Serve every parked read whose timestamp is now safe, and release
    /// every commit whose wait has elapsed.
    fn drain(&mut self, ctx: &mut Ctx<Msg>) {
        let now = ctx.now();
        let safe = self.t_safe(now);
        let mut still_parked = Vec::new();
        for r in std::mem::take(&mut self.parked) {
            if r.at <= safe {
                let reads = self.read_at(&r.keys, r.at);
                ctx.send(r.client, Msg::ReadAtResp { id: r.id, reads });
            } else {
                still_parked.push(r);
            }
        }
        self.parked = still_parked;

        let mut ready: Vec<TxId> = self
            .commit_waits
            .iter()
            .filter(|(_, w)| self.tt.after(now, w.ts))
            .map(|(&id, _)| id)
            .collect();
        ready.sort_unstable();
        for id in ready {
            let Some(mut w) = self.commit_waits.remove(&id) else {
                continue;
            };
            for part in w.tally.participants() {
                ctx.send(part, Msg::Commit { id, ts: w.ts });
            }
            w.tally.restart();
            self.committing.insert(
                id,
                CommitDrive {
                    acks: w.tally,
                    ts: w.ts,
                    sent_at: now,
                },
            );
            self.coord_done.insert(id, w.ts);
            ctx.send(w.client, Msg::WtxAck { id, ts: w.ts });
        }

        // Re-drive commits whose acks are overdue (lost in flight).
        let mut overdue: Vec<TxId> = self
            .committing
            .iter()
            .filter(|(_, d)| now.saturating_sub(d.sent_at) >= COMMIT_RESEND)
            .map(|(&id, _)| id)
            .collect();
        overdue.sort_unstable();
        for id in overdue {
            if let Some(d) = self.committing.get_mut(&id) {
                d.sent_at = now;
                for part in d.acks.participants() {
                    if !d.acks.answered(part) {
                        ctx.send(part, Msg::Commit { id, ts: d.ts });
                    }
                }
            }
        }

        self.poll_armed = false;
        if !self.parked.is_empty() || !self.commit_waits.is_empty() || !self.committing.is_empty() {
            self.arm_poll(ctx);
        }
    }

    fn read_at(&self, keys: &[Key], at: u64) -> Vec<(Key, Value, u64)> {
        keys.iter()
            .map(|&k| match self.store.latest_at(k, at) {
                Some(v) => (k, v.value, v.ts),
                None => (k, Value::BOTTOM, 0),
            })
            .collect()
    }
}

impl SpannerNode {
    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id, keys } => {
                    // One round: read everywhere at TT.now().latest.
                    let at = c.tt.now_interval(ctx.now()).1;
                    let groups = c.topo.group_by_primary(&keys);
                    let waiting: BTreeSet<ProcessId> = groups.iter().map(|&(s, _)| s).collect();
                    for (server, ks) in groups {
                        ctx.send(server, Msg::ReadAt { id, keys: ks, at });
                    }
                    c.rots.insert(
                        id,
                        PendingRot {
                            keys,
                            at,
                            got: HashMap::new(),
                            waiting,
                            invoked_at: ctx.now(),
                        },
                    );
                    Self::arm_retry(c, id, 0, ctx);
                }
                Msg::ReadAtResp { id, reads } => {
                    let Some(p) = c.rots.get_mut(&id) else {
                        continue;
                    };
                    // Duplicate (or already-answered retry): ignore.
                    if !p.waiting.remove(&env.from) {
                        continue;
                    }
                    for (k, v, _) in reads {
                        p.got.insert(k, v);
                    }
                    if p.waiting.is_empty() {
                        let Some(p) = c.rots.remove(&id) else {
                            continue;
                        };
                        let reads = p
                            .keys
                            .iter()
                            .map(|&k| (k, p.got.get(&k).copied().unwrap_or(Value::BOTTOM)))
                            .collect();
                        c.completed
                            .insert(id, Completed::read(id, reads, p.invoked_at, ctx.now()));
                    }
                }
                Msg::InvokeWtx { id, writes } => {
                    let coordinator = c.topo.primary(writes[0].0);
                    ctx.send(
                        coordinator,
                        Msg::WtxReq {
                            id,
                            writes: writes.clone(),
                        },
                    );
                    c.wtxs.insert(id, (writes, ctx.now()));
                    Self::arm_retry(c, id, 0, ctx);
                }
                Msg::WtxAck { id, .. } => {
                    // `remove` makes a duplicated ack a no-op.
                    if let Some((_, invoked_at)) = c.wtxs.remove(&id) {
                        c.completed
                            .insert(id, Completed::write(id, invoked_at, ctx.now()));
                    }
                }
                Msg::RetryTick { id, attempt } => {
                    let mut live = false;
                    if let Some(p) = c.rots.get(&id) {
                        live = true;
                        // Re-read at the SAME timestamp: the snapshot is
                        // the transaction's identity, so retries are
                        // idempotent.
                        for (server, ks) in c.topo.group_by_primary(&p.keys) {
                            if p.waiting.contains(&server) {
                                ctx.send(
                                    server,
                                    Msg::ReadAt {
                                        id,
                                        keys: ks,
                                        at: p.at,
                                    },
                                );
                            }
                        }
                    }
                    if let Some((writes, _)) = c.wtxs.get(&id) {
                        live = true;
                        let coordinator = c.topo.primary(writes[0].0);
                        ctx.send(
                            coordinator,
                            Msg::WtxReq {
                                id,
                                writes: writes.clone(),
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

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::Poll => {
                    s.poll_armed = false;
                    s.drain(ctx);
                }
                Msg::ReadAt { id, keys, at } => {
                    if at <= s.t_safe(ctx.now()) {
                        let reads = s.read_at(&keys, at);
                        ctx.send(env.from, Msg::ReadAtResp { id, reads });
                    } else {
                        // Not safe yet: park — this is the blocking.
                        s.parked.push(ParkedRead {
                            client: env.from,
                            id,
                            keys,
                            at,
                        });
                        s.arm_poll(ctx);
                    }
                }
                Msg::WtxReq { id, writes } => {
                    // Idempotence: an already-acked tx re-acks; one still
                    // in 2PC re-drives the outstanding prepares (they or
                    // their responses may have been lost). A crashed
                    // coordinator restarts 2PC from scratch — participant
                    // dedup makes the restart safe.
                    if let Some(&ts) = s.coord_done.get(&id) {
                        ctx.send(env.from, Msg::WtxAck { id, ts });
                        continue;
                    }
                    if s.commit_waits.contains_key(&id) {
                        continue; // decided; ack follows after commit-wait
                    }
                    let me = ctx.me();
                    if let Some((tally, _, groups)) = s.coordinating.get(&id) {
                        for &(server, ref ws) in groups {
                            if !tally.answered(server) {
                                ctx.send(
                                    server,
                                    Msg::Prepare {
                                        id,
                                        writes: ws.clone(),
                                        coordinator: me,
                                    },
                                );
                            }
                        }
                        continue;
                    }
                    let groups = s.topo.group_by_primary(&writes);
                    let tally = Tally::new(groups.iter().map(|&(p, _)| p));
                    s.coordinating.insert(id, (tally, env.from, groups.clone()));
                    for (server, ws) in groups {
                        ctx.send(
                            server,
                            Msg::Prepare {
                                id,
                                writes: ws,
                                coordinator: me,
                            },
                        );
                    }
                }
                Msg::Prepare {
                    id,
                    writes,
                    coordinator,
                } => {
                    // Idempotence: already committed here → re-ack with
                    // the decided ts; still prepared → re-ack the same
                    // prepare ts (never mint a second one).
                    if let Some(&ts) = s.decided.get(&id) {
                        ctx.send(coordinator, Msg::PrepareResp { id, ts });
                        continue;
                    }
                    if let Some(&(ts, _)) = s.prepared.get(&id) {
                        ctx.send(coordinator, Msg::PrepareResp { id, ts });
                        continue;
                    }
                    // Prepare above the local clock and anything used before.
                    let ts = (s.tt.local(ctx.now()) + 1).max(s.high_water + 1);
                    s.high_water = ts;
                    s.prepared.insert(id, (ts, writes));
                    ctx.send(coordinator, Msg::PrepareResp { id, ts });
                }
                Msg::PrepareResp { id, ts } => {
                    let Some((tally, ..)) = s.coordinating.get_mut(&id) else {
                        continue;
                    };
                    if !tally.answer(env.from, ts) {
                        continue;
                    }
                    let Some((tally, client, _)) = s.coordinating.remove(&id) else {
                        continue;
                    };
                    let s_commit = tally
                        .max()
                        .max(s.tt.now_interval(ctx.now()).1)
                        .max(s.high_water + 1);
                    s.high_water = s_commit;
                    // Commit-wait: hold the decision until TT.after(s).
                    s.commit_waits.insert(
                        id,
                        WaitingCommit {
                            client,
                            tally,
                            ts: s_commit,
                        },
                    );
                    s.arm_poll(ctx);
                }
                Msg::Commit { id, ts } => {
                    // Always ack (the previous ack may have been lost),
                    // but a duplicated commit must not re-apply.
                    ctx.send(env.from, Msg::CommitAck { id });
                    if s.decided.contains_key(&id) {
                        continue;
                    }
                    if let Some((_, writes)) = s.prepared.remove(&id) {
                        s.decided.insert(id, ts);
                        s.high_water = s.high_water.max(ts);
                        s.store.commit(id, ts, writes);
                        // Applying a commit may unblock parked reads.
                        s.drain(ctx);
                    }
                }
                Msg::CommitAck { id } => {
                    if let Some(d) = s.committing.get_mut(&id) {
                        if d.acks.answer(env.from, 0) {
                            s.committing.remove(&id);
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

impl Actor for SpannerNode {
    type Msg = Msg;
    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            SpannerNode::Client(c) => Self::client_step(c, ctx),
            SpannerNode::Server(s) => Self::server_step(s, ctx),
        }
    }

    fn on_crash(&mut self) {
        if let SpannerNode::Server(s) = self {
            // In-flight coordination, undelivered commit decisions and
            // parked reads are volatile; the store, the prepare/decide
            // logs and the high-water mark model Paxos-durable state.
            // Liveness is restored by client retry: a re-sent WtxReq
            // restarts 2PC, and participant-side dedup (prepared /
            // decided) keeps the restart idempotent — which also
            // unsticks prepared entries orphaned by a lost commit, so
            // t_safe can advance again.
            s.coordinating.clear();
            s.commit_waits.clear();
            s.parked.clear();
            s.poll_armed = false;
        }
    }
}

impl ProtocolNode for SpannerNode {
    const NAME: &'static str = "Spanner-like";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::StrictSerializable;
    const SUPPORTS_MULTI_WRITE: bool = true;

    fn server(topo: &Topology, id: ProcessId) -> Self {
        let eps = if topo.tuning > 0 {
            topo.tuning
        } else {
            EPSILON
        };
        SpannerNode::Server(ServerState {
            topo: topo.clone(),
            store: MvStore::new(),
            tt: TrueTime::for_node(id.0, eps, 7),
            high_water: 0,
            prepared: HashMap::new(),
            coordinating: HashMap::new(),
            commit_waits: HashMap::new(),
            parked: Vec::new(),
            poll_armed: false,
            decided: HashMap::new(),
            coord_done: HashMap::new(),
            committing: HashMap::new(),
        })
    }

    fn client(topo: &Topology, id: ProcessId) -> Self {
        let eps = if topo.tuning > 0 {
            topo.tuning
        } else {
            EPSILON
        };
        SpannerNode::Client(ClientState {
            topo: topo.clone(),
            tt: TrueTime::for_node(id.0, eps, 7),
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
            SpannerNode::Client(c) => c.completed.get(&id),
            SpannerNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            SpannerNode::Client(c) => c.completed.remove(&id),
            SpannerNode::Server(_) => None,
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

crate::wire_enum!(Msg as "spanner::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => ReadAt { id, keys, at },
    3 => ReadAtResp { id, reads },
    4 => WtxReq { id, writes },
    5 => Prepare { id, writes, coordinator },
    6 => PrepareResp { id, ts },
    7 => Commit { id, ts },
    8 => CommitAck { id },
    9 => WtxAck { id, ts },
    10 => Poll,
    11 => RetryTick { id, attempt },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Cluster;
    use cbf_model::ClientId;

    fn minimal() -> Cluster<SpannerNode> {
        Cluster::new(Topology::minimal(4))
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut c = minimal();
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads[0].1, w.writes[0].1);
        assert_eq!(r.reads[1].1, w.writes[1].1);
        assert!(c.check().is_ok());
    }

    #[test]
    fn reads_are_one_round_one_value() {
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.audit.rounds, 1, "audit: {:?}", r.audit);
        assert!(r.audit.max_values_per_msg <= 1);
    }

    #[test]
    fn reads_block_on_safe_time() {
        // A fresh read at TT.now().latest is ahead of the server's safe
        // time (clock skews), so the server must park it: blocking.
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        let mut saw_blocking = false;
        for i in 0..6u32 {
            let r = c.read_tx(ClientId(1 + i % 3), &[Key(0), Key(1)]).unwrap();
            saw_blocking |= r.audit.blocked;
        }
        assert!(
            saw_blocking,
            "expected at least one parked read; profile: {:?}",
            c.profile()
        );
        assert!(c.profile().any_blocking);
    }

    #[test]
    fn commit_wait_delays_the_ack_by_epsilon() {
        let mut c = minimal();
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        // The ack cannot arrive before one ε of commit-wait (plus RTTs).
        assert!(
            w.audit.latency >= EPSILON,
            "latency {} < ε {}",
            w.audit.latency,
            EPSILON
        );
    }

    #[test]
    fn concurrent_writes_and_reads_stay_strictly_consistent() {
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
            // Strict serializability implies causal consistency and
            // read atomicity.
            assert!(c.check().is_ok(), "seed {seed}: {:?}", c.check().violations);
            assert!(cbf_model::check_read_atomicity(c.history()).is_empty());
            assert!(cbf_model::check_monotonic_reads(c.history()).is_empty());
        }
    }

    #[test]
    fn profile_reports_w_and_blocking_without_extra_rounds() {
        let mut c = minimal();
        for i in 0..8u32 {
            c.write_tx_auto(ClientId(i % 2), &[Key(0), Key(1)]).unwrap();
            c.read_tx(ClientId(2 + i % 2), &[Key(0), Key(1)]).unwrap();
        }
        let p = c.profile();
        assert!(p.one_round());
        assert!(p.one_value());
        assert!(p.multi_write_supported);
        // The theorem says something must give: here it is N.
        assert!(p.any_blocking);
        assert!(!p.claims_the_impossible());
    }
}
