//! The generic deployment facade: build a world for any protocol, issue
//! transactions, collect the history, and audit the fast-ROT properties
//! **from the trace** — the protocol under test cannot vouch for itself.

use crate::common::api::{Completed, ProtocolNode, TxError};
use crate::common::topology::Topology;
use cbf_model::checker::Verdict;
use cbf_model::history::TxRecord;
use cbf_model::{
    check_causal, ClientId, History, Key, PropertyProfile, RotAudit, TxId, Value, WtxAudit,
};
use cbf_sim::{
    LatencyModel, ProcessId, SimConfig, Time, Trace, TraceEvent, TraceView, World, SECONDS,
};
use std::sync::{Arc, OnceLock};

/// Outcome of one read-only transaction.
#[derive(Clone, Debug)]
pub struct RotResult {
    /// `(key, value)` pairs, in request order.
    pub reads: Vec<(Key, Value)>,
    /// Trace-measured fast-ROT accounting.
    pub audit: RotAudit,
    /// The transaction id assigned.
    pub id: TxId,
}

/// Outcome of one write transaction.
#[derive(Clone, Debug)]
pub struct WtxResult {
    /// The values written, as `(key, value)`.
    pub writes: Vec<(Key, Value)>,
    /// Trace-measured accounting.
    pub audit: WtxAudit,
    /// The transaction id assigned.
    pub id: TxId,
}

/// A running deployment of one protocol: the simulated world plus the
/// bookkeeping (history, audits, id/value allocation) shared by tests,
/// benchmarks and the theorem machinery.
///
/// ```
/// use cbf_protocols::{Cluster, Topology};
/// use cbf_protocols::eiger::EigerNode;
/// use cbf_model::{ClientId, Key};
///
/// let mut db: Cluster<EigerNode> = Cluster::new(Topology::minimal(4));
/// let w = db.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
/// let r = db.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
/// assert_eq!(r.reads[0].1, w.writes[0].1);
/// assert!(db.check().is_ok());      // Definition 1, verified
/// assert!(!r.audit.blocked);        // audited from the trace
/// ```
#[derive(Clone)]
pub struct Cluster<N: ProtocolNode> {
    /// The simulated system. Exposed for adversarial manipulation.
    pub world: World<N>,
    /// The deployment layout.
    pub topo: Topology,
    history: SharedHistory,
    profile: PropertyProfile,
    next_tx: u64,
    next_val: u64,
    horizon: Time,
}

impl<N: ProtocolNode> Cluster<N> {
    /// Deploy on the default constant-latency network.
    pub fn new(topo: Topology) -> Self {
        Self::with_network(topo, LatencyModel::constant_default(), SimConfig::default())
    }

    /// Deploy with explicit latency model and simulator configuration.
    pub fn with_network(topo: Topology, latency: LatencyModel, config: SimConfig) -> Self {
        let mut actors = Vec::with_capacity(topo.num_processes());
        for s in topo.servers() {
            actors.push(N::server(&topo, s));
        }
        for c in topo.clients() {
            actors.push(N::client(&topo, c));
        }
        let mut world = World::new(actors, latency, config);
        for s in topo.servers() {
            world.set_label(s, format!("p{}", s.0));
        }
        for c in topo.clients() {
            let cid = topo.client_of(c).unwrap();
            world.set_label(c, format!("c{}", cid.0));
        }
        Cluster {
            world,
            topo,
            history: SharedHistory::default(),
            profile: PropertyProfile::default(),
            next_tx: 0,
            next_val: 1,
            horizon: 60 * SECONDS,
        }
    }

    /// Cap the virtual time one transaction may take before it is
    /// declared [`TxError::Incomplete`].
    pub fn set_horizon(&mut self, horizon: Time) {
        self.horizon = horizon;
    }

    /// Allocate a globally unique value (the checkers require distinct
    /// written values).
    pub fn alloc_value(&mut self) -> Value {
        let v = Value(self.next_val);
        self.next_val += 1;
        v
    }

    /// Allocate a transaction id.
    pub fn alloc_tx(&mut self) -> TxId {
        let id = TxId(self.next_tx);
        self.next_tx += 1;
        id
    }

    /// The history of completed transactions, as the clients saw them.
    pub fn history(&self) -> &History {
        self.history.view()
    }

    /// The aggregated measured properties (one Table 1 row).
    pub fn profile(&self) -> &PropertyProfile {
        &self.profile
    }

    /// Run the causal-consistency checker over everything observed so far.
    pub fn check(&self) -> Verdict {
        check_causal(self.history())
    }

    /// Fork the entire deployment — configuration, history, audits. The
    /// visibility probes of the theorem machinery run on forks. The
    /// history is shared with the original, not copied.
    pub fn fork(&self) -> Self {
        Cluster {
            world: self.world.fork(),
            topo: self.topo.clone(),
            history: self.history.clone(),
            profile: self.profile.clone(),
            next_tx: self.next_tx,
            next_val: self.next_val,
            horizon: self.horizon,
        }
    }

    /// Execute a read-only transaction from `client` and wait for it.
    pub fn read_tx(&mut self, client: ClientId, keys: &[Key]) -> Result<RotResult, TxError> {
        let id = self.alloc_tx();
        let pid = self.topo.client_pid(client);
        let mark = self.world.trace.len();
        let invoked_at = self.world.now();
        self.world.inject(pid, N::rot_invoke(id, keys.to_vec()));
        self.world
            .run_until_within(self.horizon, |w| w.actor(pid).completed(id).is_some());
        let done = self
            .world
            .actor_mut(pid)
            .take_completed(id)
            .ok_or(TxError::Incomplete)?;
        let audit = audit_rot::<N>(&self.world.trace, mark, pid, &self.topo, &done);
        self.profile.record_rot(&audit);
        self.history.push(TxRecord {
            id,
            client,
            reads: done.reads.clone(),
            writes: Vec::new(),
            invoked_at,
            completed_at: done.completed_at,
        });
        Ok(RotResult {
            reads: done.reads,
            audit,
            id,
        })
    }

    /// Execute a write-only transaction from `client` with caller-chosen
    /// values and wait for the ack.
    pub fn write_tx(
        &mut self,
        client: ClientId,
        writes: &[(Key, Value)],
    ) -> Result<WtxResult, TxError> {
        let distinct: std::collections::BTreeSet<Key> = writes.iter().map(|(k, _)| *k).collect();
        if distinct.len() > 1 && !N::SUPPORTS_MULTI_WRITE {
            return Err(TxError::MultiWriteUnsupported);
        }
        let id = self.alloc_tx();
        let pid = self.topo.client_pid(client);
        let mark = self.world.trace.len();
        let invoked_at = self.world.now();
        self.world.inject(pid, N::wtx_invoke(id, writes.to_vec()));
        self.world
            .run_until_within(self.horizon, |w| w.actor(pid).completed(id).is_some());
        let done = self
            .world
            .actor_mut(pid)
            .take_completed(id)
            .ok_or(TxError::Incomplete)?;
        let audit = WtxAudit {
            objects: distinct.len() as u32,
            rounds: count_rounds::<N>(&self.world.trace, mark, pid, &self.topo),
            latency: done.completed_at.saturating_sub(invoked_at),
            visibility_latency: 0,
        };
        self.profile.record_wtx(&audit);
        self.history.push(TxRecord {
            id,
            client,
            reads: Vec::new(),
            writes: writes.to_vec(),
            invoked_at,
            completed_at: done.completed_at,
        });
        Ok(WtxResult {
            writes: writes.to_vec(),
            audit,
            id,
        })
    }

    /// Write-only transaction with freshly allocated distinct values.
    pub fn write_tx_auto(&mut self, client: ClientId, keys: &[Key]) -> Result<WtxResult, TxError> {
        let writes: Vec<(Key, Value)> = keys.iter().map(|&k| (k, self.alloc_value())).collect();
        self.write_tx(client, &writes)
    }

    /// Single-object write (supported by every protocol).
    pub fn write(
        &mut self,
        client: ClientId,
        key: Key,
        value: Value,
    ) -> Result<WtxResult, TxError> {
        self.write_tx(client, &[(key, value)])
    }

    // ------------------------------------------------------------------
    // Concurrent (open-loop) driving
    // ------------------------------------------------------------------
    //
    // `read_tx`/`write_tx` run each transaction to completion before the
    // next is injected, so the deployment only ever sees one transaction
    // in flight — fine for the property audits, useless for measuring
    // contention. The `begin_*`/`finish_tx` triple splits invocation
    // from harvest: a driver begins a whole epoch of transactions (one
    // per issuing client at most — protocol client actors hold one
    // outstanding op), runs the world until all complete, then finishes
    // each. Trace-suffix audits are skipped under concurrency (the
    // suffix interleaves every open transaction); message costs come
    // from world-level counters instead.

    /// Invoke a read-only transaction without running the world.
    pub fn begin_read_tx(&mut self, client: ClientId, keys: &[Key]) -> InFlightTx {
        let id = self.alloc_tx();
        let pid = self.topo.client_pid(client);
        let invoked_at = self.world.now();
        self.world.inject(pid, N::rot_invoke(id, keys.to_vec()));
        InFlightTx {
            id,
            client,
            pid,
            invoked_at,
            writes: Vec::new(),
        }
    }

    /// Invoke a write transaction without running the world. Fresh
    /// distinct values are allocated for the keys.
    pub fn begin_write_tx(
        &mut self,
        client: ClientId,
        keys: &[Key],
    ) -> Result<InFlightTx, TxError> {
        let distinct: std::collections::BTreeSet<Key> = keys.iter().copied().collect();
        if distinct.len() > 1 && !N::SUPPORTS_MULTI_WRITE {
            return Err(TxError::MultiWriteUnsupported);
        }
        let writes: Vec<(Key, Value)> = distinct
            .into_iter()
            .map(|k| (k, self.alloc_value()))
            .collect();
        let id = self.alloc_tx();
        let pid = self.topo.client_pid(client);
        let invoked_at = self.world.now();
        self.world.inject(pid, N::wtx_invoke(id, writes.clone()));
        Ok(InFlightTx {
            id,
            client,
            pid,
            invoked_at,
            writes,
        })
    }

    /// Run the world until every open transaction has completed (or the
    /// horizon passes). Returns true when all completed.
    pub fn run_open(&mut self, open: &[InFlightTx]) -> bool {
        // Completion is monotone while the world runs: a client's
        // `Completed` record is removed only by `take_completed`, which
        // no actor step and no `on_crash` calls. A prefix of `open` seen
        // complete therefore stays complete, and the predicate — asked
        // before every scheduler event — resumes at the first
        // transaction it has not yet seen complete instead of re-walking
        // the list.
        let mut seen_complete = 0;
        let outcome = self.world.run_until_within(self.horizon, |w| {
            let completed = |t: &InFlightTx| w.actor(t.pid).completed(t.id).is_some();
            seen_complete += open[seen_complete..]
                .iter()
                .take_while(|t| completed(t))
                .count();
            if seen_complete < open.len() {
                return false;
            }
            debug_assert!(open.iter().all(completed));
            true
        });
        outcome.is_settled()
    }

    /// Harvest one begun transaction: record it in the history and
    /// return its measured latency (virtual ns).
    pub fn finish_tx(&mut self, t: InFlightTx) -> Result<Time, TxError> {
        let done = self
            .world
            .actor_mut(t.pid)
            .take_completed(t.id)
            .ok_or(TxError::Incomplete)?;
        let latency = done.completed_at.saturating_sub(t.invoked_at);
        self.history.push(TxRecord {
            id: t.id,
            client: t.client,
            reads: done.reads,
            writes: t.writes,
            invoked_at: t.invoked_at,
            completed_at: done.completed_at,
        });
        Ok(latency)
    }
}

/// A transaction invoked via [`Cluster::begin_read_tx`] /
/// [`Cluster::begin_write_tx`] but not yet harvested with
/// [`Cluster::finish_tx`].
#[derive(Clone, Debug)]
pub struct InFlightTx {
    /// The assigned transaction id.
    pub id: TxId,
    /// The issuing client.
    pub client: ClientId,
    /// The client's simulated process.
    pub pid: ProcessId,
    /// Virtual time of invocation.
    pub invoked_at: Time,
    /// The writes (empty for a read-only transaction).
    pub writes: Vec<(Key, Value)>,
}

/// A cluster's history, shared with its forks: an immutable prefix
/// behind an `Arc`, plus the records this copy completed while the
/// prefix was shared. A clone costs a refcount bump and a copy of the
/// tail, so forking a long-running deployment is O(1) in its history.
#[derive(Default)]
struct SharedHistory {
    prefix: Arc<History>,
    tail: Vec<TxRecord>,
    /// `prefix ++ tail`, built on the first read after a push to a
    /// non-empty tail.
    joined: OnceLock<History>,
}

impl SharedHistory {
    /// Append in place when no fork shares the prefix (folding in any
    /// tail left from when one did); otherwise append to the tail.
    fn push(&mut self, tx: TxRecord) {
        self.joined = OnceLock::new();
        match Arc::get_mut(&mut self.prefix) {
            Some(prefix) => {
                for t in self.tail.drain(..) {
                    prefix.push(t);
                }
                prefix.push(tx);
            }
            None => self.tail.push(tx),
        }
    }

    fn view(&self) -> &History {
        if self.tail.is_empty() {
            return &self.prefix;
        }
        self.joined.get_or_init(|| {
            let prefix = self.prefix.transactions().iter();
            prefix.chain(&self.tail).cloned().collect()
        })
    }
}

impl Clone for SharedHistory {
    fn clone(&self) -> Self {
        SharedHistory {
            prefix: Arc::clone(&self.prefix),
            tail: self.tail.clone(),
            joined: OnceLock::new(),
        }
    }
}

/// Count client→server communication rounds since `mark`: the number of
/// distinct client computation steps that emitted at least one
/// transactional request.
pub fn count_rounds<N: ProtocolNode>(
    trace: &Trace<N::Msg>,
    mark: usize,
    client: ProcessId,
    topo: &Topology,
) -> u32 {
    let mut rounds = 0u32;
    // Client steps seen so far, and the one whose requests were last
    // counted (0: none yet), so a step's requests count once.
    let mut client_steps = 0u32;
    let mut counted_step = 0u32;
    for ev in trace.since(mark) {
        match ev {
            TraceEvent::Step { pid, .. } if pid == client => client_steps += 1,
            TraceEvent::Send { from, to, msg, .. }
                if from == client
                    && topo.is_server(to)
                    && N::msg_is_request(msg)
                    && counted_step < client_steps =>
            {
                rounds += 1;
                counted_step = client_steps;
            }
            _ => {}
        }
    }
    rounds
}

/// Audit one read-only transaction from the trace suffix: rounds, server
/// messages, values per message, and server-side blocking.
pub fn audit_rot<N: ProtocolNode>(
    trace: &Trace<N::Msg>,
    mark: usize,
    client: ProcessId,
    topo: &Topology,
    done: &Completed,
) -> RotAudit {
    let events = trace.since(mark);
    let rounds = count_rounds::<N>(trace, mark, client, topo);

    let mut server_msgs = 0u32;
    let mut max_values = 0u32;
    for ev in events {
        if let TraceEvent::Send { from, to, msg, .. } = ev {
            if topo.is_server(from) && to == client {
                server_msgs += 1;
                max_values = max_values.max(N::msg_values(msg));
            }
        }
    }

    RotAudit {
        rounds,
        server_msgs,
        max_values_per_msg: max_values,
        blocked: detect_blocking::<N>(events, client, topo),
        latency: done.completed_at.saturating_sub(done.invoked_at),
    }
}

/// Non-blocking (Definition 4): each server must respond within the
/// computation step that first consumed the client's request. Detected
/// structurally: for every delivered request, find the server's next
/// step; if that step's contiguous sends do not include a message to the
/// client but a later one does, the server deferred — it blocked.
fn detect_blocking<N: ProtocolNode>(
    events: TraceView<'_, N::Msg>,
    client: ProcessId,
    topo: &Topology,
) -> bool {
    // Ids of this client's request messages.
    let request_ids: std::collections::HashSet<cbf_sim::MsgId> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Send {
                id, from, to, msg, ..
            } if from == client && topo.is_server(to) && N::msg_is_request(msg) => Some(id),
            _ => None,
        })
        .collect();

    for (i, ev) in (0..).zip(events) {
        let TraceEvent::Deliver { id, to: server, .. } = ev else {
            continue;
        };
        if !request_ids.contains(&id) {
            continue;
        }
        // First step of this server after the delivery.
        let Some(step_idx) = events
            .slice(i + 1..)
            .iter()
            .position(|e| matches!(e, TraceEvent::Step { pid, .. } if pid == server))
            .map(|off| i + 1 + off)
        else {
            continue; // never stepped again: request unserved, not "blocking"
        };
        // Sends are recorded contiguously after their step.
        let mut responded_in_step = false;
        for e in events.slice(step_idx + 1..) {
            match e {
                TraceEvent::Send { from, to, .. } if from == server => {
                    if to == client {
                        responded_in_step = true;
                    }
                }
                _ => break,
            }
        }
        if responded_in_step {
            continue;
        }
        // Any later message to the client means the response was deferred.
        let responded_later = events.slice(step_idx + 1..).iter().any(
            |e| matches!(e, TraceEvent::Send { from, to, .. } if from == server && to == client),
        );
        if responded_later {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::api::Completed;
    use cbf_sim::{Actor, Ctx};

    /// A scripted protocol for auditing the auditor: reads take
    /// `ROUNDS` client rounds, and servers defer their response by one
    /// step when `DEFER` is set.
    #[derive(Clone)]
    enum Scripted<const ROUNDS: u8, const DEFER: bool> {
        Client {
            topo: Topology,
            round: u8,
            pending: Option<(TxId, Vec<Key>)>,
            completed: Vec<Completed>,
        },
        Server {
            /// A deferred request waiting for the next step.
            parked: Option<(cbf_sim::ProcessId, TxId)>,
        },
    }

    #[derive(Clone, Debug)]
    enum SMsg {
        Invoke { id: TxId, keys: Vec<Key> },
        Req { id: TxId, round: u8 },
        Resp { id: TxId, round: u8 },
        Kick,
    }

    crate::wire_enum!(SMsg as "SMsg" {
        0 => Invoke { id, keys },
        1 => Req { id, round },
        2 => Resp { id, round },
        3 => Kick,
    });

    impl<const ROUNDS: u8, const DEFER: bool> Actor for Scripted<ROUNDS, DEFER> {
        type Msg = SMsg;
        fn step(&mut self, ctx: &mut Ctx<SMsg>) {
            for env in ctx.recv() {
                match (&mut *self, env.msg) {
                    (
                        Scripted::Client {
                            topo,
                            round,
                            pending,
                            ..
                        },
                        SMsg::Invoke { id, keys },
                    ) => {
                        *round = 1;
                        *pending = Some((id, keys));
                        for s in topo.servers() {
                            ctx.send(s, SMsg::Req { id, round: 1 });
                        }
                    }
                    (
                        Scripted::Client {
                            topo,
                            round,
                            pending,
                            completed,
                        },
                        SMsg::Resp { id, round: r },
                        // One response per round suffices (single-server
                        // bookkeeping kept trivial on purpose).
                    ) if r == *round && topo.num_servers == 1 => {
                        if *round < ROUNDS {
                            *round += 1;
                            let rr = *round;
                            for s in topo.servers() {
                                ctx.send(s, SMsg::Req { id, round: rr });
                            }
                        } else if let Some((pid, keys)) = pending.take() {
                            let reads = keys.iter().map(|&k| (k, Value(1))).collect();
                            completed.push(Completed::read(pid, reads, 0, ctx.now()));
                        }
                    }
                    (Scripted::Server { parked }, SMsg::Req { id, round }) => {
                        if DEFER {
                            *parked = Some((env.from, id));
                            // Wake ourselves with a self-message so the
                            // response goes out in a LATER step.
                            ctx.set_timer(1, SMsg::Kick);
                            let _ = round;
                        } else {
                            ctx.send(env.from, SMsg::Resp { id, round });
                        }
                    }
                    (Scripted::Server { parked }, SMsg::Kick) => {
                        if let Some((client, id)) = parked.take() {
                            ctx.send(client, SMsg::Resp { id, round: ROUNDS });
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    impl<const ROUNDS: u8, const DEFER: bool> ProtocolNode for Scripted<ROUNDS, DEFER> {
        const NAME: &'static str = "scripted";
        const CONSISTENCY: cbf_model::ConsistencyLevel = cbf_model::ConsistencyLevel::None;
        const SUPPORTS_MULTI_WRITE: bool = false;

        fn server(_topo: &Topology, _id: ProcessId) -> Self {
            Scripted::Server { parked: None }
        }
        fn client(topo: &Topology, _id: ProcessId) -> Self {
            Scripted::Client {
                topo: topo.clone(),
                round: 0,
                pending: None,
                completed: Vec::new(),
            }
        }
        fn rot_invoke(id: TxId, keys: Vec<Key>) -> SMsg {
            SMsg::Invoke { id, keys }
        }
        fn wtx_invoke(_id: TxId, _writes: Vec<(Key, Value)>) -> SMsg {
            SMsg::Kick
        }
        fn completed(&self, id: TxId) -> Option<&Completed> {
            match self {
                Scripted::Client { completed, .. } => completed.iter().find(|c| c.id == id),
                _ => None,
            }
        }
        fn take_completed(&mut self, id: TxId) -> Option<Completed> {
            match self {
                Scripted::Client { completed, .. } => {
                    let i = completed.iter().position(|c| c.id == id)?;
                    Some(completed.remove(i))
                }
                _ => None,
            }
        }
        fn msg_values(msg: &SMsg) -> u32 {
            match msg {
                SMsg::Resp { .. } => 1,
                _ => 0,
            }
        }
        fn msg_is_request(msg: &SMsg) -> bool {
            matches!(msg, SMsg::Req { .. })
        }
    }

    fn one_server_topo() -> Topology {
        // A single server keeps the scripted round bookkeeping simple.
        let mut t = Topology::minimal(2);
        t.num_servers = 1;
        t.num_keys = 1;
        t
    }

    #[test]
    fn auditor_counts_rounds_exactly() {
        fn rounds_of<const R: u8>() -> u32 {
            let mut c: Cluster<Scripted<R, false>> = Cluster::new(one_server_topo());
            let r = c.read_tx(cbf_model::ClientId(0), &[Key(0)]).unwrap();
            assert!(
                !r.audit.blocked,
                "non-deferring script must audit nonblocking"
            );
            r.audit.rounds
        }
        assert_eq!(rounds_of::<1>(), 1);
        assert_eq!(rounds_of::<2>(), 2);
        assert_eq!(rounds_of::<3>(), 3);
    }

    #[test]
    fn auditor_detects_deferred_responses() {
        let mut c: Cluster<Scripted<1, true>> = Cluster::new(one_server_topo());
        let r = c.read_tx(cbf_model::ClientId(0), &[Key(0)]).unwrap();
        assert!(
            r.audit.blocked,
            "deferring script must audit as blocking: {:?}",
            r.audit
        );
        assert_eq!(r.audit.rounds, 1);
    }

    #[test]
    fn auditor_reports_one_value_messages() {
        let mut c: Cluster<Scripted<1, false>> = Cluster::new(one_server_topo());
        let r = c.read_tx(cbf_model::ClientId(0), &[Key(0)]).unwrap();
        assert_eq!(r.audit.max_values_per_msg, 1);
        assert_eq!(r.audit.server_msgs, 1);
        assert!(r.audit.is_fast());
    }

    /// What the shared-history sweep exercised.
    #[derive(Default)]
    struct Coverage {
        /// Pushes onto a tail because a copy shared the prefix.
        shared_pushes: u32,
        /// In-place pushes that first folded a leftover tail.
        folds: u32,
        /// Forks or clones taken off a copy (forks of forks).
        deep_copies: u32,
    }

    /// Run one transaction on `c` and return the record the history
    /// must gain, built from the result rather than read back.
    fn random_tx<N: ProtocolNode>(c: &mut Cluster<N>, rng: &mut impl rand::Rng) -> TxRecord {
        let client = ClientId(rng.gen_range(0..c.topo.num_clients));
        let invoked_at = c.world.now();
        let (id, reads, writes) = if rng.gen_bool(0.5) {
            let keys = if N::SUPPORTS_MULTI_WRITE && rng.gen_bool(0.5) {
                vec![Key(0), Key(1)]
            } else {
                vec![Key(rng.gen_range(0..2))]
            };
            let w = c.write_tx_auto(client, &keys).unwrap();
            (w.id, Vec::new(), w.writes)
        } else {
            let r = c.read_tx(client, &[Key(0), Key(1)]).unwrap();
            (r.id, r.reads, Vec::new())
        };
        TxRecord {
            id,
            client,
            reads,
            writes,
            invoked_at,
            completed_at: c.world.now(),
        }
    }

    /// One seeded case: random transactions on any live cluster, forks
    /// and clones of any live cluster and drops, each cluster shadowed
    /// by a plain `Vec<TxRecord>` and its copy depth.
    fn shared_history_case<N: ProtocolNode>(seed: u64, cov: &mut Coverage) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: Vec<(Cluster<N>, Vec<TxRecord>, u32)> =
            vec![(Cluster::new(Topology::minimal(4)), Vec::new(), 0)];
        for _ in 0..rng.gen_range(8..40) {
            let i = rng.gen_range(0..live.len());
            let (c, reference, depth) = &mut live[i];
            match rng.gen_range(0..10) {
                0..6 => {
                    let shared = Arc::strong_count(&c.history.prefix) > 1;
                    let had_tail = !c.history.tail.is_empty();
                    reference.push(random_tx(c, &mut rng));
                    // A push lands in place exactly when the prefix is
                    // not shared.
                    assert_eq!(c.history.tail.is_empty(), !shared, "seed {seed}");
                    cov.shared_pushes += shared as u32;
                    cov.folds += (!shared && had_tail) as u32;
                }
                6..8 => {
                    cov.deep_copies += (*depth > 0) as u32;
                    let copy = if rng.gen_bool(0.5) {
                        c.fork()
                    } else {
                        c.clone()
                    };
                    let entry = (copy, reference.clone(), *depth + 1);
                    live.push(entry);
                }
                _ if live.len() > 1 => {
                    live.swap_remove(i);
                }
                _ => {}
            }
            for (c, reference, _) in &live {
                assert_eq!(c.history().transactions(), &reference[..], "seed {seed}");
            }
        }
        for (c, reference, _) in &live {
            let h: History = reference.iter().cloned().collect();
            assert_eq!(c.check(), check_causal(&h), "seed {seed}");
        }

        // With every other copy dropped the prefix is uniquely owned
        // again, so the next push appends in place and leaves no tail.
        live.truncate(1);
        let (mut c, mut reference, _) = live.pop().unwrap();
        assert_eq!(Arc::strong_count(&c.history.prefix), 1, "seed {seed}");
        reference.push(random_tx(&mut c, &mut rng));
        assert!(c.history.tail.is_empty(), "seed {seed}");
        assert_eq!(c.history().transactions(), &reference[..], "seed {seed}");
    }

    #[test]
    fn shared_history_matches_a_plain_vec_per_cluster() {
        let mut cov = Coverage::default();
        for seed in 0..200 {
            shared_history_case::<crate::wren::WrenNode>(seed, &mut cov);
            shared_history_case::<crate::cops::CopsNode>(seed, &mut cov);
        }
        // The sweep reads 3,249 / 194 / 1,103.
        assert!(cov.shared_pushes > 1_000, "{}", cov.shared_pushes);
        assert!(cov.folds > 100, "{}", cov.folds);
        assert!(cov.deep_copies > 500, "{}", cov.deep_copies);
    }
}
