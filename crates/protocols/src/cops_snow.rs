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
//!
//! A server holds every set of ROTs as a sparse bitset keyed by the ROT
//! id itself (`ReaderSet`): sorted `(id / 64, word)` blocks. The
//! transitive union is a merge of two block lists, a set iterates in
//! ascending id order — which is the order the wire ships — and an
//! arriving id list merges in without hashing. The blacklists are
//! ordered by `(key, version)`, so `old_readers` visits only the
//! versions `≤ ts` of the dependency's key.

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
    invisible_to: ReaderSet,
}

/// A set of ROTs as a sparse bitset over their ids: `(id / 64, word)`
/// blocks, strictly ascending by block, with no zero word. Bit `b` of
/// block `(hi, word)` stands for `TxId(hi * 64 + b)`, so any id — even
/// `TxId(u64::MAX)` — costs at most one 16-byte block.
#[derive(Clone, Debug, Default)]
struct ReaderSet(Vec<(u64, u64)>);

impl ReaderSet {
    /// The index of block `hi` when it sits at its offset from the first
    /// block, as every block does while the blocks run consecutively:
    /// the O(1) lookup that spares the common case a search or a merge.
    fn at_offset(&self, hi: u64) -> Option<usize> {
        let first = self.0.first()?.0;
        let i = usize::try_from(hi.wrapping_sub(first)).ok()?;
        (self.0.get(i)?.0 == hi).then_some(i)
    }

    /// The index of block `hi`, or where it would be inserted.
    fn find(&self, hi: u64) -> Result<usize, usize> {
        match self.at_offset(hi) {
            Some(i) => Ok(i),
            None => self.0.binary_search_by_key(&hi, |&(b, _)| b),
        }
    }

    fn insert(&mut self, rot: TxId) {
        let (hi, bit) = (rot.0 / 64, 1 << (rot.0 % 64));
        match self.find(hi) {
            Ok(i) => self.0[i].1 |= bit,
            Err(i) => self.0.insert(i, (hi, bit)),
        }
    }

    fn contains(&self, rot: TxId) -> bool {
        self.find(rot.0 / 64)
            .is_ok_and(|i| self.0[i].1 >> (rot.0 % 64) & 1 == 1)
    }

    /// `self ∪= other`, in place. When every block of `other` is already
    /// at its offset in `self`, OR them in. Otherwise count the blocks
    /// `self` lacks, grow by that many, and merge from the back so every
    /// block moves at most once. A union that adds no block allocates
    /// nothing.
    fn union_with(&mut self, other: &ReaderSet) {
        if other.0.iter().all(|&(hi, _)| self.at_offset(hi).is_some()) {
            for &(hi, word) in &other.0 {
                if let Some(i) = self.at_offset(hi) {
                    self.0[i].1 |= word;
                }
            }
            return;
        }
        let a = &mut self.0;
        let mut missing = 0;
        let mut i = 0;
        for &(hi, _) in &other.0 {
            while i < a.len() && a[i].0 < hi {
                i += 1;
            }
            missing += usize::from(i == a.len() || a[i].0 != hi);
        }
        let (mut i, mut k) = (a.len(), a.len() + missing);
        a.resize(k, (0, 0));
        for &(hi, word) in other.0.iter().rev() {
            while i > 0 && a[i - 1].0 > hi {
                i -= 1;
                k -= 1;
                a[k] = a[i];
            }
            k -= 1;
            if i > 0 && a[i - 1].0 == hi {
                i -= 1;
                a[k] = (hi, a[i].1 | word);
            } else {
                a[k] = (hi, word);
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The ids in the set, ascending.
    fn iter(&self) -> impl Iterator<Item = TxId> + '_ {
        self.0.iter().flat_map(|&(hi, word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = u64::from(rest.trailing_zeros());
                    rest &= rest - 1;
                    TxId(hi * 64 + bit)
                })
            })
        })
    }
}

impl FromIterator<TxId> for ReaderSet {
    fn from_iter<I: IntoIterator<Item = TxId>>(ids: I) -> Self {
        let mut set = ReaderSet::default();
        for rot in ids {
            set.insert(rot);
        }
        set
    }
}

/// COPS-SNOW server.
#[derive(Clone, Debug)]
pub struct ServerState {
    topo: Topology,
    store: MvStore,
    clock: LamportClock,
    /// Versions inserted but not yet visible (old-reader queries pending).
    pending_visible: HashSet<(Key, u64)>,
    /// Per visible version, in `(key, version)` order: the ROTs it is
    /// hidden from.
    invisible: BTreeMap<(Key, u64), ReaderSet>,
    /// ROT read log: per key, `(rot, version read)`.
    readers: HashMap<Key, Vec<(TxId, u64)>>,
    /// Puts awaiting old-reader responses.
    pending_puts: HashMap<TxId, PendingPut>,
    /// Puts already made visible: `tx → (key, ts)`. A re-delivered
    /// `PutReq` (duplicate or client retry racing the ack) re-acks from
    /// here instead of minting a second version.
    done_puts: HashMap<TxId, (Key, u64)>,
}

impl ServerState {
    /// Add the old readers of dependency `(key, ts)` to `out`: ROTs that
    /// read below `ts`, plus ROTs blacklisted on any version `≤ ts`
    /// (transitivity).
    fn old_readers(&self, key: Key, ts: u64, out: &mut ReaderSet) {
        for &(rot, read_ts) in self.readers.get(&key).into_iter().flatten() {
            if read_ts < ts {
                out.insert(rot);
            }
        }
        for rots in self.invisible.range((key, 0)..=(key, ts)).map(|(_, r)| r) {
            out.union_with(rots);
        }
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
                        .is_some_and(|s| s.contains(rot))
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
            let mut set = p.invisible_to;
            // Held until the end of the run: drop the merges' slack.
            set.0.shrink_to_fit();
            self.invisible.insert((p.key, p.ts), set);
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
                    let mut invisible_to = ReaderSet::default();
                    let mut remote: BTreeMap<ProcessId, Vec<Dep>> = Default::default();
                    for &(dk, dts) in &deps {
                        let home = s.topo.primary(dk);
                        if home == ctx.me() {
                            s.old_readers(dk, dts, &mut invisible_to);
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
                    let mut set = ReaderSet::default();
                    for (dk, dts) in deps {
                        s.old_readers(dk, dts, &mut set);
                    }
                    let readers = set.iter().collect();
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
                        p.invisible_to.union_with(&readers.into_iter().collect());
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
            invisible: BTreeMap::new(),
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

    /// A server's ROT-id sets as they were held before the bitsets:
    /// `HashSet<TxId>` throughout. The differential test keeps one beside
    /// the real server and updates it from the messages alone.
    #[derive(Default)]
    struct Reference {
        readers: HashMap<Key, Vec<(TxId, u64)>>,
        invisible: HashMap<(Key, u64), HashSet<TxId>>,
        /// Per pending put, its blacklist so far.
        invisible_to: HashMap<TxId, HashSet<TxId>>,
    }

    impl Reference {
        /// `old_readers` as it was: a fresh `HashSet` per call over the
        /// read log and every blacklist on a version `≤ ts`. Kept as the
        /// reference the bitsets are tested against.
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

        /// `serve` as it was, over the real server's store.
        fn serve(&mut self, s: &ServerState, key: Key, rot: TxId) -> (Value, u64) {
            let chosen = s
                .store
                .versions(key)
                .iter()
                .rev()
                .find(|v| {
                    !s.pending_visible.contains(&(key, v.ts))
                        && !self
                            .invisible
                            .get(&(key, v.ts))
                            .is_some_and(|b| b.contains(&rot))
                })
                .map(|v| (v.value, v.ts))
                .unwrap_or((Value::BOTTOM, 0));
            self.readers.entry(key).or_default().push((rot, chosen.1));
            chosen
        }

        /// A pending put became visible on the real server.
        fn finalize(&mut self, s: &ServerState, put: TxId) {
            let set = self.invisible_to.remove(&put).unwrap_or_default();
            if !set.is_empty() {
                self.invisible.insert(s.done_puts[&put], set);
            }
        }
    }

    fn server(node: &CopsSnowNode) -> &ServerState {
        match node {
            CopsSnowNode::Server(s) => s,
            CopsSnowNode::Client(_) => unreachable!("the test drives a server"),
        }
    }

    /// Deliver `msg` to the real server in one step; what it sent.
    fn deliver(node: &mut CopsSnowNode, from: ProcessId, msg: Msg) -> Vec<(ProcessId, Msg)> {
        let env = cbf_sim::Envelope {
            from,
            id: cbf_sim::MsgId(0),
            msg,
        };
        let mut ctx = Ctx::standalone(ProcessId(0), 0, vec![env]);
        node.step(&mut ctx);
        ctx.into_outputs().0
    }

    /// Every set the server holds is well formed — blocks strictly
    /// ascending, no zero word — and equals the reference's. Returns
    /// whether some held set spans two blocks or more.
    fn assert_same_sets(s: &ServerState, r: &Reference, seed: u64) -> bool {
        let mut spans = false;
        let mut ids = |set: &ReaderSet| -> HashSet<TxId> {
            let blocks = &set.0;
            assert!(
                blocks.windows(2).all(|w| w[0].0 < w[1].0),
                "seed {seed}: blocks not strictly ascending: {blocks:?}"
            );
            assert!(
                blocks.iter().all(|&(_, word)| word != 0),
                "seed {seed}: zero word in {blocks:?}"
            );
            spans |= blocks.len() > 1;
            set.iter().collect()
        };
        assert_eq!(s.readers, r.readers, "seed {seed}: read log");
        let invisible: HashMap<(Key, u64), HashSet<TxId>> =
            s.invisible.iter().map(|(&v, set)| (v, ids(set))).collect();
        assert_eq!(invisible, r.invisible, "seed {seed}: blacklists");
        let pending: HashMap<TxId, HashSet<TxId>> = s
            .pending_puts
            .iter()
            .map(|(&put, p)| (put, ids(&p.invisible_to)))
            .collect();
        assert_eq!(pending, r.invisible_to, "seed {seed}: pending blacklists");
        spans
    }

    #[test]
    fn reader_bitsets_match_the_hashset_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
            xs[rng.gen_range(0..xs.len())]
        }

        // Server p0 of three; p0 is the home of keys 0, 3 and 6.
        let topo = Topology::sharded(3, 4, 9);
        let me = ProcessId(0);
        let local = [Key(0), Key(3), Key(6)];
        let peers = [ProcessId(1), ProcessId(2)];
        let clients: Vec<ProcessId> = topo.clients().collect();
        // Boundary and ordering cases the sweep must reach.
        let mut read_at_ts = 0usize; // a dep ts equal to a logged read ts
        let mut blacklist_at_ts = 0usize; // a dep ts equal to a blacklisted vts
        let mut max_id_shipped = 0usize; // TxId(u64::MAX) in a reply
        let mut blacklist_hits = 0usize; // serve skipped a newer version
        let mut nonempty_replies = 0usize;
        let mut ignored_resps = 0usize; // duplicate / unexpected responses
        let mut out_of_order = 0usize; // a response for a younger put first
        let mut finalized_early = 0usize; // visible before an earlier-ts put
        let mut two_blocks = 0usize; // cases holding a set that spans two blocks

        for seed in 0..1_000u64 {
            let mut rng = StdRng::seed_from_u64(0x5A0C ^ seed);
            let mut node = CopsSnowNode::server(&topo, me);
            let mut r = Reference::default();
            let mut rots: Vec<TxId> = Vec::new();
            let mut puts: Vec<TxId> = Vec::new();
            let mut next = 1u64;

            for _ in 0..rng.gen_range(20..120u32) {
                let s = server(&node);
                // A dependency timestamp on `key`: a version's (pending,
                // visible or blacklisted), a logged read's, or an
                // arbitrary one — each sometimes nudged up by one.
                let mut dep = |rng: &mut StdRng, key: Key| -> (Key, u64) {
                    let mut pool: Vec<u64> = s.store.versions(key).iter().map(|v| v.ts).collect();
                    pool.extend(r.readers.get(&key).into_iter().flatten().map(|e| e.1));
                    pool.push((rng.gen_range(0..40u64) << 8) | rng.gen_range(0..3u64));
                    let ts = pool[rng.gen_range(0..pool.len())] + rng.gen_range(0..4u64) / 3;
                    if r.readers.get(&key).into_iter().flatten().any(|e| e.1 == ts) {
                        read_at_ts += 1;
                    }
                    if r.invisible.contains_key(&(key, ts)) {
                        blacklist_at_ts += 1;
                    }
                    (key, ts)
                };
                match rng.gen_range(0..100u32) {
                    // A ROT reads 1–3 local keys (duplicates allowed).
                    0..=34 => {
                        let id = match rng.gen_range(0..10u32) {
                            0 => TxId(u64::MAX),
                            1 if !rots.is_empty() => pick(&mut rng, &rots),
                            _ => {
                                next += 1;
                                TxId(10_000 + next)
                            }
                        };
                        rots.push(id);
                        let keys: Vec<Key> = (0..rng.gen_range(1..4usize))
                            .map(|_| pick(&mut rng, &local))
                            .collect();
                        let expected: Vec<(Key, Value, u64)> = keys
                            .iter()
                            .map(|&k| {
                                let (v, ts) = r.serve(s, k, id);
                                let newest = s
                                    .store
                                    .versions(k)
                                    .iter()
                                    .rev()
                                    .find(|v| !s.pending_visible.contains(&(k, v.ts)));
                                if newest.is_some_and(|n| n.ts != ts) {
                                    blacklist_hits += 1;
                                }
                                (k, v, ts)
                            })
                            .collect();
                        let client = pick(&mut rng, &clients);
                        let sent = deliver(&mut node, client, Msg::RotReq { id, keys });
                        match &sent[..] {
                            [(to, Msg::RotResp { reads, .. })] => {
                                assert_eq!(*to, client);
                                assert_eq!(*reads, expected, "seed {seed}: served");
                            }
                            other => panic!("seed {seed}: {other:?}"),
                        }
                    }
                    // A put on a local key, sometimes a re-delivery.
                    35..=59 => {
                        let id = if !puts.is_empty() && rng.gen_range(0..8u32) == 0 {
                            pick(&mut rng, &puts)
                        } else {
                            next += 1;
                            TxId(next)
                        };
                        puts.push(id);
                        let key = pick(&mut rng, &local);
                        let deps: Vec<Dep> = (0..rng.gen_range(0..4usize))
                            .map(|_| {
                                let k = Key(rng.gen_range(0..9u32));
                                dep(&mut rng, k)
                            })
                            .collect();
                        let fresh =
                            !s.done_puts.contains_key(&id) && !s.pending_puts.contains_key(&id);
                        let mut blacklist = HashSet::new();
                        for &(dk, dts) in &deps {
                            if topo.primary(dk) == me {
                                blacklist.extend(r.old_readers(dk, dts));
                            }
                        }
                        let msg = Msg::PutReq {
                            id,
                            key,
                            value: Value(id.0),
                            deps,
                        };
                        deliver(&mut node, pick(&mut rng, &clients), msg);
                        let s = server(&node);
                        if fresh {
                            r.invisible_to.insert(id, blacklist);
                            if !s.pending_puts.contains_key(&id) {
                                r.finalize(s, id);
                            }
                        }
                    }
                    // A peer asks for the old readers of local deps.
                    60..=79 => {
                        let deps: Vec<Dep> = (0..rng.gen_range(1..4usize))
                            .map(|_| {
                                let k = pick(&mut rng, &local);
                                dep(&mut rng, k)
                            })
                            .collect();
                        let mut expected: Vec<TxId> = deps
                            .iter()
                            .flat_map(|&(dk, dts)| r.old_readers(dk, dts))
                            .collect::<HashSet<_>>()
                            .into_iter()
                            .collect();
                        expected.sort_unstable();
                        let peer = pick(&mut rng, &peers);
                        let put = TxId(rng.gen_range(0..100u64));
                        let sent = deliver(&mut node, peer, Msg::OldReaderQuery { put, deps });
                        match &sent[..] {
                            [(to, Msg::OldReaderResp { readers, .. })] => {
                                assert_eq!(*to, peer);
                                assert!(
                                    readers.windows(2).all(|w| w[0] < w[1]),
                                    "seed {seed}: shipped ids not strictly ascending"
                                );
                                assert_eq!(*readers, expected, "seed {seed}: old readers");
                                nonempty_replies += usize::from(!readers.is_empty());
                                max_id_shipped += usize::from(readers.contains(&TxId(u64::MAX)));
                            }
                            other => panic!("seed {seed}: {other:?}"),
                        }
                    }
                    // A peer answers, in any order, possibly twice or for a
                    // put that is not waiting on it.
                    80..=97 => {
                        let mut pending: Vec<(u64, TxId)> =
                            s.pending_puts.iter().map(|(&id, p)| (p.ts, id)).collect();
                        pending.sort_unstable();
                        let (put, from) = if !pending.is_empty() && rng.gen_range(0..5u32) > 0 {
                            let put = pick(&mut rng, &pending).1;
                            // A pending put always waits on some peer.
                            let waiting: Vec<ProcessId> =
                                s.pending_puts[&put].waiting.iter().copied().collect();
                            let from = if rng.gen_range(0..4u32) > 0 {
                                pick(&mut rng, &waiting)
                            } else {
                                pick(&mut rng, &peers)
                            };
                            (put, from)
                        } else {
                            (TxId(rng.gen_range(0..next + 1)), pick(&mut rng, &peers))
                        };
                        // Unsorted, with duplicates, and mostly ids this
                        // server has never seen.
                        let readers: Vec<TxId> = (0..rng.gen_range(0..16usize))
                            .map(|_| match rng.gen_range(0..5u32) {
                                0 => TxId(u64::MAX),
                                1 if !rots.is_empty() => pick(&mut rng, &rots),
                                _ => TxId(50_000 + rng.gen_range(0..400u64)),
                            })
                            .collect();
                        let accepted = s
                            .pending_puts
                            .get(&put)
                            .is_some_and(|p| p.waiting.contains(&from));
                        if accepted {
                            let p = &s.pending_puts[&put];
                            out_of_order += usize::from(pending[0].1 != put);
                            if p.waiting.len() == 1 && pending[0].1 != put {
                                finalized_early += 1;
                            }
                            r.invisible_to
                                .get_mut(&put)
                                .expect("reference tracks every pending put")
                                .extend(readers.iter().copied());
                        } else {
                            ignored_resps += 1;
                        }
                        let msg = Msg::OldReaderResp { put, readers };
                        let again = rng.gen_range(0..4u32) == 0;
                        deliver(&mut node, from, msg.clone());
                        let s = server(&node);
                        if accepted && !s.pending_puts.contains_key(&put) {
                            r.finalize(s, put);
                        }
                        if again {
                            ignored_resps += 1;
                            deliver(&mut node, from, msg);
                        }
                    }
                    // Crash: in-progress gathering is lost.
                    _ => {
                        node.on_crash();
                        r.invisible_to.clear();
                    }
                }
            }
            two_blocks += usize::from(assert_same_sets(server(&node), &r, seed));
        }
        for (what, n) in [
            ("a set spanning two blocks", two_blocks),
            ("dep ts = read ts", read_at_ts),
            ("dep ts = blacklisted vts", blacklist_at_ts),
            ("TxId(u64::MAX) shipped", max_id_shipped),
            ("blacklist skipped a version", blacklist_hits),
            ("non-empty old-reader replies", nonempty_replies),
            ("ignored responses", ignored_resps),
            ("out-of-order responses", out_of_order),
            ("finalized before an earlier-ts put", finalized_early),
        ] {
            assert!(n > 200, "{what}: only {n}");
        }
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
