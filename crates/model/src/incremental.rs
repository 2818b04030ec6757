//! Incremental causal-consistency checking: the scale path.
//!
//! [`crate::checker::check_causal_legacy`] rebuilds the full
//! [`CausalOrder`](crate::CausalOrder) — two `n × n` bit matrices,
//! n²/8 bytes each, and their closure — on every call, and that
//! quadratic memory caps the histories the chaos and Table-1 pipelines
//! can afford to verify that way. [`CausalChecker`] replaces the dense
//! closure with per-transaction **vector-clock frontiers** and per-key,
//! per-session **version chains**, so each of Definition 1's rules is
//! decided by order-of-`log` chain lookups instead of matrix scans:
//!
//! * `clock(t)[c]` counts the transactions of client `c` in the causal
//!   past of `t` (inclusive of `t` itself). Because each client's
//!   transactions are totally ordered by program order, the causal past
//!   restricted to one client is always a *prefix* of that client's
//!   transactions, so a single counter per client is a lossless encoding
//!   of the past, and `a <c b  ⟺  a ≠ b ∧ clock(b)[client(a)] > pos(a)`.
//! * For a reads-from edge `w → r` on key `k`, the writers of `k` that
//!   sit in `past(r) \ (past(w) ∪ {w})` are, per client `c`, exactly the
//!   chain entries with position in `[clock(w)[c], clock(r)[c])` — a
//!   binary-searched window. Each such writer `j` is a **stale read**
//!   (rule 3) when `w <c j`, and otherwise a concurrent extra writer
//!   that forces the reader's client through the rule-4 saturation.
//! * A `⊥`-read by `t` of key `k` is a **bottom-read violation**
//!   (rule 3b) for every chain entry below `clock(t)[c]`.
//!
//! The clock encoding is only sound when the resolved reads-from edges
//! all point *backward* (writer ingested before reader): then program
//! order plus reads-from is a DAG by construction, there can be no
//! [`Violation::CausalityCycle`], and the frontiers are well-defined. A
//! read that resolves to a *later* writer — the one shape that can close
//! a cycle — flips the checker into whole-verdict fallback to the legacy
//! path. A client that needs the genuine rule-4 constraint saturation
//! runs it over these same frontiers, with no matrix, through the one
//! function the legacy path runs too (`checker::client_serializable`).
//! That is why [`verdict`](CausalChecker::verdict) is **bit-identical**
//! to [`crate::check_causal_legacy`] on every history: the differential
//! suite (`tests/differential.rs`) asserts equality over the exhaustive
//! history enumerator, all chaos scenarios, and the proptest sweep.
//!
//! The verdict-time scans run per session (client), in sorted client
//! order; their results are merged back in the legacy emission order
//! (reads-from list order for rule 3, transaction order for rule 3b,
//! sorted client order for rule 4).

#![deny(unsafe_code)]

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use crate::checker::{check_causal_legacy, client_serializable, Frontiers, Verdict, Violation};
use crate::history::{History, TxRecord};
use crate::relations::{ReadIndex, ReadsFrom};
use crate::types::{ClientId, Key, TxId, Value};

/// [`Violation::Undecided`] reason: the legacy fallback needs every
/// transaction back to index 0.
const FORWARD_EDGE_AFTER_GC: &str =
    "a forward reads-from edge needs the legacy checker over the whole history";
/// [`Violation::Undecided`] reason: the rule-4 saturation reads the
/// client's reads and the keys' writers from the whole history.
const FIXPOINT_AFTER_GC: &str = "a client needs the rule-4 fixpoint over the whole history";

/// A read that did not resolve to an already-ingested writer: either a
/// forward reference (resolved later ⇒ fallback) or an unknown value.
#[derive(Clone, Debug)]
struct PendingRead {
    tx: usize,
    key: Key,
    value: Value,
}

/// How rule 4 resolved for one client on the fast path.
enum Rule4 {
    /// No extra writer ever lands between a read and its source: the
    /// identity serialization works, no fixpoint needed.
    Serializable,
    /// A stale read or bottom-read violation already dooms the client —
    /// the rule-4 saturation is guaranteed to return `false`.
    Violated,
    /// A writer concurrent with the read's source precedes the reader:
    /// only the constraint-graph saturation can decide this client.
    NeedsFixpoint,
}

/// What one session's verdict-time scan produced.
struct SessionScan {
    client: ClientId,
    /// Dense session index of `client`.
    s: u32,
    /// `(reads-from index, stale writers ascending)` per rule 3.
    stale: Vec<(usize, Vec<usize>)>,
    /// `(bottom-read index, causally-preceding writers ascending)`.
    bottoms: Vec<(usize, Vec<usize>)>,
    rule4: Rule4,
}

/// A live writer compacted out of the per-transaction rows: exactly what
/// later scans read of it. Reads-from windows need its session, position
/// and frontier, violations name its id, and the self-derived live set
/// reads its writes.
#[derive(Clone, Debug)]
struct Stub {
    id: TxId,
    session: u32,
    pos: u32,
    clock: Vec<u32>,
    writes: Vec<(Key, Value)>,
}

/// An online causal-consistency checker: ingest transactions one at a
/// time, ask for the [`Verdict`] at any point.
///
/// ```
/// use cbf_model::{history::tx, CausalChecker};
/// let mut ck = CausalChecker::new();
/// ck.ingest(tx(0, 0, &[], &[(0, 1)]));
/// ck.ingest(tx(1, 1, &[(0, 1)], &[]));
/// assert!(ck.verdict().is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CausalChecker {
    history: History,
    state: IngestState,
}

impl CausalChecker {
    /// An empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one more transaction. Amortized `O(C + reads + writes)` for
    /// `C` distinct clients seen so far.
    pub fn ingest(&mut self, t: TxRecord) {
        self.state.ingest(&t);
        self.history.push(t);
    }

    /// Transactions ingested so far.
    pub fn len(&self) -> usize {
        self.state.n
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.state.n == 0
    }

    /// The retained history (owned copy, used by the fallback paths).
    /// Before any successful [`gc`](Self::gc) this is the history as
    /// ingested; after one it is the suffix above the compaction cut.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Decide Definition 1 over everything ingested so far. Bit-identical
    /// to [`check_causal_legacy`] on the same history.
    pub fn verdict(&self) -> Verdict {
        self.state.verdict(&self.history)
    }

    /// Compact every transaction below the global minimum causal
    /// frontier, under an explicit liveness contract:
    ///
    /// * `live` — the `(key, value)` pairs a future read may still
    ///   return (for a store-backed workload: the current store
    ///   contents). Every other already-written value is promised dead.
    /// * `bottom_keys` — keys that may still be read as `⊥`; their
    ///   version chains are retained in full.
    /// * `value_floor` — no future write (and no future read of a
    ///   non-`live` value) uses a value below this.
    ///
    /// GC is *invisible* under the contract: every later
    /// [`verdict`](Self::verdict) is bit-identical to the unpruned
    /// checker's. Open edges are settled into cached violations first —
    /// their window scans are provably final at ingest time — then the
    /// history prefix below the cut is compacted out of the
    /// per-transaction arrays, the clock arena, the version chains and
    /// the value ledgers. The cut is the oldest of each client's latest
    /// transaction and every version-chain entry that is not a live
    /// writer; a live writer below it keeps a *stub* (session, position,
    /// frontier, id, writes) for as long as a live value or a chain
    /// names it, so a key written once and read forever does not pin
    /// the history. States that still need the full history (forward
    /// edges, unresolved reads, pending rule-4 fixpoints, duplicate
    /// values) refuse to retire and report [`GcStats::blocked`] instead
    /// of becoming lossy. If a forward edge or a rule-4 fixpoint shows
    /// up *after* a GC retired something, the verdict reports
    /// [`Violation::Undecided`] for it (never OK, never a panic); a
    /// *broken* promise (a write below the floor, a read of a settled
    /// value, a `⊥`-read of a pruned key, a brand-new writer client)
    /// panics loudly rather than weakening the verdict.
    pub fn gc_with(
        &mut self,
        live: &BTreeSet<(Key, Value)>,
        bottom_keys: &BTreeSet<Key>,
        value_floor: u64,
    ) -> GcStats {
        self.state
            .gc(&mut self.history, live, bottom_keys, value_floor)
    }

    /// Self-deriving [`gc_with`](Self::gc_with) for monotone streaming
    /// workloads (the sim→check pipeline): the live set is each key's
    /// most recent writer's value — exactly the store contents, because
    /// the store and the version chains advance in lockstep — the floor
    /// is one past the largest value seen, and no `⊥`-reads are expected.
    pub fn gc(&mut self) -> GcStats {
        let (live, floor) = self.state.derive_live(&self.history);
        self.state
            .gc(&mut self.history, &live, &BTreeSet::new(), floor)
    }

    /// Transactions compacted out by GC so far.
    pub fn retired(&self) -> usize {
        self.state.base
    }

    /// Diagnostic: true when some client's rule-4 decision currently
    /// requires the constraint saturation. GC harnesses use this on an
    /// *unpruned* shadow run to decide at which points a pruned checker
    /// can stay exact (a fixpoint need arising after compaction makes
    /// the verdict [`Violation::Undecided`]).
    pub fn rule4_fixpoint_pending(&self) -> bool {
        self.state.fixpoint_pending()
    }

    /// Resident-state sizes, for soak-style memory sampling.
    pub fn resident_stats(&self) -> ResidentStats {
        self.state.resident()
    }

    /// How often each fallback arm has fired over this checker's life.
    pub fn fallbacks(&self) -> FallbackCounts {
        self.state.fallbacks.get()
    }
}

/// One-shot convenience: ingest `h` into a fresh [`CausalChecker`] state
/// (without copying the records) and return its verdict.
pub fn check_causal_incremental(h: &History) -> Verdict {
    let mut st = IngestState::default();
    for t in h.transactions() {
        st.ingest(t);
    }
    st.verdict(h)
}

/// The derived per-transaction state, separated from the owned history so
/// [`check_causal_incremental`] can run over a borrowed one.
#[derive(Clone, Debug, Default)]
struct IngestState {
    n: usize,
    /// Per transaction: dense session index of its client.
    session_of: Vec<u32>,
    /// Per transaction: its index within its client's sequence.
    pos: Vec<u32>,
    /// Per transaction: the vector-clock frontier (length = sessions
    /// discovered at ingest time; missing entries read as 0). Frontiers
    /// are append-only once written, so they live as slices of one flat
    /// arena — `clock_off[t] .. clock_off[t] + clock_len[t]` — instead
    /// of one heap `Vec` per transaction, which would put two or three
    /// small allocations on every ingest (the streaming pipeline's hot
    /// path).
    clock_off: Vec<usize>,
    /// Per transaction: frontier width (see `clock_off`).
    clock_len: Vec<u32>,
    /// Backing storage for all frontiers, in ingest order.
    clock_arena: Vec<u32>,
    /// Scratch the next frontier is assembled in; reused across ingests.
    scratch: Vec<u32>,
    /// Client → dense session index, in sorted-client order.
    sessions: BTreeMap<ClientId, u32>,
    /// Dense session index → transaction indices, in program order.
    txs_of_session: Vec<Vec<usize>>,
    /// Value-indexed writer ledger for values below [`DENSE_VALUES`]:
    /// `writer_slots[v] = (key, writer + 1)`, `0` meaning empty. One
    /// indexed load per write/read instead of an ordered-map walk — the
    /// streaming pipeline pays this on every transaction. Injective
    /// once `values_distinct` holds, which `duplicate` tracks; when a
    /// value *is* written under two keys the slot keeps the latest
    /// writer, which is observationally identical because the verdict
    /// short-circuits to `DuplicateValues` before any edge is reported.
    writer_slots: Vec<(u32, u32)>,
    /// Writers of values at or above [`DENSE_VALUES`].
    writer_spill: BTreeMap<(Key, Value), usize>,
    /// Version chains: key → session → `(writing transaction, its
    /// program-order position)` in program order (each transaction at
    /// most once per key). Carrying the position keeps the window scans
    /// from looking up every entry's row (or stub).
    chains: BTreeMap<Key, BTreeMap<u32, Vec<(usize, u32)>>>,
    /// Resolved (backward) reads-from edges, in legacy list order.
    reads_from: Vec<ReadsFrom>,
    /// Reads with no writer yet, in read order: unknown values unless a
    /// later writer shows up (⇒ `forward_edge`).
    pending: Vec<PendingRead>,
    /// The resolvable pending keys (own-write reads are excluded — with
    /// distinct values they can never match a later writer).
    pending_keys: BTreeSet<(Key, Value)>,
    /// `(transaction, key)` for every `⊥`-read, in read order.
    bottom_reads: Vec<(usize, Key)>,
    /// Seen-value bitset for values below [`DENSE_VALUES`].
    seen_bits: Vec<u64>,
    /// Seen values at or above [`DENSE_VALUES`].
    seen_spill: BTreeSet<Value>,
    /// Some value was written twice: verdict short-circuits exactly like
    /// the legacy precondition check.
    duplicate: bool,
    /// A read resolved to a later writer: clocks are not sound, fall
    /// back to the legacy checker wholesale.
    forward_edge: bool,

    // --- GC state. Indices stay *global* (ingest order over the whole
    // run); rows for indices `< base` have been compacted away. ---
    /// Global transaction indices `< base` are retired: the per-tx
    /// arrays and the owned history start at `base`.
    base: usize,
    /// Retired transactions that a live value or a version chain still
    /// names, in ascending index order: the row accessors binary-search
    /// `stub_txs` for any index below `base` and read the stub at the
    /// same position. Each GC pass drops the stubs nothing names any
    /// more, so a stub lives exactly as long as something references it.
    stub_txs: Vec<usize>,
    /// The stubs, parallel to `stub_txs`.
    stubs: Vec<Stub>,
    /// First clock-arena slot still resident (`clock_off` is absolute).
    arena_base: usize,
    /// Retired (compacted-out) transactions per session: the retained
    /// `txs_of_session[s]` suffix starts at this program-order position.
    session_retired: Vec<u32>,
    /// Values strictly below this floor were settled by GC: a write of
    /// one is a broken caller promise (panic), and a read of one must
    /// hit the live entries kept in `writer_spill` (else panic). `0`
    /// until the first successful GC.
    value_floor: u64,
    /// `max written value + 1` — the self-derived floor for workloads
    /// whose value allocation is monotone (the streaming pipeline).
    next_floor: u64,
    /// Lower edge of the dense-ledger window (see [`DENSE_VALUES`]):
    /// slot/bit 0 is value `dense_base`. Always a multiple of 64 (so the
    /// bitset words stay aligned) and at most `value_floor` — values
    /// below the floor don't need dense slots, writes of them panic and
    /// reads of them resolve through `writer_spill`. `0` until the first
    /// successful GC.
    dense_base: u64,
    /// Keys whose chain prefix was pruned: a future `⊥`-read of one
    /// would need windows the GC discarded — loud contract violation.
    pruned_keys: BTreeSet<Key>,
    /// True once any GC actually retired state (enables the
    /// broken-promise panics; a refused GC changes nothing).
    gc_engaged: bool,
    /// Sessions first seen after a compacting GC: they may read (their
    /// windows only look at retained or fresh writers) but a write from
    /// one is a broken promise — see `ingest`.
    born_post_gc: BTreeSet<u32>,
    /// Settled (provably final) rule-1 violations, in pending order.
    settled_unknown: Vec<Violation>,
    /// Settled rule-3 violations, in reads-from order.
    settled_stale: Vec<Violation>,
    /// Settled rule-3b violations, in bottom-read order.
    settled_bottom: Vec<Violation>,
    /// Per-session sticky rule-4 verdicts: once a session has a stale or
    /// bottom violation it is unserializable forever (constraint cycles
    /// never dissolve), so GC folds that bit here and clears the edges.
    session_violated: Vec<bool>,
    /// Fallback-arm counters; a `Cell` so the `&self` verdict can count.
    fallbacks: Cell<FallbackCounts>,
}

/// How often each fallback arm of one checker has fired, cumulative over
/// its life (summed over shards by
/// [`ShardedChecker::fallbacks`](crate::ShardedChecker::fallbacks)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FallbackCounts {
    /// Verdicts answered wholesale by the legacy checker, because a read
    /// resolved forward before anything was compacted.
    pub legacy_verdicts: u64,
    /// Rule-4 constraint saturations run, one per client that needed one,
    /// at verdict or GC time.
    pub fixpoint_runs: u64,
    /// [`Violation::Undecided`] entries emitted: a forward edge or a
    /// rule-4 fixpoint met a history GC had already compacted.
    pub undecided: u64,
    /// GC passes refused because of a forward reads-from edge.
    pub gc_blocked_forward_edge: u64,
    /// GC passes refused because a rule-4 fixpoint was pending.
    pub gc_blocked_fixpoint: u64,
    /// GC passes refused for another reason: duplicate values, reads
    /// that could still resolve forward, a live value with no writer.
    pub gc_blocked_other: u64,
}

/// What one [`CausalChecker::gc`] call did (or why it did nothing).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Transactions compacted out by this call.
    pub retired: usize,
    /// Transactions still resident after this call.
    pub resident: usize,
    /// Reads-from edges settled into cached violations by this call.
    pub settled_edges: usize,
    /// Clock-arena slots freed by this call.
    pub freed_clock_slots: usize,
    /// Rule-4 constraint saturations this call ran to settle clients.
    pub fixpoint_runs: usize,
    /// `Some(reason)` when the checker refused to retire anything: a
    /// legacy-fallback path (forward edge, pending rule-4 fixpoint,
    /// duplicate values) or an unresolved read still needs the full
    /// history, so GC keeps the whole window instead of becoming lossy.
    pub blocked: Option<&'static str>,
}

/// Resident-state sizes of one checker, for soak-style memory sampling.
#[derive(Clone, Debug, Default)]
pub struct ResidentStats {
    /// Transactions resident (ingested minus retired).
    pub txs: usize,
    /// Clock-arena slots resident.
    pub clock_slots: usize,
    /// Version-chain entries resident across all keys.
    pub chain_entries: usize,
    /// Unsettled reads-from edges + pending reads + bottom reads.
    pub open_edges: usize,
    /// Spill-ledger entries (writers + seen values) resident.
    pub spill_entries: usize,
    /// Violations settled by GC so far.
    pub settled_violations: usize,
    /// Retired live writers kept as stubs (not counted in `txs`).
    pub stubs: usize,
}

/// Width of the dense, value-indexed ledger window (the seen-bitset and
/// the writer slots): values in `[dense_base, dense_base + DENSE_VALUES)`
/// get an indexed slot, the rest spill to ordered maps. Harness-allocated
/// values are small sequential integers, so the dense path covers
/// essentially every transaction while the width bounds the ledgers at
/// 512 KiB (bits) + 32 MiB (slots) even for adversarial values just
/// under it. Without GC the window is pinned at `[0, DENSE_VALUES)`;
/// each compacting GC slides `dense_base` up to the settled floor, so a
/// monotone value stream (the soak) pays O(window) memory forever
/// instead of O(values ever written).
const DENSE_VALUES: u64 = 1 << 22;

impl IngestState {
    /// Record `v` as written; true if it was never seen before.
    fn see_value(&mut self, v: Value) -> bool {
        assert!(
            v.0 >= self.value_floor,
            "GC contract broken: write of value {} below the settled floor {} \
             (the caller promised value allocation had moved past it)",
            v.0,
            self.value_floor
        );
        if v.0 != u64::MAX {
            self.next_floor = self.next_floor.max(v.0 + 1);
        }
        if v.0 >= self.dense_base && v.0 - self.dense_base < DENSE_VALUES {
            let off = v.0 - self.dense_base;
            let word = (off / 64) as usize;
            let bit = 1u64 << (off % 64);
            if self.seen_bits.len() <= word {
                self.seen_bits.resize(word + 1, 0);
            }
            let fresh = self.seen_bits[word] & bit == 0;
            self.seen_bits[word] |= bit;
            fresh
        } else {
            self.seen_spill.insert(v)
        }
    }

    /// Record `idx` as the writer of `(k, v)`.
    fn set_writer(&mut self, k: Key, v: Value, idx: usize) {
        if v.0 >= self.dense_base && v.0 - self.dense_base < DENSE_VALUES {
            let slot = (v.0 - self.dense_base) as usize;
            if self.writer_slots.len() <= slot {
                self.writer_slots.resize(slot + 1, (0, 0));
            }
            self.writer_slots[slot] = (k.0, idx as u32 + 1);
        } else {
            self.writer_spill.insert((k, v), idx);
        }
    }

    /// The transaction that wrote `(k, v)`, if any.
    fn writer_of(&self, k: Key, v: Value) -> Option<usize> {
        if v.0 < self.value_floor {
            // Below the floor only the live entries survive (GC moved
            // them into the spill map); a miss is a read of a settled
            // value — a broken caller promise, never a property of the
            // data, so fail loudly instead of reporting UnknownValue.
            let w = self.writer_spill.get(&(k, v)).copied();
            assert!(
                w.is_some(),
                "GC contract broken: read of key {} value {} below the settled \
                 floor {} (the caller promised it was no longer readable)",
                k.0,
                v.0,
                self.value_floor
            );
            return w;
        }
        if v.0 >= self.dense_base && v.0 - self.dense_base < DENSE_VALUES {
            match self.writer_slots.get((v.0 - self.dense_base) as usize) {
                Some(&(wk, w1)) if w1 != 0 && wk == k.0 => Some(w1 as usize - 1),
                _ => None,
            }
        } else {
            self.writer_spill.get(&(k, v)).copied()
        }
    }

    fn session(&mut self, c: ClientId) -> u32 {
        if let Some(&s) = self.sessions.get(&c) {
            return s;
        }
        let s = self.txs_of_session.len() as u32;
        self.sessions.insert(c, s);
        self.txs_of_session.push(Vec::new());
        self.session_retired.push(0);
        self.session_violated.push(false);
        s
    }

    /// The stub of retired transaction `t`. Kept out of line so the row
    /// accessors stay small enough to inline into the saturation's and
    /// the scans' hot loops.
    #[inline(never)]
    fn stub(&self, t: usize) -> &Stub {
        match self.stub_txs.binary_search(&t) {
            Ok(i) => &self.stubs[i],
            Err(_) => panic!(
                "GC contract broken: transaction {t} was retired as dead but is \
                 referenced again (the caller promised its values were no \
                 longer readable)"
            ),
        }
    }

    /// Session of global transaction `t`.
    #[inline]
    fn sess_of(&self, t: usize) -> u32 {
        if t < self.base {
            return self.stub(t).session;
        }
        self.session_of[t - self.base]
    }

    /// Program-order position of global transaction `t`.
    #[inline]
    fn pos_of(&self, t: usize) -> u32 {
        if t < self.base {
            return self.stub(t).pos;
        }
        self.pos[t - self.base]
    }

    /// The frontier slice of global transaction `t`.
    #[inline]
    fn clock_slice(&self, t: usize) -> &[u32] {
        if t < self.base {
            return &self.stub(t).clock;
        }
        self.resident_clock(t - self.base)
    }

    /// The frontier slice of resident row `i` (global index `base + i`).
    #[inline]
    fn resident_clock(&self, i: usize) -> &[u32] {
        let off = self.clock_off[i] - self.arena_base;
        &self.clock_arena[off..off + self.clock_len[i] as usize]
    }

    /// Session, position and frontier of `t`, for callers that need all
    /// three (one stub lookup instead of three).
    fn row(&self, t: usize) -> (u32, u32, &[u32]) {
        if t < self.base {
            let st = self.stub(t);
            return (st.session, st.pos, &st.clock);
        }
        (self.sess_of(t), self.pos_of(t), self.clock_slice(t))
    }

    /// `clock(t)[s]`, with absent entries reading 0.
    fn clk(&self, t: usize, s: u32) -> u32 {
        if t < self.base {
            return self.stub(t).clock.get(s as usize).copied().unwrap_or(0);
        }
        let i = t - self.base;
        if s < self.clock_len[i] {
            self.clock_arena[self.clock_off[i] - self.arena_base + s as usize]
        } else {
            0
        }
    }

    /// The id of global transaction `t`; `txs` is the resident history.
    fn tx_id(&self, txs: &[TxRecord], t: usize) -> TxId {
        if t < self.base {
            return self.stub(t).id;
        }
        txs[t - self.base].id
    }

    /// Count one fallback-arm event.
    fn bump(&self, f: impl FnOnce(&mut FallbackCounts)) {
        let mut c = self.fallbacks.get();
        f(&mut c);
        self.fallbacks.set(c);
    }

    /// `a <c b` under the frontier encoding (requires `a ≠ b`).
    fn before(&self, a: usize, b: usize) -> bool {
        self.clk(b, self.sess_of(a)) > self.pos_of(a)
    }

    fn ingest(&mut self, t: &TxRecord) {
        let idx = self.n;
        self.n += 1;
        let fresh_session = !self.sessions.contains_key(&t.client);
        let s = self.session(t.client);
        if fresh_session && self.gc_engaged {
            self.born_post_gc.insert(s);
        }
        if !t.writes.is_empty() && self.born_post_gc.contains(&s) {
            // A writer client born after compaction has an unboundedly
            // small frontier — the global minimum frontier the GC pruned
            // below never accounted for it, so its writes' reads-from
            // windows could reach into discarded chain prefixes. The GC
            // contract promises the writer population is stable once GC
            // starts.
            panic!(
                "GC contract broken: client {} writes but its session started \
                 after history was compacted (the caller promised no new \
                 writer clients)",
                t.client.0
            );
        }
        let pos = self.session_retired[s as usize] + self.txs_of_session[s as usize].len() as u32;

        // Frontier: start from the same client's previous transaction.
        let mut clock = std::mem::take(&mut self.scratch);
        clock.clear();
        if let Some(&prev) = self.txs_of_session[s as usize].last() {
            clock.extend_from_slice(self.clock_slice(prev));
        }

        // Writes first: the legacy writer map covers the whole history,
        // so a transaction's own writes are visible to its reads (and
        // resolve them to "unknown" — reads observe the pre-state).
        for &(k, v) in &t.writes {
            if !self.see_value(v) {
                self.duplicate = true;
            }
            if self.pending_keys.contains(&(k, v)) {
                self.forward_edge = true;
            }
            self.set_writer(k, v, idx);
            let chain = self.chains.entry(k).or_default().entry(s).or_default();
            if chain.last().map(|e| e.0) != Some(idx) {
                chain.push((idx, pos));
            }
        }

        for &(k, v) in &t.reads {
            if v.is_bottom() {
                assert!(
                    !self.pruned_keys.contains(&k),
                    "GC contract broken: ⊥-read of key {} whose version-chain \
                     prefix was compacted (the caller promised no further \
                     ⊥-reads of GC'd keys)",
                    k.0
                );
                self.bottom_reads.push((idx, k));
                continue;
            }
            match self.writer_of(k, v) {
                Some(w) if w != idx => {
                    self.reads_from.push(ReadsFrom {
                        reader: idx,
                        writer: w,
                        key: k,
                        value: v,
                    });
                    // Join the writer's frontier into ours.
                    let wc = self.clock_slice(w);
                    if clock.len() < wc.len() {
                        clock.resize(wc.len(), 0);
                    }
                    for (mine, theirs) in clock.iter_mut().zip(wc) {
                        *mine = (*mine).max(*theirs);
                    }
                }
                Some(_) => {
                    // Own-write read: permanently unknown (values are
                    // distinct, so no later writer can claim it).
                    self.pending.push(PendingRead {
                        tx: idx,
                        key: k,
                        value: v,
                    });
                }
                None => {
                    self.pending.push(PendingRead {
                        tx: idx,
                        key: k,
                        value: v,
                    });
                    self.pending_keys.insert((k, v));
                }
            }
        }

        if clock.len() <= s as usize {
            clock.resize(s as usize + 1, 0);
        }
        clock[s as usize] = pos + 1;
        self.clock_off
            .push(self.clock_arena.len() + self.arena_base);
        self.clock_len.push(clock.len() as u32);
        self.clock_arena.extend_from_slice(&clock);
        self.scratch = clock;
        self.pos.push(pos);
        self.session_of.push(s);
        self.txs_of_session[s as usize].push(idx);
    }

    fn verdict(&self, h: &History) -> Verdict {
        let mut v = Verdict::default();
        if self.duplicate {
            v.violations.push(Violation::DuplicateValues);
            return v;
        }
        if self.forward_edge {
            // A forward reads-from edge is the one shape that can close a
            // causality cycle; the frontiers are not sound for it, and the
            // legacy fallback needs every transaction GC may have retired.
            if self.gc_engaged {
                self.bump(|c| c.undecided += 1);
                v.violations.push(Violation::Undecided {
                    reason: FORWARD_EDGE_AFTER_GC,
                });
                return v;
            }
            self.bump(|c| c.legacy_verdicts += 1);
            return check_causal_legacy(h);
        }
        let txs = h.transactions();
        let base = self.base;

        // Rule 1: violations settled by GC first (they were earlier in
        // pending order by construction), then the still-open reads.
        v.violations.extend(self.settled_unknown.iter().cloned());
        for p in &self.pending {
            v.violations.push(Violation::UnknownValue {
                reader: txs[p.tx - base].id,
                key: p.key,
                value: p.value,
            });
        }
        // All edges point backward ⇒ the causal relation is a DAG by
        // construction: rule 2 cannot fire.

        // Scan rule 3/3b/4 per session, in sorted-client order; the
        // per-session results are merged back into legacy order below.
        let scans = self.all_scans();

        // Rule 3, in reads-from list order (each edge belongs to exactly
        // one session; a global sort restores the legacy order). Edges
        // settled by GC were a strict prefix of the list, so emitting
        // their cached violations first preserves the legacy order.
        v.violations.extend(self.settled_stale.iter().cloned());
        let mut stale: Vec<(usize, Vec<usize>)> = scans
            .iter()
            .flat_map(|sc| sc.stale.iter().cloned())
            .collect();
        stale.sort_unstable_by_key(|&(rf_idx, _)| rf_idx);
        for (rf_idx, writers) in &stale {
            let rf = &self.reads_from[*rf_idx];
            for &j in writers {
                v.violations.push(Violation::StaleRead {
                    reader: txs[rf.reader - base].id,
                    key: rf.key,
                    read_from: self.tx_id(txs, rf.writer),
                    overwritten_by: self.tx_id(txs, j),
                });
            }
        }

        // Rule 3b, in (transaction, read) order; settled prefix first.
        v.violations.extend(self.settled_bottom.iter().cloned());
        let mut bottoms: Vec<(usize, Vec<usize>)> = scans
            .iter()
            .flat_map(|sc| sc.bottoms.iter().cloned())
            .collect();
        bottoms.sort_unstable_by_key(|&(b_idx, _)| b_idx);
        for (b_idx, writers) in &bottoms {
            let (reader, key) = self.bottom_reads[*b_idx];
            for &j in writers {
                v.violations.push(Violation::BottomReadAfterWrite {
                    reader: txs[reader - base].id,
                    key,
                    written_by: self.tx_id(txs, j),
                });
            }
        }

        // Rule 4, in sorted-client order. A sticky per-session verdict
        // settled by GC short-circuits exactly like a fresh stale read
        // (once any constraint cycle exists the saturation answers false
        // forever). Clients that genuinely need the constraint
        // saturation run it over this state's own frontiers; their reads
        // and the keys' writers come from the history, which is whole
        // here even when a GC that retired nothing already settled the
        // open edges and pruned the chains. Once GC has retired anything
        // the history is not whole, and the client is reported undecided.
        let mut index: Option<ReadIndex> = None;
        for scan in &scans {
            let ok = if self.session_violated[scan.s as usize] {
                false
            } else {
                match scan.rule4 {
                    Rule4::Serializable => true,
                    Rule4::Violated => false,
                    Rule4::NeedsFixpoint if self.gc_engaged => {
                        self.bump(|c| c.undecided += 1);
                        v.violations.push(Violation::Undecided {
                            reason: FIXPOINT_AFTER_GC,
                        });
                        continue;
                    }
                    Rule4::NeedsFixpoint => {
                        self.bump(|c| c.fixpoint_runs += 1);
                        let index = index.get_or_insert_with(|| ReadIndex::build(h));
                        client_serializable(h, index, self, scan.client)
                    }
                }
            };
            if !ok {
                v.violations.push(Violation::Unserializable {
                    client: scan.client,
                });
            }
        }
        v
    }

    /// The verdict-time work for one session: window scans over the
    /// version chains for every reads-from edge and `⊥`-read whose
    /// reader belongs to `client`.
    fn scan_session(
        &self,
        client: ClientId,
        s: u32,
        rf_idxs: &[usize],
        bottom_idxs: &[usize],
    ) -> SessionScan {
        let mut stale = Vec::new();
        let mut needs_fixpoint = false;
        let mut violated = false;

        for &rf_idx in rf_idxs {
            let rf = &self.reads_from[rf_idx];
            let (w, r) = (rf.writer, rf.reader);
            let Some(per_session) = self.chains.get(&rf.key) else {
                continue;
            };
            let mut found: Vec<usize> = Vec::new();
            for (&s2, chain) in per_session {
                // `w` and `r` are never window members: a chain holding
                // nothing else (a key written once and only read since)
                // needs no frontier at all.
                if chain.iter().all(|&(j, _)| j == w || j == r) {
                    continue;
                }
                // Writers of `key` by session `s2` inside
                // `past(r) \ (past(w) ∪ {w})`: chain positions in
                // `[clock(w)[s2], clock(r)[s2])`.
                let lo = self.clk(w, s2);
                let hi = self.clk(r, s2);
                if lo >= hi {
                    continue;
                }
                let from = chain.partition_point(|&(_, p)| p < lo);
                for &(j, p) in &chain[from..] {
                    if p >= hi {
                        break;
                    }
                    if j == w || j == r {
                        continue;
                    }
                    if self.before(w, j) {
                        found.push(j); // w <c j <c r: stale (rule 3)
                    } else {
                        // j ∥ w but j <c r: the saturation would force
                        // j before w — only it can decide rule 4.
                        needs_fixpoint = true;
                    }
                }
            }
            if !found.is_empty() {
                // Any stale read makes the rule-4 saturation cyclic for
                // this client (j → w is forced while w <c j holds).
                violated = true;
                found.sort_unstable();
                stale.push((rf_idx, found));
            }
        }

        let mut bottoms = Vec::new();
        for &b_idx in bottom_idxs {
            let (reader, key) = self.bottom_reads[b_idx];
            let Some(per_session) = self.chains.get(&key) else {
                continue;
            };
            let mut found: Vec<usize> = Vec::new();
            for (&s2, chain) in per_session {
                let hi = self.clk(reader, s2);
                for &(j, p) in chain {
                    if p >= hi {
                        break;
                    }
                    if j != reader {
                        found.push(j);
                    }
                }
            }
            if !found.is_empty() {
                // A causally-overwritten ⊥-read also fails the
                // saturation's ⊥-read check.
                violated = true;
                found.sort_unstable();
                bottoms.push((b_idx, found));
            }
        }

        let rule4 = if violated {
            Rule4::Violated
        } else if needs_fixpoint {
            Rule4::NeedsFixpoint
        } else {
            Rule4::Serializable
        };
        SessionScan {
            client,
            s,
            stale,
            bottoms,
            rule4,
        }
    }

    /// Resident-state sizes, for memory sampling.
    fn resident(&self) -> ResidentStats {
        ResidentStats {
            txs: self.n - self.base,
            clock_slots: self.clock_arena.len(),
            chain_entries: self
                .chains
                .values()
                .flat_map(|per| per.values())
                .map(Vec::len)
                .sum(),
            open_edges: self.reads_from.len() + self.pending.len() + self.bottom_reads.len(),
            spill_entries: self.writer_spill.len() + self.seen_spill.len(),
            settled_violations: self.settled_unknown.len()
                + self.settled_stale.len()
                + self.settled_bottom.len()
                + self.session_violated.iter().filter(|&&b| b).count(),
            stubs: self.stubs.len(),
        }
    }

    /// Window scans for every session, in sorted-client order (the
    /// verdict, the GC path and the fixpoint diagnostic).
    fn all_scans(&self) -> Vec<SessionScan> {
        let nsess = self.txs_of_session.len();
        let mut rf_of_session: Vec<Vec<usize>> = vec![Vec::new(); nsess];
        for (i, rf) in self.reads_from.iter().enumerate() {
            rf_of_session[self.sess_of(rf.reader) as usize].push(i);
        }
        let mut bottoms_of_session: Vec<Vec<usize>> = vec![Vec::new(); nsess];
        for (i, &(tx, _)) in self.bottom_reads.iter().enumerate() {
            bottoms_of_session[self.sess_of(tx) as usize].push(i);
        }
        self.sessions
            .iter()
            .map(|(&c, &s)| {
                self.scan_session(
                    c,
                    s,
                    &rf_of_session[s as usize],
                    &bottoms_of_session[s as usize],
                )
            })
            .collect()
    }

    /// True when some session's rule-4 decision currently needs the
    /// constraint saturation (and is not already doomed by a stale or
    /// bottom violation).
    fn fixpoint_pending(&self) -> bool {
        if self.duplicate || self.forward_edge {
            return false;
        }
        self.all_scans().iter().any(|sc| {
            !self.session_violated[sc.s as usize] && matches!(sc.rule4, Rule4::NeedsFixpoint)
        })
    }

    /// The live set a monotone streaming workload implies: each key's
    /// most recent writer's value (the store content), and a floor one
    /// past the largest value ever written.
    fn derive_live(&self, h: &History) -> (BTreeSet<(Key, Value)>, u64) {
        let live = self
            .chains
            .iter()
            .filter_map(|(&k, per_session)| {
                let t = per_session.values().filter_map(|c| c.last()).max()?.0;
                let v = if t < self.base {
                    let writes = &self.stub(t).writes;
                    writes.iter().rev().find(|w| w.0 == k).map(|w| w.1)
                } else {
                    h.transactions()[t - self.base].wrote(k)
                };
                Some((k, v?))
            })
            .collect();
        (live, self.next_floor)
    }

    /// Settle-then-compact GC. See [`CausalChecker::gc_with`] for the
    /// caller contract; this runs in two phases so a refusal (any state
    /// whose future verdicts still need the full history) changes
    /// nothing at all.
    fn gc(
        &mut self,
        h: &mut History,
        live: &BTreeSet<(Key, Value)>,
        bottom_keys: &BTreeSet<Key>,
        floor: u64,
    ) -> GcStats {
        let mut stats = GcStats {
            resident: self.n - self.base,
            ..GcStats::default()
        };
        if self.n == self.base {
            return stats;
        }
        // --- Phase 0: refusal checks (no mutation past this block but
        // the fallback counters). ---
        if self.duplicate {
            self.bump(|c| c.gc_blocked_other += 1);
            stats.blocked = Some("duplicate values: terminal legacy verdict");
            return stats;
        }
        if self.forward_edge {
            self.bump(|c| c.gc_blocked_forward_edge += 1);
            stats.blocked = Some("forward reads-from edge: whole-verdict legacy fallback");
            return stats;
        }
        if !self.pending_keys.is_empty() {
            // An unresolved read could still match a later writer and
            // flip the checker into the legacy fallback — which needs
            // every transaction back to index 0.
            self.bump(|c| c.gc_blocked_other += 1);
            stats.blocked = Some("unresolved reads could still resolve forward");
            return stats;
        }
        let floor = floor.max(self.value_floor);
        // Writers of every declared-live value must be known (resident
        // or stubbed): future reads-from edges will point at them and
        // their frontiers bound the chain windows below.
        let live_writer: Option<BTreeMap<(Key, Value), usize>> = live
            .iter()
            .map(|&(k, v)| Some(((k, v), self.writer_of(k, v)?)))
            .collect();
        let Some(live_writer) = live_writer else {
            self.bump(|c| c.gc_blocked_other += 1);
            stats.blocked = Some("live value with no ingested writer");
            return stats;
        };

        // Scan every open edge once. Scan results are final at ingest
        // time: a future writer of session `s2` lands at a program-order
        // position ≥ that session's current length ≥ every existing
        // window's upper bound `clk(reader, s2)`, so no future ingest
        // can add a writer to — or remove one from — these windows.
        let nsess = self.txs_of_session.len();
        let scans = self.all_scans();

        // Rule 4 settlement. `Violated` is final (constraint cycles
        // never dissolve, so the sticky bit is sound forever). A session
        // that needs the fixpoint *and is currently serializable* cannot
        // be settled — a future read could flip it and only the full
        // history can decide — so the windowed strategy is to run the
        // fixpoint now: `false` settles as sticky-violated, `true`
        // refuses this GC round.
        let mut newly_violated: Vec<u32> = Vec::new();
        let mut index: Option<ReadIndex> = None;
        for scan in &scans {
            if self.session_violated[scan.s as usize] {
                continue;
            }
            match scan.rule4 {
                Rule4::Serializable => {}
                Rule4::Violated => newly_violated.push(scan.s),
                Rule4::NeedsFixpoint => {
                    if self.base != 0 {
                        self.bump(|c| c.gc_blocked_fixpoint += 1);
                        stats.blocked = Some("rule-4 fixpoint pending after prior compaction");
                        return stats;
                    }
                    let index = index.get_or_insert_with(|| ReadIndex::build(h));
                    self.bump(|c| c.fixpoint_runs += 1);
                    stats.fixpoint_runs += 1;
                    if client_serializable(h, index, self, scan.client) {
                        self.bump(|c| c.gc_blocked_fixpoint += 1);
                        stats.blocked = Some("rule-4 fixpoint pending and currently serializable");
                        return stats;
                    }
                    newly_violated.push(scan.s);
                }
            }
        }

        // --- Phase 1: settle. Emission order mirrors `verdict` exactly;
        // settled entries are a strict prefix of every future list. ---
        let txs = h.transactions();
        let base = self.base;
        for p in &self.pending {
            // `pending_keys` is empty, so every pending read is an
            // own-write read: permanently unknown.
            self.settled_unknown.push(Violation::UnknownValue {
                reader: txs[p.tx - base].id,
                key: p.key,
                value: p.value,
            });
        }
        let mut stale: Vec<(usize, Vec<usize>)> = scans
            .iter()
            .flat_map(|sc| sc.stale.iter().cloned())
            .collect();
        stale.sort_unstable_by_key(|&(rf_idx, _)| rf_idx);
        for (rf_idx, writers) in &stale {
            let rf = &self.reads_from[*rf_idx];
            for &j in writers {
                self.settled_stale.push(Violation::StaleRead {
                    reader: txs[rf.reader - base].id,
                    key: rf.key,
                    read_from: self.tx_id(txs, rf.writer),
                    overwritten_by: self.tx_id(txs, j),
                });
            }
        }
        let mut bottoms: Vec<(usize, Vec<usize>)> = scans
            .iter()
            .flat_map(|sc| sc.bottoms.iter().cloned())
            .collect();
        bottoms.sort_unstable_by_key(|&(b_idx, _)| b_idx);
        for (b_idx, writers) in &bottoms {
            let (reader, key) = self.bottom_reads[*b_idx];
            for &j in writers {
                self.settled_bottom.push(Violation::BottomReadAfterWrite {
                    reader: txs[reader - base].id,
                    key,
                    written_by: self.tx_id(txs, j),
                });
            }
        }
        for s in newly_violated {
            self.session_violated[s as usize] = true;
        }
        stats.settled_edges = self.reads_from.len() + self.pending.len() + self.bottom_reads.len();
        self.reads_from.clear();
        self.pending.clear();
        self.bottom_reads.clear();

        // --- Phase 2: compute the global minimum frontier and prune. ---
        // F[s2] = min over sessions s of clk(latest(s), s2). Any future
        // transaction of an existing client has clk ≥ its client's
        // latest clock ≥ F pointwise, so no future reads-from window can
        // open below min(F[s2], clk(live writer, s2)).
        let mut fmin = vec![u32::MAX; nsess];
        for s in 0..nsess {
            let last = *self.txs_of_session[s]
                .last()
                .expect("every session has at least one resident transaction");
            for (s2, f) in fmin.iter_mut().enumerate() {
                *f = (*f).min(self.clk(last, s2 as u32));
            }
        }

        // Retained set: last of each session, and every chain entry at or
        // above its floor that is not a live writer. The cut is its
        // minimum. Live writers do not pin it: one below the cut keeps a
        // stub (phase 3), which is all later scans read of it.
        let mut live_txs: Vec<usize> = live_writer.values().copied().collect();
        live_txs.sort_unstable();
        live_txs.dedup();
        let mut cut = self.n;
        for s in 0..nsess {
            cut = cut.min(*self.txs_of_session[s].last().expect("nonempty session"));
        }
        let mut chains = std::mem::take(&mut self.chains);
        let mut newly_pruned: Vec<Key> = Vec::new();
        // Retired transactions the surviving chains still name.
        let mut chain_stubs: Vec<usize> = Vec::new();
        for (&k, per_session) in chains.iter_mut() {
            let pinned = bottom_keys.contains(&k);
            for (&s2, chain) in per_session.iter_mut() {
                let mut fl = if pinned { 0 } else { fmin[s2 as usize] };
                for (&(lk, lv), &w) in live_writer.range((k, Value(0))..=(k, Value(u64::MAX))) {
                    debug_assert_eq!(lk, k);
                    let _ = lv;
                    // A live writer's own frontier entry is `pos + 1`,
                    // which would prune the writer itself out of its
                    // chain — and a key whose chain vanished drops out
                    // of the self-derived live set even though its
                    // value is still readable (a cold key written once
                    // and read forever after). Keep the live writer's
                    // entry resident in its own session's chain.
                    let (ws, wp, wc) = self.row(w);
                    let bound = if ws == s2 {
                        wp
                    } else {
                        wc.get(s2 as usize).copied().unwrap_or(0)
                    };
                    fl = fl.min(bound);
                }
                let drop_n = chain.partition_point(|&(_, p)| p < fl);
                if drop_n > 0 {
                    chain.drain(..drop_n);
                    newly_pruned.push(k);
                }
                for &(j, _) in chain.iter() {
                    if j < self.base {
                        chain_stubs.push(j);
                    } else if live_txs.binary_search(&j).is_err() {
                        cut = cut.min(j);
                    }
                }
            }
            per_session.retain(|_, c| !c.is_empty());
        }
        chains.retain(|_, per| !per.is_empty());
        self.chains = chains;
        self.pruned_keys.extend(newly_pruned);

        // Ledgers: live values below the new floor move to the spill map
        // (the only place `writer_of` consults below the floor); dead
        // entries below it are dropped. Seen-state at or above the floor
        // is retained so duplicate detection stays exact; writes below
        // the floor panic instead. One sorted rebuild, not a patch per
        // entry.
        let spill = std::mem::take(&mut self.writer_spill);
        self.writer_spill = spill
            .into_iter()
            .filter(|&((_, v), _)| v.0 >= floor)
            .chain(
                live_writer
                    .iter()
                    .filter(|&(&(_, v), _)| v.0 < floor)
                    .map(|(&kv, &w)| (kv, w)),
            )
            .collect();
        self.seen_spill.retain(|&v| v.0 >= floor);
        self.value_floor = floor;

        // Rebase the dense ledgers: the slots and seen-bits below the
        // floor are permanently dead (a write below it panics, a read of
        // it resolves through the spill map), so slide the window up
        // instead of letting a monotone value stream grow the tables
        // toward the DENSE_VALUES cap forever — 8 bytes + 1 bit per
        // value ever written is exactly the kind of creep the soak's
        // plateau assertion exists to catch. Word-align the new base so
        // the retained bits keep their offsets after the drain.
        let new_base = floor & !63;
        if new_base > self.dense_base {
            let shift = (new_base - self.dense_base) as usize;
            if shift >= self.writer_slots.len() {
                self.writer_slots.clear();
            } else {
                self.writer_slots.drain(..shift);
            }
            let words = shift / 64;
            if words >= self.seen_bits.len() {
                self.seen_bits.clear();
            } else {
                self.seen_bits.drain(..words);
            }
            self.dense_base = new_base;
            // Spill entries the slide just pulled into the window move
            // back to the dense tables, which are the single source of
            // truth for their range (`writer_of` never falls through
            // from a dense miss to the spill map at or above the floor).
            let hi = new_base.saturating_add(DENSE_VALUES);
            let mut migrate: Vec<(Key, Value, usize)> = Vec::new();
            self.writer_spill.retain(|&(k, v), w| {
                if v.0 >= floor && v.0 < hi {
                    migrate.push((k, v, *w));
                    false
                } else {
                    true
                }
            });
            for (k, v, w) in migrate {
                self.set_writer(k, v, w);
            }
            let mut seen: Vec<Value> = Vec::new();
            self.seen_spill.retain(|&v| {
                if v.0 < hi {
                    seen.push(v);
                    false
                } else {
                    true
                }
            });
            for v in seen {
                let off = v.0 - self.dense_base;
                let word = (off / 64) as usize;
                if self.seen_bits.len() <= word {
                    self.seen_bits.resize(word + 1, 0);
                }
                self.seen_bits[word] |= 1u64 << (off % 64);
            }
        }

        // --- Phase 3: compact the retired prefix `[base, cut)`. Every
        // transaction below the cut that a live value or a surviving chain
        // entry names keeps a stub; every other stub is dropped. A chain
        // entry in `[base, cut)` is a live writer (any other pins the
        // cut), so live writers plus the chains' old stubs name them all.
        let mut named: Vec<usize> = live_txs.into_iter().filter(|&t| t < cut).collect();
        named.extend(chain_stubs);
        named.sort_unstable();
        named.dedup();
        // Named indices below `base` keep their stubs; the rest are new
        // and sort after every old one, so keep-then-append preserves the
        // order.
        let (old, new) = named.split_at(named.partition_point(|&t| t < self.base));
        let mut names = old.iter().peekable();
        let kept: Vec<bool> = self
            .stub_txs
            .iter()
            .map(|t| {
                while names.next_if(|&n| n < t).is_some() {}
                names.next_if_eq(&t).is_some()
            })
            .collect();
        let mut k = kept.iter();
        self.stubs.retain(|_| k.next() == Some(&true));
        let mut k = kept.iter();
        self.stub_txs.retain(|_| k.next() == Some(&true));
        let txs = h.transactions();
        for &t in new {
            let r = &txs[t - self.base];
            let stub = Stub {
                id: r.id,
                session: self.sess_of(t),
                pos: self.pos_of(t),
                clock: self.clock_slice(t).to_vec(),
                writes: r.writes.clone(),
            };
            self.stub_txs.push(t);
            self.stubs.push(stub);
        }

        let retire = cut - self.base;
        if retire > 0 {
            self.gc_engaged = true;
            for s in 0..nsess {
                let list = &mut self.txs_of_session[s];
                let dn = list.partition_point(|&t| t < cut);
                if dn > 0 {
                    list.drain(..dn);
                    self.session_retired[s] += dn as u32;
                }
            }
            let freed = self.clock_off[cut - self.base] - self.arena_base;
            self.clock_arena.drain(..freed);
            self.arena_base += freed;
            stats.freed_clock_slots = freed;
            self.session_of.drain(..retire);
            self.pos.drain(..retire);
            self.clock_off.drain(..retire);
            self.clock_len.drain(..retire);
            h.retire_prefix(retire);
            self.base = cut;
            stats.retired = retire;
        }
        stats.resident = self.n - self.base;
        stats
    }
}

/// Exact causal frontiers whenever `forward_edge` is false. The rule-4
/// saturation, their only reader, runs only before any compaction
/// (`base == 0`), so they read the resident rows without the stub check
/// its inner loops would otherwise pay on every call.
impl Frontiers for IngestState {
    fn width(&self) -> usize {
        self.txs_of_session.len()
    }
    fn session_of(&self, t: usize) -> u32 {
        self.session_of[t - self.base]
    }
    fn position(&self, t: usize) -> u32 {
        self.pos[t - self.base]
    }
    fn clock(&self, t: usize) -> &[u32] {
        self.resident_clock(t - self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::tx;

    fn both(h: &History) -> (Verdict, Verdict) {
        (check_causal_incremental(h), check_causal_legacy(h))
    }

    #[test]
    fn online_ingest_matches_oneshot() {
        let records = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[(0, 1)], &[(1, 2)]),
            tx(2, 2, &[(0, 1), (1, 2)], &[]),
        ];
        let mut ck = CausalChecker::new();
        for t in records.iter().cloned() {
            ck.ingest(t);
        }
        assert_eq!(ck.len(), 3);
        let h: History = records.into_iter().collect();
        assert_eq!(ck.verdict(), check_causal_incremental(&h));
        assert!(ck.verdict().is_ok());
    }

    #[test]
    fn incremental_matches_legacy_on_the_papers_gamma() {
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[], &[(1, 2)]),
            tx(2, 2, &[(0, 1), (1, 2)], &[]),
            tx(3, 2, &[], &[(0, 10), (1, 11)]),
            tx(4, 3, &[(0, 1), (1, 11)], &[]),
        ]
        .into_iter()
        .collect();
        let (inc, leg) = both(&h);
        assert_eq!(inc, leg);
        assert!(!inc.is_ok());
    }

    #[test]
    fn forward_read_falls_back_to_legacy() {
        // T0 reads the value T1 writes later: a forward edge (and, with
        // the reverse read, a causality cycle).
        let h: History = vec![
            tx(0, 0, &[(0, 2)], &[(1, 1)]),
            tx(1, 1, &[(1, 1)], &[(0, 2)]),
        ]
        .into_iter()
        .collect();
        let (inc, leg) = both(&h);
        assert_eq!(inc, leg);
        assert!(inc.violations.contains(&Violation::CausalityCycle));
    }

    #[test]
    fn fixpoint_fallback_on_fractured_reads() {
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1), (1, 2)]),
            tx(1, 1, &[], &[(0, 3), (1, 4)]),
            tx(2, 2, &[(0, 1), (1, 4)], &[]),
        ]
        .into_iter()
        .collect();
        let (inc, leg) = both(&h);
        assert_eq!(inc, leg);
        assert!(inc.violations.contains(&Violation::Unserializable {
            client: ClientId(2)
        }));
    }

    #[test]
    fn duplicate_values_short_circuit() {
        let h: History = vec![tx(0, 0, &[], &[(0, 1)]), tx(1, 1, &[], &[(1, 1)])]
            .into_iter()
            .collect();
        let (inc, leg) = both(&h);
        assert_eq!(inc, leg);
        assert_eq!(inc.violations, vec![Violation::DuplicateValues]);
    }

    #[test]
    fn bottom_read_after_write_matches_legacy() {
        let h: History = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 1, &[(0, 1)], &[]),
            tx(2, 1, &[(0, u64::MAX)], &[]),
        ]
        .into_iter()
        .collect();
        let (inc, leg) = both(&h);
        assert_eq!(inc, leg);
        assert!(inc
            .violations
            .iter()
            .any(|v| matches!(v, Violation::BottomReadAfterWrite { .. })));
    }

    #[test]
    fn long_chain_stays_linear_and_consistent() {
        let mut records = vec![tx(0, 0, &[], &[(0, 100)])];
        for i in 1..200u64 {
            records.push(tx(i, i as u32 % 8, &[(0, 99 + i)], &[(0, 100 + i)]));
        }
        let h: History = records.into_iter().collect();
        let (inc, leg) = both(&h);
        assert_eq!(inc, leg);
    }

    /// Drive the pipeline shape (one writer client, one reader client,
    /// monotone store) with GC after every round; verdicts must stay
    /// bit-identical to the unpruned twin and memory must actually drop.
    #[test]
    fn gc_is_invisible_on_a_monotone_stream() {
        let mut pruned = CausalChecker::new();
        let mut full = CausalChecker::new();
        let mut store = [0u64; 4];
        let (mut val, mut id) = (1u64, 0u64);
        for round in 0..50 {
            for k in 0..4u32 {
                store[k as usize] = val;
                let t = tx(id, 0, &[], &[(k, val)]);
                pruned.ingest(t.clone());
                full.ingest(t);
                id += 1;
                val += 1;
            }
            for k in 0..4u32 {
                let t = tx(id, 1, &[(k, store[k as usize])], &[]);
                pruned.ingest(t.clone());
                full.ingest(t);
                id += 1;
            }
            let stats = pruned.gc();
            assert_eq!(stats.blocked, None, "round {round}: {stats:?}");
            assert_eq!(pruned.verdict(), full.verdict(), "round {round}");
            assert_eq!(pruned.verdict().render(), full.verdict().render());
        }
        assert!(pruned.retired() > 300, "retired {}", pruned.retired());
        let (p, f) = (pruned.resident_stats(), full.resident_stats());
        assert!(
            p.txs < f.txs / 4,
            "resident {} vs unpruned {}",
            p.txs,
            f.txs
        );
        assert!(p.clock_slots < f.clock_slots / 4);
        assert!(p.chain_entries < f.chain_entries);
        assert!(pruned.verdict().is_ok());
    }

    /// A cold key — written once, never rewritten, read forever after —
    /// must stay in the self-derived live set across repeated GC passes.
    /// Regression: the live writer's own chain entry used to be pruned
    /// (its frontier entry is `pos + 1`), so the key vanished from
    /// `derive_live` and the next read of its still-current value
    /// tripped the settled-floor panic.
    #[test]
    fn gc_keeps_cold_live_keys_readable() {
        let mut pruned = CausalChecker::new();
        let mut full = CausalChecker::new();
        let mut id = 0u64;
        let both_ingest = |p: &mut CausalChecker, f: &mut CausalChecker, t: TxRecord| {
            p.ingest(t.clone());
            f.ingest(t);
        };
        // Warmup: hot-key traffic only (values 1..=20), GC each round.
        let mut hot_val = 1u64;
        for round in 0..5 {
            for _ in 0..4 {
                both_ingest(&mut pruned, &mut full, tx(id, 0, &[], &[(1, hot_val)]));
                both_ingest(&mut pruned, &mut full, tx(id + 1, 1, &[(1, hot_val)], &[]));
                id += 2;
                hot_val += 1;
            }
            let stats = pruned.gc();
            assert_eq!(stats.blocked, None, "warmup {round}: {stats:?}");
        }
        // The cold write: key 0 gets value 100, then is only ever read.
        let cold = pruned.len();
        both_ingest(&mut pruned, &mut full, tx(id, 0, &[], &[(0, 100)]));
        id += 1;
        hot_val = 101;
        for round in 0..10 {
            for _ in 0..4 {
                both_ingest(&mut pruned, &mut full, tx(id, 0, &[], &[(1, hot_val)]));
                both_ingest(
                    &mut pruned,
                    &mut full,
                    tx(id + 1, 1, &[(1, hot_val), (0, 100)], &[]),
                );
                id += 2;
                hot_val += 1;
            }
            let stats = pruned.gc();
            assert_eq!(stats.blocked, None, "round {round}: {stats:?}");
            assert_eq!(pruned.verdict(), full.verdict(), "round {round}");
        }
        // The traffic before the cold write retired, and so did the cold
        // writer itself: liveness keeps only its stub.
        assert!(pruned.retired() > 0, "retired {}", pruned.retired());
        assert!(
            pruned.retired() > cold,
            "the cold writer (tx {cold}) still pins the cut at {}",
            pruned.retired()
        );
        assert_eq!(pruned.resident_stats().stubs, 1);
        assert!(pruned.verdict().is_ok());
    }

    /// Four writer clients, each writing its own key and reading the
    /// others' latest values: frontiers overlap, so GC retires. Ids stay
    /// below 100.
    fn compacted_pair() -> (CausalChecker, CausalChecker) {
        let mut pruned = CausalChecker::new();
        let mut full = CausalChecker::new();
        let mut latest = [0u64; 4];
        let mut val = 1u64;
        for round in 0..6u64 {
            for c in 0..4u32 {
                let reads: Vec<(u32, u64)> = (0..4u32)
                    .filter(|&k| k != c && latest[k as usize] != 0)
                    .map(|k| (10 + k, latest[k as usize]))
                    .collect();
                let t = tx(round * 4 + c as u64, c, &reads, &[(10 + c, val)]);
                latest[c as usize] = val;
                val += 1;
                pruned.ingest(t.clone());
                full.ingest(t);
            }
            assert_eq!(pruned.gc().blocked, None, "round {round}");
        }
        assert!(pruned.retired() > 0, "nothing retired");
        (pruned, full)
    }

    /// Four writing clients, a GC that retires, then a read that
    /// resolves forward. The pruned checker cannot run the legacy
    /// fallback over a compacted history, so it says so in the verdict;
    /// it neither panics nor answers OK.
    #[test]
    fn forward_edge_after_compaction_is_undecided() {
        let (mut pruned, mut full) = compacted_pair();
        let records = [
            tx(100, 0, &[(11, 5000)], &[]), // reads a value not yet written
            tx(101, 1, &[], &[(11, 5000)]),
        ];
        for t in records {
            pruned.ingest(t.clone());
            full.ingest(t);
        }
        let expected = check_causal_legacy(full.history());
        assert_eq!(full.verdict(), expected);
        assert_eq!(full.fallbacks().legacy_verdicts, 1);
        let v = pruned.verdict();
        assert_eq!(
            v.violations,
            vec![Violation::Undecided {
                reason: FORWARD_EDGE_AFTER_GC
            }]
        );
        assert!(
            v.render().contains("forward reads-from edge"),
            "{}",
            v.render()
        );
        assert_eq!(pruned.fallbacks().undecided, 1);
        assert_eq!(pruned.fallbacks().legacy_verdicts, 0);
        let stats = pruned.gc();
        assert!(stats.blocked.is_some());
        assert_eq!(pruned.fallbacks().gc_blocked_forward_edge, 1);
    }

    /// A client that needs the rule-4 fixpoint after a GC retired
    /// something: client 2 sees T_a (through `y`) and then reads `x` from
    /// T_b, which is concurrent with T_a's write of `x`. The unpruned
    /// checker saturates and answers; the pruned one reports the client
    /// undecided.
    #[test]
    fn fixpoint_after_compaction_is_undecided() {
        let (mut pruned, mut full) = compacted_pair();
        let records = [
            tx(100, 0, &[], &[(0, 6000), (1, 6001)]), // T_a writes x, y
            tx(101, 1, &[], &[(0, 6002)]),            // T_b writes x, ∥ T_a
            tx(102, 2, &[(1, 6001)], &[]),            // sees T_a
            tx(103, 2, &[(0, 6002)], &[]),            // reads x from T_b
        ];
        for t in records {
            pruned.ingest(t.clone());
            full.ingest(t);
        }
        assert!(full.rule4_fixpoint_pending());
        let expected = check_causal_legacy(full.history());
        assert_eq!(full.verdict(), expected);
        assert!(full.fallbacks().fixpoint_runs > 0);
        let v = pruned.verdict();
        assert!(!v.is_ok());
        assert!(
            v.violations.contains(&Violation::Undecided {
                reason: FIXPOINT_AFTER_GC
            }),
            "{v:?}"
        );
        assert_eq!(pruned.fallbacks().fixpoint_runs, 0);
        assert_eq!(pruned.fallbacks().undecided, 1);
        let stats = pruned.gc();
        assert!(stats.blocked.is_some());
        assert_eq!(pruned.fallbacks().gc_blocked_fixpoint, 1);
    }

    /// Settled violations survive compaction bit-for-bit: the stale read
    /// references transactions that are retired afterwards.
    #[test]
    fn gc_settles_violations_before_retiring_them() {
        let records = vec![
            tx(0, 0, &[], &[(0, 1)]),
            tx(1, 0, &[], &[(0, 2)]),
            tx(2, 1, &[(0, 2)], &[]),
            tx(3, 1, &[(0, 1)], &[]), // regression: stale read
        ];
        let mut pruned = CausalChecker::new();
        let mut full = CausalChecker::new();
        for t in &records {
            pruned.ingest(t.clone());
            full.ingest(t.clone());
        }
        let stats = pruned.gc();
        assert_eq!(stats.blocked, None, "{stats:?}");
        assert!(stats.settled_edges > 0);
        assert_eq!(pruned.verdict(), full.verdict());
        assert_eq!(pruned.verdict().render(), full.verdict().render());
        assert!(!pruned.verdict().is_ok());
        // ...and stays identical as more (clean) traffic arrives.
        for i in 0..10u64 {
            let t = tx(4 + i, 0, &[], &[(1, 100 + i)]);
            pruned.ingest(t.clone());
            full.ingest(t);
            assert_eq!(pruned.verdict(), full.verdict());
        }
    }

    /// A GC that settles every open edge but retires nothing leaves the
    /// history whole, and a client that needs rule 4's fixpoint later
    /// still owes the settled reads their constraints. Here client 3's
    /// settled read of x from T1 is what closes the cycle once its new
    /// read forces T4 (after T2 in program order) before T0: T1 <c T2 <c
    /// T4 → T0 <c T3 forces T2 before T1.
    #[test]
    fn rule4_after_a_settling_gc_sees_the_settled_reads() {
        let before_gc = [
            tx(0, 0, &[], &[(1, 1)]),         // T0 writes y (live: pins the cut at 0)
            tx(1, 1, &[], &[(0, 2)]),         // T1 writes x
            tx(2, 2, &[(0, 2)], &[(0, 3)]),   // T2 reads T1's x, overwrites it
            tx(3, 3, &[(0, 2), (1, 1)], &[]), // T3 reads T1's x and T0's y
        ];
        let after_gc = [
            tx(4, 2, &[], &[(1, 4), (2, 5)]), // T4 overwrites y, writes z
            tx(5, 3, &[(2, 5), (1, 1)], &[]), // T5 reads T4's z but T0's y
        ];
        let mut pruned = CausalChecker::new();
        let mut full = CausalChecker::new();
        for t in &before_gc {
            pruned.ingest(t.clone());
            full.ingest(t.clone());
        }
        let stats = pruned.gc();
        assert_eq!(stats.blocked, None, "{stats:?}");
        assert_eq!((stats.retired, stats.settled_edges), (0, 3), "{stats:?}");
        for t in &after_gc {
            pruned.ingest(t.clone());
            full.ingest(t.clone());
        }
        assert!(full.rule4_fixpoint_pending());
        let expected = check_causal_legacy(full.history());
        assert_eq!(
            expected.violations,
            vec![Violation::Unserializable {
                client: ClientId(3)
            }]
        );
        assert_eq!(full.verdict(), expected);
        assert_eq!(pruned.verdict(), expected);
    }

    #[test]
    fn gc_refuses_while_reads_are_unresolved() {
        let mut ck = CausalChecker::new();
        ck.ingest(tx(0, 0, &[(0, 77)], &[])); // reads a never-written value
        let stats = ck.gc();
        assert!(stats.blocked.is_some());
        assert_eq!(stats.retired, 0);
        assert_eq!(ck.retired(), 0);
    }

    #[test]
    fn gc_refuses_after_a_forward_edge() {
        let mut ck = CausalChecker::new();
        ck.ingest(tx(0, 0, &[(0, 2)], &[(1, 1)]));
        ck.ingest(tx(1, 1, &[(1, 1)], &[(0, 2)]));
        let stats = ck.gc();
        assert!(stats.blocked.is_some());
        assert_eq!(stats.retired, 0);
        // Verdict still falls back to the legacy path untouched.
        assert!(ck.verdict().violations.contains(&Violation::CausalityCycle));
    }

    fn gc_ready_checker() -> CausalChecker {
        let mut ck = CausalChecker::new();
        ck.ingest(tx(0, 0, &[], &[(0, 1)]));
        ck.ingest(tx(1, 0, &[], &[(0, 2)]));
        ck.ingest(tx(2, 1, &[(0, 2)], &[]));
        let stats = ck.gc();
        assert_eq!(stats.blocked, None);
        assert!(stats.retired > 0, "{stats:?}");
        ck
    }

    #[test]
    #[should_panic(expected = "below the settled floor")]
    fn write_below_the_floor_panics() {
        let mut ck = gc_ready_checker();
        ck.ingest(tx(9, 0, &[], &[(1, 1)])); // value 1 was settled
    }

    #[test]
    #[should_panic(expected = "read of key 0 value 1 below the settled floor")]
    fn read_of_a_settled_value_panics() {
        let mut ck = gc_ready_checker();
        ck.ingest(tx(9, 1, &[(0, 1)], &[])); // key 0's value 1 was settled
    }

    #[test]
    #[should_panic(expected = "⊥-read of key 0")]
    fn bottom_read_of_a_pruned_key_panics() {
        let mut ck = gc_ready_checker();
        ck.ingest(tx(9, 1, &[(0, u64::MAX)], &[]));
    }

    #[test]
    #[should_panic(expected = "session started after history was compacted")]
    fn new_writer_client_after_gc_panics() {
        let mut ck = gc_ready_checker();
        ck.ingest(tx(9, 7, &[], &[(5, 50)]));
    }

    #[test]
    fn live_values_stay_readable_after_gc() {
        let mut ck = gc_ready_checker();
        // Key 0's live value is 2: still perfectly readable.
        ck.ingest(tx(9, 1, &[(0, 2)], &[]));
        assert!(ck.verdict().is_ok());
        // New clients may *read* (their windows only see retained state).
        ck.ingest(tx(10, 7, &[(0, 2)], &[]));
        assert!(ck.verdict().is_ok());
    }
}
