//! The `repro load` exhibit: Table 1 / latency under contention, at
//! client populations the closed-loop protocol drivers cannot reach.
//!
//! Two halves:
//!
//! * **Protocol cells** — the five headline protocols (COPS-SNOW, COPS,
//!   Eiger, RAMP, Spanner-like) × two YCSB mixes, each deployed on a
//!   three-server sharded topology with the per-server service-time
//!   model enabled and driven by a [`ClientSwarm`] in *concurrent
//!   epochs* ([`Cluster::begin_read_tx`] / [`Cluster::begin_write_tx`]):
//!   dozens of transactions are in flight at once, so hot servers queue
//!   and the latency distribution develops a real tail. Every cell ends
//!   in a causal check (via [`ShardedChecker`], the same machinery the
//!   streaming tiers use) and a pinned trace digest.
//!
//! * **Swarm tiers** — a [`ClientSwarm`] multiplexing 10⁵–10⁶ simulated
//!   closed-loop clients over an 8-shard key-value deployment (clients
//!   and keys partitioned by shard), run as one sim→check pipeline
//!   *per shard*, fanned out under
//!   [`cbf_par::parallel_map`]: ops are generated batch by batch
//!   (never materialized), each op passes a *port* actor so it crosses
//!   the network and the server's service queue, commit logs are
//!   checked batch by batch, sealed trace segments are recycled, and
//!   each shard checker is GC'd periodically — resident memory stays
//!   O(clients + batch), never O(ops). Latency percentiles come from a
//!   log-bucketed [`LogHist`]; digests are pinned per tier.
//!
//! Determinism: both halves are pure functions of their seeds. The
//! service queue is deterministic (see [`cbf_sim::ServiceModel`]), the
//! swarm wheel is deterministic, and shard results are folded in shard
//! order — so verdicts, histograms and trace digests are bit-identical
//! across runs and thread counts.
//!
//! [`ClientSwarm`]: cbf_workloads::ClientSwarm
//! [`ShardedChecker`]: cbf_model::ShardedChecker
//! [`LogHist`]: crate::hist::LogHist

#![deny(unsafe_code)]

use std::fmt;

use crate::hist::LogHist;
use cbf_model::checker::Verdict;
use cbf_model::history::TxRecord;
use cbf_model::{ClientId, Key, ResidentStats, ShardedChecker, TxId, Value};
use cbf_sim::{
    Actor, CountingSink, Ctx, LatencyModel, ProcessId, ServiceModel, ServiceStats, SimConfig, Time,
    World, MICROS,
};
use cbf_workloads::{ClientSwarm, Mix, SwarmOp, SwarmSpec};
use snowbound::prelude::{
    Cluster, CopsNode, CopsSnowNode, EigerNode, ProtocolNode, RampNode, SpannerNode, Topology,
    TxError,
};

// ---------------------------------------------------------------------
// Protocol contention cells
// ---------------------------------------------------------------------

/// Servers in a protocol cell (>2: the Appendix-A general model).
const CELL_SERVERS: u32 = 3;
/// Issuing clients per cell.
const CELL_CLIENTS: u32 = 48;
/// Key space per cell.
const CELL_KEYS: u32 = 64;
/// Completed transactions per cell.
const CELL_OPS: usize = 1_536;
/// Per-server service time in a cell (virtual µs). At ~24 concurrent
/// transactions over 3 servers this puts hot servers well past
/// saturation for bursts, which is what stretches the tail.
const CELL_SERVICE_US: u64 = 20;
/// Concurrent transactions per epoch (at most one per client).
const CELL_EPOCH: usize = 24;

/// One (protocol, mix) cell of the contention exhibit.
#[derive(Clone, Debug)]
pub struct LoadCell {
    /// Protocol name.
    pub protocol: String,
    /// Mix label.
    pub mix: String,
    /// Transactions completed.
    pub ops: u64,
    /// Read-only transactions among them.
    pub reads: u64,
    /// Multi-writes downgraded to single writes (protocols without
    /// write transactions).
    pub downgraded: u64,
    /// Read-latency histogram (virtual µs).
    pub read_hist_us: LogHist,
    /// Write-latency histogram (virtual µs).
    pub write_hist_us: LogHist,
    /// Messages sent per completed transaction.
    pub msgs_per_op: f64,
    /// Deliveries that waited in a service queue, as a fraction.
    pub queued_frac: f64,
    /// Sharded causal check passed.
    pub causal_ok: bool,
    /// Trace digest — pinned in `fixtures/load_digests.txt`.
    pub digest: u64,
}

/// Drive one protocol cell: `CELL_OPS` transactions from a swarm of
/// `CELL_CLIENTS` closed-loop clients, up to `CELL_EPOCH` in flight at
/// once. Deterministic in `seed`.
fn run_cell<N: ProtocolNode>(mix: Mix, mix_name: &str, seed: u64) -> LoadCell {
    let topo = Topology::sharded(CELL_SERVERS, CELL_CLIENTS, CELL_KEYS);
    let config = SimConfig {
        service: Some(ServiceModel {
            servers: CELL_SERVERS,
            service_time: CELL_SERVICE_US * MICROS,
        }),
        max_events: 200_000_000,
        ..SimConfig::default()
    };
    let mut cluster: Cluster<N> =
        Cluster::with_network(topo, LatencyModel::constant_default(), config);
    let mut swarm = ClientSwarm::new(
        SwarmSpec {
            num_clients: CELL_CLIENTS,
            num_keys: CELL_KEYS,
            theta: 0.99,
            mix,
            read_keys: 2,
            write_keys: 2,
            wheel_slots: 16,
        },
        seed,
    );

    let mut read_hist = LogHist::new();
    let mut write_hist = LogHist::new();
    let mut done = 0u64;
    let mut reads = 0u64;
    let mut downgraded = 0u64;
    let before_msgs = cluster.world.stats().total_sent();

    // Ops a client generated while it already had one in flight this
    // epoch wait here (FIFO per client — the closed loop's order).
    let mut carry: Vec<SwarmOp> = Vec::new();
    let mut fresh: Vec<SwarmOp> = Vec::new();
    while (done as usize) < CELL_OPS {
        // Gather one epoch: at most one op per client, carryover first.
        let mut busy = vec![false; CELL_CLIENTS as usize];
        let mut epoch: Vec<SwarmOp> = Vec::new();
        carry.retain(|op| {
            let c = op.client as usize;
            if epoch.len() < CELL_EPOCH && !busy[c] {
                busy[c] = true;
                epoch.push(*op);
                false
            } else {
                true
            }
        });
        while epoch.len() < CELL_EPOCH {
            swarm.fill_batch(CELL_EPOCH - epoch.len(), &mut fresh);
            for &op in &fresh {
                let c = op.client as usize;
                if busy[c] {
                    carry.push(op);
                } else {
                    busy[c] = true;
                    epoch.push(op);
                }
            }
        }

        // Begin every transaction of the epoch, then run them all to
        // completion concurrently: this is where queues form.
        let mut open = Vec::with_capacity(epoch.len());
        for op in &epoch {
            let client = ClientId(op.client);
            let keys: Vec<Key> = op.keys[..op.nkeys as usize]
                .iter()
                .map(|&k| Key(k))
                .collect();
            let t = if !op.write {
                cluster.begin_read_tx(client, &keys)
            } else {
                match cluster.begin_write_tx(client, &keys) {
                    Ok(t) => t,
                    Err(TxError::MultiWriteUnsupported) => {
                        downgraded += 1;
                        cluster
                            .begin_write_tx(client, &keys[..1])
                            .expect("every protocol supports single-object writes")
                    }
                    Err(e) => panic!("{}: begin_write_tx: {e}", N::NAME),
                }
            };
            open.push(t);
        }
        assert!(
            cluster.run_open(&open),
            "{}: epoch did not complete within the horizon",
            N::NAME
        );
        for t in open {
            let is_read = t.writes.is_empty();
            let lat = cluster
                .finish_tx(t)
                .unwrap_or_else(|e| panic!("{}: finish_tx: {e}", N::NAME));
            if is_read {
                reads += 1;
                read_hist.record(lat / 1_000);
            } else {
                write_hist.record(lat / 1_000);
            }
            done += 1;
        }
    }

    let sent = cluster.world.stats().total_sent() - before_msgs;
    let ss = cluster.world.service_stats();
    // The cell's sharded check: the ROTs span servers, so clients and
    // keys all interleave — one shard is the honest partition, and it
    // exercises the same streaming-checker path as the big tiers.
    let mut checker = ShardedChecker::new(1);
    for t in cluster.history().transactions() {
        checker.ingest(t.clone());
    }
    LoadCell {
        protocol: N::NAME.to_string(),
        mix: mix_name.to_string(),
        ops: done,
        reads,
        downgraded,
        read_hist_us: read_hist,
        write_hist_us: write_hist,
        msgs_per_op: sent as f64 / done.max(1) as f64,
        queued_frac: ss.delayed as f64 / ss.served.max(1) as f64,
        causal_ok: checker.verdict().is_ok(),
        digest: cluster.world.trace.digest(),
    }
}

/// The (protocol, mix) cells of the contention exhibit, in fixed order.
/// Cells are independent deployments, so they fan out through
/// [`cbf_par::parallel_map`]; each is a pure function of the seed, so
/// the table is bit-identical to a serial run.
pub fn load_cells(seed: u64) -> Vec<LoadCell> {
    let mixes: [(Mix, &str); 2] = [(Mix::ycsb_a(), "ycsb_a"), (Mix::ycsb_b(), "ycsb_b")];
    let mut jobs: Vec<Box<dyn Fn() -> LoadCell + Send>> = Vec::new();
    for (mix, name) in mixes {
        jobs.push(Box::new(move || run_cell::<CopsSnowNode>(mix, name, seed)));
        jobs.push(Box::new(move || run_cell::<CopsNode>(mix, name, seed)));
        jobs.push(Box::new(move || run_cell::<EigerNode>(mix, name, seed)));
        jobs.push(Box::new(move || run_cell::<RampNode>(mix, name, seed)));
        jobs.push(Box::new(move || run_cell::<SpannerNode>(mix, name, seed)));
    }
    cbf_par::parallel_map(jobs, |job| job())
}

// ---------------------------------------------------------------------
// Swarm tiers: the streaming million-client engine
// ---------------------------------------------------------------------

/// Servers (= checker shards) in the swarm deployment.
pub const SWARM_SERVERS: u32 = 8;
/// Ops per streamed batch (capped to one wheel slot — see
/// [`swarm_batch_ops`]).
pub const SWARM_BATCH_OPS: usize = 4_096;
/// Per-server service time (virtual µs) in the swarm deployment.
const SWARM_SERVICE_US: u64 = 2;
/// Checker GC cadence, in batches.
const GC_EVERY_BATCHES: u64 = 16;
/// Read-only checker sessions ("lanes") per shard. The checker's
/// ingest cost and GC frontier are per-session (a vector clock entry
/// each), so a million distinct client sessions would make checking
/// itself quadratic and pin the GC frontier forever. Instead each
/// shard's commit log is re-attributed before checking: every *write*
/// lands in one writer session per shard (session id = the shard), so
/// writes stay totally ordered — exactly the server's sequential commit
/// order — and the checker's rule-4 scan never sees concurrent writers;
/// *reads* are folded round-robin onto `LANES_PER_SHARD` read-only
/// lanes. The fold is sound because every client is closed-loop (its
/// next op is issued only after its previous op committed), so each
/// client's program order embeds in its server's commit order, and a
/// lane's program order is that commit order restricted to the lane:
/// merging sessions only *adds* program-order constraints, so a passing
/// verdict implies the per-client causal property. Read lanes never
/// write, so they pin no version chains and the GC frontier keeps
/// advancing. The per-client guarantee itself is exhibited at full
/// client fidelity by the protocol cells.
const LANES_PER_SHARD: u32 = 32;
/// Wheel slots in the swarm (think time is 1..slots slots).
const SWARM_SLOTS: u32 = 16;

/// Batch size for a tier: at most [`SWARM_BATCH_OPS`], and at most one
/// wheel slot's worth of clients — a batch must never span slots, so no
/// client appears twice in one batch and every op is issued strictly
/// after the client's previous op completed (the closed-loop claim).
pub fn swarm_batch_ops(clients: u64) -> usize {
    (clients / SWARM_SLOTS as u64).clamp(1, SWARM_BATCH_OPS as u64) as usize
}

/// Resident-segment bound for the streaming swarm run, in trace
/// segments: each op contributes a bounded number of trace events
/// (inject + send + deliver + step, plus gossip for a quarter of the
/// writes), all recycled at batch end.
pub fn swarm_segment_bound() -> u64 {
    (6 * SWARM_BATCH_OPS / cbf_sim::SEAL_CAP) as u64 + 4
}

/// Wire format of the swarm deployment.
#[derive(Clone)]
pub enum LoadMsg {
    /// One client operation, routed via the client's port.
    Op {
        /// Global op id (= transaction id).
        id: u64,
        /// Issuing virtual client.
        client: u32,
        /// Global key (homed at server `key % SWARM_SERVERS`).
        key: u32,
        /// Driver-allocated distinct value (writes only).
        val: u64,
        /// Write or read.
        write: bool,
        /// Virtual invocation time (driver `now` at inject).
        at: Time,
    },
    /// Fire-and-forget replication gossip (absorbed, never logged, so
    /// checker shards stay isolated).
    Repl {
        /// Replicated key.
        key: u32,
        /// Replicated value.
        val: u64,
    },
}

/// The trace digest folds the `Debug` rendering of every recorded
/// event, so at millions of ops the rendered bytes *are* the hot path.
/// Render compactly: the digest only needs the bytes to be a total
/// function of the message, not pretty. (Swarm digests are pinned
/// against this rendering and no other exhibit traces `LoadMsg`.)
impl fmt::Debug for LoadMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LoadMsg::Op {
                id,
                client,
                key,
                val,
                write,
                at,
            } => {
                let rw = if write { 'W' } else { 'R' };
                write!(f, "O({id},{client},{key},{val},{rw},{at})")
            }
            LoadMsg::Repl { key, val } => write!(f, "G({key},{val})"),
        }
    }
}

/// Process ids inside one shard's world: the key-value server (the
/// only serviced process), the ingress port, and the gossip replica.
const SHARD_SERVER: u32 = 0;
/// See [`SHARD_SERVER`].
const SHARD_PORT: u32 = 1;
/// See [`SHARD_SERVER`].
const SHARD_REPLICA: u32 = 2;

/// An actor of one shard's world. A port forwards each op to the
/// server via a real network send, so every op crosses
/// `schedule_arrival` — the network latency *and* the server's service
/// queue — before it commits. Injecting straight at the server would
/// bypass both and flatten every percentile to the constant round
/// trip. The replica absorbs the server's every-4th-write gossip, so
/// replication traffic shares the network without ever being read back
/// (checker shards stay isolated).
#[derive(Clone)]
pub enum LoadNode {
    /// A key-value server owning the keys `≡ me (mod SWARM_SERVERS)`,
    /// stored by per-shard rank (`key / SWARM_SERVERS`).
    Server {
        /// Shard index (for routing sanity checks).
        me: u32,
        /// Primary store, indexed by key rank.
        store: Vec<Option<u64>>,
        /// Gossip shadow store (never read back).
        shadow: Vec<Option<u64>>,
        /// Writes applied (drives the gossip cadence).
        writes_seen: u64,
        /// Commit log, drained by the driver after every batch.
        log: Vec<TxRecord>,
    },
    /// The stateless ingress port for the shard's clients.
    Port,
}

impl LoadNode {
    /// A server (or replica) for a shard of `keys_per_shard` keys.
    pub fn server(me: u32, keys_per_shard: u32) -> Self {
        LoadNode::Server {
            me,
            store: vec![None; keys_per_shard as usize],
            shadow: vec![None; keys_per_shard as usize],
            writes_seen: 0,
            log: Vec::new(),
        }
    }

    /// Drain the commit log.
    pub fn take_log(&mut self) -> Vec<TxRecord> {
        match self {
            LoadNode::Server { log, .. } => std::mem::take(log),
            LoadNode::Port => Vec::new(),
        }
    }
}

impl Actor for LoadNode {
    type Msg = LoadMsg;
    fn step(&mut self, ctx: &mut Ctx<LoadMsg>) {
        let now = ctx.now();
        for env in ctx.recv() {
            match self {
                LoadNode::Port => {
                    if let LoadMsg::Op { .. } = env.msg {
                        ctx.send(ProcessId(SHARD_SERVER), env.msg);
                    }
                }
                LoadNode::Server {
                    me,
                    store,
                    shadow,
                    writes_seen,
                    log,
                } => match env.msg {
                    LoadMsg::Op {
                        id,
                        client,
                        key,
                        val,
                        write,
                        at,
                    } => {
                        debug_assert_eq!(key % SWARM_SERVERS, *me, "op routed to wrong shard");
                        let rank = (key / SWARM_SERVERS) as usize;
                        let (reads, writes) = if write {
                            store[rank] = Some(val);
                            *writes_seen += 1;
                            if writes_seen.is_multiple_of(4) {
                                ctx.send(ProcessId(SHARD_REPLICA), LoadMsg::Repl { key, val });
                            }
                            (vec![], vec![(Key(key), Value(val))])
                        } else {
                            let v = store[rank]
                                .expect("init prefix wrote every key before any client read");
                            (vec![(Key(key), Value(v))], vec![])
                        };
                        log.push(TxRecord {
                            id: TxId(id),
                            client: ClientId(client),
                            reads,
                            writes,
                            invoked_at: at,
                            completed_at: now,
                        });
                    }
                    LoadMsg::Repl { key, val } => {
                        shadow[(key / SWARM_SERVERS) as usize] = Some(val);
                    }
                },
            }
        }
    }
}

/// What one swarm tier produced and proved.
#[derive(Clone, Debug)]
pub struct SwarmTier {
    /// Simulated closed-loop clients.
    pub clients: u64,
    /// Client operations driven (excluding the init prefix).
    pub ops: u64,
    /// Init-prefix writes (one per key).
    pub init_ops: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Trace events recorded (including recycled ones).
    pub trace_events: u64,
    /// Read-latency histogram (virtual µs).
    pub read_hist_us: LogHist,
    /// Write-latency histogram (virtual µs).
    pub write_hist_us: LogHist,
    /// Deliveries that waited in a service queue, as a fraction.
    pub queued_frac: f64,
    /// Largest service-queue wait (virtual µs).
    pub max_queue_wait_us: u64,
    /// Peak sealed trace segments resident at any drain point.
    pub peak_segments_resident: u64,
    /// Segments recycled over the run.
    pub recycled_segments: u64,
    /// Transactions checked per shard.
    pub shard_txs: Vec<u64>,
    /// Checker GC passes run mid-stream.
    pub gc_passes: u64,
    /// Transactions retired by mid-stream GC.
    pub gc_retired: u64,
    /// Checker resident sizes after the verdict.
    pub resident: ResidentStats,
    /// The sharded causal verdict.
    pub verdict: Verdict,
    /// FNV-1a fold of the per-shard trace digests, in shard order —
    /// pinned in `fixtures/load_digests.txt`.
    pub digest: u64,
}

/// What one shard's pipeline produced, folded into [`SwarmTier`] in
/// shard order.
struct ShardRun {
    digest: u64,
    events: u64,
    trace_events: u64,
    peak_segments: u64,
    recycled_segments: u64,
    ss: ServiceStats,
    read_hist: LogHist,
    write_hist: LogHist,
    txs: u64,
    gc_passes: u64,
    gc_retired: u64,
    resident: ResidentStats,
    verdict: Verdict,
}

/// Drive one shard of a swarm tier on one thread: its own world
/// (server + port + replica), its own swarm slice, its own shard of
/// the causal check — generate a batch, simulate it to quiescence,
/// check it, recycle the trace, repeat. Shards share nothing (clients
/// and keys are partitioned by construction — the property
/// [`ShardedChecker`] normally asserts at ingest), so the tier fans
/// one pipeline out per shard and stays bit-identical in serial mode.
fn run_swarm_shard(shard: u32, clients: u32, ops: u64, keys_per_shard: u32, seed: u64) -> ShardRun {
    let batch_ops = swarm_batch_ops(clients as u64);
    let mut w = World::new(
        vec![
            LoadNode::server(shard, keys_per_shard),
            LoadNode::Port,
            LoadNode::server(shard, keys_per_shard),
        ],
        LatencyModel::constant_default(),
        SimConfig {
            record_trace: true,
            // Injects are driver bookkeeping, not network behaviour;
            // skipping them drops ~1 recorded event (and one message
            // clone) per op from the digest hot path.
            trace_injects: false,
            service: Some(ServiceModel {
                servers: 1, // only SHARD_SERVER queues
                service_time: SWARM_SERVICE_US * MICROS,
            }),
            max_events: u64::MAX,
            ..SimConfig::default()
        },
    );
    let mut sink = CountingSink::default();
    let mut peak_segments = 0usize;
    // Ids and values are strided by shard so they stay globally unique
    // (TxIds across the tier, values within each shard checker's
    // monotone-floor contract) without cross-shard coordination.
    let mut next_id = shard as u64;
    let mut next_val = 1 + shard as u64;
    let mut checker = ShardedChecker::new(1);
    let mut read_hist = LogHist::new();
    let mut write_hist = LogHist::new();
    let mut batches = 0u64;
    let mut gc_passes = 0u64;
    let mut gc_retired = 0u64;

    let drive = |w: &mut World<LoadNode>,
                 checker: &mut ShardedChecker,
                 read_hist: &mut LogHist,
                 write_hist: &mut LogHist| {
        w.kick(ProcessId(SHARD_PORT));
        w.run_until_quiescent();
        for t in w.actor_mut(ProcessId(SHARD_SERVER)).take_log() {
            let lat = t.completed_at.saturating_sub(t.invoked_at) / 1_000;
            if t.writes.is_empty() {
                read_hist.record(lat);
            } else {
                write_hist.record(lat);
            }
            checker.ingest(t);
        }
    };

    // Init prefix: every key written once, attributed to the shard's
    // writer session (all writes carry checker client `shard` — see
    // [`LANES_PER_SHARD`]), in one quiesced wave before any client
    // reads. This also registers the writer session ahead of the first
    // GC, satisfying the checker's stable-writer-population contract.
    for rank in 0..keys_per_shard {
        w.inject_no_step(
            ProcessId(SHARD_PORT),
            LoadMsg::Op {
                id: next_id,
                client: shard,
                key: rank * SWARM_SERVERS + shard,
                val: next_val,
                write: true,
                at: w.now(),
            },
        );
        next_id += SWARM_SERVERS as u64;
        next_val += SWARM_SERVERS as u64;
    }
    drive(&mut w, &mut checker, &mut read_hist, &mut write_hist);
    peak_segments = peak_segments.max(w.trace.resident_segments());
    w.trace.drain_sealed(&mut sink);

    // The client stream: batch, quiesce, check, recycle — forever
    // bounded. Keys are per-shard Zipf ranks lifted to global ids
    // (`rank * SWARM_SERVERS + shard`); for the checker, writes are
    // attributed to the shard's writer session and reads folded onto
    // `LANES_PER_SHARD` read lanes (see the constant's doc for the
    // soundness argument); latency histograms still see every op.
    let mut swarm = ClientSwarm::new(
        SwarmSpec {
            num_clients: clients,
            num_keys: keys_per_shard,
            theta: 0.99,
            mix: Mix::ycsb_a(),
            read_keys: 1,
            write_keys: 1,
            wheel_slots: SWARM_SLOTS,
        },
        seed ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(shard as u64 + 1)),
    );
    let mut batch_buf: Vec<SwarmOp> = Vec::with_capacity(batch_ops);
    let mut driven = 0u64;
    while driven < ops {
        let want = batch_ops.min((ops - driven) as usize);
        swarm.fill_batch(want, &mut batch_buf);
        let at = w.now();
        for op in &batch_buf {
            let lane = if op.write {
                shard
            } else {
                SWARM_SERVERS * (1 + op.client % LANES_PER_SHARD) + shard
            };
            let val = if op.write {
                let v = next_val;
                next_val += SWARM_SERVERS as u64;
                v
            } else {
                0
            };
            w.inject_no_step(
                ProcessId(SHARD_PORT),
                LoadMsg::Op {
                    id: next_id,
                    client: lane,
                    key: op.keys[0] * SWARM_SERVERS + shard,
                    val,
                    write: op.write,
                    at,
                },
            );
            next_id += SWARM_SERVERS as u64;
        }
        driven += batch_buf.len() as u64;
        drive(&mut w, &mut checker, &mut read_hist, &mut write_hist);
        peak_segments = peak_segments.max(w.trace.resident_segments());
        w.trace.drain_sealed(&mut sink);
        batches += 1;
        if batches.is_multiple_of(GC_EVERY_BATCHES) {
            let g = checker.gc();
            gc_passes += 1;
            gc_retired += g.retired as u64;
        }
    }
    peak_segments = peak_segments.max(w.trace.resident_segments());
    w.trace.drain_rest(&mut sink);
    ShardRun {
        digest: w.trace.digest(),
        events: w.stats().events,
        trace_events: w.trace.len() as u64,
        peak_segments: peak_segments as u64,
        recycled_segments: sink.segments as u64,
        ss: w.service_stats(),
        txs: checker.len() as u64,
        gc_passes,
        gc_retired,
        resident: checker.resident_stats(),
        verdict: checker.verdict(),
        read_hist,
        write_hist,
    }
}

/// Run one swarm tier: `clients` closed-loop clients issuing `ops`
/// operations (after an init prefix writing every key once) over
/// `SWARM_SERVERS` server shards with `keys_per_shard` keys each, one
/// sim→check pipeline per shard fanned out under
/// [`cbf_par::parallel_map`]. Deterministic in `(clients, ops,
/// keys_per_shard, seed)`: every per-shard pipeline is seeded and
/// virtual-time, and the merge below folds in shard order, so the
/// serial escape hatch (`SNOWBOUND_THREADS=1`) is bit-identical.
pub fn run_swarm_tier(clients: u64, ops: u64, keys_per_shard: u32, seed: u64) -> SwarmTier {
    assert!(clients >= SWARM_SERVERS as u64, "need one client per shard");
    let jobs: Vec<(u32, u32, u64)> = (0..SWARM_SERVERS)
        .map(|s| {
            let c = clients / SWARM_SERVERS as u64
                + u64::from((s as u64) < clients % SWARM_SERVERS as u64);
            let o = ops / SWARM_SERVERS as u64 + u64::from((s as u64) < ops % SWARM_SERVERS as u64);
            (s, c as u32, o)
        })
        .collect();
    let runs = cbf_par::parallel_map(jobs, |(s, c, o)| {
        run_swarm_shard(s, c, o, keys_per_shard, seed)
    });

    // Fold in shard order. The tier digest is an FNV-1a fold of the
    // per-shard world digests — one replay fingerprint for the whole
    // deployment.
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut read_hist = LogHist::new();
    let mut write_hist = LogHist::new();
    let (mut events, mut trace_events, mut recycled, mut peak) = (0u64, 0u64, 0u64, 0u64);
    let mut ss = ServiceStats::default();
    let mut shard_txs = Vec::with_capacity(runs.len());
    let (mut gc_passes, mut gc_retired) = (0u64, 0u64);
    let mut resident = ResidentStats::default();
    let mut verdict = Verdict::default();
    for r in runs {
        for b in r.digest.to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
        read_hist.merge(&r.read_hist);
        write_hist.merge(&r.write_hist);
        events += r.events;
        trace_events += r.trace_events;
        recycled += r.recycled_segments;
        peak = peak.max(r.peak_segments);
        ss.served += r.ss.served;
        ss.delayed += r.ss.delayed;
        ss.max_wait = ss.max_wait.max(r.ss.max_wait);
        shard_txs.push(r.txs);
        gc_passes += r.gc_passes;
        gc_retired += r.gc_retired;
        resident.txs += r.resident.txs;
        resident.clock_slots += r.resident.clock_slots;
        resident.chain_entries += r.resident.chain_entries;
        resident.open_edges += r.resident.open_edges;
        resident.spill_entries += r.resident.spill_entries;
        resident.settled_violations += r.resident.settled_violations;
        verdict.violations.extend(r.verdict.violations);
    }

    SwarmTier {
        clients,
        ops,
        init_ops: keys_per_shard as u64 * SWARM_SERVERS as u64,
        events,
        trace_events,
        read_hist_us: read_hist,
        write_hist_us: write_hist,
        queued_frac: ss.delayed as f64 / ss.served.max(1) as f64,
        max_queue_wait_us: ss.max_wait / 1_000,
        peak_segments_resident: peak,
        recycled_segments: recycled,
        shard_txs,
        gc_passes,
        gc_retired,
        resident,
        verdict,
        digest,
    }
}

// ---------------------------------------------------------------------
// Report, fixtures, rendering
// ---------------------------------------------------------------------

/// The committed digests for the load exhibit, keyed by cell label or
/// client tier. Regenerate by running `repro load` and copying the
/// printed digests.
const DIGEST_FIXTURE: &str = include_str!("../fixtures/load_digests.txt");

/// The committed digest for a fixture key, if one is pinned.
pub fn expected_load_digest(key: &str) -> Option<u64> {
    DIGEST_FIXTURE.lines().find_map(|line| {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let (k, d) = line.split_once(char::is_whitespace)?;
        (k == key)
            .then(|| u64::from_str_radix(d.trim(), 16).ok())
            .flatten()
    })
}

/// A cell's fixture key: `cell:<protocol>:<mix>`.
pub fn cell_key(cell: &LoadCell) -> String {
    format!("cell:{}:{}", cell.protocol, cell.mix)
}

/// The full `repro load` report.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Protocol contention cells.
    pub cells: Vec<LoadCell>,
    /// Swarm tiers, ascending client count.
    pub tiers: Vec<SwarmTier>,
}

/// The swarm tiers for a client cap: always the 100k tier, plus the 1M
/// tier when the cap allows. Ops scale with clients so every client
/// cycles a few times; keys are scarce relative to clients (contention).
pub fn swarm_tiers(max_clients: u64, seed: u64) -> Vec<SwarmTier> {
    let mut tiers = Vec::new();
    // Key spaces are deliberately hot (a few hundred Zipf keys per
    // shard): contention is the exhibit, and a hot key space keeps the
    // checker's GC cut moving — the cut can never pass the oldest
    // still-live writer, so a key that went cold holds a window of
    // history resident until it is next overwritten.
    if max_clients >= 100_000 {
        tiers.push(run_swarm_tier(100_000, 1_000_000, 256, seed));
    }
    if max_clients >= 1_000_000 {
        tiers.push(run_swarm_tier(1_000_000, 2_000_000, 256, seed));
    }
    if tiers.is_empty() {
        // Smoke tier for tiny caps (tests, quick local runs).
        tiers.push(run_swarm_tier(
            max_clients.max(SWARM_SERVERS as u64),
            max_clients.max(8) * 8,
            64,
            seed,
        ));
    }
    tiers
}

/// Render the cells as the `repro load` text block.
pub fn render_cells(cells: &[LoadCell]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "   {:<12} {:<7} {:>5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>6}  causal  digest\n",
        "protocol", "mix", "ops", "r p50", "r p99", "r p999", "w p50", "w p99", "msgs/op", "queued"
    ));
    for c in cells {
        out.push_str(&format!(
            "   {:<12} {:<7} {:>5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7.2} {:>5.1}%  {:<6}  {:016x}\n",
            c.protocol,
            c.mix,
            c.ops,
            c.read_hist_us.percentile(50.0),
            c.read_hist_us.percentile(99.0),
            c.read_hist_us.percentile(99.9),
            c.write_hist_us.percentile(50.0),
            c.write_hist_us.percentile(99.0),
            c.msgs_per_op,
            c.queued_frac * 100.0,
            if c.causal_ok { "OK" } else { "FAIL" },
            c.digest,
        ));
    }
    out
}

/// Render the swarm tiers as the `repro load` text block.
pub fn render_tiers(tiers: &[SwarmTier]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "   {:<9} {:>9} {:>10} {:>8} {:>8} {:>8} {:>7} {:>9} {:>8}  causal  digest\n",
        "clients", "ops", "events", "r p50", "r p99", "r p999", "queued", "peak segs", "resident"
    ));
    for t in tiers {
        out.push_str(&format!(
            "   {:<9} {:>9} {:>10} {:>8} {:>8} {:>8} {:>6.1}% {:>9} {:>8}  {:<6}  {:016x}\n",
            t.clients,
            t.ops,
            t.events,
            t.read_hist_us.percentile(50.0),
            t.read_hist_us.percentile(99.0),
            t.read_hist_us.percentile(99.9),
            t.queued_frac * 100.0,
            t.peak_segments_resident,
            t.resident.txs,
            if t.verdict.is_ok() { "OK" } else { "FAIL" },
            t.digest,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tier_is_deterministic_and_checked() {
        let run = || run_swarm_tier(256, 2_048, 64, 7);
        let a = run();
        assert!(a.verdict.is_ok(), "causal check failed: {:?}", a.verdict);
        assert_eq!(a.ops, 2_048);
        assert_eq!(a.shard_txs.iter().sum::<u64>(), a.ops + a.init_ops);
        // Queueing is real at this load...
        assert!(a.queued_frac > 0.0, "no delivery ever queued");
        // ...so the tail must sit above the median.
        assert!(
            a.read_hist_us.percentile(99.0) > a.read_hist_us.percentile(50.0),
            "degenerate percentiles: p50 {} p99 {}",
            a.read_hist_us.percentile(50.0),
            a.read_hist_us.percentile(99.0)
        );
        assert!(a.peak_segments_resident <= swarm_segment_bound());
        // Bit-identical replay.
        let b = run();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.read_hist_us.buckets_json(), b.read_hist_us.buckets_json());
    }

    #[test]
    fn smoke_tier_closed_loop_spacing() {
        // A batch never spans wheel slots, so per-client ops are issued
        // in strictly later batches than their predecessors complete in.
        assert_eq!(swarm_batch_ops(256), 16);
        assert_eq!(swarm_batch_ops(100_000), 4_096);
        assert_eq!(swarm_batch_ops(1_000_000), 4_096);
        assert_eq!(swarm_batch_ops(8), 1);
    }

    #[test]
    fn cells_separate_snow_from_a_slower_protocol() {
        let snow = run_cell::<CopsSnowNode>(Mix::ycsb_b(), "ycsb_b", 11);
        let spanner = run_cell::<SpannerNode>(Mix::ycsb_b(), "ycsb_b", 11);
        assert!(snow.causal_ok && spanner.causal_ok);
        assert!(
            snow.read_hist_us.percentile(50.0) < spanner.read_hist_us.percentile(50.0),
            "snow p50 {} !< spanner p50 {}",
            snow.read_hist_us.percentile(50.0),
            spanner.read_hist_us.percentile(50.0)
        );
        // Contention makes the tail real in at least these cells.
        assert!(
            snow.read_hist_us.percentile(99.0) > snow.read_hist_us.percentile(50.0)
                || spanner.read_hist_us.percentile(99.0) > spanner.read_hist_us.percentile(50.0)
        );
    }

    #[test]
    fn fixture_parses() {
        // The fixture file must stay parseable; pinned keys round-trip.
        for line in DIGEST_FIXTURE.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, _) = line.split_once(char::is_whitespace).expect("key digest");
            assert!(
                expected_load_digest(k).is_some(),
                "fixture line for {k} does not parse"
            );
        }
    }
}
