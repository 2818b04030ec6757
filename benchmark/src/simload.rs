//! The shared closed-loop driver of the three simulated transaction
//! workloads (and of `net-loopback`'s virtual-time twin).
//!
//! One protocol run: build topology, cluster and swarm, write every key
//! once through the epoch loop (set-up, untimed), then drive `txs`
//! swarm transactions through the same loop and end with the trace
//! digest and the causal verdict (timed). An epoch is at most one op per
//! client and `epoch` ops in flight: `begin_*` × n → `run_open` →
//! `finish_tx` × n → `drain_sealed` into a counting sink → the checker's
//! `ingest` of the epoch's records → `gc()` every `gc_every` epochs.

use crate::clock::now_ns;
use crate::span::{Layers, Recorder};
use cbf_model::{ClientId, Key, ShardedChecker};
use cbf_protocols::{Cluster, ProtocolNode, Topology, TxError};
use cbf_sim::{
    Actor, CountingSink, Ctx, FaultPlan, LatencyModel, ProcessId, RunOutcome, ServiceModel,
    SimConfig, World, MICROS, MILLIS,
};
use cbf_workloads::{ClientSwarm, Mix, SwarmOp, SwarmSpec, MAX_TX_KEYS};

/// Shape of one simulated workload.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    pub mix: Mix,
    pub keys: u32,
    pub servers: u32,
    pub clients: u32,
    /// Transactions in flight per epoch (at most one per client).
    pub epoch: usize,
    /// Timed transactions per protocol.
    pub txs: usize,
    /// Per-server service time in virtual µs (0 = no queueing model).
    pub service_us: u64,
    /// Checker GC cadence in epochs (0 = never).
    pub gc_every: u64,
    /// Client retries plus a seed-derived fault plan: 20‰ drops, 20‰
    /// duplicates, server 1 crashed at 50 virtual ms for 8 ms with its
    /// volatile state lost.
    pub chaos: bool,
}

/// Everything measured about one protocol's run. Every field but the
/// wall-clock ones is a pure function of `(spec, seed)`.
#[derive(Clone, Debug, Default)]
pub struct ProtoRun {
    pub name: &'static str,
    /// One sample per set-up repetition ([`SETUP_REPS`]).
    pub setup_ns: Vec<u64>,
    pub swarm_build_ns: u64,
    pub timed_ns: u64,
    /// Self time per span name inside the timed region (traced run only).
    pub layers: Layers,

    pub attempted: u64,
    pub committed: u64,
    pub verdict_ok: bool,
    /// Virtual ns, ascending; write latencies include the preload's.
    pub rot_lat: Vec<u64>,
    pub wtx_lat: Vec<u64>,
    pub writes: u64,
    pub downgraded: u64,
    pub msgs: u64,
    pub steps: u64,
    pub events: u64,
    pub trace_events: u64,
    pub digest: u64,
    pub fingerprint: u64,
    pub served: u64,
    pub queued: u64,
    pub max_wait_ns: u64,
    pub timers_coalesced: u64,
    pub peak_segments: u64,
    pub gc_passes: u64,
    pub gc_blocked: u64,
    pub gc_retired: u64,
    pub resident_txs: u64,
}

impl ProtoRun {
    /// Do two runs of one seed agree on everything but wall-clock time?
    pub fn same_outcome(&self, o: &ProtoRun) -> bool {
        let key = |r: &ProtoRun| {
            (
                (
                    r.attempted,
                    r.committed,
                    r.verdict_ok,
                    r.digest,
                    r.fingerprint,
                ),
                (
                    r.writes,
                    r.downgraded,
                    r.msgs,
                    r.steps,
                    r.events,
                    r.trace_events,
                ),
                (
                    r.served,
                    r.queued,
                    r.max_wait_ns,
                    r.timers_coalesced,
                    r.peak_segments,
                ),
                (r.gc_passes, r.gc_blocked, r.gc_retired, r.resident_txs),
            )
        };
        key(self) == key(o) && self.rot_lat == o.rot_lat && self.wtx_lat == o.wtx_lat
    }
}

struct Driver<N: ProtocolNode> {
    cluster: Cluster<N>,
    checker: ShardedChecker,
    sink: CountingSink,
    ingested: usize,
    epochs: u64,
    gc_every: u64,
    run: ProtoRun,
}

impl<N: ProtocolNode> Driver<N> {
    fn new(spec: &SimSpec, seed: u64) -> Self {
        let mut topo = Topology::sharded(spec.servers, spec.clients, spec.keys);
        let mut config = SimConfig {
            max_events: 2_000_000_000,
            ..SimConfig::default()
        };
        if spec.service_us > 0 {
            config.service = Some(ServiceModel {
                servers: spec.servers,
                service_time: spec.service_us * MICROS,
            });
        }
        if spec.chaos {
            topo = topo.with_retry(MILLIS);
            config.fault = Some(
                FaultPlan::new(seed ^ 0xC4A0_5EED)
                    .with_drops(20)
                    .with_dups(20)
                    .with_crash(ProcessId(1), 50 * MILLIS, 58 * MILLIS, true),
            );
        }
        Driver {
            cluster: Cluster::with_network(topo, LatencyModel::constant_default(), config),
            checker: ShardedChecker::new(1),
            sink: CountingSink::default(),
            ingested: 0,
            epochs: 0,
            gc_every: spec.gc_every,
            run: ProtoRun {
                name: N::NAME,
                ..ProtoRun::default()
            },
        }
    }

    /// Run one epoch of ops (distinct clients) to completion.
    fn epoch(&mut self, ops: &[SwarmOp], rec: &mut Recorder) {
        self.epochs += 1;
        rec.id = self.epochs as u32;
        let epoch_span = rec.enter("bench.epoch");

        let span = rec.enter("protocols.begin");
        let mut open = Vec::with_capacity(ops.len());
        for op in ops {
            let client = ClientId(op.client);
            let mut keys = [Key(0); MAX_TX_KEYS];
            for (k, &raw) in keys.iter_mut().zip(&op.keys) {
                *k = Key(raw);
            }
            let keys = &keys[..op.nkeys as usize];
            open.push(if !op.write {
                self.cluster.begin_read_tx(client, keys)
            } else {
                self.run.writes += 1;
                match self.cluster.begin_write_tx(client, keys) {
                    Ok(t) => t,
                    Err(TxError::MultiWriteUnsupported) => {
                        self.run.downgraded += 1;
                        self.cluster
                            .begin_write_tx(client, &keys[..1])
                            .expect("every protocol supports single-object writes")
                    }
                    Err(e) => panic!("{}: begin_write_tx: {e}", N::NAME),
                }
            });
        }
        rec.exit_calls(span, ops.len() as u32);

        let span = rec.enter("sim.run_open");
        self.cluster.run_open(&open);
        rec.exit(span);

        let span = rec.enter("protocols.finish");
        self.run.attempted += open.len() as u64;
        for t in open {
            let is_read = t.writes.is_empty();
            // An `Err` is a transaction still incomplete at the horizon:
            // attempted, never committed.
            if let Ok(latency) = self.cluster.finish_tx(t) {
                self.run.committed += 1;
                if is_read {
                    self.run.rot_lat.push(latency);
                } else {
                    self.run.wtx_lat.push(latency);
                }
            }
        }
        rec.exit_calls(span, ops.len() as u32);

        let trace = &mut self.cluster.world.trace;
        self.run.peak_segments = self.run.peak_segments.max(trace.resident_segments() as u64);
        let span = rec.enter("sim.drain_sealed");
        trace.drain_sealed(&mut self.sink);
        rec.exit(span);

        let span = rec.enter("model.ingest");
        let fresh = &self.cluster.history().transactions()[self.ingested..];
        for t in fresh {
            self.checker.ingest(t.clone());
        }
        rec.exit_calls(span, fresh.len() as u32);
        self.ingested += fresh.len();

        if self.gc_every > 0 && self.epochs.is_multiple_of(self.gc_every) {
            let span = rec.enter("model.gc");
            let gc = self.checker.gc();
            rec.exit(span);
            self.run.gc_passes += 1;
            self.run.gc_blocked += gc.blocked.is_some() as u64;
            self.run.gc_retired += gc.retired as u64;
        }
        rec.exit(epoch_span);
    }
}

/// The closed loop's epoch assembly: at most one op per client, ops a
/// client generated while it already had one in the epoch wait their
/// turn (FIFO per client).
struct EpochSource {
    swarm: ClientSwarm,
    carry: Vec<SwarmOp>,
    fresh: Vec<SwarmOp>,
    busy: Vec<bool>,
}

impl EpochSource {
    fn next(&mut self, size: usize, out: &mut Vec<SwarmOp>) {
        out.clear();
        self.busy.fill(false);
        let busy = &mut self.busy;
        self.carry.retain(|op| {
            let taken = out.len() < size && !busy[op.client as usize];
            if taken {
                busy[op.client as usize] = true;
                out.push(*op);
            }
            !taken
        });
        while out.len() < size {
            self.swarm.fill_batch(size - out.len(), &mut self.fresh);
            for &op in &self.fresh {
                if std::mem::replace(&mut busy[op.client as usize], true) {
                    self.carry.push(op);
                } else {
                    out.push(op);
                }
            }
        }
    }
}

/// Build the deployment and write every key once through the epoch
/// loop. Returns the driver, the op source and the swarm build time.
fn set_up<N: ProtocolNode>(
    spec: &SimSpec,
    seed: u64,
    rec: &mut Recorder,
) -> (Driver<N>, EpochSource, u64) {
    let mut driver = Driver::<N>::new(spec, seed);
    let span = rec.enter("workloads.swarm_build");
    let t0 = now_ns();
    let swarm = ClientSwarm::new(
        SwarmSpec {
            num_clients: spec.clients,
            num_keys: spec.keys,
            theta: 0.99,
            mix: spec.mix,
            read_keys: 2,
            write_keys: 2,
            wheel_slots: 16,
        },
        seed,
    );
    let swarm_build_ns = now_ns() - t0;
    rec.exit(span);
    let source = EpochSource {
        swarm,
        carry: Vec::new(),
        fresh: Vec::new(),
        busy: vec![false; spec.clients as usize],
    };
    let preload: Vec<SwarmOp> = (0..spec.keys)
        .map(|k| SwarmOp {
            client: k % spec.clients,
            write: true,
            nkeys: 1,
            keys: [k, 0, 0, 0],
        })
        .collect();
    for ops in preload.chunks(spec.epoch.min(spec.clients as usize)) {
        driver.epoch(ops, rec);
    }
    (driver, source, swarm_build_ns)
}

/// FNV-1a over every field of every history record, in order.
fn history_fingerprint<N: ProtocolNode>(cluster: &Cluster<N>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in cluster.history().transactions() {
        fold(t.id.0);
        fold(t.client.0 as u64);
        for &(k, v) in t.reads.iter().chain(&t.writes) {
            fold(k.0 as u64);
            fold(v.0);
        }
        fold(t.invoked_at);
        fold(t.completed_at);
    }
    h
}

/// Set-ups per protocol run: `setup_s` is the median over this many.
pub const SETUP_REPS: usize = 5;

/// One protocol, one pass.
pub fn run_protocol<N: ProtocolNode>(spec: &SimSpec, seed: u64, rec: &mut Recorder) -> ProtoRun {
    let protocol_span = rec.enter("bench.protocol");

    // Set-up, untimed. Repeated so that one run yields several samples
    // of it; only the last deployment is driven.
    let setup_span = rec.enter("bench.setup");
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let mark = rec.mark();
        drop(built.take());
        let t0 = now_ns();
        built = Some(set_up::<N>(spec, seed, rec));
        samples.push(now_ns() - t0);
        if samples.len() < SETUP_REPS {
            rec.truncate(mark);
        }
    }
    rec.exit(setup_span);
    let (mut driver, mut source, swarm_build_ns) = built.expect("SETUP_REPS >= 1");
    driver.run.setup_ns = samples;
    driver.run.swarm_build_ns = swarm_build_ns;

    // Timed region: everything from here up to the verdict.
    let before = driver.cluster.world.stats().clone();
    let before_trace = driver.cluster.world.trace.len();
    let (pre_attempted, pre_committed) = (driver.run.attempted, driver.run.committed);
    let (pre_writes, pre_downgraded) = (driver.run.writes, driver.run.downgraded);
    let timed_mark = rec.mark();
    let timed_span = rec.enter("bench.timed");
    let t0 = now_ns();
    let mut ops = Vec::with_capacity(spec.epoch);
    let mut left = spec.txs;
    while left > 0 {
        let size = spec.epoch.min(left);
        let span = rec.enter("workloads.fill_batch");
        source.next(size, &mut ops);
        rec.exit_calls(span, size as u32);
        driver.epoch(&ops, rec);
        left -= size;
    }
    let span = rec.enter("sim.digest");
    let digest = driver.cluster.world.trace.digest();
    rec.exit(span);
    let span = rec.enter("model.verdict");
    let verdict = driver.checker.verdict();
    rec.exit(span);
    let timed_ns = now_ns() - t0;
    rec.exit(timed_span);
    rec.exit(protocol_span);

    let world = &driver.cluster.world;
    let stats = world.stats();
    let service = world.service_stats();
    let mut run = std::mem::take(&mut driver.run);
    run.timed_ns = timed_ns;
    run.layers = rec.self_times(timed_mark, rec.mark());
    run.attempted -= pre_attempted;
    run.committed -= pre_committed;
    run.writes -= pre_writes;
    run.downgraded -= pre_downgraded;
    run.verdict_ok = verdict.is_ok();
    run.rot_lat.sort_unstable();
    run.wtx_lat.sort_unstable();
    run.msgs = stats.total_sent() - before.total_sent();
    run.steps = stats.total_steps() - before.total_steps();
    run.events = stats.events - before.events;
    run.trace_events = (world.trace.len() - before_trace) as u64;
    run.digest = digest;
    run.fingerprint = history_fingerprint(&driver.cluster);
    run.served = service.served;
    run.queued = service.delayed;
    run.max_wait_ns = service.max_wait;
    run.timers_coalesced = stats.timers_coalesced;
    run.resident_txs = driver.checker.resident_stats().txs as u64;
    run
}

/// A two-actor ping-pong: each delivery sends the counter back, one
/// lower, until it reaches zero. No protocol logic at all, so the same
/// `World` driving it costs scheduler + trace and nothing else.
#[derive(Clone)]
struct Echo {
    peer: ProcessId,
}

impl Actor for Echo {
    type Msg = u32;
    fn step(&mut self, ctx: &mut Ctx<u32>) {
        for env in ctx.recv() {
            if env.msg > 0 {
                ctx.send(self.peer, env.msg - 1);
            }
        }
    }
}

/// `sim.echo_ns_per_event`: wall ns per scheduler event of the echo
/// world, its trace drained into a counting sink every virtual 10 ms
/// like the workloads' is every epoch. Returns `(ns per event, events)`.
pub fn echo_ns_per_event() -> (f64, u64) {
    const BOUNCES: u32 = 100_000;
    let actors = vec![Echo { peer: ProcessId(1) }, Echo { peer: ProcessId(0) }];
    let mut world = World::new(
        actors,
        LatencyModel::constant_default(),
        SimConfig::default(),
    );
    let mut sink = CountingSink::default();
    world.inject(ProcessId(0), BOUNCES);
    let t0 = now_ns();
    while world.run_for(10 * MILLIS) != RunOutcome::Quiescent {
        world.trace.drain_sealed(&mut sink);
    }
    std::hint::black_box(world.trace.digest());
    let events = world.stats().events;
    ((now_ns() - t0) as f64 / events as f64, events)
}
