//! The three simulated transaction workloads: what each one drives, how
//! passes are repeated for `--seconds`, and how a pass's measurements
//! become the named metrics.

use crate::clock::{now_ns, peak_rss_mb};
use crate::metrics::{Outcome, PROTOCOLS};
use crate::simload::{echo_ns_per_event, run_protocol, ProtoRun, SimSpec, SETUP_REPS};
use crate::span::{layer_total, merge_layers, Layers, Recorder, SelfTime};
use crate::stats::{median, percentile};
use cbf_protocols::cops::CopsNode;
use cbf_protocols::cops_snow::CopsSnowNode;
use cbf_protocols::eiger::EigerNode;
use cbf_protocols::spanner::SpannerNode;
use cbf_workloads::Mix;

/// What the command line asked of one workload run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Wall seconds to measure for.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub traced: bool,
    /// Reduced sizes (the package's own smoke tests).
    pub smoke: bool,
}

/// The simulated workloads' shapes. All share `Topology::sharded(3, 48,
/// K)`, a 20 µs per-server service time, 48 closed-loop clients and 24
/// transactions in flight per epoch.
pub fn sim_spec(workload: &str, smoke: bool) -> Option<SimSpec> {
    let base = SimSpec {
        mix: Mix::ycsb_c(),
        keys: 1024,
        servers: 3,
        clients: 48,
        epoch: 24,
        txs: 100_000,
        service_us: 20,
        gc_every: 64,
        chaos: false,
    };
    let spec = match workload {
        // Read-only after the preload, wide key space: the checker is
        // near-linear, so simulator, handlers, trace and digest dominate.
        "rot-stream" => base,
        // Half writes on 64 hot keys: concurrent writers push the checker
        // into its legacy fallback, so `model` does nearly all the work.
        "mixed-contended" => SimSpec {
            mix: Mix::ycsb_a(),
            keys: 64,
            txs: 2_048,
            ..base
        },
        // Read-mostly under drops, duplicates and a server crash: the
        // retry, dedup and crash-deferral paths of the same layers.
        "chaos-mixed" => SimSpec {
            mix: Mix::ycsb_b(),
            keys: 256,
            txs: 2_048,
            chaos: true,
            ..base
        },
        _ => return None,
    };
    Some(SimSpec {
        txs: if smoke { 600 } else { spec.txs },
        ..spec
    })
}

/// One pass over the four protocols.
pub struct SimPass {
    pub runs: Vec<ProtoRun>,
    pub traced: bool,
}

impl SimPass {
    pub fn timed_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.timed_ns).sum()
    }

    /// Transactions committed under an OK verdict.
    pub fn verified(&self) -> u64 {
        let ok = |r: &&ProtoRun| r.verdict_ok;
        self.runs.iter().filter(ok).map(|r| r.committed).sum()
    }

    /// The four protocols' span self times, summed.
    fn layers(&self) -> Layers {
        let mut all = Layers::new();
        for run in &self.runs {
            merge_layers(&mut all, &run.layers);
        }
        all
    }
}

pub fn sim_pass(spec: &SimSpec, seed: u64, rec: &mut Recorder) -> SimPass {
    SimPass {
        runs: vec![
            run_protocol::<CopsSnowNode>(spec, seed, rec),
            run_protocol::<CopsNode>(spec, seed, rec),
            run_protocol::<EigerNode>(spec, seed, rec),
            run_protocol::<SpannerNode>(spec, seed, rec),
        ],
        traced: rec.is_on(),
    }
}

/// `rot_p50_vus`, `rot_p99_vus` and `wtx_p50_vus` under `prefix`, from
/// ascending virtual-ns latencies (pure functions of the seed).
pub fn latency_metrics(out: &mut Outcome, prefix: &str, rot: &[u64], wtx: &[u64]) {
    for (name, lat, p) in [
        ("rot_p50_vus", rot, 0.5),
        ("rot_p99_vus", rot, 0.99),
        ("wtx_p50_vus", wtx, 0.5),
    ] {
        match percentile(lat, p) {
            Some(ns) => out.set(
                &format!("{prefix}{name}"),
                ns as f64 / 1e3,
                lat.len() as u64,
            ),
            // A per-layer percentile the samples do not support stays
            // unreported; an end-to-end one is a broken run.
            None if prefix.is_empty() => out.problems.push(format!(
                "{name}: {} samples do not support this percentile",
                lat.len()
            )),
            None => {}
        }
    }
}

/// All `runs`' latencies pooled, ascending.
fn pooled(runs: &[ProtoRun], pick: fn(&ProtoRun) -> &Vec<u64>) -> Vec<u64> {
    let mut all: Vec<u64> = runs.iter().flat_map(|r| pick(r).iter().copied()).collect();
    all.sort_unstable();
    all
}

/// Correctness and the end-to-end metrics every simulated pass set
/// shares. `passes[0]` is always untraced.
pub fn sim_end_to_end(out: &mut Outcome, passes: &[SimPass]) {
    let first = &passes[0];
    for pass in passes {
        for (run, base) in pass.runs.iter().zip(&first.runs) {
            out.attempted += run.attempted;
            out.failed += run.attempted - if run.verdict_ok { run.committed } else { 0 };
            out.check(run.verdict_ok, || {
                format!("{}: causal verdict not OK", run.name)
            });
            out.check(run.committed == run.attempted, || {
                format!(
                    "{}: {} of {} transactions incomplete",
                    run.name,
                    run.attempted - run.committed,
                    run.attempted
                )
            });
            out.check(run.same_outcome(base), || {
                format!(
                    "{}: {} pass disagrees with the first on digest, history fingerprint or a deterministic metric \
                     (digest {:016x} vs {:016x}, fingerprint {:016x} vs {:016x})",
                    run.name,
                    if pass.traced { "traced" } else { "repeated" },
                    run.digest, base.digest, run.fingerprint, base.fingerprint
                )
            });
        }
    }
    // One `setup_s` sample per set-up repetition: the four protocols' summed.
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            (0..SETUP_REPS)
                .map(|rep| p.runs.iter().map(|r| r.setup_ns[rep]).sum::<u64>() as f64 / 1e9)
        })
        .collect();
    out.set("setup_s", median(&setups), setups.len() as u64);
    // Throughput: verified transactions over the sum of each protocol's
    // median timed wall across the untraced passes — a burst that slows
    // one protocol's run in one pass does not taint the other three.
    let untraced: Vec<&SimPass> = passes.iter().filter(|p| !p.traced).collect();
    let typical_ns: f64 = (0..first.runs.len())
        .map(|i| {
            median(
                &untraced
                    .iter()
                    .map(|p| p.runs[i].timed_ns as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    out.set(
        "verified_per_s",
        first.verified() as f64 / (typical_ns / 1e9),
        untraced.len() as u64,
    );
    let runs = &first.runs;
    latency_metrics(
        out,
        "",
        &pooled(runs, |r| &r.rot_lat),
        &pooled(runs, |r| &r.wtx_lat),
    );
    let committed: u64 = runs.iter().map(|r| r.committed).sum();
    let msgs: u64 = runs.iter().map(|r| r.msgs).sum();
    out.set(
        "msgs_per_tx",
        msgs as f64 / committed.max(1) as f64,
        committed,
    );
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// What the shared per-layer accounting needs of a pass of any workload.
#[derive(Default)]
pub struct PassSpans {
    pub traced: bool,
    /// Wall ns of the pass's timed region.
    pub timed_ns: u64,
    /// Span self times inside the timed region (traced passes only).
    pub layers: Layers,
}

/// The per-layer metrics every workload shares, from its passes:
/// `bench.trace_overhead_pct` (how much longer the traced passes' timed
/// regions ran than the untraced ones', medians; the first untraced pass
/// also pays for the cold heap, so it is left out when another exists),
/// each layer's `share_pct` (self time over the traced timed regions)
/// and `bench.unattributed_pct` (what no layer span covers). Returns the
/// traced passes' self times, summed.
pub fn account_layers(out: &mut Outcome, passes: &[&PassSpans]) -> Layers {
    let ns = |traced: bool| -> Vec<f64> {
        let of_kind = passes.iter().filter(|p| p.traced == traced);
        of_kind.map(|p| p.timed_ns as f64).collect()
    };
    let (untraced, traced) = (ns(false), ns(true));
    let warm = &untraced[(untraced.len() > 1) as usize..];
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (median(&traced) / median(warm) - 1.0),
        (warm.len() + traced.len()) as u64,
    );

    let mut layers = Layers::new();
    for pass in passes.iter().filter(|p| p.traced) {
        merge_layers(&mut layers, &pass.layers);
    }
    let timed_ns = traced.iter().sum::<f64>().max(1.0);
    let mut attributed = SelfTime::default();
    for layer in ["workloads", "sim", "protocols", "model", "core", "net"] {
        let t = layer_total(&layers, layer);
        out.set(
            &format!("{layer}.share_pct"),
            100.0 * t.ns as f64 / timed_ns,
            t.calls,
        );
        attributed.ns += t.ns;
        attributed.calls += t.calls;
    }
    out.set(
        "bench.unattributed_pct",
        (100.0 * (1.0 - attributed.ns as f64 / timed_ns)).max(0.0),
        attributed.calls,
    );
    layers
}

/// The per-layer metrics of the simulated workloads, from the traced
/// passes' spans and the (deterministic) counters of the first of them.
pub fn sim_per_layer(out: &mut Outcome, passes: &[SimPass]) {
    let spans: Vec<PassSpans> = passes
        .iter()
        .map(|p| PassSpans {
            traced: p.traced,
            timed_ns: p.timed_ns(),
            layers: p.layers(),
        })
        .collect();
    let all = account_layers(out, &spans.iter().collect::<Vec<_>>());

    // Spans are summed over the traced passes; counters come from one
    // pass times the number of passes (every pass counts the same).
    let traced: Vec<&SimPass> = passes.iter().filter(|p| p.traced).collect();
    let n = traced.len() as u64;
    let mut per_protocol = vec![Layers::new(); 4];
    for pass in &traced {
        for (run, layers) in pass.runs.iter().zip(&mut per_protocol) {
            merge_layers(layers, &run.layers);
        }
    }

    let runs = &traced[0].runs;
    let sum = |f: fn(&ProtoRun) -> u64| runs.iter().map(f).sum::<u64>();
    let txs = sum(|r| r.committed);
    let self_ns = |name: &str| all.get(name).map_or(0, |t| t.ns);
    let events = sum(|r| r.events);
    let trace_events = sum(|r| r.trace_events);
    out.set(
        "workloads.gen_ns_per_op",
        ratio(self_ns("workloads.fill_batch"), n * txs),
        n * txs,
    );
    let builds: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.runs)
        .map(|r| r.swarm_build_ns as f64 / 1e6)
        .collect();
    out.set(
        "workloads.swarm_build_ms",
        median(&builds),
        builds.len() as u64,
    );
    out.set(
        "sim.run_ns_per_event",
        ratio(self_ns("sim.run_open"), n * events),
        n * events,
    );
    out.set("sim.events_per_tx", ratio(events, txs), txs);
    out.set("sim.trace_events_per_tx", ratio(trace_events, txs), txs);
    out.set(
        "sim.sink_ns_per_event",
        ratio(
            self_ns("sim.drain_sealed") + self_ns("sim.digest"),
            n * trace_events,
        ),
        n * trace_events,
    );
    let (echo_ns, echo_events) = echo_ns_per_event();
    out.set("sim.echo_ns_per_event", echo_ns, echo_events);
    out.set(
        "sim.queued_frac",
        ratio(sum(|r| r.queued), sum(|r| r.served)),
        sum(|r| r.served),
    );
    let max_wait = runs.iter().map(|r| r.max_wait_ns).max().unwrap_or(0);
    out.set(
        "sim.max_queue_wait_vus",
        max_wait as f64 / 1e3,
        sum(|r| r.served),
    );
    let peak = runs.iter().map(|r| r.peak_segments).max().unwrap_or(0);
    out.set("sim.peak_segments_resident", peak as f64, 4);
    out.set(
        "sim.timers_coalesced",
        sum(|r| r.timers_coalesced) as f64,
        4,
    );

    for ((p, run), layers) in PROTOCOLS.iter().zip(runs).zip(&per_protocol) {
        let drive: u64 = ["protocols.begin", "sim.run_open", "protocols.finish"]
            .iter()
            .map(|name| layers.get(name).map_or(0, |t| t.ns))
            .sum();
        let txs = run.committed;
        out.set(
            &format!("protocols.{p}.drive_ns_per_tx"),
            ratio(drive, n * txs),
            n * txs,
        );
        out.set(
            &format!("protocols.{p}.msgs_per_tx"),
            ratio(run.msgs, txs),
            txs,
        );
        out.set(
            &format!("protocols.{p}.steps_per_tx"),
            ratio(run.steps, txs),
            txs,
        );
        latency_metrics(out, &format!("protocols.{p}."), &run.rot_lat, &run.wtx_lat);
    }
    out.set(
        "protocols.begin_finish_ns_per_tx",
        ratio(
            self_ns("protocols.begin") + self_ns("protocols.finish"),
            n * txs,
        ),
        n * txs,
    );
    out.set(
        "protocols.downgraded_share",
        ratio(sum(|r| r.downgraded), sum(|r| r.writes)),
        sum(|r| r.writes),
    );
    out.set(
        "model.ingest_ns_per_tx",
        ratio(self_ns("model.ingest"), n * txs),
        n * txs,
    );
    out.set(
        "model.verdict_ns_per_tx",
        ratio(self_ns("model.verdict"), n * txs),
        n * txs,
    );
    let gc_passes = sum(|r| r.gc_passes);
    out.set(
        "model.gc_ns_per_pass",
        ratio(self_ns("model.gc"), n * gc_passes),
        n * gc_passes,
    );
    out.set(
        "model.gc_retired_share",
        ratio(sum(|r| r.gc_retired), txs),
        txs,
    );
    out.set(
        "model.gc_blocked_passes",
        sum(|r| r.gc_blocked) as f64,
        gc_passes,
    );
    let resident = runs.iter().map(|r| r.resident_txs).max().unwrap_or(0);
    out.set("model.resident_txs", resident as f64, 4);
}

/// The passes of one workload run: `pass` is repeated until
/// `--seconds` of wall time are used (a further pass starts while the
/// time used plus half a mean pass fits). An untraced run just repeats;
/// a traced run alternates untraced and traced passes, starting
/// untraced, and makes at least three — so a traced pass has a warm
/// untraced neighbour to be compared with. Only the first traced pass
/// keeps its spans for the trace file: later ones repeat it and
/// contribute just their self times.
///
/// `peak_rss_mb` is read when the first pass ends: what set-up plus one
/// pass needs. (Later passes add allocator fragmentation that depends
/// on how many of them fit into `--seconds`.)
pub fn passes<T>(
    args: &RunArgs,
    rec: &mut Recorder,
    out: &mut Outcome,
    mut pass: impl FnMut(&mut Recorder) -> T,
) -> Vec<T> {
    let min = if args.traced { 3 } else { 1 };
    let mut off = Recorder::new(false);
    let mut done = Vec::new();
    let t0 = now_ns();
    loop {
        let i = done.len();
        if !args.traced || i % 2 == 0 {
            done.push(pass(&mut off));
        } else {
            let mark = rec.mark();
            done.push(pass(rec));
            if i > 1 {
                rec.truncate(mark);
            }
        }
        if i == 0 {
            out.set("peak_rss_mb", peak_rss_mb(), 1);
        }
        let used = (now_ns() - t0) as f64 / 1e9;
        if done.len() >= min && used + 0.5 * used / done.len() as f64 >= args.seconds {
            return done;
        }
    }
}

/// Run one of the three simulated workloads.
pub fn run_sim(args: &RunArgs, spec: &SimSpec, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let passes = passes(args, rec, &mut out, |rec| sim_pass(spec, args.seed, rec));
    sim_end_to_end(&mut out, &passes);
    if args.traced {
        sim_per_layer(&mut out, &passes);
    }
    out
}
