//! `theorem-audit`: the simulator used the other way round — manual
//! scheduling, restricted runs, forks and short traces.
//!
//! One repetition is 22 audits: `audit_protocol` over all 14 protocols
//! (the measured Table 1), `run_theorem` against the five minimal-model
//! claimants, `run_general` against `NaiveFast` on the three Appendix-A
//! topologies. A pass is `reps` repetitions plus a fork probe: `forks`
//! × (`Cluster::fork` + one ROT on the fork) and `forks` ×
//! `World::fork`, off a Wren cluster carrying a `probe_txs`-write,
//! `probe_txs`-read history (built in the pass's set-up). Every audit's outcome is
//! checked against what the paper says it must be.

use crate::clock::now_ns;
use crate::metrics::Outcome;
use crate::span::Recorder;
use crate::stats::median;
use crate::workload::{account_layers, latency_metrics, passes, PassSpans, RunArgs};
use cbf_core::{
    audit_protocol, audit_protocol_on, general_topologies, paper_table1, run_general, run_theorem,
    Conclusion, SystemRow,
};
use cbf_model::{ClientId, Key};
use cbf_protocols::naive::{NaiveChatty, NaiveFast, NaiveNode, NaiveTwoPhase};
use cbf_protocols::wren::WrenNode;
use cbf_protocols::{all_snow_decls, Cluster, Topology};
use cbf_sim::{forks_taken, LatencyKind, LatencyModel, SimConfig, MICROS};

struct Sizes {
    reps: usize,
    forks: usize,
    probe_txs: usize,
}

type AuditJob = Box<dyn Fn() -> SystemRow + Send>;

/// The measured Table 1: one audit per implemented protocol.
fn table1_jobs() -> Vec<AuditJob> {
    use cbf_protocols::{
        calvin::CalvinNode, contrarian::ContrarianNode, cops::CopsNode, cops_rw::CopsRwNode,
        cops_snow::CopsSnowNode, cure::CureNode, eiger::EigerNode, gentlerain::GentleRainNode,
        occult::OccultNode, ramp::RampNode, spanner::SpannerNode,
    };
    vec![
        Box::new(|| audit_protocol::<RampNode>(8)),
        Box::new(|| audit_protocol::<CopsNode>(8)),
        Box::new(|| audit_protocol::<GentleRainNode>(8)),
        Box::new(|| audit_protocol::<ContrarianNode>(8)),
        Box::new(|| audit_protocol::<CopsSnowNode>(8)),
        Box::new(|| audit_protocol::<EigerNode>(8)),
        Box::new(|| audit_protocol::<WrenNode>(8)),
        Box::new(|| audit_protocol::<CureNode>(8)),
        Box::new(|| audit_protocol::<CopsRwNode>(8)),
        Box::new(|| audit_protocol::<SpannerNode>(8)),
        Box::new(|| audit_protocol_on::<OccultNode>(Topology::partially_replicated(3, 5, 2, 2), 8)),
        Box::new(|| audit_protocol::<CalvinNode>(8)),
        Box::new(|| audit_protocol::<NaiveFast>(8)),
        Box::new(|| audit_protocol::<NaiveTwoPhase>(8)),
    ]
}

/// Does `measured` respect a printed Table 1 bound (`"1"`, `"≤2"`,
/// `"≥1"`)? A measurement may stay below a bound, never above it.
fn within(measured: u32, paper: &str) -> bool {
    if paper.starts_with('≥') {
        return true;
    }
    let cap = paper.trim_start_matches('≤').trim();
    cap.parse::<u32>().is_ok_and(|cap| measured <= cap)
}

/// The naive family claims what Theorem 1 forbids — fast ROTs together
/// with write transactions, under causal consistency.
fn claims_the_impossible(row: &SystemRow) -> bool {
    row.name.starts_with("naive-")
}

/// Is a measured row what the paper says of that system? An impossible
/// claimant must have been caught; a system the paper tabulates must
/// stay inside its printed bounds; every other history must be causal.
fn row_ok(row: &SystemRow) -> bool {
    if claims_the_impossible(row) {
        return row.theorem.contains("CAUGHT");
    }
    let decl = all_snow_decls().into_iter().find(|d| d.system == row.name);
    let Some(paper_name) = decl.and_then(|d| d.paper_row) else {
        return row.causal_ok;
    };
    let Some(paper) = paper_table1().iter().find(|r| r.system == paper_name) else {
        return false;
    };
    row.causal_ok
        && within(row.rounds, paper.r)
        && within(row.values, paper.v)
        && (row.nonblocking || !paper.n)
        && row.write_tx == paper.w
}

#[derive(Default)]
struct Pass {
    /// Set-up: building the probe's history (untimed).
    setup_ns: u64,
    /// The probe's virtual-ns latencies (ascending) and messages sent.
    rot_lat: Vec<u64>,
    wtx_lat: Vec<u64>,
    probe_msgs: u64,
    audits: u64,
    held: u64,
    claimants: u64,
    caught: u64,
    forks_per_rep: u64,
    spans: PassSpans,
    problems: Vec<String>,
}

impl Pass {
    fn audit(&mut self, held: bool, what: impl FnOnce() -> String) {
        self.audits += 1;
        self.held += held as u64;
        if !held {
            self.problems.push(what());
        }
    }

    fn claimant(&mut self, caught: bool, what: impl FnOnce() -> String) {
        self.claimants += 1;
        self.caught += caught as u64;
        self.audit(caught, what);
    }
}

fn repetition(pass: &mut Pass, rec: &mut Recorder) {
    let span = rec.enter("core.table1");
    let rows: Vec<SystemRow> = table1_jobs().iter().map(|job| job()).collect();
    rec.exit_calls(span, rows.len() as u32);
    for row in &rows {
        if claims_the_impossible(row) {
            pass.claimant(row_ok(row), || {
                format!("claimant {} not caught: {}", row.name, row.theorem)
            });
        } else {
            pass.audit(row_ok(row), || {
                format!("Table-1 row outside the paper's bounds: {row:?}")
            });
        }
    }

    let span = rec.enter("core.theorem1");
    let reports = [
        run_theorem::<NaiveNode<1>>(12),
        run_theorem::<NaiveNode<2>>(12),
        run_theorem::<NaiveNode<3>>(12),
        run_theorem::<NaiveNode<4>>(12),
        run_theorem::<NaiveChatty>(12),
    ];
    rec.exit_calls(span, reports.len() as u32);
    for r in &reports {
        let caught = matches!(r.conclusion, Conclusion::Caught { .. });
        pass.claimant(caught, || format!("Theorem 1 did not catch {}", r.protocol));
    }

    let span = rec.enter("core.theorem2");
    let reports: Vec<_> = general_topologies()
        .into_iter()
        .map(run_general::<NaiveFast>)
        .collect();
    rec.exit_calls(span, reports.len() as u32);
    for r in &reports {
        let caught = r.as_ref().is_ok_and(|r| r.caught());
        pass.claimant(caught, || "Theorem 2 did not catch NaiveFast".to_string());
    }
}

/// The fork probe's base: a Wren cluster on the paper's minimal model
/// with `txs` two-key writes and `txs` two-key reads behind it.
struct Probe {
    cluster: Cluster<WrenNode>,
    rot_lat: Vec<u64>,
    wtx_lat: Vec<u64>,
}

const KEYS: [Key; 2] = [Key(0), Key(1)];

fn build_probe(txs: usize, seed: u64) -> Result<Probe, String> {
    // The default 50 µs one-way delay, with seeded ±10 µs jitter: the
    // seed's only input to this workload (the audits have none).
    let jitter = LatencyKind::Uniform {
        lo: 40 * MICROS,
        hi: 60 * MICROS,
    };
    let network = LatencyModel::new(jitter, seed);
    let mut cluster: Cluster<WrenNode> =
        Cluster::with_network(Topology::minimal(4), network, SimConfig::default());
    let (mut rot_lat, mut wtx_lat) = (Vec::with_capacity(txs), Vec::with_capacity(txs));
    for i in 0..txs as u32 {
        let w = cluster.write_tx_auto(ClientId(i % 4), &KEYS);
        wtx_lat.push(
            w.map_err(|e| format!("probe write {i}: {e}"))?
                .audit
                .latency,
        );
        let r = cluster.read_tx(ClientId((i + 1) % 4), &KEYS);
        rot_lat.push(r.map_err(|e| format!("probe read {i}: {e}"))?.audit.latency);
    }
    rot_lat.sort_unstable();
    wtx_lat.sort_unstable();
    Ok(Probe {
        cluster,
        rot_lat,
        wtx_lat,
    })
}

fn fork_probe(probe: &Probe, forks: usize, pass: &mut Pass, rec: &mut Recorder) {
    let latest: Vec<_> = probe
        .cluster
        .history()
        .transactions()
        .iter()
        .rev()
        .find(|t| !t.writes.is_empty())
        .map(|t| t.writes.clone())
        .unwrap_or_default();
    let span = rec.enter("protocols.cluster_fork");
    for i in 0..forks as u32 {
        let mut fork = probe.cluster.fork();
        let read = fork.read_tx(ClientId(i % 4), &KEYS);
        let held = read.as_ref().is_ok_and(|r| r.reads == latest);
        pass.audit(held, || {
            format!("ROT on a fork returned {read:?}, not the latest write {latest:?}")
        });
    }
    rec.exit_calls(span, forks as u32);

    let span = rec.enter("sim.world_fork");
    for _ in 0..forks {
        let fork = std::hint::black_box(probe.cluster.world.fork());
        pass.audit(fork.now() == probe.cluster.world.now(), || {
            "a forked world lost its clock".to_string()
        });
    }
    rec.exit_calls(span, forks as u32);
}

fn one_pass(sizes: &Sizes, seed: u64, rec: &mut Recorder) -> Pass {
    let mut pass = Pass::default();
    pass.spans.traced = rec.is_on();
    // Set-up, untimed: every pass builds its own probe, so one run's
    // `setup_s` samples are spread over the whole run.
    let t0 = now_ns();
    let probe = match build_probe(sizes.probe_txs, seed) {
        Ok(probe) => probe,
        Err(e) => {
            pass.audit(false, || e);
            return pass;
        }
    };
    pass.setup_ns = now_ns() - t0;

    let mark = rec.mark();
    let timed = rec.enter("bench.timed");
    let t0 = now_ns();
    for rep in 0..sizes.reps {
        rec.id = rep as u32;
        let forks = forks_taken();
        repetition(&mut pass, rec);
        pass.forks_per_rep = forks_taken() - forks;
    }
    rec.id = sizes.reps as u32;
    fork_probe(&probe, sizes.forks, &mut pass, rec);
    pass.spans.timed_ns = now_ns() - t0;
    rec.exit(timed);
    pass.spans.layers = rec.self_times(mark, rec.mark());
    pass.probe_msgs = probe.cluster.world.stats().total_sent();
    pass.rot_lat = probe.rot_lat;
    pass.wtx_lat = probe.wtx_lat;
    pass
}

/// `par.table1_speedup`: the 14 Table-1 audits through `cbf-par` with
/// one thread against the machine's default budget (best of three each).
fn table1_speedup() -> f64 {
    let best = |threads: Option<&str>| {
        match threads {
            Some(n) => std::env::set_var(cbf_par::THREADS_ENV, n),
            None => std::env::remove_var(cbf_par::THREADS_ENV),
        }
        (0..3)
            .map(|_| {
                let t0 = now_ns();
                std::hint::black_box(cbf_par::parallel_map(table1_jobs(), |job| job()));
                now_ns() - t0
            })
            .min()
            .expect("three timings")
    };
    let parallel = best(None);
    let serial = best(Some("1"));
    serial as f64 / parallel as f64
}

pub fn run(args: &RunArgs, rec: &mut Recorder) -> Outcome {
    let sizes = if args.smoke {
        Sizes {
            reps: 1,
            forks: 20,
            probe_txs: 1_000,
        }
    } else {
        Sizes {
            reps: 30,
            forks: 200,
            probe_txs: 3_000,
        }
    };
    let mut out = Outcome::default();

    let passes = passes(args, rec, &mut out, |rec| one_pass(&sizes, args.seed, rec));

    let first = &passes[0];
    for pass in &passes {
        out.attempted += pass.audits;
        out.failed += pass.audits - pass.held;
        out.problems.extend(pass.problems.iter().take(3).cloned());
        let same = (pass.forks_per_rep, pass.probe_msgs) == (first.forks_per_rep, first.probe_msgs)
            && pass.rot_lat == first.rot_lat
            && pass.wtx_lat == first.wtx_lat;
        out.check(same, || {
            "forks per repetition or the probe's messages and latencies changed between passes"
                .to_string()
        });
    }
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_ns as f64 / 1e9).collect();
    out.set("setup_s", median(&setups), setups.len() as u64);
    let rates: Vec<f64> = passes
        .iter()
        .filter(|p| !p.spans.traced)
        .map(|p| p.held as f64 / (p.spans.timed_ns as f64 / 1e9))
        .collect();
    out.set("verified_per_s", median(&rates), rates.len() as u64);
    // Virtual-time figures of the probe's own transactions.
    latency_metrics(&mut out, "", &first.rot_lat, &first.wtx_lat);
    let txs = 2 * sizes.probe_txs as u64;
    out.set("msgs_per_tx", first.probe_msgs as f64 / txs as f64, txs);

    if args.traced {
        per_layer(&mut out, &passes, &sizes);
    }
    out
}

/// The per-layer metrics, from the traced passes' spans.
fn per_layer(out: &mut Outcome, passes: &[Pass], sizes: &Sizes) {
    let layers = account_layers(out, &passes.iter().map(|p| &p.spans).collect::<Vec<_>>());
    let traced = passes.iter().filter(|p| p.spans.traced).count();
    let reps = (traced * sizes.reps) as u64;
    for (metric, span) in [
        ("core.table1_ms", "core.table1"),
        ("core.theorem1_ms", "core.theorem1"),
        ("core.theorem2_ms", "core.theorem2"),
    ] {
        let ns = layers.get(span).map_or(0, |t| t.ns);
        out.set(metric, ns as f64 / 1e6 / reps as f64, reps);
    }
    out.set("core.forks_per_rep", passes[0].forks_per_rep as f64, reps);
    let (caught, claimants) = passes
        .iter()
        .fold((0, 0), |(c, n), p| (c + p.caught, n + p.claimants));
    out.set(
        "core.caught_share",
        caught as f64 / claimants.max(1) as f64,
        claimants,
    );
    for (metric, span) in [
        ("protocols.cluster_fork_us", "protocols.cluster_fork"),
        ("sim.world_fork_us", "sim.world_fork"),
    ] {
        let t = layers.get(span).copied().unwrap_or_default();
        out.set(metric, t.ns as f64 / 1e3 / t.calls.max(1) as f64, t.calls);
    }
    out.set("par.table1_speedup", table1_speedup(), 6);
}
