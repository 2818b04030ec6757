//! `net-loopback`: the same actors as OS processes over loopback TCP.
//!
//! One launch is `run_cluster` with 2 server processes (the paper's
//! minimal model) and 4 closed-loop clients in the launcher, followed by
//! `check_causal` and `replay_and_diff`; a pass is one launch per
//! protocol. The only workload where `net` — frame codec, node loop,
//! recording, syscalls, replay — does most of the work; the simulator
//! appears as the replay oracle and as the *virtual-time twin*: the same
//! deployment shape driven through the simulated cluster once, which
//! supplies the virtual-µs latency metrics a real clock cannot.

use crate::clock::{cpu_us, now_ns};
use crate::metrics::{Outcome, PROTOCOLS};
use crate::simload::SimSpec;
use crate::span::Recorder;
use crate::stats::{median, percentile};
use crate::workload::{account_layers, passes, sim_end_to_end, sim_pass, PassSpans, RunArgs};
use cbf_model::{check_causal, Key, TxId};
use cbf_net::frame::{read_frame, write_frame, Frame, NetMsg};
use cbf_net::record::StepInput;
use cbf_net::{replay_and_diff, run_cluster, NetConfig, NetError};
use cbf_protocols::cops::CopsNode;
use cbf_protocols::cops_snow::CopsSnowNode;
use cbf_protocols::eiger::EigerNode;
use cbf_protocols::spanner::SpannerNode;
use cbf_protocols::{ProtocolNode, Topology, Wire};
use cbf_sim::ProcessId;
use cbf_workloads::{Mix, WorkloadSpec};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;

/// Where the benchmark writes: trace files and, while a launch runs,
/// its record directory. Inside the checkout, ignored by git.
pub fn out_dir() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/out")
}

const SERVERS: u32 = 2;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        num_keys: 64,
        num_clients: 4,
        rot_size: 2,
        wtx_size: 2,
        theta: 0.99,
        mix: Mix::ycsb_b(),
    }
}

/// A launch's record directory, removed when the launch ends — on
/// success, on error and on unwind alike.
struct RecordDir(PathBuf);

impl Drop for RecordDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one launch measured. Times are wall ns.
#[derive(Default)]
struct Launch {
    txs: u64,
    /// Committed transactions under an OK verdict and an OK replay diff.
    verified: u64,
    /// Spawn + handshake: the earliest `invoked_at` in the history.
    spawn_ns: u64,
    /// First invocation to last completion.
    run_ns: u64,
    /// Last completion to `run_cluster` returning: SHUTDOWN, child
    /// exit, recording merge.
    shutdown_ns: u64,
    check_ns: u64,
    replay_ns: u64,
    steps: u64,
    delivers: u64,
    record_bytes: u64,
    rot_ns: Vec<u64>,
    problem: Option<String>,
}

impl Launch {
    /// Everything after spawn + handshake, up to the replay verdict.
    fn timed_ns(&self) -> u64 {
        self.run_ns + self.shutdown_ns + self.check_ns + self.replay_ns
    }
}

fn launch<N: ProtocolNode>(
    key: &str,
    txs: usize,
    seed: u64,
    serial: u32,
    rec: &mut Recorder,
) -> Launch
where
    N::Msg: Wire,
{
    rec.id = serial;
    let dir = RecordDir(PathBuf::from(format!(
        "{}/net-{}-{serial}",
        out_dir(),
        std::process::id()
    )));
    let cfg = NetConfig {
        protocol: key.to_string(),
        num_servers: SERVERS,
        spec: spec(),
        txs,
        seed,
        record_dir: dir.0.clone(),
        // A wedged cluster becomes `txs` failed transactions, not a hang.
        stall_timeout: Duration::from_secs(30),
    };
    let mut l = Launch {
        txs: txs as u64,
        ..Launch::default()
    };
    let span = rec.enter("net.run_cluster");
    let t0 = now_ns();
    let run = run_cluster::<N>(&cfg);
    let wall_ns = now_ns() - t0;
    rec.exit(span);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            let stalled = matches!(e, NetError::Stall(_));
            l.problem = Some(format!(
                "{key}: run_cluster{}: {e}",
                if stalled { " stalled" } else { "" }
            ));
            return l;
        }
    };
    let history = run.history.transactions();
    l.spawn_ns = history.iter().map(|t| t.invoked_at).min().unwrap_or(0);
    let last = history.iter().map(|t| t.completed_at).max().unwrap_or(0);
    l.run_ns = last - l.spawn_ns;
    l.shutdown_ns = wall_ns.saturating_sub(last);
    l.steps = run.recording.total_steps() as u64;
    let inputs = run
        .recording
        .logs
        .iter()
        .flat_map(|log| &log.steps)
        .flat_map(|s| &s.inputs);
    l.delivers = inputs
        .filter(|i| matches!(i, StepInput::Deliver { .. }))
        .count() as u64;
    l.record_bytes = run.recording.to_bytes().len() as u64;
    l.rot_ns = run.rot_ns;

    let span = rec.enter("model.check_causal");
    let t0 = now_ns();
    let verdict = check_causal(&run.history);
    l.check_ns = now_ns() - t0;
    rec.exit(span);

    let topo = Topology::sharded(SERVERS, spec().num_clients, spec().num_keys);
    let span = rec.enter("net.replay_and_diff");
    let t0 = now_ns();
    let replay = replay_and_diff::<N>(&topo, &run.recording, &run.history);
    l.replay_ns = now_ns() - t0;
    rec.exit(span);

    if !verdict.is_ok() {
        l.problem = Some(format!(
            "{key}: causal verdict not OK:\n{}",
            verdict.render()
        ));
    } else if let Err(e) = replay {
        l.problem = Some(format!("{key}: {e}"));
    } else if history.len() != txs {
        l.problem = Some(format!(
            "{key}: {} of {txs} transactions completed",
            history.len()
        ));
    } else {
        l.verified = txs as u64;
    }
    l
}

struct Pass {
    launches: Vec<Launch>,
    cpu_us: u64,
    spans: PassSpans,
}

fn one_pass(txs: usize, seed: u64, serial: &mut u32, rec: &mut Recorder) -> Pass {
    let mark = rec.mark();
    let timed = rec.enter("bench.timed");
    let cpu0 = cpu_us();
    let mut next = || {
        *serial += 1;
        *serial
    };
    let launches = vec![
        launch::<CopsSnowNode>("cops-snow", txs, seed, next(), rec),
        launch::<CopsNode>("cops", txs, seed, next(), rec),
        launch::<EigerNode>("eiger", txs, seed, next(), rec),
        launch::<SpannerNode>("spanner", txs, seed, next(), rec),
    ];
    rec.exit(timed);
    // The timed region is the launches' timed parts: spawn + handshake,
    // which the `net.run_cluster` spans include, and the bookkeeping
    // between launches are outside it.
    let mut layers = rec.self_times(mark, rec.mark());
    let spawn_ns: u64 = launches.iter().map(|l| l.spawn_ns).sum();
    if let Some(t) = layers.get_mut("net.run_cluster") {
        t.ns = t.ns.saturating_sub(spawn_ns);
    }
    layers.remove("bench.timed");
    Pass {
        cpu_us: cpu_us() - cpu0,
        spans: PassSpans {
            traced: rec.is_on(),
            timed_ns: launches.iter().map(Launch::timed_ns).sum(),
            layers,
        },
        launches,
    }
}

/// Mean ns of `f` over a fixed iteration count.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    const ITERS: u32 = 20_000;
    let t0 = now_ns();
    for _ in 0..ITERS {
        f();
    }
    (now_ns() - t0) as f64 / ITERS as f64
}

/// In-memory codec costs of one protocol's two-key ROT invocation:
/// `(wire encode, wire decode, frame encode, frame decode)` in ns.
fn codec_ns<N: ProtocolNode>() -> [f64; 4]
where
    N::Msg: Wire,
{
    let msg = N::rot_invoke(TxId(7), vec![Key(3), Key(11)]);
    let bytes = msg.to_bytes();
    let frame = Frame::Msg(NetMsg {
        from: ProcessId(2),
        to: ProcessId(0),
        seq: 99,
        bytes: bytes.clone(),
    });
    let mut framed = Vec::new();
    write_frame(&mut framed, &frame).expect("writing to memory");
    let mut buf = Vec::with_capacity(framed.len());
    [
        time_per_call(|| {
            black_box(black_box(&msg).to_bytes());
        }),
        time_per_call(|| {
            black_box(N::Msg::from_bytes(black_box(&bytes)).expect("round trip"));
        }),
        time_per_call(|| {
            buf.clear();
            write_frame(&mut buf, black_box(&frame)).expect("writing to memory");
        }),
        time_per_call(|| {
            black_box(read_frame(&mut black_box(&framed[..])).expect("round trip"));
        }),
    ]
}

pub fn run(args: &RunArgs, rec: &mut Recorder) -> Outcome {
    let txs = if args.smoke { 300 } else { 1_500 };
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        out.problems
            .push(format!("cannot create {}: {e}", out_dir()));
    }

    // The virtual-time twin: same shape, simulated, once (it is a pure
    // function of the seed). Supplies correctness of the twin itself and
    // the three virtual-latency metrics; not part of any timed region.
    let twin = SimSpec {
        mix: spec().mix,
        keys: spec().num_keys,
        servers: SERVERS,
        clients: spec().num_clients,
        epoch: 2,
        txs,
        service_us: 0,
        // With only four clients, all writing, the checker's GC does
        // compact — and its legacy fallback then aborts the process when a
        // later read needs the full history (ROADMAP item 5's latent
        // panic). The twin is here for its latencies: no GC.
        gc_every: 0,
        chaos: false,
    };
    sim_end_to_end(
        &mut out,
        &[sim_pass(&twin, args.seed, &mut Recorder::new(false))],
    );

    let mut serial = 0;
    let passes = passes(args, rec, &mut out, |rec| {
        one_pass(txs, args.seed, &mut serial, rec)
    });
    let launches = || passes.iter().flat_map(|p| &p.launches);
    for l in launches() {
        out.attempted += l.txs;
        out.failed += l.txs - l.verified;
        out.problems.extend(l.problem.clone());
    }
    let ok: Vec<&Launch> = launches().filter(|l| l.problem.is_none()).collect();
    if ok.is_empty() {
        return out;
    }
    // `setup_s`: per-launch spawn + handshake, four samples per pass.
    let spawns: Vec<f64> = ok.iter().map(|l| l.spawn_ns as f64 / 1e9).collect();
    out.set("setup_s", median(&spawns), spawns.len() as u64);
    let rates: Vec<f64> = passes
        .iter()
        .filter(|p| !p.spans.traced)
        .map(|p| {
            p.launches.iter().map(|l| l.verified).sum::<u64>() as f64
                / (p.spans.timed_ns as f64 / 1e9)
        })
        .collect();
    out.set("verified_per_s", median(&rates), rates.len() as u64);
    let txs_ok: u64 = ok.iter().map(|l| l.txs).sum();
    out.set(
        "msgs_per_tx",
        ok.iter().map(|l| l.delivers).sum::<u64>() as f64 / txs_ok as f64,
        txs_ok,
    );

    if args.traced {
        per_layer(&mut out, &passes, &ok);
    }
    out
}

/// The per-layer metrics: spans of the traced passes, counters and wall
/// latencies of every launch that ended without a problem (`ok`).
fn per_layer(out: &mut Outcome, passes: &[Pass], ok: &[&Launch]) {
    let launches = || passes.iter().flat_map(|p| &p.launches);
    let txs_ok: u64 = ok.iter().map(|l| l.txs).sum();
    account_layers(out, &passes.iter().map(|p| &p.spans).collect::<Vec<_>>());

    for (i, p) in PROTOCOLS.iter().enumerate() {
        let mine: Vec<&Launch> = passes
            .iter()
            .map(|pass| &pass.launches[i])
            .filter(|l| l.problem.is_none())
            .collect();
        if mine.is_empty() {
            continue;
        }
        let per_tx: Vec<f64> = mine
            .iter()
            .map(|l| l.run_ns as f64 / l.txs as f64)
            .collect();
        out.set(
            &format!("net.{p}.run_ns_per_tx"),
            median(&per_tx),
            per_tx.len() as u64,
        );
        let mut rot: Vec<u64> = mine.iter().flat_map(|l| l.rot_ns.iter().copied()).collect();
        rot.sort_unstable();
        for (name, q) in [("rot_p50_wall_us", 0.5), ("rot_p99_wall_us", 0.99)] {
            if let Some(ns) = percentile(&rot, q) {
                out.set(
                    &format!("net.{p}.{name}"),
                    ns as f64 / 1e3,
                    rot.len() as u64,
                );
            }
        }
    }
    let med = |f: fn(&Launch) -> u64| median(&ok.iter().map(|l| f(l) as f64).collect::<Vec<_>>());
    out.set("net.spawn_ms", med(|l| l.spawn_ns) / 1e6, ok.len() as u64);
    out.set(
        "net.shutdown_ms",
        med(|l| l.shutdown_ns) / 1e6,
        ok.len() as u64,
    );
    let sum = |f: fn(&Launch) -> u64| ok.iter().map(|l| f(l)).sum::<u64>() as f64;
    let all_txs: u64 = launches().map(|l| l.txs).sum();
    out.set(
        "net.cpu_us_per_tx",
        passes.iter().map(|p| p.cpu_us).sum::<u64>() as f64 / all_txs as f64,
        all_txs,
    );
    out.set("net.steps_per_tx", sum(|l| l.steps) / txs_ok as f64, txs_ok);
    out.set(
        "net.record_bytes_per_tx",
        sum(|l| l.record_bytes) / txs_ok as f64,
        txs_ok,
    );
    // `replay_and_diff` replays every recording twice.
    out.set(
        "net.replay_ns_per_step",
        sum(|l| l.replay_ns) / (2.0 * sum(|l| l.steps)),
        2 * sum(|l| l.steps) as u64,
    );
    out.set(
        "net.check_ns_per_tx",
        sum(|l| l.check_ns) / txs_ok as f64,
        txs_ok,
    );
    let codecs = [
        codec_ns::<CopsSnowNode>(),
        codec_ns::<CopsNode>(),
        codec_ns::<EigerNode>(),
        codec_ns::<SpannerNode>(),
    ];
    for (i, name) in [
        "net.wire_encode_ns",
        "net.wire_decode_ns",
        "net.frame_encode_ns",
        "net.frame_decode_ns",
    ]
    .iter()
    .enumerate()
    {
        out.set(
            name,
            codecs.iter().map(|c| c[i]).sum::<f64>() / 4.0,
            4 * 20_000,
        );
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.spans.timed_ns as f64).collect();
    let (fastest, slowest) = walls
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
    out.set("net.rep_spread", slowest / fastest, walls.len() as u64);
}
