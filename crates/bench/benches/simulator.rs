//! Simulator-core performance: event-loop throughput, trace overhead,
//! and configuration-fork cost (the operation the theorem machinery
//! leans on).

use cbf_sim::{Actor, Ctx, LatencyModel, ProcessId, SimConfig, World};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A ring of actors forwarding a hot-potato token `hops` times.
#[derive(Clone)]
struct Ring {
    next: ProcessId,
    hops: u32,
}

impl Actor for Ring {
    type Msg = u32;
    fn step(&mut self, ctx: &mut Ctx<u32>) {
        for env in ctx.recv() {
            if env.msg < self.hops {
                ctx.send(self.next, env.msg + 1);
            }
        }
    }
}

fn ring_world(n: usize, hops: u32, record_trace: bool) -> World<Ring> {
    let actors: Vec<Ring> = (0..n)
        .map(|i| Ring {
            next: ProcessId(((i + 1) % n) as u32),
            hops,
        })
        .collect();
    World::new(
        actors,
        LatencyModel::constant_default(),
        SimConfig {
            record_trace,
            ..SimConfig::default()
        },
    )
}

fn simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_loop");
    for &hops in &[1_000u32, 10_000] {
        g.bench_with_input(BenchmarkId::new("traced", hops), &hops, |b, &hops| {
            b.iter(|| {
                let mut w = ring_world(8, hops, true);
                w.inject(ProcessId(0), 0);
                w.run_until_quiescent();
                w.stats().events
            })
        });
        g.bench_with_input(BenchmarkId::new("untraced", hops), &hops, |b, &hops| {
            b.iter(|| {
                let mut w = ring_world(8, hops, false);
                w.inject(ProcessId(0), 0);
                w.run_until_quiescent();
                w.stats().events
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("fork");
    for &hops in &[1_000u32, 10_000, 100_000] {
        // With the segmented CoW trace, fork cost stays bounded by the
        // unsealed tail (≤ SEAL_CAP events) plus per-process state, no
        // matter how long the recorded history is — the 10×-deeper
        // histories here should fork in near-constant time.
        let mut w = ring_world(8, hops, true);
        w.inject(ProcessId(0), 0);
        w.run_until_quiescent();
        g.bench_with_input(BenchmarkId::from_parameter(hops), &w, |b, w| {
            b.iter(|| w.fork().stats().events)
        });
    }
    g.finish();

    // A fork that then diverges: exercises the copy-on-write tail (the
    // fork appends its own events without disturbing the parent).
    let mut g = c.benchmark_group("fork_diverge");
    let mut parent = ring_world(8, 10_000, true);
    parent.inject(ProcessId(0), 0);
    parent.run_until_quiescent();
    g.bench_function("fork_then_1000_hops", |b| {
        b.iter(|| {
            let mut f = parent.fork();
            f.inject(ProcessId(0), 9_000);
            f.run_until_quiescent();
            f.stats().events
        })
    });
    g.finish();

    // Scheduler stress: many tokens in flight at once keep the in-flight
    // table and the event queue populated, unlike the single-token ring
    // where the queue depth is 1.
    let mut g = c.benchmark_group("scheduler_fanout");
    for &tokens in &[8u32, 64] {
        g.bench_with_input(
            BenchmarkId::from_parameter(tokens),
            &tokens,
            |b, &tokens| {
                b.iter(|| {
                    let mut w = ring_world(16, 2_000, false);
                    for t in 0..tokens {
                        w.inject(ProcessId(t % 16), 0);
                    }
                    w.run_until_quiescent();
                    w.stats().events
                })
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("chaotic");
    g.bench_function("ring_8x1000", |b| {
        b.iter(|| {
            let mut w = ring_world(8, 1_000, false);
            w.inject(ProcessId(0), 0);
            w.run_chaotic(7, 100_000);
            w.stats().events
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = simulator
}
criterion_main!(benches);
