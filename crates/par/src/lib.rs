//! Deterministic fork-join parallelism for the theorem harness.
//!
//! The paper's quantifiers are embarrassingly parallel — Definition 2's
//! "visible in every continuation" is a family of independent probe runs
//! on [`World`] forks, the checker's serialization search runs per
//! client, and Table 1's rows audit independent protocols. This crate
//! gives those fan-outs one primitive, [`parallel_map`], with the
//! property the harness cannot compromise on: **the result is
//! bit-identical to the serial loop**. Work items are pure functions of
//! their inputs (no shared mutable RNG, no interior mutability), and
//! results are joined back in input order, so callers reduce them
//! exactly as the serial code would.
//!
//! Thread count comes from `SNOWBOUND_THREADS` (default: available
//! parallelism). `SNOWBOUND_THREADS=1` short-circuits to the literal
//! serial loop — not a one-thread pool — so the escape hatch is the old
//! code path, byte for byte.
//!
//! ## The work threshold
//!
//! Spawning a scoped worker costs tens of microseconds; a fan-out whose
//! items each take nanoseconds *loses* time to the spawn tax — and loses
//! badly when it happens inside another `parallel_map` job, where every
//! outer worker pays it again. [`parallel_map_costed`] takes a static
//! per-item cost estimate (virtual, in nanoseconds; any fixed scale
//! works as long as callers and [`min_work`] agree) and stays on the
//! serial path whenever `est × len` is below the [`min_work`] floor.
//! The floor comes from `SNOWBOUND_MIN_WORK` (nanoseconds; `0` disables
//! the floor, huge values force every costed fan-out serial). The
//! estimate is a *hint*: both paths compute the identical result, so a
//! wrong estimate costs time, never correctness.
//!
//! Built on `std::thread::scope` only; no external dependencies.
//!
//! [`World`]: ../cbf_sim/struct.World.html

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "SNOWBOUND_THREADS";

/// Environment variable overriding the serial-fallback work floor, in
/// estimated nanoseconds of total fan-out work. Fan-outs estimated
/// cheaper than this run on the calling thread. `0` disables the floor
/// (every multi-item fan-out goes parallel, the pre-threshold
/// behaviour); a huge value forces every costed fan-out serial.
pub const MIN_WORK_ENV: &str = "SNOWBOUND_MIN_WORK";

/// Default work floor: 2 ms of estimated work. Below this, the spawn
/// tax (≈ 50 µs per worker, paid per call) eats any speedup an 8-way
/// split could deliver.
pub const DEFAULT_MIN_WORK: u64 = 2_000_000;

/// Per-item cost hint used by [`parallel_map`] when the caller gives
/// none: assume items are heavy (10 ms each), so un-hinted call sites
/// keep their historical always-parallel behaviour.
pub const HEAVY_HINT: u64 = 10_000_000;

/// The effective work floor: `SNOWBOUND_MIN_WORK` if set to an integer,
/// else [`DEFAULT_MIN_WORK`]. Re-read on every call, like
/// [`thread_budget`], so tests can toggle it mid-process.
pub fn min_work() -> u64 {
    match std::env::var(MIN_WORK_ENV) {
        Ok(v) => v.trim().parse::<u64>().unwrap_or(DEFAULT_MIN_WORK),
        Err(_) => DEFAULT_MIN_WORK,
    }
}

/// The machine's available parallelism, probed once. Querying it is a
/// syscall (plus cgroup reads on Linux) — far too slow for the budget
/// check on every `parallel_map` call, and the answer never changes
/// within a run.
fn machine_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The effective thread budget: `SNOWBOUND_THREADS` if set to a positive
/// integer, else the machine's available parallelism, else 1. The env
/// var is re-read on every call (tests toggle it mid-process); only the
/// machine probe is cached.
pub fn thread_budget() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => 1, // malformed or zero: fail safe to serial
        },
        Err(_) => machine_parallelism(),
    }
}

/// Map `f` over `items`, in parallel, preserving input order in the
/// output.
///
/// Semantics are exactly `items.into_iter().map(f).collect()`: `f` runs
/// once per item, and the output `Vec` lines up index-for-index with the
/// input. With a thread budget of 1 (or ≤ 1 item) this *is* that serial
/// loop on the calling thread. Otherwise workers claim items from a
/// shared counter and write results into their input slots, so
/// scheduling order never leaks into the result.
///
/// Panics in `f` propagate to the caller (the scope joins all workers
/// first).
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    parallel_map_costed(items, HEAVY_HINT, f)
}

/// [`parallel_map`] with a static per-item cost estimate (nanoseconds).
///
/// When `est_ns_per_item × items.len()` falls below [`min_work`], the
/// fan-out is too small to amortize the spawn tax and runs as the
/// literal serial loop on the calling thread — the same code path as
/// `SNOWBOUND_THREADS=1`, so results are bit-identical either way.
/// Call sites with microsecond-scale items (per-session checker scans,
/// per-client serialization probes) pass small estimates; heavy
/// exhibits keep [`parallel_map`]'s default.
pub fn parallel_map_costed<T, U, F>(items: Vec<T>, est_ns_per_item: u64, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let floor = min_work();
    let est_total = est_ns_per_item.saturating_mul(items.len() as u64);
    let budget = thread_budget().min(items.len().max(1));
    if budget <= 1 || items.len() <= 1 || est_total < floor {
        return items.into_iter().map(f).collect();
    }

    let n = items.len();
    // Wrap inputs and outputs in Options so workers can move items out
    // and drop results in by index without unsafe code.
    let slots: Vec<std::sync::Mutex<(Option<T>, Option<U>)>> = items
        .into_iter()
        .map(|t| std::sync::Mutex::new((Some(t), None)))
        .collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..budget {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let input = slots[i]
                    .lock()
                    .expect("parallel_map slot poisoned")
                    .0
                    .take()
                    .expect("item claimed twice");
                let out = f(input);
                slots[i].lock().expect("parallel_map slot poisoned").1 = Some(out);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("parallel_map slot poisoned")
                .1
                .expect("worker completed without a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<u64>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn matches_serial_map_on_nontrivial_work() {
        let items: Vec<u64> = (0..64).collect();
        let f = |x: u64| {
            // A little CPU so threads actually interleave.
            let mut acc = x;
            for i in 0..1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let serial: Vec<u64> = items.clone().into_iter().map(f).collect();
        assert_eq!(parallel_map(items, f), serial);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert_eq!(parallel_map(empty, |x| x + 1), Vec::<u32>::new());
        assert_eq!(parallel_map(vec![41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn budget_parses_env_shapes() {
        // Only inspects the parse logic indirectly: a budget is always
        // at least 1.
        assert!(thread_budget() >= 1);
    }

    /// FNV-1a over a result vector: the digest the fallback test
    /// compares across paths.
    fn digest(xs: &[u64]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for x in xs {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    #[test]
    fn costed_serial_fallback_is_digest_identical() {
        let items: Vec<u64> = (0..256).collect();
        let f = |x: u64| x.wrapping_mul(6364136223846793005).rotate_left(17);
        // Tiny estimate: 10 ns × 256 is far below any sane floor, so
        // this runs serially on the calling thread...
        let cheap = parallel_map_costed(items.clone(), 10, f);
        // ...while a heavy estimate crosses the floor and goes wide.
        let heavy = parallel_map_costed(items.clone(), HEAVY_HINT, f);
        let serial: Vec<u64> = items.into_iter().map(f).collect();
        assert_eq!(digest(&cheap), digest(&serial));
        assert_eq!(digest(&heavy), digest(&serial));
        assert_eq!(cheap, heavy);
    }

    // The floor constants keep their ordering at compile time: a zero
    // default would disable the serial fallback, and a HEAVY_HINT below
    // the floor would stop forcing the threaded path in tests.
    const _: () = assert!(DEFAULT_MIN_WORK > 0);
    const _: () = assert!(HEAVY_HINT >= DEFAULT_MIN_WORK);

    #[test]
    fn min_work_defaults_sane() {
        // Whatever the env says, the floor parses to *something*.
        let _ = min_work();
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = parallel_map(vec![1u32, 2, 3, 4], |x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }
}
