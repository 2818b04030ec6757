//! Deterministic fork-join parallelism for independent exhibit cells.
//!
//! The exhibits are grids of independent, seeded runs, and the linter
//! scans independent files. This crate gives those fan-outs one
//! primitive, [`parallel_map`], with the property the harness cannot
//! compromise on: **the result is bit-identical to the serial loop**.
//! Work items are pure functions of their inputs (no shared mutable RNG,
//! no interior mutability), and results are joined back in input order,
//! so callers reduce them exactly as the serial code would.
//!
//! The fan-outs that use it:
//!
//! - `cbf-bench`: Table 1's rows and the latency cells (`lib.rs`), the
//!   chaos cells (`chaos.rs`), and the load tiers and swarm runs
//!   (`load.rs`);
//! - snowlint's per-file scan.
//!
//! The deterministic crates (`cbf-model`, `cbf-core`, `cbf-sim`) run
//! serially and do not depend on this crate.
//!
//! Thread count comes from `SNOWBOUND_THREADS` (default: available
//! parallelism). `SNOWBOUND_THREADS=1` short-circuits to the literal
//! serial loop — not a one-thread pool — so the escape hatch is the old
//! code path, byte for byte.
//!
//! Built on `std::thread::scope` only; no external dependencies.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "SNOWBOUND_THREADS";

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
    let budget = thread_budget().min(items.len().max(1));
    if budget <= 1 {
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
