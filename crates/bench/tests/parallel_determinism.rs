//! The parallel exhibit pipeline must be reproducible: two parallel
//! renders of the same exhibit are byte-identical, and both match the
//! serial (`SNOWBOUND_THREADS=1`) render. These tests and CI's
//! determinism smoke are the only places that assert it.

use cbf_bench::{latency_table, render_latency_table, render_table1, table1_rows};
use snowbound::prelude::Mix;

#[test]
fn parallel_table1_renders_are_byte_identical() {
    // Force a multi-thread budget so the threaded path runs even on a
    // single-core machine (where the default budget would be 1).
    std::env::set_var(cbf_par::THREADS_ENV, "4");
    let a = render_table1(&table1_rows());
    let b = render_table1(&table1_rows());
    assert_eq!(a, b, "two parallel table1 runs diverged");

    std::env::set_var(cbf_par::THREADS_ENV, "1");
    let serial = render_table1(&table1_rows());
    std::env::remove_var(cbf_par::THREADS_ENV);
    assert_eq!(a, serial, "parallel table1 diverged from the serial run");
}

#[test]
fn parallel_latency_table_matches_serial() {
    std::env::set_var(cbf_par::THREADS_ENV, "4");
    let a = render_latency_table("ycsb-a", &latency_table(Mix::ycsb_a(), "ycsb-a", 40, 42));

    std::env::set_var(cbf_par::THREADS_ENV, "1");
    let serial = render_latency_table("ycsb-a", &latency_table(Mix::ycsb_a(), "ycsb-a", 40, 42));
    std::env::remove_var(cbf_par::THREADS_ENV);

    assert_eq!(a, serial, "parallel latency exhibit diverged from serial");
}
