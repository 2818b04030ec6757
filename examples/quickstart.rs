//! Quickstart: deploy a causally consistent transactional KV store on
//! the simulator, run transactions, and check the history.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use snowbound::prelude::*;

fn main() {
    // Two servers, two objects (the paper's minimal deployment), four
    // clients. Wren gives us causal consistency *with* multi-object
    // write transactions — paying, per the theorem, with 2-round reads.
    let mut db: Cluster<WrenNode> = Cluster::new(Topology::minimal(4));

    println!("== writes ==");
    let w = db
        .write_tx_auto(ClientId(0), &[Key(0), Key(1)])
        .expect("write transaction");
    println!(
        "client c0 committed a write transaction: {:?} (latency {} µs, {} round(s))",
        w.writes,
        w.audit.latency / 1_000,
        w.audit.rounds
    );

    // Wren makes writes readable once the global stable snapshot passes
    // them; give the stabilization protocol a moment of virtual time.
    db.world.run_for(snowbound::sim::MILLIS);

    println!("\n== reads ==");
    let r = db
        .read_tx(ClientId(1), &[Key(0), Key(1)])
        .expect("read-only transaction");
    println!(
        "client c1 read {:?} in {} round(s), {} value(s)/message, blocked: {}",
        r.reads, r.audit.rounds, r.audit.max_values_per_msg, r.audit.blocked
    );
    assert_eq!(r.reads[0].1, w.writes[0].1);
    assert_eq!(r.reads[1].1, w.writes[1].1);

    // Run a generated read-dominated workload on top.
    println!("\n== workload ==");
    let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_b()), 42);
    let summary = drive(&mut db, &mut wl, 200).expect("workload");
    println!(
        "completed {} ops; mean ROT latency {:.0} µs, p99 {} µs",
        summary.completed,
        summary.profile.mean_rot_latency() / 1_000.0,
        summary.rot_latency_percentile(99.0) / 1_000
    );

    // The point of the whole exercise: the observed history satisfies
    // causal consistency (Definition 1), checked, not assumed.
    let verdict = db.check();
    println!(
        "\ncausal consistency check over {} transactions: {}",
        db.history().len(),
        if verdict.is_ok() { "OK" } else { "VIOLATED" }
    );
    assert!(verdict.is_ok());

    // And the measured Table 1 row for this deployment:
    let p = db.profile();
    println!(
        "measured profile — R:{} V:{} N:{} W:{}  (fast ROTs: {})",
        p.max_rounds,
        p.max_values,
        p.nonblocking(),
        p.multi_write_supported,
        p.fast_rots()
    );
}
