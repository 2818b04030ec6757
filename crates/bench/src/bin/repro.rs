//! `repro` — regenerate every table and figure of *Distributed
//! Transactional Systems Cannot Be Fast*.
//!
//! ```sh
//! cargo run --release -p cbf-bench --bin repro -- all
//! cargo run --release -p cbf-bench --bin repro -- table1
//! ```
//!
//! Exhibits: `table1`, `table2`, `fig1`, `fig2`, `fig3`, `theorem1`,
//! `theorem2`, `limits`, `latency`, `all`. Results are printed and, for
//! the tabular exhibits, also written as JSON under `results/`.

use cbf_bench::chaos::{chaos_table, render_chaos_table, ChaosRow};
use cbf_bench::json::ToJson;
use cbf_bench::{latency_tables, render_latency_table, render_table1, table1_rows, LatencyRow};
use snowbound::prelude::*;
use snowbound::theorem::{
    attack_excerpt, general_topologies, minimal_topology, paper_table1, probe_reads, ProbeSchedule,
    SystemRow,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    // Hidden server-child entry point: `repro net [tier]` re-executes
    // this binary as `repro net-node …` once per server process. Runs
    // before the results/ claim (children must not touch the artifact
    // dir) and exits nonzero on any error so the launcher's exit-status
    // check catches a crashed server.
    if what == "net-node" {
        if let Err(e) = cbf_net::node_main(&args[1..]) {
            eprintln!("net-node: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = run(what) {
        eprintln!("repro: error: {e}");
        std::process::exit(1);
    }
}

fn run(what: &str) -> Result<(), String> {
    // Every tabular exhibit writes under results/; claim it up front so
    // a bad working directory fails once, with context, instead of each
    // exhibit silently skipping its artifact.
    std::fs::create_dir_all("results").map_err(|e| {
        let cwd = std::env::current_dir()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|_| String::from("."));
        format!("cannot create results/ in {cwd}: {e}")
    })?;
    match what {
        "table1" => table1(),
        "table2" => table2(),
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "theorem1" => theorem1(),
        "theorem2" => theorem2(),
        "limits" => limits(),
        "latency" => latency(),
        "ablations" => ablations(),
        "daggers" => daggers(),
        "freshness" => freshness(),
        "chaos" => chaos(),
        "soak" => soak(),
        "load" => load(),
        "net" => net(),
        "all" => {
            for f in [
                table1 as fn() -> Result<(), String>,
                table2,
                fig1,
                fig2,
                fig3,
                theorem1,
                theorem2,
                limits,
                latency,
                ablations,
                daggers,
                freshness,
                chaos,
            ] {
                f()?;
                println!("\n{}\n", "=".repeat(78));
            }
            Ok(())
        }
        other => {
            eprintln!("unknown exhibit: {other}");
            eprintln!("known: table1 table2 fig1 fig2 fig3 theorem1 theorem2 limits latency ablations daggers freshness chaos soak load net all");
            std::process::exit(2);
        }
    }
}

fn save_json(name: &str, value: &impl ToJson) -> Result<(), String> {
    let path = format!("results/{name}.json");
    std::fs::write(&path, value.to_json(0)).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("  [written {path}]");
    Ok(())
}

/// Parse the count argument of `load` and `soak`: `100k`, `2m`
/// (case-insensitive) or a plain integer.
fn parse_count(arg: &str) -> Result<u64, String> {
    let s = arg.to_ascii_lowercase();
    let (num, mult) = match (s.strip_suffix('m'), s.strip_suffix('k')) {
        (Some(n), _) => (n, 1_000_000u64),
        (None, Some(n)) => (n, 1_000),
        (None, None) => (s.as_str(), 1),
    };
    num.parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("bad count {arg:?}: use e.g. 100k, 2m or a plain integer"))
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

fn table1() -> Result<(), String> {
    println!("TABLE 1 — measured rows (this artifact) vs the paper's characterization");
    println!("Deployment: 2 servers, 2 objects, 6 clients; R/V/N audited from traces.\n");

    let rows: Vec<SystemRow> = table1_rows();
    print!("{}", render_table1(&rows));
    save_json("table1_measured", &rows)?;

    println!("\nPaper's Table 1 (all 22 systems, reference):");
    println!(
        "| {:<14} | {:>3} | {:>3} | {:^3} | {:^3} | consistency",
        "system", "R", "V", "N", "W"
    );
    for r in paper_table1() {
        println!(
            "| {:<14} | {:>3} | {:>3} | {:^3} | {:^3} | {}{}",
            r.system,
            r.r,
            r.v,
            if r.n { "yes" } else { "no" },
            if r.w { "yes" } else { "no" },
            r.consistency,
            if r.dagger { " †" } else { "" }
        );
    }
    println!("\n† different system model (out of the theorem's scope).");
    println!("Shape check: no non-† causal-or-stronger row has R=1, V=1, N and W.");
    Ok(())
}

// ---------------------------------------------------------------------
// Table 2 — the symbol table (appendix)
// ---------------------------------------------------------------------

fn table2() -> Result<(), String> {
    println!("TABLE 2 — the paper's symbols, mapped to this artifact\n");
    let rows: &[(&str, &str, &str)] = &[
        ("X_i", "object i", "cbf_model::Key"),
        ("x_in_i", "initial value of X_i", "TheoremSetup::x_in"),
        ("p_i", "server storing X_i", "cbf_sim::ProcessId(i)"),
        (
            "T_in_i",
            "initializing write transaction",
            "setup_c0 (Figure 1)",
        ),
        ("c_in_i", "client issuing T_in_i", "TheoremSetup::c_in"),
        (
            "cw",
            "writer client (reads x_in, then writes Tw)",
            "TheoremSetup::cw",
        ),
        (
            "Tw",
            "troublesome write-only transaction",
            "induction::run_theorem",
        ),
        ("x_i", "new value written by Tw", "AttackOutcome::new"),
        (
            "c_r / c_r^k",
            "reader client of the constructions",
            "TheoremSetup::reader",
        ),
        (
            "T_r",
            "fast read-only transaction",
            "Cluster::read_tx + RotAudit",
        ),
        ("Qin, Q0, C0", "initial configurations", "setup::setup_c0"),
        (
            "γ_old/σ_old",
            "Construction 1",
            "attack (phase σ_old) + ProbeSchedule::Delay",
        ),
        ("γ_new/σ_new", "Construction 2", "attack (phase σ_new)"),
        (
            "β, β_new",
            "solo run making Tw visible",
            "attack (phase β_new)",
        ),
        (
            "γ, δ",
            "contradictory executions",
            "attack::mixed_snapshot_attack",
        ),
        (
            "ms_k",
            "forced message of prefix α_k",
            "induction::ForcedMsg",
        ),
        (
            "α_k, C_k",
            "prefixes of the infinite execution",
            "induction::InductionStep",
        ),
    ];
    println!("| {:<12} | {:<42} | here", "symbol", "meaning");
    println!("|{}", "-".repeat(96));
    for (s, m, h) in rows {
        println!("| {s:<12} | {m:<42} | {h}");
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Figure 1 — Qin → Q0 → C0
// ---------------------------------------------------------------------

fn fig1() -> Result<(), String> {
    println!("FIGURE 1 — configurations Qin → Q0 → C0 (naive-fast deployment)\n");
    let s = setup_c0::<NaiveFast>(minimal_topology()).expect("setup");
    println!(
        "clients: c_in0={}, c_in1={}, cw={}, reader={}, probe={}",
        s.c_in[0], s.c_in[1], s.cw, s.reader, s.probe
    );
    println!("x_in = {:?}\n", s.x_in);
    println!("execution space-time diagram (T_in_0, T_in_1, then cw's T_in_r):");
    println!("{}", s.cluster.world.render_lanes());
    println!("history at C0 (causal: {}):", s.cluster.check().is_ok());
    for t in s.cluster.history().transactions() {
        println!(
            "  {:?} by {:?}: reads={:?} writes={:?}",
            t.id, t.client, t.reads, t.writes
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Figure 2 — Constructions 1 and 2
// ---------------------------------------------------------------------

fn fig2() -> Result<(), String> {
    println!("FIGURE 2 — Constructions 1 (γ_old) and 2 (γ_new)\n");
    println!("Both constructions run the same fast ROT T_r = (r(X0)*, r(X1)*);");
    println!("they differ in where along Tw's solo execution the adversary");
    println!("places it.\n");

    let mut s = setup_c0::<NaiveFast>(minimal_topology()).expect("setup");
    let cw_pid = s.cluster.topo.client_pid(s.cw);
    let (v0, v1) = (s.cluster.alloc_value(), s.cluster.alloc_value());
    let id = s.cluster.alloc_tx();
    s.cluster.world.inject(
        cw_pid,
        <NaiveFast as ProtocolNode>::wtx_invoke(id, vec![(Key(0), v0), (Key(1), v1)]),
    );
    println!(
        "Tw = (w(X0){v0:?}, w(X1){v1:?}) injected at cw; x_in = {:?}\n",
        s.x_in
    );

    // Construction 1: C = a configuration where the new values are not
    // visible (here: Tw has taken no steps). T_r returns the old world,
    // whichever server answers first.
    for sched in [
        ProbeSchedule::Delay(snowbound::sim::ProcessId(1)), // p0 answers first
        ProbeSchedule::Delay(snowbound::sim::ProcessId(0)), // p1 answers first
    ] {
        let reads = probe_reads(&s.cluster, s.probe, &s.keys, sched).expect("probe");
        println!(
            "Construction 1 ({sched:?}): T_r returned {reads:?}  (x_in — as Observation 1 claims)"
        );
    }

    // Construction 2: C = a configuration where the new values are
    // visible (Tw ran solo to completion). T_r returns the new world.
    let solo: Vec<snowbound::sim::ProcessId> = s
        .cluster
        .topo
        .servers()
        .chain(std::iter::once(cw_pid))
        .collect();
    s.cluster.world.run_restricted(&solo);
    for sched in [
        ProbeSchedule::Delay(snowbound::sim::ProcessId(1)),
        ProbeSchedule::Delay(snowbound::sim::ProcessId(0)),
    ] {
        let reads = probe_reads(&s.cluster, s.probe, &s.keys, sched).expect("probe");
        println!(
            "Construction 2 ({sched:?}): T_r returned {reads:?}  (x_new — as Observation 2 claims)"
        );
    }
    println!("\nThe proof splices a σ_old prefix of Construction 1 with a σ_new");
    println!("suffix of Construction 2 — fig3 shows the splice.");
    Ok(())
}

// ---------------------------------------------------------------------
// Figure 3 — the contradictory execution γ
// ---------------------------------------------------------------------

fn fig3() -> Result<(), String> {
    println!("FIGURE 3 — the spliced execution γ = σ_old · β_new · σ_new\n");
    let s = setup_c0::<NaiveFast>(minimal_topology()).expect("setup");
    let out = attack_all_servers(&s).expect("attack");
    println!(
        "first responder: {} (σ_old) — then Tw runs solo to visibility (β_new),",
        out.first_server
    );
    println!("then the other server answers (σ_new).\n");
    println!("reader returned: {:?}", out.reads);
    println!("x_in (old):      {:?}", out.old);
    println!("Tw    (new):     {:?}", out.new);
    println!(
        "snapshot shape:  {:?}  (Lemma 1 allows AllOld/AllNew only)",
        out.snapshot_kind()
    );
    println!("checker verdict: {:?}\n", out.violations);
    println!("trace of γ (first events):");
    let excerpt = attack_excerpt(&s, out.first_server, 120).expect("attack");
    println!("{excerpt}");
    Ok(())
}

// ---------------------------------------------------------------------
// Theorem 1 — the induction
// ---------------------------------------------------------------------

fn theorem1() -> Result<(), String> {
    println!("THEOREM 1 — Lemma 3's prefixes α_k against the claimant family\n");
    for report in [
        run_theorem::<NaiveNode<1>>(12),
        run_theorem::<NaiveNode<2>>(12),
        run_theorem::<NaiveNode<3>>(12),
        run_theorem::<NaiveNode<4>>(12),
    ] {
        println!("{}", report.render());
        // Every claimant is caught with the snapshot Lemma 1 forbids.
        match &report.conclusion {
            Conclusion::Caught { witness, .. }
                if witness.snapshot_kind() == SnapshotKind::Mixed => {}
            other => return Err(format!("theorem1: claimant not caught mixed: {other:?}")),
        }
    }
    println!("P coordination phases ⇒ 2P−3 forced messages, caught at k = 2P−2");
    println!("(P=1 caught immediately). A true fast+W+causal protocol would go on");
    println!("forever — that is the impossibility.\n");
    // The same γ schedule leaves the legal corners causal: each gives up
    // one of the four properties (one-round, non-blocking, one-value).
    for corner in [
        attack_all_servers(&setup_c0::<WrenNode>(minimal_topology()).expect("setup")),
        attack_all_servers(&setup_c0::<EigerNode>(minimal_topology()).expect("setup")),
        attack_all_servers(&setup_c0::<SpannerNode>(minimal_topology()).expect("setup")),
        attack_all_servers(&setup_c0::<CopsRwNode>(minimal_topology()).expect("setup")),
    ] {
        let out = corner.map_err(|e| format!("theorem1: attack on a legal corner: {e:?}"))?;
        if out.caught() {
            return Err(format!(
                "theorem1: a legal corner was caught: {:?}",
                out.reads
            ));
        }
    }
    // Claim 2's other shoe: a claimant whose servers do communicate
    // (decoy gossip) but whose values become visible mid-induction is
    // caught by the δ execution instead of γ.
    println!(
        "{}",
        run_theorem::<snowbound::protocols::naive::NaiveChatty>(12).render()
    );
    println!("naive-chatty's forced messages are real but useless: the values turn");
    println!("visible at C_1, claim 2 fails, and the δ execution extracts the same");
    println!("forbidden snapshot — the induction covers both of Lemma 3's claims.");
    Ok(())
}

// ---------------------------------------------------------------------
// Theorem 2 — partial replication
// ---------------------------------------------------------------------

fn theorem2() -> Result<(), String> {
    println!("THEOREM 2 — the general case (Appendix A): partial replication\n");
    for topo in general_topologies() {
        let report = run_general::<NaiveFast>(topo).expect("general run");
        println!("{}", report.render());
    }
    // Lemma 6: the general induction — forced messages from *any* server.
    println!("General induction (Lemma 6) on m=3, replication 2:");
    println!(
        "{}",
        snowbound::theorem::run_theorem_general::<NaiveNode<2>>(
            Topology::partially_replicated(3, 6, 3, 2),
            10
        )
        .render()
    );
    Ok(())
}

// ---------------------------------------------------------------------
// §3.4 — the limits of the impossibility result
// ---------------------------------------------------------------------

fn limits() -> Result<(), String> {
    println!("§3.4 — the limits: every 3-of-4 corner is achievable\n");
    let rows = vec![
        ("N+R+V (COPS-SNOW)", audit_protocol::<CopsSnowNode>(6)),
        ("N+V+W (Wren)", audit_protocol::<WrenNode>(6)),
        ("N+R+W (§3.4 sketch)", audit_protocol::<CopsRwNode>(6)),
        ("R+V+W (Spanner-like)", audit_protocol::<SpannerNode>(6)),
    ];
    for (corner, row) in &rows {
        println!(
            "{corner:<22} R:{} V:{} N:{} W:{} causal:{} — {}",
            row.rounds,
            row.values,
            if row.nonblocking { "yes" } else { "no" },
            if row.write_tx { "yes" } else { "no" },
            if row.causal_ok { "OK" } else { "FAIL" },
            row.theorem
        );
    }
    println!("\nCost signatures (the property each corner pays with):");
    println!("  COPS-SNOW: write latency grows with dependency fan-out (old-reader queries)");
    println!("  Wren: every read pays a snapshot round + visibility lag (stabilization)");
    println!("  §3.4 sketch: message payloads grow with the session's causal history");
    println!("  Spanner-like: reads block up to ε + commit-wait under write contention");
    Ok(())
}

// ---------------------------------------------------------------------
// Quantitative companion — latency tables
// ---------------------------------------------------------------------

fn latency() -> Result<(), String> {
    println!("LATENCY — virtual-time ROT latency across the design space\n");
    let mixes = [
        (Mix::ycsb_c(), "YCSB-C (100% read)"),
        (Mix::ycsb_b(), "YCSB-B (95% read)"),
        (Mix::ycsb_a(), "YCSB-A (50% read)"),
    ];
    // All 30 (protocol, mix) cells fan out at once; see latency_tables.
    let tables = latency_tables(&mixes, 120, 42);
    let mut all: Vec<LatencyRow> = Vec::new();
    for ((_, name), rows) in mixes.iter().zip(tables) {
        print!("{}", render_latency_table(name, &rows));
        all.extend(rows);
        println!();
    }
    save_json("latency", &cbf_bench::LatencyReport { rows: all })?;
    println!("Shape to verify against the theorem: one-round designs (COPS-SNOW,");
    println!("Spanner-like off the write path) sit at ~1 RTT (100 µs); two-round");
    println!("designs (COPS contention-free, Wren, Eiger round-1-settled) at ~2 RTT;");
    println!("Spanner's p99 inflates under writes (blocking); COPS-RW's V grows.");
    Ok(())
}

// ---------------------------------------------------------------------
// Ablations — quantifying the design choices
// ---------------------------------------------------------------------

fn ablations() -> Result<(), String> {
    use snowbound::sim::MICROS;
    println!("ABLATIONS — the knobs behind each corner's cost\n");

    // A1: Spanner-like, TrueTime ε sweep. Commit-wait and read parking
    // scale with ε: the protocol converts clock quality into latency.
    println!("A1. Spanner-like: TrueTime ε vs latency (YCSB-A, 80 ops, seed 11)");
    println!(
        "    {:>8} {:>12} {:>12} {:>12}",
        "ε µs", "ROT p50 µs", "ROT p99 µs", "ROT mean µs"
    );
    let mut last_mean = 0.0;
    for eps in [50 * MICROS, 250 * MICROS, 1000 * MICROS] {
        let topo = Topology::minimal(4).with_tuning(eps);
        let mut cluster: Cluster<SpannerNode> = Cluster::new(topo);
        let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_a()), 11);
        let s = drive(&mut cluster, &mut wl, 80).expect("drive");
        let mean = s.profile.mean_rot_latency() / 1_000.0;
        println!(
            "    {:>8} {:>12} {:>12} {:>12.1}",
            eps / 1_000,
            s.rot_latency_percentile(50.0) / 1_000,
            s.rot_latency_percentile(99.0) / 1_000,
            mean,
        );
        assert!(s.verdict.is_ok());
        assert!(mean >= last_mean, "latency must grow with ε");
        last_mean = mean;
    }

    // A2: Wren, stabilization period vs visibility latency. The GSS only
    // advances at broadcast boundaries: slower stabilization = staler
    // snapshots = later visibility.
    println!("\nA2. Wren: stabilization period vs write-visibility latency");
    println!("    {:>10} {:>18}", "period µs", "visibility µs");
    let mut last_vis = 0;
    for period in [100 * MICROS, 500 * MICROS, 2000 * MICROS] {
        let topo = Topology::minimal(4).with_tuning(period);
        let mut cluster: Cluster<WrenNode> = Cluster::new(topo);
        // Warm the stabilization machinery.
        cluster.world.run_for(5 * period);
        let t0 = cluster.world.now();
        let w = cluster
            .write_tx_auto(ClientId(0), &[Key(0), Key(1)])
            .expect("write");
        let want = w.writes[0].1;
        let mut visible_at = None;
        for _ in 0..200 {
            let r = cluster
                .read_tx(ClientId(1), &[Key(0), Key(1)])
                .expect("read");
            if r.reads[0].1 == want {
                visible_at = Some(cluster.world.now());
                break;
            }
            cluster.world.run_for(period / 4);
        }
        let vis = (visible_at.expect("must become visible") - t0) / 1_000;
        println!("    {:>10} {:>18}", period / 1_000, vis);
        assert!(
            vis >= last_vis,
            "visibility latency must grow with the period"
        );
        last_vis = vis;
    }

    // A3: COPS-SNOW, write cost vs dependency fan-out. Each write must
    // query the servers of its dependencies for old readers before
    // becoming visible: more dependency servers, more messages.
    println!("\nA3. COPS-SNOW: dependency fan-out vs write messages / latency");
    println!(
        "    {:>10} {:>12} {:>14}",
        "dep srvs", "msgs/write", "write µs"
    );
    let mut last_msgs = 0;
    for fanout in [0u32, 1, 2, 3] {
        let mut cluster: Cluster<CopsSnowNode> = Cluster::new(Topology::sharded(4, 6, 8));
        // Seed values on `fanout` other servers and read them to build
        // the client's dependency context.
        for j in 0..fanout {
            let k = Key(1 + j); // primaries 1..=3
            cluster.write_tx_auto(ClientId(1), &[k]).expect("seed");
            cluster.read_tx(ClientId(0), &[k]).expect("observe");
        }
        let before = cluster.world.stats().total_sent();
        let w = cluster
            .write_tx_auto(ClientId(0), &[Key(0)])
            .expect("write");
        let msgs = cluster.world.stats().total_sent() - before;
        println!(
            "    {:>10} {:>12} {:>14}",
            fanout,
            msgs,
            w.audit.latency / 1_000
        );
        assert!(msgs >= last_msgs, "messages must grow with fan-out");
        last_msgs = msgs;
    }

    // A4: COPS-RW, session length vs payload size. The fat-message
    // design's cost curve: values per message over a client's lifetime.
    println!("\nA4. COPS-RW (§3.4): session length vs values per message");
    println!("    {:>10} {:>16}", "ops", "max values/msg");
    let mut cluster: Cluster<CopsRwNode> = Cluster::new(Topology::minimal(4));
    let mut last_vals = 0;
    for checkpoint in [4usize, 16, 48] {
        let mut max_vals = 0;
        while cluster.history().len() < checkpoint {
            cluster
                .write_tx_auto(ClientId(0), &[Key(0), Key(1)])
                .expect("w");
            let r = cluster.read_tx(ClientId(0), &[Key(0), Key(1)]).expect("r");
            max_vals = max_vals.max(r.audit.max_values_per_msg);
        }
        println!("    {:>10} {:>16}", checkpoint, max_vals);
        assert!(max_vals >= last_vals, "payload must grow with the session");
        last_vals = max_vals;
    }
    assert!(last_vals > 10, "the fat-message cost must be visible");

    // A5: the claimant family — coordination phases vs survival depth
    // (the induction law, tabulated).
    println!("\nA5. Claimants: write phases P vs induction survival");
    println!("    {:>4} {:>16} {:>12}", "P", "forced msgs", "caught at k");
    for (p, report) in [
        (1, run_theorem::<NaiveNode<1>>(14)),
        (2, run_theorem::<NaiveNode<2>>(14)),
        (3, run_theorem::<NaiveNode<3>>(14)),
        (4, run_theorem::<NaiveNode<4>>(14)),
    ] {
        let caught = match report.conclusion {
            Conclusion::Caught { at_k, .. } => at_k,
            _ => panic!("claimant must be caught"),
        };
        println!("    {:>4} {:>16} {:>12}", p, report.steps.len(), caught);
    }
    println!("\n    Law: forced = 2P−3 (P ≥ 2); caught at k = 2P−2.");
    Ok(())
}

// ---------------------------------------------------------------------
// Chaos — the protocols under the nemesis
// ---------------------------------------------------------------------

fn chaos() -> Result<(), String> {
    println!("CHAOS — retry-hardened protocols under deterministic fault injection");
    println!("Workload: 40 transactions (writes + 2-key ROTs) across 4 clients;");
    println!("faults: message drop/dup sweep, optionally one server crash (p1,");
    println!("2 ms → 8 ms, volatile state lost). Retry base 1 ms, exponential.\n");

    let rows: Vec<ChaosRow> = chaos_table(7);
    print!("{}", render_chaos_table(&rows));
    let report = cbf_bench::chaos::ChaosReport { rows };
    save_json("BENCH_chaos", &report)?;
    let rows = report.rows;

    let bad: Vec<&ChaosRow> = rows
        .iter()
        .filter(|r| !r.causal_ok || r.completed != r.total)
        .collect();
    if !bad.is_empty() {
        let detail: Vec<String> = bad
            .iter()
            .map(|r| {
                format!(
                    "{} drop={}‰ dup={}‰ crash={} seed={} ({}/{} completed, causal_ok={})",
                    r.protocol,
                    r.drop_pm,
                    r.dup_pm,
                    r.crash,
                    r.seed,
                    r.completed,
                    r.total,
                    r.causal_ok
                )
            })
            .collect();
        return Err(format!(
            "chaos: {} cell(s) violated consistency or lost transactions:\n  {}",
            bad.len(),
            detail.join("\n  ")
        ));
    }
    println!("\nEvery cell completed all transactions and passed the causal");
    println!("checker; digests are the replay fingerprints (same seed ⇒ same");
    println!("digest, bit-for-bit).");
    Ok(())
}

// ---------------------------------------------------------------------
// Load — contention cells + the million-client swarm tiers
// ---------------------------------------------------------------------

fn load() -> Result<(), String> {
    use cbf_bench::load::{
        cell_key, expected_load_digest, load_cells, render_cells, render_tiers, swarm_tiers,
        LoadReport,
    };
    // `repro load [tier]` caps the swarm tiers by client count: CI runs
    // `repro load 100k`; plain `repro load` includes the 1M tier.
    let cap = match std::env::args().nth(2) {
        Some(arg) => parse_count(&arg)?,
        None => 1_000_000,
    };
    println!("LOAD — latency under contention, and the million-client swarm");
    println!("Cells: 5 protocols × 2 YCSB mixes on 3 sharded servers with a");
    println!("20 µs/op service queue, driven by 48 closed-loop Zipf(0.99)");
    println!("clients, up to 24 transactions in flight. Tiers: up to 1M");
    println!("closed-loop clients over 8 servers, streamed through the sharded");
    println!("online checker in bounded memory. All digests pinned.\n");

    let cells = load_cells(21);
    print!("{}", render_cells(&cells));

    // Hard gates on the cells: causal verdicts, pinned digests, a
    // non-degenerate tail somewhere, and the theorem's separation —
    // COPS-SNOW's one-round reads beat a non-latency-optimal design.
    let mut unpinned = Vec::new();
    for c in &cells {
        if !c.causal_ok {
            return Err(format!(
                "load: cell {}:{} failed the causal check",
                c.protocol, c.mix
            ));
        }
        match expected_load_digest(&cell_key(c)) {
            Some(want) if want != c.digest => {
                return Err(format!(
                    "load: cell {}:{} digest {:016x} != pinned {want:016x}",
                    c.protocol, c.mix, c.digest
                ));
            }
            Some(_) => {}
            None => unpinned.push(cell_key(c)),
        }
    }
    let tail_ok = cells
        .iter()
        .any(|c| c.read_hist_us.percentile(99.0) > c.read_hist_us.percentile(50.0));
    if !tail_ok {
        return Err("load: every cell's read p99 == p50 — the service queue is not biting".into());
    }
    for mix in ["ycsb_a", "ycsb_b"] {
        let p50 = |proto: &str| {
            cells
                .iter()
                .find(|c| c.protocol == proto && c.mix == mix)
                .map(|c| c.read_hist_us.percentile(50.0))
                .ok_or_else(|| format!("load: missing cell {proto}:{mix}"))
        };
        let snow = p50("COPS-SNOW")?;
        let slowest = ["COPS", "Eiger", "RAMP", "Spanner-like"]
            .iter()
            .map(|p| p50(p))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .max()
            .expect("four protocols");
        if snow >= slowest {
            return Err(format!(
                "load: COPS-SNOW read p50 {snow} µs not separated below the slowest protocol ({slowest} µs) under {mix}"
            ));
        }
    }

    println!();
    let tiers = swarm_tiers(cap, 2_026);
    print!("{}", render_tiers(&tiers));
    for t in &tiers {
        if !t.verdict.is_ok() {
            return Err(format!(
                "load: swarm tier {} failed the causal check",
                t.clients
            ));
        }
        if t.read_hist_us.percentile(99.0) <= t.read_hist_us.percentile(50.0) {
            return Err(format!(
                "load: swarm tier {} has a degenerate read tail (p99 {} ≤ p50 {})",
                t.clients,
                t.read_hist_us.percentile(99.0),
                t.read_hist_us.percentile(50.0)
            ));
        }
        let bound = cbf_bench::load::swarm_segment_bound();
        if t.peak_segments_resident > bound {
            return Err(format!(
                "load: swarm tier {} held {} trace segments resident (bound {bound})",
                t.clients, t.peak_segments_resident
            ));
        }
        match expected_load_digest(&format!("swarm:{}", t.clients)) {
            Some(want) if want != t.digest => {
                return Err(format!(
                    "load: swarm tier {} digest {:016x} != pinned {want:016x}",
                    t.clients, t.digest
                ));
            }
            Some(_) => {}
            None => unpinned.push(format!("swarm:{}", t.clients)),
        }
    }
    if !unpinned.is_empty() {
        println!("\nWARNING: digests not yet pinned in fixtures/load_digests.txt:");
        for k in &unpinned {
            println!("  {k}");
        }
    }

    let report = LoadReport { cells, tiers };
    save_json("BENCH_load", &report)?;

    if let Some(t) = report.tiers.last() {
        println!(
            "\nSwarm engine at {} clients: {} ops, \
             {} segments recycled (peak {} resident), checker resident {} txs after {} GC passes.",
            t.clients,
            t.ops,
            t.recycled_segments,
            t.peak_segments_resident,
            t.resident.txs,
            t.gc_passes
        );
    }
    println!("\nEvery cell and tier passed its sharded causal check; digests are");
    println!("replay fingerprints (same seed ⇒ same digest, bit-for-bit).");
    Ok(())
}

// ---------------------------------------------------------------------
// Net — the real-socket runtime, replayed against the sim oracle
// ---------------------------------------------------------------------

fn net() -> Result<(), String> {
    // `repro net [tier]`: `smoke` (CI: 2 protocols, 200 txs each) or
    // `table1` (default: every protocol with a Table-1 row × two mixes,
    // ≥1000 txs per protocol).
    let tier = match std::env::args().nth(2) {
        Some(arg) => cbf_bench::net::parse_tier(&arg)?,
        None => "table1",
    };
    println!("NET — the same actors over real loopback sockets, one OS process");
    println!("per server, all clients in the launcher. Every computation step's");
    println!("inputs are recorded; the deterministic simulator replays the");
    println!("recorded delivery order, re-deriving all message contents, and the");
    println!("resulting causal history must match the real run bit for bit.");
    println!("Latencies below are wall-clock (loopback RTT + kernel), not");
    println!("virtual time.\n");

    let outcome = cbf_bench::net::run_net(tier);
    print!("{}", cbf_bench::net::render_net(&outcome.report));
    // Flush the artifact before acting on any error: a failed cell must
    // still leave the completed rows on disk (partial JSON, rider).
    save_json("BENCH_net", &outcome.report)?;
    if let Some(e) = outcome.error {
        return Err(format!("net: {e}"));
    }
    for r in &outcome.report.rows {
        if !r.causal_ok && r.causal_gated {
            return Err(format!(
                "net: {}:{} history failed the causal check",
                r.protocol, r.mix
            ));
        }
        if !r.replay_ok || r.replay_steps != r.recorded_steps {
            return Err(format!(
                "net: {}:{} replay executed {} of {} recorded steps",
                r.protocol, r.mix, r.replay_steps, r.recorded_steps
            ));
        }
    }
    println!("\nEvery cell's real-socket history replayed bit-identically through");
    println!("the simulator (twice, with matching digests) and, unless marked");
    println!("`acausal` (RAMP and pinned are reported, not gated — DESIGN §2.13),");
    println!("passed the causal checker. The two runtimes agree on every transaction.");
    Ok(())
}

// ---------------------------------------------------------------------
// Soak — the bounded-memory forever-run
// ---------------------------------------------------------------------

fn soak() -> Result<(), String> {
    // `repro soak [events]`: the forever-run tier. Defaults to the full
    // 100M-event soak; CI runs `repro soak 2m` on shared runners.
    let target = match std::env::args().nth(2) {
        Some(arg) => parse_count(&arg)?,
        None => 100_000_000,
    };
    if target == 0 {
        // Zero batches would leave no sample and pass the plateau gate
        // vacuously.
        return Err("bad count 0: soak needs at least one event".to_string());
    }
    println!("SOAK — bounded-memory forever-run under the rolling nemesis");
    println!("World: the 8-server pipeline workload, ops injected one network");
    println!("hop from their owner; nemesis: 1% drops + 1% dups, a server");
    println!("crash/recover every 5 virtual ms (cycling), ring partitions every");
    println!("23 ms. Checker: sharded online causal checking with frontier GC");
    println!("every 8 batches. Asserted: continuous causal verdicts AND a flat");
    println!(
        "RSS plateau (final ≤ {}x the 10%-progress sample).\n",
        cbf_bench::soak::PLATEAU_HEADROOM
    );

    let report = cbf_bench::soak::run_soak(target, 7);
    print!("{}", cbf_bench::soak::render_soak(&report));
    save_json("BENCH_soak", &report)?;

    if !report.causal_ok {
        return Err("soak: a causal violation surfaced under the nemesis".to_string());
    }
    if report.gc_blocked_passes > 0 {
        return Err(format!(
            "soak: {} GC passes fell back to window mode — the frontier is pinned",
            report.gc_blocked_passes
        ));
    }
    if !report.plateau_ok {
        return Err(format!(
            "soak: memory did not plateau — {} kB at 10% progress vs {} kB at the end \
             (x{:.3}, budget x{}); checker rows + stubs {} vs {} (budget x{})",
            report.plateau_baseline_rss_kb,
            report.plateau_final_rss_kb,
            report.plateau_ratio,
            cbf_bench::soak::PLATEAU_HEADROOM,
            report.checker_baseline,
            report.checker_final,
            cbf_bench::soak::CHECKER_HEADROOM
        ));
    }
    println!(
        "\nThe run sustained {} events with a flat memory plateau, continuous",
        report.events
    );
    println!(
        "causal verdicts, and {} transactions retired behind the frontier.",
        report.retired
    );
    Ok(())
}

// ---------------------------------------------------------------------
// The † rows — fast + W + causal, without minimal progress
// ---------------------------------------------------------------------

fn daggers() -> Result<(), String> {
    println!("† SYSTEMS — SwiftCloud / Eiger-PS escape the theorem by violating");
    println!("its progress premise, not its consistency premise.\n");
    println!("The `pinned` protocol distills them: reads at a client-pinned");
    println!("snapshot that advances only on the client's own commits.\n");

    // A hands-on run: fast reads, write transactions, causal histories…
    let mut db: Cluster<PinnedNode> = Cluster::new(Topology::minimal(4));
    let w = db
        .write_tx_auto(ClientId(0), &[Key(0), Key(1)])
        .expect("wtx");
    let own = db
        .read_tx(ClientId(0), &[Key(0), Key(1)])
        .expect("own read");
    println!(
        "writer's read:   {:?}  (fast: {}, own write visible)",
        own.reads,
        own.audit.is_fast()
    );
    let mut stale = None;
    for _ in 0..5 {
        db.world.run_for(10 * snowbound::sim::MILLIS);
        stale = Some(
            db.read_tx(ClientId(1), &[Key(0), Key(1)])
                .expect("other read"),
        );
    }
    let stale = stale.unwrap();
    println!(
        "bystander's read {:?}  (fast: {}, 50 ms of virtual time later: still ⊥)",
        stale.reads,
        stale.audit.is_fast(),
    );
    assert_ne!(stale.reads[0].1, w.writes[0].1);
    let p = db.profile();
    println!(
        "profile: R:{} V:{} N:{} W:{} — claims the impossible: {}",
        p.max_rounds,
        p.max_values,
        p.nonblocking(),
        p.multi_write_supported,
        p.claims_the_impossible()
    );
    println!(
        "history causal:  {}  (reading the frozen past is consistent)\n",
        db.check().is_ok()
    );

    // And the theorem machinery pinpoints the escape hatch: Definition 3.
    // Even Figure 1's Q0 — a configuration where the *initial* values are
    // visible — never materializes: the setup loop times out.
    let report = run_theorem::<PinnedNode>(8);
    println!("{}", report.render());
    println!("(Q0 is well-defined *because of* Definition 3, as the paper notes;");
    println!("a †-style system never reaches it for non-writing clients.)\n");
    println!("The paper's own words (related work): \"Although they eventually");
    println!("complete all writes, the values they write may be invisible to");
    println!("some clients for an indefinitely long time.\" Definition 3 rules");
    println!("such designs out of scope — and the machinery detects exactly that.");
    Ok(())
}

// ---------------------------------------------------------------------
// Freshness — the stale-read price of order-preserving fast-ish reads
// ---------------------------------------------------------------------

fn freshness() -> Result<(), String> {
    use snowbound::model::measure_freshness;
    println!("FRESHNESS — Tomsic et al.'s companion trade-off (paper §4): with an");
    println!("order-preserving consistency level, quick reads may have to return");
    println!("stale values. Staleness = completed-but-missed newer writes per read.\n");
    println!(
        "   {:<16} {:>8} {:>10} {:>12} {:>10}",
        "protocol", "reads", "fresh %", "mean stale", "max stale"
    );

    fn row<N: ProtocolNode>(tuning: u64) -> (String, snowbound::model::FreshnessReport) {
        let mut cluster: Cluster<N> = Cluster::new(Topology::minimal(4).with_tuning(tuning));
        let mut wl = Workload::new(WorkloadSpec::minimal(Mix::ycsb_a()), 33);
        drive(&mut cluster, &mut wl, 150).expect("drive");
        (N::NAME.to_string(), measure_freshness(cluster.history()))
    }

    // Stabilized designs all run a 1 ms period so the comparison is fair.
    let ms = snowbound::sim::MILLIS;
    let mut rows = vec![
        row::<CopsSnowNode>(0),
        row::<CopsNode>(0),
        row::<EigerNode>(0),
        row::<SpannerNode>(0),
        row::<ContrarianNode>(ms),
        row::<WrenNode>(ms),
        row::<CureNode>(ms),
        row::<GentleRainNode>(ms),
    ];
    // The †-style pinned protocol is the extreme of the trade-off.
    rows.push(row::<PinnedNode>(0));
    for (name, r) in &rows {
        println!(
            "   {:<16} {:>8} {:>9.1}% {:>12.2} {:>10}",
            name,
            r.reads,
            r.fresh_fraction() * 100.0,
            r.mean_staleness(),
            r.max_staleness
        );
    }
    println!("\nShape: immediate-visibility designs (COPS family, Eiger, Spanner)");
    println!("read fresh; stabilized snapshots (Contrarian/Wren/Cure/GentleRain)");
    println!("trade freshness for their read guarantees; the †-style pinned");
    println!("protocol — \"fast\" reads with W — is maximally stale, which is the");
    println!("degenerate end of exactly this trade-off.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_count;

    #[test]
    fn counts_take_k_and_m_suffixes_and_never_wrap() {
        assert_eq!(parse_count("50k"), Ok(50_000));
        assert_eq!(parse_count("2M"), Ok(2_000_000));
        assert_eq!(parse_count("7"), Ok(7));
        for bad in ["12x", "k", "", "-1", "99999999999999999m"] {
            assert!(parse_count(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
