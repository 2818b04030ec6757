//! The benchmark's only reads of ambient state: the wall clock, this
//! process's CPU time and peak resident memory, and the host stamp.
//! Everything measured is a pure function of `--seed`; these readings
//! are what is reported about it and never feed back into a run.

use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic wall-clock nanoseconds since the first call.
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    // snowlint: allow(wall-clock): the benchmark times the product crates from outside; every wall-clock read in benchmark/ goes through this one helper and no reading reaches a simulated world, a seed or a verdict
    let start = *START.get_or_init(Instant::now);
    start.elapsed().as_nanos() as u64
}

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc,
/// which the offline workspace does not vendor; Linux has reported 100
/// on every architecture this repo builds for.
const CLK_TCK: u64 = 100;

/// CPU microseconds charged to this process and its waited-for
/// children: `utime + stime + cutime + cstime` of a `/proc/<pid>/stat`
/// line. The comm field may itself contain spaces and parentheses, so
/// the numeric fields are located after the *last* `)`.
pub fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime..cstime are fields 14..=17.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields
        .get(11..15)?
        .iter()
        .map(|f| f.parse::<u64>().ok())
        .sum::<Option<u64>>()?;
    Some(ticks * (1_000_000 / CLK_TCK))
}

/// [`parse_stat_cpu_us`] of this process (0 where `/proc` is absent).
pub fn cpu_us() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_us(&s))
        .unwrap_or(0)
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// The host stamp printed with every result: core count, CPU model, git
/// revision (read from `.git` by hand — the driver's checkout has none),
/// checker/harness thread budget and the workload seed.
pub fn host_stamp(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let rev = std::fs::read_to_string(format!("{git}/HEAD"))
        .ok()
        .map(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!("{git}/{r}")).unwrap_or_default(),
            None => head,
        })
        .map(|r| r.trim().chars().take(12).collect::<String>())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"git_rev\": \"{rev}\", \"threads\": {}, \"seed\": {seed}}}",
        cbf_par::thread_budget()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_a_parenthesised_comm() {
        // comm = "a) (b c" — spaces and both kinds of parenthesis.
        let line = "4242 (a) (b c) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    7 3 2 1 20 0 1 0 12345 1000000 200 18446744073709551615";
        // (7 + 3 + 2 + 1) ticks at 100 Hz.
        assert_eq!(parse_stat_cpu_us(line), Some(130_000));
        assert_eq!(parse_stat_cpu_us("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_us("no parens at all"), None);
    }

    #[test]
    fn the_clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
