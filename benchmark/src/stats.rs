//! Order statistics and the one-line JSON result format.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0.0..=1.0`) of ascending `sorted`.
/// Above the median a percentile is reported only when at least ten
/// samples lie beyond it — with fewer, the value is one outlier's
/// position, not a property of the distribution.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if p > 0.5 && n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// What one `--workload` run reports: the driver contract's last line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`
    pub fn to_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Parse a line written by [`RunResult::to_line`] (the all-workloads
    /// and `--self-check` modes read their children's last line).
    pub fn parse(line: &str) -> Option<RunResult> {
        let field = |key: &str| -> Option<&str> {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(rest[..rest.find([',', '}'])?].trim())
        };
        let mut result = RunResult {
            correct: field("correct")?.parse().ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics: BTreeMap::new(),
        };
        let body = &line[line.find("\"metrics\": {")? + 12..];
        for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
            let name = entry.split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            let unit = entry.split("\"unit\": \"").nth(1)?;
            result
                .metrics
                .insert(name.to_string(), (value.parse().ok()?, unit.to_string()));
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&v, 0.99), Some(990)); // exactly ten beyond
        assert_eq!(percentile(&v[..999], 0.99), None); // rank 990 of 999: nine beyond
        assert_eq!(percentile(&v, 0.999), None);
        assert_eq!(percentile(&v[..5], 0.5), Some(3)); // the median always reports
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn result_line_round_trips() {
        let mut r = RunResult {
            correct: true,
            attempted: 8192,
            failed: 0,
            metrics: BTreeMap::new(),
        };
        r.metrics
            .insert("setup_s".into(), (0.031_415_926, "s".into()));
        r.metrics.insert(
            "protocols.cops_snow.rot_p99_vus".into(),
            (1140.0, "vus".into()),
        );
        let line = r.to_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 8192, \"failed\": 0"));
        assert_eq!(RunResult::parse(&line), Some(r));
        assert_eq!(RunResult::parse("not a result"), None);
    }
}
