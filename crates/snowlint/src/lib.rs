//! snowlint — the workspace's static determinism-and-properties pass.
//!
//! Three rule families, documented in DESIGN.md:
//!
//! - **Determinism** ([`determinism`]): keep hash-ordered collections,
//!   wall clocks, ambient RNGs, ad-hoc threads and `unsafe` out of the
//!   paths that must replay bit-identically from a seed.
//! - **Robustness** ([`robustness`]): no panicking `.unwrap()` /
//!   `.expect()` in protocol modules — the fault injector makes the
//!   "impossible" arms reachable.
//! - **Message flow** ([`flow`]): snowflow derives each protocol's
//!   `(R, V, N, W)` tuple from what its handlers *do* — a per-module
//!   handler graph ([`graph`]) walked for rounds, value accumulation,
//!   deferrable responses, dead arms and nondeterminism taint — and
//!   checks it against the `paper_table1()` row the module links to
//!   ([`table1`]) and against Theorem 1. Nothing declares the tuple:
//!   the derivation, pinned by `results/LINT_report.json`, is the record.
//!
//! Suppressions are always justified: inline
//! `// snowlint: allow(rule): why` (covers its own and the next line)
//! or a `[[allow]]` entry in the workspace `snowlint.toml`. Unused
//! suppressions are warnings, so the allowlist cannot rot — and entries
//! age: one that is ≥5 PRs older than the current PR (counted from
//! CHANGES.md) without a bumped `since` is an error.
//!
//! Run as `cargo run -p snowlint` (writes `results/LINT_report.json`
//! and `results/FLOW_graph.dot`) or via the `workspace_passes_snowlint`
//! test every crate carries. The per-file scan fans out over
//! [`cbf_par::parallel_map`] (`SNOWBOUND_THREADS=1` runs it serially).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod determinism;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod robustness;
pub mod syntax;
pub mod table1;

use config::Config;
use graph::HandlerGraph;
use report::{Finding, Report, Severity, Suppressed};
use std::path::{Path, PathBuf};

/// Rule: a source file in the scan cannot be read.
pub const RULE_UNREADABLE: &str = "unreadable-file";

/// How many PRs an allowlist entry may ride on one justification
/// before it must be re-audited.
const ALLOW_MAX_AGE: u32 = 5;

/// Directories never scanned (build output, vendored deps, artifacts,
/// the lint's own deliberately-bad fixtures).
const SKIP_DIRS: &[&str] = &["target", "vendor", "results", "node_modules"];

/// Workspace-relative directory prefixes never scanned.
const SKIP_PREFIXES: &[&str] = &["crates/snowlint/fixtures"];

/// The protocols' shared substrate: no SNOW tuple of its own, and no
/// sends, timers or completions outside tests ([`flow::check_common`]).
const PROTOCOL_COMMON: &str = "crates/protocols/src/common/";

/// Is this workspace-relative path a protocol module, whose handlers
/// the flow pass derives a SNOW tuple from?
fn is_protocol_module(rel: &str) -> bool {
    rel.starts_with("crates/protocols/src/")
        && rel.ends_with(".rs")
        && rel != "crates/protocols/src/lib.rs"
        && !rel.starts_with(PROTOCOL_COMMON)
}

/// Walk up from `CARGO_MANIFEST_DIR` (or the current directory) to the
/// first `Cargo.toml` containing a `[workspace]` table.
pub fn find_workspace_root() -> Option<PathBuf> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())?;
    let mut dir = start.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        dir = dir.parent()?;
    }
}

/// Collect every first-party `.rs` file under `root`, sorted, as
/// workspace-relative `/`-separated paths.
fn collect_rs_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let rel = path
                .strip_prefix(root)
                .map(|p| p.to_string_lossy().replace('\\', "/"))
                .unwrap_or_default();
            if path.is_dir() {
                if name.starts_with('.')
                    || SKIP_DIRS.contains(&name.as_ref())
                    || SKIP_PREFIXES.iter().any(|p| rel == *p)
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    out
}

/// The PR being built: one past the last PR recorded in CHANGES.md.
/// Drives allowlist-entry aging.
pub fn current_pr(root: &Path) -> u32 {
    let changes = std::fs::read_to_string(root.join("CHANGES.md")).unwrap_or_default();
    last_landed_pr(&changes) + 1
}

/// The largest `n` among lines starting `PR <n>`. Not a line count: a PR
/// that left no line (a re-anchor, one that never landed) or shares a
/// line with its predecessor must not slow the clock.
fn last_landed_pr(changes: &str) -> u32 {
    changes
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("PR ")?;
            let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
            digits.parse::<u32>().ok()
        })
        .max()
        .unwrap_or(0)
}

/// An allowlist-hygiene warning.
fn hygiene(path: &str, line: u32, message: String) -> Finding {
    Finding {
        severity: Severity::Warning,
        ..Finding::error("allowlist", path, line, 1, message)
    }
}

/// Knobs for [`check_workspace_with`].
#[derive(Clone, Debug, Default)]
pub struct CheckOptions {
    /// Scan only these workspace-relative files (from
    /// `git diff --name-only`). When set, unused-suppression hygiene is
    /// skipped — an entry's user may simply not be in the changed set.
    pub only_files: Option<Vec<String>>,
}

/// Run the whole pass over the workspace at `root`.
pub fn check_workspace(root: &Path) -> Report {
    check_workspace_with(root, &CheckOptions::default())
}

/// What scanning one file produces; folded into the report in path
/// order so the parallel fan-out stays deterministic.
struct FileScan {
    rel: String,
    findings: Vec<Finding>,
    allows: Vec<lexer::Annotation>,
    flow: Option<HandlerGraph>,
    is_protocol: bool,
}

/// Run the whole pass over the workspace at `root` with options.
pub fn check_workspace_with(root: &Path, opts: &CheckOptions) -> Report {
    let mut report = Report::default();
    let mut raw: Vec<Finding> = Vec::new();

    // Allowlist.
    let cfg_path = root.join("snowlint.toml");
    let cfg = match std::fs::read_to_string(&cfg_path) {
        Ok(text) => Config::parse(&text),
        Err(_) => Config::default(),
    };
    for (line, problem) in &cfg.problems {
        report
            .warnings
            .push(hygiene("snowlint.toml", *line, problem.clone()));
    }

    // Table 1 reference data — read on every run, changed-only or not:
    // a table that vanished must fail the run, not switch the checks off.
    let table = table1::Table1::load(root, &mut raw);

    // Scan, fanning per-file work out over cbf-par; results come back in
    // file order.
    let mut files = collect_rs_files(root);
    if let Some(only) = &opts.only_files {
        files.retain(|rel| only.iter().any(|o| o == rel));
    }
    let scans: Vec<FileScan> = cbf_par::parallel_map(files, |rel| {
        let mut findings = Vec::new();
        let mut scan = FileScan {
            rel: rel.clone(),
            findings: Vec::new(),
            allows: Vec::new(),
            flow: None,
            is_protocol: false,
        };
        let src = match std::fs::read_to_string(root.join(&rel)) {
            Ok(src) => src,
            Err(e) => {
                let why = format!("cannot read source file, nothing in it was checked: {e}");
                scan.findings
                    .push(Finding::error(RULE_UNREADABLE, &rel, 1, 1, why));
                return scan;
            }
        };
        let lx = lexer::lex(&src);
        determinism::check(&rel, &lx, &mut findings);
        if is_protocol_module(&rel) {
            robustness::check_protocol(&rel, &lx, &mut findings);
            scan.flow = flow::check_protocol(&rel, &lx, &table, &mut findings);
            scan.is_protocol = true;
        } else if rel.starts_with(PROTOCOL_COMMON) {
            flow::check_common(&rel, &lx, &mut findings);
        }
        scan.findings = findings;
        scan.allows = lx.allows;
        scan
    });

    let mut annos: Vec<(String, lexer::Annotation, bool)> = Vec::new();
    for scan in scans {
        report.files_scanned += 1;
        if scan.is_protocol {
            report.protocols_checked += 1;
        }
        raw.extend(scan.findings);
        report.flows.extend(scan.flow);
        for a in scan.allows {
            annos.push((scan.rel.clone(), a, false));
        }
    }
    report.flows.sort_by(|a, b| a.system.cmp(&b.system));

    // Apply suppressions: inline annotations first (own line + next
    // line), then allowlist entries.
    let mut cfg_used = vec![false; cfg.allows.len()];
    for f in raw {
        let inline = annos.iter_mut().find(|(path, a, _)| {
            *path == f.path && a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line)
        });
        if let Some((_, a, used)) = inline {
            *used = true;
            report.suppressed.push(Suppressed {
                finding: f,
                justification: a.justification.clone(),
            });
            continue;
        }
        let entry = cfg
            .allows
            .iter()
            .enumerate()
            .find(|(_, e)| e.covers(&f.rule, &f.path));
        if let Some((idx, e)) = entry {
            cfg_used[idx] = true;
            report.suppressed.push(Suppressed {
                finding: f,
                justification: e.justification.clone(),
            });
            continue;
        }
        report.errors.push(f);
    }

    // A suppression nobody needs is a warning: the allowlist must not
    // rot. Skipped under --changed-only, where "nobody needs" may just
    // mean "its user was not in the changed set".
    let full_scan = opts.only_files.is_none();
    for (path, a, used) in &annos {
        if !used && full_scan {
            report.warnings.push(hygiene(
                path,
                a.line,
                format!(
                    "unused inline allow({}) — nothing fires here anymore",
                    a.rule
                ),
            ));
        } else if *used && a.justification.is_empty() {
            report.warnings.push(hygiene(
                path,
                a.line,
                format!("inline allow({}) has no justification", a.rule),
            ));
        }
    }
    let pr = current_pr(root);
    for (idx, e) in cfg.allows.iter().enumerate() {
        let toml = "snowlint.toml";
        let entry = format!("[[allow]] for {} on {}", e.rule, e.path);
        if !cfg_used[idx] && full_scan {
            report
                .warnings
                .push(hygiene(toml, e.line, format!("unused {entry} — remove it")));
        }
        // Aging: a justification is an audit, not a grant in perpetuity.
        match e.since {
            None => report.warnings.push(hygiene(
                toml,
                e.line,
                format!(
                    "{entry} has no since field — add the PR number its justification \
                     was audited in"
                ),
            )),
            Some(since) if pr.saturating_sub(since) >= ALLOW_MAX_AGE => {
                let age = pr - since;
                let why = format!("{entry} is {age} PRs old (since PR {since}, now PR {pr})");
                let help = "re-audit the suppression: bump since after confirming the \
                            justification still holds, or remove the entry";
                let stale = Finding::error("allowlist", toml, e.line, 1, why);
                report.errors.push(stale.with_help(help.into()));
            }
            Some(_) => {}
        }
    }

    let key = |f: &Finding| (f.path.clone(), f.line, f.col, f.rule.clone());
    report.errors.sort_by_key(key);
    report.warnings.sort_by_key(key);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_module_classification() {
        assert!(is_protocol_module("crates/protocols/src/cops.rs"));
        assert!(is_protocol_module("crates/protocols/src/cops_snow.rs"));
        assert!(!is_protocol_module("crates/protocols/src/lib.rs"));
        assert!(!is_protocol_module("crates/protocols/src/common/api.rs"));
        assert!(!is_protocol_module("crates/model/src/checker.rs"));
    }

    #[test]
    fn pr_clock_reads_the_largest_prefix_not_the_line_count() {
        assert_eq!(last_landed_pr(""), 0);
        // Gaps: PRs 3 and 4 left no line; a blank line is not a PR.
        assert_eq!(last_landed_pr("PR 1: a\nPR 2: b\n\nPR 5 (c): d\n"), 5);
        // Glued: PR 3's entry sits on PR 2's line, so no line starts with
        // it — the next PR's own line still puts the clock right, and a
        // mention of a later PR inside an entry does not advance it.
        assert_eq!(
            last_landed_pr("PR 1: a\nPR 2: b ‖ PR 3: c\nPR 4: d, see PR 9\n"),
            4
        );
        // Two digits beat one: numeric, not lexicographic.
        assert_eq!(last_landed_pr("PR 9: a\nPR 13: b\nPR 12: c\n"), 13);
    }

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let root = find_workspace_root().expect("workspace root");
        assert!(root.join("crates/snowlint/Cargo.toml").exists());
        assert!(root.join(table1::PAPER_TABLE_FILE).exists());
        assert!(root.join(table1::LINK_TABLE_FILE).exists());
    }
}
