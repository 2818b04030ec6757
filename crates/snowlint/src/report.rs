//! Findings, rustc-style rendering, and the `LINT_report.json` artifact.

use crate::graph::HandlerGraph;
use std::fmt::Write as _;

/// Stable rule-ID registry for the v2 report schema. Codes are
/// append-only: a rule may be retired but its code is never reused, so
/// downstream tooling can key on `code` across releases even if a rule
/// is renamed.
pub const RULE_CODES: &[(&str, &str)] = &[
    ("hash-collections", "SL001"),
    ("wall-clock", "SL002"),
    ("ad-hoc-threads", "SL003"),
    ("unsafe-block", "SL004"),
    ("missing-unsafe-guard", "SL005"),
    ("handler-unwrap", "SL010"),
    // SL020–SL026, SL028, SL029 are retired with the declared tuple
    // they checked (missing-/duplicate-/malformed-snow-decl,
    // unknown-msg-variant, request-set-mismatch, value-reply-mismatch,
    // decl-const-mismatch, paper-mismatch, impossible-claim).
    ("unknown-paper-row", "SL027"),
    ("flow-rounds", "SL030"),
    ("flow-values", "SL031"),
    ("flow-blocking", "SL032"),
    ("flow-paper", "SL033"),
    ("flow-impossible", "SL034"),
    ("flow-dead-arm", "SL035"),
    ("flow-taint", "SL036"),
    ("flow-hint", "SL037"),
    ("flow-requests", "SL038"),
    ("flow-common-effect", "SL039"),
    ("allowlist", "SL090"),
    ("unreadable-file", "SL091"),
];

/// The stable code for a rule name (`SL999` for rules not in the
/// registry — which the registry test treats as a bug).
pub fn rule_code(rule: &str) -> &'static str {
    RULE_CODES
        .iter()
        .find(|(r, _)| *r == rule)
        .map(|(_, c)| *c)
        .unwrap_or("SL999")
}

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// A rule violation; fails the lint.
    Error,
    /// Lint hygiene (unused allowlist entries, missing justifications);
    /// fails only under `--deny-warnings`.
    Warning,
}

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule name, e.g. `hash-collections`.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix or suppress it (optional).
    pub help: Option<String>,
    /// Severity class.
    pub severity: Severity,
}

impl Finding {
    /// Shorthand for an error finding.
    pub fn error(rule: &str, path: &str, line: u32, col: u32, message: String) -> Self {
        Finding {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            col,
            message,
            help: None,
            severity: Severity::Error,
        }
    }

    /// Attach a help line.
    pub fn with_help(mut self, help: String) -> Self {
        self.help = Some(help);
        self
    }

    /// Render one diagnostic in rustc's two-line format.
    pub fn render(&self) -> String {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let mut out = format!(
            "{sev}[{rule}]: {msg}\n  --> {path}:{line}:{col}\n",
            rule = self.rule,
            msg = self.message,
            path = self.path,
            line = self.line,
            col = self.col,
        );
        if let Some(h) = &self.help {
            let _ = writeln!(out, "  = help: {h}");
        }
        out
    }
}

/// A finding that an allowlist entry or inline annotation silenced.
#[derive(Clone, Debug)]
pub struct Suppressed {
    /// The silenced finding.
    pub finding: Finding,
    /// The justification string of the suppression that matched.
    pub justification: String,
}

/// The outcome of a whole-workspace lint run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Active errors.
    pub errors: Vec<Finding>,
    /// Active warnings.
    pub warnings: Vec<Finding>,
    /// Findings silenced by a documented suppression.
    pub suppressed: Vec<Suppressed>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of protocol modules the flow pass ran over.
    pub protocols_checked: usize,
    /// Handler graphs the flow pass derived, one per protocol module.
    pub flows: Vec<HandlerGraph>,
}

impl Report {
    /// No errors (warnings allowed)?
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// How many `// snowflow:` hints the derivations consumed — the
    /// static pass's soundness debt.
    pub fn flow_hints(&self) -> usize {
        self.flows.iter().map(|g| g.hints.len()).sum()
    }

    /// Human-readable report: every diagnostic plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in self.errors.iter().chain(&self.warnings) {
            out.push_str(&f.render());
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "snowlint: {} files, {} protocol modules checked, \
             {} handler graph(s) derived: \
             {} error(s), {} warning(s), {} suppressed",
            self.files_scanned,
            self.protocols_checked,
            self.flows.len(),
            self.errors.len(),
            self.warnings.len(),
            self.suppressed.len()
        );
        out
    }

    /// The `results/LINT_report.json` artifact, schema v2 (documented
    /// in EXPERIMENTS.md): stable `code` IDs on every finding, the
    /// per-protocol derived SNOW tuples under `protocols`, and the
    /// number of `// snowflow:` hints they lean on as `flow_hints`.
    pub fn to_json(&self) -> String {
        fn finding_json(f: &Finding, extra: Option<&str>) -> String {
            let sev = match f.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            let mut s = format!(
                "{{\"code\":{},\"rule\":{},\"severity\":{},\"path\":{},\
                 \"line\":{},\"col\":{},\"message\":{}",
                json_str(rule_code(&f.rule)),
                json_str(&f.rule),
                json_str(sev),
                json_str(&f.path),
                f.line,
                f.col,
                json_str(&f.message)
            );
            if let Some(h) = &f.help {
                let _ = write!(s, ",\"help\":{}", json_str(h));
            }
            if let Some(j) = extra {
                let _ = write!(s, ",\"justification\":{}", json_str(j));
            }
            s.push('}');
            s
        }
        let errors: Vec<String> = self.errors.iter().map(|f| finding_json(f, None)).collect();
        let warnings: Vec<String> = self
            .warnings
            .iter()
            .map(|f| finding_json(f, None))
            .collect();
        let suppressed: Vec<String> = self
            .suppressed
            .iter()
            .map(|s| finding_json(&s.finding, Some(&s.justification)))
            .collect();
        let protocols: Vec<String> = self.flows.iter().map(|g| g.to_json()).collect();
        format!(
            "{{\n  \"schema\": \"snowlint/2\",\n  \"schema_version\": 2,\n  \
             \"files_scanned\": {},\n  \
             \"protocols_checked\": {},\n  \"flow_hints\": {},\n  \
             \"errors\": [{}],\n  \
             \"warnings\": [{}],\n  \"suppressed\": [{}],\n  \
             \"protocols\": [{}]\n}}\n",
            self.files_scanned,
            self.protocols_checked,
            self.flow_hints(),
            errors.join(","),
            warnings.join(","),
            suppressed.join(","),
            protocols.join(",")
        )
    }
}

/// Minimal JSON string escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_rustc_shaped() {
        let f = Finding::error(
            "hash-collections",
            "crates/model/src/x.rs",
            7,
            3,
            "bad".into(),
        )
        .with_help("use BTreeMap".into());
        let r = f.render();
        assert!(r.starts_with("error[hash-collections]: bad"));
        assert!(r.contains("--> crates/model/src/x.rs:7:3"));
        assert!(r.contains("= help: use BTreeMap"));
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn report_json_parses_shape() {
        let mut rep = Report::default();
        rep.errors
            .push(Finding::error("flow-rounds", "p", 1, 1, "m".into()));
        let j = rep.to_json();
        assert!(j.contains("\"schema\": \"snowlint/2\""));
        assert!(j.contains("\"schema_version\": 2"));
        assert!(j.contains("\"rule\":\"flow-rounds\""));
        assert!(j.contains("\"code\":\"SL030\""));
        assert!(j.contains("\"severity\":\"error\""));
        assert!(j.contains("\"flow_hints\": 0"));
        assert!(j.contains("\"protocols\": []"));
    }

    #[test]
    fn rule_codes_are_unique_and_resolve() {
        let mut seen = std::collections::BTreeSet::new();
        for (rule, code) in RULE_CODES {
            assert!(seen.insert(code), "duplicate code {code}");
            assert_eq!(rule_code(rule), *code);
        }
        assert_eq!(rule_code("no-such-rule"), "SL999");
    }
}
