//! The `snowlint.toml` allowlist: file- or directory-scoped suppressions,
//! each with a mandatory justification. Parsed with a tiny TOML subset
//! reader (tables of `[[allow]]` with `key = "value"` pairs) so the crate
//! stays dependency-free.

/// One allowlist entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Rule this entry silences.
    pub rule: String,
    /// Workspace-relative file path, or a directory prefix ending in `/`.
    pub path: String,
    /// Why the suppression is sound. Mandatory.
    pub justification: String,
    /// PR number the justification was last audited in. Entries age:
    /// once `current_pr - since >= 5` the entry must be re-justified
    /// (bump `since`) or removed.
    pub since: Option<u32>,
    /// Line in `snowlint.toml` (for diagnostics).
    pub line: u32,
}

impl AllowEntry {
    /// Does this entry cover `(rule, path)`?
    pub fn covers(&self, rule: &str, path: &str) -> bool {
        self.rule == rule
            && (self.path == path || (self.path.ends_with('/') && path.starts_with(&self.path)))
    }
}

/// Parsed allowlist configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// The `[[allow]]` entries, in file order.
    pub allows: Vec<AllowEntry>,
    /// Parse problems (reported as lint warnings).
    pub problems: Vec<(u32, String)>,
}

impl Config {
    /// Parse `snowlint.toml` content.
    pub fn parse(src: &str) -> Config {
        let mut cfg = Config::default();
        let mut current: Option<AllowEntry> = None;
        for (idx, raw) in src.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(e) = current.take() {
                    cfg.finish(e);
                }
                current = Some(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    justification: String::new(),
                    since: None,
                    line: line_no,
                });
                continue;
            }
            if line.starts_with('[') {
                cfg.problems
                    .push((line_no, format!("unknown table {line}")));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                cfg.problems
                    .push((line_no, format!("unparseable line: {line}")));
                continue;
            };
            let key = key.trim();
            let value = value.trim();
            let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                cfg.problems
                    .push((line_no, format!("{key}: expected a quoted string")));
                continue;
            };
            let Some(entry) = current.as_mut() else {
                cfg.problems
                    .push((line_no, format!("{key} outside any [[allow]] table")));
                continue;
            };
            match key {
                "rule" => entry.rule = value.to_string(),
                "path" => entry.path = value.to_string(),
                "justification" => entry.justification = value.to_string(),
                "since" => match value.parse::<u32>() {
                    Ok(pr) => entry.since = Some(pr),
                    Err(_) => cfg
                        .problems
                        .push((line_no, format!("since: expected a PR number, got {value}"))),
                },
                other => cfg.problems.push((line_no, format!("unknown key {other}"))),
            }
        }
        if let Some(e) = current.take() {
            cfg.finish(e);
        }
        cfg
    }

    fn finish(&mut self, e: AllowEntry) {
        if e.rule.is_empty() || e.path.is_empty() {
            self.problems
                .push((e.line, "[[allow]] needs both rule and path".to_string()));
        } else if e.justification.is_empty() {
            self.problems.push((
                e.line,
                format!(
                    "[[allow]] for {} on {} has no justification",
                    e.rule, e.path
                ),
            ));
        } else {
            self.allows.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_flags_problems() {
        let cfg = Config::parse(
            "# comment\n\
             [[allow]]\n\
             rule = \"wall-clock\"\n\
             path = \"crates/bench/src/scale.rs\"\n\
             justification = \"measures real time\"\n\
             since = \"2\"\n\
             [[allow]]\n\
             rule = \"x\"\n\
             path = \"y\"\n",
        );
        assert_eq!(cfg.allows.len(), 1);
        assert!(cfg.allows[0].covers("wall-clock", "crates/bench/src/scale.rs"));
        assert!(!cfg.allows[0].covers("wall-clock", "crates/bench/src/lib.rs"));
        assert_eq!(cfg.allows[0].since, Some(2));
        assert_eq!(cfg.problems.len(), 1, "missing justification flagged");
    }

    #[test]
    fn bad_since_is_a_problem() {
        let cfg = Config::parse(
            "[[allow]]\n\
             rule = \"r\"\n\
             path = \"p\"\n\
             justification = \"j\"\n\
             since = \"soon\"\n",
        );
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].since, None);
        assert_eq!(cfg.problems.len(), 1);
        assert!(cfg.problems[0].1.contains("since"));
    }

    #[test]
    fn directory_prefix_covers_subtree() {
        let e = AllowEntry {
            rule: "r".into(),
            path: "crates/sim/".into(),
            justification: "j".into(),
            since: None,
            line: 1,
        };
        assert!(e.covers("r", "crates/sim/src/world.rs"));
        assert!(!e.covers("r", "crates/model/src/x.rs"));
    }
}
