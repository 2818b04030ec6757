//! Table 1 reference data: the paper's rows and each protocol's link.
//!
//! Both tables are parsed out of product source as struct literals —
//! `PaperRow { .. }` from `paper_table1()` in `cbf-core`, `SnowLink
//! { .. }` from the link table behind `cbf_protocols::all_snow_decls()`
//! — so the lint and the runtime audits read the same data. The flow
//! pass ([`crate::flow`]) compares each module's derived tuple with the
//! row its literal `ProtocolNode::NAME` links to.

use crate::lexer::{lex, TokKind, Token};
use crate::report::Finding;
use crate::syntax::block_end;
use std::path::Path;

/// Where the Table 1 exhibit data lives.
pub const PAPER_TABLE_FILE: &str = "crates/core/src/audit.rs";
/// Where the protocol → Table 1 row links live.
pub const LINK_TABLE_FILE: &str = "crates/protocols/src/common/snow.rs";

/// Rule: a link, or a module's `NAME`, leads to no Table 1 row — or a
/// whole table is gone.
pub const RULE_UNKNOWN_ROW: &str = "unknown-paper-row";

/// One parsed `PaperRow { .. }` literal from the Table 1 exhibit data.
#[derive(Clone, Debug, Default)]
pub struct PaperRow {
    /// System name as printed.
    pub system: String,
    /// R bound string (`"1"`, `"≤2"`, `"≥1"`).
    pub r: String,
    /// V bound string.
    pub v: String,
    /// Non-blocking column.
    pub n: bool,
    /// Write-transaction column.
    pub w: bool,
    /// Consistency column.
    pub consistency: String,
}

/// One parsed `SnowLink { .. }` literal.
#[derive(Clone, Debug)]
pub struct Link {
    /// The protocol's `ProtocolNode::NAME`.
    pub system: String,
    /// The Table 1 row it reproduces, if any.
    pub paper_row: Option<String>,
    /// 1-based line of the literal.
    pub line: u32,
}

/// Both tables.
#[derive(Clone, Debug, Default)]
pub struct Table1 {
    /// The paper's rows.
    pub rows: Vec<PaperRow>,
    /// Each protocol's link.
    pub links: Vec<Link>,
}

/// The `(key, value tokens)` fields of one struct literal.
type Fields<'a> = Vec<(&'a str, &'a [Token])>;

/// Every `name { key: value, .. }` literal in the stream: the line of
/// `name` plus its fields.
fn struct_literals<'a>(toks: &'a [Token], name: &str) -> Vec<(u32, Fields<'a>)> {
    let mut found = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].is_ident(name) && toks[i + 1].is_punct("{")) {
            i += 1;
            continue;
        }
        let Some(end) = block_end(toks, i + 1) else {
            break;
        };
        let mut fields = Vec::new();
        let mut j = i + 2;
        while j < end {
            // One field runs to the next depth-0 comma.
            let mut k = j;
            let mut depth = 0i32;
            while k < end && !(depth == 0 && toks[k].is_punct(",")) {
                if toks[k].kind == TokKind::Punct {
                    match toks[k].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        _ => {}
                    }
                }
                k += 1;
            }
            if k > j + 2 && toks[j].kind == TokKind::Ident && toks[j + 1].is_punct(":") {
                fields.push((toks[j].text.as_str(), &toks[j + 2..k]));
            }
            j = k + 1;
        }
        found.push((toks[i].line, fields));
        i = end;
    }
    found
}

/// The first string literal among a field's value tokens.
fn str_in(value: &[Token]) -> Option<String> {
    value
        .iter()
        .find(|t| t.kind == TokKind::Str)
        .map(|t| t.text.clone())
}

impl Table1 {
    /// Parse both tables out of their source texts. The struct
    /// *definitions* match the literal shape too but carry no string
    /// `system`, which is what drops them.
    pub fn parse(paper_src: &str, link_src: &str) -> Self {
        let mut t = Table1::default();
        for (_, fields) in struct_literals(&lex(paper_src).tokens, "PaperRow") {
            let mut row = PaperRow::default();
            for (key, value) in fields {
                let text = str_in(value).unwrap_or_default();
                match key {
                    "system" => row.system = text,
                    "r" => row.r = text,
                    "v" => row.v = text,
                    "consistency" => row.consistency = text,
                    "n" => row.n = value[0].is_ident("true"),
                    "w" => row.w = value[0].is_ident("true"),
                    _ => {}
                }
            }
            if !row.system.is_empty() {
                t.rows.push(row);
            }
        }
        for (line, fields) in struct_literals(&lex(link_src).tokens, "SnowLink") {
            let field = |name: &str| fields.iter().find(|(k, _)| *k == name);
            if let Some(system) = field("system").and_then(|(_, v)| str_in(v)) {
                t.links.push(Link {
                    system,
                    paper_row: field("paper_row").and_then(|(_, v)| str_in(v)),
                    line,
                });
            }
        }
        t
    }

    /// Read both tables from the workspace at `root`. A table that is
    /// missing, empty or dangling is an error finding, never a silent
    /// "nothing to check".
    pub fn load(root: &Path, out: &mut Vec<Finding>) -> Self {
        let read = |file: &str| std::fs::read_to_string(root.join(file)).unwrap_or_default();
        let t = Table1::parse(&read(PAPER_TABLE_FILE), &read(LINK_TABLE_FILE));
        for (empty, file, what) in [
            (t.rows.is_empty(), PAPER_TABLE_FILE, "PaperRow"),
            (t.links.is_empty(), LINK_TABLE_FILE, "SnowLink"),
        ] {
            if empty {
                let why = format!(
                    "no `{what} {{ .. }}` literal could be read from this file — \
                     no protocol can be checked against Table 1"
                );
                out.push(Finding::error(RULE_UNKNOWN_ROW, file, 1, 1, why));
            }
        }
        for l in t.links.iter().filter(|_| !t.rows.is_empty()) {
            if let Some(name) = l.paper_row.as_deref().filter(|n| t.row(n).is_none()) {
                let why = format!(
                    "{:?} links to {name:?}, which has no row in paper_table1() \
                     ({PAPER_TABLE_FILE})",
                    l.system
                );
                out.push(Finding::error(
                    RULE_UNKNOWN_ROW,
                    LINK_TABLE_FILE,
                    l.line,
                    1,
                    why,
                ));
            }
        }
        t
    }

    /// The link row for a protocol's `NAME`.
    pub fn link(&self, system: &str) -> Option<&Link> {
        self.links.iter().find(|l| l.system == system)
    }

    /// The paper row called `name`.
    pub fn row(&self, name: &str) -> Option<&PaperRow> {
        self.rows.iter().find(|r| r.system == name)
    }
}

/// A Table 1 printed bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// `"2"`.
    Exact(u32),
    /// `"≤2"`.
    AtMost(u32),
    /// `"≥1"`.
    AtLeast(u32),
}

impl Bound {
    /// Parse the printed form.
    pub fn parse(s: &str) -> Option<Bound> {
        let s = s.trim();
        if let Some(rest) = s.strip_prefix('≤') {
            return rest.trim().parse().ok().map(Bound::AtMost);
        }
        if let Some(rest) = s.strip_prefix('≥') {
            return rest.trim().parse().ok().map(Bound::AtLeast);
        }
        s.parse().ok().map(Bound::Exact)
    }

    /// Is a derived count (None = unbounded) inside the bound?
    pub fn admits(self, derived: Option<u32>) -> bool {
        match self {
            Bound::Exact(n) => derived == Some(n),
            Bound::AtMost(n) => matches!(derived, Some(d) if (1..=n).contains(&d)),
            Bound::AtLeast(n) => derived.is_none_or(|d| d >= n),
        }
    }

    /// The most the bound allows; `≥n` cannot be overshot.
    pub fn budget(self) -> Option<u32> {
        match self {
            Bound::Exact(n) | Bound::AtMost(n) => Some(n),
            Bound::AtLeast(_) => None,
        }
    }
}

/// Does a `ConsistencyLevel` variant name the level Table 1 prints?
/// Compared through the `Display` text `cbf-model` renders, ignoring
/// case and punctuation.
pub fn consistency_matches(variant: &str, printed: &str) -> bool {
    let display = match variant {
        "ReadAtomicity" => "Read Atomicity",
        "Causal" => "Causal Consistency",
        "SnapshotIsolation" => "Snapshot Isolation",
        "PerClientPSI" => "Per-Client Parallel SI",
        "Serializable" => "Serializability",
        "ProcessOrderedSerializable" => "PO-Serializability",
        "StrictSerializable" => "Strict Serializability",
        _ => return false,
    };
    let normalize = |s: &str| -> String {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect()
    };
    normalize(display) == normalize(printed)
}

/// Does the variant imply causal consistency (the theorem's scope)?
pub fn implies_causal(variant: &str) -> bool {
    matches!(
        variant,
        "Causal"
            | "SnapshotIsolation"
            | "Serializable"
            | "ProcessOrderedSerializable"
            | "StrictSerializable"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_tables_parse_and_skip_their_struct_definitions() {
        let paper = r#"
            pub struct PaperRow { pub system: &'static str, pub r: &'static str }
            PaperRow { system: "COPS", r: "≤2", v: "≤2", n: true, w: false,
                       consistency: "Causal Consistency", dagger: false, },
            PaperRow { system: "Spanner", r: "1", v: "1", n: false, w: true,
                       consistency: "Strict Serializability", dagger: true, },
        "#;
        let links = r#"
            pub struct SnowLink { pub system: &'static str, pub paper_row: Option<&'static str> }
            SnowLink { system: "Spanner-like", paper_row: Some("Spanner") },
            SnowLink { system: "COPS-RW (§3.4)", paper_row: None },
        "#;
        let t = Table1::parse(paper, links);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].r, "≤2");
        assert!(t.rows[1].w && !t.rows[1].n);
        assert_eq!(t.links.len(), 2);
        let spanner = t.link("Spanner-like").expect("link");
        assert_eq!(spanner.paper_row.as_deref(), Some("Spanner"));
        assert_eq!(spanner.line, 3);
        assert!(t.row("Spanner").is_some());
        assert_eq!(t.link("COPS-RW (§3.4)").expect("link").paper_row, None);
    }

    #[test]
    fn bounds_admit_and_budget() {
        let b = |s| Bound::parse(s).expect("bound");
        assert!(b("≤2").admits(Some(2)) && !b("≤2").admits(Some(3)));
        assert!(!b("≤2").admits(Some(0)) && !b("≤2").admits(None));
        assert!(b("1").admits(Some(1)) && !b("1").admits(Some(2)));
        assert!(b("≥1").admits(None) && b("≥1").admits(Some(7)));
        assert_eq!((b("≤2").budget(), b("≥1").budget()), (Some(2), None));
        assert_eq!(Bound::parse("many"), None);
    }

    #[test]
    fn consistency_names_compare_through_their_display_text() {
        assert!(consistency_matches("Causal", "Causal Consistency"));
        assert!(consistency_matches(
            "PerClientPSI",
            "Per Client Parallel SI"
        ));
        assert!(!consistency_matches("Causal", "Read Atomicity"));
        assert!(!consistency_matches("Linearizable", "Linearizable"));
    }
}
