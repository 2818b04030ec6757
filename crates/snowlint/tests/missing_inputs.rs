//! A vanished reference table or an unreadable source file must fail
//! the run — never quietly check nothing. Each case builds a small
//! tree under the test tmpdir and lints it through `--root`.

use snowlint::table1::{LINK_TABLE_FILE, PAPER_TABLE_FILE, RULE_UNKNOWN_ROW};
use snowlint::{check_workspace_with, CheckOptions, RULE_UNREADABLE};
use std::path::PathBuf;
use std::process::Command;

const PAPER: &str = r#"PaperRow { system: "COPS", r: "≤2", v: "≤2", n: true, w: false,
    consistency: "Causal Consistency", dagger: false }"#;
const LINKS: &str = r#"SnowLink { system: "COPS", paper_row: Some("COPS") }"#;

/// A fresh tree holding `files`; `None` contents write invalid UTF-8.
fn tree(name: &str, files: &[(&str, Option<&str>)]) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, text.map_or(&[0xff, 0xfe][..], str::as_bytes)).expect("write");
    }
    root
}

/// Lint `root` through the binary; the (rule, path) of every error.
fn lint(root: &PathBuf) -> Vec<(String, String)> {
    let report = check_workspace_with(root, &CheckOptions::default());
    let status = Command::new(env!("CARGO_BIN_EXE_snowlint"))
        .args(["--no-report", "--root"])
        .arg(root)
        .status()
        .expect("run snowlint");
    assert_eq!(status.code(), Some(i32::from(!report.is_clean())));
    let key = |f: &snowlint::report::Finding| (f.rule.clone(), f.path.clone());
    report.errors.iter().map(key).collect()
}

#[test]
fn intact_tables_and_readable_sources_are_clean() {
    let root = tree(
        "intact",
        &[
            (PAPER_TABLE_FILE, Some(PAPER)),
            (LINK_TABLE_FILE, Some(LINKS)),
        ],
    );
    assert_eq!(lint(&root), vec![]);
}

#[test]
fn a_vanished_or_emptied_table_is_an_error() {
    let src = ("src/x.rs", Some("fn x() {}"));
    let unknown = |file: &str| (RULE_UNKNOWN_ROW.to_string(), file.to_string());

    let root = tree("no-tables", &[src]);
    assert_eq!(
        lint(&root),
        vec![unknown(PAPER_TABLE_FILE), unknown(LINK_TABLE_FILE)]
    );
    // --changed-only narrows the scan, not the reference data.
    let only = CheckOptions {
        only_files: Some(vec!["src/x.rs".into()]),
    };
    assert_eq!(check_workspace_with(&root, &only).errors.len(), 2);

    let moved = "pub fn paper_table1() {}";
    let root = tree(
        "no-rows",
        &[
            src,
            (PAPER_TABLE_FILE, Some(moved)),
            (LINK_TABLE_FILE, Some(LINKS)),
        ],
    );
    assert_eq!(lint(&root), vec![unknown(PAPER_TABLE_FILE)]);

    let root = tree(
        "no-links",
        &[
            src,
            (PAPER_TABLE_FILE, Some(PAPER)),
            (LINK_TABLE_FILE, Some("")),
        ],
    );
    assert_eq!(lint(&root), vec![unknown(LINK_TABLE_FILE)]);

    let dangling = r#"SnowLink { system: "COPS", paper_row: Some("COPS-GT") }"#;
    let root = tree(
        "dangling-link",
        &[
            (PAPER_TABLE_FILE, Some(PAPER)),
            (LINK_TABLE_FILE, Some(dangling)),
        ],
    );
    assert_eq!(lint(&root), vec![unknown(LINK_TABLE_FILE)]);
}

#[test]
fn an_unreadable_source_file_is_an_error() {
    let root = tree(
        "unreadable",
        &[
            (PAPER_TABLE_FILE, Some(PAPER)),
            (LINK_TABLE_FILE, Some(LINKS)),
            ("src/binary.rs", None),
        ],
    );
    assert_eq!(
        lint(&root),
        vec![(RULE_UNREADABLE.to_string(), "src/binary.rs".to_string())]
    );
}
