//! Per-crate line budget: the `src/` tree of every workspace crate
//! (all `.rs` files, comments and unit tests included) must stay within
//! its cap. Caps only ratchet down: a change that deletes code lowers a
//! cap to the new total rounded up to the next 100, and a change that
//! needs more room raises it here, where review sees it.

use std::fs;
use std::path::{Path, PathBuf};

/// `(source tree relative to the workspace root, line cap)`.
const BUDGETS: &[(&str, usize)] = &[
    ("src", 100),
    ("crates/analysis/src", 1_600),
    ("crates/apps/src", 3_800),
    ("crates/attacks/src", 900),
    ("crates/baselines/src", 900),
    ("crates/bench/src", 6_800),
    ("crates/core/src", 7_600),
    ("crates/frameworks/src", 5_600),
    ("crates/simos/src", 7_300),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Lines of Rust under `dir`, recursively. Build output (a `target`
/// directory left by a nested package) is not source.
fn rust_lines(dir: &Path) -> usize {
    let mut total = 0;
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                total += rust_lines(&path);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).expect("readable source");
            total += text.lines().count();
        }
    }
    total
}

#[test]
fn every_crate_stays_within_its_line_budget() {
    for (tree, cap) in BUDGETS {
        let lines = rust_lines(&root().join(tree));
        assert!(
            lines <= *cap,
            "{tree} is {lines} lines, over its {cap}-line budget"
        );
    }
}

#[test]
fn every_crate_has_a_budget() {
    for entry in fs::read_dir(root().join("crates")).expect("crates/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.join("src").is_dir() {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let tree = format!("crates/{name}/src");
            assert!(
                BUDGETS.iter().any(|(t, _)| *t == tree),
                "{tree} has no line budget"
            );
        }
    }
}
