//! Purity guard for the pure kernel core.
//!
//! `crates/simos/src/core/` is the verification target of simos: a
//! state machine with no I/O, no ambient clock, and no external
//! entropy. This test keeps it honest by
//! scanning the core sources for any reference to the standard
//! library's time, filesystem, or network facilities, any entropy
//! crate, or ambient-clock types — and by holding each core file to a
//! per-file line budget so the core stays reviewable.

use std::fs;
use std::path::PathBuf;

/// Substrings that must never appear in core sources (comments
/// included — the ban is textual on purpose, so even a doc comment
/// can't normalize reaching for these).
const BANNED_SUBSTRINGS: &[&str] = &["std::time", "std::fs", "std::net", "Instant", "SystemTime"];

/// Banned as a whole word only ("Getrandom", the syscall name, is
/// fine; the entropy crate and its traits are not).
const BANNED_WORDS: &[&str] = &["rand"];

/// Per-file line budget: the core must stay small enough to audit.
const MAX_LINES_PER_FILE: usize = 700;

fn core_sources() -> Vec<(PathBuf, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src/core");
    let mut out = Vec::new();
    for entry in fs::read_dir(&dir).expect("src/core must exist") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).expect("readable core source");
            out.push((path, text));
        }
    }
    assert!(
        out.len() >= 4,
        "expected the core modules (mod, state, step, dispatch, digest), found {}",
        out.len()
    );
    out
}

fn is_word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// True when `word` occurs in `text` delimited by non-word characters
/// on both sides (i.e. a `\b`-bounded match).
fn contains_word(text: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = text[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !text[..at].chars().next_back().is_some_and(is_word_char);
        let end = at + word.len();
        let after_ok = !text[end..].chars().next().is_some_and(is_word_char);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

#[test]
fn core_has_no_io_clock_or_entropy() {
    for (path, text) in core_sources() {
        for banned in BANNED_SUBSTRINGS {
            assert!(
                !text.contains(banned),
                "{} references banned facility `{banned}`",
                path.display()
            );
        }
        for banned in BANNED_WORDS {
            assert!(
                !contains_word(&text, banned),
                "{} references banned word `{banned}`",
                path.display()
            );
        }
    }
}

#[test]
fn core_files_stay_within_line_budget() {
    for (path, text) in core_sources() {
        let lines = text.lines().count();
        assert!(
            lines < MAX_LINES_PER_FILE,
            "{} is {lines} lines; core files must stay under {MAX_LINES_PER_FILE}",
            path.display()
        );
    }
}

#[test]
fn word_boundary_matcher_is_sound() {
    assert!(contains_word("use rand::Rng;", "rand"));
    assert!(contains_word("rand", "rand"));
    assert!(contains_word("a rand b", "rand"));
    assert!(!contains_word("Getrandom { len }", "rand"));
    assert!(!contains_word("operand", "rand"));
    assert!(!contains_word("randomized", "rand"));
}
