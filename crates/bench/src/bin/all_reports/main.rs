//! Regenerates the whole evaluation in one process: every paper table
//! and figure, the security analysis, case studies and ablations, the
//! observability report, and the deterministic benches (`hotpath`,
//! `pipeline`, `adaptive`, `restart`), each a section under a `# name`
//! banner. Everything printed is virtual time, so the output is
//! committed as `REPORTS.txt` and must not move a byte.
//!
//! ```text
//! cargo run --release -p freepart-bench --bin all_reports               # every section
//! cargo run --release -p freepart-bench --bin all_reports -- table9 fig13
//! ```
//!
//! A section that panics (a missed bar, a failed invariant) is named on
//! stderr; the remaining sections still run, and the exit code is 1. An
//! unknown section name exits 2.

mod ablations;
mod adaptive;
mod figures;
mod hotpath;
mod pipeline;
mod report;
mod restart;
mod security;
mod tables;

use std::io::Write;
use std::process::ExitCode;

/// A section: its banner name and the code that prints it.
type Section = (&'static str, fn());

/// Every section, in `REPORTS.txt` order.
const SECTIONS: &[Section] = &[
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("table6", tables::table6),
    ("table7", tables::table7),
    ("table8", tables::table8),
    ("table9", tables::table9),
    ("table10", tables::table10),
    ("table11", tables::table11),
    ("table12", tables::table12),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig13", figures::fig13),
    ("security_analysis", security::security_analysis),
    ("case_studies", security::case_studies),
    ("ablations", ablations::run),
    ("freepart-report", report::run),
    ("hotpath", hotpath::run),
    ("pipeline", pipeline::run),
    ("adaptive", adaptive::run),
    ("restart", restart::run),
];

fn main() -> ExitCode {
    let picked: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(SECTIONS, &picked, &mut std::io::stdout()))
}

/// The `picked` sections in the order named, or every section when none
/// is. An unknown name is an error that lists the valid ones.
fn pick(sections: &[Section], picked: &[String]) -> Result<Vec<Section>, String> {
    if picked.is_empty() {
        return Ok(sections.to_vec());
    }
    let find = |name: &String| sections.iter().find(|(n, _)| n == name).copied();
    picked
        .iter()
        .map(find)
        .collect::<Option<_>>()
        .ok_or_else(|| {
            let names: Vec<&str> = sections.iter().map(|(n, _)| *n).collect();
            format!("unknown section in {picked:?}; valid: {}", names.join(" "))
        })
}

/// Runs the [`pick`]ed sections, each under its banner on `out`, and
/// returns the exit code: 0, 1 when a section panicked, 2 when a name is
/// unknown (then nothing runs).
fn run(sections: &[Section], picked: &[String], out: &mut dyn Write) -> u8 {
    let chosen = match pick(sections, picked) {
        Ok(chosen) => chosen,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let bar = "#".repeat(56);
    let mut failed = Vec::new();
    for (name, section) in chosen {
        writeln!(out, "\n{bar}\n# {name}\n{bar}").expect("write banner");
        if std::panic::catch_unwind(section).is_err() {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        writeln!(out, "\nAll reports regenerated successfully.").expect("write footer");
        0
    } else {
        eprintln!("\nFAILED reports: {failed:?}");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    thread_local! {
        /// Everything the runner and the test sections wrote, in order.
        static LOG: RefCell<String> = const { RefCell::new(String::new()) };
    }

    fn log(s: &str) {
        LOG.with(|l| l.borrow_mut().push_str(s));
    }

    /// Banners land in the same log as the sections' own output.
    struct Log;

    impl Write for Log {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            log(std::str::from_utf8(buf).expect("utf-8"));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    const TEST_SECTIONS: &[Section] = &[
        ("a", || log("ran a\n")),
        ("boom", || panic!("injected failure")),
        ("b", || log("ran b\n")),
    ];

    fn banner(name: &str) -> String {
        let bar = "#".repeat(56);
        format!("\n{bar}\n# {name}\n{bar}\n")
    }

    fn run_logged(picked: &[&str]) -> (u8, String) {
        let picked: Vec<String> = picked.iter().map(|s| s.to_string()).collect();
        let code = run(TEST_SECTIONS, &picked, &mut Log);
        (code, LOG.with(|l| l.take()))
    }

    #[test]
    fn default_sections_are_the_committed_report_banners() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPORTS.txt");
        let committed = std::fs::read_to_string(path).expect("REPORTS.txt is committed");
        let banners: Vec<&str> = committed
            .lines()
            .filter_map(|l| l.strip_prefix("# "))
            .collect();
        let names: Vec<&str> = SECTIONS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, banners);
    }

    #[test]
    fn a_named_subset_runs_only_those_sections_under_their_banners() {
        let (code, out) = run_logged(&["b", "a"]);
        assert_eq!(code, 0);
        let want = format!(
            "{}ran b\n{}ran a\n\nAll reports regenerated successfully.\n",
            banner("b"),
            banner("a")
        );
        assert_eq!(out, want);
    }

    #[test]
    fn an_unknown_name_exits_2_and_lists_the_valid_names() {
        let (code, out) = run_logged(&["a", "table99"]);
        assert_eq!(code, 2);
        assert_eq!(out, "", "nothing runs when a name is unknown");
        let err = pick(TEST_SECTIONS, &["table99".to_owned()]).unwrap_err();
        assert!(
            err.contains("table99") && err.ends_with("valid: a boom b"),
            "{err}"
        );
    }

    #[test]
    fn a_panicking_section_fails_the_run_but_not_the_others() {
        let (code, out) = run_logged(&[]);
        assert_eq!(code, 1);
        let want = format!(
            "{}ran a\n{}{}ran b\n",
            banner("a"),
            banner("boom"),
            banner("b")
        );
        assert_eq!(out, want);
    }
}
