//! Runs every table/figure report binary in sequence — the one-shot
//! "regenerate the whole evaluation" entry point.

use std::process::Command;

fn main() {
    let bins = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "table8",
        "table9",
        "table10",
        "table11",
        "table12",
        "fig3",
        "fig4",
        "fig6",
        "fig7",
        "fig13",
        "security_analysis",
        "case_studies",
        "ablations",
        "freepart-report",
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failed = Vec::new();
    for bin in bins {
        println!("\n########################################################");
        println!("# {bin}");
        println!("########################################################");
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        if !status.success() {
            failed.push(bin);
        }
    }
    if failed.is_empty() {
        println!("\nAll reports regenerated successfully.");
    } else {
        eprintln!("\nFAILED reports: {failed:?}");
        std::process::exit(1);
    }
}
