//! # freepart-bench — the evaluation harness
//!
//! The [`experiments`] runners behind one report binary, `all_reports`,
//! whose sections regenerate every table and figure of the paper (see
//! DESIGN.md's experiment index) plus the deterministic benches
//! (`hotpath`, `pipeline`, `adaptive`, `restart`), all in one process.
//! Two wall-clock benches stay separate binaries. The wall-clock
//! benchmark, freepart-perf, is a package of its own under
//! `src/bin/freepart-perf`.
//!
//! ```text
//! cargo run --release -p freepart-bench --bin all_reports                  # every section
//! cargo run --release -p freepart-bench --bin all_reports -- table9 fig13  # a few
//! cargo run --release -p freepart-bench --bin freepart-replay
//! cargo run --release -p freepart-bench --bin multitenant
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fmt;

pub use experiments::{
    app_overhead, attack_batch, benign_run, corrupt_template, cve_apis_isolated, cve_sweep,
    drone_universe, drone_workload, fast_install, fig13_sweep, fig4_point, fig4_sweep, granularity,
    judge_attack, mean_std, omr_attacks, omr_run, omr_workload, pipeline_comparison, rewrite_code,
    shared_analysis, table7_allowlists, AppOverhead, CveVerdict, Mission, MissionRun, PipelineRun,
    SchemeAttacks,
};
pub use fmt::Table;

/// Writes the bench artifact `name` (a `BENCH_*.json` file) at the
/// workspace root, resolved at compile time from this crate's manifest
/// (`crates/bench` → two levels up), so it lands in the same place no
/// matter what directory the bench is invoked from. The bins print
/// `name` as it is, relative to the root, so their stdout does not
/// depend on where the checkout lives.
pub fn write_artifact(name: &str, body: &str) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root");
    std::fs::write(root.join(name), body).unwrap_or_else(|e| panic!("write {name}: {e}"));
}
