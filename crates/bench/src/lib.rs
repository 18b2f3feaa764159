//! # freepart-bench — the evaluation harness
//!
//! One report binary per table and figure of the paper (see DESIGN.md's
//! experiment index), all built on the [`experiments`] runners, plus
//! Criterion micro-benchmarks of the underlying mechanisms.
//!
//! ```text
//! cargo run -p freepart-bench --bin table1    # … table2 … table12
//! cargo run -p freepart-bench --bin fig4      # fig6 fig7 fig13
//! cargo run -p freepart-bench --bin security_analysis
//! cargo run -p freepart-bench --bin case_studies
//! cargo run -p freepart-bench --bin all_reports
//! cargo bench -p freepart-bench
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fmt;

pub use experiments::{
    app_overhead, cve_apis_isolated, cve_sweep, drone_universe, drone_workload, fast_install,
    fig13_sweep, fig4_point, fig4_sweep, granularity, mean_std, omr_attacks, omr_run,
    pipeline_comparison, shared_analysis, table7_allowlists, AppOverhead, CveVerdict, PipelineRun,
    SchemeAttacks, SchemeRun,
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
