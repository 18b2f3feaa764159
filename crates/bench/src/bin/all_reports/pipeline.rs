//! Pipelined asynchronous execution benchmark.
//!
//! Flies the 30-frame drone mission three ways — the unprotected
//! Original, sequential FreePart, and pipelined FreePart on per-process
//! virtual timelines — and reports each mode's completion time. The
//! pipelined run submits every stage with `call_async`, so its makespan
//! collapses to the bottleneck stage while the steering commands stay
//! byte-identical to the synchronous mission.
//!
//! Results land in `BENCH_pipeline.json` at the repo root (hand-rolled
//! JSON; the suite carries no serde) and as a table on stdout, under
//! `all_reports`' `pipeline` banner.

use freepart::trace::json_escape;
use freepart_bench::fmt::pct;
use freepart_bench::{pipeline_comparison, write_artifact, PipelineRun, Table};

const FRAMES: u32 = 30;

fn to_json(rows: &[PipelineRun], speedup: f64) -> String {
    let mut out = format!(
        "{{\n  \"frames\": {FRAMES},\n  \"speedup_vs_sequential\": {speedup:.6},\n  \"runs\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"time_ns\": {}, \"ipc\": {}, \
             \"timeline_merges\": {}, \"commands\": {}}}{}\n",
            json_escape(r.mode),
            r.time_ns,
            r.ipc,
            r.timeline_merges,
            r.commands.len(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The three-mode drone mission, the speedup bar, and
/// `BENCH_pipeline.json`.
pub fn run() {
    let rows = pipeline_comparison(FRAMES);
    let base_ns = rows[0].time_ns.max(1);

    let mut table = Table::new(["Mode", "Time (ms)", "vs Original", "IPC", "Merges"]);
    for r in &rows {
        table.row([
            r.mode.to_owned(),
            format!("{:.3}", r.time_ns as f64 / 1e6),
            pct(r.time_ns as f64 / base_ns as f64 - 1.0),
            r.ipc.to_string(),
            r.timeline_merges.to_string(),
        ]);
    }
    table.print("Pipelined asynchronous partition execution (virtual time)");

    // The whole point of pipelining: same commands, much less makespan.
    for r in &rows[1..] {
        assert_eq!(r.commands, rows[0].commands, "{} diverged", r.mode);
    }
    let seq = rows
        .iter()
        .find(|r| r.mode == "FreePart (sequential)")
        .expect("sequential row");
    let pip = rows
        .iter()
        .find(|r| r.mode == "FreePart (pipelined)")
        .expect("pipelined row");
    let speedup = seq.time_ns as f64 / pip.time_ns.max(1) as f64;
    assert!(
        speedup >= 1.2,
        "pipelined speedup {speedup:.3} below the 1.2x floor"
    );
    assert!(
        pip.timeline_merges > 0,
        "the pipelined run never merged per-process timelines"
    );
    println!("\npipelined vs sequential FreePart: {speedup:.3}x ✓");

    let json = to_json(&rows, speedup);
    write_artifact("BENCH_pipeline.json", &json);
    println!("wrote BENCH_pipeline.json ({} runs)", rows.len());
}
