//! Hooked-call **data-plane hot path** benchmark.
//!
//! Drives the two end-to-end pipelines — the OMR grader and the drone
//! control loop — under every scheme in [`SchemeKind::ALL`] plus
//! FreePart with lazy data copy disabled, and reports each run's
//! virtual time as overhead relative to the monolithic original.
//!
//! Results land in `BENCH_hotpath.json` at the repo root (hand-rolled
//! JSON; the suite carries no serde) and as a table on stdout.
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p freepart-bench --bin hotpath
//! ```

use freepart::trace::json_escape;
use freepart::Policy;
use freepart_apps::{drone, omr};
use freepart_baselines::{build, ApiSurface, SchemeKind};
use freepart_bench::experiments::omr_workload;
use freepart_bench::fmt::pct;
use freepart_bench::{drone_universe, drone_workload, fast_install, write_artifact, Table};
use freepart_frameworks::api::ApiId;
use freepart_frameworks::registry::standard_registry;

/// One scheme × pipeline measurement.
struct Run {
    scheme: &'static str,
    pipeline: &'static str,
    time_ns: u64,
    ipc: u64,
    transfer_bytes: u64,
    copy_ops: u64,
    processes: usize,
    /// `time / original_time - 1`; 0 for the baseline itself.
    overhead: f64,
}

/// Runs one pipeline on a surface and returns its metrics row.
fn measure(scheme: &'static str, pipeline: &'static str, surface: &mut dyn ApiSurface) -> Run {
    surface.kernel_mut().reset_accounting();
    match pipeline {
        "omr" => {
            let r = omr::run(surface, &omr_workload());
            assert!(r.completed > 0, "workload must actually run");
            assert!(r.errors.is_empty(), "benign run must be error-free");
        }
        "drone" => {
            let r = drone::run(surface, &drone_workload());
            assert!(r.frames_processed > 0, "workload must actually run");
        }
        _ => unreachable!(),
    }
    let m = surface.kernel().metrics();
    Run {
        scheme,
        pipeline,
        time_ns: surface.kernel().clock().now_ns(),
        ipc: m.ipc_messages,
        transfer_bytes: m.total_transfer_bytes(),
        copy_ops: m.copy_ops,
        processes: surface.process_count(),
        overhead: 0.0,
    }
}

fn pipeline_runs(pipeline: &'static str, universe: &[ApiId]) -> Vec<Run> {
    let mut rows = Vec::new();
    for kind in SchemeKind::ALL {
        let mut surface = build(kind, standard_registry(), universe);
        rows.push(measure(kind.name(), pipeline, surface.as_mut()));
    }
    // FreePart with eager (through-host) copies instead of LDC.
    let mut rt = fast_install(Policy::without_ldc());
    rows.push(measure("FreePart (no LDC)", pipeline, &mut rt));
    // FreePart with large payloads page-mapped via shared memory.
    let mut rt = fast_install(Policy::freepart_shm());
    rows.push(measure("FreePart (shm)", pipeline, &mut rt));
    // FreePart with same-partition call bursts coalesced into single
    // IPC frames, and with the closed-loop controller picking transport,
    // batch window, and pipeline window per partition at runtime. Same
    // driver as every other row: the batching comes from the policy.
    for (scheme, policy) in [
        ("FreePart (batched)", Policy::freepart_batched()),
        ("FreePart (adaptive)", Policy::freepart_adaptive()),
    ] {
        let mut rt = fast_install(policy);
        rows.push(measure(scheme, pipeline, &mut rt));
        assert!(
            rt.kernel.metrics().calls_batched > 0,
            "{scheme}: calls actually rode in batches"
        );
        if rt.adaptive_enabled() {
            let decisions = rt.tracer().policy_decisions();
            assert!(
                !decisions.is_empty(),
                "controller must reach decision points"
            );
            assert!(
                decisions.iter().any(|d| d.changed),
                "controller must actually move a knob on this workload"
            );
        }
    }

    let base_ns = rows
        .iter()
        .find(|r| r.scheme == SchemeKind::Original.name())
        .expect("original baseline present")
        .time_ns
        .max(1);
    for r in &mut rows {
        r.overhead = r.time_ns as f64 / base_ns as f64 - 1.0;
    }
    rows
}

fn to_json(rows: &[Run]) -> String {
    let mut out = String::from("{\n  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"pipeline\": \"{}\", \"time_ns\": {}, \
             \"overhead_vs_original\": {:.6}, \"ipc\": {}, \"transfer_bytes\": {}, \
             \"copy_ops\": {}, \"processes\": {}}}{}\n",
            json_escape(r.scheme),
            r.pipeline,
            r.time_ns,
            r.overhead,
            r.ipc,
            r.transfer_bytes,
            r.copy_ops,
            r.processes,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let reg = standard_registry();
    let mut rows = pipeline_runs("omr", &omr::omr_universe(&reg));
    rows.extend(pipeline_runs("drone", &drone_universe(&reg)));

    let mut table = Table::new([
        "Pipeline",
        "Scheme",
        "Time (ms)",
        "Overhead",
        "IPC",
        "Copies",
        "Procs",
    ]);
    for r in &rows {
        table.row([
            r.pipeline.to_owned(),
            r.scheme.to_owned(),
            format!("{:.3}", r.time_ns as f64 / 1e6),
            pct(r.overhead),
            r.ipc.to_string(),
            r.copy_ops.to_string(),
            r.processes.to_string(),
        ]);
    }
    table.print("Hooked-call data-plane overhead (virtual time)");
    let row = |pipeline: &str, scheme: &str| {
        rows.iter()
            .find(|r| r.pipeline == pipeline && r.scheme == scheme)
            .expect("row present")
    };

    // The whole point of LDC: on the OMR pipeline, lazy copies must not
    // be slower than eager through-host copies.
    let ldc = row("omr", SchemeKind::FreePart.name()).time_ns;
    let eager = row("omr", "FreePart (no LDC)").time_ns;
    assert!(
        ldc <= eager,
        "LDC regressed: {ldc} ns with LDC vs {eager} ns eager"
    );
    println!("\nLDC check: {ldc} ns (lazy) <= {eager} ns (eager) ✓");

    // The whole point of shm: page-mapping large payloads must move
    // strictly fewer bytes across address spaces than LDC copies.
    let shm_bytes = row("omr", "FreePart (shm)").transfer_bytes;
    let ldc_bytes = row("omr", SchemeKind::FreePart.name()).transfer_bytes;
    assert!(
        shm_bytes < ldc_bytes,
        "shm transport regressed: {shm_bytes} bytes shm vs {ldc_bytes} bytes LDC"
    );
    println!("shm check: {shm_bytes} bytes (shm) < {ldc_bytes} bytes (LDC copies) ✓");

    // The whole point of batching: coalescing same-partition bursts must
    // cut OMR's frame count to at most 60% of the per-call plane without
    // costing any virtual time.
    let batched = row("omr", "FreePart (batched)");
    let unbatched = row("omr", SchemeKind::FreePart.name());
    assert!(
        batched.ipc * 10 <= unbatched.ipc * 6,
        "batching regressed: {} frames batched vs {} unbatched (need <= 60%)",
        batched.ipc,
        unbatched.ipc
    );
    assert!(
        batched.time_ns <= unbatched.time_ns,
        "batching cost time: {} ns batched vs {} ns unbatched",
        batched.time_ns,
        unbatched.time_ns
    );
    println!(
        "batch check: {} frames ({} ns) vs {} frames ({} ns) unbatched ✓",
        batched.ipc, batched.time_ns, unbatched.ipc, unbatched.time_ns
    );

    // The whole point of the controller: self-tuned knobs must never
    // cost more virtual time than the best hand-tuned static preset
    // (batched) — on either pipeline.
    for pipeline in ["omr", "drone"] {
        let adaptive = row(pipeline, "FreePart (adaptive)");
        let batched = row(pipeline, "FreePart (batched)");
        assert!(
            adaptive.time_ns <= batched.time_ns,
            "adaptive regressed on {pipeline}: {} ns adaptive vs {} ns batched",
            adaptive.time_ns,
            batched.time_ns
        );
        println!(
            "adaptive check ({pipeline}): {} ns (adaptive) <= {} ns (batched) ✓",
            adaptive.time_ns, batched.time_ns
        );
    }

    let json = to_json(&rows);
    write_artifact("BENCH_hotpath.json", &json);
    println!("wrote BENCH_hotpath.json ({} runs)", rows.len());
}
