//! Observability report: **where FreePart's overhead goes**.
//!
//! Runs the OMR grader under the unprotected original and under FreePart
//! with span tracing enabled, then decomposes the end-to-end virtual-time
//! overhead into marshal / copy / mprotect / compute components from the
//! recorded spans. Also prints the per-partition telemetry breakdown and
//! a security-audit summary, runs the drone control loop traced, and
//! writes its Chrome `trace_event` export to `BENCH_trace.json` at the
//! repo root (open it in Perfetto or `about:tracing`).
//!
//! Tracing never charges virtual time, so the traced FreePart run must
//! land on exactly the same clock value as an untraced one — the report
//! asserts that, and asserts that no two leaf spans overlap in virtual
//! time, so no component counts the same nanoseconds twice.
//!
//! ```text
//! cargo run --release -p freepart-bench --bin freepart-report
//! ```

use freepart::{FlushReason, Policy, Runtime, SpanEvent, SpanPhase, Tracer};
use freepart_apps::{drone, omr};
use freepart_baselines::{build, ApiSurface, SchemeKind};
use freepart_bench::experiments::omr_workload;
use freepart_bench::fmt::pct;
use freepart_bench::{drone_workload, fast_install, write_artifact, Table};
use freepart_frameworks::registry::standard_registry;

/// Virtual time of one full OMR run on a fresh surface.
fn omr_time(surface: &mut dyn ApiSurface) -> u64 {
    surface.kernel_mut().reset_accounting();
    let r = omr::run(surface, &omr_workload());
    assert!(r.completed > 0, "workload must actually run");
    surface.kernel().now_ns()
}

/// A FreePart runtime with tracing on and accounting zeroed.
fn traced_freepart() -> Runtime {
    let mut rt = fast_install(Policy::freepart());
    rt.enable_tracing();
    rt.kernel.reset_accounting();
    rt
}

fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// Checks that no two leaf spans (phases with a [`SpanPhase::bucket`])
/// overlap in virtual time: the decomposition sums leaf durations per
/// bucket, so an overlap counts the same time twice. Returns the leaf
/// count, or the first overlapping pair (after sorting by start, any
/// overlap shows up between neighbours).
fn check_leaves(tracer: &Tracer) -> Result<usize, String> {
    let mut leaves: Vec<&SpanEvent> = tracer
        .events()
        .iter()
        .filter(|e| e.phase.bucket().is_some())
        .collect();
    leaves.sort_by_key(|e| (e.start_ns, e.end_ns));
    match leaves.windows(2).find(|w| w[1].start_ns < w[0].end_ns) {
        Some(w) => Err(format!("{:?} overlaps {:?}", w[0], w[1])),
        None => Ok(leaves.len()),
    }
}

fn main() {
    let reg = standard_registry();

    // ---- baselines: original and untraced FreePart ----
    let mut original = build(
        SchemeKind::Original,
        standard_registry(),
        &omr::omr_universe(&reg),
    );
    let t_orig = omr_time(original.as_mut());
    let mut untraced = fast_install(Policy::freepart());
    let t_fp_untraced = omr_time(&mut untraced);

    // ---- traced FreePart run ----
    let mut rt = traced_freepart();
    let t_fp = omr_time(&mut rt);
    assert_eq!(
        t_fp, t_fp_untraced,
        "tracing must not perturb the virtual clock"
    );

    // ---- overhead decomposition ----
    let buckets = rt.tracer().bucket_totals();
    let overhead = t_fp as i64 - t_orig as i64;
    // Agent-side compute replaces the original's inline compute; what the
    // partitioning *adds* on the compute axis is the residual after the
    // three mechanism components are taken out of the FreePart total.
    // `other_ns` is the supervisor's share: restart and snapshot spans
    // that used to fall outside the decomposition entirely.
    let mechanisms = buckets.marshal_ns + buckets.copy_ns + buckets.mprotect_ns + buckets.other_ns;
    let compute_delta = (t_fp as i64 - mechanisms as i64) - t_orig as i64;
    let components = [
        ("marshal", buckets.marshal_ns as i64),
        ("copy", buckets.copy_ns as i64),
        ("mprotect", buckets.mprotect_ns as i64),
        ("restart/snapshot", buckets.other_ns as i64),
        ("compute delta", compute_delta),
    ];

    println!("OMR grader, 24 samples (virtual time)");
    println!("  original     : {:>12} ns", t_orig);
    println!("  FreePart     : {:>12} ns", t_fp);
    println!(
        "  overhead     : {:>12} ns ({})",
        overhead,
        pct(t_fp as f64 / t_orig as f64 - 1.0)
    );

    let mut decomp = Table::new(["Component", "Virtual ns", "Share of overhead"]);
    for (name, v) in components {
        decomp.row([
            name.to_owned(),
            v.to_string(),
            pct(v as f64 / overhead as f64),
        ]);
    }
    decomp.print("FreePart overhead decomposition (OMR)");

    let leaves = check_leaves(rt.tracer()).expect("decomposition double-counts");
    println!("\ndecomposition check: {leaves} leaf spans, none overlapping in virtual time ✓");

    // ---- per-partition telemetry ----
    let labels: std::collections::BTreeMap<_, _> = rt.partition_labels().into_iter().collect();
    let mut table = Table::new([
        "Partition",
        "Calls",
        "Mean µs",
        "p95 µs",
        "Lazy KB",
        "Eager KB",
        "Journal",
        "Faults",
        "Kills",
    ]);
    for (p, s) in rt.tracer().partition_rollup() {
        let label = labels.get(&p).cloned().unwrap_or_else(|| p.to_string());
        table.row([
            label,
            s.calls.to_string(),
            us(s.latency.mean() as u64),
            us(s.latency.quantile(0.95)),
            kb(s.bytes_lazy),
            kb(s.bytes_eager),
            s.journal_hits.to_string(),
            s.faults.to_string(),
            s.filter_kills.to_string(),
        ]);
    }
    table.print("Per-partition telemetry (OMR under FreePart)");

    // ---- security audit summary ----
    let audit = rt.tracer().audit_log();
    let transitions = audit
        .iter()
        .filter(|r| matches!(r, freepart::AuditRecord::StateTransition { .. }))
        .count();
    let reprotects = audit
        .iter()
        .filter(|r| matches!(r, freepart::AuditRecord::Reprotect { .. }))
        .count();
    let audited_pages: u64 = audit.iter().map(freepart::AuditRecord::pages).sum();
    let kernel_pages = rt.kernel.metrics().protected_pages;
    assert_eq!(
        audited_pages, kernel_pages,
        "audit log must account for every mprotect page transition"
    );
    let snapshots_skipped = rt.kernel.metrics().snapshot_objects_skipped;
    println!(
        "\naudit: {transitions} state transitions, {reprotects} reprotects, \
         {audited_pages} mprotect page transitions (= kernel counter) ✓"
    );
    println!(
        "snapshots: {snapshots_skipped} clean objects skipped by the \
         write-epoch incremental snapshotter"
    );

    // ---- batched submission: where the flushes come from ----
    let mut rt = fast_install(Policy::freepart_batched());
    rt.enable_tracing();
    rt.kernel.reset_accounting();
    let r = omr::run(&mut rt, &omr_workload());
    assert!(r.completed > 0, "workload must actually run");
    let flushes = rt.tracer().batch_flushes();
    assert!(!flushes.is_empty(), "batched run must flush batches");
    let mut table = Table::new(["Flush reason", "Batches", "Calls", "Mean calls/frame"]);
    let mut batched_calls = 0u64;
    for reason in [
        FlushReason::PartitionSwitch,
        FlushReason::Hazard,
        FlushReason::Transition,
        FlushReason::WindowFull,
    ] {
        let of_reason: Vec<_> = flushes.iter().filter(|(_, _, r, _)| *r == reason).collect();
        let calls: u64 = of_reason.iter().map(|(_, _, _, n)| *n as u64).sum();
        batched_calls += calls;
        table.row([
            reason.to_string(),
            of_reason.len().to_string(),
            calls.to_string(),
            if of_reason.is_empty() {
                "-".to_owned()
            } else {
                format!("{:.1}", calls as f64 / of_reason.len() as f64)
            },
        ]);
    }
    table.print("Batch flushes by reason (OMR under FreePart, batched)");
    let kernel_batched = rt.kernel.metrics().calls_batched;
    assert_eq!(
        batched_calls, kernel_batched,
        "flush telemetry must account for every batched call"
    );
    println!(
        "batch check: {} calls in {} frames (= kernel counter) ✓",
        batched_calls,
        flushes.len()
    );

    // ---- adaptive controller: decisions and their input estimates ----
    // The phase-shifting mix forces a mid-run re-decision, so the
    // table below shows the controller actually moving knobs.
    let mix = freepart_apps::mixes::standard_mixes()
        .into_iter()
        .find(|m| m.name == "phase-shift")
        .expect("phase-shift mix exists");
    let mut rt = fast_install(Policy::freepart_adaptive());
    rt.kernel.reset_accounting();
    let r = freepart_apps::mixes::run_mix(&mut rt, &mix);
    assert!(
        r.completed > 0 && r.errors.is_empty(),
        "benign mix must run clean"
    );
    let labels: std::collections::BTreeMap<_, _> = rt.partition_labels().into_iter().collect();
    let label_of =
        |p: &freepart::PartitionId| labels.get(p).cloned().unwrap_or_else(|| p.to_string());

    let decisions = rt.tracer().policy_decisions();
    assert!(!decisions.is_empty(), "decision points must be reached");
    assert!(
        decisions.iter().any(|d| d.changed),
        "the phase shift must move at least one knob"
    );
    let parts: std::collections::BTreeSet<_> = decisions.iter().map(|d| d.partition).collect();
    let mut table = Table::new([
        "Partition",
        "Decisions",
        "Changed",
        "EWMA B/call",
        "Shm",
        "Batch",
        "Pipeline",
    ]);
    for p in parts {
        let of_p: Vec<_> = decisions.iter().filter(|d| d.partition == p).collect();
        let knobs = rt.knobs(p);
        table.row([
            label_of(&p),
            of_p.len().to_string(),
            of_p.iter().filter(|d| d.changed).count().to_string(),
            of_p.last().map_or(0, |d| d.est_bytes_per_call).to_string(),
            knobs.shm_threshold.map_or("off", |_| "on").to_owned(),
            knobs
                .batch_window
                .map_or_else(|| "off".to_owned(), |w| w.to_string()),
            knobs.pipeline_window.to_string(),
        ]);
    }
    table.print("Adaptive policy decisions by partition (final knobs)");

    // ---- traced batched drone run → Chrome trace export ----
    // Batched so the exported timeline shows `batch` spans enclosing
    // their member `call` spans and the flush-reason instants.
    let mut rt = fast_install(Policy::freepart_batched());
    rt.enable_tracing();
    rt.kernel.reset_accounting();
    let r = drone::run(&mut rt, &drone_workload());
    assert!(r.frames_processed > 0, "workload must actually run");
    assert_eq!(
        rt.partition_labels().len(),
        4,
        "the trace must show the host plus four partition rows"
    );
    assert!(
        rt.tracer()
            .events()
            .iter()
            .any(|e| e.phase == SpanPhase::Batch),
        "no batch spans in the batched drone trace"
    );
    assert!(
        !rt.tracer().batch_flushes().is_empty(),
        "no flush-reason instants in the batched drone trace"
    );
    let trace = rt.export_chrome_trace();
    write_artifact("BENCH_trace.json", &trace);
    println!(
        "\nwrote BENCH_trace.json ({} span events, {} partitions + host; load it in Perfetto)",
        rt.tracer().events().len(),
        rt.partition_labels().len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart::ThreadId;

    #[test]
    fn a_response_overlapping_the_next_marshal_fails_the_check() {
        let mut t = Tracer::new();
        t.enable();
        for (phase, seq, start_ns, end_ns) in [
            (SpanPhase::Call, 1, 0, 20),
            (SpanPhase::Marshal, 1, 0, 10),
            (SpanPhase::Response, 1, 10, 20),
            (SpanPhase::Marshal, 2, 20, 30),
            // Call 2 is deferred: its response leg covers call 3's marshal.
            (SpanPhase::Response, 2, 30, 50),
            (SpanPhase::Marshal, 3, 40, 45),
        ] {
            assert!(check_leaves(&t).is_ok(), "parent spans may enclose leaves");
            let (api, partition, thread, bytes) = (None, None, ThreadId::MAIN, 0);
            let span = SpanEvent {
                phase,
                seq,
                api,
                partition,
                thread,
                start_ns,
                end_ns,
                bytes,
            };
            t.span(span);
        }
        let err = check_leaves(&t).expect_err("the deferred response overlaps");
        assert!(err.contains("Response") && err.contains("seq: 3"), "{err}");
    }
}
