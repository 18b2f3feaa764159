//! Flight-recorder **record → replay → audit** bench.
//!
//! Records the two drone attack scenarios (DoS frame, speed-corruption
//! frame) under `Policy::freepart_recorded()`, replays each commit log
//! against a fresh kernel asserting digest-identical state at every
//! step, runs the kernel- and runtime-level invariant auditors, walks
//! the forensic chain back from every crash, and re-derives the attack
//! verdicts from the replayed kernel alone — proving the verdicts are
//! reproducible from the log, not just observable live.
//!
//! It also gates the digest's cost: `digest_scaling` times
//! `state_digest` on pooled runtimes serving 10 and 1000 tenants, and
//! fails when the larger costs 3x the smaller or more — the digest must
//! stay O(1) in kernel size, since recording pays it on every step.
//!
//! Results land in `BENCH_replay.json` at the repo root (hand-rolled
//! JSON; the suite carries no serde) and as a table on stdout.
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p freepart-bench --bin freepart-replay
//! ```

use freepart::{
    crash_forensics, journal_exactly_once, transition_windows, w_grant_discipline, Policy, Runtime,
};
use freepart_apps::drone::{self, DroneConfig};
use freepart_apps::tenants::{run_chains_interleaved, stage_input};
use freepart_attacks::payloads;
use freepart_bench::experiments::fast_install;
use freepart_bench::{workspace_root, Table};
use freepart_frameworks::registry::standard_registry;
use freepart_simos::core::step;
use freepart_simos::replay::{audit, replay};
use freepart_simos::{CommitLog, FaultKind, KernelState};

/// One recorded-and-replayed attack scenario.
struct Scenario {
    name: &'static str,
    /// Commit records in the log.
    commits: u64,
    /// Replay steps that diverged from the recorded digests.
    divergences: usize,
    /// Kernel-level invariant violations (`freepart_simos::replay::audit`).
    kernel_violations: usize,
    /// Runtime-level discipline violations (grant sweep, journal).
    runtime_violations: usize,
    /// Involuntary deaths found in the log.
    crashes: usize,
    /// Provenance-chain length of the attack's crash.
    forensic_chain_len: usize,
    /// Did the live run survive the attack (control loop alive)?
    verdict_live: bool,
    /// Does the replayed kernel agree (host running, attack fault
    /// present in the log with the expected kind)?
    verdict_replay: bool,
}

/// Raw pure-`step` throughput: folds the recorded log through a fresh
/// [`KernelState`] `iters` times and reports (total steps, steps/sec).
fn step_throughput(log: &CommitLog, iters: u32) -> (u64, f64) {
    let mut total: u64 = 0;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        let mut state = KernelState::with_cost_model(log.genesis().clone());
        for rec in log.records() {
            let _ = step(&mut state, &rec.op);
            total += 1;
        }
        std::hint::black_box(state.digest());
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (total, total as f64 / secs)
}

/// Tenant counts of the digest-scaling gate, and the bar its cost ratio
/// must stay under.
const SCALING_TENANTS: (usize, usize) = (10, 1000);
const MAX_SCALING_RATIO: f64 = 3.0;

/// Median wall ns of one `state_digest` on a `freepart_pooled()` runtime
/// that has served one chain per tenant for `tenants` tenants.
fn digest_ns(tenants: usize) -> f64 {
    let mut rt = fast_install(Policy::freepart_pooled());
    let ids: Vec<_> = (0..tenants).map(|_| rt.spawn_tenant()).collect();
    let paths: Vec<String> = ids.iter().map(|t| stage_input(&mut rt, t.0)).collect();
    run_chains_interleaved(&mut rt, &ids, &paths).expect("pooled serve");
    // Batches of digests, so timer overhead stays out of the figure.
    const BATCH: u32 = 64;
    let mut samples: Vec<f64> = (0..301)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..BATCH {
                std::hint::black_box(rt.kernel.state_digest());
            }
            start.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Records one drone mission, replays it, audits it, and reports the
/// scenario alongside its detached commit log.
fn record_and_replay(
    name: &'static str,
    cfg: &DroneConfig,
    expect_fault: FaultKind,
) -> (Scenario, CommitLog) {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_recorded());
    rt.enable_tracing();
    let result = drone::run(&mut rt, cfg);
    let host = rt.host_pid();
    let live_digest = rt.kernel.state_digest();
    let log = rt.kernel.take_commit_log().expect("recording was on");

    // Digest-identical replay from the log alone.
    let (rebuilt, report) = replay(&log);
    assert_eq!(report.steps, log.len(), "{name}: replay must cover the log");
    assert!(
        report.is_clean(),
        "{name}: replay diverged: {:?}",
        report.divergences
    );
    assert_eq!(
        rebuilt.state_digest(),
        live_digest,
        "{name}: rebuilt kernel must match the live final state"
    );

    // Kernel-level whole-trace invariants.
    let kernel_violations = audit(&log);
    assert!(
        kernel_violations.is_empty(),
        "{name}: honest log flagged: {kernel_violations:?}"
    );

    // Runtime-level disciplines, joined through the tracer's windows.
    let windows = transition_windows(rt.tracer());
    let mut runtime_violations = w_grant_discipline(&log, &windows, host);
    runtime_violations.extend(journal_exactly_once(rt.tracer()));
    assert!(
        runtime_violations.is_empty(),
        "{name}: discipline violated: {runtime_violations:?}"
    );

    // Forensics: the attack's crash and its provenance chain.
    let crashes = crash_forensics(&log);
    let attack_crash = crashes
        .iter()
        .find(|c| c.kind == expect_fault)
        .unwrap_or_else(|| panic!("{name}: expected a {expect_fault:?} crash in the log"));

    // The verdict, re-derived from the replayed kernel alone: the host
    // (control loop) survived, and the attack died inside an agent.
    let verdict_replay = rebuilt.is_running(host) && attack_crash.pid != host;

    let scenario = Scenario {
        name,
        commits: log.len(),
        divergences: report.divergences.len(),
        kernel_violations: kernel_violations.len(),
        runtime_violations: runtime_violations.len(),
        crashes: crashes.len(),
        forensic_chain_len: attack_crash.chain.len(),
        verdict_live: result.control_loop_alive,
        verdict_replay,
    };
    (scenario, log)
}

fn to_json(rows: &[Scenario], throughput: &[(&str, u64, f64)], scaling: (f64, f64)) -> String {
    let mut out = String::from("{\n  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"commits\": {}, \"divergences\": {}, \
             \"kernel_violations\": {}, \"runtime_violations\": {}, \
             \"crashes\": {}, \"forensic_chain_len\": {}, \
             \"verdict_live\": {}, \"verdict_replay\": {}, \
             \"verdict_reproduced\": {}}}{}\n",
            r.name,
            r.commits,
            r.divergences,
            r.kernel_violations,
            r.runtime_violations,
            r.crashes,
            r.forensic_chain_len,
            r.verdict_live,
            r.verdict_replay,
            r.verdict_live == r.verdict_replay,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let min = throughput
        .iter()
        .map(|&(_, _, sps)| sps)
        .fold(f64::INFINITY, f64::min);
    out.push_str("  ],\n  \"step_throughput\": {\"logs\": [\n");
    for (i, (log_name, steps, steps_per_sec)) in throughput.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"log\": \"{log_name}\", \"steps\": {steps}, \
             \"steps_per_sec\": {steps_per_sec:.1}}}{}\n",
            if i + 1 < throughput.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!("  ], \"min_steps_per_sec\": {min:.1}}},\n"));
    let (small, large) = scaling;
    out.push_str(&format!(
        "  \"digest_scaling\": {{\"tenants_small\": {}, \"tenants_large\": {}, \
         \"digest_ns_small\": {small:.1}, \"digest_ns_large\": {large:.1}, \
         \"ratio\": {:.3}, \"max_ratio\": {MAX_SCALING_RATIO:.1}}}\n}}\n",
        SCALING_TENANTS.0,
        SCALING_TENANTS.1,
        large / small
    ));
    out
}

fn main() {
    // Scenario 1 — DoS: a poisoned frame crashes the loading agent; the
    // supervisor restarts it and the mission keeps flying.
    let (dos, dos_log) = record_and_replay(
        "drone_dos",
        &DroneConfig {
            frames: 5,
            evil_frame: Some((2, payloads::dos("CVE-2017-14136"))),
        },
        FaultKind::Abort,
    );

    // Scenario 2 — speed corruption: the exploit's write lands on a
    // temporally-protected page and faults instead of flipping the
    // steering sign. The target address comes from an identical probe
    // mission (deterministic layout).
    let addr = {
        let mut probe = Runtime::install(standard_registry(), Policy::freepart_recorded());
        let r = drone::run(
            &mut probe,
            &DroneConfig {
                frames: 0,
                evil_frame: None,
            },
        );
        probe.objects.meta(r.speed).unwrap().buffer.unwrap().0
    };
    let evil_speed = (-0.3f64).to_le_bytes().to_vec();
    let (corrupt, corrupt_log) = record_and_replay(
        "drone_corruption",
        &DroneConfig {
            frames: 4,
            evil_frame: Some((1, payloads::corrupt("CVE-2017-12606", addr.0, evil_speed))),
        },
        FaultKind::Protection,
    );

    let rows = [dos, corrupt];
    let mut table = Table::new([
        "scenario",
        "commits",
        "diverg.",
        "kernel viol.",
        "runtime viol.",
        "crashes",
        "chain len",
        "verdict",
    ]);
    for r in &rows {
        table.row([
            r.name.to_string(),
            r.commits.to_string(),
            r.divergences.to_string(),
            r.kernel_violations.to_string(),
            r.runtime_violations.to_string(),
            r.crashes.to_string(),
            r.forensic_chain_len.to_string(),
            if r.verdict_live && r.verdict_replay {
                "survived (reproduced)".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    table.print("flight recorder: record → replay → audit");

    for r in &rows {
        assert_eq!(r.divergences, 0, "{}: replay diverged", r.name);
        assert_eq!(r.kernel_violations + r.runtime_violations, 0);
        assert!(
            r.verdict_live && r.verdict_replay,
            "{}: verdict not reproduced from the log",
            r.name
        );
        assert!(r.forensic_chain_len >= 2, "{}: thin chain", r.name);
    }

    // Raw pure-step throughput over BOTH recorded logs: replay cost
    // with no shell, no commit log, no divergence checks — just the
    // fold every replay-based tool pays per step. Folding only one log
    // would let a regression on the other scenario's op mix slip by,
    // so the JSON carries each log's rate plus the min across logs.
    let mut throughput = Vec::new();
    for (log_name, log) in [("drone_dos", &dos_log), ("drone_corruption", &corrupt_log)] {
        let (steps, steps_per_sec) = step_throughput(log, 200);
        assert!(
            steps > 0 && steps_per_sec > 0.0,
            "{log_name}: step-throughput row must be populated"
        );
        println!(
            "\npure-step throughput: {steps} steps over 200 replays of \
             {log_name} ({steps_per_sec:.0} steps/sec)"
        );
        throughput.push((log_name, steps, steps_per_sec));
    }

    let scaling = (digest_ns(SCALING_TENANTS.0), digest_ns(SCALING_TENANTS.1));
    let ratio = scaling.1 / scaling.0;
    println!(
        "\nstate digest: {:.0} ns at {} tenants, {:.0} ns at {} tenants (ratio {ratio:.2})",
        scaling.0, SCALING_TENANTS.0, scaling.1, SCALING_TENANTS.1
    );
    assert!(
        ratio < MAX_SCALING_RATIO,
        "state digest grows with kernel size: {ratio:.2}x from {} to {} tenants",
        SCALING_TENANTS.0,
        SCALING_TENANTS.1
    );

    let json = to_json(&rows, &throughput, scaling);
    let out = workspace_root().join("BENCH_replay.json");
    std::fs::write(&out, &json).expect("write BENCH_replay.json");
    println!("wrote {} ({} scenarios)", out.display(), rows.len());
}
