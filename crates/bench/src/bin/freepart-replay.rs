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
//! It also gates the recorder's cost. `digest_scaling` times
//! `state_digest` on pooled runtimes serving 10 and 1000 tenants, and
//! fails when the larger costs 3x the smaller or more — the digest must
//! stay O(1) in kernel size, since recording pays it on every step.
//! `record_overhead` folds a recorded 200-tenant pooled log through
//! `Kernel::apply` in nine pairs of passes of at least 20 ms each, one
//! on plain kernels and one on recording ones, and fails when the
//! median pair's recorded step costs 1.5x the unrecorded one or more:
//! the digest, the outcome summary and the log append together must
//! stay cheap next to the step itself.
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
use freepart_bench::{write_artifact, Table};
use freepart_frameworks::registry::standard_registry;
use freepart_simos::core::step;
use freepart_simos::replay::{audit, replay};
use freepart_simos::{CommitLog, CommitOp, FaultKind, Kernel, KernelState};
use std::time::{Duration, Instant};

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
    let start = Instant::now();
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

/// Tenants of the pooled log the record-overhead gate folds, and the bar
/// on recorded vs. unrecorded step cost.
const RECORD_TENANTS: usize = 200;
const MAX_RECORD_RATIO: f64 = 1.5;

/// A `freepart_pooled()` runtime that has served one chain per tenant
/// for `tenants` tenants, recording its kernel when `record` is set.
fn pooled(tenants: usize, record: bool) -> Runtime {
    let mut rt = fast_install(Policy {
        record_commits: record,
        ..Policy::freepart_pooled()
    });
    let ids: Vec<_> = (0..tenants).map(|_| rt.spawn_tenant()).collect();
    let paths: Vec<String> = ids.iter().map(|t| stage_input(&mut rt, t.0)).collect();
    run_chains_interleaved(&mut rt, &ids, &paths).expect("pooled serve");
    rt
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall ns of one `state_digest` on `rt`.
fn digest_ns(rt: &Runtime) -> f64 {
    // Batches of digests, so timer overhead stays out of the figure.
    const BATCH: u32 = 64;
    median(
        (0..301)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..BATCH {
                    std::hint::black_box(rt.kernel.state_digest());
                }
                start.elapsed().as_nanos() as f64 / f64::from(BATCH)
            })
            .collect(),
    )
}

/// Wall time each timed pass of the record-overhead gate lasts at
/// least. One fold of the pooled log takes only a few ms, so a single
/// preempted fold would flip its pair.
const MIN_PASS: Duration = Duration::from_millis(20);

/// The record-overhead gate's figures: records in the folded log, the
/// median unrecorded and recorded wall ns per record, the recorder's own
/// cost (the median over the pairs of recorded minus unrecorded ns per
/// record), and the median, least and greatest recorded/unrecorded ratio
/// over the pairs. A cheaper step raises the ratio at the same
/// `recorder`, so the two together tell a slower recorder from a faster
/// step.
struct RecordOverhead {
    records: u64,
    plain: f64,
    recorded: f64,
    recorder: f64,
    ratio: f64,
    pair_min: f64,
    pair_max: f64,
}

/// Times folding `log` through `Kernel::apply` in nine pairs of an
/// unrecorded and a recorded pass, so machine drift lands on both. Each
/// pass folds the log into fresh kernels until it has lasted
/// [`MIN_PASS`].
fn record_overhead(log: &CommitLog) -> RecordOverhead {
    let fold = |record: bool| {
        // Cloned before the clock starts: the copy is neither side's cost.
        let ops: Vec<CommitOp> = log.records().iter().map(|r| r.op.clone()).collect();
        let mut k = Kernel::with_cost_model(log.genesis().clone());
        if record {
            k.enable_commit_log();
        }
        let start = Instant::now();
        for op in ops {
            let _ = k.apply(op);
        }
        start.elapsed()
    };
    let pass = |record: bool| {
        let (mut spent, mut folds) = (Duration::ZERO, 0);
        while spent < MIN_PASS {
            spent += fold(record);
            folds += 1;
        }
        spent.as_nanos() as f64 / (folds * log.len()) as f64
    };
    let pairs: Vec<(f64, f64)> = (0..9).map(|_| (pass(false), pass(true))).collect();
    let mut ratios: Vec<f64> = pairs.iter().map(|&(p, r)| r / p).collect();
    ratios.sort_by(f64::total_cmp);
    RecordOverhead {
        records: log.len(),
        plain: median(pairs.iter().map(|&(p, _)| p).collect()),
        recorded: median(pairs.iter().map(|&(_, r)| r).collect()),
        recorder: median(pairs.iter().map(|&(p, r)| r - p).collect()),
        ratio: ratios[ratios.len() / 2],
        pair_min: ratios[0],
        pair_max: ratios[ratios.len() - 1],
    }
}

/// Prints one ratio gate, and fails the run unless `ratio` is under `max`.
fn gate(what: String, ratio: f64, max: f64) {
    println!("{what} (ratio {ratio:.2})");
    assert!(ratio < max, "{what}: ratio {ratio:.2} is not under {max}");
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

fn to_json(
    rows: &[Scenario],
    throughput: &[(&str, u64, f64)],
    scaling: (f64, f64),
    o: &RecordOverhead,
) -> String {
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
         \"ratio\": {:.3}, \"max_ratio\": {MAX_SCALING_RATIO:.1}}},\n",
        SCALING_TENANTS.0,
        SCALING_TENANTS.1,
        large / small
    ));
    out.push_str(&format!(
        "  \"record_overhead\": {{\"records\": {}, \"unrecorded_ns\": {:.1}, \
         \"recorded_ns\": {:.1}, \"recorder_ns\": {:.1}, \"ratio\": {:.3}, \
         \"pair_ratio_min\": {:.3}, \"pair_ratio_max\": {:.3}, \
         \"max_ratio\": {MAX_RECORD_RATIO:.1}}}\n}}\n",
        o.records, o.plain, o.recorded, o.recorder, o.ratio, o.pair_min, o.pair_max
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

    let scaling = (
        digest_ns(&pooled(SCALING_TENANTS.0, false)),
        digest_ns(&pooled(SCALING_TENANTS.1, false)),
    );
    gate(
        format!(
            "\nstate digest: {:.0} ns at {} tenants, {:.0} ns at {} tenants",
            scaling.0, SCALING_TENANTS.0, scaling.1, SCALING_TENANTS.1
        ),
        scaling.1 / scaling.0,
        MAX_SCALING_RATIO,
    );

    let log = pooled(RECORD_TENANTS, true).kernel.take_commit_log();
    let log = log.expect("recording was on");
    let overhead = record_overhead(&log);
    gate(
        format!(
            "recorded step: {:.0} ns vs {:.0} ns unrecorded over {} records \
             of a {RECORD_TENANTS}-tenant pooled log, recorder_ns {:.0}; \
             pair ratios {:.2}-{:.2}",
            overhead.recorded,
            overhead.plain,
            overhead.records,
            overhead.recorder,
            overhead.pair_min,
            overhead.pair_max
        ),
        overhead.ratio,
        MAX_RECORD_RATIO,
    );

    let json = to_json(&rows, &throughput, scaling, &overhead);
    write_artifact("BENCH_replay.json", &json);
    println!("wrote BENCH_replay.json ({} scenarios)", rows.len());
}
