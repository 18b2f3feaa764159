//! Multi-tenant **pooled serving** benchmark.
//!
//! Serves N identical image pipelines (N ∈ {10, 100, 1000}) two ways
//! against the same registry and workload:
//!
//! * **pooled** — `Policy::freepart_pooled()`: all tenants share the
//!   four `part0..part3` agent processes behind deficit-round-robin
//!   run queues (4 + N processes).
//! * **per-thread baseline** — the paper's §6 deployment: each pipeline
//!   spawns its own agent set (5N processes).
//!
//! Reported per scale: process census, aggregate throughput over
//! virtual time (admission + sealing costs included — that is the
//! baseline's bill), per-call latency percentiles, and real wall-clock
//! cost per call (the O(1)-in-tenants claim: sub-linear 10 → 1000).
//! Two scenario sections follow: a chatty-tenant flood (DRR bounds the
//! victim's wait by the quantum window; FIFO would charge it the whole
//! flood) and a cross-tenant leak attempt (denied before a byte moves,
//! audited, and the verdict re-derived from a digest-identical
//! commit-log replay alone).
//!
//! Results land in `BENCH_multitenant.json` at the repo root
//! (hand-rolled JSON; the suite carries no serde) and as tables on
//! stdout. Regenerate with:
//!
//! ```text
//! cargo run --release -p freepart-bench --bin multitenant
//! ```

use freepart::{CallError, Policy, TenantId};
use freepart_apps::tenants::{
    chain_len, run_chain_on, run_chain_pooled, run_chains_interleaved, stage_input,
};
use freepart_bench::{fast_install, write_artifact, Table};
use freepart_frameworks::Value;
use freepart_simos::replay::replay;
use freepart_simos::CommitOp;

/// One deployment's measurements at one tenant count.
struct Side {
    /// Total kernel process census after serving.
    procs: usize,
    /// Hooked calls served.
    calls: u64,
    /// Virtual makespan, admission through last call.
    virtual_ns: u64,
    /// Aggregate throughput: calls per virtual second.
    throughput_cps: f64,
    /// Real wall-clock nanoseconds per call (serving section only).
    wall_ns_per_call: f64,
}

/// One scale row: pooled vs per-thread baseline at `tenants`.
struct Scale {
    tenants: usize,
    /// Shared agents in the pooled deployment (the "4" of 4 + N).
    pooled_agents: usize,
    pooled: Side,
    /// Pooled per-call latency percentiles (enqueue → retirement,
    /// virtual ns) across every tenant.
    p50_ns: u64,
    p99_ns: u64,
    baseline: Side,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Serves `n` pipelines through the shared pools and measures the run.
/// Returns the row's pooled side plus each tenant's final result (the
/// transparency spot-check compares them against the baseline's).
fn run_pooled(n: usize) -> (usize, Side, u64, u64, Vec<Value>) {
    let mut rt = fast_install(Policy::freepart_pooled());
    let start_ns = rt.kernel.now_ns();
    let wall = std::time::Instant::now();
    let tenants: Vec<TenantId> = (0..n).map(|_| rt.spawn_tenant()).collect();
    let paths: Vec<String> = tenants.iter().map(|t| stage_input(&mut rt, t.0)).collect();
    let results = run_chains_interleaved(&mut rt, &tenants, &paths).expect("pooled serve");
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let calls = (n * chain_len()) as u64;
    let virtual_ns = rt.kernel.now_ns() - start_ns;
    let mut lats: Vec<u64> = tenants
        .iter()
        .flat_map(|t| rt.tenant_latencies(*t).iter().copied())
        .collect();
    lats.sort_unstable();
    let (agents, tenant_procs) = rt.pooled_process_count();
    assert_eq!(tenant_procs, n, "one pipeline process per tenant");
    let side = Side {
        procs: rt.kernel.process_count(),
        calls,
        virtual_ns,
        throughput_cps: calls as f64 / (virtual_ns as f64 / 1e9).max(1e-12),
        wall_ns_per_call: wall_ns / calls as f64,
    };
    (
        agents,
        side,
        percentile(&lats, 0.50),
        percentile(&lats, 0.99),
        results,
    )
}

/// Serves `n` pipelines the per-thread way (own agent set each) and
/// measures the run. Returns the side plus each pipeline's final
/// result.
fn run_baseline(n: usize) -> (Side, Vec<Value>) {
    let mut rt = fast_install(Policy::default());
    let start_ns = rt.kernel.now_ns();
    let wall = std::time::Instant::now();
    let mut results = Vec::with_capacity(n);
    for _ in 0..n {
        let thread = rt.spawn_thread();
        let path = stage_input(&mut rt, thread.0);
        let out = run_chain_on(&mut rt, thread, &path).expect("baseline serve");
        results.push(out.rects);
    }
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let calls = (n * chain_len()) as u64;
    let virtual_ns = rt.kernel.now_ns() - start_ns;
    let side = Side {
        procs: rt.kernel.process_count(),
        calls,
        virtual_ns,
        throughput_cps: calls as f64 / (virtual_ns as f64 / 1e9).max(1e-12),
        wall_ns_per_call: wall_ns / calls as f64,
    };
    (side, results)
}

/// The chatty-tenant scenario: one tenant floods a pool with `flood`
/// queued loads before a victim submits one. Returns
/// `(victim_foreign_served, drr_window_bound, flood)` — DRR must serve
/// the victim within the quantum window; FIFO would make it wait out
/// the whole flood.
fn run_fairness(flood: usize) -> (u64, u64, usize) {
    let policy = Policy::freepart_pooled();
    let quantum = policy.pooled.as_ref().expect("pooled preset").quantum;
    let mut rt = fast_install(policy);
    let chatty = rt.spawn_tenant();
    let victim = rt.spawn_tenant();
    let chatty_path = stage_input(&mut rt, 0);
    let victim_path = stage_input(&mut rt, 1);
    for _ in 0..flood {
        rt.tenant_submit(chatty, "cv2.imread", &[Value::from(chatty_path.as_str())])
            .expect("submit");
    }
    let h = rt
        .tenant_submit(victim, "cv2.imread", &[Value::from(victim_path.as_str())])
        .expect("submit");
    rt.pump_all();
    let (foreign, own_ahead) = rt.ticket_fairness(h).expect("victim ticket pumped");
    assert_eq!(own_ahead, 0, "victim queued exactly one item");
    // Two tenants on the pool: one full DRR rotation serves the victim,
    // so at most (tenants on pool) * quantum foreign items cut in line
    // (× 2 slack for the partially-consumed head visit).
    let bound = 2 * quantum * 2;
    (foreign, bound, flood)
}

/// The cross-tenant leak attempt, recorded end to end. Returns the JSON
/// fragment's fields: denied, audited, replay digest match, and the
/// grant counts that re-derive the verdict from the log alone.
struct Leak {
    denied: bool,
    audited: bool,
    replay_clean: bool,
    digest_match: bool,
    /// `ShmGrant` commits naming the attacker's pipeline process.
    attacker_grants_in_log: usize,
    /// `ShmGrant` commits naming the victim's pipeline process.
    victim_grants_in_log: usize,
    denials_audited: u64,
}

fn run_leak() -> Leak {
    // Record commits and force the payloads onto shared segments — the
    // transport a leak would actually ride.
    let policy = Policy {
        record_commits: true,
        shm_threshold: Some(64),
        ..Policy::freepart_pooled()
    };
    let mut rt = fast_install(policy);
    rt.enable_tracing();
    let victim = rt.spawn_tenant();
    let attacker = rt.spawn_tenant();
    let victim_path = stage_input(&mut rt, 0);
    let attacker_path = stage_input(&mut rt, 1);
    let out = run_chain_pooled(&mut rt, victim, &victim_path).expect("victim pipeline");
    // The attacker runs its own legitimate pipeline…
    run_chain_pooled(&mut rt, attacker, &attacker_path).expect("attacker pipeline");
    // …then reaches for the victim's frame — specifically the object
    // that rode the shared-memory transport (imread's output, promoted
    // to a segment when the blur moved it loading → processing), the
    // exact surface a leak would exploit.
    let img = rt
        .call_tenant(victim, "cv2.imread", &[Value::from(victim_path.as_str())])
        .expect("reload");
    let victim_obj = img.as_obj().expect("object result");
    rt.call_tenant(victim, "cv2.GaussianBlur", &[img])
        .expect("blur");
    // The victim reads its own frame through a granted view (this is
    // the grant the attacker never gets)…
    rt.tenant_fetch(victim, victim_obj)
        .expect("owner reads its own frame");
    // …and the attacker's identical fetch dies at the tenant gate.
    let steal = rt.tenant_fetch(attacker, victim_obj);
    let denied = matches!(steal, Err(CallError::TenantDenied { .. }));
    let audited = rt
        .tracer()
        .audit_log()
        .iter()
        .any(|r| matches!(r, freepart::AuditRecord::CrossTenantDenied { .. }));
    let denials_audited = rt.stats().tenant_denials;
    assert!(!out.bytes.is_empty(), "victim saw its own payload");

    // The verdict, re-derived from the commit log alone: replay is
    // digest-identical, and no ShmGrant in the whole recorded history
    // ever named the attacker's process.
    let attacker_pid = rt.tenant_pid(attacker).expect("attacker admitted");
    let victim_pid = rt.tenant_pid(victim).expect("victim admitted");
    let live_digest = rt.kernel.state_digest();
    let log = rt.kernel.take_commit_log().expect("recording was on");
    let (rebuilt, report) = replay(&log);
    let grants_of = |pid| {
        log.records()
            .iter()
            .filter(|rec| matches!(rec.op, CommitOp::ShmGrant { pid: p, .. } if p == pid))
            .count()
    };
    Leak {
        denied,
        audited,
        replay_clean: report.is_clean(),
        digest_match: rebuilt.state_digest() == live_digest,
        attacker_grants_in_log: grants_of(attacker_pid),
        victim_grants_in_log: grants_of(victim_pid),
        denials_audited,
    }
}

fn to_json(rows: &[Scale], fairness: (u64, u64, usize), leak: &Leak) -> String {
    let mut out = String::from("{\n  \"scales\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let side = |s: &Side| {
            format!(
                "{{\"procs\": {}, \"calls\": {}, \"virtual_ns\": {}, \
                 \"throughput_cps\": {:.1}, \"wall_ns_per_call\": {:.1}}}",
                s.procs, s.calls, s.virtual_ns, s.throughput_cps, s.wall_ns_per_call
            )
        };
        out.push_str(&format!(
            "    {{\"tenants\": {}, \"pooled_agents\": {}, \"p50_ns\": {}, \
             \"p99_ns\": {},\n     \"pooled\": {},\n     \"baseline\": {}}}{}\n",
            r.tenants,
            r.pooled_agents,
            r.p50_ns,
            r.p99_ns,
            side(&r.pooled),
            side(&r.baseline),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let (foreign, bound, flood) = fairness;
    out.push_str(&format!(
        "  ],\n  \"fairness\": {{\"flood\": {flood}, \"victim_foreign_served\": {foreign}, \
         \"drr_bound\": {bound}, \"fifo_wait_would_be\": {flood}}},\n"
    ));
    out.push_str(&format!(
        "  \"leak\": {{\"denied\": {}, \"audited\": {}, \"denials_audited\": {}, \
         \"replay_clean\": {}, \"digest_match\": {}, \
         \"attacker_grants_in_log\": {}, \"victim_grants_in_log\": {}}}\n}}\n",
        leak.denied,
        leak.audited,
        leak.denials_audited,
        leak.replay_clean,
        leak.digest_match,
        leak.attacker_grants_in_log,
        leak.victim_grants_in_log
    ));
    out
}

fn main() {
    let mut rows = Vec::new();
    for &n in &[10usize, 100, 1000] {
        let (pooled_agents, pooled, p50_ns, p99_ns, pooled_results) = run_pooled(n);
        let (baseline, base_results) = run_baseline(n);
        // Transparency spot-check: pooling must not change a single
        // tenant's detector output.
        assert_eq!(
            pooled_results, base_results,
            "pooled outputs diverged from per-thread baseline at N={n}"
        );
        rows.push(Scale {
            tenants: n,
            pooled_agents,
            pooled,
            p50_ns,
            p99_ns,
            baseline,
        });
    }

    let mut table = Table::new([
        "Tenants",
        "Procs (pooled)",
        "Procs (5N)",
        "Thru pooled (c/s)",
        "Thru 5N (c/s)",
        "p50 (µs)",
        "p99 (µs)",
        "Wall ns/call",
    ]);
    for r in &rows {
        table.row([
            r.tenants.to_string(),
            r.pooled.procs.to_string(),
            r.baseline.procs.to_string(),
            format!("{:.0}", r.pooled.throughput_cps),
            format!("{:.0}", r.baseline.throughput_cps),
            format!("{:.1}", r.p50_ns as f64 / 1e3),
            format!("{:.1}", r.p99_ns as f64 / 1e3),
            format!("{:.0}", r.pooled.wall_ns_per_call),
        ]);
    }
    table.print("Multi-tenant serving: shared pools vs per-thread agent sets");

    // The whole point of pooling, part 1 — process census: 4 shared
    // agents + N pipeline contexts (+ host), against 4 per pipeline.
    for r in &rows {
        assert_eq!(r.pooled_agents, 4, "exactly four shared pools");
        assert_eq!(
            r.pooled.procs,
            5 + r.tenants,
            "pooled census is host + 4 agents + N tenants"
        );
        assert_eq!(
            r.baseline.procs,
            5 + 4 * r.tenants,
            "baseline census is host + MAIN's agents + 4 per pipeline"
        );
        println!(
            "census check (N={}): {} pooled vs {} per-thread ✓",
            r.tenants, r.pooled.procs, r.baseline.procs
        );
    }

    // Part 2 — aggregate throughput: sharing the agents must win once
    // admission costs amortize (the ISSUE's bar: at 100 and 1000).
    for r in rows.iter().filter(|r| r.tenants >= 100) {
        assert!(
            r.pooled.throughput_cps >= r.baseline.throughput_cps,
            "pooled lost at N={}: {:.0} vs {:.0} calls/s",
            r.tenants,
            r.pooled.throughput_cps,
            r.baseline.throughput_cps
        );
        println!(
            "throughput check (N={}): {:.0} >= {:.0} calls/s ✓",
            r.tenants, r.pooled.throughput_cps, r.baseline.throughput_cps
        );
    }

    // Part 3 — bounded tail: fair scheduling keeps the p99 within a
    // small multiple of the median (no tenant waits disproportionately).
    for r in &rows {
        assert!(
            r.p99_ns <= 4 * r.p50_ns.max(1),
            "unbounded tail at N={}: p99 {} ns vs p50 {} ns",
            r.tenants,
            r.p99_ns,
            r.p50_ns
        );
    }
    println!("tail check: p99 <= 4 x p50 at every scale ✓");

    // Part 4 — the O(1)-in-tenants hot path: real per-call cost from 10
    // to 1000 tenants must stay far under the 100x a linear-in-tenants
    // path would cost.
    let cost_at = |n: usize| {
        rows.iter()
            .find(|r| r.tenants == n)
            .expect("scale present")
            .pooled
            .wall_ns_per_call
    };
    let ratio = cost_at(1000) / cost_at(10).max(1e-9);
    assert!(
        ratio < 25.0,
        "per-call cost not sub-linear: {ratio:.1}x from 10 to 1000 tenants (linear would be 100x)"
    );
    println!("sub-linearity check: {ratio:.1}x per-call cost 10 -> 1000 tenants (< 25x) ✓");

    // Scenario — chatty tenant: DRR bounds the victim's wait by the
    // quantum window, not the flood size.
    let fairness = run_fairness(48);
    let (foreign, bound, flood) = fairness;
    assert!(
        foreign <= bound,
        "victim waited out {foreign} foreign items (bound {bound})"
    );
    assert!(
        bound < flood as u64,
        "the DRR bound {bound} must beat FIFO's {flood}-item wait"
    );
    println!(
        "fairness check: victim saw {foreign} foreign items (DRR bound {bound}, \
         FIFO would be {flood}) ✓"
    );

    // Scenario — cross-tenant leak: denied, audited, and the verdict
    // reproducible from the commit log alone.
    let leak = run_leak();
    assert!(leak.denied, "leak attempt must be denied");
    assert!(leak.audited, "denial must be audited");
    assert!(leak.replay_clean && leak.digest_match, "replay must agree");
    assert_eq!(
        leak.attacker_grants_in_log, 0,
        "no segment view was ever granted to the attacker"
    );
    assert!(
        leak.victim_grants_in_log > 0,
        "the victim's own views are in the log (the grant table is live)"
    );
    println!(
        "leak check: denied + audited ({} denials), replay digest-identical, \
         {} attacker grants vs {} victim grants in the log ✓",
        leak.denials_audited, leak.attacker_grants_in_log, leak.victim_grants_in_log
    );

    let json = to_json(&rows, fairness, &leak);
    write_artifact("BENCH_multitenant.json", &json);
    println!("wrote BENCH_multitenant.json ({} scales)", rows.len());
}
