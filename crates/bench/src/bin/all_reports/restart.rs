//! Agent **restart path** benchmark: what a crash costs, and what the
//! supervisor hardening buys back.
//!
//! Three experiments, all in deterministic virtual time:
//!
//! 1. **Restart latency** — cold respawn vs adopting a pre-forked warm
//!    spare (`Policy::warm_spares`), measured around `restart_agent`.
//! 2. **Snapshot traffic** — the drone control loop with a cascade
//!    detector in the loop, run with full-copy vs incremental
//!    (write-epoch) snapshots; reports bytes copied and clean-object
//!    skips.
//! 3. **Crash storm** — the `freepart-apps` storm scenario under the
//!    supervised policy, judged on its three verdicts (exactly-once
//!    replay, bounded healthy p99, DoS detected + audited).
//!
//! Results land in `BENCH_restart.json` at the repo root (hand-rolled
//! JSON; the suite carries no serde) and as tables on stdout, under
//! `all_reports`' `restart` banner.

use freepart::{Policy, RestartBudget, Runtime};
use freepart_apps::storm::{judge_crash_storm, StormConfig};
use freepart_bench::{fast_install, write_artifact, Table};
use freepart_frameworks::exec::CAMERA_FRAME_LEN;
use freepart_frameworks::{fileio, image::Image, Value};
use freepart_simos::{Camera, FaultKind};

/// Measured cost of one `restart_agent` on the loading partition.
fn restart_cost_ns(rt: &mut Runtime) -> u64 {
    let loading = rt.partition_of(rt.registry().id_of("cv2.imread").expect("in catalog"));
    let pid = rt.agent(loading).expect("agent up").pid;
    rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
    let t0 = rt.kernel.now_ns();
    rt.restart_agent(loading);
    rt.kernel.now_ns() - t0
}

/// Sets up a runtime with one served call (so the agent is sealed and
/// the restart path includes the reseal) and measures a restart.
fn measure_restart(policy: Policy) -> u64 {
    let mut rt = fast_install(policy);
    rt.kernel.fs.put(
        "/in.simg",
        fileio::encode_image(&Image::new(16, 16, 3), None),
    );
    rt.call("cv2.imread", &[Value::from("/in.simg")])
        .expect("benign load");
    restart_cost_ns(&mut rt)
}

/// Drone control loop with a cascade detector: per frame a capture
/// read, a color conversion, and a `detectMultiScale` against a model
/// that never changes — the workload incremental snapshots are built
/// for. Returns `(bytes_copied, objects_skipped, frames)`.
fn drone_detector_snapshots(incremental: bool, frames: u32) -> (u64, u64, u32) {
    let mut rt = fast_install(Policy {
        snapshot_interval: 4,
        incremental_snapshots: incremental,
        ..Policy::freepart()
    });
    rt.kernel.camera = Some(Camera::new(42, CAMERA_FRAME_LEN));
    rt.kernel.fs.put("/cascade.xml", vec![3u8; 64 * 1024]);
    let clf = rt
        .call("cv2.CascadeClassifier.load", &[Value::from("/cascade.xml")])
        .expect("model loads");
    let cap = rt
        .call("cv2.VideoCapture", &[Value::I64(0)])
        .expect("capture opens");
    for _ in 0..frames {
        let frame = rt
            .call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
            .expect("frame");
        let gray = rt.call("cv2.cvtColor", &[frame]).expect("convert");
        rt.call(
            "cv2.CascadeClassifier.detectMultiScale",
            &[clf.clone(), gray],
        )
        .expect("detect");
    }
    let m = rt.kernel.metrics();
    (m.snapshot_bytes_copied, m.snapshot_objects_skipped, frames)
}

/// The restart-latency, snapshot-traffic and crash-storm legs with
/// their bars, and `BENCH_restart.json`.
pub fn run() {
    // ------------------------------------------------------------------
    // 1. Restart latency: cold vs warm spare.
    // ------------------------------------------------------------------
    let cold_ns = measure_restart(Policy::freepart());
    let warm_ns = measure_restart(Policy {
        warm_spares: 2,
        ..Policy::freepart()
    });
    let mut lat = Table::new(["Restart", "Time (µs)"]);
    lat.row(["cold spawn".into(), format!("{:.3}", cold_ns as f64 / 1e3)]);
    lat.row(["warm spare".into(), format!("{:.3}", warm_ns as f64 / 1e3)]);
    lat.print("Agent restart latency (virtual time)");
    assert!(
        warm_ns < cold_ns,
        "warm spare regressed: {warm_ns} ns warm vs {cold_ns} ns cold"
    );
    println!("warm-spare check: {warm_ns} ns < {cold_ns} ns cold ✓");

    // ------------------------------------------------------------------
    // 2. Snapshot traffic: full copies vs write-epoch incremental.
    // ------------------------------------------------------------------
    let frames = 12;
    let (full_bytes, full_skips, _) = drone_detector_snapshots(false, frames);
    let (inc_bytes, inc_skips, _) = drone_detector_snapshots(true, frames);
    let mut snap = Table::new(["Mode", "Bytes copied", "Objects skipped"]);
    snap.row([
        "full copy".into(),
        full_bytes.to_string(),
        full_skips.to_string(),
    ]);
    snap.row([
        "incremental".into(),
        inc_bytes.to_string(),
        inc_skips.to_string(),
    ]);
    snap.print(&format!(
        "Snapshot traffic, drone+detector ({frames} frames)"
    ));
    assert!(
        inc_bytes < full_bytes,
        "incremental regressed: {inc_bytes} bytes vs {full_bytes} full"
    );
    assert!(inc_skips > 0, "no clean object was ever skipped");
    assert_eq!(full_skips, 0, "full mode must never skip");
    println!("incremental check: {inc_bytes} bytes < {full_bytes} full, {inc_skips} skips ✓");

    // ------------------------------------------------------------------
    // 3. Crash storm under supervision.
    // ------------------------------------------------------------------
    let cfg = StormConfig {
        rounds: 24,
        crash_every: 5,
        adversary: true,
        policy: Policy {
            batch_window: Some(Policy::DEFAULT_BATCH_WINDOW),
            restart_budget: Some(RestartBudget::default()),
            warm_spares: 2,
            ..Policy::freepart()
        },
    };
    let (baseline, storm, verdicts) = judge_crash_storm(&cfg);
    let mut st = Table::new(["Metric", "Baseline", "Storm"]);
    st.row([
        "capture reads ok".into(),
        baseline.successful_reads.to_string(),
        storm.successful_reads.to_string(),
    ]);
    st.row([
        "healthy calls ok".into(),
        baseline.healthy_ok.to_string(),
        storm.healthy_ok.to_string(),
    ]);
    st.row([
        "healthy p99 (ns)".into(),
        baseline.healthy_p99_ns.to_string(),
        storm.healthy_p99_ns.to_string(),
    ]);
    st.row([
        "restarts".into(),
        baseline.restarts.to_string(),
        storm.restarts.to_string(),
    ]);
    st.row([
        "degraded partitions".into(),
        baseline.degraded.len().to_string(),
        storm.degraded.len().to_string(),
    ]);
    st.print("Crash storm (24 rounds, supervised policy)");
    assert!(
        verdicts.all_prevented(),
        "storm verdicts went the attacker's way: {verdicts:?}"
    );
    assert_eq!(
        storm.frames_served, storm.successful_reads,
        "replay must stay exactly-once under the storm"
    );
    println!(
        "storm check: exactly-once ({} frames), p99 {} ns vs {} ns baseline, DoS audited ✓",
        storm.frames_served, storm.healthy_p99_ns, baseline.healthy_p99_ns
    );

    // ------------------------------------------------------------------
    // BENCH_restart.json
    // ------------------------------------------------------------------
    let json = format!(
        "{{\n  \"restart_latency\": {{\"cold_ns\": {cold_ns}, \"warm_ns\": {warm_ns}}},\n  \
         \"snapshots\": {{\"frames\": {frames}, \"full_bytes_copied\": {full_bytes}, \
         \"incremental_bytes_copied\": {inc_bytes}, \"incremental_objects_skipped\": {inc_skips}}},\n  \
         \"storm\": {{\"rounds\": {}, \"successful_reads\": {}, \"frames_served\": {}, \
         \"healthy_ok\": {}, \"baseline_healthy_ok\": {}, \"healthy_p99_ns\": {}, \
         \"baseline_p99_ns\": {}, \"restarts\": {}, \"degraded_partitions\": {}, \
         \"verdicts\": {{\"exactly_once\": {}, \"latency_bounded\": {}, \"dos_detected\": {}}}}}\n}}\n",
        cfg.rounds,
        storm.successful_reads,
        storm.frames_served,
        storm.healthy_ok,
        baseline.healthy_ok,
        storm.healthy_p99_ns,
        baseline.healthy_p99_ns,
        storm.restarts,
        storm.degraded.len(),
        verdicts.exactly_once.prevented(),
        verdicts.latency_bounded.prevented(),
        verdicts.dos_detected.prevented(),
    );
    write_artifact("BENCH_restart.json", &json);
    println!("wrote BENCH_restart.json");
}
