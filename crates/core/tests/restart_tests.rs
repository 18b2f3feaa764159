//! Regression tests for the supervised agent-restart path: crash
//! cleanup (reaping, shm-view revocation), snapshot-restore failure
//! handling, seal-failure handling, restart budgets, warm spares,
//! incremental snapshots — and a crash-storm property test holding the
//! exactly-once and audit-accounting invariants under random crash
//! points.

use freepart::{AuditRecord, CallError, Policy, RestartBudget, Runtime};
use freepart_frameworks::exec::CAMERA_FRAME_LEN;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, ExploitAction, ExploitPayload, ObjectKind, Value};
use freepart_simos::device::Camera;
use freepart_simos::FaultKind;
use proptest::prelude::*;

fn seed_image(rt: &mut Runtime, path: &str) {
    let img = Image::new(16, 16, 3);
    rt.kernel.fs.put(path, fileio::encode_image(&img, None));
}

fn seed_evil(rt: &mut Runtime, path: &str) {
    let img = Image::new(16, 16, 3);
    let payload = ExploitPayload {
        cve: "CVE-2017-14136".into(),
        actions: vec![ExploitAction::CrashSelf],
    };
    rt.kernel
        .fs
        .put(path, fileio::encode_image(&img, Some(&payload)));
}

/// A tight budget that never refills within a test's virtual lifetime.
fn tight_budget(burst: u32) -> RestartBudget {
    RestartBudget {
        burst,
        refill_ns: 1 << 40,
        backoff_ns: 100,
    }
}

// ----------------------------------------------------------------------
// Crash cleanup: the reap-on-respawn path (bugfix: `restart_agent_on`
// used to leak the crashed pid's address space and shm views forever).
// ----------------------------------------------------------------------

#[test]
fn restart_reaps_the_corpse_and_revokes_its_shm_views() {
    // Shm-threshold 1 so even a small Mat rides a segment and the dead
    // agent holds revocable views when it crashes.
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            shm_threshold: Some(1),
            ..Policy::freepart()
        },
    );
    rt.enable_tracing();
    seed_image(&mut rt, "/ok.simg");
    // The cross-agent move (loading → processing) promotes the payload
    // into a segment and hands the processing agent a view.
    let img = rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    rt.call("cv2.GaussianBlur", &[img]).unwrap();
    let processing = rt.partition_of(rt.registry().id_of("cv2.GaussianBlur").unwrap());
    let old_pid = rt.agent(processing).unwrap().pid;
    assert!(
        rt.kernel
            .shm_segments()
            .any(|(_, s)| s.grant_of(old_pid).is_some()),
        "the agent held at least one live shm view before the crash"
    );
    rt.kernel.deliver_fault(old_pid, FaultKind::Abort, None);
    let img = rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    rt.call("cv2.GaussianBlur", &[img]).unwrap();
    // The corpse is gone from the kernel entirely...
    assert!(rt.kernel.process(old_pid).is_err(), "pid reaped");
    assert!(rt.kernel.metrics().reaps >= 1);
    // ...including every grant/map entry it held, with the revocations
    // audited like any temporal-grant teardown.
    for (id, seg) in rt.kernel.shm_segments() {
        assert_eq!(seg.grant_of(old_pid), None, "stale grant on {id}");
        assert!(!seg.is_mapped(old_pid), "stale mapping on {id}");
    }
    assert!(
        rt.tracer()
            .audit_log()
            .iter()
            .any(|r| matches!(r, AuditRecord::ShmRevoke { pid, .. } if *pid == old_pid)),
        "reaping audits the revoked views"
    );
}

#[test]
fn a_thousand_restarts_leak_no_pages_and_no_stale_grants() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_shm());
    seed_image(&mut rt, "/ok.simg");
    let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
    // Warm-up pass so the steady-state page population (host pages, live
    // agents, already-loaded objects) is established before we measure.
    rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    let mut high_water = 0u64;
    for round in 0..1000 {
        let pid = rt.agent(loading).unwrap().pid;
        rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
        rt.call("cv2.imread", &[Value::from("/ok.simg")])
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        if round == 10 {
            high_water = rt.kernel.total_pages();
        }
    }
    assert!(rt.stats().restarts >= 1000);
    assert!(rt.kernel.metrics().reaps >= 1000, "every corpse was reaped");
    // Kernel pages stay bounded: the dead address spaces really free.
    // (Without reaping this grows by several pages per restart.)
    assert!(
        rt.kernel.total_pages() <= high_water + 64,
        "pages grew from {high_water} to {} over 1000 restarts",
        rt.kernel.total_pages()
    );
    // No segment anywhere holds a grant or mapping for a dead pid.
    for (id, seg) in rt.kernel.shm_segments() {
        for (pid, _) in seg.grants() {
            assert!(rt.kernel.is_running(pid), "stale grant for {pid} on {id}");
        }
    }
}

// ----------------------------------------------------------------------
// Snapshot-path bugfixes: retirement with the agent record gone, and
// restore failures that used to leave `meta.home` dangling at a dead
// pid.
// ----------------------------------------------------------------------

#[test]
fn retirement_survives_a_partition_degraded_with_calls_in_flight() {
    // snapshot_interval 1 puts the snapshot cadence on every retirement
    // — the exact path that used to panic via `self.agents[&partition]`
    // when the supervisor had removed the agent record mid-flight.
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            snapshot_interval: 1,
            restart_budget: Some(tight_budget(1)),
            ..Policy::freepart()
        },
    );
    rt.enable_tracing();
    seed_image(&mut rt, "/ok.simg");
    seed_evil(&mut rt, "/evil.simg");
    let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
    // A healthy call left in flight (executed agent-side, not retired).
    let healthy = rt
        .call_async("cv2.imread", &[Value::from("/ok.simg")])
        .unwrap();
    // The adversary burns the only restart token (crash → restart →
    // retry crashes again)...
    let crashed = rt
        .call_async("cv2.imread", &[Value::from("/evil.simg")])
        .unwrap();
    // ...and the next call finds the bucket empty: the partition
    // degrades, the agent record is removed, the corpse reaped.
    let err = rt
        .call("cv2.imread", &[Value::from("/ok.simg")])
        .unwrap_err();
    assert!(matches!(err, CallError::AgentUnavailable(p) if p == loading));
    assert!(rt.is_degraded(loading));
    // Retiring the in-flight calls now runs with no agent record — this
    // panicked before the fix; the healthy call's result must survive.
    let v = rt.wait(healthy).expect("completed before the storm");
    assert!(v.as_obj().is_some());
    assert!(matches!(
        rt.wait(crashed).unwrap_err(),
        CallError::AgentCrashed(_)
    ));
    assert!(rt.tracer().audit_log().iter().any(
        |r| matches!(r, AuditRecord::RestartDenied { partition, .. } if *partition == loading)
    ));
}

#[test]
fn failed_restore_audits_quarantines_and_never_dangles() {
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            snapshot_interval: 1,
            ..Policy::freepart()
        },
    );
    rt.enable_tracing();
    rt.kernel.camera = Some(Camera::new(5, CAMERA_FRAME_LEN));
    let cap = rt.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();
    rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    let cap_id = cap.as_obj().unwrap();
    let loading = rt.partition_of(rt.registry().id_of("cv2.VideoCapture.read").unwrap());
    let pid = rt.agent(loading).unwrap().pid;
    // Force the next restart's restore to fail, then crash the agent.
    rt.inject_restore_failure(loading);
    rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
    rt.restart_agent(loading);
    // The failure is audited...
    assert!(
        rt.tracer()
            .audit_log()
            .iter()
            .any(|r| matches!(r, AuditRecord::SnapshotLost { object, .. } if *object == cap_id)),
        "restore failure must be audited"
    );
    // ...the object is fully quarantined (no dangling `home` at the
    // reaped pid)...
    assert!(rt.objects.meta(cap_id).is_none(), "no dangling metadata");
    // ...and later uses fail loudly instead of resolving against a
    // corpse.
    let err = rt
        .call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap_err();
    assert!(
        matches!(err, CallError::StateLost(id) if id == cap_id),
        "{err:?}"
    );
    // The partition itself is healthy — only the lost object is gone.
    seed_image(&mut rt, "/ok.simg");
    rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
}

// ----------------------------------------------------------------------
// Seal-failure bugfix: `install_filter` failing silently left the agent
// running unsandboxed with `sealed = false`.
// ----------------------------------------------------------------------

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "install_filter failed")]
fn seal_failure_panics_in_debug_builds() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    seed_image(&mut rt, "/ok.simg");
    let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
    let pid = rt.agent(loading).unwrap().pid;
    // An already-locked process configuration makes `install_filter`
    // return `Eperm` when the first completed call tries to seal.
    rt.kernel.set_no_new_privs(pid).unwrap();
    let _ = rt.call("cv2.imread", &[Value::from("/ok.simg")]);
}

#[cfg(not(debug_assertions))]
#[test]
fn seal_failure_degrades_and_audits_in_release_builds() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.enable_tracing();
    seed_image(&mut rt, "/ok.simg");
    let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
    let pid = rt.agent(loading).unwrap().pid;
    rt.kernel.set_no_new_privs(pid).unwrap();
    // The call itself completed before sealing, so it succeeds...
    rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    // ...but the partition must not keep serving unsandboxed: it is
    // degraded to fail-fast and the failure audited.
    assert!(rt.is_degraded(loading));
    assert!(rt
        .tracer()
        .audit_log()
        .iter()
        .any(|r| matches!(r, AuditRecord::SealFailed { partition, .. } if *partition == loading)));
    let err = rt
        .call("cv2.imread", &[Value::from("/ok.simg")])
        .unwrap_err();
    assert!(matches!(err, CallError::AgentUnavailable(p) if p == loading));
}

// ----------------------------------------------------------------------
// Supervision: restart budgets and warm spares.
// ----------------------------------------------------------------------

#[test]
fn budget_exhaustion_degrades_audits_and_fails_fast() {
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            restart_budget: Some(tight_budget(2)),
            ..Policy::freepart()
        },
    );
    rt.enable_tracing();
    seed_image(&mut rt, "/ok.simg");
    seed_evil(&mut rt, "/evil.simg");
    let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
    // Each adversarial call crashes, restarts (one token), and crashes
    // the retry too; the third restart attempt finds the bucket empty.
    for _ in 0..2 {
        let _ = rt.call("cv2.imread", &[Value::from("/evil.simg")]);
    }
    assert!(rt.is_degraded(loading));
    assert_eq!(rt.degraded_partitions(), vec![loading]);
    assert_eq!(rt.stats().restarts, 2, "exactly `burst` respawns granted");
    assert!(rt
        .tracer()
        .audit_log()
        .iter()
        .any(|r| matches!(r, AuditRecord::RestartDenied { .. })));
    // Degraded = fail-fast, not a respawn loop — and no corpse leaks.
    let err = rt
        .call("cv2.imread", &[Value::from("/ok.simg")])
        .unwrap_err();
    assert!(matches!(err, CallError::AgentUnavailable(p) if p == loading));
    assert!(rt.kernel.metrics().reaps >= 3, "denied restart still reaps");
    // Other partitions never notice.
    rt.call("cv2.pollKey", &[]).unwrap();
}

#[test]
fn warm_spares_are_adopted_and_beat_cold_restarts() {
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            warm_spares: 2,
            ..Policy::freepart()
        },
    );
    seed_image(&mut rt, "/ok.simg");
    rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
    assert_eq!(rt.spare_count(loading), 2, "pre-forked at install");

    let restart_cost = |rt: &mut Runtime| {
        let pid = rt.agent(loading).unwrap().pid;
        rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
        let t0 = rt.kernel.now_ns();
        rt.restart_agent(loading);
        rt.kernel.now_ns() - t0
    };
    let warm = restart_cost(&mut rt);
    assert_eq!(rt.spare_count(loading), 1, "restart consumed a spare");
    let _ = restart_cost(&mut rt);
    assert_eq!(rt.spare_count(loading), 0);
    // Pool empty: the third restart pays the cold spawn path.
    let cold = restart_cost(&mut rt);
    assert!(
        warm < cold,
        "adopting a pre-forked spare ({warm} ns) must beat a cold spawn ({cold} ns)"
    );
    // Refilling is an explicit, off-critical-path choice.
    rt.refill_spares();
    assert_eq!(rt.spare_count(loading), 2);
    // And the partition serves correctly through all of it.
    rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
}

// ----------------------------------------------------------------------
// Incremental snapshots.
// ----------------------------------------------------------------------

#[test]
fn incremental_snapshots_skip_clean_objects_by_write_epoch() {
    let run = |incremental: bool| {
        let mut rt = Runtime::install(
            standard_registry(),
            Policy {
                snapshot_interval: 1,
                incremental_snapshots: incremental,
                ..Policy::freepart()
            },
        );
        seed_image(&mut rt, "/ok.simg");
        rt.kernel.fs.put("/c.xml", vec![7; 256]);
        // A stateful classifier homed in the loading agent...
        rt.call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
            .unwrap();
        // ...then several more loading-partition calls, each triggering
        // a snapshot round over the (unchanged) classifier.
        for _ in 0..4 {
            rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
        }
        rt.kernel.metrics()
    };
    let full = run(false);
    let inc = run(true);
    assert_eq!(full.snapshot_objects_skipped, 0, "full mode never skips");
    assert!(
        inc.snapshot_objects_skipped >= 3,
        "clean rounds skip the copy (skipped {})",
        inc.snapshot_objects_skipped
    );
    assert!(
        inc.snapshot_bytes_copied < full.snapshot_bytes_copied,
        "incremental ({}) must copy fewer bytes than full ({})",
        inc.snapshot_bytes_copied,
        full.snapshot_bytes_copied
    );
    assert!(
        inc.snapshot_bytes_copied > 0,
        "the first round still copies"
    );
}

#[test]
fn restored_objects_work_after_an_incremental_snapshot_cycle() {
    // End-to-end: snapshot (incremental), crash, restore, use.
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            snapshot_interval: 1,
            ..Policy::freepart()
        },
    );
    rt.kernel.camera = Some(Camera::new(9, CAMERA_FRAME_LEN));
    let cap = rt.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();
    rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    seed_image(&mut rt, "/ok.simg");
    // Clean snapshot rounds over the capture...
    for _ in 0..3 {
        rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    }
    let loading = rt.partition_of(rt.registry().id_of("cv2.VideoCapture.read").unwrap());
    let pid = rt.agent(loading).unwrap().pid;
    rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
    // ...and the capture still reads after the crash: the reused bytes
    // restore exactly like freshly-copied ones.
    rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    assert!(rt.stats().restarts >= 1);
}

#[test]
fn a_segment_backed_model_restores_with_exactly_one_placement() {
    for segment_dies in [false, true] {
        // Shm-threshold 1: the model's first move into the processing
        // agent promotes it into a segment homed there, and every call
        // snapshots.
        let mut rt = Runtime::install(
            standard_registry(),
            Policy {
                shm_threshold: Some(1),
                snapshot_interval: 1,
                ..Policy::freepart()
            },
        );
        let model = rt.host_object(ObjectKind::Model { layers: 2 }, "model", &[1; 64]);
        let forward = |rt: &mut Runtime| {
            let x = rt.host_object(ObjectKind::Tensor { shape: vec![4, 4] }, "x", &[2; 64]);
            rt.call("caffe.Net.Forward", &[Value::Obj(model), Value::Obj(x)])
        };
        forward(&mut rt).unwrap();
        let processing = rt.partition_of(rt.registry().id_of("caffe.Net.Forward").unwrap());
        let pid = rt.agent(processing).unwrap().pid;
        let meta = rt.objects.meta(model).unwrap();
        assert!(meta.buffer.is_none(), "{meta:?}");
        assert_eq!(meta.home, pid);
        let (seg, _) = meta.shm.expect("promoted into a segment");
        rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
        if segment_dies {
            rt.kernel.shm_destroy(seg);
        }
        // A surviving segment is restored in place, with a view for the
        // respawned agent; a dead one falls back to a fresh buffer.
        // Either way both calls run instead of faulting in a loop.
        for round in 0..2 {
            let got = forward(&mut rt);
            assert!(got.is_ok(), "round {round}: {got:?}");
        }
        assert_eq!(rt.stats().restarts, 1, "one restart, no fault loop");
        // A state transition sweeps the segment index, which debug
        // builds check against the store.
        seed_image(&mut rt, "/ok.simg");
        rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
        let meta = rt.objects.meta(model).unwrap();
        assert_eq!(meta.shm.is_some(), !segment_dies, "{meta:?}");
        assert_eq!(meta.buffer.is_some(), segment_dies, "{meta:?}");
        assert_eq!(rt.fetch_bytes(model).unwrap(), vec![1; 64]);
    }
}

// ----------------------------------------------------------------------
// Crash-storm property: for ANY pattern of response-window crashes, any
// batching window, and either transport, replay stays exactly-once
// against the device ground truth and the audit log accounts for every
// protected page.
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn crash_storms_preserve_exactly_once_and_audit_accounting(
        crashes in proptest::collection::vec(any::<bool>(), 1..10),
        window in 0usize..3,
        shm in any::<bool>(),
    ) {
        let base = if shm { Policy::freepart_shm() } else { Policy::freepart() };
        let policy = Policy {
            batch_window: (window > 0).then_some(window * 4),
            ..base
        };
        let mut rt = Runtime::install(standard_registry(), policy);
        rt.enable_tracing();
        rt.kernel.camera = Some(Camera::new(11, CAMERA_FRAME_LEN));
        seed_image(&mut rt, "/ok.simg");
        let cap = rt.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();
        let loading = rt.partition_of(rt.registry().id_of("cv2.VideoCapture.read").unwrap());
        let mut successful_reads = 0u64;
        for (round, crash) in crashes.iter().enumerate() {
            // Mixed traffic so transitions, migrations, and (optionally)
            // segments and batches are all in play while agents die.
            let img = rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
            rt.call("cv2.GaussianBlur", &[img]).unwrap();
            if *crash {
                // Kill the agent after execution, before the response —
                // the journal-replay window.
                rt.inject_crash_before_response(loading);
            }
            let got = rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap));
            prop_assert!(got.is_ok(), "round {round}: {got:?}");
            successful_reads += 1;
        }
        rt.drain_inflight();
        // Exactly-once: every Ok maps 1:1 onto a served device frame,
        // crashes and re-deliveries included.
        let served = rt.kernel.camera.as_ref().map_or(0, Camera::frames_served);
        prop_assert_eq!(served, successful_reads, "lost or double-consumed frames");
        // Audit completeness: every mprotect page transition the kernel
        // counted — transition storms, migration reapplies, restart
        // re-protections — is accounted for in the audit log.
        let audited: u64 = rt.tracer().audit_log().iter().map(AuditRecord::pages).sum();
        prop_assert_eq!(audited, rt.kernel.metrics().protected_pages);
        // And the crashes really happened (when any were requested).
        if crashes.iter().any(|c| *c) {
            prop_assert!(rt.stats().restarts > 0);
            prop_assert!(rt.kernel.metrics().reaps > 0);
        }
        prop_assert!(rt.kernel.is_running(rt.host_pid()));
    }
}
