//! Regression tests for the exactly-once replay path, post-restart
//! re-protection, and the deduplicated protected-object gauge.

use freepart::{CallError, FrameworkState, Policy, Runtime};
use freepart_frameworks::api::ApiType;
use freepart_frameworks::exec::CAMERA_FRAME_LEN;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, Value};
use freepart_simos::device::Camera;
use freepart_simos::{FaultKind, Perms, SimError};

fn seed_image(rt: &mut Runtime, path: &str) {
    let img = Image::new(16, 16, 3);
    rt.kernel.fs.put(path, fileio::encode_image(&img, None));
}

#[test]
fn crash_in_response_window_replays_instead_of_reexecuting() {
    // The agent completes a call, then dies before the host sees the
    // response. The retry must re-send the *same* seq and be answered
    // from the completion journal — observable on the camera, whose
    // frame counter only moves when `read` actually executes.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.kernel.camera = Some(Camera::new(7, CAMERA_FRAME_LEN));
    let cap = rt.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();
    rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    assert_eq!(rt.kernel.camera.as_ref().unwrap().frames_served(), 1);

    let read = rt.registry().id_of("cv2.VideoCapture.read").unwrap();
    let partition = rt.partition_of(read);
    rt.inject_crash_before_response(partition);
    let rpc_before = rt.stats().rpc_calls;
    let restarts_before = rt.stats().restarts;

    let retried = rt.call("cv2.VideoCapture.read", &[cap]);
    assert!(retried.is_ok(), "{retried:?}");
    // Exactly once: the camera advanced by one frame, not two.
    assert_eq!(rt.kernel.camera.as_ref().unwrap().frames_served(), 2);
    // The agent really did crash and come back.
    assert_eq!(rt.stats().restarts, restarts_before + 1);
    // One logical call, one entry in the call accounting.
    assert_eq!(rt.stats().rpc_calls, rpc_before + 1);
}

#[test]
fn completion_journal_survives_agent_restart() {
    // Same window, but restart explicitly between the crash and the
    // retry: the journal must live with the rebound channel, not the
    // dead process.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.kernel.camera = Some(Camera::new(9, CAMERA_FRAME_LEN));
    let cap = rt.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();
    let read = rt.registry().id_of("cv2.VideoCapture.read").unwrap();
    let partition = rt.partition_of(read);
    rt.inject_crash_before_response(partition);
    assert!(rt
        .call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .is_ok());
    let served = rt.kernel.camera.as_ref().unwrap().frames_served();

    // A later, *new* call is not a replay — it executes normally.
    assert!(rt.call("cv2.VideoCapture.read", &[cap]).is_ok());
    assert_eq!(
        rt.kernel.camera.as_ref().unwrap().frames_served(),
        served + 1
    );
}

#[test]
fn restart_reapplies_protection_to_restored_snapshots() {
    // A protected stateful object restored from a snapshot lands in
    // fresh RW pages; restart must re-lock it, or the crash would quietly
    // lift temporal protection.
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            snapshot_interval: 1,
            ..Policy::freepart()
        },
    );
    seed_image(&mut rt, "/in.simg");
    rt.kernel.fs.put("/c.xml", vec![5; 64]);
    let clf = rt
        .call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
        .unwrap();
    let clf_id = clf.as_obj().unwrap();
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    // Loading → Processing: the classifier locks read-only.
    rt.call("cv2.GaussianBlur", &[img]).unwrap();
    assert!(rt.is_protected(clf_id));
    let meta = rt.objects.meta(clf_id).unwrap();
    let (addr, _) = meta.buffer.unwrap();
    let home = meta.home;
    assert!(matches!(
        rt.kernel.mem_write(home, addr, &[0xAA]),
        Err(SimError::Fault(_))
    ));

    // Kill the loading agent and respawn it; the snapshot restores the
    // classifier payload into new, writable pages.
    let loading = rt.partition_of(rt.registry().id_of("cv2.CascadeClassifier.load").unwrap());
    let pid = rt.agent(loading).unwrap().pid;
    rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
    rt.restart_agent(loading);

    let meta = rt.objects.meta(clf_id).unwrap();
    let (new_addr, _) = meta.buffer.expect("snapshot restored the payload");
    let new_home = meta.home;
    assert_ne!(new_home, pid, "restored into the respawned process");
    // The regression: without reapply-after-restore this write succeeds.
    assert!(
        matches!(
            rt.kernel.mem_write(new_home, new_addr, &[0xAA]),
            Err(SimError::Fault(_))
        ),
        "restored snapshot must still be read-only"
    );
    assert!(rt.is_protected(clf_id));
}

#[test]
fn transition_while_the_home_is_dead_locks_the_restored_copy() {
    // The Loading → Processing transition is taken while the classifier's
    // home agent is dead. No page can be protected then, but the lock
    // must still be recorded, so the snapshot restored by the restart
    // comes back read-only.
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            snapshot_interval: 1,
            ..Policy::freepart()
        },
    );
    seed_image(&mut rt, "/in.simg");
    rt.kernel.fs.put("/c.xml", vec![5; 64]);
    let clf = rt
        .call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
        .unwrap();
    let clf_id = clf.as_obj().unwrap();
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let img_id = img.as_obj().unwrap();
    let loading = rt.partition_of(rt.registry().id_of("cv2.CascadeClassifier.load").unwrap());
    let pid = rt.agent(loading).unwrap().pid;
    rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
    // The blur's input died with the agent, but the state still moves.
    assert!(matches!(
        rt.call("cv2.GaussianBlur", &[img]),
        Err(CallError::StateLost(_))
    ));
    assert_eq!(
        rt.current_state(),
        FrameworkState::InType(ApiType::DataProcessing)
    );
    rt.restart_agent(loading);

    let meta = rt.objects.meta(clf_id).unwrap();
    let (addr, len) = meta.buffer.expect("snapshot restored the payload");
    assert!(
        rt.kernel.perms_match(meta.home, addr, len, Perms::R),
        "restored classifier must be read-only"
    );
    assert!(rt.is_protected(clf_id));
    // The image had no snapshot, so the restart cannot bring it back. It
    // keeps the lock recorded for it while its home was dead, as an
    // object locked before the crash would: both objects count.
    assert!(rt.objects.meta(img_id).is_some_and(|m| m.home == pid));
    assert!(rt.is_protected(img_id));
    assert_eq!(rt.stats().protected_objects, 2);
}

#[test]
fn protected_gauge_counts_distinct_objects_across_threads() {
    // Two threads protecting the same host-annotated object is one
    // protected object, not two.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    seed_image(&mut rt, "/a.simg");
    let t = rt.spawn_thread();
    let cfg = rt.host_data("self.config", &[1, 2, 3, 4]);

    // Initialization → Loading on both threads locks `cfg` on each
    // thread's state machine.
    rt.call("cv2.imread", &[Value::from("/a.simg")]).unwrap();
    rt.call_on(t, "cv2.imread", &[Value::from("/a.simg")])
        .unwrap();
    assert!(rt.is_protected(cfg));
    let threads_protecting = [freepart::ThreadId::MAIN, t]
        .iter()
        .filter(|&&th| {
            rt.state_of(th)
                == freepart::FrameworkState::InType(freepart_frameworks::api::ApiType::DataLoading)
        })
        .count();
    assert_eq!(threads_protecting, 2, "both threads transitioned");
    // The gauge is a distinct count: cfg once, plus nothing else defined
    // before the transitions.
    assert_eq!(rt.stats().protected_objects, 1);
}

#[test]
fn routing_table_matches_the_partition_plan() {
    // The precomputed ApiId → PartitionId table must agree with the
    // plan's per-call answer for every API in the catalog.
    let rt = Runtime::install(standard_registry(), Policy::freepart());
    let reg = standard_registry();
    let plan = Policy::freepart().plan;
    for spec in reg.iter() {
        let t = rt.report().type_of(spec.id);
        assert_eq!(
            rt.partition_of(spec.id),
            plan.partition_of(spec.id, t),
            "routing table diverged for {}",
            spec.name
        );
    }
}
