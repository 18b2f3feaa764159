//! Batched hooked-call submission and differential re-protection:
//! crash-mid-batch stays exactly-once per seq, no batch straddles a
//! framework-state transition, batch frames carry their members in seq
//! order on the wire, batch spans enclose their member call spans in
//! the exported trace, and mprotect accounting only ever
//! charges pages whose permissions actually change — while post-restart
//! restores still get the full (non-differential) re-protection.

use freepart::rpc::{BatchRequest, BatchResponse, Request, Response};
use freepart::{
    state, AuditRecord, FlushReason, Policy, Runtime, SpanPhase, TemporalPlane, ThreadId,
};
use freepart_frameworks::api::ApiType;
use freepart_frameworks::exec::CAMERA_FRAME_LEN;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, ObjectKind, ObjectStore, Value};
use freepart_simos::device::Camera;
use freepart_simos::{CommitOp, FaultKind, Kernel, Perms, SimError, PAGE_SIZE};

fn seed_image(rt: &mut Runtime, path: &str) {
    rt.kernel
        .fs
        .put(path, fileio::encode_image(&Image::new(12, 12, 3), None));
}

/// A small async filter chain that keeps batches open (promise peeks
/// without retiring); `rounds` imread→filter groups alternate Loading
/// and Processing so transitions punctuate the batches.
fn run_batched_chain(rt: &mut Runtime, rounds: u32) {
    for i in 0..rounds {
        let path = format!("/in-{i}.simg");
        seed_image(rt, &path);
        let h = rt.call_async("cv2.imread", &[Value::Str(path)]).unwrap();
        let img = rt.promise(h).unwrap();
        let h = rt.call_async("cv2.cvtColor", &[img]).unwrap();
        let gray = rt.promise(h).unwrap();
        let h = rt.call_async("cv2.GaussianBlur", &[gray]).unwrap();
        let smooth = rt.promise(h).unwrap();
        rt.call_async("cv2.Canny", &[smooth]).unwrap();
    }
    rt.drain_inflight();
}

#[test]
fn crash_mid_batch_replays_each_seq_exactly_once() {
    // Two reads ride in an open batch when a third one's agent crashes
    // in the response window. The retry must re-send the same seq and be
    // answered from the journal — observable on the camera, whose frame
    // counter only moves when `read` actually executes.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_batched());
    rt.kernel.camera = Some(Camera::new(7, CAMERA_FRAME_LEN));
    let cap = rt.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();

    let h1 = rt
        .call_async("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    let h2 = rt
        .call_async("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    assert_eq!(rt.in_flight(), 2, "both reads pending in the open batch");

    let read = rt.registry().id_of("cv2.VideoCapture.read").unwrap();
    let partition = rt.partition_of(read);
    rt.inject_crash_before_response(partition);
    let restarts_before = rt.stats().restarts;
    let h3 = rt
        .call_async("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();

    // The agent died after executing (and journalling) the third read;
    // the crash-retry replayed it instead of re-executing.
    assert_eq!(rt.stats().restarts, restarts_before + 1);
    assert_eq!(rt.kernel.camera.as_ref().unwrap().frames_served(), 3);

    // Retiring everything (which flushes the open batch as a hazard)
    // serves all three results without any re-execution.
    for h in [h1, h2, h3] {
        assert!(rt.wait(h).is_ok());
    }
    assert_eq!(rt.in_flight(), 0);
    assert_eq!(
        rt.kernel.camera.as_ref().unwrap().frames_served(),
        3,
        "exactly once per seq, batched or not"
    );
}

#[test]
fn no_batch_straddles_a_state_transition() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_batched());
    rt.enable_tracing();
    run_batched_chain(&mut rt, 3);

    let events = rt.tracer().events();
    let batches: Vec<_> = events
        .iter()
        .filter(|s| s.phase == SpanPhase::Batch)
        .collect();
    assert!(!batches.is_empty(), "the chain must produce batch spans");
    let transitions: Vec<u64> = rt
        .tracer()
        .audit_log()
        .iter()
        .filter_map(|r| match r {
            AuditRecord::StateTransition { at_ns, .. } => Some(*at_ns),
            _ => None,
        })
        .collect();
    assert!(
        transitions.len() >= 2,
        "the chain must alternate framework states"
    );
    // The drain barrier flushes the open batch *before* the transition
    // is observed, so no transition instant may fall inside a batch.
    for b in &batches {
        for &t in &transitions {
            assert!(
                !(b.start_ns < t && t < b.end_ns),
                "batch [{}, {}] straddles transition at {t}",
                b.start_ns,
                b.end_ns
            );
        }
    }
    // And the recorded flush reasons name the transition barrier.
    let reasons: Vec<FlushReason> = rt
        .tracer()
        .batch_flushes()
        .iter()
        .map(|(_, _, r, _)| *r)
        .collect();
    assert!(reasons.contains(&FlushReason::Transition));
}

#[test]
fn batched_frames_carry_member_seqs_in_submission_order() {
    // Read the batch frames off the recorded wire: each `BatchRequest`
    // holds consecutive, ascending member seqs, the next
    // `BatchResponse` answers the same seqs in the same order, and
    // every batched call rides in exactly one frame pair.
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            record_commits: true,
            ..Policy::freepart_batched()
        },
    );
    run_batched_chain(&mut rt, 6);
    let calls_batched = rt.kernel.metrics().calls_batched;
    let log = rt.kernel.take_commit_log().expect("recorder is on");

    let (mut open, mut members, mut frames) = (None, 0, 0);
    for rec in log.records() {
        let CommitOp::IpcSend { payload, .. } = &rec.op else {
            continue;
        };
        if let Some(batch) = BatchRequest::decode(payload) {
            assert_eq!(
                open, None,
                "a batch is answered before the next one goes out"
            );
            let seqs: Vec<u64> = batch
                .members
                .iter()
                .map(|m| Request::decode(m).expect("member request frame").seq)
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[1] == w[0] + 1),
                "member seqs are consecutive and ascending: {seqs:?}"
            );
            open = Some(seqs);
        } else if let Some(batch) = BatchResponse::decode(payload) {
            let seqs: Vec<u64> = batch
                .members
                .iter()
                .map(|m| Response::decode(m).expect("member response frame").seq)
                .collect();
            members += seqs.len() as u64;
            frames += 1;
            assert_eq!(Some(seqs), open.take(), "the response keeps member order");
        }
    }
    assert_eq!(open, None, "every batch request was answered");
    assert_eq!(
        members, calls_batched,
        "every batched call rides in one frame pair"
    );
    assert!(frames < members, "the chain coalesces multi-call batches");
}

#[test]
fn batch_spans_enclose_their_member_call_spans() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_batched());
    rt.enable_tracing();
    run_batched_chain(&mut rt, 2);

    let events = rt.tracer().events();
    let mut multi_member = 0;
    for b in events.iter().filter(|s| s.phase == SpanPhase::Batch) {
        let count = b.bytes;
        assert!(count > 0, "batch spans carry their member count");
        if count > 1 {
            multi_member += 1;
        }
        // Members are consecutive seqs ending at the span's seq.
        let first = b.seq + 1 - count;
        let members: Vec<_> = events
            .iter()
            .filter(|s| s.phase == SpanPhase::Call && (first..=b.seq).contains(&s.seq))
            .collect();
        assert_eq!(members.len() as u64, count, "every member has a call span");
        for m in members {
            assert!(
                m.start_ns >= b.start_ns && m.end_ns <= b.end_ns,
                "call {} [{}, {}] escapes batch [{}, {}]",
                m.seq,
                m.start_ns,
                m.end_ns,
                b.start_ns,
                b.end_ns
            );
            assert_eq!(m.partition, b.partition);
        }
    }
    assert!(multi_member > 0, "the chain coalesces multi-call batches");
}

#[test]
fn chrome_export_carries_batch_spans_and_flush_instants() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_batched());
    rt.enable_tracing();
    run_batched_chain(&mut rt, 2);
    let trace = rt.export_chrome_trace();
    assert!(
        trace.contains("\"name\":\"batch\""),
        "batch spans must export"
    );
    assert!(
        trace.contains("\"calls\":"),
        "batch spans carry member-call counts, not bytes"
    );
    assert!(
        trace.contains("\"cat\":\"batch\""),
        "flush instants must export"
    );
    assert!(
        trace.contains("flush:transition"),
        "instants name the flush reason"
    );
}

#[test]
fn protect_charges_only_changed_pages() {
    let mut k = Kernel::new();
    let pid = k.spawn("p");
    let mut store = ObjectStore::new();
    let obj = store
        .create_with_data(
            &mut k,
            pid,
            ObjectKind::Blob,
            "x",
            &[7u8; 2 * PAGE_SIZE as usize],
        )
        .unwrap();
    let (addr, len) = store.meta(obj).unwrap().buffer.unwrap();

    let pages0 = k.metrics().protected_pages;
    assert_eq!(k.protect(pid, &[(addr, len)], Perms::R).unwrap(), 2);
    assert_eq!(k.metrics().protected_pages, pages0 + 2);

    // Re-protecting to the same permissions is free: no pages, no time.
    let ns = k.clock().now_ns();
    assert_eq!(k.protect(pid, &[(addr, len)], Perms::R).unwrap(), 0);
    assert_eq!(k.metrics().protected_pages, pages0 + 2);
    assert_eq!(k.clock().now_ns(), ns, "a no-op mprotect charges nothing");

    // A partial diff charges exactly the changed pages.
    assert_eq!(k.protect(pid, &[(addr, PAGE_SIZE)], Perms::RW).unwrap(), 1);
    assert_eq!(
        k.protect(pid, &[(addr, len)], Perms::R).unwrap(),
        1,
        "only the page whose permissions differ is touched"
    );
    assert_eq!(k.metrics().protected_pages, pages0 + 4);
    assert!(k.perms_match(pid, addr, len, Perms::R));
}

#[test]
fn noop_transition_issues_zero_mprotects() {
    // Two application threads sharing one object: the second thread's
    // lock finds every page already read-only and must not issue a
    // single mprotect — while still accounting the object as locked.
    let mut k = Kernel::new();
    let pid = k.spawn("host");
    let mut store = ObjectStore::new();
    let obj = store
        .create_with_data(&mut k, pid, ObjectKind::Blob, "cfg", &[1u8; 64])
        .unwrap();
    let mut plane = TemporalPlane::new(true);
    let b = plane.add_thread();
    plane.share(obj);

    let main = state::observe(
        &mut plane,
        ThreadId::MAIN,
        ApiType::DataLoading,
        &mut k,
        &store,
    );
    assert_eq!(main.unwrap().locked.len(), 1);
    let pages = k.metrics().protected_pages;
    assert!(pages > 0, "the first lock really protected pages");
    let ns = k.clock().now_ns();

    let second = state::observe(&mut plane, b, ApiType::DataLoading, &mut k, &store);
    assert_eq!(second.unwrap().locked.len(), 1);
    assert_eq!(plane.locks(obj), 2, "the object still counts as locked");
    assert_eq!(k.metrics().protected_pages, pages, "zero mprotects issued");
    assert_eq!(k.clock().now_ns(), ns, "zero virtual time charged");
}

#[test]
fn audited_page_delta_equals_true_permission_diff() {
    // Thread MAIN locks the shared host config on its Init→Loading
    // transition (real permission change, pages > 0); thread T's own
    // transition locks the same object again — a no-op delta whose audit
    // record must carry zero pages while still counting the lock.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.enable_tracing();
    let t = rt.spawn_thread();
    let cfg = rt.host_data("self.config", &[7u8; 64]);
    seed_image(&mut rt, "/a.simg");
    seed_image(&mut rt, "/b.simg");

    rt.call("cv2.imread", &[Value::from("/a.simg")]).unwrap();
    rt.call_on(t, "cv2.imread", &[Value::from("/b.simg")])
        .unwrap();
    assert!(rt.is_protected(cfg));

    let records: Vec<(ThreadId, u64, usize)> = rt
        .tracer()
        .audit_log()
        .iter()
        .filter_map(|r| match r {
            AuditRecord::StateTransition {
                thread,
                pages,
                objects_locked,
                ..
            } => Some((*thread, *pages, *objects_locked)),
            _ => None,
        })
        .collect();
    let main = records
        .iter()
        .find(|(th, _, _)| *th == ThreadId::MAIN)
        .expect("MAIN transitioned");
    let other = records
        .iter()
        .find(|(th, _, _)| *th == t)
        .expect("T transitioned");
    assert!(main.1 > 0, "first lock audits the real page delta");
    assert_eq!(main.2, 1, "one object locked on MAIN's transition");
    assert_eq!(
        other.1, 0,
        "re-locking already-read-only pages audits a zero delta"
    );
    assert_eq!(other.2, 1, "but the object still counts as locked");
    // Every audited page is a kernel page transition and vice versa.
    let audited: u64 = rt.tracer().audit_log().iter().map(AuditRecord::pages).sum();
    assert_eq!(audited, rt.kernel.metrics().protected_pages);
}

#[test]
fn post_restart_reprotection_is_full_not_differential() {
    // A restored snapshot lands in fresh RW pages, so the re-protection
    // delta is the object's full page count — the differential path must
    // never skip it.
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
    let full_pages = rt.objects.meta(clf_id).unwrap().len().div_ceil(PAGE_SIZE);

    let loading = rt.partition_of(rt.registry().id_of("cv2.CascadeClassifier.load").unwrap());
    let pid = rt.agent(loading).unwrap().pid;
    rt.kernel.deliver_fault(pid, FaultKind::Abort, None);
    let pages_before = rt.kernel.metrics().protected_pages;
    rt.restart_agent(loading);
    assert_eq!(
        rt.kernel.metrics().protected_pages,
        pages_before + full_pages,
        "restart re-locks every restored page, not a differential subset"
    );
    let meta = rt.objects.meta(clf_id).unwrap();
    let (new_addr, _) = meta.buffer.expect("snapshot restored the payload");
    assert!(matches!(
        rt.kernel.mem_write(meta.home, new_addr, &[0xAA]),
        Err(SimError::Fault(_))
    ));
}
