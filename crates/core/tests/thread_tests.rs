//! Multi-threading model tests (paper §6 "Partitioned Processes and
//! Multi-threading"): every application thread gets its own set of
//! agent processes and its own framework-state machine.

use freepart::{Policy, Runtime, ThreadId};
use freepart_frameworks::api::ApiType;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, ExploitAction, ExploitPayload, Value};
use freepart_simos::Perms;

fn seed(rt: &mut Runtime, path: &str, payload: Option<&ExploitPayload>) {
    let img = Image::new(16, 16, 3);
    rt.kernel.fs.put(path, fileio::encode_image(&img, payload));
}

#[test]
fn each_thread_gets_its_own_agents() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    let t1 = rt.spawn_thread();
    // Host + 4 main-thread agents + 4 thread-1 agents.
    assert_eq!(rt.kernel.process_count(), 9);
    seed(&mut rt, "/a.simg", None);
    let main_img = rt.call("cv2.imread", &[Value::from("/a.simg")]).unwrap();
    let t1_img = rt
        .call_on(t1, "cv2.imread", &[Value::from("/a.simg")])
        .unwrap();
    // The two loads ran in different loading agents.
    let main_home = rt.objects.meta(main_img.as_obj().unwrap()).unwrap().home;
    let t1_home = rt.objects.meta(t1_img.as_obj().unwrap()).unwrap().home;
    assert_ne!(main_home, t1_home);
}

#[test]
fn thread_state_machines_are_independent() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    let t1 = rt.spawn_thread();
    seed(&mut rt, "/a.simg", None);
    let img = rt.call("cv2.imread", &[Value::from("/a.simg")]).unwrap();
    rt.call("cv2.GaussianBlur", &[img]).unwrap();
    // Main thread advanced to processing; t1 is still initializing.
    assert_eq!(
        rt.current_state(),
        freepart::FrameworkState::InType(ApiType::DataProcessing)
    );
    assert_eq!(rt.state_of(t1), freepart::FrameworkState::Initialization);
    let img1 = rt
        .call_on(t1, "cv2.imread", &[Value::from("/a.simg")])
        .unwrap();
    assert_eq!(
        rt.state_of(t1),
        freepart::FrameworkState::InType(ApiType::DataLoading)
    );
    // t1's loading-state object stays writable while main is elsewhere.
    assert!(!rt.is_protected(img1.as_obj().unwrap()));
}

#[test]
fn crash_on_one_thread_leaves_other_threads_agents_alive() {
    let mut rt = Runtime::install(standard_registry(), Policy::no_restart());
    let t1 = rt.spawn_thread();
    let payload = ExploitPayload {
        cve: "CVE-2017-14136".into(),
        actions: vec![ExploitAction::CrashSelf],
    };
    seed(&mut rt, "/evil.simg", Some(&payload));
    // DoS the *thread-1* loading agent.
    let err = rt.call_on(t1, "cv2.imread", &[Value::from("/evil.simg")]);
    assert!(err.is_err());
    // The main thread's loading agent still serves.
    seed(&mut rt, "/ok.simg", None);
    rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    // And thread-1's loading path is the only thing down.
    assert!(rt
        .call_on(t1, "cv2.imread", &[Value::from("/ok.simg")])
        .is_err());
    rt.call_on(t1, "cv2.pollKey", &[]).unwrap();
}

#[test]
fn unspawned_thread_is_rejected() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    assert!(rt.call_on(ThreadId(7), "cv2.pollKey", &[]).is_err());
}

#[test]
fn host_data_defined_before_a_thread_spawn_is_locked_by_that_thread() {
    // Annotated host data is shared by every thread, including threads
    // spawned after it was defined: the later thread's first state
    // transition must lock it even though the main thread never moved.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    let cfg = rt.host_data("self.config", &[7u8; 64]);
    let t1 = rt.spawn_thread();
    seed(&mut rt, "/a.simg", None);
    rt.call_on(t1, "cv2.imread", &[Value::from("/a.simg")])
        .unwrap();
    assert_eq!(rt.current_state(), freepart::FrameworkState::Initialization);
    assert!(
        rt.is_protected(cfg),
        "a later thread left host data writable"
    );
}

#[test]
fn objects_flow_between_threads_via_ldc() {
    // A frame loaded on one thread can be processed on another: LDC
    // moves it directly between the two threads' agents.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    let t1 = rt.spawn_thread();
    seed(&mut rt, "/a.simg", None);
    let img = rt.call("cv2.imread", &[Value::from("/a.simg")]).unwrap();
    let out = rt.call_on(t1, "cv2.GaussianBlur", &[img]).unwrap();
    assert!(matches!(out, Value::Obj(_)));
}

#[test]
fn shared_data_stays_locked_while_another_thread_holds_it() {
    // Host data annotated mid-pipeline is defined in Processing for the
    // main thread and in Initialization for t1. t1 leaving
    // Initialization locks it; the main thread re-entering Processing
    // releases only its own lock, so the pages must stay read-only.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    let t1 = rt.spawn_thread();
    seed(&mut rt, "/a.simg", None);
    let img = rt.call("cv2.imread", &[Value::from("/a.simg")]).unwrap();
    let blur = rt.call("cv2.GaussianBlur", &[img]).unwrap();
    let cfg = rt.host_data("cfg", &[7u8; 64]);
    rt.call_on(t1, "cv2.imread", &[Value::from("/a.simg")])
        .unwrap();
    rt.call("cv2.imshow", &[Value::from("w"), blur.clone()])
        .unwrap();
    rt.call("cv2.GaussianBlur", &[blur]).unwrap();
    assert!(rt.is_protected(cfg));
    let (addr, len) = rt.objects.meta(cfg).unwrap().buffer.unwrap();
    let host = rt.host_pid();
    assert!(
        rt.kernel.perms_match(host, addr, len, Perms::R),
        "t1 still holds a lock on the shared data"
    );
}
