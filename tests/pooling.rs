//! Multi-tenant agent pools: transparency, isolation, fairness, and
//! supervision — the pooled deployment model must change *scheduling
//! and process count*, never outputs or the security story.

use freepart_suite::apps::tenants::{run_chain_on, run_chain_pooled, stage_input, ChainOutput};
use freepart_suite::core::{
    journal_exactly_once, AuditRecord, CallError, Policy, RestartBudget, Runtime, SpanPhase,
    TenantId,
};
use freepart_suite::frameworks::registry::standard_registry;
use freepart_suite::frameworks::{ObjectId, Value};
use freepart_suite::simos::FaultKind;
use proptest::prelude::*;

fn pooled_rt() -> Runtime {
    Runtime::install(standard_registry(), Policy::freepart_pooled())
}

/// A solo reference run: the same tenant input through a fresh pooled
/// runtime with nobody else admitted — pure pipeline semantics with
/// zero scheduling interference.
fn solo_output(n: u32) -> ChainOutput {
    let mut rt = pooled_rt();
    let path = stage_input(&mut rt, n);
    let t = rt.spawn_tenant();
    run_chain_pooled(&mut rt, t, &path).expect("solo chain runs")
}

// ----------------------------------------------------------------------
// Process census and basic transparency
// ----------------------------------------------------------------------

#[test]
fn pooled_process_count_is_4_plus_n_not_5n() {
    let mut pooled = pooled_rt();
    let mut tenants = Vec::new();
    for _ in 0..10 {
        tenants.push(pooled.spawn_tenant());
    }
    let (agents, contexts) = pooled.pooled_process_count();
    assert_eq!(agents, 4, "four shared pools");
    assert_eq!(contexts, 10, "one lightweight context per tenant");

    // Per-thread baseline: every spawned thread brings a full agent set.
    let mut baseline = Runtime::install(standard_registry(), Policy::freepart());
    for _ in 0..10 {
        baseline.spawn_thread();
    }
    // 4 for MAIN + 4 per spawned thread.
    assert_eq!(baseline.partitions().len(), 4 * 11);
}

#[test]
fn pooled_chain_matches_per_thread_baseline_outputs() {
    let mut pooled = pooled_rt();
    let mut baseline = Runtime::install(standard_registry(), Policy::freepart());
    for n in 0..3u32 {
        let path_p = stage_input(&mut pooled, n);
        let path_b = stage_input(&mut baseline, n);
        let tenant = pooled.spawn_tenant();
        let thread = baseline.spawn_thread();
        let got = run_chain_pooled(&mut pooled, tenant, &path_p).unwrap();
        let want = run_chain_on(&mut baseline, thread, &path_b).unwrap();
        assert_eq!(got, want, "tenant {n} diverged from per-thread baseline");
    }
}

// ----------------------------------------------------------------------
// The tenant gate
// ----------------------------------------------------------------------

#[test]
fn cross_tenant_object_access_is_denied_and_audited() {
    let mut rt = pooled_rt();
    rt.enable_tracing();
    let victim = rt.spawn_tenant();
    let attacker = rt.spawn_tenant();
    let path = stage_input(&mut rt, 0);
    let img = rt
        .call_tenant(victim, "cv2.imread", &[Value::from(path.as_str())])
        .unwrap();
    let obj = img.as_obj().unwrap();

    // The attacker names the victim's object as a call argument…
    let denied = rt.call_tenant(attacker, "cv2.GaussianBlur", std::slice::from_ref(&img));
    assert!(
        matches!(
            denied,
            Err(CallError::TenantDenied { tenant, object }) if tenant == attacker.0 && object == obj
        ),
        "expected TenantDenied, got {denied:?}"
    );
    // …and tries a direct fetch.
    assert!(matches!(
        rt.tenant_fetch(attacker, obj),
        Err(CallError::TenantDenied { .. })
    ));

    // Both denials were counted and audited with full context.
    assert_eq!(rt.stats().tenant_denials, 2);
    let audits: Vec<_> = rt
        .tracer()
        .audit_log()
        .iter()
        .filter(|r| {
            matches!(
                r,
                AuditRecord::CrossTenantDenied { tenant, object, owner, .. }
                    if *tenant == attacker.0 && *object == obj && *owner == victim.0
            )
        })
        .collect();
    assert_eq!(audits.len(), 2, "one audit record per denial");

    // The victim's own access still works.
    assert!(rt.tenant_fetch(victim, obj).is_ok());
    assert!(rt.call_tenant(victim, "cv2.GaussianBlur", &[img]).is_ok());
}

/// Only tenants `spawn_tenant` admitted are served. The main thread's id
/// would skip the tenant gate, and a forged id would size the
/// scheduler's tenant table: both are refused before anything is queued
/// or read.
#[test]
fn tenants_never_spawned_are_refused_before_anything_is_queued() {
    let mut rt = pooled_rt();
    let a = rt.spawn_tenant();
    let path = stage_input(&mut rt, 0);
    let img = rt
        .call_tenant(a, "cv2.imread", &[Value::from(path.as_str())])
        .unwrap();
    let obj = img.as_obj().unwrap();
    for forged in [TenantId(0), TenantId(u32::MAX)] {
        let refused = CallError::UnknownApi(format!("{forged} not spawned"));
        let blur = rt.tenant_submit(forged, "cv2.GaussianBlur", std::slice::from_ref(&img));
        assert_eq!(blur, Err(refused.clone()));
        assert_eq!(rt.pump_one(), None, "nothing was queued for {forged}");
        assert!(rt.tenant_latencies(forged).is_empty());
        assert_eq!(rt.tenant_fetch(forged, obj), Err(refused.clone()));
        let call = rt.call_tenant(forged, "cv2.GaussianBlur", std::slice::from_ref(&img));
        assert_eq!(call, Err(refused));
    }
    // A's object stays readable, and usable, through A alone.
    assert!(rt.tenant_fetch(a, obj).is_ok());
    assert!(rt.call_tenant(a, "cv2.GaussianBlur", &[img]).is_ok());
}

#[test]
fn host_data_defined_before_a_tenant_spawn_is_locked_by_that_tenant() {
    // Annotated host data is shared by every tenant, including tenants
    // admitted after it was defined: the later tenant's first state
    // transition must lock it.
    let mut rt = pooled_rt();
    let cfg = rt.host_data("self.config", &[7u8; 64]);
    let path = stage_input(&mut rt, 0);
    let t = rt.spawn_tenant();
    rt.call_tenant(t, "cv2.imread", &[Value::from(path.as_str())])
        .unwrap();
    assert!(
        rt.is_protected(cfg),
        "a later tenant left host data writable"
    );
}

/// Runs `f` and returns every object created while it ran.
fn objects_made_by(rt: &mut Runtime, f: impl FnOnce(&mut Runtime)) -> Vec<ObjectId> {
    let mark = rt.objects.next_id_watermark();
    f(rt);
    rt.objects.ids_since(mark).collect()
}

/// Each tenant's objects pass the gate for that tenant and fail it for
/// every other tenant.
fn assert_namespaces_disjoint(rt: &Runtime, owned: &[(TenantId, Vec<ObjectId>)]) {
    for (owner, objs) in owned {
        assert!(!objs.is_empty(), "{owner} produced no objects");
        for (t, _) in owned {
            for obj in objs {
                assert_eq!(
                    rt.tenant_may_access(t.thread(), *obj),
                    t == owner,
                    "{t} vs {owner}'s object {obj}"
                );
            }
        }
    }
}

#[test]
fn capability_slots_are_minted_per_tenant() {
    let mut rt = pooled_rt();
    let a = rt.spawn_tenant();
    let b = rt.spawn_tenant();
    let pa = stage_input(&mut rt, 1);
    let pb = stage_input(&mut rt, 2);
    let owned: Vec<(TenantId, Vec<ObjectId>)> = [(a, pa), (b, pb)]
        .into_iter()
        .map(|(t, path)| {
            let made = objects_made_by(&mut rt, |rt| {
                run_chain_pooled(rt, t, &path).unwrap();
            });
            (t, made)
        })
        .collect();
    assert_namespaces_disjoint(&rt, &owned);
}

// ----------------------------------------------------------------------
// Supervisor × pools: restart re-admits every tenant's namespace
// ----------------------------------------------------------------------

#[test]
fn shared_pool_crash_restarts_once_and_readmits_every_tenant() {
    let mut rt = Runtime::install(
        standard_registry(),
        Policy {
            warm_spares: 2,
            restart_budget: Some(RestartBudget::default()),
            ..Policy::freepart_pooled()
        },
    );
    rt.enable_tracing();
    let tenants: Vec<TenantId> = (0..3).map(|_| rt.spawn_tenant()).collect();
    let paths: Vec<String> = (0..3).map(|n| stage_input(&mut rt, n)).collect();
    let load = |rt: &mut Runtime, i: usize| {
        objects_made_by(rt, |rt| {
            let img = rt
                .call_tenant(tenants[i], "cv2.imread", &[Value::from(paths[i].as_str())])
                .unwrap();
            assert!(matches!(img, Value::Obj(_)));
        })
    };

    // Every tenant loads its frame at the shared loading pool.
    let mut owned: Vec<(TenantId, Vec<ObjectId>)> =
        (0..3).map(|i| (tenants[i], load(&mut rt, i))).collect();
    assert_namespaces_disjoint(&rt, &owned);

    // Kill the shared loading agent in the response window of the next
    // call: the supervisor must restart it exactly once, and the
    // journal must answer the retry without re-running side effects.
    let load_pool = rt.partition_of(rt.registry().id_of("cv2.imread").expect("catalog API"));
    rt.inject_crash_before_response(load_pool);
    let again = load(&mut rt, 0);
    owned[0].1.extend(again);
    assert_eq!(rt.stats().restarts, 1, "exactly one supervised restart");
    let events = rt.tracer().events();
    let replays: Vec<u64> = events
        .iter()
        .filter(|e| e.phase == SpanPhase::Replay)
        .map(|e| e.seq)
        .collect();
    assert_eq!(replays.len(), 1, "the retried call replays once");
    let journaled = events
        .iter()
        .filter(|e| e.phase == SpanPhase::Journal && e.seq == replays[0])
        .count();
    assert_eq!(journaled, 1, "the retried call executed once");
    assert_eq!(journal_exactly_once(rt.tracer()), Vec::<String>::new());

    // The gate is host-side, so the restart leaves every namespace as
    // it was…
    assert_namespaces_disjoint(&rt, &owned);

    // …and every tenant can still run its full pipeline through the
    // respawned pool (pre-crash payloads homed in the dead agent are
    // legitimately lost — §6: crashed-process state is not restored —
    // so each tenant reloads from its own staged file).
    for (i, (t, objs)) in owned.iter_mut().enumerate() {
        let made = objects_made_by(&mut rt, |rt| {
            run_chain_pooled(rt, *t, &paths[i]).unwrap();
        });
        objs.extend(made);
    }
    assert_namespaces_disjoint(&rt, &owned);
    let foreign = Value::Obj(*owned[0].1.last().expect("chain objects"));
    let denied = rt.call_tenant(tenants[1], "cv2.GaussianBlur", &[foreign]);
    assert!(matches!(denied, Err(CallError::TenantDenied { .. })));
    assert_eq!(rt.stats().restarts, 1, "still exactly one restart");
}

#[test]
fn a_pooled_classifier_is_snapshotted_restored_and_usable() {
    // A classifier the main thread loads into the shared loading pool is
    // the one stateful object among every tenant's frames: snapshots
    // cover it and nothing else, and a crash of its agent restores it.
    let mut rt = pooled_rt();
    rt.kernel.fs_put("/c.xml", vec![5; 64]);
    let clf = rt
        .call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
        .unwrap();
    let tenants: Vec<TenantId> = (0..50).map(|_| rt.spawn_tenant()).collect();
    let paths: Vec<String> = (0..50).map(|n| stage_input(&mut rt, n)).collect();
    for _ in 0..2 {
        for (t, path) in tenants.iter().zip(&paths) {
            run_chain_pooled(&mut rt, *t, path).unwrap();
        }
    }
    let m = rt.kernel.metrics();
    assert_eq!(
        (m.snapshot_objects_skipped, m.snapshot_bytes_copied),
        (24, 64),
        "snapshot rounds over the pools"
    );
    let home = rt.objects.meta(clf.as_obj().unwrap()).unwrap().home;
    rt.kernel.deliver_fault(home, FaultKind::Abort, None);
    // The next loading call restarts the pool and restores the
    // classifier; detection then runs with it.
    let img = rt.call("cv2.imread", &[Value::from(paths[0].as_str())]);
    let found = rt.call(
        "cv2.CascadeClassifier.detectMultiScale",
        &[clf, img.unwrap()],
    );
    assert!(found.is_ok(), "{found:?}");
    assert_eq!(rt.stats().restarts, 1);
}

// ----------------------------------------------------------------------
// Pools × the async call plane: one drain barrier for every tenant
// ----------------------------------------------------------------------

#[test]
fn pooled_async_transitions_drain_every_tenant() {
    let mut rt = pooled_rt();
    rt.enable_tracing();
    rt.enable_pipelining();
    let (a, b) = (rt.spawn_tenant(), rt.spawn_tenant());
    let (pa, pb) = (stage_input(&mut rt, 1), stage_input(&mut rt, 2));

    // Every submit below changes its tenant's framework state, so each
    // must retire whatever is in flight — the other tenant's call too.
    let ha = rt
        .call_async_on(a.thread(), "cv2.imread", &[Value::from(pa.as_str())])
        .unwrap();
    assert_eq!(rt.in_flight(), 1);
    let hb = rt
        .call_async_on(b.thread(), "cv2.imread", &[Value::from(pb.as_str())])
        .unwrap();
    assert_eq!(rt.in_flight(), 1, "b's transition drained a's load");
    let img_a = rt.promise(ha).unwrap();
    // (`cv2.cvtColor` is type-neutral and changes no state; the blur
    // moves tenant a from loading to processing.)
    let hc = rt
        .call_async_on(a.thread(), "cv2.GaussianBlur", &[img_a])
        .unwrap();
    assert_eq!(rt.in_flight(), 1, "a's transition drained b's load");
    let got: Vec<Value> = [ha, hb, hc]
        .into_iter()
        .map(|h| rt.wait(h).unwrap())
        .collect();

    // No agent was executing across any tenant's transition.
    let transitions: Vec<u64> = rt
        .tracer()
        .audit_log()
        .iter()
        .filter_map(|r| match r {
            AuditRecord::StateTransition { at_ns, .. } => Some(*at_ns),
            _ => None,
        })
        .collect();
    assert_eq!(transitions.len(), 3);
    for e in rt.tracer().events() {
        if e.phase == SpanPhase::Execute {
            for &at in &transitions {
                assert!(
                    !(e.start_ns < at && at < e.end_ns),
                    "seq {} executed across the transition at {at} ns",
                    e.seq
                );
            }
        }
    }

    // The same calls, synchronously through the pools.
    let mut sync = pooled_rt();
    let (sa, sb) = (sync.spawn_tenant(), sync.spawn_tenant());
    let (qa, qb) = (stage_input(&mut sync, 1), stage_input(&mut sync, 2));
    let img = sync
        .call_tenant(sa, "cv2.imread", &[Value::from(qa.as_str())])
        .unwrap();
    let want = vec![
        img.clone(),
        sync.call_tenant(sb, "cv2.imread", &[Value::from(qb.as_str())])
            .unwrap(),
        sync.call_tenant(sa, "cv2.GaussianBlur", &[img]).unwrap(),
    ];
    assert_eq!(got, want);
    for ((t, v), (st, sv)) in [a, b, a]
        .iter()
        .zip(&got)
        .zip([sa, sb, sa].iter().zip(&want))
    {
        let mine = rt.tenant_fetch(*t, v.as_obj().unwrap()).unwrap();
        let theirs = sync.tenant_fetch(*st, sv.as_obj().unwrap()).unwrap();
        assert_eq!(mine, theirs, "payload bytes match the synchronous run");
    }
}

// ----------------------------------------------------------------------
// Properties: transparency under interleaving; starvation freedom
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of N tenants' chains through the shared
    /// pools produce per-tenant outputs byte-identical to each tenant's
    /// solo run: DRR scheduling reorders service, never results.
    #[test]
    fn tenant_transparency_under_random_interleaving(
        n_tenants in 2usize..5,
        schedule in proptest::collection::vec(any::<u8>(), 8..64),
    ) {
        let mut rt = pooled_rt();
        let tenants: Vec<TenantId> = (0..n_tenants).map(|_| rt.spawn_tenant()).collect();
        let paths: Vec<String> =
            (0..n_tenants as u32).map(|n| stage_input(&mut rt, n)).collect();

        // Drive each tenant's 4-step chain with a data-dependent random
        // schedule: at every step, pick the next eligible tenant from
        // the schedule bytes, keeping queues genuinely contended.
        let mut step = vec![0usize; n_tenants];
        let mut val: Vec<Value> =
            paths.iter().map(|p| Value::from(p.as_str())).collect();
        let mut blurred: Vec<Option<ObjectId>> = vec![None; n_tenants];
        const CHAIN: [&str; 4] =
            ["cv2.imread", "cv2.cvtColor", "cv2.GaussianBlur", "cv2.findContours"];
        let mut cursor = 0usize;
        while step.iter().any(|&s| s < CHAIN.len()) {
            let pick = schedule[cursor % schedule.len()] as usize % n_tenants;
            cursor += 1;
            let i = (0..n_tenants)
                .map(|k| (pick + k) % n_tenants)
                .find(|&k| step[k] < CHAIN.len())
                .expect("some tenant has steps left");
            let api = CHAIN[step[i]];
            let out = rt.call_tenant(tenants[i], api, &[val[i].clone()]).unwrap();
            if api == "cv2.GaussianBlur" {
                blurred[i] = out.as_obj();
            }
            val[i] = out;
            step[i] += 1;
        }

        for i in 0..n_tenants {
            let bytes = rt
                .tenant_fetch(tenants[i], blurred[i].expect("blur ran"))
                .unwrap();
            let got = ChainOutput { rects: val[i].clone(), bytes };
            let want = solo_output(i as u32);
            prop_assert_eq!(&got, &want, "tenant {} output depends on interleaving", i);
        }
    }

    /// Deficit-round-robin starvation freedom: no matter how hard one
    /// tenant floods a pool, every victim's single queued call is
    /// served within the DRR window implied by the quantum.
    #[test]
    fn no_tenant_starves_under_a_flood(
        flood in 8u32..64,
        n_victims in 1usize..4,
    ) {
        let mut rt = pooled_rt();
        let chatty = rt.spawn_tenant();
        let victims: Vec<TenantId> = (0..n_victims).map(|_| rt.spawn_tenant()).collect();
        let path = stage_input(&mut rt, 0);

        // The chatty tenant floods the loading pool…
        let mut handles = Vec::new();
        for _ in 0..flood {
            handles.push(
                rt.tenant_submit(chatty, "cv2.imread", &[Value::from(path.as_str())])
                    .unwrap(),
            );
        }
        // …then every victim queues one call behind the flood.
        let victim_handles: Vec<_> = victims
            .iter()
            .map(|v| {
                rt.tenant_submit(*v, "cv2.imread", &[Value::from(path.as_str())])
                    .unwrap()
            })
            .collect();
        rt.pump_all();

        let quantum = 2u64; // PoolConfig::default().quantum
        let n_other = n_victims as u64; // other tenants sharing the pool with chatty
        for (i, h) in victim_handles.iter().enumerate() {
            let (foreign, own_ahead) = rt.ticket_fairness(*h).expect("pumped");
            prop_assert_eq!(own_ahead, 0, "victims queued one call each");
            // One full DRR window: every other tenant may be served at
            // most quantum items per ring pass, and a single-item
            // backlog is served within ceil(1/Q)+1 = 2 passes.
            let bound = (n_other + 1) * quantum * 2;
            prop_assert!(
                foreign <= bound,
                "victim {} waited behind {} foreign items (bound {})",
                i, foreign, bound
            );
        }
        // The flood itself completed too (work conservation).
        for h in &handles {
            prop_assert!(rt.tenant_wait(*h).is_ok());
        }
    }
}
