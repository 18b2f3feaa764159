//! Property tests of the flight recorder: arbitrary recorded operation
//! sequences replay digest-identical and audit clean, and tampered logs
//! are flagged.

use freepart_simos::core::{outcome_of_step, step};
use freepart_simos::replay::{audit, forensic_chain, replay, DivergenceKind};
use freepart_simos::{
    Addr, CommitLog, CommitOp, CommitOutcome, FaultKind, Fd, Kernel, KernelState, Perms, Pid,
    ShmId, Syscall, SyscallFilter, SyscallNo,
};
use proptest::prelude::*;

/// One step of a randomized workload over a small cast of processes,
/// exercising every subsystem the commit log covers.
#[derive(Debug, Clone)]
enum Step {
    Spawn,
    Alloc(u8, u16),
    Write(u8, u8, Vec<u8>),
    /// One to four regions by index; `None` is a range below the heap,
    /// which no process maps.
    Protect(u8, Vec<Option<u8>>, u8),
    ShmCreate(u8, u16),
    ShmGrant(u8, u8, u8),
    ShmMap(u8, u8),
    ShmRevoke(u8, u8),
    ShmWrite(u8, u8, Vec<u8>),
    Channel(u8, u8),
    Send(u8, u8, Vec<u8>),
    Recv(u8, u8),
    Filter(u8, bool),
    Seal(u8),
    Sys(u8, u8),
    ForceExit(u8),
    Reap(u8),
    FsPut(u8, Vec<u8>),
    Gui(u8),
    Compute(u8, u16),
    Reset,
    PerProcessTime,
    TimeContext(u8, bool),
    Advance(u8, u16),
    Charge(u16),
    ShmProtectAll(u8, u8),
    ShmDestroy(u8),
    Rebind(u8, u8),
    Fault(u8),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let bytes = || proptest::collection::vec(any::<u8>(), 0..32);
    // One range in eight lies below the heap.
    let range = (any::<u8>(), 0u8..8).prop_map(|(r, k)| (k > 0).then_some(r));
    let ranges = proptest::collection::vec(range, 1..5);
    prop_oneof![
        Just(Step::Spawn),
        (any::<u8>(), 1u16..2048).prop_map(|(p, n)| Step::Alloc(p, n)),
        (any::<u8>(), any::<u8>(), bytes()).prop_map(|(p, r, d)| Step::Write(p, r, d)),
        (any::<u8>(), ranges, 0u8..5).prop_map(|(p, r, m)| Step::Protect(p, r, m)),
        (any::<u8>(), 1u16..2048).prop_map(|(p, n)| Step::ShmCreate(p, n)),
        (any::<u8>(), any::<u8>(), 0u8..5).prop_map(|(s, p, m)| Step::ShmGrant(s, p, m)),
        (any::<u8>(), any::<u8>()).prop_map(|(s, p)| Step::ShmMap(s, p)),
        (any::<u8>(), any::<u8>()).prop_map(|(s, p)| Step::ShmRevoke(s, p)),
        (any::<u8>(), any::<u8>(), bytes()).prop_map(|(s, p, d)| Step::ShmWrite(s, p, d)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Channel(a, b)),
        (any::<u8>(), any::<u8>(), bytes()).prop_map(|(c, p, d)| Step::Send(c, p, d)),
        (any::<u8>(), any::<u8>()).prop_map(|(c, p)| Step::Recv(c, p)),
        (any::<u8>(), any::<bool>()).prop_map(|(p, wide)| Step::Filter(p, wide)),
        any::<u8>().prop_map(Step::Seal),
        (any::<u8>(), any::<u8>()).prop_map(|(p, s)| Step::Sys(p, s)),
        any::<u8>().prop_map(Step::ForceExit),
        any::<u8>().prop_map(Step::Reap),
        (any::<u8>(), bytes()).prop_map(|(p, d)| Step::FsPut(p, d)),
        any::<u8>().prop_map(Step::Gui),
        (any::<u8>(), 1u16..500).prop_map(|(p, u)| Step::Compute(p, u)),
        Just(Step::Reset),
        Just(Step::PerProcessTime),
        (any::<u8>(), any::<bool>()).prop_map(|(p, some)| Step::TimeContext(p, some)),
        (any::<u8>(), any::<u16>()).prop_map(|(p, n)| Step::Advance(p, n)),
        any::<u16>().prop_map(Step::Charge),
        (any::<u8>(), 0u8..5).prop_map(|(s, m)| Step::ShmProtectAll(s, m)),
        any::<u8>().prop_map(Step::ShmDestroy),
        (any::<u8>(), any::<u8>()).prop_map(|(c, p)| Step::Rebind(c, p)),
        any::<u8>().prop_map(Step::Fault),
    ]
}

fn pick<T: Copy>(items: &[T], i: u8) -> Option<T> {
    if items.is_empty() {
        None
    } else {
        Some(items[i as usize % items.len()])
    }
}

/// Drives a recording kernel through `steps`, ignoring per-step errors
/// (faults, dead processes, bad handles are all legitimate transitions —
/// the recorder must capture them too). Returns the detached log.
fn record(steps: &[Step]) -> CommitLog {
    let mut k = Kernel::new();
    k.enable_commit_log();
    let mut pids = vec![k.spawn("p0")];
    let mut regions = Vec::new();
    let mut segs = Vec::new();
    let mut chans = Vec::new();
    let perms_of = |m: u8| match m {
        0 => Perms::NONE,
        1 => Perms::R,
        2 => Perms::RW,
        3 => Perms::RX,
        _ => Perms::RWX,
    };
    for s in steps {
        match s {
            Step::Spawn => {
                if pids.len() < 8 {
                    pids.push(k.spawn("p"));
                }
            }
            Step::Alloc(p, n) => {
                if let Some(pid) = pick(&pids, *p) {
                    if let Ok(a) = k.alloc(pid, u64::from(*n), Perms::RW) {
                        regions.push((pid, a, u64::from(*n)));
                    }
                }
            }
            Step::Write(p, r, d) => {
                if let (Some(pid), Some(&(_, a, len))) = (
                    pick(&pids, *p),
                    regions.get(*r as usize % regions.len().max(1)),
                ) {
                    let n = d.len().min(len as usize);
                    let _ = k.mem_write(pid, a, &d[..n]);
                }
            }
            Step::Protect(p, rs, m) => {
                let ranges: Option<Vec<_>> = rs
                    .iter()
                    .map(|r| match r {
                        Some(r) => pick(&regions, *r).map(|(_, a, len)| (a, len)),
                        None => Some((Addr(0), 1)),
                    })
                    .collect();
                if let (Some(pid), Some(ranges)) = (pick(&pids, *p), ranges) {
                    let _ = k.protect(pid, &ranges, perms_of(*m));
                }
            }
            Step::ShmCreate(p, n) => {
                if let Some(pid) = pick(&pids, *p) {
                    if let Ok(id) = k.shm_create(pid, vec![7; *n as usize]) {
                        segs.push(id);
                    }
                }
            }
            Step::ShmGrant(s, p, m) => {
                if let (Some(id), Some(pid)) = (pick(&segs, *s), pick(&pids, *p)) {
                    let _ = k.shm_grant(id, pid, perms_of(*m));
                }
            }
            Step::ShmMap(s, p) => {
                if let (Some(id), Some(pid)) = (pick(&segs, *s), pick(&pids, *p)) {
                    let _ = k.shm_map(pid, id);
                }
            }
            Step::ShmRevoke(s, p) => {
                if let (Some(id), Some(pid)) = (pick(&segs, *s), pick(&pids, *p)) {
                    let _ = k.shm_revoke(id, pid);
                }
            }
            Step::ShmWrite(s, p, d) => {
                if let (Some(id), Some(pid)) = (pick(&segs, *s), pick(&pids, *p)) {
                    let _ = k.shm_write(pid, id, d);
                }
            }
            Step::Channel(a, b) => {
                if let (Some(pa), Some(pb)) = (pick(&pids, *a), pick(&pids, *b)) {
                    if let Ok(c) = k.create_channel(pa, pb, 1 << 12) {
                        chans.push(c);
                    }
                }
            }
            Step::Send(c, p, d) => {
                if let (Some(ch), Some(pid)) = (pick(&chans, *c), pick(&pids, *p)) {
                    let _ = k.ipc_send(pid, ch, d);
                }
            }
            Step::Recv(c, p) => {
                if let (Some(ch), Some(pid)) = (pick(&chans, *c), pick(&pids, *p)) {
                    let _ = k.ipc_recv(pid, ch);
                }
            }
            Step::Filter(p, wide) => {
                if let Some(pid) = pick(&pids, *p) {
                    let f = if *wide {
                        SyscallFilter::allowing(SyscallNo::ALL.iter().copied())
                    } else {
                        SyscallFilter::allowing([SyscallNo::Getpid, SyscallNo::Prctl])
                    };
                    let _ = k.install_filter(pid, f);
                }
            }
            Step::Seal(p) => {
                if let Some(pid) = pick(&pids, *p) {
                    let _ = k.set_no_new_privs(pid);
                }
            }
            Step::Sys(p, s) => {
                if let Some(pid) = pick(&pids, *p) {
                    // Descriptors 3..6 are the first ones a process opens.
                    let fd = Fd(3 + u32::from(s % 3));
                    let call = match s % 12 {
                        0 => Syscall::Getpid,
                        1 => Syscall::Fork,
                        2 => Syscall::Uname,
                        3 => Syscall::PrctlNoNewPrivs,
                        4 => Syscall::Brk { grow: 64 },
                        5 => Syscall::Getrandom { len: 8 },
                        6 => Syscall::Openat {
                            path: format!("/f{}", s % 4),
                            create: true,
                        },
                        7 => Syscall::Lseek {
                            fd,
                            pos: u64::from(*s),
                        },
                        8 => Syscall::Close { fd },
                        9 => Syscall::Socket,
                        10 => Syscall::Kill {
                            target_pid: pids[usize::from(*s) % pids.len()].0,
                        },
                        _ => Syscall::Exit { code: 0 },
                    };
                    let _ = k.syscall(pid, call);
                }
            }
            Step::ForceExit(p) => {
                if let Some(pid) = pick(&pids, *p) {
                    k.force_exit(pid, 1);
                }
            }
            Step::Reap(p) => {
                if let Some(pid) = pick(&pids, *p) {
                    let _ = k.reap(pid);
                }
            }
            Step::FsPut(p, d) => {
                k.fs_put(&format!("/f{}", p % 4), d.clone());
            }
            Step::Gui(p) => {
                let w = k.win_create(&format!("w{}", p % 3));
                k.win_present(w, 64);
                k.push_key(*p);
                k.win_poll_key();
                if p % 5 == 0 {
                    k.win_destroy_all();
                }
            }
            Step::Compute(p, u) => {
                if let Some(pid) = pick(&pids, *p) {
                    k.charge_compute(pid, u64::from(*u));
                }
            }
            Step::Reset => k.reset_accounting(),
            Step::PerProcessTime => k.enable_per_process_time(),
            Step::TimeContext(p, some) => {
                k.set_time_context(if *some { pick(&pids, *p) } else { None });
            }
            Step::Advance(p, n) => {
                if let Some(pid) = pick(&pids, *p) {
                    let to = k.timeline_ns(pid) + u64::from(*n);
                    k.advance_timeline_to(pid, to);
                }
            }
            Step::Charge(n) => {
                k.charge_time(u64::from(*n));
                k.charge_copy(u64::from(*n));
            }
            Step::ShmProtectAll(s, m) => {
                if let Some(id) = pick(&segs, *s) {
                    let _ = k.shm_protect_all(id, perms_of(*m));
                }
            }
            Step::ShmDestroy(s) => {
                if let Some(id) = pick(&segs, *s) {
                    k.shm_destroy(id);
                }
            }
            Step::Rebind(c, p) => {
                if let (Some(ch), Some(pid)) = (pick(&chans, *c), pick(&pids, *p)) {
                    let _ = k.rebind_channel(ch, pid);
                }
            }
            Step::Fault(p) => {
                if let Some(pid) = pick(&pids, *p) {
                    k.deliver_fault(pid, FaultKind::Abort, None);
                }
            }
        }
    }
    k.take_commit_log().unwrap()
}

proptest! {
    /// Any recorded run replays digest-identical — zero divergences —
    /// and the rebuilt kernel's final digest matches the log's last
    /// record. The whole-trace invariant auditor passes too: honest
    /// kernels never violate their own invariants.
    #[test]
    fn arbitrary_recorded_runs_replay_clean(steps in proptest::collection::vec(arb_step(), 1..60)) {
        let log = record(&steps);
        let (k, report) = replay(&log);
        prop_assert!(report.is_clean(), "divergences: {:?}", report.divergences);
        prop_assert_eq!(report.steps, log.len());
        if let Some(last) = log.records().last() {
            prop_assert_eq!(k.state_digest(), last.digest);
        }
        prop_assert_eq!(audit(&log), Vec::new());
    }

    /// Differential test of shell vs. core: the shell [`Kernel`] driven
    /// through its public entry points and a standalone [`KernelState`]
    /// folded through the pure [`step`] agree on the outcome summary and
    /// the state digest at **every** record — the shell adds nothing to
    /// the semantics.
    #[test]
    fn shell_and_pure_core_agree_step_for_step(steps in proptest::collection::vec(arb_step(), 1..60)) {
        let log = record(&steps);
        let mut state = KernelState::with_cost_model(log.genesis().clone());
        for rec in log.records() {
            let got = outcome_of_step(&step(&mut state, &rec.op));
            prop_assert_eq!(got, rec.outcome, "outcome drift at index {}", rec.index);
            prop_assert_eq!(state.digest(), rec.digest, "digest drift at index {}", rec.index);
        }
    }

    /// The O(1) digest is exact, not an approximation: after every step
    /// of an arbitrary sequence, the multiset hashes `step` keeps
    /// current equal the ones recomputed by walking the whole state.
    #[test]
    fn incremental_digest_equals_from_scratch_reference(steps in proptest::collection::vec(arb_step(), 1..80)) {
        let log = record(&steps);
        let mut state = KernelState::with_cost_model(log.genesis().clone());
        for rec in log.records() {
            let _ = step(&mut state, &rec.op);
            prop_assert_eq!(
                state.digest(),
                state.reference_digest(),
                "incremental digest drifted at index {} ({})",
                rec.index,
                rec.op.name()
            );
        }
    }

    /// Flipping any one op's payload byte, outcome, or digest in a
    /// non-empty log is detected by replay.
    #[test]
    fn any_single_record_tamper_is_detected(steps in proptest::collection::vec(arb_step(), 4..40),
                                            which in any::<u16>()) {
        let log = record(&steps);
        if !log.is_empty() {
            let mut records = log.records().to_vec();
            let idx = which as usize % records.len();
            // Tamper with the digest: the cheapest universal forgery.
            records[idx].digest ^= 0xdead_beef;
            let forged = CommitLog::from_parts(log.genesis().clone(), records);
            let (_, report) = replay(&forged);
            prop_assert!(report
                .divergences
                .iter()
                .any(|d| d.kind == DivergenceKind::Digest && d.index == idx as u64));
        }
    }

    /// Forensic chains are well-formed on arbitrary logs: they start at
    /// the queried record, stay in range, and are strictly decreasing.
    #[test]
    fn forensic_chains_are_well_formed(steps in proptest::collection::vec(arb_step(), 1..40),
                                       which in any::<u16>()) {
        let log = record(&steps);
        if log.is_empty() {
            return;
        }
        let from = u64::from(which) % log.len();
        let chain = forensic_chain(&log, from);
        prop_assert_eq!(chain[0], from);
        for pair in chain.windows(2) {
            prop_assert!(pair[1] < pair[0]);
        }
        // A seeded violation: splicing a grant to a pid the log already
        // recorded as dead trips the auditor.
        if let Some(seg_rec) = log
            .records()
            .iter()
            .find(|r| matches!(r.op, CommitOp::ShmCreate { .. }) && r.outcome.is_ok())
        {
            if let Some(dead_rec) = log
                .records()
                .iter()
                .find(|r| matches!(r.op, CommitOp::DeliverFault { .. }))
            {
                let seg = freepart_simos::ShmId(seg_rec.outcome.raw());
                let victim = dead_rec.op.acting_pid().unwrap();
                let mut records = log.records().to_vec();
                records.push(freepart_simos::CommitRecord {
                    index: 0,
                    op: CommitOp::ShmGrant {
                        id: seg,
                        pid: victim,
                        perms: Perms::RW,
                    },
                    outcome: CommitOutcome::Ok(0),
                    digest: 0,
                });
                let forged = CommitLog::from_parts(log.genesis().clone(), records);
                prop_assert!(audit(&forged).iter().any(|v| v.rule == "grant-to-dead"));
            }
        }
    }
}

/// Two kernels driven through the same prefix, then through `a` and `b`
/// respectively — ops chosen to charge the same time and move the same
/// counters, so the states differ in exactly one field of one entity.
fn digests_after(
    prefix: impl Fn(&mut Kernel) -> (Pid, ShmId),
    a: impl Fn(&mut Kernel, Pid, ShmId),
    b: impl Fn(&mut Kernel, Pid, ShmId),
) -> (u64, u64) {
    let run = |suffix: &dyn Fn(&mut Kernel, Pid, ShmId)| {
        let mut k = Kernel::new();
        let (pid, seg) = prefix(&mut k);
        suffix(&mut k, pid, seg);
        assert_eq!(k.state_digest(), k.reference_digest());
        k.state_digest()
    };
    (run(&a), run(&b))
}

fn two_procs_and_a_segment(k: &mut Kernel) -> (Pid, ShmId) {
    let p = k.spawn("p");
    let q = k.spawn("q");
    let seg = k.shm_create(p, vec![1; 64]).unwrap();
    k.syscall(
        q,
        Syscall::Openat {
            path: "/f".into(),
            create: true,
        },
    )
    .unwrap();
    (q, seg)
}

#[test]
fn digest_separates_one_process_cpu_time() {
    // Both runs charge the same compute to the global clock; only one
    // lands on a tracked process's `cpu_ns`.
    let (a, b) = digests_after(
        two_procs_and_a_segment,
        |k, pid, _| k.charge_compute(pid, 10),
        |k, _, _| k.charge_compute(Pid(999), 10),
    );
    assert_ne!(a, b);
}

#[test]
fn digest_separates_one_grant_perms() {
    let (a, b) = digests_after(
        two_procs_and_a_segment,
        |k, pid, seg| k.shm_grant(seg, pid, Perms::R).unwrap(),
        |k, pid, seg| k.shm_grant(seg, pid, Perms::RW).unwrap(),
    );
    assert_ne!(a, b);
}

#[test]
fn digest_separates_one_timeline() {
    let per_process = |k: &mut Kernel| {
        let ids = two_procs_and_a_segment(k);
        k.enable_per_process_time();
        ids
    };
    let (a, b) = digests_after(
        per_process,
        |k, pid, _| k.advance_timeline_to(pid, 1 << 40),
        |k, pid, _| k.advance_timeline_to(pid, (1 << 40) + 1),
    );
    assert_ne!(a, b);
}

#[test]
fn digest_separates_one_fd_offset() {
    let (a, b) = digests_after(
        two_procs_and_a_segment,
        |k, pid, _| {
            k.syscall(pid, Syscall::Lseek { fd: Fd(3), pos: 5 })
                .unwrap();
        },
        |k, pid, _| {
            k.syscall(pid, Syscall::Lseek { fd: Fd(3), pos: 6 })
                .unwrap();
        },
    );
    assert_ne!(a, b);
}
