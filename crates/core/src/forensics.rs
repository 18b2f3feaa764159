//! Replay-time forensics over the kernel flight recorder.
//!
//! The commit log ([`CommitLog`]) records *what the kernel did*; the
//! [`Tracer`] records *why the runtime asked for it*. This module joins
//! the two: every `StateTransition` audit record carries, in its
//! `commits` field, the commit-log index range its mprotect storm and
//! temporal-grant sweep produced (stamped by the call plane), which
//! turns the flat log into a sequence of **transition windows** — the
//! quiescent points at which the runtime's temporal-permission promises
//! must hold.
//!
//! The rules here complement [`freepart_simos::replay::audit`], which
//! checks kernel-internal invariants a log must satisfy in isolation
//! (filter immutability, grant/revoke balance, page accounting). These
//! check *runtime* promises that need both halves of the story:
//!
//! - [`w_grant_discipline`] — at the end of every transition window
//!   (after the out-of-state grant sweep), each shared-memory segment
//!   has at most one writable grant: the object's current home. The
//!   host is exempt because the object store only ever issues it
//!   read-only views, but a temporal unlock (`ShmProtectAll` back to
//!   RW) legitimately widens the host's view along with the home's.
//! - [`journal_exactly_once`] — each completed call is journaled at
//!   most once; a duplicate journal entry would double-apply side
//!   effects on restart replay.
//! - [`crash_forensics`] — every involuntary death in the log, joined
//!   to its provenance chain ([`forensic_chain`]): which prior commits
//!   touched the entities the crash touched, walking grants, IPC
//!   frames, and payload writes backward to the offending source.

use std::collections::BTreeMap;

use freepart_simos::replay::{apply_op, forensic_chain};
use freepart_simos::{CommitLog, CommitOp, FaultKind, Kernel, Pid, ProcessState, Syscall};

use crate::trace::{AuditRecord, SpanPhase, Tracer};

// ----------------------------------------------------------------------
// Transition windows
// ----------------------------------------------------------------------

/// One framework-state transition, joined to the slice of the kernel
/// commit log its mprotect storm and temporal-grant sweep produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionWindow {
    /// Index of the `StateTransition` record in the tracer's audit log.
    pub audit_index: usize,
    /// Logical-call sequence number that drove the transition.
    pub seq: u64,
    /// Commit-log index range `[start, end)` covering the transition.
    pub commits: (u64, u64),
}

/// Joins every `StateTransition` audit record to its commit-log range.
///
/// Transitions recorded while the flight recorder was off carry no
/// range and are skipped — there is nothing to join.
pub fn transition_windows(tracer: &Tracer) -> Vec<TransitionWindow> {
    tracer
        .audit_log()
        .iter()
        .enumerate()
        .filter_map(|(i, rec)| match rec {
            AuditRecord::StateTransition {
                seq,
                commits: Some(commits),
                ..
            } => Some(TransitionWindow {
                audit_index: i,
                seq: *seq,
                commits: *commits,
            }),
            _ => None,
        })
        .collect()
}

// ----------------------------------------------------------------------
// Journal discipline
// ----------------------------------------------------------------------

/// Each completed call is journaled at most once.
///
/// The dispatcher journals a call's result into the completion cache
/// *before* the response leg, so a crash in the response window replays
/// the journal instead of re-executing side effects. A seq journaled
/// twice means the same side effects were applied twice — exactly the
/// bug the journal exists to prevent. Returns one message per violating
/// seq; empty means the discipline held.
pub fn journal_exactly_once(tracer: &Tracer) -> Vec<String> {
    let mut counts: BTreeMap<u64, u32> = BTreeMap::new();
    for ev in tracer.events() {
        if ev.phase == SpanPhase::Journal {
            *counts.entry(ev.seq).or_insert(0) += 1;
        }
    }
    counts
        .iter()
        .filter(|&(_, &n)| n > 1)
        .map(|(seq, n)| format!("call seq {seq} journaled {n} times (expected at most once)"))
        .collect()
}

// ----------------------------------------------------------------------
// Temporal-grant discipline
// ----------------------------------------------------------------------

/// At the end of every transition window, each shared-memory segment
/// has at most one writable grant among non-exempt processes.
///
/// Mid-window the invariant is allowed to wobble — delivering an object
/// to a new agent grants the consumer before the old home's grant is
/// swept — but `revoke_out_of_state_grants` runs *inside* the window,
/// so by the window's last commit the segment's writers must have
/// collapsed back to its single current home. `exempt` is the host pid:
/// its views are issued read-only, but a temporal unlock
/// (`ShmProtectAll` back to RW) widens every surviving grant, host
/// included, and that widening is by design.
///
/// Returns one message per `(window, segment)` violation; empty means
/// the discipline held across the whole trace.
pub fn w_grant_discipline(
    log: &CommitLog,
    windows: &[TransitionWindow],
    exempt: Pid,
) -> Vec<String> {
    use CommitOp as O;
    let mut violations = Vec::new();
    // segment raw id -> grantee raw pid -> writable?
    let mut grants: BTreeMap<u64, BTreeMap<u32, bool>> = BTreeMap::new();
    let mut ends: Vec<(u64, u64)> = windows.iter().map(|w| (w.commits.1, w.seq)).collect();
    ends.sort_unstable();
    ends.dedup();

    let check = |grants: &BTreeMap<u64, BTreeMap<u32, bool>>,
                 (end, seq): (u64, u64),
                 violations: &mut Vec<String>| {
        for (seg, holders) in grants {
            let writers: Vec<u32> = holders
                .iter()
                .filter(|&(&p, &w)| w && p != exempt.0)
                .map(|(&p, _)| p)
                .collect();
            if writers.len() > 1 {
                violations.push(format!(
                    "segment {seg}: {} concurrent writable grants (pids {writers:?}) \
                     at end of transition window for seq {seq} (commit {end})",
                    writers.len()
                ));
            }
        }
    };

    let mut next_end = 0usize;
    for rec in log.records() {
        while next_end < ends.len() && ends[next_end].0 <= rec.index {
            check(&grants, ends[next_end], &mut violations);
            next_end += 1;
        }
        let ok = rec.outcome.is_ok();
        match &rec.op {
            // Creation grants the owner a full RW view.
            O::ShmCreate { owner, .. } if ok => {
                grants
                    .entry(rec.outcome.raw())
                    .or_default()
                    .insert(owner.0, true);
            }
            O::ShmGrant { id, pid, perms } if ok => {
                grants
                    .entry(id.0)
                    .or_default()
                    .insert(pid.0, perms.writable());
            }
            O::ShmRevoke { id, pid } if ok && rec.outcome.raw() == 1 => {
                if let Some(holders) = grants.get_mut(&id.0) {
                    holders.remove(&pid.0);
                }
            }
            O::ShmProtectAll { id, perms } if ok => {
                if let Some(holders) = grants.get_mut(&id.0) {
                    for writable in holders.values_mut() {
                        *writable = perms.writable();
                    }
                }
            }
            O::ShmDestroy { id } => {
                grants.remove(&id.0);
            }
            // Reaping a dead process drops its table entries wholesale.
            O::Reap { pid } if ok => {
                for holders in grants.values_mut() {
                    holders.remove(&pid.0);
                }
            }
            _ => {}
        }
    }
    // Windows whose end sits at (or past) the log tail check final state.
    while next_end < ends.len() {
        check(&grants, ends[next_end], &mut violations);
        next_end += 1;
    }
    violations
}

// ----------------------------------------------------------------------
// Crash forensics
// ----------------------------------------------------------------------

/// One involuntary process death, joined to its provenance chain.
#[derive(Debug, Clone)]
pub struct CrashForensics {
    /// Index of the commit record whose application killed the process.
    pub commit_index: u64,
    /// The process that died.
    pub pid: Pid,
    /// Why it died.
    pub kind: FaultKind,
    /// Provenance chain from [`forensic_chain`]: log indices, most
    /// recent first, of every prior commit that touched the crash's
    /// tainted entities (the offending object's writes, grants, and
    /// transport frames). Always starts with `commit_index`.
    pub chain: Vec<u64>,
}

/// Walks the log through a shadow kernel and reports every commit whose
/// application crashed a process, each joined to its provenance chain.
///
/// Crashes are detected semantically — the acting process transitions
/// from running to [`ProcessState::Crashed`] — so this catches direct
/// fault injections (`DeliverFault`), filter kills and wild accesses
/// buried inside `Syscall` records, and protection faults raised by
/// `MemWrite`, without pattern-matching outcome summaries. Voluntary
/// exits and supervisor force-exits are not crashes and are skipped.
pub fn crash_forensics(log: &CommitLog) -> Vec<CrashForensics> {
    let mut shadow = Kernel::with_cost_model(log.genesis().clone());
    let mut out = Vec::new();
    for rec in log.records() {
        let acting = match &rec.op {
            // Exit is voluntary even though it flips the running bit.
            CommitOp::Syscall {
                call: Syscall::Exit { .. },
                ..
            } => None,
            op => op.acting_pid(),
        };
        let was_running = acting.is_some_and(|p| shadow.is_running(p));
        apply_op(&mut shadow, &rec.op);
        if let Some(pid) = acting {
            if was_running && !shadow.is_running(pid) {
                if let Ok(proc_) = shadow.process(pid) {
                    if let ProcessState::Crashed(fault) = &proc_.state {
                        out.push(CrashForensics {
                            commit_index: rec.index,
                            pid,
                            kind: fault.kind.clone(),
                            chain: forensic_chain(log, rec.index),
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart_frameworks::api::ApiType;
    use freepart_frameworks::ObjectId;
    use freepart_simos::{CommitRecord, CostModel, Perms, ShmId};

    use crate::state::FrameworkState;
    use crate::trace::SpanEvent;
    use crate::ThreadId;

    fn span(phase: SpanPhase, seq: u64) -> SpanEvent {
        SpanEvent {
            phase,
            seq,
            api: None,
            partition: None,
            thread: ThreadId::MAIN,
            start_ns: 0,
            end_ns: 1,
            bytes: 0,
        }
    }

    fn transition(seq: u64, commits: Option<(u64, u64)>) -> AuditRecord {
        AuditRecord::StateTransition {
            at_ns: 0,
            thread: ThreadId::MAIN,
            seq,
            from: FrameworkState::Initialization,
            to: FrameworkState::InType(ApiType::DataLoading),
            objects_locked: 0,
            objects_unlocked: 0,
            pages: 0,
            commits,
        }
    }

    #[test]
    fn windows_join_transitions_to_their_commit_ranges() {
        let mut t = Tracer::new();
        t.enable();
        t.record_audit(transition(1, Some((0, 4))));
        // A non-transition record between windows must not shift joins.
        t.record_audit(AuditRecord::ShmGrant {
            at_ns: 0,
            object: ObjectId(7),
            segment: ShmId(1),
            pid: Pid(9),
            bytes: 64,
        });
        t.record_audit(transition(2, Some((4, 9))));
        // Recorder off for this transition: no range, no window.
        t.record_audit(transition(3, None));

        let w = transition_windows(&t);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].audit_index, w[0].seq, w[0].commits), (0, 1, (0, 4)));
        assert_eq!((w[1].audit_index, w[1].seq, w[1].commits), (2, 2, (4, 9)));
    }

    #[test]
    fn journal_discipline_flags_only_duplicates() {
        let mut t = Tracer::new();
        t.enable();
        t.span(span(SpanPhase::Journal, 1));
        t.span(span(SpanPhase::Journal, 2));
        // Non-journal phases never count against the discipline.
        t.span(span(SpanPhase::Response, 2));
        assert!(journal_exactly_once(&t).is_empty());

        t.span(span(SpanPhase::Journal, 2));
        let v = journal_exactly_once(&t);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("seq 2"), "{v:?}");
    }

    /// Builds a log by running real kernel ops, then (optionally) lets
    /// the test splice in forged records via `from_parts`.
    fn grant_heavy_log() -> (CommitLog, Pid, Pid, Pid, ShmId) {
        let mut k = Kernel::new();
        k.enable_commit_log();
        let host = k.spawn("host");
        let a = k.spawn("agent-a");
        let b = k.spawn("agent-b");
        let seg = k.shm_create(a, vec![1; 4096]).unwrap();
        k.shm_grant(seg, host, Perms::R).unwrap();
        // Delivery to b: b granted RW, then a's stale grant swept
        // inside the transition window.
        k.shm_grant(seg, b, Perms::RW).unwrap();
        k.shm_revoke(seg, a).unwrap();
        (k.take_commit_log().unwrap(), host, a, b, seg)
    }

    #[test]
    fn single_writer_holds_once_the_sweep_lands_in_window() {
        let (log, host, ..) = grant_heavy_log();
        // Window covering the whole log: the sweep is inside it.
        let w = [TransitionWindow {
            audit_index: 0,
            seq: 1,
            commits: (0, log.len()),
        }];
        assert_eq!(w_grant_discipline(&log, &w, host), Vec::<String>::new());
    }

    #[test]
    fn two_writers_alive_at_a_window_end_are_flagged() {
        let (log, host, ..) = grant_heavy_log();
        // Forged window ending right after the second RW grant but
        // before the sweep: two writable grants coexist at that point.
        let grant_b = log
            .records()
            .iter()
            .filter(|r| matches!(r.op, CommitOp::ShmGrant { perms, .. } if perms.writable()))
            .map(|r| r.index)
            .next_back()
            .unwrap();
        let w = [TransitionWindow {
            audit_index: 0,
            seq: 1,
            commits: (0, grant_b + 1),
        }];
        let v = w_grant_discipline(&log, &w, host);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("2 concurrent writable grants"), "{v:?}");
    }

    #[test]
    fn host_exemption_tolerates_temporal_unlock_widening() {
        let (log, host, _a, b, seg) = grant_heavy_log();
        // A temporal lock/unlock cycle: protect_all(R) then back to RW
        // widens both surviving grants (home b and the host view).
        let mut k = Kernel::with_cost_model(log.genesis().clone());
        let records = log.records().to_vec();
        for r in &records {
            apply_op(&mut k, &r.op);
        }
        let mut recs = records;
        for op in [
            CommitOp::ShmProtectAll {
                id: seg,
                perms: Perms::R,
            },
            CommitOp::ShmProtectAll {
                id: seg,
                perms: Perms::RW,
            },
        ] {
            let outcome = apply_op(&mut k, &op);
            recs.push(CommitRecord {
                index: 0,
                op,
                outcome,
                digest: k.state_digest(),
            });
        }
        let log = CommitLog::from_parts(CostModel::default(), recs);
        let w = [TransitionWindow {
            audit_index: 0,
            seq: 1,
            commits: (0, log.len()),
        }];
        // With the host exempt only home `b` writes: clean. Without the
        // exemption the widened host view trips the rule — proving the
        // check actually sees the post-unlock grant table.
        assert_eq!(w_grant_discipline(&log, &w, host), Vec::<String>::new());
        let v = w_grant_discipline(&log, &w, Pid(u32::MAX));
        assert_eq!(v.len(), 1, "{v:?}");
        let _ = b;
    }

    #[test]
    fn crash_forensics_chains_a_fault_to_its_provenance() {
        let mut k = Kernel::new();
        k.enable_commit_log();
        let host = k.spawn("host");
        let agent = k.spawn("agent");
        let seg = k.shm_create(host, vec![0; 4096]).unwrap();
        k.shm_grant(seg, agent, Perms::R).unwrap();
        k.shm_map(agent, seg).unwrap();
        // Unrelated noise that must stay out of the chain.
        let other = k.spawn("bystander");
        k.fs_put("/noise", vec![1, 2, 3]);
        // The agent dies touching the segment's pages.
        k.deliver_fault(agent, FaultKind::Protection, None);
        // A voluntary supervisor exit must not report as a crash.
        k.force_exit(other, 0);
        let log = k.take_commit_log().unwrap();

        let crashes = crash_forensics(&log);
        assert_eq!(crashes.len(), 1, "{crashes:?}");
        let c = &crashes[0];
        assert_eq!(c.pid, agent);
        assert_eq!(c.kind, FaultKind::Protection);
        assert_eq!(c.chain[0], c.commit_index);
        // The chain reaches back through the grant to the agent's spawn,
        // but never picks up the bystander or the fs noise.
        assert!(c.chain.len() >= 3, "{:?}", c.chain);
        for idx in &c.chain {
            let op = &log.records()[*idx as usize].op;
            assert!(
                !matches!(op, CommitOp::FsPut { .. }),
                "noise in chain: {op:?}"
            );
        }
    }
}
