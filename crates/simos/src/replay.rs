//! Deterministic replay of a [`CommitLog`] and replay-time invariant
//! auditing.
//!
//! [`replay`](fn@replay) rebuilds a kernel from nothing but a log: a
//! fresh [`KernelState`] is constructed from the log's genesis
//! [`CostModel`](crate::CostModel),
//! and the log is **folded through the same pure
//! [`step`](fn@crate::core::step) function live execution uses** —
//! replay has no interpretation logic of its own, so it cannot drift
//! from the kernel. After each step both the outcome summary and the
//! [state digest](KernelState::digest) are compared against what the
//! recorder wrote. Any mismatch is a [`Divergence`] — either the replayed
//! operation returned something different ([`DivergenceKind::Outcome`])
//! or the kernel ended up in a different state
//! ([`DivergenceKind::Digest`]).
//!
//! [`audit`] checks whole-trace properties no single step can see:
//! filter immutability after sealing, grant/revoke balance per
//! `(segment, pid)`, and page-protection accounting. These run over the
//! log alone (plus a shadow replay for the accounting rule), so a forged
//! or corrupted log is flagged even when each individual record looks
//! plausible.
//!
//! [`forensic_chain`] walks the log *backward* from any record — a
//! delivered fault, a filter kill — collecting the provenance chain of
//! every process, segment, and channel transitively involved. This is
//! the kernel-level half of the forensic reporter; the `freepart-core`
//! forensics layer joins these chains with runtime audit records.

use std::collections::BTreeSet;

use crate::commit::{CommitLog, CommitOp, CommitOutcome};
use crate::core::state::KernelState;
use crate::core::step::{outcome_of_step, step};
use crate::ipc::ChannelId;
use crate::kernel::Kernel;
use crate::process::Pid;
use crate::shm::ShmId;
use crate::syscall::Syscall;

/// How a replayed step differed from the recorded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The re-applied operation produced a different outcome summary.
    Outcome,
    /// The kernel state digest after the step did not match.
    Digest,
}

/// One replay mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Log index of the mismatching record.
    pub index: u64,
    /// Stable operation name ([`CommitOp::name`]).
    pub op: String,
    /// What differed.
    pub kind: DivergenceKind,
    /// The recorded value (outcome raw word or digest).
    pub expected: u64,
    /// The replayed value.
    pub got: u64,
}

/// Result of a full replay pass.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Records re-applied.
    pub steps: u64,
    /// Every mismatch found, in log order.
    pub divergences: Vec<Divergence>,
}

impl ReplayReport {
    /// True when every step reproduced outcome and digest exactly.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Re-applies one logged operation to `k` through the recorded path
/// ([`Kernel::apply`], i.e. the pure `step`), returning the outcome
/// summary via the shared [`outcome_of_step`] path so recorder and
/// replayer cannot drift. Kept as the op-at-a-time surface for
/// forensics-style consumers that interleave re-execution with their
/// own bookkeeping.
pub fn apply_op(k: &mut Kernel, op: &CommitOp) -> CommitOutcome {
    outcome_of_step(&k.apply(op.clone()))
}

/// Replays `log` by folding the pure [`step`](fn@crate::core::step)
/// over a fresh [`KernelState`], asserting digest-identical state at
/// every record. Returns the rebuilt kernel (useful for re-deriving
/// end-of-run verdicts) and the divergence report.
pub fn replay(log: &CommitLog) -> (Kernel, ReplayReport) {
    let mut state = KernelState::with_cost_model(log.genesis().clone());
    let mut report = ReplayReport::default();
    for rec in log.records() {
        let got = outcome_of_step(&step(&mut state, &rec.op));
        report.steps += 1;
        if got != rec.outcome {
            report.divergences.push(Divergence {
                index: rec.index,
                op: rec.op.name().to_owned(),
                kind: DivergenceKind::Outcome,
                expected: rec.outcome.raw(),
                got: got.raw(),
            });
        }
        let digest = state.digest();
        if digest != rec.digest {
            report.divergences.push(Divergence {
                index: rec.index,
                op: rec.op.name().to_owned(),
                kind: DivergenceKind::Digest,
                expected: rec.digest,
                got: digest,
            });
        }
    }
    (Kernel::from_state(state), report)
}

/// One whole-trace invariant violation found by [`audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Log index where the violation became observable (`log.len()` for
    /// end-of-trace accounting mismatches).
    pub index: u64,
    /// Stable rule name: `filter-immutability`, `grant-balance`,
    /// `grant-to-dead`, `page-accounting`.
    pub rule: &'static str,
    /// Human-readable description.
    pub detail: String,
}

/// Audits whole-trace invariants over `log`:
///
/// * **filter-immutability** — once a pid is sealed (a successful
///   [`CommitOp::SetNoNewPrivs`] or a `PrctlNoNewPrivs` syscall), no
///   later [`CommitOp::InstallFilter`] on it may succeed, until the pid
///   is reaped.
/// * **grant-balance** — every successful revoke tears down a grant the
///   log actually issued, and a revoke reporting "no grant existed" must
///   not contradict the modeled grant table.
/// * **grant-to-dead** — a successful grant must not target a pid the
///   log already recorded as dead (fault, force-exit, or `Exit`).
/// * **page-accounting** — the sum of page deltas reported by successful
///   `protect` / `shm_protect_all` records plus `Mprotect` syscalls
///   (measured on a shadow replay) equals the shadow kernel's
///   `protected_pages` counter, resetting at
///   [`CommitOp::ResetAccounting`].
///
/// Honest recorded logs audit clean; the rules exist to flag forged or
/// corrupted logs and to prove the kernel itself keeps these promises
/// (see the property tests in `tests/replay_props.rs`).
pub fn audit(log: &CommitLog) -> Vec<InvariantViolation> {
    use CommitOp as O;
    let mut violations = Vec::new();
    let mut sealed: BTreeSet<Pid> = BTreeSet::new();
    let mut dead: BTreeSet<Pid> = BTreeSet::new();
    let mut grants: BTreeSet<(u64, u32)> = BTreeSet::new();
    let mut shadow = KernelState::with_cost_model(log.genesis().clone());
    let mut expected_pages: u64 = 0;

    for rec in log.records() {
        let ok = rec.outcome.is_ok();
        let pages_before = shadow.metrics().protected_pages;
        let _ = step(&mut shadow, &rec.op);
        let pages_after = shadow.metrics().protected_pages;
        match &rec.op {
            O::SetNoNewPrivs { pid } if ok => {
                sealed.insert(*pid);
            }
            O::Syscall {
                pid,
                call: Syscall::PrctlNoNewPrivs,
            } if ok => {
                sealed.insert(*pid);
            }
            O::Syscall {
                pid,
                call: Syscall::Exit { .. },
            } if ok => {
                dead.insert(*pid);
            }
            O::Syscall { .. } => {
                expected_pages += pages_after - pages_before;
            }
            O::InstallFilter { pid, .. } if ok && sealed.contains(pid) => {
                violations.push(InvariantViolation {
                    index: rec.index,
                    rule: "filter-immutability",
                    detail: format!("filter replaced on sealed {pid}"),
                });
            }
            O::DeliverFault { pid, .. } => {
                dead.insert(*pid);
            }
            O::ForceExit { pid, .. } if ok && rec.outcome.raw() == 1 => {
                dead.insert(*pid);
            }
            O::Reap { pid } if ok => {
                sealed.remove(pid);
                grants.retain(|&(_, g)| g != pid.0);
            }
            O::ShmCreate { owner, .. } if ok => {
                grants.insert((rec.outcome.raw(), owner.0));
            }
            O::ShmGrant { id, pid, .. } if ok => {
                if dead.contains(pid) {
                    violations.push(InvariantViolation {
                        index: rec.index,
                        rule: "grant-to-dead",
                        detail: format!("grant on {id} issued to dead {pid}"),
                    });
                }
                grants.insert((id.0, pid.0));
            }
            O::ShmRevoke { id, pid } if ok => {
                let modeled = grants.remove(&(id.0, pid.0));
                let claimed = rec.outcome.raw() == 1;
                if claimed != modeled {
                    violations.push(InvariantViolation {
                        index: rec.index,
                        rule: "grant-balance",
                        detail: format!(
                            "revoke of ({id}, {pid}) reported existed={claimed} \
                             but the log issued {}",
                            if modeled { "a grant" } else { "no grant" }
                        ),
                    });
                }
            }
            O::ShmDestroy { id } => {
                grants.retain(|&(s, _)| s != id.0);
            }
            O::Protect { .. } | O::ShmProtectAll { .. } if ok => {
                expected_pages += rec.outcome.raw();
            }
            O::ResetAccounting => {
                expected_pages = 0;
            }
            _ => {}
        }
    }

    let counted = shadow.metrics().protected_pages;
    if expected_pages != counted {
        violations.push(InvariantViolation {
            index: log.len(),
            rule: "page-accounting",
            detail: format!(
                "log-audited page transitions ({expected_pages}) != kernel \
                 protected_pages counter ({counted})"
            ),
        });
    }
    violations
}

/// An object a forensic walk can taint: a process, a segment, a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Entity {
    Proc(Pid),
    Seg(ShmId),
    Chan(ChannelId),
}

/// Every entity a record touches, including ids minted in its outcome
/// (a spawn's pid, a created segment or channel id).
fn entities_of(op: &CommitOp, outcome: CommitOutcome) -> Vec<Entity> {
    use CommitOp as O;
    let mut out = Vec::new();
    if let Some(pid) = op.acting_pid() {
        out.push(Entity::Proc(pid));
    }
    match op {
        O::Spawn { .. } => {
            if let CommitOutcome::Ok(raw) = outcome {
                out.push(Entity::Proc(Pid(raw as u32)));
            }
        }
        O::ShmCreate { .. } => {
            if let CommitOutcome::Ok(raw) = outcome {
                out.push(Entity::Seg(ShmId(raw)));
            }
        }
        O::ShmGrant { id, .. }
        | O::ShmMap { id, .. }
        | O::ShmRevoke { id, .. }
        | O::ShmWrite { id, .. }
        | O::ShmProtectAll { id, .. }
        | O::ShmDestroy { id } => out.push(Entity::Seg(*id)),
        O::CreateChannel { a, b, .. } => {
            out.push(Entity::Proc(*a));
            out.push(Entity::Proc(*b));
            if let CommitOutcome::Ok(raw) = outcome {
                out.push(Entity::Chan(ChannelId(raw as u32)));
            }
        }
        O::IpcSend { chan, .. } | O::IpcRecv { chan, .. } => out.push(Entity::Chan(*chan)),
        O::RebindChannel { chan, new_b } => {
            out.push(Entity::Chan(*chan));
            out.push(Entity::Proc(*new_b));
        }
        O::SetTimeContext { pid: Some(pid) } => out.push(Entity::Proc(*pid)),
        _ => {}
    }
    out
}

/// Walks the log backward from record `from`, collecting the provenance
/// chain of every entity transitively connected to it: starting from the
/// processes/segments/channels the record touches, any earlier record
/// touching a tainted entity joins the chain and taints its own entities
/// (a grant links its segment to its grantee; an IPC send links its
/// channel to its sender; a channel creation links both endpoints).
///
/// Returns log indices, most recent first, beginning with `from` itself.
/// Empty if `from` is out of range.
pub fn forensic_chain(log: &CommitLog, from: u64) -> Vec<u64> {
    let records = log.records();
    let Some(start) = records.get(from as usize) else {
        return Vec::new();
    };
    let mut taint: BTreeSet<Entity> = entities_of(&start.op, start.outcome).into_iter().collect();
    let mut chain = vec![from];
    for rec in records[..from as usize].iter().rev() {
        let ents = entities_of(&rec.op, rec.outcome);
        if ents.iter().any(|e| taint.contains(e)) {
            chain.push(rec.index);
            taint.extend(ents);
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::CommitRecord;
    use crate::error::FaultKind;
    use crate::filter::SyscallFilter;
    use crate::mem::Perms;
    use crate::syscall::SyscallNo;
    use crate::CostModel;

    fn recorded_run() -> CommitLog {
        let mut k = Kernel::new();
        k.enable_commit_log();
        let host = k.spawn("host");
        let agent = k.spawn("agent");
        let addr = k.alloc(host, 8192, Perms::RW).unwrap();
        k.mem_write(host, addr, b"payload").unwrap();
        k.protect(host, &[(addr, 8192)], Perms::R).unwrap();
        let ch = k.create_channel(host, agent, 1 << 16).unwrap();
        k.ipc_send(host, ch, b"req").unwrap();
        k.ipc_recv(agent, ch).unwrap();
        let id = k.shm_create(host, vec![7; 4096]).unwrap();
        k.shm_grant(id, agent, Perms::R).unwrap();
        k.shm_map(agent, id).unwrap();
        k.shm_revoke(id, agent).unwrap();
        k.install_filter(agent, SyscallFilter::allowing([SyscallNo::Getpid]))
            .unwrap();
        k.set_no_new_privs(agent).unwrap();
        let _ = k.syscall(agent, Syscall::Fork); // filter kill
        k.reap(agent).unwrap();
        k.take_commit_log().unwrap()
    }

    #[test]
    fn recorded_run_replays_clean() {
        let log = recorded_run();
        assert!(!log.is_empty());
        let (k, report) = replay(&log);
        assert!(report.is_clean(), "divergences: {:?}", report.divergences);
        assert_eq!(report.steps, log.len());
        // The rebuilt kernel matches the original's final digest.
        assert_eq!(k.state_digest(), log.records().last().unwrap().digest);
    }

    #[test]
    fn recorded_run_audits_clean() {
        let log = recorded_run();
        assert_eq!(audit(&log), Vec::new());
    }

    #[test]
    fn tampered_payload_is_flagged_as_divergence() {
        let log = recorded_run();
        let mut records = log.records().to_vec();
        let idx = records
            .iter()
            .position(|r| matches!(r.op, CommitOp::MemWrite { .. }))
            .unwrap();
        if let CommitOp::MemWrite { bytes, .. } = &mut records[idx].op {
            bytes[0] ^= 0xff;
        }
        let forged = CommitLog::from_parts(log.genesis().clone(), records);
        let (_, report) = replay(&forged);
        assert!(!report.is_clean());
        assert!(report
            .divergences
            .iter()
            .any(|d| d.kind == DivergenceKind::Digest && d.index == idx as u64));
    }

    #[test]
    fn forged_filter_swap_after_seal_is_flagged() {
        let log = recorded_run();
        let mut records = log.records().to_vec();
        // Forge: a successful filter replacement on the sealed agent,
        // spliced in after the seal but before the reap.
        let seal_idx = records
            .iter()
            .position(|r| matches!(r.op, CommitOp::SetNoNewPrivs { .. }))
            .unwrap();
        let agent = match records[seal_idx].op {
            CommitOp::SetNoNewPrivs { pid } => pid,
            _ => unreachable!(),
        };
        records.insert(
            seal_idx + 1,
            CommitRecord {
                index: 0,
                op: CommitOp::InstallFilter {
                    pid: agent,
                    filter: SyscallFilter::allowing(SyscallNo::ALL.iter().copied()),
                },
                outcome: CommitOutcome::Ok(0),
                digest: 0,
            },
        );
        let forged = CommitLog::from_parts(log.genesis().clone(), records);
        let viols = audit(&forged);
        assert!(viols.iter().any(|v| v.rule == "filter-immutability"));
        // The forgery also fails replay: the real kernel refuses the
        // install, so the outcome diverges.
        let (_, report) = replay(&forged);
        assert!(!report.is_clean());
    }

    #[test]
    fn forged_unbalanced_revoke_is_flagged() {
        let log = recorded_run();
        let mut records = log.records().to_vec();
        // Forge a second successful revoke of the same grant.
        let idx = records
            .iter()
            .position(|r| matches!(r.op, CommitOp::ShmRevoke { .. }))
            .unwrap();
        let mut dup = records[idx].clone();
        dup.outcome = CommitOutcome::Ok(1);
        records.insert(idx + 1, dup);
        let forged = CommitLog::from_parts(log.genesis().clone(), records);
        assert!(audit(&forged).iter().any(|v| v.rule == "grant-balance"));
    }

    #[test]
    fn forged_protect_outcome_breaks_page_accounting() {
        let log = recorded_run();
        let mut records = log.records().to_vec();
        let idx = records
            .iter()
            .position(|r| matches!(r.op, CommitOp::Protect { .. }))
            .unwrap();
        records[idx].outcome = CommitOutcome::Ok(records[idx].outcome.raw() + 5);
        let forged = CommitLog::from_parts(log.genesis().clone(), records);
        assert!(audit(&forged).iter().any(|v| v.rule == "page-accounting"));
    }

    #[test]
    fn forensic_chain_walks_fault_back_to_provenance() {
        let mut k = Kernel::new();
        k.enable_commit_log();
        let host = k.spawn("host");
        let agent = k.spawn("agent");
        let bystander = k.spawn("bystander");
        k.charge_compute(bystander, 10); // unrelated noise
        let id = k.shm_create(host, vec![1; 64]).unwrap();
        k.shm_grant(id, agent, Perms::R).unwrap();
        k.shm_map(agent, id).unwrap();
        k.shm_revoke(id, agent).unwrap();
        // The stale access faults — last record is the DeliverFault.
        assert!(k.shm_read(agent, id).is_err());
        let log = k.take_commit_log().unwrap();
        let last = log.len() - 1;
        assert!(matches!(
            log.records()[last as usize].op,
            CommitOp::DeliverFault {
                kind: FaultKind::Protection,
                ..
            }
        ));
        let chain = forensic_chain(&log, last);
        assert_eq!(chain[0], last);
        // The chain reaches the revoke, grant, creation, and both
        // spawns, but not the bystander's unrelated charge.
        let ops: Vec<&str> = chain
            .iter()
            .map(|&i| log.records()[i as usize].op.name())
            .collect();
        assert!(ops.contains(&"shm_revoke"));
        assert!(ops.contains(&"shm_grant"));
        assert!(ops.contains(&"shm_create"));
        assert!(ops.contains(&"spawn"));
        let noise = log
            .records()
            .iter()
            .position(|r| matches!(r.op, CommitOp::ChargeCompute { .. }))
            .unwrap() as u64;
        assert!(!chain.contains(&noise));
    }

    #[test]
    fn replay_of_empty_log_is_trivially_clean() {
        let log = CommitLog::new(CostModel::default());
        let (k, report) = replay(&log);
        assert!(report.is_clean());
        assert_eq!(report.steps, 0);
        assert_eq!(k.process_count(), 0);
        assert!(audit(&log).is_empty());
    }
}
