//! Agent lifecycle: sealing the per-agent syscall filter, stateful
//! snapshots, crash restarts, and crash auditing. Everything here is
//! about the agent *process*, not the calls flowing through it.
//!
//! Restarts run under a **supervisor** (DESIGN.md §13): the crashed pid
//! is reaped (address space freed, shm views revoked with audit),
//! snapshots restore incrementally from write-epoch-verified bytes, a
//! pre-forked warm spare is adopted when the policy pools one, and a
//! token-bucket budget turns respawn loops into an audited, fail-fast
//! degraded partition.

use super::transport::map_view;
use super::{Agent, RestartGovernor, Runtime, SnapshotEntry, SnapshotPlace, ThreadId};
use crate::partition::PartitionId;
use crate::policy::SandboxLevel;
use crate::syscall_policy::build_filter;
use crate::trace::{AuditRecord, SpanEvent, SpanPhase};
use freepart_frameworks::api::ApiId;
use freepart_frameworks::{ObjectId, ObjectMeta};
use freepart_simos::{FaultKind, Perms, Pid, ProcessState};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

impl Runtime {
    /// Installs and locks the partition's syscall filter (§4.4.1): the
    /// allowlist is derived from the APIs routed to this agent, then
    /// sealed with no-new-privs so not even the agent can widen it.
    ///
    /// A failed `install_filter` must never leave the agent running
    /// unsandboxed with `sealed = false`: debug builds panic, release
    /// builds audit ([`AuditRecord::SealFailed`]) and degrade the
    /// partition to fail-fast errors.
    pub(super) fn seal_agent(&mut self, partition: PartitionId) {
        let agent = self.agents.get_mut(&partition).expect("agent exists");
        let pid = agent.pid;
        let apis = agent.apis.clone();
        let Ok(process) = self.kernel.process(pid) else {
            return;
        };
        let mut filter = match self.policy.sandbox {
            SandboxLevel::None => return,
            SandboxLevel::PerAgent => build_filter(&self.reg, &self.profile, &apis, process),
            SandboxLevel::CoarseUnion => {
                // Whole-library sandbox: everything the library could
                // ever need, including mprotect for lazy loading — the
                // hole code-rewriting exploits walk through.
                let all: BTreeSet<ApiId> = self.reg.iter().map(|s| s.id).collect();
                let mut f = build_filter(&self.reg, &self.profile, &all, process);
                f.allow(freepart_simos::SyscallNo::Mprotect);
                f
            }
        };
        filter.lock();
        match self.kernel.install_filter(pid, filter) {
            Ok(()) => {
                // PR_SET_NO_NEW_PRIVS: the configuration is now immutable
                // even from inside the process. Goes through the logged
                // kernel entry point so the seal lands in the commit log
                // (the replay auditor's filter-immutability rule keys off
                // this record).
                let _ = self.kernel.set_no_new_privs(pid);
                self.agents
                    .get_mut(&partition)
                    .expect("agent exists")
                    .sealed = true;
            }
            Err(e) => {
                debug_assert!(false, "install_filter failed for {partition}: {e:?}");
                if self.tracer.enabled() {
                    let at_ns = self.kernel.now_ns();
                    self.tracer.record_audit(AuditRecord::SealFailed {
                        at_ns,
                        partition,
                        pid,
                        error: format!("{e:?}"),
                    });
                }
                self.degrade_partition(partition);
            }
        }
    }

    /// Takes a partition out of service: the agent record is dropped
    /// (hooked calls fail fast with `AgentUnavailable`) and the sticky
    /// degraded flag blocks any future respawn.
    fn degrade_partition(&mut self, partition: PartitionId) {
        self.agents.remove(&partition);
        let now = self.kernel.now_ns();
        self.governors
            .entry(partition)
            .or_insert(RestartGovernor {
                tokens: 0,
                last_refill_ns: now,
                streak: 0,
                degraded: false,
            })
            .degraded = true;
    }

    /// Records restorable copies of the partition's stateful objects
    /// (captures, models, classifiers) for use after a crash restart.
    ///
    /// Incremental mode (`Policy::incremental_snapshots`) piggybacks on
    /// the same page machinery temporal protection uses: an object whose
    /// payload sits at the same home, at the same place, with an
    /// unchanged write epoch since the previous snapshot cannot have
    /// changed — its prior bytes are reused and only the (cheap) kind
    /// and label are refreshed. Pages locked read-only across the whole
    /// interval keep their epoch by construction, so the paper's
    /// "stayed read-only ⇒ unchanged" rule falls out as a special case.
    pub(super) fn take_snapshot(&mut self, partition: PartitionId) {
        // A degraded or budget-denied partition has no agent; there is
        // nothing to snapshot (mirrors `seal_agent`'s early return).
        let Some(agent) = self.agents.get(&partition) else {
            return;
        };
        let pid = agent.pid;
        // Clean entries move from the previous table into the new one.
        let mut prev = self.snapshots.remove(&partition).unwrap_or_default();
        let mut table = BTreeMap::new();
        for &id in self.objects.stateful() {
            let Some(meta) = self.objects.meta(id).filter(|m| m.home == pid) else {
                continue;
            };
            let place = self.snapshot_place(meta);
            let clean = prev.remove(&id).filter(|p| {
                self.policy.incremental_snapshots
                    && place != SnapshotPlace::None
                    && p.home == pid
                    && p.place == place
            });
            let bytes = match clean {
                Some(p) => {
                    self.kernel.note_snapshot_skip();
                    p.bytes
                }
                None => {
                    let b = self
                        .objects
                        .read_bytes(&mut self.kernel, id)
                        .unwrap_or_default();
                    self.kernel.note_snapshot_copy(b.len() as u64);
                    b
                }
            };
            // Kind and label are always re-read: `kind` carries live
            // state (e.g. a capture's frames_read) that moves without
            // touching payload pages.
            let (kind, label) = (meta.kind.clone(), meta.label.clone());
            let entry = SnapshotEntry {
                kind,
                label,
                bytes,
                home: pid,
                place,
            };
            table.insert(id, entry);
        }
        self.snapshots.insert(partition, table);
    }

    /// Where `meta`'s payload lives right now, stamped with the write
    /// epoch observed there. `None` (no payload, or unreadable epoch)
    /// is never considered clean.
    fn snapshot_place(&self, meta: &ObjectMeta) -> SnapshotPlace {
        if let Some((seg, _)) = meta.shm {
            if let Some(s) = self.kernel.shm_segment(seg) {
                return SnapshotPlace::Shm {
                    seg,
                    epoch: s.write_epoch(),
                };
            }
        }
        if let Some((addr, len)) = meta.buffer {
            if let Some(epoch) = self.kernel.write_epoch(meta.home, addr, len.max(1)) {
                return SnapshotPlace::Buffer { addr, epoch };
            }
        }
        SnapshotPlace::None
    }

    /// Respawns a crashed agent: new process (a pre-forked warm spare
    /// when pooled), new code page, channel rebound, the crashed pid
    /// reaped (shm views revoked with audit, address space freed),
    /// stateful snapshots restored (with temporal protection re-applied
    /// to them), the completion journal carried over, and — if the old
    /// process was already sealed — the syscall filter re-sealed
    /// immediately so the sandbox never reopens in the respawn window.
    /// Crashed-process variable values are deliberately **not**
    /// restored (§6).
    pub fn restart_agent(&mut self, partition: PartitionId) {
        self.restart_agent_on(partition, ThreadId::MAIN);
    }

    /// [`Runtime::restart_agent`] attributed to the application thread
    /// whose call triggered the restart (distinct trace rows per thread).
    pub(super) fn restart_agent_on(&mut self, partition: PartitionId, thread: ThreadId) {
        let tracing = self.tracer.enabled();
        let restart_t0 = if tracing { self.kernel.now_ns() } else { 0 };
        let Some(agent) = self.agents.remove(&partition) else {
            return;
        };
        // The respawned agent's traffic may look nothing like its
        // predecessor's: drop the adaptive controller's accumulated
        // estimates for this partition. Knobs are deliberately left
        // alone — knob changes happen only at drain barriers.
        if let Some(c) = self.controller.as_mut() {
            c.reset_partition(partition);
        }
        let chan = agent.chan;
        let was_sealed = agent.sealed;
        let old_pid = agent.pid;
        if !self.take_restart_token(partition) {
            // Budget exhausted (or already degraded): no respawn. The
            // corpse is still reaped so a degraded partition does not
            // leak its dead address space; subsequent calls fail fast
            // with `AgentUnavailable`.
            self.reap_agent(old_pid);
            return;
        }
        let spare = self
            .spares
            .get_mut(&partition)
            .and_then(VecDeque::pop_front);
        let (new_pid, code_page) = match spare {
            // Warm path: adopt the pre-forked process — no spawn, no
            // code-page allocation, on the critical path only rebind,
            // reap, restore, and reseal.
            Some(s) => (s.pid, s.code_page),
            None => {
                let pid = self.kernel.spawn(&format!("agent:{partition}+"));
                let code_page = self
                    .kernel
                    .alloc(pid, freepart_simos::PAGE_SIZE, Perms::RX)
                    .expect("fresh agent allocates");
                (pid, code_page)
            }
        };
        self.kernel
            .rebind_channel(chan, new_pid)
            .expect("channel exists");
        self.agents.insert(
            partition,
            Agent {
                partition,
                pid: new_pid,
                chan,
                code_page,
                apis: agent.apis,
                sealed: false,
                calls: agent.calls,
                // The journal of completed calls lives with the rebound
                // channel, not the dead process: the respawned agent can
                // still answer re-delivered requests it already executed.
                cache: agent.cache,
            },
        );
        // Reap the corpse inside the same drain barrier as the respawn:
        // audited shm revocation first (one `ShmRevoke` per view, as at
        // state transitions), then the kernel frees the address space
        // and purges the remaining grant/map table entries.
        self.reap_agent(old_pid);
        // Restore snapshotted stateful objects into the new process, then
        // re-apply temporal protection — the restore writes into fresh RW
        // pages, and restart must not leave protected objects writable.
        let force_fail = self.fail_next_restore == Some(partition);
        if force_fail {
            self.fail_next_restore = None;
        }
        if let Some(table) = self.snapshots.remove(&partition) {
            let mut kept = BTreeMap::new();
            for (id, entry) in table {
                let restored = if force_fail {
                    Err("injected restore failure".to_owned())
                } else {
                    self.restore(id, new_pid, &entry)
                };
                match restored {
                    Ok(()) => {
                        self.reprotect(id);
                        kept.insert(id, entry);
                    }
                    Err(reason) => {
                        // A failed restore must not leave `meta.home`
                        // dangling at the reaped pid: surface it and
                        // quarantine the object, so later uses get a
                        // clean `StateLost` instead of resolving against
                        // a corpse.
                        if tracing {
                            let at_ns = self.kernel.now_ns();
                            self.tracer.record_audit(AuditRecord::SnapshotLost {
                                at_ns,
                                partition,
                                object: id,
                                reason,
                            });
                        }
                        self.quarantine_object(id);
                    }
                }
            }
            self.snapshots.insert(partition, kept);
        }
        if was_sealed && self.policy.sandbox != SandboxLevel::None {
            self.seal_agent(partition);
        }
        self.stats.restarts += 1;
        if tracing {
            let now = self.kernel.now_ns();
            self.tracer.span(SpanEvent {
                phase: SpanPhase::Restart,
                seq: self.seq,
                api: None,
                partition: Some(partition),
                thread,
                start_ns: restart_t0,
                end_ns: now,
                bytes: 0,
            });
        }
    }

    /// Writes snapshot `entry` back into object `id`, now homed in `pid`.
    /// A segment-backed object keeps a surviving segment: `pid` gets a
    /// view and the bytes go through it. Otherwise they land in a fresh
    /// buffer and a dead segment is dropped. Either way the object ends
    /// with exactly one placement, holding the snapshot's bytes (§6).
    fn restore(&mut self, id: ObjectId, pid: Pid, entry: &SnapshotEntry) -> Result<(), String> {
        let Runtime {
            kernel,
            tracer,
            objects,
            temporal,
            ..
        } = self;
        let Some(meta) = objects.meta_mut(id) else {
            return Ok(());
        };
        (meta.home, meta.kind, meta.label) = (pid, entry.kind.clone(), entry.label.clone());
        match meta.shm {
            Some((seg, len)) if kernel.shm_segment(seg).is_some() => {
                map_view(kernel, tracer, id, seg, len, pid, Perms::RW)
                    .map_err(|e| format!("{e:?}"))?;
            }
            // No live segment: `write_bytes` allocates a fresh buffer.
            _ => {
                (meta.buffer, meta.shm) = (None, None);
                temporal.drop_segment(id);
            }
        }
        objects
            .write_bytes(kernel, id, &entry.bytes)
            .map_err(|e| format!("{e:?}"))
    }

    /// Reaps a dead agent process: audited revocation of the shm views
    /// it still holds, then the kernel frees its address space and
    /// purges its grant/map entries. A still-running target (injected
    /// restarts, budget-denied teardown) exits cleanly first.
    fn reap_agent(&mut self, old_pid: Pid) {
        self.revoke_views_of(old_pid, self.seq);
        // Logged supervisor exit: a still-running target leaves an
        // auditable `ForceExit` commit record instead of a silent
        // process-table mutation.
        self.kernel.force_exit(old_pid, 0);
        let _ = self.kernel.reap(old_pid);
    }

    /// Drops a restore-orphaned object everywhere the runtime tracks it:
    /// store, temporal plane, pins, and hazards. Later calls that
    /// reference it fail fast with `StateLost`.
    fn quarantine_object(&mut self, id: ObjectId) {
        self.objects.destroy(id);
        self.temporal.forget(id);
        self.pinned.remove(&id);
        self.last_touch.take(id);
    }

    /// Spends one token from the partition's restart budget. Returns
    /// `false` — degrading the partition — when the bucket is empty or
    /// the partition was already degraded. With no budget configured
    /// every restart is allowed (the pre-supervisor behavior).
    ///
    /// Tokens refill at `refill_ns` of virtual time apiece (capped at
    /// `burst`); a full bucket resets the consecutive-restart streak.
    /// Each granted restart charges `backoff_ns << min(streak-1, 10)` of
    /// exponential backoff, so even within budget a crash loop slows
    /// down instead of hammering the respawn path.
    fn take_restart_token(&mut self, partition: PartitionId) -> bool {
        if self.is_degraded(partition) {
            return false;
        }
        let Some(budget) = self.policy.restart_budget else {
            return true;
        };
        let now = self.kernel.now_ns();
        let mut g = *self.governors.entry(partition).or_insert(RestartGovernor {
            tokens: budget.burst,
            last_refill_ns: now,
            streak: 0,
            degraded: false,
        });
        if let Some(intervals) = now
            .saturating_sub(g.last_refill_ns)
            .checked_div(budget.refill_ns)
        {
            let minted = intervals.min(u64::from(budget.burst)) as u32;
            if minted > 0 {
                g.tokens = g.tokens.saturating_add(minted).min(budget.burst);
                g.last_refill_ns = now;
            }
        }
        if g.tokens == budget.burst {
            g.streak = 0;
        }
        let granted = if g.tokens == 0 {
            g.degraded = true;
            if self.tracer.enabled() {
                self.tracer.record_audit(AuditRecord::RestartDenied {
                    at_ns: now,
                    partition,
                    restarts: self.stats.restarts,
                    burst: budget.burst,
                });
            }
            false
        } else {
            g.tokens -= 1;
            g.streak += 1;
            let backoff = budget.backoff_ns << u64::from(g.streak - 1).min(10);
            self.kernel.charge_time(backoff);
            true
        };
        self.governors.insert(partition, g);
        granted
    }

    /// Classifies a just-crashed agent's fault into an audit record:
    /// a denied syscall becomes a [`AuditRecord::FilterKill`], anything
    /// memory-related a [`AuditRecord::AccessDenied`] with the faulting
    /// address resolved back to the protected object it hit, when any.
    pub(super) fn audit_agent_crash(
        &mut self,
        partition: PartitionId,
        seq: u64,
        api: ApiId,
        agent_pid: Pid,
        thread: ThreadId,
    ) {
        let Ok(process) = self.kernel.process(agent_pid) else {
            return;
        };
        let ProcessState::Crashed(fault) = &process.state else {
            return;
        };
        let fault = fault.clone();
        let at_ns = self.kernel.now_ns();
        let state = self.state_of(thread);
        match fault.kind {
            FaultKind::SyscallDenied(no) => {
                self.tracer.note_filter_kill(seq);
                self.tracer.record_audit(AuditRecord::FilterKill {
                    at_ns,
                    partition,
                    api,
                    state,
                    syscall: format!("{no:?}"),
                });
            }
            kind => {
                let addr = fault.addr.map(|a| a.0);
                let object = addr.and_then(|a| {
                    self.objects
                        .iter()
                        .find(|m| {
                            m.buffer
                                .is_some_and(|(base, len)| a >= base.0 && a < base.0 + len.max(1))
                        })
                        .map(|m| m.id)
                });
                self.tracer.record_audit(AuditRecord::AccessDenied {
                    at_ns,
                    partition,
                    api,
                    state,
                    object,
                    addr,
                    fault: format!("{kind:?}"),
                });
            }
        }
    }
}
