//! The single total transition function of the kernel state machine.
//!
//! [`step`] takes a [`KernelState`] and one [`CommitOp`], applies the
//! transition, and returns the typed result; the result is its only
//! output. Every kernel behavior — process lifecycle, memory
//! protection, shared memory, filters, syscall dispatch, IPC, virtual
//! time — lives behind this one function; the shell
//! ([`Kernel`](crate::Kernel)) merely translates its public entry
//! points into ops and records each step, and
//! [`replay`](fn@crate::replay::replay) is literally a fold of `step`
//! over a log.
//!
//! `step` is total over its input vocabulary: it never panics on any
//! op/state combination (failures are values — [`SimError`]s or
//! delivered faults), performs no I/O, reads no ambient clock, and
//! draws no external entropy. In debug builds every transition is
//! followed by [`KernelState::check_invariants`].

use crate::commit::{
    err_summary, fault_summary, hash_bytes, mix, some_summary, CommitOp, CommitOutcome,
};
use crate::cost::VirtualClock;
use crate::device::{Camera, WindowId};
use crate::error::{Errno, Fault, FaultKind, SimError};
use crate::filter::FilterDecision;
use crate::ipc::{ChannelId, RingChannel, RingError};
use crate::mem::{Addr, Perms, PAGE_SIZE};
use crate::process::{Pid, ProcessState, SimProcess};
use crate::shm::{ShmId, ShmSegment};
use crate::syscall::SyscallRet;

use super::digest::Footprint;
use super::dispatch::dispatch;
use super::state::{KernelState, TimelineMode};

/// The typed value a successful transition produces — one variant per
/// return shape of the shell's public entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepValue {
    /// No interesting value (summary 0).
    Unit,
    /// A plain number (page counts, byte lengths).
    Num(u64),
    /// A process id (spawn).
    Proc(Pid),
    /// An optional process id (previous time context).
    ProcOpt(Option<Pid>),
    /// An address (alloc).
    Addr(Addr),
    /// A boolean (revoke/destroy/force-exit "did anything happen").
    Flag(bool),
    /// A shared-memory segment id.
    Seg(ShmId),
    /// An IPC channel id.
    Chan(ChannelId),
    /// An optional received payload (ipc_recv).
    PayloadOpt(Option<Vec<u8>>),
    /// An optional GUI key press.
    KeyOpt(Option<u8>),
    /// A GUI window id.
    Win(WindowId),
    /// A delivered fault (deliver_fault is infallible).
    Crash(Fault),
    /// A syscall return value.
    Ret(SyscallRet),
}

/// What one [`step`] produced: a typed value or a typed error.
pub type StepResult = Result<StepValue, SimError>;

/// The commit-log outcome summary of a [`StepResult`]: the one
/// summarization path the recorder and replay share.
///
/// Plain identifiers and numbers summarize to themselves, so
/// [`audit`](crate::replay::audit) can read page counts and
/// [`forensic_chain`](crate::replay::forensic_chain) minted ids straight
/// off the log; optional values tag the present arm; structured values
/// hash.
pub fn outcome_of_step(r: &StepResult) -> CommitOutcome {
    let v = match r {
        Ok(v) => v,
        Err(e) => return CommitOutcome::Err(err_summary(e)),
    };
    CommitOutcome::Ok(match v {
        StepValue::Unit => 0,
        StepValue::Num(n) => *n,
        StepValue::Proc(pid) => u64::from(pid.0),
        StepValue::ProcOpt(pid) => some_summary(pid.map(|p| u64::from(p.0))),
        StepValue::Addr(a) => a.0,
        StepValue::Flag(b) => u64::from(*b),
        StepValue::Seg(id) => id.0,
        StepValue::Chan(id) => u64::from(id.0),
        StepValue::PayloadOpt(b) => some_summary(b.as_deref().map(hash_bytes)),
        StepValue::KeyOpt(k) => some_summary(k.map(u64::from)),
        StepValue::Win(id) => u64::from(id.0),
        StepValue::Crash(f) => fault_summary(f),
        StepValue::Ret(SyscallRet::Ok) => 1,
        StepValue::Ret(SyscallRet::NewFd(fd)) => mix(2, u64::from(fd.0)),
        StepValue::Ret(SyscallRet::Bytes(b)) => mix(3, hash_bytes(b)),
        StepValue::Ret(SyscallRet::Num(n)) => mix(4, *n),
        StepValue::Ret(SyscallRet::Mapped(a)) => mix(5, a.0),
    })
}

/// Applies one transition to `state` and returns the typed result.
///
/// The digest's multiset hashes are kept current here, around the
/// transition: the entries named by the op's footprint are retired
/// before it and admitted after it (see `core/digest.rs`), so the live
/// recorder and replay share one upkeep path.
pub fn step(state: &mut KernelState, op: &CommitOp) -> StepResult {
    let footprint = Footprint::of(state, op);
    if let Some(f) = &footprint {
        f.retire(state, op);
    }
    let r = apply(state, op);
    if let Some(f) = &footprint {
        f.admit(state, op);
    }
    #[cfg(debug_assertions)]
    state.check_invariants();
    r
}

/// Crashes `pid` with a fault, if it exists and is running; returns the
/// fault either way (delivery to the already-dead is absorbed). The
/// core-internal form of the shell's `deliver_fault`: faults raised
/// *inside* another op (a denied write, a filter kill) go through here
/// and stay part of that op's single record.
pub(super) fn crash(
    state: &mut KernelState,
    pid: Pid,
    kind: FaultKind,
    addr: Option<Addr>,
) -> Fault {
    let fault = Fault { pid, kind, addr };
    if let Some(p) = state.procs.get_mut(&pid) {
        if p.is_running() {
            p.state = ProcessState::Crashed(fault.clone());
            state.metrics.faults += 1;
        }
    }
    fault
}

#[allow(clippy::too_many_lines)]
fn apply(state: &mut KernelState, op: &CommitOp) -> StepResult {
    use CommitOp as O;
    match op {
        // ---------------- process lifecycle ----------------
        O::Spawn { name } => {
            let pid = Pid(state.next_pid);
            state.next_pid += 1;
            state.procs.insert(pid, SimProcess::new(pid, name));
            let ns = state.cost.spawn_ns;
            state.charge_ctx(ns);
            if state.mode == TimelineMode::PerProcess {
                // The child exists once the spawner has paid the spawn
                // cost: its timeline starts at the spawner's current time.
                let birth = match state.time_ctx {
                    Some(p) => state.timeline_ns(p),
                    None => state.clock.now_ns(),
                };
                let mut c = VirtualClock::new();
                c.charge(birth);
                state.timelines.insert(pid, c);
            }
            state.metrics.spawns += 1;
            Ok(StepValue::Proc(pid))
        }
        O::DeliverFault { pid, kind, addr } => {
            Ok(StepValue::Crash(crash(state, *pid, kind.clone(), *addr)))
        }
        O::Reap { pid } => {
            let pid = *pid;
            let p = state.procs.get(&pid).ok_or(SimError::NoSuchProcess(pid))?;
            if p.is_running() {
                return Err(SimError::Errno(Errno::Eperm));
            }
            let pages = p.aspace.mapped_bytes() / PAGE_SIZE;
            state.procs.remove(&pid);
            for seg in state.shm.values_mut() {
                seg.purge(pid);
            }
            state.metrics.reaps += 1;
            Ok(StepValue::Num(pages))
        }
        O::ForceExit { pid, code } => {
            let changed = match state.procs.get_mut(pid) {
                Some(p) if p.is_running() => {
                    p.state = ProcessState::Exited(*code);
                    true
                }
                _ => false,
            };
            Ok(StepValue::Flag(changed))
        }
        O::SetNoNewPrivs { pid } => {
            let p = state
                .procs
                .get_mut(pid)
                .ok_or(SimError::NoSuchProcess(*pid))?;
            p.no_new_privs = true;
            Ok(StepValue::Unit)
        }

        // ---------------- memory ----------------
        O::Alloc { pid, len, perms } => {
            state.require_running(*pid)?;
            let addr = state.process_mut(*pid)?.aspace.alloc(*len, *perms);
            Ok(StepValue::Addr(addr))
        }
        O::MemWrite { pid, addr, bytes } => {
            let (pid, addr) = (*pid, *addr);
            state.require_running(pid)?;
            let p = state.procs.get_mut(&pid).expect("checked");
            match p.aspace.write(addr, bytes) {
                Ok(()) => Ok(StepValue::Unit),
                Err(kind) => Err(crash(state, pid, kind, Some(addr)).into()),
            }
        }
        O::Protect { pid, ranges, perms } => {
            let pid = *pid;
            state.require_running(pid)?;
            let p = state.procs.get_mut(&pid).expect("checked");
            match p.aspace.protect(ranges, *perms) {
                Ok(changed) => {
                    if changed > 0 {
                        let ns = state.cost.mprotect_cost(changed);
                        state.charge_to(pid, ns);
                        state.metrics.protected_pages += changed;
                    }
                    Ok(StepValue::Num(changed))
                }
                Err(_) => Err(SimError::Errno(Errno::Einval)),
            }
        }

        // ---------------- shared memory ----------------
        O::ShmCreate { owner, bytes } => {
            let owner = *owner;
            state.require_running(owner)?;
            let id = ShmId(state.next_shm);
            state.next_shm += 1;
            let len = bytes.len() as u64;
            let mut seg = ShmSegment::new(bytes.clone());
            seg.grants.insert(owner, Perms::RW);
            seg.mapped.insert(owner);
            state.shm.insert(id, seg);
            let ns = state.cost.syscall_ns + state.cost.shm_map_cost(len);
            state.charge_to(owner, ns);
            state.metrics.shm_grants += 1;
            state.metrics.shm_mapped_bytes += len;
            Ok(StepValue::Seg(id))
        }
        O::ShmGrant { id, pid, perms } => {
            let pid = *pid;
            state.require_running(pid)?;
            let seg = state.shm.get_mut(id).ok_or(SimError::Errno(Errno::Ebadf))?;
            seg.grants.insert(pid, *perms);
            let ns = state.cost.syscall_ns;
            state.charge_to(pid, ns);
            state.metrics.shm_grants += 1;
            Ok(StepValue::Unit)
        }
        O::ShmMap { pid, id } => {
            let pid = *pid;
            state.require_running(pid)?;
            let seg = state.shm.get_mut(id).ok_or(SimError::Errno(Errno::Ebadf))?;
            if !seg.grants.contains_key(&pid) {
                return Err(SimError::Errno(Errno::Eacces));
            }
            let len = seg.len();
            if seg.mapped.insert(pid) {
                let ns = state.cost.syscall_ns + state.cost.shm_map_cost(len);
                state.charge_to(pid, ns);
                state.metrics.shm_mapped_bytes += len;
            } else {
                let ns = state.cost.syscall_ns;
                state.charge_to(pid, ns);
            }
            Ok(StepValue::Num(len))
        }
        O::ShmRevoke { id, pid } => {
            let seg = state.shm.get_mut(id).ok_or(SimError::Errno(Errno::Ebadf))?;
            let existed = seg.grants.remove(pid).is_some();
            seg.mapped.remove(pid);
            if existed {
                let pages = seg.len().div_ceil(PAGE_SIZE).max(1);
                let ns = state.cost.mprotect_cost(pages);
                state.charge_ctx(ns);
                state.metrics.shm_revokes += 1;
            }
            Ok(StepValue::Flag(existed))
        }
        O::ShmProtectAll { id, perms } => {
            let seg = state.shm.get_mut(id).ok_or(SimError::Errno(Errno::Ebadf))?;
            let pages = seg.len().div_ceil(PAGE_SIZE).max(1);
            let mut changed = 0;
            for p in seg.grants.values_mut() {
                if *p != *perms {
                    *p = *perms;
                    changed += pages;
                }
            }
            if changed > 0 {
                let ns = state.cost.mprotect_cost(changed);
                state.charge_ctx(ns);
                state.metrics.protected_pages += changed;
            }
            Ok(StepValue::Num(changed))
        }
        O::ShmWrite { pid, id, bytes } => {
            let pid = *pid;
            state.require_running(pid)?;
            let Some(seg) = state.shm.get(id) else {
                return Err(crash(state, pid, FaultKind::Unmapped, None).into());
            };
            let ok = seg.is_mapped(pid) && seg.grant_of(pid).is_some_and(|p| p.writable());
            if !ok {
                return Err(crash(state, pid, FaultKind::Protection, None).into());
            }
            let seg = state.shm.get_mut(id).expect("checked");
            seg.replace_data(bytes);
            Ok(StepValue::Unit)
        }
        O::ShmDestroy { id } => Ok(StepValue::Flag(state.shm.remove(id).is_some())),

        // ---------------- filters and syscalls ----------------
        O::InstallFilter { pid, filter } => {
            let pid = *pid;
            state.require_running(pid)?;
            let p = state.procs.get_mut(&pid).expect("checked");
            if p.no_new_privs {
                return Err(SimError::Errno(Errno::Eperm));
            }
            p.filter = Some(filter.clone());
            Ok(StepValue::Unit)
        }
        O::Syscall { pid, call } => {
            let pid = *pid;
            state.require_running(pid)?;
            // Filter check (seccomp runs before the syscall body).
            let decision = state
                .procs
                .get(&pid)
                .expect("checked")
                .filter
                .as_ref()
                .map_or(FilterDecision::Allow, |f| f.evaluate(call));
            if decision == FilterDecision::Kill {
                state.metrics.filter_kills += 1;
                let kind = FaultKind::SyscallDenied(call.number());
                return Err(crash(state, pid, kind, None).into());
            }
            let ns = state.cost.syscall_ns;
            state.charge_to(pid, ns);
            state.metrics.syscalls += 1;
            dispatch(state, pid, call.clone()).map(StepValue::Ret)
        }

        // ---------------- IPC ----------------
        O::CreateChannel { a, b, capacity } => {
            state.require_running(*a)?;
            state.require_running(*b)?;
            let id = ChannelId(state.next_channel);
            state.next_channel += 1;
            state
                .channels
                .insert(id, RingChannel::new(*a, *b, *capacity));
            Ok(StepValue::Chan(id))
        }
        O::IpcSend { pid, chan, payload } => {
            let pid = *pid;
            state.require_running(pid)?;
            let latency = state.cost.ipc_latency_ns();
            let copy = state.cost.copy_cost(payload.len() as u64);
            // The frame is stamped with the sender's virtual time *after*
            // the charges below complete, so a receiver on its own
            // timeline merges against the true completion of the send.
            let send_ns = state.timeline_ns(pid) + latency + copy;
            let channel = state.channels.get_mut(chan).ok_or(SimError::BadChannel)?;
            channel
                .send(pid, bytes::Bytes::copy_from_slice(payload), send_ns)
                .map_err(|e| match e {
                    RingError::Full => SimError::Errno(Errno::Enospc),
                    RingError::NotEndpoint => SimError::BadChannel,
                })?;
            state.charge_to(pid, latency);
            state.charge_to(pid, copy);
            state.metrics.ipc_messages += 1;
            state.metrics.ipc_bytes += payload.len() as u64;
            Ok(StepValue::Unit)
        }
        O::IpcRecv { pid, chan } => {
            let pid = *pid;
            state.require_running(pid)?;
            let latency = state.cost.ipc_latency_ns();
            let channel = state.channels.get_mut(chan).ok_or(SimError::BadChannel)?;
            match channel.try_recv(pid) {
                Ok(Some(frame)) => {
                    if state.mode == TimelineMode::PerProcess {
                        let t = state.timelines.entry(pid).or_default();
                        if frame.send_ns > t.now_ns() {
                            let delta = frame.send_ns - t.now_ns();
                            t.charge(delta);
                            state.metrics.timeline_merges += 1;
                        }
                    }
                    state.charge_to(pid, latency);
                    Ok(StepValue::PayloadOpt(Some(frame.payload.to_vec())))
                }
                Ok(None) => Ok(StepValue::PayloadOpt(None)),
                Err(_) => Err(SimError::BadChannel),
            }
        }
        O::RebindChannel { chan, new_b } => {
            let channel = state.channels.get_mut(chan).ok_or(SimError::BadChannel)?;
            channel.rebind_b(*new_b);
            Ok(StepValue::Unit)
        }

        // ---------------- accounting ----------------
        O::ChargeTime { ns } => {
            state.charge_ctx(*ns);
            Ok(StepValue::Unit)
        }
        O::ChargeCopy { bytes } => {
            let ns = state.cost.copy_cost(*bytes);
            state.charge_ctx(ns);
            state.metrics.copied_bytes += *bytes;
            state.metrics.copy_ops += 1;
            Ok(StepValue::Unit)
        }
        O::ChargeCompute { pid, units } => {
            let ns = state.cost.compute_cost(*units);
            state.charge_to(*pid, ns);
            if let Some(p) = state.procs.get_mut(pid) {
                p.cpu_ns += ns;
            }
            Ok(StepValue::Unit)
        }
        O::NoteCallsBatched { n } => {
            state.metrics.calls_batched += *n;
            Ok(StepValue::Unit)
        }
        O::NoteSnapshotCopy { bytes } => {
            state.metrics.snapshot_bytes_copied += *bytes;
            Ok(StepValue::Unit)
        }
        O::NoteSnapshotSkip => {
            state.metrics.snapshot_objects_skipped += 1;
            Ok(StepValue::Unit)
        }
        O::ResetAccounting => {
            state.clock.reset();
            for t in state.timelines.values_mut() {
                t.reset();
            }
            state.metrics = crate::Metrics::new();
            Ok(StepValue::Unit)
        }

        // ---------------- virtual time ----------------
        O::EnablePerProcessTime => {
            if state.mode == TimelineMode::PerProcess {
                return Ok(StepValue::Unit);
            }
            state.mode = TimelineMode::PerProcess;
            let now = state.clock.now_ns();
            for pid in state.procs.keys().copied().collect::<Vec<_>>() {
                let mut c = VirtualClock::new();
                c.charge(now);
                state.timelines.insert(pid, c);
            }
            Ok(StepValue::Unit)
        }
        O::SetTimeContext { pid } => {
            let prev = std::mem::replace(&mut state.time_ctx, *pid);
            Ok(StepValue::ProcOpt(prev))
        }
        O::AdvanceTimeline { pid, ns } => {
            if state.mode == TimelineMode::PerProcess {
                let t = state.timelines.entry(*pid).or_default();
                if *ns > t.now_ns() {
                    let delta = *ns - t.now_ns();
                    t.charge(delta);
                    state.metrics.timeline_merges += 1;
                }
            }
            Ok(StepValue::Unit)
        }

        // ---------------- harness seeding and GUI ----------------
        O::FsPut { path, bytes } => {
            state.fs.put(path, bytes.clone());
            Ok(StepValue::Unit)
        }
        O::AttachCamera { seed, frame_len } => {
            state.camera = Some(Camera::new(*seed, *frame_len));
            Ok(StepValue::Unit)
        }
        O::WinCreate { title } => Ok(StepValue::Win(state.display.create_window(title))),
        O::WinPresent { win, frame_len } => {
            Ok(StepValue::Flag(state.display.present(*win, *frame_len)))
        }
        O::WinDestroyAll => {
            state.display.destroy_all();
            Ok(StepValue::Unit)
        }
        O::WinPollKey => Ok(StepValue::KeyOpt(state.display.poll_key())),
        O::PushKey { key } => {
            state.display.push_key(*key);
            Ok(StepValue::Unit)
        }
    }
}
