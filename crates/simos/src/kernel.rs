//! The simulated kernel: the single authority every process goes through.
//!
//! [`Kernel`] owns all processes, the file system, devices, IPC channels,
//! the virtual clock, and the metrics counters. Its API is deliberately
//! shaped like the attack surface FreePart cares about:
//!
//! * [`Kernel::mem_read`] / [`Kernel::mem_write`] — all data access,
//!   checked against per-page permissions; violations crash the caller.
//! * [`Kernel::syscall`] — all kernel services, checked against the
//!   caller's seccomp-style filter; violations kill the caller.
//! * [`Kernel::install_filter`] — refused once `PR_SET_NO_NEW_PRIVS` is
//!   set, so a compromised agent cannot relax its own sandbox.
//! * [`Kernel::ipc_send`] / [`Kernel::ipc_recv`] — ring-buffer messaging
//!   with per-byte cost accounting.
//!
//! Everything advances one [`VirtualClock`](crate::cost::VirtualClock)
//! by default, making run times deterministic and comparable across
//! isolation schemes. For pipelined execution the kernel can instead
//! keep one timeline per process ([`TimelineMode::PerProcess`]): each
//! charge lands on the acting process's clock, message delivery applies
//! a happens-before merge (`recv = max(recv, frame.send_ns)` plus
//! delivery latency), and the run's makespan is the max over all
//! timelines.
//!
//! ## Shell over a pure core
//!
//! `Kernel` is a *shell*: the state machine itself lives in
//! [`crate::core`]. Every mutating entry point below builds a
//! [`CommitOp`] and folds it through the single pure transition
//! function [`step`](fn@crate::core::step) — there is no second
//! implementation of any kernel behavior here. The shell's only jobs
//! are translating typed arguments to ops (and [`StepValue`]s back to
//! typed returns), writing one commit record per step when recording,
//! and exposing the pure reads of the underlying [`KernelState`] via
//! `Deref`.

use crate::commit::{CommitLog, CommitOp};
use crate::core::state::KernelState;
use crate::core::step::{outcome_of_step, step, StepResult, StepValue};
use crate::cost::CostModel;
use crate::device::WindowId;
use crate::error::{Fault, FaultKind, SimResult};
use crate::filter::SyscallFilter;
use crate::ipc::ChannelId;
use crate::mem::{Addr, Perms};
use crate::process::Pid;
use crate::shm::ShmId;
use crate::syscall::{Syscall, SyscallRet};

pub use crate::core::state::TimelineMode;

/// The simulated operating system kernel: a thin, recording shell
/// around the pure [`KernelState`] + [`step`] core.
///
/// See the [module docs](self) for the design; see the crate docs for a
/// usage example. Pure reads ([`KernelState::metrics`],
/// [`KernelState::now_ns`], the public `fs`/`camera`/`display`/`network`
/// fields, …) are reachable directly on the kernel handle through
/// `Deref`.
pub struct Kernel {
    state: KernelState,
    /// The flight recorder, when enabled (see [`Kernel::enable_commit_log`]).
    commit: Option<CommitLog>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Kernel {
    type Target = KernelState;
    fn deref(&self) -> &KernelState {
        &self.state
    }
}

impl std::ops::DerefMut for Kernel {
    fn deref_mut(&mut self) -> &mut KernelState {
        &mut self.state
    }
}

impl Kernel {
    /// A fresh kernel with the default cost model and seed.
    pub fn new() -> Kernel {
        Kernel::with_cost_model(CostModel::default())
    }

    /// A fresh kernel with a custom cost model.
    pub fn with_cost_model(cost: CostModel) -> Kernel {
        Kernel::from_state(KernelState::with_cost_model(cost))
    }

    /// Wraps an existing core state in a (non-recording) shell — how
    /// [`crate::replay::replay`] hands back a kernel after folding a log.
    pub fn from_state(state: KernelState) -> Kernel {
        Kernel {
            state,
            commit: None,
        }
    }

    /// The underlying pure state (every read is also available directly
    /// on the kernel via `Deref`).
    pub fn state(&self) -> &KernelState {
        &self.state
    }

    /// Runs one op through the pure core and, when recording, writes
    /// its one commit record: the op, its outcome summary, and the
    /// post-step digest. A non-recording kernel computes neither.
    fn do_step(&mut self, op: CommitOp) -> StepResult {
        let r = step(&mut self.state, &op);
        if let Some(log) = self.commit.as_mut() {
            log.push(op, outcome_of_step(&r), self.state.digest());
        }
        r
    }

    /// Applies one [`CommitOp`] through the pure core, recorded exactly
    /// like the typed entry point it corresponds to. This is the generic
    /// form of every mutating method below; replay and forensics use it
    /// to re-execute logged ops without caring which arm they are.
    pub fn apply(&mut self, op: CommitOp) -> StepResult {
        self.do_step(op)
    }

    // ------------------------------------------------------------------
    // Flight recorder
    // ------------------------------------------------------------------

    /// Turns on the commit log. Every state-mutating kernel transition
    /// from this point on appends one [`CommitRecord`] with a post-state
    /// digest, and the whole run becomes reproducible from the log alone
    /// via [`crate::replay::replay`].
    ///
    /// Recording must start from a pristine kernel (no processes,
    /// channels, segments, files, or elapsed time): replays rebuild
    /// genesis as `Kernel::with_cost_model(log.genesis())`, and the fixed
    /// entropy seed makes two pristine kernels identical.
    ///
    /// # Panics
    ///
    /// Panics if any state has already been created.
    ///
    /// [`CommitRecord`]: crate::commit::CommitRecord
    pub fn enable_commit_log(&mut self) {
        assert!(
            self.state.is_pristine(),
            "commit log must be enabled on a pristine kernel"
        );
        self.commit = Some(CommitLog::new(self.state.cost.clone()));
    }

    /// True when the flight recorder is on.
    pub fn recording(&self) -> bool {
        self.commit.is_some()
    }

    /// Number of records committed so far (0 when not recording). Used
    /// by the runtime to correlate audit records with log positions.
    pub fn commit_len(&self) -> u64 {
        self.commit.as_ref().map_or(0, |l| l.len())
    }

    /// Detaches and returns the commit log, turning recording off.
    pub fn take_commit_log(&mut self) -> Option<CommitLog> {
        self.commit.take()
    }

    /// Digest of the complete observable kernel state. Delegates to
    /// [`KernelState::digest`] — the shell has no digest of its own, so
    /// it cannot drift from what replay verifies against.
    pub fn state_digest(&self) -> u64 {
        self.state.digest()
    }

    // ------------------------------------------------------------------
    // Virtual time
    // ------------------------------------------------------------------

    /// Switches to one-timeline-per-process virtual time. Existing
    /// processes' timelines are seeded at the current global time.
    pub fn enable_per_process_time(&mut self) {
        let _ = self.do_step(CommitOp::EnablePerProcessTime);
    }

    /// Sets the process charged for pid-less costs under per-process
    /// time (no effect under the global clock). Returns the previous
    /// context so callers can restore it.
    pub fn set_time_context(&mut self, pid: Option<Pid>) -> Option<Pid> {
        match self.do_step(CommitOp::SetTimeContext { pid }) {
            Ok(StepValue::ProcOpt(prev)) => prev,
            _ => unreachable!("set_time_context is infallible"),
        }
    }

    /// Advances `pid`'s timeline to at least `ns` (a happens-before
    /// merge against an event outside message delivery, e.g. an object
    /// produced by an in-flight call). No-op under the global clock and
    /// when the timeline is already past `ns`.
    pub fn advance_timeline_to(&mut self, pid: Pid, ns: u64) {
        let _ = self.do_step(CommitOp::AdvanceTimeline { pid, ns });
    }

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    /// Spawns a new process, charging the spawn cost.
    pub fn spawn(&mut self, name: &str) -> Pid {
        match self.do_step(CommitOp::Spawn {
            name: name.to_owned(),
        }) {
            Ok(StepValue::Proc(pid)) => pid,
            _ => unreachable!("spawn is infallible"),
        }
    }

    /// Delivers a fatal fault to `pid`, marking it crashed.
    ///
    /// When recording, a direct call logs a [`CommitOp::DeliverFault`] —
    /// this is how faults raised by otherwise-pure reads
    /// ([`Kernel::mem_read`], [`Kernel::shm_read`]) enter the log.
    /// Faults raised *inside* another kernel op (a denied write, a
    /// filter kill) stay part of that op's single record.
    pub fn deliver_fault(&mut self, pid: Pid, kind: FaultKind, addr: Option<Addr>) -> Fault {
        match self.do_step(CommitOp::DeliverFault { pid, kind, addr }) {
            Ok(StepValue::Crash(fault)) => fault,
            _ => unreachable!("deliver_fault is infallible"),
        }
    }

    /// Reaps a dead process: the corpse's address space is freed and
    /// every grant or mapping it held on a shared-memory segment is
    /// purged from the kernel tables. Returns the number of pages freed.
    ///
    /// Reaping is the supervisor's cleanup step, not a kill — the target
    /// must already be crashed or exited ([`Errno::Eperm`] otherwise).
    /// The pid's virtual timeline is kept so makespan stays monotone,
    /// and nothing is charged: freeing a corpse is kernel bookkeeping,
    /// off every measured path.
    ///
    /// # Errors
    ///
    /// [`SimError::NoSuchProcess`] if the pid is unknown (double reap),
    /// [`SimError::Errno`] (`EPERM`) if the process is still running.
    ///
    /// [`Errno::Eperm`]: crate::error::Errno::Eperm
    /// [`SimError::NoSuchProcess`]: crate::error::SimError::NoSuchProcess
    /// [`SimError::Errno`]: crate::error::SimError::Errno
    pub fn reap(&mut self, pid: Pid) -> SimResult<u64> {
        match self.do_step(CommitOp::Reap { pid })? {
            StepValue::Num(pages) => Ok(pages),
            _ => unreachable!("reap returns pages"),
        }
    }

    /// Seals `pid` against future privilege changes from the *outside*
    /// (the runtime's supervisor-side `PR_SET_NO_NEW_PRIVS`): after this,
    /// [`Kernel::install_filter`] on the pid fails with `EPERM`. Unlike
    /// [`Syscall::PrctlNoNewPrivs`] issued by the process itself, this
    /// does not lock an installed filter's rule set — the runtime seals
    /// after installing exactly the filter it wants.
    ///
    /// # Errors
    ///
    /// [`SimError::NoSuchProcess`](crate::error::SimError::NoSuchProcess)
    /// if the pid is unknown.
    pub fn set_no_new_privs(&mut self, pid: Pid) -> SimResult<()> {
        self.do_step(CommitOp::SetNoNewPrivs { pid })?;
        Ok(())
    }

    /// Force-exits a running process with `code` (the supervisor's
    /// pre-reap termination of a wedged agent). Returns whether the
    /// process was running and is now exited; dead or unknown pids are
    /// left untouched.
    pub fn force_exit(&mut self, pid: Pid, code: i32) -> bool {
        match self.do_step(CommitOp::ForceExit { pid, code }) {
            Ok(StepValue::Flag(changed)) => changed,
            _ => unreachable!("force_exit is infallible"),
        }
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Allocates fresh memory in `pid`'s address space (harness-level
    /// `mmap`; no syscall charge — agents' own allocations go through
    /// [`Syscall::Mmap`]).
    ///
    /// # Errors
    ///
    /// Fails when the process is unknown or dead.
    pub fn alloc(&mut self, pid: Pid, len: u64, perms: Perms) -> SimResult<Addr> {
        match self.do_step(CommitOp::Alloc { pid, len, perms })? {
            StepValue::Addr(addr) => Ok(addr),
            _ => unreachable!("alloc returns an address"),
        }
    }

    /// Reads `len` bytes at `addr` in `pid`'s address space.
    ///
    /// Reading mutates nothing, so it is not a logged transition — but a
    /// violation crashes the reader through the (logged)
    /// [`Kernel::deliver_fault`], the simulated `SIGSEGV`.
    ///
    /// # Errors
    ///
    /// On a permission or mapping violation the process is crashed and
    /// [`SimError::Fault`](crate::error::SimError::Fault) is returned.
    pub fn mem_read(&mut self, pid: Pid, addr: Addr, len: u64) -> SimResult<Vec<u8>> {
        self.state.require_running(pid)?;
        let p = self.state.process(pid)?;
        match p.aspace.read(addr, len) {
            Ok(bytes) => Ok(bytes),
            Err(kind) => Err(self.deliver_fault(pid, kind, Some(addr)).into()),
        }
    }

    /// Writes `bytes` at `addr` in `pid`'s address space.
    ///
    /// # Errors
    ///
    /// Same crash semantics as [`Kernel::mem_read`]. A write to a page
    /// FreePart made read-only is exactly this fault.
    pub fn mem_write(&mut self, pid: Pid, addr: Addr, bytes: &[u8]) -> SimResult<()> {
        self.do_step(CommitOp::MemWrite {
            pid,
            addr,
            bytes: bytes.to_vec(),
        })?;
        Ok(())
    }

    /// Simulates executing code at `addr` (X permission check).
    ///
    /// # Errors
    ///
    /// Same crash semantics as [`Kernel::mem_read`].
    pub fn mem_fetch(&mut self, pid: Pid, addr: Addr) -> SimResult<()> {
        self.state.require_running(pid)?;
        let p = self.state.process(pid)?;
        match p.aspace.fetch(addr) {
            Ok(()) => Ok(()),
            Err(kind) => Err(self.deliver_fault(pid, kind, Some(addr)).into()),
        }
    }

    /// Harness-level protection change of every `(addr, len)` range in
    /// `ranges`, *with* cost/metric accounting but without a syscall
    /// (used by the FreePart runtime, which is trusted and runs outside
    /// the filtered processes, per the threat model). One call is one
    /// step and one commit record however many ranges it covers.
    ///
    /// Accounting is **differential**: only pages whose permissions
    /// actually change are charged and counted, so re-protecting an
    /// already-read-only object costs (and audits) zero pages.
    ///
    /// # Errors
    ///
    /// `EINVAL`, changing no page, when any range is not wholly mapped;
    /// fails when the process is unknown or dead.
    pub fn protect(&mut self, pid: Pid, ranges: &[(Addr, u64)], perms: Perms) -> SimResult<u64> {
        match self.do_step(CommitOp::Protect {
            pid,
            ranges: ranges.to_vec(),
            perms,
        })? {
            StepValue::Num(changed) => Ok(changed),
            _ => unreachable!("protect returns changed pages"),
        }
    }

    // ------------------------------------------------------------------
    // Shared memory
    // ------------------------------------------------------------------

    /// Creates a kernel-owned segment seeded with `bytes` and grants the
    /// owner read-write access, page-mapped.
    ///
    /// Creation adopts the payload pages rather than copying them (the
    /// runtime promotes an existing buffer by remapping), so it charges
    /// only the per-page mapping cost, never
    /// [`CostModel::copy_cost`](crate::cost::CostModel::copy_cost).
    ///
    /// # Errors
    ///
    /// Fails when the owner is unknown or dead.
    pub fn shm_create(&mut self, owner: Pid, bytes: Vec<u8>) -> SimResult<ShmId> {
        match self.do_step(CommitOp::ShmCreate { owner, bytes })? {
            StepValue::Seg(id) => Ok(id),
            _ => unreachable!("shm_create returns a segment id"),
        }
    }

    /// Grants (or replaces) `pid`'s permissions on segment `id`.
    ///
    /// A grant is a permission-table entry; it costs one syscall. Data
    /// only becomes addressable after [`Kernel::shm_map`].
    ///
    /// # Errors
    ///
    /// `EBADF` on an unknown segment; fails when the grantee is unknown
    /// or dead.
    pub fn shm_grant(&mut self, id: ShmId, pid: Pid, perms: Perms) -> SimResult<()> {
        self.do_step(CommitOp::ShmGrant { id, pid, perms })?;
        Ok(())
    }

    /// Page-maps segment `id` into `pid`'s view.
    ///
    /// Charges [`CostModel::shm_map_cost`] — PTE installs, no byte
    /// movement — and counts the segment length into
    /// `metrics.shm_mapped_bytes`. Requires an existing grant. Mapping
    /// an already-mapped segment is a cheap no-op (one syscall).
    ///
    /// # Errors
    ///
    /// `EBADF` on an unknown segment, `EACCES` without a grant.
    ///
    /// [`CostModel::shm_map_cost`]: crate::cost::CostModel::shm_map_cost
    pub fn shm_map(&mut self, pid: Pid, id: ShmId) -> SimResult<u64> {
        match self.do_step(CommitOp::ShmMap { pid, id })? {
            StepValue::Num(len) => Ok(len),
            _ => unreachable!("shm_map returns the segment length"),
        }
    }

    /// Revokes `pid`'s grant and mapping on segment `id`.
    ///
    /// This is the temporal-permission teardown the runtime performs at
    /// framework-state transitions: the payload stays put, the view
    /// disappears. Charged like an `mprotect` over the segment (PTE
    /// clear + TLB shootdown), to the *revoker's* time context, not the
    /// victim's. Returns whether a grant actually existed.
    ///
    /// # Errors
    ///
    /// `EBADF` on an unknown segment.
    pub fn shm_revoke(&mut self, id: ShmId, pid: Pid) -> SimResult<bool> {
        match self.do_step(CommitOp::ShmRevoke { id, pid })? {
            StepValue::Flag(existed) => Ok(existed),
            _ => unreachable!("shm_revoke returns whether a grant existed"),
        }
    }

    /// Downgrades or upgrades every existing grant on `id` to `perms`
    /// without revoking (the state machine's lock/unlock over segments).
    ///
    /// Counts the affected pages into `metrics.protected_pages`, once
    /// per grant, exactly as [`Kernel::protect`] does for private pages,
    /// so audit-log page accounting stays whole.
    ///
    /// # Errors
    ///
    /// `EBADF` on an unknown segment.
    pub fn shm_protect_all(&mut self, id: ShmId, perms: Perms) -> SimResult<u64> {
        match self.do_step(CommitOp::ShmProtectAll { id, perms })? {
            StepValue::Num(changed) => Ok(changed),
            _ => unreachable!("shm_protect_all returns changed pages"),
        }
    }

    /// Reads the whole payload of segment `id` as `pid`.
    ///
    /// # Errors
    ///
    /// Without a readable, mapped grant the access is a protection fault
    /// and `pid` is crashed — identical semantics to
    /// [`Kernel::mem_read`] on a revoked page.
    pub fn shm_read(&mut self, pid: Pid, id: ShmId) -> SimResult<Vec<u8>> {
        self.state.require_running(pid)?;
        let Some(seg) = self.state.shm.get(&id) else {
            return Err(self.deliver_fault(pid, FaultKind::Unmapped, None).into());
        };
        let ok = seg.is_mapped(pid) && seg.grant_of(pid).is_some_and(|p| p.readable());
        if !ok {
            return Err(self.deliver_fault(pid, FaultKind::Protection, None).into());
        }
        Ok(self.state.shm.get(&id).expect("checked").data.clone())
    }

    /// Replaces the payload of segment `id` as `pid` (length may change;
    /// segments resize like a remapped buffer would).
    ///
    /// # Errors
    ///
    /// Without a writable, mapped grant the access is a protection fault
    /// and `pid` is crashed — the fault FreePart's temporal grants are
    /// designed to induce.
    pub fn shm_write(&mut self, pid: Pid, id: ShmId, bytes: &[u8]) -> SimResult<()> {
        self.do_step(CommitOp::ShmWrite {
            pid,
            id,
            bytes: bytes.to_vec(),
        })?;
        Ok(())
    }

    /// Destroys segment `id`, dropping payload and all grants. Returns
    /// whether the segment existed.
    pub fn shm_destroy(&mut self, id: ShmId) -> bool {
        match self.do_step(CommitOp::ShmDestroy { id }) {
            Ok(StepValue::Flag(existed)) => existed,
            _ => unreachable!("shm_destroy is infallible"),
        }
    }

    // ------------------------------------------------------------------
    // Filters and syscalls
    // ------------------------------------------------------------------

    /// Installs (or replaces) the seccomp-style filter on `pid`.
    ///
    /// # Errors
    ///
    /// `EPERM` once the process has set `PR_SET_NO_NEW_PRIVS` — the lock
    /// that stops a compromised agent from relaxing its own sandbox.
    pub fn install_filter(&mut self, pid: Pid, filter: SyscallFilter) -> SimResult<()> {
        self.do_step(CommitOp::InstallFilter { pid, filter })?;
        Ok(())
    }

    /// Executes one syscall on behalf of `pid`.
    ///
    /// The caller's filter is consulted first; a denied call kills the
    /// process (`SIGSYS`) and returns the fault. Allowed calls charge
    /// [`CostModel::syscall_ns`](crate::cost::CostModel) plus
    /// operation-specific costs and then dispatch to the file system /
    /// devices / memory manager.
    ///
    /// # Errors
    ///
    /// [`SimError::Errno`](crate::error::SimError::Errno) for ordinary
    /// failures; [`SimError::Fault`](crate::error::SimError::Fault) when
    /// the filter killed the process.
    pub fn syscall(&mut self, pid: Pid, call: Syscall) -> SimResult<SyscallRet> {
        match self.do_step(CommitOp::Syscall { pid, call })? {
            StepValue::Ret(ret) => Ok(ret),
            _ => unreachable!("syscall returns a SyscallRet"),
        }
    }

    // ------------------------------------------------------------------
    // IPC
    // ------------------------------------------------------------------

    /// Creates a shared-memory ring channel between two processes.
    ///
    /// # Errors
    ///
    /// Fails when either endpoint is unknown or dead.
    pub fn create_channel(
        &mut self,
        a: Pid,
        b: Pid,
        capacity_bytes: usize,
    ) -> SimResult<ChannelId> {
        match self.do_step(CommitOp::CreateChannel {
            a,
            b,
            capacity: capacity_bytes,
        })? {
            StepValue::Chan(id) => Ok(id),
            _ => unreachable!("create_channel returns a channel id"),
        }
    }

    /// Sends `payload` from `pid` over `chan`, charging the IPC round
    /// trip setup plus per-byte copy cost. The frame is stamped with the
    /// sender's virtual time *after* those charges, so a receiver on its
    /// own timeline can merge against the true completion of the send.
    ///
    /// # Errors
    ///
    /// `ENOSPC` when the ring is full,
    /// [`SimError::BadChannel`](crate::error::SimError::BadChannel) for
    /// an unknown channel or non-endpoint sender.
    pub fn ipc_send(&mut self, pid: Pid, chan: ChannelId, payload: &[u8]) -> SimResult<()> {
        self.do_step(CommitOp::IpcSend {
            pid,
            chan,
            payload: payload.to_vec(),
        })?;
        Ok(())
    }

    /// Receives the next message for `pid` on `chan`, if any. Under
    /// per-process time this applies the happens-before merge first:
    /// `recv = max(recv, frame.send_ns)`, then the delivery latency.
    ///
    /// # Errors
    ///
    /// [`SimError::BadChannel`](crate::error::SimError::BadChannel) for
    /// an unknown channel or non-endpoint receiver.
    pub fn ipc_recv(&mut self, pid: Pid, chan: ChannelId) -> SimResult<Option<Vec<u8>>> {
        match self.do_step(CommitOp::IpcRecv { pid, chan })? {
            StepValue::PayloadOpt(payload) => Ok(payload),
            _ => unreachable!("ipc_recv returns an optional payload"),
        }
    }

    /// Re-binds a channel's B endpoint after an agent restart.
    ///
    /// # Errors
    ///
    /// [`SimError::BadChannel`](crate::error::SimError::BadChannel) for
    /// an unknown channel.
    pub fn rebind_channel(&mut self, chan: ChannelId, new_b: Pid) -> SimResult<()> {
        self.do_step(CommitOp::RebindChannel { chan, new_b })?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Charges raw virtual time (transport penalties, modeled stalls)
    /// to the current time context.
    pub fn charge_time(&mut self, ns: u64) {
        let _ = self.do_step(CommitOp::ChargeTime { ns });
    }

    /// Records a direct cross-address-space deep copy of `bytes` bytes
    /// (object marshalling / lazy-data-copy transfers), charged to the
    /// current time context.
    pub fn charge_copy(&mut self, bytes: u64) {
        let _ = self.do_step(CommitOp::ChargeCopy { bytes });
    }

    /// Charges `units` of framework compute to `pid`.
    pub fn charge_compute(&mut self, pid: Pid, units: u64) {
        let _ = self.do_step(CommitOp::ChargeCompute { pid, units });
    }

    /// Records `n` hooked calls delivered inside one batched IPC frame.
    /// Frames themselves are counted by [`Kernel::ipc_send`]; this
    /// counter keeps the per-call denominator honest when N calls share
    /// a frame.
    pub fn note_calls_batched(&mut self, n: u64) {
        let _ = self.do_step(CommitOp::NoteCallsBatched { n });
    }

    /// Records `bytes` of snapshot payload actually copied (a dirty
    /// object). Snapshot reads are already uncharged in virtual time;
    /// these counters exist so incremental snapshots are measurable.
    pub fn note_snapshot_copy(&mut self, bytes: u64) {
        let _ = self.do_step(CommitOp::NoteSnapshotCopy { bytes });
    }

    /// Records one stateful object a snapshot round proved clean via
    /// write epochs and skipped.
    pub fn note_snapshot_skip(&mut self) {
        let _ = self.do_step(CommitOp::NoteSnapshotSkip);
    }

    /// Resets clock, per-process timelines, and counters (not
    /// processes) between measurements.
    pub fn reset_accounting(&mut self) {
        let _ = self.do_step(CommitOp::ResetAccounting);
    }

    // ------------------------------------------------------------------
    // Logged harness/supervisor entry points
    // ------------------------------------------------------------------
    //
    // These exist so every state mutation the FreePart runtime or the
    // workload harness performs flows through a recordable kernel call
    // instead of poking public fields — a prerequisite for deterministic
    // replay.

    /// Creates or replaces a file (harness-side seeding; bypasses
    /// syscalls but is still a kernel state transition).
    pub fn fs_put(&mut self, path: &str, bytes: Vec<u8>) {
        let _ = self.do_step(CommitOp::FsPut {
            path: path.to_owned(),
            bytes,
        });
    }

    /// Attaches a deterministic camera producing `frame_len`-byte frames
    /// seeded from `seed` (replacing any previous camera).
    pub fn attach_camera(&mut self, seed: u64, frame_len: usize) {
        let _ = self.do_step(CommitOp::AttachCamera { seed, frame_len });
    }

    // ------------------------------------------------------------------
    // Logged GUI entry points
    // ------------------------------------------------------------------

    /// Creates a GUI window (the kernel-mediated `namedWindow`).
    pub fn win_create(&mut self, title: &str) -> WindowId {
        match self.do_step(CommitOp::WinCreate {
            title: title.to_owned(),
        }) {
            Ok(StepValue::Win(id)) => id,
            _ => unreachable!("win_create is infallible"),
        }
    }

    /// Presents `frame_len` bytes to `win`; false if the window is gone.
    pub fn win_present(&mut self, win: WindowId, frame_len: usize) -> bool {
        match self.do_step(CommitOp::WinPresent { win, frame_len }) {
            Ok(StepValue::Flag(ok)) => ok,
            _ => unreachable!("win_present is infallible"),
        }
    }

    /// Destroys every GUI window (`destroyAllWindows`).
    pub fn win_destroy_all(&mut self) {
        let _ = self.do_step(CommitOp::WinDestroyAll);
    }

    /// Polls one key press off the GUI input queue (`pollKey`).
    pub fn win_poll_key(&mut self) -> Option<u8> {
        match self.do_step(CommitOp::WinPollKey) {
            Ok(StepValue::KeyOpt(key)) => key,
            _ => unreachable!("win_poll_key is infallible"),
        }
    }

    /// Queues a synthetic key press (workload input).
    pub fn push_key(&mut self, key: u8) {
        let _ = self.do_step(CommitOp::PushKey { key });
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("procs", &self.state.process_count())
            .field("channels", &self.state.channels.len())
            .field("clock_ns", &self.state.clock.now_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syscall::SyscallNo;
    use crate::{Camera, Errno, Metrics, SimError, PAGE_SIZE};

    #[test]
    fn spawn_and_alloc_isolated_address_spaces() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        let addr = k.alloc(a, 16, Perms::RW).unwrap();
        k.mem_write(a, addr, b"private").unwrap();
        // Same numeric address in b is unmapped — isolation.
        let err = k.mem_read(b, addr, 7).unwrap_err();
        assert!(err.is_fault());
        assert!(!k.is_running(b), "wild read crashed b");
        assert!(k.is_running(a));
    }

    #[test]
    fn readonly_page_write_crashes_writer() {
        let mut k = Kernel::new();
        let p = k.spawn("p");
        let addr = k.alloc(p, 8, Perms::RW).unwrap();
        k.protect(p, &[(addr, 8)], Perms::R).unwrap();
        let err = k.mem_write(p, addr, b"x").unwrap_err();
        assert_eq!(err.as_fault().unwrap().kind, FaultKind::Protection);
        assert!(!k.is_running(p));
        assert_eq!(k.metrics().faults, 1);
    }

    #[test]
    fn filter_denial_kills_process() {
        let mut k = Kernel::new();
        let p = k.spawn("agent");
        k.install_filter(p, SyscallFilter::allowing([SyscallNo::Getpid]))
            .unwrap();
        assert!(k.syscall(p, Syscall::Getpid).is_ok());
        let err = k.syscall(p, Syscall::Fork).unwrap_err();
        assert!(matches!(
            err.as_fault().unwrap().kind,
            FaultKind::SyscallDenied(SyscallNo::Fork)
        ));
        assert!(!k.is_running(p));
        assert_eq!(k.metrics().filter_kills, 1);
    }

    #[test]
    fn no_new_privs_locks_filter_reconfiguration() {
        let mut k = Kernel::new();
        let p = k.spawn("agent");
        k.install_filter(
            p,
            SyscallFilter::allowing([SyscallNo::Prctl, SyscallNo::Getpid]),
        )
        .unwrap();
        k.syscall(p, Syscall::PrctlNoNewPrivs).unwrap();
        // An attacker inside the process cannot swap the filter.
        let err = k
            .install_filter(p, SyscallFilter::allowing(SyscallNo::ALL.iter().copied()))
            .unwrap_err();
        assert_eq!(err, SimError::Errno(Errno::Eperm));
    }

    #[test]
    fn file_syscall_roundtrip() {
        let mut k = Kernel::new();
        let p = k.spawn("loader");
        k.fs.put("/in.png", vec![9, 8, 7]);
        let fd = k
            .syscall(
                p,
                Syscall::Openat {
                    path: "/in.png".into(),
                    create: false,
                },
            )
            .unwrap()
            .fd();
        let bytes = k.syscall(p, Syscall::Read { fd, len: 10 }).unwrap().bytes();
        assert_eq!(bytes, vec![9, 8, 7]);
        // Cursor advanced; next read is empty.
        let rest = k.syscall(p, Syscall::Read { fd, len: 10 }).unwrap().bytes();
        assert!(rest.is_empty());
    }

    #[test]
    fn socket_send_reaches_network_log() {
        let mut k = Kernel::new();
        let p = k.spawn("evil");
        let fd = k.syscall(p, Syscall::Socket).unwrap().fd();
        k.syscall(
            p,
            Syscall::Connect {
                fd,
                dest: "attacker:4444".into(),
            },
        )
        .unwrap();
        k.syscall(
            p,
            Syscall::Send {
                fd,
                bytes: b"LOOT".to_vec(),
            },
        )
        .unwrap();
        assert!(k.network.leaked(b"LOOT"));
    }

    #[test]
    fn camera_read_serves_frames() {
        let mut k = Kernel::new();
        k.camera = Some(Camera::new(1, 32));
        let p = k.spawn("cap");
        let fd = k
            .syscall(
                p,
                Syscall::Openat {
                    path: "/dev/video0".into(),
                    create: false,
                },
            )
            .unwrap()
            .fd();
        let frame = k.syscall(p, Syscall::Read { fd, len: 0 }).unwrap().bytes();
        assert_eq!(frame.len(), 32);
    }

    #[test]
    fn ipc_roundtrip_counts_metrics_and_time() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        let ch = k.create_channel(a, b, 1 << 20).unwrap();
        let t0 = k.clock().now_ns();
        k.ipc_send(a, ch, b"request").unwrap();
        let msg = k.ipc_recv(b, ch).unwrap().unwrap();
        assert_eq!(msg, b"request");
        assert!(k.clock().now_ns() > t0);
        assert_eq!(k.metrics().ipc_messages, 1);
        assert_eq!(k.metrics().ipc_bytes, 7);
        assert_eq!(k.ipc_recv(b, ch).unwrap(), None);
    }

    #[test]
    fn dead_process_cannot_syscall() {
        let mut k = Kernel::new();
        let p = k.spawn("p");
        k.syscall(p, Syscall::Exit { code: 0 }).unwrap();
        assert!(matches!(
            k.syscall(p, Syscall::Getpid),
            Err(SimError::ProcessDead(_))
        ));
    }

    #[test]
    fn mprotect_syscall_counts_pages() {
        let mut k = Kernel::new();
        let p = k.spawn("p");
        let addr = k.alloc(p, 3 * PAGE_SIZE, Perms::RW).unwrap();
        let pages = k
            .syscall(
                p,
                Syscall::Mprotect {
                    addr,
                    len: 3 * PAGE_SIZE,
                    perms: Perms::R,
                },
            )
            .unwrap()
            .num();
        assert_eq!(pages, 3);
        assert_eq!(k.metrics().protected_pages, 3);
    }

    #[test]
    fn kill_syscall_crashes_target() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        k.syscall(a, Syscall::Kill { target_pid: b.0 }).unwrap();
        assert!(!k.is_running(b));
    }

    #[test]
    fn charge_copy_and_compute_advance_clock() {
        let mut k = Kernel::new();
        let p = k.spawn("p");
        let t0 = k.clock().now_ns();
        k.charge_copy(4096);
        k.charge_compute(p, 1000);
        assert!(k.clock().now_ns() > t0);
        assert_eq!(k.metrics().copied_bytes, 4096);
        assert_eq!(k.metrics().copy_ops, 1);
        assert!(k.process(p).unwrap().cpu_ns > 0);
    }

    #[test]
    fn reset_accounting_clears_clock_and_metrics() {
        let mut k = Kernel::new();
        let p = k.spawn("p");
        k.charge_compute(p, 10);
        k.reset_accounting();
        assert_eq!(k.clock().now_ns(), 0);
        assert_eq!(k.metrics(), Metrics::new());
    }

    #[test]
    fn per_process_time_overlaps_independent_work() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        k.enable_per_process_time();
        k.reset_accounting();
        // Independent compute on two processes overlaps: the makespan is
        // the max, not the sum.
        k.charge_compute(a, 100);
        k.charge_compute(b, 300);
        let unit = k.cost_model().compute_ns_per_unit;
        assert_eq!(k.timeline_ns(a), 100 * unit);
        assert_eq!(k.timeline_ns(b), 300 * unit);
        assert_eq!(k.makespan_ns(), 300 * unit);
    }

    #[test]
    fn message_delivery_merges_receiver_past_sender() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        let ch = k.create_channel(a, b, 1 << 20).unwrap();
        k.enable_per_process_time();
        k.reset_accounting();
        k.charge_compute(a, 1_000); // a is far ahead of b
        let a_ns = k.timeline_ns(a);
        k.ipc_send(a, ch, b"m").unwrap();
        let send_done = k.timeline_ns(a);
        assert!(send_done > a_ns);
        // b was at 0; delivery drags it past a's send completion.
        k.ipc_recv(b, ch).unwrap().unwrap();
        assert_eq!(
            k.timeline_ns(b),
            send_done + k.cost_model().ipc_latency_ns()
        );
        assert_eq!(k.metrics().timeline_merges, 1);
    }

    #[test]
    fn delivery_to_a_busy_receiver_does_not_rewind() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        let ch = k.create_channel(a, b, 1 << 20).unwrap();
        k.enable_per_process_time();
        k.reset_accounting();
        k.ipc_send(a, ch, b"m").unwrap();
        k.charge_compute(b, 10_000); // b is already past the send time
        let b_ns = k.timeline_ns(b);
        k.ipc_recv(b, ch).unwrap().unwrap();
        assert_eq!(k.timeline_ns(b), b_ns + k.cost_model().ipc_latency_ns());
        assert_eq!(k.metrics().timeline_merges, 0);
    }

    #[test]
    fn advance_timeline_is_monotone_and_counted() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        k.enable_per_process_time();
        k.reset_accounting();
        k.advance_timeline_to(a, 5_000);
        assert_eq!(k.timeline_ns(a), 5_000);
        k.advance_timeline_to(a, 4_000); // already past: no-op
        assert_eq!(k.timeline_ns(a), 5_000);
        assert_eq!(k.metrics().timeline_merges, 1);
    }

    #[test]
    fn global_mode_ignores_timeline_helpers() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let before = k.now_ns();
        k.advance_timeline_to(a, before + 9_999_999);
        assert_eq!(k.now_ns(), before);
        assert_eq!(k.makespan_ns(), before);
        assert_eq!(k.timeline_ns(a), before);
    }

    #[test]
    fn spawn_under_per_process_time_seeds_child_at_spawner_time() {
        let mut k = Kernel::new();
        let host = k.spawn("host");
        k.enable_per_process_time();
        k.reset_accounting();
        k.charge_compute(host, 500);
        k.set_time_context(Some(host));
        let child = k.spawn("child");
        k.set_time_context(None);
        assert_eq!(k.timeline_ns(child), k.timeline_ns(host));
        assert!(k.timeline_ns(child) >= k.cost_model().spawn_ns);
    }

    #[test]
    fn shm_grant_map_read_write_roundtrip() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        let id = k.shm_create(a, vec![7; 5000]).unwrap();
        assert_eq!(k.shm_read(a, id).unwrap(), vec![7; 5000]);

        // b has no grant yet: the read is a protection fault that kills b.
        assert!(k.shm_read(b, id).unwrap_err().is_fault());
        assert!(!k.is_running(b));
        assert_eq!(k.metrics().faults, 1);

        let c = k.spawn("c");
        k.shm_grant(id, c, Perms::RW).unwrap();
        assert_eq!(k.shm_map(c, id).unwrap(), 5000);
        k.shm_write(c, id, &[9; 5000]).unwrap();
        assert_eq!(k.shm_read(a, id).unwrap(), vec![9; 5000]);
        // Two owners-worth of mappings counted, zero bytes copied.
        assert_eq!(k.metrics().shm_grants, 2);
        assert_eq!(k.metrics().shm_mapped_bytes, 10_000);
        assert_eq!(k.metrics().copied_bytes, 0);
    }

    #[test]
    fn shm_revoke_makes_stale_access_fault() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        let id = k.shm_create(a, vec![1; 100]).unwrap();
        k.shm_grant(id, b, Perms::R).unwrap();
        k.shm_map(b, id).unwrap();
        assert_eq!(k.shm_read(b, id).unwrap(), vec![1; 100]);

        assert!(k.shm_revoke(id, b).unwrap());
        assert!(!k.shm_revoke(id, b).unwrap(), "second revoke is a no-op");
        assert_eq!(k.metrics().shm_revokes, 1);
        // The stale consumer faults; the payload and owner are untouched.
        assert!(k.shm_read(b, id).unwrap_err().is_fault());
        assert!(!k.is_running(b));
        assert!(k.is_running(a));
        assert_eq!(k.shm_read(a, id).unwrap(), vec![1; 100]);
    }

    #[test]
    fn shm_protect_all_downgrades_every_grant() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let id = k.shm_create(a, vec![2; 4096]).unwrap();
        let pages_before = k.metrics().protected_pages;
        assert_eq!(k.shm_protect_all(id, Perms::R).unwrap(), 1);
        assert_eq!(k.metrics().protected_pages, pages_before + 1);
        // Reads still work; a write now faults (temporal lock semantics).
        assert_eq!(k.shm_read(a, id).unwrap().len(), 4096);
        assert!(k.shm_write(a, id, &[0; 4096]).unwrap_err().is_fault());
        assert!(!k.is_running(a));
    }

    #[test]
    fn shm_segment_survives_owner_crash() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        let id = k.shm_create(a, vec![3; 64]).unwrap();
        k.shm_grant(id, b, Perms::R).unwrap();
        k.shm_map(b, id).unwrap();
        k.deliver_fault(a, FaultKind::Abort, None);
        // Kernel-owned payload outlives the process that created it.
        assert_eq!(k.shm_read(b, id).unwrap(), vec![3; 64]);
    }

    #[test]
    fn shm_mapping_is_cheaper_than_copying() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        let id = k.shm_create(a, vec![0; 64 * 1024]).unwrap();
        let t0 = k.now_ns();
        k.shm_grant(id, b, Perms::R).unwrap();
        k.shm_map(b, id).unwrap();
        let mapped_ns = k.now_ns() - t0;
        assert!(mapped_ns < k.cost_model().copy_cost(64 * 1024));
    }

    #[test]
    fn reap_frees_pages_and_purges_shm_views() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        k.alloc(a, 3 * PAGE_SIZE, Perms::RW).unwrap();
        let id = k.shm_create(a, vec![7; 64]).unwrap();
        k.shm_grant(id, b, Perms::R).unwrap();
        let before = k.total_pages();
        k.deliver_fault(a, FaultKind::Abort, None);
        let freed = k.reap(a).unwrap();
        assert_eq!(freed, 3);
        assert_eq!(k.total_pages(), before - 3);
        assert_eq!(k.metrics().reaps, 1);
        // The corpse's views are gone; the segment and b's grant survive.
        let seg = k.shm_segment(id).unwrap();
        assert_eq!(seg.grant_of(a), None);
        assert!(!seg.is_mapped(a));
        assert_eq!(seg.grant_of(b), Some(Perms::R));
        // Double reap is an error, not a silent no-op.
        assert!(matches!(k.reap(a), Err(SimError::NoSuchProcess(_))));
    }

    #[test]
    fn reap_refuses_a_running_process() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        assert!(matches!(k.reap(a), Err(SimError::Errno(Errno::Eperm))));
        assert!(k.is_running(a));
    }

    #[test]
    fn write_epochs_change_only_on_writes() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let addr = k.alloc(a, 2 * PAGE_SIZE, Perms::RW).unwrap();
        let e0 = k.write_epoch(a, addr, 2 * PAGE_SIZE).unwrap();
        // Reads and protection flips leave the epoch alone.
        k.mem_read(a, addr, 16).unwrap();
        k.protect(a, &[(addr, 2 * PAGE_SIZE)], Perms::R).unwrap();
        k.protect(a, &[(addr, 2 * PAGE_SIZE)], Perms::RW).unwrap();
        assert_eq!(k.write_epoch(a, addr, 2 * PAGE_SIZE).unwrap(), e0);
        // A write to the second page bumps the range epoch but not the
        // first page's own epoch.
        let p1 = k.write_epoch(a, addr, PAGE_SIZE).unwrap();
        k.mem_write(a, Addr(addr.0 + PAGE_SIZE), &[9; 8]).unwrap();
        assert!(k.write_epoch(a, addr, 2 * PAGE_SIZE).unwrap() > e0);
        assert_eq!(k.write_epoch(a, addr, PAGE_SIZE).unwrap(), p1);
        // Unmapped ranges and dead processes have no epoch.
        assert_eq!(k.write_epoch(a, Addr(addr.0 + 64 * PAGE_SIZE), 1), None);
        k.deliver_fault(a, FaultKind::Abort, None);
        assert_eq!(k.write_epoch(a, addr, PAGE_SIZE), None);
    }

    #[test]
    fn shm_write_epoch_tracks_payload_replacement() {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let id = k.shm_create(a, vec![1; 128]).unwrap();
        let e0 = k.shm_segment(id).unwrap().write_epoch();
        k.shm_read(a, id).unwrap();
        assert_eq!(k.shm_segment(id).unwrap().write_epoch(), e0);
        k.shm_write(a, id, &[2; 128]).unwrap();
        assert!(k.shm_segment(id).unwrap().write_epoch() > e0);
    }
}
