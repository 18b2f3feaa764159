//! [`KernelState`]: the complete kernel state as plain data.
//!
//! Everything the simulated OS knows — processes and their address
//! spaces, syscall filters, fd tables, shared-memory segments and grant
//! tables, IPC channels, the file system, devices, the virtual clock(s),
//! metrics, and the deterministic entropy stream — lives in this one
//! struct. It has no ambient clock, does no I/O, and draws no external
//! entropy: two `KernelState`s built from the same cost model and walked
//! through the same [`step`](crate::core::step::step) sequence are
//! bit-identical, which is what [`KernelState::digest`] certifies.

use std::collections::BTreeMap;

use crate::cost::{CostModel, VirtualClock};
use crate::device::{Camera, Display, NetworkLog};
use crate::error::{SimError, SimResult};
use crate::filter::SyscallFilter;
use crate::fs::SimFs;
use crate::idtable::IdTable;
use crate::ipc::{ChannelId, RingChannel};
use crate::mem::{Addr, Perms, PAGE_SIZE};
use crate::process::{Pid, SimProcess};
use crate::shm::{ShmId, ShmSegment};
use crate::Metrics;

use super::digest::EntitySums;

/// How virtual time flows through the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimelineMode {
    /// One global clock; every charge serializes (the classic model).
    #[default]
    Global,
    /// One [`VirtualClock`] per process, merged on message delivery.
    /// Concurrent work on different processes overlaps in virtual time;
    /// the run's makespan is [`KernelState::makespan_ns`].
    PerProcess,
}

/// The kernel's deterministic entropy stream: splitmix64 seed expansion
/// feeding xoshiro256**, exactly the generator the shell used to own.
/// Inlined here (rather than depending on an external generator crate)
/// so the pure core has no dependency that could smuggle in ambient
/// entropy — and so `Getrandom` byte streams stay bit-identical with
/// recordings made before the core/shell split.
#[derive(Debug, Clone)]
pub(crate) struct EntropyStream {
    pub(super) s: [u64; 4],
}

impl EntropyStream {
    /// Expands `seed` into the full generator state via splitmix64.
    pub(crate) fn seeded(seed: u64) -> EntropyStream {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        EntropyStream {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// One byte of the stream (the low byte of the next word, matching
    /// the previous generator's `u8` draw).
    pub(crate) fn next_byte(&mut self) -> u8 {
        self.next_u64() as u8
    }
}

/// The seed every kernel starts from; part of the determinism contract
/// (two pristine kernels produce identical `Getrandom` streams).
const ENTROPY_SEED: u64 = 0x5eed;

/// The complete simulated-kernel state as plain data.
///
/// All transitions go through the single total function
/// [`step`](crate::core::step::step); this struct only offers
/// constructors, pure reads, and the [`digest`](KernelState::digest).
/// The shell [`Kernel`](crate::Kernel) derefs to `KernelState`, so every
/// read here is also available on the kernel handle.
pub struct KernelState {
    /// Processes by pid: `Spawn` mints pids from `next_pid` and `Reap`
    /// takes the slot, so iteration runs in pid order.
    pub(crate) procs: IdTable<Pid, SimProcess>,
    pub(crate) next_pid: u32,
    pub(crate) channels: BTreeMap<ChannelId, RingChannel>,
    pub(crate) next_channel: u32,
    /// The in-memory file system (public for harness seeding/inspection).
    pub fs: SimFs,
    /// Attached camera, if the workload uses one.
    pub camera: Option<Camera>,
    /// The GUI display subsystem.
    pub display: Display,
    /// Network egress log (exfiltration oracle).
    pub network: NetworkLog,
    pub(crate) clock: VirtualClock,
    pub(crate) mode: TimelineMode,
    /// Per-process timelines (populated in [`TimelineMode::PerProcess`]).
    pub(crate) timelines: BTreeMap<Pid, VirtualClock>,
    /// The process charged for pid-less costs (spawn, raw copies) under
    /// per-process time; `None` falls back to the global clock.
    pub(crate) time_ctx: Option<Pid>,
    pub(crate) cost: CostModel,
    pub(crate) metrics: Metrics,
    pub(crate) entropy: EntropyStream,
    /// Kernel-owned shared-memory segments (see [`crate::shm`]).
    pub(crate) shm: BTreeMap<ShmId, ShmSegment>,
    pub(crate) next_shm: u64,
    /// Multiset hashes of the keyed maps, kept current by `step` (see
    /// [`crate::core::digest`]).
    pub(crate) sums: EntitySums,
}

impl Default for KernelState {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelState {
    /// A fresh state with the default cost model and entropy seed.
    pub fn new() -> KernelState {
        KernelState::with_cost_model(CostModel::default())
    }

    /// A fresh state with a custom cost model.
    pub fn with_cost_model(cost: CostModel) -> KernelState {
        KernelState {
            procs: IdTable::new(),
            next_pid: 1,
            channels: BTreeMap::new(),
            next_channel: 0,
            fs: SimFs::new(),
            camera: None,
            display: Display::new(),
            network: NetworkLog::new(),
            clock: VirtualClock::new(),
            mode: TimelineMode::Global,
            timelines: BTreeMap::new(),
            time_ctx: None,
            cost,
            metrics: Metrics::new(),
            entropy: EntropyStream::seeded(ENTROPY_SEED),
            shm: BTreeMap::new(),
            next_shm: 0,
            sums: EntitySums::default(),
        }
    }

    /// True when no observable state has been created yet: recording
    /// must start here so replays can rebuild genesis from the cost
    /// model alone.
    pub(crate) fn is_pristine(&self) -> bool {
        self.procs.is_empty()
            && self.channels.is_empty()
            && self.shm.is_empty()
            && self.camera.is_none()
            && self.fs.file_count() == 0
            && self.clock.now_ns() == 0
    }

    // ------------------------------------------------------------------
    // Charging (helpers for `step`)
    // ------------------------------------------------------------------

    /// Charges `ns` to `pid`'s timeline (per-process mode) or the global
    /// clock. Every cost with a known acting process routes through here.
    pub(crate) fn charge_to(&mut self, pid: Pid, ns: u64) {
        match self.mode {
            TimelineMode::Global => self.clock.charge(ns),
            TimelineMode::PerProcess => self.timelines.entry(pid).or_default().charge(ns),
        }
    }

    /// Charges `ns` to the current time context (per-process mode) or
    /// the global clock, for costs with no obvious acting process.
    pub(crate) fn charge_ctx(&mut self, ns: u64) {
        match (self.mode, self.time_ctx) {
            (TimelineMode::PerProcess, Some(pid)) => {
                self.timelines.entry(pid).or_default().charge(ns);
            }
            _ => self.clock.charge(ns),
        }
    }

    // ------------------------------------------------------------------
    // Pure reads
    // ------------------------------------------------------------------

    /// Immutable access to a process.
    pub fn process(&self, pid: Pid) -> SimResult<&SimProcess> {
        self.procs.get(pid).ok_or(SimError::NoSuchProcess(pid))
    }

    /// Mutable access to a process, for the core's transition bodies.
    /// Every mutation must go through `step` so the commit log and the
    /// digest's multiset hashes see it.
    pub(crate) fn process_mut(&mut self, pid: Pid) -> SimResult<&mut SimProcess> {
        self.procs.get_mut(pid).ok_or(SimError::NoSuchProcess(pid))
    }

    /// Number of processes ever spawned and still tracked.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// True when the process exists and is running.
    pub fn is_running(&self, pid: Pid) -> bool {
        self.procs.get(pid).is_some_and(|p| p.is_running())
    }

    pub(crate) fn require_running(&self, pid: Pid) -> SimResult<()> {
        let p = self.process(pid)?;
        if p.is_running() {
            Ok(())
        } else {
            Err(SimError::ProcessDead(pid))
        }
    }

    /// `pid`'s current virtual time (global clock under `Global` mode).
    pub fn timeline_ns(&self, pid: Pid) -> u64 {
        match self.mode {
            TimelineMode::Global => self.clock.now_ns(),
            TimelineMode::PerProcess => self.timelines.get(&pid).map_or(0, |c| c.now_ns()),
        }
    }

    /// End-to-end virtual duration of the run: the global clock under
    /// `Global` mode, the max over all process timelines (and any
    /// residual global charges) under `PerProcess`.
    pub fn makespan_ns(&self) -> u64 {
        match self.mode {
            TimelineMode::Global => self.clock.now_ns(),
            TimelineMode::PerProcess => self
                .timelines
                .values()
                .map(|c| c.now_ns())
                .chain(std::iter::once(self.clock.now_ns()))
                .max()
                .unwrap_or(0),
        }
    }

    /// The global virtual clock. Under [`TimelineMode::PerProcess`] this
    /// stops advancing (charges land on per-process timelines); use
    /// [`KernelState::makespan_ns`] / [`KernelState::timeline_ns`]
    /// instead.
    pub fn clock(&self) -> VirtualClock {
        self.clock
    }

    /// Current virtual time, in nanoseconds: the global clock, or the
    /// current time context's timeline under per-process time. Reading
    /// the clock never charges time — observability code can call this
    /// freely without perturbing deterministic measurements.
    pub fn now_ns(&self) -> u64 {
        match (self.mode, self.time_ctx) {
            (TimelineMode::PerProcess, Some(pid)) => self.timeline_ns(pid),
            _ => self.clock.now_ns(),
        }
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Sum of per-page write generations over `[addr, addr+len)` in
    /// `pid`'s address space, or `None` if the process is gone, dead, or
    /// the range is (partially) unmapped. See
    /// [`AddressSpace::write_epoch`](crate::mem::AddressSpace::write_epoch);
    /// reading an epoch charges nothing.
    pub fn write_epoch(&self, pid: Pid, addr: Addr, len: u64) -> Option<u64> {
        let p = self.procs.get(pid)?;
        if !p.is_running() {
            return None;
        }
        p.aspace.write_epoch(addr, len)
    }

    /// True when every page of `[addr, addr+len)` in `pid`'s address
    /// space is already at exactly `perms` — a protection change would be
    /// a no-op. Lets trusted callers skip the call (and its audit trail)
    /// entirely when the permission delta is empty.
    pub fn perms_match(&self, pid: Pid, addr: Addr, len: u64, perms: Perms) -> bool {
        self.procs
            .get(pid)
            .is_some_and(|p| p.is_running() && p.aspace.perms_match(addr, len, perms))
    }

    /// Inspects a segment (grants, mapping, length), if it exists.
    pub fn shm_segment(&self, id: ShmId) -> Option<&ShmSegment> {
        self.shm.get(&id)
    }

    /// All live segments in id order — lets callers audit the whole
    /// grant table (e.g. "no dead pid holds a view anywhere").
    pub fn shm_segments(&self) -> impl Iterator<Item = (ShmId, &ShmSegment)> {
        self.shm.iter().map(|(id, seg)| (*id, seg))
    }

    /// The filter currently installed on `pid`, if any.
    pub fn filter_of(&self, pid: Pid) -> SimResult<Option<&SyscallFilter>> {
        Ok(self.process(pid)?.filter.as_ref())
    }

    /// Number of pages currently mapped across all processes.
    pub fn total_pages(&self) -> u64 {
        self.procs
            .values()
            .map(|p| p.aspace.mapped_bytes() / PAGE_SIZE)
            .sum()
    }

    // ------------------------------------------------------------------
    // Structural invariants
    // ------------------------------------------------------------------

    /// Asserts the structural invariants every reachable state must
    /// satisfy. [`step`](crate::core::step::step) calls this after every
    /// transition in debug builds; the replay property tests drive it
    /// over arbitrary op sequences.
    ///
    /// These are the invariants that hold *by construction* of the state
    /// machine (as opposed to the whole-trace rules
    /// [`replay::audit`](crate::replay::audit) checks over logs, which
    /// can be violated by forged logs):
    ///
    /// * map keys agree with the identity stored in the value, and every
    ///   minted id is below its high-water counter;
    /// * per-process timelines exist only under per-process time;
    /// * a segment is only mapped by pids that hold a grant on it, and
    ///   every grant names a tracked process (reaping purges views);
    /// * the incrementally-maintained [`digest`](KernelState::digest)
    ///   equals the [from-scratch reference](KernelState::reference_digest).
    ///
    /// # Panics
    ///
    /// Panics on any violation — reaching one means the state machine
    /// itself is broken, not the workload.
    pub fn check_invariants(&self) {
        for (pid, p) in self.procs.iter() {
            assert_eq!(pid, p.pid, "process map key disagrees with pid");
            assert!(pid.0 < self.next_pid, "pid {pid} at/above next_pid");
        }
        for id in self.channels.keys() {
            assert!(id.0 < self.next_channel, "channel {id} at/above counter");
        }
        if self.mode == TimelineMode::Global {
            assert!(
                self.timelines.is_empty(),
                "per-process timelines exist under the global clock"
            );
        }
        for (id, seg) in &self.shm {
            assert!(id.0 < self.next_shm, "segment {id} at/above counter");
            for (pid, _) in seg.grants() {
                assert!(
                    self.procs.contains(pid),
                    "grant on {id} held by untracked {pid}"
                );
            }
            for pid in &seg.mapped {
                assert!(
                    seg.grants.contains_key(pid),
                    "{pid} maps {id} without a grant"
                );
            }
        }
        assert_eq!(
            self.digest(),
            self.reference_digest(),
            "incremental digest drifted from the from-scratch reference"
        );
    }
}
