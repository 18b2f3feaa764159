//! The kernel state digest, kept current in O(1) per transition.
//!
//! [`KernelState::digest`] certifies the complete observable state after
//! every recorded step, so its cost must not grow with the number of
//! processes. It mixes two kinds of input:
//!
//! * **Scalars:** the clocks, timeline mode, time context, id counters,
//!   and the singletons' own fingerprints (metrics, file system, camera,
//!   display, network).
//! * **Four multiset hashes**, one per keyed map — processes,
//!   timelines, channels, shm segments. Each is the wrapping sum of one
//!   fingerprint per entry, keyed by the entry's id, and is mixed in
//!   together with the map's length.
//!
//! Wrapping addition rather than XOR keeps two equal entries from
//! cancelling, and makes every sum updatable in O(1): [`step`] retires
//! the entries an op's [`Footprint`] names before the transition and
//! admits them again after it. Three ops have global effect and
//! recompute the one sum they touch: `Reap` purges the pid from every
//! segment, while `ResetAccounting` and `EnablePerProcessTime` rewrite
//! every timeline. None of them is on a per-call path.
//!
//! [`KernelState::reference_digest`] recomputes all four sums by walking
//! the maps; [`KernelState::check_invariants`] asserts that both digests
//! agree after every debug step.
//!
//! [`step`]: super::step::step

use std::collections::BTreeMap;

use crate::commit::{self, CommitOp};
use crate::cost::VirtualClock;
use crate::filter::SyscallFilter;
use crate::ipc::{ChannelId, RingChannel};
use crate::process::{FdTarget, Pid, ProcessState, SimProcess};
use crate::shm::{ShmId, ShmSegment};
use crate::syscall::{Fd, Syscall};

use super::state::{KernelState, TimelineMode};

/// Wrapping sums of the per-entry fingerprints of the four keyed maps.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EntitySums {
    procs: u64,
    timelines: u64,
    channels: u64,
    shm: u64,
}

/// Order-sensitive word-at-a-time fold for the variable-length parts of
/// an entry (fd tables, grant tables): one multiply per word, where the
/// byte-wise [`commit::mix`] needs eight. Bijective in both arguments,
/// so changing any one folded word changes the result.
fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// Hashes `words` position-wise (each word times its own odd constant,
/// XORed together — independent multiplies, no dependency chain) and
/// finishes with the bijective splitmix64 avalanche, so entry
/// fingerprints sum like independent uniform words. Each step is
/// bijective in each word, so changing any one word changes the result.
fn entry_fp(words: &[u64]) -> u64 {
    let mut z = words
        .iter()
        .zip(1u64..)
        .fold(commit::FINGERPRINT_SEED, |h, (&w, i)| {
            h ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(2 * i + 1))
        });
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fingerprint of a whole fd table (0 when empty). Cached per process
/// in `SimProcess::fd_fp`.
fn fd_table_fp(fds: &BTreeMap<Fd, FdTarget>) -> u64 {
    fds.iter().fold(0, |h, (fd, target)| {
        let h = fold(h, u64::from(fd.0));
        match target {
            FdTarget::File { path, offset } => {
                fold(fold(fold(h, 1), commit::hash_str(path)), *offset)
            }
            FdTarget::Device(kind) => fold(fold(h, 2), *kind as u64),
            FdTarget::Socket { dest } => fold(fold(h, 3), commit::hash_str(dest)),
        }
    })
}

/// The per-process inputs the kernel caches: (name, filter, fd table).
fn cached_parts(p: &SimProcess) -> [u64; 3] {
    [p.name_fp, p.filter_fp, p.fd_fp]
}

/// The same inputs recomputed from the process itself.
fn fresh_parts(p: &SimProcess) -> [u64; 3] {
    [
        commit::hash_str(&p.name),
        p.filter.as_ref().map_or(0, SyscallFilter::fingerprint),
        fd_table_fp(&p.fd_table),
    ]
}

fn proc_fp(pid: Pid, p: &SimProcess, [name, filter, fds]: [u64; 3]) -> u64 {
    let (state, detail) = match &p.state {
        ProcessState::Running => (1, 0),
        ProcessState::Exited(code) => (2, *code as u64),
        ProcessState::Crashed(f) => (3, commit::fault_summary(f)),
    };
    let filter_state = p
        .filter
        .as_ref()
        .map_or(0, |f| 1 + u64::from(f.is_locked()));
    // The pid and the three small tags share one word, in disjoint bits.
    let tags =
        u64::from(pid.0) | state << 32 | u64::from(p.no_new_privs) << 40 | filter_state << 48;
    entry_fp(&[
        tags,
        name,
        detail,
        p.cpu_ns,
        p.aspace.fingerprint(),
        p.aspace.page_count() as u64,
        p.fd_table.len() as u64,
        fds,
        filter,
    ])
}

fn timeline_fp(pid: Pid, t: &VirtualClock) -> u64 {
    entry_fp(&[u64::from(pid.0), t.now_ns()])
}

fn channel_fp(id: ChannelId, ch: &RingChannel) -> u64 {
    entry_fp(&[
        u64::from(id.0),
        ch.fingerprint(),
        u64::from(ch.a.0),
        u64::from(ch.b.0),
    ])
}

fn segment_fp(id: ShmId, seg: &ShmSegment) -> u64 {
    let grants = seg
        .grants()
        .fold(seg.grants.len() as u64, |h, (pid, perms)| {
            let h = fold(fold(h, u64::from(pid.0)), u64::from(perms.bits()));
            fold(h, u64::from(seg.is_mapped(pid)))
        });
    entry_fp(&[id.0, seg.fingerprint(), seg.write_epoch(), grants])
}

fn sum_of<K: Copy, V>(map: &BTreeMap<K, V>, fp: impl Fn(K, &V) -> u64) -> u64 {
    map.iter()
        .fold(0u64, |sum, (k, v)| sum.wrapping_add(fp(*k, v)))
}

impl EntitySums {
    /// All four sums recomputed by walking the maps, with every cached
    /// process input recomputed too.
    fn from_scratch(s: &KernelState) -> EntitySums {
        EntitySums {
            procs: sum_of(&s.procs, |pid, p| proc_fp(pid, p, fresh_parts(p))),
            timelines: sum_of(&s.timelines, timeline_fp),
            channels: sum_of(&s.channels, channel_fp),
            shm: sum_of(&s.shm, segment_fp),
        }
    }
}

/// The keyed entries one op may change: what [`step`](super::step::step)
/// retires from the sums before the transition and admits after it.
///
/// Processes, channels and segments cache their current term in the sum
/// (`digest_term`), so re-admitting one costs one lookup and one
/// fingerprint: the sum swaps the cached term for the new one. Only an
/// entry the op may remove has to be retired beforehand. Timelines are
/// bare clocks with no room for a cache; they are retired by value.
#[derive(Debug, Default)]
pub(super) struct Footprint {
    procs: [Option<Pid>; 2],
    timelines: [Option<Pid>; 2],
    chan: Option<ChannelId>,
    seg: Option<ShmId>,
}

impl Footprint {
    /// The footprint of `op` against the state it is about to apply to,
    /// or `None` when the op touches no keyed entry and rewrites no sum
    /// — the upkeep then has nothing to do.
    pub(super) fn of(state: &KernelState, op: &CommitOp) -> Option<Footprint> {
        use CommitOp as O;
        // Pid-less charges land on the time context's timeline.
        let ctx = state.time_ctx;
        let mut f = Footprint::default();
        match op {
            O::Spawn { .. } => {
                let child = Pid(state.next_pid);
                f.procs[0] = Some(child);
                f.timelines = [Some(child), ctx];
            }
            O::DeliverFault { pid, .. }
            | O::Reap { pid }
            | O::ForceExit { pid, .. }
            | O::SetNoNewPrivs { pid }
            | O::Alloc { pid, .. }
            | O::MemWrite { pid, .. }
            | O::InstallFilter { pid, .. } => f.procs[0] = Some(*pid),
            O::Protect { pid, .. } | O::ChargeCompute { pid, .. } => {
                f.procs[0] = Some(*pid);
                f.timelines[0] = Some(*pid);
            }
            O::Syscall { pid, call } => {
                f.procs[0] = Some(*pid);
                if let Syscall::Kill { target_pid } = call {
                    f.procs[1] = Some(Pid(*target_pid));
                }
                f.timelines[0] = Some(*pid);
            }
            O::ShmCreate { owner, .. } => {
                f.seg = Some(ShmId(state.next_shm));
                f.timelines[0] = Some(*owner);
            }
            O::ShmGrant { id, pid, .. } | O::ShmMap { id, pid } => {
                f.seg = Some(*id);
                f.timelines[0] = Some(*pid);
            }
            O::ShmRevoke { id, .. } | O::ShmProtectAll { id, .. } => {
                f.seg = Some(*id);
                f.timelines[0] = ctx;
            }
            O::ShmWrite { pid, id, .. } => {
                f.seg = Some(*id);
                f.procs[0] = Some(*pid);
            }
            O::ShmDestroy { id } => f.seg = Some(*id),
            O::CreateChannel { .. } => f.chan = Some(ChannelId(state.next_channel)),
            O::IpcSend { pid, chan, .. } | O::IpcRecv { pid, chan } => {
                f.chan = Some(*chan);
                f.timelines[0] = Some(*pid);
            }
            O::RebindChannel { chan, .. } => f.chan = Some(*chan),
            O::ChargeTime { .. } | O::ChargeCopy { .. } => f.timelines[0] = ctx,
            O::AdvanceTimeline { pid, .. } => f.timelines[0] = Some(*pid),
            // Global effect: `admit` recomputes the touched sum.
            O::ResetAccounting | O::EnablePerProcessTime => return Some(f),
            O::NoteCallsBatched { .. }
            | O::NoteSnapshotCopy { .. }
            | O::NoteSnapshotSkip
            | O::SetTimeContext { .. }
            | O::FsPut { .. }
            | O::AttachCamera { .. }
            | O::WinCreate { .. }
            | O::WinPresent { .. }
            | O::WinDestroyAll
            | O::WinPollKey
            | O::PushKey { .. } => return None,
        }
        if state.mode == TimelineMode::Global {
            // Charges go to the global clock; no timeline exists.
            f.timelines = [None, None];
        }
        for pair in [&mut f.procs, &mut f.timelines] {
            if pair[1] == pair[0] {
                pair[1] = None;
            }
        }
        let idle =
            f.procs[0].is_none() && f.timelines[0].is_none() && f.chan.is_none() && f.seg.is_none();
        (!idle).then_some(f)
    }

    /// Before the op: takes out of the sums what the op could leave
    /// stale. That is the cached term of an entry the op may remove
    /// (`Reap`, `ShmDestroy`) — zeroed, so an entry that survives is
    /// re-admitted whole — and the footprint's timelines, which carry
    /// no cached term.
    pub(super) fn retire(&self, state: &mut KernelState, op: &CommitOp) {
        let KernelState {
            procs,
            shm,
            timelines,
            sums,
            ..
        } = state;
        match op {
            CommitOp::Reap { pid } => {
                if let Some(p) = procs.get_mut(pid) {
                    sums.procs = sums.procs.wrapping_sub(std::mem::take(&mut p.digest_term));
                }
            }
            CommitOp::ShmDestroy { id } => {
                if let Some(seg) = shm.get_mut(id) {
                    sums.shm = sums.shm.wrapping_sub(std::mem::take(&mut seg.digest_term));
                }
            }
            _ => {}
        }
        for pid in self.timelines.iter().flatten() {
            if let Some(t) = timelines.get(pid) {
                sums.timelines = sums.timelines.wrapping_sub(timeline_fp(*pid, t));
            }
        }
    }

    /// After the op: refreshes the per-process caches `op` may have
    /// invalidated, swaps each surviving entry's cached term for its new
    /// fingerprint (a new entry's cached term is 0), adds the timelines
    /// back, and recomputes the one sum a global op touched.
    pub(super) fn admit(&self, state: &mut KernelState, op: &CommitOp) {
        let KernelState {
            procs,
            channels,
            shm,
            timelines,
            sums,
            ..
        } = state;
        for pid in self.procs.iter().flatten() {
            if let Some(p) = procs.get_mut(pid) {
                match op {
                    CommitOp::Syscall { .. } => p.fd_fp = fd_table_fp(&p.fd_table),
                    CommitOp::InstallFilter { .. } => {
                        p.filter_fp = p.filter.as_ref().map_or(0, SyscallFilter::fingerprint);
                    }
                    _ => {}
                }
                let term = proc_fp(*pid, p, cached_parts(p));
                swap_term(&mut sums.procs, &mut p.digest_term, term);
            }
        }
        for pid in self.timelines.iter().flatten() {
            if let Some(t) = timelines.get(pid) {
                sums.timelines = sums.timelines.wrapping_add(timeline_fp(*pid, t));
            }
        }
        if let Some((id, ch)) = self.chan.and_then(|id| Some((id, channels.get_mut(&id)?))) {
            let term = channel_fp(id, ch);
            swap_term(&mut sums.channels, &mut ch.digest_term, term);
        }
        if let Some((id, seg)) = self.seg.and_then(|id| Some((id, shm.get_mut(&id)?))) {
            let term = segment_fp(id, seg);
            swap_term(&mut sums.shm, &mut seg.digest_term, term);
        }
        match op {
            CommitOp::Reap { .. } => {
                sums.shm = 0;
                for (id, seg) in shm.iter_mut() {
                    seg.digest_term = segment_fp(*id, seg);
                    sums.shm = sums.shm.wrapping_add(seg.digest_term);
                }
            }
            CommitOp::ResetAccounting | CommitOp::EnablePerProcessTime => {
                sums.timelines = sum_of(timelines, timeline_fp);
            }
            _ => {}
        }
    }
}

/// Replaces an entry's cached `term` in `sum` with `new`.
fn swap_term(sum: &mut u64, term: &mut u64, new: u64) {
    *sum = sum.wrapping_add(new).wrapping_sub(*term);
    *term = new;
}

impl KernelState {
    /// Digest of the complete observable kernel state, in O(1): the
    /// scalars (clocks, timeline mode, time context, id counters), the
    /// metrics, file-system and device fingerprints, and the four
    /// per-map multiset hashes over processes (state, filter, fd table,
    /// address-space fingerprint, ...), timelines, channels, and shm
    /// segments with their grant tables. Two states that evolved
    /// through the same transition sequence report the same digest; the
    /// replayer compares it after every re-applied op.
    pub fn digest(&self) -> u64 {
        self.digest_with(self.sums)
    }

    /// The same digest with the four multiset hashes (and every cached
    /// per-process input) recomputed from scratch — O(processes +
    /// segments + channels + open fds). The debug invariant check holds
    /// [`KernelState::digest`] to it after every step.
    pub fn reference_digest(&self) -> u64 {
        self.digest_with(EntitySums::from_scratch(self))
    }

    fn digest_with(&self, sums: EntitySums) -> u64 {
        let mode = match self.mode {
            TimelineMode::Global => 0,
            TimelineMode::PerProcess => 1,
        };
        let mut h = commit::FINGERPRINT_SEED;
        for v in [
            self.clock.now_ns(),
            mode,
            commit::some_summary(self.time_ctx.map(|p| u64::from(p.0))),
            self.metrics.fingerprint(),
            u64::from(self.next_pid),
            u64::from(self.next_channel),
            self.next_shm,
            self.procs.len() as u64,
            sums.procs,
            self.timelines.len() as u64,
            sums.timelines,
            self.channels.len() as u64,
            sums.channels,
            self.shm.len() as u64,
            sums.shm,
            self.fs.fingerprint(),
            self.camera
                .as_ref()
                .map_or(0, |c| commit::mix(1, c.fingerprint())),
            self.display.fingerprint(),
            self.network.fingerprint(),
        ] {
            h = commit::mix(h, v);
        }
        h
    }
}
