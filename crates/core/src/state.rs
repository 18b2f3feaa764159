//! Temporal memory protection (paper §4.4.3, Figs. 2-e and 3).
//!
//! The runtime infers each application thread's pipeline position from
//! the type of the framework API it invokes. A thread *holds a lock* on
//! an object it tracks while its current state differs from the state
//! the object was defined in: a transition locks what the state being
//! left defined — so an exploit firing later in the pipeline cannot
//! corrupt earlier-stage data (OMRChecker's `template` after `imread()`
//! starts) — and releases what the re-entered state defined (Fig. 2-e's
//! "writable *during* data loading APIs": video frames, training loops).
//! Initialization is never re-entered, so its objects stay locked. An
//! object is tracked by the thread that defined it, or by every thread
//! when it is annotated host data, and stays locked while its lock count
//! (the threads holding a lock on it) is above zero.
//!
//! [`TemporalPlane`] records these decisions and never calls the kernel;
//! [`observe`] and [`reapply`] apply them through `set_perms`, the one
//! place a decision becomes `protect` or `shm_protect_all`. A kernel call
//! skipped for a dead home therefore never erases a decision: the
//! restored copy is locked by the same count.

use crate::runtime::ThreadId;
use freepart_frameworks::api::ApiType;
use freepart_frameworks::{ObjectId, ObjectMeta, ObjectStore};
use freepart_simos::{Addr, Kernel, Perms, Pid};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The five framework states (Initialization + the four API types).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FrameworkState {
    /// Before any framework API has run.
    #[default]
    Initialization,
    /// Inside a run of APIs of one type.
    InType(ApiType),
}

impl fmt::Display for FrameworkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameworkState::Initialization => f.write_str("Initialization"),
            FrameworkState::InType(t) => t.fmt(f),
        }
    }
}

/// Which threads track an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Owner {
    /// The one application thread (or pooled tenant) that defined it.
    Thread(ThreadId),
    /// Annotated host data: every thread tracks it, later ones included.
    Shared,
}

/// One transition's decisions, each list in ascending object order.
#[derive(Debug)]
pub struct Transition {
    /// The state left.
    pub from: FrameworkState,
    /// The state entered.
    pub to: FrameworkState,
    /// Objects the thread newly holds a lock on; pages another thread's
    /// lock already made read-only cost nothing to lock again.
    pub locked: Vec<ObjectId>,
    /// How many locks the thread released by re-entering `to`.
    pub released: usize,
    /// Objects whose lock count fell to zero: writable again.
    pub unlocked: Vec<ObjectId>,
}

#[derive(Debug, Default)]
struct ThreadTrack {
    current: FrameworkState,
    /// Tracked objects by defining state, each with whether this thread
    /// holds a lock on it. A transition walks only the left and
    /// re-entered states' maps.
    by_state: BTreeMap<FrameworkState, BTreeMap<ObjectId, bool>>,
    /// `(virtual ns, state entered, objects newly locked)` per
    /// transition — the Fig. 3 timeline.
    timeline: Vec<(u64, FrameworkState, usize)>,
}

impl ThreadTrack {
    fn define(&mut self, id: ObjectId) {
        self.by_state
            .entry(self.current)
            .or_default()
            .insert(id, false);
    }

    fn holds(&self, id: ObjectId) -> bool {
        self.by_state
            .values()
            .any(|ids| ids.get(&id) == Some(&true))
    }
}

/// Every temporal-protection decision of one runtime: per thread, its
/// state, its objects by defining state with its locks, and its Fig. 3
/// timeline; per object, its owner; and the index of segment-backed
/// objects by owner that the grant sweeps and crash reaping walk. An
/// owned object's lock count is its one tracking thread's lock (0 or 1);
/// shared data records its lock holders.
#[derive(Debug)]
pub struct TemporalPlane {
    /// `false` (`Policy::temporal_protection` off): states are tracked
    /// but nothing is ever locked.
    enabled: bool,
    /// Slot `i` tracks `ThreadId(i)`: `add_thread` hands ids out densely.
    threads: Vec<ThreadTrack>,
    owners: BTreeMap<ObjectId, Owner>,
    /// The threads holding a lock on each annotated host-data object.
    shared: BTreeMap<ObjectId, BTreeSet<ThreadId>>,
    /// `None` keys objects no thread tracks.
    segments: BTreeMap<Option<Owner>, BTreeSet<ObjectId>>,
    transitions: u64,
    /// Objects whose lock count is above zero.
    locked: u64,
}

impl TemporalPlane {
    /// A plane tracking only the main thread, in Initialization.
    pub fn new(enabled: bool) -> TemporalPlane {
        TemporalPlane {
            enabled,
            threads: vec![ThreadTrack::default()],
            owners: BTreeMap::new(),
            shared: BTreeMap::new(),
            segments: BTreeMap::new(),
            transitions: 0,
            locked: 0,
        }
    }

    /// Hands out the next thread id and tracks it from Initialization,
    /// along with every annotated host-data object.
    pub fn add_thread(&mut self) -> ThreadId {
        let thread = ThreadId(u32::try_from(self.threads.len()).expect("under 2^32 threads"));
        let mut track = ThreadTrack::default();
        if !self.shared.is_empty() {
            let ids = self.shared.keys().map(|id| (*id, false)).collect();
            track.by_state.insert(FrameworkState::Initialization, ids);
        }
        self.threads.push(track);
        thread
    }

    /// Whether `thread` is tracked.
    pub(crate) fn has_thread(&self, thread: ThreadId) -> bool {
        (thread.0 as usize) < self.threads.len()
    }

    /// The current state of `thread` (Initialization when untracked).
    pub fn state_of(&self, thread: ThreadId) -> FrameworkState {
        self.threads
            .get(thread.0 as usize)
            .map(|t| t.current)
            .unwrap_or_default()
    }

    /// Registers `id` as owned by `thread`, defined in its current state.
    /// The first definition wins.
    pub fn define(&mut self, thread: ThreadId, id: ObjectId) {
        let Some(track) = self.threads.get_mut(thread.0 as usize) else {
            return;
        };
        if let Entry::Vacant(owner) = self.owners.entry(id) {
            owner.insert(Owner::Thread(thread));
            track.define(id);
        }
    }

    /// Registers annotated host data, defined in every thread's current
    /// state. The first definition wins.
    pub fn share(&mut self, id: ObjectId) {
        if let Entry::Vacant(owner) = self.owners.entry(id) {
            owner.insert(Owner::Shared);
            self.shared.insert(id, BTreeSet::new());
            self.threads.iter_mut().for_each(|track| track.define(id));
        }
    }

    /// Who tracks `id`; `None` when no thread does.
    pub(crate) fn owner(&self, id: ObjectId) -> Option<Owner> {
        self.owners.get(&id).copied()
    }

    /// Records `thread` observing an API of type `t`: on a state change,
    /// the thread locks every object with a payload that the left state
    /// defined and releases its locks on what the re-entered state
    /// defined. `None` when the state does not change. [`observe`]
    /// applies the decisions.
    fn transition(
        &mut self,
        thread: ThreadId,
        t: ApiType,
        objects: &ObjectStore,
    ) -> Option<Transition> {
        let track = self.threads.get_mut(thread.0 as usize)?;
        let to = FrameworkState::InType(t);
        if track.current == to {
            return None;
        }
        let from = std::mem::replace(&mut track.current, to);
        self.transitions += 1;
        let mut tr = Transition {
            from,
            to,
            locked: Vec::new(),
            released: 0,
            unlocked: Vec::new(),
        };
        if !self.enabled {
            return Some(tr);
        }
        for (&id, held) in track.by_state.get_mut(&from).into_iter().flatten() {
            if *held || objects.meta(id).is_none_or(ObjectMeta::is_empty) {
                continue;
            }
            *held = true;
            let first = self.shared.get_mut(&id).is_none_or(|lockers| {
                lockers.insert(thread);
                lockers.len() == 1
            });
            self.locked += u64::from(first);
            tr.locked.push(id);
        }
        for (&id, held) in track.by_state.get_mut(&to).into_iter().flatten() {
            if !std::mem::take(held) {
                continue;
            }
            tr.released += 1;
            let last = self.shared.get_mut(&id).is_none_or(|lockers| {
                lockers.remove(&thread);
                lockers.is_empty()
            });
            if last {
                self.locked -= 1;
                tr.unlocked.push(id);
            }
        }
        Some(tr)
    }

    /// Appends `tr` to `thread`'s Fig. 3 timeline, stamped `at_ns`.
    fn stamp(&mut self, thread: ThreadId, at_ns: u64, tr: &Transition) {
        if let Some(track) = self.threads.get_mut(thread.0 as usize) {
            track.timeline.push((at_ns, tr.to, tr.locked.len()));
        }
    }

    /// How many threads hold a lock on `id`: its lock count.
    pub fn locks(&self, id: ObjectId) -> usize {
        match self.owner(id) {
            Some(Owner::Thread(t)) => usize::from(self.threads[t.0 as usize].holds(id)),
            Some(Owner::Shared) => self.shared[&id].len(),
            None => 0,
        }
    }

    /// Distinct objects currently locked.
    pub(crate) fn locked_objects(&self) -> u64 {
        self.locked
    }

    /// State transitions taken, summed over threads.
    pub(crate) fn transitions(&self) -> u64 {
        self.transitions
    }

    /// `thread`'s Fig. 3 timeline: `(virtual ns, state entered, objects
    /// newly locked)` per transition.
    pub(crate) fn timeline(&self, thread: ThreadId) -> &[(u64, FrameworkState, usize)] {
        self.threads
            .get(thread.0 as usize)
            .map_or(&[], |t| &t.timeline)
    }

    /// Indexes `id` as segment-backed (its payload was promoted).
    pub fn note_segment(&mut self, id: ObjectId) {
        let owner = self.owner(id);
        self.segments.entry(owner).or_default().insert(id);
    }

    /// Segment-backed objects, ascending: every one, or (`Some(thread)`)
    /// only those `thread` tracks — O(1) in the number of other threads.
    pub fn segments(&self, thread: Option<ThreadId>) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = match thread {
            None => self.segments.values().flatten().copied().collect(),
            Some(t) => [Owner::Thread(t), Owner::Shared]
                .iter()
                .filter_map(|owner| self.segments.get(&Some(*owner)))
                .flatten()
                .copied()
                .collect(),
        };
        ids.sort_unstable();
        ids
    }

    /// Drops `id` from the segment index (its payload left its segment).
    pub fn drop_segment(&mut self, id: ObjectId) {
        if let Some(ids) = self.segments.get_mut(&self.owner(id)) {
            ids.remove(&id);
        }
    }

    /// Forgets `id` everywhere: its definitions, locks and segment entry.
    pub fn forget(&mut self, id: ObjectId) {
        self.locked -= u64::from(self.locks(id) > 0);
        self.shared.remove(&id);
        self.drop_segment(id);
        let owner = self.owners.remove(&id);
        let tracks: Vec<&mut ThreadTrack> = match owner {
            Some(Owner::Thread(t)) => self.threads.get_mut(t.0 as usize).into_iter().collect(),
            Some(Owner::Shared) => self.threads.iter_mut().collect(),
            None => Vec::new(),
        };
        for ids in tracks.into_iter().flat_map(|t| t.by_state.values_mut()) {
            ids.remove(&id);
        }
    }
}

/// Observes an API of type `t` on `thread`: records the plane's
/// decisions, applies them, and stamps the Fig. 3 timeline with the
/// virtual time the protection storm finished.
pub fn observe(
    plane: &mut TemporalPlane,
    thread: ThreadId,
    t: ApiType,
    kernel: &mut Kernel,
    objects: &ObjectStore,
) -> Option<Transition> {
    let tr = plane.transition(thread, t, objects)?;
    set_perms(kernel, objects, &tr.locked, Perms::R);
    set_perms(kernel, objects, &tr.unlocked, Perms::RW);
    plane.stamp(thread, kernel.now_ns(), &tr);
    Some(tr)
}

/// Re-locks `id` if any thread holds a lock on it — after a move or a
/// restore re-materialized its payload writable. Returns the
/// lowest-numbered lock holder; `None` (and no kernel call) when
/// nothing holds one.
pub fn reapply(
    plane: &TemporalPlane,
    kernel: &mut Kernel,
    objects: &ObjectStore,
    id: ObjectId,
) -> Option<ThreadId> {
    let holder = match plane.owner(id)? {
        Owner::Thread(t) => plane.threads[t.0 as usize].holds(id).then_some(t),
        Owner::Shared => plane.shared[&id].first().copied(),
    }?;
    set_perms(kernel, objects, &[id], Perms::R);
    Some(holder)
}

/// Moves the payloads of `ids` to `perms`: a `shm_protect_all` per
/// segment (every mapped view at once) and one `protect` per running
/// home over its buffers, in object order. A range not wholly mapped
/// (an agent `munmap`ed it) is dropped, lest the atomic op fail for its
/// whole home, and so is one already at `perms`: a no-op storm is free.
fn set_perms(kernel: &mut Kernel, objects: &ObjectStore, ids: &[ObjectId], perms: Perms) {
    let mut homes: BTreeMap<Pid, Vec<(Addr, u64)>> = BTreeMap::new();
    for meta in ids.iter().filter_map(|&id| objects.meta(id)) {
        if let Some((seg, _)) = meta.shm {
            kernel.shm_protect_all(seg, perms).ok();
        } else if let Some(range) = meta.buffer {
            homes.entry(meta.home).or_default().push(range);
        }
    }
    for (home, mut ranges) in homes {
        if let Some(p) = kernel.process(home).ok().filter(|p| p.is_running()) {
            let asp = &p.aspace;
            ranges.retain(|&(a, n)| asp.is_mapped(a, n) && !asp.perms_match(a, n, perms));
            if !ranges.is_empty() {
                kernel.protect(home, &ranges, perms).ok();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart_frameworks::ObjectKind;
    use freepart_simos::{FaultKind, Pid, SimError};

    const MAIN: ThreadId = ThreadId::MAIN;

    fn setup(enabled: bool) -> (Kernel, ObjectStore, Pid, TemporalPlane) {
        let mut k = Kernel::new();
        let pid = k.spawn("host");
        (k, ObjectStore::new(), pid, TemporalPlane::new(enabled))
    }

    fn blob(k: &mut Kernel, store: &mut ObjectStore, pid: Pid, len: usize) -> ObjectId {
        let data = vec![7; len];
        store
            .create_with_data(k, pid, ObjectKind::Blob, "x", &data)
            .unwrap()
    }

    /// Objects newly locked by MAIN's transition to `t`.
    fn step(plane: &mut TemporalPlane, t: ApiType, k: &mut Kernel, store: &ObjectStore) -> usize {
        observe(plane, MAIN, t, k, store).map_or(0, |tr| tr.locked.len())
    }

    #[test]
    fn transition_protects_previous_state_objects() {
        let (mut k, mut store, pid, mut plane) = setup(true);
        let template = blob(&mut k, &mut store, pid, 64);
        plane.define(MAIN, template);
        // Initialization → Loading: template becomes read-only.
        assert_eq!(step(&mut plane, ApiType::DataLoading, &mut k, &store), 1);
        assert_eq!(plane.locks(template), 1);
        let addr = store.meta(template).unwrap().buffer.unwrap().0;
        let err = k.mem_write(pid, addr, &[9]).unwrap_err();
        assert!(matches!(err, SimError::Fault(_)));
    }

    #[test]
    fn same_state_calls_do_not_transition() {
        let (mut k, store, _, mut plane) = setup(true);
        step(&mut plane, ApiType::DataProcessing, &mut k, &store);
        step(&mut plane, ApiType::DataProcessing, &mut k, &store);
        assert_eq!(plane.transitions(), 1);
        let processing = FrameworkState::InType(ApiType::DataProcessing);
        assert_eq!(plane.state_of(MAIN), processing);
    }

    #[test]
    fn pipeline_progression_locks_stage_by_stage() {
        let (mut k, mut store, pid, mut plane) = setup(true);
        step(&mut plane, ApiType::DataLoading, &mut k, &store);
        let loaded = blob(&mut k, &mut store, pid, 32);
        plane.define(MAIN, loaded);
        // Loading → Processing: `loaded` locks.
        assert_eq!(step(&mut plane, ApiType::DataProcessing, &mut k, &store), 1);
        let processed = blob(&mut k, &mut store, pid, 32);
        plane.define(MAIN, processed);
        assert_eq!(plane.locks(processed), 0, "current-state object writable");
        // Processing → Visualizing: `processed` locks too.
        assert_eq!(step(&mut plane, ApiType::Visualizing, &mut k, &store), 1);
        assert_eq!(plane.locks(processed), 1);
    }

    #[test]
    fn disabled_machine_tracks_but_never_locks() {
        let (mut k, mut store, pid, mut plane) = setup(false);
        let obj = blob(&mut k, &mut store, pid, 8);
        plane.define(MAIN, obj);
        assert_eq!(step(&mut plane, ApiType::DataLoading, &mut k, &store), 0);
        assert_eq!(plane.locks(obj), 0);
        assert_eq!(plane.transitions(), 1, "state still tracked");
    }

    #[test]
    fn dead_home_processes_are_skipped() {
        let (mut k, mut store, pid, mut plane) = setup(true);
        let obj = blob(&mut k, &mut store, pid, 8);
        plane.define(MAIN, obj);
        k.deliver_fault(pid, FaultKind::Abort, None);
        let (pages, ns) = (k.metrics().protected_pages, k.now_ns());
        assert_eq!(step(&mut plane, ApiType::DataLoading, &mut k, &store), 1);
        assert_eq!(
            k.metrics().protected_pages,
            pages,
            "no protect reaches a dead pid"
        );
        assert_eq!(k.now_ns(), ns, "no kernel time charged");
        assert_eq!(plane.locks(obj), 1, "the lock stands for a restored copy");
    }

    #[test]
    fn shm_resident_objects_lock_via_grant_downgrade() {
        let (mut k, mut store, pid, mut plane) = setup(true);
        let obj = blob(&mut k, &mut store, pid, 4096);
        let seg = store.promote_to_shm(&mut k, obj).unwrap().unwrap();
        plane.define(MAIN, obj);
        let n = step(&mut plane, ApiType::DataLoading, &mut k, &store);
        assert_eq!(n, 1, "shm residency must not evade temporal locking");
        assert_eq!(plane.locks(obj), 1);
        // The downgraded grant still reads, but a write now faults.
        assert!(k.shm_read(pid, seg).is_ok());
        assert!(k.shm_write(pid, seg, &[1; 4096]).is_err());
    }

    #[test]
    fn forget_unprotects_tracking() {
        let (mut k, mut store, pid, mut plane) = setup(true);
        step(&mut plane, ApiType::DataLoading, &mut k, &store);
        let obj = blob(&mut k, &mut store, pid, 8);
        plane.define(MAIN, obj);
        step(&mut plane, ApiType::DataProcessing, &mut k, &store);
        assert_eq!((plane.locks(obj), plane.locked_objects()), (1, 1));
        plane.forget(obj);
        assert_eq!((plane.locks(obj), plane.locked_objects()), (0, 0));
        assert!(plane.owner(obj).is_none());
        // The definition itself is gone: re-entering its state releases
        // nothing, and leaving it again locks nothing.
        for t in [ApiType::DataLoading, ApiType::DataProcessing] {
            let tr = observe(&mut plane, MAIN, t, &mut k, &store).unwrap();
            assert_eq!((tr.locked.len(), tr.released, tr.unlocked.len()), (0, 0, 0));
        }
        assert_eq!(plane.locks(obj), 0);
    }
}
