//! Exhaustive bounded check of temporal protection.
//!
//! Every operation sequence up to a fixed depth runs over a small
//! universe — the host, two agent processes, two threads and at most
//! three objects (one of them shared host data) — against a real
//! `Kernel` and `ObjectStore`. The [`TemporalPlane`] records the
//! decisions and `state::observe` / `state::reapply` apply them, exactly
//! as the runtime does. After every operation the checker asserts:
//!
//! 1. no object the plane reports locked has a writable page or grant in
//!    its live copy;
//! 2. an object with a live copy and a lock count of zero is writable in
//!    its home;
//! 3. the plane's segment index equals the store's segment-backed objects;
//! 4. a transition touches only objects defined in the two states
//!    involved, and leaves every other object's protection as it was;
//! 5. every lock count equals the number of tracking threads whose
//!    current state differs from the object's defining state, per a
//!    reference model kept beside the plane.
//!
//! Sequences start from two roots: the fresh universe, and one where
//! thread 0 has already entered Loading, so host data can be defined in
//! a state a thread later re-enters. Tier-1 enumerates depth 4;
//! `exhaustive_depth_6` (ignored, run it with `--release`) goes to 6.

use freepart::state::{self, Transition};
use freepart::{FrameworkState, TemporalPlane, ThreadId};
use freepart_frameworks::api::ApiType;
use freepart_frameworks::{ObjectId, ObjectKind, ObjectStore};
use freepart_simos::{FaultKind, Kernel, Perms, Pid};
use std::collections::BTreeMap;

const THREADS: [ThreadId; 2] = [ThreadId::MAIN, ThreadId(1)];
const TYPES: [ApiType; 2] = [ApiType::DataLoading, ApiType::DataProcessing];
const MAX_OBJECTS: usize = 3;
const ROOTS: [&[Op]; 2] = [&[], &[Op::Transition(0, ApiType::DataLoading)]];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Thread `.0` calls an API of type `.1` (only state changes are
    /// enumerated; a same-state call is a no-op by construction).
    Transition(usize, ApiType),
    /// Thread `t`'s agent creates an object the thread owns.
    Define(usize),
    /// The host annotates a new host-data object.
    Share,
    /// Moves object slot `.0` to the other agent: the new copy is
    /// writable until re-protection.
    Move(usize),
    /// Promotes object slot `.0`'s payload to a shared-memory segment.
    Promote(usize),
    /// Agent `.0` crashes.
    Crash(usize),
    /// Agent `.0` restarts into a fresh pid, as a runtime restart does.
    Restore(usize),
    /// Object slot `.0` is destroyed and forgotten.
    Forget(usize),
}

/// What an invariant reads of one object: its lock count, whether its
/// live copy has a writable page or grant, and whether it is writable in
/// its home (`None` without a live copy).
type Protection = (usize, Option<bool>, Option<bool>);

struct World {
    kernel: Kernel,
    store: ObjectStore,
    plane: TemporalPlane,
    host: Pid,
    agents: [Pid; 2],
    /// Objects by creation slot; `None` once forgotten.
    slots: Vec<Option<ObjectId>>,
    shared: bool,
    /// The reference model: each thread's state, and each tracked
    /// object's defining state per thread.
    current: [FrameworkState; 2],
    defined: BTreeMap<(usize, ObjectId), FrameworkState>,
}

impl World {
    fn new() -> World {
        let mut kernel = Kernel::new();
        let host = kernel.spawn("host");
        let agents = [kernel.spawn("agent0"), kernel.spawn("agent1")];
        let mut plane = TemporalPlane::new(true);
        assert_eq!(plane.add_thread(), THREADS[1]);
        World {
            kernel,
            store: ObjectStore::new(),
            plane,
            host,
            agents,
            slots: Vec::new(),
            shared: false,
            current: [FrameworkState::Initialization; 2],
            defined: BTreeMap::new(),
        }
    }

    fn live(&self) -> impl Iterator<Item = (usize, ObjectId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, id)| id.map(|id| (slot, id)))
    }

    fn running(&self, pid: Pid) -> bool {
        self.kernel.is_running(pid)
    }

    fn other_agent(&self, home: Pid) -> Pid {
        if home == self.agents[0] {
            self.agents[1]
        } else {
            self.agents[0]
        }
    }

    fn enabled(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for (t, current) in self.current.iter().enumerate() {
            for ty in TYPES {
                if *current != FrameworkState::InType(ty) {
                    ops.push(Op::Transition(t, ty));
                }
            }
        }
        if self.slots.len() < MAX_OBJECTS {
            for t in 0..2 {
                if self.running(self.agents[t]) {
                    ops.push(Op::Define(t));
                }
            }
            if !self.shared {
                ops.push(Op::Share);
            }
        }
        for (slot, id) in self.live() {
            let meta = self.store.meta(id).expect("live");
            let dst = self.other_agent(meta.home);
            if self.running(dst) && (meta.shm.is_some() || self.running(meta.home)) {
                ops.push(Op::Move(slot));
            }
            if meta.shm.is_none() && self.running(meta.home) {
                ops.push(Op::Promote(slot));
            }
            ops.push(Op::Forget(slot));
        }
        for (a, &pid) in self.agents.iter().enumerate() {
            ops.push(if self.running(pid) {
                Op::Crash(a)
            } else {
                Op::Restore(a)
            });
        }
        ops
    }

    /// Whether thread `t` holds a lock on `id`, per the reference model.
    fn holds(&self, t: usize, id: ObjectId) -> bool {
        self.defined
            .get(&(t, id))
            .is_some_and(|d| *d != self.current[t])
    }

    /// Re-applies protection as the runtime does after a move or restore,
    /// and checks the lock holder `reapply` reports: the lowest-numbered
    /// thread holding a lock.
    fn reapply(&mut self, id: ObjectId) {
        let holder = state::reapply(&self.plane, &mut self.kernel, &self.store, id);
        let expected = (0..2).find(|&t| self.holds(t, id)).map(|t| THREADS[t]);
        assert_eq!(holder, expected, "reapply's lock holder for {id}");
    }

    fn create(&mut self, home: Pid) -> ObjectId {
        let label = format!("o{}", self.slots.len());
        let id = self
            .store
            .create_with_data(&mut self.kernel, home, ObjectKind::Blob, &label, &[7; 64])
            .expect("home is alive");
        self.slots.push(Some(id));
        id
    }

    fn step(&mut self, op: Op) -> Option<Transition> {
        match op {
            Op::Transition(t, ty) => {
                self.current[t] = FrameworkState::InType(ty);
                return state::observe(
                    &mut self.plane,
                    THREADS[t],
                    ty,
                    &mut self.kernel,
                    &self.store,
                );
            }
            Op::Define(t) => {
                let id = self.create(self.agents[t]);
                self.plane.define(THREADS[t], id);
                self.defined.insert((t, id), self.current[t]);
            }
            Op::Share => {
                let id = self.create(self.host);
                self.plane.share(id);
                self.shared = true;
                for t in 0..2 {
                    self.defined.insert((t, id), self.current[t]);
                }
            }
            Op::Move(slot) => {
                let id = self.slots[slot].expect("enabled");
                let dst = self.other_agent(self.store.meta(id).expect("live").home);
                self.store
                    .migrate_direct(&mut self.kernel, id, dst)
                    .expect("enabled");
                self.reapply(id);
            }
            Op::Promote(slot) => {
                let id = self.slots[slot].expect("enabled");
                self.store
                    .promote_to_shm(&mut self.kernel, id)
                    .expect("enabled");
                self.plane.note_segment(id);
                self.reapply(id);
            }
            Op::Crash(a) => {
                self.kernel
                    .deliver_fault(self.agents[a], FaultKind::Abort, None);
            }
            Op::Restore(a) => {
                // Reap the corpse (its segment views revoked first), then
                // restore every buffer payload it homed into the fresh
                // process and re-apply protection.
                let dead = self.agents[a];
                let fresh = self.kernel.spawn("agent+");
                for id in self.plane.segments(None) {
                    let (seg, _) = self.store.meta(id).and_then(|m| m.shm).expect("indexed");
                    self.kernel.shm_revoke(seg, dead).expect("segment exists");
                }
                self.kernel.reap(dead).expect("crashed");
                let orphans: Vec<ObjectId> = self
                    .store
                    .iter()
                    .filter(|m| m.home == dead && m.shm.is_none())
                    .map(|m| m.id)
                    .collect();
                for id in orphans {
                    let len = self.store.meta(id).expect("live").len();
                    let addr = self.kernel.alloc(fresh, len, Perms::RW).expect("fresh");
                    self.kernel
                        .mem_write(fresh, addr, &vec![0; len as usize])
                        .expect("fresh pages are writable");
                    let meta = self.store.meta_mut(id).expect("live");
                    meta.home = fresh;
                    meta.buffer = Some((addr, len));
                    self.reapply(id);
                }
                self.agents[a] = fresh;
            }
            Op::Forget(slot) => {
                let id = self.slots[slot].take().expect("enabled");
                self.store.destroy(id);
                self.plane.forget(id);
                self.defined.retain(|(_, obj), _| *obj != id);
            }
        }
        None
    }

    fn protection(&self, id: ObjectId) -> Protection {
        let meta = self.store.meta(id).expect("live");
        let (writable, home_writable) = if let Some((seg, _)) = meta.shm {
            let seg = self.kernel.shm_segment(seg).expect("segment exists");
            let home = self
                .running(meta.home)
                .then(|| seg.grant_of(meta.home) == Some(Perms::RW));
            (Some(seg.grants().any(|(_, p)| p.writable())), home)
        } else if self.running(meta.home) {
            let (addr, len) = meta.buffer.expect("every object has a payload");
            let k = &self.kernel;
            (
                Some(!k.perms_match(meta.home, addr, len, Perms::R)),
                Some(k.perms_match(meta.home, addr, len, Perms::RW)),
            )
        } else {
            (None, None)
        };
        (self.plane.locks(id), writable, home_writable)
    }

    fn check(&self, seq: &[Op]) {
        for (t, thread) in THREADS.iter().enumerate() {
            assert_eq!(self.plane.state_of(*thread), self.current[t], "{seq:?}");
        }
        for (_, id) in self.live() {
            let (locks, writable, home_writable) = self.protection(id);
            assert!(
                locks == 0 || writable != Some(true),
                "invariant 1: {id} is locked but writable after {seq:?}"
            );
            assert!(
                locks > 0 || home_writable != Some(false),
                "invariant 2: {id} is unlocked but read-only after {seq:?}"
            );
            let expected = (0..2).filter(|&t| self.holds(t, id)).count();
            assert_eq!(
                locks, expected,
                "invariant 5: {id}'s lock count after {seq:?}"
            );
        }
        let segments: Vec<ObjectId> = self
            .store
            .iter()
            .filter(|m| m.shm.is_some())
            .map(|m| m.id)
            .collect();
        assert_eq!(
            self.plane.segments(None),
            segments,
            "invariant 3 after {seq:?}"
        );
    }

    /// Applies the last op of `seq` and checks every invariant.
    fn step_checked(&mut self, seq: &[Op]) {
        let op = *seq.last().expect("non-empty");
        let before: BTreeMap<ObjectId, Protection> = self
            .live()
            .map(|(_, id)| (id, self.protection(id)))
            .collect();
        let from = self.current;
        if let Some(tr) = self.step(op) {
            let Op::Transition(t, _) = op else {
                unreachable!("only transitions decide")
            };
            let involved = |id: ObjectId| {
                self.defined
                    .get(&(t, id))
                    .is_some_and(|d| *d == from[t] || *d == self.current[t])
            };
            for &id in tr.locked.iter().chain(&tr.unlocked) {
                assert!(involved(id), "invariant 4: {id} touched by {seq:?}");
            }
            for (id, protection) in &before {
                if !involved(*id) {
                    assert_eq!(
                        self.protection(*id),
                        *protection,
                        "invariant 4: {id} changed by {seq:?}"
                    );
                }
            }
        }
        self.check(seq);
    }
}

fn replay(seq: &[Op]) -> World {
    let mut world = World::new();
    for &op in seq {
        world.step(op);
    }
    world
}

/// Checks every sequence that extends `seq` (which left `world`) up to
/// `max` operations; returns how many sequences were checked.
fn explore(seq: &mut Vec<Op>, world: &World, max: usize) -> usize {
    if seq.len() == max {
        return 0;
    }
    let mut checked = 0;
    for op in world.enabled() {
        let mut next = replay(seq);
        seq.push(op);
        next.step_checked(seq);
        checked += 1 + explore(seq, &next, max);
        seq.pop();
    }
    checked
}

fn check_to_depth(depth: usize) -> usize {
    ROOTS
        .iter()
        .map(|root| explore(&mut root.to_vec(), &replay(root), root.len() + depth))
        .sum()
}

#[test]
fn exhaustive_depth_4() {
    let checked = check_to_depth(4);
    assert!(checked > 10_000, "only {checked} sequences enumerated");
}

#[test]
#[ignore = "minutes in a debug build; CI runs it with --release"]
fn exhaustive_depth_6() {
    check_to_depth(6);
}
