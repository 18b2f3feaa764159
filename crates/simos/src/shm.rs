//! Kernel-owned shared-memory segments with per-process grants.
//!
//! The FreePart data plane moves object payloads between the host and
//! agent processes. Copying every payload through IPC dominates the
//! partitioned hot path (the SGX case-study result this reproduction
//! chases), so the runtime's `Shm` transport instead *promotes* a large
//! payload into one of these segments and hands each consumer a
//! page-mapped view. A segment lives in the kernel, not in any process's
//! address space, so it survives agent crashes and restarts; what a
//! process holds is a **grant** — a `(Pid, Perms)` entry checked on every
//! access exactly like page permissions are checked by
//! [`AddressSpace`](crate::mem::AddressSpace).
//!
//! Grants are the temporal-permission story extended to shared memory:
//! the runtime downgrades or revokes them wholesale when the framework
//! state machine transitions, so an out-of-state agent that kept a stale
//! pointer into a segment faults exactly as it would on an `mprotect`ed
//! page. Revocation is a permission-table edit plus TLB shootdown — it
//! never touches the payload bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::commit::{fold_bytes, mix, FINGERPRINT_SEED};
use crate::mem::Perms;
use crate::process::Pid;

/// Identifier of a kernel-owned shared-memory segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShmId(pub u64);

impl fmt::Display for ShmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shm{}", self.0)
    }
}

/// One segment: payload bytes plus the grant and mapping tables.
///
/// Constructed only through [`Kernel::shm_create`]; inspected through
/// [`KernelState::shm_segment`].
///
/// [`Kernel::shm_create`]: crate::kernel::Kernel::shm_create
/// [`KernelState::shm_segment`]: crate::KernelState::shm_segment
#[derive(Debug, Clone)]
pub struct ShmSegment {
    pub(crate) data: Vec<u8>,
    pub(crate) grants: BTreeMap<Pid, Perms>,
    pub(crate) mapped: BTreeSet<Pid>,
    pub(crate) writes: u64,
    /// Incremental fingerprint over the payload's mutation history
    /// (creation bytes plus every replacement), so the kernel state
    /// digest never has to re-hash a large payload.
    fp: u64,
    /// This segment's current term in the kernel state digest's
    /// multiset hash (0 until the kernel core first admits it).
    pub(crate) digest_term: u64,
}

impl ShmSegment {
    pub(crate) fn new(data: Vec<u8>) -> ShmSegment {
        let fp = fold_bytes(FINGERPRINT_SEED, &data);
        ShmSegment {
            data,
            grants: BTreeMap::new(),
            mapped: BTreeSet::new(),
            writes: 0,
            fp,
            digest_term: 0,
        }
    }

    /// Replaces the payload, folding the new bytes into the fingerprint
    /// (the only mutation path the kernel uses for `shm_write`).
    pub(crate) fn replace_data(&mut self, bytes: &[u8]) {
        self.data = bytes.to_vec();
        self.writes += 1;
        self.fp = fold_bytes(mix(self.fp, 1), bytes);
    }

    /// The payload-mutation fingerprint (see the field docs on `fp`).
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The permissions `pid` currently holds on this segment, if any.
    pub fn grant_of(&self, pid: Pid) -> Option<Perms> {
        self.grants.get(&pid).copied()
    }

    /// All current grants, in pid order.
    pub fn grants(&self) -> impl Iterator<Item = (Pid, Perms)> + '_ {
        self.grants.iter().map(|(p, perms)| (*p, *perms))
    }

    /// True when `pid` has page-mapped the segment.
    pub fn is_mapped(&self, pid: Pid) -> bool {
        self.mapped.contains(&pid)
    }

    /// Write generation of the payload: bumped by the kernel on every
    /// `shm_write`. An unchanged generation across an interval proves the
    /// payload bytes did not change — the shared-memory counterpart of
    /// [`AddressSpace::write_epoch`](crate::mem::AddressSpace::write_epoch),
    /// and what lets incremental snapshots skip shm-promoted objects.
    pub fn write_epoch(&self) -> u64 {
        self.writes
    }

    /// Drops every grant and mapping `pid` holds on this segment. Used
    /// when reaping a dead process: the segment (kernel-owned) survives,
    /// but the corpse's permission entries must not.
    pub(crate) fn purge(&mut self, pid: Pid) {
        self.grants.remove(&pid);
        self.mapped.remove(&pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_segment() {
        assert_eq!(ShmId(7).to_string(), "shm7");
    }

    #[test]
    fn fresh_segment_has_no_grants() {
        let s = ShmSegment::new(vec![1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.grant_of(Pid(1)), None);
        assert!(!s.is_mapped(Pid(1)));
        assert_eq!(s.grants().count(), 0);
    }
}
