//! Kernel-level counters the evaluation harness reads.
//!
//! Table 9 reports `#IPC`, bytes transferred, and runtime per isolation
//! scheme; Table 12 reports copy-operation counts; Fig. 13 reports
//! normalized runtimes. All of those derive from these counters plus the
//! virtual clock.

/// Monotone counters over one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// IPC messages delivered (each direction counts once).
    pub ipc_messages: u64,
    /// Payload bytes moved through IPC channels.
    pub ipc_bytes: u64,
    /// Bytes deep-copied between address spaces outside channels
    /// (object marshalling).
    pub copied_bytes: u64,
    /// Individual copy operations (lazy + eager), for Table 12.
    pub copy_ops: u64,
    /// Syscalls that reached dispatch (allowed by filters).
    pub syscalls: u64,
    /// Syscalls killed by a filter.
    pub filter_kills: u64,
    /// Memory-access faults delivered.
    pub faults: u64,
    /// Processes spawned.
    pub spawns: u64,
    /// `mprotect` page transitions applied.
    pub protected_pages: u64,
    /// Happens-before merges that actually advanced a receiver's
    /// timeline (per-process virtual time only; 0 under the global
    /// clock).
    pub timeline_merges: u64,
    /// Shared-memory grants issued (a `(segment, pid)` permission entry
    /// created or re-created).
    pub shm_grants: u64,
    /// Shared-memory grants revoked (the temporal-permission teardown at
    /// framework-state transitions).
    pub shm_revokes: u64,
    /// Cumulative bytes made accessible by page-mapping a segment into a
    /// process (the zero-copy counterpart of `copied_bytes`).
    pub shm_mapped_bytes: u64,
    /// Hooked calls that travelled inside a batched IPC frame. `ipc_messages`
    /// keeps counting *frames*, so `calls_batched / frames` shows the
    /// amortization honestly instead of hiding the calls.
    pub calls_batched: u64,
    /// Payload bytes actually copied by `take_snapshot` (dirty objects).
    pub snapshot_bytes_copied: u64,
    /// Stateful objects a snapshot round proved clean via write epochs
    /// and reused prior bytes for, copying nothing.
    pub snapshot_objects_skipped: u64,
    /// Dead processes reaped: address space freed, shm grant/map entries
    /// purged.
    pub reaps: u64,
}

impl Metrics {
    /// A zeroed counter set.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Difference `self - earlier`, for windowed measurements.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier
    /// (counters are monotone).
    pub fn since(&self, earlier: &Metrics) -> Metrics {
        debug_assert!(self.ipc_messages >= earlier.ipc_messages);
        debug_assert!(self.ipc_bytes >= earlier.ipc_bytes);
        debug_assert!(self.copied_bytes >= earlier.copied_bytes);
        debug_assert!(self.copy_ops >= earlier.copy_ops);
        debug_assert!(self.syscalls >= earlier.syscalls);
        debug_assert!(self.filter_kills >= earlier.filter_kills);
        debug_assert!(self.faults >= earlier.faults);
        debug_assert!(self.spawns >= earlier.spawns);
        debug_assert!(self.protected_pages >= earlier.protected_pages);
        debug_assert!(self.timeline_merges >= earlier.timeline_merges);
        debug_assert!(self.shm_grants >= earlier.shm_grants);
        debug_assert!(self.shm_revokes >= earlier.shm_revokes);
        debug_assert!(self.shm_mapped_bytes >= earlier.shm_mapped_bytes);
        debug_assert!(self.calls_batched >= earlier.calls_batched);
        debug_assert!(self.snapshot_bytes_copied >= earlier.snapshot_bytes_copied);
        debug_assert!(self.snapshot_objects_skipped >= earlier.snapshot_objects_skipped);
        debug_assert!(self.reaps >= earlier.reaps);
        Metrics {
            ipc_messages: self.ipc_messages - earlier.ipc_messages,
            ipc_bytes: self.ipc_bytes - earlier.ipc_bytes,
            copied_bytes: self.copied_bytes - earlier.copied_bytes,
            copy_ops: self.copy_ops - earlier.copy_ops,
            syscalls: self.syscalls - earlier.syscalls,
            filter_kills: self.filter_kills - earlier.filter_kills,
            faults: self.faults - earlier.faults,
            spawns: self.spawns - earlier.spawns,
            protected_pages: self.protected_pages - earlier.protected_pages,
            timeline_merges: self.timeline_merges - earlier.timeline_merges,
            shm_grants: self.shm_grants - earlier.shm_grants,
            shm_revokes: self.shm_revokes - earlier.shm_revokes,
            shm_mapped_bytes: self.shm_mapped_bytes - earlier.shm_mapped_bytes,
            calls_batched: self.calls_batched - earlier.calls_batched,
            snapshot_bytes_copied: self.snapshot_bytes_copied - earlier.snapshot_bytes_copied,
            snapshot_objects_skipped: self.snapshot_objects_skipped
                - earlier.snapshot_objects_skipped,
            reaps: self.reaps - earlier.reaps,
        }
    }

    /// Total bytes that crossed a process boundary.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.ipc_bytes + self.copied_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fieldwise() {
        let early = Metrics {
            ipc_messages: 2,
            ipc_bytes: 100,
            ..Metrics::new()
        };
        let late = Metrics {
            ipc_messages: 5,
            ipc_bytes: 350,
            syscalls: 7,
            ..Metrics::new()
        };
        let d = late.since(&early);
        assert_eq!(d.ipc_messages, 3);
        assert_eq!(d.ipc_bytes, 250);
        assert_eq!(d.syscalls, 7);
    }

    #[test]
    #[should_panic(expected = "protected_pages")]
    #[cfg(debug_assertions)]
    fn since_rejects_non_monotone_windows() {
        let early = Metrics {
            protected_pages: 9,
            ..Metrics::new()
        };
        // Every field except the one that regressed is monotone: only the
        // widened assertions catch this.
        let late = Metrics {
            ipc_messages: 5,
            protected_pages: 3,
            ..Metrics::new()
        };
        let _ = late.since(&early);
    }

    #[test]
    #[should_panic(expected = "shm_grants")]
    #[cfg(debug_assertions)]
    fn since_rejects_non_monotone_shm_counters() {
        let early = Metrics {
            shm_grants: 4,
            ..Metrics::new()
        };
        let late = Metrics {
            shm_grants: 1,
            shm_revokes: 2,
            shm_mapped_bytes: 4096,
            ..Metrics::new()
        };
        let _ = late.since(&early);
    }

    #[test]
    #[should_panic(expected = "calls_batched")]
    #[cfg(debug_assertions)]
    fn since_rejects_non_monotone_batched_calls() {
        let early = Metrics {
            calls_batched: 8,
            ..Metrics::new()
        };
        let late = Metrics {
            ipc_messages: 3,
            calls_batched: 2,
            ..Metrics::new()
        };
        let _ = late.since(&early);
    }

    #[test]
    #[should_panic(expected = "snapshot_bytes_copied")]
    #[cfg(debug_assertions)]
    fn since_rejects_non_monotone_snapshot_counters() {
        let early = Metrics {
            snapshot_bytes_copied: 4096,
            ..Metrics::new()
        };
        let late = Metrics {
            snapshot_bytes_copied: 64,
            snapshot_objects_skipped: 3,
            reaps: 1,
            ..Metrics::new()
        };
        let _ = late.since(&early);
    }

    #[test]
    fn total_transfer_combines_channels_and_copies() {
        let m = Metrics {
            ipc_bytes: 10,
            copied_bytes: 32,
            ..Metrics::new()
        };
        assert_eq!(m.total_transfer_bytes(), 42);
    }
}
