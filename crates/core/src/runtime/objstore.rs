//! The object plane: host-side data definition, host dereferences,
//! per-object transport selection (Eager / Lazy / Shm), re-protection
//! after moves, and the temporal-grant sweep that tears shared-memory
//! views down at framework-state transitions.

use super::transport::{
    charge_channel_penalty, map_view, Transport, TransportCtx, EAGER, LAZY, SHM,
};
use super::{CallError, Runtime, ThreadId};
use crate::partition::PartitionId;
use crate::policy::HostDataPlacement;
use crate::state;
use crate::trace::{AuditRecord, SpanEvent, SpanPhase};
use freepart_frameworks::api::ApiId;
use freepart_frameworks::{ObjectId, ObjectKind, ObjectMeta};
use freepart_simos::{Perms, Pid, ShmId};

impl Runtime {
    // ------------------------------------------------------------------
    // Host-side data
    // ------------------------------------------------------------------

    /// Allocates host-resident application data (the paper's annotated
    /// critical data structures, e.g. OMRChecker's `template`). The
    /// object participates in temporal protection.
    pub fn host_data(&mut self, label: &str, bytes: &[u8]) -> ObjectId {
        let home = match self.policy.host_data {
            HostDataPlacement::Host => self.host,
            HostDataPlacement::WithType(t) => {
                let p = self.policy.plan.partition_of_type(t);
                self.agents.get(&p).map_or(self.host, |a| a.pid)
            }
            HostDataPlacement::OwnProcessEach => self.kernel.spawn(&format!("data:{label}")),
        };
        let id = self
            .objects
            .create_with_data(&mut self.kernel, home, ObjectKind::Blob, label, bytes)
            .expect("data home is alive");
        if self.policy.host_data == HostDataPlacement::OwnProcessEach {
            self.pinned.insert(id, home);
        }
        self.temporal.share(id);
        id
    }

    /// Creates a host-homed object of an arbitrary kind (driver-level
    /// plumbing for pipelines that need a pre-existing tensor/Mat).
    pub fn host_object(&mut self, kind: ObjectKind, label: &str, bytes: &[u8]) -> ObjectId {
        let id = self
            .objects
            .create_with_data(&mut self.kernel, self.host, kind, label, bytes)
            .expect("host is alive");
        self.temporal.share(id);
        id
    }

    /// Reads an object's payload from the host's perspective — a host
    /// dereference. Host-resident payloads short-circuit to a plain
    /// local read: no IPC, no timeline merge, no trace. Remote
    /// buffer-backed payloads are *copied* to the host (a counted
    /// non-lazy copy) without moving the object's home; remote
    /// shm-resident payloads are read through a host-mapped view of the
    /// segment — zero bytes copied.
    ///
    /// # Errors
    ///
    /// [`CallError::StateLost`] when the payload died with a crashed
    /// agent.
    pub fn fetch_bytes(&mut self, id: ObjectId) -> Result<Vec<u8>, CallError> {
        let meta = self.objects.meta(id).ok_or(CallError::StateLost(id))?;
        let (home, shm, buffer) = (meta.home, meta.shm, meta.buffer);
        // Reading your own memory is just a read: skip the hazard merge
        // and the fetch machinery entirely. (A producer call can only
        // have made the host the home by migrating the payload back on
        // the host's own timeline, so the merge would be a no-op.)
        if home == self.host {
            return self
                .objects
                .read_bytes(&mut self.kernel, id)
                .map_err(|_| CallError::StateLost(id));
        }
        // Batch hazard: dereferencing an object an open batch's member
        // touched forces the batch's frames out before the host reads.
        self.flush_batch_if_touched(id);
        // LDC-deref ordering: dereferencing a payload touched by an
        // in-flight call orders the host after that producing call.
        if let Some(&ns) = self.last_touch.get(id) {
            self.kernel.advance_timeline_to(self.host, ns);
        }
        let tracing = self.tracer.enabled();
        let fetch_t0 = if tracing { self.kernel.now_ns() } else { 0 };
        let (bytes, len) = if let Some((seg, len)) = shm {
            // Zero-copy host deref through the host's own segment view.
            (self.read_segment_view(self.host, id, seg, len)?, len)
        } else if let Some((addr, len)) = buffer {
            let bytes = self
                .kernel
                .mem_read(home, addr, len)
                .map_err(|_| CallError::StateLost(id))?;
            self.kernel.charge_copy(len);
            self.stats.host_copies += 1;
            let penalty = self.policy.transport.penalty_factor();
            charge_channel_penalty(&mut self.kernel, penalty, len);
            (bytes, len)
        } else {
            return self
                .objects
                .read_bytes(&mut self.kernel, id)
                .map_err(|_| CallError::StateLost(id));
        };
        if tracing {
            let now = self.kernel.now_ns();
            self.tracer.span(SpanEvent {
                phase: SpanPhase::HostFetch,
                seq: self.seq,
                api: None,
                partition: None,
                thread: ThreadId::MAIN,
                start_ns: fetch_t0,
                end_ns: now,
                bytes: len,
            });
        }
        Ok(bytes)
    }

    /// Reads segment `seg` (object `id`'s payload, `len` bytes) through
    /// `reader`'s own read-only view, granting and mapping the view on
    /// first use (one audited `ShmGrant`).
    pub(super) fn read_segment_view(
        &mut self,
        reader: Pid,
        id: ObjectId,
        seg: ShmId,
        len: u64,
    ) -> Result<Vec<u8>, CallError> {
        let Runtime { kernel, tracer, .. } = self;
        map_view(kernel, tracer, id, seg, len, reader, Perms::R)?;
        kernel
            .shm_read(reader, seg)
            .map_err(|_| CallError::StateLost(id))
    }

    /// Ships a pinned object back to its dedicated data process after a
    /// use (the per-access IPC of the code-based API+data baseline).
    pub(super) fn return_pinned(
        &mut self,
        seq: u64,
        thread: ThreadId,
        id: ObjectId,
    ) -> Result<(), CallError> {
        if let Some(&pin) = self.pinned.get(&id) {
            let home = self.objects.meta(id).map(|m| m.home);
            if home != Some(pin) && self.kernel.is_running(pin) {
                self.copy_home(id, pin, seq, thread, None, None)?;
            }
        }
        Ok(())
    }

    /// Copies `obj`'s payload to `home` (the host after a no-LDC call, or
    /// a pinned object's data process): one counted host copy with the
    /// channel penalty, attributed to call `seq` as eager bytes and one
    /// `DataCopy` span, then re-protection of the new copy.
    pub(super) fn copy_home(
        &mut self,
        obj: ObjectId,
        home: Pid,
        seq: u64,
        thread: ThreadId,
        api: Option<ApiId>,
        partition: Option<PartitionId>,
    ) -> Result<(), CallError> {
        let len = self.objects.meta(obj).map_or(0, |m| m.len());
        let tracing = self.tracer.enabled();
        let copy_t0 = if tracing { self.kernel.now_ns() } else { 0 };
        self.objects
            .migrate_direct(&mut self.kernel, obj, home)
            .map_err(|_| CallError::StateLost(obj))?;
        self.stats.host_copies += 1;
        let penalty = self.policy.transport.penalty_factor();
        charge_channel_penalty(&mut self.kernel, penalty, len);
        if tracing {
            let now = self.kernel.now_ns();
            self.tracer.add_eager_bytes(seq, len);
            self.tracer.span(SpanEvent {
                phase: SpanPhase::DataCopy,
                seq,
                api,
                partition,
                thread,
                start_ns: copy_t0,
                end_ns: now,
                bytes: len,
            });
        }
        self.reprotect(obj);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transport selection and delivery
    // ------------------------------------------------------------------

    /// Picks the payload transport for one object bound for
    /// `partition`: segments stay on the Shm transport once promoted;
    /// payloads at or above the partition's shm threshold knob are
    /// promoted; everything else follows the LDC flag.
    fn transport_for(&self, partition: PartitionId, meta: &ObjectMeta) -> &'static dyn Transport {
        if meta.shm.is_some() {
            return &SHM;
        }
        if meta.buffer.is_some()
            && self
                .knobs(partition)
                .shm_threshold
                .is_some_and(|t| meta.len() >= t)
        {
            return &SHM;
        }
        if self.policy.lazy_data_copy {
            &LAZY
        } else {
            &EAGER
        }
    }

    /// Moves one object into the executing agent via the selected
    /// transport, re-applying temporal protection afterwards.
    pub(super) fn move_to_agent(
        &mut self,
        thread: ThreadId,
        partition: PartitionId,
        seq: u64,
        obj: ObjectId,
        agent_pid: Pid,
    ) -> Result<(), CallError> {
        let meta = self.objects.meta(obj).ok_or(CallError::StateLost(obj))?;
        if meta.home == agent_pid {
            return Ok(());
        }
        if meta.is_empty() {
            // Buffer-less handles (windows, captures) carry no payload:
            // re-homing them is free and never lossy.
            self.objects
                .migrate_direct(&mut self.kernel, obj, agent_pid)
                .map_err(|_| CallError::StateLost(obj))?;
            return Ok(());
        }
        // A dead home loses buffer-backed payloads; segment payloads are
        // kernel-owned and survive their last user's crash.
        if meta.shm.is_none() && !self.kernel.is_running(meta.home) {
            return Err(CallError::StateLost(obj));
        }
        let (len, transport) = (meta.len(), self.transport_for(partition, meta));
        let tracing = self.tracer.enabled();
        let copy_t0 = if tracing { self.kernel.now_ns() } else { 0 };
        {
            let mut ctx = TransportCtx {
                kernel: &mut self.kernel,
                objects: &mut self.objects,
                stats: &mut self.stats,
                tracer: &mut self.tracer,
                host: self.host,
                seq,
                penalty: self.policy.transport.penalty_factor(),
            };
            transport.deliver(&mut ctx, obj, agent_pid)?;
        }
        if tracing {
            // The move span closes *before* re-protection so Reprotect
            // time attributes to the mprotect bucket, not the copy one.
            let now = self.kernel.now_ns();
            self.tracer.span(SpanEvent {
                phase: transport.span_phase(),
                seq,
                api: None,
                partition: None,
                thread,
                start_ns: copy_t0,
                end_ns: now,
                bytes: len,
            });
        }
        // Delivery is the only shm-promotion site: index the segment so
        // the revocation sweeps never rescan the whole object table.
        if self.objects.meta(obj).is_some_and(|m| m.shm.is_some()) {
            self.temporal.note_segment(obj);
        }
        self.reprotect(obj);
        Ok(())
    }

    /// Re-applies temporal protection to a locked object after a
    /// migration or restore re-materialized it writable — one lock-holder
    /// lookup, O(1) in the thread/tenant count.
    pub(super) fn reprotect(&mut self, obj: ObjectId) {
        let before = self
            .tracer
            .enabled()
            .then(|| (self.kernel.now_ns(), self.kernel.metrics().protected_pages));
        let holder = state::reapply(&self.temporal, &mut self.kernel, &self.objects, obj);
        if let (Some(thread), Some((t0, pages0))) = (holder, before) {
            let now = self.kernel.now_ns();
            let pages = self.kernel.metrics().protected_pages - pages0;
            self.tracer.record_audit(AuditRecord::Reprotect {
                at_ns: t0,
                object: obj,
                pages,
            });
            self.tracer.span(SpanEvent {
                phase: SpanPhase::Reprotect,
                seq: self.seq,
                api: None,
                partition: None,
                thread,
                start_ns: t0,
                end_ns: now,
                bytes: 0,
            });
        }
    }

    /// Revokes every shared-memory view a dead process still holds —
    /// the shm half of reaping a crashed agent, run inside the same
    /// drain barrier as the respawn. One audit record per revoked view,
    /// exactly as at framework-state transitions. (The kernel's `reap`
    /// would drop the table entries silently; sweeping here first keeps
    /// revocation audited.)
    pub(super) fn revoke_views_of(&mut self, dead: Pid, seq: u64) {
        debug_assert!(self.segment_index_consistent(), "segment index drifted");
        for obj in self.temporal.segments(None) {
            if let Some((seg, _)) = self.objects.meta(obj).and_then(|m| m.shm) {
                self.revoke_view(obj, seg, dead, seq);
            }
        }
    }

    /// The temporal-grant sweep: at `thread`'s framework-state
    /// transition, every shared-memory view held by a process other than
    /// the segment's current user is revoked — the segment analogue of
    /// the mprotect storm. Runs inside the drain barrier (no call in
    /// flight), so a stale agent's next access faults instead of racing
    /// the sweep. One audit record per revoked `(segment, pid)` pair, in
    /// ascending object order — the order the pre-index full table scan
    /// produced, so audit logs and replay digests are unchanged.
    ///
    /// Per-thread agent sets sweep every segment. Pooled mode sweeps
    /// only the segments the transitioning tenant tracks — its own plus
    /// shared annotated data — O(1) in the tenant count, where the
    /// global sweep is O(total shm objects).
    pub(super) fn revoke_out_of_state_grants(&mut self, thread: ThreadId, seq: u64) {
        let objs = if self.pooled() {
            self.temporal.segments(Some(thread))
        } else {
            debug_assert!(self.segment_index_consistent(), "segment index drifted");
            self.temporal.segments(None)
        };
        for obj in objs {
            let Some((seg, home)) = self
                .objects
                .meta(obj)
                .and_then(|m| m.shm.map(|(seg, _)| (seg, m.home)))
            else {
                continue;
            };
            let stale: Vec<Pid> = self
                .kernel
                .shm_segment(seg)
                .map(|s| s.grants().map(|(p, _)| p).filter(|p| *p != home).collect())
                .unwrap_or_default();
            for pid in stale {
                self.revoke_view(obj, seg, pid, seq);
            }
        }
    }

    /// Revokes `pid`'s view of `obj`'s segment, audited.
    fn revoke_view(&mut self, obj: ObjectId, seg: ShmId, pid: Pid, seq: u64) {
        if self.kernel.shm_revoke(seg, pid).unwrap_or(false) && self.tracer.enabled() {
            let at_ns = self.kernel.now_ns();
            self.tracer.record_audit(AuditRecord::ShmRevoke {
                at_ns,
                object: obj,
                segment: seg,
                pid,
                seq,
            });
        }
    }

    /// Debug-build invariant: the plane's segment index names exactly
    /// the objects the store holds segment-backed.
    fn segment_index_consistent(&self) -> bool {
        let full = self
            .objects
            .iter()
            .filter(|m| m.shm.is_some())
            .map(|m| m.id);
        full.eq(self.temporal.segments(None))
    }
}
