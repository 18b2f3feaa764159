//! Payload transports: *how* an object's bytes become visible to the
//! process about to use them.
//!
//! The call plane decides *which* object an agent needs; a [`Transport`]
//! decides how it gets there:
//!
//! * [`Eager`] — deep copy through the host on every call (the no-LDC
//!   ablation): two counted copies, host-relayed.
//! * [`Lazy`] — Lazy Data Copy (§4.3.2): one direct agent→agent copy at
//!   dereference time.
//! * [`Shm`] — zero-copy: the payload is promoted once into a
//!   kernel-owned shared-memory segment, and delivery grants + page-maps
//!   the consumer a view. No payload byte ever crosses an address space
//!   again; the map-vs-copy cost model makes a page ~20× cheaper to map
//!   than to copy. Grants are *temporal*: the runtime revokes
//!   out-of-state views at every framework-state transition.
//!
//! Transports are stateless; the per-call mutable context travels in
//! [`TransportCtx`]. Which transport serves which object is chosen
//! per-object in `objstore.rs`, from the partition's shm threshold
//! (read through `Runtime::knobs`, seeded from `Policy::shm_threshold`)
//! and `Policy::lazy_data_copy`.

use super::{CallError, RuntimeStats};
use crate::trace::{AuditRecord, SpanPhase, Tracer};
use freepart_frameworks::{ObjectId, ObjectStore};
use freepart_simos::{Kernel, Perms, Pid, ShmId};

/// The mutable runtime state a transport needs for one delivery.
pub struct TransportCtx<'a> {
    /// The simulated kernel (time, memory, segments).
    pub kernel: &'a mut Kernel,
    /// The object table.
    pub objects: &'a mut ObjectStore,
    /// Runtime counters (copy counts land here).
    pub stats: &'a mut RuntimeStats,
    /// The observability sink (byte attribution, audit records).
    pub tracer: &'a mut Tracer,
    /// The host process (the eager relay point).
    pub host: Pid,
    /// The logical call this delivery serves (trace attribution).
    pub seq: u64,
    /// The channel penalty factor
    /// ([`ChannelTransport::penalty_factor`][pf]) for copied bytes.
    ///
    /// [pf]: crate::policy::ChannelTransport::penalty_factor
    pub penalty: u64,
}

/// Charges the pipe-vs-shared-memory channel penalty (`penalty`, see
/// [`TransportCtx::penalty`]) for `bytes` that were actually copied.
/// Map-based deliveries never call this.
pub(super) fn charge_channel_penalty(kernel: &mut Kernel, penalty: u64, bytes: u64) {
    if penalty > 1 {
        let base = kernel.cost_model().copy_cost(bytes);
        kernel.charge_time(base * (penalty - 1));
    }
}

/// Grants `pid` a `perms` view of segment `seg` (object `obj`'s
/// `len`-byte payload) and maps it, unless `pid` already holds a mapped
/// view. Each new view is audited as one `ShmGrant`, so the grant table
/// records every process that ever saw the segment.
pub(super) fn map_view(
    kernel: &mut Kernel,
    tracer: &mut Tracer,
    obj: ObjectId,
    seg: ShmId,
    len: u64,
    pid: Pid,
    perms: Perms,
) -> Result<(), CallError> {
    let viewed = kernel
        .shm_segment(seg)
        .is_some_and(|s| s.grant_of(pid).is_some() && s.is_mapped(pid));
    if !viewed {
        kernel
            .shm_grant(seg, pid, perms)
            .and_then(|()| kernel.shm_map(pid, seg))
            .map_err(|_| CallError::StateLost(obj))?;
        if tracer.enabled() {
            let at_ns = kernel.now_ns();
            tracer.record_audit(AuditRecord::ShmGrant {
                at_ns,
                object: obj,
                segment: seg,
                pid,
                bytes: len,
            });
        }
    }
    Ok(())
}

/// One way of delivering an object's payload to a consumer process.
pub trait Transport {
    /// Stable display name ("eager" / "lazy" / "shm").
    fn name(&self) -> &'static str;

    /// The span phase a traced delivery records under.
    fn span_phase(&self) -> SpanPhase;

    /// Makes `obj`'s payload accessible to `agent` (and re-homes the
    /// object there). The caller has already handled the trivial cases:
    /// `obj` exists, is not already homed in `agent`, and carries a
    /// payload (buffer or segment).
    ///
    /// # Errors
    ///
    /// [`CallError::StateLost`] when the payload cannot be delivered
    /// (home crashed mid-copy, segment unmappable).
    fn deliver(
        &self,
        ctx: &mut TransportCtx<'_>,
        obj: ObjectId,
        agent: Pid,
    ) -> Result<(), CallError>;
}

/// Eager deep copy through the host (the no-LDC ablation, Fig. 11-b).
pub struct Eager;
/// Lazy Data Copy: one direct move at dereference (Fig. 11-a).
pub struct Lazy;
/// Zero-copy shared-memory segments with temporal grants.
pub struct Shm;

/// The eager transport instance.
pub static EAGER: Eager = Eager;
/// The lazy (LDC) transport instance.
pub static LAZY: Lazy = Lazy;
/// The shared-memory transport instance.
pub static SHM: Shm = Shm;

impl Transport for Eager {
    fn name(&self) -> &'static str {
        "eager"
    }

    fn span_phase(&self) -> SpanPhase {
        SpanPhase::DataCopy
    }

    fn deliver(
        &self,
        ctx: &mut TransportCtx<'_>,
        obj: ObjectId,
        agent: Pid,
    ) -> Result<(), CallError> {
        let meta = ctx
            .objects
            .meta(obj)
            .ok_or(CallError::StateLost(obj))?
            .clone();
        let len = meta.len();
        // Hop 1: payload to the host relay (skipped when already there).
        if meta.home != ctx.host {
            ctx.objects
                .migrate_direct(ctx.kernel, obj, ctx.host)
                .map_err(|_| CallError::StateLost(obj))?;
            ctx.stats.host_copies += 1;
            charge_channel_penalty(ctx.kernel, ctx.penalty, len);
            ctx.tracer.add_eager_bytes(ctx.seq, len);
        }
        // Hop 2: host to the executing agent.
        ctx.objects
            .migrate_direct(ctx.kernel, obj, agent)
            .map_err(|_| CallError::StateLost(obj))?;
        ctx.stats.host_copies += 1;
        charge_channel_penalty(ctx.kernel, ctx.penalty, len);
        ctx.tracer.add_eager_bytes(ctx.seq, len);
        Ok(())
    }
}

impl Transport for Lazy {
    fn name(&self) -> &'static str {
        "lazy"
    }

    fn span_phase(&self) -> SpanPhase {
        SpanPhase::DataCopy
    }

    fn deliver(
        &self,
        ctx: &mut TransportCtx<'_>,
        obj: ObjectId,
        agent: Pid,
    ) -> Result<(), CallError> {
        let len = ctx.objects.meta(obj).map_or(0, |m| m.len());
        ctx.objects
            .migrate_direct(ctx.kernel, obj, agent)
            .map_err(|_| CallError::StateLost(obj))?;
        ctx.stats.ldc_copies += 1;
        charge_channel_penalty(ctx.kernel, ctx.penalty, len);
        ctx.tracer.add_lazy_bytes(ctx.seq, len);
        Ok(())
    }
}

impl Transport for Shm {
    fn name(&self) -> &'static str {
        "shm"
    }

    fn span_phase(&self) -> SpanPhase {
        SpanPhase::ShmMap
    }

    fn deliver(
        &self,
        ctx: &mut TransportCtx<'_>,
        obj: ObjectId,
        agent: Pid,
    ) -> Result<(), CallError> {
        let meta = ctx
            .objects
            .meta(obj)
            .ok_or(CallError::StateLost(obj))?
            .clone();
        let len = meta.len();
        // Promote a buffer-backed payload into a segment once: the
        // kernel adopts the pages, so promotion copies nothing.
        let seg = match meta.shm {
            Some((seg, _)) => seg,
            None => {
                let seg = ctx
                    .objects
                    .promote_to_shm(ctx.kernel, obj)
                    .map_err(|_| CallError::StateLost(obj))?
                    .ok_or(CallError::StateLost(obj))?;
                if ctx.tracer.enabled() {
                    let at_ns = ctx.kernel.now_ns();
                    ctx.tracer.record_audit(AuditRecord::ShmGrant {
                        at_ns,
                        object: obj,
                        segment: seg,
                        pid: meta.home,
                        bytes: len,
                    });
                }
                seg
            }
        };
        // Grant + map the consumer a view, unless it already holds one.
        // New grants inherit the segment's current lock level (the
        // current user's perms), so delivery cannot widen a temporal
        // read-only lock.
        let perms = ctx
            .kernel
            .shm_segment(seg)
            .and_then(|s| s.grant_of(meta.home))
            .unwrap_or(Perms::RW);
        map_view(ctx.kernel, ctx.tracer, obj, seg, len, agent, perms)?;
        // Re-home: the agent is now the segment's current user. The
        // payload itself never moved — the registry records the mapped
        // length under `bytes_shm` so payload-size estimators keep
        // seeing this object's traffic after promotion.
        ctx.tracer.add_shm_bytes(ctx.seq, len);
        if let Some(m) = ctx.objects.meta_mut(obj) {
            m.home = agent;
        }
        Ok(())
    }
}
