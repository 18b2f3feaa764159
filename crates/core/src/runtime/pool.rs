//! Pooled multi-tenant serving: N concurrent pipelines share the four
//! `part0..part3` agent processes instead of spawning a set each.
//!
//! The per-thread model (§6 of the paper) isolates threads by giving
//! each its own agents — 5N processes for N pipelines. The pooled mode
//! keeps the paper's isolation *boundaries* (address spaces, temporal
//! permissions, sealed filters) but shares the agent processes: 4 + N
//! processes, where each tenant contributes only its own lightweight
//! pipeline context. Pooled calls run on the ordinary call plane (same
//! dispatch, journal and drain barrier as every other call); two
//! mechanisms make the sharing safe and fair:
//!
//! * **The tenant gate** — the temporal plane records every object's
//!   defining tenant (`state::Owner`), and [`Runtime::tenant_may_access`] is the
//!   one host-side check: dispatch refuses any call that names another
//!   tenant's object before a single payload byte moves, and
//!   [`Runtime::tenant_fetch`] refuses foreign reads, each with a
//!   [`AuditRecord::CrossTenantDenied`] audit entry.
//! * **Fair scheduling** — submissions enqueue into per-pool
//!   deficit-round-robin run queues
//!   ([`DrrScheduler`](freepart_simos::DrrScheduler)); `pump` drains
//!   them so a chatty tenant cannot starve the rest (bounded by the
//!   quantum, asserted by the starvation-freedom proptests).

use super::{CallError, Runtime, ThreadId};
use crate::partition::PartitionId;
use crate::policy::PoolConfig;
use crate::state::Owner;
use crate::trace::AuditRecord;
use freepart_frameworks::api::ApiId;
use freepart_frameworks::{ObjectId, Value};
use freepart_simos::{DrrScheduler, Pid};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of one tenant pipeline in pooled mode. Wraps the tenant's
/// application-thread number: tenant `t` drives framework state and
/// owns objects as `ThreadId(t)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The application thread this tenant's calls run on.
    pub fn thread(self) -> ThreadId {
        ThreadId(self.0)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Handle to a queued pooled call ([`Runtime::tenant_submit`]). Redeem
/// with [`Runtime::tenant_wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantHandle(pub(super) u64);

impl TenantHandle {
    /// The ticket id of the queued call.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// One queued (or completed) pooled call, with the scheduler snapshots
/// that turn its completion into a fairness measurement.
#[derive(Debug)]
pub(super) struct Ticket {
    tenant: TenantId,
    api: ApiId,
    args: Vec<Value>,
    /// Items already queued for this tenant at submission (backlog
    /// position — feeds the starvation bound).
    own_ahead: usize,
    /// Virtual time at submission.
    enqueue_ns: u64,
    /// Pool items served when this ticket enqueued.
    pool_served_at: u64,
    /// This tenant's served cost on the pool when the ticket enqueued.
    tenant_served_at: u64,
    /// The outcome, once pumped.
    done: Option<Result<Value, CallError>>,
    /// Items served to *other* tenants of the same pool between this
    /// ticket's enqueue and its dequeue.
    foreign_served: Option<u64>,
}

/// Everything pooled mode adds to the runtime (`Policy::pooled`); the
/// runtime holds one of these, or `None` for per-thread agent sets.
#[derive(Debug)]
pub(super) struct Pool {
    /// Deficit-round-robin run queues over tenants, one per pool
    /// partition.
    sched: DrrScheduler,
    /// Tickets by handle id (queued and completed).
    tickets: BTreeMap<u64, Ticket>,
    next_ticket: u64,
    /// Round-robin cursor over pools for `pump_one`.
    cursor: usize,
    /// Each tenant's own pipeline process (its host-side context).
    pids: BTreeMap<u32, Pid>,
    /// Per-tenant call latencies (enqueue → retire, global clock), for
    /// the p50/p99 curves and the starvation-freedom bound.
    latencies: BTreeMap<u32, Vec<u64>>,
}

impl Pool {
    pub(super) fn new(cfg: PoolConfig) -> Pool {
        Pool {
            sched: DrrScheduler::new(cfg.quantum),
            tickets: BTreeMap::new(),
            next_ticket: 0,
            cursor: 0,
            pids: BTreeMap::new(),
            latencies: BTreeMap::new(),
        }
    }
}

impl Runtime {
    // ------------------------------------------------------------------
    // Tenant lifecycle
    // ------------------------------------------------------------------

    /// Admits a new tenant pipeline to the shared pools: one fresh
    /// thread of the temporal plane and one lightweight pipeline process —
    /// *no* agent set. The whole point of pooling: process count grows
    /// 4 + N, not 5N.
    ///
    /// # Panics
    ///
    /// When the runtime was not installed with [`crate::policy::Policy::pooled`]
    /// set (use [`crate::policy::Policy::freepart_pooled`]).
    pub fn spawn_tenant(&mut self) -> TenantId {
        assert!(
            self.pooled(),
            "spawn_tenant requires Policy::pooled (see Policy::freepart_pooled)"
        );
        let thread = self.temporal.add_thread();
        let pid = self.kernel.spawn(&format!("tenant:{}", thread.0));
        let pool = self.pool.as_mut().expect("checked");
        pool.pids.insert(thread.0, pid);
        TenantId(thread.0)
    }

    /// One tenant's pipeline process. Grants in the kernel's segment
    /// tables name this pid, which is what lets a leak verdict ("no
    /// view of the victim's segment was ever granted to the attacker")
    /// be re-derived from a commit-log replay alone.
    pub fn tenant_pid(&self, tenant: TenantId) -> Option<Pid> {
        self.pool.as_ref()?.pids.get(&tenant.0).copied()
    }

    /// Pooled process census: `(shared agents, tenant processes)`. The
    /// deployment's total is the sum plus the host — versus
    /// `5N` (agents × tenants + contexts) for per-tenant agent sets.
    pub fn pooled_process_count(&self) -> (usize, usize) {
        let tenants = self.pool.as_ref().map_or(0, |p| p.pids.len());
        (self.agents.len(), tenants)
    }

    // ------------------------------------------------------------------
    // The pooled call interface
    // ------------------------------------------------------------------

    /// Queues one hooked call for `tenant` into its API's pool run
    /// queue. The call executes when the deficit-round-robin scheduler
    /// reaches it (see [`Runtime::pump_one`] / [`Runtime::tenant_wait`]).
    ///
    /// # Errors
    ///
    /// [`CallError::UnknownApi`] for names outside the registry.
    pub fn tenant_submit(
        &mut self,
        tenant: TenantId,
        name: &str,
        args: &[Value],
    ) -> Result<TenantHandle, CallError> {
        let api = self
            .reg
            .id_of(name)
            .ok_or_else(|| CallError::UnknownApi(name.to_owned()))?;
        let pool = self.partition_of(api);
        let enqueue_ns = self.kernel.now_ns();
        let p = self
            .pool
            .as_mut()
            .expect("tenant_submit requires pooled mode");
        let ticket_id = p.next_ticket;
        p.next_ticket += 1;
        let own_ahead = p.sched.enqueue(pool.0, tenant.0, ticket_id, 1);
        let ticket = Ticket {
            tenant,
            api,
            args: args.to_vec(),
            own_ahead,
            enqueue_ns,
            pool_served_at: p.sched.served(pool.0),
            tenant_served_at: p.sched.served_cost(pool.0, tenant.0),
            done: None,
            foreign_served: None,
        };
        p.tickets.insert(ticket_id, ticket);
        Ok(TenantHandle(ticket_id))
    }

    /// Serves the next queued pooled call in scheduler order: pools are
    /// visited round-robin, tenants within a pool deficit-round-robin.
    /// Returns the completed call's handle, or `None` when every run
    /// queue is idle.
    pub fn pump_one(&mut self) -> Option<TenantHandle> {
        let pools: Vec<PartitionId> = self.routes.partitions.iter().copied().collect();
        let n = pools.len();
        let p = self.pool.as_mut()?;
        let (pool, ticket_id) = (0..n).find_map(|i| {
            let pool = pools[(p.cursor + i) % n];
            let (_, ticket_id) = p.sched.dequeue(pool.0)?;
            p.cursor = (p.cursor + i + 1) % n;
            Some((pool, ticket_id))
        })?;
        let t = p.tickets.get_mut(&ticket_id).expect("queued ticket");
        let (tenant, api) = (t.tenant, t.api);
        let args = std::mem::take(&mut t.args);
        // Fairness accounting happens at dequeue: the sum below
        // includes this item for both counters, so they cancel.
        let foreign = (p.sched.served(pool.0) - t.pool_served_at)
            .saturating_sub(p.sched.served_cost(pool.0, tenant.0) - t.tenant_served_at);
        t.foreign_served = Some(foreign);
        let outcome = self.call_id_on(tenant.thread(), api, &args);
        let now = self.kernel.now_ns();
        let p = self.pool.as_mut().expect("pooled");
        let t = p.tickets.get_mut(&ticket_id).expect("queued ticket");
        t.done = Some(outcome);
        let latency = now.saturating_sub(t.enqueue_ns);
        p.latencies.entry(tenant.0).or_default().push(latency);
        Some(TenantHandle(ticket_id))
    }

    /// Drains every pool run queue ([`Runtime::pump_one`] to idle).
    pub fn pump_all(&mut self) {
        while self.pump_one().is_some() {}
    }

    /// Retires a pooled call: pumps the scheduler until `handle`'s
    /// ticket completes and returns its outcome. Waiting on an
    /// already-completed ticket returns the cached outcome.
    ///
    /// # Errors
    ///
    /// The queued call's own [`CallError`], or [`CallError::UnknownApi`]
    /// for a handle this runtime never issued.
    pub fn tenant_wait(&mut self, handle: TenantHandle) -> Result<Value, CallError> {
        loop {
            let t = self.ticket(handle).ok_or_else(|| {
                CallError::UnknownApi(format!("unknown pooled ticket {}", handle.0))
            })?;
            if let Some(done) = &t.done {
                return done.clone();
            }
            if self.pump_one().is_none() {
                return Err(CallError::UnknownApi(format!(
                    "pooled ticket {} stuck: scheduler idle",
                    handle.0
                )));
            }
        }
    }

    /// Synchronous pooled call: [`Runtime::tenant_submit`] followed by
    /// [`Runtime::tenant_wait`]. Note the wait may serve *other*
    /// tenants' queued calls first — that is the fairness contract.
    ///
    /// # Errors
    ///
    /// See [`CallError`].
    pub fn call_tenant(
        &mut self,
        tenant: TenantId,
        name: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        let h = self.tenant_submit(tenant, name, args)?;
        self.tenant_wait(h)
    }

    // ------------------------------------------------------------------
    // Tenant data plane
    // ------------------------------------------------------------------

    /// Reads an object's payload from one tenant's perspective, through
    /// the tenant gate: foreign objects are denied (and audited) without
    /// touching a byte. Segment-backed payloads are read through a view
    /// granted to the *tenant's own process* — so the grant table itself
    /// records which tenant can see which segment, and the
    /// cross-tenant-leak verdict can be re-derived from the commit log.
    ///
    /// # Errors
    ///
    /// [`CallError::TenantDenied`] for foreign objects;
    /// [`CallError::StateLost`] when the payload died with its process.
    pub fn tenant_fetch(&mut self, tenant: TenantId, id: ObjectId) -> Result<Vec<u8>, CallError> {
        let thread = tenant.thread();
        if !self.tenant_may_access(thread, id) {
            let pool = self
                .objects
                .meta(id)
                .map(|m| {
                    self.agents
                        .values()
                        .find(|a| a.pid == m.home)
                        .map_or(PartitionId(0), |a| a.partition)
                })
                .unwrap_or(PartitionId(0));
            return Err(self.deny_cross_tenant(thread, pool, id));
        }
        let shm = self.objects.meta(id).ok_or(CallError::StateLost(id))?.shm;
        match (shm, self.tenant_pid(tenant)) {
            (Some((seg, len)), Some(pid)) => self.read_segment_view(pid, id, seg, len),
            _ => self.fetch_bytes(id),
        }
    }

    // ------------------------------------------------------------------
    // The tenant gate
    // ------------------------------------------------------------------

    /// Whether `thread`'s namespace admits `obj`: its own objects,
    /// shared annotated host data, objects owned by the main thread
    /// (service-global fixtures), and untracked objects pass; another
    /// tenant's objects do not.
    pub fn tenant_may_access(&self, thread: ThreadId, obj: ObjectId) -> bool {
        match self.temporal.owner(obj) {
            Some(Owner::Thread(owner)) => {
                thread == ThreadId::MAIN || owner == thread || owner == ThreadId::MAIN
            }
            Some(Owner::Shared) | None => true,
        }
    }

    /// Books one cross-tenant denial: bumps the stats counter, writes
    /// the [`AuditRecord::CrossTenantDenied`] audit entry, and builds
    /// the error. The deny happens *before* any payload movement.
    pub(super) fn deny_cross_tenant(
        &mut self,
        thread: ThreadId,
        partition: PartitionId,
        obj: ObjectId,
    ) -> CallError {
        self.stats.tenant_denials += 1;
        let owner = match self.temporal.owner(obj) {
            Some(Owner::Thread(t)) => t.0,
            _ => 0,
        };
        if self.tracer.enabled() {
            let at_ns = self.kernel.now_ns();
            self.tracer.record_audit(AuditRecord::CrossTenantDenied {
                at_ns,
                tenant: thread.0,
                partition,
                object: obj,
                owner,
            });
        }
        CallError::TenantDenied {
            tenant: thread.0,
            object: obj,
        }
    }

    // ------------------------------------------------------------------
    // Fairness observability
    // ------------------------------------------------------------------

    /// Per-call latencies (enqueue → retirement, virtual ns) recorded
    /// for one tenant, in completion order.
    pub fn tenant_latencies(&self, tenant: TenantId) -> &[u64] {
        self.pool
            .as_ref()
            .and_then(|p| p.latencies.get(&tenant.0))
            .map_or(&[], Vec::as_slice)
    }

    /// Fairness measurement for a completed ticket:
    /// `(foreign_served, own_ahead)` — how many items the scheduler
    /// served to *other* tenants of the same pool between this call's
    /// enqueue and its dequeue, and how many of the tenant's own items
    /// were queued ahead of it. The starvation-freedom proptest bounds
    /// `foreign_served` by the DRR window. `None` until pumped.
    pub fn ticket_fairness(&self, handle: TenantHandle) -> Option<(u64, usize)> {
        let t = self.ticket(handle)?;
        Some((t.foreign_served?, t.own_ahead))
    }

    fn ticket(&self, handle: TenantHandle) -> Option<&Ticket> {
        self.pool.as_ref()?.tickets.get(&handle.0)
    }
}
