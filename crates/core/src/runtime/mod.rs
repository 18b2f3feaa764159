//! The FreePart runtime: hooked API calls become RPCs into isolated
//! agent processes (paper §4.3–§4.4, Fig. 5 right).
//!
//! [`Runtime::install`] spawns the host process plus one agent process
//! per partition, each with its own address space, shared-memory ring to
//! the host, and an RX code page (the target of code-rewrite exploits).
//! [`Runtime::call`] is the hooked interface: it marshals the request,
//! routes it to the right agent (type-neutral APIs follow the calling
//! context), moves object payloads according to the transport policy,
//! drives the temporal plane's memory permissions, executes
//! the API *in the agent's process context*, and handles agent crashes
//! with optional restart (at-least-once re-execution).
//!
//! Per-agent seccomp-style filters are sealed after each agent's first
//! completed call — the paper's "first execution unrestricted, then
//! restrict" design.
//!
//! ## Layering
//!
//! The runtime is split into a call plane and an object plane:
//!
//! * [`callplane`](self) (`callplane.rs`) — the sync + async dispatch
//!   surface: submission, the state-transition drain barrier, bounded
//!   pipelined windows, and retirement.
//! * `dispatch.rs` — one delivery attempt to an agent: request framing,
//!   journal replay, agent-context execution, response framing.
//! * `objstore.rs` — object residency: host data, host dereferences,
//!   per-object transport selection, and the temporal-grant sweep.
//! * [`transport`] — the [`transport::Transport`] trait with its three
//!   implementations: `Eager` (in-frame deep copy through the host),
//!   `Lazy` (LDC direct move on dereference), and `Shm` (zero-copy
//!   page-mapped shared-memory segments with per-process grants).
//! * `lifecycle.rs` — agent sealing, snapshots, restarts, and
//!   crash-audit classification.
//!
//! This file owns the shared types and the `Runtime` struct itself; the
//! submodules each reopen `impl Runtime` for their slice of behavior.

mod callplane;
mod controller;
mod dispatch;
mod lifecycle;
mod objstore;
mod pool;
pub mod transport;

pub use controller::Knobs;
pub use pool::{TenantHandle, TenantId};

use crate::partition::PartitionId;
use crate::policy::Policy;
use crate::rpc::CompletionCache;
use crate::state::{FrameworkState, TemporalPlane};
use crate::trace::Tracer;
use freepart_analysis::{HybridReport, SyscallProfile, TestCorpus};
use freepart_frameworks::api::{ApiId, ApiRegistry};
use freepart_frameworks::{ActionReport, FrameworkError, ObjectId, ObjectKind, ObjectStore, Value};
use freepart_simos::{Addr, ChannelId, IdTable, Kernel, Perms, Pid, ShmId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use callplane::{InFlight, PendingBatch};

/// Identifier of an application thread. Per the paper's §6, every
/// thread gets its **own set of agent processes** (and its own
/// framework state), avoiding cross-thread races on agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The application's main thread.
    pub const MAIN: ThreadId = ThreadId(0);
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

/// Partition-id namespace stride per thread: thread `t`'s instance of
/// partition `p` is `PartitionId(t * THREAD_STRIDE + p)`.
const THREAD_STRIDE: u32 = 1_000;

/// The default per-partition in-flight window: the knob table's seed
/// (also the adaptive controller's floor for sizing its pipeline knob).
pub(super) const DEFAULT_PIPELINE_WINDOW: usize = 4;

pub(super) fn thread_partition(thread: ThreadId, p: PartitionId) -> PartitionId {
    PartitionId(thread.0 * THREAD_STRIDE + p.0)
}

impl Runtime {
    /// Whether the runtime serves in pooled multi-tenant mode
    /// (`Policy::pooled`).
    pub fn pooled(&self) -> bool {
        self.pool.is_some()
    }

    /// Resolves the partition a thread's call actually routes to: in
    /// pooled mode every tenant shares the base `part0..part3` agent
    /// pools (no per-thread striping); otherwise each thread owns its
    /// striped agent set.
    pub(super) fn route_partition(&self, thread: ThreadId, base: PartitionId) -> PartitionId {
        if self.pooled() {
            base
        } else {
            thread_partition(thread, base)
        }
    }
}

/// Precomputed `ApiId → PartitionId` routing, shared by install-time
/// agent creation, per-thread agent spawning, and the per-call hot path.
/// Built once from the partition plan and the hybrid categorization so
/// no caller re-runs the full `plan.group` computation.
#[derive(Debug, Clone)]
struct RoutingTable {
    /// Canonical partition per catalog API.
    by_api: BTreeMap<ApiId, PartitionId>,
    /// API universe per partition (each agent's filter-building set).
    groups: BTreeMap<PartitionId, BTreeSet<ApiId>>,
    /// Every partition an agent set must cover (plan partitions plus
    /// any partition the grouping routed an API to), ascending.
    partitions: Vec<PartitionId>,
}

impl RoutingTable {
    fn build(reg: &ApiRegistry, report: &HybridReport, policy: &Policy) -> RoutingTable {
        let mut by_api = BTreeMap::new();
        let mut groups: BTreeMap<PartitionId, BTreeSet<ApiId>> = BTreeMap::new();
        for spec in reg.iter() {
            let p = policy.plan.partition_of(spec.id, report.type_of(spec.id));
            by_api.insert(spec.id, p);
            groups.entry(p).or_default().insert(spec.id);
        }
        let mut partitions: BTreeSet<PartitionId> = policy.plan.partitions().into_iter().collect();
        partitions.extend(groups.keys().copied());
        RoutingTable {
            by_api,
            groups,
            partitions: partitions.into_iter().collect(),
        }
    }
}

/// One isolated agent process.
#[derive(Debug)]
pub struct Agent {
    /// The partition this agent serves.
    pub partition: PartitionId,
    /// Its current process (changes across restarts).
    pub pid: Pid,
    /// Ring channel to the host.
    pub chan: ChannelId,
    /// RX code page — what a code-rewrite exploit tries to patch.
    pub code_page: Addr,
    /// APIs assigned to this agent (filter-building universe).
    pub apis: BTreeSet<ApiId>,
    /// True once the syscall filter is installed and locked.
    pub sealed: bool,
    /// Completed calls.
    pub calls: u64,
    cache: CompletionCache,
}

impl Agent {
    /// Completions still journalled (not yet pruned below the ack
    /// watermark).
    pub fn journal_len(&self) -> usize {
        self.cache.len()
    }

    /// Highest response sequence the host has acknowledged consuming;
    /// journal entries at or below it are pruned.
    pub fn journal_watermark(&self) -> u64 {
        self.cache.acked_watermark()
    }
}

/// Where a stateful object's payload lived when it was snapshotted,
/// with the write epoch observed there. Two equal `SnapshotPlace`s at
/// the same home pid prove the payload bytes unchanged (the bump
/// allocator never reuses addresses, segments never change identity),
/// which is what lets an incremental snapshot skip the copy.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SnapshotPlace {
    /// No byte payload (or nothing comparable) — always copied.
    None,
    /// Private buffer pages in the home agent.
    Buffer { addr: Addr, epoch: u64 },
    /// A kernel-owned shared-memory segment.
    Shm { seg: ShmId, epoch: u64 },
}

/// A snapshotted stateful object (for restart restoration, §A.2.4),
/// keyed by its id in the partition's snapshot table.
#[derive(Debug)]
struct SnapshotEntry {
    kind: ObjectKind,
    label: String,
    bytes: Vec<u8>,
    /// The pid the object was homed at when snapshotted.
    home: Pid,
    /// Payload location + write epoch at snapshot time.
    place: SnapshotPlace,
}

/// A pre-forked spare agent process, waiting to adopt a crashed
/// sibling's partition: pid + RX code page, nothing else (channel,
/// journal, and shm views are adopted from the crashed agent).
#[derive(Debug, Clone, Copy)]
struct Spare {
    pid: Pid,
    code_page: Addr,
}

/// Per-partition supervisor state: the token bucket of
/// [`RestartBudget`](crate::policy::RestartBudget) plus the sticky
/// degraded flag.
#[derive(Debug, Clone, Copy)]
struct RestartGovernor {
    tokens: u32,
    last_refill_ns: u64,
    /// Consecutive restarts without the bucket refilling to full —
    /// drives exponential backoff.
    streak: u32,
    /// Once true, the partition fails fast forever (no respawns).
    degraded: bool,
}

/// Errors surfaced by [`Runtime::call`].
#[derive(Debug, Clone, PartialEq)]
pub enum CallError {
    /// The API name is not in the registry.
    UnknownApi(String),
    /// The target agent is dead and restart is disabled.
    AgentUnavailable(PartitionId),
    /// The agent crashed (again) while executing this call.
    AgentCrashed(PartitionId),
    /// An argument object's payload died with a crashed process and
    /// could not be restored (§6 "Restoring States of Crashed Process").
    StateLost(ObjectId),
    /// Pooled mode: the calling tenant's namespace does not admit this
    /// object — a cross-tenant handle was denied at the tenant gate
    /// (and audited).
    TenantDenied {
        /// The tenant whose call was denied.
        tenant: u32,
        /// The foreign object it tried to reach.
        object: ObjectId,
    },
    /// Ordinary framework failure (bad args, missing file, parse error).
    Framework(FrameworkError),
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::UnknownApi(n) => write!(f, "unknown API {n}"),
            CallError::AgentUnavailable(p) => write!(f, "agent {p} is down"),
            CallError::AgentCrashed(p) => write!(f, "agent {p} crashed"),
            CallError::StateLost(id) => write!(f, "object {id} lost in a crash"),
            CallError::TenantDenied { tenant, object } => {
                write!(f, "tenant{tenant} denied access to foreign object {object}")
            }
            CallError::Framework(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CallError {}

/// Handle to an asynchronous hooked call ([`Runtime::call_async`]).
/// Redeem it with [`Runtime::wait`] (retires the call, consuming its
/// response) or peek with [`Runtime::promise`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallHandle(u64);

impl CallHandle {
    /// The sequence number of the underlying request.
    pub fn seq(self) -> u64 {
        self.0
    }
}

/// Aggregated runtime statistics for the evaluation tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Completed hooked API calls.
    pub rpc_calls: u64,
    /// Direct agent→agent payload moves (lazy copies).
    pub ldc_copies: u64,
    /// Through-host payload moves (eager / host-dereference copies).
    pub host_copies: u64,
    /// Agent restarts performed.
    pub restarts: u64,
    /// Framework-state transitions taken.
    pub transitions: u64,
    /// Objects currently under read-only protection.
    pub protected_objects: u64,
    /// Shared-memory grants issued (segment views created).
    pub shm_grants: u64,
    /// Shared-memory grants revoked by the temporal sweep at framework
    /// state transitions.
    pub shm_revokes: u64,
    /// Cumulative bytes delivered by page-mapping a segment instead of
    /// copying (the zero-copy counterpart of the copy counters).
    pub shm_mapped_bytes: u64,
    /// Pooled mode: cross-tenant object accesses denied (and audited)
    /// at the tenant gate.
    pub tenant_denials: u64,
}

/// The installed FreePart runtime for one application.
pub struct Runtime {
    /// The simulated OS everything runs on.
    pub kernel: Kernel,
    /// Live framework objects.
    pub objects: ObjectStore,
    reg: ApiRegistry,
    report: HybridReport,
    profile: SyscallProfile,
    policy: Policy,
    host: Pid,
    routes: RoutingTable,
    agents: BTreeMap<PartitionId, Agent>,
    /// Every temporal-protection decision: thread states, object
    /// owners and lock counts, and the segment index.
    temporal: TemporalPlane,
    seq: u64,
    /// One-shot fault injection: kill this partition's agent after its
    /// next successful execution but before the response is delivered.
    crash_before_response: Option<PartitionId>,
    /// Exploit actions observed inside agents (drained by the harness).
    pub exploit_log: Vec<ActionReport>,
    stats: RuntimeStats,
    tracer: Tracer,
    snapshots: BTreeMap<PartitionId, BTreeMap<ObjectId, SnapshotEntry>>,
    /// Objects pinned to a dedicated data process (code-based API+data
    /// baseline): shipped to users per call and returned afterwards.
    pinned: BTreeMap<ObjectId, Pid>,
    /// Submitted-but-unretired calls by sequence number.
    inflight: BTreeMap<u64, InFlight>,
    /// FIFO retirement order per partition (ring responses are ordered).
    inflight_by_partition: BTreeMap<PartitionId, VecDeque<u64>>,
    /// Retired outcomes by seq, kept for late `wait`/`promise`/dep
    /// lookups: `(outcome, completion ns)`.
    retired: IdTable<u64, (Result<Value, CallError>, u64)>,
    /// Object hazards: when the last call touching each object completed
    /// (agent timeline). A later consumer merges its agent's timeline to
    /// this instant — it waits for *that producer only*. Stamped only
    /// for objects the store holds, never for a call's raw argument ids.
    last_touch: IdTable<ObjectId, u64>,
    /// True once per-process virtual timelines drive the kernel clock.
    pipelining: bool,
    /// Per-partition knobs (shm threshold, batch window, pipeline
    /// window): seeded from the policy, edited only by the controller.
    knob_table: controller::KnobTable,
    /// The open call batch, if `Policy::batch_window` is set: consecutive
    /// same-partition calls whose request/response frames are coalesced
    /// into one IPC frame each at flush time.
    batch: Option<PendingBatch>,
    /// Pre-forked spare agents per partition (`Policy::warm_spares`).
    spares: BTreeMap<PartitionId, VecDeque<Spare>>,
    /// Per-partition restart-budget state (`Policy::restart_budget`).
    governors: BTreeMap<PartitionId, RestartGovernor>,
    /// One-shot fault injection: force the next snapshot restore for
    /// this partition to fail (exercises the quarantine path).
    fail_next_restore: Option<PartitionId>,
    /// The closed-loop adaptive policy controller
    /// (`Policy::adaptive`): edits `knob_table` at state-transition
    /// drain barriers. `None` = the seeded table stays as it is.
    controller: Option<controller::Controller>,
    /// Pooled mode (`Policy::pooled`): run queues, tickets and tenant
    /// processes. `None` = per-thread agent sets (the seed model).
    pool: Option<pool::Pool>,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("host", &self.host)
            .field("agents", &self.agents.len())
            .field("state", &self.state_of(ThreadId::MAIN))
            .finish()
    }
}

impl Runtime {
    /// Installs FreePart: runs the hybrid analysis on the full corpus,
    /// spawns host + agents, and wires the IPC channels.
    pub fn install(reg: ApiRegistry, policy: Policy) -> Runtime {
        let corpus = TestCorpus::full(&reg);
        let report = freepart_analysis::categorize(&reg, &corpus);
        let profile = SyscallProfile::build(&reg, &corpus);
        Runtime::install_with(reg, report, profile, policy)
    }

    /// Installs FreePart with precomputed analysis results.
    pub fn install_with(
        reg: ApiRegistry,
        report: HybridReport,
        profile: SyscallProfile,
        policy: Policy,
    ) -> Runtime {
        let mut kernel = Kernel::new();
        // The flight recorder must attach before the first mutation (the
        // commit log's genesis digest is the pristine kernel).
        if policy.record_commits {
            kernel.enable_commit_log();
        }
        let host = kernel.spawn("host");
        let temporal = TemporalPlane::new(policy.temporal_protection);
        // Route every catalog API to its partition once; install-time
        // agent creation, spawn_thread, and the call hot path all read
        // this table instead of recomputing the grouping.
        let routes = RoutingTable::build(&reg, &report, &policy);
        // The adaptive controller reads its estimates from the metrics
        // registry, so it force-enables tracing. Tracing only reads the
        // virtual clock (never charges time), so this changes no
        // deterministic result — the observability report asserts it.
        let controller = policy.adaptive.then(controller::Controller::default);
        let knob_table = controller::KnobTable::seeded(&policy);
        let pool = policy.pooled.map(pool::Pool::new);
        let mut tracer = Tracer::new();
        if controller.is_some() {
            tracer.enable();
        }
        let mut rt = Runtime {
            kernel,
            objects: ObjectStore::new(),
            reg,
            report,
            profile,
            policy,
            host,
            routes,
            agents: BTreeMap::new(),
            temporal,
            seq: 0,
            crash_before_response: None,
            exploit_log: Vec::new(),
            stats: RuntimeStats::default(),
            tracer,
            snapshots: BTreeMap::new(),
            pinned: BTreeMap::new(),
            inflight: BTreeMap::new(),
            inflight_by_partition: BTreeMap::new(),
            retired: IdTable::new(),
            last_touch: IdTable::new(),
            pipelining: false,
            knob_table,
            batch: None,
            spares: BTreeMap::new(),
            governors: BTreeMap::new(),
            fail_next_restore: None,
            controller,
            pool,
        };
        rt.spawn_agent_set(ThreadId::MAIN);
        rt
    }

    /// Spawns one agent per routed partition for `thread`, each with the
    /// routing table's API set for that partition.
    fn spawn_agent_set(&mut self, thread: ThreadId) {
        for p in self.routes.partitions.clone() {
            let apis = self.routes.groups.get(&p).cloned().unwrap_or_default();
            self.spawn_agent(thread_partition(thread, p), apis);
        }
    }

    fn spawn_agent(&mut self, partition: PartitionId, apis: BTreeSet<ApiId>) {
        let pid = self.kernel.spawn(&format!("agent:{partition}"));
        let code_page = self
            .kernel
            .alloc(pid, freepart_simos::PAGE_SIZE, Perms::RX)
            .expect("fresh agent allocates");
        let chan = self
            .kernel
            .create_channel(self.host, pid, 1 << 22)
            .expect("host and agent are alive");
        self.agents.insert(
            partition,
            Agent {
                partition,
                pid,
                chan,
                code_page,
                apis,
                sealed: false,
                calls: 0,
                cache: CompletionCache::new(64),
            },
        );
        for _ in 0..self.policy.warm_spares {
            self.prefork_spare(partition);
        }
    }

    /// Pre-forks one spare agent process for `partition`: pid + RX code
    /// page only. Everything else (channel, journal, shm views) is
    /// adopted from the crashed sibling at restart time.
    fn prefork_spare(&mut self, partition: PartitionId) {
        let pid = self.kernel.spawn(&format!("agent:{partition}~"));
        let code_page = self
            .kernel
            .alloc(pid, freepart_simos::PAGE_SIZE, Perms::RX)
            .expect("fresh spare allocates");
        self.spares
            .entry(partition)
            .or_default()
            .push_back(Spare { pid, code_page });
    }

    /// Tops every partition's spare pool back up to
    /// `Policy::warm_spares`. Restarts deliberately do *not* auto-refill
    /// (the spawn cost would land inside the restart they are meant to
    /// make cheap); call this off the critical path.
    pub fn refill_spares(&mut self) {
        let target = self.policy.warm_spares as usize;
        let partitions: Vec<PartitionId> = self.agents.keys().copied().collect();
        for p in partitions {
            while self.spares.get(&p).map_or(0, VecDeque::len) < target {
                self.prefork_spare(p);
            }
        }
    }

    /// Spare agents currently pooled for `partition`.
    pub fn spare_count(&self, partition: PartitionId) -> usize {
        self.spares.get(&partition).map_or(0, VecDeque::len)
    }

    /// True when the supervisor degraded `partition` to fail-fast
    /// (restart budget exhausted, or an unsealable respawn).
    pub fn is_degraded(&self, partition: PartitionId) -> bool {
        self.governors.get(&partition).is_some_and(|g| g.degraded)
    }

    /// Partitions the supervisor has degraded, in id order.
    pub fn degraded_partitions(&self) -> Vec<PartitionId> {
        self.governors
            .iter()
            .filter(|(_, g)| g.degraded)
            .map(|(p, _)| *p)
            .collect()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The API registry in force.
    pub fn registry(&self) -> &ApiRegistry {
        &self.reg
    }

    /// The hybrid categorization in force.
    pub fn report(&self) -> &HybridReport {
        &self.report
    }

    /// The host process id.
    pub fn host_pid(&self) -> Pid {
        self.host
    }

    /// The current framework state of the main thread.
    pub fn current_state(&self) -> FrameworkState {
        self.state_of(ThreadId::MAIN)
    }

    /// The main thread's Fig. 3 state timeline:
    /// `(virtual ns, state entered, objects newly locked)`.
    pub fn state_timeline(&self) -> Vec<(u64, FrameworkState, usize)> {
        self.temporal.timeline(ThreadId::MAIN).to_vec()
    }

    /// The current framework state of one thread.
    pub fn state_of(&self, thread: ThreadId) -> FrameworkState {
        self.temporal.state_of(thread)
    }

    /// Spawns a fresh set of agent processes (one per partition) for a
    /// new application thread, with its own framework state —
    /// the paper's multi-threading model (§6). Returns the thread id to
    /// pass to [`Runtime::call_on`].
    pub fn spawn_thread(&mut self) -> ThreadId {
        let thread = self.temporal.add_thread();
        self.spawn_agent_set(thread);
        thread
    }

    /// The agent serving a partition, if any.
    pub fn agent(&self, partition: PartitionId) -> Option<&Agent> {
        self.agents.get(&partition)
    }

    /// All partitions with live agent records.
    pub fn partitions(&self) -> Vec<PartitionId> {
        self.agents.keys().copied().collect()
    }

    /// The partition an API is routed to in the *canonical* (non-neutral)
    /// case — a routing-table lookup, not a plan recomputation.
    pub fn partition_of(&self, api: ApiId) -> PartitionId {
        self.routes
            .by_api
            .get(&api)
            .copied()
            .unwrap_or_else(|| self.policy.plan.partition_of(api, self.report.type_of(api)))
    }

    /// Runtime statistics. Transition counts sum over threads;
    /// `protected_objects` is a true gauge — the number of *distinct*
    /// objects currently locked, however many threads track them. The
    /// shared-memory counters mirror the kernel's (the runtime is the
    /// only grant issuer).
    pub fn stats(&self) -> RuntimeStats {
        let m = self.kernel.metrics();
        RuntimeStats {
            transitions: self.temporal.transitions(),
            protected_objects: self.temporal.locked_objects(),
            shm_grants: m.shm_grants,
            shm_revokes: m.shm_revokes,
            shm_mapped_bytes: m.shm_mapped_bytes,
            ..self.stats
        }
    }

    /// Whether any thread holds a temporal lock on a given object.
    pub fn is_protected(&self, id: ObjectId) -> bool {
        self.temporal.locks(id) > 0
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Turns span tracing, the per-partition metrics registry, and the
    /// security audit log on. Tracing only *reads* the virtual clock —
    /// it never charges time — so enabling it cannot change any
    /// deterministic benchmark result.
    pub fn enable_tracing(&mut self) {
        self.tracer.enable();
    }

    /// The tracer: spans, marks, audit log, and the per-partition /
    /// per-API metrics registry.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Records a driver-level instant mark (pipeline milestones such as
    /// "sample 3" or "frame 7") at the current virtual time.
    pub fn trace_mark(&mut self, label: &str) {
        self.trace_mark_on(ThreadId::MAIN, label);
    }

    /// Records an instant mark attributed to a specific application
    /// thread (pipelined drivers mark per-stage milestones).
    pub fn trace_mark_on(&mut self, thread: ThreadId, label: &str) {
        if self.tracer.enabled() {
            let now = self.kernel.now_ns();
            self.tracer.mark(now, thread, label);
        }
    }

    /// Exports the recorded trace as a complete Chrome `trace_event`
    /// JSON object (`{"traceEvents": [...]}`) loadable in
    /// `about:tracing` or Perfetto. Every live partition appears as its
    /// own process row, named by the API types its agent serves; host
    /// activity is process 0.
    pub fn export_chrome_trace(&self) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":{}}}",
            self.tracer
                .chrome_trace_events(&self.reg, &self.partition_labels())
        )
    }

    /// Display labels for every live partition: the partition id plus
    /// the API types its agent serves.
    pub fn partition_labels(&self) -> Vec<(PartitionId, String)> {
        self.agents
            .iter()
            .map(|(p, agent)| {
                let mut types: BTreeSet<String> = agent
                    .apis
                    .iter()
                    .map(|a| self.reg.spec(*a).declared_type.to_string())
                    .collect();
                if types.is_empty() {
                    types.insert("idle".to_owned());
                }
                let label = format!("{p} ({})", types.into_iter().collect::<Vec<_>>().join("+"));
                (*p, label)
            })
            .collect()
    }
}
