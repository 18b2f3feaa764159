//! End-to-end tracing and per-partition telemetry for the hooked-call
//! pipeline.
//!
//! The evaluation (Fig. 13, Tables 9/12) and the security story both
//! hinge on knowing *where* time and bytes go: host→agent marshalling,
//! LDC deferred copies, `mprotect` storms on state transitions. This
//! module provides a **zero-cost-when-disabled** observability layer:
//!
//! * **Spans** ([`SpanEvent`]) for every stage of a hooked call's
//!   lifecycle — hook entry → state transition → marshal → execute →
//!   journal → response — plus LDC resolution, re-protection, replay and
//!   restart paths, all timestamped by the `simos` virtual clock.
//! * **A per-partition / per-API metrics registry** ([`ApiStats`]):
//!   call counts, virtual-ns latency histograms with fixed log2 buckets,
//!   bytes moved lazily vs eagerly, journal hits, faults, filter kills.
//! * **A security audit log** ([`AuditRecord`]): every framework-state
//!   transition with the page-protection delta it applied, and every
//!   denied access with the object, state, and partition involved.
//! * **A Chrome `trace_event` exporter** loadable in `about:tracing`
//!   or [Perfetto](https://ui.perfetto.dev).
//!
//! Tracing never charges virtual time — it only *reads* the clock — so
//! enabling it cannot perturb the deterministic benchmark numbers, and
//! when disabled every instrumentation site is a single branch.

use crate::partition::PartitionId;
use crate::runtime::ThreadId;
use crate::state::FrameworkState;
use freepart_frameworks::api::{ApiId, ApiRegistry};
use freepart_frameworks::ObjectId;
use freepart_simos::{Pid, ShmId};
use std::collections::BTreeMap;
use std::fmt;

// ----------------------------------------------------------------------
// Span events
// ----------------------------------------------------------------------

/// One stage of the hooked-call lifecycle (or an out-of-call runtime
/// activity) covered by a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// The whole hooked call, hook entry to return (parent span).
    Call,
    /// Framework-state transition, including its `mprotect` sweep.
    Transition,
    /// Request marshal: frame encode, host→agent send, agent dispatch.
    Marshal,
    /// Data-plane payload movement into the executing agent (LDC
    /// deferred-copy resolution or eager through-host hops).
    DataCopy,
    /// Temporal protection re-applied after a payload migration.
    Reprotect,
    /// API body executing in the agent's process context.
    Execute,
    /// Completion journalled agent-side (exactly-once bookkeeping).
    Journal,
    /// Response frame agent→host and host-side unmarshal.
    Response,
    /// Duplicate delivery answered from the completion journal.
    Replay,
    /// Agent respawn after a crash.
    Restart,
    /// Host dereference of a remote payload (`fetch_bytes`).
    HostFetch,
    /// Shared-memory delivery: segment grant + page-table map (no
    /// payload bytes copied).
    ShmMap,
    /// A batched IPC frame: one span enclosing its member `call` spans,
    /// first member's hook entry to the batch's retirement. `bytes`
    /// carries the member-call count, not a byte size.
    Batch,
}

/// Aggregation bucket a leaf span contributes to — the four components
/// the overhead decomposition reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// RPC framing: marshal, response, replay, journal bookkeeping.
    Marshal,
    /// Payload bytes crossing address spaces.
    Copy,
    /// Page-protection changes (transitions + re-protection).
    Mprotect,
    /// The API body's own work inside the agent.
    Compute,
    /// Everything else attributable but not a component (restarts).
    Other,
}

impl SpanPhase {
    /// Stable lowercase name (Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Call => "call",
            SpanPhase::Transition => "transition",
            SpanPhase::Marshal => "marshal",
            SpanPhase::DataCopy => "data_copy",
            SpanPhase::Reprotect => "reprotect",
            SpanPhase::Execute => "execute",
            SpanPhase::Journal => "journal",
            SpanPhase::Response => "response",
            SpanPhase::Replay => "replay",
            SpanPhase::Restart => "restart",
            SpanPhase::HostFetch => "host_fetch",
            SpanPhase::ShmMap => "shm_map",
            SpanPhase::Batch => "batch",
        }
    }

    /// The aggregation bucket, or `None` for parent spans ([`Call`][
    /// SpanPhase::Call] nests the leaves; counting it would double-book).
    pub fn bucket(self) -> Option<Bucket> {
        match self {
            SpanPhase::Call | SpanPhase::Batch => None,
            SpanPhase::Marshal | SpanPhase::Journal | SpanPhase::Response | SpanPhase::Replay => {
                Some(Bucket::Marshal)
            }
            SpanPhase::DataCopy | SpanPhase::HostFetch => Some(Bucket::Copy),
            SpanPhase::Transition | SpanPhase::Reprotect | SpanPhase::ShmMap => {
                Some(Bucket::Mprotect)
            }
            SpanPhase::Execute => Some(Bucket::Compute),
            SpanPhase::Restart => Some(Bucket::Other),
        }
    }
}

impl fmt::Display for SpanPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an open call batch was flushed into an IPC frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlushReason {
    /// The next call routed to a different partition.
    PartitionSwitch,
    /// The host dereferenced a pending result (`wait`) or an object an
    /// in-flight member produced/touched.
    Hazard,
    /// A framework-state transition's drain barrier.
    Transition,
    /// The batch reached `Policy::batch_window` members.
    WindowFull,
}

impl FlushReason {
    /// Stable lowercase-kebab name (Chrome instant / report key).
    pub fn name(self) -> &'static str {
        match self {
            FlushReason::PartitionSwitch => "partition-switch",
            FlushReason::Hazard => "hazard",
            FlushReason::Transition => "transition",
            FlushReason::WindowFull => "window-full",
        }
    }
}

impl fmt::Display for FlushReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured span: a lifecycle stage with virtual-clock bounds,
/// keyed by sequence number, API, partition, and thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Lifecycle stage.
    pub phase: SpanPhase,
    /// Logical-call sequence number (0 for out-of-call activity).
    pub seq: u64,
    /// The API being called, when in a call context.
    pub api: Option<ApiId>,
    /// The partition involved (agent-side stages).
    pub partition: Option<PartitionId>,
    /// The application thread driving the call.
    pub thread: ThreadId,
    /// Virtual-clock timestamp at span start (ns).
    pub start_ns: u64,
    /// Virtual-clock timestamp at span end (ns).
    pub end_ns: u64,
    /// Payload bytes involved (frames for marshal/response, object
    /// payloads for copies; 0 otherwise).
    pub bytes: u64,
}

impl SpanEvent {
    /// Span duration in virtual nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

// ----------------------------------------------------------------------
// Histogram
// ----------------------------------------------------------------------

/// Number of log2 buckets: bucket 0 holds zeros, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, the last bucket is open-ended. 40
/// buckets cover up to ~9 virtual minutes at nanosecond resolution.
pub const HIST_BUCKETS: usize = 40;

/// Fixed-size log2-bucketed histogram of virtual-ns durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// Bucket index for a value: 0 for zero, otherwise
    /// `floor(log2(v)) + 1`, capped at the last bucket.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Upper bound (exclusive) of bucket `i` — `u64::MAX` for the last.
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the `q`-th observation, clamped into
    /// `[min, max]`. Edge cases are explicit, not loop fall-through:
    /// an empty histogram returns 0, `q <= 0` returns the smallest
    /// observation, `q >= 1` (and NaN) returns the largest.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q.is_nan() || q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.min = match (self.count, other.count) {
            (_, 0) => self.min,
            (0, _) => other.min,
            _ => self.min.min(other.min),
        };
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

// ----------------------------------------------------------------------
// Per-partition / per-API metrics registry
// ----------------------------------------------------------------------

/// Telemetry for one `(partition, API)` pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApiStats {
    /// Completed hooked calls.
    pub calls: u64,
    /// Per-call virtual-ns latency histogram.
    pub latency: Log2Histogram,
    /// Payload bytes moved by direct agent→agent LDC copies.
    pub bytes_lazy: u64,
    /// Payload bytes moved eagerly through the host.
    pub bytes_eager: u64,
    /// Payload bytes delivered zero-copy over shm segments (no byte is
    /// moved — this is the mapped length, so payload-size estimators
    /// keep seeing an object's traffic after shm promotion).
    pub bytes_shm: u64,
    /// Duplicate deliveries answered from the completion journal.
    pub journal_hits: u64,
    /// Calls that ended in an agent crash (memory fault / abort).
    pub faults: u64,
    /// Calls that ended with the syscall filter killing the agent.
    pub filter_kills: u64,
}

impl ApiStats {
    /// Merges another stats cell into this one (partition rollups).
    pub fn merge(&mut self, other: &ApiStats) {
        self.calls += other.calls;
        self.latency.merge(&other.latency);
        self.bytes_lazy += other.bytes_lazy;
        self.bytes_eager += other.bytes_eager;
        self.bytes_shm += other.bytes_shm;
        self.journal_hits += other.journal_hits;
        self.faults += other.faults;
        self.filter_kills += other.filter_kills;
    }
}

/// Totals of leaf-span durations per aggregation bucket — the
/// marshal / copy / mprotect / compute decomposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketTotals {
    /// RPC framing and journal bookkeeping (virtual ns).
    pub marshal_ns: u64,
    /// Payload movement across address spaces (virtual ns).
    pub copy_ns: u64,
    /// Page-protection changes (virtual ns).
    pub mprotect_ns: u64,
    /// API bodies executing in agents (virtual ns).
    pub compute_ns: u64,
    /// Other attributable activity, e.g. restarts (virtual ns).
    pub other_ns: u64,
}

impl BucketTotals {
    /// Sum of every traced leaf span.
    pub fn traced_ns(&self) -> u64 {
        self.marshal_ns + self.copy_ns + self.mprotect_ns + self.compute_ns + self.other_ns
    }
}

// ----------------------------------------------------------------------
// Security audit log
// ----------------------------------------------------------------------

/// One security-relevant runtime event, with enough context to explain
/// *why* it happened — the per-boundary visibility aggregate counters
/// cannot give.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditRecord {
    /// A framework-state transition and the page-protection delta it
    /// applied (locks on the state being left, unlocks on re-entry).
    StateTransition {
        /// Virtual time of the transition.
        at_ns: u64,
        /// The thread whose framework state moved.
        thread: ThreadId,
        /// The logical call that triggered it.
        seq: u64,
        /// State left.
        from: FrameworkState,
        /// State entered.
        to: FrameworkState,
        /// Objects newly locked read-only.
        objects_locked: usize,
        /// Objects unlocked on state re-entry.
        objects_unlocked: usize,
        /// `mprotect` page transitions applied (the `protected_pages`
        /// kernel-counter delta across this transition).
        pages: u64,
        /// Commit-log index range `[start, end)` of the kernel
        /// transitions this one's mprotect storm and temporal-grant
        /// sweep produced — the join from this record into the flight
        /// recorder. `None` when the recorder was off or the range is
        /// empty.
        commits: Option<(u64, u64)>,
    },
    /// Temporal protection re-applied to a migrated object.
    Reprotect {
        /// Virtual time.
        at_ns: u64,
        /// The object re-locked.
        object: ObjectId,
        /// `mprotect` page transitions applied.
        pages: u64,
    },
    /// A memory access denied by page permissions (or an abort) killed
    /// an agent mid-call.
    AccessDenied {
        /// Virtual time.
        at_ns: u64,
        /// The partition whose agent died.
        partition: PartitionId,
        /// The API executing when the access fired.
        api: ApiId,
        /// The framework state at the time.
        state: FrameworkState,
        /// The protected object hit, when the address resolves to one.
        object: Option<ObjectId>,
        /// The faulting address, when memory-related.
        addr: Option<u64>,
        /// Fault classification (`Protection`, `Unmapped`, `Abort`).
        fault: String,
    },
    /// A shared-memory grant was issued: `pid` gained a page-mapped view
    /// of an object's segment (zero-copy delivery or segment creation).
    ShmGrant {
        /// Virtual time.
        at_ns: u64,
        /// The object whose payload the segment holds.
        object: ObjectId,
        /// The segment granted.
        segment: ShmId,
        /// The process receiving the view.
        pid: Pid,
        /// Segment length in bytes (what the grant exposes).
        bytes: u64,
    },
    /// A shared-memory grant was torn down by the temporal-permission
    /// sweep at a framework-state transition (or on object teardown):
    /// `pid` can no longer touch the segment; a stale access now faults.
    ShmRevoke {
        /// Virtual time.
        at_ns: u64,
        /// The object whose payload the segment holds.
        object: ObjectId,
        /// The segment revoked.
        segment: ShmId,
        /// The process losing its view.
        pid: Pid,
        /// The logical call whose state transition triggered the sweep.
        seq: u64,
    },
    /// The seccomp-style filter killed an agent.
    FilterKill {
        /// Virtual time.
        at_ns: u64,
        /// The partition whose agent died.
        partition: PartitionId,
        /// The API executing when the syscall fired.
        api: ApiId,
        /// The framework state at the time.
        state: FrameworkState,
        /// The denied syscall.
        syscall: String,
    },
    /// The supervisor's restart budget ran dry: the partition was
    /// degraded to fail-fast errors instead of respawned — the audited
    /// detection of a DoS-by-restart loop.
    RestartDenied {
        /// Virtual time.
        at_ns: u64,
        /// The partition degraded.
        partition: PartitionId,
        /// Restarts this partition had consumed before denial.
        restarts: u64,
        /// The token-bucket burst size that was exhausted.
        burst: u32,
    },
    /// `install_filter` failed while sealing a respawned agent. The
    /// partition is degraded rather than left running unsandboxed.
    SealFailed {
        /// Virtual time.
        at_ns: u64,
        /// The partition that could not be sealed.
        partition: PartitionId,
        /// The agent pid the filter was rejected for.
        pid: Pid,
        /// The kernel error, stringified.
        error: String,
    },
    /// A snapshot restore failed (allocation or write error in the fresh
    /// agent); the object was quarantined instead of left pointing at
    /// the reaped pid.
    SnapshotLost {
        /// Virtual time.
        at_ns: u64,
        /// The partition being restored.
        partition: PartitionId,
        /// The object dropped.
        object: ObjectId,
        /// Why the restore failed, stringified.
        reason: String,
    },
    /// Pooled mode's tenant gate refused a call that named another
    /// tenant's object — the cross-tenant isolation boundary of the
    /// shared-agent deployment, denied before any payload moved.
    CrossTenantDenied {
        /// Virtual time.
        at_ns: u64,
        /// The tenant whose call was refused.
        tenant: u32,
        /// The pool partition the call was bound for.
        partition: PartitionId,
        /// The foreign object the call named.
        object: ObjectId,
        /// The tenant that owns the object.
        owner: u32,
    },
}

impl AuditRecord {
    /// The `mprotect` page delta this record accounts for (0 for
    /// denial records).
    pub fn pages(&self) -> u64 {
        match self {
            AuditRecord::StateTransition { pages, .. } | AuditRecord::Reprotect { pages, .. } => {
                *pages
            }
            _ => 0,
        }
    }
}

// ----------------------------------------------------------------------
// Adaptive-controller decisions
// ----------------------------------------------------------------------

/// One knob decision taken by the adaptive policy controller at a
/// state-transition drain barrier, with the integer estimates that fed
/// it. Every decision point emits one record per partition considered —
/// `changed` distinguishes re-confirmations from actual knob moves — so
/// the trace fully explains *why* each configuration was picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyDecision {
    /// Virtual time of the decision point.
    pub at_ns: u64,
    /// The logical call whose state transition opened the barrier.
    pub seq: u64,
    /// The partition whose knobs this decision governs.
    pub partition: PartitionId,
    /// Whether the partition has an shm threshold after the decision
    /// (the controller promoted it to the shm transport).
    pub shm_promoted: bool,
    /// The partition's batch window after the decision (`None` =
    /// batching off, one frame per call).
    pub batch_window: Option<usize>,
    /// The partition's pipeline (in-flight) window after the decision.
    pub pipeline_window: usize,
    /// EWMA payload bytes per retired call (lazy + eager + shm).
    pub est_bytes_per_call: u64,
    /// EWMA calls per flushed batch, in 1/16ths (fixed-point ×16).
    pub est_calls_per_batch_x16: u64,
    /// Whether any knob actually moved at this decision point.
    pub changed: bool,
}

// ----------------------------------------------------------------------
// The tracer
// ----------------------------------------------------------------------

/// How one logical call ended, for registry accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallOutcome {
    /// Executed to completion in the agent.
    Completed,
    /// Answered from the completion journal without re-execution.
    Replayed,
    /// The agent crashed on a memory fault or abort.
    Faulted,
    /// The agent was killed by its syscall filter.
    FilterKilled,
    /// Ordinary framework error (bad args, parse failure).
    Errored,
}

/// Per-call byte accumulation, created at hook entry and folded into
/// the registry when the call retires. Keyed by seq so multiple calls
/// can be in flight at once under pipelined execution.
#[derive(Debug, Clone, Copy, Default)]
struct PendingCall {
    bytes_lazy: u64,
    bytes_eager: u64,
    bytes_shm: u64,
    journal_hit: bool,
    filter_kill: bool,
}

/// The observability sink owned by the runtime. Disabled by default;
/// every recording method is a no-op (one branch) until
/// [`Tracer::enable`] is called.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    events: Vec<SpanEvent>,
    marks: Vec<(u64, ThreadId, String)>,
    audit: Vec<AuditRecord>,
    stats: BTreeMap<(PartitionId, ApiId), ApiStats>,
    pending: BTreeMap<u64, PendingCall>,
    /// Batch flushes: `(virtual ns, thread, reason, member calls)`.
    flushes: Vec<(u64, ThreadId, FlushReason, usize)>,
    /// Adaptive-controller decisions, in decision-point order.
    decisions: Vec<PolicyDecision>,
}

impl Tracer {
    /// A disabled tracer (the runtime default).
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Recorded spans, in emission order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Driver marks: `(virtual ns, thread, label)` instants.
    pub fn marks(&self) -> &[(u64, ThreadId, String)] {
        &self.marks
    }

    /// The security audit log, in event order.
    pub fn audit_log(&self) -> &[AuditRecord] {
        &self.audit
    }

    /// Audit records from index `idx` on — incremental consumption for
    /// pollers (each poll resumes at the previous `audit_log().len()`,
    /// so a consumer sees every record exactly once).
    pub fn audit_since(&self, idx: usize) -> &[AuditRecord] {
        &self.audit[idx.min(self.audit.len())..]
    }

    /// Spans from index `idx` on — the incremental counterpart of
    /// [`Tracer::events`].
    pub fn events_since(&self, idx: usize) -> &[SpanEvent] {
        &self.events[idx.min(self.events.len())..]
    }

    /// Batch flushes recorded so far: `(virtual ns, thread, reason,
    /// member calls)` per flushed frame.
    pub fn batch_flushes(&self) -> &[(u64, ThreadId, FlushReason, usize)] {
        &self.flushes
    }

    /// Records one batch flush (no-op when disabled).
    pub fn note_batch_flush(
        &mut self,
        at_ns: u64,
        thread: ThreadId,
        reason: FlushReason,
        calls: usize,
    ) {
        if self.enabled {
            self.flushes.push((at_ns, thread, reason, calls));
        }
    }

    /// Adaptive-controller decisions recorded so far, in decision-point
    /// order.
    pub fn policy_decisions(&self) -> &[PolicyDecision] {
        &self.decisions
    }

    /// Records one adaptive-controller decision (no-op when disabled —
    /// though the runtime force-enables tracing whenever the controller
    /// is on, since the controller reads its estimates from here).
    pub fn record_decision(&mut self, decision: PolicyDecision) {
        if self.enabled {
            self.decisions.push(decision);
        }
    }

    /// The per-`(partition, API)` metrics registry.
    pub fn stats(&self) -> &BTreeMap<(PartitionId, ApiId), ApiStats> {
        &self.stats
    }

    /// Per-partition rollup of the registry.
    pub fn partition_rollup(&self) -> BTreeMap<PartitionId, ApiStats> {
        let mut out: BTreeMap<PartitionId, ApiStats> = BTreeMap::new();
        for ((p, _), s) in &self.stats {
            out.entry(*p).or_default().merge(s);
        }
        out
    }

    /// Sums every leaf span into the four-component decomposition.
    pub fn bucket_totals(&self) -> BucketTotals {
        let mut t = BucketTotals::default();
        for e in &self.events {
            let d = e.duration_ns();
            match e.phase.bucket() {
                Some(Bucket::Marshal) => t.marshal_ns += d,
                Some(Bucket::Copy) => t.copy_ns += d,
                Some(Bucket::Mprotect) => t.mprotect_ns += d,
                Some(Bucket::Compute) => t.compute_ns += d,
                Some(Bucket::Other) => t.other_ns += d,
                None => {}
            }
        }
        t
    }

    /// Records a span (no-op when disabled).
    pub fn span(&mut self, event: SpanEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Records a driver mark at the given virtual time.
    pub fn mark(&mut self, at_ns: u64, thread: ThreadId, label: &str) {
        if self.enabled {
            self.marks.push((at_ns, thread, label.to_owned()));
        }
    }

    /// Appends an audit record (no-op when disabled).
    pub fn record_audit(&mut self, record: AuditRecord) {
        if self.enabled {
            self.audit.push(record);
        }
    }

    /// Opens per-call byte accumulation for `seq` (hook entry).
    pub fn begin_call(&mut self, seq: u64) {
        if self.enabled {
            self.pending.insert(seq, PendingCall::default());
        }
    }

    /// Attributes lazily-moved payload bytes to call `seq`.
    pub fn add_lazy_bytes(&mut self, seq: u64, bytes: u64) {
        if self.enabled {
            self.pending.entry(seq).or_default().bytes_lazy += bytes;
        }
    }

    /// Attributes eagerly-moved payload bytes to call `seq`.
    pub fn add_eager_bytes(&mut self, seq: u64, bytes: u64) {
        if self.enabled {
            self.pending.entry(seq).or_default().bytes_eager += bytes;
        }
    }

    /// Attributes zero-copy shm-delivered payload bytes to call `seq`
    /// (the mapped segment length — nothing was copied).
    pub fn add_shm_bytes(&mut self, seq: u64, bytes: u64) {
        if self.enabled {
            self.pending.entry(seq).or_default().bytes_shm += bytes;
        }
    }

    /// Flags call `seq` as answered from the journal.
    pub fn note_journal_hit(&mut self, seq: u64) {
        if self.enabled {
            self.pending.entry(seq).or_default().journal_hit = true;
        }
    }

    /// Flags call `seq` as ended by a syscall-filter kill (refines a
    /// [`CallOutcome::Faulted`] at fold time).
    pub fn note_filter_kill(&mut self, seq: u64) {
        if self.enabled {
            self.pending.entry(seq).or_default().filter_kill = true;
        }
    }

    /// Folds the finished call `seq` into the registry.
    pub fn finish_call(
        &mut self,
        seq: u64,
        partition: PartitionId,
        api: ApiId,
        duration_ns: u64,
        outcome: CallOutcome,
    ) {
        if !self.enabled {
            return;
        }
        let pending = self.pending.remove(&seq).unwrap_or_default();
        let cell = self.stats.entry((partition, api)).or_default();
        cell.bytes_lazy += pending.bytes_lazy;
        cell.bytes_eager += pending.bytes_eager;
        cell.bytes_shm += pending.bytes_shm;
        if pending.journal_hit {
            cell.journal_hits += 1;
        }
        let outcome = if pending.filter_kill && outcome == CallOutcome::Faulted {
            CallOutcome::FilterKilled
        } else {
            outcome
        };
        match outcome {
            CallOutcome::Completed | CallOutcome::Replayed => {
                cell.calls += 1;
                cell.latency.record(duration_ns);
            }
            CallOutcome::Faulted => cell.faults += 1,
            CallOutcome::FilterKilled => cell.filter_kills += 1,
            CallOutcome::Errored => {}
        }
    }

    // ------------------------------------------------------------------
    // Chrome trace_event export
    // ------------------------------------------------------------------

    /// Serializes spans, marks, and partition names as a Chrome
    /// `trace_event` JSON **array** (the `traceEvents` value). `pids`
    /// maps each partition to a display pid and name; host activity
    /// (spans with no partition) lands on pid 0.
    pub fn chrome_trace_events(
        &self,
        reg: &ApiRegistry,
        partitions: &[(PartitionId, String)],
    ) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        let push = |s: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str("  ");
            out.push_str(&s);
        };
        // Process-name metadata: host plus every partition.
        push(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"host\"}}".to_owned(),
            &mut out,
            &mut first,
        );
        let mut pid_of: BTreeMap<PartitionId, u64> = BTreeMap::new();
        for (p, name) in partitions {
            let pid = u64::from(p.0) + 1;
            pid_of.insert(*p, pid);
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                    json_escape(name)
                ),
                &mut out,
                &mut first,
            );
        }
        // Thread-name metadata: one row per (process, application
        // thread) pair that actually emitted events, so per-thread
        // agent sets render as distinct Perfetto rows.
        let mut tids: std::collections::BTreeSet<(u64, u32)> = std::collections::BTreeSet::new();
        for e in &self.events {
            let pid = e
                .partition
                .and_then(|p| pid_of.get(&p).copied())
                .unwrap_or(0);
            tids.insert((pid, e.thread.0));
        }
        for (_, thread, _) in &self.marks {
            tids.insert((0, thread.0));
        }
        for (pid, tid) in &tids {
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"thread{tid}\"}}}}"
                ),
                &mut out,
                &mut first,
            );
        }
        for e in &self.events {
            let pid = e
                .partition
                .and_then(|p| pid_of.get(&p).copied())
                .unwrap_or(0);
            let name = match (e.phase, e.api) {
                (SpanPhase::Call, Some(api)) => reg.spec(api).name.to_owned(),
                (phase, _) => phase.name().to_owned(),
            };
            let api_name = e
                .api
                .map(|a| reg.spec(a).name.to_owned())
                .unwrap_or_default();
            // Batch spans carry the member-call count, not a byte size.
            let tail = if e.phase == SpanPhase::Batch {
                format!("\"calls\":{}", e.bytes)
            } else {
                format!("\"bytes\":{}", e.bytes)
            };
            push(
                format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"seq\":{},\"api\":\"{}\",{tail}}}}}",
                    json_escape(&name),
                    e.phase.name(),
                    e.thread.0,
                    e.start_ns as f64 / 1e3,
                    e.duration_ns() as f64 / 1e3,
                    e.seq,
                    json_escape(&api_name),
                ),
                &mut out,
                &mut first,
            );
        }
        for (at_ns, thread, label) in &self.marks {
            push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"mark\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"s\":\"t\"}}",
                    json_escape(label),
                    thread.0,
                    *at_ns as f64 / 1e3
                ),
                &mut out,
                &mut first,
            );
        }
        // Batch flushes as per-thread instant events: why each frame
        // went out and how many calls it amortized.
        for (at_ns, thread, reason, calls) in &self.flushes {
            push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"flush:{} ({calls} calls)\",\"cat\":\"batch\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"s\":\"t\"}}",
                    reason.name(),
                    thread.0,
                    *at_ns as f64 / 1e3
                ),
                &mut out,
                &mut first,
            );
        }
        // Adaptive-controller decisions as instant events on the
        // governed partition's process row, carrying the knob outcome
        // and the estimates that decide it — the trace explains each
        // configuration move.
        for d in &self.decisions {
            let pid = pid_of.get(&d.partition).copied().unwrap_or(0);
            let window = match d.batch_window {
                Some(w) => w.to_string(),
                None => "off".to_owned(),
            };
            let shm = if d.shm_promoted { "on" } else { "off" };
            let verb = if d.changed { "decide" } else { "hold" };
            push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"policy:{verb} shm={shm} batch={window} pipeline={}\",\
                     \"cat\":\"policy\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"s\":\"p\",\
                     \"args\":{{\"seq\":{},\"bytes_per_call\":{},\
                     \"calls_per_batch_x16\":{}}}}}",
                    d.pipeline_window,
                    d.at_ns as f64 / 1e3,
                    d.seq,
                    d.est_bytes_per_call,
                    d.est_calls_per_batch_x16,
                ),
                &mut out,
                &mut first,
            );
        }
        // Shared-memory grant lifecycle and supervisor actions as global
        // instant events, so the temporal-permission sweeps and the
        // crash-storm responses (denied restarts, failed seals, lost
        // snapshots) line up visually with transitions.
        for rec in &self.audit {
            let (name, cat, at_ns) = match rec {
                AuditRecord::ShmGrant {
                    at_ns,
                    object,
                    segment,
                    pid,
                    ..
                } => (
                    format!("shm_grant {segment} {object} -> pid{pid}"),
                    "shm",
                    *at_ns,
                ),
                AuditRecord::ShmRevoke {
                    at_ns,
                    object,
                    segment,
                    pid,
                    ..
                } => (
                    format!("shm_revoke {segment} {object} -x pid{pid}"),
                    "shm",
                    *at_ns,
                ),
                AuditRecord::RestartDenied {
                    at_ns,
                    partition,
                    restarts,
                    burst,
                } => (
                    format!("restart_denied {partition} after {restarts} restarts (burst {burst})"),
                    "supervisor",
                    *at_ns,
                ),
                AuditRecord::SealFailed {
                    at_ns,
                    partition,
                    pid,
                    ..
                } => (
                    format!("seal_failed {partition} pid{pid}"),
                    "supervisor",
                    *at_ns,
                ),
                AuditRecord::SnapshotLost {
                    at_ns,
                    partition,
                    object,
                    ..
                } => (
                    format!("snapshot_lost {partition} {object}"),
                    "supervisor",
                    *at_ns,
                ),
                AuditRecord::CrossTenantDenied {
                    at_ns,
                    tenant,
                    partition,
                    object,
                    owner,
                } => (
                    format!(
                        "cross_tenant_denied t{tenant} -> {object} (owner t{owner}) on {partition}"
                    ),
                    "tenant",
                    *at_ns,
                ),
                _ => continue,
            };
            push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"{cat}\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"s\":\"g\"}}",
                    json_escape(&name),
                    at_ns as f64 / 1e3
                ),
                &mut out,
                &mut first,
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Escapes a string for embedding in a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_partition_the_range() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(1023), 10);
        assert_eq!(Log2Histogram::bucket_of(1024), 11);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_count_sum_mean_quantile() {
        let mut h = Log2Histogram::new();
        for v in [100, 200, 400, 800] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1500);
        assert_eq!(h.mean(), 375.0);
        assert_eq!(h.max(), 800);
        // Median falls in the bucket holding 200 ([128, 256)).
        assert_eq!(h.quantile(0.5), 256);
        assert_eq!(h.quantile(1.0), 800);
        let mut other = Log2Histogram::new();
        other.record(800);
        h.merge(&other);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 2300);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Log2Histogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn quantile_zero_returns_the_minimum_observation() {
        let mut h = Log2Histogram::new();
        for v in [100, 200, 400, 800] {
            h.record(v);
        }
        assert_eq!(h.min(), 100);
        assert_eq!(h.quantile(0.0), 100);
        assert_eq!(h.quantile(-0.5), 100, "q below range clamps to min");
        // A single observation answers every quantile with itself.
        let mut one = Log2Histogram::new();
        one.record(37);
        assert_eq!(one.quantile(0.0), 37);
        assert_eq!(one.quantile(0.5), 37);
        assert_eq!(one.quantile(1.0), 37);
    }

    #[test]
    fn quantile_one_returns_the_maximum_observation() {
        let mut h = Log2Histogram::new();
        for v in [100, 200, 400, 800] {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0), 800);
        assert_eq!(h.quantile(7.0), 800, "q above range clamps to max");
        assert_eq!(h.quantile(f64::NAN), 800, "NaN is not a loop fall-through");
        // Merging keeps the min/max bounds coherent for the edges.
        let mut other = Log2Histogram::new();
        other.record(50);
        h.merge(&other);
        assert_eq!(h.quantile(0.0), 50);
        assert_eq!(h.quantile(1.0), 800);
    }

    #[test]
    fn incremental_accessors_resume_where_the_consumer_left_off() {
        let mut t = Tracer::new();
        t.enable();
        let span = |seq| SpanEvent {
            phase: SpanPhase::Execute,
            seq,
            api: None,
            partition: None,
            thread: ThreadId::MAIN,
            start_ns: 0,
            end_ns: 1,
            bytes: 0,
        };
        t.span(span(1));
        let mut cursor = 0;
        let first: Vec<u64> = t.events_since(cursor).iter().map(|e| e.seq).collect();
        cursor = t.events().len();
        t.span(span(2));
        t.span(span(3));
        let second: Vec<u64> = t.events_since(cursor).iter().map(|e| e.seq).collect();
        cursor = t.events().len();
        assert_eq!(first, vec![1]);
        assert_eq!(second, vec![2, 3]);
        assert!(
            t.events_since(cursor).is_empty(),
            "nothing new, nothing seen"
        );
        assert!(t.events_since(9999).is_empty(), "out-of-range is empty");

        t.record_audit(AuditRecord::Reprotect {
            at_ns: 5,
            object: ObjectId(1),
            pages: 2,
        });
        assert_eq!(t.audit_since(0).len(), 1);
        assert!(t.audit_since(1).is_empty());
    }

    #[test]
    fn audit_commit_ranges_join_records_to_the_flight_recorder() {
        use crate::{Policy, Runtime};
        use freepart_frameworks::api::ApiType;
        use freepart_frameworks::registry::standard_registry;
        use freepart_frameworks::{fileio, image::Image, Value};

        let mut rt = Runtime::install(standard_registry(), Policy::freepart_recorded());
        rt.enable_tracing();
        rt.kernel
            .fs
            .put("/in.simg", fileio::encode_image(&Image::new(8, 8, 3), None));
        let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
        rt.call("cv2.GaussianBlur", &[img]).unwrap();

        let transitions: Vec<_> = rt
            .tracer()
            .audit_log()
            .iter()
            .filter_map(|r| match r {
                AuditRecord::StateTransition {
                    from, to, commits, ..
                } => Some((*from, *to, *commits)),
                _ => None,
            })
            .collect();
        let loading = FrameworkState::InType(ApiType::DataLoading);
        let processing = FrameworkState::InType(ApiType::DataProcessing);
        assert_eq!(transitions.len(), 2, "{transitions:?}");
        assert_eq!(
            transitions[0],
            (FrameworkState::Initialization, loading, None),
            "a transition that locks nothing carries no range"
        );
        let (from, to, commits) = transitions[1];
        assert_eq!((from, to), (loading, processing));
        let (start, end) = commits.expect("locking the image is recorded");
        assert!(start < end && end <= rt.kernel.commit_len(), "{commits:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.span(SpanEvent {
            phase: SpanPhase::Execute,
            seq: 1,
            api: Some(ApiId(0)),
            partition: Some(PartitionId(0)),
            thread: ThreadId::MAIN,
            start_ns: 0,
            end_ns: 10,
            bytes: 0,
        });
        t.mark(5, ThreadId::MAIN, "x");
        t.begin_call(1);
        t.add_lazy_bytes(1, 100);
        t.finish_call(1, PartitionId(0), ApiId(0), 10, CallOutcome::Completed);
        assert!(t.events().is_empty());
        assert!(t.marks().is_empty());
        assert!(t.stats().is_empty());
    }

    #[test]
    fn finish_call_folds_pending_bytes_and_outcomes() {
        let mut t = Tracer::new();
        t.enable();
        t.begin_call(1);
        t.add_lazy_bytes(1, 1000);
        t.add_eager_bytes(1, 20);
        t.finish_call(1, PartitionId(1), ApiId(3), 5_000, CallOutcome::Completed);
        t.begin_call(2);
        t.note_journal_hit(2);
        t.finish_call(2, PartitionId(1), ApiId(3), 100, CallOutcome::Replayed);
        t.begin_call(3);
        t.finish_call(3, PartitionId(1), ApiId(3), 0, CallOutcome::Faulted);
        let s = &t.stats()[&(PartitionId(1), ApiId(3))];
        assert_eq!(s.calls, 2);
        assert_eq!(s.bytes_lazy, 1000);
        assert_eq!(s.bytes_eager, 20);
        assert_eq!(s.journal_hits, 1);
        assert_eq!(s.faults, 1);
        assert_eq!(s.latency.count(), 2);
        let roll = t.partition_rollup();
        assert_eq!(roll[&PartitionId(1)].calls, 2);
    }

    #[test]
    fn interleaved_in_flight_calls_accumulate_independently() {
        let mut t = Tracer::new();
        t.enable();
        // Two calls in flight at once: byte attribution must not bleed
        // across seqs, and retire order need not match submit order.
        t.begin_call(1);
        t.begin_call(2);
        t.add_lazy_bytes(1, 111);
        t.add_eager_bytes(2, 222);
        t.finish_call(2, PartitionId(0), ApiId(1), 10, CallOutcome::Completed);
        t.finish_call(1, PartitionId(0), ApiId(0), 20, CallOutcome::Completed);
        assert_eq!(t.stats()[&(PartitionId(0), ApiId(0))].bytes_lazy, 111);
        assert_eq!(t.stats()[&(PartitionId(0), ApiId(0))].bytes_eager, 0);
        assert_eq!(t.stats()[&(PartitionId(0), ApiId(1))].bytes_eager, 222);
        assert_eq!(t.stats()[&(PartitionId(0), ApiId(1))].bytes_lazy, 0);
    }

    #[test]
    fn bucket_totals_sum_leaf_spans_only() {
        let mut t = Tracer::new();
        t.enable();
        let mk = |phase, start, end| SpanEvent {
            phase,
            seq: 1,
            api: None,
            partition: None,
            thread: ThreadId::MAIN,
            start_ns: start,
            end_ns: end,
            bytes: 0,
        };
        t.span(mk(SpanPhase::Call, 0, 100)); // parent: excluded
        t.span(mk(SpanPhase::Marshal, 0, 10));
        t.span(mk(SpanPhase::DataCopy, 10, 40));
        t.span(mk(SpanPhase::Transition, 40, 45));
        t.span(mk(SpanPhase::Execute, 45, 95));
        let b = t.bucket_totals();
        assert_eq!(b.marshal_ns, 10);
        assert_eq!(b.copy_ns, 30);
        assert_eq!(b.mprotect_ns, 5);
        assert_eq!(b.compute_ns, 50);
        assert_eq!(b.traced_ns(), 95);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
