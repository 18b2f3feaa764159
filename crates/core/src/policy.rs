//! Runtime policy: the knobs the paper's ablations — and the baseline
//! isolation schemes of Table 1 — turn.

use crate::partition::PartitionPlan;
use freepart_frameworks::api::ApiType;

/// How aggressively agents' syscalls are restricted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SandboxLevel {
    /// No filtering at all (monolithic / memory-based baselines).
    None,
    /// One coarse allowlist: the union of *every* catalog API's profile
    /// plus `mprotect` (a whole-library sandbox must permit everything
    /// the library ever does — which is why code-rewriting still works
    /// inside it).
    CoarseUnion,
    /// FreePart's per-agent union of the assigned APIs' profiles, with
    /// fd/destination rules, sealed after first execution.
    PerAgent,
}

/// What kind of *channel* carries bytes that do get copied across
/// process boundaries. (Not to be confused with the object-payload
/// [`Transport`](crate::runtime::transport::Transport) trait, which
/// decides *whether* a payload is copied at all.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelTransport {
    /// FreePart's shared-memory rings: one memcpy per move.
    SharedMemory,
    /// Pipe/socket RPC (sandboxed-api / PtrSplit style): serialization
    /// plus kernel buffering make each byte several times dearer.
    Pipe,
}

impl ChannelTransport {
    /// Extra per-copy cost multiplier relative to shared memory.
    pub fn penalty_factor(self) -> u64 {
        match self {
            ChannelTransport::SharedMemory => 1,
            ChannelTransport::Pipe => 16,
        }
    }
}

/// Where host-application data objects live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostDataPlacement {
    /// In the host process (FreePart; the library-based schemes).
    Host,
    /// Co-located with the agent of one API type — the code-based API
    /// isolation baseline puts `template` in the same process as
    /// `imread()` (Fig. 2-a), which is exactly its weakness.
    WithType(ApiType),
    /// Each critical object in its own dedicated process, shipped to
    /// users per access (Fig. 2-b, PtrSplit/PM-style) — strong but
    /// IPC-heavy.
    OwnProcessEach,
}

/// What happens when an agent process crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Respawn the agent, restore stateful snapshots, re-execute the
    /// in-flight request once (at-least-once RPC, §4.4.2).
    Restart,
    /// Leave the agent dead — security over availability.
    StayDown,
}

/// Token-bucket restart budget for the supervisor (§ availability
/// hardening): each respawn spends one token; tokens refill at
/// `refill_ns` of virtual time apiece up to `burst`. Consecutive
/// restarts without a full bucket also pay exponential backoff. When
/// the bucket is empty the partition is *degraded* — hooked calls fail
/// fast with `AgentUnavailable` instead of feeding a respawn loop, and
/// the denial is audited as `RestartDenied`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartBudget {
    /// Maximum restarts a partition can burst through back-to-back.
    pub burst: u32,
    /// Virtual ns to mint one replacement token.
    pub refill_ns: u64,
    /// Base backoff charged before the k-th consecutive restart:
    /// `backoff_ns << min(k-1, 10)`.
    pub backoff_ns: u64,
}

impl Default for RestartBudget {
    fn default() -> Self {
        RestartBudget {
            burst: 6,
            refill_ns: 5_000_000,
            backoff_ns: 2_000,
        }
    }
}

/// Configuration for the pooled multi-tenant serving mode.
///
/// In pooled mode the runtime's four `part0..part3` agents are shared
/// *pools*: every tenant pipeline routes its hooked calls to the same
/// four agent processes instead of owning a private striped agent set,
/// so the data plane runs 4 + N processes instead of 5N. Isolation
/// inside each shared agent comes from the tenant gate (every object
/// handle is checked against the calling tenant's namespace) and
/// fairness from deficit-round-robin run queues per pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Deficit-round-robin quantum: cost units (one per hooked call)
    /// a tenant may consume per head-of-ring visit of a pool's run
    /// queue. Larger quanta amortize switching at the price of a wider
    /// worst-case scheduling window.
    pub quantum: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { quantum: 2 }
    }
}

/// Full runtime configuration.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Partition plan (four canonical partitions by default).
    pub plan: PartitionPlan,
    /// Lazy Data Copy: pass objects by reference, move bytes directly
    /// agent→agent on dereference (§4.3.2). Off = eager deep copy
    /// through the host on every call.
    pub lazy_data_copy: bool,
    /// Syscall-restriction strength (§4.4.1).
    pub sandbox: SandboxLevel,
    /// Placement of host-annotated critical data.
    pub host_data: HostDataPlacement,
    /// Cross-process byte channel (copy-cost multiplier).
    pub transport: ChannelTransport,
    /// Payload-size threshold (bytes) at or above which object payloads
    /// ride the zero-copy shared-memory transport (page-mapped segments
    /// with per-process temporal grants) instead of being byte-copied.
    /// `None` disables the Shm transport entirely, preserving the
    /// pre-shm data plane bit-for-bit. Under `adaptive` this is only
    /// every partition's starting value, which the controller edits.
    pub shm_threshold: Option<u64>,
    /// Maximum number of consecutive same-partition calls coalesced
    /// into a single IPC frame before a forced flush. `None` disables
    /// batching entirely, preserving the one-frame-per-call plane
    /// bit-for-bit. Batches also flush early on a partition switch, a
    /// host dereference/`wait` hazard, or a framework state transition,
    /// so results are byte-identical either way — only the frame count
    /// (and its latency bill) changes. Under `adaptive` this is only
    /// every partition's starting value, which the controller edits.
    pub batch_window: Option<usize>,
    /// Temporal memory permissions: previous-state objects become
    /// read-only on state transitions (§4.4.3).
    pub temporal_protection: bool,
    /// Crash handling.
    pub restart: RestartPolicy,
    /// Snapshot stateful objects every this-many calls per agent
    /// (§A.2.4); `0` disables snapshotting.
    pub snapshot_interval: u64,
    /// Copy only objects whose write epoch moved since the previous
    /// snapshot, reusing prior bytes for proven-clean ones. Snapshot
    /// reads are uncharged in virtual time, so this changes no timing —
    /// only the `snapshot_bytes_copied` / `snapshot_objects_skipped`
    /// counters — which is why it can default on.
    pub incremental_snapshots: bool,
    /// Pre-forked spare agents kept per partition; a restart adopts a
    /// spare (rebind + reseal) instead of paying a cold spawn. `0`
    /// disables pre-forking entirely, preserving the cold-restart path
    /// bit-for-bit.
    pub warm_spares: u32,
    /// Supervised restart budget; `None` means unlimited restarts (the
    /// pre-supervisor behavior, preserved bit-for-bit).
    pub restart_budget: Option<RestartBudget>,
    /// Route type-neutral APIs to the calling context's agent instead of
    /// their own type's agent (§4.2).
    pub colocate_type_neutral: bool,
    /// Kernel flight recorder: append every state-mutating kernel
    /// transition to the commit log (with a running state digest) so the
    /// whole run can be replayed bit-for-bit and audited after the fact.
    /// Off by default — recording must not perturb the benchmark
    /// artifacts, and a disabled recorder costs one branch per kernel
    /// entry point.
    pub record_commits: bool,
    /// Closed-loop adaptive policy controller: per-partition EWMA
    /// estimators drive edits of the knob table that `shm_threshold`,
    /// `batch_window` and the default pipeline window seed, taken only
    /// at state-transition drain barriers, with hysteresis. `false`
    /// leaves the seeded table untouched (the static-policy planes).
    pub adaptive: bool,
    /// Multi-tenant pooled serving: N tenant pipelines share the four
    /// `part0..part3` agent pools (4 + N processes instead of 5N), with
    /// a host-side tenant gate on every object handle and
    /// deficit-round-robin fair scheduling across tenants. `None`
    /// disables pooling entirely, preserving the one-agent-set-per-
    /// pipeline plane bit-for-bit.
    pub pooled: Option<PoolConfig>,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            plan: PartitionPlan::four(),
            lazy_data_copy: true,
            sandbox: SandboxLevel::PerAgent,
            host_data: HostDataPlacement::Host,
            transport: ChannelTransport::SharedMemory,
            shm_threshold: None,
            batch_window: None,
            temporal_protection: true,
            restart: RestartPolicy::Restart,
            snapshot_interval: 8,
            incremental_snapshots: true,
            warm_spares: 0,
            restart_budget: None,
            colocate_type_neutral: true,
            record_commits: false,
            adaptive: false,
            pooled: None,
        }
    }
}

impl Policy {
    /// The paper's full FreePart configuration.
    pub fn freepart() -> Policy {
        Policy::default()
    }

    /// FreePart minus Lazy Data Copy (the 9.7%-overhead ablation).
    pub fn without_ldc() -> Policy {
        Policy {
            lazy_data_copy: false,
            ..Policy::default()
        }
    }

    /// Security-over-availability variant.
    pub fn no_restart() -> Policy {
        Policy {
            restart: RestartPolicy::StayDown,
            ..Policy::default()
        }
    }

    /// Full FreePart with the zero-copy shared-memory transport for
    /// payloads of [`Policy::DEFAULT_SHM_THRESHOLD`] bytes and up.
    /// Smaller objects stay buffer-backed (copying a few hundred bytes
    /// is cheaper than a grant + page map, and keeps them addressable
    /// for byte-granular temporal protection).
    pub fn freepart_shm() -> Policy {
        Policy {
            shm_threshold: Some(Policy::DEFAULT_SHM_THRESHOLD),
            ..Policy::default()
        }
    }

    /// Full FreePart with adaptive hooked-call batching: up to
    /// [`Policy::DEFAULT_BATCH_WINDOW`] consecutive same-partition calls
    /// share one request frame and one response frame.
    pub fn freepart_batched() -> Policy {
        Policy {
            batch_window: Some(Policy::DEFAULT_BATCH_WINDOW),
            ..Policy::default()
        }
    }

    /// Full FreePart under a real supervisor: warm spares absorb agent
    /// deaths and a token-bucket budget turns a crash storm into a
    /// degraded (fail-fast, audited) partition instead of a respawn loop.
    pub fn freepart_supervised() -> Policy {
        Policy {
            warm_spares: 2,
            restart_budget: Some(RestartBudget::default()),
            ..Policy::default()
        }
    }

    /// Full FreePart with the kernel flight recorder on: every
    /// state-mutating kernel transition lands in the commit log, so the
    /// run can be replayed digest-identical and audited from the log
    /// alone (`freepart_simos::replay`).
    pub fn freepart_recorded() -> Policy {
        Policy {
            record_commits: true,
            ..Policy::default()
        }
    }

    /// Full FreePart with every performance and availability mechanism
    /// composed: size-thresholded shm transport, hooked-call batching,
    /// and the supervised restart path (warm spares + token-bucket
    /// budget). The mechanisms were each proven transparent in
    /// isolation; this preset is the composition the interaction tests
    /// exercise.
    pub fn freepart_full() -> Policy {
        Policy {
            shm_threshold: Some(Policy::DEFAULT_SHM_THRESHOLD),
            batch_window: Some(Policy::DEFAULT_BATCH_WINDOW),
            warm_spares: 2,
            restart_budget: Some(RestartBudget::default()),
            ..Policy::default()
        }
    }

    /// Full FreePart with the closed-loop adaptive controller. The
    /// static fields are only the seeds: every partition starts from
    /// the batched prior ([`Policy::DEFAULT_BATCH_WINDOW`], shm off),
    /// and the controller re-picks shm promotion, batch window, and
    /// pipeline window from observed evidence at state-transition drain
    /// barriers.
    pub fn freepart_adaptive() -> Policy {
        Policy {
            adaptive: true,
            batch_window: Some(Policy::DEFAULT_BATCH_WINDOW),
            ..Policy::default()
        }
    }

    /// Full FreePart in multi-tenant pooled serving mode: N tenant
    /// pipelines multiplex hooked calls over the shared `part0..part3`
    /// agent pools with the tenant gate and deficit-round-robin
    /// fairness. Everything else stays at the proven defaults —
    /// pooling composes with shm, batching, supervision, and recording
    /// by setting those knobs alongside `pooled`.
    pub fn freepart_pooled() -> Policy {
        Policy {
            pooled: Some(PoolConfig::default()),
            ..Policy::default()
        }
    }
}

impl Policy {
    /// Default map-vs-copy crossover: a quarter page. At the default
    /// cost model, copying 1 KiB (1.1 µs) already costs more than
    /// granting + mapping the page that holds it (~0.5 µs). The
    /// adaptive controller promotes partitions to this threshold.
    pub const DEFAULT_SHM_THRESHOLD: u64 = 1024;

    /// Default batch window. Matches the default pipeline window: a
    /// batch is one unit of the per-partition in-flight budget, and
    /// longer runs of un-retired calls would only grow the journal.
    /// The adaptive controller's batching-on window.
    pub const DEFAULT_BATCH_WINDOW: usize = 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_freepart() {
        let p = Policy::default();
        assert!(p.lazy_data_copy);
        assert_eq!(p.sandbox, SandboxLevel::PerAgent);
        assert_eq!(p.host_data, HostDataPlacement::Host);
        assert!(p.temporal_protection);
        assert_eq!(p.restart, RestartPolicy::Restart);
        assert_eq!(p.plan.partition_count(), 4);
    }

    #[test]
    fn ablation_constructors() {
        assert!(!Policy::without_ldc().lazy_data_copy);
        assert_eq!(Policy::no_restart().restart, RestartPolicy::StayDown);
    }

    #[test]
    fn shm_is_opt_in() {
        assert_eq!(Policy::default().shm_threshold, None);
        assert_eq!(
            Policy::freepart_shm().shm_threshold,
            Some(Policy::DEFAULT_SHM_THRESHOLD)
        );
        // Everything else matches full FreePart.
        let shm = Policy::freepart_shm();
        assert!(shm.lazy_data_copy);
        assert!(shm.temporal_protection);
    }

    #[test]
    fn batching_is_opt_in() {
        assert_eq!(Policy::default().batch_window, None);
        assert_eq!(
            Policy::freepart_batched().batch_window,
            Some(Policy::DEFAULT_BATCH_WINDOW)
        );
        // Everything else matches full FreePart.
        let batched = Policy::freepart_batched();
        assert!(batched.lazy_data_copy);
        assert!(batched.temporal_protection);
        assert_eq!(batched.shm_threshold, None);
    }

    #[test]
    fn supervision_is_opt_in() {
        // Seed-identical defaults: no spares, no budget.
        let d = Policy::default();
        assert_eq!(d.warm_spares, 0);
        assert_eq!(d.restart_budget, None);
        let s = Policy::freepart_supervised();
        assert_eq!(s.warm_spares, 2);
        assert_eq!(s.restart_budget, Some(RestartBudget::default()));
        // Everything else matches full FreePart.
        assert!(s.lazy_data_copy);
        assert!(s.temporal_protection);
        assert_eq!(s.shm_threshold, None);
        assert_eq!(s.batch_window, None);
    }

    #[test]
    fn recording_is_opt_in() {
        // Seed-identical defaults: the flight recorder is off, so the
        // benchmark artifacts stay byte-identical.
        assert!(!Policy::default().record_commits);
        let r = Policy::freepart_recorded();
        assert!(r.record_commits);
        // Everything else matches full FreePart.
        assert!(r.lazy_data_copy);
        assert!(r.temporal_protection);
        assert_eq!(r.shm_threshold, None);
        assert_eq!(r.batch_window, None);
    }

    #[test]
    fn adaptive_is_opt_in() {
        // Seed-identical defaults: no controller, static planes only.
        assert!(!Policy::default().adaptive);
        let a = Policy::freepart_adaptive();
        assert!(a.adaptive);
        // The static knobs are the seeds: the batched prior, shm off
        // until payload evidence clears the threshold.
        assert_eq!(a.shm_threshold, None);
        assert_eq!(a.batch_window, Some(Policy::DEFAULT_BATCH_WINDOW));
        // Everything else matches full FreePart.
        assert!(a.lazy_data_copy);
        assert!(a.temporal_protection);
    }

    #[test]
    fn pooling_is_opt_in() {
        // Seed-identical defaults: every pipeline owns its agent set.
        assert_eq!(Policy::default().pooled, None);
        let p = Policy::freepart_pooled();
        assert_eq!(p.pooled, Some(PoolConfig::default()));
        assert!(PoolConfig::default().quantum >= 1);
        // Everything else matches full FreePart.
        assert!(p.lazy_data_copy);
        assert!(p.temporal_protection);
        assert_eq!(p.shm_threshold, None);
        assert_eq!(p.batch_window, None);
        assert!(!p.adaptive);
    }

    #[test]
    fn full_composes_every_mechanism() {
        let f = Policy::freepart_full();
        assert_eq!(f.shm_threshold, Some(Policy::DEFAULT_SHM_THRESHOLD));
        assert_eq!(f.batch_window, Some(Policy::DEFAULT_BATCH_WINDOW));
        assert_eq!(f.warm_spares, 2);
        assert_eq!(f.restart_budget, Some(RestartBudget::default()));
        // Still full FreePart underneath.
        assert!(f.lazy_data_copy);
        assert!(f.temporal_protection);
        assert_eq!(f.sandbox, SandboxLevel::PerAgent);
        assert!(!f.adaptive);
    }

    #[test]
    fn incremental_snapshots_default_on_and_timing_neutral() {
        // Snapshot copies are uncharged in virtual time, so the default
        // can be `true` without moving any benchmark number.
        assert!(Policy::default().incremental_snapshots);
    }
}
