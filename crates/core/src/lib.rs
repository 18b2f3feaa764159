//! # freepart — framework-based execution partitioning and isolation
//!
//! The paper's primary contribution: harden data-processing applications
//! by (1) partitioning execution across **agent processes**, one per
//! framework-API type; (2) hooking framework APIs into RPCs with **Lazy
//! Data Copy**; (3) enforcing **temporal memory permissions** at
//! framework-state transitions; and (4) **restricting syscalls** per
//! agent with seccomp-style locked allowlists.
//!
//! ## Quickstart
//!
//! ```
//! use freepart::{Policy, Runtime};
//! use freepart_frameworks::registry::standard_registry;
//! use freepart_frameworks::{fileio, image::Image, Value};
//!
//! let mut rt = Runtime::install(standard_registry(), Policy::freepart());
//!
//! // Seed an input and run a hooked pipeline: each call executes in an
//! // isolated agent process.
//! rt.kernel.fs.put("/in.simg", fileio::encode_image(&Image::new(8, 8, 3), None));
//! let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
//! let gray = rt.call("cv2.cvtColor", &[img]).unwrap();
//! let edges = rt.call("cv2.Canny", &[gray]).unwrap();
//! rt.call("cv2.imwrite", &[Value::from("/out.simg"), edges]).unwrap();
//! assert!(rt.kernel.fs.exists("/out.simg"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forensics;
pub mod partition;
pub mod policy;
pub mod rpc;
pub mod runtime;
pub mod state;
pub mod syscall_policy;
pub mod trace;

pub use forensics::{
    crash_forensics, journal_exactly_once, transition_windows, w_grant_discipline, CrashForensics,
    TransitionWindow,
};
pub use partition::{PartitionId, PartitionPlan};
pub use policy::{
    ChannelTransport, HostDataPlacement, Policy, PoolConfig, RestartBudget, RestartPolicy,
    SandboxLevel,
};
pub use runtime::transport::{Transport, TransportCtx};
pub use runtime::{
    Agent, CallError, CallHandle, Knobs, Runtime, RuntimeStats, TenantHandle, TenantId, ThreadId,
};
pub use state::{FrameworkState, TemporalPlane};
pub use trace::{
    ApiStats, AuditRecord, Bucket, BucketTotals, CallOutcome, FlushReason, Log2Histogram,
    PolicyDecision, SpanEvent, SpanPhase, Tracer,
};
