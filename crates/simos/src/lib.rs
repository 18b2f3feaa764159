//! # freepart-simos — deterministic user-level OS substrate
//!
//! FreePart's security argument rests on four kernel-enforced mechanisms:
//! per-process address spaces, page-granularity memory permissions
//! (`mprotect`), syscall mediation with seccomp-BPF-style allowlists, and
//! shared-memory IPC. The published system uses the real Linux kernel for
//! all four; this crate provides a faithful, deterministic, user-level
//! simulation of exactly that surface so the rest of the reproduction can
//! run anywhere, single-threaded, and with reproducible cost accounting.
//!
//! The centre of the crate is [`Kernel`]. Everything a "process" does —
//! allocating memory, reading or writing bytes, issuing a syscall, sending
//! an IPC message — goes through the kernel, which checks the calling
//! process's page permissions and syscall filter the same way Linux would,
//! and charges virtual time to a global [`cost::CostModel`]-driven clock.
//!
//! ## Example
//!
//! ```
//! use freepart_simos::{Kernel, Perms, Syscall};
//!
//! let mut k = Kernel::new();
//! let pid = k.spawn("host");
//! let addr = k.alloc(pid, 4096, Perms::RW).unwrap();
//! k.mem_write(pid, addr, b"hello").unwrap();
//! assert_eq!(k.mem_read(pid, addr, 5).unwrap(), b"hello");
//!
//! // Make the page read-only; further writes fault.
//! k.syscall(pid, Syscall::Mprotect { addr, len: 4096, perms: Perms::R }).unwrap();
//! assert!(k.mem_write(pid, addr, b"x").is_err());
//! ```
//!
//! ## Determinism
//!
//! No wall-clock time, no OS threads, no real file descriptors. All
//! "time" is virtual nanoseconds advanced by the cost model; all
//! randomness comes from seeded [`rand`] generators owned by the caller.
//!
//! ## Architecture: pure core, thin shell
//!
//! The kernel is a pure state machine. [`core::KernelState`] owns every
//! piece of kernel state as plain data, and a single total function
//! [`core::step`](fn@core::step) performs every transition and returns
//! its result — nothing else comes out of it. [`Kernel`] is a thin shell
//! over that core: it translates ~40 public entry points into
//! [`CommitOp`]s, folds them through `step`, and, when recording, writes
//! one commit record per step from the op, the outcome summary and the
//! post-step digest. [`replay`](mod@replay) is the same fold without a
//! shell — which is why replay cannot drift from live execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commit;
pub mod core;
pub mod cost;
pub mod device;
pub mod error;
pub mod filter;
pub mod fs;
pub mod idtable;
pub mod ipc;
pub mod kernel;
pub mod mem;
pub mod metrics;
pub mod process;
pub mod replay;
pub mod sched;
pub mod shm;
pub mod syscall;

pub use crate::core::{KernelState, StepValue};
pub use commit::{CommitLog, CommitOp, CommitOutcome, CommitRecord};
pub use cost::{CostModel, VirtualClock};
pub use device::{Camera, DeviceKind, Display, NetworkLog, WindowId};
pub use error::{Errno, Fault, FaultKind, SimError, SimResult};
pub use filter::{FdRule, FilterDecision, SyscallFilter};
pub use fs::SimFs;
pub use idtable::{DenseId, IdTable};
pub use ipc::{ChannelEnd, ChannelId};
pub use kernel::{Kernel, TimelineMode};
pub use mem::{Addr, AddressSpace, Perms, PAGE_SIZE};
pub use metrics::Metrics;
pub use process::{Pid, ProcessState, SimProcess};
pub use replay::{replay, Divergence, DivergenceKind, InvariantViolation, ReplayReport};
pub use sched::{DrrScheduler, PoolId, TenantKey};
pub use shm::{ShmId, ShmSegment};
pub use syscall::{Fd, Syscall, SyscallNo, SyscallRet};
