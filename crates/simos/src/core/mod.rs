//! The pure kernel core: a state machine with no I/O, no ambient
//! clock, and no external entropy.
//!
//! This module is the verification target of simos. It has three
//! parts:
//!
//! * [`state::KernelState`] — every piece of kernel state (processes,
//!   address spaces, shm segments, filters, channels, devices, virtual
//!   clocks, metrics) as plain data, with a canonical
//!   [`digest`](state::KernelState::digest) and machine-checked
//!   [`invariants`](state::KernelState::check_invariants).
//! * [`step::step`] — the single total transition function. Every
//!   kernel behavior is an arm of one `match` over
//!   [`CommitOp`](crate::commit::CommitOp); there is no other way to
//!   mutate a `KernelState`. Its [`StepResult`] is its only output: the
//!   clock charges and metrics it causes are state like any other.
//! * The digest upkeep (`digest.rs`) — `step` retires and re-admits the
//!   entries an op touches, so [`KernelState::digest`] stays O(1).
//!
//! The shell ([`Kernel`](crate::Kernel)) wraps a `KernelState`,
//! translates its public entry points into ops, and folds them through
//! `step`. When recording, it writes exactly one commit record per
//! step: the op, [`outcome_of_step`] of the result, and the post-step
//! digest. Replay is the same fold without a shell.
//!
//! A CI guard keeps this module honest: any reference to the standard
//! library's time, filesystem, or network facilities — or to any
//! entropy source — inside `core/` fails the build.

pub mod state;
pub mod step;

mod digest;
mod dispatch;

pub use state::{KernelState, TimelineMode};
pub use step::{outcome_of_step, step, StepResult, StepValue};
