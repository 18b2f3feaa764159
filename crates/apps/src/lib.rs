//! # freepart-apps — the evaluation applications
//!
//! * [`spec`] + [`driver`]: the 23 Table 6 applications as data-driven
//!   pipelines with exact per-type unique/total API call budgets,
//!   runnable under any isolation scheme via `ApiSurface`.
//! * [`omr`]: the OMRChecker motivating example (§3), hand-written,
//!   with its attack hooks.
//! * [`drone`], [`mcomix`], [`stegonet`]: the case studies of §5.4 and
//!   §A.7.
//!
//!   The OMR and drone missions submit through
//!   `ApiSurface::call_deferred`, so one driver serves every scheme and
//!   every FreePart policy: batched, adaptive, and composed runs differ
//!   from the default only in their `Policy`. A deferred call stays in
//!   flight only while an open batch holds it, so under an unbatched
//!   policy the mission is the synchronous one, record for record.
//! * [`pipeline`]: the pipelined (asynchronous, per-process virtual
//!   time) drone driver.
//! * [`mixes`]: the adversarial workload mixes behind the adaptive
//!   policy-controller benchmark, driven the same way.
//! * [`study`]: the 56-application survey corpus behind Study 1,
//!   Fig. 6, and Table 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod drone;
pub mod mcomix;
pub mod mixes;
pub mod omr;
pub mod pipeline;
pub mod spec;
pub mod stegonet;
pub mod storm;
pub mod study;
pub mod tenants;

pub use driver::{run_app, RunOptions, RunReport};
pub use spec::{by_id, resolve, AppSpec, ResolvedApp, TABLE6};
pub use study::{study_corpus, StudySketch};

/// The FreePart presets every mission test runs under: the paper's
/// default, shm transport, batching, the composed preset, and the
/// adaptive controller.
#[cfg(test)]
pub(crate) fn freepart_policies() -> [(&'static str, freepart::Policy); 5] {
    use freepart::Policy;
    [
        ("freepart", Policy::freepart()),
        ("freepart_shm", Policy::freepart_shm()),
        ("freepart_batched", Policy::freepart_batched()),
        ("freepart_full", Policy::freepart_full()),
        ("freepart_adaptive", Policy::freepart_adaptive()),
    ]
}

/// Whether `policy` coalesces calls into batches (statically, or as
/// the adaptive controller's seeded prior).
#[cfg(test)]
pub(crate) fn batches(policy: &freepart::Policy) -> bool {
    policy.batch_window.is_some()
}
