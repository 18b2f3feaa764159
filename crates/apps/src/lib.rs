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
//!   from the default only in their `Policy`.
//! * [`pipeline`]: the pipelined (asynchronous, per-process virtual
//!   time) drone driver.
//! * [`mixes`]: the adversarial workload mixes behind the adaptive
//!   policy-controller benchmark.
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

/// The batching presets' mission checks, one preset per test. Each test
/// feeds its preset to a shared check in [`omr`] or [`drone`], the same
/// `run` as every other scheme.
#[cfg(test)]
mod batched {
    mod tests {
        use crate::{drone::tests as drone, omr::tests as omr};
        use freepart::Policy;

        #[test]
        fn batched_omr_scores_are_byte_identical_to_sync() {
            let policy = Policy::freepart_batched();
            assert!(crate::batches(&policy));
            omr::check_grades_like_the_original("freepart_batched", policy);
        }

        #[test]
        fn dos_attack_verdict_is_unchanged_under_batching() {
            drone::check_survives_dos("freepart_batched", Policy::freepart_batched());
        }

        #[test]
        fn speed_corruption_verdict_is_unchanged_under_batching() {
            let policy = Policy::freepart_batched();
            drone::check_speed_corruption_is_contained("freepart_batched", policy);
        }

        #[test]
        fn omr_dos_attack_is_contained_under_batching() {
            omr::check_dos_is_contained("freepart_batched", Policy::freepart_batched());
        }

        #[test]
        fn full_policy_omr_is_byte_identical_and_composes_every_mechanism() {
            let policy = Policy::freepart_full();
            assert!(crate::batches(&policy));
            assert!(policy.shm_threshold.is_some() && policy.warm_spares > 0);
            omr::check_grades_like_the_original("freepart_full", policy);
        }

        #[test]
        fn full_policy_dos_restart_adopts_a_warm_spare() {
            let policy = Policy::freepart_full();
            assert!(policy.warm_spares > 0);
            omr::check_dos_is_contained("freepart_full", policy);
        }

        #[test]
        fn dos_attack_verdict_is_unchanged_under_the_adaptive_policy() {
            drone::check_survives_dos("freepart_adaptive", Policy::freepart_adaptive());
        }

        #[test]
        fn speed_corruption_verdict_is_unchanged_under_the_adaptive_policy() {
            let policy = Policy::freepart_adaptive();
            drone::check_speed_corruption_is_contained("freepart_adaptive", policy);
        }

        #[test]
        fn omr_dos_attack_is_contained_under_the_adaptive_policy() {
            omr::check_dos_is_contained("freepart_adaptive", Policy::freepart_adaptive());
        }
    }
}
