//! The per-partition knob table and the closed-loop adaptive policy
//! controller (§ self-tuning) that edits it.
//!
//! ## One knob table
//!
//! Three knobs sit on top of LDC: the shm promotion threshold, the
//! batch window and the pipeline window. The [`Policy`] seeds every
//! partition's entry at install and the call plane reads them only
//! through [`Runtime::knobs`]. Under `Policy::adaptive` the controller
//! rewrites a partition's entry at state-transition drain barriers;
//! nothing else writes the table.
//!
//! ## What the controller picks
//!
//! One estimator per partition (payload bytes per retired call, from
//! the metrics registry) and one global calls-per-batch estimate drive:
//!
//! * **shm promotion** — the threshold becomes
//!   [`Policy::DEFAULT_SHM_THRESHOLD`] once the partition's EWMA payload
//!   size clears it, and is cleared only below half of it (a hysteresis
//!   band), so estimates hovering at the boundary cannot flap the
//!   transport.
//! * **batch window** — stays at its seed unless flushed batches are
//!   strictly singleton (a batch frame's wrapper bytes then cost more
//!   than they amortize); re-enabled at [`Policy::DEFAULT_BATCH_WINDOW`],
//!   never below the observed burst size — truncating bursts would mint
//!   extra `WindowFull` frames and regress below the batched preset.
//! * **pipeline window** — sized to cover the batch window (a batch is
//!   one in-flight unit), bounded by [`MAX_PIPELINE_WINDOW`].
//!
//! ## Why decisions only happen at drain barriers
//!
//! A knob change mid-flight could split one logical call's payload
//! moves across two transport configurations, or strand an open batch
//! under a window that no longer admits it. At a framework-state
//! transition the call plane has already flushed the open batch,
//! retired every in-flight call (folding their bytes into the
//! registry), and revoked out-of-state shm grants — the system is
//! quiescent, the registry is current, and the next call starts a
//! fresh configuration epoch. Every knob value is individually
//! output-transparent (the transport/batching/pipelining property
//! tests), so a run that switches knobs only at these barriers is
//! byte-identical in outputs to a static configuration.
//!
//! The controller itself only *reads* the virtual clock — estimation
//! and decision-making charge no time, exactly like tracing.

use super::{Runtime, DEFAULT_PIPELINE_WINDOW};
use crate::partition::PartitionId;
use crate::policy::Policy;
use crate::trace::{PolicyDecision, Tracer};
use std::collections::BTreeMap;

/// Calls-per-batch EWMA (fixed-point ×16) below which flushed batches
/// are considered strictly singleton and batching is disabled: 1.25
/// calls per frame.
const SINGLETON_BATCH_X16: u64 = 20;

/// Flush-mix samples required before the controller trusts the
/// calls-per-batch estimate enough to disable batching.
const MIN_BATCH_SAMPLES: u64 = 2;

/// Upper bound on the per-partition pipeline (in-flight) window.
const MAX_PIPELINE_WINDOW: usize = 8;

/// EWMA smoothing: new estimates blend in at weight `1 / 2^EWMA_SHIFT`.
const EWMA_SHIFT: u32 = 1;

/// Hysteresis hold-down: after any knob change the partition's knobs
/// are pinned for this many decision points, so estimates hovering at
/// a boundary cannot make decisions flap.
const HOLD_POINTS: u32 = 2;

/// One partition's knobs, as the call plane reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Payloads at or above this size ride the shm transport (`None` =
    /// the shm transport is off for the partition).
    pub shm_threshold: Option<u64>,
    /// The batch window (`None` = one frame per call).
    pub batch_window: Option<usize>,
    /// The in-flight (pipeline) window.
    pub pipeline_window: usize,
}

/// The knob table: the policy's seed, which every partition starts
/// from, plus the entries the controller has rewritten.
#[derive(Debug)]
pub(super) struct KnobTable {
    pub(super) seed: Knobs,
    decided: BTreeMap<PartitionId, Knobs>,
}

impl KnobTable {
    /// The table `policy` seeds at install.
    pub(super) fn seeded(policy: &Policy) -> KnobTable {
        KnobTable {
            seed: Knobs {
                shm_threshold: policy.shm_threshold,
                batch_window: policy.batch_window,
                pipeline_window: DEFAULT_PIPELINE_WINDOW,
            },
            decided: BTreeMap::new(),
        }
    }

    fn get(&self, partition: PartitionId) -> Knobs {
        self.decided.get(&partition).copied().unwrap_or(self.seed)
    }
}

/// Integer EWMA: blend `sample` in at weight `1 / 2^EWMA_SHIFT`. The
/// first sample seeds the estimate directly (`seeded = false`).
fn blend(prev: u64, sample: u64, seeded: bool) -> u64 {
    if !seeded {
        return sample;
    }
    prev - (prev >> EWMA_SHIFT) + (sample >> EWMA_SHIFT)
}

/// Per-partition estimator: a cursor into the partition's cumulative
/// registry cells (summed over its APIs) plus the payload-size EWMA.
#[derive(Debug, Clone, Copy, Default)]
struct PartitionEstimate {
    /// Registry `calls` already consumed (cursor).
    seen_calls: u64,
    /// Registry payload bytes (lazy + eager + shm) already consumed.
    seen_bytes: u64,
    /// EWMA payload bytes per retired call.
    ewma_bytes_per_call: u64,
    /// Decision windows that contributed a sample.
    samples: u64,
}

/// The controller: estimators + hysteresis state. The knobs themselves
/// live in the runtime's [`KnobTable`].
#[derive(Debug, Default)]
pub(super) struct Controller {
    parts: BTreeMap<PartitionId, PartitionEstimate>,
    /// Hold-down counters: a partition whose knobs just moved keeps
    /// them pinned for [`HOLD_POINTS`] decision points.
    hold: BTreeMap<PartitionId, u32>,
    /// Flush-log cursor (calls-per-batch).
    flushes_cursor: usize,
    /// Global EWMA calls per flushed batch, fixed-point ×16. Global
    /// because flush records carry the submitting thread, not a
    /// partition.
    ewma_calls_per_batch_x16: u64,
    batch_samples: u64,
}

impl Controller {
    /// Estimator reset after an agent restart: the respawned agent's
    /// traffic may look nothing like its predecessor's, so the
    /// accumulated EWMA is dropped. The registry *cursor* is kept (the
    /// registry is cumulative) and knobs are untouched — knob changes
    /// happen only at drain barriers, never mid-restart.
    pub(super) fn reset_partition(&mut self, partition: PartitionId) {
        if let Some(est) = self.parts.get_mut(&partition) {
            est.ewma_bytes_per_call = 0;
            est.samples = 0;
        }
    }

    /// One decision point, at a state-transition drain barrier: fold
    /// registry/flush deltas into the estimators, then re-pick each
    /// active partition's entry in `table` under hysteresis. Every
    /// partition that saw traffic emits one [`PolicyDecision`] record
    /// (with `changed = false` for holds and re-confirmations).
    pub(super) fn decide(
        &mut self,
        tracer: &mut Tracer,
        table: &mut KnobTable,
        now: u64,
        seq: u64,
    ) {
        // Calls-per-batch since the previous point.
        let flushes = &tracer.batch_flushes()[self.flushes_cursor..];
        let flush_frames = flushes.len() as u64;
        let flush_calls: u64 = flushes.iter().map(|(_, _, _, calls)| *calls as u64).sum();
        self.flushes_cursor = tracer.batch_flushes().len();
        if let Some(sample) = (flush_calls * 16).checked_div(flush_frames) {
            self.ewma_calls_per_batch_x16 = blend(
                self.ewma_calls_per_batch_x16,
                sample,
                self.batch_samples > 0,
            );
            self.batch_samples += 1;
        }

        // Registry totals per partition, summed over its APIs' cells.
        let mut totals: BTreeMap<PartitionId, (u64, u64)> = BTreeMap::new();
        for ((p, _), cell) in tracer.stats() {
            let t = totals.entry(*p).or_default();
            t.0 += cell.calls;
            t.1 += cell.bytes_lazy + cell.bytes_eager + cell.bytes_shm;
        }

        for (partition, (calls, bytes)) in totals {
            let est = self.parts.entry(partition).or_default();
            let d_calls = calls - est.seen_calls;
            let d_bytes = bytes - est.seen_bytes;
            est.seen_calls = calls;
            est.seen_bytes = bytes;
            if d_calls == 0 {
                continue;
            }
            est.ewma_bytes_per_call =
                blend(est.ewma_bytes_per_call, d_bytes / d_calls, est.samples > 0);
            est.samples += 1;
            let est = *est;

            let old = table.get(partition);
            let mut next = old;
            // Transport: promote at the threshold, demote only below
            // half of it — the hysteresis band.
            if est.ewma_bytes_per_call >= Policy::DEFAULT_SHM_THRESHOLD {
                next.shm_threshold = Some(Policy::DEFAULT_SHM_THRESHOLD);
            } else if est.ewma_bytes_per_call < Policy::DEFAULT_SHM_THRESHOLD / 2 {
                next.shm_threshold = None;
            }
            // Batching: once the flush mix is trusted, batch at the
            // default window unless flushed batches are strictly
            // singleton (then the wrapper frame costs more than it
            // amortizes and batching turns off).
            if self.batch_samples >= MIN_BATCH_SAMPLES {
                next.batch_window = (self.ewma_calls_per_batch_x16 >= SINGLETON_BATCH_X16)
                    .then_some(Policy::DEFAULT_BATCH_WINDOW);
            }
            // Pipelining: the window must cover the batch (a batch is
            // one in-flight unit; a smaller window would force-retire
            // into the open batch's members).
            next.pipeline_window = next
                .batch_window
                .unwrap_or(0)
                .clamp(DEFAULT_PIPELINE_WINDOW, MAX_PIPELINE_WINDOW);

            // Hysteresis hold-down, then apply.
            let held = self.hold.get(&partition).copied().unwrap_or(0);
            let changed = next != old && held == 0;
            if changed {
                table.decided.insert(partition, next);
                self.hold.insert(partition, HOLD_POINTS);
            } else if held > 0 {
                self.hold.insert(partition, held - 1);
            }
            let effective = if changed { next } else { old };
            tracer.record_decision(PolicyDecision {
                at_ns: now,
                seq,
                partition,
                shm_promoted: effective.shm_threshold.is_some(),
                batch_window: effective.batch_window,
                pipeline_window: effective.pipeline_window,
                est_bytes_per_call: est.ewma_bytes_per_call,
                est_calls_per_batch_x16: self.ewma_calls_per_batch_x16,
                changed,
            });
        }
    }
}

impl Runtime {
    /// The knobs in force for `partition`: its knob-table entry, which
    /// the policy seeded and only the adaptive controller rewrites.
    pub fn knobs(&self, partition: PartitionId) -> Knobs {
        self.knob_table.get(partition)
    }

    /// One adaptive decision point, called from the submit path inside
    /// a state-transition drain barrier (batch flushed, in-flight
    /// drained, grants revoked). No-op without the controller. Charges
    /// no virtual time.
    pub(super) fn adaptive_decision_point(&mut self, seq: u64) {
        if let Some(c) = self.controller.as_mut() {
            let now = self.kernel.now_ns();
            c.decide(&mut self.tracer, &mut self.knob_table, now, seq);
        }
    }

    /// Whether the adaptive controller is editing this runtime's knobs.
    pub fn adaptive_enabled(&self) -> bool {
        self.controller.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ThreadId;
    use crate::trace::{CallOutcome, FlushReason};
    use freepart_frameworks::api::ApiId;

    const P: PartitionId = PartitionId(0);

    /// A fresh controller, the table `Policy::freepart_adaptive` seeds,
    /// and an enabled tracer.
    fn setup() -> (Controller, KnobTable, Tracer) {
        let mut tracer = Tracer::new();
        tracer.enable();
        let table = KnobTable::seeded(&Policy::freepart_adaptive());
        (Controller::default(), table, tracer)
    }

    /// Retires call `seq` on partition `P` with `bytes` of lazy payload.
    fn retire(tracer: &mut Tracer, seq: u64, bytes: u64) {
        tracer.begin_call(seq);
        tracer.add_lazy_bytes(seq, bytes);
        tracer.finish_call(seq, P, ApiId(0), 100, CallOutcome::Completed);
    }

    fn promoted(t: &KnobTable) -> bool {
        t.get(P).shm_threshold.is_some()
    }

    #[test]
    fn initial_knobs_are_the_batched_prior() {
        let k = setup().1.get(P);
        assert_eq!(k.shm_threshold, None, "shm promotion is evidence-gated");
        assert_eq!(k.batch_window, Some(8));
        assert_eq!(k.pipeline_window, 4);
    }

    #[test]
    fn blend_seeds_then_smooths() {
        assert_eq!(blend(0, 1000, false), 1000);
        assert_eq!(blend(1000, 1000, true), 1000);
        // Half-weight blend moves halfway toward the sample.
        assert_eq!(blend(1000, 2000, true), 1500);
        assert_eq!(blend(2000, 0, true), 1000);
    }

    #[test]
    fn promotion_hysteresis_band() {
        let (mut c, mut t, mut tracer) = setup();
        // Seed a flow well above the threshold via the registry.
        retire(&mut tracer, 1, 8192);
        c.decide(&mut tracer, &mut t, 1_000, 1);
        assert!(promoted(&t), "8 KiB/call promotes");
        let decisions = tracer.policy_decisions();
        assert_eq!(decisions.len(), 1);
        assert!(decisions[0].changed);
        assert_eq!(decisions[0].est_bytes_per_call, 8192);
        // A window at 600 B/call sits inside the band [512, 1024):
        // no demotion (but the EWMA decays toward it).
        retire(&mut tracer, 2, 600);
        // Burn through the hold-down with idle decision points first.
        for s in 3..=(2 + u64::from(HOLD_POINTS)) {
            c.decide(&mut tracer, &mut t, 1_000 * s, s);
        }
        c.decide(&mut tracer, &mut t, 10_000, 9);
        assert!(promoted(&t), "in-band estimates must not demote");
    }

    #[test]
    fn hold_down_pins_knobs_after_a_change() {
        let (mut c, mut t, mut tracer) = setup();
        retire(&mut tracer, 1, 8192);
        c.decide(&mut tracer, &mut t, 1_000, 1);
        assert!(promoted(&t));
        // A sudden collapse to zero-byte calls wants demotion, but the
        // hold-down pins the knobs for `HOLD_POINTS` decision points —
        // and the EWMA itself takes log2(8192/512) = 4 windows to decay
        // below the demotion bound. Feed zero-byte windows and record
        // when demotion lands.
        let hold = u64::from(HOLD_POINTS);
        let mut demoted_at = None;
        for s in 2..=12u64 {
            retire(&mut tracer, s, 0);
            c.decide(&mut tracer, &mut t, 1_000 * s, s);
            if s <= 1 + hold {
                assert!(promoted(&t), "held at point {s}");
            }
            if demoted_at.is_none() && !promoted(&t) {
                demoted_at = Some(s);
            }
        }
        let s = demoted_at.expect("zero-byte traffic eventually demotes");
        assert!(s > 1 + hold, "demotion cannot land inside the hold-down");
    }

    #[test]
    fn singleton_batches_disable_batching() {
        let (mut c, mut t, mut tracer) = setup();
        for s in 1..=4u64 {
            retire(&mut tracer, s, 16);
            tracer.note_batch_flush(s * 100, ThreadId::MAIN, FlushReason::PartitionSwitch, 1);
            c.decide(&mut tracer, &mut t, 1_000 * s, s);
        }
        assert_eq!(
            t.get(P).batch_window,
            None,
            "strictly singleton batches turn batching off"
        );
        // Bursty flushes re-enable it (after the hold expires).
        for s in 5..=12u64 {
            retire(&mut tracer, s, 16);
            tracer.note_batch_flush(s * 100, ThreadId::MAIN, FlushReason::WindowFull, 8);
            c.decide(&mut tracer, &mut t, 1_000 * s, s);
        }
        assert_eq!(t.get(P).batch_window, Some(8));
        assert_eq!(t.get(P).pipeline_window, 8, "window covers the batch");
    }

    #[test]
    fn restart_reset_clears_estimates_but_not_knobs_or_cursors() {
        let (mut c, mut t, mut tracer) = setup();
        retire(&mut tracer, 1, 8192);
        c.decide(&mut tracer, &mut t, 1_000, 1);
        assert!(promoted(&t));
        assert_eq!(
            (c.parts[&P].ewma_bytes_per_call, c.parts[&P].samples),
            (8192, 1)
        );
        c.reset_partition(P);
        assert_eq!(
            (c.parts[&P].ewma_bytes_per_call, c.parts[&P].samples),
            (0, 0)
        );
        assert!(promoted(&t), "knobs survive the restart");
        // The registry cursor survived: an idle decision point sees no
        // delta and does not re-count historical bytes.
        c.decide(&mut tracer, &mut t, 2_000, 2);
        assert_eq!(c.parts[&P].samples, 0);
        assert_eq!(tracer.policy_decisions().len(), 1, "no new decision");
    }
}
