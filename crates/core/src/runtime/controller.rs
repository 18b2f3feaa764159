//! The closed-loop adaptive policy controller (§ self-tuning): per
//! (partition, API) estimators fed by the metrics registry, knob
//! decisions taken only at state-transition drain barriers.
//!
//! ## What it tunes
//!
//! Per partition, three knobs the static presets hand-pick:
//!
//! * **shm promotion** — whether payloads at or above the configured
//!   size threshold ride the zero-copy shm transport. Evidence-gated:
//!   promotion turns on only once the partition's EWMA payload size
//!   clears the threshold, and demotes only below half of it (a
//!   hysteresis band), so estimates hovering at the boundary cannot
//!   flap the transport.
//! * **batch window** — starts at the proven batched prior
//!   (`max_batch_window`); batching is disabled only for traffic whose
//!   flushed batches are strictly singleton (where a batch frame's
//!   wrapper bytes cost more than they amortize). The window is never
//!   shrunk below the observed burst size — truncating bursts would
//!   mint extra `WindowFull` frames and regress below the static
//!   batched preset.
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
use crate::policy::AdaptiveConfig;
use crate::trace::{PolicyDecision, Tracer};
use freepart_frameworks::api::ApiId;
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

/// One partition's knob configuration, as decided by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveKnobs {
    /// Whether the size-thresholded shm promotion rule is enabled.
    pub shm_promoted: bool,
    /// The batch window (`None` = one frame per call).
    pub batch_window: Option<usize>,
    /// The in-flight (pipeline) window.
    pub pipeline_window: usize,
}

impl AdaptiveKnobs {
    /// The warmup configuration every partition starts from: the
    /// batched prior (proven never worse than unbatched on every
    /// preset workload), shm promotion off until payload evidence
    /// clears the threshold, the default pipeline window.
    fn initial(cfg: &AdaptiveConfig) -> AdaptiveKnobs {
        AdaptiveKnobs {
            shm_promoted: false,
            batch_window: Some(cfg.max_batch_window.max(1)),
            pipeline_window: DEFAULT_PIPELINE_WINDOW,
        }
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

/// Per-(partition, API) flow estimator: a cursor into the cumulative
/// registry cell plus the payload-size EWMA.
#[derive(Debug, Clone, Copy, Default)]
struct Flow {
    /// Registry `calls` already consumed (cursor).
    seen_calls: u64,
    /// Registry payload bytes (lazy + eager + shm) already consumed.
    seen_bytes: u64,
    /// EWMA payload bytes per retired call.
    ewma_bytes_per_call: u64,
    /// Decision windows that contributed a sample.
    samples: u64,
}

/// Per-partition aggregate estimator (what knob decisions read).
#[derive(Debug, Clone, Copy, Default)]
struct PartitionEstimate {
    /// EWMA payload bytes per retired call, across the partition's APIs.
    ewma_bytes_per_call: u64,
    /// Decision windows that contributed a sample.
    samples: u64,
}

/// The controller: estimators + per-partition knobs + hysteresis state.
#[derive(Debug)]
pub(super) struct Controller {
    pub(super) cfg: AdaptiveConfig,
    knobs: BTreeMap<PartitionId, AdaptiveKnobs>,
    flows: BTreeMap<(PartitionId, ApiId), Flow>,
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
    pub(super) fn new(cfg: AdaptiveConfig) -> Controller {
        Controller {
            cfg,
            knobs: BTreeMap::new(),
            flows: BTreeMap::new(),
            parts: BTreeMap::new(),
            hold: BTreeMap::new(),
            flushes_cursor: 0,
            ewma_calls_per_batch_x16: 0,
            batch_samples: 0,
        }
    }

    /// The knobs currently in force for `partition`.
    pub(super) fn knobs_for(&self, partition: PartitionId) -> AdaptiveKnobs {
        self.knobs
            .get(&partition)
            .copied()
            .unwrap_or_else(|| AdaptiveKnobs::initial(&self.cfg))
    }

    /// Per-(partition, API) payload estimates:
    /// `(partition, api, ewma bytes/call, samples)`.
    pub(super) fn flow_estimates(&self) -> Vec<(PartitionId, ApiId, u64, u64)> {
        self.flows
            .iter()
            .filter(|(_, f)| f.samples > 0)
            .map(|((p, a), f)| (*p, *a, f.ewma_bytes_per_call, f.samples))
            .collect()
    }

    /// Estimator reset after an agent restart: the respawned agent's
    /// traffic may look nothing like its predecessor's, so accumulated
    /// EWMAs are dropped. Registry *cursors* are kept (the registry is
    /// cumulative) and knobs are untouched — knob changes happen only
    /// at drain barriers, never mid-restart.
    pub(super) fn reset_partition(&mut self, partition: PartitionId) {
        for ((p, _), f) in self.flows.iter_mut() {
            if *p == partition {
                f.ewma_bytes_per_call = 0;
                f.samples = 0;
            }
        }
        self.parts.remove(&partition);
    }

    /// One decision point, at a state-transition drain barrier: fold
    /// registry/flush deltas into the estimators, then re-pick
    /// each active partition's knobs under hysteresis. Every partition
    /// that saw traffic emits one [`PolicyDecision`] record (with
    /// `changed = false` for holds and re-confirmations).
    pub(super) fn decide(&mut self, tracer: &mut Tracer, now: u64, seq: u64) {
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

        // Registry deltas per flow, aggregated per partition.
        let mut part_calls: BTreeMap<PartitionId, u64> = BTreeMap::new();
        let mut part_bytes: BTreeMap<PartitionId, u64> = BTreeMap::new();
        for ((p, api), cell) in tracer.stats() {
            let flow = self.flows.entry((*p, *api)).or_default();
            let total_bytes = cell.bytes_lazy + cell.bytes_eager + cell.bytes_shm;
            let d_calls = cell.calls - flow.seen_calls;
            let d_bytes = total_bytes - flow.seen_bytes;
            if let Some(per_call) = d_bytes.checked_div(d_calls) {
                flow.ewma_bytes_per_call =
                    blend(flow.ewma_bytes_per_call, per_call, flow.samples > 0);
                flow.samples += 1;
            }
            flow.seen_calls = cell.calls;
            flow.seen_bytes = total_bytes;
            *part_calls.entry(*p).or_default() += d_calls;
            *part_bytes.entry(*p).or_default() += d_bytes;
        }

        for (partition, d_calls) in part_calls {
            if d_calls == 0 {
                continue;
            }
            let d_bytes = part_bytes.get(&partition).copied().unwrap_or(0);
            let est = self.parts.entry(partition).or_default();
            est.ewma_bytes_per_call =
                blend(est.ewma_bytes_per_call, d_bytes / d_calls, est.samples > 0);
            est.samples += 1;
            let est = *est;

            let old = self.knobs_for(partition);
            let mut next = old;
            // Transport: promote at the threshold, demote only below
            // half of it — the hysteresis band.
            if est.ewma_bytes_per_call >= self.cfg.shm_threshold {
                next.shm_promoted = true;
            } else if est.ewma_bytes_per_call < self.cfg.shm_threshold / 2 {
                next.shm_promoted = false;
            }
            // Batching: stay at the proven prior unless flushed batches
            // are strictly singleton (then the wrapper frame costs more
            // than it amortizes and batching turns off).
            if self.batch_samples >= MIN_BATCH_SAMPLES {
                next.batch_window = if self.ewma_calls_per_batch_x16 < SINGLETON_BATCH_X16 {
                    None
                } else {
                    Some(self.cfg.max_batch_window.max(1))
                };
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
                self.knobs.insert(partition, next);
                self.hold.insert(partition, HOLD_POINTS);
            } else if held > 0 {
                self.hold.insert(partition, held - 1);
            }
            let effective = if changed { next } else { old };
            tracer.record_decision(PolicyDecision {
                at_ns: now,
                seq,
                partition,
                shm_promoted: effective.shm_promoted,
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
    /// The batch window in force for `partition`: the controller's
    /// per-partition knob when adaptive, else the static policy field.
    pub(super) fn batch_window_for(&self, partition: PartitionId) -> Option<usize> {
        match &self.controller {
            Some(c) => c.knobs_for(partition).batch_window,
            None => self.policy.batch_window,
        }
    }

    /// The shm promotion threshold in force for `partition`: the
    /// configured threshold when the controller has promoted the
    /// partition (else `None`), or the static policy field.
    pub(super) fn shm_threshold_for(&self, partition: PartitionId) -> Option<u64> {
        match &self.controller {
            Some(c) => c
                .knobs_for(partition)
                .shm_promoted
                .then_some(c.cfg.shm_threshold),
            None => self.policy.shm_threshold,
        }
    }

    /// The in-flight window in force for `partition`: the controller's
    /// per-partition knob when adaptive, else the runtime-wide setting.
    pub(super) fn pipeline_window_for(&self, partition: PartitionId) -> usize {
        match &self.controller {
            Some(c) => c.knobs_for(partition).pipeline_window,
            None => self.pipeline_window,
        }
    }

    /// One adaptive decision point, called from the submit path inside
    /// a state-transition drain barrier (batch flushed, in-flight
    /// drained, grants revoked). No-op without the controller. Charges
    /// no virtual time.
    pub(super) fn adaptive_decision_point(&mut self, seq: u64) {
        if let Some(c) = self.controller.as_mut() {
            let now = self.kernel.now_ns();
            c.decide(&mut self.tracer, now, seq);
        }
    }

    /// Whether the adaptive controller is driving this runtime's knobs.
    pub fn adaptive_enabled(&self) -> bool {
        self.controller.is_some()
    }

    /// The knobs currently in force for `partition` under the adaptive
    /// controller (`None` when the controller is off).
    pub fn adaptive_knobs(&self, partition: PartitionId) -> Option<AdaptiveKnobs> {
        self.controller.as_ref().map(|c| c.knobs_for(partition))
    }

    /// Per-(partition, API) adaptive payload estimates:
    /// `(partition, api, EWMA bytes/call, samples)`. Empty when the
    /// controller is off (or nothing has retired yet).
    pub fn adaptive_flows(&self) -> Vec<(PartitionId, ApiId, u64, u64)> {
        self.controller
            .as_ref()
            .map(Controller::flow_estimates)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FlushReason;

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig::default()
    }

    #[test]
    fn initial_knobs_are_the_batched_prior() {
        let k = AdaptiveKnobs::initial(&cfg());
        assert!(!k.shm_promoted, "shm promotion is evidence-gated");
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
        let mut c = Controller::new(cfg());
        let p = PartitionId(0);
        let mut tracer = Tracer::new();
        tracer.enable();
        // Seed a flow well above the threshold via the registry.
        tracer.begin_call(1);
        tracer.add_lazy_bytes(1, 8192);
        tracer.finish_call(1, p, ApiId(0), 100, crate::trace::CallOutcome::Completed);
        c.decide(&mut tracer, 1_000, 1);
        assert!(c.knobs_for(p).shm_promoted, "8 KiB/call promotes");
        let decisions = tracer.policy_decisions();
        assert_eq!(decisions.len(), 1);
        assert!(decisions[0].changed);
        assert_eq!(decisions[0].est_bytes_per_call, 8192);
        // A window at 600 B/call sits inside the band [512, 1024):
        // no demotion (but the EWMA decays toward it).
        tracer.begin_call(2);
        tracer.add_lazy_bytes(2, 600);
        tracer.finish_call(2, p, ApiId(0), 100, crate::trace::CallOutcome::Completed);
        // Burn through the hold-down with idle decision points first.
        for s in 3..=(2 + u64::from(HOLD_POINTS)) {
            c.decide(&mut tracer, 1_000 * s, s);
        }
        c.decide(&mut tracer, 10_000, 9);
        assert!(
            c.knobs_for(p).shm_promoted,
            "in-band estimates must not demote"
        );
    }

    #[test]
    fn hold_down_pins_knobs_after_a_change() {
        let mut c = Controller::new(cfg());
        let p = PartitionId(0);
        let mut tracer = Tracer::new();
        tracer.enable();
        tracer.begin_call(1);
        tracer.add_lazy_bytes(1, 8192);
        tracer.finish_call(1, p, ApiId(0), 100, crate::trace::CallOutcome::Completed);
        c.decide(&mut tracer, 1_000, 1);
        assert!(c.knobs_for(p).shm_promoted);
        // A sudden collapse to zero-byte calls wants demotion, but the
        // hold-down pins the knobs for `HOLD_POINTS` decision points —
        // and the EWMA itself takes log2(8192/512) = 4 windows to decay
        // below the demotion bound. Feed zero-byte windows and record
        // when demotion lands.
        let hold = u64::from(HOLD_POINTS);
        let mut demoted_at = None;
        for s in 2..=12u64 {
            tracer.begin_call(s);
            tracer.finish_call(s, p, ApiId(0), 100, crate::trace::CallOutcome::Completed);
            c.decide(&mut tracer, 1_000 * s, s);
            if s <= 1 + hold {
                assert!(c.knobs_for(p).shm_promoted, "held at point {s}");
            }
            if demoted_at.is_none() && !c.knobs_for(p).shm_promoted {
                demoted_at = Some(s);
            }
        }
        let s = demoted_at.expect("zero-byte traffic eventually demotes");
        assert!(s > 1 + hold, "demotion cannot land inside the hold-down");
    }

    #[test]
    fn singleton_batches_disable_batching() {
        let mut c = Controller::new(cfg());
        let p = PartitionId(0);
        let mut tracer = Tracer::new();
        tracer.enable();
        for s in 1..=4u64 {
            tracer.begin_call(s);
            tracer.add_lazy_bytes(s, 16);
            tracer.finish_call(s, p, ApiId(0), 100, crate::trace::CallOutcome::Completed);
            tracer.note_batch_flush(
                s * 100,
                crate::runtime::ThreadId::MAIN,
                FlushReason::PartitionSwitch,
                1,
            );
            c.decide(&mut tracer, 1_000 * s, s);
        }
        assert_eq!(
            c.knobs_for(p).batch_window,
            None,
            "strictly singleton batches turn batching off"
        );
        // Bursty flushes re-enable it (after the hold expires).
        for s in 5..=12u64 {
            tracer.begin_call(s);
            tracer.add_lazy_bytes(s, 16);
            tracer.finish_call(s, p, ApiId(0), 100, crate::trace::CallOutcome::Completed);
            tracer.note_batch_flush(
                s * 100,
                crate::runtime::ThreadId::MAIN,
                FlushReason::WindowFull,
                8,
            );
            c.decide(&mut tracer, 1_000 * s, s);
        }
        assert_eq!(c.knobs_for(p).batch_window, Some(8));
        assert_eq!(c.knobs_for(p).pipeline_window, 8, "window covers the batch");
    }

    #[test]
    fn restart_reset_clears_estimates_but_not_knobs_or_cursors() {
        let mut c = Controller::new(cfg());
        let p = PartitionId(0);
        let mut tracer = Tracer::new();
        tracer.enable();
        tracer.begin_call(1);
        tracer.add_lazy_bytes(1, 8192);
        tracer.finish_call(1, p, ApiId(0), 100, crate::trace::CallOutcome::Completed);
        c.decide(&mut tracer, 1_000, 1);
        assert!(c.knobs_for(p).shm_promoted);
        assert_eq!(c.flow_estimates().len(), 1);
        c.reset_partition(p);
        assert!(c.flow_estimates().is_empty(), "estimates dropped");
        assert!(c.knobs_for(p).shm_promoted, "knobs survive the restart");
        // The registry cursor survived: an idle decision point sees no
        // delta and does not re-count historical bytes.
        c.decide(&mut tracer, 2_000, 2);
        assert!(c.flow_estimates().is_empty());
    }
}
