//! Adversarial workload mixes for the adaptive-policy benchmark.
//!
//! No single static preset optimizes all of these: `tiny-chatty` is a
//! burst of sub-kilobyte draw calls where batching wins and shm
//! promotion never pays; `bulk-frames` pushes multi-kilobyte images
//! through the filter chain, where zero-copy promotion wins; `mixed`
//! interleaves the two every round; `phase-shift` flips character
//! mid-run, so a controller tuned on the first half must re-decide for
//! the second. The `adaptive` bench bin runs every mix under every
//! static preset *and* under [`Policy::freepart_adaptive`], through
//! this one driver, and asserts the controller matches or beats each
//! preset while producing byte-identical digests.
//!
//! Like [`crate::omr::run`], the driver submits through
//! `ApiSurface::call_deferred`, so same-partition bursts coalesce when
//! a batch window — static or controller-picked — is open: a call stays
//! in flight only while the open batch holds it. Under an unbatched
//! policy every call retires at once, one frame per call. Either way
//! the digest is a pure function of the mix, never of the policy.
//!
//! [`Policy::freepart_adaptive`]: freepart::Policy::freepart_adaptive

use freepart::CallError;
use freepart_baselines::ApiSurface;
use freepart_frameworks::image::Image;
use freepart_frameworks::{fileio, Value};

/// One homogeneous stretch of a workload mix.
#[derive(Clone, Copy)]
pub enum MixPhase {
    /// Tiny chatty rounds: one 8×8 canvas load, then `draws`
    /// rectangle/putText pairs on it — sub-kilobyte payloads at a high
    /// call rate.
    Chatty {
        /// Rectangle/putText pairs drawn per round.
        draws: u32,
    },
    /// Bulk rounds: one `side`×`side`×3 frame through the
    /// load → filter → threshold → contours chain — multi-kilobyte
    /// payloads at a low call rate.
    Bulk {
        /// Frame edge length in pixels (payload is `side·side·3`).
        side: u32,
    },
}

/// A named sequence of `(rounds, phase)` stretches, run in order.
pub struct Mix {
    /// Stable display name (lands in `BENCH_adaptive.json`).
    pub name: &'static str,
    /// The stretches, each repeated for its round count.
    pub phases: Vec<(u32, MixPhase)>,
}

/// The four mixes the `adaptive` bench sweeps.
pub fn standard_mixes() -> Vec<Mix> {
    let chatty = MixPhase::Chatty { draws: 24 };
    let bulk = MixPhase::Bulk { side: 80 };
    vec![
        Mix {
            name: "tiny-chatty",
            phases: vec![(12, chatty)],
        },
        Mix {
            name: "bulk-frames",
            phases: vec![(12, bulk)],
        },
        Mix {
            name: "mixed",
            phases: (0..6).flat_map(|_| [(1, chatty), (1, bulk)]).collect(),
        },
        Mix {
            name: "phase-shift",
            phases: vec![(6, chatty), (6, bulk)],
        },
    ]
}

/// What a mix run produced: enough to compare two runs byte-for-byte.
#[derive(Debug, PartialEq)]
pub struct MixResult {
    /// Rounds that ran to completion.
    pub completed: u32,
    /// Per-round detection counts — the "scores" that must be
    /// byte-identical across policies.
    pub digest: Vec<f64>,
    /// Contained per-call failures (none on these benign mixes).
    pub errors: Vec<CallError>,
}

/// Submits one deferred hooked call, recording a failure.
fn acall(
    rt: &mut dyn ApiSurface,
    errors: &mut Vec<CallError>,
    name: &str,
    args: &[Value],
) -> Option<Value> {
    match rt.call_deferred(name, args) {
        Ok(v) => Some(v),
        Err(e) => {
            errors.push(e);
            None
        }
    }
}

/// A deterministic patterned frame: content varies with `round` so
/// detection counts are data-dependent, not constant.
fn frame(round: u32, side: u32) -> Image {
    let bytes = (0..side * side * 3)
        .map(|i| ((i * 7 + round * 13) % 251) as u8)
        .collect();
    Image::from_bytes(side, side, 3, bytes)
}

fn detect(
    rt: &mut dyn ApiSurface,
    errors: &mut Vec<CallError>,
    digest: &mut Vec<f64>,
    target: &Value,
    bonus: f64,
) {
    let marks = acall(rt, errors, "cv2.findContours", std::slice::from_ref(target));
    let found = match marks {
        Some(Value::Rects(r)) => r.len() as f64,
        _ => 0.0,
    };
    digest.push(found + bonus);
}

fn chatty_round(
    rt: &mut dyn ApiSurface,
    errors: &mut Vec<CallError>,
    digest: &mut Vec<f64>,
    round: u32,
    draws: u32,
) -> bool {
    let path = format!("/mix/chat-{round}.simg");
    rt.kernel_mut()
        .fs_put(&path, fileio::encode_image(&frame(round, 8), None));
    let Some(loaded) = acall(rt, errors, "cv2.imread", &[Value::Str(path)]) else {
        return false;
    };
    // A short detection chain for the digest, then a Visualizing-state
    // canvas (`cv2.merge`) the draw loop may legally write — drawing on
    // an object defined in another framework state would trip temporal
    // write protection, as it should.
    let Some(gray) = acall(rt, errors, "cv2.cvtColor", &[loaded]) else {
        return false;
    };
    let Some(thresh) = acall(rt, errors, "cv2.threshold", &[gray]) else {
        return false;
    };
    detect(rt, errors, digest, &thresh, draws as f64);
    let Some(canvas) = acall(rt, errors, "cv2.merge", std::slice::from_ref(&thresh)) else {
        return false;
    };
    // The hot loop: every pair is Visualizing, so under a batch window
    // the whole burst coalesces; per-call payloads are a handful of
    // bytes, so shm promotion must never trigger here.
    for d in 0..draws {
        let x = ((d * 5 + round) % 7) as i64;
        acall(
            rt,
            errors,
            "cv2.rectangle",
            &[
                canvas.clone(),
                Value::I64(x),
                Value::I64(x),
                Value::I64(2),
                Value::I64(2),
            ],
        );
        acall(
            rt,
            errors,
            "cv2.putText",
            &[
                canvas.clone(),
                Value::from("x"),
                Value::I64(x),
                Value::I64(6),
            ],
        );
    }
    true
}

fn bulk_round(
    rt: &mut dyn ApiSurface,
    errors: &mut Vec<CallError>,
    digest: &mut Vec<f64>,
    round: u32,
    side: u32,
) -> bool {
    let path = format!("/mix/bulk-{round}.simg");
    rt.kernel_mut()
        .fs_put(&path, fileio::encode_image(&frame(round, side), None));
    let Some(img) = acall(rt, errors, "cv2.imread", &[Value::Str(path)]) else {
        return false;
    };
    let Some(gray) = acall(rt, errors, "cv2.cvtColor", &[img]) else {
        return false;
    };
    let Some(smooth) = acall(rt, errors, "cv2.GaussianBlur", &[gray]) else {
        return false;
    };
    let Some(thresh) = acall(rt, errors, "cv2.threshold", &[smooth]) else {
        return false;
    };
    detect(rt, errors, digest, &thresh, 0.0);
    true
}

/// Runs `mix` through deferred submission and returns its
/// policy-independent digest.
pub fn run_mix(rt: &mut dyn ApiSurface, mix: &Mix) -> MixResult {
    let mut errors = Vec::new();
    let mut digest = Vec::new();
    let mut completed = 0;
    let mut round = 0u32;
    for (rounds, phase) in &mix.phases {
        for _ in 0..*rounds {
            rt.trace_mark(&format!("mix:{} round {round}", mix.name));
            let ok = match phase {
                MixPhase::Chatty { draws } => {
                    chatty_round(rt, &mut errors, &mut digest, round, *draws)
                }
                MixPhase::Bulk { side } => bulk_round(rt, &mut errors, &mut digest, round, *side),
            };
            if ok {
                completed += 1;
            }
            round += 1;
        }
    }
    rt.drain_inflight();
    MixResult {
        completed,
        digest,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart::{Policy, Runtime};
    use freepart_frameworks::registry::standard_registry;

    /// Every mix produces the same digest under every policy preset —
    /// the transparency contract the bench bin builds on.
    #[test]
    fn mix_digests_are_policy_independent() {
        for mix in standard_mixes() {
            let mut reference: Option<MixResult> = None;
            for policy in [
                Policy::freepart(),
                Policy::without_ldc(),
                Policy::freepart_shm(),
                Policy::freepart_batched(),
                Policy::freepart_full(),
                Policy::freepart_adaptive(),
            ] {
                let mut rt = Runtime::install(standard_registry(), policy);
                let r = run_mix(&mut rt, &mix);
                assert!(r.errors.is_empty(), "{}: benign mix errored", mix.name);
                assert!(r.completed > 0, "{}: mix must actually run", mix.name);
                match &reference {
                    None => reference = Some(r),
                    Some(want) => {
                        assert_eq!(&r, want, "{}: digest depends on policy", mix.name)
                    }
                }
            }
        }
    }

    /// The controller reaches decision points and moves at least one
    /// knob on the phase-shifting mix — the workload built to force a
    /// mid-run re-decision.
    #[test]
    fn phase_shift_forces_a_live_decision() {
        let mix = standard_mixes()
            .into_iter()
            .find(|m| m.name == "phase-shift")
            .unwrap();
        let mut rt = Runtime::install(standard_registry(), Policy::freepart_adaptive());
        run_mix(&mut rt, &mix);
        let decisions = rt.tracer().policy_decisions();
        assert!(!decisions.is_empty(), "no decision points reached");
        assert!(
            decisions.iter().any(|d| d.changed),
            "controller never moved a knob across the phase shift"
        );
    }
}
