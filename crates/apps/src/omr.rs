//! OMRChecker — the paper's motivating example (§3), hand-written.
//!
//! An auto-grader: loads a `template` (answer-mark coordinates) and an
//! answer key at startup, then per submission image runs
//! `imread → cvtColor → GaussianBlur → threshold → warpPerspective →
//! morphologyEx → findContours`, annotates every detected mark with
//! `rectangle`/`putText` (the hot-loop pair of Fig. 4), shows a preview,
//! and finally writes a scores CSV.
//!
//! The attack surface matches Fig. 1: a crafted submission exploits
//! `imread` (`CVE-2017-12597` to corrupt `template`, `CVE-2017-14136`
//! to crash) and a second vulnerability targets `imshow`.

use freepart::CallError;
use freepart_baselines::ApiSurface;
use freepart_frameworks::api::{ApiId, ApiRegistry, ApiType};
use freepart_frameworks::image::Image;
use freepart_frameworks::{fileio, ExploitPayload, ObjectId, Value};

/// The 86 framework APIs of the motivating example (Table 2: 3 loading,
/// 75 processing, 6 visualizing, 2 storing).
pub fn omr_universe(reg: &ApiRegistry) -> Vec<ApiId> {
    let mut out = Vec::new();
    // 3 data-loading APIs: cv2.imread, pd.read_csv, json.load.
    for n in ["cv2.imread", "pd.read_csv", "json.load"] {
        out.push(reg.id_of(n).expect("catalog API"));
    }
    // 75 data-processing APIs: the OpenCV processing surface.
    let mut dp: Vec<ApiId> = reg
        .of_framework(freepart_frameworks::Framework::OpenCv)
        .iter()
        .filter(|s| s.declared_type == ApiType::DataProcessing)
        .map(|s| s.id)
        .collect();
    dp.truncate(75);
    out.extend(dp);
    // 6 visualizing APIs.
    for n in [
        "cv2.imshow",
        "cv2.moveWindow",
        "cv2.namedWindow",
        "cv2.pollKey",
        "cv2.destroyAllWindows",
        "plt.show",
    ] {
        out.push(reg.id_of(n).expect("catalog API"));
    }
    // 2 storing APIs.
    for n in ["cv2.imwrite", "plt.savefig"] {
        out.push(reg.id_of(n).expect("catalog API"));
    }
    out
}

/// Configuration of one grading run.
#[derive(Debug, Clone, Default)]
pub struct OmrConfig {
    /// Number of submission images to grade.
    pub samples: u32,
    /// Marks (rectangle/putText annotations) per submission.
    pub boxes_per_sample: u32,
    /// Optional crafted submission: `(index, payload)`.
    pub evil_sample: Option<(u32, ExploitPayload)>,
    /// Optional crafted preview attack on `imshow`.
    pub evil_imshow: Option<ExploitPayload>,
}

impl OmrConfig {
    /// A small benign grading batch.
    pub fn benign(samples: u32) -> OmrConfig {
        OmrConfig {
            samples,
            boxes_per_sample: 6,
            ..OmrConfig::default()
        }
    }
}

/// Outcome of one grading run.
#[derive(Debug)]
pub struct OmrResult {
    /// The `template` critical object.
    pub template: ObjectId,
    /// Pristine template bytes (for corruption judgment).
    pub template_original: Vec<u8>,
    /// Submissions fully graded.
    pub completed: u32,
    /// Per-sample scores computed from recognized marks.
    pub scores: Vec<f64>,
    /// Call errors encountered (containment events under attack).
    pub errors: Vec<CallError>,
    /// Whether the scores CSV was written.
    pub results_written: bool,
}

pub(crate) fn submission_image(sample: u32) -> Image {
    let mut img = Image::new(48, 48, 3);
    // Answer marks: filled squares whose positions depend on the sample.
    for b in 0..4u32 {
        let x0 = 4 + (b * 11) % 36;
        let y0 = 6 + (sample * 7 + b * 13) % 36;
        for y in y0..(y0 + 4).min(48) {
            for x in x0..(x0 + 4).min(48) {
                for c in 0..3 {
                    img.put(x, y, c, 250);
                }
            }
        }
    }
    img
}

/// Runs the grader under any isolation scheme.
pub fn run(surface: &mut dyn ApiSurface, cfg: &OmrConfig) -> OmrResult {
    // ---- initialization (template + key, Fig. 3's first phase) ----
    let template_bytes: Vec<u8> = (0..16_384u32).map(|i| (i * 3 % 251) as u8).collect();
    let template = surface.host_data("template", &template_bytes);
    surface.host_data("answer_key", b"ABCDABCDABCDABCD");
    surface.finish_setup();

    // Configuration files loaded through hooked APIs. Every input is
    // staged with the logged `fs_put`, so a recorded run replays from
    // its commit log alone.
    surface
        .kernel_mut()
        .fs_put("/omr/template.json", b"{\"qblocks\": 16}".to_vec());
    surface.kernel_mut().fs_put(
        "/omr/roster.csv",
        fileio::encode_csv(&[vec![1.0], vec![2.0]]),
    );
    let mut errors = Vec::new();
    let mut scores = Vec::new();
    let mut completed = 0;
    // Deferred calls: no result is needed retired before the next call,
    // so a batching policy coalesces each same-partition burst into one
    // frame. The mission drains before reading liveness and at the end.
    let mut call = |s: &mut dyn ApiSurface, name: &str, args: &[Value]| -> Option<Value> {
        match s.call_deferred(name, args) {
            Ok(v) => Some(v),
            Err(e) => {
                errors.push(e);
                None
            }
        }
    };
    call(surface, "json.load", &[Value::from("/omr/template.json")]);
    let roster = call(surface, "pd.read_csv", &[Value::from("/omr/roster.csv")]);

    // ---- grading loop ----
    for sample in 0..cfg.samples {
        surface.trace_mark(&format!("omr:sample {sample}"));
        let path = format!("/omr/submission-{sample}.simg");
        let img = submission_image(sample);
        let payload = match &cfg.evil_sample {
            Some((at, p)) if *at == sample => Some(p),
            _ => None,
        };
        surface
            .kernel_mut()
            .fs_put(&path, fileio::encode_image(&img, payload));

        let Some(loaded) = call(surface, "cv2.imread", &[Value::Str(path)]) else {
            continue; // containment event: skip this submission
        };
        let Some(gray) = call(surface, "cv2.cvtColor", &[loaded]) else {
            continue;
        };
        let Some(smooth) = call(surface, "cv2.GaussianBlur", &[gray]) else {
            continue;
        };
        let Some(thresh) = call(surface, "cv2.threshold", &[smooth]) else {
            continue;
        };
        let Some(warped) = call(surface, "cv2.warpPerspective", &[thresh]) else {
            continue;
        };
        let Some(morph) = call(surface, "cv2.morphologyEx", std::slice::from_ref(&warped)) else {
            continue;
        };
        // Rebuild the 3-channel annotation canvas (cv2.merge) — the
        // object the hot-loop pair shares.
        let Some(annotated) = call(surface, "cv2.merge", std::slice::from_ref(&morph)) else {
            continue;
        };
        let marks = call(surface, "cv2.findContours", std::slice::from_ref(&morph));
        let found = match marks {
            Some(Value::Rects(r)) => r.len() as f64,
            _ => 0.0,
        };
        // Host grading logic: each question block consults the (critical)
        // template coordinates — the repeated-access pattern that makes
        // isolated-data schemes pay per access (Fig. 2-b's >800 IPCs).
        let mut acc = 0u64;
        for _block in 0..8 {
            let t = surface.fetch_bytes(template).unwrap_or_default();
            acc += t.first().copied().unwrap_or(0) as u64;
        }
        let score = found * (acc as f64 / 8.0 + 1.0) / 16.0;
        scores.push(score);

        // Hot loop: annotate each mark (Fig. 4's rectangle/putText pair —
        // frequently executed, sharing the warped image).
        for b in 0..cfg.boxes_per_sample {
            let x = (b * 7 % 40) as i64;
            call(
                surface,
                "cv2.rectangle",
                &[
                    annotated.clone(),
                    Value::I64(x),
                    Value::I64(x),
                    Value::I64(6),
                    Value::I64(6),
                ],
            );
            call(
                surface,
                "cv2.putText",
                &[
                    annotated.clone(),
                    Value::from("A"),
                    Value::I64(x),
                    Value::I64(40),
                ],
            );
        }

        // Preview.
        let preview = if let Some(p) = &cfg.evil_imshow {
            // The crafted frame rides through to the visualizer.
            let path = format!("/omr/evil-preview-{sample}.simg");
            surface
                .kernel_mut()
                .fs_put(&path, fileio::encode_image(&img, Some(p)));
            call(surface, "cv2.imread", &[Value::Str(path)])
        } else {
            Some(annotated.clone())
        };
        if let Some(pv) = preview {
            call(surface, "cv2.imshow", &[Value::from("omr"), pv]);
        }
        call(surface, "cv2.pollKey", &[]);
        completed += 1;
    }

    // ---- results ----
    surface.drain_inflight();
    // The roster may have died with a crashed agent (the paper's §6
    // state-discrepancy); the application reloads it like any robust
    // program would.
    let mut results_written = false;
    let roster = match roster {
        Some(r)
            if surface
                .objects()
                .meta(r.as_obj().expect("roster is an object"))
                .is_some_and(|m| surface.kernel().is_running(m.home)) =>
        {
            Some(r)
        }
        _ => call(surface, "pd.read_csv", &[Value::from("/omr/roster.csv")]),
    };
    if let Some(r) = roster {
        if call(
            surface,
            "pd.DataFrame.to_csv",
            &[Value::from("/omr/scores.csv"), r],
        )
        .is_some()
        {
            results_written = surface.kernel().fs.exists("/omr/scores.csv");
        }
    }
    surface.drain_inflight();
    OmrResult {
        template,
        template_original: template_bytes,
        completed,
        scores,
        errors,
        results_written,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart::{Policy, Runtime};
    use freepart_attacks::{judge, AttackGoal, Verdict};
    use freepart_baselines::MonolithicRuntime;
    use freepart_frameworks::registry::standard_registry;

    #[test]
    fn universe_matches_table2_counts() {
        let reg = standard_registry();
        let uni = omr_universe(&reg);
        assert_eq!(uni.len(), 86);
        let count = |t: ApiType| {
            uni.iter()
                .filter(|id| reg.spec(**id).declared_type == t)
                .count()
        };
        assert_eq!(count(ApiType::DataLoading), 3);
        assert_eq!(count(ApiType::DataProcessing), 75);
        assert_eq!(count(ApiType::Visualizing), 6);
        assert_eq!(count(ApiType::Storing), 2);
    }

    #[test]
    fn benign_run_grades_everything() {
        let mut rt = MonolithicRuntime::original(standard_registry());
        let r = run(&mut rt, &OmrConfig::benign(5));
        assert_eq!(r.completed, 5);
        assert_eq!(r.scores.len(), 5);
        assert!(r.errors.is_empty());
        assert!(r.results_written);
        assert!(r.scores.iter().all(|s| *s > 0.0), "marks recognized");
    }

    /// `policy` grades exactly like the original, and the preset's
    /// mechanism really engages: batching cuts frames, shm transport
    /// grants segments, supervision pools warm spares.
    fn check_grades_like_the_original(name: &str, policy: Policy) {
        let want = run(
            &mut MonolithicRuntime::original(standard_registry()),
            &OmrConfig::benign(6),
        );
        let (batches, shm, spares) = (
            crate::batches(&policy),
            policy.shm_threshold.is_some(),
            policy.warm_spares > 0,
        );
        let mut fp = Runtime::install(standard_registry(), policy);
        let b = run(&mut fp, &OmrConfig::benign(6));
        assert_eq!(
            want.scores, b.scores,
            "{name}: isolation must not change grades"
        );
        assert_eq!(b.completed, 6, "{name}");
        assert!(b.errors.is_empty(), "{name}");
        assert!(b.results_written, "{name}");
        assert_eq!(fp.in_flight(), 0, "{name}: mission ends fully drained");
        let m = fp.kernel.metrics();
        if batches {
            let mut unbatched = Runtime::install(standard_registry(), Policy::freepart());
            run(&mut unbatched, &OmrConfig::benign(6));
            let unbatched = unbatched.kernel.metrics().ipc_messages;
            assert!(
                m.ipc_messages < unbatched,
                "{name}: batching must cut frames: {} vs {unbatched}",
                m.ipc_messages
            );
            assert!(m.calls_batched > 0, "{name}: calls rode in batches");
        }
        if shm {
            assert!(fp.stats().shm_grants > 0, "{name}: shm transport engaged");
        }
        if spares {
            let loading = fp.partition_of(fp.registry().id_of("cv2.imread").unwrap());
            assert!(fp.spare_count(loading) > 0, "{name}: warm spares pooled");
        }
    }

    /// A DoS submission under `policy` costs one agent restart and that
    /// one submission; with warm spares, the restart adopts a spare.
    fn check_dos_is_contained(name: &str, policy: Policy) {
        let cfg = OmrConfig {
            samples: 4,
            boxes_per_sample: 2,
            evil_sample: Some((1, freepart_attacks::payloads::dos("CVE-2017-14136"))),
            evil_imshow: None,
        };
        let spares = policy.warm_spares > 0;
        let mut fp = Runtime::install(standard_registry(), policy);
        let loading = fp.partition_of(fp.registry().id_of("cv2.imread").unwrap());
        let spares_before = fp.spare_count(loading);
        let r = run(&mut fp, &cfg);
        assert!(fp.kernel.is_running(fp.host_pid()), "{name}");
        // With restart, only the malicious submission is lost.
        assert_eq!(r.completed, 3, "{name}");
        assert!(r.results_written, "{name}");
        assert!(fp.stats().restarts > 0, "{name}: the DoS killed an agent");
        if spares {
            assert!(
                fp.spare_count(loading) < spares_before,
                "{name}: the restart adopted a pooled warm spare"
            );
        }
    }

    /// Every FreePart preset grades exactly like the original.
    #[test]
    fn freepart_and_original_produce_identical_scores() {
        for (name, policy) in crate::freepart_policies() {
            check_grades_like_the_original(name, policy);
        }
    }

    #[test]
    fn corruption_attack_succeeds_unprotected_fails_under_freepart() {
        let reg = standard_registry();
        let _ = reg;
        // Unprotected original: the grade-tampering attack of Fig. 1.
        let mut orig = MonolithicRuntime::original(standard_registry());
        // Address of template once created: run setup first via a probe
        // run to learn the address deterministically.
        let probe = run(
            &mut MonolithicRuntime::original(standard_registry()),
            &OmrConfig::benign(0),
        );
        let addr = {
            let mut p = MonolithicRuntime::original(standard_registry());
            let r = run(&mut p, &OmrConfig::benign(0));
            p.objects.meta(r.template).unwrap().buffer.unwrap().0
        };
        let payload = freepart_attacks::payloads::corrupt("CVE-2017-12597", addr.0, vec![0xFF; 32]);
        let cfg = OmrConfig {
            samples: 3,
            boxes_per_sample: 2,
            evil_sample: Some((1, payload.clone())),
            evil_imshow: None,
        };
        let r = run(&mut orig, &cfg);
        let log = orig.exploit_log().to_vec();
        let (kernel, objects, host) = orig.attack_view();
        let verdict = judge(
            &AttackGoal::CorruptObject {
                id: r.template,
                original: r.template_original.clone(),
            },
            kernel,
            objects,
            host,
            &log,
        );
        assert_eq!(verdict, Verdict::Succeeded, "original is corruptible");
        // Scores after corruption differ from clean ones — the grade
        // tampering worked.
        assert_ne!(r.scores[1], probe.scores.first().copied().unwrap_or(-1.0));

        // FreePart: same attack, template survives.
        let mut fp = Runtime::install(standard_registry(), Policy::freepart());
        let addr_fp = {
            let mut p = Runtime::install(standard_registry(), Policy::freepart());
            let r = run(&mut p, &OmrConfig::benign(0));
            p.objects.meta(r.template).unwrap().buffer.unwrap().0
        };
        let cfg = OmrConfig {
            samples: 3,
            boxes_per_sample: 2,
            evil_sample: Some((
                1,
                freepart_attacks::payloads::corrupt("CVE-2017-12597", addr_fp.0, vec![0xFF; 32]),
            )),
            evil_imshow: None,
        };
        let r = run(&mut fp, &cfg);
        let log = fp.exploit_log.clone();
        let (kernel, objects, host) = fp.attack_view();
        let verdict = judge(
            &AttackGoal::CorruptObject {
                id: r.template,
                original: r.template_original.clone(),
            },
            kernel,
            objects,
            host,
            &log,
        );
        assert_eq!(verdict, Verdict::Prevented, "FreePart protects template");
        // The corrupting write faulted and killed the loading agent, so
        // the malicious submission itself is lost; the two honest ones
        // are graded.
        assert_eq!(r.completed, 2, "honest submissions still graded");
    }

    #[test]
    fn dos_attack_kills_original_but_not_freepart_host() {
        let payload = freepart_attacks::payloads::dos("CVE-2017-14136");
        let cfg = OmrConfig {
            samples: 4,
            boxes_per_sample: 2,
            evil_sample: Some((1, payload)),
            evil_imshow: None,
        };
        let mut orig = MonolithicRuntime::original(standard_registry());
        let r = run(&mut orig, &cfg);
        assert!(r.completed < 4, "original dies mid-batch");
        assert!(!orig.kernel.is_running(orig.host_pid()));

        for (name, policy) in crate::freepart_policies() {
            check_dos_is_contained(name, policy);
        }
    }

    /// A recorded DoS run replays from its commit log alone: every input
    /// is staged through the logged `fs_put`.
    #[test]
    fn recorded_dos_run_replays_digest_clean() {
        let cfg = OmrConfig {
            samples: 4,
            boxes_per_sample: 2,
            evil_sample: Some((1, freepart_attacks::payloads::dos("CVE-2017-14136"))),
            evil_imshow: None,
        };
        let mut rt = Runtime::install(standard_registry(), Policy::freepart_recorded());
        let r = run(&mut rt, &cfg);
        assert_eq!(r.completed, 3);
        let live = rt.kernel.state_digest();
        let log = rt.kernel.take_commit_log().expect("recording was on");
        let (rebuilt, report) = freepart_simos::replay::replay(&log);
        assert!(
            report.is_clean(),
            "{} divergences, first: {:?}",
            report.divergences.len(),
            report.divergences.first()
        );
        assert_eq!(rebuilt.state_digest(), live, "same final digest");
    }
}
