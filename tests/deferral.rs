//! The deferral contract of `ApiSurface::call_deferred` on a bare
//! `Runtime`: a deferred call stays in flight only while the open batch
//! holds it. Every other call retires at once, exactly like `call`, so
//! a traced deferred mission decomposes without double-counting.

use freepart_suite::apps::omr::{self, OmrConfig};
use freepart_suite::baselines::ApiSurface;
use freepart_suite::core::{Policy, Runtime, SpanEvent};
use freepart_suite::frameworks::registry::standard_registry;
use freepart_suite::frameworks::{fileio, image::Image, Value};

#[test]
fn deferred_calls_stay_in_flight_only_inside_an_open_batch() {
    for (name, policy) in [
        ("freepart", Policy::freepart()),
        ("freepart_batched", Policy::freepart_batched()),
    ] {
        let batched = policy.batch_window.is_some();
        let mut rt = Runtime::install(standard_registry(), policy);
        rt.kernel
            .fs_put("/in.simg", fileio::encode_image(&Image::new(8, 8, 3), None));
        let surface: &mut dyn ApiSurface = &mut rt;
        let mut cur = surface
            .call_deferred("cv2.imread", &[Value::from("/in.simg")])
            .unwrap();
        // The load opens a batch of its own under batching.
        assert_eq!(rt.in_flight(), usize::from(batched), "{name}: imread");
        for k in 1..=Policy::DEFAULT_BATCH_WINDOW {
            let surface: &mut dyn ApiSurface = &mut rt;
            cur = surface.call_deferred("cv2.GaussianBlur", &[cur]).unwrap();
            // The blurs fill one batch until the window-full flush
            // retires all of its members.
            let want = if batched && k < Policy::DEFAULT_BATCH_WINDOW {
                k
            } else {
                0
            };
            assert_eq!(rt.in_flight(), want, "{name}: blur {k}");
        }
    }
}

#[test]
fn a_traced_deferred_mission_has_no_overlapping_leaf_spans() {
    for (name, policy) in [
        ("freepart", Policy::freepart()),
        ("without_ldc", Policy::without_ldc()),
    ] {
        let mut rt = Runtime::install(standard_registry(), policy);
        rt.enable_tracing();
        let r = omr::run(&mut rt, &OmrConfig::benign(6));
        assert_eq!(r.completed, 6, "{name}");
        let mut leaves: Vec<&SpanEvent> = rt
            .tracer()
            .events()
            .iter()
            .filter(|e| e.phase.bucket().is_some())
            .collect();
        assert!(!leaves.is_empty(), "{name}: the run was traced");
        leaves.sort_by_key(|e| (e.start_ns, e.end_ns));
        let overlaps = leaves
            .windows(2)
            .filter(|w| w[1].start_ns < w[0].end_ns)
            .count();
        assert_eq!(
            overlaps,
            0,
            "{name}: {overlaps} of {} leaf spans start inside the previous one",
            leaves.len()
        );
    }
}
