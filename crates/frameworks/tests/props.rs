//! Property tests of the framework layer: decode fuzzing, random
//! pipeline chains through the executor, taint-propagation
//! monotonicity, and the object store's stateful index.

use freepart_frameworks::api::{ApiKind, ApiType};
use freepart_frameworks::exec::execute;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, ApiCtx, ObjectId, ObjectKind, ObjectStore, Value};
use freepart_simos::Kernel;
use proptest::prelude::*;

proptest! {
    /// The file decoders must never panic on arbitrary bytes — crafted
    /// inputs are the threat model's entry point.
    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = fileio::decode_image(&bytes);
        let _ = fileio::decode_tensor(&bytes);
        let _ = fileio::scan_payload(&bytes);
        let _ = fileio::decode_csv(&bytes);
    }

    /// A truncated valid image never decodes successfully into a
    /// *different* image (no silent corruption).
    #[test]
    fn truncated_images_fail_loudly(w in 1u32..16, h in 1u32..16, cut in 1usize..64) {
        let img = Image::new(w, h, 3);
        let bytes = fileio::encode_image(&img, None);
        let cut = cut.min(bytes.len().saturating_sub(1));
        let truncated = &bytes[..bytes.len() - cut];
        match fileio::decode_image(truncated) {
            Err(_) => {}
            Ok((decoded, _)) => prop_assert_eq!(decoded, img, "same-prefix decode must agree"),
        }
    }

    /// Random chains of unary image filters through the real executor:
    /// every step yields a live Mat, no panics, no leaked faults, and
    /// the process stays alive.
    #[test]
    fn random_filter_chains_execute_cleanly(
        picks in proptest::collection::vec(any::<u16>(), 1..12),
        side in 4u32..24,
    ) {
        let reg = standard_registry();
        let filters: Vec<_> = reg
            .iter()
            .filter(|s| matches!(s.kind, ApiKind::Filter(_)))
            .map(|s| s.id)
            .collect();
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("chain");
        let mut objects = ObjectStore::new();
        kernel.fs.put(
            "/in.simg",
            fileio::encode_image(&Image::new(side, side, 3), None),
        );
        let imread = reg.id_of("cv2.imread").unwrap();
        let mut ctx = ApiCtx::new(&mut kernel, &mut objects, pid);
        let mut cur = execute(&reg, imread, &[Value::from("/in.simg")], &mut ctx).unwrap();
        for p in picks {
            let api = filters[p as usize % filters.len()];
            cur = execute(&reg, api, &[cur], &mut ctx).unwrap();
            let id = cur.as_obj().expect("filters return Mats");
            let meta = ctx.objects.meta(id).expect("live object");
            prop_assert!(!meta.is_empty());
        }
        prop_assert!(ctx.kernel.is_running(pid));
        prop_assert!(ctx.exploit_log.is_empty());
    }

    /// Taint is monotone along filter chains: once malformed content
    /// enters, every derived Mat carries the taint until a vulnerable
    /// API consumes it.
    #[test]
    fn taint_propagates_through_chains(picks in proptest::collection::vec(any::<u16>(), 1..8)) {
        use freepart_frameworks::{ExploitAction, ExploitPayload};
        let reg = standard_registry();
        let filters: Vec<_> = reg
            .iter()
            .filter(|s| matches!(s.kind, ApiKind::Filter(_)) && s.vulns.is_empty())
            .map(|s| s.id)
            .collect();
        let payload = ExploitPayload {
            cve: "CVE-2019-14491".into(), // no filter is vulnerable to it
            actions: vec![ExploitAction::CrashSelf],
        };
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("chain");
        let mut objects = ObjectStore::new();
        kernel.fs.put(
            "/evil.simg",
            fileio::encode_image(&Image::new(8, 8, 3), Some(&payload)),
        );
        let imread = reg.id_of("cv2.imread").unwrap();
        let mut ctx = ApiCtx::new(&mut kernel, &mut objects, pid);
        let mut cur = execute(&reg, imread, &[Value::from("/evil.simg")], &mut ctx).unwrap();
        for p in picks {
            let api = filters[p as usize % filters.len()];
            cur = execute(&reg, api, &[cur], &mut ctx).unwrap();
            let meta = ctx.objects.meta(cur.as_obj().unwrap()).unwrap();
            prop_assert!(meta.taint.is_some(), "taint dropped by {}", reg.spec(api).name);
        }
        prop_assert!(ctx.kernel.is_running(pid), "benign APIs never fire the payload");
    }

    /// The stateful index names exactly the live objects of a stateful
    /// kind, in id order, whatever mix of creations, copies and
    /// destructions built the store.
    #[test]
    fn stateful_index_matches_a_full_scan(
        ops in proptest::collection::vec((0u8..4, 0u8..5, any::<u16>()), 1..40),
    ) {
        let mut kernel = Kernel::new();
        let pids = [kernel.spawn("a"), kernel.spawn("b")];
        let mut store = ObjectStore::new();
        let mut live: Vec<ObjectId> = Vec::new();
        for (op, kind, pick) in ops {
            let kind = match kind {
                0 => ObjectKind::Model { layers: 2 },
                1 => ObjectKind::Capture { frames_read: 0 },
                2 => ObjectKind::Classifier { stages: 3 },
                3 => ObjectKind::Blob,
                _ => ObjectKind::Tensor { shape: vec![2] },
            };
            let pid = pids[usize::from(pick) % 2];
            let target = (!live.is_empty()).then(|| live[usize::from(pick) % live.len()]);
            match (op, target) {
                (0, _) => live.push(store.create_handle(pid, kind, "h")),
                (1, _) => live.push(store.create_with_data(&mut kernel, pid, kind, "d", &[1; 8]).unwrap()),
                (2, Some(id)) => live.push(store.deep_copy_to(&mut kernel, id, pid).unwrap()),
                (3, Some(id)) => {
                    store.destroy(id);
                    live.retain(|x| *x != id);
                }
                _ => {}
            }
            let scan: Vec<ObjectId> =
                store.iter().filter(|m| m.kind.is_stateful()).map(|m| m.id).collect();
            prop_assert_eq!(store.stateful().iter().copied().collect::<Vec<_>>(), scan);
        }
    }

    /// The registry's declared types always agree with the types the
    /// kind-derivation computes, for any subset ordering (registry
    /// integrity under iteration).
    #[test]
    fn registry_type_consistency(sample in proptest::collection::vec(any::<u16>(), 1..30)) {
        use freepart_frameworks::registry::type_of_kind;
        let reg = standard_registry();
        let n = reg.len() as u16;
        for s in sample {
            let spec = reg.spec(freepart_frameworks::ApiId(s % n));
            prop_assert_eq!(spec.declared_type, type_of_kind(&spec.kind));
            // Visualizing APIs are exactly the GUI-kind ones.
            let is_gui = matches!(
                spec.kind,
                ApiKind::ImShow | ApiKind::Window(_) | ApiKind::PlotShow | ApiKind::GuiStateRead
            );
            prop_assert_eq!(spec.declared_type == ApiType::Visualizing, is_gui);
        }
    }
}
