//! Property tests of the framework layer: decode fuzzing, random
//! pipeline chains through the executor, taint-propagation
//! monotonicity, and the object store's stateful index.

use freepart_frameworks::api::{ApiKind, ApiType};
use freepart_frameworks::exec::execute;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{
    fileio, image::Image, ApiCtx, ExploitAction, ExploitPayload, ObjectId, ObjectKind, ObjectStore,
    Value,
};
use freepart_simos::Kernel;
use proptest::prelude::*;

/// Header fields a crafted file would pick: zero, one, the sizes whose
/// products wrap `u32` or `usize`, and random values.
fn edge_u32() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(1),
        Just(2),
        Just(255),
        Just(1 << 16),
        Just(1 << 21),
        Just(1 << 22),
        Just(1 << 31),
        Just(u32::MAX),
        any::<u32>(),
    ]
}

/// Half uniform garbage. Half a crafted file: a `SIMG` or `STSR` magic
/// (the tensor's rank as drawn, or the count of dims that follow);
/// header fields from [`edge_u32`], or all small so that some files
/// decode; a body of random length; then no trailer, a well-formed
/// `EVIL` trailer, or one whose length field is an edge value.
fn arb_file() -> impl Strategy<Value = Vec<u8>> {
    let crafted = (
        0u8..3,
        prop_oneof![
            proptest::collection::vec(edge_u32(), 0..6),
            proptest::collection::vec(1u32..5, 0..6),
        ],
        proptest::collection::vec(any::<u8>(), 0..256),
        0u8..3,
        (edge_u32(), proptest::collection::vec(any::<u8>(), 0..64)),
    )
        .prop_map(|(magic, fields, body, trailer, (evil_len, evil))| {
            let mut out = match magic {
                0 => b"SIMG".to_vec(),
                1 => b"STSR".to_vec(),
                _ => [*b"STSR", (fields.len() as u32).to_le_bytes()].concat(),
            };
            for f in &fields {
                out.extend_from_slice(&f.to_le_bytes());
            }
            out.extend_from_slice(&body);
            match trailer {
                0 => {}
                1 => {
                    let wire = ExploitPayload {
                        cve: "CVE-2017-12597".into(),
                        actions: vec![ExploitAction::CrashSelf],
                    }
                    .to_wire_bytes();
                    out.extend_from_slice(b"EVIL");
                    out.extend_from_slice(&(wire.len() as u32).to_le_bytes());
                    out.extend_from_slice(&wire);
                }
                _ => {
                    out.extend_from_slice(b"EVIL");
                    out.extend_from_slice(&evil_len.to_le_bytes());
                    out.extend_from_slice(&evil);
                }
            }
            out
        });
    prop_oneof![proptest::collection::vec(any::<u8>(), 0..512), crafted]
}

/// No decoder panics, and what decodes is self-consistent: an image has
/// every dimension at least 1 and exactly `w·h·ch` bytes, a tensor a
/// rank and every dimension at least 1 and exactly `Π dims` elements
/// (products in `u128`, which three `u32` factors cannot wrap; a longer
/// tensor product is checked).
fn check_decoders(bytes: &[u8]) {
    if let Ok((img, _)) = fileio::decode_image(bytes) {
        prop_assert!(img.w >= 1 && img.h >= 1 && img.ch >= 1);
        prop_assert_eq!(
            img.data.len() as u128,
            u128::from(img.w) * u128::from(img.h) * u128::from(img.ch)
        );
    }
    if let Ok((t, _)) = fileio::decode_tensor(bytes) {
        prop_assert!(!t.shape.is_empty() && t.shape.iter().all(|&d| d >= 1));
        let elems = t
            .shape
            .iter()
            .try_fold(1u128, |n, &d| n.checked_mul(u128::from(d)));
        prop_assert_eq!(Some(t.data.len() as u128), elems);
    }
    let _ = fileio::scan_payload(bytes);
    let _ = fileio::decode_csv(bytes);
}

proptest! {
    /// The file decoders must never panic on arbitrary or crafted bytes
    /// — crafted inputs are the threat model's entry point — and never
    /// return an object of impossible geometry.
    #[test]
    fn decoders_never_panic_on_garbage(bytes in arb_file()) {
        check_decoders(&bytes);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// [`decoders_never_panic_on_garbage`] over 4096 cases; run in
    /// release with `--ignored`.
    #[test]
    #[ignore]
    fn decoders_never_panic_on_garbage_deep(bytes in arb_file()) {
        check_decoders(&bytes);
    }
}
