//! Property-based tests (proptest) over the core data structures and
//! invariants of the substrate and the partitioning machinery.

use freepart_suite::analysis::{classify_flows, reduce_flows};
use freepart_suite::core::PartitionPlan;
use freepart_suite::frameworks::api::ApiType;
use freepart_suite::frameworks::image::{self, Image};
use freepart_suite::frameworks::ir::{FlowOp, Storage};
use freepart_suite::frameworks::tensor::Tensor;
use freepart_suite::frameworks::{fileio, Value};
use freepart_suite::simos::ipc::RingChannel;
use freepart_suite::simos::{AddressSpace, Perms, Pid, SyscallFilter, SyscallNo, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_perms() -> impl Strategy<Value = Perms> {
    prop_oneof![
        Just(Perms::NONE),
        Just(Perms::R),
        Just(Perms::RW),
        Just(Perms::RX),
        Just(Perms::RWX),
    ]
}

proptest! {
    // ------------------------------------------------------------------
    // Memory: reads always return the last write; protection is exact.
    // ------------------------------------------------------------------
    #[test]
    fn mem_write_read_roundtrip(data in proptest::collection::vec(any::<u8>(), 1..8192),
                                offset in 0u64..4096) {
        let mut asp = AddressSpace::new();
        let base = asp.alloc(offset + data.len() as u64 + PAGE_SIZE, Perms::RW);
        let addr = base.offset(offset);
        asp.write(addr, &data).unwrap();
        prop_assert_eq!(asp.read(addr, data.len() as u64).unwrap(), data);
    }

    #[test]
    fn mem_protection_is_enforced_exactly(perms in arb_perms(), len in 1u64..3 * PAGE_SIZE) {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(len, Perms::RW);
        asp.write(a, &[1]).unwrap();
        asp.protect(a, len, perms).unwrap();
        prop_assert_eq!(asp.read(a, 1).is_ok(), perms.readable());
        prop_assert_eq!(asp.write(a, &[2]).is_ok(), perms.writable());
        prop_assert_eq!(asp.fetch(a).is_ok(), perms.executable());
    }

    #[test]
    fn mem_allocations_never_overlap(sizes in proptest::collection::vec(1u64..10_000, 1..20)) {
        let mut asp = AddressSpace::new();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for len in sizes {
            let a = asp.alloc(len, Perms::RW);
            for (s, e) in &ranges {
                prop_assert!(a.0 >= *e || a.0 + len <= *s, "overlap");
            }
            ranges.push((a.0, a.0 + len));
        }
    }

    // ------------------------------------------------------------------
    // IPC ring: FIFO per direction, no cross-talk, conservation.
    // ------------------------------------------------------------------
    #[test]
    fn ring_is_fifo_and_conserving(msgs in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 1..32)) {
        let mut chan = RingChannel::new(Pid(1), Pid(2), 1 << 20);
        for m in &msgs {
            chan.send(Pid(1), m.as_slice().into(), 0).unwrap();
        }
        for m in &msgs {
            let got = chan.try_recv(Pid(2)).unwrap().unwrap();
            prop_assert_eq!(&got.payload[..], &m[..]);
        }
        prop_assert!(chan.try_recv(Pid(2)).unwrap().is_none());
        prop_assert!(chan.try_recv(Pid(1)).unwrap().is_none(), "no cross-talk");
    }

    // ------------------------------------------------------------------
    // Filters: merging only widens; evaluation is consistent with the
    // allowlist.
    // ------------------------------------------------------------------
    #[test]
    fn filter_merge_only_widens(
        a in proptest::collection::btree_set(0usize..SyscallNo::ALL.len(), 0..20),
        b in proptest::collection::btree_set(0usize..SyscallNo::ALL.len(), 0..20),
    ) {
        let to_set = |idx: &BTreeSet<usize>| -> Vec<SyscallNo> {
            idx.iter().map(|i| SyscallNo::ALL[*i]).collect()
        };
        let mut fa = SyscallFilter::allowing(to_set(&a));
        let fb = SyscallFilter::allowing(to_set(&b));
        fa.merge(&fb);
        for no in SyscallNo::ALL {
            let in_either = a.iter().any(|i| SyscallNo::ALL[*i] == *no)
                || b.iter().any(|i| SyscallNo::ALL[*i] == *no);
            prop_assert_eq!(fa.allows_number(*no), in_either);
        }
    }

    // ------------------------------------------------------------------
    // Classification: the reduction is idempotent and classification is
    // total; GUI dominance holds.
    // ------------------------------------------------------------------
    #[test]
    fn classification_total_and_reduction_idempotent(
        ops in proptest::collection::btree_set(
            prop_oneof![
                (0usize..4, 0usize..4).prop_map(|(d, s)| {
                    let st = [Storage::Mem, Storage::Gui, Storage::File, Storage::Dev];
                    FlowOp::write(st[d], st[s])
                }),
                (0usize..4).prop_map(|s| {
                    let st = [Storage::Mem, Storage::Gui, Storage::File, Storage::Dev];
                    FlowOp::Read(st[s])
                }),
            ],
            0..12,
        )
    ) {
        let once = reduce_flows(&ops);
        let twice = reduce_flows(&once);
        prop_assert_eq!(&once, &twice, "reduction idempotent");
        let ty = classify_flows(&ops);
        if ops.iter().any(FlowOp::touches_gui) {
            prop_assert_eq!(ty, ApiType::Visualizing);
        }
    }

    // ------------------------------------------------------------------
    // File formats: image/tensor/CSV encodings roundtrip for any data.
    // ------------------------------------------------------------------
    #[test]
    fn image_file_roundtrip(w in 1u32..32, h in 1u32..32, ch in 1u32..4, seed in any::<u64>()) {
        let mut img = Image::new(w, h, ch);
        for (i, b) in img.data.iter_mut().enumerate() {
            *b = (seed.wrapping_mul(i as u64 + 1) % 256) as u8;
        }
        let bytes = fileio::encode_image(&img, None);
        let (back, payload) = fileio::decode_image(&bytes).unwrap();
        prop_assert_eq!(back, img);
        prop_assert!(payload.is_none());
    }

    #[test]
    fn tensor_file_roundtrip(dims in proptest::collection::vec(1u32..8, 1..4), seed in any::<u32>()) {
        let t = Tensor::generate(&dims, |i| (i as f32 + seed as f32 * 0.001).sin());
        let bytes = fileio::encode_tensor(&t, None);
        let (back, _) = fileio::decode_tensor(&bytes).unwrap();
        prop_assert_eq!(back, t);
    }

    // ------------------------------------------------------------------
    // Image algorithms: geometry invariants for all inputs.
    // ------------------------------------------------------------------
    #[test]
    fn filters_preserve_geometry(w in 2u32..24, h in 2u32..24, seed in any::<u64>()) {
        let mut img = Image::new(w, h, 3);
        for (i, b) in img.data.iter_mut().enumerate() {
            *b = (seed.wrapping_add(i as u64 * 37) % 256) as u8;
        }
        for out in [
            image::gaussian_blur(&img),
            image::erode(&img),
            image::dilate(&img),
            image::equalize_hist(&img),
            image::threshold(&img, 100),
            image::flip_horizontal(&img),
        ] {
            prop_assert_eq!((out.w, out.h, out.ch), (w, h, 3));
            prop_assert_eq!(out.data.len(), (w * h * 3) as usize);
        }
        let gray = image::cvt_color_to_gray(&img);
        prop_assert_eq!((gray.w, gray.h, gray.ch), (w, h, 1));
        // Erosion ≤ original ≤ dilation, pointwise (on gray).
        let e = image::erode(&gray);
        let d = image::dilate(&gray);
        for i in 0..gray.data.len() {
            prop_assert!(e.data[i] <= gray.data[i] && gray.data[i] <= d.data[i]);
        }
    }

    #[test]
    fn contours_are_in_bounds(w in 4u32..24, h in 4u32..24, seed in any::<u64>()) {
        let mut img = Image::new(w, h, 1);
        for (i, b) in img.data.iter_mut().enumerate() {
            *b = if seed.wrapping_add(i as u64 * 131).is_multiple_of(5) {
                255
            } else {
                0
            };
        }
        for r in image::find_contours(&img) {
            prop_assert!(r.x + r.w <= w && r.y + r.h <= h, "box out of bounds: {:?}", r);
            prop_assert!(r.w >= 1 && r.h >= 1);
        }
    }

    // ------------------------------------------------------------------
    // Values: wire size is positive and object-reference-sized for
    // objects regardless of payload.
    // ------------------------------------------------------------------
    #[test]
    fn value_wire_size_sane(n in 0usize..4096) {
        prop_assert_eq!(Value::Bytes(vec![0; n]).wire_size(), n as u64 + 4);
        prop_assert_eq!(
            Value::Obj(freepart_suite::frameworks::ObjectId(n as u64)).wire_size(),
            16
        );
    }

    // ------------------------------------------------------------------
    // Partition plans: routing is total and respects overrides; random
    // splits only touch processing APIs.
    // ------------------------------------------------------------------
    #[test]
    fn random_split_only_moves_processing(n in 4u32..26, seed in any::<u64>()) {
        let reg = freepart_suite::frameworks::registry::standard_registry();
        let universe: Vec<_> = reg.iter().map(|s| s.id).collect();
        let plan = PartitionPlan::random_split(&reg, &universe, n, seed);
        prop_assert_eq!(plan.partition_count(), n);
        let four = PartitionPlan::four();
        for spec in reg.iter() {
            let p = plan.partition_of(spec.id, spec.declared_type);
            if spec.declared_type != ApiType::DataProcessing {
                prop_assert_eq!(p, four.partition_of(spec.id, spec.declared_type));
            }
        }
    }
}
