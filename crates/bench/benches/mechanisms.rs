//! Criterion micro-benchmarks of the mechanisms the evaluation tables
//! rest on: ring-buffer IPC, hook marshalling, lazy vs eager data
//! movement, temporal-permission transitions, filter evaluation, and
//! end-to-end application runs per isolation scheme.
//!
//! These measure *wall-clock* cost of the simulation itself (the tables
//! report virtual time); they exist so regressions in the substrate are
//! caught and so the ablations' relative costs are visible on real
//! hardware too.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use freepart::{state, Policy, Runtime, TemporalPlane, ThreadId};
use freepart_apps::omr::{self, OmrConfig};
use freepart_baselines::{build, SchemeKind};
use freepart_frameworks::api::ApiType;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, ObjectKind, ObjectStore, Value};
use freepart_simos::{Kernel, Perms, SyscallFilter, SyscallNo};

fn bench_ipc_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("ipc_ring");
    for &size in &[64usize, 4096, 65536] {
        group.bench_with_input(BenchmarkId::new("roundtrip", size), &size, |b, &size| {
            let mut kernel = Kernel::new();
            let a = kernel.spawn("a");
            let bb = kernel.spawn("b");
            let chan = kernel.create_channel(a, bb, 1 << 22).unwrap();
            let payload = vec![7u8; size];
            b.iter(|| {
                kernel.ipc_send(a, chan, &payload).unwrap();
                std::hint::black_box(kernel.ipc_recv(bb, chan).unwrap());
            });
        });
    }
    group.finish();
}

fn bench_hook_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("hook_overhead");
    group.sample_size(20);
    // Direct execution (no isolation).
    group.bench_function("direct_exec", |b| {
        let reg = standard_registry();
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("app");
        let mut objects = ObjectStore::new();
        let img = Image::new(16, 16, 3);
        kernel.fs.put("/b.simg", fileio::encode_image(&img, None));
        let imread = reg.id_of("cv2.imread").unwrap();
        b.iter(|| {
            let mut ctx = freepart_frameworks::ApiCtx::new(&mut kernel, &mut objects, pid);
            std::hint::black_box(
                freepart_frameworks::execute(&reg, imread, &[Value::from("/b.simg")], &mut ctx)
                    .unwrap(),
            );
        });
    });
    // Hooked RPC into an agent.
    group.bench_function("hooked_rpc", |b| {
        let mut rt = Runtime::install(standard_registry(), Policy::freepart());
        let img = Image::new(16, 16, 3);
        rt.kernel
            .fs
            .put("/b.simg", fileio::encode_image(&img, None));
        b.iter(|| {
            std::hint::black_box(rt.call("cv2.imread", &[Value::from("/b.simg")]).unwrap());
        });
    });
    group.finish();
}

fn bench_data_movement(c: &mut Criterion) {
    let mut group = c.benchmark_group("data_movement");
    for &size in &[4096usize, 65536] {
        group.bench_with_input(BenchmarkId::new("ldc_direct", size), &size, |b, &size| {
            let mut kernel = Kernel::new();
            let a = kernel.spawn("a");
            let bb = kernel.spawn("b");
            let mut store = ObjectStore::new();
            let id = store
                .create_with_data(&mut kernel, a, ObjectKind::Blob, "x", &vec![1u8; size])
                .unwrap();
            let mut to = bb;
            let mut from = a;
            b.iter(|| {
                store.migrate_direct(&mut kernel, id, to).unwrap();
                std::mem::swap(&mut to, &mut from);
            });
        });
        group.bench_with_input(
            BenchmarkId::new("eager_via_host", size),
            &size,
            |b, &size| {
                let mut kernel = Kernel::new();
                let host = kernel.spawn("host");
                let a = kernel.spawn("a");
                let bb = kernel.spawn("b");
                let mut store = ObjectStore::new();
                let id = store
                    .create_with_data(&mut kernel, a, ObjectKind::Blob, "x", &vec![1u8; size])
                    .unwrap();
                let mut to = bb;
                let mut from = a;
                b.iter(|| {
                    store.migrate_via(&mut kernel, id, host, to).unwrap();
                    std::mem::swap(&mut to, &mut from);
                });
            },
        );
    }
    group.finish();
}

fn bench_temporal_transition(c: &mut Criterion) {
    c.bench_function("temporal_transition_64_objects", |b| {
        b.iter_batched(
            || {
                let mut kernel = Kernel::new();
                let pid = kernel.spawn("p");
                let mut store = ObjectStore::new();
                let mut plane = TemporalPlane::new(true);
                for i in 0..64 {
                    let id = store
                        .create_with_data(
                            &mut kernel,
                            pid,
                            ObjectKind::Blob,
                            &format!("o{i}"),
                            &[0u8; 4096],
                        )
                        .unwrap();
                    plane.define(ThreadId::MAIN, id);
                }
                (kernel, store, plane)
            },
            |(mut kernel, store, mut plane)| {
                for t in [ApiType::DataLoading, ApiType::DataProcessing] {
                    state::observe(&mut plane, ThreadId::MAIN, t, &mut kernel, &store).unwrap();
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_filter_eval(c: &mut Criterion) {
    let mut filter = SyscallFilter::allowing([
        SyscallNo::Openat,
        SyscallNo::Read,
        SyscallNo::Close,
        SyscallNo::Brk,
        SyscallNo::Fstat,
    ]);
    filter.lock();
    let allowed = freepart_simos::Syscall::Read {
        fd: freepart_simos::Fd(3),
        len: 64,
    };
    let denied = freepart_simos::Syscall::Fork;
    c.bench_function("filter_evaluate", |b| {
        b.iter(|| {
            std::hint::black_box(filter.evaluate(&allowed));
            std::hint::black_box(filter.evaluate(&denied));
        });
    });
}

fn bench_omr_per_scheme(c: &mut Criterion) {
    let mut group = c.benchmark_group("omr_end_to_end");
    group.sample_size(10);
    for kind in [
        SchemeKind::Original,
        SchemeKind::LibraryEntire,
        SchemeKind::LibraryPerApi,
        SchemeKind::FreePart,
    ] {
        group.bench_function(kind.name(), |b| {
            b.iter_batched(
                || {
                    let reg = standard_registry();
                    let universe = omr::omr_universe(&reg);
                    build(kind, standard_registry(), &universe)
                },
                |mut surface| {
                    std::hint::black_box(omr::run(surface.as_mut(), &OmrConfig::benign(4)));
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("freepart_ablations");
    group.sample_size(10);
    type PolicyCtor = fn() -> Policy;
    let configs: [(&str, PolicyCtor); 4] = [
        ("full", Policy::freepart),
        ("no_ldc", Policy::without_ldc),
        ("no_temporal", || Policy {
            temporal_protection: false,
            ..Policy::freepart()
        }),
        ("no_sandbox", || Policy {
            sandbox: freepart::SandboxLevel::None,
            ..Policy::freepart()
        }),
    ];
    for (name, mk) in configs {
        group.bench_function(name, |b| {
            b.iter_batched(
                || Runtime::install(standard_registry(), mk()),
                |mut rt| {
                    std::hint::black_box(omr::run(&mut rt, &OmrConfig::benign(4)));
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_mprotect_page_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mprotect_pages");
    for &pages in &[1u64, 16, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(pages), &pages, |b, &pages| {
            let mut kernel = Kernel::new();
            let pid = kernel.spawn("p");
            let addr = kernel
                .alloc(pid, pages * freepart_simos::PAGE_SIZE, Perms::RW)
                .unwrap();
            let mut ro = true;
            b.iter(|| {
                let perms = if ro { Perms::R } else { Perms::RW };
                ro = !ro;
                kernel
                    .protect(pid, addr, pages * freepart_simos::PAGE_SIZE, perms)
                    .unwrap();
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ipc_ring,
    bench_hook_overhead,
    bench_data_movement,
    bench_temporal_transition,
    bench_filter_eval,
    bench_omr_per_scheme,
    bench_ablations,
    bench_mprotect_page_scaling,
);
criterion_main!(benches);
