//! The layer-isolation pass: each layer timed alone on the inputs a
//! workload actually used. A recorded sample session supplies them:
//! its commit log holds every kernel op (folded again through
//! `Kernel::apply` on a non-recording kernel, one timing per op class)
//! and every RPC frame the call plane sent (decoded and re-encoded at
//! the observed median and p99 sizes).

use crate::session::{Analysis, Session};
use crate::stats::{median, ratio};
use freepart::rpc::{BatchRequest, BatchResponse, Request, Response};
use freepart::runtime::transport::{EAGER, LAZY, SHM};
use freepart::{Policy, PoolConfig, RuntimeStats, Tracer, Transport, TransportCtx};
use freepart_analysis::TestCorpus;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{ObjectKind, ObjectStore};
use freepart_simos::replay::replay;
use freepart_simos::{CommitLog, CommitOp, DrrScheduler, Kernel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The RPC frame kinds, in report order.
pub const FRAME_KINDS: [&str; 4] = ["request", "response", "batch_request", "batch_response"];

/// The kernel op classes reported one by one: the six most frequent
/// across the four workloads' recorded samples.
pub const STEP_CLASSES: [&str; 6] = [
    "protect",
    "ipc_send",
    "ipc_recv",
    "charge_compute",
    "mem_write",
    "advance_timeline",
];

/// Codec timings of one frame kind: `[encode p50, encode p99, decode
/// p50, decode p99]` in ns, at the kind's p50 and p99 frame size.
pub type Codec = [f64; 4];

#[derive(Debug, Default)]
pub struct Layers {
    pub categorize_ms: f64,
    pub steps_per_call: f64,
    pub ref_steps_per_call: f64,
    pub step_ns_mean: f64,
    pub step_ns: BTreeMap<&'static str, f64>,
    pub replay_ns_per_record: f64,
    pub frame_bytes: (f64, f64),
    pub codec: BTreeMap<&'static str, Codec>,
    /// Encode + decode of every frame the sample sent, per hooked call.
    pub rpc_ns_per_call: f64,
    /// `[lazy, eager, shm]` delivery of one median-size payload.
    pub move_ns: [f64; 3],
    pub admit_us_per_tenant: f64,
    /// One dequeue plus one enqueue with every tenant queued.
    pub drr_op_ns: f64,
}

/// Median wall ns per iteration of `f` over five repetitions of `iters`
/// iterations each.
fn per_iter_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut reps: Vec<u64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    median(&mut reps) / f64::from(iters)
}

/// The cost of one `Instant::now()` pair, subtracted from per-op
/// timings.
fn timer_overhead_ns() -> u64 {
    let mut t: Vec<u64> = (0..1001)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    median(&mut t) as u64
}

/// Folds `log` through `Kernel::apply` on a fresh non-recording kernel,
/// three times; returns the median total ns and the median ns per op
/// class.
fn fold(log: &CommitLog) -> (f64, BTreeMap<&'static str, f64>) {
    let overhead = timer_overhead_ns();
    let mut totals = Vec::new();
    let mut per_class: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for _ in 0..3 {
        let ops: Vec<CommitOp> = log.records().iter().map(|r| r.op.clone()).collect();
        let mut k = Kernel::with_cost_model(log.genesis().clone());
        let mut class: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut total = 0;
        for op in ops {
            let name = op.name();
            let t0 = Instant::now();
            let _ = black_box(k.apply(op));
            let dt = (t0.elapsed().as_nanos() as u64).saturating_sub(overhead);
            let e = class.entry(name).or_default();
            e.0 += 1;
            e.1 += dt;
            total += dt;
        }
        totals.push(total);
        for (name, (n, ns)) in class {
            per_class.entry(name).or_default().push(ns / n);
        }
    }
    let per_class = per_class
        .into_iter()
        .map(|(name, mut v)| (name, median(&mut v)))
        .collect();
    (median(&mut totals), per_class)
}

/// Nearest-rank element of a sorted slice.
fn rank<T>(sorted: &[T], p: f64) -> &T {
    &sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Encode and decode ns of one frame of `kind`.
fn codec_ns(frame: &[u8], kind: &str) -> (f64, f64) {
    const N: u32 = 2_000;
    match kind {
        "request" => {
            let f = Request::decode(frame).expect("classified");
            (
                per_iter_ns(N, || drop(black_box(f.encode()))),
                per_iter_ns(N, || drop(black_box(Request::decode(frame)))),
            )
        }
        "response" => {
            let f = Response::decode(frame).expect("classified");
            (
                per_iter_ns(N, || drop(black_box(f.encode()))),
                per_iter_ns(N, || drop(black_box(Response::decode(frame)))),
            )
        }
        "batch_request" => {
            let f = BatchRequest::decode(frame).expect("classified");
            (
                per_iter_ns(N, || drop(black_box(f.encode()))),
                per_iter_ns(N, || drop(black_box(BatchRequest::decode(frame)))),
            )
        }
        _ => {
            let f = BatchResponse::decode(frame).expect("classified");
            (
                per_iter_ns(N, || drop(black_box(f.encode()))),
                per_iter_ns(N, || drop(black_box(BatchResponse::decode(frame)))),
            )
        }
    }
}

fn frame_kind(frame: &[u8]) -> Option<&'static str> {
    if Request::decode(frame).is_some() {
        Some("request")
    } else if Response::decode(frame).is_some() {
        Some("response")
    } else if BatchRequest::decode(frame).is_some() {
        Some("batch_request")
    } else if BatchResponse::decode(frame).is_some() {
        Some("batch_response")
    } else {
        None
    }
}

/// Median wall ns of delivering a fresh `bytes`-long payload from one
/// agent to another through `t`.
fn move_ns(t: &dyn Transport, bytes: usize) -> f64 {
    let mut kernel = Kernel::new();
    let mut objects = ObjectStore::new();
    let mut stats = RuntimeStats::default();
    let mut tracer = Tracer::new();
    let host = kernel.spawn("host");
    let (a, b) = (kernel.spawn("agent:a"), kernel.spawn("agent:b"));
    let data = vec![7u8; bytes];
    let mut samples: Vec<u64> = (0..200u64)
        .map(|seq| {
            let obj = objects
                .create_with_data(&mut kernel, a, ObjectKind::Blob, "payload", &data)
                .expect("agent alive");
            let mut ctx = TransportCtx {
                kernel: &mut kernel,
                objects: &mut objects,
                stats: &mut stats,
                tracer: &mut tracer,
                host,
                seq,
                penalty: 1,
            };
            let t0 = Instant::now();
            t.deliver(&mut ctx, obj, b).expect("delivery succeeds");
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    median(&mut samples)
}

/// Runs the pass on a recorded sample session of a workload serving
/// `tenants` tenants (0 for the single-client workloads).
pub fn measure(a: &Analysis, sample: &Session, tenants: u32) -> Layers {
    let (fp, reference) = sample.logs.as_ref().expect("sample session was recorded");
    let calls = sample.calls as f64;
    let mut l = Layers {
        steps_per_call: ratio(fp.len() as f64, calls),
        ref_steps_per_call: ratio(reference.len() as f64, sample.ref_lat_ns.len() as f64),
        ..Layers::default()
    };

    let reg = standard_registry();
    let corpus = TestCorpus::full(&reg);
    let mut t: Vec<u64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(freepart_analysis::categorize(&reg, &corpus));
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    l.categorize_ms = median(&mut t) / 1e6;

    let (total, per_class) = fold(fp);
    l.step_ns_mean = ratio(total, fp.len() as f64);
    l.step_ns = per_class;

    let t0 = Instant::now();
    let (_, report) = replay(fp);
    l.replay_ns_per_record = ratio(t0.elapsed().as_nanos() as f64, report.steps as f64);

    // RPC frames as sent, by kind. Batch frames also lend their members
    // to the request and response samples, and a workload that never
    // batches gets batches cut from its own frames at the default window,
    // so every codec is timed on the workload's data.
    let mut sent: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut sent_bytes = Vec::new();
    let mut samples: BTreeMap<&'static str, Vec<Vec<u8>>> = BTreeMap::new();
    let mut copy_bytes = Vec::new();
    for rec in fp.records() {
        match &rec.op {
            CommitOp::IpcSend { payload, .. } => {
                let Some(kind) = frame_kind(payload) else {
                    continue;
                };
                *sent.entry(kind).or_default() += 1;
                sent_bytes.push(payload.len() as u64);
                samples.entry(kind).or_default().push(payload.clone());
                let members = match kind {
                    "batch_request" => {
                        BatchRequest::decode(payload).map(|b| ("request", b.members))
                    }
                    "batch_response" => {
                        BatchResponse::decode(payload).map(|b| ("response", b.members))
                    }
                    _ => None,
                };
                if let Some((member_kind, members)) = members {
                    samples.entry(member_kind).or_default().extend(members);
                }
            }
            CommitOp::ChargeCopy { bytes } => copy_bytes.push(*bytes),
            _ => {}
        }
    }
    for (batch, single) in [("batch_request", "request"), ("batch_response", "response")] {
        if samples.contains_key(batch) {
            continue;
        }
        let cut: Vec<Vec<u8>> = samples.get(single).map_or(Vec::new(), |frames| {
            frames
                .chunks(Policy::DEFAULT_BATCH_WINDOW)
                .map(|c| match batch {
                    "batch_request" => BatchRequest {
                        members: c.to_vec(),
                    }
                    .encode(),
                    _ => BatchResponse {
                        members: c.to_vec(),
                    }
                    .encode(),
                })
                .collect()
        });
        samples.insert(batch, cut);
    }
    sent_bytes.sort_unstable();
    if !sent_bytes.is_empty() {
        l.frame_bytes = (
            *rank(&sent_bytes, 0.5) as f64,
            *rank(&sent_bytes, 0.99) as f64,
        );
    }
    let mut rpc_ns = 0.0;
    for (kind, mut list) in samples {
        if list.is_empty() {
            continue;
        }
        list.sort_by_key(Vec::len);
        let (enc50, dec50) = codec_ns(rank(&list, 0.5).as_slice(), kind);
        let (enc99, dec99) = codec_ns(rank(&list, 0.99).as_slice(), kind);
        l.codec.insert(kind, [enc50, enc99, dec50, dec99]);
        rpc_ns += sent.get(kind).copied().unwrap_or(0) as f64 * (enc50 + dec50);
    }
    l.rpc_ns_per_call = ratio(rpc_ns, calls);

    let payload = if copy_bytes.is_empty() {
        1024
    } else {
        median(&mut copy_bytes) as usize
    };
    l.move_ns = [
        move_ns(&LAZY, payload),
        move_ns(&EAGER, payload),
        move_ns(&SHM, payload),
    ];

    // The pool layers at the workload's tenant count; the single-client
    // workloads, which bypass them, get a pool of 100 tenants.
    let tenants = if tenants == 0 { 100 } else { tenants };
    let mut rt = a.install(Policy::freepart_pooled());
    let t0 = Instant::now();
    for _ in 0..tenants {
        black_box(rt.spawn_tenant());
    }
    l.admit_us_per_tenant = t0.elapsed().as_nanos() as f64 / 1e3 / f64::from(tenants);
    let mut drr = DrrScheduler::new(PoolConfig::default().quantum);
    for t in 0..tenants {
        drr.enqueue(0, t, u64::from(t), 1);
    }
    l.drr_op_ns = per_iter_ns(100_000, || {
        let (t, tag) = drr.dequeue(0).expect("queue stays full");
        drr.enqueue(0, t, tag, 1);
    });
    l
}
