//! `pooled_serve` and `pooled_recorded`: N tenants share the four agent
//! pools under `Policy::freepart_pooled()`. Each round every tenant runs
//! the four-call chain of `apps::tenants` on its own seeded frame, calls
//! interleaved by stage as in `run_chains_interleaved`: stage `k` of all
//! tenants is submitted (`tenant_submit`), the pools are drained
//! (`pump_one`), and each tenant redeems its own call (`tenant_wait`).
//! `pooled_recorded` runs the same stream with the commit log on and
//! ends each session with a replay checked against the live digest.

use crate::rng::SplitMix64;
use crate::session::{
    canon, record_reference, same_results, Analysis, Client, Counters, Meter, Opts, Scale, Session,
};
use crate::spans::{Req, Spans};
use freepart::{Policy, Runtime, TenantId};
use freepart_apps::tenants::run_chain_on;
use freepart_baselines::{build, SchemeKind};
use freepart_frameworks::image::Image;
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, ObjectId, Value};
use freepart_simos::replay::replay;

pub const SERVE: &str = "pooled_serve";
pub const RECORDED: &str = "pooled_recorded";

const CHAIN: [&str; 4] = [
    "cv2.imread",
    "cv2.cvtColor",
    "cv2.GaussianBlur",
    "cv2.findContours",
];
/// Tenants per session whose outputs are re-derived on a per-thread
/// agent set (`apps::tenants::run_chain_on`).
const SAMPLED: usize = 4;

/// The seeded input of one session.
struct Stream {
    tenants: u32,
    rounds: u32,
    /// Encoded frame of tenant `t` in round `r`, at `r * tenants + t`.
    frames: Vec<Vec<u8>>,
    sampled: Vec<u32>,
}

fn path(tenant: u32, round: u32) -> String {
    format!("/tenant{tenant}/round{round}.simg")
}

fn stream(name: &str, seed: u64, session: u64, (tenants, rounds): (u32, u32)) -> Stream {
    let mut rng = SplitMix64::for_session(seed, name, session);
    let frames = (0..tenants * rounds)
        .map(|_| {
            let (w, h) = (rng.range(6, 9), rng.range(6, 9));
            let bytes = (0..w * h * 3).map(|_| rng.byte()).collect();
            fileio::encode_image(&Image::from_bytes(w, h, 3, bytes), None)
        })
        .collect();
    let mut order: Vec<u32> = (0..tenants).collect();
    rng.shuffle(&mut order);
    order.truncate(SAMPLED);
    Stream {
        tenants,
        rounds,
        frames,
        sampled: order,
    }
}

impl Stream {
    fn frame(&self, tenant: u32, round: u32) -> &[u8] {
        &self.frames[(round * self.tenants + tenant) as usize]
    }
}

/// One stage of a round on FreePart: stage `api` is submitted for every
/// tenant, the pools are drained, and each tenant redeems its own call.
/// `vals` holds each tenant's argument and receives its result.
/// Per-call wall latencies (`tenant_submit` returning to the end of the
/// `pump_one` that served the call) go to `s.lat_ns` in tenant order.
#[allow(clippy::too_many_arguments)]
fn serve_stage(
    rt: &mut Runtime,
    tenants: &[TenantId],
    vals: &mut [Value],
    api: &str,
    call: u32,
    req: Req,
    s: &mut Session,
    spans: &mut Spans,
) {
    let n = tenants.len();
    let at = |t: usize| Req {
        tenant: t as u32,
        call,
        ..req
    };
    let mut submitted = vec![0u64; n];
    let mut handles = Vec::with_capacity(n);
    for (t, v) in vals.iter().enumerate() {
        let t1 = spans.now();
        let h = rt.tenant_submit(tenants[t], api, std::slice::from_ref(v));
        let t2 = spans.now();
        spans.leaf("tenant_submit", at(t), t1, t2);
        submitted[t] = t2;
        s.calls += 1;
        handles.push(h.map_err(|_| s.failed += 1).ok());
    }
    let first = handles.iter().flatten().map(|h| h.id()).min().unwrap_or(0);
    let mut lat = vec![0u64; n];
    loop {
        let p0 = spans.now();
        let served = rt.pump_one();
        let p1 = spans.now();
        let Some(h) = served else { break };
        let t = (h.id() - first) as usize;
        spans.leaf("pump_one", at(t), p0, p1);
        lat[t] = p1 - submitted[t];
        s.counters.services += 1;
        s.counters.service_ns += p1 - p0;
        s.counters.queue_wait_ns += p0 - submitted[t];
    }
    s.lat_ns.extend(lat);
    for (t, h) in handles.into_iter().enumerate() {
        let t1 = spans.now();
        let v = h.map(|h| rt.tenant_wait(h));
        spans.leaf("tenant_wait", at(t), t1, spans.now());
        vals[t] = match v {
            Some(Ok(v)) => v,
            Some(Err(_)) => {
                s.failed += 1;
                Value::Unit
            }
            None => Value::Unit,
        };
    }
}

/// The same stage on the reference scheme, tenant after tenant.
fn reference_stage(
    c: &mut Client,
    m: &mut Meter,
    spans: &mut Spans,
    vals: &mut [Value],
    api: &str,
) {
    for v in vals {
        *v = c
            .call(m, spans, api, &[std::mem::replace(v, Value::Unit)])
            .unwrap_or(Value::Unit);
    }
}

pub fn session(
    a: &Analysis,
    recorded: bool,
    seed: u64,
    index: u64,
    scale: &Scale,
    opts: Opts,
    spans: &mut Spans,
) -> Session {
    let name = if recorded { RECORDED } else { SERVE };
    let stream = stream(
        name,
        seed,
        index,
        if recorded {
            scale.recorded
        } else {
            scale.pooled
        },
    );
    let (n, rounds) = (stream.tenants, stream.rounds);
    let req = Req {
        session: index as u32,
        ..Req::default()
    };
    let mut s = Session::default();
    spans.open("session", req);

    spans.open("setup", req);
    let t0 = spans.now();
    let mut rt = a.install(Policy {
        record_commits: recorded || opts.record,
        ..Policy::freepart_pooled()
    });
    s.install_ns = spans.now() - t0;
    if opts.runtime_tracing {
        rt.enable_tracing();
    }
    let tenants: Vec<TenantId> = (0..n)
        .map(|t| {
            let t1 = spans.now();
            let id = rt.spawn_tenant();
            spans.leaf("spawn_tenant", Req { tenant: t, ..req }, t1, spans.now());
            id
        })
        .collect();
    let t1 = spans.now();
    for r in 0..rounds {
        for t in 0..n {
            rt.kernel.fs_put(&path(t, r), stream.frame(t, r).to_vec());
        }
    }
    spans.leaf("stage", req, t1, spans.now());
    s.setup_ns = spans.now() - t0;
    spans.close();

    // The reference: the same stream on the Original scheme, one round
    // after each FreePart round so both see the same machine speed. It
    // makes its calls stage by stage, in the order FreePart serves them.
    let mut orig = build(SchemeKind::Original, standard_registry(), &[]);
    if opts.record {
        record_reference(orig.as_mut());
    }
    for r in 0..rounds {
        for t in 0..n {
            orig.kernel_mut()
                .fs_put(&path(t, r), stream.frame(t, r).to_vec());
        }
    }
    let mut m = Meter::new("reference", index);

    let base = rt.kernel.metrics();
    let base_commits = rt.kernel.commit_len();
    let (v0, ref_v0) = (rt.kernel.now_ns(), orig.kernel().now_ns());
    // Per (round, tenant) results on both schemes; sampled payloads.
    let (mut results, mut want, mut fetched) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..rounds {
        let mut vals: Vec<Value> = (0..n).map(|t| Value::Str(path(t, r))).collect();
        let mut ref_vals = vals.clone();
        let mut blurred = Vec::new();
        let t0 = spans.now();
        for (k, api) in CHAIN.into_iter().enumerate() {
            let call = r * CHAIN.len() as u32 + k as u32;
            serve_stage(&mut rt, &tenants, &mut vals, api, call, req, &mut s, spans);
            if api == "cv2.GaussianBlur" {
                blurred = vals.iter().map(Value::as_obj).collect();
            }
        }
        for &t in &stream.sampled {
            let t1 = spans.now();
            let obj: Option<ObjectId> = blurred[t as usize];
            let bytes = obj.map(|obj| rt.tenant_fetch(tenants[t as usize], obj));
            spans.leaf("tenant_fetch", Req { tenant: t, ..req }, t1, spans.now());
            fetched.push(match bytes {
                Some(Ok(b)) => b,
                other => {
                    s.errors
                        .push(format!("{name}: tenant{t} fetch failed: {other:?}"));
                    Vec::new()
                }
            });
        }
        let t1 = spans.now();
        let mut c = Client::Sync(orig.as_mut());
        for api in CHAIN {
            reference_stage(&mut c, &mut m, spans, &mut ref_vals, api);
        }
        s.serve_ns += t1 - t0;
        s.ref_serve_ns += spans.now() - t1;
        results.extend(vals.iter().map(canon));
        want.extend(ref_vals.iter().map(canon));
    }
    s.virt_ns = rt.kernel.now_ns() - v0;
    s.ref_virt_ns = orig.kernel().now_ns() - ref_v0;
    s.virt_lat_ns = tenants
        .iter()
        .flat_map(|t| rt.tenant_latencies(*t).iter().copied())
        .collect();
    s.counters = Counters {
        services: s.counters.services,
        service_ns: s.counters.service_ns,
        queue_wait_ns: s.counters.queue_wait_ns,
        ..Counters::of(&rt, &base)
    };
    if opts.probe_digest {
        s.counters.probe_digest(&rt.kernel, spans);
    }

    spans.open("check", req);
    let mut fp_log = None;
    if recorded {
        let t1 = spans.now();
        let live = rt.kernel.state_digest();
        let t2 = spans.now();
        spans.leaf("state_digest", req, t1, t2);
        let log = rt.kernel.take_commit_log().expect("recording was on");
        let t3 = spans.now();
        spans.leaf("take_commit_log", req, t2, t3);
        let (rebuilt, report) = replay(&log);
        let t4 = spans.now();
        spans.leaf("replay", req, t3, t4);
        s.counters.digests = log.len() - base_commits;
        s.counters.replay_records = log.len();
        s.counters.replay_ns = t4 - t3;
        if !report.is_clean() {
            s.errors.push(format!(
                "{name}: replay diverged {} times",
                report.divergences.len()
            ));
        }
        if rebuilt.state_digest() != live {
            s.errors
                .push(format!("{name}: replayed digest differs from the live one"));
        }
        fp_log = Some(log);
    } else if opts.record {
        fp_log = rt.kernel.take_commit_log();
    }
    drop(rt);
    same_results(name, &results, &want, &mut s.errors);
    if let Some(e) = m.failed.first() {
        s.errors.push(format!("{name}: reference failed: {e}"));
    }
    s.ref_lat_ns = m.lat_ns;
    // Sampled tenants against their own per-thread agent set.
    let mut per_thread = a.install(Policy::freepart());
    for (i, &t) in stream.sampled.iter().enumerate() {
        let thread = per_thread.spawn_thread();
        for r in 0..rounds {
            per_thread
                .kernel
                .fs_put(&path(t, r), stream.frame(t, r).to_vec());
            let at = (r * n + t) as usize;
            let bytes = &fetched[r as usize * stream.sampled.len() + i];
            match run_chain_on(&mut per_thread, thread, &path(t, r)) {
                Ok(out) if canon(&out.rects) == results[at] && &out.bytes == bytes => {}
                other => s.errors.push(format!(
                    "{name}: tenant{t} round {r} differs from its per-thread run: {other:?}"
                )),
            }
        }
    }
    spans.close();
    spans.close();

    if opts.record {
        s.logs = fp_log.zip(orig.kernel_mut().take_commit_log());
    }
    s
}
