//! Metric assembly from measured sessions. The names and units here are
//! the ones `BENCHMARK.json` declares; the tests check the two agree.

use crate::layers::{Layers, FRAME_KINDS, STEP_CLASSES};
use crate::session::{Counters, Session};
use crate::stats::{median, quantile, ratio};
use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarizes, when it is an order
    /// statistic or a ratio over counted events.
    pub samples: Option<u64>,
}

/// Span names every workload records; the spans around the runtime's
/// own entry points differ per workload and are summed as `runtime`.
pub const COMMON_SPANS: [&str; 5] = ["session", "setup", "stage", "reference", "check"];

/// Sessions of one kind folded together.
#[derive(Debug, Default)]
pub struct Agg {
    pub sessions: u64,
    pub setup_ns: Vec<u64>,
    pub install_ns: Vec<u64>,
    pub serve_ns: u64,
    pub calls: u64,
    pub lat_ns: Vec<u64>,
    pub virt_lat_ns: Vec<u64>,
    pub virt_ns: u64,
    pub ref_virt_ns: u64,
    pub ref_serve_ns: u64,
    pub ref_calls: u64,
    /// Per session, in millionths: serving time over the reference's,
    /// and the median and 99th percentile over calls of each call's
    /// wall latency over its reference twin's.
    pub slowdown: Vec<u64>,
    pub rel_p50: Vec<u64>,
    pub rel_p99: Vec<u64>,
    pub counters: Counters,
}

impl Agg {
    pub fn add(&mut self, s: &Session) {
        self.sessions += 1;
        self.setup_ns.push(s.setup_ns);
        self.install_ns.push(s.install_ns);
        self.serve_ns += s.serve_ns;
        self.calls += s.calls;
        self.lat_ns.extend_from_slice(&s.lat_ns);
        self.virt_lat_ns.extend_from_slice(&s.virt_lat_ns);
        self.virt_ns += s.virt_ns;
        self.ref_virt_ns += s.ref_virt_ns;
        self.ref_serve_ns += s.ref_serve_ns;
        self.ref_calls += s.ref_lat_ns.len() as u64;
        let pairs = s.lat_ns.iter().zip(&s.ref_lat_ns);
        let mut rel: Vec<u64> = pairs.map(|(&l, &r)| l * 1_000_000 / r.max(1)).collect();
        self.slowdown
            .push(s.serve_ns * 1_000_000 / s.ref_serve_ns.max(1));
        self.rel_p50.push(quantile(&mut rel, 0.5) as u64);
        self.rel_p99.push(quantile(&mut rel, 0.99) as u64);
        self.counters.add(&s.counters);
    }

    /// Wall µs per hooked call over the serving phases.
    fn us_per_call(&self) -> f64 {
        ratio(self.serve_ns as f64 / 1e3, self.calls as f64)
    }

    /// Wall µs per call of the reference scheme on the same streams.
    fn ref_us_per_call(&self) -> f64 {
        ratio(self.ref_serve_ns as f64 / 1e3, self.ref_calls as f64)
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &str, unit: &'static str, value: f64, samples: Option<u64>) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
        samples,
    }
}

/// The end-to-end metrics, and absolute wall-clock figures printed
/// beside them. Wall clock comes from `wall` (every measured session but
/// the warm-up) as ratios to the reference scheme serving the same
/// stream in the same session, which cancel the machine's speed; the
/// median over sessions keeps a burst of interference from moving them.
/// Virtual time comes from `virt` (the fixed session prefix, identical
/// for a given seed). `rss_mb` is the peak resident set read when the
/// prefix ended.
pub fn end_to_end(wall: &mut Agg, virt: &mut Agg, rss_mb: f64) -> (Vec<Metric>, Vec<Metric>) {
    let n = Some(wall.lat_ns.len() as u64);
    let vn = Some(virt.virt_lat_ns.len() as u64);
    let p50 = quantile(&mut wall.lat_ns, 0.5);
    let p99 = quantile(&mut wall.lat_ns, 0.99);
    let metrics = vec![
        metric(
            "setup_s",
            "s",
            median(&mut wall.setup_ns) / 1e9,
            Some(wall.sessions),
        ),
        metric(
            "wall_slowdown_x",
            "x",
            median(&mut wall.slowdown) / 1e6,
            Some(wall.sessions),
        ),
        metric("call_p50_x", "x", median(&mut wall.rel_p50) / 1e6, n),
        metric("call_p99_x", "x", median(&mut wall.rel_p99) / 1e6, n),
        metric(
            "virtual_overhead_pct",
            "%",
            100.0
                * ratio(
                    virt.virt_ns as f64 - virt.ref_virt_ns as f64,
                    virt.ref_virt_ns as f64,
                ),
            Some(virt.calls),
        ),
        metric(
            "virtual_call_p50_us",
            "us",
            quantile(&mut virt.virt_lat_ns, 0.5) / 1e3,
            vn,
        ),
        metric(
            "virtual_call_p99_us",
            "us",
            quantile(&mut virt.virt_lat_ns, 0.99) / 1e3,
            vn,
        ),
        metric(
            "virtual_calls_per_s",
            "calls/s",
            ratio(virt.calls as f64 * 1e9, virt.virt_ns as f64),
            Some(virt.calls),
        ),
        metric("peak_rss_mb", "MB", rss_mb, None),
    ];
    let absolute = vec![
        metric(
            "calls_per_s",
            "calls/s",
            ratio(wall.calls as f64 * 1e9, wall.serve_ns as f64),
            n,
        ),
        metric("call_p50_us", "us", p50 / 1e3, n),
        metric("call_p99_us", "us", p99 / 1e3, n),
        metric(
            "reference_us_per_call",
            "us",
            wall.ref_us_per_call(),
            Some(wall.ref_calls),
        ),
    ];
    (metrics, absolute)
}

/// What the traced run measured.
pub struct Traced<'a> {
    /// Sessions with no tracing at all.
    pub plain: &'a Agg,
    /// Sessions with bench-side spans on.
    pub spanned: &'a Agg,
    /// Sessions with the runtime's own tracer on.
    pub rt_traced: &'a Agg,
    /// Self ns per span name, over the spanned sessions.
    pub self_ns: &'a BTreeMap<&'static str, u64>,
    pub layers: &'a Layers,
}

/// The per-layer metrics, and the self time of every span name printed
/// beside them. Counts come from the untraced sessions, layer timings
/// from the isolation pass. Every timing is measured on every workload;
/// what only some workloads have is a count or a share, which may be 0.
pub fn per_layer(t: &Traced) -> (Vec<Metric>, Vec<Metric>) {
    let p = t.plain;
    let c = &p.counters;
    let l = t.layers;
    let calls = p.calls as f64;
    let per_call = |x: u64| ratio(x as f64, calls);
    let n = Some(p.calls);
    let pct = |a: f64, b: f64| 100.0 * ratio(a - b, b);
    let ref_call_us = p.ref_us_per_call();
    let mut m = vec![
        metric("analysis.categorize_ms", "ms", l.categorize_ms, Some(3)),
        metric(
            "runtime.install_ms",
            "ms",
            median(&mut p.install_ns.clone()) / 1e6,
            Some(p.sessions),
        ),
        metric(
            "pool.admit_us_per_tenant",
            "us",
            l.admit_us_per_tenant,
            None,
        ),
        metric(
            "frameworks.compute_us_per_call",
            "us",
            ref_call_us,
            Some(p.ref_calls),
        ),
        metric(
            "callplane.isolation_us_per_call",
            "us",
            p.us_per_call() - ref_call_us,
            n,
        ),
        metric(
            "callplane.service_us_per_call",
            "us",
            ratio(c.service_ns as f64 / 1e3, c.services as f64),
            Some(c.services),
        ),
        metric("callplane.frames_per_call", "count", per_call(c.frames), n),
        metric(
            "callplane.calls_per_batch",
            "count",
            ratio(c.calls_batched as f64, c.batches as f64),
            Some(c.batches),
        ),
        metric("rpc.frame_bytes_p50", "bytes", l.frame_bytes.0, None),
        metric("rpc.frame_bytes_p99", "bytes", l.frame_bytes.1, None),
    ];
    for kind in FRAME_KINDS {
        let codec = l.codec.get(kind).copied().unwrap_or_default();
        let names = [
            "encode_ns_p50",
            "encode_ns_p99",
            "decode_ns_p50",
            "decode_ns_p99",
        ];
        for (what, v) in names.iter().zip(codec) {
            m.push(metric(&format!("rpc.{kind}.{what}"), "ns", v, None));
        }
    }
    m.extend([
        metric(
            "temporal.transitions_per_call",
            "count",
            per_call(c.transitions),
            n,
        ),
        metric(
            "temporal.pages_per_transition",
            "count",
            ratio(c.protected_pages as f64, c.transitions as f64),
            Some(c.transitions),
        ),
        metric(
            "objstore.live_objects",
            "count",
            ratio(c.live_objects as f64, p.sessions as f64),
            Some(p.sessions),
        ),
        metric(
            "transport.bytes_per_call",
            "bytes",
            per_call(c.moved_bytes),
            n,
        ),
        metric("transport.copies_per_call", "count", per_call(c.copies), n),
        metric(
            "transport.shm_grants_per_call",
            "count",
            per_call(c.shm_grants),
            n,
        ),
        metric("transport.move_ns.lazy", "ns", l.move_ns[0], None),
        metric("transport.move_ns.eager", "ns", l.move_ns[1], None),
        metric("transport.move_ns.shm", "ns", l.move_ns[2], None),
        metric(
            "controller.decisions",
            "count",
            ratio(c.decisions as f64, p.sessions as f64),
            Some(p.sessions),
        ),
        metric(
            "controller.changed_frac",
            "fraction",
            ratio(c.decisions_changed as f64, c.decisions as f64),
            Some(c.decisions),
        ),
        metric(
            "trace.overhead_pct",
            "%",
            pct(t.rt_traced.us_per_call(), p.us_per_call()),
            Some(t.rt_traced.calls),
        ),
        metric(
            "trace.bench_spans_overhead_pct",
            "%",
            pct(t.spanned.us_per_call(), p.us_per_call()),
            Some(t.spanned.calls),
        ),
        metric(
            "pool.queue_wait_pct",
            "%",
            100.0 * ratio(c.queue_wait_ns as f64, p.lat_ns.iter().sum::<u64>() as f64),
            n,
        ),
        metric("sched.drr_op_ns", "ns", l.drr_op_ns, None),
        metric("simos.steps_per_call", "count", l.steps_per_call, None),
        metric("simos.step_ns_mean", "ns", l.step_ns_mean, None),
    ]);
    for class in STEP_CLASSES {
        m.push(metric(
            &format!("simos.step_ns.{class}"),
            "ns",
            l.step_ns.get(class).copied().unwrap_or(0.0),
            None,
        ));
    }
    let digest_us = ratio(c.digest_ns as f64 / 1e3, p.sessions as f64);
    let digests_per_call = per_call(c.digests);
    // Replays of full sessions when the workload has them, else the
    // isolation pass's replay of the recorded sample.
    let replay_ns = if c.replay_records > 0 {
        ratio(c.replay_ns as f64, c.replay_records as f64)
    } else {
        l.replay_ns_per_record
    };
    m.extend([
        metric("simos.digest_us", "us", digest_us, Some(p.sessions)),
        metric("simos.digests_per_call", "count", digests_per_call, n),
        metric("replay.ns_per_record", "ns", replay_ns, None),
        metric(
            "replay.records_per_s",
            "records/s",
            ratio(1e9, replay_ns),
            None,
        ),
    ]);
    let spanned = Some(t.spanned.calls);
    let self_us = |ns: u64| ratio(ns as f64 / 1e3, t.spanned.calls as f64);
    for name in COMMON_SPANS {
        let ns = t.self_ns.get(name).copied().unwrap_or(0);
        let name = format!("span.{name}.self_us_per_call");
        m.push(metric(&name, "us", self_us(ns), spanned));
    }
    let runtime_ns = t
        .self_ns
        .iter()
        .filter(|(name, _)| !COMMON_SPANS.contains(name))
        .map(|(_, ns)| ns)
        .sum();
    m.push(metric(
        "span.runtime.self_us_per_call",
        "us",
        self_us(runtime_ns),
        spanned,
    ));
    // Reconciliation: disjoint layer costs times their observed counts,
    // as shares of the measured wall µs per call. Framework compute is
    // the reference scheme's per-call wall (its own kernel steps
    // included), so only FreePart's extra kernel steps count as kernel.
    let measured = p.us_per_call();
    let queued = if c.queue_wait_ns > 0 { 1.0 } else { 0.0 };
    let terms = [
        ("compute_pct", ref_call_us),
        (
            "kernel_pct",
            (l.steps_per_call - l.ref_steps_per_call).max(0.0) * l.step_ns_mean / 1e3,
        ),
        ("digest_pct", digests_per_call * digest_us),
        ("rpc_pct", l.rpc_ns_per_call / 1e3),
        ("sched_pct", queued * l.drr_op_ns / 1e3),
    ];
    let model: f64 = terms.iter().map(|(_, us)| us).sum();
    for (name, us) in terms {
        let share = 100.0 * ratio(us, measured);
        m.push(metric(&format!("reconcile.{name}"), "%", share, None));
    }
    m.extend([
        metric("reconcile.model_us", "us", model, None),
        metric("reconcile.measured_us", "us", measured, n),
        metric(
            "reconcile.residual_pct",
            "%",
            100.0 * ratio(measured - model, measured),
            None,
        ),
    ]);
    let by_span = t
        .self_ns
        .iter()
        .map(|(name, &ns)| {
            metric(
                &format!("span.{name}.self_us_per_call"),
                "us",
                self_us(ns),
                spanned,
            )
        })
        .collect();
    (m, by_span)
}
