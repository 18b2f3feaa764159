//! What one session of a workload measures, and the client that drives
//! hooked calls through a FreePart runtime or through the reference
//! (unpartitioned Original) scheme.

use crate::rng::SplitMix64;
use crate::spans::{Req, Spans};
use freepart::{CallError, Policy, Runtime};
use freepart_analysis::{HybridReport, SyscallProfile, TestCorpus};
use freepart_baselines::{build, ApiSurface, SchemeKind};
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::Value;
use freepart_simos::{CommitLog, Kernel, Metrics};

/// Session sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::sample`] is the reduced stream recorded for the
/// layer-isolation pass; [`Scale::tiny`] keeps the tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// OMR submissions graded per session.
    pub omr_samples: u32,
    /// Async mix rounds per session (half chatty, half bulk).
    pub mix_rounds: u32,
    /// Tenants and rounds of a `pooled_serve` session.
    pub pooled: (u32, u32),
    /// Tenants and rounds of a `pooled_recorded` session.
    pub recorded: (u32, u32),
}

impl Scale {
    pub const fn full() -> Scale {
        Scale {
            omr_samples: 96,
            mix_rounds: 64,
            pooled: (1000, 6),
            recorded: (200, 4),
        }
    }

    /// Recording charges a state digest per kernel step, so the
    /// recorded sample keeps the stream's shape at a fraction of its
    /// length.
    pub const fn sample(self) -> Scale {
        Scale {
            omr_samples: 16,
            mix_rounds: 16,
            pooled: (50, 2),
            recorded: (50, 2),
        }
    }

    #[cfg(test)]
    pub const fn tiny() -> Scale {
        Scale {
            omr_samples: 3,
            mix_rounds: 4,
            pooled: (6, 2),
            recorded: (4, 2),
        }
    }
}

/// Per-session switches.
#[derive(Debug, Clone, Copy, Default)]
pub struct Opts {
    /// Turn the runtime's own tracer on (`Runtime::enable_tracing`).
    pub runtime_tracing: bool,
    /// Record the kernel commit log of both the FreePart and the
    /// reference run, for the layer-isolation pass.
    pub record: bool,
    /// Time `state_digest` on the live kernel after serving.
    pub probe_digest: bool,
}

/// Counts the runtime and kernel report for one session's serving
/// phase (set-up excluded).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub frames: u64,
    pub transitions: u64,
    pub protected_pages: u64,
    pub copies: u64,
    pub moved_bytes: u64,
    pub shm_grants: u64,
    pub live_objects: u64,
    pub decisions: u64,
    pub decisions_changed: u64,
    pub batches: u64,
    pub calls_batched: u64,
    /// Calls whose service was timed and the wall ns of serving them:
    /// the `pump_one` that served a pooled call, otherwise the call
    /// itself. Pooled calls also wait in a run queue between
    /// `tenant_submit` and that `pump_one`.
    pub services: u64,
    pub service_ns: u64,
    pub queue_wait_ns: u64,
    /// Wall ns of one `state_digest` on the live kernel (median of 3).
    pub digest_ns: u64,
    /// Commit records written while serving (one digest each).
    pub digests: u64,
    /// Records replayed and the wall time the replays took.
    pub replay_records: u64,
    pub replay_ns: u64,
}

impl Counters {
    /// Reads the serving-phase counters of `rt`; `base` is the kernel
    /// metrics snapshot taken when set-up ended.
    pub fn of(rt: &Runtime, base: &Metrics) -> Counters {
        let m = rt.kernel.metrics().since(base);
        let st = rt.stats();
        let decisions = rt.tracer().policy_decisions();
        Counters {
            frames: m.ipc_messages,
            transitions: st.transitions,
            protected_pages: m.protected_pages,
            copies: st.ldc_copies + st.host_copies,
            moved_bytes: m.copied_bytes + m.shm_mapped_bytes,
            shm_grants: m.shm_grants,
            live_objects: rt.objects.len() as u64,
            decisions: decisions.len() as u64,
            decisions_changed: decisions.iter().filter(|d| d.changed).count() as u64,
            batches: rt.tracer().batch_flushes().len() as u64,
            calls_batched: m.calls_batched,
            ..Counters::default()
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.frames += o.frames;
        self.transitions += o.transitions;
        self.protected_pages += o.protected_pages;
        self.copies += o.copies;
        self.moved_bytes += o.moved_bytes;
        self.shm_grants += o.shm_grants;
        self.live_objects += o.live_objects;
        self.decisions += o.decisions;
        self.decisions_changed += o.decisions_changed;
        self.batches += o.batches;
        self.calls_batched += o.calls_batched;
        self.services += o.services;
        self.service_ns += o.service_ns;
        self.queue_wait_ns += o.queue_wait_ns;
        self.digest_ns += o.digest_ns;
        self.digests += o.digests;
        self.replay_records += o.replay_records;
        self.replay_ns += o.replay_ns;
    }

    /// Times `state_digest` three times on the live kernel.
    pub fn probe_digest(&mut self, kernel: &Kernel, spans: &Spans) {
        let mut t: Vec<u64> = (0..3)
            .map(|_| {
                let t0 = spans.now();
                std::hint::black_box(kernel.state_digest());
                spans.now() - t0
            })
            .collect();
        self.digest_ns = crate::stats::median(&mut t) as u64;
    }
}

/// Everything one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Wall ns from the start of install to the first hooked call.
    pub setup_ns: u64,
    /// Wall ns of `Runtime::install_with` alone.
    pub install_ns: u64,
    /// Wall ns of the FreePart serving phase.
    pub serve_ns: u64,
    /// Hooked calls attempted on FreePart, and how many failed.
    pub calls: u64,
    pub failed: u64,
    /// Wall and virtual latency of every FreePart hooked call.
    pub lat_ns: Vec<u64>,
    pub virt_lat_ns: Vec<u64>,
    /// Virtual ns of the serving phase on FreePart and on the reference.
    pub virt_ns: u64,
    pub ref_virt_ns: u64,
    /// Wall ns the reference scheme took to serve the same stream, and
    /// the wall latency of each of its calls, paired index by index with
    /// `lat_ns`.
    pub ref_serve_ns: u64,
    pub ref_lat_ns: Vec<u64>,
    /// Output-check failures, empty when the session was correct.
    pub errors: Vec<String>,
    pub counters: Counters,
    /// With [`Opts::record`]: the FreePart and reference commit logs.
    pub logs: Option<(CommitLog, CommitLog)>,
}

/// The analysis results every install shares, computed once per run.
pub struct Analysis {
    report: HybridReport,
    profile: SyscallProfile,
}

impl Analysis {
    /// Runs the hybrid analysis over the standard registry.
    pub fn new() -> Analysis {
        let reg = standard_registry();
        let corpus = TestCorpus::full(&reg);
        Analysis {
            report: freepart_analysis::categorize(&reg, &corpus),
            profile: SyscallProfile::build(&reg, &corpus),
        }
    }

    /// `Runtime::install_with` on a fresh standard registry.
    pub fn install(&self, policy: Policy) -> Runtime {
        Runtime::install_with(
            standard_registry(),
            self.report.clone(),
            self.profile.clone(),
            policy,
        )
    }
}

/// Swaps a recording kernel into a freshly built reference scheme. The
/// Original scheme's only process is its first spawn, so the new
/// kernel's first spawn reproduces its pid.
pub fn record_reference(surface: &mut dyn ApiSurface) {
    let mut k = Kernel::new();
    k.enable_commit_log();
    let pid = k.spawn("app");
    assert_eq!(
        pid,
        surface.host_pid(),
        "reference app is the first process"
    );
    *surface.kernel_mut() = k;
}

/// Latency bookkeeping for one stream of hooked calls.
pub struct Meter {
    /// Span name for each call.
    span: &'static str,
    pub req: Req,
    pub lat_ns: Vec<u64>,
    pub virt_lat_ns: Vec<u64>,
    pub failed: Vec<CallError>,
}

impl Meter {
    pub fn new(span: &'static str, session: u64) -> Meter {
        Meter {
            span,
            req: Req {
                session: session as u32,
                ..Req::default()
            },
            lat_ns: Vec::new(),
            virt_lat_ns: Vec::new(),
            failed: Vec::new(),
        }
    }

    pub fn calls(&self) -> u64 {
        self.lat_ns.len() as u64
    }
}

/// How a stream reaches its scheme: synchronously through
/// `ApiSurface::call`, or through `Runtime::call_async` + `promise`.
pub enum Client<'a> {
    Sync(&'a mut dyn ApiSurface),
    Async(&'a mut Runtime),
}

impl Client<'_> {
    pub fn kernel(&self) -> &Kernel {
        match self {
            Client::Sync(s) => s.kernel(),
            Client::Async(rt) => &rt.kernel,
        }
    }

    pub fn surface(&mut self) -> &mut dyn ApiSurface {
        match self {
            Client::Sync(s) => &mut **s,
            Client::Async(rt) => &mut **rt,
        }
    }

    /// One hooked call, timed in both clocks. Failures are kept in the
    /// meter and yield `None`.
    pub fn call(
        &mut self,
        m: &mut Meter,
        spans: &mut Spans,
        name: &str,
        args: &[Value],
    ) -> Option<Value> {
        let v0 = self.kernel().now_ns();
        let t0 = spans.now();
        let r = match self {
            Client::Sync(s) => {
                let r = s.call(name, args);
                spans.leaf(m.span, m.req, t0, spans.now());
                r
            }
            Client::Async(rt) => match rt.call_async(name, args) {
                Ok(h) => {
                    let t1 = spans.now();
                    spans.leaf("call_async", m.req, t0, t1);
                    let r = rt.promise(h);
                    spans.leaf("promise", m.req, t1, spans.now());
                    r
                }
                Err(e) => Err(e),
            },
        };
        m.lat_ns.push(spans.now() - t0);
        m.virt_lat_ns.push(self.kernel().now_ns() - v0);
        m.req.call += 1;
        r.map_err(|e| m.failed.push(e)).ok()
    }
}

/// A single-client workload's seeded stream: how to stage it and how to
/// serve it through a [`Client`].
pub trait SingleClient {
    /// What staging hands to serving (e.g. a critical object's handle).
    type Staged;
    const NAME: &'static str;
    /// Whether FreePart serves the stream through `call_async`.
    const ASYNC: bool;
    fn policy() -> Policy;
    /// Set-up after install: critical data and every input file.
    fn stage(&self, s: &mut dyn ApiSurface) -> Self::Staged;
    /// The stream itself; returns every output that must match across
    /// schemes.
    fn serve(
        &self,
        c: &mut Client,
        m: &mut Meter,
        spans: &mut Spans,
        staged: &Self::Staged,
    ) -> Vec<Value>;
}

/// One session of a single-client workload: install and stage, serve
/// the stream on FreePart, serve it again on the Original scheme, and
/// compare every output.
pub fn run_single<W: SingleClient>(
    w: &W,
    a: &Analysis,
    index: u64,
    opts: Opts,
    spans: &mut Spans,
) -> Session {
    let req = Req {
        session: index as u32,
        ..Req::default()
    };
    let mut s = Session::default();
    spans.open("session", req);

    spans.open("setup", req);
    let t0 = spans.now();
    let mut rt = a.install(Policy {
        record_commits: opts.record,
        ..W::policy()
    });
    s.install_ns = spans.now() - t0;
    if opts.runtime_tracing {
        rt.enable_tracing();
    }
    let t1 = spans.now();
    let staged = w.stage(&mut rt);
    spans.leaf("stage", req, t1, spans.now());
    s.setup_ns = spans.now() - t0;
    spans.close();

    let base = rt.kernel.metrics();
    let v0 = rt.kernel.now_ns();
    let mut m = Meter::new("call", index);
    let t0 = spans.now();
    let client = if W::ASYNC {
        Client::Async(&mut rt)
    } else {
        Client::Sync(&mut rt)
    };
    let got = w.serve(&mut { client }, &mut m, spans, &staged);
    if W::ASYNC {
        let t1 = spans.now();
        rt.drain_inflight();
        spans.leaf("drain_inflight", req, t1, spans.now());
    }
    s.serve_ns = spans.now() - t0;
    s.virt_ns = rt.kernel.now_ns() - v0;
    s.counters = Counters {
        services: m.calls(),
        service_ns: m.lat_ns.iter().sum(),
        ..Counters::of(&rt, &base)
    };
    if opts.probe_digest {
        s.counters.probe_digest(&rt.kernel, spans);
    }
    let fp_log = rt.kernel.take_commit_log();
    drop(rt);

    let mut orig = build(SchemeKind::Original, standard_registry(), &[]);
    if opts.record {
        record_reference(orig.as_mut());
    }
    let staged = w.stage(orig.as_mut());
    let mut r = Meter::new("reference", index);
    let v0 = orig.kernel().now_ns();
    let t0 = spans.now();
    let want = w.serve(&mut Client::Sync(orig.as_mut()), &mut r, spans, &staged);
    s.ref_serve_ns = spans.now() - t0;
    s.ref_virt_ns = orig.kernel().now_ns() - v0;

    spans.open("check", req);
    same_results(W::NAME, &got, &want, &mut s.errors);
    if let Some(e) = r.failed.first() {
        s.errors.push(format!("{}: reference failed: {e}", W::NAME));
    }
    spans.close();
    spans.close();

    if let (Some(fp), Some(reference)) = (fp_log, orig.kernel_mut().take_commit_log()) {
        s.logs = Some((fp, reference));
    }
    s.ref_lat_ns = r.lat_ns;
    s.calls = m.calls();
    s.failed = m.failed.len() as u64;
    s.lat_ns = m.lat_ns;
    s.virt_lat_ns = m.virt_lat_ns;
    s
}

/// `n` values spread evenly over `lo..=hi`, ascending.
pub fn spread(n: u32, lo: u32, hi: u32) -> impl Iterator<Item = u32> {
    (0..n).map(move |k| lo + (hi - lo) * k / (n - 1).max(1))
}

/// One seeded annotation: a `w`×`h` rectangle and a text label at
/// (`x`, `y`). Draw cost follows the rectangle's perimeter and the
/// label's length, so seeded geometry spreads the draw calls' modelled
/// latency instead of giving every draw the same cost.
pub struct Mark {
    x: i64,
    y: i64,
    w: i64,
    h: i64,
    label: String,
}

impl Mark {
    /// A mark inside a `span`×`span` area with sides up to `max_side`.
    pub fn seeded(rng: &mut SplitMix64, span: u32, max_side: u32) -> Mark {
        let len = rng.range(1, 6);
        Mark {
            x: i64::from(rng.range(0, span)),
            y: i64::from(rng.range(0, span)),
            w: i64::from(rng.range(1, max_side)),
            h: i64::from(rng.range(1, max_side)),
            label: (0..len)
                .map(|_| char::from(b'A' + rng.range(0, 25) as u8))
                .collect(),
        }
    }

    /// The `cv2.rectangle` and `cv2.putText` calls that draw the mark
    /// on `canvas`.
    pub fn calls(&self, canvas: &Value) -> [(&'static str, Vec<Value>); 2] {
        let (x, y) = (Value::I64(self.x), Value::I64(self.y));
        [
            (
                "cv2.rectangle",
                vec![
                    canvas.clone(),
                    x.clone(),
                    y.clone(),
                    Value::I64(self.w),
                    Value::I64(self.h),
                ],
            ),
            (
                "cv2.putText",
                vec![canvas.clone(), Value::Str(self.label.clone()), x, y],
            ),
        ]
    }
}

/// A call result with object handles erased: handles are scheme-local
/// names, everything else must agree across schemes.
pub fn canon(v: &Value) -> Value {
    match v {
        Value::Obj(_) => Value::Unit,
        Value::List(items) => Value::List(items.iter().map(canon).collect()),
        other => other.clone(),
    }
}

/// Compares two result streams, describing the first mismatch.
pub fn same_results(what: &str, got: &[Value], want: &[Value], errors: &mut Vec<String>) {
    if got.len() != want.len() {
        errors.push(format!(
            "{what}: {} results vs {} on the reference",
            got.len(),
            want.len()
        ));
    } else if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        errors.push(format!(
            "{what}: result {i} differs: {:?} vs {:?}",
            got[i], want[i]
        ));
    }
}
