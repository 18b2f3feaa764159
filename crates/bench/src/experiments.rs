//! Experiment runners behind the sections of the `all_reports` binary.
//!
//! Everything here measures the *simulated* system — virtual time, IPC
//! counters, attack verdicts — deterministically. The report sections
//! print these next to the paper's published numbers (EXPERIMENTS.md
//! records both).

use freepart::{PartitionPlan, Policy, Runtime};
use freepart_analysis::{HybridReport, SyscallProfile};
use freepart_apps::omr::{self, OmrConfig};
use freepart_apps::{resolve, run_app, RunOptions, TABLE6};
use freepart_attacks::{judge, payloads, AttackGoal, Verdict};
use freepart_baselines::{build, ApiSurface, SchemeKind};
use freepart_frameworks::api::{ApiId, ApiRegistry, ApiType};
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{ExploitPayload, ObjectId};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Hybrid analysis over the standard catalog, computed once per process
/// (every `Runtime::install` would otherwise redo the full dynamic pass).
pub fn shared_analysis() -> &'static (HybridReport, SyscallProfile) {
    static CELL: OnceLock<(HybridReport, SyscallProfile)> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = standard_registry();
        let corpus = freepart_analysis::TestCorpus::full(&reg);
        (
            freepart_analysis::categorize(&reg, &corpus),
            SyscallProfile::build(&reg, &corpus),
        )
    })
}

/// Installs FreePart with the cached analysis.
pub fn fast_install(policy: Policy) -> Runtime {
    let (report, profile) = shared_analysis();
    Runtime::install_with(standard_registry(), report.clone(), profile.clone(), policy)
}

/// Standard grading workload for the motivating-example experiments.
pub fn omr_workload() -> OmrConfig {
    OmrConfig::benign(24)
}

/// APIs the drone control loop touches (its per-API baseline universe).
pub fn drone_universe(reg: &ApiRegistry) -> Vec<ApiId> {
    [
        "cv2.VideoCapture",
        "cv2.VideoCapture.read",
        "cv2.imwrite",
        "cv2.imread",
        "cv2.cvtColor",
        "cv2.findContours",
    ]
    .iter()
    .map(|n| reg.id_of(n).expect("catalog API"))
    .collect()
}

/// Standard control-loop workload for the drone experiments.
pub fn drone_workload() -> freepart_apps::drone::DroneConfig {
    freepart_apps::drone::DroneConfig {
        frames: 12,
        evil_frame: None,
    }
}

/// One row of the pipelined-execution experiment (`pipeline` section).
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Execution mode.
    pub mode: &'static str,
    /// Virtual completion time: the global clock for synchronous runs,
    /// the makespan over per-process timelines for the pipelined run.
    pub time_ns: u64,
    /// IPC messages exchanged.
    pub ipc: u64,
    /// Happens-before timeline merges (0 for synchronous runs).
    pub timeline_merges: u64,
    /// Steering commands issued — identity-checked across modes.
    pub commands: Vec<f64>,
}

/// Runs the drone control loop three ways — unprotected Original,
/// sequential FreePart, and pipelined FreePart on per-process virtual
/// timelines — and reports each mode's completion time. The pipelined
/// run must issue byte-identical steering commands; callers assert the
/// speedup they need.
pub fn pipeline_comparison(frames: u32) -> Vec<PipelineRun> {
    let cfg = freepart_apps::drone::DroneConfig {
        frames,
        evil_frame: None,
    };
    let universe = drone_universe(&standard_registry());
    let mut rows = Vec::new();

    let mut orig = build(SchemeKind::Original, standard_registry(), &universe);
    orig.kernel_mut().reset_accounting();
    let r = freepart_apps::drone::run(orig.as_mut(), &cfg);
    assert_eq!(r.frames_processed, frames, "original completes");
    rows.push(PipelineRun {
        mode: "Original",
        time_ns: orig.kernel().clock().now_ns(),
        ipc: orig.kernel().metrics().ipc_messages,
        timeline_merges: orig.kernel().metrics().timeline_merges,
        commands: r.commands,
    });

    let mut seq = fast_install(Policy::freepart());
    seq.kernel.reset_accounting();
    let r = freepart_apps::drone::run(&mut seq, &cfg);
    assert_eq!(r.frames_processed, frames, "sequential completes");
    rows.push(PipelineRun {
        mode: "FreePart (sequential)",
        time_ns: seq.kernel.clock().now_ns(),
        ipc: seq.kernel.metrics().ipc_messages,
        timeline_merges: seq.kernel.metrics().timeline_merges,
        commands: r.commands,
    });

    let mut pip = fast_install(Policy::freepart());
    pip.kernel.reset_accounting();
    let r = freepart_apps::pipeline::run_drone_pipelined(&mut pip, &cfg);
    assert_eq!(r.frames_processed, frames, "pipelined completes");
    assert_eq!(pip.in_flight(), 0, "pipelined run fully drained");
    rows.push(PipelineRun {
        mode: "FreePart (pipelined)",
        time_ns: pip.kernel.makespan_ns(),
        ipc: pip.kernel.metrics().ipc_messages,
        timeline_merges: pip.kernel.metrics().timeline_merges,
        commands: r.commands,
    });
    rows
}

/// A benign mission: the OMR grader or the drone control loop, each
/// with the caller's workload size.
#[derive(Debug, Clone)]
pub enum Mission {
    /// Grade an OMR batch.
    Omr(OmrConfig),
    /// Fly the drone control loop.
    Drone(freepart_apps::drone::DroneConfig),
}

/// What one benign mission cost on one surface (Table 9's columns).
#[derive(Debug, Clone)]
pub struct MissionRun {
    /// IPC messages.
    pub ipc: u64,
    /// Bytes moved across processes.
    pub transfer_bytes: u64,
    /// Copy operations.
    pub copy_ops: u64,
    /// Virtual runtime in nanoseconds.
    pub time_ns: u64,
    /// Processes used.
    pub processes: usize,
    /// Submissions graded or frames processed (sanity: the workload ran).
    pub completed: u32,
}

/// Runs `mission` on `surface` from zeroed accounting, asserts that it
/// ran (and, for OMR, graded without a call error), and reads back its
/// virtual time and traffic counters.
pub fn benign_run(surface: &mut dyn ApiSurface, mission: &Mission) -> MissionRun {
    surface.kernel_mut().reset_accounting();
    let completed = match mission {
        Mission::Omr(cfg) => {
            let r = omr::run(surface, cfg);
            assert!(r.errors.is_empty(), "benign OMR run errored");
            r.completed
        }
        Mission::Drone(cfg) => freepart_apps::drone::run(surface, cfg).frames_processed,
    };
    assert!(completed > 0, "workload must actually run");
    let m = surface.kernel().metrics();
    MissionRun {
        ipc: m.ipc_messages,
        transfer_bytes: m.total_transfer_bytes(),
        copy_ops: m.copy_ops,
        time_ns: surface.kernel().clock().now_ns(),
        processes: surface.process_count(),
        completed,
    }
}

/// Runs the standard benign OMR workload under one scheme.
pub fn omr_run(kind: SchemeKind) -> MissionRun {
    let universe = omr::omr_universe(&standard_registry());
    let mut surface = build(kind, standard_registry(), &universe);
    benign_run(surface.as_mut(), &Mission::Omr(omr_workload()))
}

/// Attack verdicts for one scheme on the motivating example (Table 1's
/// M / C / D columns).
#[derive(Debug, Clone, Copy)]
pub struct SchemeAttacks {
    /// The scheme.
    pub kind: SchemeKind,
    /// Memory-corruption attack on `template` prevented.
    pub m_prevented: bool,
    /// Code-manipulation attack prevented.
    pub c_prevented: bool,
    /// Denial-of-service attack prevented (host stays up).
    pub d_prevented: bool,
}

/// The M attack on the motivating example: learns `template`'s address
/// from a benign run on `probe` (the paper's "attacker knows exact
/// addresses"), then grades `samples` submissions on `target`, the one
/// at `evil_at` carrying a CVE-2017-12597 write of `fill` over
/// `template`. Returns whether the corruption was prevented, and
/// `template`'s id on `target`.
pub fn corrupt_template(
    probe: &mut dyn ApiSurface,
    target: &mut dyn ApiSurface,
    samples: u32,
    evil_at: u32,
    fill: Vec<u8>,
) -> (bool, ObjectId) {
    let r = omr::run(probe, &OmrConfig::benign(0));
    let addr = probe.objects().meta(r.template).unwrap().buffer.unwrap().0;
    let payload = payloads::corrupt("CVE-2017-12597", addr.0, fill);
    let r = omr::run(target, &attack_batch(samples, evil_at, payload));
    let goal = AttackGoal::CorruptObject {
        id: r.template,
        original: r.template_original,
    };
    (judge_attack(target, &goal).prevented(), r.template)
}

/// The C attack on the motivating example: one benign sample first (so
/// filters are sealed where the scheme has them), then a CVE-2017-17760
/// payload rewriting the code page of the process that runs `imread`.
/// Returns whether the rewrite was prevented.
pub fn rewrite_code(surface: &mut dyn ApiSurface) -> bool {
    omr::run(surface, &OmrConfig::benign(1));
    let code = surface.code_target();
    let payload = payloads::code_rewrite("CVE-2017-17760", code);
    omr::run(surface, &attack_batch(2, 0, payload));
    judge_attack(surface, &AttackGoal::RewriteCode).prevented()
}

/// An attack batch on the motivating example: `samples` submissions of
/// two marks each, the one at `evil_at` crafted with `payload`.
pub fn attack_batch(samples: u32, evil_at: u32, payload: ExploitPayload) -> OmrConfig {
    OmrConfig {
        samples,
        boxes_per_sample: 2,
        evil_sample: Some((evil_at, payload)),
        evil_imshow: None,
    }
}

/// Judges `goal` against `surface`'s post-attack state, from ground
/// truth.
pub fn judge_attack(surface: &mut dyn ApiSurface, goal: &AttackGoal) -> Verdict {
    let log = surface.exploit_log().to_vec();
    let (kernel, objects, host) = surface.attack_view();
    judge(goal, kernel, objects, host, &log)
}

/// Launches the three Table 1 attacks against one scheme, each on a
/// fresh instance, and judges them from ground truth.
pub fn omr_attacks(kind: SchemeKind) -> SchemeAttacks {
    let universe = omr::omr_universe(&standard_registry());
    let fresh = || build(kind, standard_registry(), &universe);
    let (m_prevented, _) =
        corrupt_template(fresh().as_mut(), fresh().as_mut(), 3, 1, vec![0xEE; 32]);
    let c_prevented = rewrite_code(fresh().as_mut());
    // D: crash the application via the imread CVE.
    let mut s = fresh();
    omr::run(
        s.as_mut(),
        &attack_batch(3, 1, payloads::dos("CVE-2017-14136")),
    );
    let d_prevented = judge_attack(s.as_mut(), &AttackGoal::CrashHost).prevented();

    SchemeAttacks {
        kind,
        m_prevented,
        c_prevented,
        d_prevented,
    }
}

/// APIs per process for one scheme over the motivating-example universe
/// (Table 10's rows / Table 1's granularity columns).
pub fn granularity(kind: SchemeKind, reg: &ApiRegistry, universe: &[ApiId]) -> Vec<usize> {
    let type_of = |id: ApiId| reg.spec(id).declared_type;
    match kind {
        SchemeKind::Original | SchemeKind::MemoryBased | SchemeKind::LibraryEntire => {
            vec![universe.len()]
        }
        SchemeKind::LibraryPerApi => vec![1; universe.len()],
        SchemeKind::CodeApi | SchemeKind::CodeApiData => {
            // loading | visualizing | rest (+ data processes hold 0 APIs).
            let mut buckets = [0usize; 3];
            for &id in universe {
                match type_of(id) {
                    ApiType::DataLoading => buckets[0] += 1,
                    ApiType::Visualizing => buckets[1] += 1,
                    _ => buckets[2] += 1,
                }
            }
            let mut v = buckets.to_vec();
            if kind == SchemeKind::CodeApiData {
                v.extend([0, 0]); // template / OMRCrop data processes
            }
            v
        }
        SchemeKind::FreePart => {
            let plan = PartitionPlan::four();
            plan.group(universe, type_of)
                .values()
                .map(Vec::len)
                .collect()
        }
    }
}

/// Mean and population standard deviation of a granularity vector.
pub fn mean_std(v: &[usize]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let mean = v.iter().sum::<usize>() as f64 / v.len() as f64;
    let var = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64;
    (mean, var.sqrt())
}

/// How many of the example's two exploited APIs (`imread`, `imshow`)
/// each scheme isolates — in a process holding neither critical data
/// nor the other exploited API (Table 1's "# of CVE APIs isolated").
pub fn cve_apis_isolated(kind: SchemeKind) -> usize {
    match kind {
        // Single process: nothing is isolated.
        SchemeKind::Original | SchemeKind::MemoryBased => 0,
        // Both vulnerable APIs share the library process.
        SchemeKind::LibraryEntire => 0,
        // imread shares its process with the critical data; imshow is
        // clean.
        SchemeKind::CodeApi => 1,
        // Data moved out: both are isolated.
        SchemeKind::CodeApiData => 2,
        SchemeKind::LibraryPerApi => 2,
        // imread in the loading agent, imshow in the visualizing agent.
        SchemeKind::FreePart => 2,
    }
}

// ----------------------------------------------------------------------
// Fig. 13 / Table 12: the 23-application overhead sweep
// ----------------------------------------------------------------------

/// One application's overhead measurement.
#[derive(Debug, Clone)]
pub struct AppOverhead {
    /// Table 6 sample id.
    pub id: u32,
    /// Application name.
    pub name: &'static str,
    /// Baseline (original) virtual time, ns.
    pub base_ns: u64,
    /// FreePart virtual time, ns.
    pub freepart_ns: u64,
    /// FreePart-without-LDC virtual time, ns.
    pub no_ldc_ns: u64,
    /// Lazy copies under FreePart.
    pub ldc_copies: u64,
    /// Non-lazy (through-host) copies under FreePart.
    pub host_copies: u64,
}

impl AppOverhead {
    /// FreePart overhead over the original.
    pub fn overhead(&self) -> f64 {
        self.freepart_ns as f64 / self.base_ns.max(1) as f64 - 1.0
    }

    /// No-LDC overhead over the original.
    pub fn overhead_no_ldc(&self) -> f64 {
        self.no_ldc_ns as f64 / self.base_ns.max(1) as f64 - 1.0
    }
}

fn run_one_app(id: u32, scheme: Option<Policy>) -> (u64, u64, u64) {
    let reg = standard_registry();
    let spec = freepart_apps::by_id(id).expect("table6 id");
    let app = resolve(spec, &reg);
    let opts = RunOptions::default();
    match scheme {
        None => {
            let mut rt = freepart_baselines::MonolithicRuntime::original(standard_registry());
            rt.kernel.reset_accounting();
            run_app(&app, &reg, &mut rt, &opts).expect("app runs");
            (rt.kernel.clock().now_ns(), 0, 0)
        }
        Some(policy) => {
            let mut rt = fast_install(policy);
            rt.kernel.reset_accounting();
            run_app(&app, &reg, &mut rt, &opts).expect("app runs");
            let s = rt.stats();
            (rt.kernel.clock().now_ns(), s.ldc_copies, s.host_copies)
        }
    }
}

/// Measures one Table 6 application under original / FreePart / no-LDC.
pub fn app_overhead(id: u32) -> AppOverhead {
    let spec = freepart_apps::by_id(id).expect("table6 id");
    let (base_ns, _, _) = run_one_app(id, None);
    let (freepart_ns, ldc_copies, host_copies) = run_one_app(id, Some(Policy::freepart()));
    let (no_ldc_ns, _, _) = run_one_app(id, Some(Policy::without_ldc()));
    AppOverhead {
        id,
        name: spec.name,
        base_ns,
        freepart_ns,
        no_ldc_ns,
        ldc_copies,
        host_copies,
    }
}

/// Runs the full 23-application sweep.
pub fn fig13_sweep() -> Vec<AppOverhead> {
    TABLE6.iter().map(|s| app_overhead(s.id)).collect()
}

// ----------------------------------------------------------------------
// Fig. 4: partition-count sweep on the motivating example
// ----------------------------------------------------------------------

/// Average virtual runtime of the OMR workload with `n` partitions over
/// `seeds` random fine-grained plans.
pub fn fig4_point(n: u32, seeds: u64) -> f64 {
    // The Fig. 4 workload stresses the hot-loop pair: many
    // rectangle/putText annotations per submission (the paper's example
    // executes them in a hot loop).
    let workload = Mission::Omr(OmrConfig {
        samples: 6,
        boxes_per_sample: 120,
        ..OmrConfig::default()
    });
    let mut total = 0.0;
    for seed in 0..seeds {
        let reg = standard_registry();
        let universe = omr::omr_universe(&reg);
        let plan = PartitionPlan::random_split(&reg, &universe, n, seed * 7919 + n as u64);
        let mut rt = fast_install(Policy {
            plan,
            ..Policy::freepart()
        });
        total += benign_run(&mut rt, &workload).time_ns as f64;
    }
    total / seeds as f64
}

/// Sweeps partition counts `4..=max_n`.
pub fn fig4_sweep(max_n: u32, seeds: u64) -> Vec<(u32, f64)> {
    (4..=max_n).map(|n| (n, fig4_point(n, seeds))).collect()
}

// ----------------------------------------------------------------------
// §5 "Correctness": per-CVE attack sweep under FreePart
// ----------------------------------------------------------------------

/// One CVE's verification result under FreePart.
#[derive(Debug, Clone)]
pub struct CveVerdict {
    /// CVE identifier.
    pub id: &'static str,
    /// API the exploit entered through.
    pub api: &'static str,
    /// The exploit was observed to fire (reached a vulnerable API).
    pub fired: bool,
    /// The host application survived.
    pub host_survived: bool,
    /// Nothing the attacker attempted was achieved.
    pub fully_prevented: bool,
}

/// Exercises every Table 5 CVE against FreePart: a DoS payload is fed
/// through the vulnerable API's input channel; containment is judged.
pub fn cve_sweep() -> Vec<CveVerdict> {
    use freepart_frameworks::api::ApiKind;
    use freepart_frameworks::{fileio, image::Image, tensor::Tensor, Value};
    let mut out = Vec::new();
    for cve in freepart_attacks::TABLE5 {
        let mut rt = fast_install(Policy::freepart());
        let payload = payloads::dos(cve.id);
        let spec_kind = rt.registry().by_name(cve.api).expect("catalog API").kind;
        // Feed the crafted input along the API's natural channel.
        let fired = match spec_kind {
            ApiKind::ImRead | ApiKind::ImShow => {
                let img = Image::new(16, 16, 3);
                rt.kernel
                    .fs
                    .put("/atk.simg", fileio::encode_image(&img, Some(&payload)));
                let loaded = rt.call("cv2.imread", &[Value::from("/atk.simg")]);
                match (cve.api, loaded) {
                    // imread itself is the target: it crashed.
                    ("cv2.imread", Err(_)) => true,
                    // imshow is the target: pass the tainted Mat on.
                    (_, Ok(v)) => rt.call(cve.api, &[Value::from("atk"), v]).is_err(),
                    _ => false,
                }
            }
            ApiKind::DetectMultiScale => {
                let img = Image::new(32, 32, 3);
                rt.kernel
                    .fs
                    .put("/atk.simg", fileio::encode_image(&img, Some(&payload)));
                let tainted = rt.call("cv2.imread", &[Value::from("/atk.simg")]).unwrap();
                rt.kernel.fs.put("/c.xml", vec![1; 8]);
                let clf = rt
                    .call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
                    .unwrap();
                rt.call(cve.api, &[clf, tainted]).is_err()
            }
            ApiKind::Binary(_) => {
                let img = Image::new(16, 16, 3);
                rt.kernel
                    .fs
                    .put("/atk.simg", fileio::encode_image(&img, Some(&payload)));
                let a = rt.call("cv2.imread", &[Value::from("/atk.simg")]).unwrap();
                let b = rt.call("cv2.imread", &[Value::from("/atk.simg")]).unwrap();
                rt.call(cve.api, &[a, b]).is_err()
            }
            ApiKind::TensorConv
            | ApiKind::TensorPoolMax
            | ApiKind::TensorPoolAvg
            | ApiKind::TensorUnary(_) => {
                let t = Tensor::generate(&[36], |i| i as f32);
                rt.kernel
                    .fs
                    .put("/atk.stsr", fileio::encode_tensor(&t, Some(&payload)));
                let tainted = rt.call("torch.load", &[Value::from("/atk.stsr")]).unwrap();
                rt.call(cve.api, &[tainted]).is_err()
            }
            _ => {
                // Generic file loaders (PIL.Image.open etc.).
                let img = Image::new(16, 16, 3);
                rt.kernel
                    .fs
                    .put("/atk.simg", fileio::encode_image(&img, Some(&payload)));
                rt.call(cve.api, &[Value::from("/atk.simg")]).is_err()
            }
        };
        let host_survived = rt.kernel.is_running(rt.host_pid());
        let fully_prevented = host_survived
            && !rt.kernel.network.leaked(b"SECRET")
            && rt.exploit_log.iter().all(|r| {
                // CrashSelf "achieves" a crash — of the agent only; the
                // DoS goal (host down) is what's judged.
                matches!(r.action, freepart_frameworks::ExploitAction::CrashSelf)
                    || !r.outcome.achieved()
            });
        out.push(CveVerdict {
            id: cve.id,
            api: cve.api,
            fired,
            host_survived,
            fully_prevented,
        });
    }
    out
}

/// Per-type allowlists over the full catalog (Table 7 data).
pub fn table7_allowlists() -> BTreeMap<ApiType, Vec<&'static str>> {
    use freepart_analysis::{SyscallProfile, TestCorpus};
    let reg = standard_registry();
    let corpus = TestCorpus::full(&reg);
    let profile = SyscallProfile::build(&reg, &corpus);
    let assignment: BTreeMap<_, _> = reg.iter().map(|s| (s.id, s.declared_type)).collect();
    profile
        .per_type(&assignment)
        .into_iter()
        .map(|(t, set)| (t, set.into_iter().map(|s| s.name()).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omr_run_completes_under_every_scheme() {
        for kind in SchemeKind::ALL {
            let r = omr_run(kind);
            assert_eq!(r.completed, 24, "{:?}", kind);
            assert!(r.time_ns > 0);
        }
    }

    #[test]
    fn pipelined_drone_beats_sequential_with_identical_commands() {
        let rows = pipeline_comparison(12);
        assert_eq!(rows.len(), 3);
        let seq = &rows[1];
        let pip = &rows[2];
        assert_eq!(pip.commands, rows[0].commands, "pipelined == original");
        assert_eq!(pip.commands, seq.commands, "pipelined == sequential");
        let speedup = seq.time_ns as f64 / pip.time_ns as f64;
        assert!(
            speedup >= 1.2,
            "pipelined speedup {speedup:.3} below the 1.2x floor \
             (seq {} ns, pip {} ns)",
            seq.time_ns,
            pip.time_ns
        );
        assert!(pip.timeline_merges > 0, "happens-before merges recorded");
        assert_eq!(seq.timeline_merges, 0, "sync run stays on global time");
    }

    #[test]
    fn overhead_ordering_matches_table9_shape() {
        let by_kind: BTreeMap<SchemeKind, MissionRun> =
            SchemeKind::ALL.iter().map(|&k| (k, omr_run(k))).collect();
        let t = |k: SchemeKind| by_kind[&k].time_ns as f64;
        let base = t(SchemeKind::Original);
        // Memory-based ≈ original.
        assert!((t(SchemeKind::MemoryBased) / base - 1.0).abs() < 0.02);
        // FreePart: low single-digit overhead.
        let fp = t(SchemeKind::FreePart) / base - 1.0;
        assert!(fp > 0.005 && fp < 0.10, "FreePart overhead {fp}");
        // Per-API isolation is the most expensive by a wide margin.
        let per_api = t(SchemeKind::LibraryPerApi) / base - 1.0;
        assert!(per_api > 4.0 * fp, "per-API {per_api} vs FP {fp}");
        // Code-based API+Data is expensive too (hot-loop data shipping).
        let cad = t(SchemeKind::CodeApiData) / base - 1.0;
        assert!(cad > 2.0 * fp, "API&Data {cad} vs FP {fp}");
        assert!(per_api > cad, "per-API worst of all");
        // Entire-library and code-API are cheap.
        assert!(t(SchemeKind::LibraryEntire) / base - 1.0 < fp * 1.5);
    }

    #[test]
    fn attack_matrix_matches_table1() {
        let rows: BTreeMap<SchemeKind, SchemeAttacks> = SchemeKind::ALL
            .iter()
            .map(|&k| (k, omr_attacks(k)))
            .collect();
        let r = |k: SchemeKind| rows[&k];
        // Original: everything succeeds.
        assert!(!r(SchemeKind::Original).m_prevented);
        assert!(!r(SchemeKind::Original).c_prevented);
        assert!(!r(SchemeKind::Original).d_prevented);
        // Code-based API: M fails (template with imread), C/D prevented.
        assert!(!r(SchemeKind::CodeApi).m_prevented);
        assert!(r(SchemeKind::CodeApi).c_prevented);
        assert!(r(SchemeKind::CodeApi).d_prevented);
        // Code-based API & Data: all three prevented.
        let x = r(SchemeKind::CodeApiData);
        assert!(x.m_prevented && x.c_prevented && x.d_prevented);
        // Entire library: M prevented for host data, C fails, D prevented.
        let x = r(SchemeKind::LibraryEntire);
        assert!(!x.c_prevented && x.d_prevented);
        // Individual APIs: all three prevented.
        let x = r(SchemeKind::LibraryPerApi);
        assert!(x.m_prevented && x.c_prevented && x.d_prevented);
        // Memory-based: M prevented, C and D not.
        let x = r(SchemeKind::MemoryBased);
        assert!(x.m_prevented && !x.c_prevented && !x.d_prevented);
        // FreePart: all three prevented.
        let x = r(SchemeKind::FreePart);
        assert!(x.m_prevented && x.c_prevented && x.d_prevented);
    }

    #[test]
    fn granularity_matches_table10_shape() {
        let reg = standard_registry();
        let universe = omr::omr_universe(&reg);
        assert_eq!(granularity(SchemeKind::Original, &reg, &universe), vec![86]);
        assert_eq!(
            granularity(SchemeKind::LibraryPerApi, &reg, &universe).len(),
            86
        );
        let fp = granularity(SchemeKind::FreePart, &reg, &universe);
        let mut sorted = fp.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 3, 6, 75]);
        let (_, std) = mean_std(&fp);
        assert!(std > 25.0 && std < 40.0, "σ = {std}");
        let cad = granularity(SchemeKind::CodeApiData, &reg, &universe);
        assert_eq!(cad.len(), 5);
        assert_eq!(cad.iter().sum::<usize>(), 86);
    }

    #[test]
    fn cve_apis_isolated_matches_table1() {
        assert_eq!(cve_apis_isolated(SchemeKind::FreePart), 2);
        assert_eq!(cve_apis_isolated(SchemeKind::CodeApi), 1);
        assert_eq!(cve_apis_isolated(SchemeKind::LibraryEntire), 0);
        assert_eq!(cve_apis_isolated(SchemeKind::MemoryBased), 0);
    }

    #[test]
    fn every_table5_cve_is_contained_by_freepart() {
        for v in cve_sweep() {
            assert!(v.fired, "{}: exploit did not fire", v.id);
            assert!(v.host_survived, "{}: host died", v.id);
            assert!(v.fully_prevented, "{}: attacker achieved something", v.id);
        }
    }

    #[test]
    fn fig4_shows_overhead_jump_past_four_partitions() {
        let four = fig4_point(4, 2);
        let eight = fig4_point(8, 2);
        let sixteen = fig4_point(16, 2);
        assert!(eight > four, "splitting processing costs time");
        assert!(sixteen >= eight * 0.99);
    }

    #[test]
    fn sample_app_overhead_is_small() {
        // OMRChecker (id 8) through the generic driver.
        let o = app_overhead(8);
        assert!(
            o.overhead() > 0.0 && o.overhead() < 0.15,
            "{}",
            o.overhead()
        );
        assert!(
            o.overhead_no_ldc() > o.overhead(),
            "LDC must help: {} vs {}",
            o.overhead_no_ldc(),
            o.overhead()
        );
        assert!(o.ldc_copies > 0);
        // The overwhelming majority of copies are lazy (Table 12 ~95%).
        let lazy_frac = o.ldc_copies as f64 / (o.ldc_copies + o.host_copies).max(1) as f64;
        assert!(lazy_frac > 0.7, "lazy fraction {lazy_frac}");
    }
}
