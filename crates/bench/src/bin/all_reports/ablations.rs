//! Ablation study over FreePart's design choices (DESIGN.md §5):
//! Lazy Data Copy, syscall restriction, temporal protection, restart,
//! and type-neutral co-location — measuring both the performance and the
//! security consequence of turning each off.

use freepart::{Policy, RestartPolicy, Runtime, SandboxLevel};
use freepart_apps::omr::{self, OmrConfig};
use freepart_attacks::{payloads, AttackGoal};
use freepart_bench::{
    attack_batch, benign_run, corrupt_template, judge_attack, rewrite_code, Mission, Table,
};
use freepart_frameworks::registry::standard_registry;

struct Ablation {
    name: &'static str,
    policy: fn() -> Policy,
}

fn time_of(policy: Policy) -> u64 {
    let mut rt = Runtime::install(standard_registry(), policy);
    benign_run(&mut rt, &Mission::Omr(OmrConfig::benign(12))).time_ns
}

/// Micro-workload exercising type-neutral co-location: `imread →
/// cvtColor → imwrite` per cycle. Co-located, `cvtColor` runs in the
/// loading agent (one move, loading→storing); pinned to the processing
/// agent it forces an extra hop per cycle.
fn neutral_moves(policy: Policy) -> u64 {
    use freepart_frameworks::{fileio, image::Image, Value};
    let mut rt = Runtime::install(standard_registry(), policy);
    rt.kernel.fs.put(
        "/n.simg",
        fileio::encode_image(&Image::new(16, 16, 3), None),
    );
    rt.kernel.reset_accounting();
    for i in 0..50 {
        let img = rt.call("cv2.imread", &[Value::from("/n.simg")]).unwrap();
        let gray = rt.call("cv2.cvtColor", &[img]).unwrap();
        rt.call("cv2.imwrite", &[Value::Str(format!("/o{i}.simg")), gray])
            .unwrap();
    }
    rt.stats().ldc_copies + rt.stats().host_copies
}

/// The temporal-protection-specific corruption: a *processing-stage*
/// exploit (CVE-2019-14491 riding tainted pixels into detectMultiScale)
/// overwrites a loading-stage object that has migrated into the very
/// same processing agent. Only the read-only page stops this write —
/// address-space isolation cannot (same process).
fn m2_temporal_prevented(policy: Policy) -> bool {
    use freepart_frameworks::{fileio, image::Image, Value};
    let drive = |policy: Policy,
                 payload: Option<freepart_frameworks::ExploitPayload>|
     -> (Runtime, freepart_frameworks::ObjectId, Vec<u8>) {
        let mut rt = Runtime::install(standard_registry(), policy);
        let img = Image::new(32, 32, 3);
        rt.kernel
            .fs
            .put("/m2.simg", fileio::encode_image(&img, payload.as_ref()));
        rt.kernel.fs.put("/c.xml", vec![1; 8]);
        let loaded = rt.call("cv2.imread", &[Value::from("/m2.simg")]).unwrap();
        let gray = rt.call("cv2.cvtColor", &[loaded]).unwrap();
        let gray_id = gray.as_obj().unwrap();
        // Processing begins: gray migrates into the processing agent and
        // (with temporal protection) locks.
        let blurred = rt
            .call("cv2.GaussianBlur", std::slice::from_ref(&gray))
            .unwrap();
        let clf = rt
            .call("cv2.CascadeClassifier.load", &[Value::from("/c.xml")])
            .unwrap();
        let _ = rt.call("cv2.CascadeClassifier.detectMultiScale", &[clf, blurred]);
        let original = rt
            .objects
            .read_bytes(&mut rt.kernel, gray_id)
            .unwrap_or_default();
        (rt, gray_id, original)
    };
    // Probe: learn the gray object's post-migration address + contents.
    let (probe, gray_id, original) = drive(policy.clone(), None);
    let addr = probe.objects.meta(gray_id).unwrap().buffer.unwrap().0;
    // Attack: same pipeline, tainted input, write targets gray in the
    // processing agent.
    let payload = payloads::corrupt("CVE-2019-14491", addr.0, vec![0xAB; 16]);
    let (mut rt, id, _) = drive(policy, Some(payload));
    judge_attack(&mut rt, &AttackGoal::CorruptObject { id, original }).prevented()
}

/// Is the M attack (corrupt template) still prevented under `policy`?
fn m_prevented(policy: Policy) -> bool {
    let mut probe = Runtime::install(standard_registry(), policy.clone());
    let mut rt = Runtime::install(standard_registry(), policy);
    corrupt_template(&mut probe, &mut rt, 2, 0, vec![9; 16]).0
}

/// Is the code-rewrite attack still prevented under `policy`?
fn c_prevented(policy: Policy) -> bool {
    rewrite_code(&mut Runtime::install(standard_registry(), policy))
}

/// How many submissions complete under a mid-batch DoS?
fn dos_completed(policy: Policy) -> u32 {
    let mut rt = Runtime::install(standard_registry(), policy);
    let cfg = attack_batch(6, 2, payloads::dos("CVE-2017-14136"));
    omr::run(&mut rt, &cfg).completed
}

/// The ablation table, then the type-neutral co-location delta.
pub fn run() {
    let ablations: [Ablation; 5] = [
        Ablation {
            name: "full FreePart",
            policy: Policy::freepart,
        },
        Ablation {
            name: "without LDC",
            policy: Policy::without_ldc,
        },
        Ablation {
            name: "without syscall restriction",
            policy: || Policy {
                sandbox: SandboxLevel::None,
                ..Policy::freepart()
            },
        },
        Ablation {
            name: "without temporal protection",
            policy: || Policy {
                temporal_protection: false,
                ..Policy::freepart()
            },
        },
        Ablation {
            name: "without restart",
            policy: || Policy {
                restart: RestartPolicy::StayDown,
                ..Policy::freepart()
            },
        },
    ];
    let base = time_of(Policy::freepart());
    let mut t = Table::new([
        "Configuration",
        "runtime vs full",
        "M (cross-process)",
        "M (in-agent, temporal)",
        "C prevented",
        "DoS: graded/6",
    ]);
    for a in &ablations {
        let time = time_of((a.policy)());
        t.row([
            a.name.to_owned(),
            format!("{:+.2}%", (time as f64 / base as f64 - 1.0) * 100.0),
            m_prevented((a.policy)()).to_string(),
            m2_temporal_prevented((a.policy)()).to_string(),
            c_prevented((a.policy)()).to_string(),
            format!("{}/6", dos_completed((a.policy)())),
        ]);
    }
    t.print("Ablations — what each FreePart mechanism buys");

    // Type-neutral co-location: object-move delta on a load→convert→
    // store cycle.
    let with = neutral_moves(Policy::freepart());
    let without = neutral_moves(Policy {
        colocate_type_neutral: false,
        ..Policy::freepart()
    });
    println!(
        "\nType-neutral co-location (50x imread→cvtColor→imwrite): {with} object\n\
         moves with co-location vs {without} without ({:+.1}% more cross-process\n\
         traffic when cvtColor is pinned to the processing agent instead of\n\
         following its call context — the paper's §4.2 rationale).",
        (without as f64 / with as f64 - 1.0) * 100.0
    );

    println!(
        "\nReading: temporal protection is what prevents M (the write lands on a\n\
         read-only page even inside the attacked agent's own address space if the\n\
         object migrated there); syscall restriction is what prevents C; restart is\n\
         what keeps the batch completing through a DoS (5/6 vs 2/6)."
    );
}
