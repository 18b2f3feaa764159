//! The security evaluation: §5's per-CVE containment sweep with the
//! §5.3 exfiltration and corruption attacks, and the §5.4 / §A.7 case
//! studies, each attack judged from ground truth.

use freepart::{Policy, Runtime};
use freepart_apps::{drone, mcomix, stegonet};
use freepart_attacks::{payloads, AttackGoal, Verdict};
use freepart_baselines::{ApiSurface, MonolithicRuntime};
use freepart_bench::{cve_sweep, judge_attack, Table};
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, ExploitPayload, ObjectId, Value};

/// **§5 "Correctness" + §5.3 security analysis**: every Table 5 CVE is
/// exercised against FreePart; exfiltration and corruption attacks are
/// launched and judged.
pub fn security_analysis() {
    // ---- per-CVE containment sweep ----
    let mut t = Table::new([
        "CVE",
        "API",
        "exploit fired",
        "host survived",
        "fully prevented",
    ]);
    let mut all_ok = true;
    for v in cve_sweep() {
        all_ok &= v.fired && v.host_survived && v.fully_prevented;
        let y = |b: bool| if b { "yes" } else { "NO" };
        t.row([
            v.id,
            v.api,
            y(v.fired),
            y(v.host_survived),
            y(v.fully_prevented),
        ]);
    }
    t.print("§5 Correctness — all Table 5 CVEs vs FreePart");
    println!(
        "\nAll attacks contained: {all_ok} (paper: all 18 CVEs mitigated, no false\n\
         negatives; benign runs produced no false positives — see the test suite's\n\
         benign-workload assertions)."
    );

    // ---- §5.3 data exfiltration ----
    let exfiltrate = |addr| payloads::exfiltrate("CVE-2017-12597", addr, 19, "attacker:4444");
    let (mut rt, _) = attack_host_data("user-profiles", b"SECRET-PROFILE-DATA", exfiltrate);
    let marker = b"SECRET-PROFILE".to_vec();
    let v = judge_attack(&mut rt, &AttackGoal::Exfiltrate { marker });
    println!("\n§5.3 data exfiltration from the loading agent: {v:?} (paper: prevented —");
    println!("the secret lives in the host process AND the agent's filter has no send).");
    assert_eq!(v, Verdict::Prevented);

    // ---- §5.3 data corruption ----
    let original = b"threshold=0.75;classes=10";
    let corrupt = |addr| payloads::corrupt("CVE-2017-12606", addr, vec![0; 8]);
    let (mut rt, id) = attack_host_data("model-config", original, corrupt);
    let original = original.to_vec();
    let v = judge_attack(&mut rt, &AttackGoal::CorruptObject { id, original });
    println!("\n§5.3 data corruption of host configuration: {v:?} (paper: prevented).");
    assert_eq!(v, Verdict::Prevented);
}

/// Plants `data` as host data under FreePart, then loads an image whose
/// exploit, `payload(address of data)`, rides `cv2.imread` into the
/// loading agent. Returns the runtime and the data's object id.
fn attack_host_data(
    name: &str,
    data: &[u8],
    payload: impl FnOnce(u64) -> ExploitPayload,
) -> (Runtime, ObjectId) {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    let id = rt.host_data(name, data);
    let addr = rt.objects.meta(id).unwrap().buffer.unwrap().0;
    let img = fileio::encode_image(&Image::new(16, 16, 3), Some(&payload(addr.0)));
    rt.kernel.fs.put("/attack.simg", img);
    let _ = rt.call("cv2.imread", &[Value::from("/attack.simg")]);
    (rt, id)
}

/// **§5.4 and §A.7 case studies**: the autonomous drone, the MComix3
/// viewer leak, and the StegoNet trojan model — each run unprotected and
/// under FreePart.
pub fn case_studies() {
    // ---------------- §5.4.1 drone ----------------
    println!("\n== §5.4.1 Autonomous object-tracking drone ==");
    let dos = |surface: &mut dyn ApiSurface| {
        let cfg = drone::DroneConfig {
            frames: 6,
            evil_frame: Some((2, payloads::dos("CVE-2017-14136"))),
        };
        drone::run(surface, &cfg)
    };
    let mut orig = MonolithicRuntime::original(standard_registry());
    let r = dos(&mut orig);
    println!(
        "unprotected: control loop alive = {} (drone falls out of the sky), frames {}/{}",
        r.control_loop_alive, r.frames_processed, 6
    );
    let mut fp = Runtime::install(standard_registry(), Policy::freepart());
    let r = dos(&mut fp);
    println!(
        "FreePart:    control loop alive = {} (only the poisoned frame lost), frames {}/{}",
        r.control_loop_alive, r.frames_processed, 6
    );
    assert!(r.control_loop_alive);

    // Speed corruption.
    let probe_addr = {
        let mut p = Runtime::install(standard_registry(), Policy::freepart());
        let r = drone::run(
            &mut p,
            &drone::DroneConfig {
                frames: 0,
                evil_frame: None,
            },
        );
        p.objects.meta(r.speed).unwrap().buffer.unwrap().0
    };
    let mut fp = Runtime::install(standard_registry(), Policy::freepart());
    let cfg = drone::DroneConfig {
        frames: 4,
        evil_frame: Some((
            1,
            payloads::corrupt(
                "CVE-2017-12606",
                probe_addr.0,
                (-0.3f64).to_le_bytes().to_vec(),
            ),
        )),
    };
    let r = drone::run(&mut fp, &cfg);
    println!(
        "FreePart vs speed corruption: all steering commands positive = {} (paper: \
         self.speed protected in the target process)",
        r.commands.iter().all(|c| *c > 0.0)
    );

    // ---------------- §5.4.2 MComix3 ----------------
    println!("\n== §5.4.2 MComix3 information leak ==");
    let files = vec![
        "/home/u/private-scan.png".to_owned(),
        "/home/u/tax-return.png".to_owned(),
    ];
    let addr = {
        let mut p = Runtime::install(standard_registry(), Policy::freepart());
        let r = mcomix::run(
            &mut p,
            &mcomix::ViewerConfig {
                files: files.clone(),
                evil_at: None,
            },
        );
        p.objects.meta(r.recent).unwrap().buffer.unwrap().0
    };
    let mut fp = Runtime::install(standard_registry(), Policy::freepart());
    mcomix::run(
        &mut fp,
        &mcomix::ViewerConfig {
            files,
            evil_at: Some((
                0,
                payloads::exfiltrate("CVE-2020-10378", addr.0, 30, "attacker:4444"),
            )),
        },
    );
    let marker = b"private-scan".to_vec();
    let v = judge_attack(&mut fp, &AttackGoal::Exfiltrate { marker });
    println!("recent-file-name leak under FreePart: {v:?} (paper: prevented twice over)");

    // ---------------- §A.7 StegoNet ----------------
    println!("\n== §A.7 StegoNet trojan model ==");
    let cfg = stegonet::StegoConfig {
        app: stegonet::StegoApp::MedicalCt,
        inputs: 2,
        trojan: Some(payloads::stegonet_fork_bomb("CVE-2022-45907")),
    };
    let mut orig = MonolithicRuntime::original(standard_registry());
    stegonet::run(&mut orig, &cfg);
    let orig_bomb = orig.exploit_log().last().unwrap().outcome.achieved();
    // Warm FreePart's loading agent so its filter is sealed.
    let mut fp = Runtime::install(standard_registry(), Policy::freepart());
    fp.kernel.fs.put(
        "/models/warm.stsr",
        freepart_frameworks::fileio::encode_tensor(
            &freepart_frameworks::tensor::Tensor::generate(&[4], |_| 0.0),
            None,
        ),
    );
    fp.call(
        "torch.load",
        &[freepart_frameworks::Value::from("/models/warm.stsr")],
    )
    .unwrap();
    stegonet::run(&mut fp, &cfg);
    let fp_bomb = fp.exploit_log.last().unwrap().outcome.achieved();
    println!("fork bomb detonates unprotected: {orig_bomb}; under FreePart: {fp_bomb}");
    println!("(paper: no data-processing API needs fork(), so the filter kills it)");
    assert!(orig_bomb && !fp_bomb);
}
