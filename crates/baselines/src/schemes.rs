//! Constructors for every isolation scheme of Table 1 — the five
//! baselines the paper compares against, plus FreePart itself and the
//! unprotected original.
//!
//! Each baseline is realized as a configuration of the same substrate,
//! matching the paper's framing ("we focus on the isolation/partitioning
//! mechanism of existing techniques"):
//!
//! | Scheme | Mechanism |
//! |---|---|
//! | Code-based API isolation (Privman-style) | 3 partitions (loading / visualizing / everything-else); critical data co-located with the loading code |
//! | Code-based API & data isolation (PtrSplit/PM-style) | same 3 partitions + one dedicated process per critical object, shipped per access |
//! | Library-based, entire library (Codejail-style) | host + one library process running every API, coarse whole-library sandbox (incl. `mprotect`) |
//! | Library-based, individual APIs (sandboxed-api-style) | one process per API, eager full-data marshalling through the host |
//! | Memory-based (Wedge-style data protection) | one process, critical pages read-only after setup |
//! | FreePart | four type-partitions, LDC, temporal permissions, sealed per-agent filters |

use crate::monolithic::MonolithicRuntime;
use crate::surface::ApiSurface;
use freepart::{
    ChannelTransport, HostDataPlacement, PartitionId, PartitionPlan, Policy, RestartPolicy,
    Runtime, SandboxLevel,
};
use freepart_frameworks::api::{ApiId, ApiRegistry, ApiType};
use std::collections::BTreeMap;

/// The seven runtimes the comparison tables rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchemeKind {
    /// No isolation at all (the normalization baseline).
    Original,
    /// Code-based API isolation (Fig. 2-a).
    CodeApi,
    /// Code-based API *and* data isolation (Fig. 2-b).
    CodeApiData,
    /// Library-based isolation, entire library (Fig. 2-c).
    LibraryEntire,
    /// Library-based isolation, individual APIs (Fig. 2-d).
    LibraryPerApi,
    /// Memory-based data protection.
    MemoryBased,
    /// FreePart.
    FreePart,
}

impl SchemeKind {
    /// All schemes, Table 1 order.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::Original,
        SchemeKind::CodeApi,
        SchemeKind::CodeApiData,
        SchemeKind::LibraryEntire,
        SchemeKind::LibraryPerApi,
        SchemeKind::MemoryBased,
        SchemeKind::FreePart,
    ];

    /// Display name used in the report tables.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Original => "Original (no isolation)",
            SchemeKind::CodeApi => "Code-based: API",
            SchemeKind::CodeApiData => "Code-based: API & Data",
            SchemeKind::LibraryEntire => "Library-based: Entire Library",
            SchemeKind::LibraryPerApi => "Library-based: Individual APIs",
            SchemeKind::MemoryBased => "Memory-based",
            SchemeKind::FreePart => "FreePart",
        }
    }
}

fn code_based_plan() -> PartitionPlan {
    // Loading | Visualizing | everything else (processing + storing run
    // with the remaining host code).
    let mut base = BTreeMap::new();
    base.insert(ApiType::DataLoading, PartitionId(0));
    base.insert(ApiType::Visualizing, PartitionId(1));
    base.insert(ApiType::DataProcessing, PartitionId(2));
    base.insert(ApiType::Storing, PartitionId(2));
    PartitionPlan::custom(base)
}

fn baseline_common(policy: Policy) -> Policy {
    Policy {
        temporal_protection: false,
        restart: RestartPolicy::StayDown,
        snapshot_interval: 0,
        colocate_type_neutral: false,
        ..policy
    }
}

/// Builds a runtime for `kind`. `app_universe` is the application's API
/// set — the per-API scheme gives each of them its own process.
pub fn build(kind: SchemeKind, reg: ApiRegistry, app_universe: &[ApiId]) -> Box<dyn ApiSurface> {
    match kind {
        SchemeKind::Original => Box::new(MonolithicRuntime::original(reg)),
        SchemeKind::MemoryBased => Box::new(MonolithicRuntime::memory_based(reg)),
        SchemeKind::CodeApi => {
            let policy = baseline_common(Policy {
                plan: code_based_plan(),
                lazy_data_copy: true,
                sandbox: SandboxLevel::PerAgent,
                host_data: HostDataPlacement::WithType(ApiType::DataLoading),
                ..Policy::default()
            });
            Box::new(Runtime::install(reg, policy))
        }
        SchemeKind::CodeApiData => {
            let policy = baseline_common(Policy {
                plan: code_based_plan(),
                lazy_data_copy: true,
                sandbox: SandboxLevel::PerAgent,
                host_data: HostDataPlacement::OwnProcessEach,
                transport: ChannelTransport::Pipe,
                ..Policy::default()
            });
            Box::new(Runtime::install(reg, policy))
        }
        SchemeKind::LibraryEntire => {
            let policy = baseline_common(Policy {
                plan: PartitionPlan::single(),
                lazy_data_copy: true,
                sandbox: SandboxLevel::CoarseUnion,
                host_data: HostDataPlacement::Host,
                ..Policy::default()
            });
            Box::new(Runtime::install(reg, policy))
        }
        SchemeKind::LibraryPerApi => {
            let plan = PartitionPlan::per_api(app_universe.iter().copied(), &reg);
            let policy = baseline_common(Policy {
                plan,
                lazy_data_copy: false,
                sandbox: SandboxLevel::PerAgent,
                host_data: HostDataPlacement::Host,
                transport: ChannelTransport::Pipe,
                ..Policy::default()
            });
            Box::new(Runtime::install(reg, policy))
        }
        SchemeKind::FreePart => Box::new(Runtime::install(reg, Policy::freepart())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart_frameworks::registry::standard_registry;
    use freepart_frameworks::{fileio, image::Image, ExploitAction, ExploitPayload, Value};

    fn universe(reg: &ApiRegistry) -> Vec<ApiId> {
        [
            "cv2.imread",
            "cv2.GaussianBlur",
            "cv2.erode",
            "cv2.imshow",
            "cv2.imwrite",
        ]
        .iter()
        .map(|n| reg.id_of(n).unwrap())
        .collect()
    }

    fn seed(surface: &mut dyn ApiSurface, path: &str, payload: Option<&ExploitPayload>) {
        let img = Image::new(16, 16, 3);
        surface
            .kernel_mut()
            .fs
            .put(path, fileio::encode_image(&img, payload));
    }

    #[test]
    fn every_scheme_runs_the_pipeline() {
        let reg0 = standard_registry();
        let uni = universe(&reg0);
        for kind in SchemeKind::ALL {
            let mut s = build(kind, standard_registry(), &uni);
            seed(s.as_mut(), "/in.simg", None);
            s.finish_setup();
            let img = s.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
            let b = s.call("cv2.GaussianBlur", &[img]).unwrap();
            s.call("cv2.imwrite", &[Value::from("/out.simg"), b])
                .unwrap();
            assert!(
                s.kernel().fs.exists("/out.simg"),
                "{}: output missing",
                kind.name()
            );
        }
    }

    #[test]
    fn process_counts_match_table1() {
        let reg0 = standard_registry();
        let uni = universe(&reg0);
        let counts: Vec<(SchemeKind, usize)> = SchemeKind::ALL
            .iter()
            .map(|&k| {
                let mut s = build(k, standard_registry(), &uni);
                let mut created = 0;
                if k == SchemeKind::CodeApiData {
                    // Data processes appear when critical data is declared.
                    s.host_data("template", &[0; 32]);
                    s.host_data("OMRCrop", &[0; 32]);
                    created = 2;
                }
                (k, s.process_count() - created + created) // keep raw
            })
            .collect();
        let get = |k: SchemeKind| counts.iter().find(|(x, _)| *x == k).unwrap().1;
        assert_eq!(get(SchemeKind::Original), 1);
        assert_eq!(get(SchemeKind::MemoryBased), 1);
        assert_eq!(get(SchemeKind::CodeApi), 4); // host + 3 partitions
        assert_eq!(get(SchemeKind::CodeApiData), 6); // + 2 data processes
        assert_eq!(get(SchemeKind::LibraryEntire), 2);
        assert_eq!(get(SchemeKind::LibraryPerApi), 1 + 4 + uni.len()); // host + type fallbacks + per-API
        assert_eq!(get(SchemeKind::FreePart), 5);
    }

    #[test]
    fn code_api_baseline_leaves_template_corruptible() {
        // Fig. 2-a's weakness: template lives in the same process as the
        // vulnerable imread.
        let reg = standard_registry();
        let uni = universe(&reg);
        let mut s = build(SchemeKind::CodeApi, standard_registry(), &uni);
        let template = s.host_data("template", b"answers!");
        s.finish_setup();
        let addr = s.objects().meta(template).unwrap().buffer.unwrap().0;
        let payload = ExploitPayload {
            cve: "CVE-2017-12597".into(),
            actions: vec![ExploitAction::WriteMem {
                addr: addr.0,
                bytes: b"EVILEVIL".to_vec(),
            }],
        };
        seed(s.as_mut(), "/evil.simg", Some(&payload));
        s.call("cv2.imread", &[Value::from("/evil.simg")]).unwrap();
        assert!(s.exploit_log().last().unwrap().outcome.achieved());
        assert_eq!(s.fetch_bytes(template).unwrap(), b"EVILEVIL");
    }

    #[test]
    fn code_api_data_baseline_protects_but_pays_in_ipc() {
        let reg = standard_registry();
        let uni = universe(&reg);
        let mut s = build(SchemeKind::CodeApiData, standard_registry(), &uni);
        let template = s.host_data("template", b"answers!");
        s.finish_setup();
        let addr = s.objects().meta(template).unwrap().buffer.unwrap().0;
        let payload = ExploitPayload {
            cve: "CVE-2017-12597".into(),
            actions: vec![ExploitAction::WriteMem {
                addr: addr.0,
                bytes: b"EVILEVIL".to_vec(),
            }],
        };
        seed(s.as_mut(), "/evil.simg", Some(&payload));
        let _ = s.call("cv2.imread", &[Value::from("/evil.simg")]);
        // Data survived: it lives in its own process.
        assert_eq!(s.fetch_bytes(template).unwrap(), b"answers!");
        assert!(!s.exploit_log().last().unwrap().outcome.achieved());
        // But every host access ships it around.
        let before = s.kernel().metrics().copied_bytes;
        for _ in 0..10 {
            s.fetch_bytes(template).unwrap();
        }
        assert!(s.kernel().metrics().copied_bytes > before);
    }

    #[test]
    fn library_entire_allows_code_rewrite_inside_the_library() {
        let reg = standard_registry();
        let uni = universe(&reg);
        let mut s = build(SchemeKind::LibraryEntire, standard_registry(), &uni);
        seed(s.as_mut(), "/warm.simg", None);
        s.call("cv2.imread", &[Value::from("/warm.simg")]).unwrap();
        // Target the library process's own memory: a page that is RX.
        let lib_pid = s
            .objects()
            .iter()
            .next()
            .map(|m| m.home)
            .expect("library object exists");
        let code = s
            .kernel_mut()
            .alloc(lib_pid, 4096, freepart_simos::Perms::RX)
            .unwrap();
        let payload = ExploitPayload {
            cve: "CVE-2017-12597".into(),
            actions: vec![ExploitAction::RewriteCode { addr: code.0 }],
        };
        seed(s.as_mut(), "/evil.simg", Some(&payload));
        s.call("cv2.imread", &[Value::from("/evil.simg")]).unwrap();
        // Coarse whole-library sandbox includes mprotect: the rewrite
        // landed (Table 1 row 3: C not prevented).
        assert!(s.exploit_log().last().unwrap().outcome.achieved());
    }

    #[test]
    fn per_api_scheme_moves_far_more_bytes_than_freepart() {
        let reg0 = standard_registry();
        let uni = universe(&reg0);
        let run = |kind: SchemeKind| {
            let mut s = build(kind, standard_registry(), &uni);
            seed(s.as_mut(), "/in.simg", None);
            s.finish_setup();
            let img = s.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
            let a = s.call("cv2.GaussianBlur", &[img]).unwrap();
            let b = s.call("cv2.erode", &[a]).unwrap();
            s.call("cv2.imwrite", &[Value::from("/o.simg"), b]).unwrap();
            s.kernel().metrics().copied_bytes
        };
        let per_api = run(SchemeKind::LibraryPerApi);
        let freepart = run(SchemeKind::FreePart);
        assert!(
            per_api as f64 > 2.0 * freepart as f64,
            "per-API {per_api}B vs FreePart {freepart}B"
        );
    }
}
