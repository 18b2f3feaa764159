//! The unpartitioned runtimes: the original program (one process, no
//! protection) and the memory-based data-protection baseline on top of
//! it (critical pages go read-only after setup; no process isolation,
//! no syscall restriction — Table 1 row 5).

use crate::surface::ApiSurface;
use freepart::{CallError, PartitionId};
use freepart_frameworks::api::ApiRegistry;
use freepart_frameworks::exec::execute;
use freepart_frameworks::{ActionReport, ApiCtx, ObjectId, ObjectKind, ObjectStore, Value};
use freepart_simos::{Kernel, Perms, Pid};

/// A single-process runtime executing every API in the application's
/// own address space.
pub struct MonolithicRuntime {
    /// The simulated OS.
    pub kernel: Kernel,
    /// Live framework objects.
    pub objects: ObjectStore,
    reg: ApiRegistry,
    pid: Pid,
    exploit_log: Vec<ActionReport>,
    readonly_critical: bool,
    criticals: Vec<ObjectId>,
    calls: u64,
}

impl MonolithicRuntime {
    /// The unprotected original program.
    pub fn original(reg: ApiRegistry) -> MonolithicRuntime {
        MonolithicRuntime::build(reg, false)
    }

    /// The memory-based protection baseline: after
    /// [`ApiSurface::finish_setup`], critical data pages are read-only.
    pub fn memory_based(reg: ApiRegistry) -> MonolithicRuntime {
        MonolithicRuntime::build(reg, true)
    }

    fn build(reg: ApiRegistry, readonly_critical: bool) -> MonolithicRuntime {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("app");
        MonolithicRuntime {
            kernel,
            objects: ObjectStore::new(),
            reg,
            pid,
            exploit_log: Vec::new(),
            readonly_critical,
            criticals: Vec::new(),
            calls: 0,
        }
    }

    /// The API registry in force.
    pub fn registry(&self) -> &ApiRegistry {
        &self.reg
    }

    /// Completed calls.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl ApiSurface for MonolithicRuntime {
    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, CallError> {
        let api = self
            .reg
            .id_of(name)
            .ok_or_else(|| CallError::UnknownApi(name.to_owned()))?;
        if !self.kernel.is_running(self.pid) {
            // One process: any crash takes the whole application down.
            return Err(CallError::AgentUnavailable(PartitionId(0)));
        }
        let mut ctx = ApiCtx::new(&mut self.kernel, &mut self.objects, self.pid);
        let result = execute(&self.reg, api, args, &mut ctx);
        let log = std::mem::take(&mut ctx.exploit_log);
        drop(ctx);
        self.exploit_log.extend(log);
        match result {
            Ok(v) => {
                self.calls += 1;
                Ok(v)
            }
            Err(e) if e.is_crash() => Err(CallError::AgentCrashed(PartitionId(0))),
            Err(e) => Err(CallError::Framework(e)),
        }
    }

    fn host_data(&mut self, label: &str, bytes: &[u8]) -> ObjectId {
        let id = self
            .objects
            .create_with_data(&mut self.kernel, self.pid, ObjectKind::Blob, label, bytes)
            .expect("app process alive at setup");
        self.criticals.push(id);
        id
    }

    fn create_object(&mut self, kind: ObjectKind, label: &str, bytes: &[u8]) -> ObjectId {
        self.objects
            .create_with_data(&mut self.kernel, self.pid, kind, label, bytes)
            .expect("app process alive")
    }

    fn fetch_bytes(&mut self, id: ObjectId) -> Result<Vec<u8>, CallError> {
        self.objects
            .read_bytes(&mut self.kernel, id)
            .map_err(|_| CallError::StateLost(id))
    }

    fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn objects(&self) -> &ObjectStore {
        &self.objects
    }

    fn host_pid(&self) -> Pid {
        self.pid
    }

    fn exploit_log(&self) -> &[ActionReport] {
        &self.exploit_log
    }

    fn attack_view(&mut self) -> (&mut Kernel, &ObjectStore, Pid) {
        (&mut self.kernel, &self.objects, self.pid)
    }

    fn code_target(&mut self) -> u64 {
        // The application's own text segment (simulated).
        self.kernel
            .alloc(self.pid, freepart_simos::PAGE_SIZE, Perms::RX)
            .expect("app alive")
            .0
    }

    fn process_count(&self) -> usize {
        1
    }

    fn finish_setup(&mut self) {
        if !self.readonly_critical {
            return;
        }
        // Memory-based protection: lock the annotated pages read-only
        // (the paper's sophisticated dependency analysis decided which;
        // here the annotations are explicit).
        for id in self.criticals.clone() {
            if let Some(meta) = self.objects.meta(id) {
                if let Some((addr, len)) = meta.buffer {
                    let home = meta.home;
                    let _ = self.kernel.protect(home, &[(addr, len)], Perms::R);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart_frameworks::registry::standard_registry;
    use freepart_frameworks::{fileio, image::Image, ExploitAction, ExploitPayload};

    fn seed(rt: &mut MonolithicRuntime, path: &str, payload: Option<&ExploitPayload>) {
        let img = Image::new(8, 8, 3);
        rt.kernel.fs.put(path, fileio::encode_image(&img, payload));
    }

    #[test]
    fn original_runs_pipeline_in_one_process() {
        let mut rt = MonolithicRuntime::original(standard_registry());
        seed(&mut rt, "/in.simg", None);
        let img = rt.call("cv2.imread", &[Value::from("/in.simg")]).unwrap();
        rt.call("cv2.GaussianBlur", &[img]).unwrap();
        assert_eq!(rt.process_count(), 1);
        assert_eq!(rt.kernel.metrics().ipc_messages, 0, "no IPC at all");
        assert_eq!(
            rt.kernel.metrics().copied_bytes,
            0,
            "no cross-process copies"
        );
    }

    #[test]
    fn original_lets_exploit_corrupt_critical_data() {
        let mut rt = MonolithicRuntime::original(standard_registry());
        let secret = rt.host_data("template", b"KEY!");
        rt.finish_setup();
        let addr = rt.objects.meta(secret).unwrap().buffer.unwrap().0;
        let payload = ExploitPayload {
            cve: "CVE-2017-12597".into(),
            actions: vec![ExploitAction::WriteMem {
                addr: addr.0,
                bytes: b"EVIL".to_vec(),
            }],
        };
        seed(&mut rt, "/evil.simg", Some(&payload));
        rt.call("cv2.imread", &[Value::from("/evil.simg")]).unwrap();
        assert_eq!(
            rt.fetch_bytes(secret).unwrap(),
            b"EVIL",
            "corruption landed"
        );
    }

    #[test]
    fn memory_based_blocks_the_write_but_dies_doing_it() {
        let mut rt = MonolithicRuntime::memory_based(standard_registry());
        let secret = rt.host_data("template", b"KEY!");
        rt.finish_setup();
        let addr = rt.objects.meta(secret).unwrap().buffer.unwrap().0;
        let payload = ExploitPayload {
            cve: "CVE-2017-12597".into(),
            actions: vec![ExploitAction::WriteMem {
                addr: addr.0,
                bytes: b"EVIL".to_vec(),
            }],
        };
        seed(&mut rt, "/evil.simg", Some(&payload));
        let err = rt
            .call("cv2.imread", &[Value::from("/evil.simg")])
            .unwrap_err();
        // The write faulted — data protected — but the fault killed the
        // only process: the DoS the paper's Table 1 row 5 concedes.
        assert!(matches!(err, CallError::AgentCrashed(_)));
        assert!(!rt.kernel.is_running(rt.host_pid()));
        seed(&mut rt, "/ok.simg", None);
        assert!(matches!(
            rt.call("cv2.imread", &[Value::from("/ok.simg")]),
            Err(CallError::AgentUnavailable(_))
        ));
    }

    #[test]
    fn memory_based_does_not_stop_code_rewrite() {
        let mut rt = MonolithicRuntime::memory_based(standard_registry());
        rt.finish_setup();
        let code = rt.kernel.alloc(rt.host_pid(), 4096, Perms::RX).unwrap();
        let payload = ExploitPayload {
            cve: "CVE-2017-12597".into(),
            actions: vec![ExploitAction::RewriteCode { addr: code.0 }],
        };
        seed(&mut rt, "/evil.simg", Some(&payload));
        rt.call("cv2.imread", &[Value::from("/evil.simg")]).unwrap();
        // No syscall filter: mprotect + patch both succeeded.
        assert!(rt.exploit_log().last().unwrap().outcome.achieved());
    }
}
