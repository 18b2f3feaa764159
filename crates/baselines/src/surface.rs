//! A uniform driving surface over every isolation scheme.
//!
//! The evaluation runs the *same* application pipeline under FreePart,
//! the five baselines of Table 1, and the unprotected original;
//! [`ApiSurface`] is the interface those pipelines are written against.

use freepart::{CallError, Runtime};
use freepart_frameworks::{ActionReport, ObjectId, Value};
use freepart_simos::{Kernel, Pid};

/// Anything an application pipeline needs from its runtime.
pub trait ApiSurface {
    /// Invokes a framework API by qualified name.
    ///
    /// # Errors
    ///
    /// Scheme-specific containment failures surface as [`CallError`].
    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, CallError>;

    /// Invokes a framework API whose response the application does not
    /// need retired yet: a scheme that coalesces calls (FreePart's batch
    /// window) leaves it in flight while its open batch holds it, at
    /// most until [`ApiSurface::drain_inflight`]; every other call
    /// retires at once. Results are those of [`ApiSurface::call`].
    /// Default: `call`.
    ///
    /// Deferral is for coalescing frames only. Overlap in per-process
    /// virtual time stays the job of `Runtime::call_async` and
    /// `Runtime::wait`; no driver defers under pipelining.
    ///
    /// # Errors
    ///
    /// As [`ApiSurface::call`].
    fn call_deferred(&mut self, name: &str, args: &[Value]) -> Result<Value, CallError> {
        self.call(name, args)
    }

    /// Retires every call still in flight from
    /// [`ApiSurface::call_deferred`]. Default: no-op.
    fn drain_inflight(&mut self) {}

    /// Allocates host-application critical data (participates in
    /// whatever data protection the scheme offers).
    fn host_data(&mut self, label: &str, bytes: &[u8]) -> ObjectId;

    /// Creates a host-homed object of an arbitrary kind (pipeline
    /// plumbing: pre-existing models, figures, tables).
    fn create_object(
        &mut self,
        kind: freepart_frameworks::ObjectKind,
        label: &str,
        bytes: &[u8],
    ) -> ObjectId;

    /// Host-side dereference of an object's payload.
    ///
    /// # Errors
    ///
    /// [`CallError::StateLost`] when the payload died with a process.
    fn fetch_bytes(&mut self, id: ObjectId) -> Result<Vec<u8>, CallError>;

    /// Mutable kernel access (seeding files, devices, inspecting state).
    fn kernel_mut(&mut self) -> &mut Kernel;

    /// Shared kernel access.
    fn kernel(&self) -> &Kernel;

    /// The object store.
    fn objects(&self) -> &freepart_frameworks::ObjectStore;

    /// The host/application process.
    fn host_pid(&self) -> Pid;

    /// Exploit actions observed so far.
    fn exploit_log(&self) -> &[ActionReport];

    /// Simultaneous access to the pieces attack judgment needs:
    /// mutable kernel (memory reads), object store, and host pid.
    fn attack_view(&mut self) -> (&mut Kernel, &freepart_frameworks::ObjectStore, Pid);

    /// Address of an executable code page in the process that runs
    /// `cv2.imread` — the target of code-rewriting exploits.
    fn code_target(&mut self) -> u64;

    /// Number of processes the scheme uses.
    fn process_count(&self) -> usize;

    /// Called by the application after its initialization section —
    /// schemes that lock things down post-setup (memory-based
    /// protection) hook this. Default: no-op.
    fn finish_setup(&mut self) {}

    /// Drops a named instant mark into the scheme's trace timeline, when
    /// it keeps one (pipeline phase boundaries: per-sample, per-frame).
    /// Default: no-op — baselines without tracing ignore marks.
    fn trace_mark(&mut self, _label: &str) {}
}

impl ApiSurface for Runtime {
    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, CallError> {
        Runtime::call(self, name, args)
    }

    fn call_deferred(&mut self, name: &str, args: &[Value]) -> Result<Value, CallError> {
        Runtime::call_deferred(self, name, args)
    }

    fn drain_inflight(&mut self) {
        Runtime::drain_inflight(self);
    }

    fn host_data(&mut self, label: &str, bytes: &[u8]) -> ObjectId {
        Runtime::host_data(self, label, bytes)
    }

    fn create_object(
        &mut self,
        kind: freepart_frameworks::ObjectKind,
        label: &str,
        bytes: &[u8],
    ) -> ObjectId {
        Runtime::host_object(self, kind, label, bytes)
    }

    fn fetch_bytes(&mut self, id: ObjectId) -> Result<Vec<u8>, CallError> {
        Runtime::fetch_bytes(self, id)
    }

    fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn objects(&self) -> &freepart_frameworks::ObjectStore {
        &self.objects
    }

    fn host_pid(&self) -> Pid {
        self.host_pid()
    }

    fn exploit_log(&self) -> &[ActionReport] {
        &self.exploit_log
    }

    fn attack_view(&mut self) -> (&mut Kernel, &freepart_frameworks::ObjectStore, Pid) {
        let host = Runtime::host_pid(self);
        (&mut self.kernel, &self.objects, host)
    }

    fn code_target(&mut self) -> u64 {
        let imread = self
            .registry()
            .id_of("cv2.imread")
            .expect("catalog has imread");
        let partition = self.partition_of(imread);
        self.agent(partition)
            .expect("loading agent exists")
            .code_page
            .0
    }

    fn process_count(&self) -> usize {
        self.kernel.process_count()
    }

    fn trace_mark(&mut self, label: &str) {
        Runtime::trace_mark(self, label);
    }
}
