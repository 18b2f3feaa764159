//! The multi-tenant serving workload: N identical image pipelines, one
//! per tenant, drivable two ways against the *same* call chain —
//!
//! * **pooled** ([`run_chain_pooled`]): tenants admitted with
//!   [`Runtime::spawn_tenant`] share the four `part0..part3` agent
//!   pools; calls go through the deficit-round-robin run queues.
//! * **per-thread baseline** ([`run_chain_on`]): each pipeline gets its
//!   own agent set via [`Runtime::spawn_thread`] — the paper's §6
//!   model, 5N processes for N pipelines.
//!
//! Both runners return the same `(result, payload bytes)` pair, which
//! is what the tenant-transparency property compares byte-for-byte:
//! pooling must change *scheduling*, never *outputs*.

use freepart::{CallError, Runtime, TenantId, ThreadId};
use freepart_frameworks::fileio::encode_image;
use freepart_frameworks::image::Image;
use freepart_frameworks::{ObjectId, Value};

/// One tenant pipeline's output: the final detector result plus the
/// processed payload bytes (fetched through the owner's own view).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainOutput {
    /// `cv2.findContours` result on the processed frame.
    pub rects: Value,
    /// The blurred frame's payload, read back by the owning tenant.
    pub bytes: Vec<u8>,
}

/// Stages tenant `n`'s input frame in the simulated filesystem and
/// returns its path. Every tenant gets distinct pixel content (and a
/// distinct geometry class), so identical outputs across tenants would
/// be a correctness bug, not a coincidence.
pub fn stage_input(rt: &mut Runtime, n: u32) -> String {
    let mut img = Image::new(6 + (n % 3), 6 + (n / 3 % 3), 3);
    for (i, b) in img.data.iter_mut().enumerate() {
        *b = ((i as u32).wrapping_mul(31).wrapping_add(n * 97) % 251) as u8;
    }
    let path = format!("/tenant{n}.simg");
    // `fs_put` (not `fs.put`): the seed must land in the commit log so
    // recorded multi-tenant runs replay digest-identically.
    rt.kernel.fs_put(&path, encode_image(&img, None));
    path
}

/// The four-call chain every pipeline runs: load → color-convert →
/// blur → detect, spanning the loading and processing pools.
const CHAIN: [&str; 4] = [
    "cv2.imread",
    "cv2.cvtColor",
    "cv2.GaussianBlur",
    "cv2.findContours",
];

/// The chain loop both runners share: `call` issues each hooked call
/// and `fetch` reads the blurred frame back.
fn run_chain_with(
    rt: &mut Runtime,
    path: &str,
    call: impl Fn(&mut Runtime, &str, Value) -> Result<Value, CallError>,
    fetch: impl FnOnce(&mut Runtime, ObjectId) -> Result<Vec<u8>, CallError>,
) -> Result<ChainOutput, CallError> {
    let mut v = Value::from(path);
    let mut blurred = None;
    for api in CHAIN {
        v = call(rt, api, v)?;
        if api == "cv2.GaussianBlur" {
            blurred = v.as_obj();
        }
    }
    let bytes = fetch(rt, blurred.expect("blur returns an object"))?;
    Ok(ChainOutput { rects: v, bytes })
}

/// Runs one tenant's chain through the shared pools (DRR-scheduled).
///
/// # Errors
///
/// See [`CallError`].
pub fn run_chain_pooled(
    rt: &mut Runtime,
    tenant: TenantId,
    path: &str,
) -> Result<ChainOutput, CallError> {
    let call = |rt: &mut Runtime, api: &str, v| rt.call_tenant(tenant, api, &[v]);
    run_chain_with(rt, path, call, |rt, obj| rt.tenant_fetch(tenant, obj))
}

/// Runs the identical chain on a dedicated application thread with its
/// own agent set (the per-thread baseline).
///
/// # Errors
///
/// See [`CallError`].
pub fn run_chain_on(
    rt: &mut Runtime,
    thread: ThreadId,
    path: &str,
) -> Result<ChainOutput, CallError> {
    let call = |rt: &mut Runtime, api: &str, v| rt.call_on(thread, api, &[v]);
    run_chain_with(rt, path, call, Runtime::fetch_bytes)
}

/// Runs every tenant's chain through the pools stage-by-stage: stage
/// `k` of *all* tenants is submitted before any stage-`k` call is
/// served, so the run queues actually hold contending tenants and the
/// deficit-round-robin scheduler earns its keep. Returns each tenant's
/// final `cv2.findContours` result, in tenant order.
///
/// # Errors
///
/// See [`CallError`].
pub fn run_chains_interleaved(
    rt: &mut Runtime,
    tenants: &[TenantId],
    paths: &[String],
) -> Result<Vec<Value>, CallError> {
    let mut vals: Vec<Value> = paths.iter().map(|p| Value::from(p.as_str())).collect();
    for api in CHAIN {
        let mut handles = Vec::with_capacity(tenants.len());
        for (t, v) in tenants.iter().zip(&vals) {
            handles.push(rt.tenant_submit(*t, api, std::slice::from_ref(v))?);
        }
        rt.pump_all();
        let mut next = Vec::with_capacity(handles.len());
        for h in handles {
            next.push(rt.tenant_wait(h)?);
        }
        vals = next;
    }
    Ok(vals)
}

/// The chain's call count (sizing helpers for the bench's curves).
pub fn chain_len() -> usize {
    CHAIN.len()
}
