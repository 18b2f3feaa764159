//! Framework data objects and the object store.
//!
//! Framework APIs exchange *objects* — images (`Mat`), tensors, models,
//! captures, tables, windows. An object's metadata lives in the
//! [`ObjectStore`] (the simulation's stand-in for the object header), but
//! its **payload bytes live in simulated process memory**, which is what
//! makes FreePart's page-permission enforcement and cross-process
//! isolation meaningful: an exploit can only touch buffers mapped — and
//! writable — in its own process.
//!
//! The store's one copy primitive, `migrate_direct`, serves both
//! data-movement strategies the paper compares: eager deep copy through
//! the host process (two hops) and direct agent-to-agent transfer (one
//! hop, the Lazy Data Copy fast path).

use freepart_simos::{Addr, Kernel, Perms, Pid, ShmId, SimError, WindowId};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a framework object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// What kind of framework object this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectKind {
    /// An image matrix (`cv::Mat`): height × width × channels bytes.
    Mat {
        /// Width in pixels.
        w: u32,
        /// Height in pixels.
        h: u32,
        /// Channels (1 = gray, 3 = BGR).
        ch: u32,
    },
    /// An n-dimensional tensor of `f32` values.
    Tensor {
        /// Dimension sizes, outermost first.
        shape: Vec<u32>,
    },
    /// A loaded model (weights tensor + layer count).
    Model {
        /// Number of layers.
        layers: u32,
    },
    /// A video/camera capture handle (stateful: frame cursor).
    Capture {
        /// Frames served so far — state that must survive restarts.
        frames_read: u64,
    },
    /// A trained cascade classifier.
    Classifier {
        /// Number of boosting stages.
        stages: u32,
    },
    /// A tabular dataset (CSV-backed).
    Table {
        /// Row count.
        rows: u32,
        /// Column count.
        cols: u32,
    },
    /// A GUI window handle.
    Window {
        /// Display-subsystem window id.
        id: WindowId,
    },
    /// An opaque byte blob (serialized state, protos, plots).
    Blob,
}

impl ObjectKind {
    /// Payload length in bytes implied by the kind, where fixed.
    pub fn natural_len(&self) -> Option<u64> {
        match self {
            ObjectKind::Mat { w, h, ch } => Some(*w as u64 * *h as u64 * *ch as u64),
            ObjectKind::Tensor { shape } => {
                Some(4 * shape.iter().map(|d| *d as u64).product::<u64>())
            }
            _ => None,
        }
    }

    /// True for the kinds whose state a restarted agent must get back
    /// (captures, models, classifiers): the objects periodic snapshots
    /// cover (§6, §A.2.4).
    pub fn is_stateful(&self) -> bool {
        matches!(
            self,
            ObjectKind::Capture { .. } | ObjectKind::Model { .. } | ObjectKind::Classifier { .. }
        )
    }
}

/// Metadata for one live object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// The object's identity.
    pub id: ObjectId,
    /// Structural kind.
    pub kind: ObjectKind,
    /// Process whose address space holds the payload.
    pub home: Pid,
    /// Payload location in `home`'s address space (`None` for
    /// buffer-less objects like windows, and for shm-resident payloads).
    pub buffer: Option<(Addr, u64)>,
    /// Kernel-owned shared-memory residency `(segment, len)`: set once
    /// the payload has been promoted out of private memory by the `Shm`
    /// transport. Mutually exclusive with `buffer`. `home` then tracks
    /// the process currently *using* the payload (for routing and
    /// temporal-permission decisions), not where the bytes live.
    pub shm: Option<(ShmId, u64)>,
    /// Human-readable tag ("template", "OMRCrop", ...), used by the
    /// protection annotations and the evaluation reports.
    pub label: String,
    /// Exploit payload riding along in malformed content (a crafted file
    /// decoded by a *patched* loader still yields malformed data that can
    /// trigger a CVE in a downstream processing API).
    pub taint: Option<crate::exploit::ExploitPayload>,
}

impl ObjectMeta {
    /// Payload length (0 for buffer-less objects).
    pub fn len(&self) -> u64 {
        self.buffer
            .map_or_else(|| self.shm.map_or(0, |(_, l)| l), |(_, l)| l)
    }

    /// True when the object carries no payload at all (neither a private
    /// buffer nor a shared-memory segment).
    pub fn is_empty(&self) -> bool {
        self.buffer.is_none() && self.shm.is_none()
    }
}

/// Central table of live framework objects.
///
/// # Example
///
/// ```
/// use freepart_simos::Kernel;
/// use freepart_frameworks::object::{ObjectKind, ObjectStore};
///
/// let mut k = Kernel::new();
/// let pid = k.spawn("host");
/// let mut store = ObjectStore::new();
/// let id = store
///     .create_with_data(&mut k, pid, ObjectKind::Mat { w: 2, h: 2, ch: 1 }, "img", &[1, 2, 3, 4])
///     .unwrap();
/// assert_eq!(store.read_bytes(&mut k, id).unwrap(), vec![1, 2, 3, 4]);
/// ```
#[derive(Debug, Default)]
pub struct ObjectStore {
    /// Slot `i` holds object `i`: `insert` hands ids out densely and
    /// never reuses one, so a destroyed object leaves an empty slot.
    objects: Vec<Option<ObjectMeta>>,
    /// Number of live (`Some`) slots.
    live: usize,
    /// Live objects of a stateful kind, updated only where objects enter
    /// (`insert`) and leave (`destroy`) the store: a kind never changes
    /// variant. Deliberately not keyed by `home`, which every move and
    /// restore rewrites.
    stateful: BTreeSet<ObjectId>,
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> ObjectStore {
        ObjectStore::default()
    }

    /// Registers a buffer-less object (e.g. a window handle).
    pub fn create_handle(&mut self, home: Pid, kind: ObjectKind, label: &str) -> ObjectId {
        self.insert(kind, home, None, label)
    }

    /// Allocates a payload buffer in `home` and registers the object.
    pub fn create_with_data(
        &mut self,
        kernel: &mut Kernel,
        home: Pid,
        kind: ObjectKind,
        label: &str,
        data: &[u8],
    ) -> Result<ObjectId, SimError> {
        let len = data.len().max(1) as u64;
        let addr = kernel.alloc(home, len, Perms::RW)?;
        kernel.mem_write(home, addr, data)?;
        Ok(self.insert(kind, home, Some((addr, data.len() as u64)), label))
    }

    /// Registers a new object under the next id — the one way into the
    /// store, so the stateful index stays complete.
    fn insert(
        &mut self,
        kind: ObjectKind,
        home: Pid,
        buffer: Option<(Addr, u64)>,
        label: &str,
    ) -> ObjectId {
        let id = ObjectId(self.next_id_watermark());
        if kind.is_stateful() {
            self.stateful.insert(id);
        }
        let meta = ObjectMeta {
            id,
            kind,
            home,
            buffer,
            shm: None,
            label: label.to_owned(),
            taint: None,
        };
        self.objects.push(Some(meta));
        self.live += 1;
        id
    }

    /// Looks up an object's metadata.
    pub fn meta(&self, id: ObjectId) -> Option<&ObjectMeta> {
        self.objects.get(id.0 as usize)?.as_ref()
    }

    /// Mutable metadata access (kind updates for stateful objects).
    pub fn meta_mut(&mut self, id: ObjectId) -> Option<&mut ObjectMeta> {
        self.objects.get_mut(id.0 as usize)?.as_mut()
    }

    /// Reads the full payload of an object *through the kernel* (so page
    /// permissions apply to the reading process's view — here the home
    /// process reads its own buffer).
    pub fn read_bytes(&self, kernel: &mut Kernel, id: ObjectId) -> Result<Vec<u8>, SimError> {
        let meta = self.meta(id).expect("object id must be live");
        if let Some((seg, _)) = meta.shm {
            return kernel.shm_read(meta.home, seg);
        }
        match meta.buffer {
            Some((addr, len)) => kernel.mem_read(meta.home, addr, len),
            None => Ok(Vec::new()),
        }
    }

    /// Overwrites the payload in place (same length) or reallocates when
    /// the size changed.
    pub fn write_bytes(
        &mut self,
        kernel: &mut Kernel,
        id: ObjectId,
        data: &[u8],
    ) -> Result<(), SimError> {
        let meta = self.meta_mut(id).expect("object id must be live");
        if let Some((seg, _)) = meta.shm {
            kernel.shm_write(meta.home, seg, data)?;
            meta.shm = Some((seg, data.len() as u64));
            return Ok(());
        }
        match meta.buffer {
            Some((addr, len)) if len == data.len() as u64 => {
                kernel.mem_write(meta.home, addr, data)
            }
            _ => {
                let addr = kernel.alloc(meta.home, data.len().max(1) as u64, Perms::RW)?;
                kernel.mem_write(meta.home, addr, data)?;
                meta.buffer = Some((addr, data.len() as u64));
                Ok(())
            }
        }
    }

    /// Moves an object's payload directly into `dst` (the LDC fast path:
    /// one cross-address-space copy, agent → agent).
    pub fn migrate_direct(
        &mut self,
        kernel: &mut Kernel,
        id: ObjectId,
        dst: Pid,
    ) -> Result<(), SimError> {
        let meta = self.meta(id).expect("object id must be live");
        if meta.home == dst {
            return Ok(());
        }
        if let Some((seg, _)) = meta.shm {
            // Shm-resident payloads never move: hand `dst` a view.
            kernel.shm_grant(seg, dst, Perms::RW)?;
            kernel.shm_map(dst, seg)?;
            self.meta_mut(id).expect("live").home = dst;
            return Ok(());
        }
        match meta.buffer {
            None => {
                self.meta_mut(id).expect("live").home = dst;
                Ok(())
            }
            Some((addr, len)) => {
                let data = kernel.mem_read(meta.home, addr, len)?;
                let new_addr = kernel.alloc(dst, len.max(1), Perms::RW)?;
                kernel.mem_write(dst, new_addr, &data)?;
                kernel.charge_copy(len);
                let meta = self.meta_mut(id).expect("live");
                meta.home = dst;
                meta.buffer = Some((new_addr, len));
                Ok(())
            }
        }
    }

    /// Promotes an object's private payload into a kernel-owned
    /// shared-memory segment (the `Shm` transport's one-time step).
    ///
    /// The segment adopts the payload — no byte copy is charged, only
    /// the owner's mapping cost — after which the private buffer is
    /// forgotten (`buffer = None`) and all access goes through grants.
    /// Buffer-less objects and already-promoted objects are no-ops.
    pub fn promote_to_shm(
        &mut self,
        kernel: &mut Kernel,
        id: ObjectId,
    ) -> Result<Option<ShmId>, SimError> {
        let meta = self.meta(id).expect("object id must be live");
        if let Some((seg, _)) = meta.shm {
            return Ok(Some(seg));
        }
        let Some((addr, len)) = meta.buffer else {
            return Ok(None);
        };
        let home = meta.home;
        let data = kernel.mem_read(home, addr, len)?;
        let seg = kernel.shm_create(home, data)?;
        let meta = self.meta_mut(id).expect("live");
        meta.buffer = None;
        meta.shm = Some((seg, len));
        Ok(Some(seg))
    }

    /// Duplicates an object's payload into `dst`, leaving the original in
    /// place (deep copy of an argument, as the paper's hooking does for
    /// `Mat` references).
    pub fn deep_copy_to(
        &mut self,
        kernel: &mut Kernel,
        id: ObjectId,
        dst: Pid,
    ) -> Result<ObjectId, SimError> {
        let meta = self.meta(id).expect("object id must be live").clone();
        let new_id = if let Some((seg, len)) = meta.shm {
            // Duplication is a genuine copy even out of a segment.
            let data = kernel.shm_read(meta.home, seg)?;
            kernel.charge_copy(len);
            self.create_with_data(kernel, dst, meta.kind, &meta.label, &data)?
        } else {
            match meta.buffer {
                None => self.create_handle(dst, meta.kind, &meta.label),
                Some((addr, len)) => {
                    let data = kernel.mem_read(meta.home, addr, len)?;
                    kernel.charge_copy(len);
                    self.create_with_data(kernel, dst, meta.kind, &meta.label, &data)?
                }
            }
        };
        // Malformed content stays malformed when copied.
        self.meta_mut(new_id).expect("just created").taint = meta.taint;
        Ok(new_id)
    }

    /// Drops an object (its buffer stays mapped; the simulation never
    /// reuses addresses, so dangling references fault realistically).
    pub fn destroy(&mut self, id: ObjectId) -> Option<ObjectMeta> {
        self.stateful.remove(&id);
        let meta = self.objects.get_mut(id.0 as usize)?.take()?;
        self.live -= 1;
        Some(meta)
    }

    /// Live objects of a stateful kind ([`ObjectKind::is_stateful`]), in
    /// ascending id order — O(stateful objects), not O(live objects).
    pub fn stateful(&self) -> &BTreeSet<ObjectId> {
        debug_assert!(
            self.iter()
                .filter(|m| m.kind.is_stateful())
                .map(|m| m.id)
                .eq(self.stateful.iter().copied()),
            "stateful index drifted"
        );
        &self.stateful
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// The id the *next* created object will receive — a monotone
    /// watermark callers use to identify objects created during a window.
    pub fn next_id_watermark(&self) -> u64 {
        self.objects.len() as u64
    }

    /// Ids of live objects created at or after `watermark` (a value
    /// previously returned by [`ObjectStore::next_id_watermark`]), in
    /// ascending order. Ids are dense and monotone, so this walks just
    /// the tail of the table — O(new objects), not O(live objects).
    pub fn ids_since(&self, watermark: u64) -> impl Iterator<Item = ObjectId> + '_ {
        let tail = self.objects.get(watermark as usize..).unwrap_or_default();
        tail.iter().flatten().map(|m| m.id)
    }

    /// True when no objects are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterator over all live objects, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &ObjectMeta> {
        self.objects.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Kernel, Pid, Pid, ObjectStore) {
        let mut k = Kernel::new();
        let a = k.spawn("a");
        let b = k.spawn("b");
        (k, a, b, ObjectStore::new())
    }

    #[test]
    fn ids_since_returns_only_the_tail() {
        let (mut k, a, _, mut store) = setup();
        let first = store
            .create_with_data(&mut k, a, ObjectKind::Blob, "old", &[1])
            .unwrap();
        let mark = store.next_id_watermark();
        assert_eq!(store.ids_since(mark).count(), 0);
        let second = store
            .create_with_data(&mut k, a, ObjectKind::Blob, "new", &[2])
            .unwrap();
        let tail: Vec<ObjectId> = store.ids_since(mark).collect();
        assert_eq!(tail, vec![second]);
        assert!(store.ids_since(0).any(|id| id == first));
    }

    #[test]
    fn create_and_read_roundtrip() {
        let (mut k, a, _, mut store) = setup();
        let id = store
            .create_with_data(&mut k, a, ObjectKind::Blob, "x", &[5, 6])
            .unwrap();
        assert_eq!(store.read_bytes(&mut k, id).unwrap(), vec![5, 6]);
        assert_eq!(store.meta(id).unwrap().len(), 2);
        assert_eq!(store.meta(id).unwrap().home, a);
    }

    #[test]
    fn write_bytes_realloc_on_resize() {
        let (mut k, a, _, mut store) = setup();
        let id = store
            .create_with_data(&mut k, a, ObjectKind::Blob, "x", &[1])
            .unwrap();
        store.write_bytes(&mut k, id, &[7, 8, 9]).unwrap();
        assert_eq!(store.read_bytes(&mut k, id).unwrap(), vec![7, 8, 9]);
    }

    #[test]
    fn migrate_direct_charges_one_copy() {
        let (mut k, a, b, mut store) = setup();
        let id = store
            .create_with_data(&mut k, a, ObjectKind::Blob, "x", &[1; 2048])
            .unwrap();
        let before = k.metrics();
        store.migrate_direct(&mut k, id, b).unwrap();
        let d = k.metrics().since(&before);
        assert_eq!(d.copy_ops, 1);
        assert_eq!(d.copied_bytes, 2048);
        assert_eq!(store.meta(id).unwrap().home, b);
        assert_eq!(store.read_bytes(&mut k, id).unwrap(), vec![1; 2048]);
    }

    #[test]
    fn migrate_to_same_home_is_free() {
        let (mut k, a, _, mut store) = setup();
        let id = store
            .create_with_data(&mut k, a, ObjectKind::Blob, "x", &[0; 512])
            .unwrap();
        let before = k.metrics();
        store.migrate_direct(&mut k, id, a).unwrap();
        assert_eq!(k.metrics().since(&before).copy_ops, 0);
    }

    #[test]
    fn deep_copy_leaves_original() {
        let (mut k, a, b, mut store) = setup();
        let id = store
            .create_with_data(&mut k, a, ObjectKind::Blob, "x", &[3, 4])
            .unwrap();
        let dup = store.deep_copy_to(&mut k, id, b).unwrap();
        assert_ne!(id, dup);
        assert_eq!(store.meta(id).unwrap().home, a);
        assert_eq!(store.meta(dup).unwrap().home, b);
        assert_eq!(store.read_bytes(&mut k, dup).unwrap(), vec![3, 4]);
    }

    #[test]
    fn promote_to_shm_moves_payload_without_copying() {
        let (mut k, a, b, mut store) = setup();
        let id = store
            .create_with_data(&mut k, a, ObjectKind::Blob, "x", &[4; 8192])
            .unwrap();
        let before = k.metrics();
        let seg = store.promote_to_shm(&mut k, id).unwrap().unwrap();
        let d = k.metrics().since(&before);
        assert_eq!(d.copied_bytes, 0, "promotion adopts pages, never copies");
        assert_eq!(d.shm_grants, 1);
        assert_eq!(d.shm_mapped_bytes, 8192);
        let m = store.meta(id).unwrap();
        assert!(m.buffer.is_none());
        assert_eq!(m.shm, Some((seg, 8192)));
        assert_eq!(m.len(), 8192);
        assert!(!m.is_empty());
        // Idempotent.
        assert_eq!(store.promote_to_shm(&mut k, id).unwrap(), Some(seg));

        // Migration of a promoted object grants a view instead of copying.
        let before = k.metrics();
        store.migrate_direct(&mut k, id, b).unwrap();
        let d = k.metrics().since(&before);
        assert_eq!(d.copied_bytes, 0);
        assert_eq!(d.shm_grants, 1);
        assert_eq!(store.meta(id).unwrap().home, b);
        assert_eq!(store.read_bytes(&mut k, id).unwrap(), vec![4; 8192]);
    }

    #[test]
    fn shm_resident_write_and_resize_roundtrip() {
        let (mut k, a, _, mut store) = setup();
        let id = store
            .create_with_data(&mut k, a, ObjectKind::Blob, "x", &[1, 2, 3])
            .unwrap();
        store.promote_to_shm(&mut k, id).unwrap();
        store.write_bytes(&mut k, id, &[9; 10]).unwrap();
        assert_eq!(store.read_bytes(&mut k, id).unwrap(), vec![9; 10]);
        assert_eq!(store.meta(id).unwrap().len(), 10);
    }

    #[test]
    fn deep_copy_out_of_shm_charges_a_real_copy() {
        let (mut k, a, b, mut store) = setup();
        let id = store
            .create_with_data(&mut k, a, ObjectKind::Blob, "x", &[7; 2048])
            .unwrap();
        store.promote_to_shm(&mut k, id).unwrap();
        let before = k.metrics();
        let dup = store.deep_copy_to(&mut k, id, b).unwrap();
        assert_eq!(k.metrics().since(&before).copied_bytes, 2048);
        assert_eq!(store.meta(dup).unwrap().home, b);
        assert!(store.meta(dup).unwrap().shm.is_none());
        assert_eq!(store.read_bytes(&mut k, dup).unwrap(), vec![7; 2048]);
    }

    #[test]
    fn promote_buffer_less_object_is_none() {
        let (mut k, a, _, mut store) = setup();
        let id = store.create_handle(a, ObjectKind::Blob, "h");
        assert_eq!(store.promote_to_shm(&mut k, id).unwrap(), None);
    }

    #[test]
    fn natural_len_for_mats_and_tensors() {
        assert_eq!(
            ObjectKind::Mat { w: 4, h: 3, ch: 3 }.natural_len(),
            Some(36)
        );
        assert_eq!(
            ObjectKind::Tensor { shape: vec![2, 3] }.natural_len(),
            Some(24)
        );
        assert_eq!(ObjectKind::Blob.natural_len(), None);
    }
}
