//! [`IdTable`]: a map keyed by dense, never-reused ids (pids, object
//! ids, tenant threads, call seqs, tickets), stored as a `Vec` of slots
//! indexed by the id. Indexing costs one bounds check where a `BTreeMap`
//! searches a tree, and iteration visits ids in ascending order, as the
//! tree did.

use crate::process::Pid;
use std::marker::PhantomData;

/// A key of an [`IdTable`]: an id counted up from 0 (or from a fixed
/// base, leaving the slots below it empty) and never reused.
pub trait DenseId: Copy {
    /// The id's slot number.
    fn slot(self) -> u64;
    /// The id of slot `slot`.
    fn from_slot(slot: u64) -> Self;
}

impl DenseId for u32 {
    fn slot(self) -> u64 {
        u64::from(self)
    }
    fn from_slot(slot: u64) -> u32 {
        u32::try_from(slot).expect("u32 id space exhausted")
    }
}

impl DenseId for u64 {
    fn slot(self) -> u64 {
        self
    }
    fn from_slot(slot: u64) -> u64 {
        slot
    }
}

impl DenseId for Pid {
    fn slot(self) -> u64 {
        u64::from(self.0)
    }
    fn from_slot(slot: u64) -> Pid {
        Pid(u32::from_slot(slot))
    }
}

/// A map from dense ids to values: slot `i` holds the value of id `i`.
///
/// Lookups ([`get`](IdTable::get), [`get_mut`](IdTable::get_mut),
/// [`take`](IdTable::take), [`contains`](IdTable::contains)) never
/// allocate, whatever id they are given, so ids that arrive from
/// outside (call arguments, replayed logs) may be looked up freely.
/// Only [`insert`](IdTable::insert) grows the table to the id it names.
///
/// # Example
///
/// ```
/// let mut t: freepart_simos::IdTable<u64, &str> = Default::default();
/// let a = t.push("a");
/// t.insert(3, "d");
/// assert_eq!((t.take(a), t.len(), t.next_id()), (Some("a"), 1, 4));
/// assert_eq!(t.iter().collect::<Vec<_>>(), vec![(3, &"d")]);
/// assert_eq!(t.get(u64::MAX), None);
/// ```
#[derive(Debug, Clone)]
pub struct IdTable<K, V> {
    slots: Vec<Option<V>>,
    /// Number of `Some` slots.
    live: usize,
    key: PhantomData<fn() -> K>,
}

impl<K, V> Default for IdTable<K, V> {
    fn default() -> Self {
        IdTable {
            slots: Vec::new(),
            live: 0,
            key: PhantomData,
        }
    }
}

impl<K: DenseId, V> IdTable<K, V> {
    /// An empty table.
    pub fn new() -> IdTable<K, V> {
        IdTable::default()
    }

    fn index(k: K) -> Option<usize> {
        usize::try_from(k.slot()).ok()
    }

    /// Stores `v` under the next id, which it returns: the table mints it.
    pub fn push(&mut self, v: V) -> K {
        let k = K::from_slot(self.next_id());
        self.slots.push(Some(v));
        self.live += 1;
        k
    }

    /// Stores `v` under `k`, an id some other counter minted, growing
    /// the table to `k + 1` slots; returns the value `k` held before.
    ///
    /// Only ids the runtime minted may be inserted: an id that arrives
    /// from outside would size the table by its value. Such ids only
    /// ever reach the lookups, which never allocate.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let i = Self::index(k).expect("id fits the address space");
        if i >= self.slots.len() {
            let len = i.checked_add(1).expect("id below usize::MAX");
            self.slots.resize_with(len, || None);
        }
        let old = self.slots[i].replace(v);
        self.live += usize::from(old.is_none());
        old
    }

    /// The value under `k`.
    pub fn get(&self, k: K) -> Option<&V> {
        self.slots.get(Self::index(k)?)?.as_ref()
    }

    /// The value under `k`, mutably.
    pub fn get_mut(&mut self, k: K) -> Option<&mut V> {
        self.slots.get_mut(Self::index(k)?)?.as_mut()
    }

    /// Removes and returns the value under `k`. Its id stays spent.
    pub fn take(&mut self, k: K) -> Option<V> {
        let v = self.slots.get_mut(Self::index(k)?)?.take()?;
        self.live -= 1;
        Some(v)
    }

    /// Whether `k` holds a value.
    pub fn contains(&self, k: K) -> bool {
        self.get(k).is_some()
    }

    /// Number of ids holding a value.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no id holds a value.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The id [`IdTable::push`] mints next: one past the highest id the
    /// table has ever held. A watermark for [`IdTable::ids_since`].
    pub fn next_id(&self) -> u64 {
        self.slots.len() as u64
    }

    /// `(id, value)` pairs, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((K::from_slot(i as u64), v.as_ref()?)))
    }

    /// Values, in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten()
    }

    /// Ids holding a value at or after `watermark` (a value
    /// [`IdTable::next_id`] returned), ascending. Walks only the tail
    /// of the table: O(ids minted since), not O(entries).
    pub fn ids_since(&self, watermark: u64) -> impl Iterator<Item = K> + '_ {
        let start = usize::try_from(watermark).unwrap_or(usize::MAX);
        let tail = self.slots.get(start..).unwrap_or_default();
        tail.iter()
            .enumerate()
            .filter(|(_, v)| v.is_some())
            .map(move |(i, _)| K::from_slot(watermark + i as u64))
    }
}
