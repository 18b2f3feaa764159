//! Property tests of kernel-level invariants under randomized operation
//! sequences.

use freepart_simos::commit::{fold, fold_bytes, mix, FINGERPRINT_SEED};
use freepart_simos::{
    Addr, AddressSpace, Errno, FaultKind, FdRule, IdTable, Kernel, Perms, SimError, Syscall,
    SyscallFilter, SyscallNo, PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum MemOp {
    Alloc(u16),
    Write(u8, Vec<u8>),
    Protect(u8, u8),
    Read(u8, u16),
}

fn arb_mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (1u16..2048).prop_map(MemOp::Alloc),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(i, d)| MemOp::Write(i, d)),
        (any::<u8>(), 0u8..5).prop_map(|(i, p)| MemOp::Protect(i, p)),
        (any::<u8>(), 1u16..128).prop_map(|(i, n)| MemOp::Read(i, n)),
    ]
}

proptest! {
    /// Arbitrary alloc/write/protect/read sequences: reads of untouched
    /// RW regions always return the last committed bytes; faults crash
    /// exactly once and keep the rest of the kernel usable.
    #[test]
    fn kernel_memory_ops_are_consistent(ops in proptest::collection::vec(arb_mem_op(), 1..40)) {
        let mut kernel = Kernel::new();
        let victim = kernel.spawn("victim");
        let observer = kernel.spawn("observer");
        let obs_addr = kernel.alloc(observer, 64, Perms::RW).unwrap();
        kernel.mem_write(observer, obs_addr, b"untouched").unwrap();

        let mut regions: Vec<(freepart_simos::Addr, u64, Perms)> = Vec::new();
        let mut shadow: Vec<Vec<u8>> = Vec::new();
        let perms_of = |p: u8| match p {
            0 => Perms::NONE,
            1 => Perms::R,
            2 => Perms::RW,
            3 => Perms::RX,
            _ => Perms::RWX,
        };
        for op in ops {
            if !kernel.is_running(victim) {
                break;
            }
            match op {
                MemOp::Alloc(len) => {
                    let a = kernel.alloc(victim, len as u64, Perms::RW).unwrap();
                    regions.push((a, len as u64, Perms::RW));
                    shadow.push(vec![0; len as usize]);
                }
                MemOp::Write(i, data) => {
                    if regions.is_empty() { continue; }
                    let idx = i as usize % regions.len();
                    let (a, len, p) = regions[idx];
                    let n = data.len().min(len as usize);
                    let r = kernel.mem_write(victim, a, &data[..n]);
                    prop_assert_eq!(r.is_ok(), p.writable());
                    if r.is_ok() {
                        shadow[idx][..n].copy_from_slice(&data[..n]);
                    }
                }
                MemOp::Protect(i, p) => {
                    if regions.is_empty() { continue; }
                    let idx = i as usize % regions.len();
                    let (a, len, _) = regions[idx];
                    let perms = perms_of(p);
                    kernel.protect(victim, &[(a, len)], perms).unwrap();
                    regions[idx].2 = perms;
                }
                MemOp::Read(i, n) => {
                    if regions.is_empty() { continue; }
                    let idx = i as usize % regions.len();
                    let (a, len, p) = regions[idx];
                    let n = (n as u64).min(len);
                    let r = kernel.mem_read(victim, a, n);
                    prop_assert_eq!(r.is_ok(), p.readable());
                    if let Ok(bytes) = r {
                        prop_assert_eq!(&bytes[..], &shadow[idx][..n as usize]);
                    }
                }
            }
        }
        // Whatever happened to the victim, the observer is untouched.
        prop_assert!(kernel.is_running(observer));
        prop_assert_eq!(kernel.mem_read(observer, obs_addr, 9).unwrap(), b"untouched");
    }

    /// Syscall filters: a locked deny-heavy filter kills the process on
    /// the first disallowed call and never resurrects it; allowed calls
    /// before that all pass.
    #[test]
    fn filter_kill_is_terminal(allowed_idx in proptest::collection::btree_set(0usize..SyscallNo::ALL.len(), 1..10),
                               probe in 0usize..SyscallNo::ALL.len()) {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("sandboxed");
        let allowed: Vec<SyscallNo> = allowed_idx.iter().map(|i| SyscallNo::ALL[*i]).collect();
        let mut filter = SyscallFilter::allowing(allowed.iter().copied());
        filter.lock();
        kernel.install_filter(pid, filter).unwrap();
        let call = |no: SyscallNo| -> Syscall {
            match no {
                SyscallNo::Getpid => Syscall::Getpid,
                SyscallNo::Brk => Syscall::Brk { grow: 1 },
                _ => Syscall::Uname, // representative benign call
            }
        };
        // Issue an allowed call first if we have a concretely-mapped one.
        if allowed.contains(&SyscallNo::Getpid) {
            prop_assert!(kernel.syscall(pid, Syscall::Getpid).is_ok());
        }
        let probe_no = SyscallNo::ALL[probe];
        let concrete = call(probe_no);
        let should_pass = allowed.contains(&concrete.number());
        let result = kernel.syscall(pid, concrete);
        prop_assert_eq!(result.is_ok(), should_pass);
        prop_assert_eq!(kernel.is_running(pid), should_pass);
        if !should_pass {
            // Terminal: nothing works afterwards, not even allowed calls.
            prop_assert!(kernel.syscall(pid, Syscall::Getpid).is_err());
        }
    }

    /// fd rules: whatever fds are designated, the rule never admits a
    /// non-designated fd and never rejects a designated one.
    #[test]
    fn fd_rules_are_exact(designated in proptest::collection::btree_set(0u32..32, 1..6),
                          probe in 0u32..32) {
        let rule = FdRule::only(designated.iter().map(|&i| freepart_simos::Fd(i)));
        let mut filter = SyscallFilter::allowing([SyscallNo::Ioctl]);
        filter.set_fd_rule(SyscallNo::Ioctl, rule);
        let verdict = filter.evaluate(&Syscall::Ioctl {
            fd: freepart_simos::Fd(probe),
            request: 0,
        });
        let expected = designated.contains(&probe);
        prop_assert_eq!(verdict == freepart_simos::FilterDecision::Allow, expected);
    }

    /// Metrics counters are monotone under arbitrary IPC traffic.
    #[test]
    fn metrics_monotone_under_ipc(msgs in proptest::collection::vec(1usize..512, 1..20)) {
        let mut kernel = Kernel::new();
        let a = kernel.spawn("a");
        let b = kernel.spawn("b");
        let chan = kernel.create_channel(a, b, 1 << 20).unwrap();
        let mut last = kernel.metrics();
        let mut last_clock = kernel.clock().now_ns();
        for n in msgs {
            kernel.ipc_send(a, chan, &vec![0u8; n]).unwrap();
            kernel.ipc_recv(b, chan).unwrap().unwrap();
            let m = kernel.metrics();
            prop_assert!(m.ipc_messages > last.ipc_messages);
            prop_assert!(m.ipc_bytes >= last.ipc_bytes + n as u64);
            prop_assert!(kernel.clock().now_ns() > last_clock);
            last = m;
            last_clock = kernel.clock().now_ns();
        }
    }

    /// Page-granular protection: protecting a sub-range read-only never
    /// affects bytes outside the touched pages.
    #[test]
    fn protect_is_page_granular(pages in 2u64..6, target in 0u64..6) {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("p");
        let base = kernel.alloc(pid, pages * PAGE_SIZE, Perms::RW).unwrap();
        let target = target % pages;
        kernel
            .protect(pid, &[(base.offset(target * PAGE_SIZE), PAGE_SIZE)], Perms::R)
            .unwrap();
        for page in 0..pages {
            let addr = base.offset(page * PAGE_SIZE);
            let writable = kernel.mem_write(pid, addr, &[1]).is_ok();
            prop_assert_eq!(writable, page != target, "page {}", page);
            if !writable {
                // The protection fault killed the process; verify the
                // fault shape and stop.
                prop_assert!(!kernel.is_running(pid));
                let state = &kernel.process(pid).unwrap().state;
                prop_assert!(matches!(
                    state,
                    freepart_simos::ProcessState::Crashed(f)
                        if f.kind == FaultKind::Protection
                ));
                break;
            }
        }
    }
}

// ----------------------------------------------------------------------
// The dense page table against the sparse page walk it replaced
// ----------------------------------------------------------------------

/// First heap address of every address space (the first allocation's
/// base; the property checks it).
const HEAP_BASE: u64 = 0x1000_0000;

/// One page of the reference model: permissions, bytes, write count.
struct ModelPage {
    perms: Perms,
    data: Vec<u8>,
    writes: u64,
}

/// The reference address space: pages in a `BTreeMap` keyed by base
/// address, every range walked page by page in ascending order, with
/// the fingerprint folded exactly as `AddressSpace` documents it. A
/// range whose end passes `u64::MAX` is unmapped.
struct Model {
    pages: BTreeMap<u64, ModelPage>,
    brk: u64,
    fp: u64,
}

/// Page bases of the first and last page of `[addr, addr+len)`, a
/// length of 0 meaning the page containing `addr`; `None` when the end
/// passes `u64::MAX`.
fn span(addr: u64, len: u64) -> Option<(u64, u64)> {
    let end = addr.checked_add(len.saturating_sub(1))?;
    Some((addr & !(PAGE_SIZE - 1), end & !(PAGE_SIZE - 1)))
}

/// The page bases `first..=last`, ascending.
fn walk(first: u64, last: u64) -> impl Iterator<Item = u64> {
    (first..=last).step_by(PAGE_SIZE as usize)
}

impl Model {
    fn new() -> Model {
        Model {
            pages: BTreeMap::new(),
            brk: HEAP_BASE,
            fp: FINGERPRINT_SEED,
        }
    }

    fn alloc(&mut self, len: u64, perms: Perms) -> Addr {
        let base = self.brk;
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let page = ModelPage {
                perms,
                data: vec![0; PAGE_SIZE as usize],
                writes: 0,
            };
            self.pages.insert(base + i * PAGE_SIZE, page);
        }
        self.brk = base + pages * PAGE_SIZE;
        self.fp = mix(mix(mix(mix(self.fp, 1), base), pages), perms.bits().into());
        Addr(base)
    }

    fn unmap(&mut self, addr: u64, len: u64) {
        let Some((first, last)) = span(addr, len) else {
            return;
        };
        let doomed: Vec<u64> = self.pages.range(first..=last).map(|(p, _)| *p).collect();
        for p in &doomed {
            self.pages.remove(p);
        }
        if !doomed.is_empty() {
            self.fp = mix(mix(mix(self.fp, 2), first), doomed.len() as u64);
        }
    }

    /// One wholly mapped range's page walk: the pages it changed.
    fn protect_one(&mut self, addr: u64, len: u64, perms: Perms) -> u64 {
        let (first, last) = span(addr, len).unwrap();
        let mut changed = 0;
        for p in walk(first, last) {
            let page = self.pages.get_mut(&p).unwrap();
            if page.perms != perms {
                page.perms = perms;
                changed += 1;
            }
        }
        changed
    }

    /// A list of ranges is the single-range protect folded over them,
    /// once every range is known to be wholly mapped.
    fn protect(&mut self, ranges: &[(u64, u64)], perms: Perms) -> Result<u64, FaultKind> {
        if !ranges.iter().all(|&(a, n)| self.is_mapped(a, n)) {
            return Err(FaultKind::Unmapped);
        }
        let mut changed = 0;
        let mut fp = fold(self.fp, 3);
        for &(addr, len) in ranges {
            changed += self.protect_one(addr, len, perms);
            fp = fold(fold(fp, addr & !(PAGE_SIZE - 1)), len);
        }
        if changed > 0 {
            self.fp = fold(fold(fp, changed), perms.bits().into());
        }
        Ok(changed)
    }

    fn perms_match(&self, addr: u64, len: u64, perms: Perms) -> bool {
        span(addr, len).is_some_and(|(first, last)| {
            walk(first, last).all(|p| self.pages.get(&p).is_some_and(|pg| pg.perms == perms))
        })
    }

    fn is_mapped(&self, addr: u64, len: u64) -> bool {
        span(addr, len)
            .is_some_and(|(first, last)| walk(first, last).all(|p| self.pages.contains_key(&p)))
    }

    fn write_epoch(&self, addr: u64, len: u64) -> Option<u64> {
        let (first, last) = span(addr, len)?;
        walk(first, last)
            .map(|p| self.pages.get(&p).map(|pg| pg.writes))
            .sum()
    }

    fn check(&self, addr: u64, len: u64, needed: Perms) -> Result<(), FaultKind> {
        if len == 0 {
            return Ok(());
        }
        let (first, last) = span(addr, len).ok_or(FaultKind::Unmapped)?;
        for p in walk(first, last) {
            match self.pages.get(&p) {
                None => return Err(FaultKind::Unmapped),
                Some(pg) if !pg.perms.allows(needed) => return Err(FaultKind::Protection),
                Some(_) => {}
            }
        }
        Ok(())
    }

    fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, FaultKind> {
        self.check(addr, len, Perms::R)?;
        let byte = |a: u64| self.pages[&(a & !(PAGE_SIZE - 1))].data[(a % PAGE_SIZE) as usize];
        Ok((addr..addr + len).map(byte).collect())
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), FaultKind> {
        self.check(addr, bytes.len() as u64, Perms::W)?;
        self.fp = fold_bytes(mix(mix(self.fp, 4), addr), bytes);
        let mut touched = BTreeSet::new();
        for (a, b) in (addr..).zip(bytes) {
            let base = a & !(PAGE_SIZE - 1);
            let page = self.pages.get_mut(&base).unwrap();
            page.data[(a % PAGE_SIZE) as usize] = *b;
            if touched.insert(base) {
                page.writes += 1;
            }
        }
        Ok(())
    }
}

/// Where an operation lands, resolved against the state it meets.
#[derive(Debug, Clone)]
enum Place {
    /// `off` bytes into the `i`-th allocation (modulo their count), past
    /// its end too; a hole once unmapped.
    Region(u8, u16),
    /// `k` bytes below the heap base.
    BelowHeap(u16),
    /// `k` bytes past the start of the page two below the heap cursor,
    /// so ranges run over the table's end.
    TableEnd(u16),
    /// `k` bytes below `u64::MAX`.
    NearMax(u8),
}

/// How long the range is, resolved against its start.
#[derive(Debug, Clone)]
enum Len {
    Zero,
    One,
    /// Up to three pages.
    Small(u16),
    /// To the end of the start's page, plus `k` bytes.
    Straddle(u8),
    /// One of a few lengths no address space can hold.
    Huge(u8),
}

/// One `AddressSpace` call; `u8` permission fields index `perms_of`,
/// and a write's `u8` seeds its bytes.
#[derive(Debug, Clone)]
enum AsOp {
    Alloc(u16, u8),
    Unmap(Place, Len),
    /// One to four ranges, all changed or none.
    Protect(Vec<(Place, Len)>, u8),
    Write(Place, Len, u8),
    Read(Place, Len),
    Fetch(Place),
    PermsMatch(Place, Len, u8),
    WriteEpoch(Place, Len),
    IsMapped(Place, Len),
    PermsAt(Place),
}

// `prop_oneof!` has no weights here: an arm listed twice is drawn twice
// as often.
fn arb_place() -> impl Strategy<Value = Place> {
    prop_oneof![
        (any::<u8>(), 0u16..4 * PAGE_SIZE as u16).prop_map(|(i, off)| Place::Region(i, off)),
        (any::<u8>(), 0u16..4 * PAGE_SIZE as u16).prop_map(|(i, off)| Place::Region(i, off)),
        (1u16..2 * PAGE_SIZE as u16).prop_map(Place::BelowHeap),
        (0u16..4 * PAGE_SIZE as u16).prop_map(Place::TableEnd),
        (0u8..64).prop_map(Place::NearMax),
    ]
}

fn arb_len() -> impl Strategy<Value = Len> {
    prop_oneof![
        Just(Len::Zero),
        Just(Len::One),
        (2u16..3 * PAGE_SIZE as u16).prop_map(Len::Small),
        (0u8..64).prop_map(Len::Straddle),
        any::<u8>().prop_map(Len::Huge),
    ]
}

fn arb_ranges() -> impl Strategy<Value = Vec<(Place, Len)>> {
    proptest::collection::vec((arb_place(), arb_len()), 1..5)
}

fn arb_as_op() -> impl Strategy<Value = AsOp> {
    prop_oneof![
        (1u16..3 * PAGE_SIZE as u16, 0u8..7).prop_map(|(n, p)| AsOp::Alloc(n, p)),
        (arb_place(), arb_len()).prop_map(|(a, n)| AsOp::Unmap(a, n)),
        (arb_ranges(), 0u8..7).prop_map(|(r, p)| AsOp::Protect(r, p)),
        (arb_ranges(), 0u8..7).prop_map(|(r, p)| AsOp::Protect(r, p)),
        (arb_place(), arb_len(), any::<u8>()).prop_map(|(a, n, s)| AsOp::Write(a, n, s)),
        (arb_place(), arb_len(), any::<u8>()).prop_map(|(a, n, s)| AsOp::Write(a, n, s)),
        (arb_place(), arb_len()).prop_map(|(a, n)| AsOp::Read(a, n)),
        arb_place().prop_map(AsOp::Fetch),
        (arb_place(), arb_len(), 0u8..7).prop_map(|(a, n, p)| AsOp::PermsMatch(a, n, p)),
        (arb_place(), arb_len()).prop_map(|(a, n)| AsOp::WriteEpoch(a, n)),
        (arb_place(), arb_len()).prop_map(|(a, n)| AsOp::IsMapped(a, n)),
        arb_place().prop_map(AsOp::PermsAt),
    ]
}

fn perms_of(p: u8) -> Perms {
    [
        Perms::NONE,
        Perms::R,
        Perms::W,
        Perms::X,
        Perms::RW,
        Perms::RX,
        Perms::RWX,
    ][p as usize % 7]
}

/// Every result an operation can return, so both sides compare whole.
#[derive(Debug, PartialEq)]
enum Out {
    Addr(Addr),
    Unit,
    Changed(Result<u64, FaultKind>),
    Access(Result<(), FaultKind>),
    Bytes(Result<Vec<u8>, FaultKind>),
    Flag(bool),
    Epoch(Option<u64>),
    Perms(Option<Perms>),
}

/// Drives `ops` through an `AddressSpace` and the reference model,
/// comparing every result, the fingerprint and the page counts after
/// each one.
fn check_dense_against_sparse(ops: &[AsOp]) {
    let mut asp = AddressSpace::new();
    let mut model = Model::new();
    let mut regions: Vec<(u64, u64)> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        let at = |place: &Place| match *place {
            Place::Region(i, off) => match regions.get(i as usize % regions.len().max(1)) {
                Some(&(base, _)) => base + u64::from(off),
                None => HEAP_BASE + u64::from(off),
            },
            Place::BelowHeap(k) => HEAP_BASE - u64::from(k),
            Place::TableEnd(k) => (model.brk - 2 * PAGE_SIZE).max(HEAP_BASE) + u64::from(k),
            Place::NearMax(k) => u64::MAX - u64::from(k),
        };
        let len = |addr: u64, len: &Len| match *len {
            Len::Zero => 0,
            Len::One => 1,
            Len::Small(n) => u64::from(n),
            Len::Straddle(k) => PAGE_SIZE - addr % PAGE_SIZE + u64::from(k),
            Len::Huge(s) => [
                u64::MAX,
                u64::MAX - 1,
                u64::MAX / 2,
                1 << 40,
                u64::MAX - PAGE_SIZE,
            ][s as usize % 5],
        };
        let (real, reference) = match op {
            AsOp::Alloc(n, p) => {
                let (n, perms) = (u64::from(*n), perms_of(*p));
                let a = asp.alloc(n, perms);
                regions.push((a.0, n));
                (Out::Addr(a), Out::Addr(model.alloc(n, perms)))
            }
            AsOp::Unmap(place, n) => {
                let a = at(place);
                let n = len(a, n);
                asp.unmap(Addr(a), n);
                model.unmap(a, n);
                (Out::Unit, Out::Unit)
            }
            AsOp::Protect(places, p) => {
                let ranges: Vec<(u64, u64)> = places
                    .iter()
                    .map(|(place, n)| {
                        let a = at(place);
                        (a, len(a, n))
                    })
                    .collect();
                let real: Vec<(Addr, u64)> = ranges.iter().map(|&(a, n)| (Addr(a), n)).collect();
                let perms = perms_of(*p);
                let out = (
                    Out::Changed(asp.protect(&real, perms)),
                    Out::Changed(model.protect(&ranges, perms)),
                );
                // A failed op changed no page, a successful one the same
                // pages: every mapped page agrees with the model.
                for (&page, pg) in &model.pages {
                    prop_assert_eq!(asp.perms_at(Addr(page)), Some(pg.perms), "step {}", step);
                }
                out
            }
            AsOp::Write(place, n, seed) => {
                let a = at(place);
                // A payload is real bytes: cap huge lengths at four pages.
                let n = len(a, n).min(4 * PAGE_SIZE);
                let bytes: Vec<u8> = (0..n).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
                (
                    Out::Access(asp.write(Addr(a), &bytes)),
                    Out::Access(model.write(a, &bytes)),
                )
            }
            AsOp::Read(place, n) => {
                let a = at(place);
                let n = len(a, n);
                (
                    Out::Bytes(asp.read(Addr(a), n)),
                    Out::Bytes(model.read(a, n)),
                )
            }
            AsOp::Fetch(place) => {
                let a = at(place);
                (
                    Out::Access(asp.fetch(Addr(a))),
                    Out::Access(model.check(a, 1, Perms::X)),
                )
            }
            AsOp::PermsMatch(place, n, p) => {
                let a = at(place);
                let (n, perms) = (len(a, n), perms_of(*p));
                (
                    Out::Flag(asp.perms_match(Addr(a), n, perms)),
                    Out::Flag(model.perms_match(a, n, perms)),
                )
            }
            AsOp::WriteEpoch(place, n) => {
                let a = at(place);
                let n = len(a, n);
                (
                    Out::Epoch(asp.write_epoch(Addr(a), n)),
                    Out::Epoch(model.write_epoch(a, n)),
                )
            }
            AsOp::IsMapped(place, n) => {
                let a = at(place);
                let n = len(a, n);
                (
                    Out::Flag(asp.is_mapped(Addr(a), n)),
                    Out::Flag(model.is_mapped(a, n)),
                )
            }
            AsOp::PermsAt(place) => {
                let a = at(place);
                let page = model.pages.get(&(a & !(PAGE_SIZE - 1)));
                (
                    Out::Perms(asp.perms_at(Addr(a))),
                    Out::Perms(page.map(|pg| pg.perms)),
                )
            }
        };
        prop_assert_eq!(real, reference, "step {}: {:?}", step, op);
        prop_assert_eq!(asp.fingerprint(), model.fp, "step {}: {:?}", step, op);
        prop_assert_eq!(asp.page_count(), model.pages.len(), "step {}", step);
        prop_assert_eq!(asp.mapped_bytes(), model.pages.len() as u64 * PAGE_SIZE);
    }
}

proptest! {
    /// The dense page table answers every operation exactly as the
    /// sparse page walk does: results (fault kinds and changed-page
    /// counts included), fingerprint and page counts, over addresses in
    /// regions, in unmap holes, below the heap, across the table's end
    /// and next to `u64::MAX`.
    #[test]
    fn dense_table_matches_sparse_walk(ops in proptest::collection::vec(arb_as_op(), 1..80)) {
        check_dense_against_sparse(&ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// [`dense_table_matches_sparse_walk`] over 4096 cases; run in
    /// release with `--ignored`.
    #[test]
    #[ignore]
    fn dense_table_matches_sparse_walk_deep(ops in proptest::collection::vec(arb_as_op(), 1..80)) {
        check_dense_against_sparse(&ops);
    }
}

/// Where an [`IdTable`] lookup lands.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// A live id (the n-th, modulo the live count).
    Live(u8),
    /// An id whose value was taken.
    Taken(u8),
    /// An id at or past the table's end, never minted.
    Unborn(u8),
    /// An id no table could hold: `u64::MAX` and its kin.
    Huge(u8),
}

#[derive(Debug, Clone)]
enum TableOp {
    /// The table mints the id.
    Push(u16),
    /// Another counter mints a fresh id `gap` past the table's end.
    Insert(u8, u16),
    /// An id minted earlier but skipped by a gap arrives late.
    InsertLate(u8, u16),
    Get(Probe),
    GetMut(Probe, u16),
    Take(Probe),
    Contains(Probe),
}

fn arb_probe() -> impl Strategy<Value = Probe> {
    prop_oneof![
        any::<u8>().prop_map(Probe::Live),
        any::<u8>().prop_map(Probe::Taken),
        any::<u8>().prop_map(Probe::Unborn),
        any::<u8>().prop_map(Probe::Huge),
    ]
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        any::<u16>().prop_map(TableOp::Push),
        (0u8..4, any::<u16>()).prop_map(|(g, v)| TableOp::Insert(g, v)),
        (any::<u8>(), any::<u16>()).prop_map(|(i, v)| TableOp::InsertLate(i, v)),
        arb_probe().prop_map(TableOp::Get),
        (arb_probe(), any::<u16>()).prop_map(|(p, v)| TableOp::GetMut(p, v)),
        arb_probe().prop_map(TableOp::Take),
        arb_probe().prop_map(TableOp::Contains),
    ]
}

/// The `BTreeMap` an [`IdTable`] must answer like, plus the id
/// bookkeeping the model needs to pick ids: one past the highest id
/// ever held, the ids taken, and the ids a gap skipped.
#[derive(Default)]
struct TableModel {
    map: BTreeMap<u64, u16>,
    end: u64,
    taken: Vec<u64>,
    skipped: BTreeSet<u64>,
}

impl TableModel {
    fn pick<T: Copy>(ids: impl ExactSizeIterator<Item = T>, n: u8) -> Option<T> {
        let len = ids.len();
        ids.into_iter().nth(usize::from(n) % len.max(1))
    }

    /// The id a probe names; a probe with nothing to name is unborn.
    fn resolve(&self, probe: Probe) -> u64 {
        let unborn = |n: u8| self.end + u64::from(n % 4);
        match probe {
            Probe::Live(n) => Self::pick(self.map.keys().copied(), n).unwrap_or_else(|| unborn(n)),
            Probe::Taken(n) => {
                Self::pick(self.taken.iter().copied(), n).unwrap_or_else(|| unborn(n))
            }
            Probe::Unborn(n) => unborn(n),
            Probe::Huge(n) => {
                [u64::MAX, u64::MAX - 1, u64::from(u32::MAX), 1 << 40][usize::from(n % 4)]
            }
        }
    }

    /// Records a fresh value at `id`, a minted id that never held one.
    fn fill(&mut self, id: u64, v: u16) {
        self.skipped.remove(&id);
        self.skipped.extend(self.end..id);
        self.end = self.end.max(id + 1);
        self.map.insert(id, v);
    }
}

/// Drives `ops` through an [`IdTable`] and the model. Lookups at every
/// kind of id (live, taken, unborn, `u64::MAX`-class) answer as the map
/// does and never grow the table; after every op, `iter` order, `len`
/// and `ids_since` at the op's watermark agree.
fn check_table_against_map(ops: &[(TableOp, u8)]) {
    let mut table: IdTable<u64, u16> = IdTable::new();
    let mut model = TableModel::default();
    for (step, (op, mark)) in ops.iter().enumerate() {
        let end = table.next_id();
        match *op {
            TableOp::Push(v) => {
                let id = table.push(v);
                prop_assert_eq!(id, model.end, "step {}: push mints the end", step);
                model.fill(id, v);
            }
            TableOp::Insert(gap, v) => {
                let id = model.end + u64::from(gap);
                prop_assert_eq!(table.insert(id, v), None);
                model.fill(id, v);
            }
            TableOp::InsertLate(n, v) => {
                if let Some(id) = TableModel::pick(model.skipped.iter().copied(), n) {
                    prop_assert_eq!(table.insert(id, v), None);
                    model.fill(id, v);
                }
            }
            TableOp::Get(probe) => {
                let id = model.resolve(probe);
                prop_assert_eq!(table.get(id), model.map.get(&id));
                prop_assert_eq!(table.next_id(), end, "step {}: get grew the table", step);
            }
            TableOp::GetMut(probe, v) => {
                let id = model.resolve(probe);
                let (got, want) = (table.get_mut(id), model.map.get_mut(&id));
                prop_assert_eq!(got.is_some(), want.is_some());
                if let (Some(got), Some(want)) = (got, want) {
                    (*got, *want) = (v, v);
                }
                prop_assert_eq!(
                    table.next_id(),
                    end,
                    "step {}: get_mut grew the table",
                    step
                );
            }
            TableOp::Take(probe) => {
                let id = model.resolve(probe);
                let want = model.map.remove(&id);
                if want.is_some() {
                    model.taken.push(id);
                }
                prop_assert_eq!(table.take(id), want);
                prop_assert_eq!(table.next_id(), end, "step {}: take grew the table", step);
            }
            TableOp::Contains(probe) => {
                let id = model.resolve(probe);
                prop_assert_eq!(table.contains(id), model.map.contains_key(&id));
                prop_assert_eq!(
                    table.next_id(),
                    end,
                    "step {}: contains grew the table",
                    step
                );
            }
        }
        prop_assert_eq!(table.next_id(), model.end, "step {}: {:?}", step, op);
        prop_assert_eq!(table.len(), model.map.len());
        prop_assert_eq!(table.is_empty(), model.map.is_empty());
        prop_assert!(table
            .iter()
            .map(|(k, v)| (k, *v))
            .eq(model.map.iter().map(|(k, v)| (*k, *v))));
        prop_assert!(table.values().eq(model.map.values()));
        let watermark = u64::from(*mark) % (model.end + 2);
        let tail: Vec<u64> = model.map.range(watermark..).map(|(k, _)| *k).collect();
        prop_assert_eq!(table.ids_since(watermark).collect::<Vec<_>>(), tail);
        prop_assert_eq!(table.ids_since(u64::MAX).count(), 0);
    }
}

proptest! {
    /// The id table answers every push, insert (fresh ids past a gap
    /// and late ids a gap skipped) and lookup as a `BTreeMap` keyed by
    /// id does, and a lookup at any id, `u64::MAX` included, never grows
    /// it.
    #[test]
    fn id_table_matches_a_btree_map(ops in proptest::collection::vec((arb_table_op(), any::<u8>()), 1..80)) {
        check_table_against_map(&ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// [`id_table_matches_a_btree_map`] over 4096 cases; run in release
    /// with `--ignored`.
    #[test]
    #[ignore]
    fn id_table_matches_a_btree_map_deep(ops in proptest::collection::vec((arb_table_op(), any::<u8>()), 1..80)) {
        check_table_against_map(&ops);
    }
}

/// A range whose end passes `u64::MAX` is unmapped: `mprotect` over it
/// is `EINVAL` and changes nothing, and a load or store over it crashes
/// only the caller with an `Unmapped` fault.
#[test]
fn ranges_past_u64_max_are_unmapped() {
    let mut k = Kernel::new();
    let p = k.spawn("p");
    let addr = k.alloc(p, PAGE_SIZE, Perms::RW).unwrap();
    let mprotect = Syscall::Mprotect {
        addr,
        len: u64::MAX,
        perms: Perms::R,
    };
    assert_eq!(k.syscall(p, mprotect), Err(SimError::Errno(Errno::Einval)));
    assert_eq!(k.metrics().protected_pages, 0);
    k.mem_write(p, addr, b"still writable").unwrap();

    let unmapped = |e: SimError| matches!(e, SimError::Fault(f) if f.kind == FaultKind::Unmapped);
    let reader = k.spawn("reader");
    let at = k.alloc(reader, 64, Perms::RW).unwrap();
    assert!(unmapped(k.mem_read(reader, at, u64::MAX).unwrap_err()));
    let writer = k.spawn("writer");
    let wild = Addr(u64::MAX - 3);
    assert!(unmapped(
        k.mem_write(writer, wild, &[0x41; 16]).unwrap_err()
    ));
    assert!(!k.is_running(reader) && !k.is_running(writer));
    assert!(k.is_running(p));
}
