//! Per-domain address spaces: page tables mapping virtual pages to frames
//! or MMIO regions.

use crate::interp::ExecMode;
use crate::mem::PAGE_SIZE;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of an address space (one per domain).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpaceId(pub usize);

/// What a mapped page refers to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PageKind {
    /// Ordinary RAM (the entry's `pfn` is a physical frame).
    Ram,
    /// Memory-mapped I/O owned by device `id`; loads/stores are routed to
    /// [`crate::Env::mmio_read`] / [`crate::Env::mmio_write`].
    Mmio(u32),
}

/// A page table entry.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PageEntry {
    /// Physical frame number (for [`PageKind::Ram`]) or device-relative
    /// page index (for [`PageKind::Mmio`]).
    pub pfn: u64,
    /// Whether stores are permitted.
    pub writable: bool,
    /// RAM or MMIO.
    pub kind: PageKind,
}

impl PageEntry {
    /// A RAM entry.
    pub fn ram(pfn: u64, writable: bool) -> PageEntry {
        PageEntry {
            pfn,
            writable,
            kind: PageKind::Ram,
        }
    }

    /// An MMIO entry for device `dev`, page `page` of its register window.
    pub fn mmio(dev: u32, page: u64) -> PageEntry {
        PageEntry {
            pfn: page,
            writable: true,
            kind: PageKind::Mmio(dev),
        }
    }
}

/// Result of a successful translation.
#[derive(Copy, Clone, Debug)]
pub struct Translation {
    /// The page entry.
    pub entry: PageEntry,
    /// Offset within the page.
    pub offset: u64,
}

/// Pages per second-level table (and second-level tables per
/// [`PageTable`]): 1024 × 1024 pages of 4 KiB cover the 32-bit space.
const FANOUT: usize = 1024;

type Leaf = [Option<PageEntry>; FANOUT];

/// A sparse page table: virtual page number → entry.
///
/// A two-level radix over the 32-bit address space, like the x86-32
/// tables the paper's target walks: the top ten bits of the page number
/// pick a second-level table (allocated when its 4 MiB region is first
/// mapped), the low ten the entry. Addresses at or above 2³² are
/// outside every table: lookups miss and [`PageTable::map`] refuses them.
#[derive(Clone)]
pub struct PageTable {
    dirs: Box<[Option<Box<Leaf>>; FANOUT]>,
    mapped: usize,
    /// Stamp of this table's current contents; see
    /// [`PageTable::generation`].
    generation: u64,
}

/// A stamp no table state has carried before: tables are `Clone` and sit
/// in public fields, so a per-table counter could repeat after one table
/// is assigned over another. A statistic-style counter that publishes no
/// other data, hence `Relaxed`.
fn fresh_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for PageTable {
    fn default() -> PageTable {
        PageTable::new()
    }
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Splits `vaddr` into (second-level table index, entry index);
/// `None` for addresses beyond the 32-bit space.
#[inline]
fn split(vaddr: u64) -> Option<(usize, usize)> {
    let vpn = vaddr / PAGE_SIZE;
    let dir = usize::try_from(vpn / FANOUT as u64).ok()?;
    (dir < FANOUT).then_some((dir, (vpn % FANOUT as u64) as usize))
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> PageTable {
        PageTable {
            dirs: Box::new(std::array::from_fn(|_| None)),
            mapped: 0,
            generation: fresh_generation(),
        }
    }

    /// Identifies this table's contents: [`PageTable::map`] and
    /// [`PageTable::unmap`] replace it with a value no table — this one
    /// earlier, a clone, any other — has ever carried, so two equal
    /// generations mean identical mappings. The interpreter's translation
    /// cache (`Tlb`) is keyed on it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Maps the page containing `vaddr` (which is rounded down).
    /// Returns the previous entry, if any.
    ///
    /// # Panics
    ///
    /// Panics if `vaddr` is at or above 2³²: the simulated machine is
    /// 32-bit, and mapping addresses are chosen by the simulator's own
    /// set-up code, never by driver code, so this is a harness bug.
    pub fn map(&mut self, vaddr: u64, entry: PageEntry) -> Option<PageEntry> {
        let (dir, idx) = split(vaddr)
            .unwrap_or_else(|| panic!("mapping {vaddr:#x}: beyond the 32-bit address space"));
        self.generation = fresh_generation();
        let leaf = self.dirs[dir].get_or_insert_with(|| Box::new([None; FANOUT]));
        let prev = leaf[idx].replace(entry);
        self.mapped += usize::from(prev.is_none());
        prev
    }

    /// Removes the mapping for the page containing `vaddr`.
    pub fn unmap(&mut self, vaddr: u64) -> Option<PageEntry> {
        let (dir, idx) = split(vaddr)?;
        let prev = self.dirs[dir].as_mut()?[idx].take();
        self.generation = fresh_generation();
        self.mapped -= usize::from(prev.is_some());
        prev
    }

    /// Looks up the entry for the page containing `vaddr`.
    #[inline]
    pub fn lookup(&self, vaddr: u64) -> Option<PageEntry> {
        let (dir, idx) = split(vaddr)?;
        self.dirs[dir].as_ref()?[idx]
    }

    /// Whether the page containing `vaddr` is mapped.
    pub fn is_mapped(&self, vaddr: u64) -> bool {
        self.lookup(vaddr).is_some()
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Iterates over `(virtual page base address, entry)` pairs in
    /// ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, PageEntry)> + '_ {
        self.dirs.iter().enumerate().flat_map(|(dir, leaf)| {
            leaf.iter().flat_map(move |leaf| {
                leaf.iter().enumerate().filter_map(move |(idx, e)| {
                    e.map(|e| ((dir * FANOUT + idx) as u64 * PAGE_SIZE, e))
                })
            })
        })
    }
}

/// Entries in the translation cache: `2^TLB_INDEX_BITS`. A rewritten
/// driver's burst touches a few dozen pages (stack, driver data, skbs,
/// rings, the stlb); this many leaves a conflict miss rare.
const TLB_INDEX_BITS: u32 = 8;
const TLB_ENTRIES: usize = 1 << TLB_INDEX_BITS;

/// What a [`Tlb`]'s entries were translated under: the CPU's space and
/// mode, and the generations of the two tables a translation can walk.
pub(crate) type TlbKey = (SpaceId, ExecMode, u64, u64);

#[derive(Copy, Clone)]
struct TlbEntry {
    /// Virtual page number, or `u64::MAX` (no page) when empty.
    vpn: u64,
    /// Physical address of the frame's first byte.
    pbase: u64,
    writable: bool,
}

const TLB_EMPTY: TlbEntry = TlbEntry {
    vpn: u64::MAX,
    pbase: 0,
    writable: false,
};

/// The interpreter's software translation cache — the simulator's own
/// stlb (paper §5.1): a small direct-mapped table, virtual page →
/// physical frame base + writable bit, in front of [`PageTable::lookup`].
///
/// It holds **RAM pages only** (every MMIO access must reach
/// [`crate::Env`]) and only translations that succeeded under its current
/// [`TlbKey`]; [`Tlb::revalidate`] empties it when the key changes. A hit
/// therefore answers exactly as [`crate::Machine::translate`] would, which
/// debug builds re-check on every hit.
#[derive(Clone)]
pub(crate) struct Tlb {
    key: Option<TlbKey>,
    entries: [TlbEntry; TLB_ENTRIES],
}

impl fmt::Debug for Tlb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let live = self.entries.iter().filter(|e| e.vpn != u64::MAX).count();
        write!(
            f,
            "Tlb {{ key: {:?}, live: {live}/{TLB_ENTRIES} }}",
            self.key
        )
    }
}

impl Tlb {
    pub(crate) fn new() -> Tlb {
        Tlb {
            key: None,
            entries: [TLB_EMPTY; TLB_ENTRIES],
        }
    }

    /// The key the current entries are valid for.
    pub(crate) fn key(&self) -> Option<TlbKey> {
        self.key
    }

    /// Keeps the entries if they were filled under `key`, drops them all
    /// otherwise.
    #[inline]
    pub(crate) fn revalidate(&mut self, key: TlbKey) {
        if self.key != Some(key) {
            self.key = Some(key);
            self.entries = [TLB_EMPTY; TLB_ENTRIES];
        }
    }

    /// The slot of page `vpn`: the top bits of a multiplicative
    /// (Fibonacci) hash, in which every bit of the page number moves the
    /// index — regions laid out at round addresses (`0xf0200…`: the
    /// hypervisor's data, `0xf1000…`: the stlb) spread over the table
    /// instead of sharing the slots their low bits pick.
    #[inline]
    pub(crate) fn slot(vpn: u64) -> usize {
        (vpn.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - TLB_INDEX_BITS)) as usize
    }

    /// Physical address of `addr` if its page is cached, the `len`-byte
    /// access stays inside that page and, for a store, the page is
    /// writable. `None` sends the access down the page-table walk, which
    /// decides between a refill and a fault.
    #[inline]
    pub(crate) fn hit(&self, addr: u64, len: u64, write: bool) -> Option<u64> {
        let (vpn, offset) = (addr / PAGE_SIZE, addr % PAGE_SIZE);
        let e = &self.entries[Tlb::slot(vpn)];
        (e.vpn == vpn && offset + len <= PAGE_SIZE && (e.writable || !write))
            .then_some(e.pbase + offset)
    }

    /// Caches a successful translation of `addr` (RAM pages only; an MMIO
    /// entry is ignored).
    #[inline]
    pub(crate) fn fill(&mut self, addr: u64, entry: &PageEntry) {
        if entry.kind == PageKind::Ram {
            let vpn = addr / PAGE_SIZE;
            self.entries[Tlb::slot(vpn)] = TlbEntry {
                vpn,
                pbase: entry.pfn * PAGE_SIZE,
                writable: entry.writable,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn map_lookup_unmap() {
        let mut t = PageTable::new();
        assert!(t.lookup(0x1000).is_none());
        t.map(0x1234, PageEntry::ram(7, true));
        // Same page, any offset.
        assert_eq!(t.lookup(0x1000).unwrap().pfn, 7);
        assert_eq!(t.lookup(0x1fff).unwrap().pfn, 7);
        assert!(t.lookup(0x2000).is_none());
        assert!(t.unmap(0x1800).is_some());
        assert!(t.lookup(0x1000).is_none());
    }

    #[test]
    fn remap_returns_previous() {
        let mut t = PageTable::new();
        assert!(t.map(0x1000, PageEntry::ram(1, true)).is_none());
        let prev = t.map(0x1000, PageEntry::ram(2, false)).unwrap();
        assert_eq!(prev.pfn, 1);
        let cur = t.lookup(0x1000).unwrap();
        assert_eq!(cur.pfn, 2);
        assert!(!cur.writable);
    }

    #[test]
    fn mmio_entries() {
        let mut t = PageTable::new();
        t.map(0xE000_0000, PageEntry::mmio(3, 0));
        let e = t.lookup(0xE000_0000).unwrap();
        assert_eq!(e.kind, PageKind::Mmio(3));
    }

    #[test]
    fn iter_counts() {
        let mut t = PageTable::new();
        t.map(0x1000, PageEntry::ram(1, true));
        t.map(0x3000, PageEntry::ram(2, true));
        assert_eq!(t.mapped_pages(), 2);
        let mut bases: Vec<u64> = t.iter().map(|(b, _)| b).collect();
        bases.sort_unstable();
        assert_eq!(bases, vec![0x1000, 0x3000]);
    }

    #[test]
    fn addresses_beyond_the_32_bit_space_are_never_mapped() {
        let mut t = PageTable::new();
        t.map(0xffff_f000, PageEntry::ram(1, true));
        for vaddr in [1 << 32, (1 << 32) + 0xffff_f000, 1 << 52, u64::MAX] {
            assert!(t.lookup(vaddr).is_none());
            assert!(!t.is_mapped(vaddr));
            assert!(t.unmap(vaddr).is_none());
        }
        assert_eq!(t.mapped_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "beyond the 32-bit address space")]
    fn mapping_beyond_the_32_bit_space_panics() {
        PageTable::new().map(1 << 32, PageEntry::ram(1, true));
    }

    /// Pages of the hypervisor's data (`0xf0200…`) and of the stlb
    /// (`0xf1000…`) that an index folding high bits into the low ones put
    /// in one slot, evicting each other on every packet.
    #[test]
    fn round_numbered_hypervisor_regions_get_slots_of_their_own() {
        for (data, stlb) in [(0xf0200, 0xf1048), (0xf0207, 0xf100e)] {
            assert_ne!(Tlb::slot(data), Tlb::slot(stlb), "{data:#x} / {stlb:#x}");
        }
        // Both stay cached side by side.
        let mut tlb = Tlb::new();
        let (a, b) = (0xf020_0000, 0xf104_8000);
        tlb.fill(a, &PageEntry::ram(1, true));
        tlb.fill(b, &PageEntry::ram(2, false));
        assert_eq!(tlb.hit(a + 8, 4, true), Some(PAGE_SIZE + 8));
        assert_eq!(tlb.hit(b + 8, 8, false), Some(2 * PAGE_SIZE + 8));
        assert_eq!(tlb.hit(b + 8, 4, true), None, "read-only");
        assert_eq!(tlb.hit(b + PAGE_SIZE - 4, 8, false), None, "straddles");
    }

    #[derive(Clone, Debug)]
    enum Op {
        Map(u64, PageEntry),
        Unmap(u64),
        Lookup(u64),
    }

    /// Addresses over a few pages of a few 4 MiB regions (so entries
    /// collide and second-level tables are shared), at any offset.
    fn vaddr() -> impl Strategy<Value = u64> {
        let region = prop_oneof![Just(0u64), Just(1), Just(0x80), Just(0x3c0), Just(0x3ff)];
        let page = prop_oneof![0u64..3, 1021u64..1024];
        (region, page, 0u64..PAGE_SIZE).prop_map(|(r, p, off)| ((r << 10 | p) << 12) + off)
    }

    fn op() -> impl Strategy<Value = Op> {
        let entry = (0u64..4, any::<bool>(), any::<bool>()).prop_map(|(pfn, w, mmio)| {
            if mmio {
                PageEntry::mmio(pfn as u32, pfn)
            } else {
                PageEntry::ram(pfn, w)
            }
        });
        // Lookups and unmaps also probe beyond the 32-bit space.
        let probe = prop_oneof![vaddr(), vaddr(), vaddr().prop_map(|a| a + (1 << 32))];
        prop_oneof![
            (vaddr(), entry).prop_map(|(a, e)| Op::Map(a, e)),
            probe.clone().prop_map(Op::Unmap),
            probe.prop_map(Op::Lookup),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The radix table is a map from page number to entry: any
        /// sequence of operations answers as a `HashMap` does.
        #[test]
        fn behaves_as_a_map_from_page_number_to_entry(
            ops in prop::collection::vec(op(), 1..64),
        ) {
            let mut table = PageTable::new();
            let mut model: HashMap<u64, PageEntry> = HashMap::new();
            for op in ops {
                match op {
                    Op::Map(a, e) => {
                        prop_assert_eq!(table.map(a, e), model.insert(a / PAGE_SIZE, e));
                    }
                    Op::Unmap(a) => {
                        prop_assert_eq!(table.unmap(a), model.remove(&(a / PAGE_SIZE)));
                    }
                    Op::Lookup(a) => {
                        let want = model.get(&(a / PAGE_SIZE)).copied();
                        prop_assert_eq!(table.lookup(a), want);
                        prop_assert_eq!(table.is_mapped(a), want.is_some());
                    }
                }
                prop_assert_eq!(table.mapped_pages(), model.len());
            }
            let mut want: Vec<(u64, PageEntry)> =
                model.into_iter().map(|(vpn, e)| (vpn * PAGE_SIZE, e)).collect();
            want.sort_unstable_by_key(|(base, _)| *base);
            prop_assert_eq!(table.iter().collect::<Vec<_>>(), want);
        }
    }
}
