//! A simple kernel heap for dom0: bump allocation with size-class free
//! lists, page-aligned support for DMA-coherent allocations.

use twin_machine::{Fault, Machine, SpaceId, PAGE_SIZE};

/// Base virtual address of the dom0 kernel heap.
pub const HEAP_BASE: u64 = 0x2000_0000;

/// Maximum heap size in bytes (64 MiB of dom0 virtual space).
pub const HEAP_MAX: u64 = 64 * 1024 * 1024;

/// Dom0 kernel heap: backs `kmalloc`, sk_buff data buffers and
/// DMA-coherent ring allocations.
///
/// Allocations never cross page boundaries when `size <= PAGE_SIZE`,
/// which models the physical contiguity the NIC's DMA engine requires
/// for descriptor rings and packet buffers.
#[derive(Clone, Debug)]
pub struct Heap {
    space: SpaceId,
    next: u64,
    mapped_end: u64,
    free_lists: Vec<(u64, Vec<u64>)>, // (size class, free addrs)
    allocated: u64,
}

impl Heap {
    /// Creates an empty heap for `space`.
    pub fn new(space: SpaceId) -> Heap {
        Heap {
            space,
            next: HEAP_BASE,
            mapped_end: HEAP_BASE,
            free_lists: Vec::new(),
            allocated: 0,
        }
    }

    /// The address space this heap belongs to.
    pub fn space(&self) -> SpaceId {
        self.space
    }

    /// Total bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    fn class_of(size: u64) -> u64 {
        let mut c = 32;
        while c < size {
            c *= 2;
        }
        c
    }

    fn ensure_mapped(&mut self, m: &mut Machine, end: u64) -> Result<(), Fault> {
        while self.mapped_end < end {
            if self.mapped_end >= HEAP_BASE + HEAP_MAX {
                return Err(Fault::OutOfMemory);
            }
            m.map_fresh(self.space, self.mapped_end, 1)?;
            self.mapped_end += PAGE_SIZE;
        }
        Ok(())
    }

    /// Allocates `size` bytes (rounded up to a power-of-two class, min
    /// 32). Allocations of a page or less never straddle pages.
    ///
    /// # Errors
    ///
    /// [`Fault::OutOfMemory`] when the heap region is exhausted.
    pub fn kmalloc(&mut self, m: &mut Machine, size: u64) -> Result<u64, Fault> {
        let class = Heap::class_of(size.max(1));
        if let Some((_, list)) = self.free_lists.iter_mut().find(|(c, _)| *c == class) {
            if let Some(addr) = list.pop() {
                self.allocated += class;
                return Ok(addr);
            }
        }
        // Bump-allocate; avoid page straddle for sub-page classes.
        let mut addr = self.next;
        if class < PAGE_SIZE {
            let end_page = (addr + class - 1) / PAGE_SIZE;
            if end_page != addr / PAGE_SIZE {
                addr = end_page * PAGE_SIZE;
            }
        } else {
            // Page-multiple classes are page-aligned.
            addr = addr.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        }
        self.ensure_mapped(m, addr + class)?;
        self.next = addr + class;
        self.allocated += class;
        Ok(addr)
    }

    /// Page-aligned allocation returning `(vaddr, machine_addr)` — models
    /// `dma_alloc_coherent`; the machine address is what the device DMA
    /// engine uses.
    ///
    /// # Errors
    ///
    /// [`Fault::OutOfMemory`] when the heap region is exhausted.
    pub fn dma_alloc_coherent(&mut self, m: &mut Machine, size: u64) -> Result<(u64, u64), Fault> {
        let vaddr = self.kmalloc(m, size.max(PAGE_SIZE))?;
        let phys = self.machine_addr(m, vaddr)?;
        Ok((vaddr, phys))
    }

    /// Translates a heap virtual address to its machine (physical)
    /// address — the `dma_map_single` primitive.
    ///
    /// # Errors
    ///
    /// Faults if the address is not mapped in the heap's space.
    pub fn machine_addr(&self, m: &Machine, vaddr: u64) -> Result<u64, Fault> {
        let t = m.translate(self.space, twin_machine::ExecMode::Guest, vaddr, false)?;
        Ok(t.entry.pfn * PAGE_SIZE + t.offset)
    }

    /// Frees an allocation of the given size (the caller remembers sizes,
    /// as kernel code does via its slab caches).
    pub fn kfree(&mut self, addr: u64, size: u64) {
        let class = Heap::class_of(size.max(1));
        self.allocated = self.allocated.saturating_sub(class);
        if let Some((_, list)) = self.free_lists.iter_mut().find(|(c, _)| *c == class) {
            list.push(addr);
        } else {
            self.free_lists.push((class, vec![addr]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_machine::ExecMode;

    fn mk() -> (Machine, Heap) {
        let mut m = Machine::new();
        let s = m.new_space();
        (m, Heap::new(s))
    }

    #[test]
    fn alloc_and_reuse() {
        let (mut m, mut h) = mk();
        let a = h.kmalloc(&mut m, 100).unwrap();
        let b = h.kmalloc(&mut m, 100).unwrap();
        assert_ne!(a, b);
        h.kfree(a, 100);
        let c = h.kmalloc(&mut m, 100).unwrap();
        assert_eq!(a, c, "free list reuse");
    }

    #[test]
    fn subpage_allocations_do_not_straddle() {
        let (mut m, mut h) = mk();
        for _ in 0..100 {
            let a = h.kmalloc(&mut m, 2048).unwrap();
            assert_eq!(
                a / PAGE_SIZE,
                (a + 2047) / PAGE_SIZE,
                "no straddle at {a:#x}"
            );
        }
    }

    #[test]
    fn dma_coherent_page_aligned_and_translated() {
        let (mut m, mut h) = mk();
        let (v, p) = h.dma_alloc_coherent(&mut m, 4096).unwrap();
        assert_eq!(v % PAGE_SIZE, 0);
        // Physical address corresponds: writing via virtual shows up at phys.
        m.write_u32(h.space(), ExecMode::Guest, v + 8, 0x55aa)
            .unwrap();
        assert_eq!(m.phys.read_u32(p + 8), 0x55aa);
    }

    #[test]
    fn allocated_accounting() {
        let (mut m, mut h) = mk();
        let a = h.kmalloc(&mut m, 64).unwrap();
        assert_eq!(h.allocated_bytes(), 64);
        h.kfree(a, 64);
        assert_eq!(h.allocated_bytes(), 0);
    }

    #[test]
    fn writable_memory() {
        let (mut m, mut h) = mk();
        let a = h.kmalloc(&mut m, 4096).unwrap();
        m.write_u32(h.space(), ExecMode::Guest, a, 42).unwrap();
        assert_eq!(m.read_u32(h.space(), ExecMode::Guest, a).unwrap(), 42);
    }
}
