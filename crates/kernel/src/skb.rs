//! sk_buff model: packet buffers living in dom0 memory.
//!
//! The layout is a fixed-offset struct in simulated memory so that both
//! the ISA driver code and native support routines manipulate the *same*
//! bytes — the paper's "single instance of driver data" (§3.2). The
//! hypervisor-reserved pool implements §4.3: "a preallocated pool of
//! buffers from dom0 heap which are reserved for use by the hypervisor
//! routines. We use a simple reference counter trick to prevent other
//! routines in the dom0 kernel from accessing these buffers."

use crate::heap::Heap;
use twin_machine::{ExecMode, Fault, Machine};
use twin_net::Frame;

/// Field offsets of the simulated `sk_buff`.
pub mod offsets {
    /// Data pointer (u32 VA in dom0).
    pub const DATA: u64 = 0;
    /// Current data length.
    pub const LEN: u64 = 4;
    /// Buffer capacity.
    pub const TRUESIZE: u64 = 8;
    /// Ethernet protocol, set by `eth_type_trans`.
    pub const PROTOCOL: u64 = 12;
    /// Owning net_device pointer.
    pub const DEV: u64 = 16;
    /// First (only) page-fragment machine address — used by the
    /// hypervisor TX path to chain guest pages (paper §5.3).
    pub const FRAG_ADDR: u64 = 20;
    /// Fragment length.
    pub const FRAG_LEN: u64 = 24;
    /// Number of fragments (0 or 1 in this model).
    pub const NR_FRAGS: u64 = 28;
    /// Pool flags: bit 0 = hypervisor-reserved (refcount trick).
    pub const POOL_FLAGS: u64 = 32;
    /// Reference count.
    pub const REFCNT: u64 = 36;
}

/// Header size of the simulated sk_buff.
pub const SKB_HDR_SIZE: u64 = 64;

/// An sk_buff handle: a dom0 virtual address plus typed accessors.
///
/// Accessors take the machine and the dom0 space/mode because the same
/// buffer may be touched from guest mode (dom0 kernel) or hypervisor mode
/// (through an SVM-translated alias).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SkBuff(pub u64);

impl SkBuff {
    fn read(self, m: &Machine, space: twin_machine::SpaceId, off: u64) -> Result<u32, Fault> {
        m.read_u32(space, ExecMode::Guest, self.0 + off)
    }

    fn write(
        self,
        m: &mut Machine,
        space: twin_machine::SpaceId,
        off: u64,
        v: u32,
    ) -> Result<(), Fault> {
        m.write_u32(space, ExecMode::Guest, self.0 + off, v)
    }

    /// Data pointer.
    pub fn data(self, m: &Machine, s: twin_machine::SpaceId) -> Result<u64, Fault> {
        Ok(self.read(m, s, offsets::DATA)? as u64)
    }

    /// Data length.
    pub fn len(self, m: &Machine, s: twin_machine::SpaceId) -> Result<u32, Fault> {
        self.read(m, s, offsets::LEN)
    }

    /// True when `len == 0`.
    pub fn is_empty(self, m: &Machine, s: twin_machine::SpaceId) -> Result<bool, Fault> {
        Ok(self.len(m, s)? == 0)
    }

    /// Sets the data length.
    pub fn set_len(self, m: &mut Machine, s: twin_machine::SpaceId, v: u32) -> Result<(), Fault> {
        self.write(m, s, offsets::LEN, v)
    }

    /// Sets the protocol field.
    pub fn set_protocol(
        self,
        m: &mut Machine,
        s: twin_machine::SpaceId,
        v: u32,
    ) -> Result<(), Fault> {
        self.write(m, s, offsets::PROTOCOL, v)
    }

    /// Pool flags (bit 0: hypervisor-reserved).
    pub fn pool_flags(self, m: &Machine, s: twin_machine::SpaceId) -> Result<u32, Fault> {
        self.read(m, s, offsets::POOL_FLAGS)
    }

    /// Fragment descriptor `(machine_addr, len)`; `nr_frags == 0` means
    /// no fragment.
    pub fn frag(self, m: &Machine, s: twin_machine::SpaceId) -> Result<Option<(u64, u32)>, Fault> {
        if self.read(m, s, offsets::NR_FRAGS)? == 0 {
            return Ok(None);
        }
        Ok(Some((
            self.read(m, s, offsets::FRAG_ADDR)? as u64,
            self.read(m, s, offsets::FRAG_LEN)?,
        )))
    }

    /// Attaches a single page fragment (hypervisor TX path).
    pub fn set_frag(
        self,
        m: &mut Machine,
        s: twin_machine::SpaceId,
        machine_addr: u64,
        len: u32,
    ) -> Result<(), Fault> {
        self.write(m, s, offsets::FRAG_ADDR, machine_addr as u32)?;
        self.write(m, s, offsets::FRAG_LEN, len)?;
        self.write(m, s, offsets::NR_FRAGS, 1)
    }

    /// Clears the fragment.
    pub fn clear_frag(self, m: &mut Machine, s: twin_machine::SpaceId) -> Result<(), Fault> {
        self.write(m, s, offsets::NR_FRAGS, 0)
    }

    /// Writes a frame's wire prefix into the data buffer and sets `len`.
    pub fn fill_from_frame(
        self,
        m: &mut Machine,
        s: twin_machine::SpaceId,
        frame: &Frame,
    ) -> Result<(), Fault> {
        let data = self.data(m, s)?;
        m.write_bytes_virt(s, ExecMode::Guest, data, &frame.wire_prefix())?;
        self.set_len(m, s, frame.len())
    }

    /// Parses the frame stored in the data buffer.
    pub fn parse_frame(
        self,
        m: &Machine,
        s: twin_machine::SpaceId,
    ) -> Result<Option<Frame>, Fault> {
        let data = self.data(m, s)?;
        let len = self.len(m, s)?;
        let mut prefix = [0u8; twin_net::WIRE_PREFIX_LEN];
        m.read_bytes_virt(s, ExecMode::Guest, data, &mut prefix)?;
        Ok(Frame::from_wire_prefix(&prefix, len))
    }
}

/// A pool of preallocated sk_buffs in dom0 memory. It knows its own
/// buffers: a free that is not one of them, or not allocated, is
/// refused.
#[derive(Clone, Debug)]
pub struct SkbPool {
    /// Every buffer header the pool preallocated, ascending.
    hdrs: Vec<u64>,
    /// Whether each buffer of `hdrs` is allocated.
    held: Vec<bool>,
    /// The free buffers, as indices into `hdrs`; `alloc` takes the last.
    free: Vec<u32>,
    data_size: u32,
    hypervisor_reserved: bool,
    /// Allocation failures (pool empty).
    pub alloc_failures: u64,
}

impl SkbPool {
    /// Preallocates `count` buffers with `data_size`-byte data areas from
    /// the dom0 heap. When `hypervisor_reserved` is set, buffers carry
    /// pool-flag bit 0 and a reference count of 1, the paper's trick to
    /// keep the dom0 kernel's hands off them.
    ///
    /// # Errors
    ///
    /// Propagates heap exhaustion.
    pub fn preallocate(
        m: &mut Machine,
        heap: &mut Heap,
        count: usize,
        data_size: u32,
        hypervisor_reserved: bool,
    ) -> Result<SkbPool, Fault> {
        let mut order = Vec::with_capacity(count);
        let space = heap.space();
        for _ in 0..count {
            let hdr = heap.kmalloc(m, SKB_HDR_SIZE)?;
            let data = heap.kmalloc(m, data_size as u64)?;
            let skb = SkBuff(hdr);
            skb.write(m, space, offsets::DATA, data as u32)?;
            skb.write(m, space, offsets::TRUESIZE, data_size)?;
            skb.write(m, space, offsets::LEN, 0)?;
            skb.write(
                m,
                space,
                offsets::POOL_FLAGS,
                u32::from(hypervisor_reserved),
            )?;
            skb.write(m, space, offsets::REFCNT, 1)?;
            order.push(hdr);
        }
        let mut hdrs = order.clone();
        hdrs.sort_unstable();
        let index = |hdr: &u64| hdrs.partition_point(|h| h < hdr) as u32;
        Ok(SkbPool {
            free: order.iter().map(index).collect(),
            held: vec![false; count],
            hdrs,
            data_size,
            hypervisor_reserved,
            alloc_failures: 0,
        })
    }

    /// Pops a buffer, resetting its length and fragment state.
    pub fn alloc(&mut self, m: &mut Machine, space: twin_machine::SpaceId) -> Option<SkBuff> {
        match self.free.pop() {
            Some(i) => {
                self.held[i as usize] = true;
                let skb = SkBuff(self.hdrs[i as usize]);
                skb.set_len(m, space, 0).ok()?;
                skb.clear_frag(m, space).ok()?;
                Some(skb)
            }
            None => {
                self.alloc_failures += 1;
                None
            }
        }
    }

    /// Returns a buffer the simulator itself allocated to the pool.
    ///
    /// # Panics
    ///
    /// Panics when [`SkbPool::release`] refuses it (a double free — a
    /// simulator bug).
    pub fn free(&mut self, skb: SkBuff) {
        let freed = self.release(skb);
        assert!(freed.is_ok(), "skb double free: {freed:?}");
    }

    /// Returns a buffer to the pool: the checked free a driver crossing
    /// reaches.
    ///
    /// # Errors
    ///
    /// [`Fault::EnvFault`] when `skb` is no buffer of this pool or is
    /// already free; the pool is left as it was.
    pub fn release(&mut self, skb: SkBuff) -> Result<(), Fault> {
        let Ok(i) = self.hdrs.binary_search(&skb.0) else {
            return Err(Fault::EnvFault(format!("{:#x} is no pool skb", skb.0)));
        };
        if !std::mem::replace(&mut self.held[i], false) {
            return Err(Fault::EnvFault(format!("skb {:#x} freed twice", skb.0)));
        }
        self.free.push(i as u32);
        Ok(())
    }

    /// Buffers currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Pool capacity.
    pub fn capacity(&self) -> usize {
        self.hdrs.len()
    }

    /// Data area size.
    pub fn data_size(&self) -> u32 {
        self.data_size
    }

    /// Whether this is the hypervisor-reserved pool.
    pub fn is_hypervisor_reserved(&self) -> bool {
        self.hypervisor_reserved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_net::MacAddr;

    fn mk() -> (Machine, Heap) {
        let mut m = Machine::new();
        let s = m.new_space();
        (m, Heap::new(s))
    }

    #[test]
    fn pool_alloc_free_cycle() {
        let (mut m, mut h) = mk();
        let space = h.space();
        let mut pool = SkbPool::preallocate(&mut m, &mut h, 4, 2048, false).unwrap();
        assert_eq!(pool.available(), 4);
        let a = pool.alloc(&mut m, space).unwrap();
        let b = pool.alloc(&mut m, space).unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.available(), 2);
        pool.free(a);
        assert_eq!(pool.available(), 3);
        // Exhaustion counts failures.
        let _ = pool.alloc(&mut m, space).unwrap();
        let _ = pool.alloc(&mut m, space).unwrap();
        let _ = pool.alloc(&mut m, space).unwrap();
        assert!(pool.alloc(&mut m, space).is_none());
        assert_eq!(pool.alloc_failures, 1);
    }

    #[test]
    fn reserved_pool_flags() {
        let (mut m, mut h) = mk();
        let space = h.space();
        let mut pool = SkbPool::preallocate(&mut m, &mut h, 2, 2048, true).unwrap();
        let skb = pool.alloc(&mut m, space).unwrap();
        assert_eq!(skb.pool_flags(&m, space).unwrap() & 1, 1);
        assert!(pool.is_hypervisor_reserved());
    }

    #[test]
    fn frame_roundtrip_through_skb() {
        let (mut m, mut h) = mk();
        let space = h.space();
        let mut pool = SkbPool::preallocate(&mut m, &mut h, 1, 2048, false).unwrap();
        let skb = pool.alloc(&mut m, space).unwrap();
        let f = Frame::data(MacAddr::for_guest(1), MacAddr::for_guest(2), 9, 77);
        skb.fill_from_frame(&mut m, space, &f).unwrap();
        let g = skb.parse_frame(&m, space).unwrap().unwrap();
        assert_eq!(g, f);
        assert_eq!(skb.len(&m, space).unwrap(), f.len());
    }

    #[test]
    fn fragment_roundtrip() {
        let (mut m, mut h) = mk();
        let space = h.space();
        let mut pool = SkbPool::preallocate(&mut m, &mut h, 1, 256, false).unwrap();
        let skb = pool.alloc(&mut m, space).unwrap();
        assert_eq!(skb.frag(&m, space).unwrap(), None);
        skb.set_frag(&mut m, space, 0x12000, 1404).unwrap();
        assert_eq!(skb.frag(&m, space).unwrap(), Some((0x12000, 1404)));
        skb.clear_frag(&mut m, space).unwrap();
        assert_eq!(skb.frag(&m, space).unwrap(), None);
    }

    #[test]
    fn release_refuses_a_foreign_or_free_buffer() {
        let (mut m, mut h) = mk();
        let space = h.space();
        let mut pool = SkbPool::preallocate(&mut m, &mut h, 2, 256, false).unwrap();
        let skb = pool.alloc(&mut m, space).unwrap();
        assert!(pool.release(SkBuff(skb.0 + 4)).is_err(), "not a header");
        assert_eq!(pool.release(skb), Ok(()));
        assert!(pool.release(skb).is_err(), "already free");
        let never = SkBuff(pool.hdrs[pool.free[0] as usize]);
        assert!(pool.release(never).is_err(), "never allocated");
        assert_eq!(pool.available(), 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let (mut m, mut h) = mk();
        let space = h.space();
        let mut pool = SkbPool::preallocate(&mut m, &mut h, 1, 256, false).unwrap();
        let skb = pool.alloc(&mut m, space).unwrap();
        pool.free(skb);
        pool.free(skb);
    }
}
