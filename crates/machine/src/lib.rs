//! # twin-machine — the simulated machine
//!
//! Executes [`twin_isa`] code against simulated physical memory with 4 KiB
//! paging, per-domain address spaces, a shared hypervisor region (mapped in
//! every space, accessible only in hypervisor mode — like Xen's reserved
//! region), MMIO routing, faults, and a deterministic cycle cost model.
//!
//! The paper's evaluation is reported in *CPU cycles per packet* attributed
//! to four categories (dom0 kernel, guest kernel, Xen, the e1000 driver —
//! Figures 7/8). [`CycleMeter`] implements exactly that attribution: an
//! explicit stack of [`CostDomain`]s, charged by the interpreter for every
//! instruction and by the hypervisor/kernel models for every modeled
//! operation (domain switch, hypercall, grant op, copy, …) — each a row
//! of the [`Term`] table, paid by name through [`Machine::pay`].
//!
//! The meter keeps each cycle once, in the cell of the domain that paid
//! it and the [`Term`] it paid for. An operation that pays a fixed-cost
//! row is counted by that payment ([`CycleMeter::payments`]); other
//! occurrences are counted, never timed, each as an [`Event`] row of the
//! meter. One that the flight recorder also shows is a single
//! [`Machine::note`] of its `TraceEvent`, which counts the row
//! [`cost::row`] pairs with it and records the event when tracing is
//! on, so the recorder's per-kind counts and the meter's rows cannot
//! drift apart.
//!
//! Driver code runs *for real*: the interpreter in [`interp`] steps the ISA
//! instruction by instruction, so the 2–3× slowdown of the SVM-rewritten
//! driver (paper §6.2) emerges from the rewritten instruction stream rather
//! than from a fudge factor.
//!
//! ## One dispatch per SVM translation
//!
//! The rewriter turns every memory reference of a driver into the
//! nine-instruction [`stlb::template`] (paper §5.1, Figure 4), and that
//! template is most of what a rewritten driver executes (63 % of the
//! instructions of a transmit burst). [`image::link`] recognises it: nine
//! consecutive ops that are the lowering of [`stlb::template`] built from
//! their own three distinct registers, `lea` operand, table address and
//! branch target (this crate learns no symbol name). It replaces **only
//! the head `lea`** by a fused op
//! ([`CodeImage::fused_sites`] counts them). The eight ops after it stay
//! exactly as lowered, so a branch into the middle of a template, the
//! slow path's `jmp retry`, [`CodeImage::len`] and every code address
//! mean what they did, and an image still has one linked representation.
//!
//! At the head, the interpreter runs the whole hit path in one dispatch
//! when three things hold: at least nine instructions of budget remain;
//! the stlb entry answers from the translation cache, both its words in
//! one probe (so a debug build re-walks the page table on every fused
//! hit, as on every other cached access); and the entry's tag is the
//! address's page. It then leaves the three registers, the flags (the
//! closing `xor`'s), `pc`, the instruction count and the payments —
//! `3·MovReg + 5·Alu + 2·Load + BranchNotTaken`, priced from
//! [`Machine::cost`] at the next flush — as the nine ops would have. In
//! every other case (stlb miss, translation-cache miss, stlb page
//! unmapped or a device's, budget about to run out) the head is the
//! `lea` and nothing more, and the plain ops after it take the slow
//! path, walk, fault or stop where they always did.
//!
//! Where the rewriter had to spill registers around a translation
//! (`push r1 … push rk; <template>; pop rk … pop r1`, the pushed
//! registers distinct and among the template's three, the pops right
//! after the `xor`), `link` also replaces the frame's **first `push`**
//! ([`CodeImage::fused_frames`] counts them), and the interpreter runs
//! the `2k + 9` instructions in one dispatch when the budget covers them,
//! every stack slot answers from the translation cache as writable, the
//! translation hits, and no slot overlaps the stlb entry; otherwise that
//! op is its `push`.
//!
//! No simulated number can tell a fused run from a plain one; the
//! test-only `fusion` module runs both links of the same code side by
//! side to hold the interpreter to that.
//!
//! ## Quickening
//!
//! After fusion, `link` lowers each hot generic form — `Long` `mov`,
//! `alu`, `shift`, `cmp` and unary ops, `push` and `pop`, by operand shape,
//! and branches and calls to absolute targets inside the image — to an op
//! whose operand shapes are decided at link time; each makes its generic
//! arm's reads, charges, writes and faults in the same order. The
//! reference for all of it is the link without fusion or quickening,
//! which `fusion` compares against shape by shape, faults and
//! page-straddling accesses included.
//!
//! ## Dispatch by index
//!
//! Inside an image the run loop holds the program counter as the index
//! of the next op and the budget as a count of its own, both in locals.
//! A sequential op advances the index, a fused hit skips the ops it ran,
//! and a quickened branch or call holds its target as an op index, so an
//! address becomes an index again only at a dynamic transfer: `ret`, an
//! indirect or out-of-image target, a trampoline, or running off the
//! image's end. `cpu.pc` is written back where someone can look: on a
//! fault (`pc` on the faulting op, its earlier charges kept), a stop,
//! budget exhaustion and a transfer out of the loop, an extern call among
//! them (a device callback is not handed the CPU). The budget goes to
//! every flush of the meter, ahead of each [`Env`] callback and at the
//! end, so the instruction count derived from it stays exact. The
//! test-only `oracle` module holds one run of budget `n` to `n` runs of
//! budget 1.
//!
//! ```
//! use twin_isa::asm::assemble;
//! use twin_machine::{Machine, Cpu, ExecMode, NullEnv, run, StopReason};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = assemble("m", ".text\n.globl f\nf:\n movl $7, %eax\n addl %eax, %eax\n ret\n")?;
//! let mut m = Machine::new();
//! let space = m.new_space();
//! let image = m.load_image(&module, 0x0800_0000, |_| None)?;
//! let mut cpu = Cpu::new(space, ExecMode::Guest);
//! m.map_stack(space, 0x3000_0000, 4)?;
//! cpu.set_stack(0x3000_0000 + 4 * 4096);
//! cpu.push_call_frame(&mut m, &[])?;
//! cpu.pc = m.image(image).export("f").unwrap();
//! let stop = run(&mut m, &mut cpu, &mut NullEnv, 1000)?;
//! assert_eq!(stop, StopReason::Returned);
//! assert_eq!(cpu.reg(twin_isa::Reg::Eax), 14);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cost;
#[cfg(test)]
mod fusion;
pub mod hash;
pub mod image;
pub mod interp;
pub mod mem;
#[cfg(test)]
mod oracle;
pub mod space;
pub mod stlb;

pub use cost::{CostDomain, CostParams, CycleMeter, Event, Term};
pub use hash::{IntMap, IntSet};
pub use image::{CodeImage, ImageId, LinkError};
pub use interp::{run, Cpu, Env, ExecMode, Fault, NullEnv, StopReason};
pub use mem::{MemImage, PhysMem, PAGE_SIZE};
pub use space::{PageEntry, PageKind, PageTable, SpaceId};

use std::sync::Arc;
use twin_isa::Module;

/// Base of the hypervisor-reserved virtual region, mapped into every
/// address space but accessible only in [`ExecMode::Hypervisor`].
pub const HYPER_BASE: u64 = 0xF000_0000;

/// Sentinel return address: `ret`-ing to it stops the interpreter with
/// [`StopReason::Returned`], which is how native code calls into ISA code.
pub const RETURN_SENTINEL: u64 = 0xFFFF_FFF0;

/// Base virtual address where extern trampolines are laid out; each
/// resolved extern symbol gets a unique address `EXTERN_BASE + 8*id`.
pub const EXTERN_BASE: u64 = 0xEE00_0000;

/// Identifier of a registered extern: its trampoline is at
/// `EXTERN_BASE + 8 * id.0`. What [`Env::extern_call`] is called with.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ExternId(pub usize);

/// The complete simulated machine: physical memory, address spaces, the
/// shared hypervisor region, loaded code images, extern trampolines and the
/// cycle meter.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Physical memory and frame allocator.
    pub phys: PhysMem,
    /// Per-domain address spaces, indexed by [`SpaceId`].
    spaces: Vec<PageTable>,
    /// The shared hypervisor region (addresses above [`HYPER_BASE`]).
    pub hyper: PageTable,
    /// Cycle accounting.
    pub meter: CycleMeter,
    /// The [`Term`] table's cycles.
    pub cost: CostParams,
    /// Flight recorder (disabled by default). Recording is pure
    /// bookkeeping outside the charged path: [`Machine::note`]
    /// *reads* the clock and domain stack but never charges, so a traced
    /// run's cycle accounting is bit-identical to an untraced run's.
    pub trace: twin_trace::FlightRecorder,
    /// Shared handles, so the interpreter can hold the image it is
    /// executing while the environment mutates the machine.
    images: Vec<Arc<CodeImage>>,
    /// Extern symbols, indexed by [`ExternId`].
    extern_names: Vec<Box<str>>,
    /// The interpreter's translation cache; see [`space::Tlb`] and
    /// [`Machine::revalidate_tlb`].
    tlb: space::Tlb,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// Creates a machine with 256 MiB of simulated physical memory.
    pub fn new() -> Machine {
        Machine {
            phys: PhysMem::new(256 * 1024 * 1024 / PAGE_SIZE as usize),
            spaces: Vec::new(),
            hyper: PageTable::new(),
            meter: CycleMeter::default(),
            cost: CostParams::default(),
            trace: twin_trace::FlightRecorder::new(),
            images: Vec::new(),
            extern_names: Vec::new(),
            tlb: space::Tlb::new(),
        }
    }

    /// Pays one [`Term`] to the current attribution domain. With
    /// [`Machine::pay_to`] and [`Machine::pay_copy`] this is every way
    /// to charge a cycle from outside this crate.
    #[inline]
    pub fn pay(&mut self, t: Term) {
        self.pay_to(self.meter.current_domain(), t);
    }

    /// Pays one [`Term`] to an explicit domain (bypassing the stack).
    #[inline]
    pub fn pay_to(&mut self, d: CostDomain, t: Term) {
        self.meter.pay(&self.cost, d, t, 1);
    }

    /// Pays a copy of `bytes` bytes to `d` — the one payment that scales:
    /// [`Term::CopyBase`] + `bytes` × [`Term::CopyPerByteX100`] / 100.
    pub fn pay_copy(&mut self, d: CostDomain, bytes: u64) {
        self.meter.pay_copy(&self.cost, d, bytes);
    }

    /// Current virtual time in cycles (monotonic; advanced by every cost
    /// charge and by explicit idle advances — see
    /// [`CycleMeter::now`]).
    pub fn now_cycles(&self) -> u64 {
        self.meter.now()
    }

    /// Notes one occurrence: counts the event's [`Event`] row, if
    /// [`cost::row`] pairs it with one, under the domain the event names
    /// ([`twin_trace::TraceEvent::domain`]), and records the event stamped
    /// with the current virtual clock and cost domain when tracing is on.
    /// This is the one way an occurrence reaches the recorder; a row
    /// with no payload is [`CycleMeter::count_event`] alone. Never
    /// charges a cycle, and with tracing off it is the count and a
    /// branch: always inlined, so the row is chosen where the event is
    /// built.
    #[inline(always)]
    pub fn note(&mut self, event: twin_trace::TraceEvent) {
        if let Some(e) = cost::row(&event) {
            self.meter.count_event_for(e, event.domain());
        }
        if self.trace.enabled() {
            self.trace
                .record(self.meter.now(), self.meter.current_domain().label(), event);
        }
    }

    /// Creates a new, empty address space and returns its id.
    pub fn new_space(&mut self) -> SpaceId {
        let id = SpaceId(self.spaces.len());
        self.spaces.push(PageTable::new());
        id
    }

    /// Borrow an address space's page table.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a space of this machine.
    pub fn space(&self, id: SpaceId) -> &PageTable {
        &self.spaces[id.0]
    }

    /// Mutably borrow an address space's page table.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a space of this machine.
    pub fn space_mut(&mut self, id: SpaceId) -> &mut PageTable {
        &mut self.spaces[id.0]
    }

    /// Registers an extern symbol, returning its trampoline address.
    /// Calling this address transfers control to [`Env::extern_call`].
    pub fn register_extern(&mut self, name: &str) -> u64 {
        if let Some(addr) = self.extern_addr(name) {
            return addr;
        }
        self.extern_names.push(name.into());
        EXTERN_BASE + 8 * (self.extern_names.len() - 1) as u64
    }

    /// Looks up an already-registered extern trampoline address.
    pub fn extern_addr(&self, name: &str) -> Option<u64> {
        self.extern_names
            .iter()
            .position(|n| &**n == name)
            .map(|i| EXTERN_BASE + 8 * i as u64)
    }

    /// The extern whose trampoline is at `addr`, if one is.
    pub fn extern_at(&self, addr: u64) -> Option<ExternId> {
        let offset = addr.checked_sub(EXTERN_BASE)?;
        let id = usize::try_from(offset / 8).ok()?;
        (offset % 8 == 0 && id < self.extern_names.len()).then_some(ExternId(id))
    }

    /// The symbol extern `id` was registered under.
    pub fn extern_name(&self, id: ExternId) -> Option<&str> {
        self.extern_names.get(id.0).map(|n| &**n)
    }

    /// Loads a module's text at `code_base`, resolving local labels and
    /// data symbols via the module plus `resolve` for everything else
    /// (externs and cross-module symbols). Unresolved externs are
    /// auto-registered as trampolines.
    ///
    /// The data section is *not* placed by this call — callers (the dom0
    /// module loader, the hypervisor ELF-like loader) map and fill data
    /// pages themselves and pass the resulting symbol addresses through
    /// `resolve`. See `twin-kernel` and `twin-xen`.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError`] if a referenced symbol cannot be resolved.
    pub fn load_image<F>(
        &mut self,
        module: &Module,
        code_base: u64,
        mut resolve: F,
    ) -> Result<ImageId, LinkError>
    where
        F: FnMut(&str) -> Option<u64>,
    {
        // Register all declared externs up-front so their trampoline
        // addresses are stable, then link with full resolution.
        for name in &module.externs {
            // Caller-provided resolution wins; only register the rest.
            if resolve(name).is_none() {
                self.register_extern(name);
            }
        }
        let image = image::link(module, code_base, |name| {
            resolve(name).or_else(|| self.extern_addr(name))
        })?;
        debug_assert!(
            self.images
                .iter()
                .all(|old| image.end() <= old.base || old.end() <= image.base),
            "image `{}` overlaps a loaded image",
            image.name
        );
        let id = ImageId(self.images.len());
        self.images.push(Arc::new(image));
        Ok(id)
    }

    /// Borrow a loaded image.
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid.
    pub fn image(&self, id: ImageId) -> &CodeImage {
        &self.images[id.0]
    }

    /// The image containing code address `pc`, if any, as the shared
    /// handle the interpreter keeps while it executes inside it.
    pub fn image_at(&self, pc: u64) -> Option<&Arc<CodeImage>> {
        self.images.iter().find(|img| img.contains(pc))
    }

    /// Allocates `pages` physical frames and maps them contiguously at
    /// `base` in space `space` (read-write data pages).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::OutOfMemory`] when physical memory is exhausted.
    pub fn map_fresh(&mut self, space: SpaceId, base: u64, pages: u64) -> Result<(), Fault> {
        for i in 0..pages {
            let pfn = self.phys.alloc_frame().ok_or(Fault::OutOfMemory)?;
            self.spaces[space.0].map(base + i * PAGE_SIZE, PageEntry::ram(pfn, true));
        }
        Ok(())
    }

    /// Maps a stack of `pages` pages at `base`. The page below `base` is
    /// deliberately left unmapped as a guard page (paper §4.1: hypervisor
    /// driver stack overflow "is prevented by the use of guard pages").
    ///
    /// # Errors
    ///
    /// Returns [`Fault::OutOfMemory`] when physical memory is exhausted.
    pub fn map_stack(&mut self, space: SpaceId, base: u64, pages: u64) -> Result<(), Fault> {
        self.map_fresh(space, base, pages)
    }

    /// Allocates and maps pages in the *hypervisor* region.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::OutOfMemory`] when physical memory is exhausted.
    pub fn map_hyper_fresh(&mut self, base: u64, pages: u64) -> Result<(), Fault> {
        for i in 0..pages {
            let pfn = self.phys.alloc_frame().ok_or(Fault::OutOfMemory)?;
            self.hyper
                .map(base + i * PAGE_SIZE, PageEntry::ram(pfn, true));
        }
        Ok(())
    }

    /// Translates a virtual address in `space`/`mode` to a page entry and
    /// offset, without charging cycles.
    ///
    /// # Errors
    ///
    /// [`Fault::PageFault`] if unmapped, [`Fault::ProtFault`] for a guest
    /// touching the hypervisor region or writing a read-only page.
    pub fn translate(
        &self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        write: bool,
    ) -> Result<space::Translation, Fault> {
        let table = if addr >= HYPER_BASE {
            if mode != ExecMode::Hypervisor {
                return Err(Fault::ProtFault { addr });
            }
            &self.hyper
        } else {
            &self.spaces[space.0]
        };
        let entry = table.lookup(addr).ok_or(Fault::PageFault { addr, write })?;
        if write && !entry.writable {
            return Err(Fault::ProtFault { addr });
        }
        Ok(space::Translation {
            entry,
            offset: addr % PAGE_SIZE,
        })
    }

    /// What a translation by `cpu` depends on besides the address.
    fn tlb_key(&self, cpu: &Cpu) -> space::TlbKey {
        // A space this machine does not have translates nothing (any
        // access to it panics, as ever); 0 is no table's generation.
        let space_gen = self
            .spaces
            .get(cpu.space.0)
            .map_or(0, PageTable::generation);
        (cpu.space, cpu.mode, space_gen, self.hyper.generation())
    }

    /// Makes the translation cache valid for `cpu`: entries survive only
    /// if they were filled for the same space, in the same mode, from the
    /// same contents of that space's table and of the hypervisor table.
    ///
    /// [`run`] calls this on entry and after every [`Env`] callback.
    /// Those are the only points at which the space, the mode or a page
    /// table can differ from what the cache was filled under: for the
    /// rest of a run the interpreter holds `&mut Machine` and itself
    /// neither maps nor switches.
    pub(crate) fn revalidate_tlb(&mut self, cpu: &Cpu) {
        self.tlb.revalidate(self.tlb_key(cpu));
    }

    /// Caches the translation of `addr` to `entry` for the interpreter.
    /// A writable RAM frame is marked written as it enters the cache: a
    /// store that hits the cache writes unmarked
    /// ([`PhysMem::write_unmarked`]), so every frame such a store can
    /// reach must be marked before it. A cloned cache starts empty
    /// ([`space::Tlb`]'s `Clone`), so a clone's stores reach only frames
    /// marked in its own memory.
    #[inline]
    pub(crate) fn fill_tlb(&mut self, addr: u64, entry: &PageEntry) {
        if entry.writable && entry.kind == PageKind::Ram {
            self.phys.mark(entry.pfn);
        }
        self.tlb.fill(addr, entry);
    }

    /// Translation-cache lookup for the interpreter: the physical address
    /// of a `len`-byte RAM access at `addr` by `cpu`, when the cache can
    /// answer. `None` means "walk the page table" (and, on success,
    /// [`space::Tlb::fill`]), never "fault".
    #[inline]
    pub(crate) fn cached_paddr(&self, cpu: &Cpu, addr: u64, len: u64, write: bool) -> Option<u64> {
        let paddr = self.tlb.hit(addr, len, write)?;
        if cfg!(debug_assertions) {
            self.check_tlb_hit(cpu, addr, write, paddr);
        }
        Some(paddr)
    }

    /// [`Machine::cached_paddr`] for code outside [`run`], which cannot
    /// know whether the cache was revalidated for `cpu`: it answers only
    /// when the cache's key is `cpu`'s key now. That holds inside every
    /// [`Env::extern_call`] until the callback maps, unmaps or switches
    /// `cpu` to another space or mode; then this is `None` and the caller
    /// walks.
    #[inline]
    pub(crate) fn keyed_paddr(&self, cpu: &Cpu, addr: u64, len: u64, write: bool) -> Option<u64> {
        if self.tlb.key() != Some(self.tlb_key(cpu)) {
            return None;
        }
        self.cached_paddr(cpu, addr, len, write)
    }

    /// The law the translation cache lives under, checked on every hit
    /// of every debug-build run: the cache was revalidated for this CPU,
    /// a hit is what the page-table walk says, and a store's frame is
    /// marked written (what its unmarked store relies on).
    fn check_tlb_hit(&self, cpu: &Cpu, addr: u64, write: bool, paddr: u64) {
        assert_eq!(
            self.tlb.key(),
            Some(self.tlb_key(cpu)),
            "translation cache used without revalidation"
        );
        match self.translate(cpu.space, cpu.mode, addr, write) {
            Ok(t) => {
                assert_eq!(
                    t.entry.kind,
                    PageKind::Ram,
                    "cached a device page: {addr:#x}"
                );
                assert_eq!(
                    paddr,
                    t.entry.pfn * PAGE_SIZE + t.offset,
                    "stale cached frame for {addr:#x}"
                );
                assert!(
                    !write || self.phys.is_marked(t.entry.pfn),
                    "cached store into unmarked frame {}",
                    t.entry.pfn
                );
            }
            Err(fault) => panic!("translation cache hit where the walk faults: {fault}"),
        }
    }

    /// Reads `width` bytes at a virtual address (no cycle charge; the
    /// interpreter charges separately). Values are zero-extended.
    ///
    /// # Errors
    ///
    /// Propagates translation faults; MMIO pages cannot be read through
    /// this accessor and return [`Fault::MmioAccess`].
    pub fn read_virt(
        &self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        width: twin_isa::Width,
    ) -> Result<u32, Fault> {
        let t = self.translate(space, mode, addr, false)?;
        self.read_translated(space, mode, addr, width, &t)
    }

    /// [`Machine::read_virt`] for a caller that already holds `t`, the
    /// read translation of `addr`: an access inside one page costs no
    /// second lookup.
    pub(crate) fn read_translated(
        &self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        width: twin_isa::Width,
        t: &space::Translation,
    ) -> Result<u32, Fault> {
        if t.offset + width.bytes() <= PAGE_SIZE {
            return Ok(self.phys.read_width(ram_paddr(t, addr)?, width));
        }
        // Page-straddling: a byte at a time, so which byte faults (and
        // with which fault) does not depend on the access width.
        let mut val = 0u32;
        for i in 0..width.bytes() {
            let t = self.translate(space, mode, addr + i, false)?;
            let b = self.phys.read_u8(ram_paddr(&t, addr)?);
            val |= (b as u32) << (8 * i);
        }
        Ok(val)
    }

    /// Writes `width` bytes at a virtual address.
    ///
    /// # Errors
    ///
    /// Propagates translation faults; see [`Machine::read_virt`]. A
    /// page-straddling store that faults on its second page has already
    /// written the bytes that fell in the first.
    pub fn write_virt(
        &mut self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        width: twin_isa::Width,
        val: u32,
    ) -> Result<(), Fault> {
        let t = self.translate(space, mode, addr, true)?;
        self.write_translated(space, mode, addr, width, val, &t)
    }

    /// [`Machine::write_virt`] for a caller that already holds `t`, the
    /// write translation of `addr`.
    pub(crate) fn write_translated(
        &mut self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        width: twin_isa::Width,
        val: u32,
        t: &space::Translation,
    ) -> Result<(), Fault> {
        if t.offset + width.bytes() <= PAGE_SIZE {
            self.phys.write_width(ram_paddr(t, addr)?, width, val);
            return Ok(());
        }
        // Page-straddling: see `read_translated`.
        for i in 0..width.bytes() {
            let t = self.translate(space, mode, addr + i, true)?;
            self.phys
                .write_u8(ram_paddr(&t, addr)?, (val >> (8 * i)) as u8);
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at a virtual address: one
    /// translation per page touched, then a slice copy.
    ///
    /// # Errors
    ///
    /// The fault a byte-at-a-time [`Machine::read_virt`] loop would
    /// report: the first byte of the first page that is unmapped,
    /// protected or MMIO.
    pub fn read_bytes_virt(
        &self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        buf: &mut [u8],
    ) -> Result<(), Fault> {
        let mut done = 0;
        while done < buf.len() {
            let at = addr + done as u64;
            let t = self.translate(space, mode, at, false)?;
            let n = (buf.len() - done).min((PAGE_SIZE - t.offset) as usize);
            buf[done..done + n].copy_from_slice(self.phys.read_bytes(ram_paddr(&t, at)?, n));
            done += n;
        }
        Ok(())
    }

    /// Writes `data` starting at a virtual address: one translation per
    /// page touched, then a slice copy.
    ///
    /// # Errors
    ///
    /// The fault a byte-at-a-time [`Machine::write_virt`] loop would
    /// report; every page before the faulting one has been written, the
    /// faulting page not at all.
    pub fn write_bytes_virt(
        &mut self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        data: &[u8],
    ) -> Result<(), Fault> {
        let mut done = 0;
        while done < data.len() {
            let at = addr + done as u64;
            let t = self.translate(space, mode, at, true)?;
            let n = (data.len() - done).min((PAGE_SIZE - t.offset) as usize);
            self.phys
                .write_bytes(ram_paddr(&t, at)?, &data[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Reads a 32-bit little-endian value; convenience wrapper.
    ///
    /// # Errors
    ///
    /// See [`Machine::read_virt`].
    pub fn read_u32(&self, space: SpaceId, mode: ExecMode, addr: u64) -> Result<u32, Fault> {
        self.read_virt(space, mode, addr, twin_isa::Width::Long)
    }

    /// Writes a 32-bit little-endian value; convenience wrapper.
    ///
    /// # Errors
    ///
    /// See [`Machine::write_virt`].
    pub fn write_u32(
        &mut self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        val: u32,
    ) -> Result<(), Fault> {
        self.write_virt(space, mode, addr, twin_isa::Width::Long, val)
    }

    /// Copies `len` bytes of simulated memory between virtual ranges which
    /// may live in different spaces. Used by the hypervisor's packet-copy
    /// path; charges nothing (callers charge copy cycles explicitly).
    ///
    /// The copy runs forward (an overlapping destination ahead of the
    /// source sees already-copied bytes, like a byte loop), in chunks
    /// that end at the page boundaries of *both* sides.
    ///
    /// # Errors
    ///
    /// Propagates translation faults from either side, the source's
    /// first; the bytes before the faulting chunk have been copied.
    pub fn copy_virt(
        &mut self,
        src: (SpaceId, ExecMode, u64),
        dst: (SpaceId, ExecMode, u64),
        len: u64,
    ) -> Result<(), Fault> {
        let mut done = 0;
        while done < len {
            let (s_at, d_at) = (src.2 + done, dst.2 + done);
            let st = self.translate(src.0, src.1, s_at, false)?;
            let s_paddr = ram_paddr(&st, s_at)?;
            let dt = self.translate(dst.0, dst.1, d_at, true)?;
            let d_paddr = ram_paddr(&dt, d_at)?;
            let mut n = (len - done)
                .min(PAGE_SIZE - st.offset)
                .min(PAGE_SIZE - dt.offset);
            if s_paddr < d_paddr {
                // A destination that overlaps the source from ahead must
                // see the bytes this copy has already written: stop the
                // chunk where the overlap starts.
                n = n.min(d_paddr - s_paddr);
            }
            self.phys.copy_within(s_paddr, d_paddr, n as usize);
            done += n;
        }
        Ok(())
    }
}

/// Physical address `t` resolves to, `t` being the translation of a byte
/// of an access that started at `addr`.
///
/// # Errors
///
/// [`Fault::MmioAccess`] at `addr` when the page is a device window.
#[inline]
fn ram_paddr(t: &space::Translation, addr: u64) -> Result<u64, Fault> {
    match t.entry.kind {
        PageKind::Ram => Ok(t.entry.pfn * PAGE_SIZE + t.offset),
        PageKind::Mmio(_) => Err(Fault::MmioAccess { addr }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_isa::Width;
    use twin_trace::{Fate, TraceEvent};

    #[test]
    fn a_note_counts_its_row_and_records_only_while_tracing() {
        let mut m = Machine::new();
        m.note(TraceEvent::NapiEnter { dev: 1 });
        m.note(TraceEvent::TimerFire { data: 7 });
        m.note(TraceEvent::IrqDelivered { dev: 1 });
        assert_eq!(m.meter.event(Event::NapiEnter), 1);
        let counted: u64 = Event::ALL.map(|e| m.meter.event(e)).iter().sum();
        assert_eq!(counted, 1, "a trace-only or paid kind counts nothing");
        assert!(m.trace.is_empty());
        m.trace.set_enabled(true);
        m.pay_to(CostDomain::Xen, Term::Hypercall);
        m.meter.push_domain(CostDomain::Driver);
        let drop = TraceEvent::FrameDrop {
            fate: Fate::EarlyDrop,
            guest: Some(2),
        };
        m.note(drop.clone());
        m.meter.pop_domain();
        assert_eq!(m.meter.event(Event::EarlyDrop), 1);
        assert_eq!(m.meter.event_for(Event::EarlyDrop, 2), 1, "guest 2's");
        assert_eq!(m.meter.now(), 700, "noting charges nothing");
        let r = m.trace.records().next().unwrap();
        assert_eq!((r.at, r.domain), (700, "e1000"));
        assert_eq!(r.event, drop);
    }

    #[test]
    fn map_and_access() {
        let mut m = Machine::new();
        let s = m.new_space();
        m.map_fresh(s, 0x2000_0000, 2).unwrap();
        m.write_u32(s, ExecMode::Guest, 0x2000_0ffc, 0xdead_beef)
            .unwrap();
        assert_eq!(
            m.read_u32(s, ExecMode::Guest, 0x2000_0ffc).unwrap(),
            0xdead_beef
        );
        // Cross-page unaligned access works.
        m.write_u32(s, ExecMode::Guest, 0x2000_0ffe, 0x1234_5678)
            .unwrap();
        assert_eq!(
            m.read_u32(s, ExecMode::Guest, 0x2000_0ffe).unwrap(),
            0x1234_5678
        );
    }

    #[test]
    fn unmapped_faults() {
        let mut m = Machine::new();
        let s = m.new_space();
        let e = m.read_u32(s, ExecMode::Guest, 0x4000_0000).unwrap_err();
        assert!(matches!(e, Fault::PageFault { .. }));
    }

    #[test]
    fn hypervisor_region_protected_from_guests() {
        let mut m = Machine::new();
        let s = m.new_space();
        m.map_hyper_fresh(HYPER_BASE, 1).unwrap();
        let e = m.read_u32(s, ExecMode::Guest, HYPER_BASE).unwrap_err();
        assert!(matches!(e, Fault::ProtFault { .. }));
        assert!(m.read_u32(s, ExecMode::Hypervisor, HYPER_BASE).is_ok());
    }

    #[test]
    fn shared_mapping_between_spaces() {
        let mut m = Machine::new();
        let a = m.new_space();
        let b = m.new_space();
        let pfn = m.phys.alloc_frame().unwrap();
        m.space_mut(a).map(0x2000_0000, PageEntry::ram(pfn, true));
        m.space_mut(b).map(0x5000_0000, PageEntry::ram(pfn, true));
        m.write_u32(a, ExecMode::Guest, 0x2000_0004, 77).unwrap();
        assert_eq!(m.read_u32(b, ExecMode::Guest, 0x5000_0004).unwrap(), 77);
    }

    #[test]
    fn extern_registration_is_stable() {
        let mut m = Machine::new();
        let a1 = m.register_extern("netif_rx");
        let a2 = m.register_extern("netif_rx");
        assert_eq!(a1, a2);
        let id = m.extern_at(a1).unwrap();
        assert_eq!(m.extern_name(id), Some("netif_rx"));
        assert_eq!(m.extern_addr("netif_rx"), Some(a1));
        let b = m.register_extern("netdev_alloc_skb");
        assert_ne!(a1, b);
        // Only the trampolines themselves are externs.
        for addr in [a1 + 4, b + 8, EXTERN_BASE - 8] {
            assert_eq!(m.extern_at(addr), None, "{addr:#x}");
        }
    }

    #[test]
    fn readonly_pages_fault_on_write() {
        let mut m = Machine::new();
        let s = m.new_space();
        let pfn = m.phys.alloc_frame().unwrap();
        m.space_mut(s).map(0x2000_0000, PageEntry::ram(pfn, false));
        assert!(m
            .read_virt(s, ExecMode::Guest, 0x2000_0000, Width::Byte)
            .is_ok());
        let e = m
            .write_virt(s, ExecMode::Guest, 0x2000_0000, Width::Byte, 1)
            .unwrap_err();
        assert!(matches!(e, Fault::ProtFault { .. }));
    }

    #[test]
    fn copy_virt_across_spaces() {
        let mut m = Machine::new();
        let a = m.new_space();
        let b = m.new_space();
        m.map_fresh(a, 0x2000_0000, 1).unwrap();
        m.map_fresh(b, 0x2000_0000, 1).unwrap();
        for i in 0..16u32 {
            m.write_virt(a, ExecMode::Guest, 0x2000_0000 + i as u64, Width::Byte, i)
                .unwrap();
        }
        m.copy_virt(
            (a, ExecMode::Guest, 0x2000_0000),
            (b, ExecMode::Guest, 0x2000_0008),
            8,
        )
        .unwrap();
        assert_eq!(
            m.read_virt(b, ExecMode::Guest, 0x2000_000f, Width::Byte)
                .unwrap(),
            7
        );
    }
}
