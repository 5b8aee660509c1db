//! # twin-svm — Software Virtual Memory (paper §4.1)
//!
//! SVM is the paper's core mechanism: a software translation table
//! (`stlb`) that lets the hypervisor driver instance access driver data in
//! dom0's address space *from any guest context*, while catching invalid
//! accesses (anything outside dom0's space) and aborting the driver.
//!
//! The `stlb` is a real table in simulated memory, because the rewritten
//! driver code produced by `twin-rewriter` performs the lookup with
//! ordinary loads, exactly like the paper's Figure 4. Its geometry and
//! that sequence are [`twin_machine::stlb`]: [`stlb::template`] is the
//! nine-op fast path before every access, and [`stlb::entry_offset`] is
//! where an address's entry lies, for the code that fills the table here
//! as for the code that probes it.
//!
//! The slow path ([`Svm::slow_path`]) performs the hash-chain lookup,
//! first-touch permission check, and page mapping: each miss maps **two
//! consecutive dom0 pages** into the hypervisor window, because x86
//! permits unaligned accesses that straddle a page boundary (paper
//! footnote 2). Illegal addresses produce a fault that the hypervisor
//! turns into a driver abort.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::HashMap;
use twin_machine::{
    stlb, CostDomain, Event, ExecMode, Fault, Machine, SpaceId, Term, HYPER_BASE, PAGE_SIZE,
};

/// Total table size in bytes.
pub const STLB_SIZE: u64 = stlb::ENTRIES * stlb::ENTRY_SIZE;

/// Tag value marking an empty entry. Never page-aligned, so it can never
/// match a real page tag.
pub const STLB_EMPTY_TAG: u32 = 0xffff_ffff;

/// Default placement of the stlb inside the hypervisor region.
pub const STLB_HYPER_BASE: u64 = HYPER_BASE + 0x0020_0000;

/// Default placement of the 16 MiB mapping window.
pub const WINDOW_HYPER_BASE: u64 = HYPER_BASE + 0x0100_0000;

/// Window capacity in pages (16 MiB).
pub const WINDOW_PAGES: u64 = stlb::ENTRIES;

/// Symbol name the rewriter emits for the table.
pub const STLB_SYMBOL: &str = "stlb";

/// Extern called by rewritten code on an stlb miss.
pub const SLOW_PATH_SYMBOL: &str = "__svm_slow";

/// Extern called by rewritten code to translate indirect-call targets
/// (paper §5.1.2).
pub const CALL_XLAT_SYMBOL: &str = "__svm_call_xlat";

/// Counters describing SVM behaviour; exported to the benches.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SvmStats {
    /// Slow-path invocations.
    pub misses: u64,
    /// First-touch page mappings performed.
    pub pages_mapped: u64,
    /// Accesses rejected (would-be hypervisor corruption).
    pub rejected: u64,
    /// Indirect-call translations served.
    pub call_translations: u64,
}

/// Where an stlb table lives and how to address it.
#[derive(Copy, Clone, Debug)]
pub struct TablePlacement {
    /// Virtual base address of the table.
    pub base: u64,
    /// Address space used to read/write it.
    pub space: SpaceId,
    /// Mode used to access it ([`ExecMode::Hypervisor`] for the hypervisor
    /// instance's table in the shared region).
    pub mode: ExecMode,
}

/// The SVM runtime: slow-path handler, mapping window and call-translation
/// cache for one driver instance.
///
/// Two configurations exist, matching the paper:
///
/// * **Hypervisor instance** ([`Svm::new_hypervisor`]): misses map dom0
///   pages into the hypervisor window; invalid addresses are rejected.
/// * **VM instance, identity mode** ([`Svm::new_identity`], paper §5.1.2):
///   the same rewritten binary runs in dom0 with identity mappings — the
///   driver "continues to use its original data addresses and functions
///   correctly as before, except that it runs a little slower".
#[derive(Clone, Debug)]
pub struct Svm {
    table: TablePlacement,
    window_base: u64,
    window_next: u64,
    /// dom0 page -> mapped page (full map; survives stlb evictions).
    mapped: HashMap<u64, u64>,
    call_xlat: HashMap<u64, u64>,
    /// Constant offset from VM-driver code addresses to hypervisor-driver
    /// code addresses (paper §5.1.2).
    code_offset: i64,
    /// Valid hypervisor-driver code range for translated calls.
    code_range: (u64, u64),
    dom0_space: SpaceId,
    identity: bool,
    stats: SvmStats,
    /// Recent miss addresses (diagnostics; capped).
    recent_misses: Vec<u64>,
}

impl Svm {
    /// Creates the hypervisor-instance SVM with the table at
    /// [`STLB_HYPER_BASE`] and window at [`WINDOW_HYPER_BASE`], and
    /// initialises the table in simulated memory.
    ///
    /// `code_offset`/`code_range` configure indirect-call translation:
    /// a VM-driver code address `a` maps to `a + code_offset`, which must
    /// fall within `code_range`.
    ///
    /// # Errors
    ///
    /// Fails if hypervisor memory for the table cannot be mapped.
    pub fn new_hypervisor(
        m: &mut Machine,
        dom0_space: SpaceId,
        code_offset: i64,
        code_range: (u64, u64),
    ) -> Result<Svm, Fault> {
        let table = TablePlacement {
            base: STLB_HYPER_BASE,
            space: dom0_space,
            mode: ExecMode::Hypervisor,
        };
        m.map_hyper_fresh(table.base, STLB_SIZE.div_ceil(PAGE_SIZE))?;
        let svm = Svm {
            table,
            window_base: WINDOW_HYPER_BASE,
            window_next: 0,
            mapped: HashMap::new(),
            call_xlat: HashMap::new(),
            code_offset,
            code_range,
            dom0_space,
            identity: false,
            stats: SvmStats::default(),
            recent_misses: Vec::new(),
        };
        svm.clear_table(m)?;
        Ok(svm)
    }

    /// Creates an identity-mode SVM for the VM instance running in dom0:
    /// the table lives in dom0 memory at `table_base` (this constructor
    /// maps it), and every valid dom0 address translates to itself.
    ///
    /// # Errors
    ///
    /// Fails if the table pages cannot be mapped in dom0.
    pub fn new_identity(
        m: &mut Machine,
        dom0_space: SpaceId,
        table_base: u64,
    ) -> Result<Svm, Fault> {
        let table = TablePlacement {
            base: table_base,
            space: dom0_space,
            mode: ExecMode::Guest,
        };
        m.map_fresh(dom0_space, table.base, STLB_SIZE.div_ceil(PAGE_SIZE))?;
        let svm = Svm {
            table,
            window_base: 0,
            window_next: 0,
            mapped: HashMap::new(),
            call_xlat: HashMap::new(),
            code_offset: 0,
            code_range: (0, u64::MAX),
            dom0_space,
            identity: true,
            stats: SvmStats::default(),
            recent_misses: Vec::new(),
        };
        svm.clear_table(m)?;
        Ok(svm)
    }

    /// The table placement (the loader resolves the `stlb` symbol to
    /// `placement().base`).
    pub fn placement(&self) -> TablePlacement {
        self.table
    }

    /// Statistics counters.
    pub fn stats(&self) -> SvmStats {
        self.stats
    }

    /// Recent miss addresses (diagnostics).
    pub fn recent_misses(&self) -> &[u64] {
        &self.recent_misses
    }

    /// stlb index for a virtual address: its page number modulo
    /// [`stlb::ENTRIES`] (bits 12..24). [`stlb::entry_offset`] is that
    /// entry's byte offset, as the rewritten code computes it.
    pub fn index_of(vaddr: u64) -> u64 {
        (vaddr / PAGE_SIZE) % stlb::ENTRIES
    }

    /// Resets every entry to the empty tag.
    ///
    /// # Errors
    ///
    /// Fails if the table memory is not mapped.
    pub fn clear_table(&self, m: &mut Machine) -> Result<(), Fault> {
        for i in 0..stlb::ENTRIES {
            let e = self.table.base + i * stlb::ENTRY_SIZE;
            m.write_u32(self.table.space, self.table.mode, e, STLB_EMPTY_TAG)?;
            m.write_u32(self.table.space, self.table.mode, e + stlb::XOR_WORD, 0)?;
        }
        Ok(())
    }

    /// Flushes all translations: clears the table, forgets mappings and
    /// resets the window allocator. (Window pages stay mapped in the
    /// hypervisor region; they are simply re-used.)
    ///
    /// # Errors
    ///
    /// Fails if the table memory is not mapped.
    pub fn flush(&mut self, m: &mut Machine) -> Result<(), Fault> {
        self.mapped.clear();
        self.window_next = 0;
        self.clear_table(m)
    }

    /// The slow path (paper §4.1): called when the fast path's tag check
    /// fails. Validates the address, maps the dom0 page (and its
    /// successor) into the window on first touch, and fills the stlb
    /// entry so the retried fast path hits.
    ///
    /// # Errors
    ///
    /// [`Fault::EnvFault`] when the address is not mapped in dom0 — the
    /// hypervisor aborts the driver on this fault ("on such an illegal
    /// memory access by the driver, it is aborted").
    pub fn slow_path(&mut self, m: &mut Machine, vaddr: u64) -> Result<u64, Fault> {
        self.stats.misses += 1;
        if self.recent_misses.len() < 4096 {
            self.recent_misses.push(vaddr);
        }
        m.pay(Term::StlbSlowPath);

        let page = vaddr & !(PAGE_SIZE - 1);
        let mapped_page = if self.identity {
            // Identity mode: validate the address is dom0's, map to itself.
            m.translate(self.dom0_space, ExecMode::Guest, page, false)
                .map_err(|_| {
                    self.stats.rejected += 1;
                    Fault::EnvFault(format!("svm: access to invalid address {vaddr:#x}"))
                })?;
            page
        } else if let Some(mp) = self.mapped.get(&page) {
            // Hash-chain hit: the page is mapped, the stlb entry was
            // evicted by a colliding page.
            m.meter.count_event(Event::StlbCollision);
            *mp
        } else {
            self.map_page(m, page)?
        };

        self.fill_entry(m, page, mapped_page)?;
        Ok(mapped_page | (vaddr & (PAGE_SIZE - 1)))
    }

    /// First-touch mapping: check permissions, allocate two window slots,
    /// alias them to the dom0 page and its successor.
    fn map_page(&mut self, m: &mut Machine, page: u64) -> Result<u64, Fault> {
        // Permission check: the page must be mapped in dom0's space.
        // Hypervisor addresses, other-domain addresses and wild pointers
        // all fail here.
        if page >= HYPER_BASE {
            self.stats.rejected += 1;
            return Err(Fault::EnvFault(format!(
                "svm: driver attempted hypervisor access at {page:#x}"
            )));
        }
        let t = m
            .translate(self.dom0_space, ExecMode::Guest, page, false)
            .map_err(|_| {
                self.stats.rejected += 1;
                Fault::EnvFault(format!("svm: access to invalid address {page:#x}"))
            })?;

        if self.window_next + 2 > WINDOW_PAGES {
            // Window exhausted: flush and start over (simple policy);
            // the driver re-pays its misses, counted where they happen.
            self.flush(m)?;
        }

        let slot = self.window_next;
        self.window_next += 2;
        let win_addr = self.window_base + slot * PAGE_SIZE;
        // The window entry copies dom0's entry wholesale, preserving the
        // page *kind*: an MMIO page (the NIC register window mapped into
        // dom0) stays MMIO when accessed through SVM, so the rewritten
        // driver's register accesses still reach the device model.
        m.hyper.map(win_addr, t.entry);
        self.stats.pages_mapped += 1;
        m.meter.count_event(Event::SvmPageMapped);

        // Map the next dom0 page too (unaligned accesses may straddle,
        // paper footnote 2). If it isn't mapped in dom0, leave the second
        // window slot unmapped — a straddling access will then fault
        // rather than corrupt anything. Both pages are recorded in the
        // mapping chain so a later direct touch of the second page reuses
        // the window pair instead of allocating a new one.
        if let Ok(t2) = m.translate(self.dom0_space, ExecMode::Guest, page + PAGE_SIZE, false) {
            m.hyper.map(win_addr + PAGE_SIZE, t2.entry);
            self.mapped.insert(page + PAGE_SIZE, win_addr + PAGE_SIZE);
        }

        self.mapped.insert(page, win_addr);
        Ok(win_addr)
    }

    /// Writes the stlb entry for `page` (evicting any collision).
    fn fill_entry(&self, m: &mut Machine, page: u64, mapped_page: u64) -> Result<(), Fault> {
        let e = self.table.base + u64::from(stlb::entry_offset(page as u32));
        m.write_u32(self.table.space, self.table.mode, e, page as u32)?;
        m.write_u32(
            self.table.space,
            self.table.mode,
            e + stlb::XOR_WORD,
            (page ^ mapped_page) as u32,
        )?;
        Ok(())
    }

    /// Registers the code range and offset for indirect-call translation.
    pub fn set_code_mapping(&mut self, offset: i64, range: (u64, u64)) {
        self.code_offset = offset;
        self.code_range = range;
        self.call_xlat.clear();
    }

    /// Translates a VM-driver code address to the hypervisor-driver
    /// address (paper §5.1.2). Cached in the `stlb_call` table; the
    /// translation itself is the constant code offset because both
    /// instances run the same rewritten binary.
    ///
    /// # Errors
    ///
    /// [`Fault::EnvFault`] when the translated target falls outside the
    /// hypervisor driver's code — a control-flow violation.
    pub fn translate_call(&mut self, m: &mut Machine, vm_target: u64) -> Result<u64, Fault> {
        self.stats.call_translations += 1;
        m.pay(Term::CallXlat);
        if let Some(t) = self.call_xlat.get(&vm_target) {
            return Ok(*t);
        }
        let target = vm_target.wrapping_add(self.code_offset as u64);
        if target < self.code_range.0 || target >= self.code_range.1 {
            self.stats.rejected += 1;
            return Err(Fault::EnvFault(format!(
                "svm: indirect call to {vm_target:#x} resolves outside driver code"
            )));
        }
        self.call_xlat.insert(vm_target, target);
        Ok(target)
    }

    /// Convenience used by native hypervisor support routines (paper §4.3
    /// — they "make use of the stlb translation table explicitly while
    /// accessing driver data"): translate a dom0 virtual address through
    /// SVM, mapping on demand.
    ///
    /// # Errors
    ///
    /// Same as [`Svm::slow_path`].
    pub fn translate_data(&mut self, m: &mut Machine, vaddr: u64) -> Result<u64, Fault> {
        let page = vaddr & !(PAGE_SIZE - 1);
        if self.identity {
            return Ok(vaddr);
        }
        if let Some(mp) = self.mapped.get(&page) {
            return Ok(mp | (vaddr & (PAGE_SIZE - 1)));
        }
        let mapped = self.map_page(m, page)?;
        self.fill_entry(m, page, mapped)?;
        Ok(mapped | (vaddr & (PAGE_SIZE - 1)))
    }

    /// Charges a fast-path hit for a native support routine that models
    /// an stlb lookup without running rewritten code: the nine ops of
    /// [`stlb::template`] as `6·Alu + 2·Load + BranchNotTaken`, 15 cycles
    /// at default prices — one `Alu` per register op, a `Load` alone for
    /// the `cmp` and the `xor`. Interpreted, the same nine ops cost
    /// `3·MovReg + 5·Alu + 2·Load + BranchNotTaken`, 17 cycles, because
    /// the `cmp` and the `xor` also pay their ALU half. The charge stays
    /// as it is: every TwinDrivers figure includes it.
    pub fn charge_fast_path(&self, m: &mut Machine) {
        for (n, class) in [(2, Term::Load), (6, Term::Alu), (1, Term::BranchNotTaken)] {
            for _ in 0..n {
                m.pay_to(CostDomain::Driver, class);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Machine, SpaceId, Svm) {
        let mut m = Machine::new();
        let dom0 = m.new_space();
        m.map_fresh(dom0, 0x2000_0000, 16).unwrap();
        let svm = Svm::new_hypervisor(&mut m, dom0, 0, (0, u64::MAX)).unwrap();
        (m, dom0, svm)
    }

    fn read_entry(m: &Machine, svm: &Svm, vaddr: u64) -> (u32, u32) {
        let p = svm.placement();
        let e = p.base + Svm::index_of(vaddr) * stlb::ENTRY_SIZE;
        (
            m.read_u32(p.space, p.mode, e).unwrap(),
            m.read_u32(p.space, p.mode, e + stlb::XOR_WORD).unwrap(),
        )
    }

    #[test]
    fn miss_fills_entry_and_xor_translates() {
        let (mut m, dom0, mut svm) = setup();
        let vaddr = 0x2000_0123;
        let mapped = svm.slow_path(&mut m, vaddr).unwrap();
        assert_eq!(mapped & 0xfff, 0x123, "page offset preserved");
        assert!(mapped >= WINDOW_HYPER_BASE);
        // The entry encodes tag and tag^mapped, exactly like Figure 4.
        let (tag, xorw) = read_entry(&m, &svm, vaddr);
        assert_eq!(tag, 0x2000_0000);
        assert_eq!(tag ^ xorw, (mapped & !0xfff) as u32);
        // The window page aliases the dom0 page: writes are visible both ways.
        m.write_u32(dom0, ExecMode::Guest, vaddr, 0xfeed).unwrap();
        assert_eq!(
            m.read_u32(dom0, ExecMode::Hypervisor, mapped).unwrap(),
            0xfeed
        );
        assert_eq!(svm.stats().misses, 1);
        assert_eq!(svm.stats().pages_mapped, 1);
    }

    #[test]
    fn second_touch_reuses_mapping() {
        let (mut m, _dom0, mut svm) = setup();
        let a = svm.slow_path(&mut m, 0x2000_0000).unwrap();
        let b = svm.slow_path(&mut m, 0x2000_0004).unwrap();
        assert_eq!(a + 4, b);
        assert_eq!(svm.stats().pages_mapped, 1, "no second mapping");
    }

    #[test]
    fn straddling_access_works_via_adjacent_mapping() {
        let (mut m, dom0, mut svm) = setup();
        // Map vaddr in page 0; an unaligned u32 at page end must read into
        // the *adjacent* window page, which aliases dom0's next page.
        let mapped = svm.slow_path(&mut m, 0x2000_0ffe).unwrap();
        m.write_u32(dom0, ExecMode::Guest, 0x2000_0ffe, 0xa1b2_c3d4)
            .unwrap();
        assert_eq!(
            m.read_u32(dom0, ExecMode::Hypervisor, mapped).unwrap(),
            0xa1b2_c3d4
        );
    }

    #[test]
    fn illegal_access_rejected() {
        let (mut m, _dom0, mut svm) = setup();
        // Unmapped dom0 address.
        assert!(svm.slow_path(&mut m, 0x7777_0000).is_err());
        // Hypervisor address: the driver trying to corrupt Xen.
        assert!(svm.slow_path(&mut m, HYPER_BASE + 0x100).is_err());
        assert_eq!(svm.stats().rejected, 2);
    }

    #[test]
    fn collision_evicts_but_chain_survives() {
        let (mut m, dom0, mut svm) = setup();
        // Two dom0 pages 16 MiB apart share an stlb index.
        let a = 0x2000_0000u64;
        let b = a + stlb::ENTRIES * PAGE_SIZE;
        m.map_fresh(dom0, b, 1).unwrap();
        assert_eq!(Svm::index_of(a), Svm::index_of(b));
        let ma = svm.slow_path(&mut m, a).unwrap();
        let _mb = svm.slow_path(&mut m, b).unwrap();
        // Entry now tags b; touching a again is a collision miss that
        // reuses the existing window mapping.
        let ma2 = svm.slow_path(&mut m, a).unwrap();
        assert_eq!(ma, ma2);
        assert_eq!(m.meter.event(Event::StlbCollision), 1);
        assert_eq!(svm.stats().pages_mapped, 2);
    }

    #[test]
    fn identity_mode_translates_to_self() {
        let mut m = Machine::new();
        let dom0 = m.new_space();
        m.map_fresh(dom0, 0x2000_0000, 4).unwrap();
        let mut svm = Svm::new_identity(&mut m, dom0, 0x2800_0000).unwrap();
        let t = svm.slow_path(&mut m, 0x2000_0abc).unwrap();
        assert_eq!(t, 0x2000_0abc);
        let (tag, xorw) = read_entry(&m, &svm, 0x2000_0abc);
        assert_eq!(tag, 0x2000_0000);
        assert_eq!(xorw, 0, "identity mapping xors to zero");
        // Invalid addresses still rejected in identity mode.
        assert!(svm.slow_path(&mut m, 0x6666_0000).is_err());
    }

    #[test]
    fn call_translation_constant_offset() {
        let (mut m, _dom0, mut svm) = setup();
        svm.set_code_mapping(0x1000_0000, (0x1800_0000, 0x1900_0000));
        let t = svm.translate_call(&mut m, 0x0800_0040).unwrap();
        assert_eq!(t, 0x1800_0040);
        // Cached second time.
        let t2 = svm.translate_call(&mut m, 0x0800_0040).unwrap();
        assert_eq!(t, t2);
        assert_eq!(svm.stats().call_translations, 2);
        // Outside the driver: rejected (control-flow protection).
        assert!(svm.translate_call(&mut m, 0x4000_0000).is_err());
    }

    #[test]
    fn flush_resets_table() {
        let (mut m, _dom0, mut svm) = setup();
        svm.slow_path(&mut m, 0x2000_0000).unwrap();
        svm.flush(&mut m).unwrap();
        let (tag, _) = read_entry(&m, &svm, 0x2000_0000);
        assert_eq!(tag, STLB_EMPTY_TAG);
        // Next touch maps afresh.
        svm.slow_path(&mut m, 0x2000_0000).unwrap();
        assert_eq!(svm.stats().pages_mapped, 2);
    }

    #[test]
    fn translate_data_for_native_helpers() {
        let (mut m, dom0, mut svm) = setup();
        let t = svm.translate_data(&mut m, 0x2000_0444).unwrap();
        m.write_u32(dom0, ExecMode::Hypervisor, t, 99).unwrap();
        assert_eq!(m.read_u32(dom0, ExecMode::Guest, 0x2000_0444).unwrap(), 99);
        // Data translation fills the stlb so rewritten code will hit.
        let (tag, _) = read_entry(&m, &svm, 0x2000_0444);
        assert_eq!(tag, 0x2000_0000);
    }

    #[test]
    fn index_uses_bits_12_to_24() {
        assert_eq!(Svm::index_of(0x0000_0000), 0);
        assert_eq!(Svm::index_of(0x0000_1000), 1);
        assert_eq!(Svm::index_of(0x00ff_fabc), 0xfff);
        assert_eq!(Svm::index_of(0x0100_0000), 0, "wraps at 16 MiB");
    }

    #[test]
    fn the_modeled_hit_is_two_cycles_under_the_interpreted_one() {
        use twin_isa::{Insn, MemRef, Module, Reg, Target};
        use twin_machine::{run, Cpu, NullEnv, StopReason};
        let (mut m, dom0, mut svm) = setup();
        svm.slow_path(&mut m, 0x2000_0abc).unwrap();
        // The template once, hitting the entry just filled, then `hlt`.
        let (addr, table) = (MemRef::base_disp(Reg::Esi, 0), MemRef::abs(STLB_HYPER_BASE));
        let [out, s1, s2] = [Reg::Eax, Reg::Ebx, Reg::Edx];
        let mut module = Module::new("t");
        module.text = stlb::template(addr, out, s1, s2, table, Target::Label("slow".into())).into();
        module.text.push(Insn::Hlt);
        module.labels.insert("slow".into(), stlb::TEMPLATE_LEN);
        let image = m.load_image(&module, 0x0800_0000, |_| None).unwrap();
        let mut cpu = Cpu::new(dom0, ExecMode::Hypervisor);
        cpu.set_reg(Reg::Esi, 0x2000_0abc);
        cpu.pc = m.image(image).base;
        let (cycles, insns) = (m.meter.total_cycles(), m.meter.insns());
        assert_eq!(
            run(&mut m, &mut cpu, &mut NullEnv, 20),
            Ok(StopReason::Halted)
        );
        assert_eq!(m.meter.insns() - insns, 10, "a hit: all nine, then `hlt`");
        let interpreted = m.meter.total_cycles() - cycles;
        let cycles = m.meter.total_cycles();
        svm.charge_fast_path(&mut m);
        assert_eq!((m.meter.total_cycles() - cycles, interpreted), (15, 17));
    }
}
