//! The instruction interpreter: CPU state, faults, environment hooks and
//! the `run` loop.
//!
//! Control transfers out of ISA code happen two ways:
//!
//! * returning to [`crate::RETURN_SENTINEL`] stops the run loop with
//!   [`StopReason::Returned`] — native code (kernel model, hypervisor)
//!   calls ISA functions by pushing a frame and running to that sentinel;
//! * calling an *extern trampoline* address dispatches to
//!   [`Env::extern_call`] with the extern's [`ExternId`], an index the
//!   environment resolves once — this is how driver code calls support routines
//!   (`netdev_alloc_skb`, …), which the environment may implement natively
//!   in dom0, natively in the hypervisor (paper §4.3), or as an upcall
//!   stub (paper §4.2).

use crate::cost::INSN_ROWS;
use crate::image::{CodeImage, Mem, Op, Opnd, Tgt, Xlate};
use crate::space::{PageKind, SpaceId};
use crate::stlb::{self, TEMPLATE_LEN};
use crate::{ExternId, Machine, Term, EXTERN_BASE, PAGE_SIZE, RETURN_SENTINEL};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use twin_isa::{AluOp, Cond, Reg, Rep, ShiftOp, StrOp, UnOp, Width};

/// Privilege mode of the executing CPU.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ExecMode {
    /// Guest kernel / driver-domain code: no access to the hypervisor
    /// region.
    Guest,
    /// Hypervisor code (including the derived hypervisor driver): may
    /// touch addresses above [`crate::HYPER_BASE`].
    Hypervisor,
}

/// Machine faults. These abort the current run and surface to the caller
/// (the hypervisor model decides what to do — e.g. abort the driver,
/// paper §4.1 "on such an illegal memory access by the driver, it is
/// aborted").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Access to an unmapped page.
    PageFault {
        /// Faulting virtual address.
        addr: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// Protection violation (guest touching hypervisor region, write to
    /// read-only page).
    ProtFault {
        /// Faulting virtual address.
        addr: u64,
    },
    /// Raw access to an MMIO page through a non-MMIO path.
    MmioAccess {
        /// Faulting virtual address.
        addr: u64,
    },
    /// Instruction fetch outside any loaded image (wild jump).
    BadFetch {
        /// The bad program counter.
        pc: u64,
    },
    /// `ud2` executed.
    BadInstruction,
    /// `int3` executed (used to mark deliberate aborts).
    Breakpoint,
    /// A call to an extern trampoline the environment does not implement.
    UnknownExtern(String),
    /// The environment vetoed an operation (e.g. SVM denied an access —
    /// the message says why).
    EnvFault(String),
    /// Physical memory exhausted.
    OutOfMemory,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::PageFault { addr, write } => {
                write!(
                    f,
                    "page fault at {addr:#x} ({})",
                    if *write { "write" } else { "read" }
                )
            }
            Fault::ProtFault { addr } => write!(f, "protection fault at {addr:#x}"),
            Fault::MmioAccess { addr } => write!(f, "raw access to mmio page at {addr:#x}"),
            Fault::BadFetch { pc } => write!(f, "instruction fetch from {pc:#x}"),
            Fault::BadInstruction => write!(f, "undefined instruction"),
            Fault::Breakpoint => write!(f, "breakpoint"),
            Fault::UnknownExtern(name) => write!(f, "call to unimplemented extern `{name}`"),
            Fault::EnvFault(msg) => write!(f, "environment fault: {msg}"),
            Fault::OutOfMemory => write!(f, "simulated physical memory exhausted"),
        }
    }
}

impl Error for Fault {}

/// Why a `run` ended without a fault.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// Returned to [`RETURN_SENTINEL`] — the called ISA function finished.
    Returned,
    /// `hlt` executed.
    Halted,
    /// The instruction budget was exhausted (VINO-style watchdog,
    /// paper §4.5.2).
    Budget,
}

/// Condition flags.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Flags {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag.
    pub cf: bool,
    /// Overflow flag.
    pub of: bool,
}

/// CPU state: registers, flags, program counter, current address space and
/// privilege mode.
#[derive(Clone, Debug)]
pub struct Cpu {
    regs: [u32; 8],
    /// Condition flags.
    pub flags: Flags,
    /// Program counter.
    pub pc: u64,
    /// Current address space.
    pub space: SpaceId,
    /// Privilege mode.
    pub mode: ExecMode,
    /// Virtual interrupt-enable flag (manipulated by `cli`/`sti`).
    pub if_enabled: bool,
}

impl Cpu {
    /// Creates a CPU with zeroed registers in the given space and mode.
    pub fn new(space: SpaceId, mode: ExecMode) -> Cpu {
        Cpu {
            regs: [0; 8],
            flags: Flags::default(),
            pc: 0,
            space,
            mode,
            if_enabled: true,
        }
    }

    /// Reads a register (full 32 bits).
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (full 32 bits).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        self.regs[r.index()] = v;
    }

    /// Writes the low `w` bytes of a register, preserving the rest
    /// (x86 partial-register semantics).
    pub fn set_reg_w(&mut self, r: Reg, w: Width, v: u32) {
        let mask = w.mask() as u32;
        let old = self.regs[r.index()];
        self.regs[r.index()] = (old & !mask) | (v & mask);
    }

    /// Sets the stack pointer.
    pub fn set_stack(&mut self, top: u64) {
        self.set_reg(Reg::Esp, top as u32);
    }

    /// Pushes a 32-bit value on the stack.
    ///
    /// # Errors
    ///
    /// Faults if the stack page is unmapped (guard-page hit).
    pub fn push(&mut self, m: &mut Machine, v: u32) -> Result<(), Fault> {
        let esp = self.reg(Reg::Esp).wrapping_sub(4);
        self.set_reg(Reg::Esp, esp);
        m.write_u32(self.space, self.mode, esp as u64, v)
    }

    /// Pops a 32-bit value off the stack.
    ///
    /// # Errors
    ///
    /// Faults if the stack page is unmapped.
    pub fn pop(&mut self, m: &mut Machine) -> Result<u32, Fault> {
        let esp = self.reg(Reg::Esp);
        let v = m.read_u32(self.space, self.mode, esp as u64)?;
        self.set_reg(Reg::Esp, esp.wrapping_add(4));
        Ok(v)
    }

    /// Pushes `args` (right to left, cdecl) and the return sentinel; after
    /// this, point `pc` at a function and `run` until
    /// [`StopReason::Returned`].
    ///
    /// # Errors
    ///
    /// Faults if the stack pages are unmapped.
    pub fn push_call_frame(&mut self, m: &mut Machine, args: &[u32]) -> Result<(), Fault> {
        for a in args.iter().rev() {
            self.push(m, *a)?;
        }
        self.push(m, RETURN_SENTINEL as u32)?;
        Ok(())
    }

    /// Reads argument `i` (0-based) of the current cdecl frame, assuming
    /// `pc` is at the function entry (return address on top of stack).
    /// Inside an [`Env::extern_call`] the slot is usually in the
    /// translation cache the run left behind; the read takes it from
    /// there when the cache is valid for this CPU, and walks the page
    /// table otherwise.
    ///
    /// # Errors
    ///
    /// Faults if the stack read fails.
    pub fn arg(&self, m: &Machine, i: u32) -> Result<u32, Fault> {
        let addr = self.reg(Reg::Esp) as u64 + 4 + 4 * i as u64;
        match m.keyed_paddr(self, addr, 4, false) {
            Some(paddr) => Ok(m.phys.read_u32(paddr)),
            None => m.read_u32(self.space, self.mode, addr),
        }
    }
}

/// The execution environment: extern dispatch and MMIO routing.
///
/// Implemented by the kernel model (dom0 support routines), the hypervisor
/// (support routines, upcall stubs, SVM slow path) and by tests.
pub trait Env {
    /// Called when ISA code calls the trampoline of extern `id`
    /// ([`Machine::extern_name`] has the symbol it was registered under;
    /// an environment resolves that once, not per call). The callee's
    /// return value goes in `%eax`; the run loop performs the `ret`.
    ///
    /// # Errors
    ///
    /// May fault (e.g. unknown extern, or a support routine detecting an
    /// invalid argument).
    fn extern_call(&mut self, id: ExternId, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault>;

    /// MMIO load from device `dev` at byte `offset` of its window.
    ///
    /// # Errors
    ///
    /// Device-specific faults.
    fn mmio_read(&mut self, m: &mut Machine, dev: u32, offset: u64, w: Width)
        -> Result<u32, Fault>;

    /// MMIO store to device `dev`.
    ///
    /// # Errors
    ///
    /// Device-specific faults.
    fn mmio_write(
        &mut self,
        m: &mut Machine,
        dev: u32,
        offset: u64,
        w: Width,
        val: u32,
    ) -> Result<(), Fault>;
}

/// An environment with no externs and no devices; any extern call or MMIO
/// access faults. Useful for pure-code tests.
#[derive(Copy, Clone, Debug, Default)]
pub struct NullEnv;

impl Env for NullEnv {
    fn extern_call(&mut self, id: ExternId, m: &mut Machine, _cpu: &mut Cpu) -> Result<(), Fault> {
        Err(Fault::UnknownExtern(
            m.extern_name(id).unwrap_or_default().to_string(),
        ))
    }
    fn mmio_read(
        &mut self,
        _m: &mut Machine,
        _dev: u32,
        offset: u64,
        _w: Width,
    ) -> Result<u32, Fault> {
        Err(Fault::MmioAccess { addr: offset })
    }
    fn mmio_write(
        &mut self,
        _m: &mut Machine,
        _dev: u32,
        offset: u64,
        _w: Width,
        _val: u32,
    ) -> Result<(), Fault> {
        Err(Fault::MmioAccess { addr: offset })
    }
}

fn set_zs(flags: &mut Flags, val: u32, w: Width) {
    let m = w.mask() as u32;
    flags.zf = val & m == 0;
    flags.sf = val & (1 << (w.bytes() * 8 - 1)) != 0;
}

fn alu(flags: &mut Flags, op: AluOp, a: u32, b: u32, w: Width) -> u32 {
    // a = dst, b = src; result = a op b.
    let bits = w.bytes() * 8;
    let mask = w.mask() as u32;
    let (a, b) = (a & mask, b & mask);
    let sign = 1u32 << (bits - 1);
    let res = match op {
        AluOp::Add => {
            let wide = a as u64 + b as u64;
            flags.cf = wide > mask as u64;
            let r = (wide as u32) & mask;
            flags.of = ((a ^ r) & (b ^ r) & sign) != 0;
            r
        }
        AluOp::Sub => {
            flags.cf = a < b;
            let r = a.wrapping_sub(b) & mask;
            flags.of = ((a ^ b) & (a ^ r) & sign) != 0;
            r
        }
        AluOp::And => {
            flags.cf = false;
            flags.of = false;
            a & b
        }
        AluOp::Or => {
            flags.cf = false;
            flags.of = false;
            a | b
        }
        AluOp::Xor => {
            flags.cf = false;
            flags.of = false;
            a ^ b
        }
    };
    set_zs(flags, res, w);
    res
}

/// `a` shifted by `amt` (already taken modulo 32), with the flags a
/// `shift` leaves.
fn shift(flags: &mut Flags, op: ShiftOp, a: u32, amt: u32) -> u32 {
    let r = match op {
        ShiftOp::Shl => {
            flags.cf = amt > 0 && (a >> (32 - amt)) & 1 != 0;
            a.wrapping_shl(amt)
        }
        ShiftOp::Shr => {
            flags.cf = amt > 0 && (a >> (amt - 1)) & 1 != 0;
            a.wrapping_shr(amt)
        }
        ShiftOp::Sar => {
            flags.cf = amt > 0 && ((a as i32) >> (amt - 1)) & 1 != 0;
            ((a as i32).wrapping_shr(amt)) as u32
        }
    };
    flags.of = false;
    set_zs(flags, r, Width::Long);
    r
}

/// `op` applied to `a` (already masked to `w`), with the flags it leaves.
fn unary(flags: &mut Flags, op: UnOp, a: u32, w: Width) -> u32 {
    let mask = w.mask() as u32;
    let r = match op {
        UnOp::Neg => {
            flags.cf = a != 0;
            (a.wrapping_neg()) & mask
        }
        UnOp::Not => !a & mask,
        UnOp::Inc => {
            let cf = flags.cf;
            let r = alu(flags, AluOp::Add, a, 1, w);
            flags.cf = cf; // inc preserves CF like x86
            r
        }
        UnOp::Dec => {
            let cf = flags.cf;
            let r = alu(flags, AluOp::Sub, a, 1, w);
            flags.cf = cf;
            r
        }
    };
    if matches!(op, UnOp::Neg | UnOp::Not) {
        set_zs(flags, r, w);
    }
    r
}

fn cond_true(flags: &Flags, c: Cond) -> bool {
    match c {
        Cond::E => flags.zf,
        Cond::Ne => !flags.zf,
        Cond::L => flags.sf != flags.of,
        Cond::Le => flags.zf || flags.sf != flags.of,
        Cond::G => !flags.zf && flags.sf == flags.of,
        Cond::Ge => flags.sf == flags.of,
        Cond::B => flags.cf,
        Cond::Be => flags.cf || flags.zf,
        Cond::A => !flags.cf && !flags.zf,
        Cond::Ae => !flags.cf,
        Cond::S => flags.sf,
        Cond::Ns => !flags.sf,
    }
}

#[cfg(test)]
thread_local! {
    /// Fused translation hits and fused spill-frame hits made on this
    /// thread. By design nothing a run leaves behind tells a hit from a
    /// fallback; this lets a test tell.
    pub(crate) static FUSED_HITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    pub(crate) static FRAME_HITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// What a translation's hit path read from the stlb entry of its
/// address: the entry's offset in the table, the address's page (the
/// tag it matched), the xor word, and where the entry lies in physical
/// memory.
#[derive(Copy, Clone)]
struct StlbHit {
    entry: u32,
    page: u32,
    xor: u32,
    paddr: u64,
}

/// One [`run`]: the machine, CPU and environment it was called with, plus
/// the payments and instruction count it has made and not yet handed to
/// the [`crate::CycleMeter`].
///
/// Nobody can read the meter while the loop holds `&mut Machine`, so
/// payments pile up here, one count per instruction-class row of the
/// [`Term`] table, and [`Exec::flush`] delivers them at the three
/// places someone else gets to look: before every [`Env`] callback, and
/// when `run` returns or faults. The attribution domain cannot change in
/// between either — only a callback can push or pop it. The instruction
/// count is not kept at all: every instruction takes one from the
/// budget, so the count since the last flush is what the budget has lost
/// since.
///
/// Inside an image, [`Exec::run`] keeps the program counter as the index
/// of the next op and the budget as a count of its own, both in locals,
/// and hands them out only where someone can look. It writes `cpu.pc`
/// back on a fault (the faulting op's address), a stop, budget
/// exhaustion, and every transfer the index cannot follow — `ret`, an
/// indirect or out-of-image target (an extern trampoline is one),
/// running off the image's end. The budget goes to every flush — before
/// an [`Env`] callback, an MMIO access's included, and when the run ends;
/// that is why the memory accesses that may reach a device take the live
/// budget.
///
/// Two ops stand for more than one instruction (the crate docs give the
/// templates and why their tails are left in place): [`Op::SvmXlate`],
/// the head of an SVM translation, and [`Op::SvmFrame`], the first push
/// of a spill frame around one. [`Exec::svm_xlate_hit`] and
/// [`Exec::svm_frame_hit`] run every instruction of the hit path in that
/// one dispatch iff the budget covers them all, every word they touch
/// answers from the translation cache, and the tag matches; if not, the
/// op is its first instruction and the ops after it run as they are.
struct Exec<'a> {
    m: &'a mut Machine,
    cpu: &'a mut Cpu,
    env: &'a mut dyn Env,
    /// The budget — instructions this run may still execute — at the
    /// last flush.
    flushed_budget: u64,
    /// Payments of each instruction-class row since the last flush,
    /// indexed by `Term as usize`.
    counts: [u64; INSN_ROWS],
}

/// Where control goes after an op: what [`Exec::step`] tells the loop,
/// which holds the op's index.
enum Flow {
    /// The next op.
    Next,
    /// `n` ops on: a fused op that ran its `n` instructions.
    Skip(usize),
    /// Op `i` of the same image: a branch or call `link` resolved.
    Local(usize),
    /// Code address `pc`, wherever it is.
    Far(u64),
    /// Stop after this op.
    Halt,
}

impl Exec<'_> {
    #[inline]
    fn pay(&mut self, t: Term) {
        self.counts[t as usize] += 1;
    }

    /// Hands the payments made since the last flush to the meter, each
    /// row's at its cost now, and the instructions run since: what the
    /// budget, `budget` now, has lost.
    fn flush(&mut self, budget: u64) {
        let d = self.m.meter.current_domain();
        for (t, n) in Term::ALL.into_iter().zip(std::mem::take(&mut self.counts)) {
            self.m.meter.pay(&self.m.cost, d, t, n);
        }
        self.m.meter.count_insns(self.flushed_budget - budget);
        self.flushed_budget = budget;
    }

    #[inline]
    fn ea(&self, mem: &Mem) -> u64 {
        let mut a = mem.disp;
        if let Some(b) = mem.base {
            a = a.wrapping_add(self.cpu.reg(b));
        }
        if let Some(i) = mem.index {
            a = a.wrapping_add(self.cpu.reg(i).wrapping_mul(mem.scale as u32));
        }
        a as u64
    }

    /// A load instruction's memory access: charged, RAM or MMIO. `budget`
    /// is the run's, flushed before a device read.
    #[inline]
    fn load(&mut self, addr: u64, w: Width, budget: u64) -> Result<u32, Fault> {
        if let Some(paddr) = self.m.cached_paddr(self.cpu, addr, w.bytes(), false) {
            self.pay(Term::Load);
            return Ok(self.m.phys.read_width(paddr, w));
        }
        self.load_walk(addr, w, budget)
    }

    #[inline(never)]
    fn load_walk(&mut self, addr: u64, w: Width, budget: u64) -> Result<u32, Fault> {
        let (space, mode) = (self.cpu.space, self.cpu.mode);
        let t = self.m.translate(space, mode, addr, false)?;
        match t.entry.kind {
            PageKind::Ram => {
                self.pay(Term::Load);
                self.m.fill_tlb(addr, &t.entry);
                self.m.read_translated(space, mode, addr, w, &t)
            }
            PageKind::Mmio(dev) => {
                self.pay(Term::MmioRead);
                self.flush(budget);
                let offset = t.entry.pfn * PAGE_SIZE + t.offset;
                let val = self.env.mmio_read(self.m, dev, offset, w);
                self.m.revalidate_tlb(self.cpu);
                val
            }
        }
    }

    /// A store instruction's memory access: charged, RAM or MMIO. `budget`
    /// is the run's, flushed before a device write.
    #[inline]
    fn store(&mut self, addr: u64, w: Width, val: u32, budget: u64) -> Result<(), Fault> {
        if let Some(paddr) = self.m.cached_paddr(self.cpu, addr, w.bytes(), true) {
            self.pay(Term::Store);
            self.m.phys.write_unmarked(paddr, w, val);
            return Ok(());
        }
        self.store_walk(addr, w, val, budget)
    }

    #[inline(never)]
    fn store_walk(&mut self, addr: u64, w: Width, val: u32, budget: u64) -> Result<(), Fault> {
        let (space, mode) = (self.cpu.space, self.cpu.mode);
        let t = self.m.translate(space, mode, addr, true)?;
        match t.entry.kind {
            PageKind::Ram => {
                self.pay(Term::Store);
                self.m.fill_tlb(addr, &t.entry);
                self.m.write_translated(space, mode, addr, w, val, &t)
            }
            PageKind::Mmio(dev) => {
                self.pay(Term::MmioWrite);
                self.flush(budget);
                let offset = t.entry.pfn * PAGE_SIZE + t.offset;
                let done = self.env.mmio_write(self.m, dev, offset, w, val);
                self.m.revalidate_tlb(self.cpu);
                done
            }
        }
    }

    /// [`Cpu::push`] through the translation cache. Like it, charges
    /// nothing (the instruction has) and moves `%esp` before it can fault.
    #[inline]
    fn push(&mut self, val: u32) -> Result<(), Fault> {
        let esp = self.cpu.reg(Reg::Esp).wrapping_sub(4);
        self.cpu.set_reg(Reg::Esp, esp);
        let addr = esp as u64;
        if let Some(paddr) = self.m.cached_paddr(self.cpu, addr, 4, true) {
            self.m.phys.write_unmarked(paddr, Width::Long, val);
            return Ok(());
        }
        self.push_walk(addr, val)
    }

    #[inline(never)]
    fn push_walk(&mut self, addr: u64, val: u32) -> Result<(), Fault> {
        let (space, mode) = (self.cpu.space, self.cpu.mode);
        let t = self.m.translate(space, mode, addr, true)?;
        self.m.fill_tlb(addr, &t.entry);
        self.m
            .write_translated(space, mode, addr, Width::Long, val, &t)
    }

    /// [`Cpu::pop`] through the translation cache.
    #[inline]
    fn pop(&mut self) -> Result<u32, Fault> {
        let esp = self.cpu.reg(Reg::Esp);
        let addr = esp as u64;
        let val = match self.m.cached_paddr(self.cpu, addr, 4, false) {
            Some(paddr) => self.m.phys.read_u32(paddr),
            None => self.pop_walk(addr)?,
        };
        self.cpu.set_reg(Reg::Esp, esp.wrapping_add(4));
        Ok(val)
    }

    #[inline(never)]
    fn pop_walk(&mut self, addr: u64) -> Result<u32, Fault> {
        let (space, mode) = (self.cpu.space, self.cpu.mode);
        let t = self.m.translate(space, mode, addr, false)?;
        self.m.fill_tlb(addr, &t.entry);
        self.m.read_translated(space, mode, addr, Width::Long, &t)
    }

    #[inline]
    fn read(&mut self, o: &Opnd, w: Width, budget: u64) -> Result<u32, Fault> {
        let val = match o {
            Opnd::Reg(r) => self.cpu.reg(*r),
            Opnd::Imm(v) => *v,
            Opnd::Mem(mem) => self.load(self.ea(mem), w, budget)?,
        };
        Ok(val & w.mask() as u32)
    }

    #[inline]
    fn write(&mut self, o: &Opnd, w: Width, val: u32, budget: u64) -> Result<(), Fault> {
        match o {
            Opnd::Reg(r) => {
                self.cpu.set_reg_w(*r, w, val);
                Ok(())
            }
            Opnd::Mem(mem) => self.store(self.ea(mem), w, val, budget),
            Opnd::Imm(_) => Err(Fault::EnvFault(format!(
                "write to non-lvalue operand `{o:?}`"
            ))),
        }
    }

    #[inline]
    fn target(&mut self, t: &Tgt, budget: u64) -> Result<u64, Fault> {
        Ok(match t {
            Tgt::Abs(a) => *a,
            Tgt::Reg(r) => self.cpu.reg(*r) as u64,
            Tgt::Mem(mem) => self.load(self.ea(mem), Width::Long, budget)? as u64,
        })
    }

    /// The extern trampoline at `cpu.pc`: dispatch to the environment,
    /// then return to the caller. `budget` is the run's, flushed first.
    fn call_extern(&mut self, budget: u64) -> Result<(), Fault> {
        let pc = self.cpu.pc;
        let id = self.m.extern_at(pc).ok_or(Fault::BadFetch { pc })?;
        self.flush(budget);
        let done = self.env.extern_call(id, self.m, self.cpu);
        self.m.revalidate_tlb(self.cpu);
        done?;
        self.cpu.pc = self.pop()? as u64;
        Ok(())
    }

    /// The run loop. Kept out of line: `bench/profile.sh` counts the
    /// interpreter's dispatch by this function's name.
    #[inline(never)]
    fn run(&mut self) -> Result<StopReason, Fault> {
        let mut budget = self.flushed_budget;
        // The image `pc` was last in. Held while `pc` stays inside it —
        // straight-line code and local branches fetch by index, borrowing
        // nothing from the machine — and kept across a call to an extern,
        // which returns into it.
        let mut held: Option<Arc<CodeImage>> = None;
        let stopped = 'run: loop {
            // Where is `pc`? The sentinel, a trampoline, or code.
            let pc = self.cpu.pc;
            if pc == RETURN_SENTINEL {
                break Ok(StopReason::Returned);
            }
            if (EXTERN_BASE..RETURN_SENTINEL).contains(&pc) {
                match self.call_extern(budget) {
                    Ok(()) => continue,
                    Err(fault) => break Err(fault),
                }
            }
            if budget == 0 {
                break Ok(StopReason::Budget);
            }
            let image = match held.take() {
                Some(image) if image.contains(pc) => image,
                _ => match self.m.image_at(pc) {
                    Some(image) => Arc::clone(image),
                    None => break Err(Fault::BadFetch { pc }),
                },
            };
            let Some(mut at) = image.index(pc) else {
                break Err(Fault::BadFetch { pc });
            };
            // Inside the image `at` stands for `pc`: a sequential op, a
            // fused hit and a branch `link` resolved move it, and nothing
            // turns an address into an index until control leaves.
            while let Some(op) = image.ops.get(at) {
                if budget == 0 {
                    self.cpu.pc = image.addr(at);
                    break 'run Ok(StopReason::Budget);
                }
                budget -= 1;
                match self.step(op, &image, at, budget) {
                    Ok(Flow::Next) => at += 1,
                    Ok(Flow::Skip(n)) => {
                        at += n;
                        budget -= n as u64 - 1;
                    }
                    Ok(Flow::Local(to)) => at = to,
                    Ok(Flow::Far(to)) => {
                        self.cpu.pc = to;
                        held = Some(image);
                        continue 'run;
                    }
                    Ok(Flow::Halt) => {
                        self.cpu.pc = image.addr(at + 1);
                        break 'run Ok(StopReason::Halted);
                    }
                    Err(fault) => {
                        self.cpu.pc = image.addr(at);
                        break 'run Err(fault);
                    }
                }
            }
            // Ran off the end of the image.
            self.cpu.pc = image.addr(at);
        };
        self.flush(budget);
        stopped
    }

    /// Executes `op`, instruction `at` of `image`, with `budget`
    /// instructions left after it, and says where control goes next. On
    /// a fault the loop leaves `cpu.pc` on it.
    #[inline]
    fn step(&mut self, op: &Op, image: &CodeImage, at: usize, budget: u64) -> Result<Flow, Fault> {
        match op {
            Op::Mov { w, dst, src } => {
                let v = self.read(src, *w, budget)?;
                self.pay(Term::MovReg);
                self.write(dst, *w, v, budget)?;
            }
            Op::Movzx { w, dst, src } => {
                let v = self.read(src, *w, budget)?;
                self.pay(Term::MovReg);
                self.cpu.set_reg(*dst, v);
            }
            Op::Movsx { w, dst, src } => {
                let v = self.read(src, *w, budget)?;
                let bits = w.bytes() * 8;
                let sext = ((v as i32) << (32 - bits)) >> (32 - bits);
                self.pay(Term::MovReg);
                self.cpu.set_reg(*dst, sext as u32);
            }
            Op::Lea { dst, mem } => {
                let a = self.ea(mem);
                self.pay(Term::MovReg);
                self.cpu.set_reg(*dst, a as u32);
            }
            // A fused op that does not hit is its first instruction: the
            // `lea`, the `push`. Spelled out here rather than as a guarded
            // arm falling through to that instruction's arm, which costs
            // the hot dispatch a second match.
            Op::SvmXlate(x) => {
                let a = self.ea(&x.mem) as u32;
                if self.svm_xlate_hit(x, a, budget) {
                    return Ok(Flow::Skip(TEMPLATE_LEN));
                }
                self.pay(Term::MovReg);
                self.cpu.set_reg(x.s1, a);
            }
            Op::SvmFrame { x, spills, k } => {
                let spills = &spills[..usize::from(*k)];
                if self.svm_frame_hit(x, spills, budget) {
                    return Ok(Flow::Skip(2 * spills.len() + TEMPLATE_LEN));
                }
                let v = self.cpu.reg(spills[0]);
                self.pay(Term::Store);
                self.push(v)?;
            }
            // The quickened ops: each is its generic arm below, with the
            // operand shapes and the width `Long` decided at link time.
            Op::PushReg(r) => {
                let v = self.cpu.reg(*r);
                self.pay(Term::Store);
                self.push(v)?;
            }
            Op::PushMem(mem) => {
                let v = self.load(self.ea(mem), Width::Long, budget)?;
                self.pay(Term::Store);
                self.push(v)?;
            }
            Op::PopReg(r) => {
                self.pay(Term::Load);
                let v = self.pop()?;
                self.cpu.set_reg(*r, v);
            }
            Op::MovRegReg { dst, src } => {
                let v = self.cpu.reg(*src);
                self.pay(Term::MovReg);
                self.cpu.set_reg(*dst, v);
            }
            Op::MovRegMem { dst, src } => {
                let v = self.load(self.ea(src), Width::Long, budget)?;
                self.pay(Term::MovReg);
                self.cpu.set_reg(*dst, v);
            }
            Op::MovMemReg { dst, src } => {
                let v = self.cpu.reg(*src);
                self.pay(Term::MovReg);
                self.store(self.ea(dst), Width::Long, v, budget)?;
            }
            Op::MovMemImm { dst, imm } => {
                self.pay(Term::MovReg);
                self.store(self.ea(dst), Width::Long, *imm, budget)?;
            }
            Op::AluRegImm { op, dst, imm } => {
                let a = self.cpu.reg(*dst);
                let r = alu(&mut self.cpu.flags, *op, a, *imm, Width::Long);
                self.pay(Term::Alu);
                self.cpu.set_reg(*dst, r);
            }
            Op::AluRegReg { op, dst, src } => {
                let b = self.cpu.reg(*src);
                let a = self.cpu.reg(*dst);
                let r = alu(&mut self.cpu.flags, *op, a, b, Width::Long);
                self.pay(Term::Alu);
                self.cpu.set_reg(*dst, r);
            }
            Op::AluRegMem { op, dst, src } => {
                let b = self.load(self.ea(src), Width::Long, budget)?;
                let a = self.cpu.reg(*dst);
                let r = alu(&mut self.cpu.flags, *op, a, b, Width::Long);
                self.pay(Term::Alu);
                self.cpu.set_reg(*dst, r);
            }
            Op::ShiftRegImm { op, dst, amount } => {
                let a = self.cpu.reg(*dst);
                let r = shift(&mut self.cpu.flags, *op, a, *amount);
                self.pay(Term::Alu);
                self.cpu.set_reg(*dst, r);
            }
            Op::CmpRegImm { dst, imm } => {
                let a = self.cpu.reg(*dst);
                alu(&mut self.cpu.flags, AluOp::Sub, a, *imm, Width::Long);
                self.pay(Term::Alu);
            }
            Op::UnReg { op, dst } => {
                let a = self.cpu.reg(*dst);
                let r = unary(&mut self.cpu.flags, *op, a, Width::Long);
                self.pay(Term::Alu);
                self.cpu.set_reg(*dst, r);
            }
            Op::JmpLocal(to) => {
                self.pay(Term::BranchTaken);
                return Ok(Flow::Local(*to as usize));
            }
            Op::JccLocal { cond, target } => {
                if cond_true(&self.cpu.flags, *cond) {
                    self.pay(Term::BranchTaken);
                    return Ok(Flow::Local(*target as usize));
                }
                self.pay(Term::BranchNotTaken);
            }
            Op::CallLocal(to) => {
                self.pay(Term::Call);
                self.push(image.addr(at + 1) as u32)?;
                return Ok(Flow::Local(*to as usize));
            }
            // The generic ops.
            Op::Alu { op, w, dst, src } => {
                let b = self.read(src, *w, budget)?;
                let a = self.read(dst, *w, budget)?;
                let r = alu(&mut self.cpu.flags, *op, a, b, *w);
                self.pay(Term::Alu);
                self.write(dst, *w, r, budget)?;
            }
            Op::Shift { op, dst, amount } => {
                let amt = self.read(amount, Width::Byte, budget)? & 31;
                let a = self.read(dst, Width::Long, budget)?;
                let r = shift(&mut self.cpu.flags, *op, a, amt);
                self.pay(Term::Alu);
                self.write(dst, Width::Long, r, budget)?;
            }
            Op::Cmp { w, src, dst } => {
                let b = self.read(src, *w, budget)?;
                let a = self.read(dst, *w, budget)?;
                alu(&mut self.cpu.flags, AluOp::Sub, a, b, *w);
                self.pay(Term::Alu);
            }
            Op::Test { w, src, dst } => {
                let b = self.read(src, *w, budget)?;
                let a = self.read(dst, *w, budget)?;
                alu(&mut self.cpu.flags, AluOp::And, a, b, *w);
                self.pay(Term::Alu);
            }
            Op::Un { op, w, dst } => {
                let a = self.read(dst, *w, budget)?;
                let r = unary(&mut self.cpu.flags, *op, a, *w);
                self.pay(Term::Alu);
                self.write(dst, *w, r, budget)?;
            }
            Op::Imul { dst, src } => {
                let b = self.read(src, Width::Long, budget)?;
                let r = self.cpu.reg(*dst).wrapping_mul(b);
                set_zs(&mut self.cpu.flags, r, Width::Long);
                self.pay(Term::Mul);
                self.cpu.set_reg(*dst, r);
            }
            Op::Push { src } => {
                let v = self.read(src, Width::Long, budget)?;
                self.pay(Term::Store);
                self.push(v)?;
            }
            Op::Pop { dst } => {
                self.pay(Term::Load);
                let v = self.pop()?;
                self.write(dst, Width::Long, v, budget)?;
            }
            Op::Jmp { target } => {
                let a = self.target(target, budget)?;
                self.pay(Term::BranchTaken);
                return Ok(Flow::Far(a));
            }
            Op::Jcc { cond, target } => {
                if cond_true(&self.cpu.flags, *cond) {
                    let a = self.target(target, budget)?;
                    self.pay(Term::BranchTaken);
                    return Ok(Flow::Far(a));
                }
                self.pay(Term::BranchNotTaken);
            }
            Op::Call { target } => {
                let a = self.target(target, budget)?;
                self.pay(Term::Call);
                self.push(image.addr(at + 1) as u32)?;
                return Ok(Flow::Far(a));
            }
            Op::Ret => {
                self.pay(Term::Ret);
                return Ok(Flow::Far(self.pop()? as u64));
            }
            Op::Str { op, w, rep } => self.string(*op, *w, *rep, budget)?,
            Op::Cli | Op::Sti => {
                self.cpu.if_enabled = matches!(op, Op::Sti);
                self.pay(Term::CliSti);
            }
            Op::Nop => self.pay(Term::Alu),
            Op::Hlt => return Ok(Flow::Halt),
            Op::Int3 => return Err(Fault::Breakpoint),
            Op::Ud2 => return Err(Fault::BadInstruction),
        }
        Ok(Flow::Next)
    }

    /// The stlb entry of address `a` in the table at `table`, if it
    /// answers the template's `cmp` and `xor`: both its words come out of
    /// the translation cache in one probe, and its tag is `a`'s page.
    #[inline]
    fn stlb_hit(&self, a: u32, table: u32) -> Option<StlbHit> {
        let page = a & stlb::PAGE_MASK;
        let entry = stlb::entry_offset(a);
        let addr = table.wrapping_add(entry) as u64;
        let paddr = self
            .m
            .cached_paddr(self.cpu, addr, stlb::ENTRY_SIZE, false)?;
        (self.m.phys.read_u32(paddr) == page).then(|| StlbHit {
            entry,
            page,
            xor: self.m.phys.read_u32(paddr + stlb::XOR_WORD),
            paddr,
        })
    }

    /// What the nine ops of translation `x` of address `a` leave on a hit
    /// — the three registers, the closing `xor`'s flags — and the
    /// payments they make.
    #[inline]
    fn svm_xlate_commit(&mut self, x: &Xlate, a: u32, hit: StlbHit) {
        self.cpu.set_reg(x.s1, hit.entry);
        self.cpu.set_reg(x.s2, hit.page);
        let translated = alu(&mut self.cpu.flags, AluOp::Xor, a, hit.xor, Width::Long);
        self.cpu.set_reg(x.out, translated);
        self.counts[Term::MovReg as usize] += 3;
        self.counts[Term::Alu as usize] += 5;
        self.counts[Term::Load as usize] += 2;
        self.pay(Term::BranchNotTaken);
    }

    /// The whole SVM translation `x` of address `a` (the template at
    /// [`Op::SvmXlate`]) as the instruction being run, if it is a hit:
    /// `budget`, what is left after the `lea`, covers the other eight
    /// instructions and [`Exec::stlb_hit`] answers. Leaves the registers,
    /// the flags and the charges as the nine plain ops would; the caller
    /// moves past them and counts them.
    ///
    /// Anything else returns `false` with nothing changed: the caller
    /// executes the `lea`, and the plain ops after it take the slow path,
    /// walk the page table, fault or run out of budget where they always
    /// did.
    #[inline]
    fn svm_xlate_hit(&mut self, x: &Xlate, a: u32, budget: u64) -> bool {
        if budget < TEMPLATE_LEN as u64 - 1 {
            return false;
        }
        let Some(hit) = self.stlb_hit(a, x.stlb) else {
            return false;
        };
        self.svm_xlate_commit(x, a, hit);
        #[cfg(test)]
        FUSED_HITS.with(|hits| hits.set(hits.get() + 1));
        true
    }

    /// The whole spill frame at [`Op::SvmFrame`] — `push` of each of
    /// `spills`, translation `x`, `pop` of each in reverse — as the
    /// instruction being run, if it is a hit: `budget`, what is left
    /// after the first `push`, covers the other `2k + 8` instructions,
    /// every stack slot the pushes write answers from the translation
    /// cache as writable, [`Exec::stlb_hit`] answers, and no slot shares
    /// a byte of physical memory with the stlb entry (the plain `cmp` and
    /// `xor` would read what the pushes wrote). Writes the slots, leaves
    /// the spilled registers as the pops leave them — as they were — and
    /// the rest as [`Exec::svm_xlate_hit`] does, and charges `k·Store +
    /// k·Load` on top; the caller moves past the last pop.
    ///
    /// Anything else returns `false` with nothing changed: the caller
    /// executes the first `push`.
    #[inline]
    fn svm_frame_hit(&mut self, x: &Xlate, spills: &[Reg], budget: u64) -> bool {
        let k = spills.len();
        if budget < (2 * k + TEMPLATE_LEN - 1) as u64 {
            return false;
        }
        let esp = self.cpu.reg(Reg::Esp);
        let mut slots = [(0u64, 0u32); 3];
        for (i, (slot, r)) in slots.iter_mut().zip(spills).enumerate() {
            let addr = esp.wrapping_sub(4 * (i as u32 + 1)) as u64;
            let Some(paddr) = self.m.cached_paddr(self.cpu, addr, 4, true) else {
                return false;
            };
            *slot = (paddr, self.cpu.reg(*r));
        }
        let slots = &slots[..k];
        // The recogniser keeps `%esp` out of the operand: the pushes
        // before the `lea` do not move its address.
        let a = self.ea(&x.mem) as u32;
        let Some(hit) = self.stlb_hit(a, x.stlb) else {
            return false;
        };
        if slots
            .iter()
            .any(|&(paddr, _)| paddr < hit.paddr + stlb::ENTRY_SIZE && hit.paddr < paddr + 4)
        {
            return false;
        }
        for &(paddr, v) in slots {
            self.m.phys.write_unmarked(paddr, Width::Long, v);
        }
        self.svm_xlate_commit(x, a, hit);
        for (r, &(_, v)) in spills.iter().zip(slots) {
            self.cpu.set_reg(*r, v);
        }
        self.counts[Term::Store as usize] += k as u64;
        self.counts[Term::Load as usize] += k as u64;
        #[cfg(test)]
        FRAME_HITS.with(|hits| hits.set(hits.get() + 1));
        true
    }

    fn string(&mut self, op: StrOp, w: Width, rep: Rep, budget: u64) -> Result<(), Fault> {
        let step = w.bytes() as u32;
        let mut count = match rep {
            Rep::None => 1,
            _ => self.cpu.reg(Reg::Ecx),
        };
        while count > 0 {
            self.pay(Term::StringPerElem);
            let (esi, edi) = (self.cpu.reg(Reg::Esi), self.cpu.reg(Reg::Edi));
            let mut equal = true;
            match op {
                StrOp::Movs => {
                    let v = self.load(esi as u64, w, budget)?;
                    self.store(edi as u64, w, v, budget)?;
                }
                StrOp::Stos => self.store(edi as u64, w, self.cpu.reg(Reg::Eax), budget)?,
                StrOp::Lods => {
                    let v = self.load(esi as u64, w, budget)?;
                    self.cpu.set_reg_w(Reg::Eax, w, v);
                }
                StrOp::Cmps => {
                    let a = self.load(esi as u64, w, budget)?;
                    let b = self.load(edi as u64, w, budget)?;
                    alu(&mut self.cpu.flags, AluOp::Sub, a, b, w);
                    equal = self.cpu.flags.zf;
                }
                StrOp::Scas => {
                    let b = self.load(edi as u64, w, budget)?;
                    let a = self.cpu.reg(Reg::Eax) & w.mask() as u32;
                    alu(&mut self.cpu.flags, AluOp::Sub, a, b, w);
                    equal = self.cpu.flags.zf;
                }
            }
            if op.reads_si() {
                self.cpu.set_reg(Reg::Esi, esi.wrapping_add(step));
            }
            if op.uses_di() {
                self.cpu.set_reg(Reg::Edi, edi.wrapping_add(step));
            }
            count -= 1;
            if !matches!(rep, Rep::None) {
                self.cpu.set_reg(Reg::Ecx, count);
            }
            match rep {
                Rep::Repe if !equal => break,
                Rep::Repne if equal => break,
                _ => {}
            }
        }
        Ok(())
    }
}

/// Runs the interpreter until the code returns to the sentinel, halts,
/// faults, or `max_insns` instructions have executed.
///
/// # Errors
///
/// Returns the [`Fault`] that stopped execution; `cpu.pc` points at the
/// faulting instruction, and the meter holds the charges made before it.
pub fn run(
    m: &mut Machine,
    cpu: &mut Cpu,
    env: &mut dyn Env,
    max_insns: u64,
) -> Result<StopReason, Fault> {
    m.revalidate_tlb(cpu);
    Exec {
        m,
        cpu,
        env,
        flushed_budget: max_insns,
        counts: [0; INSN_ROWS],
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecMode;
    use twin_isa::asm::assemble;

    fn setup(src: &str) -> (Machine, Cpu, u64) {
        let module = assemble("t", src).unwrap();
        let mut m = Machine::new();
        let space = m.new_space();
        m.map_fresh(space, 0x2000_0000, 8).unwrap(); // heap
        m.map_stack(space, 0x3000_0000, 4).unwrap();
        let img = m.load_image(&module, 0x0800_0000, |_| None).unwrap();
        let entry = m.image(img).export("f").expect("function f");
        let mut cpu = Cpu::new(space, ExecMode::Guest);
        cpu.set_stack(0x3000_0000 + 4 * PAGE_SIZE);
        (m, cpu, entry)
    }

    fn call(m: &mut Machine, cpu: &mut Cpu, entry: u64, args: &[u32]) -> StopReason {
        cpu.push_call_frame(m, args).unwrap();
        cpu.pc = entry;
        run(m, cpu, &mut NullEnv, 100_000).unwrap()
    }

    #[test]
    fn arith_and_return() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl 4(%esp), %eax
            movl 8(%esp), %ecx
            addl %ecx, %eax
            ret
        "#,
        );
        let stop = call(&mut m, &mut cpu, f, &[30, 12]);
        assert_eq!(stop, StopReason::Returned);
        assert_eq!(cpu.reg(Reg::Eax), 42);
    }

    #[test]
    fn loops_and_branches() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl 4(%esp), %ecx
            movl $0, %eax
        loop_top:
            cmpl $0, %ecx
            je done
            addl %ecx, %eax
            decl %ecx
            jmp loop_top
        done:
            ret
        "#,
        );
        call(&mut m, &mut cpu, f, &[10]);
        assert_eq!(cpu.reg(Reg::Eax), 55);
    }

    #[test]
    fn memory_load_store() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl 4(%esp), %ebx
            movl $77, (%ebx)
            movl (%ebx), %eax
            addl $1, 4(%ebx)
            movl 4(%ebx), %ecx
            addl %ecx, %eax
            ret
        "#,
        );
        call(&mut m, &mut cpu, f, &[0x2000_0100]);
        assert_eq!(cpu.reg(Reg::Eax), 78);
        assert_eq!(
            m.read_u32(cpu.space, ExecMode::Guest, 0x2000_0100).unwrap(),
            77
        );
    }

    #[test]
    fn sub_word_ops() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl 4(%esp), %ebx
            movl $0x11223344, (%ebx)
            movzbl (%ebx), %eax
            movzwl 2(%ebx), %ecx
            movsbl 3(%ebx), %edx
            ret
        "#,
        );
        call(&mut m, &mut cpu, f, &[0x2000_0200]);
        assert_eq!(cpu.reg(Reg::Eax), 0x44);
        assert_eq!(cpu.reg(Reg::Ecx), 0x1122);
        assert_eq!(cpu.reg(Reg::Edx), 0x11); // positive sign-extend
    }

    #[test]
    fn string_copy_rep_movs() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl $0x20000000, %esi
            movl $0x20000400, %edi
            movl $16, %ecx
            rep movsl
            ret
        "#,
        );
        for i in 0..16u32 {
            m.write_u32(
                cpu.space,
                ExecMode::Guest,
                0x2000_0000 + 4 * i as u64,
                i * 3,
            )
            .unwrap();
        }
        call(&mut m, &mut cpu, f, &[]);
        for i in 0..16u32 {
            assert_eq!(
                m.read_u32(cpu.space, ExecMode::Guest, 0x2000_0400 + 4 * i as u64)
                    .unwrap(),
                i * 3
            );
        }
        assert_eq!(cpu.reg(Reg::Ecx), 0);
    }

    #[test]
    fn indirect_call_through_register_and_memory() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl $target, %eax
            call *%eax
            movl %eax, %ebx
            movl $0x20000000, %ecx
            movl $target, (%ecx)
            call *(%ecx)
            addl %ebx, %eax
            ret
            .globl target
        target:
            movl $21, %eax
            ret
        "#,
        );
        call(&mut m, &mut cpu, f, &[]);
        assert_eq!(cpu.reg(Reg::Eax), 42);
    }

    #[test]
    fn guard_page_faults_on_stack_overflow() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            pushl %eax
            jmp f
        "#,
        );
        cpu.push_call_frame(&mut m, &[]).unwrap();
        cpu.pc = f;
        let e = run(&mut m, &mut cpu, &mut NullEnv, 1_000_000).unwrap_err();
        assert!(matches!(e, Fault::PageFault { write: true, .. }));
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            jmp f
        "#,
        );
        cpu.push_call_frame(&mut m, &[]).unwrap();
        cpu.pc = f;
        let stop = run(&mut m, &mut cpu, &mut NullEnv, 1000).unwrap();
        assert_eq!(stop, StopReason::Budget);
    }

    #[test]
    fn extern_dispatch() {
        struct AddEnv;
        impl Env for AddEnv {
            fn extern_call(
                &mut self,
                id: ExternId,
                m: &mut Machine,
                cpu: &mut Cpu,
            ) -> Result<(), Fault> {
                assert_eq!(m.extern_name(id), Some("add2"));
                let a = cpu.arg(m, 0)?;
                let b = cpu.arg(m, 1)?;
                cpu.set_reg(Reg::Eax, a + b);
                Ok(())
            }
            fn mmio_read(
                &mut self,
                _: &mut Machine,
                _: u32,
                a: u64,
                _: Width,
            ) -> Result<u32, Fault> {
                Err(Fault::MmioAccess { addr: a })
            }
            fn mmio_write(
                &mut self,
                _: &mut Machine,
                _: u32,
                a: u64,
                _: Width,
                _: u32,
            ) -> Result<(), Fault> {
                Err(Fault::MmioAccess { addr: a })
            }
        }
        let module = assemble(
            "t",
            r#"
            .extern add2
            .text
            .globl f
        f:
            pushl $5
            pushl $37
            call add2
            addl $8, %esp
            ret
        "#,
        )
        .unwrap();
        let mut m = Machine::new();
        let space = m.new_space();
        m.map_stack(space, 0x3000_0000, 4).unwrap();
        let img = m.load_image(&module, 0x0800_0000, |_| None).unwrap();
        let entry = m.image(img).export("f").unwrap();
        let mut cpu = Cpu::new(space, ExecMode::Guest);
        cpu.set_stack(0x3000_0000 + 4 * PAGE_SIZE);
        cpu.push_call_frame(&mut m, &[]).unwrap();
        cpu.pc = entry;
        let stop = run(&mut m, &mut cpu, &mut AddEnv, 1000).unwrap();
        assert_eq!(stop, StopReason::Returned);
        assert_eq!(cpu.reg(Reg::Eax), 42);
    }

    #[test]
    fn flags_signed_unsigned() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl $1, %eax
            cmpl $2, %eax      # 1 - 2: below and less
            jb below_ok
            movl $0, %eax
            ret
        below_ok:
            cmpl $-1, %eax     # 1 - (-1) = 2: unsigned 1 < 0xffffffff -> B; signed 1 > -1 -> G
            jb ub_ok
            movl $0, %eax
            ret
        ub_ok:
            cmpl $-1, %eax
            jg done
            movl $0, %eax
            ret
        done:
            movl $1, %eax
            ret
        "#,
        );
        call(&mut m, &mut cpu, f, &[]);
        assert_eq!(cpu.reg(Reg::Eax), 1);
    }

    #[test]
    fn cli_sti_toggle() {
        let (mut m, mut cpu, f) = setup(".text\n.globl f\nf:\n cli\n sti\n cli\n ret\n");
        call(&mut m, &mut cpu, f, &[]);
        assert!(!cpu.if_enabled);
    }

    #[test]
    fn int3_and_ud2_fault() {
        let (mut m, mut cpu, f) = setup(".text\n.globl f\nf:\n int3\n");
        cpu.push_call_frame(&mut m, &[]).unwrap();
        cpu.pc = f;
        assert!(matches!(
            run(&mut m, &mut cpu, &mut NullEnv, 10),
            Err(Fault::Breakpoint)
        ));

        let (mut m, mut cpu, f) = setup(".text\n.globl f\nf:\n ud2\n");
        cpu.push_call_frame(&mut m, &[]).unwrap();
        cpu.pc = f;
        assert!(matches!(
            run(&mut m, &mut cpu, &mut NullEnv, 10),
            Err(Fault::BadInstruction)
        ));
    }

    #[test]
    fn inc_dec_preserve_carry() {
        // x86 semantics: inc/dec update ZF/SF/OF but leave CF alone.
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl $0xffffffff, %eax
            addl $1, %eax          # sets CF
            movl $5, %ecx
            incl %ecx              # must not clear CF
            movl $0, %eax
            jnc done
            movl $1, %eax
        done:
            ret
        "#,
        );
        call(&mut m, &mut cpu, f, &[]);
        assert_eq!(cpu.reg(Reg::Eax), 1, "CF survived inc");
    }

    #[test]
    fn signed_overflow_flag() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl $0x7fffffff, %eax
            addl $1, %eax          # overflow: 0x80000000
            movl $0, %eax
            jl of_set              # SF != OF would be false... use js
            movl $2, %eax
        of_set:
            ret
        "#,
        );
        // After 0x7fffffff + 1: SF=1, OF=1 -> not less (SF == OF).
        call(&mut m, &mut cpu, f, &[]);
        assert_eq!(cpu.reg(Reg::Eax), 2);
    }

    #[test]
    fn movsx_negative_byte() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl 4(%esp), %ebx
            movl $0xfe, (%ebx)
            movsbl (%ebx), %eax
            ret
        "#,
        );
        call(&mut m, &mut cpu, f, &[0x2000_0300]);
        assert_eq!(cpu.reg(Reg::Eax), 0xffff_fffe, "sign-extended -2");
    }

    #[test]
    fn shifts_set_carry_from_last_bit() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl $0x80000001, %eax
            shrl $1, %eax          # CF = old bit 0 = 1
            movl $0, %eax
            jnc done
            movl $1, %eax
        done:
            ret
        "#,
        );
        call(&mut m, &mut cpu, f, &[]);
        assert_eq!(cpu.reg(Reg::Eax), 1);
    }

    #[test]
    fn partial_register_writes_preserve_high_bits() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl $0x11223344, %eax
            movl 4(%esp), %ebx
            movl $0xaa, (%ebx)
            movb (%ebx), %eax      # only the low byte changes
            ret
        "#,
        );
        call(&mut m, &mut cpu, f, &[0x2000_0400]);
        assert_eq!(cpu.reg(Reg::Eax), 0x1122_33aa);
    }

    #[test]
    fn repe_cmps_stops_at_difference() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl $0x20000000, %esi
            movl $0x20000100, %edi
            movl $8, %ecx
            repe cmpsl
            movl %ecx, %eax        # remaining count after mismatch
            ret
        "#,
        );
        for i in 0..8u32 {
            m.write_u32(cpu.space, ExecMode::Guest, 0x2000_0000 + 4 * i as u64, i)
                .unwrap();
            let v = if i == 5 { 99 } else { i };
            m.write_u32(cpu.space, ExecMode::Guest, 0x2000_0100 + 4 * i as u64, v)
                .unwrap();
        }
        call(&mut m, &mut cpu, f, &[]);
        // Mismatch at element 5 (0-based); ecx counted down 6 times.
        assert_eq!(cpu.reg(Reg::Eax), 2);
    }

    #[test]
    fn cycles_are_charged() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl $0, %eax
            movl 4(%esp), %ecx
        top:
            addl $1, %eax
            cmpl %ecx, %eax
            jne top
            ret
        "#,
        );
        m.meter.push_domain(crate::CostDomain::Driver);
        call(&mut m, &mut cpu, f, &[100]);
        m.meter.pop_domain();
        let cycles = m.meter.cycles(crate::CostDomain::Driver);
        assert!(cycles > 300, "loop of 100 iterations charged {cycles}");
        assert!(m.meter.insns() > 300);
    }

    // ---- what batching the meter and lowering the ops must not change ----

    use crate::{CostDomain, CostParams, PageEntry, PhysMem, Term, HYPER_BASE};

    /// An environment whose extern calls run `hook`, and whose one device
    /// reads as 7 and records, at every callback, what the caller could
    /// see of the meter: (clock, instructions, cycles of the current
    /// domain, MMIO read and write payments).
    struct Spy<F> {
        hook: F,
        seen: Vec<(u64, u64, u64, u64)>,
    }

    impl<F: FnMut(&mut Machine, &mut Cpu)> Spy<F> {
        fn new(hook: F) -> Self {
            Spy {
                hook,
                seen: Vec::new(),
            }
        }

        fn look(&mut self, m: &Machine) {
            let events = m.meter.payments(Term::MmioRead) + m.meter.payments(Term::MmioWrite);
            let domain = m.meter.current_domain();
            self.seen.push((
                m.now_cycles(),
                m.meter.insns(),
                m.meter.cycles(domain),
                events,
            ));
        }
    }

    impl<F: FnMut(&mut Machine, &mut Cpu)> Env for Spy<F> {
        fn extern_call(
            &mut self,
            _: ExternId,
            m: &mut Machine,
            cpu: &mut Cpu,
        ) -> Result<(), Fault> {
            self.look(m);
            (self.hook)(m, cpu);
            Ok(())
        }
        fn mmio_read(&mut self, m: &mut Machine, _: u32, _: u64, _: Width) -> Result<u32, Fault> {
            self.look(m);
            Ok(7)
        }
        fn mmio_write(
            &mut self,
            m: &mut Machine,
            _: u32,
            _: u64,
            _: Width,
            _: u32,
        ) -> Result<(), Fault> {
            self.look(m);
            Ok(())
        }
    }

    const DATA: u64 = 0x2000_0000;
    const STACK: u64 = 0x3000_0000;
    const DEVICE: u64 = 0x2100_0000;

    fn start(m: &mut Machine, cpu: &mut Cpu, entry: u64, args: &[u32]) {
        cpu.set_stack(STACK + 4 * PAGE_SIZE);
        cpu.push_call_frame(m, args).unwrap();
        cpu.pc = entry;
    }

    #[test]
    fn a_faulting_store_keeps_the_charges_made_before_it() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl 4(%esp), %ebx
            addl %eax, (%ebx)
            ret
        "#,
        );
        let pfn = m.phys.alloc_frame().unwrap();
        m.space_mut(cpu.space)
            .map(DEVICE, PageEntry::ram(pfn, false));
        m.meter.push_domain(CostDomain::Driver);
        start(&mut m, &mut cpu, f, &[DEVICE as u32]);
        let fault = run(&mut m, &mut cpu, &mut NullEnv, 100).unwrap_err();
        assert_eq!(fault, Fault::ProtFault { addr: DEVICE });
        assert_eq!(cpu.pc, f + twin_isa::INSN_SIZE, "pc stays on the addl");
        // movl: load 4 + mov 1; addl: load 4 + alu 1, the store never
        // charged.
        assert_eq!(m.meter.cycles(CostDomain::Driver), 10);
        assert_eq!(m.now_cycles(), 10);
        assert_eq!(m.meter.insns(), 2);
    }

    #[test]
    fn a_push_onto_the_guard_page_has_already_moved_esp() {
        let (mut m, mut cpu, f) = setup(".text\n.globl f\nf:\n pushl %eax\n ret\n");
        cpu.set_stack(STACK);
        cpu.pc = f;
        let fault = run(&mut m, &mut cpu, &mut NullEnv, 100).unwrap_err();
        assert_eq!(
            fault,
            Fault::PageFault {
                addr: STACK - 4,
                write: true
            }
        );
        assert_eq!(cpu.reg(Reg::Esp) as u64, STACK - 4);
        assert_eq!(cpu.pc, f);
        assert_eq!((m.meter.total_cycles(), m.meter.insns()), (4, 1));
    }

    #[test]
    fn callbacks_see_the_meter_as_if_every_instruction_had_charged_it() {
        let module = assemble(
            "t",
            r#"
            .extern probe
            .text
            .globl f
        f:
            movl $5, %eax
            pushl %eax
            call probe
            addl $4, %esp
            movl 4(%esp), %ebx
            movl (%ebx), %edx
            movl %edx, 4(%ebx)
            ret
        "#,
        )
        .unwrap();
        let mut m = Machine::new();
        let space = m.new_space();
        m.map_stack(space, STACK, 4).unwrap();
        m.space_mut(space).map(DEVICE, PageEntry::mmio(0, 0));
        let img = m.load_image(&module, 0x0800_0000, |_| None).unwrap();
        let f = m.image(img).export("f").unwrap();
        let mut cpu = Cpu::new(space, ExecMode::Guest);
        start(&mut m, &mut cpu, f, &[DEVICE as u32]);

        // The extern pays 100 cycles to another domain: what ran
        // before it must already be on the driver's account. Its
        // payment is an MMIO write's, so the count includes it.
        let mut spy = Spy::new(|m: &mut Machine, _: &mut Cpu| {
            m.meter.push_domain(CostDomain::Xen);
            m.pay(Term::MmioWrite);
            m.meter.pop_domain();
        });
        m.meter.push_domain(CostDomain::Driver);
        assert_eq!(
            run(&mut m, &mut cpu, &mut spy, 100),
            Ok(StopReason::Returned)
        );
        let c = CostParams::default();
        let at_extern = c[Term::MovReg] + c[Term::Store] + c[Term::Call];
        let at_read =
            at_extern + c[Term::Alu] + (c[Term::Load] + c[Term::MovReg]) + c[Term::MmioRead];
        let at_write = at_read + c[Term::MovReg] + c[Term::MovReg] + c[Term::MmioWrite];
        assert_eq!((at_extern, at_read, at_write), (9, 265, 367));
        assert_eq!(
            spy.seen,
            vec![
                (at_extern, 3, at_extern, 0),
                (at_read + 100, 6, at_read, 2),
                (at_write + 100, 7, at_write, 3),
            ]
        );
        assert_eq!(m.meter.cycles(CostDomain::Driver), at_write + c[Term::Ret]);
        assert_eq!(m.meter.cycles(CostDomain::Xen), 100);
        assert_eq!(m.now_cycles(), at_write + c[Term::Ret] + 100);
        assert_eq!(m.meter.insns(), 8);
        assert_eq!(cpu.reg(Reg::Edx), 7);
    }

    #[test]
    fn only_a_run_that_charges_marks_its_domain() {
        // Entered at a trampoline: the extern runs, nothing is charged.
        let (mut m, mut cpu, _) = setup(".text\n.globl f\nf:\n ret\n");
        let tramp = m.register_extern("noop");
        m.meter.push_domain(CostDomain::Driver);
        start(&mut m, &mut cpu, tramp, &[]);
        let mut spy = Spy::new(|_: &mut Machine, _: &mut Cpu| {});
        assert_eq!(
            run(&mut m, &mut cpu, &mut spy, 100),
            Ok(StopReason::Returned)
        );
        assert_eq!(spy.seen.len(), 1);
        assert_eq!(m.meter.total_cycles(), 0);
        assert_eq!(m.meter.insns(), 0);

        // Instructions that execute and charge nothing.
        for (src, stop) in [
            ("hlt", Ok(StopReason::Halted)),
            ("int3", Err(Fault::Breakpoint)),
            ("ud2", Err(Fault::BadInstruction)),
        ] {
            let (mut m, mut cpu, f) = setup(&format!(".text\n.globl f\nf:\n {src}\n"));
            m.meter.push_domain(CostDomain::Driver);
            start(&mut m, &mut cpu, f, &[]);
            assert_eq!(run(&mut m, &mut cpu, &mut NullEnv, 100), stop);
            assert_eq!(m.meter.total_cycles(), 0, "{src}");
            assert_eq!(m.meter.insns(), 1, "{src}");
        }

        // One that charges lands on the domain on top of the stack alone.
        let (mut m, mut cpu, f) = setup(".text\n.globl f\nf:\n nop\n hlt\n");
        m.meter.push_domain(CostDomain::Driver);
        start(&mut m, &mut cpu, f, &[]);
        run(&mut m, &mut cpu, &mut NullEnv, 100).unwrap();
        let alu = m.cost[Term::Alu];
        assert_eq!(m.meter.cycles(CostDomain::Driver), alu);
        assert_eq!(m.meter.total_cycles(), alu);
    }

    #[test]
    fn an_exhausted_budget_is_reported_before_a_bad_fetch() {
        let (mut m, mut cpu, f) = setup(".text\n.globl f\nf:\n jmp *%eax\n");
        let wild = 0x1234_5678;
        cpu.pc = wild;
        assert_eq!(
            run(&mut m, &mut cpu, &mut NullEnv, 0),
            Ok(StopReason::Budget)
        );
        assert_eq!(
            run(&mut m, &mut cpu, &mut NullEnv, 1),
            Err(Fault::BadFetch { pc: wild })
        );
        // The same when the run itself jumps out of every image, and for
        // an address inside an image but between two instructions.
        for target in [wild, f + 1] {
            for (budget, stop) in [
                (1, Ok(StopReason::Budget)),
                (2, Err(Fault::BadFetch { pc: target })),
            ] {
                cpu.set_reg(Reg::Eax, target as u32);
                cpu.pc = f;
                assert_eq!(run(&mut m, &mut cpu, &mut NullEnv, budget), stop);
                assert_eq!(cpu.pc, target);
            }
        }
    }

    #[test]
    fn costs_are_read_when_the_code_runs() {
        let (mut m, mut cpu, f) = setup(".text\n.globl f\nf:\n nop\n ret\n");
        start(&mut m, &mut cpu, f, &[]);
        run(&mut m, &mut cpu, &mut NullEnv, 100).unwrap();
        assert_eq!(m.meter.total_cycles(), 1 + 4);
        m.cost.set(Term::Alu, 7);
        start(&mut m, &mut cpu, f, &[]);
        run(&mut m, &mut cpu, &mut NullEnv, 100).unwrap();
        assert_eq!(m.meter.total_cycles(), (1 + 4) + (7 + 4));
    }

    // ---- the translation cache against changes of the translation ----

    /// Warms the cache on the page at the first argument (a load and a
    /// store), applies `change`, then loads `(%ebx)` into `%eax` and
    /// stores it to `4(%ebx)`. The change happens inside an extern call
    /// between the two (`mid_run`), or between two runs. Returns how the
    /// accesses after the change ended.
    fn touch_change_touch(
        m: &mut Machine,
        cpu: &mut Cpu,
        page: u64,
        mid_run: bool,
        mut change: impl FnMut(&mut Machine, &mut Cpu),
    ) -> Result<StopReason, Fault> {
        let module = assemble(
            "t",
            r#"
            .extern change
            .text
            .globl warm
        warm:
            movl 4(%esp), %ebx
            movl (%ebx), %eax
            movl %eax, (%ebx)
            call change
            .globl touch
        touch:
            movl 4(%esp), %ebx
            movl (%ebx), %eax
            movl %eax, 4(%ebx)
            ret
        "#,
        )
        .unwrap();
        let img = m.load_image(&module, 0x0800_0000, |_| None).unwrap();
        let (warm, touch) = (
            m.image(img).export("warm").unwrap(),
            m.image(img).export("touch").unwrap(),
        );
        start(m, cpu, warm, &[page as u32]);
        if mid_run {
            return run(m, cpu, &mut Spy::new(change), 100);
        }
        let mut idle = Spy::new(|_: &mut Machine, _: &mut Cpu| {});
        assert_eq!(run(m, cpu, &mut idle, 100), Ok(StopReason::Returned));
        change(m, cpu);
        start(m, cpu, touch, &[page as u32]);
        run(m, cpu, &mut idle, 100)
    }

    /// A machine with a stack, a data page holding `0x1111_1111` and a
    /// spare frame holding `0x2222_2222`; returns the spare's number.
    fn cache_world() -> (Machine, Cpu, u64) {
        let mut m = Machine::new();
        let space = m.new_space();
        m.map_stack(space, STACK, 4).unwrap();
        m.map_fresh(space, DATA, 1).unwrap();
        m.write_u32(space, ExecMode::Guest, DATA, 0x1111_1111)
            .unwrap();
        let spare = m.phys.alloc_frame().unwrap();
        m.phys.write_u32(spare * PAGE_SIZE, 0x2222_2222);
        (m, Cpu::new(space, ExecMode::Guest), spare)
    }

    /// A store the translation cache answers marks nothing in memory:
    /// the frame was marked as it entered the cache, and a clone's cache
    /// starts empty. So a fork of a template — the template's memory as
    /// an image restored under a clone of the rest — that stores into a
    /// page it first reached by a load, through a cache the template
    /// had warmed on that page, and is dropped hands its memory to the
    /// next fork, which rewrites that page and reads as the template.
    #[test]
    fn a_cached_store_is_undone_by_the_next_restore_of_the_image() {
        let mut template = Machine::new();
        template.phys = PhysMem::new(47);
        let space = template.new_space();
        template.map_stack(space, STACK, 4).unwrap();
        template.map_fresh(space, DATA, 1).unwrap();
        template
            .write_u32(space, ExecMode::Guest, DATA, 0x1111_1111)
            .unwrap();
        let module = assemble(
            "t",
            r#"
            .text
            .globl bump
        bump:
            movl 4(%esp), %ebx
            movl (%ebx), %eax
            addl $1, %eax
            movl %eax, (%ebx)
            ret
        "#,
        )
        .unwrap();
        let img = template.load_image(&module, 0x0800_0000, |_| None).unwrap();
        let bump = template.image(img).export("bump").unwrap();
        let mut cpu = Cpu::new(space, ExecMode::Guest);
        let mut bump_on = |m: &mut Machine| {
            start(m, &mut cpu, bump, &[DATA as u32]);
            assert_eq!(
                run(m, &mut cpu, &mut NullEnv, 100),
                Ok(StopReason::Returned)
            );
            m.read_u32(space, ExecMode::Guest, DATA).unwrap()
        };
        assert_eq!(bump_on(&mut template), 0x1111_1112);
        let image = template.phys.image();
        let phys = std::mem::replace(&mut template.phys, PhysMem::new(0));
        let shell = template.clone();
        template.phys = phys;
        let fork = || {
            let mut m = shell.clone();
            m.phys = image.restore();
            m
        };
        let mut first = fork();
        let buffer = first.phys.read_bytes(0, 0).as_ptr();
        assert_eq!(bump_on(&mut first), 0x1111_1113);
        drop(first);
        let second = fork();
        assert_eq!(
            second.phys.read_bytes(0, 0).as_ptr(),
            buffer,
            "not resynced"
        );
        let all = 47 * PAGE_SIZE as usize;
        assert!(
            second.phys.read_bytes(0, all) == template.phys.read_bytes(0, all),
            "the fork's cached store outlived it"
        );
    }

    #[test]
    fn an_unmapped_page_faults_on_its_next_access() {
        for mid_run in [true, false] {
            let (mut m, mut cpu, _) = cache_world();
            let stop = touch_change_touch(&mut m, &mut cpu, DATA, mid_run, |m, cpu| {
                m.space_mut(cpu.space).unmap(DATA);
            });
            let fault = Fault::PageFault {
                addr: DATA,
                write: false,
            };
            assert_eq!(stop, Err(fault), "mid_run {mid_run}");
        }
    }

    #[test]
    fn a_remapped_page_is_read_and_written_in_its_new_frame() {
        for mid_run in [true, false] {
            let (mut m, mut cpu, spare) = cache_world();
            let old = m.space(cpu.space).lookup(DATA).unwrap().pfn;
            let mut old_word = 0;
            let stop = touch_change_touch(&mut m, &mut cpu, DATA, mid_run, |m, cpu| {
                old_word = m.phys.read_u32(old * PAGE_SIZE + 4);
                m.space_mut(cpu.space)
                    .map(DATA, PageEntry::ram(spare, true));
            });
            assert_eq!(stop, Ok(StopReason::Returned), "mid_run {mid_run}");
            assert_eq!(cpu.reg(Reg::Eax), 0x2222_2222);
            assert_eq!(m.phys.read_u32(spare * PAGE_SIZE + 4), 0x2222_2222);
            assert_eq!(m.phys.read_u32(old * PAGE_SIZE + 4), old_word);
        }
    }

    #[test]
    fn a_page_made_read_only_still_loads_and_refuses_the_store() {
        for mid_run in [true, false] {
            let (mut m, mut cpu, _) = cache_world();
            let stop = touch_change_touch(&mut m, &mut cpu, DATA, mid_run, |m, cpu| {
                let pfn = m.space(cpu.space).lookup(DATA).unwrap().pfn;
                m.space_mut(cpu.space).map(DATA, PageEntry::ram(pfn, false));
            });
            assert_eq!(
                stop,
                Err(Fault::ProtFault { addr: DATA + 4 }),
                "mid_run {mid_run}"
            );
            assert_eq!(cpu.reg(Reg::Eax), 0x1111_1111, "the load went through");
        }
    }

    #[test]
    fn a_switch_of_space_or_mode_leaves_no_entry_behind() {
        for mid_run in [true, false] {
            // Another space: same stack frames, another frame at DATA.
            let (mut m, mut cpu, spare) = cache_world();
            let other = m.new_space();
            for (base, entry) in m.space(cpu.space).iter().collect::<Vec<_>>() {
                m.space_mut(other).map(base, entry);
            }
            m.space_mut(other).map(DATA, PageEntry::ram(spare, true));
            let stop = touch_change_touch(&mut m, &mut cpu, DATA, mid_run, |_, cpu| {
                cpu.space = other;
            });
            assert_eq!(stop, Ok(StopReason::Returned), "mid_run {mid_run}");
            assert_eq!(cpu.reg(Reg::Eax), 0x2222_2222);

            // Hypervisor mode dropped: the hypervisor page it had cached
            // is out of reach again.
            let (mut m, mut cpu, _) = cache_world();
            m.map_hyper_fresh(HYPER_BASE, 1).unwrap();
            cpu.mode = ExecMode::Hypervisor;
            let stop = touch_change_touch(&mut m, &mut cpu, HYPER_BASE, mid_run, |_, cpu| {
                cpu.mode = ExecMode::Guest;
            });
            assert_eq!(
                stop,
                Err(Fault::ProtFault { addr: HYPER_BASE }),
                "mid_run {mid_run}"
            );
        }
    }

    #[test]
    fn every_access_to_a_device_page_reaches_the_device() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl 4(%esp), %ebx
            movl $3, %ecx
        top:
            movl (%ebx), %eax
            movl %eax, 8(%ebx)
            movl %eax, (%esi)
            decl %ecx
            jne top
            ret
            .globl g
        g:
            pushl %eax
            ret
        "#,
        );
        m.space_mut(cpu.space).map(DEVICE, PageEntry::mmio(0, 0));
        // RAM that shares the device page's cache slot must not make the
        // device page look cached.
        cpu.set_reg(Reg::Esi, DATA as u32);
        start(&mut m, &mut cpu, f, &[DEVICE as u32]);
        let mut spy = Spy::new(|_: &mut Machine, _: &mut Cpu| {});
        assert_eq!(
            run(&mut m, &mut cpu, &mut spy, 100),
            Ok(StopReason::Returned)
        );
        assert_eq!(spy.seen.len(), 6);
        assert_eq!(m.meter.payments(Term::MmioRead), 3);
        assert_eq!(m.meter.payments(Term::MmioWrite), 3);
        assert_eq!(m.read_u32(cpu.space, cpu.mode, DATA).unwrap(), 7);

        // A stack on a device page is a raw access, refused every time.
        let g = m.image(crate::ImageId(0)).export("g").unwrap();
        for _ in 0..2 {
            cpu.set_stack(DEVICE + 8);
            cpu.pc = g;
            assert_eq!(
                run(&mut m, &mut cpu, &mut spy, 100),
                Err(Fault::MmioAccess { addr: DEVICE + 4 })
            );
        }
    }

    #[test]
    fn an_access_across_a_page_end_is_made_a_byte_at_a_time() {
        let (mut m, mut cpu, f) = setup(
            r#"
            .text
            .globl f
        f:
            movl 4(%esp), %ebx
            movl (%ebx), %eax
            movl (%ebx), %eax
            movl $0xaabbccdd, (%ebx)
            ret
        "#,
        );
        // Heap pages 0 and 1, both cached: the straddling load reads
        // both, twice, and the straddling store lands in both.
        let edge = DATA + PAGE_SIZE - 2;
        let space = cpu.space;
        m.write_u32(space, ExecMode::Guest, edge, 0x1234_5678)
            .unwrap();
        start(&mut m, &mut cpu, f, &[edge as u32]);
        assert_eq!(
            run(&mut m, &mut cpu, &mut NullEnv, 100),
            Ok(StopReason::Returned)
        );
        assert_eq!(cpu.reg(Reg::Eax), 0x1234_5678);
        assert_eq!(
            m.read_u32(space, ExecMode::Guest, edge).unwrap(),
            0xaabb_ccdd
        );

        // Second page gone: the load faults at its first byte.
        m.space_mut(space).unmap(DATA + PAGE_SIZE);
        start(&mut m, &mut cpu, f, &[edge as u32]);
        assert_eq!(
            run(&mut m, &mut cpu, &mut NullEnv, 100),
            Err(Fault::PageFault {
                addr: DATA + PAGE_SIZE,
                write: false
            })
        );

        // Second page read-only: loads pass, the store writes the two
        // bytes of the first page and faults at the first of the second.
        let pfn = m.phys.alloc_frame().unwrap();
        m.space_mut(space)
            .map(DATA + PAGE_SIZE, PageEntry::ram(pfn, false));
        m.write_u32(space, ExecMode::Guest, edge - 2, 0).unwrap();
        start(&mut m, &mut cpu, f, &[edge as u32]);
        assert_eq!(
            run(&mut m, &mut cpu, &mut NullEnv, 100),
            Err(Fault::ProtFault {
                addr: DATA + PAGE_SIZE
            })
        );
        assert_eq!(
            m.read_u32(space, ExecMode::Guest, edge - 2).unwrap(),
            0xccdd_0000
        );
    }
}
