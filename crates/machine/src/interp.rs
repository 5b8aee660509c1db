//! The instruction interpreter: CPU state, faults, environment hooks and
//! the `run` loop.
//!
//! Control transfers out of ISA code happen two ways:
//!
//! * returning to [`crate::RETURN_SENTINEL`] stops the run loop with
//!   [`StopReason::Returned`] — native code (kernel model, hypervisor)
//!   calls ISA functions by pushing a frame and running to that sentinel;
//! * calling an *extern trampoline* address dispatches to
//!   [`Env::extern_call`] — this is how driver code calls support routines
//!   (`netdev_alloc_skb`, …), which the environment may implement natively
//!   in dom0, natively in the hypervisor (paper §4.3), or as an upcall
//!   stub (paper §4.2).

use crate::space::{PageKind, SpaceId};
use crate::{CodeImage, Machine, EXTERN_BASE, PAGE_SIZE, RETURN_SENTINEL};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use twin_isa::{AluOp, Cond, Insn, MemRef, Operand, Reg, Rep, ShiftOp, StrOp, Target, UnOp, Width};

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
    ///
    /// # Errors
    ///
    /// Faults if the stack read fails.
    pub fn arg(&self, m: &Machine, i: u32) -> Result<u32, Fault> {
        let esp = self.reg(Reg::Esp) as u64;
        m.read_u32(self.space, self.mode, esp + 4 + 4 * i as u64)
    }
}

/// The execution environment: extern dispatch and MMIO routing.
///
/// Implemented by the kernel model (dom0 support routines), the hypervisor
/// (support routines, upcall stubs, SVM slow path) and by tests.
pub trait Env {
    /// Called when ISA code calls an extern trampoline. The callee's
    /// return value goes in `%eax`; the run loop performs the `ret`.
    ///
    /// # Errors
    ///
    /// May fault (e.g. unknown extern, or a support routine detecting an
    /// invalid argument).
    fn extern_call(&mut self, name: &str, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault>;

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
    fn extern_call(&mut self, name: &str, _m: &mut Machine, _cpu: &mut Cpu) -> Result<(), Fault> {
        Err(Fault::UnknownExtern(name.to_string()))
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

fn ea(cpu: &Cpu, mem: &MemRef) -> u64 {
    debug_assert!(mem.sym.is_none(), "unlinked memory reference executed");
    let mut a = mem.disp as u32;
    if let Some(b) = mem.base {
        a = a.wrapping_add(cpu.reg(b));
    }
    if let Some((i, s)) = mem.index {
        a = a.wrapping_add(cpu.reg(i).wrapping_mul(s as u32));
    }
    a as u64
}

fn read_mem(
    m: &mut Machine,
    cpu: &mut Cpu,
    env: &mut dyn Env,
    addr: u64,
    w: Width,
) -> Result<u32, Fault> {
    let t = m.translate(cpu.space, cpu.mode, addr, false)?;
    match t.entry.kind {
        PageKind::Ram => {
            let cost = m.cost.load;
            m.meter.charge(cost);
            m.read_translated(cpu.space, cpu.mode, addr, w, &t)
        }
        PageKind::Mmio(dev) => {
            let cost = m.cost.mmio_read;
            m.meter.charge(cost);
            m.meter.count_event("mmio_read");
            env.mmio_read(m, dev, t.entry.pfn * PAGE_SIZE + t.offset, w)
        }
    }
}

fn write_mem(
    m: &mut Machine,
    cpu: &mut Cpu,
    env: &mut dyn Env,
    addr: u64,
    w: Width,
    val: u32,
) -> Result<(), Fault> {
    let t = m.translate(cpu.space, cpu.mode, addr, true)?;
    match t.entry.kind {
        PageKind::Ram => {
            let cost = m.cost.store;
            m.meter.charge(cost);
            m.write_translated(cpu.space, cpu.mode, addr, w, val, &t)
        }
        PageKind::Mmio(dev) => {
            let cost = m.cost.mmio_write;
            m.meter.charge(cost);
            m.meter.count_event("mmio_write");
            env.mmio_write(m, dev, t.entry.pfn * PAGE_SIZE + t.offset, w, val)
        }
    }
}

fn read_operand(
    m: &mut Machine,
    cpu: &mut Cpu,
    env: &mut dyn Env,
    op: &Operand,
    w: Width,
) -> Result<u32, Fault> {
    Ok(match op {
        Operand::Reg(r) => cpu.reg(*r) & w.mask() as u32,
        Operand::Imm(v) => (*v as u32) & w.mask() as u32,
        Operand::Sym(s, _) => {
            return Err(Fault::EnvFault(format!("unlinked symbol operand `{s}`")))
        }
        Operand::Mem(mem) => read_mem(m, cpu, env, ea(cpu, mem), w)? & w.mask() as u32,
    })
}

fn write_operand(
    m: &mut Machine,
    cpu: &mut Cpu,
    env: &mut dyn Env,
    op: &Operand,
    w: Width,
    val: u32,
) -> Result<(), Fault> {
    match op {
        Operand::Reg(r) => {
            cpu.set_reg_w(*r, w, val);
            Ok(())
        }
        Operand::Mem(mem) => write_mem(m, cpu, env, ea(cpu, mem), w, val),
        other => Err(Fault::EnvFault(format!(
            "write to non-lvalue operand `{other:?}`"
        ))),
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

fn target_addr(
    m: &mut Machine,
    cpu: &mut Cpu,
    env: &mut dyn Env,
    t: &Target,
) -> Result<u64, Fault> {
    Ok(match t {
        Target::Abs(a) => *a,
        Target::Label(l) => return Err(Fault::EnvFault(format!("unlinked label target `{l}`"))),
        Target::Reg(r) => cpu.reg(*r) as u64,
        Target::Mem(mem) => read_mem(m, cpu, env, ea(cpu, mem), Width::Long)? as u64,
    })
}

/// Runs the interpreter until the code returns to the sentinel, halts,
/// faults, or `max_insns` instructions have executed.
///
/// # Errors
///
/// Returns the [`Fault`] that stopped execution; `cpu.pc` points at the
/// faulting instruction.
pub fn run(
    m: &mut Machine,
    cpu: &mut Cpu,
    env: &mut dyn Env,
    max_insns: u64,
) -> Result<StopReason, Fault> {
    let mut budget = max_insns;
    // The image being executed, held across iterations: straight-line code
    // and local branches fetch without searching the machine's image list.
    let mut image: Option<Arc<CodeImage>> = None;
    loop {
        if cpu.pc == RETURN_SENTINEL {
            return Ok(StopReason::Returned);
        }
        if cpu.pc >= EXTERN_BASE && cpu.pc < RETURN_SENTINEL {
            // Extern trampoline: dispatch to the environment, then return.
            let name = Arc::clone(
                m.extern_handle(cpu.pc)
                    .ok_or(Fault::BadFetch { pc: cpu.pc })?,
            );
            env.extern_call(&name, m, cpu)?;
            let ret = cpu.pop(m)?;
            cpu.pc = ret as u64;
            continue;
        }
        if budget == 0 {
            return Ok(StopReason::Budget);
        }
        budget -= 1;

        let insn = match image.as_ref().and_then(|img| img.fetch(cpu.pc)) {
            Some(insn) => insn,
            None => {
                image = m.image_at(cpu.pc).cloned();
                image
                    .as_ref()
                    .and_then(|img| img.fetch(cpu.pc))
                    .ok_or(Fault::BadFetch { pc: cpu.pc })?
            }
        };
        m.meter.count_insn();
        let next_pc = cpu.pc + twin_isa::INSN_SIZE;

        match insn {
            Insn::Mov { w, dst, src } => {
                let v = read_operand(m, cpu, env, src, *w)?;
                let base = m.cost.mov_reg;
                m.meter.charge(base);
                write_operand(m, cpu, env, dst, *w, v)?;
                cpu.pc = next_pc;
            }
            Insn::Movzx { w, dst, src } => {
                let v = read_operand(m, cpu, env, src, *w)?;
                let base = m.cost.mov_reg;
                m.meter.charge(base);
                cpu.set_reg(*dst, v);
                cpu.pc = next_pc;
            }
            Insn::Movsx { w, dst, src } => {
                let v = read_operand(m, cpu, env, src, *w)?;
                let bits = w.bytes() * 8;
                let sext = ((v as i32) << (32 - bits)) >> (32 - bits);
                let base = m.cost.mov_reg;
                m.meter.charge(base);
                cpu.set_reg(*dst, sext as u32);
                cpu.pc = next_pc;
            }
            Insn::Lea { dst, mem } => {
                let a = ea(cpu, mem);
                let base = m.cost.mov_reg;
                m.meter.charge(base);
                cpu.set_reg(*dst, a as u32);
                cpu.pc = next_pc;
            }
            Insn::Alu { op, w, dst, src } => {
                let b = read_operand(m, cpu, env, src, *w)?;
                let a = read_operand(m, cpu, env, dst, *w)?;
                let r = alu(&mut cpu.flags, *op, a, b, *w);
                let base = m.cost.alu;
                m.meter.charge(base);
                write_operand(m, cpu, env, dst, *w, r)?;
                cpu.pc = next_pc;
            }
            Insn::Shift { op, dst, amount } => {
                let amt = read_operand(m, cpu, env, amount, Width::Byte)? & 31;
                let a = read_operand(m, cpu, env, dst, Width::Long)?;
                let r = match op {
                    ShiftOp::Shl => {
                        cpu.flags.cf = amt > 0 && (a >> (32 - amt)) & 1 != 0;
                        a.wrapping_shl(amt)
                    }
                    ShiftOp::Shr => {
                        cpu.flags.cf = amt > 0 && (a >> (amt - 1)) & 1 != 0;
                        a.wrapping_shr(amt)
                    }
                    ShiftOp::Sar => {
                        cpu.flags.cf = amt > 0 && ((a as i32) >> (amt - 1)) & 1 != 0;
                        ((a as i32).wrapping_shr(amt)) as u32
                    }
                };
                cpu.flags.of = false;
                set_zs(&mut cpu.flags, r, Width::Long);
                let base = m.cost.alu;
                m.meter.charge(base);
                write_operand(m, cpu, env, dst, Width::Long, r)?;
                cpu.pc = next_pc;
            }
            Insn::Cmp { w, src, dst } => {
                let b = read_operand(m, cpu, env, src, *w)?;
                let a = read_operand(m, cpu, env, dst, *w)?;
                alu(&mut cpu.flags, AluOp::Sub, a, b, *w);
                let base = m.cost.alu;
                m.meter.charge(base);
                cpu.pc = next_pc;
            }
            Insn::Test { w, src, dst } => {
                let b = read_operand(m, cpu, env, src, *w)?;
                let a = read_operand(m, cpu, env, dst, *w)?;
                alu(&mut cpu.flags, AluOp::And, a, b, *w);
                let base = m.cost.alu;
                m.meter.charge(base);
                cpu.pc = next_pc;
            }
            Insn::Un { op, w, dst } => {
                let a = read_operand(m, cpu, env, dst, *w)?;
                let mask = w.mask() as u32;
                let r = match op {
                    UnOp::Neg => {
                        cpu.flags.cf = a != 0;
                        (a.wrapping_neg()) & mask
                    }
                    UnOp::Not => !a & mask,
                    UnOp::Inc => {
                        let cf = cpu.flags.cf;
                        let r = alu(&mut cpu.flags, AluOp::Add, a, 1, *w);
                        cpu.flags.cf = cf; // inc preserves CF like x86
                        r
                    }
                    UnOp::Dec => {
                        let cf = cpu.flags.cf;
                        let r = alu(&mut cpu.flags, AluOp::Sub, a, 1, *w);
                        cpu.flags.cf = cf;
                        r
                    }
                };
                if matches!(op, UnOp::Neg | UnOp::Not) {
                    set_zs(&mut cpu.flags, r, *w);
                }
                let base = m.cost.alu;
                m.meter.charge(base);
                write_operand(m, cpu, env, dst, *w, r)?;
                cpu.pc = next_pc;
            }
            Insn::Imul { dst, src } => {
                let b = read_operand(m, cpu, env, src, Width::Long)?;
                let a = cpu.reg(*dst);
                let r = a.wrapping_mul(b);
                set_zs(&mut cpu.flags, r, Width::Long);
                let base = m.cost.mul;
                m.meter.charge(base);
                cpu.set_reg(*dst, r);
                cpu.pc = next_pc;
            }
            Insn::Push { src } => {
                let v = read_operand(m, cpu, env, src, Width::Long)?;
                let base = m.cost.store;
                m.meter.charge(base);
                cpu.push(m, v)?;
                cpu.pc = next_pc;
            }
            Insn::Pop { dst } => {
                let base = m.cost.load;
                m.meter.charge(base);
                let v = cpu.pop(m)?;
                write_operand(m, cpu, env, dst, Width::Long, v)?;
                cpu.pc = next_pc;
            }
            Insn::Jmp { target } => {
                let a = target_addr(m, cpu, env, target)?;
                let base = m.cost.branch_taken;
                m.meter.charge(base);
                cpu.pc = a;
            }
            Insn::Jcc { cond, target } => {
                if cond_true(&cpu.flags, *cond) {
                    let a = target_addr(m, cpu, env, target)?;
                    let base = m.cost.branch_taken;
                    m.meter.charge(base);
                    cpu.pc = a;
                } else {
                    let base = m.cost.branch_not_taken;
                    m.meter.charge(base);
                    cpu.pc = next_pc;
                }
            }
            Insn::Call { target } => {
                let a = target_addr(m, cpu, env, target)?;
                let base = m.cost.call;
                m.meter.charge(base);
                cpu.push(m, next_pc as u32)?;
                cpu.pc = a;
            }
            Insn::Ret => {
                let base = m.cost.ret;
                m.meter.charge(base);
                let a = cpu.pop(m)?;
                cpu.pc = a as u64;
            }
            Insn::Str { op, w, rep } => {
                exec_string(m, cpu, env, *op, *w, *rep)?;
                cpu.pc = next_pc;
            }
            Insn::Cli => {
                cpu.if_enabled = false;
                let base = m.cost.cli_sti;
                m.meter.charge(base);
                cpu.pc = next_pc;
            }
            Insn::Sti => {
                cpu.if_enabled = true;
                let base = m.cost.cli_sti;
                m.meter.charge(base);
                cpu.pc = next_pc;
            }
            Insn::Nop => {
                let base = m.cost.alu;
                m.meter.charge(base);
                cpu.pc = next_pc;
            }
            Insn::Hlt => {
                cpu.pc = next_pc;
                return Ok(StopReason::Halted);
            }
            Insn::Int3 => return Err(Fault::Breakpoint),
            Insn::Ud2 => return Err(Fault::BadInstruction),
        }
    }
}

fn exec_string(
    m: &mut Machine,
    cpu: &mut Cpu,
    env: &mut dyn Env,
    op: StrOp,
    w: Width,
    rep: Rep,
) -> Result<(), Fault> {
    let step = w.bytes() as u32;
    let mut count = match rep {
        Rep::None => 1,
        _ => cpu.reg(Reg::Ecx),
    };
    while count > 0 {
        let per = m.cost.string_per_elem;
        m.meter.charge(per);
        let mut equal = true;
        match op {
            StrOp::Movs => {
                let v = read_mem(m, cpu, env, cpu.reg(Reg::Esi) as u64, w)?;
                write_mem(m, cpu, env, cpu.reg(Reg::Edi) as u64, w, v)?;
                cpu.set_reg(Reg::Esi, cpu.reg(Reg::Esi).wrapping_add(step));
                cpu.set_reg(Reg::Edi, cpu.reg(Reg::Edi).wrapping_add(step));
            }
            StrOp::Stos => {
                write_mem(m, cpu, env, cpu.reg(Reg::Edi) as u64, w, cpu.reg(Reg::Eax))?;
                cpu.set_reg(Reg::Edi, cpu.reg(Reg::Edi).wrapping_add(step));
            }
            StrOp::Lods => {
                let v = read_mem(m, cpu, env, cpu.reg(Reg::Esi) as u64, w)?;
                cpu.set_reg_w(Reg::Eax, w, v);
                cpu.set_reg(Reg::Esi, cpu.reg(Reg::Esi).wrapping_add(step));
            }
            StrOp::Cmps => {
                let a = read_mem(m, cpu, env, cpu.reg(Reg::Esi) as u64, w)?;
                let b = read_mem(m, cpu, env, cpu.reg(Reg::Edi) as u64, w)?;
                alu(&mut cpu.flags, AluOp::Sub, a, b, w);
                equal = cpu.flags.zf;
                cpu.set_reg(Reg::Esi, cpu.reg(Reg::Esi).wrapping_add(step));
                cpu.set_reg(Reg::Edi, cpu.reg(Reg::Edi).wrapping_add(step));
            }
            StrOp::Scas => {
                let b = read_mem(m, cpu, env, cpu.reg(Reg::Edi) as u64, w)?;
                let a = cpu.reg(Reg::Eax) & w.mask() as u32;
                alu(&mut cpu.flags, AluOp::Sub, a, b, w);
                equal = cpu.flags.zf;
                cpu.set_reg(Reg::Edi, cpu.reg(Reg::Edi).wrapping_add(step));
            }
        }
        count -= 1;
        if !matches!(rep, Rep::None) {
            cpu.set_reg(Reg::Ecx, count);
        }
        match rep {
            Rep::Repe if !equal => break,
            Rep::Repne if equal => break,
            _ => {}
        }
    }
    Ok(())
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
                name: &str,
                m: &mut Machine,
                cpu: &mut Cpu,
            ) -> Result<(), Fault> {
                assert_eq!(name, "add2");
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
}
