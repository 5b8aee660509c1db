//! The instruction model: operands, addressing modes and instructions.

use crate::reg::{Reg, RegSet};
use std::fmt;

/// Operand width. The interpreter zero-extends sub-word loads unless a
/// sign-extending instruction ([`Insn::Movsx`]) is used.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Width {
    /// 8 bits (`b` suffix).
    Byte,
    /// 16 bits (`w` suffix).
    Word,
    /// 32 bits (`l` suffix) — the native width.
    Long,
}

impl Width {
    /// Width in bytes (1, 2 or 4).
    pub fn bytes(self) -> u64 {
        match self {
            Width::Byte => 1,
            Width::Word => 2,
            Width::Long => 4,
        }
    }

    /// AT&T mnemonic suffix character.
    pub fn suffix(self) -> char {
        match self {
            Width::Byte => 'b',
            Width::Word => 'w',
            Width::Long => 'l',
        }
    }

    /// Mask selecting the low `bytes()` bytes of a value.
    pub fn mask(self) -> u64 {
        match self {
            Width::Byte => 0xff,
            Width::Word => 0xffff,
            Width::Long => 0xffff_ffff,
        }
    }
}

/// An x86-style memory reference: `disp(base, index, scale)` with an
/// optional symbolic displacement resolved at load time.
///
/// `sym` carries an unresolved symbol name; the loader adds the symbol's
/// address to `disp` and clears `sym`. The SVM rewriter treats any
/// reference whose base register is not `esp`/`ebp` (and absolute/symbolic
/// references) as a heap access to be translated (paper §4.1).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct MemRef {
    /// Base register.
    pub base: Option<Reg>,
    /// Index register and scale (1, 2, 4 or 8).
    pub index: Option<(Reg, u8)>,
    /// Constant displacement (wrapping 32-bit arithmetic at runtime).
    pub disp: i64,
    /// Unresolved symbolic displacement, if any.
    pub sym: Option<String>,
}

impl MemRef {
    /// Absolute reference to a resolved address.
    pub fn abs(addr: u64) -> MemRef {
        MemRef {
            disp: addr as i64,
            ..MemRef::default()
        }
    }

    /// `disp(base)` reference.
    pub fn base_disp(base: Reg, disp: i64) -> MemRef {
        MemRef {
            base: Some(base),
            disp,
            ..MemRef::default()
        }
    }

    /// Symbolic reference `sym+disp`, optionally indexed.
    pub fn sym(sym: impl Into<String>, disp: i64) -> MemRef {
        MemRef {
            sym: Some(sym.into()),
            disp,
            ..MemRef::default()
        }
    }

    /// Registers read when computing the effective address.
    pub fn regs(&self) -> RegSet {
        let mut s = RegSet::new();
        if let Some(b) = self.base {
            s.insert(b);
        }
        if let Some((i, _)) = self.index {
            s.insert(i);
        }
        s
    }

    /// True when this reference is relative to the stack or frame pointer,
    /// which the rewriter leaves untranslated (paper §4.1).
    pub fn is_stack_relative(&self) -> bool {
        self.base.map(Reg::is_stack_reg).unwrap_or(false)
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.sym, self.disp) {
            (Some(s), 0) => write!(f, "{s}")?,
            (Some(s), d) if d > 0 => write!(f, "{s}+{d}")?,
            (Some(s), d) => write!(f, "{s}{d}")?,
            (None, d) => {
                if d != 0 || (self.base.is_none() && self.index.is_none()) {
                    write!(f, "{d}")?;
                }
            }
        }
        if self.base.is_some() || self.index.is_some() {
            write!(f, "(")?;
            if let Some(b) = self.base {
                write!(f, "{b}")?;
            }
            if let Some((i, s)) = self.index {
                write!(f, ",{i},{s}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// An instruction operand.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An immediate constant (`$5`).
    Imm(i64),
    /// An immediate symbol address (`$adapter`), resolved at load time to
    /// the symbol's address plus the offset.
    Sym(String, i64),
    /// A memory reference.
    Mem(MemRef),
}

impl Operand {
    /// Registers read to *evaluate* this operand as a source.
    pub fn uses(&self) -> RegSet {
        match self {
            Operand::Reg(r) => RegSet::of(*r),
            Operand::Imm(_) | Operand::Sym(..) => RegSet::new(),
            Operand::Mem(m) => m.regs(),
        }
    }

    /// Registers read when this operand is a *destination* (address
    /// computation only; a register destination is written, not read).
    pub fn addr_uses(&self) -> RegSet {
        match self {
            Operand::Mem(m) => m.regs(),
            _ => RegSet::new(),
        }
    }

    /// The register written when this operand is a destination.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

impl From<MemRef> for Operand {
    fn from(m: MemRef) -> Operand {
        Operand::Mem(m)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "${v}"),
            Operand::Sym(s, 0) => write!(f, "${s}"),
            Operand::Sym(s, d) if *d > 0 => write!(f, "${s}+{d}"),
            Operand::Sym(s, d) => write!(f, "${s}{d}"),
            Operand::Mem(m) => write!(f, "{m}"),
        }
    }
}

/// Two-operand ALU operations (`op src, dst` computes `dst = dst op src`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Addition; sets CF/OF.
    Add,
    /// Subtraction; sets CF/OF.
    Sub,
    /// Bitwise AND; clears CF/OF.
    And,
    /// Bitwise OR; clears CF/OF.
    Or,
    /// Bitwise XOR; clears CF/OF.
    Xor,
}

impl AluOp {
    /// AT&T mnemonic stem.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
        }
    }
}

/// Shift operations.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ShiftOp {
    /// Logical left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Arithmetic right shift.
    Sar,
}

impl ShiftOp {
    /// AT&T mnemonic stem.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ShiftOp::Shl => "shl",
            ShiftOp::Shr => "shr",
            ShiftOp::Sar => "sar",
        }
    }
}

/// Single-operand read-modify-write operations.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Two's complement negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Increment (does not touch CF, like x86).
    Inc,
    /// Decrement (does not touch CF).
    Dec,
}

impl UnOp {
    /// AT&T mnemonic stem.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::Inc => "inc",
            UnOp::Dec => "dec",
        }
    }
}

/// Branch conditions (subset of x86 `jcc`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Equal / zero.
    E,
    /// Not equal / not zero.
    Ne,
    /// Signed less-than.
    L,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    G,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned below.
    B,
    /// Unsigned below-or-equal.
    Be,
    /// Unsigned above.
    A,
    /// Unsigned above-or-equal.
    Ae,
    /// Sign flag set.
    S,
    /// Sign flag clear.
    Ns,
}

impl Cond {
    /// AT&T condition-code suffix.
    pub fn suffix(self) -> &'static str {
        match self {
            Cond::E => "e",
            Cond::Ne => "ne",
            Cond::L => "l",
            Cond::Le => "le",
            Cond::G => "g",
            Cond::Ge => "ge",
            Cond::B => "b",
            Cond::Be => "be",
            Cond::A => "a",
            Cond::Ae => "ae",
            Cond::S => "s",
            Cond::Ns => "ns",
        }
    }

    /// The negated condition.
    pub fn negate(self) -> Cond {
        match self {
            Cond::E => Cond::Ne,
            Cond::Ne => Cond::E,
            Cond::L => Cond::Ge,
            Cond::Le => Cond::G,
            Cond::G => Cond::Le,
            Cond::Ge => Cond::L,
            Cond::B => Cond::Ae,
            Cond::Be => Cond::A,
            Cond::A => Cond::Be,
            Cond::Ae => Cond::B,
            Cond::S => Cond::Ns,
            Cond::Ns => Cond::S,
        }
    }
}

/// Jump / call target.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Target {
    /// A label in the same module (resolved by the loader to an address).
    Label(String),
    /// An absolute, already-resolved code address.
    Abs(u64),
    /// Indirect through a register (`call *%eax`).
    Reg(Reg),
    /// Indirect through memory (`call *12(%ebx)`).
    Mem(MemRef),
}

impl Target {
    /// True for the indirect forms the rewriter must translate through the
    /// `stlb_call` table (paper §5.1.2).
    pub fn is_indirect(&self) -> bool {
        matches!(self, Target::Reg(_) | Target::Mem(_))
    }

    /// Registers read to evaluate the target.
    pub fn uses(&self) -> RegSet {
        match self {
            Target::Label(_) | Target::Abs(_) => RegSet::new(),
            Target::Reg(r) => RegSet::of(*r),
            Target::Mem(m) => m.regs(),
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Label(l) => write!(f, "{l}"),
            Target::Abs(a) => write!(f, "0x{a:x}"),
            Target::Reg(r) => write!(f, "*{r}"),
            Target::Mem(m) => write!(f, "*{m}"),
        }
    }
}

/// String-instruction family (paper §5.1.1).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum StrOp {
    /// Copy `(%esi)` to `(%edi)`, advancing both.
    Movs,
    /// Store `%eax` to `(%edi)`, advancing `%edi`.
    Stos,
    /// Load `(%esi)` into `%eax`, advancing `%esi`.
    Lods,
    /// Compare `(%esi)` with `(%edi)`, advancing both.
    Cmps,
    /// Compare `%eax` with `(%edi)`, advancing `%edi`.
    Scas,
}

impl StrOp {
    /// AT&T mnemonic stem.
    pub fn mnemonic(self) -> &'static str {
        match self {
            StrOp::Movs => "movs",
            StrOp::Stos => "stos",
            StrOp::Lods => "lods",
            StrOp::Cmps => "cmps",
            StrOp::Scas => "scas",
        }
    }

    /// True if the instruction reads memory at `(%esi)`.
    pub fn reads_si(self) -> bool {
        matches!(self, StrOp::Movs | StrOp::Lods | StrOp::Cmps)
    }

    /// True if the instruction accesses memory at `(%edi)`.
    pub fn uses_di(self) -> bool {
        matches!(self, StrOp::Movs | StrOp::Stos | StrOp::Cmps | StrOp::Scas)
    }
}

/// Repeat prefixes for string instructions.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Rep {
    /// No prefix: one element.
    None,
    /// `rep`: repeat `%ecx` times.
    Rep,
    /// `repe`: repeat while equal, at most `%ecx` times.
    Repe,
    /// `repne`: repeat while not equal, at most `%ecx` times.
    Repne,
}

impl Rep {
    /// Prefix spelling including trailing space, or `""`.
    pub fn prefix(self) -> &'static str {
        match self {
            Rep::None => "",
            Rep::Rep => "rep ",
            Rep::Repe => "repe ",
            Rep::Repne => "repne ",
        }
    }
}

/// One instruction of the twin-isa instruction set.
///
/// The set intentionally mirrors the x86 features the paper's rewriter has
/// to deal with: memory operands on most instructions, string instructions
/// with implicit registers, and indirect calls.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Insn {
    /// `mov src, dst`.
    Mov {
        /// Operand width.
        w: Width,
        /// Destination (register or memory).
        dst: Operand,
        /// Source (register, immediate, symbol address or memory).
        src: Operand,
    },
    /// `movz  src, dst` — zero-extend a narrow source into a register.
    Movzx {
        /// Width of the *source*.
        w: Width,
        /// Destination register (written at full width).
        dst: Reg,
        /// Narrow source.
        src: Operand,
    },
    /// `movs src, dst` — sign-extend a narrow source into a register.
    Movsx {
        /// Width of the *source*.
        w: Width,
        /// Destination register.
        dst: Reg,
        /// Narrow source.
        src: Operand,
    },
    /// `lea mem, dst` — effective address computation; **no memory access**.
    Lea {
        /// Destination register.
        dst: Reg,
        /// Address expression.
        mem: MemRef,
    },
    /// Two-operand ALU operation `op src, dst`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Operand width.
        w: Width,
        /// Destination (read-modify-write).
        dst: Operand,
        /// Source.
        src: Operand,
    },
    /// Shift `dst` by `amount` (immediate or `%ecx`).
    Shift {
        /// Operation.
        op: ShiftOp,
        /// Destination (read-modify-write).
        dst: Operand,
        /// Shift amount: immediate or `Operand::Reg(Ecx)`.
        amount: Operand,
    },
    /// `cmp src, dst` — sets flags from `dst - src`.
    Cmp {
        /// Operand width.
        w: Width,
        /// Subtrahend (AT&T first operand).
        src: Operand,
        /// Minuend (AT&T second operand).
        dst: Operand,
    },
    /// `test src, dst` — sets flags from `dst & src`.
    Test {
        /// Operand width.
        w: Width,
        /// First operand.
        src: Operand,
        /// Second operand.
        dst: Operand,
    },
    /// Single-operand read-modify-write (`neg`, `not`, `inc`, `dec`).
    Un {
        /// Operation.
        op: UnOp,
        /// Operand width.
        w: Width,
        /// Destination.
        dst: Operand,
    },
    /// `imul src, dst` — 32-bit two-operand multiply.
    Imul {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Push a 32-bit value.
    Push {
        /// Value pushed.
        src: Operand,
    },
    /// Pop a 32-bit value.
    Pop {
        /// Destination.
        dst: Operand,
    },
    /// Unconditional jump.
    Jmp {
        /// Target.
        target: Target,
    },
    /// Conditional jump.
    Jcc {
        /// Condition.
        cond: Cond,
        /// Target (label or absolute only).
        target: Target,
    },
    /// Call; pushes the return address.
    Call {
        /// Target, possibly indirect.
        target: Target,
    },
    /// Return; pops the return address.
    Ret,
    /// String instruction with optional repeat prefix.
    Str {
        /// Which string operation.
        op: StrOp,
        /// Element width.
        w: Width,
        /// Repeat prefix.
        rep: Rep,
    },
    /// Disable (virtual) interrupts.
    Cli,
    /// Enable (virtual) interrupts.
    Sti,
    /// No operation.
    Nop,
    /// Halt until interrupt (ends a run quantum).
    Hlt,
    /// Debug trap — used by the framework to mark aborts.
    Int3,
    /// Undefined instruction — raises a fault.
    Ud2,
}

impl Insn {
    /// Registers read by this instruction, including implicit ones
    /// (`%ecx`/`%esi`/`%edi` for string ops, `%esp` for stack ops).
    pub fn uses(&self) -> RegSet {
        let mut s = RegSet::new();
        match self {
            Insn::Mov { dst, src, .. } => {
                s = s.union(src.uses()).union(dst.addr_uses());
            }
            Insn::Movzx { src, .. } | Insn::Movsx { src, .. } => {
                s = s.union(src.uses());
            }
            Insn::Lea { mem, .. } => {
                s = s.union(mem.regs());
            }
            Insn::Alu { dst, src, .. } => {
                s = s.union(src.uses()).union(dst.uses());
            }
            Insn::Shift { dst, amount, .. } => {
                s = s.union(dst.uses()).union(amount.uses());
            }
            Insn::Cmp { src, dst, .. } | Insn::Test { src, dst, .. } => {
                s = s.union(src.uses()).union(dst.uses());
            }
            Insn::Un { dst, .. } => {
                s = s.union(dst.uses());
            }
            Insn::Imul { dst, src } => {
                s.insert(*dst);
                s = s.union(src.uses());
            }
            Insn::Push { src } => {
                s = s.union(src.uses());
                s.insert(Reg::Esp);
            }
            Insn::Pop { dst } => {
                s = s.union(dst.addr_uses());
                s.insert(Reg::Esp);
            }
            Insn::Jmp { target } | Insn::Jcc { target, .. } => {
                s = s.union(target.uses());
            }
            Insn::Call { target } => {
                s = s.union(target.uses());
                s.insert(Reg::Esp);
            }
            Insn::Ret => {
                s.insert(Reg::Esp);
            }
            Insn::Str { op, rep, .. } => {
                if op.reads_si() {
                    s.insert(Reg::Esi);
                }
                if op.uses_di() {
                    s.insert(Reg::Edi);
                }
                if matches!(op, StrOp::Stos | StrOp::Scas) {
                    s.insert(Reg::Eax);
                }
                if !matches!(rep, Rep::None) {
                    s.insert(Reg::Ecx);
                }
            }
            Insn::Cli | Insn::Sti | Insn::Nop | Insn::Hlt | Insn::Int3 | Insn::Ud2 => {}
        }
        s
    }

    /// Registers written by this instruction, including implicit ones.
    pub fn defs(&self) -> RegSet {
        let mut s = RegSet::new();
        match self {
            Insn::Mov { dst, .. } | Insn::Alu { dst, .. } | Insn::Shift { dst, .. } => {
                if let Some(r) = dst.def() {
                    s.insert(r);
                }
            }
            Insn::Movzx { dst, .. } | Insn::Movsx { dst, .. } | Insn::Lea { dst, .. } => {
                s.insert(*dst);
            }
            Insn::Un { dst, .. } => {
                if let Some(r) = dst.def() {
                    s.insert(r);
                }
            }
            Insn::Imul { dst, .. } => {
                s.insert(*dst);
            }
            Insn::Push { .. } => {
                s.insert(Reg::Esp);
            }
            Insn::Pop { dst } => {
                if let Some(r) = dst.def() {
                    s.insert(r);
                }
                s.insert(Reg::Esp);
            }
            Insn::Call { .. } => {
                // Caller-saved registers are clobbered across a call under
                // the cdecl-like convention used by the drivers.
                s.insert(Reg::Eax);
                s.insert(Reg::Ecx);
                s.insert(Reg::Edx);
                s.insert(Reg::Esp);
            }
            Insn::Ret => {
                s.insert(Reg::Esp);
            }
            Insn::Str { op, rep, .. } => {
                if op.reads_si() {
                    s.insert(Reg::Esi);
                }
                if op.uses_di() {
                    s.insert(Reg::Edi);
                }
                if matches!(op, StrOp::Lods) {
                    s.insert(Reg::Eax);
                }
                if !matches!(rep, Rep::None) {
                    s.insert(Reg::Ecx);
                }
            }
            Insn::Cmp { .. }
            | Insn::Test { .. }
            | Insn::Jmp { .. }
            | Insn::Jcc { .. }
            | Insn::Cli
            | Insn::Sti
            | Insn::Nop
            | Insn::Hlt
            | Insn::Int3
            | Insn::Ud2 => {}
        }
        s
    }

    /// Memory references made by this instruction that are *explicit*
    /// (appear as operands). `lea` is excluded — it computes an address but
    /// performs no access. Stack-implicit accesses (`push`/`pop`/`call`/
    /// `ret`) are excluded: they are `%esp`-relative by construction.
    pub fn explicit_mem_refs(&self) -> Vec<&MemRef> {
        let mut v = Vec::new();
        match self {
            Insn::Mov { dst, src, .. } => {
                if let Operand::Mem(m) = src {
                    v.push(m);
                }
                if let Operand::Mem(m) = dst {
                    v.push(m);
                }
            }
            Insn::Movzx { src, .. } | Insn::Movsx { src, .. } => {
                if let Operand::Mem(m) = src {
                    v.push(m);
                }
            }
            Insn::Alu { dst, src, .. }
            | Insn::Cmp { src, dst, .. }
            | Insn::Test { src, dst, .. } => {
                if let Operand::Mem(m) = src {
                    v.push(m);
                }
                if let Operand::Mem(m) = dst {
                    v.push(m);
                }
            }
            Insn::Shift { dst, .. } | Insn::Un { dst, .. } => {
                if let Operand::Mem(m) = dst {
                    v.push(m);
                }
            }
            Insn::Imul {
                src: Operand::Mem(m),
                ..
            } => {
                v.push(m);
            }
            Insn::Push {
                src: Operand::Mem(m),
            } => {
                v.push(m);
            }
            Insn::Pop {
                dst: Operand::Mem(m),
            } => {
                v.push(m);
            }
            Insn::Jmp { target } | Insn::Jcc { target, .. } | Insn::Call { target } => {
                if let Target::Mem(m) = target {
                    v.push(m);
                }
            }
            _ => {}
        }
        v
    }

    /// True if this instruction makes any non-stack-relative data memory
    /// access, i.e. it must be rewritten to use SVM (paper §4.1). String
    /// instructions always qualify (their pointers are heap pointers).
    pub fn needs_svm(&self) -> bool {
        if matches!(self, Insn::Str { .. }) {
            return true;
        }
        self.explicit_mem_refs()
            .iter()
            .any(|m| !m.is_stack_relative())
    }

    /// True if this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Insn::Jmp { .. } | Insn::Jcc { .. } | Insn::Ret | Insn::Hlt | Insn::Int3 | Insn::Ud2
        )
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Insn::Mov { w, dst, src } => write!(f, "mov{} {}, {}", w.suffix(), src, dst),
            Insn::Movzx { w, dst, src } => write!(f, "movz{}l {}, {}", w.suffix(), src, dst),
            Insn::Movsx { w, dst, src } => write!(f, "movs{}l {}, {}", w.suffix(), src, dst),
            Insn::Lea { dst, mem } => write!(f, "leal {mem}, {dst}"),
            Insn::Alu { op, w, dst, src } => {
                write!(f, "{}{} {}, {}", op.mnemonic(), w.suffix(), src, dst)
            }
            Insn::Shift { op, dst, amount } => {
                write!(f, "{}l {}, {}", op.mnemonic(), amount, dst)
            }
            Insn::Cmp { w, src, dst } => write!(f, "cmp{} {}, {}", w.suffix(), src, dst),
            Insn::Test { w, src, dst } => write!(f, "test{} {}, {}", w.suffix(), src, dst),
            Insn::Un { op, w, dst } => write!(f, "{}{} {}", op.mnemonic(), w.suffix(), dst),
            Insn::Imul { dst, src } => write!(f, "imull {src}, {dst}"),
            Insn::Push { src } => write!(f, "pushl {src}"),
            Insn::Pop { dst } => write!(f, "popl {dst}"),
            Insn::Jmp { target } => write!(f, "jmp {target}"),
            Insn::Jcc { cond, target } => write!(f, "j{} {}", cond.suffix(), target),
            Insn::Call { target } => write!(f, "call {target}"),
            Insn::Ret => write!(f, "ret"),
            Insn::Str { op, w, rep } => {
                write!(f, "{}{}{}", rep.prefix(), op.mnemonic(), w.suffix())
            }
            Insn::Cli => write!(f, "cli"),
            Insn::Sti => write!(f, "sti"),
            Insn::Nop => write!(f, "nop"),
            Insn::Hlt => write!(f, "hlt"),
            Insn::Int3 => write!(f, "int3"),
            Insn::Ud2 => write!(f, "ud2"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mov_load(dst: Reg, base: Reg, disp: i64) -> Insn {
        Insn::Mov {
            w: Width::Long,
            dst: Operand::Reg(dst),
            src: Operand::Mem(MemRef::base_disp(base, disp)),
        }
    }

    #[test]
    fn uses_defs_mov_load() {
        let i = mov_load(Reg::Eax, Reg::Ebx, 8);
        assert!(i.uses().contains(Reg::Ebx));
        assert!(!i.uses().contains(Reg::Eax));
        assert!(i.defs().contains(Reg::Eax));
    }

    #[test]
    fn uses_defs_mov_store() {
        let i = Insn::Mov {
            w: Width::Long,
            dst: Operand::Mem(MemRef::base_disp(Reg::Ebx, 0)),
            src: Operand::Reg(Reg::Eax),
        };
        assert!(i.uses().contains(Reg::Eax));
        assert!(i.uses().contains(Reg::Ebx));
        assert!(i.defs().is_empty());
    }

    #[test]
    fn stack_relative_detection() {
        assert!(MemRef::base_disp(Reg::Esp, 4).is_stack_relative());
        assert!(MemRef::base_disp(Reg::Ebp, -8).is_stack_relative());
        assert!(!MemRef::base_disp(Reg::Eax, 0).is_stack_relative());
        assert!(!MemRef::abs(0x1000).is_stack_relative());
    }

    #[test]
    fn needs_svm() {
        assert!(mov_load(Reg::Eax, Reg::Ebx, 8).needs_svm());
        assert!(!mov_load(Reg::Eax, Reg::Ebp, 8).needs_svm());
        assert!(!Insn::Lea {
            dst: Reg::Eax,
            mem: MemRef::base_disp(Reg::Ebx, 4)
        }
        .needs_svm());
        assert!(Insn::Str {
            op: StrOp::Movs,
            w: Width::Long,
            rep: Rep::Rep
        }
        .needs_svm());
        // Symbolic (data-section) reference counts as heap.
        let i = Insn::Mov {
            w: Width::Long,
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Mem(MemRef::sym("adapter", 0)),
        };
        assert!(i.needs_svm());
    }

    #[test]
    fn string_implicit_regs() {
        let i = Insn::Str {
            op: StrOp::Movs,
            w: Width::Long,
            rep: Rep::Rep,
        };
        let u = i.uses();
        assert!(u.contains(Reg::Esi) && u.contains(Reg::Edi) && u.contains(Reg::Ecx));
        let d = i.defs();
        assert!(d.contains(Reg::Esi) && d.contains(Reg::Edi) && d.contains(Reg::Ecx));
    }

    #[test]
    fn call_clobbers() {
        let i = Insn::Call {
            target: Target::Label("f".into()),
        };
        let d = i.defs();
        assert!(d.contains(Reg::Eax) && d.contains(Reg::Ecx) && d.contains(Reg::Edx));
        assert!(!d.contains(Reg::Ebx));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            mov_load(Reg::Eax, Reg::Ebx, 8).to_string(),
            "movl 8(%ebx), %eax"
        );
        assert_eq!(
            Insn::Lea {
                dst: Reg::Ecx,
                mem: MemRef {
                    base: Some(Reg::Eax),
                    index: Some((Reg::Ebx, 4)),
                    disp: 12,
                    sym: None
                }
            }
            .to_string(),
            "leal 12(%eax,%ebx,4), %ecx"
        );
        assert_eq!(
            Insn::Str {
                op: StrOp::Movs,
                w: Width::Long,
                rep: Rep::Rep
            }
            .to_string(),
            "rep movsl"
        );
        assert_eq!(
            Insn::Call {
                target: Target::Reg(Reg::Eax)
            }
            .to_string(),
            "call *%eax"
        );
        assert_eq!(
            Insn::Mov {
                w: Width::Long,
                dst: Operand::Reg(Reg::Eax),
                src: Operand::Mem(MemRef::sym("stlb", 4)),
            }
            .to_string(),
            "movl stlb+4, %eax"
        );
    }

    #[test]
    fn cond_negate_involution() {
        for c in [
            Cond::E,
            Cond::Ne,
            Cond::L,
            Cond::Le,
            Cond::G,
            Cond::Ge,
            Cond::B,
            Cond::Be,
            Cond::A,
            Cond::Ae,
            Cond::S,
            Cond::Ns,
        ] {
            assert_eq!(c.negate().negate(), c);
        }
    }

    #[test]
    fn terminators() {
        assert!(Insn::Ret.is_terminator());
        assert!(Insn::Jmp {
            target: Target::Label("x".into())
        }
        .is_terminator());
        assert!(!Insn::Nop.is_terminator());
        assert!(!Insn::Call {
            target: Target::Label("x".into())
        }
        .is_terminator());
    }
}
