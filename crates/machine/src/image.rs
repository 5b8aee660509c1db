//! Loaded code images and symbol resolution (linking).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use twin_isa::{
    AluOp, Cond, Insn, MemRef, Module, Operand, Reg, Rep, ShiftOp, StrOp, Target, UnOp, Width,
    INSN_SIZE,
};

/// Identifier of a loaded code image.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ImageId(pub usize);

/// Error produced when a module cannot be linked.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LinkError {
    /// The symbol that could not be resolved.
    pub symbol: String,
    /// Module being linked.
    pub module: String,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unresolved symbol `{}` while linking module `{}`",
            self.symbol, self.module
        )
    }
}

impl Error for LinkError {}

/// A fully linked code image: instructions with all symbols resolved to
/// absolute addresses, placed at `base`.
///
/// Instruction `i` occupies addresses `[base + i*INSN_SIZE, base +
/// (i+1)*INSN_SIZE)`. Exports map global label names to their absolute
/// addresses.
#[derive(Clone, Debug)]
pub struct CodeImage {
    /// Image (module) name.
    pub name: String,
    /// Base code address.
    pub base: u64,
    /// Resolved instruction stream: the linked listing, for diagnostics
    /// and tests. The interpreter executes `ops`.
    pub insns: Vec<Insn>,
    /// Exported label name → absolute address.
    pub exports: BTreeMap<String, u64>,
    /// `insns`, lowered one for one by [`link`].
    ops: Vec<Op>,
}

/// A linked memory reference: `disp + base + index * scale` in wrapping
/// 32-bit arithmetic.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Mem {
    pub(crate) base: Option<Reg>,
    pub(crate) index: Option<Reg>,
    pub(crate) scale: u8,
    pub(crate) disp: u32,
}

/// A linked operand.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Opnd {
    Reg(Reg),
    /// Truncated to the machine's 32 bits.
    Imm(u32),
    Mem(Mem),
}

/// A linked jump or call target.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Tgt {
    Abs(u64),
    Reg(Reg),
    Mem(Mem),
}

/// What the interpreter executes: an [`Insn`] after linking, with nothing
/// left to resolve and nothing on the heap — small enough to stay in
/// cache, `Copy`, and matched by reference. Variants and fields mirror
/// [`Insn`]'s.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Op {
    Mov {
        w: Width,
        dst: Opnd,
        src: Opnd,
    },
    Movzx {
        w: Width,
        dst: Reg,
        src: Opnd,
    },
    Movsx {
        w: Width,
        dst: Reg,
        src: Opnd,
    },
    Lea {
        dst: Reg,
        mem: Mem,
    },
    Alu {
        op: AluOp,
        w: Width,
        dst: Opnd,
        src: Opnd,
    },
    Shift {
        op: ShiftOp,
        dst: Opnd,
        amount: Opnd,
    },
    Cmp {
        w: Width,
        src: Opnd,
        dst: Opnd,
    },
    Test {
        w: Width,
        src: Opnd,
        dst: Opnd,
    },
    Un {
        op: UnOp,
        w: Width,
        dst: Opnd,
    },
    Imul {
        dst: Reg,
        src: Opnd,
    },
    Push {
        src: Opnd,
    },
    Pop {
        dst: Opnd,
    },
    Jmp {
        target: Tgt,
    },
    Jcc {
        cond: Cond,
        target: Tgt,
    },
    Call {
        target: Tgt,
    },
    Ret,
    Str {
        op: StrOp,
        w: Width,
        rep: Rep,
    },
    Cli,
    Sti,
    Nop,
    Hlt,
    Int3,
    Ud2,
}

impl CodeImage {
    /// Whether `pc` falls inside this image.
    pub fn contains(&self, pc: u64) -> bool {
        pc >= self.base && pc < self.base + self.insns.len() as u64 * INSN_SIZE
    }

    /// The instruction at code address `pc`.
    ///
    /// Returns `None` if `pc` is outside the image or unaligned.
    pub fn fetch(&self, pc: u64) -> Option<&Insn> {
        if !self.contains(pc) || (pc - self.base) % INSN_SIZE != 0 {
            return None;
        }
        self.insns.get(((pc - self.base) / INSN_SIZE) as usize)
    }

    /// The lowered instruction at code address `pc`; `None` exactly when
    /// [`CodeImage::fetch`] is.
    #[inline]
    pub(crate) fn op_at(&self, pc: u64) -> Option<&Op> {
        let offset = pc.wrapping_sub(self.base);
        if offset % INSN_SIZE != 0 {
            return None;
        }
        self.ops.get(usize::try_from(offset / INSN_SIZE).ok()?)
    }

    /// Address of an exported symbol.
    pub fn export(&self, name: &str) -> Option<u64> {
        self.exports.get(name).copied()
    }

    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.base + self.insns.len() as u64 * INSN_SIZE
    }
}

/// Links `module` at `code_base`: local labels become absolute code
/// addresses; all other symbols (data symbols, externs, cross-module
/// references) are resolved through `resolve`.
///
/// # Errors
///
/// Returns [`LinkError`] naming the first unresolvable symbol.
pub fn link<F>(module: &Module, code_base: u64, mut resolve: F) -> Result<CodeImage, LinkError>
where
    F: FnMut(&str) -> Option<u64>,
{
    let label_addr = |name: &str| -> Option<u64> {
        module
            .labels
            .get(name)
            .map(|idx| code_base + *idx as u64 * INSN_SIZE)
    };
    let mut lookup = |name: &str| -> Result<u64, LinkError> {
        label_addr(name)
            .or_else(|| resolve(name))
            .ok_or_else(|| LinkError {
                symbol: name.to_string(),
                module: module.name.clone(),
            })
    };

    let mut insns = Vec::with_capacity(module.text.len());
    let mut ops = Vec::with_capacity(module.text.len());
    for insn in &module.text {
        let linked = resolve_insn(insn, &mut lookup)?;
        ops.push(lower(&linked));
        insns.push(linked);
    }

    let mut exports = BTreeMap::new();
    for (name, idx) in &module.labels {
        exports.insert(name.clone(), code_base + *idx as u64 * INSN_SIZE);
    }

    Ok(CodeImage {
        name: module.name.clone(),
        base: code_base,
        insns,
        exports,
        ops,
    })
}

// Lowering is total over what `resolve_insn` returns: it has replaced
// every symbol by an address or failed the link, so a symbol here is a
// bug in this file, not in the module.

fn lower_mem(m: &MemRef) -> Mem {
    if let Some(sym) = &m.sym {
        unreachable!("memory reference to `{sym}` survived linking");
    }
    Mem {
        base: m.base,
        index: m.index.map(|(r, _)| r),
        scale: m.index.map_or(0, |(_, s)| s),
        disp: m.disp as u32,
    }
}

fn lower_operand(o: &Operand) -> Opnd {
    match o {
        Operand::Reg(r) => Opnd::Reg(*r),
        Operand::Imm(v) => Opnd::Imm(*v as u32),
        Operand::Sym(sym, _) => unreachable!("symbol operand `{sym}` survived linking"),
        Operand::Mem(m) => Opnd::Mem(lower_mem(m)),
    }
}

fn lower_target(t: &Target) -> Tgt {
    match t {
        Target::Abs(a) => Tgt::Abs(*a),
        Target::Label(l) => unreachable!("label target `{l}` survived linking"),
        Target::Reg(r) => Tgt::Reg(*r),
        Target::Mem(m) => Tgt::Mem(lower_mem(m)),
    }
}

fn lower(insn: &Insn) -> Op {
    match insn {
        Insn::Mov { w, dst, src } => Op::Mov {
            w: *w,
            dst: lower_operand(dst),
            src: lower_operand(src),
        },
        Insn::Movzx { w, dst, src } => Op::Movzx {
            w: *w,
            dst: *dst,
            src: lower_operand(src),
        },
        Insn::Movsx { w, dst, src } => Op::Movsx {
            w: *w,
            dst: *dst,
            src: lower_operand(src),
        },
        Insn::Lea { dst, mem } => Op::Lea {
            dst: *dst,
            mem: lower_mem(mem),
        },
        Insn::Alu { op, w, dst, src } => Op::Alu {
            op: *op,
            w: *w,
            dst: lower_operand(dst),
            src: lower_operand(src),
        },
        Insn::Shift { op, dst, amount } => Op::Shift {
            op: *op,
            dst: lower_operand(dst),
            amount: lower_operand(amount),
        },
        Insn::Cmp { w, src, dst } => Op::Cmp {
            w: *w,
            src: lower_operand(src),
            dst: lower_operand(dst),
        },
        Insn::Test { w, src, dst } => Op::Test {
            w: *w,
            src: lower_operand(src),
            dst: lower_operand(dst),
        },
        Insn::Un { op, w, dst } => Op::Un {
            op: *op,
            w: *w,
            dst: lower_operand(dst),
        },
        Insn::Imul { dst, src } => Op::Imul {
            dst: *dst,
            src: lower_operand(src),
        },
        Insn::Push { src } => Op::Push {
            src: lower_operand(src),
        },
        Insn::Pop { dst } => Op::Pop {
            dst: lower_operand(dst),
        },
        Insn::Jmp { target } => Op::Jmp {
            target: lower_target(target),
        },
        Insn::Jcc { cond, target } => Op::Jcc {
            cond: *cond,
            target: lower_target(target),
        },
        Insn::Call { target } => Op::Call {
            target: lower_target(target),
        },
        Insn::Ret => Op::Ret,
        Insn::Str { op, w, rep } => Op::Str {
            op: *op,
            w: *w,
            rep: *rep,
        },
        Insn::Cli => Op::Cli,
        Insn::Sti => Op::Sti,
        Insn::Nop => Op::Nop,
        Insn::Hlt => Op::Hlt,
        Insn::Int3 => Op::Int3,
        Insn::Ud2 => Op::Ud2,
    }
}

fn resolve_mem<F>(m: &MemRef, lookup: &mut F) -> Result<MemRef, LinkError>
where
    F: FnMut(&str) -> Result<u64, LinkError>,
{
    let mut out = m.clone();
    if let Some(sym) = out.sym.take() {
        let addr = lookup(&sym)?;
        out.disp = out.disp.wrapping_add(addr as i64);
    }
    Ok(out)
}

fn resolve_operand<F>(o: &Operand, lookup: &mut F) -> Result<Operand, LinkError>
where
    F: FnMut(&str) -> Result<u64, LinkError>,
{
    Ok(match o {
        Operand::Sym(name, off) => Operand::Imm(lookup(name)? as i64 + off),
        Operand::Mem(m) => Operand::Mem(resolve_mem(m, lookup)?),
        other => other.clone(),
    })
}

fn resolve_target<F>(t: &Target, lookup: &mut F) -> Result<Target, LinkError>
where
    F: FnMut(&str) -> Result<u64, LinkError>,
{
    Ok(match t {
        Target::Label(name) => Target::Abs(lookup(name)?),
        Target::Mem(m) => Target::Mem(resolve_mem(m, lookup)?),
        other => other.clone(),
    })
}

fn resolve_insn<F>(insn: &Insn, lookup: &mut F) -> Result<Insn, LinkError>
where
    F: FnMut(&str) -> Result<u64, LinkError>,
{
    Ok(match insn {
        Insn::Mov { w, dst, src } => Insn::Mov {
            w: *w,
            dst: resolve_operand(dst, lookup)?,
            src: resolve_operand(src, lookup)?,
        },
        Insn::Movzx { w, dst, src } => Insn::Movzx {
            w: *w,
            dst: *dst,
            src: resolve_operand(src, lookup)?,
        },
        Insn::Movsx { w, dst, src } => Insn::Movsx {
            w: *w,
            dst: *dst,
            src: resolve_operand(src, lookup)?,
        },
        Insn::Lea { dst, mem } => Insn::Lea {
            dst: *dst,
            mem: resolve_mem(mem, lookup)?,
        },
        Insn::Alu { op, w, dst, src } => Insn::Alu {
            op: *op,
            w: *w,
            dst: resolve_operand(dst, lookup)?,
            src: resolve_operand(src, lookup)?,
        },
        Insn::Shift { op, dst, amount } => Insn::Shift {
            op: *op,
            dst: resolve_operand(dst, lookup)?,
            amount: resolve_operand(amount, lookup)?,
        },
        Insn::Cmp { w, src, dst } => Insn::Cmp {
            w: *w,
            src: resolve_operand(src, lookup)?,
            dst: resolve_operand(dst, lookup)?,
        },
        Insn::Test { w, src, dst } => Insn::Test {
            w: *w,
            src: resolve_operand(src, lookup)?,
            dst: resolve_operand(dst, lookup)?,
        },
        Insn::Un { op, w, dst } => Insn::Un {
            op: *op,
            w: *w,
            dst: resolve_operand(dst, lookup)?,
        },
        Insn::Imul { dst, src } => Insn::Imul {
            dst: *dst,
            src: resolve_operand(src, lookup)?,
        },
        Insn::Push { src } => Insn::Push {
            src: resolve_operand(src, lookup)?,
        },
        Insn::Pop { dst } => Insn::Pop {
            dst: resolve_operand(dst, lookup)?,
        },
        Insn::Jmp { target } => Insn::Jmp {
            target: resolve_target(target, lookup)?,
        },
        Insn::Jcc { cond, target } => Insn::Jcc {
            cond: *cond,
            target: resolve_target(target, lookup)?,
        },
        Insn::Call { target } => Insn::Call {
            target: resolve_target(target, lookup)?,
        },
        other => other.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_isa::asm::assemble;

    #[test]
    fn links_labels_and_data_syms() {
        let m = assemble(
            "t",
            r#"
            .text
            .globl f
        f:
            movl counter, %eax
            call g
            jmp f
        g:
            ret
        "#,
        )
        .unwrap();
        let img = link(&m, 0x1000, |s| (s == "counter").then_some(0x2000_0000)).unwrap();
        assert_eq!(img.export("f"), Some(0x1000));
        assert_eq!(img.export("g"), Some(0x1000 + 3 * INSN_SIZE));
        // movl counter -> absolute disp
        match &img.insns[0] {
            Insn::Mov {
                src: Operand::Mem(mem),
                ..
            } => {
                assert_eq!(mem.disp, 0x2000_0000);
                assert!(mem.sym.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        match &img.insns[1] {
            Insn::Call {
                target: Target::Abs(a),
            } => assert_eq!(*a, 0x1000 + 3 * INSN_SIZE),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unresolved_symbol_errors() {
        let m = assemble("t", ".text\nf:\n call missing\n").unwrap();
        let e = link(&m, 0, |_| None).unwrap_err();
        assert_eq!(e.symbol, "missing");
        assert!(e.to_string().contains("missing"));
    }

    #[test]
    fn fetch_and_contains() {
        let m = assemble("t", ".text\nf:\n nop\n nop\n ret\n").unwrap();
        let img = link(&m, 0x100, |_| None).unwrap();
        assert!(img.contains(0x100));
        assert!(img.contains(0x100 + 2 * INSN_SIZE));
        assert!(!img.contains(0x100 + 3 * INSN_SIZE));
        assert!(img.fetch(0x100 + 1).is_none(), "unaligned fetch");
        assert!(matches!(img.fetch(0x100 + 2 * INSN_SIZE), Some(Insn::Ret)));
        assert_eq!(img.end(), 0x100 + 3 * INSN_SIZE);
        // The lowered stream answers for exactly the same addresses.
        for pc in 0xf8..0x100 + 4 * INSN_SIZE {
            assert_eq!(img.op_at(pc).is_some(), img.fetch(pc).is_some(), "{pc:#x}");
        }
        assert!(matches!(img.op_at(0x100 + 2 * INSN_SIZE), Some(Op::Ret)));
    }

    #[test]
    fn lowering_keeps_what_linking_resolved() {
        let m = assemble(
            "t",
            ".text\nf:\n movl $table, %eax\n movl table+8(,%ecx,4), %edx\n jmp *-4(%ebx)\n call f\n",
        )
        .unwrap();
        let img = link(&m, 0x1000, |s| (s == "table").then_some(0x2000_0000)).unwrap();
        assert_eq!(img.ops.len(), img.insns.len());
        assert!(std::mem::size_of::<Op>() <= 32, "an op is a few words");
        match img.ops[..] {
            [Op::Mov {
                src: Opnd::Imm(0x2000_0000),
                ..
            }, Op::Mov {
                src: Opnd::Mem(indexed),
                ..
            }, Op::Jmp {
                target: Tgt::Mem(negative),
            }, Op::Call {
                target: Tgt::Abs(0x1000),
            }] => {
                assert_eq!(
                    (indexed.base, indexed.index, indexed.scale, indexed.disp),
                    (None, Some(Reg::Ecx), 4, 0x2000_0008)
                );
                assert_eq!(
                    (negative.base, negative.index, negative.disp),
                    (Some(Reg::Ebx), None, -4i32 as u32)
                );
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }
}
