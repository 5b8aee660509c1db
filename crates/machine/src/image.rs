//! Loaded code images and symbol resolution (linking).

use crate::stlb::{self, TEMPLATE_LEN};
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
/// absolute addresses and lowered to what the interpreter executes,
/// placed at `base`.
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
    /// Exported label name → absolute address.
    pub exports: BTreeMap<String, u64>,
    /// The module's text, linked and lowered one for one by [`link`].
    pub(crate) ops: Vec<Op>,
}

/// A linked memory reference: `disp + base + index * scale` in wrapping
/// 32-bit arithmetic.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) struct Mem {
    pub(crate) base: Option<Reg>,
    pub(crate) index: Option<Reg>,
    pub(crate) scale: u8,
    pub(crate) disp: u32,
}

/// A linked operand.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) enum Opnd {
    Reg(Reg),
    /// Truncated to the machine's 32 bits.
    Imm(u32),
    Mem(Mem),
}

/// A linked jump or call target.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) enum Tgt {
    Abs(u64),
    Reg(Reg),
    Mem(Mem),
}

/// One SVM translation as [`fuse`] found it: the `lea`'s operand, the
/// three registers and where the stlb lies.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) struct Xlate {
    pub(crate) mem: Mem,
    pub(crate) out: Reg,
    pub(crate) s1: Reg,
    pub(crate) s2: Reg,
    /// Address of the stlb's first tag word; the xor words are 4 on.
    pub(crate) stlb: u32,
}

/// What the interpreter executes: an [`Insn`] after linking, with nothing
/// left to resolve and nothing on the heap — small enough to stay in
/// cache, `Copy`, and matched by reference. The generic variants mirror
/// [`Insn`]'s; [`link`] alone creates the rest: the two fused ops of
/// [`fuse`], and the shape-specific ops of [`quicken`], each of which is
/// one generic variant with its operand shapes and width decided.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) enum Op {
    /// The head `lea mem, s1` of an SVM translation (see [`fuse`]): on a
    /// hit the interpreter runs the nine-instruction template in one
    /// dispatch, otherwise this is the `lea` and nothing more. The eight
    /// ops after it stay as lowered.
    SvmXlate(Xlate),
    /// The first `push` of a spill frame around an SVM translation (see
    /// [`fuse`]): on a hit the interpreter runs the pushes, the template
    /// and the pops in one dispatch, otherwise this is the `push` of
    /// `spills[0]` and nothing more. Every op after it stays as it was.
    SvmFrame {
        x: Xlate,
        /// The spilled registers in push order; the first `k` count.
        spills: [Reg; 3],
        k: u8,
    },
    // Quickened forms: each is the generic op named in its doc, with
    // `Width::Long` where the generic op has a width.
    /// `Push` of a register.
    PushReg(Reg),
    /// `Push` of a memory word.
    PushMem(Mem),
    /// `Pop` into a register.
    PopReg(Reg),
    /// `Mov` register ← register.
    MovRegReg {
        dst: Reg,
        src: Reg,
    },
    /// `Mov` register ← memory.
    MovRegMem {
        dst: Reg,
        src: Mem,
    },
    /// `Mov` memory ← register.
    MovMemReg {
        dst: Mem,
        src: Reg,
    },
    /// `Mov` memory ← immediate.
    MovMemImm {
        dst: Mem,
        imm: u32,
    },
    /// `Alu` register, immediate.
    AluRegImm {
        op: AluOp,
        dst: Reg,
        imm: u32,
    },
    /// `Alu` register, register.
    AluRegReg {
        op: AluOp,
        dst: Reg,
        src: Reg,
    },
    /// `Alu` register, memory.
    AluRegMem {
        op: AluOp,
        dst: Reg,
        src: Mem,
    },
    /// `Shift` of a register by an immediate, already taken modulo 32
    /// as the generic op takes it.
    ShiftRegImm {
        op: ShiftOp,
        dst: Reg,
        amount: u32,
    },
    /// `Cmp` of a register against an immediate.
    CmpRegImm {
        dst: Reg,
        imm: u32,
    },
    /// `Un` on a register.
    UnReg {
        op: UnOp,
        dst: Reg,
    },
    /// `Jmp` to an absolute target inside the image, held as the index
    /// of its op.
    JmpLocal(u32),
    /// `Jcc` to an absolute target inside the image, held as the index
    /// of its op.
    JccLocal {
        cond: Cond,
        target: u32,
    },
    /// `Call` of an absolute target inside the image, held as the index
    /// of its op.
    CallLocal(u32),
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
        pc >= self.base && pc < self.end()
    }

    /// Number of instructions.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Number of SVM translations (the rewriter's Figure 4 fast path)
    /// [`link`] recognised in this image; the interpreter runs each one's
    /// hit path in a single dispatch.
    pub fn fused_sites(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::SvmXlate(_)))
            .count()
    }

    /// Number of register-spill frames around an SVM translation [`link`]
    /// recognised in this image; the interpreter runs each one's hit path,
    /// pushes and pops included, in a single dispatch.
    pub fn fused_frames(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::SvmFrame { .. }))
            .count()
    }

    /// The index of the instruction at code address `pc`; `None` if `pc`
    /// is outside the image or unaligned.
    #[inline]
    pub(crate) fn index(&self, pc: u64) -> Option<usize> {
        op_index(self.base, self.ops.len(), pc)
    }

    /// The code address of instruction `i`; for `i` = [`CodeImage::len`],
    /// the address right after the last one.
    #[inline]
    pub(crate) fn addr(&self, i: usize) -> u64 {
        self.base + i as u64 * INSN_SIZE
    }

    /// Address of an exported symbol.
    pub fn export(&self, name: &str) -> Option<u64> {
        self.exports.get(name).copied()
    }

    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.base + self.ops.len() as u64 * INSN_SIZE
    }
}

/// Links `module` at `code_base`: local labels become absolute code
/// addresses; all other symbols (data symbols, externs, cross-module
/// references) are resolved through `resolve`. The head of every SVM
/// translation in the text, and the first push of every spill frame
/// around one, becomes a fused op the crate docs describe
/// ([`CodeImage::fused_sites`] and [`CodeImage::fused_frames`] count
/// them); then every hot generic form left becomes its shape-specific op
/// (the crate docs' "quickening"), a branch or call into the image
/// holding its target as an op index.
///
/// # Errors
///
/// Returns [`LinkError`] naming the first unresolvable symbol.
pub fn link<F>(module: &Module, code_base: u64, resolve: F) -> Result<CodeImage, LinkError>
where
    F: FnMut(&str) -> Option<u64>,
{
    let mut image = link_plain(module, code_base, resolve)?;
    fuse(&mut image.ops);
    let (base, len) = (image.base, image.ops.len());
    let local = |a: u64| op_index(base, len, a).and_then(|i| u32::try_from(i).ok());
    for op in &mut image.ops {
        *op = quicken(*op, local);
    }
    Ok(image)
}

/// The index of the instruction at `pc` in `len` instructions placed at
/// `base`, if `pc` is one's address.
fn op_index(base: u64, len: usize, pc: u64) -> Option<usize> {
    let offset = pc.wrapping_sub(base);
    if offset % INSN_SIZE != 0 {
        return None;
    }
    usize::try_from(offset / INSN_SIZE)
        .ok()
        .filter(|&i| i < len)
}

/// [`link`] without the recogniser and without quickening: every op is
/// its instruction, lowered to the generic variant. What the tests run
/// the linked image against.
pub(crate) fn link_plain<F>(
    module: &Module,
    code_base: u64,
    mut resolve: F,
) -> Result<CodeImage, LinkError>
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

    let ops = module
        .text
        .iter()
        .map(|insn| lower(insn, &mut lookup))
        .collect::<Result<_, _>>()?;

    let mut exports = BTreeMap::new();
    for (name, idx) in &module.labels {
        exports.insert(name.clone(), code_base + *idx as u64 * INSN_SIZE);
    }

    Ok(CodeImage {
        name: module.name.clone(),
        base: code_base,
        exports,
        ops,
    })
}

/// Replaces the head of every SVM translation in `ops` — the lowering of
/// [`stlb::template`], which the rewriter emits for each memory reference
/// of a driver — by [`Op::SvmXlate`]. Only the `lea` changes: the eight
/// ops after it stay, so a branch into the middle, the slow path's `jmp
/// retry` and every code address mean what they did.
///
/// Where liveness left fewer than three free registers, the rewriter
/// brackets the template by spills, and the first `push` of the frame
/// becomes [`Op::SvmFrame`]:
///
/// ```text
///        push  r1 … push rk        ; k ≤ 3 distinct registers of {out, s1, s2}
/// retry: <the template>
///        pop   rk … pop r1         ; right after the xor, in reverse
/// ```
///
/// `k` is the largest for which the pushes and pops pair up, and no
/// register of the frame, its `lea` operand included, is `%esp`. A frame
/// whose `out` is spilled has its access inside the frame, so its pops
/// do not follow the `xor` and it is left alone. Again every op after
/// the replaced one stays as it was.
fn fuse(ops: &mut [Op]) {
    for i in 0..ops.len().saturating_sub(TEMPLATE_LEN - 1) {
        let Some(x) = svm_xlate(&ops[i..i + TEMPLATE_LEN]) else {
            continue;
        };
        ops[i] = Op::SvmXlate(x);
        if let Some((at, frame)) = spill_frame(ops, i, x) {
            ops[at] = frame;
        }
    }
}

/// The spill frame around translation `x`, whose head is `ops[head]`, if
/// there is one: where its first push is, and the op that replaces it.
fn spill_frame(ops: &[Op], head: usize, x: Xlate) -> Option<(usize, Op)> {
    let regs = [x.out, x.s1, x.s2];
    let esp = Some(Reg::Esp);
    if regs.contains(&Reg::Esp) || x.mem.base == esp || x.mem.index == esp {
        return None;
    }
    // Pairs innermost first: the push right before the head with the pop
    // right after the xor, and so on out. Unused slots stay `%esp`.
    let (mut spills, mut k) = ([Reg::Esp; 3], 0);
    while k < 3 {
        let pair = (
            head.checked_sub(k + 1).map(|at| ops[at]),
            ops.get(head + TEMPLATE_LEN + k),
        );
        match pair {
            (Some(Op::Push { src: Opnd::Reg(r) }), Some(Op::Pop { dst: Opnd::Reg(p) }))
                if r == *p && regs.contains(&r) && !spills.contains(&r) =>
            {
                spills[k] = r;
                k += 1;
            }
            _ => break,
        }
    }
    spills[..k].reverse();
    let frame = Op::SvmFrame {
        x,
        spills,
        k: k as u8,
    };
    (k > 0).then_some((head - k, frame))
}

/// The translation `window` holds if it is one: [`stlb::template`] of the
/// window's own three distinct registers, `lea` operand, stlb address and
/// branch target, lowered, is the window.
fn svm_xlate(window: &[Op]) -> Option<Xlate> {
    use Opnd::Reg as R;
    let (
        Op::Lea { dst: s1, mem },
        Op::Mov { dst: R(out), .. },
        Op::Mov { dst: R(s2), .. },
        Op::Cmp {
            src: Opnd::Mem(Mem { disp: stlb, .. }),
            ..
        },
        Op::Jcc {
            target: Tgt::Abs(slow),
            ..
        },
    ) = (window[0], window[1], window[3], window[6], window[7])
    else {
        return None;
    };
    let addr = MemRef {
        base: mem.base,
        index: mem.index.map(|r| (r, mem.scale)),
        disp: mem.disp.into(),
        sym: None,
    };
    let table = MemRef::abs(stlb.into());
    let template = stlb::template(addr, out, s1, s2, table, Target::Abs(slow));
    // Every operand is absolute: nothing is looked up.
    let absolute = &mut |symbol: &str| -> Result<u64, LinkError> {
        Err(LinkError {
            symbol: symbol.into(),
            module: String::new(),
        })
    };
    let distinct = s1 != s2 && s1 != out && s2 != out;
    let same = window
        .iter()
        .zip(&template)
        .all(|(op, insn)| lower(insn, absolute).is_ok_and(|lowered| lowered == *op));
    (distinct && same).then_some(Xlate {
        mem,
        out,
        s1,
        s2,
        stlb,
    })
}

/// The shape-specific op for `op` if it is one of the hot generic forms,
/// `op` itself otherwise. Each quickened op decides at link time what its
/// generic arm decides every time it runs — which operand is a register,
/// memory or an immediate, and that the width is `Long` — and nothing
/// else: [`crate::interp`] gives it the same reads, charges, writes and
/// faults, in the same order. A branch or call is quickened only when
/// `local` gives its target's op index; one that leaves the image stays
/// generic.
fn quicken(op: Op, local: impl Fn(u64) -> Option<u32>) -> Op {
    use Opnd::{Imm, Mem as M, Reg as R};
    const L: Width = Width::Long;
    match op {
        Op::Push { src: R(r) } => Op::PushReg(r),
        Op::Push { src: M(m) } => Op::PushMem(m),
        Op::Pop { dst: R(r) } => Op::PopReg(r),
        Op::Mov { w: L, dst, src } => match (dst, src) {
            (R(dst), R(src)) => Op::MovRegReg { dst, src },
            (R(dst), M(src)) => Op::MovRegMem { dst, src },
            (M(dst), R(src)) => Op::MovMemReg { dst, src },
            (M(dst), Imm(imm)) => Op::MovMemImm { dst, imm },
            _ => op,
        },
        Op::Alu {
            op: alu,
            w: L,
            dst: R(dst),
            src,
        } => match src {
            Imm(imm) => Op::AluRegImm { op: alu, dst, imm },
            R(src) => Op::AluRegReg { op: alu, dst, src },
            M(src) => Op::AluRegMem { op: alu, dst, src },
        },
        Op::Shift {
            op: shift,
            dst: R(dst),
            amount: Imm(amount),
        } => Op::ShiftRegImm {
            op: shift,
            dst,
            amount: amount & 31,
        },
        Op::Cmp {
            w: L,
            src: Imm(imm),
            dst: R(dst),
        } => Op::CmpRegImm { dst, imm },
        Op::Un {
            op: un,
            w: L,
            dst: R(dst),
        } => Op::UnReg { op: un, dst },
        Op::Jmp {
            target: Tgt::Abs(a),
        } => local(a).map_or(op, Op::JmpLocal),
        Op::Jcc {
            cond,
            target: Tgt::Abs(a),
        } => local(a).map_or(op, |target| Op::JccLocal { cond, target }),
        Op::Call {
            target: Tgt::Abs(a),
        } => local(a).map_or(op, Op::CallLocal),
        _ => op,
    }
}

/// What `lower` resolves a symbol through: the module's labels first,
/// then the caller's resolver.
type Lookup<'a> = dyn FnMut(&str) -> Result<u64, LinkError> + 'a;

fn lower_mem(m: &MemRef, lookup: &mut Lookup) -> Result<Mem, LinkError> {
    let disp = match &m.sym {
        Some(sym) => m.disp.wrapping_add(lookup(sym)? as i64),
        None => m.disp,
    };
    Ok(Mem {
        base: m.base,
        index: m.index.map(|(r, _)| r),
        scale: m.index.map_or(0, |(_, s)| s),
        disp: disp as u32,
    })
}

fn lower_operand(o: &Operand, lookup: &mut Lookup) -> Result<Opnd, LinkError> {
    Ok(match o {
        Operand::Reg(r) => Opnd::Reg(*r),
        Operand::Imm(v) => Opnd::Imm(*v as u32),
        Operand::Sym(name, off) => Opnd::Imm((lookup(name)? as i64 + off) as u32),
        Operand::Mem(m) => Opnd::Mem(lower_mem(m, lookup)?),
    })
}

fn lower_target(t: &Target, lookup: &mut Lookup) -> Result<Tgt, LinkError> {
    Ok(match t {
        Target::Abs(a) => Tgt::Abs(*a),
        Target::Label(name) => Tgt::Abs(lookup(name)?),
        Target::Reg(r) => Tgt::Reg(*r),
        Target::Mem(m) => Tgt::Mem(lower_mem(m, lookup)?),
    })
}

/// Links and lowers one instruction: every symbol becomes an address or
/// the link fails.
fn lower(insn: &Insn, lookup: &mut Lookup) -> Result<Op, LinkError> {
    Ok(match insn {
        Insn::Mov { w, dst, src } => Op::Mov {
            w: *w,
            dst: lower_operand(dst, lookup)?,
            src: lower_operand(src, lookup)?,
        },
        Insn::Movzx { w, dst, src } => Op::Movzx {
            w: *w,
            dst: *dst,
            src: lower_operand(src, lookup)?,
        },
        Insn::Movsx { w, dst, src } => Op::Movsx {
            w: *w,
            dst: *dst,
            src: lower_operand(src, lookup)?,
        },
        Insn::Lea { dst, mem } => Op::Lea {
            dst: *dst,
            mem: lower_mem(mem, lookup)?,
        },
        Insn::Alu { op, w, dst, src } => Op::Alu {
            op: *op,
            w: *w,
            dst: lower_operand(dst, lookup)?,
            src: lower_operand(src, lookup)?,
        },
        Insn::Shift { op, dst, amount } => Op::Shift {
            op: *op,
            dst: lower_operand(dst, lookup)?,
            amount: lower_operand(amount, lookup)?,
        },
        Insn::Cmp { w, src, dst } => Op::Cmp {
            w: *w,
            src: lower_operand(src, lookup)?,
            dst: lower_operand(dst, lookup)?,
        },
        Insn::Test { w, src, dst } => Op::Test {
            w: *w,
            src: lower_operand(src, lookup)?,
            dst: lower_operand(dst, lookup)?,
        },
        Insn::Un { op, w, dst } => Op::Un {
            op: *op,
            w: *w,
            dst: lower_operand(dst, lookup)?,
        },
        Insn::Imul { dst, src } => Op::Imul {
            dst: *dst,
            src: lower_operand(src, lookup)?,
        },
        Insn::Push { src } => Op::Push {
            src: lower_operand(src, lookup)?,
        },
        Insn::Pop { dst } => Op::Pop {
            dst: lower_operand(dst, lookup)?,
        },
        Insn::Jmp { target } => Op::Jmp {
            target: lower_target(target, lookup)?,
        },
        Insn::Jcc { cond, target } => Op::Jcc {
            cond: *cond,
            target: lower_target(target, lookup)?,
        },
        Insn::Call { target } => Op::Call {
            target: lower_target(target, lookup)?,
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
        let img = link_plain(&m, 0x1000, |s| (s == "counter").then_some(0x2000_0000)).unwrap();
        assert_eq!(img.export("f"), Some(0x1000));
        assert_eq!(img.export("g"), Some(0x1000 + 3 * INSN_SIZE));
        // movl counter -> absolute disp
        match &img.ops[0] {
            Op::Mov {
                src: Opnd::Mem(mem),
                ..
            } => assert_eq!((mem.base, mem.index, mem.disp), (None, None, 0x2000_0000)),
            other => panic!("unexpected {other:?}"),
        }
        match &img.ops[1] {
            Op::Call {
                target: Tgt::Abs(a),
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
        assert!(img.index(0x100 + 1).is_none(), "unaligned fetch");
        assert_eq!(img.index(0x100 + 2 * INSN_SIZE), Some(2));
        assert!(matches!(img.ops[2], Op::Ret));
        assert_eq!((img.len(), img.end()), (3, img.addr(3)));
        // An address has an instruction exactly when it is inside the
        // image and aligned, and that instruction's address is it.
        for pc in 0xf8..0x100 + 4 * INSN_SIZE {
            let aligned_inside = img.contains(pc) && (pc - 0x100) % INSN_SIZE == 0;
            assert_eq!(img.index(pc).is_some(), aligned_inside, "{pc:#x}");
            if let Some(i) = img.index(pc) {
                assert_eq!(img.addr(i), pc);
            }
        }
    }

    #[test]
    fn link_quickens_the_hot_long_forms_and_only_those() {
        let hot = [
            ("pushl %eax", "PushReg"),
            ("pushl 4(%ebx)", "PushMem"),
            ("popl %ecx", "PopReg"),
            ("movl %eax, %ebx", "MovRegReg"),
            ("movl 8(%eax), %ebx", "MovRegMem"),
            ("movl %eax, (%ebx,%ecx,4)", "MovMemReg"),
            ("movl $7, (%ebx)", "MovMemImm"),
            ("addl $-1, %eax", "AluRegImm"),
            ("xorl %eax, %ecx", "AluRegReg"),
            ("andl (%ebx), %ecx", "AluRegMem"),
            ("shrl $35, %eax", "ShiftRegImm"),
            ("cmpl $2, %eax", "CmpRegImm"),
            ("negl %edx", "UnReg"),
            ("jmp f", "JmpLocal(0)"),
            ("jne f", "JccLocal { cond: Ne, target: 0 }"),
            ("call f", "CallLocal(0)"),
        ];
        let cold = [
            "movb %eax, (%ebx)",
            "movw (%ebx), %eax",
            "movl $1, %eax",
            "addl %eax, (%ebx)",
            "addb $1, %eax",
            "cmpl %eax, %ebx",
            "incw %eax",
            "pushl $5",
            "popl (%ebx)",
            "jmp *%eax",
            "call *(%ebx)",
            // Branches and calls that leave the image.
            "jmp ext",
            "je ext",
            "call ext",
        ];
        let src = hot
            .iter()
            .map(|(insn, _)| *insn)
            .chain(cold)
            .fold(String::from(".text\nf:\n"), |src, insn| {
                src + " " + insn + "\n"
            });
        let m = assemble("t", &src).unwrap();
        let ext = |s: &str| (s == "ext").then_some(0x1000 + INSN_SIZE * 100);
        let quick = link(&m, 0x1000, ext).unwrap();
        let plain = link_plain(&m, 0x1000, ext).unwrap();
        for (i, (_, name)) in hot.iter().enumerate() {
            assert!(
                format!("{:?}", quick.ops[i]).starts_with(name),
                "{i}: {name}"
            );
        }
        assert_eq!(quick.ops[hot.len()..], plain.ops[hot.len()..]);
        assert!(
            matches!(quick.ops[10], Op::ShiftRegImm { amount: 3, .. }),
            "the amount is taken modulo 32 at link time"
        );
    }

    #[test]
    fn lowering_keeps_what_linking_resolved() {
        let m = assemble(
            "t",
            ".text\nf:\n movl $table, %eax\n movl table+8(,%ecx,4), %edx\n jmp *-4(%ebx)\n call f\n",
        )
        .unwrap();
        let img = link_plain(&m, 0x1000, |s| (s == "table").then_some(0x2000_0000)).unwrap();
        assert_eq!(img.len(), m.text.len());
        assert!(std::mem::size_of::<Op>() <= 24, "an op is three words");
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
