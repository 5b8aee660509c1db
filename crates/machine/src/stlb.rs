//! The SVM translation contract (paper §4.1): the stlb's geometry and the
//! Figure 4 sequence that probes it, stated once.
//!
//! The rewriter emits [`template`] for every memory reference of a
//! driver; [`crate::image::link`] recognises exactly the lowering of
//! [`template`]; the interpreter's fused hit and `twin-svm`'s table fill
//! both address an entry by [`entry_offset`]. The masks and the shift
//! are derived from [`PAGE_SIZE`], [`ENTRIES`] and [`ENTRY_SIZE`].

use crate::PAGE_SIZE;
use twin_isa::{AluOp, Cond, Insn, MemRef, Operand, Reg, ShiftOp, Target, Width};

/// Entries in the table (paper §4.1: "an stlb hashtable with 4096
/// entries, mapping up to 16MB of dom0 virtual memory").
pub const ENTRIES: u64 = 4096;

/// Bytes per entry: the tag word, then the xor word.
pub const ENTRY_SIZE: u64 = 8;

/// Offset of an entry's xor word, which holds `tag ^ mapped page`.
pub const XOR_WORD: u64 = 4;

/// The page of an address: every bit above the page offset. An entry's
/// tag is the page it maps.
pub const PAGE_MASK: u32 = !(PAGE_SIZE as u32 - 1);

/// The bits of an address that pick its entry: its page number modulo
/// [`ENTRIES`], still in place.
pub const ENTRY_MASK: u32 = (ENTRIES * PAGE_SIZE - 1) as u32 & PAGE_MASK;

/// The right shift that turns the bits [`ENTRY_MASK`] keeps into the
/// entry's byte offset in the table.
pub const SHIFT: u32 = PAGE_SIZE.trailing_zeros() - ENTRY_SIZE.trailing_zeros();

/// Instructions in [`template`].
pub const TEMPLATE_LEN: usize = 9;

const _: () = {
    assert!(PAGE_SIZE.is_power_of_two() && ENTRIES.is_power_of_two());
    // Two 32-bit words; the shift is to the right; the masks fit 32 bits.
    assert!(ENTRY_SIZE == 2 * XOR_WORD && XOR_WORD == 4);
    assert!(ENTRY_SIZE <= PAGE_SIZE && ENTRIES * PAGE_SIZE <= 1 << 32);
    // The largest offset is the table's last entry.
    assert!((ENTRY_MASK >> SHIFT) as u64 == (ENTRIES - 1) * ENTRY_SIZE);
};

/// Byte offset in the table of `vaddr`'s entry: what [`template`] leaves
/// in `s1` before it compares.
#[inline]
pub const fn entry_offset(vaddr: u32) -> u32 {
    (vaddr & ENTRY_MASK) >> SHIFT
}

/// The paper's Figure 4 fast path: translates the address `addr` names
/// into `out` through the table at `stlb` (a reference naming no
/// register), branching to `slow` on a miss; `s1` and `s2` are scratch.
///
/// ```text
/// leal  addr, s1              ; the untranslated address
/// movl  s1, out
/// andl  $PAGE_MASK, s1
/// movl  s1, s2                ; its page
/// andl  $ENTRY_MASK, s1
/// shrl  $SHIFT, s1            ; its entry's offset
/// cmpl  stlb(,s1,1), s2       ; tag == page?
/// jne   slow                  ; miss: fill the entry, then retry
/// xorl  stlb+4(,s1,1), out    ; page -> mapped page
/// ```
///
/// Nine ops, then the access through `(out)`. The xor word holds
/// `tag ^ mapped page`, so one `xor` of the whole address yields the
/// mapped address with its page offset kept.
pub fn template(
    addr: MemRef,
    out: Reg,
    s1: Reg,
    s2: Reg,
    stlb: MemRef,
    slow: Target,
) -> [Insn; TEMPLATE_LEN] {
    let long = Width::Long;
    let mov = |dst, src| Insn::Mov {
        w: long,
        dst: Operand::Reg(dst),
        src: Operand::Reg(src),
    };
    let alu = |op, dst, src| Insn::Alu {
        op,
        w: long,
        dst: Operand::Reg(dst),
        src,
    };
    let word = |at: u64| {
        Operand::Mem(MemRef {
            index: Some((s1, 1)),
            disp: stlb.disp + at as i64,
            ..stlb.clone()
        })
    };
    [
        Insn::Lea { dst: s1, mem: addr },
        mov(out, s1),
        alu(AluOp::And, s1, Operand::Imm(PAGE_MASK.into())),
        mov(s2, s1),
        alu(AluOp::And, s1, Operand::Imm(ENTRY_MASK.into())),
        Insn::Shift {
            op: ShiftOp::Shr,
            dst: Operand::Reg(s1),
            amount: Operand::Imm(SHIFT.into()),
        },
        Insn::Cmp {
            w: long,
            src: word(0),
            dst: Operand::Reg(s2),
        },
        Insn::Jcc {
            cond: Cond::Ne,
            target: slow,
        },
        alu(AluOp::Xor, out, word(XOR_WORD)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_isa::asm::assemble;

    /// Figure 4 as the paper prints it, with `%eax`, `%ebx`, `%edx` for
    /// its `s1`, `s2`, `out`.
    const FIGURE_4: &str = "
        leal 8(%esi), %eax
        movl %eax, %edx
        andl $0xfffff000, %eax
        movl %eax, %ebx
        andl $0x00fff000, %eax
        shrl $9, %eax
        cmpl stlb(,%eax,1), %ebx
        jne slow
        xorl stlb+4(,%eax,1), %edx
    ";

    #[test]
    fn the_template_is_figure_4() {
        let paper = assemble("fig4", &format!(".text\n{FIGURE_4}\nslow:\n hlt\n")).unwrap();
        let paper = &paper.text[..TEMPLATE_LEN];
        let ours = template(
            MemRef::base_disp(Reg::Esi, 8),
            Reg::Edx,
            Reg::Eax,
            Reg::Ebx,
            MemRef::sym("stlb", 0),
            Target::Label("slow".into()),
        );
        let text = |insns: &[Insn]| insns.iter().map(Insn::to_string).collect::<Vec<_>>();
        assert_eq!(text(&ours), text(paper));
        assert_eq!(ours[..], *paper);
    }
}
