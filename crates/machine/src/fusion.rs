//! What `link` makes of a text against what `link_plain` makes of it
//! (test-only).
//!
//! [`crate::image::link`] turns the head of every SVM translation, and
//! the first push of every spill frame around one, into an op whose hit
//! path the interpreter runs in a single dispatch, and every hot generic
//! form left into a shape-specific op (see [`crate::interp`]). Nothing
//! may tell the two links apart: every test here runs the same code on
//! two machines, one linked by `link` and one by [`link_plain`], and
//! compares everything a caller can observe.

use crate::image::{link_plain, Op};
use crate::interp::{Flags, FRAME_HITS, FUSED_HITS};
use crate::space::Tlb;
use crate::stlb::{self, ENTRY_MASK, PAGE_MASK, SHIFT, XOR_WORD};
use crate::{
    run, CostDomain, Cpu, Env, ExecMode, ExternId, Fault, ImageId, Machine, NullEnv, PageEntry,
    StopReason, Term, PAGE_SIZE,
};
use proptest::prelude::*;
use std::sync::Arc;
use twin_isa::asm::assemble;
use twin_isa::{Insn, MemRef, Reg, Target, Width};

const CODE: u64 = 0x0800_0000;
const STACK: u64 = 0x3000_0000;
/// The stlb's pages: the table's, and one page more for a table that
/// starts a few bytes in.
const STLB: u64 = 0x2000_0000;
const STLB_PAGES: u64 = stlb::ENTRIES * stlb::ENTRY_SIZE / PAGE_SIZE + 1;

/// [`stlb::template`] as the rewriter emits it, as text: translating the
/// address `mem` names through the table `stlb`, missing to `slow`.
fn template(mem: &str, [s1, s2, out]: [Reg; 3]) -> String {
    let lea = assemble("t", &format!(".text\n leal {mem}, %eax\n")).unwrap();
    let Insn::Lea { mem, .. } = &lea.text[0] else {
        unreachable!("assembled a lea")
    };
    let slow = Target::Label("slow".into());
    stlb::template(mem.clone(), out, s1, s2, MemRef::sym("stlb", 0), slow)
        .iter()
        .map(|insn| format!(" {insn}\n"))
        .collect()
}

/// A machine with `src` loaded at [`CODE`], linked by [`crate::image::link`]
/// or, for `fused == false`, by [`link_plain`]; the stlb mapped at
/// [`STLB`] with `stlb` resolving to `table`, and a stack.
fn world(src: &str, table: u64, fused: bool) -> (Machine, Cpu) {
    let module = assemble("t", src).unwrap();
    let mut m = Machine::new();
    let space = m.new_space();
    m.map_fresh(space, STLB, STLB_PAGES).unwrap();
    m.map_stack(space, STACK, 2).unwrap();
    let resolve = |name: &str| (name == "stlb").then_some(table);
    let id = m.load_image(&module, CODE, resolve).unwrap();
    if !fused {
        let externs = |name: &str| resolve(name).or_else(|| m.extern_addr(name));
        let plain = link_plain(&module, CODE, externs).unwrap();
        m.images[id.0] = Arc::new(plain);
    }
    let sites = if fused {
        src.matches("leal").count()
    } else {
        0
    };
    assert_eq!(m.image(id).fused_sites(), sites);
    let mut cpu = Cpu::new(space, ExecMode::Guest);
    cpu.set_stack(STACK + 2 * PAGE_SIZE);
    (m, cpu)
}

/// Both links of `src`: fused first.
fn both(src: &str, table: u64) -> [(Machine, Cpu); 2] {
    [world(src, table, true), world(src, table, false)]
}

/// Everything a run leaves behind that a caller can look at, memory
/// aside.
#[derive(PartialEq, Debug)]
struct Seen {
    regs: [u32; 8],
    flags: Flags,
    pc: u64,
    insns: u64,
    cycles: [u64; CostDomain::ALL.len()],
    now: u64,
}

fn observe(m: &Machine, cpu: &Cpu) -> Seen {
    Seen {
        regs: Reg::ALL.map(|r| cpu.reg(r)),
        flags: cpu.flags,
        pc: cpu.pc,
        insns: m.meter.insns(),
        cycles: CostDomain::ALL.map(|d| m.meter.cycles(d)),
        now: m.now_cycles(),
    }
}

/// Fused hits on this thread since the last call: the one thing the
/// two links differ in.
fn fused_hits() -> u64 {
    FUSED_HITS.with(|hits| hits.replace(0))
}

/// Fused spill-frame hits on this thread since the last call.
fn frame_hits() -> u64 {
    FRAME_HITS.with(|hits| hits.replace(0))
}

fn memory(m: &Machine) -> &[u8] {
    let frames = m.phys.total_frames() - m.phys.free_frames();
    m.phys.read_bytes(0, frames * PAGE_SIZE as usize)
}

fn entry(m: &Machine, label: &str) -> u64 {
    m.image(crate::ImageId(0)).export(label).expect(label)
}

/// Writes the stlb entry of `page` in the table at `table`.
fn fill(m: &mut Machine, cpu: &Cpu, table: u64, page: u32, tag: u32, xor: u32) {
    let e = table + u64::from(stlb::entry_offset(page));
    // An entry on an unmapped page stays unwritten.
    let _ = m.write_u32(cpu.space, cpu.mode, e, tag);
    let _ = m.write_u32(cpu.space, cpu.mode, e + XOR_WORD, xor);
}

// ---- what the recogniser takes and what it leaves alone ----

const REGS: [Reg; 3] = [Reg::Eax, Reg::Ebx, Reg::Edx];

fn fused_sites(src: &str) -> usize {
    let module = assemble("t", &format!("{src}\nslow:\n hlt\n")).unwrap();
    let link = |table| crate::image::link(&module, CODE, |s| (s == "stlb").then_some(table));
    let image = link(STLB).unwrap();
    assert_eq!(image.len(), module.text.len());
    // Where the table lies is not part of the shape.
    assert_eq!(
        link(0xf020_0004).unwrap().fused_sites(),
        image.fused_sites()
    );
    image.fused_sites()
}

#[test]
fn the_template_is_fused_whatever_its_operand_and_registers() {
    assert_eq!(fused_sites(&template("8(%esi,%ecx,4)", REGS)), 1);
    assert_eq!(fused_sites(&template("0x1234", REGS)), 1);
    // The operand may name the scratch registers: it is read first.
    assert_eq!(fused_sites(&template("(%eax,%edx,2)", REGS)), 1);
    assert_eq!(
        fused_sites(&template("(%esi)", [Reg::Eax, Reg::Ebx, Reg::Esi])),
        1
    );
    let twice = template("(%esi)", REGS) + &template("(%edi)", REGS);
    assert_eq!(fused_sites(&twice), 2);
}

#[test]
fn anything_but_the_template_is_left_as_it_was_lowered() {
    let good = template("(%esi)", REGS);
    let (page, shift) = (format!("${PAGE_MASK}"), format!("shrl ${SHIFT}"));
    let xor = format!("stlb+{XOR_WORD}(");
    for (from, to) in [
        // Another mask, shift, condition, operation or width.
        (page.clone(), format!("${}", PAGE_MASK << 1)),
        (
            format!("${ENTRY_MASK}"),
            format!("${}", (ENTRY_MASK >> 1) & ENTRY_MASK),
        ),
        (shift.clone(), format!("shrl ${}", SHIFT - 1)),
        (shift.clone(), format!("shll ${SHIFT}")),
        ("jne slow".into(), "je slow".into()),
        ("xorl".into(), "addl".into()),
        ("cmpl".into(), "cmpw".into()),
        (format!("andl {page}"), format!("orl {page}")),
        // The xor word elsewhere; the words scaled, or based.
        (xor.clone(), format!("stlb+{}(", 2 * XOR_WORD)),
        (xor.clone(), "stlb(".into()),
        ("stlb(,%eax,1)".into(), "stlb(,%eax,2)".into()),
        (format!("{xor},%eax,1)"), format!("{xor}%eax)")),
        // An op of the nine missing, moved or doubled.
        ("movl %eax, %ebx".into(), "nop".into()),
        (format!("{shift}, %eax"), format!("{shift}, %eax\n nop")),
        // The tag compared the other way round.
        (
            "cmpl stlb(,%eax,1), %ebx".into(),
            "cmpl %ebx, stlb(,%eax,1)".into(),
        ),
    ] {
        assert!(good.contains(&from), "{from}");
        assert_eq!(fused_sites(&good.replace(&from, &to)), 0, "{from} -> {to}");
    }
    // Registers that alias.
    for regs in [
        [Reg::Eax, Reg::Eax, Reg::Edx],
        [Reg::Eax, Reg::Ebx, Reg::Eax],
        [Reg::Eax, Reg::Ebx, Reg::Ebx],
    ] {
        assert_eq!(fused_sites(&template("(%esi)", regs)), 0, "{regs:?}");
    }
    // Too short a text to hold one.
    assert_eq!(fused_sites("f:\n leal (%esi), %eax\n"), 0);
}

/// [`template`] of `mem` after pushes of `pushes` and before pops of
/// `pops`, `inside` between its `xor` and the pops: how the rewriter
/// brackets a translation by spills where liveness leaves fewer than
/// three free registers — with the access inside when `out` itself is
/// spilled.
pub(crate) fn bracketed(
    mem: &str,
    regs: [Reg; 3],
    pushes: &[Reg],
    pops: &[Reg],
    inside: &str,
) -> String {
    let each = |op: &str, regs: &[Reg]| -> String {
        regs.iter()
            .map(|r| format!(" {op} %{}\n", r.name()))
            .collect()
    };
    format!(
        "{}{}{inside}{}",
        each("pushl", pushes),
        template(mem, regs),
        each("popl", pops)
    )
}

/// A spill frame of `spills` (push order) around a translation of `mem`.
fn framed(mem: &str, regs: [Reg; 3], spills: &[Reg]) -> String {
    let pops: Vec<Reg> = spills.iter().rev().copied().collect();
    bracketed(mem, regs, spills, &pops, "")
}

/// Where `link` put spill frames in `src`: each one's op index and how
/// many registers it spills.
fn frames_in(src: &str) -> Vec<(usize, usize)> {
    let module = assemble("t", &format!("{src}\nslow:\n hlt\n")).unwrap();
    let image = crate::image::link(&module, CODE, |s| (s == "stlb").then_some(STLB)).unwrap();
    let frames: Vec<(usize, usize)> = image
        .ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match op {
            Op::SvmFrame { k, .. } => Some((i, usize::from(*k))),
            _ => None,
        })
        .collect();
    assert_eq!(image.fused_frames(), frames.len());
    frames
}

#[test]
fn a_spill_frame_is_fused_at_its_first_push_whatever_its_size_and_order() {
    let [s1, s2, out] = REGS;
    for spills in [
        &[s1][..],
        &[s2],
        &[out],
        &[s1, s2],
        &[s2, s1],
        &[out, s1],
        &[s1, s2, out],
        &[out, s2, s1],
    ] {
        let src = framed("8(%esi,%ecx,4)", REGS, spills);
        assert_eq!(frames_in(&src), [(0, spills.len())], "{spills:?}");
        assert_eq!(fused_sites(&src), 1, "the translation stays fused");
    }
    let two = format!(
        " movl %ecx, %esi\n{}{}",
        framed("(%esi)", REGS, &[s1]),
        framed("(%edi)", REGS, &[s2, out])
    );
    assert_eq!(frames_in(&two), [(1, 1), (12, 2)]);
}

#[test]
fn a_frame_is_what_pairs_up_around_the_translation_and_no_more() {
    let [s1, s2, out] = REGS;
    let ecx = Reg::Ecx;
    for (pushes, pops, inside, want) in [
        // Pairs count innermost first, as far as they go.
        (&[ecx, s1][..], &[s1, ecx][..], "", &[(1, 1)][..]),
        (&[s1, s1], &[s1, s1], "", &[(1, 1)]),
        (&[s2, s1, s2], &[s2, s1, s2], "", &[(1, 2)]),
        // Popped in push order, or not popped.
        (&[s1, s2], &[s1, s2], "", &[]),
        (&[s1], &[], "", &[]),
        // `out` spilled: the access sits inside the frame.
        (&[s1, out], &[out, s1], " movl %ecx, (%edx)\n", &[]),
    ] {
        let src = bracketed("(%ecx)", REGS, pushes, pops, inside);
        assert_eq!(frames_in(&src), want, "{pushes:?} / {pops:?} / {inside:?}");
        assert_eq!(fused_sites(&src), 1);
    }
    // `%esp` in the frame, as the operand's base or as a register of the
    // template: the translation alone is fused.
    for src in [
        framed("4(%esp)", REGS, &[s1]),
        framed("(%esi)", [s1, Reg::Esp, out], &[s1]),
    ] {
        assert_eq!((frames_in(&src), fused_sites(&src)), (vec![], 1), "{src}");
    }
}

// ---- entry anywhere but the head ----

/// A translation of `(%esi)` entered at `f`, its fourth instruction
/// labelled `third`; halts after it, or in the slow path.
fn entered_by(prologue: &str) -> String {
    format!(
        ".text\n.globl f\nf:\n{prologue}\n{}\n hlt\nslow:\n hlt\n",
        template("(%esi)", REGS).replace("movl %eax, %ebx", "third:\n movl %eax, %ebx")
    )
}

#[test]
fn a_jump_into_the_template_runs_the_ops_that_were_left_in_place() {
    const PAGE: u32 = 0x0123_4000;
    for prologue in [
        // Ops 0..=2 done by hand on another address, then the tail.
        " movl $0x01234567, %edx\n movl $0x01234000, %eax\n jmp third",
        " movl $0x01234567, %edx\n movl $0x01234000, %eax\n movl $third, %ecx\n jmp *%ecx",
    ] {
        let seen = both(&entered_by(prologue), STLB).map(|(mut m, mut cpu)| {
            fill(&mut m, &cpu, STLB, PAGE, PAGE, 0xf000_0000);
            cpu.set_reg(Reg::Esi, 0x0765_4321);
            cpu.pc = entry(&m, "f");
            assert_eq!(
                run(&mut m, &mut cpu, &mut NullEnv, 100),
                Ok(StopReason::Halted)
            );
            assert_eq!(cpu.pc, entry(&m, "slow"), "halted after the xor");
            assert_eq!(fused_hits(), 0, "the head never ran");
            observe(&m, &cpu)
        });
        assert_eq!(seen[0], seen[1]);
        let regs = seen[0].regs;
        assert_eq!(regs[Reg::Edx.index()], 0xf123_4567, "{prologue}");
        assert_eq!(regs[Reg::Ebx.index()], PAGE);
        assert_eq!(regs[Reg::Eax.index()], stlb::entry_offset(PAGE));
    }
}

/// `__svm_slow` as the hypervisor's: fills the entry of the address on
/// the stack and counts its calls.
struct SlowPath {
    calls: u32,
}

impl Env for SlowPath {
    fn extern_call(&mut self, id: ExternId, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault> {
        assert_eq!(m.extern_name(id), Some("__svm_slow"));
        self.calls += 1;
        let page = cpu.arg(m, 0)? & PAGE_MASK;
        fill(m, cpu, STLB, page, page, 0x5000_0000);
        m.pay(Term::StlbSlowPath);
        Ok(())
    }
    fn mmio_read(&mut self, _: &mut Machine, _: u32, a: u64, _: Width) -> Result<u32, Fault> {
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

#[test]
fn the_slow_path_retries_through_the_head_it_left() {
    // Two translations of the same page: the first misses, is filled and
    // retried; the second hits at once.
    let src = format!(
        ".extern __svm_slow\n.text\n.globl f\nf:\nretry:\n{first}\n{second}\n ret\n\
         slow:\n pushl %edx\n call __svm_slow\n addl $4, %esp\n jmp retry\n",
        first = template("8(%esi)", REGS),
        second = template("12(%esi)", [Reg::Ecx, Reg::Ebx, Reg::Edi])
    );
    let seen = both(&src, STLB).map(|(mut m, mut cpu)| {
        // An entry that collides with the one wanted.
        fill(&mut m, &cpu, STLB, 0x0123_4000, 0x0923_4000, 0x1111_0000);
        cpu.set_reg(Reg::Esi, 0x0123_4560);
        cpu.push_call_frame(&mut m, &[]).unwrap();
        cpu.pc = entry(&m, "f");
        let mut env = SlowPath { calls: 0 };
        assert_eq!(
            run(&mut m, &mut cpu, &mut env, 100),
            Ok(StopReason::Returned)
        );
        assert_eq!(env.calls, 1);
        (observe(&m, &cpu), fused_hits())
    });
    let [(fused, fused_hits), (plain, plain_hits)] = seen;
    assert_eq!(fused, plain);
    assert_eq!((fused_hits, plain_hits), (2, 0), "the retry and the second");
    assert_eq!(fused.regs[Reg::Edx.index()], 0x5123_4568);
    assert_eq!(fused.regs[Reg::Edi.index()], 0x5123_456c);
    // 8 to the `jne`, 4 in the slow path, 9 + 9 hitting, the `ret`.
    assert_eq!(fused.insns, 8 + 4 + 9 + 9 + 1);
}

#[test]
fn the_fused_hit_charges_what_the_cost_table_says_when_it_runs() {
    let src = entered_by("");
    let seen = both(&src, STLB).map(|(mut m, mut cpu)| {
        fill(&mut m, &cpu, STLB, 0x0123_4000, 0x0123_4000, 0);
        cpu.set_reg(Reg::Esi, 0x0123_4567);
        let mut totals = Vec::new();
        // Cold, warm, then warm under other prices.
        for (alu, load) in [(1, 4), (1, 4), (7, 30)] {
            m.cost.set(Term::Alu, alu);
            m.cost.set(Term::Load, load);
            cpu.pc = entry(&m, "f");
            assert_eq!(
                run(&mut m, &mut cpu, &mut NullEnv, 100),
                Ok(StopReason::Halted)
            );
            totals.push(m.meter.total_cycles());
        }
        (totals, fused_hits())
    });
    let [(fused, fused_hits), (plain, plain_hits)] = seen;
    assert_eq!(fused, plain);
    assert_eq!((fused_hits, plain_hits), (2, 0), "the two warm runs");
    let hit = |alu: u64, load: u64| 3 + 5 * alu + 2 * load + 1;
    assert_eq!(
        fused,
        [hit(1, 4), 2 * hit(1, 4), 2 * hit(1, 4) + hit(7, 30)]
    );
}

#[test]
fn a_spill_frame_hit_writes_its_slots_restores_its_registers_and_charges_both() {
    let [s1, s2, out] = REGS;
    let src = format!(
        ".text\n.globl f\nf:\n{} hlt\nslow:\n hlt\n",
        framed("(%esi)", REGS, &[s2, s1])
    );
    let top = STACK + 2 * PAGE_SIZE - 0x100;
    let seen = both(&src, STLB).map(|(mut m, mut cpu)| {
        fill(&mut m, &cpu, STLB, 0x0123_4000, 0x0123_4000, 0x7000_0000);
        let mut totals = Vec::new();
        // Cold, warm, then warm under other prices.
        for (store, load, v) in [(4, 4, 0xa0), (4, 4, 0xa1), (2, 11, 0xa2)] {
            m.cost.set(Term::Store, store);
            m.cost.set(Term::Load, load);
            cpu.set_stack(top);
            for (r, v) in [(Reg::Esi, 0x0123_4567), (s1, v), (s2, v << 8), (out, 0xc3)] {
                cpu.set_reg(r, v);
            }
            cpu.pc = entry(&m, "f");
            assert_eq!(
                run(&mut m, &mut cpu, &mut NullEnv, 100),
                Ok(StopReason::Halted)
            );
            totals.push(m.meter.total_cycles());
        }
        let slot = |at: u64| m.read_u32(cpu.space, cpu.mode, at).unwrap();
        let slots = [slot(top - 4), slot(top - 8)];
        (
            observe(&m, &cpu),
            totals,
            slots,
            [frame_hits(), fused_hits()],
        )
    });
    let [fused, plain] = seen;
    assert_eq!(fused.0, plain.0);
    assert_eq!((fused.1.clone(), fused.2), (plain.1, plain.2));
    assert_eq!((fused.3, plain.3), ([2, 0], [0, 0]), "the warm runs, whole");
    assert_eq!(fused.2, [0xa200, 0xa2], "the last run's, pushed in order");
    let regs = fused.0.regs;
    assert_eq!(
        [s1, s2, out, Reg::Esp].map(|r| regs[r.index()]),
        [0xa2, 0xa200, 0x7123_4567, top as u32]
    );
    let per_run = |store: u64, load: u64| 2 * store + (3 + 5 + 2 * load + 1) + 2 * load;
    assert_eq!(
        fused.1,
        [
            per_run(4, 4),
            2 * per_run(4, 4),
            2 * per_run(4, 4) + per_run(2, 11)
        ]
    );
    assert_eq!(fused.0.insns, 3 * (2 + 9 + 2 + 1));
}

// ---- the properties of the fused ops ----

/// Pages the translated addresses fall on: two that share an stlb entry,
/// the table's first and last entries, and one whose entry lies on the
/// table's fifth page.
const TARGETS: [u32; 5] = [
    0x0123_4000,
    0x0923_4000,
    0x7700_0000,
    ((stlb::ENTRIES - 1) * PAGE_SIZE) as u32,
    0xc020_0000,
];

/// Where the table may start: page-aligned, as `twin-svm` places it; a
/// word in; so that an entry's two words lie on two pages; so that a tag
/// word straddles two pages.
const TABLES: [u64; 4] = [STLB, STLB + 4, STLB + 0xffc, STLB + 0xffe];

/// A page whose translation shares the interpreter's translation-cache
/// slot with `page`'s, away from everything else the tests map.
fn rival_of(page: u64) -> u64 {
    let slot = Tlb::slot(page / PAGE_SIZE);
    let vpn = (0x4_0000..).find(|vpn| Tlb::slot(*vpn) == slot);
    vpn.expect("every slot has pages") * PAGE_SIZE
}

/// A page the tests edit: one of the stlb's, or one of the stack's two.
#[derive(Copy, Clone, Debug)]
enum Page {
    Stlb(u64),
    Stack(u64),
}

impl Page {
    fn all() -> impl Iterator<Item = Page> {
        (0..STLB_PAGES)
            .map(Page::Stlb)
            .chain((0..2).map(Page::Stack))
    }

    fn addr(self) -> u64 {
        match self {
            Page::Stlb(i) => STLB + i * PAGE_SIZE,
            Page::Stack(i) => STACK + i * PAGE_SIZE,
        }
    }
}

/// Where `%esp` stands when a spill frame starts.
#[derive(Copy, Clone, Debug)]
enum StackAt {
    /// Well inside the stack's upper page.
    Inside,
    /// `.0` words above the stack's base: the lower slots fall on the
    /// unmapped guard page below it.
    NearGuard(u32),
    /// So that the first slot straddles the stack's two pages.
    Straddling,
    /// `.0` words above the stlb entry the run translates through: the
    /// pushes write the words the `cmp` and the `xor` then read.
    OnTheEntry(u32),
}

#[derive(Clone, Debug)]
enum Step {
    /// Translate an address `.1` bytes into `TARGETS[.0]`, once at every
    /// budget from 0 to a little past the whole sequence (all the ways
    /// it can be cut short, and a few more); the other registers and the
    /// flags are drawn from `.2`, `%esp` — in a frame — from `.3`.
    Run(usize, u32, u64, StackAt),
    /// Write `TARGETS[.0]`'s entry: its own tag or (`.1`) its rival's.
    Fill(usize, bool, u32),
    /// Page-table edits: unmap; map the page's own frame back; make it
    /// a device's.
    Unmap(Page),
    Remap(Page),
    MapMmio(Page),
    /// Map the page's own frame back read-only, then load a word of it
    /// and of every target's stlb entry: from then on the page is cached
    /// read-only and a frame whose slots are on it finds everything else
    /// it needs in the cache.
    Protect(Page),
    /// Push the page out of the translation cache.
    Evict(Page),
}

fn page() -> impl Strategy<Value = Page> {
    prop_oneof![
        (0u64..STLB_PAGES).prop_map(Page::Stlb),
        (0u64..STLB_PAGES).prop_map(Page::Stlb),
        (0u64..2).prop_map(Page::Stack),
    ]
}

fn stack_at() -> impl Strategy<Value = StackAt> + Clone {
    prop_oneof![
        Just(StackAt::Inside),
        Just(StackAt::Inside),
        Just(StackAt::Inside),
        (0u32..4).prop_map(StackAt::NearGuard),
        Just(StackAt::Straddling),
        (0u32..4).prop_map(StackAt::OnTheEntry),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    let target = 0usize..TARGETS.len();
    let offset = prop_oneof![0u32..8, 0xff8u32..0x1000, 0u32..0x1000];
    let run = (target.clone(), offset, any::<u64>(), stack_at())
        .prop_map(|(t, off, seed, at)| Step::Run(t, off, seed, at));
    let fill =
        (target, 0u8..4, any::<u32>()).prop_map(|(t, wrong, x)| Step::Fill(t, wrong == 0, x));
    // Mostly translations over a table that mostly holds them, as in a
    // driver's run; every edit empties the translation cache.
    prop_oneof![
        run.clone(),
        run.clone(),
        run.clone(),
        run.clone(),
        run.clone(),
        run,
        fill.clone(),
        fill,
        page().prop_map(Step::Unmap),
        page().prop_map(Step::Remap),
        page().prop_map(Step::Remap),
        page().prop_map(Step::MapMmio),
        (0u64..2).prop_map(|i| Step::Protect(Page::Stack(i))),
        page().prop_map(Step::Evict),
        page().prop_map(Step::Evict),
    ]
}

/// (base, index, scale) of the `lea`'s operand and (s1, s2, out), by
/// register number; 8 is "no register".
fn shape() -> impl Strategy<Value = ((usize, usize, u8), [Reg; 3])> {
    let scale = prop_oneof![Just(1u8), Just(2), Just(4), Just(8)];
    let regs = (0usize..8, 1usize..8, 0usize..6).prop_map(|(s1, step, out)| {
        // Three distinct registers.
        let s2 = (s1 + step) % 8;
        let mut free = Reg::ALL.to_vec();
        free.retain(|r| r.index() != s1 && r.index() != s2);
        [Reg::ALL[s1], Reg::ALL[s2], free[out]]
    });
    ((0usize..9, 0usize..9, scale), regs)
}

/// Every register and flag drawn from `seed`.
fn seed_cpu(cpu: &mut Cpu, seed: u64) {
    let mut bits = seed;
    for r in Reg::ALL {
        bits = bits.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
        cpu.set_reg(r, (bits >> 32) as u32);
    }
    cpu.flags = Flags {
        zf: seed & 1 != 0,
        sf: seed & 2 != 0,
        cf: seed & 4 != 0,
        of: seed & 8 != 0,
    };
}

/// One translation as a property draws it: the `lea`'s operand, the
/// template's registers, the registers spilled around it (push order;
/// none for a bare translation) and where the table lies.
struct Site {
    base: Option<Reg>,
    index: Option<Reg>,
    scale: u8,
    disp: u32,
    regs: [Reg; 3],
    spills: Vec<Reg>,
    table: u64,
}

impl Site {
    fn new(
        ((base, index, scale), regs): ((usize, usize, u8), [Reg; 3]),
        spills: Vec<Reg>,
        disp: u32,
        table: usize,
    ) -> Site {
        // In a frame, an operand naming `%esp` would leave the frame
        // unfused.
        let usable = |r: &Reg| spills.is_empty() || *r != Reg::Esp;
        let reg = |i: usize| Reg::ALL.get(i).copied().filter(usable);
        let (base, index) = (reg(base), reg(index));
        // An absolute operand names one of the targets.
        let disp = match base.or(index) {
            Some(_) => disp,
            None => TARGETS[disp as usize % TARGETS.len()] + (disp >> 20),
        };
        Site {
            base,
            index,
            scale,
            disp,
            regs,
            spills,
            table: TABLES[table],
        }
    }

    fn source(&self) -> String {
        let (disp, scale) = (self.disp, self.scale);
        let operand = match (self.base, self.index) {
            (None, None) => format!("{disp}"),
            (Some(b), None) => format!("{disp}(%{})", b.name()),
            (None, Some(i)) => format!("{disp}(,%{},{scale})", i.name()),
            (Some(b), Some(i)) => format!("{disp}(%{},%{},{scale})", b.name(), i.name()),
        };
        format!(
            ".text\n.globl f\nf:\n{} hlt\nslow:\n hlt\n.globl evict\nevict:\n movl (%ebx), %eax\n hlt\n",
            framed(&operand, self.regs, &self.spills)
        )
    }

    /// Instructions from the first push to the last pop.
    fn len(&self) -> u64 {
        (2 * self.spills.len() + stlb::TEMPLATE_LEN) as u64
    }

    /// Seeds every register and flag from `seed`, stands `%esp` where
    /// `at` says (in a frame), then aims the operand's first register at
    /// `want`.
    fn prepare(&self, cpu: &mut Cpu, seed: u64, at: StackAt, want: u32) {
        seed_cpu(cpu, seed);
        if !self.spills.is_empty() {
            let entry = self.table + u64::from(stlb::entry_offset(want));
            let esp = match at {
                StackAt::Inside => STACK + PAGE_SIZE + 0x800,
                StackAt::NearGuard(words) => STACK + 4 * u64::from(words),
                StackAt::Straddling => STACK + PAGE_SIZE + 2,
                StackAt::OnTheEntry(words) => entry + 4 * u64::from(words),
            };
            cpu.set_stack(esp);
        }
        let Some(aim) = self.base.or(self.index) else {
            return;
        };
        // The address is disp + k·aim + rest.
        let (mut k, mut rest) = (0, self.disp);
        for (r, weight) in [(self.base, 1), (self.index, u32::from(self.scale))] {
            match r {
                Some(r) if r == aim => k += weight,
                Some(r) => rest = rest.wrapping_add(cpu.reg(r).wrapping_mul(weight)),
                None => {}
            }
        }
        cpu.set_reg(aim, want.wrapping_sub(rest) / k);
    }
}

/// Runs `site` again and again on a fused and a plain machine while the
/// stlb's contents, the stlb's and the stack's mappings and the
/// translation cache change under it, and asserts after every step that
/// the two agree on the CPU, the memory, every outcome and the meter —
/// at every budget. `prices` go to the terms the sequence charges.
fn fused_and_plain_agree(site: &Site, prices: &[u64], steps: &[Step]) {
    let mut worlds = both(&site.source(), site.table);
    let frames = usize::from(!site.spills.is_empty());
    assert_eq!(worlds[0].0.image(ImageId(0)).fused_frames(), frames);
    let own: Vec<(u64, u64)> = Page::all()
        .map(|p| {
            let (m, cpu) = &worlds[0];
            (p.addr(), m.space(cpu.space).lookup(p.addr()).unwrap().pfn)
        })
        .collect();
    let terms = [
        Term::MovReg,
        Term::Alu,
        Term::Load,
        Term::Store,
        Term::BranchTaken,
        Term::BranchNotTaken,
    ];
    for (m, cpu) in &mut worlds {
        for &(addr, _) in &own {
            m.map_fresh(cpu.space, rival_of(addr), 1).unwrap();
        }
        for (term, price) in terms.into_iter().zip(prices) {
            m.cost.set(term, *price);
        }
        m.meter.push_domain(CostDomain::Driver);
        for page in TARGETS {
            fill(m, cpu, site.table, page, page, page.rotate_left(7));
        }
    }
    let last = site.len() + 3;
    for step in steps {
        let mut outcomes = Vec::new();
        for (m, cpu) in &mut worlds {
            match *step {
                Step::Run(target, offset, seed, at) => {
                    for budget in 0..=last {
                        // Values that differ run to run: a slot a run
                        // failed to write shows.
                        let seed = seed ^ (budget << 32);
                        site.prepare(cpu, seed, at, TARGETS[target] + offset);
                        cpu.pc = entry(m, "f");
                        // Low budgets first or last: over a cold or a
                        // warm translation cache.
                        let budget = if seed & 16 != 0 {
                            budget
                        } else {
                            last - budget
                        };
                        let stopped = run(m, cpu, &mut NullEnv, budget);
                        outcomes.push((stopped, observe(m, cpu)));
                    }
                }
                Step::Fill(target, wrong, xor) => {
                    let page = TARGETS[target];
                    let tag = if wrong { page ^ 0x0800_0000 } else { page };
                    fill(m, cpu, site.table, page, tag, xor);
                }
                Step::Unmap(p) => {
                    m.space_mut(cpu.space).unmap(p.addr());
                }
                Step::Remap(p) | Step::Protect(p) => {
                    let (_, pfn) = own.iter().find(|(addr, _)| *addr == p.addr()).unwrap();
                    let writable = matches!(step, Step::Remap(_));
                    m.space_mut(cpu.space)
                        .map(p.addr(), PageEntry::ram(*pfn, writable));
                }
                Step::MapMmio(p) => {
                    m.space_mut(cpu.space).map(p.addr(), PageEntry::mmio(0, 0));
                }
                Step::Evict(_) => {}
            }
            // Loads through the cache: of a rival to evict a page, of a
            // protected page and the stlb entries to warm them.
            let loads = match *step {
                Step::Evict(p) => vec![rival_of(p.addr())],
                Step::Protect(p) => [p.addr() + 0x800]
                    .into_iter()
                    .chain(TARGETS.map(|t| site.table + u64::from(stlb::entry_offset(t))))
                    .collect(),
                _ => Vec::new(),
            };
            for at in loads {
                cpu.set_reg(Reg::Ebx, at as u32);
                cpu.pc = entry(m, "evict");
                outcomes.push((run(m, cpu, &mut NullEnv, 2), observe(m, cpu)));
            }
        }
        let (fused, plain) = outcomes.split_at(outcomes.len() / 2);
        assert_eq!(fused, plain, "{step:?}");
        assert!(
            memory(&worlds[0].0) == memory(&worlds[1].0),
            "memory diverged at {step:?}"
        );
    }
}

/// The six orders of (s1, s2, out).
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    /// One translation, run again and again on a fused and a plain
    /// machine while the stlb's contents, its mappings and the
    /// translation cache change under it: the two never differ in the
    /// CPU, the memory, the outcome or the meter — at any budget.
    #[test]
    fn the_fused_translation_is_the_nine_plain_ops(
        shape in shape(),
        disp in any::<u32>(),
        table in 0usize..TABLES.len(),
        prices in prop::collection::vec(0u64..9, 6..7),
        steps in prop::collection::vec(step(), 1..40),
    ) {
        fused_and_plain_agree(&Site::new(shape, Vec::new(), disp, table), &prices, &steps);
    }

    /// The same inside a spill frame of one to three of the template's
    /// registers, in any order, with the frame's stack slots inside the
    /// stack, against its guard page, across its two pages, on the
    /// translation's own stlb entry, uncached, read-only, unmapped or on
    /// a device's page — at every budget from 0 to past the last pop.
    #[test]
    fn the_fused_spill_frame_is_its_plain_ops(
        shape in shape(),
        spilled in (1usize..4, 0usize..ORDERS.len()),
        disp in any::<u32>(),
        table in 0usize..TABLES.len(),
        prices in prop::collection::vec(0u64..9, 6..7),
        steps in prop::collection::vec(step(), 1..30),
    ) {
        let (operand, mut regs) = shape;
        // A frame with `%esp` among its registers is left unfused.
        if let Some(esp) = regs.iter().position(|r| *r == Reg::Esp) {
            regs[esp] = *[Reg::Ebp, Reg::Esi, Reg::Edi].iter().find(|r| !regs.contains(r)).unwrap();
        }
        let (k, order) = spilled;
        let spills = ORDERS[order][..k].iter().map(|i| regs[*i]).collect();
        fused_and_plain_agree(&Site::new((operand, regs), spills, disp, table), &prices, &steps);
    }
}

// ---- the quickened ops ----

/// Where the quickened ops' memory operands reach, from `%ebp`: two
/// pages of RAM in a row, then a read-only page, a device's page and an
/// unmapped one.
const DATA: u64 = 0x2400_0000;

/// Displacements from `%ebp` onto each of those pages, at their edges
/// and across them.
const DISPS: [u32; 10] = [
    0, 8, 0xffe, 0xffc, 0x1ffe, 0x2004, 0x2ffe, 0x3008, 0x3ffe, 0x4000,
];

/// A device whose registers read as a word of their offset and which
/// logs every write.
#[derive(Default)]
struct Device {
    writes: Vec<(u64, Width, u32)>,
}

impl Env for Device {
    fn extern_call(&mut self, id: ExternId, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault> {
        NullEnv.extern_call(id, m, cpu)
    }
    fn mmio_read(&mut self, _: &mut Machine, _: u32, offset: u64, w: Width) -> Result<u32, Fault> {
        Ok((offset as u32).wrapping_mul(0x9e37_79b9) & w.mask() as u32)
    }
    fn mmio_write(
        &mut self,
        _: &mut Machine,
        _: u32,
        offset: u64,
        w: Width,
        val: u32,
    ) -> Result<(), Fault> {
        self.writes.push((offset, w, val));
        Ok(())
    }
}

const GPRS: [Reg; 6] = [Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx, Reg::Esi, Reg::Edi];

/// Instruction `i` of a drawn program of `n`: one of the sixteen
/// quickened shapes (kinds 0..16) or a cold form that stays generic.
/// A jump goes two instructions on; `sub` is a bare `ret`.
fn quick_line((kind, a, b, x): (usize, usize, usize, u32), i: usize, n: usize) -> String {
    const ALU: [&str; 5] = ["addl", "subl", "andl", "orl", "xorl"];
    const SHIFT: [&str; 3] = ["shll", "shrl", "sarl"];
    const UNARY: [&str; 4] = ["negl", "notl", "incl", "decl"];
    const JCC: [&str; 6] = ["je", "jne", "jl", "jge", "jb", "ja"];
    let (a, b) = (GPRS[a].name(), GPRS[b].name());
    let disp = DISPS[(x >> 8) as usize % DISPS.len()];
    let mem = match x % 4 {
        0 => format!("{}", DATA as u32 + disp),
        1 => format!("{disp}(,%ebp,1)"),
        _ => format!("{disp}(%ebp)"),
    };
    let imm = x as i32 >> 4;
    let next = (i + 2).min(n + 1);
    let alu = ALU[x as usize % ALU.len()];
    match kind {
        0 => format!("pushl %{a}"),
        1 => format!("pushl {mem}"),
        2 => format!("popl %{a}"),
        3 => format!("movl %{a}, %{b}"),
        4 => format!("movl {mem}, %{a}"),
        5 => format!("movl %{a}, {mem}"),
        6 => format!("movl ${imm}, {mem}"),
        7 => format!("{alu} ${imm}, %{a}"),
        8 => format!("{alu} %{a}, %{b}"),
        9 => format!("{alu} {mem}, %{a}"),
        10 => format!("{} ${}, %{a}", SHIFT[x as usize % 3], x % 40),
        11 => format!("cmpl ${imm}, %{a}"),
        12 => format!("{} %{a}", UNARY[x as usize % 4]),
        13 => format!("jmp l{next}"),
        14 => format!("{} l{next}", JCC[x as usize % JCC.len()]),
        15 => "call sub".to_string(),
        16 => format!("movb %{a}, {mem}"),
        17 => format!("movw {mem}, %{a}"),
        18 => format!("{alu} %{a}, {mem}"),
        19 => format!("movl ${imm}, %{a}"),
        20 => format!("cmpl %{a}, %{b}"),
        21 => format!("pushl ${imm}"),
        _ => format!("popl {mem}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    /// A short program of quickened shapes and cold forms, its memory
    /// operands on RAM, read-only, device and unmapped pages and across
    /// their edges, run at every budget on a machine linked by `link` and
    /// one linked by `link_plain`: the two never differ in the CPU, the
    /// memory, the device's writes, the outcome — the fault included —
    /// or the meter.
    #[test]
    fn the_quickened_ops_are_their_generic_arms(
        insns in prop::collection::vec((0usize..23, 0usize..6, 0usize..6, any::<u32>()), 1..8),
        seeds in prop::collection::vec(any::<u64>(), 1..4),
        prices in prop::collection::vec(0u64..9, 10..11),
    ) {
        let n = insns.len();
        let mut src = String::from(".text\n.globl f\nf:\n");
        for (i, insn) in insns.iter().enumerate() {
            src += &format!("l{i}:\n {}\n", quick_line(*insn, i, n));
        }
        src += &format!("l{n}:\n hlt\nl{}:\n hlt\nsub:\n ret\n", n + 1);
        let terms = [
            Term::MovReg,
            Term::Alu,
            Term::Load,
            Term::Store,
            Term::BranchTaken,
            Term::BranchNotTaken,
            Term::Call,
            Term::Ret,
            Term::MmioRead,
            Term::MmioWrite,
        ];
        let mut worlds = both(&src, STLB).map(|(mut m, cpu)| {
            m.map_fresh(cpu.space, DATA, 2).unwrap();
            let ro = m.phys.alloc_frame().unwrap();
            m.space_mut(cpu.space).map(DATA + 2 * PAGE_SIZE, PageEntry::ram(ro, false));
            m.space_mut(cpu.space).map(DATA + 3 * PAGE_SIZE, PageEntry::mmio(0, 0));
            for (term, price) in terms.into_iter().zip(&prices) {
                m.cost.set(term, *price);
            }
            m.meter.push_domain(CostDomain::Driver);
            (m, cpu, Device::default())
        });
        let frames = worlds[0].0.phys.total_frames() - worlds[0].0.phys.free_frames();
        for (m, _, _) in &mut worlds {
            for p in 0..frames as u64 * PAGE_SIZE {
                m.phys.write_u8(p, (p ^ (p >> 7)) as u8);
            }
        }
        for seed in seeds {
            let mut outcomes = Vec::new();
            for (m, cpu, device) in &mut worlds {
                for budget in 0..=n as u64 + 3 {
                    seed_cpu(cpu, seed ^ budget);
                    cpu.set_reg(Reg::Ebp, DATA as u32);
                    cpu.set_stack(STACK + PAGE_SIZE);
                    cpu.pc = entry(m, "f");
                    outcomes.push((run(m, cpu, device, budget), observe(m, cpu)));
                }
            }
            let (fused, plain) = outcomes.split_at(outcomes.len() / 2);
            prop_assert_eq!(fused, plain, "{}", src);
            prop_assert_eq!(&worlds[0].2.writes, &worlds[1].2.writes);
            prop_assert!(memory(&worlds[0].0) == memory(&worlds[1].0), "memory diverged\n{}", src);
        }
    }
}
