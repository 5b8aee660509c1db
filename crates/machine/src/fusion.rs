//! The fused SVM translation against the nine plain ops (test-only).
//!
//! [`crate::image::link`] turns the head of every SVM translation into
//! one op whose hit path the interpreter runs in a single dispatch
//! (see [`crate::interp`]). Nothing may tell the two apart: every test
//! here runs the same code on two machines, one linked by `link` and one
//! by [`link_plain`], and compares everything a caller can observe.

use crate::image::link_plain;
use crate::interp::{Flags, FUSED_HITS};
use crate::{
    run, CostDomain, Cpu, Env, ExecMode, Fault, Machine, NullEnv, PageEntry, StopReason, Term,
    PAGE_SIZE,
};
use proptest::prelude::*;
use std::sync::Arc;
use twin_isa::asm::assemble;
use twin_isa::{Reg, Width};

const CODE: u64 = 0x0800_0000;
const STACK: u64 = 0x3000_0000;
/// The stlb's pages: 4096 entries of 8 bytes, and one page more for a
/// table that starts a few bytes in.
const STLB: u64 = 0x2000_0000;
const STLB_PAGES: u64 = 9;

/// The template as the rewriter emits it (`twin_rewriter`'s
/// `emit_fastpath`), translating the address `mem` names.
fn template(mem: &str, [s1, s2, out]: [Reg; 3]) -> String {
    let (s1, s2, out) = (s1.name(), s2.name(), out.name());
    format!(
        r#"
        leal {mem}, %{s1}
        movl %{s1}, %{out}
        andl $0xfffff000, %{s1}
        movl %{s1}, %{s2}
        andl $0x00fff000, %{s1}
        shrl $9, %{s1}
        cmpl stlb(,%{s1},1), %{s2}
        jne slow
        xorl stlb+4(,%{s1},1), %{out}
    "#
    )
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

fn memory(m: &Machine) -> &[u8] {
    let frames = m.phys.total_frames() - m.phys.free_frames();
    m.phys.read_bytes(0, frames * PAGE_SIZE as usize)
}

fn entry(m: &Machine, label: &str) -> u64 {
    m.image(crate::ImageId(0)).export(label).expect(label)
}

/// Writes the stlb entry of `page` in the table at `table`.
fn fill(m: &mut Machine, cpu: &Cpu, table: u64, page: u32, tag: u32, xor: u32) {
    let e = table + u64::from((page & 0x00ff_f000) >> 9);
    // An entry on an unmapped page stays unwritten.
    let _ = m.write_u32(cpu.space, cpu.mode, e, tag);
    let _ = m.write_u32(cpu.space, cpu.mode, e + 4, xor);
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
    for (from, to) in [
        // Another mask, shift, condition, operation or width.
        ("$0xfffff000", "$0xffffe000"),
        ("$0x00fff000", "$0x000ff000"),
        ("shrl $9", "shrl $8"),
        ("shrl $9", "shll $9"),
        ("jne slow", "je slow"),
        ("xorl", "addl"),
        ("cmpl", "cmpw"),
        ("andl $0xfffff000", "orl $0xfffff000"),
        // The two words not 4 apart, scaled, or based.
        ("stlb+4(", "stlb+8("),
        ("stlb+4(", "stlb("),
        ("stlb(,%eax,1)", "stlb(,%eax,2)"),
        ("stlb+4(,%eax,1)", "stlb+4(%eax)"),
        // An op of the nine missing, moved or doubled.
        ("movl %eax, %ebx", "nop"),
        ("shrl $9, %eax", "shrl $9, %eax\n nop"),
        // The tag compared the other way round.
        ("cmpl stlb(,%eax,1), %ebx", "cmpl %ebx, stlb(,%eax,1)"),
    ] {
        assert!(good.contains(from), "{from}");
        assert_eq!(fused_sites(&good.replace(from, to)), 0, "{from} -> {to}");
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
        assert_eq!(regs[Reg::Eax.index()], (PAGE & 0x00ff_f000) >> 9);
    }
}

/// `__svm_slow` as the hypervisor's: fills the entry of the address on
/// the stack and counts its calls.
struct SlowPath {
    calls: u32,
}

impl Env for SlowPath {
    fn extern_call(&mut self, name: &str, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault> {
        assert_eq!(name, "__svm_slow");
        self.calls += 1;
        let page = cpu.arg(m, 0)? & 0xffff_f000;
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

// ---- the property ----

/// Pages the translated addresses fall on: two that share an stlb entry,
/// the table's first and last entries, and one whose entry lies on the
/// table's fifth page.
const TARGETS: [u32; 5] = [
    0x0123_4000,
    0x0923_4000,
    0x7700_0000,
    0x00ff_f000,
    0xc020_0000,
];

/// Where the table may start: page-aligned, as `twin-svm` places it; a
/// word in; so that an entry's two words lie on two pages; so that a tag
/// word straddles two pages.
const TABLES: [u64; 4] = [STLB, STLB + 4, STLB + 0xffc, STLB + 0xffe];

/// A page whose translation shares the interpreter's translation-cache
/// slot with stlb page `i`'s (`space::Tlb::slot`).
fn rival_of(i: u64) -> u64 {
    ((STLB / PAGE_SIZE + i) ^ 0x41) * PAGE_SIZE
}

#[derive(Clone, Debug)]
enum Step {
    /// Translate an address `.1` bytes into `TARGETS[.0]`, once at every
    /// budget 0..=12 (all the ways the nine instructions can be cut
    /// short, and a few more); the other registers and the flags are
    /// drawn from `.2`.
    Run(usize, u32, u64),
    /// Write `TARGETS[.0]`'s entry: its own tag or (`.1`) its rival's.
    Fill(usize, bool, u32),
    /// Page-table edits of stlb page `.0`.
    Unmap(u64),
    Remap(u64),
    MapMmio(u64),
    /// Push stlb page `.0` out of the translation cache.
    Evict(u64),
}

fn step() -> impl Strategy<Value = Step> {
    let target = 0usize..TARGETS.len();
    let page = 0u64..STLB_PAGES;
    let offset = prop_oneof![0u32..8, 0xff8u32..0x1000, 0u32..0x1000];
    let run =
        (target.clone(), offset, any::<u64>()).prop_map(|(t, off, seed)| Step::Run(t, off, seed));
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
        page.clone().prop_map(Step::Unmap),
        page.clone().prop_map(Step::Remap),
        page.clone().prop_map(Step::Remap),
        page.clone().prop_map(Step::MapMmio),
        page.clone().prop_map(Step::Evict),
        page.prop_map(Step::Evict),
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
        prices in (0u64..9, 0u64..9, 0u64..9, 0u64..9),
        steps in prop::collection::vec(step(), 1..40),
    ) {
        let ((base, index, scale), regs) = shape;
        let reg = |i: usize| Reg::ALL.get(i).copied();
        let (base, index) = (reg(base), reg(index));
        // An absolute operand names one of the targets.
        let disp = match base.or(index) {
            Some(_) => disp,
            None => TARGETS[disp as usize % TARGETS.len()] + (disp >> 20),
        };
        let operand = match (base, index) {
            (None, None) => format!("{disp}"),
            (Some(b), None) => format!("{disp}(%{})", b.name()),
            (None, Some(i)) => format!("{disp}(,%{},{scale})", i.name()),
            (Some(b), Some(i)) => format!("{disp}(%{},%{},{scale})", b.name(), i.name()),
        };
        let src = format!(
            ".text\n.globl f\nf:\n{}\n hlt\nslow:\n hlt\n.globl evict\nevict:\n movl (%ebx), %eax\n hlt\n",
            template(&operand, regs)
        );
        let table = TABLES[table];
        let mut worlds = both(&src, table);
        let frames: Vec<u64> = (0..STLB_PAGES)
            .map(|i| worlds[0].0.space(worlds[0].1.space).lookup(STLB + i * PAGE_SIZE).unwrap().pfn)
            .collect();
        for (m, cpu) in &mut worlds {
            for i in 0..STLB_PAGES {
                m.map_fresh(cpu.space, rival_of(i), 1).unwrap();
            }
            for (term, price) in [
                (Term::MovReg, prices.0),
                (Term::Alu, prices.1),
                (Term::Load, prices.2),
                (Term::BranchNotTaken, prices.3),
            ] {
                m.cost.set(term, price);
            }
            m.meter.push_domain(CostDomain::Driver);
            for page in TARGETS {
                fill(m, cpu, table, page, page, page.rotate_left(7));
            }
        }
        for step in steps {
            let mut outcomes = Vec::new();
            for (m, cpu) in &mut worlds {
                let stlb_page = |i: u64| STLB + i * PAGE_SIZE;
                match step {
                    Step::Run(target, offset, seed) => {
                        for budget in 0..=12 {
                            // Every register and flag from the seed, then
                            // the operand's first register aimed at the
                            // target.
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
                            let want = TARGETS[target] + offset;
                            if let Some(aim) = base.or(index) {
                                // The address is disp + k·aim + rest.
                                let (mut k, mut rest) = (0, disp);
                                for (r, weight) in [(base, 1), (index, u32::from(scale))] {
                                    match r {
                                        Some(r) if r == aim => k += weight,
                                        Some(r) => {
                                            rest = rest.wrapping_add(cpu.reg(r).wrapping_mul(weight));
                                        }
                                        None => {}
                                    }
                                }
                                cpu.set_reg(aim, want.wrapping_sub(rest) / k);
                            }
                            cpu.pc = entry(m, "f");
                            // Low budgets first or last: over a cold or
                            // a warm translation cache.
                            let budget = if seed & 16 != 0 { budget } else { 12 - budget };
                            let stopped = run(m, cpu, &mut NullEnv, budget);
                            outcomes.push((stopped, observe(m, cpu)));
                        }
                    }
                    Step::Fill(target, wrong, xor) => {
                        let page = TARGETS[target];
                        let tag = if wrong { page ^ 0x0800_0000 } else { page };
                        fill(m, cpu, table, page, tag, xor);
                    }
                    Step::Unmap(i) => {
                        m.space_mut(cpu.space).unmap(stlb_page(i));
                    }
                    Step::Remap(i) => {
                        let frame = PageEntry::ram(frames[i as usize], true);
                        m.space_mut(cpu.space).map(stlb_page(i), frame);
                    }
                    Step::MapMmio(i) => {
                        m.space_mut(cpu.space).map(stlb_page(i), PageEntry::mmio(0, i));
                    }
                    Step::Evict(i) => {
                        cpu.set_reg(Reg::Ebx, rival_of(i) as u32);
                        cpu.pc = entry(m, "evict");
                        outcomes.push((run(m, cpu, &mut NullEnv, 2), observe(m, cpu)));
                    }
                }
            }
            let (fused, plain) = outcomes.split_at(outcomes.len() / 2);
            prop_assert_eq!(fused, plain, "{:?}", step);
            prop_assert!(
                memory(&worlds[0].0) == memory(&worlds[1].0),
                "memory diverged at {:?}",
                step
            );
        }
    }
}
