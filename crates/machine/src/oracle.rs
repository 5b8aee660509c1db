//! Equivalence oracle for the virtual-memory accessors (test-only).
//!
//! [`Machine::read_virt`], [`Machine::write_virt`], [`Machine::copy_virt`]
//! and the bulk helpers translate once per page and move bytes with slice
//! operations. The reference here translates and moves one byte at a
//! time, which is the definition of what they must do: the same value,
//! the same [`Fault`], and the same memory afterwards — including the
//! bytes a faulting access wrote before it faulted.
//!
//! The interpreter's loads, stores, pushes and pops answer to the same
//! reference, through the translation cache: some of the generated
//! accesses are made by [`run`]ning an instruction, and page-table edits
//! are drawn in between them. So does [`Cpu::arg`], which reads through
//! the cache when it is the CPU's, inside an [`Env`] callback and out.
//!
//! The run loop itself answers to single steps: one [`run`] with budget
//! `n`, which keeps `pc` and the budget in locals and writes them back
//! only where someone can look, leaves what `n` runs of one instruction
//! leave, at every stop.

use crate::{
    run, stlb, CostDomain, Cpu, Env, Event, ExecMode, ExternId, Fault, Machine, NullEnv, PageEntry,
    PageKind, SpaceId, StopReason, Term, HYPER_BASE, PAGE_SIZE,
};
use proptest::prelude::*;
use twin_isa::{Reg, Width};

fn oracle_read_u8(m: &Machine, at: (SpaceId, ExecMode, u64), i: u64) -> Result<u8, Fault> {
    let (space, mode, addr) = at;
    let t = m.translate(space, mode, addr + i, false)?;
    match t.entry.kind {
        PageKind::Ram => Ok(m.phys.read_u8(t.entry.pfn * PAGE_SIZE + t.offset)),
        PageKind::Mmio(_) => Err(Fault::MmioAccess { addr }),
    }
}

fn oracle_write_u8(
    m: &mut Machine,
    at: (SpaceId, ExecMode, u64),
    i: u64,
    val: u8,
) -> Result<(), Fault> {
    let (space, mode, addr) = at;
    let t = m.translate(space, mode, addr + i, true)?;
    match t.entry.kind {
        PageKind::Ram => m.phys.write_u8(t.entry.pfn * PAGE_SIZE + t.offset, val),
        PageKind::Mmio(_) => return Err(Fault::MmioAccess { addr }),
    }
    Ok(())
}

fn oracle_read(m: &Machine, at: (SpaceId, ExecMode, u64), w: Width) -> Result<u32, Fault> {
    let mut val = 0;
    for i in 0..w.bytes() {
        val |= (oracle_read_u8(m, at, i)? as u32) << (8 * i);
    }
    Ok(val)
}

fn oracle_write(
    m: &mut Machine,
    at: (SpaceId, ExecMode, u64),
    w: Width,
    val: u32,
) -> Result<(), Fault> {
    for i in 0..w.bytes() {
        oracle_write_u8(m, at, i, (val >> (8 * i)) as u8)?;
    }
    Ok(())
}

/// A bulk access is a loop of one-byte accesses, each its own access (so
/// an MMIO fault names the byte, not the start of the buffer).
fn oracle_copy(
    m: &mut Machine,
    src: (SpaceId, ExecMode, u64),
    dst: (SpaceId, ExecMode, u64),
    len: u64,
) -> Result<(), Fault> {
    for i in 0..len {
        let b = oracle_read_u8(m, (src.0, src.1, src.2 + i), 0)?;
        oracle_write_u8(m, (dst.0, dst.1, dst.2 + i), 0, b)?;
    }
    Ok(())
}

/// Page bases the generated accesses aim at, in the order [`world`] lays
/// them out.
const PAGES: [u64; 10] = [
    0x2000_0000,            // read-write RAM
    0x2000_1000,            // read-write RAM, contiguous with the first
    0x2000_2000,            // read-only RAM
    0x2000_3000,            // MMIO
    0x2000_4000,            // unmapped
    0x2000_5000,            // a second mapping of the first page's frame
    0x203f_f000,            // last page of a 4 MiB region, next one unmapped
    HYPER_BASE - PAGE_SIZE, // guest page below the hypervisor region
    HYPER_BASE,             // hypervisor RAM; the page after it is unmapped
    0xffff_f000,            // hypervisor RAM; the bytes after it are beyond 2³²
];

/// A device window whose offsets are the virtual addresses themselves, so
/// that [`NullEnv`], which refuses every device access with
/// `MmioAccess { addr: offset }`, names the address the oracle names.
fn mmio_at(page: u64) -> PageEntry {
    PageEntry::mmio(0, page / PAGE_SIZE)
}

/// Two spaces over shared and private frames, every frame filled with a
/// position-dependent pattern so a misplaced byte shows.
fn world() -> (Machine, [SpaceId; 2]) {
    let mut m = Machine::new();
    let (a, b) = (m.new_space(), m.new_space());
    m.map_fresh(a, PAGES[0], 2).unwrap();
    let ro = m.phys.alloc_frame().unwrap();
    m.space_mut(a).map(PAGES[2], PageEntry::ram(ro, false));
    m.space_mut(a).map(PAGES[3], mmio_at(PAGES[3]));
    let alias = m.space(a).lookup(PAGES[0]).unwrap();
    m.space_mut(a).map(PAGES[5], alias);
    m.map_fresh(a, PAGES[6], 1).unwrap();
    m.map_fresh(a, PAGES[7], 1).unwrap();
    m.map_hyper_fresh(PAGES[8], 1).unwrap();
    m.map_hyper_fresh(PAGES[9], 1).unwrap();
    // The second space sees the first's second page where the first has
    // its first, plus a private page.
    let shared = m.space(a).lookup(PAGES[1]).unwrap();
    m.space_mut(b).map(PAGES[0], shared);
    m.map_fresh(b, PAGES[1], 1).unwrap();
    let frames = (m.phys.total_frames() - m.phys.free_frames()) as u64;
    for p in 0..frames * PAGE_SIZE {
        m.phys.write_u8(p, (p ^ (p >> 8) ^ (p >> 12)) as u8);
    }
    (m, [a, b])
}

fn allocated(m: &Machine) -> &[u8] {
    let frames = m.phys.total_frames() - m.phys.free_frames();
    m.phys.read_bytes(0, frames * PAGE_SIZE as usize)
}

#[derive(Clone, Debug)]
enum Op {
    Read(Width),
    Write(Width, u32),
    ReadBytes(u64),
    WriteBytes(u64),
    /// Copy `len` bytes to the (space, mode, address) drawn second.
    Copy(u64),
    /// The five below execute one entry of [`CODE`].
    Load(Width),
    Store(Width, u32),
    /// Add to memory: a load, then a store to the page the load cached.
    Add(Width, u32),
    Push(u32),
    Pop,
    /// Page-table edits, applied to the page of the address drawn first
    /// (in its space's table, or the hypervisor's): map it to frame
    /// `.0` modulo the frames in use, writable or not; make it a device
    /// window; unmap it; make it read-only.
    MapRam(u64, bool),
    MapMmio,
    Unmap,
    Protect,
}

/// One entry per interpreted access; each stops at its `hlt`. Every
/// access is made twice — the second time, if the first went through,
/// out of the translation cache — with the effect of making it once.
const CODE: &str = r#"
    .text
    .globl load_b
load_b:
    movzbl (%ebx), %eax
    movzbl (%ebx), %eax
    hlt
    .globl load_w
load_w:
    movzwl (%ebx), %eax
    movzwl (%ebx), %eax
    hlt
    .globl load_l
load_l:
    movl (%ebx), %eax
    movl (%ebx), %eax
    hlt
    .globl store_b
store_b:
    movb %eax, (%ebx)
    movb %eax, (%ebx)
    hlt
    .globl store_w
store_w:
    movw %eax, (%ebx)
    movw %eax, (%ebx)
    hlt
    .globl store_l
store_l:
    movl %eax, (%ebx)
    movl %eax, (%ebx)
    hlt
    .globl add_b
add_b:
    addb %eax, (%ebx)
    hlt
    .globl add_w
add_w:
    addw %eax, (%ebx)
    hlt
    .globl add_l
add_l:
    addl %eax, (%ebx)
    hlt
    .globl push
push:
    pushl %eax
    addl $4, %esp
    pushl %eax
    hlt
    .globl pop
pop:
    popl %eax
    subl $4, %esp
    popl %eax
    hlt
"#;

/// Runs the instructions at `entry` with `%ebx` = `addr` and `%eax` =
/// `val`, `%esp` placed so that a push writes at `addr` and a pop reads
/// there; returns `%eax` afterwards.
fn interpret(
    m: &mut Machine,
    entry: &str,
    at: (SpaceId, ExecMode, u64),
    val: u32,
) -> Result<u32, Fault> {
    let (space, mode, addr) = at;
    let mut cpu = Cpu::new(space, mode);
    cpu.set_reg(Reg::Eax, val);
    cpu.set_reg(Reg::Ebx, addr as u32);
    cpu.set_stack(if entry == "push" { addr + 4 } else { addr });
    cpu.pc = m.image(crate::ImageId(0)).export(entry).expect(entry);
    assert_eq!(run(m, &mut cpu, &mut NullEnv, 8)?, StopReason::Halted);
    Ok(cpu.reg(Reg::Eax))
}

fn suffix(w: Width) -> &'static str {
    match w {
        Width::Byte => "b",
        Width::Word => "w",
        Width::Long => "l",
    }
}

/// The table an edit of `addr`'s page goes to.
fn table_of(m: &mut Machine, space: SpaceId, addr: u64) -> &mut crate::PageTable {
    if addr >= HYPER_BASE {
        &mut m.hyper
    } else {
        m.space_mut(space)
    }
}

/// Applies page-table edit `op` (one of [`Op::MapRam`], [`Op::MapMmio`],
/// [`Op::Unmap`], [`Op::Protect`]) to the page of `at.1`, in `at.0`'s
/// table or the hypervisor's; `frames` bounds the frame `MapRam` picks.
fn edit(m: &mut Machine, at: (SpaceId, u64), op: &Op, frames: u64) {
    let (space, addr) = at;
    let table = table_of(m, space, addr);
    let entry = match *op {
        Op::MapRam(frame, writable) => Some(PageEntry::ram(frame % frames, writable)),
        Op::MapMmio => Some(mmio_at(addr)),
        Op::Protect => table.lookup(addr).map(|e| PageEntry {
            writable: false,
            ..e
        }),
        _ => {
            table.unmap(addr);
            None
        }
    };
    if let Some(entry) = entry {
        table.map(addr, entry);
    }
}

fn width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::Byte), Just(Width::Word), Just(Width::Long)]
}

/// Lengths that stay inside a page, cross one boundary, or cross two.
fn len() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..16, 0u64..PAGE_SIZE, PAGE_SIZE..3 * PAGE_SIZE]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        width().prop_map(Op::Read),
        (width(), any::<u32>()).prop_map(|(w, v)| Op::Write(w, v)),
        len().prop_map(Op::ReadBytes),
        len().prop_map(Op::WriteBytes),
        len().prop_map(Op::Copy),
        width().prop_map(Op::Load),
        (width(), any::<u32>()).prop_map(|(w, v)| Op::Store(w, v)),
        (width(), any::<u32>()).prop_map(|(w, v)| Op::Add(w, v)),
        any::<u32>().prop_map(Op::Push),
        Just(Op::Pop),
        (0u64..64, any::<bool>()).prop_map(|(f, w)| Op::MapRam(f, w)),
        Just(Op::MapMmio),
        Just(Op::Unmap),
        Just(Op::Protect),
    ]
}

/// (space index, hypervisor mode?, address): addresses cluster at the
/// edges of the interesting pages.
fn place() -> impl Strategy<Value = (usize, bool, u64)> {
    let offset = prop_oneof![0u64..8, PAGE_SIZE - 8..PAGE_SIZE, 0u64..PAGE_SIZE];
    (0usize..2, any::<bool>(), 0usize..PAGES.len(), offset)
        .prop_map(|(space, hyper, page, off)| (space, hyper, PAGES[page] + off))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    /// Every accessor agrees with the byte-at-a-time reference on the
    /// result, the fault and every byte of memory, access after access on
    /// the same pair of machines.
    #[test]
    fn accessors_match_the_byte_at_a_time_reference(
        ops in prop::collection::vec((op(), place(), place()), 1..32),
    ) {
        let (mut fast, spaces) = world();
        let (mut slow, _) = world();
        let code = twin_isa::asm::assemble("accesses", CODE).unwrap();
        fast.load_image(&code, 0x0800_0000, |_| None).unwrap();
        let frames = (fast.phys.total_frames() - fast.phys.free_frames()) as u64;
        for (op, at, to) in ops {
            let resolve = |(space, hyper, addr): (usize, bool, u64)| {
                let mode = if hyper { ExecMode::Hypervisor } else { ExecMode::Guest };
                (spaces[space], mode, addr)
            };
            let (at, to) = (resolve(at), resolve(to));
            let (space, mode, addr) = at;
            match op {
                Op::Read(w) => prop_assert_eq!(
                    fast.read_virt(space, mode, addr, w),
                    oracle_read(&slow, at, w)
                ),
                Op::Write(w, v) => prop_assert_eq!(
                    fast.write_virt(space, mode, addr, w, v),
                    oracle_write(&mut slow, at, w, v)
                ),
                Op::ReadBytes(n) => {
                    let mut got = vec![0u8; n as usize];
                    let want: Result<Vec<u8>, Fault> = (0..n)
                        .map(|i| oracle_read_u8(&slow, (space, mode, addr + i), 0))
                        .collect();
                    prop_assert_eq!(
                        fast.read_bytes_virt(space, mode, addr, &mut got).map(|()| got),
                        want
                    );
                }
                Op::WriteBytes(n) => {
                    let data: Vec<u8> = (0..n).map(|i| (i * 31 + addr) as u8).collect();
                    let want = data.iter().enumerate().try_for_each(|(i, b)| {
                        oracle_write_u8(&mut slow, (space, mode, addr + i as u64), 0, *b)
                    });
                    prop_assert_eq!(fast.write_bytes_virt(space, mode, addr, &data), want);
                }
                Op::Copy(n) => prop_assert_eq!(
                    fast.copy_virt(at, to, n),
                    oracle_copy(&mut slow, at, to, n)
                ),
                Op::Load(w) => prop_assert_eq!(
                    interpret(&mut fast, &format!("load_{}", suffix(w)), at, 0),
                    oracle_read(&slow, at, w)
                ),
                Op::Store(w, v) => prop_assert_eq!(
                    interpret(&mut fast, &format!("store_{}", suffix(w)), at, v).map(|_| ()),
                    oracle_write(&mut slow, at, w, v)
                ),
                Op::Add(w, v) => prop_assert_eq!(
                    interpret(&mut fast, &format!("add_{}", suffix(w)), at, v).map(|_| ()),
                    oracle_read(&slow, at, w)
                        .and_then(|old| oracle_write(&mut slow, at, w, old.wrapping_add(v)))
                ),
                Op::Push(v) => prop_assert_eq!(
                    interpret(&mut fast, "push", at, v).map(|_| ()),
                    oracle_write(&mut slow, at, Width::Long, v)
                ),
                Op::Pop => prop_assert_eq!(
                    interpret(&mut fast, "pop", at, 0),
                    oracle_read(&slow, at, Width::Long)
                ),
                Op::MapRam(..) | Op::MapMmio | Op::Unmap | Op::Protect => {
                    for m in [&mut fast, &mut slow] {
                        edit(m, (space, addr), &op, frames);
                    }
                }
            }
            prop_assert!(allocated(&fast) == allocated(&slow), "memory diverged");
        }
    }
}

#[test]
fn copy_onto_an_overlap_ahead_repeats_the_leading_bytes() {
    // The forward byte loop's signature: copying [0, 8) to [3, 11) smears
    // the first three bytes over the destination.
    let (mut m, [a, _]) = world();
    let at = (a, ExecMode::Guest, PAGES[0]);
    m.write_bytes_virt(a, ExecMode::Guest, PAGES[0], b"abcdefgh___")
        .unwrap();
    m.copy_virt(at, (a, ExecMode::Guest, PAGES[0] + 3), 8)
        .unwrap();
    let mut got = [0u8; 11];
    m.read_bytes_virt(a, ExecMode::Guest, PAGES[0], &mut got)
        .unwrap();
    assert_eq!(&got, b"abcabcabcab");
}

#[test]
fn addresses_beyond_the_32_bit_space_page_fault() {
    let (m, [a, _]) = world();
    for addr in [1 << 32, (1 << 32) + PAGES[0], 1 << 44, u64::MAX - 8] {
        for write in [false, true] {
            assert_eq!(
                m.translate(a, ExecMode::Hypervisor, addr, write)
                    .unwrap_err(),
                Fault::PageFault { addr, write }
            );
        }
        assert_eq!(
            m.translate(a, ExecMode::Guest, addr, false).unwrap_err(),
            Fault::ProtFault { addr },
            "a guest is refused at the hypervisor boundary first"
        );
    }
    // A load that starts on the last mapped page and runs past 2³².
    assert_eq!(
        m.read_virt(a, ExecMode::Hypervisor, 0xffff_fffe, Width::Long),
        Err(Fault::PageFault {
            addr: 1 << 32,
            write: false
        })
    );
}

/// `f` calls the extern `probe` with `%esp` wherever the test put it, so
/// inside the callback argument `i` is the word at that address + 4·i.
const ARG_CODE: &str = ".extern probe\n.text\n.globl f\nf:\n call probe\n hlt\n";

/// Arguments a probe reads: from a slot on a page's last word, the next
/// two are on the following page.
const ARGS: u32 = 3;

/// One argument read: what [`Cpu::arg`] returned, what the
/// byte-at-a-time walk reads there, and whether the translation cache
/// could answer (its key is the CPU's and it holds the slot's page).
type ArgRead = (Result<u32, Fault>, Result<u32, Fault>, bool);

fn arg_reads(m: &Machine, cpu: &Cpu) -> Vec<ArgRead> {
    let esp = u64::from(cpu.reg(Reg::Esp));
    (0..ARGS)
        .map(|i| {
            let addr = esp + 4 + 4 * u64::from(i);
            let cached = m.tlb.key() == Some(m.tlb_key(cpu)) && m.tlb.hit(addr, 4, false).is_some();
            let walk = oracle_read(m, (cpu.space, cpu.mode, addr), Width::Long);
            (cpu.arg(m, i), walk, cached)
        })
        .collect()
}

/// `probe`: reads every argument, then makes its page-table edit, if it
/// has one, from inside the callback and reads them all again.
struct ArgProbe {
    edit: Option<(Op, SpaceId, u64)>,
    frames: u64,
    reads: Vec<ArgRead>,
}

impl Env for ArgProbe {
    fn extern_call(&mut self, id: ExternId, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault> {
        assert_eq!(m.extern_name(id), Some("probe"));
        self.reads.extend(arg_reads(m, cpu));
        if let Some((op, space, addr)) = &self.edit {
            edit(m, (*space, *addr), op, self.frames);
            self.reads.extend(arg_reads(m, cpu));
        }
        Ok(())
    }
    fn mmio_read(&mut self, m: &mut Machine, dev: u32, a: u64, w: Width) -> Result<u32, Fault> {
        NullEnv.mmio_read(m, dev, a, w)
    }
    fn mmio_write(
        &mut self,
        m: &mut Machine,
        dev: u32,
        a: u64,
        w: Width,
        v: u32,
    ) -> Result<(), Fault> {
        NullEnv.mmio_write(m, dev, a, w, v)
    }
}

/// [`world`] with [`ARG_CODE`] loaded; also returns the frames in use.
fn arg_world() -> (Machine, [SpaceId; 2], u64) {
    let (mut m, spaces) = world();
    let code = twin_isa::asm::assemble("args", ARG_CODE).unwrap();
    m.load_image(&code, 0x0800_0000, |_| None).unwrap();
    let frames = (m.phys.total_frames() - m.phys.free_frames()) as u64;
    (m, spaces, frames)
}

/// Runs `f` with the first argument slot of the callback at `at`; the
/// reads the probe made (none when the `call` faults on its push).
fn call_probe(
    m: &mut Machine,
    at: (SpaceId, ExecMode, u64),
    edit: Option<(Op, SpaceId, u64)>,
    frames: u64,
) -> Vec<ArgRead> {
    let (space, mode, addr) = at;
    let mut cpu = Cpu::new(space, mode);
    cpu.set_stack(addr);
    cpu.pc = m.image(crate::ImageId(0)).export("f").unwrap();
    let mut probe = ArgProbe {
        edit,
        frames,
        reads: Vec::new(),
    };
    // The pop after an edit of the stack page may fault: only the reads
    // are under test.
    let _ = run(m, &mut cpu, &mut probe, 4);
    probe.reads
}

/// A CPU outside any run whose first argument slot is at `at`.
fn cpu_at(at: (SpaceId, ExecMode, u64)) -> Cpu {
    let mut cpu = Cpu::new(at.0, at.1);
    cpu.set_stack(at.2 - 4);
    cpu
}

#[derive(Clone, Debug)]
enum ArgStep {
    /// Run `f`; the callback reads, makes the edit (to the page drawn
    /// second, in that place's space) if any, and reads again.
    Call(Option<Op>),
    /// Read outside any run, with whatever the cache holds.
    Direct,
    /// Edit the page drawn second outside any run.
    Edit(Op),
}

fn page_edit() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64, any::<bool>()).prop_map(|(f, w)| Op::MapRam(f, w)),
        Just(Op::MapMmio),
        Just(Op::Unmap),
        Just(Op::Protect),
    ]
}

fn arg_step() -> impl Strategy<Value = ArgStep> {
    prop_oneof![
        (any::<bool>(), page_edit()).prop_map(|(e, op)| ArgStep::Call(e.then_some(op))),
        Just(ArgStep::Direct),
        page_edit().prop_map(ArgStep::Edit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    /// [`Cpu::arg`] reads what the walk reads, whatever the translation
    /// cache holds: warm from the run around the callback, filled under
    /// another space, mode or table generation, invalidated by a map or
    /// an unmap made inside the callback, and for slots on the last word
    /// of a page and on unmapped, read-only, device and hypervisor pages.
    #[test]
    fn an_argument_read_is_the_walks_read(
        steps in prop::collection::vec((arg_step(), place(), place()), 1..32),
    ) {
        let (mut m, spaces, frames) = arg_world();
        let resolve = |(space, hyper, addr): (usize, bool, u64)| {
            let mode = if hyper { ExecMode::Hypervisor } else { ExecMode::Guest };
            (spaces[space], mode, addr)
        };
        for (step, at, to) in steps {
            let (at, to) = (resolve(at), resolve(to));
            let reads = match step {
                ArgStep::Call(op) => call_probe(&mut m, at, op.map(|op| (op, to.0, to.2)), frames),
                ArgStep::Direct => arg_reads(&m, &cpu_at(at)),
                ArgStep::Edit(op) => {
                    edit(&mut m, (to.0, to.2), &op, frames);
                    Vec::new()
                }
            };
            for (got, walk, _) in reads {
                prop_assert_eq!(got, walk);
            }
        }
    }
}

/// Each case the property draws, made once on purpose, with whether the
/// cache answered.
#[test]
fn the_cached_argument_read_is_taken_exactly_when_the_cache_is_the_cpus() {
    let (mut m, [a, b], frames) = arg_world();
    let slot = (a, ExecMode::Guest, PAGES[0] + 0x100);
    let cached = |reads: &[ArgRead]| -> Vec<bool> {
        for (got, walk, _) in reads {
            assert_eq!(got, walk);
        }
        reads.iter().map(|r| r.2).collect()
    };
    // Warm: the `call` just pushed its return address on the slot's page.
    assert_eq!(cached(&call_probe(&mut m, slot, None, frames)), [true; 3]);
    // Outside the run, the same CPU still finds the cache its own ...
    assert_eq!(cached(&arg_reads(&m, &cpu_at(slot))), [true; 3]);
    // ... another space or mode does not.
    for (space, mode) in [(b, ExecMode::Guest), (a, ExecMode::Hypervisor)] {
        let reads = arg_reads(&m, &cpu_at((space, mode, slot.2)));
        assert_eq!(cached(&reads), [false; 3]);
    }
    // A table edit outside the run: a new generation, so a walk.
    edit(&mut m, (a, PAGES[6]), &Op::Unmap, frames);
    assert_eq!(cached(&arg_reads(&m, &cpu_at(slot))), [false; 3]);
    // A map inside the callback: cached before it, walked after it,
    // reading the page's new frame.
    let remap = Some((Op::MapRam(1, true), a, PAGES[0]));
    let reads = call_probe(&mut m, slot, remap, frames);
    assert_eq!(cached(&reads), [true, true, true, false, false, false]);
    assert_ne!(reads[0].0, reads[3].0, "the slot's page moved to frame 1");
    // An edit of another space from inside the callback leaves the
    // cache the CPU's.
    let elsewhere = Some((Op::Unmap, b, PAGES[1]));
    let reads = call_probe(&mut m, slot, elsewhere, frames);
    assert_eq!(cached(&reads), [true; 6]);
    // The last word of a page: cached; the next two words are on the
    // following page, which nothing has touched yet in this key.
    let last = (a, ExecMode::Guest, PAGES[1] - 4);
    assert_eq!(
        cached(&call_probe(&mut m, last, None, frames)),
        [true, false, false]
    );
}

// ---- a run of n instructions is n runs of one ----

/// Where [`step_code`]'s stack, stlb and second image lie; the data it
/// touches is [`world`]'s.
const STEP_STACK: u64 = 0x3000_0000;
const STEP_STLB: u64 = 0x2100_0000;
const STEP_OTHER: u64 = 0x0900_0000;

/// The second image: a function that returns, and one that goes back by
/// an indirect jump to its return address.
const STEP_OTHER_CODE: &str =
    ".text\n.globl other\nother:\n incl %eax\n ret\n.globl away\naway:\n popl %ecx\n jmp *%ecx\n";

/// Pages the translation's address falls on: two with stlb entries of
/// their own, and one whose entry holds the first's tag.
const XLATED: [u32; 3] = [0x0123_4000, 0x7700_0000, 0x0923_4000];

/// `f`: a push, a spill frame around an SVM translation of `(%esi)`
/// (which `link` fuses), a load, a read-modify-write and a store through
/// `%edi`, an extern call, a call into the second image and a call
/// through a register that comes back by an indirect jump, an indirect
/// jump inside the image, and the `ret`; a missed translation's slow path
/// calls the extern too.
fn step_code() -> String {
    let regs = [Reg::Eax, Reg::Ebx, Reg::Edx];
    let frame = crate::fusion::bracketed("(%esi)", regs, &[Reg::Eax], &[Reg::Eax], "resume:\n");
    format!(
        ".extern probe\n.text\n.globl f\nf:\n pushl %ecx\n{frame} movl (%edi), %ecx\n\
         addl %ecx, 4(%edi)\n movl %eax, 8(%edi)\n call probe\n call other\n movl $away, %ecx\n call *%ecx\n\
         movl $done, %ecx\n jmp *%ecx\n ud2\ndone:\n popl %ecx\n ret\n\
         slow:\n pushl %edx\n call probe\n addl $4, %esp\n jmp resume\n"
    )
}

/// [`world`] with a stack, an stlb holding entries for the first two of
/// [`XLATED`], the second image and `f` loaded; charges go to the
/// driver.
fn step_world() -> (Machine, Cpu) {
    let (mut m, [a, _]) = world();
    m.map_stack(a, STEP_STACK, 2).unwrap();
    let table_pages = stlb::ENTRIES * stlb::ENTRY_SIZE / PAGE_SIZE;
    m.map_fresh(a, STEP_STLB, table_pages).unwrap();
    for page in &XLATED[..2] {
        let entry = STEP_STLB + u64::from(stlb::entry_offset(*page));
        m.write_u32(a, ExecMode::Guest, entry, *page).unwrap();
        let xor = page.rotate_left(7);
        m.write_u32(a, ExecMode::Guest, entry + stlb::XOR_WORD, xor)
            .unwrap();
    }
    let other = twin_isa::asm::assemble("other", STEP_OTHER_CODE).unwrap();
    let other = m.load_image(&other, STEP_OTHER, |_| None).unwrap();
    let exports = m.image(other).exports.clone();
    let main = twin_isa::asm::assemble("main", &step_code()).unwrap();
    let resolve = |s: &str| match s {
        "stlb" => Some(STEP_STLB),
        _ => exports.get(s).copied(),
    };
    let main = m.load_image(&main, 0x0800_0000, resolve).unwrap();
    assert_eq!(m.image(main).fused_frames(), 1);
    m.meter.push_domain(CostDomain::Driver);
    (m, Cpu::new(a, ExecMode::Guest))
}

/// Enters `f` afresh with `%esp`, `%esi` and `%edi` as given and the
/// return sentinel pushed.
fn step_start(m: &mut Machine, cpu: &mut Cpu, (esp, esi, edi): (u64, u32, u64)) {
    *cpu = Cpu::new(cpu.space, cpu.mode);
    cpu.set_reg(Reg::Esi, esi);
    cpu.set_reg(Reg::Edi, edi as u32);
    cpu.set_stack(esp);
    cpu.push_call_frame(m, &[]).unwrap();
    cpu.pc = m.image(crate::ImageId(1)).export("f").unwrap();
}

/// Where `%esp` starts: a few words above the guard page, so that a push
/// of `f` faults; two bytes into the upper stack page, so that the slots
/// straddle the two; or well inside.
fn step_stack() -> impl Strategy<Value = u64> {
    let inside = STEP_STACK + 2 * PAGE_SIZE - 0x100;
    prop_oneof![
        (1u64..12).prop_map(|words| STEP_STACK + 4 * words),
        Just(STEP_STACK + PAGE_SIZE + 2),
        Just(inside),
        Just(inside),
    ]
}

/// `probe` and a device, each logging what it could see at every
/// callback: where (the trampoline's address, or the device offset), a
/// value (`%eax`, or the word written), the clock, the instruction count
/// and every domain's cycles.
#[derive(Default)]
struct Witness {
    log: Vec<(u64, u32, u64, u64, Vec<u64>)>,
}

impl Witness {
    fn look(&mut self, m: &Machine, at: u64, val: u32) {
        let cycles = CostDomain::ALL.iter().map(|d| m.meter.cycles(*d)).collect();
        self.log
            .push((at, val, m.now_cycles(), m.meter.insns(), cycles));
    }
}

impl Env for Witness {
    /// `probe` pays a hypercall to Xen and scrambles `%eax`.
    fn extern_call(&mut self, _: ExternId, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault> {
        self.look(m, cpu.pc, cpu.reg(Reg::Eax));
        m.pay_to(CostDomain::Xen, Term::Hypercall);
        cpu.set_reg(Reg::Eax, cpu.reg(Reg::Eax).rotate_left(5) ^ 0x5a5a);
        Ok(())
    }
    fn mmio_read(&mut self, m: &mut Machine, _: u32, offset: u64, w: Width) -> Result<u32, Fault> {
        self.look(m, offset, 0);
        Ok((offset as u32).wrapping_mul(0x9e37_79b9) & w.mask() as u32)
    }
    fn mmio_write(
        &mut self,
        m: &mut Machine,
        _: u32,
        offset: u64,
        _: Width,
        val: u32,
    ) -> Result<(), Fault> {
        self.look(m, offset, val);
        Ok(())
    }
}

/// What a stop leaves that a caller can look at, memory aside.
#[derive(PartialEq, Debug)]
struct Stopped {
    regs: [u32; 8],
    flags: crate::interp::Flags,
    pc: u64,
    insns: u64,
    cycles: Vec<u64>,
    now: u64,
    events: Vec<u64>,
}

fn stopped(m: &Machine, cpu: &Cpu) -> Stopped {
    Stopped {
        regs: Reg::ALL.map(|r| cpu.reg(r)),
        flags: cpu.flags,
        pc: cpu.pc,
        insns: m.meter.insns(),
        cycles: CostDomain::ALL.iter().map(|d| m.meter.cycles(*d)).collect(),
        now: m.now_cycles(),
        events: Event::ALL.iter().map(|e| m.meter.event(*e)).collect(),
    }
}

/// `n` runs of budget 1, or fewer if one stops otherwise: how the last
/// ended.
fn single_steps(
    m: &mut Machine,
    cpu: &mut Cpu,
    env: &mut Witness,
    n: u64,
) -> Result<StopReason, Fault> {
    for _ in 1..n {
        let stop = run(m, cpu, env, 1);
        if stop != Ok(StopReason::Budget) {
            return stop;
        }
    }
    run(m, cpu, env, 1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// One [`run`] with budget `n` ends where `n` runs with budget 1 end:
    /// the same outcome, registers (`%esp` among them), flags, `pc`,
    /// memory, per-domain cycles, clock, instruction count and meter
    /// events, and the same sights at every callback, stop after stop.
    /// [`step_code`]'s pushes and stores fault on the guard page and on
    /// read-only, unmapped and hypervisor pages or reach a device
    /// mid-run; it calls an extern, leaves its image by `call`, `ret` and
    /// indirect jumps, and runs a fused spill frame that a budget can end
    /// inside (runs of budget 1 never fuse it).
    #[test]
    fn a_run_of_n_instructions_is_n_runs_of_one(
        episodes in prop::collection::vec(
            (
                (step_stack(), 0usize..XLATED.len(), 0u32..0x1000),
                place(),
                prop::collection::vec(1u64..48, 1..8),
            ),
            1..6,
        ),
    ) {
        let [(mut whole, mut cpu_w), (mut steps, mut cpu_s)] = [step_world(), step_world()];
        let (mut env_w, mut env_s) = (Witness::default(), Witness::default());
        for ((esp, page, offset), (_, _, edi), budgets) in episodes {
            let regs = (esp, XLATED[page] + offset, edi);
            let mut ended = true;
            for n in budgets {
                if ended {
                    step_start(&mut whole, &mut cpu_w, regs);
                    step_start(&mut steps, &mut cpu_s, regs);
                }
                let got = run(&mut whole, &mut cpu_w, &mut env_w, n);
                let want = single_steps(&mut steps, &mut cpu_s, &mut env_s, n);
                prop_assert_eq!(&got, &want, "budget {}", n);
                prop_assert_eq!(stopped(&whole, &cpu_w), stopped(&steps, &cpu_s));
                prop_assert_eq!(&env_w.log, &env_s.log);
                prop_assert!(allocated(&whole) == allocated(&steps), "memory diverged");
                ended = got != Ok(StopReason::Budget);
            }
        }
    }
}

/// The property's program, run whole: the frame fuses once the cache is
/// warm, the translation hits, and every callback is where it should be.
#[test]
fn the_stepped_program_runs_whole_and_fuses_its_frame() {
    let (mut m, mut cpu) = step_world();
    let mut env = Witness::default();
    let inside = STEP_STACK + 2 * PAGE_SIZE - 0x100;
    let frames = || crate::interp::FRAME_HITS.with(|hits| hits.replace(0));
    frames();
    for _ in 0..2 {
        step_start(&mut m, &mut cpu, (inside, XLATED[0] + 8, PAGES[3] + 8));
        assert_eq!(
            run(&mut m, &mut cpu, &mut env, 100),
            Ok(StopReason::Returned)
        );
    }
    assert_eq!(frames(), 1, "the warm run");
    // Per run: the `movl`'s device read, the `addl`'s read and write,
    // the store, then `probe`.
    let probe = m.extern_addr("probe").unwrap();
    let wheres: Vec<u64> = env.log.iter().map(|sight| sight.0).collect();
    let (word, next, last) = (PAGES[3] + 8, PAGES[3] + 12, PAGES[3] + 16);
    assert_eq!(wheres, [word, next, next, last, probe].repeat(2));
    assert_eq!(cpu.reg(Reg::Esp) as u64, inside);
}
