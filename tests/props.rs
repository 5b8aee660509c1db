//! Property-based tests on the core invariants:
//!
//! * **Rewriter equivalence** — for random driver-like programs, the
//!   SVM-rewritten binary executed in the hypervisor (through a real
//!   stlb, from a foreign address space) computes exactly what the
//!   original computes natively in dom0: same return value, same final
//!   data-section bytes. This is the paper's core correctness claim.
//! * **Assembler/encoder round-trips** on the same random programs.
//! * **stlb indexing** properties.
//! * **Datapath equivalences** — every knob on the datapath moves
//!   cycles, never traffic: each property drives one mixed burst
//!   schedule through a knob-on and a knob-off system and compares
//!   their [`Outcome`]s under a [`Law`].
//! * **A fork is its original** — a [`twindrivers::Snapshot`]'s forks
//!   run any suffix exactly as the system it was taken of.

use proptest::prelude::*;
use twin_isa::asm::assemble;
use twin_isa::Module;
use twin_kernel::load_driver;
use twin_machine::{
    run, stlb, Cpu, Env, Event, ExecMode, ExternId, Fault, Machine, NullEnv, SpaceId, StopReason,
    Term, HYPER_BASE, PAGE_SIZE,
};
use twin_net::{Frame, MacAddr};
use twin_rewriter::{rewrite, RewriteOptions};
use twin_svm::{Svm, CALL_XLAT_SYMBOL, SLOW_PATH_SYMBOL};
use twindrivers::system::DomId;
use twindrivers::{
    balanced_flow_set, peer_mac, Config, Itr, Law, Outcome, ShardPolicy, System, SystemOptions,
    UpcallMode,
};

const VM_CODE: u64 = 0x0800_0000;
const HYP_CODE: u64 = 0x0c00_0000;
const DATA: u64 = 0x2600_0000;
const DOM0_STACK: u64 = 0x3000_0000;
const HYP_STACK: u64 = HYPER_BASE + 0x00a0_0000;

/// One random operation on the shared data buffer.
#[derive(Clone, Debug)]
enum Op {
    LoadConst(u32),
    Store(u16),
    Load(u16),
    AddMem(u16),
    AddConst(u32),
    XorToMem(u16),
    IncMem(u16),
    StoreByte(u16),
    LoadByte(u16),
    PushPop(u16, u16),
    Copy { src: u16, dst: u16, words: u8 },
    Fill { dst: u16, words: u8, val: u8 },
}

impl Op {
    fn emit(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Op::LoadConst(v) => writeln!(out, "    movl ${v}, %eax").unwrap(),
            Op::Store(o) => writeln!(out, "    movl %eax, buf+{o}").unwrap(),
            Op::Load(o) => writeln!(out, "    movl buf+{o}, %eax").unwrap(),
            Op::AddMem(o) => writeln!(out, "    addl buf+{o}, %eax").unwrap(),
            Op::AddConst(v) => writeln!(out, "    addl ${v}, %eax").unwrap(),
            Op::XorToMem(o) => writeln!(out, "    xorl %eax, buf+{o}").unwrap(),
            Op::IncMem(o) => writeln!(out, "    incl buf+{o}").unwrap(),
            Op::StoreByte(o) => writeln!(out, "    movb %eax, buf+{o}").unwrap(),
            Op::LoadByte(o) => writeln!(out, "    movzbl buf+{o}, %eax").unwrap(),
            Op::PushPop(a, b) => {
                writeln!(out, "    pushl buf+{a}").unwrap();
                writeln!(out, "    popl buf+{b}").unwrap();
            }
            Op::Copy { src, dst, words } => {
                writeln!(out, "    movl $buf+{src}, %esi").unwrap();
                writeln!(out, "    movl $buf+{dst}, %edi").unwrap();
                writeln!(out, "    movl ${words}, %ecx").unwrap();
                writeln!(out, "    rep movsl").unwrap();
            }
            Op::Fill { dst, words, val } => {
                writeln!(out, "    movl ${val}, %eax").unwrap();
                writeln!(out, "    movl $buf+{dst}, %edi").unwrap();
                writeln!(out, "    movl ${words}, %ecx").unwrap();
                writeln!(out, "    rep stosl").unwrap();
            }
        }
    }
}

const BUF: u16 = 8192; // spans 3 pages when offset by the data base

fn op_strategy() -> impl Strategy<Value = Op> {
    let off = (0u16..BUF / 4 - 1).prop_map(|i| i * 4);
    prop_oneof![
        (0u32..1000).prop_map(Op::LoadConst),
        off.clone().prop_map(Op::Store),
        off.clone().prop_map(Op::Load),
        off.clone().prop_map(Op::AddMem),
        (0u32..1000).prop_map(Op::AddConst),
        off.clone().prop_map(Op::XorToMem),
        off.clone().prop_map(Op::IncMem),
        (0u16..BUF - 1).prop_map(Op::StoreByte),
        (0u16..BUF - 1).prop_map(Op::LoadByte),
        (off.clone(), off.clone()).prop_map(|(a, b)| Op::PushPop(a, b)),
        ((0u16..128), (0u16..128), (1u8..40)).prop_map(|(s, d, w)| Op::Copy {
            src: s * 4,
            dst: BUF / 2 + d * 4,
            words: w,
        }),
        ((0u16..128), (1u8..40), any::<u8>()).prop_map(|(d, w, v)| Op::Fill {
            dst: BUF / 2 + d * 4,
            words: w,
            val: v,
        }),
    ]
}

fn program(ops: &[Op]) -> String {
    let mut src = String::from(
        "    .text\n    .globl f\nf:\n    pushl %ebp\n    movl %esp, %ebp\n    pushl %ebx\n    pushl %esi\n    pushl %edi\n    movl $0, %eax\n",
    );
    for op in ops {
        op.emit(&mut src);
    }
    // Checksum the buffer into eax so memory state is observable even
    // without comparing bytes.
    src.push_str(
        "    movl $0, %ecx\n    movl $0, %edx\nck_loop:\n    addl buf(%edx), %ecx\n    addl $4, %edx\n    cmpl $8192, %edx\n    jne ck_loop\n    movl %ecx, %eax\n",
    );
    src.push_str("    popl %edi\n    popl %esi\n    popl %ebx\n    popl %ebp\n    ret\n");
    src.push_str("    .data\n    .globl buf\nbuf:\n");
    // Deterministic non-zero initial contents.
    for i in 0..BUF / 4 {
        src.push_str(&format!(
            "    .long {}\n",
            (i as u32).wrapping_mul(2654435761)
        ));
    }
    src
}

struct SvmEnv {
    svm: Svm,
}

impl Env for SvmEnv {
    fn extern_call(&mut self, id: ExternId, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault> {
        match m.extern_name(id).unwrap_or_default() {
            SLOW_PATH_SYMBOL => {
                let a = cpu.arg(m, 0)? as u64;
                self.svm.slow_path(m, a)?;
                Ok(())
            }
            CALL_XLAT_SYMBOL => {
                let t = cpu.arg(m, 0)? as u64;
                let x = self.svm.translate_call(m, t)?;
                cpu.set_reg(twin_isa::Reg::Eax, x as u32);
                Ok(())
            }
            other => Err(Fault::UnknownExtern(other.to_string())),
        }
    }
    fn mmio_read(
        &mut self,
        _: &mut Machine,
        _: u32,
        a: u64,
        _: twin_isa::Width,
    ) -> Result<u32, Fault> {
        Err(Fault::MmioAccess { addr: a })
    }
    fn mmio_write(
        &mut self,
        _: &mut Machine,
        _: u32,
        a: u64,
        _: twin_isa::Width,
        _: u32,
    ) -> Result<(), Fault> {
        Err(Fault::MmioAccess { addr: a })
    }
}

/// Calls `f` `calls` times natively in dom0: the last return value and
/// the buffer.
fn run_native(module: &Module, calls: usize) -> (u32, Vec<u8>) {
    let mut m = Machine::new();
    let dom0 = m.new_space();
    m.map_stack(dom0, DOM0_STACK, 8).unwrap();
    let d = load_driver(&mut m, dom0, module, VM_CODE, DATA, |_| None).unwrap();
    let mut cpu = Cpu::new(dom0, ExecMode::Guest);
    for _ in 0..calls {
        cpu.set_stack(DOM0_STACK + 8 * PAGE_SIZE);
        cpu.push_call_frame(&mut m, &[]).unwrap();
        cpu.pc = d.entry("f").unwrap();
        let stop = run(&mut m, &mut cpu, &mut NullEnv, 50_000_000).unwrap();
        assert_eq!(stop, StopReason::Returned);
    }
    (cpu.reg(twin_isa::Reg::Eax), dump(&m, dom0))
}

/// What [`run_twin`] leaves behind.
struct Twin {
    ret: u32,
    data: Vec<u8>,
    stlb_misses: u64,
    /// Translations the linker fused in the hypervisor image.
    fused_sites: usize,
}

/// Calls `f` of a rewritten module `calls` times in the hypervisor, from
/// a foreign address space, emptying the stlb between calls: every call
/// after the first misses on its first touch of each page, takes the
/// slow path and retries.
fn run_twin(rewritten: &Module, calls: usize) -> Twin {
    let mut m = Machine::new();
    let dom0 = m.new_space();
    let domu = m.new_space();
    m.map_hyper_fresh(HYP_STACK, 8).unwrap();
    let mut svm = Svm::new_hypervisor(&mut m, dom0, 0, (0, u64::MAX)).unwrap();
    let stlb = svm.placement().base;
    // Load data once in dom0 (relocs point at the VM image), then link
    // the hypervisor image at constant offset.
    let vm = load_driver(&mut m, dom0, rewritten, VM_CODE, DATA, |n| {
        (n == twin_svm::STLB_SYMBOL).then_some(stlb)
    })
    .unwrap();
    svm.set_code_mapping(
        (HYP_CODE - VM_CODE) as i64,
        (HYP_CODE, HYP_CODE + (rewritten.text.len() as u64) * 4),
    );
    let img = m
        .load_image(rewritten, HYP_CODE, |n| {
            if n == twin_svm::STLB_SYMBOL {
                Some(stlb)
            } else {
                vm.data_symbol(n)
            }
        })
        .unwrap();
    let entry = m.image(img).export("f").unwrap();
    let mut cpu = Cpu::new(domu, ExecMode::Hypervisor);
    let mut env = SvmEnv { svm };
    for call in 0..calls {
        if call > 0 {
            env.svm.clear_table(&mut m).unwrap();
        }
        cpu.set_stack(HYP_STACK + 8 * PAGE_SIZE);
        cpu.push_call_frame(&mut m, &[]).unwrap();
        cpu.pc = entry;
        let stop = run(&mut m, &mut cpu, &mut env, 100_000_000).unwrap();
        assert_eq!(stop, StopReason::Returned);
    }
    Twin {
        ret: cpu.reg(twin_isa::Reg::Eax),
        data: dump(&m, dom0),
        stlb_misses: m.meter.payments(Term::StlbSlowPath),
        fused_sites: m.image(img).fused_sites(),
    }
}

/// `rewritten` with a `nop` after the head of every translation: the
/// same program, in which the linker finds no Figure 4 template to fuse
/// — the interpreter runs it op by op, as it ran everything before the
/// fused op existed.
fn unfused(rewritten: &Module) -> Module {
    let heads: std::collections::BTreeSet<usize> = rewritten
        .labels
        .iter()
        .filter(|(label, _)| label.starts_with(".Lsvm_retry_"))
        .map(|(_, at)| *at)
        .collect();
    let mut out = rewritten.clone();
    out.text.clear();
    // Old instruction index -> new.
    let mut moved = Vec::with_capacity(rewritten.text.len() + 1);
    for (i, insn) in rewritten.text.iter().enumerate() {
        moved.push(out.text.len());
        out.text.push(insn.clone());
        if heads.contains(&i) {
            out.text.push(twin_isa::Insn::Nop);
        }
    }
    moved.push(out.text.len());
    for at in out.labels.values_mut() {
        *at = moved[*at];
    }
    out
}

fn dump(m: &Machine, space: SpaceId) -> Vec<u8> {
    (0..BUF as u64)
        .map(|i| {
            m.read_virt(space, ExecMode::Guest, DATA + i, twin_isa::Width::Byte)
                .unwrap() as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// The paper's core claim, as a property: rewriting preserves
    /// semantics under SVM from a foreign address space.
    #[test]
    fn rewritten_program_equivalent_to_original(ops in prop::collection::vec(op_strategy(), 1..24)) {
        let src = program(&ops);
        let module = assemble("p", &src).unwrap();
        let (r0, d0) = run_native(&module, 1);
        let twin = run_twin(&rewrite(&module, &RewriteOptions::default()).unwrap().module, 1);
        prop_assert_eq!(r0, twin.ret, "return values differ");
        prop_assert_eq!(d0, twin.data, "data section diverged");
    }

    /// The same claim across every arm of the Figure 4 template, which
    /// the interpreter runs fused on a hit (`twin_machine` crate docs)
    /// and op by op otherwise: three calls with the stlb emptied in
    /// between cross hit, miss, slow path and retry. The result is the
    /// original's, and the un-fused link of the same binary agrees on it
    /// and on the number of misses.
    #[test]
    fn rewritten_program_equivalent_when_stlb_entries_are_evicted(ops in prop::collection::vec(op_strategy(), 1..16)) {
        let src = program(&ops);
        let module = assemble("p", &src).unwrap();
        let (r0, d0) = run_native(&module, 3);
        let rewritten = rewrite(&module, &RewriteOptions::default()).unwrap().module;
        let fused = run_twin(&rewritten, 3);
        let plain = run_twin(&unfused(&rewritten), 3);
        prop_assert!(fused.fused_sites > 0);
        prop_assert_eq!(plain.fused_sites, 0);
        prop_assert_eq!((r0, &d0), (fused.ret, &fused.data));
        prop_assert_eq!((r0, &d0), (plain.ret, &plain.data));
        prop_assert!(fused.stlb_misses > 3, "each call misses");
        prop_assert_eq!(fused.stlb_misses, plain.stlb_misses);
    }

    /// Same property with liveness disabled (all sites spill).
    #[test]
    fn rewritten_program_equivalent_without_liveness(ops in prop::collection::vec(op_strategy(), 1..12)) {
        let src = program(&ops);
        let module = assemble("p", &src).unwrap();
        let (r0, d0) = run_native(&module, 1);
        let opts = RewriteOptions { liveness: false, ..RewriteOptions::default() };
        let twin = run_twin(&rewrite(&module, &opts).unwrap().module, 1);
        prop_assert_eq!(r0, twin.ret);
        prop_assert_eq!(d0, twin.data);
    }

    /// Assembler round-trip: render(assemble(p)) reassembles identically.
    #[test]
    fn assembler_roundtrip(ops in prop::collection::vec(op_strategy(), 1..24)) {
        let src = program(&ops);
        let m1 = assemble("p", &src).unwrap();
        let m2 = assemble("p", &m1.render()).unwrap();
        prop_assert_eq!(&m1.text, &m2.text);
        prop_assert_eq!(&m1.labels, &m2.labels);
        prop_assert_eq!(&m1.data.bytes, &m2.data.bytes);
    }

    /// Object-format round-trip on random programs (original and
    /// rewritten).
    #[test]
    fn encode_roundtrip(ops in prop::collection::vec(op_strategy(), 1..16)) {
        let src = program(&ops);
        let m1 = assemble("p", &src).unwrap();
        let bytes = twin_isa::encode::encode(&m1);
        prop_assert_eq!(&m1, &twin_isa::encode::decode(&bytes).unwrap());
        let rw = rewrite(&m1, &RewriteOptions::default()).unwrap().module;
        let bytes = twin_isa::encode::encode(&rw);
        prop_assert_eq!(&rw, &twin_isa::encode::decode(&bytes).unwrap());
    }

    /// stlb index covers exactly bits 12..24 and offsets are preserved
    /// by translation; the entry the table fill writes is the one the
    /// rewritten code probes.
    #[test]
    fn stlb_index_properties(addr in 0u64..0xE000_0000) {
        let idx = Svm::index_of(addr);
        prop_assert!(idx < stlb::ENTRIES);
        prop_assert_eq!(idx, Svm::index_of(addr & !0xfff));
        prop_assert_eq!(idx, (addr >> 12) % stlb::ENTRIES);
        prop_assert_eq!(u64::from(stlb::entry_offset(addr as u32)), idx * stlb::ENTRY_SIZE);
    }
}

/// FlowHash over four NICs: the sharding most datapath properties run on.
fn four_nics() -> SystemOptions {
    SystemOptions {
        num_nics: 4,
        shard: ShardPolicy::FlowHash,
        ..SystemOptions::default()
    }
}

/// A TwinDrivers system built with `opts`, guests 2 and 3 added beside
/// the primary guest 1.
fn three_guests(opts: &SystemOptions) -> System {
    let mut sys = System::build_with(Config::TwinDrivers, opts).unwrap();
    for g in [2, 3] {
        sys.add_guest(MacAddr::for_guest(g)).unwrap();
    }
    sys
}

/// Drives the mixed traffic through `sys`: per entry `s` of `sizes`, a
/// transmit burst of `s`, then a receive burst of `s` frames rotating
/// over six flows `base..base + 6` — flow `base + f` to guest
/// `f % 3 + 1`, each flow numbering its own seqs, the first burst led
/// by `lead` more frames of flow `base` — then `between(sys, k)`.
/// Returns the frames offered.
fn drive(
    sys: &mut System,
    sizes: &[usize],
    base: u32,
    lead: usize,
    mut between: impl FnMut(&mut System, usize),
) -> Vec<Frame> {
    let mut seqs = [0u64; 6];
    let mut offered = Vec::new();
    for (k, &s) in sizes.iter().enumerate() {
        assert_eq!(sys.transmit_burst(s).unwrap(), s);
        let lead = if k == 0 { lead } else { 0 };
        let frames: Vec<Frame> = (0..lead + s)
            .map(|i| {
                let f = if i < lead { 0 } else { (k + i - lead) % 6 };
                seqs[f] += 1;
                let dst = MacAddr::for_guest(f as u32 % 3 + 1);
                Frame::data(dst, peer_mac(), base + f as u32, seqs[f] - 1)
            })
            .collect();
        assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
        offered.extend(frames);
        between(sys, k);
    }
    offered
}

/// One frame to guest 1 on a flow of each of four FlowHash devices: a
/// final interrupt pass per NIC. TX-descriptor reclaim happens on a
/// device's *next* driver invocation, so this equalizes it between two
/// runs whose idle-time passes differ — otherwise pool counts diverge
/// for bookkeeping, not correctness, reasons.
fn settle() -> Vec<Frame> {
    let flows = balanced_flow_set(4, 1).into_iter();
    flows
        .map(|f| Frame::data(MacAddr::for_guest(1), peer_mac(), f, 0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// The burst pipeline's core invariant: any interleaving of burst
    /// sizes on the TwinDrivers fast path delivers every frame, in
    /// order, on both directions — batching changes cost, never traffic.
    #[test]
    fn interleaved_bursts_never_drop_or_reorder(
        sizes in prop::collection::vec(1usize..33, 1..8),
    ) {
        let mut sys = three_guests(&SystemOptions::default());
        let offered = drive(&mut sys, &sizes, 5, 0, |_, _| {});
        let o = sys.outcome();
        // Transmit: nothing dropped, strict wire order.
        prop_assert_eq!(o.wire.len(), sizes.iter().sum::<usize>());
        prop_assert!(o.wire.windows(2).all(|w| w[0].seq < w[1].seq), "wire reordered");
        // Receive: every injected frame reached its guest, in order.
        for g in 1..4 {
            let to_g = offered.iter().filter(|f| f.dst == MacAddr::for_guest(g));
            prop_assert!(o.delivered(DomId(g)).iter().eq(to_g), "guest {} deliveries", g);
        }
    }

    /// The multi-NIC sharding invariant: interleaved transmit and
    /// receive bursts of arbitrary sizes, sharded across 2–4 NICs by
    /// flow hash, never cross-deliver between guests, never drop a
    /// frame, and never reorder any (guest, flow) subsequence.
    #[test]
    fn sharded_bursts_never_cross_deliver_between_guests(
        sizes in prop::collection::vec(1usize..25, 1..6),
        nics in 2usize..5,
    ) {
        let mut sys = three_guests(&SystemOptions { num_nics: nics, ..four_nics() });
        let offered = drive(&mut sys, &sizes, 20, 0, |_, _| {});
        let o = sys.outcome();
        prop_assert_eq!(o.wire.len(), sizes.iter().sum::<usize>());
        // Each guest got exactly its own frames, every flow in order.
        for g in 1..4 {
            let key = |f: &&Frame| (f.flow, f.seq);
            let mut got: Vec<&Frame> = o.delivered(DomId(g)).iter().collect();
            let to_g = |f: &&Frame| f.dst == MacAddr::for_guest(g);
            let mut want: Vec<&Frame> = offered.iter().filter(to_g).collect();
            got.sort_by_key(key);
            want.sort_by_key(key);
            prop_assert_eq!(got, want, "guest {} deliveries", g);
        }
        prop_assert_eq!(o.reorders(), 0);
        prop_assert_eq!(o.event(Event::DemuxMiss), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// The zero-copy datapath's core invariant: under any interleaving
    /// of TX/RX bursts across 4 FlowHash-sharded NICs and three guests
    /// (guest 3 never granted a pool, so the copy fallback runs in the
    /// same pass as warm hits) — with, in some cases, one granted flow
    /// bursting past its pool slice so the exhaustion fallback runs
    /// mid-burst too —, zero-copy mode moves exactly the copy mode's
    /// traffic ([`Law::SameTraffic`]). The grant cache may only move
    /// cycles, never frames.
    #[test]
    fn zero_copy_equivalent_to_copy_across_shards(
        sizes in prop::collection::vec(1usize..21, 1..6),
        hot in prop_oneof![Just(0usize), 65usize..twindrivers::MAX_BURST + 1],
    ) {
        let mut outcomes = [false, true].map(|zero_copy| {
            let mut sys = three_guests(&SystemOptions { zero_copy, ..four_nics() });
            // Guest 2 granted after the fact, guest 3 never.
            sys.grant_zero_copy_pool(DomId(2)).unwrap();
            // `hot` frames of flow 50 (guest 1, granted) open the first
            // burst: more than its pool slice holds, so the tail bounces
            // while the flows behind it hit warm slots in the same pass.
            let offered = drive(&mut sys, &sizes, 50, hot, |_, _| {});
            let to_ungranted = offered.iter().filter(|f| f.dst == MacAddr::for_guest(3));
            (sys.outcome(), to_ungranted.count() as u64)
        });
        let [(copy, _), (zc, to_ungranted)] = &mut outcomes;
        copy.check(zc, Law::SameTraffic).unwrap();
        prop_assert_eq!((copy.event(Event::DemuxMiss), zc.event(Event::DemuxMiss)), (0, 0));
        // The zero-copy run actually exercised the cache (and, with a
        // hot flow, the exhaustion fallback toward a granted guest).
        prop_assert!(zc.metrics.counter("event.grant_cache_hit") + zc.metrics.counter("event.pin_page") > 0, "cache engaged");
        let exhausted = zc.metrics.counter("event.copy_fallback") - *to_ungranted;
        prop_assert_eq!(exhausted > 0, hot > 0, "{} exhaustion fallbacks", exhausted);
    }

    /// The deferred-upcall engine's core invariant: under any
    /// interleaving of transmit/receive bursts across 4 sharded NICs,
    /// with any number of fast-path routines forced onto the upcall
    /// path, deferred mode moves exactly the synchronous mode's traffic
    /// ([`Law::SameTraffic`]). Deferral may only move cycles.
    #[test]
    fn deferred_upcalls_equivalent_to_sync_across_shards(
        sizes in prop::collection::vec(1usize..21, 1..5),
        upcalls in 1usize..10,
    ) {
        let [(sync, _), (defer, depth)] = [UpcallMode::Sync, UpcallMode::Deferred].map(|upcall_mode| {
            let opts = SystemOptions { upcall_count: upcalls, upcall_mode, ..four_nics() };
            let mut sys = three_guests(&opts);
            drive(&mut sys, &sizes, 30, 0, |_, _| {});
            let depth = sys.world.hyper.as_ref().unwrap().engine.depth();
            (sys.outcome(), depth)
        });
        sync.check(&defer, Law::SameTraffic).unwrap();
        prop_assert_eq!((sync.event(Event::DemuxMiss), defer.event(Event::DemuxMiss)), (0, 0));
        // The deferred run really deferred (and drained its ring).
        prop_assert!(defer.metrics.counter("event.upcall_flush") > 0, "engine engaged");
        prop_assert_eq!(depth, 0, "ring drained at pass end");
    }

    /// The virtual-time engine's core invariant: arbitrary interleaved
    /// TX/RX bursts across 4 FlowHash-sharded NICs with random
    /// per-device ITR values, deferred upcalls and a flush deadline
    /// deliver exactly the same frame sets as ITR=0/sync mode —
    /// moderation and deferral may move *when* things happen, never
    /// *what* happens ([`Law::SameFlows`]: cross-flow interleaving may
    /// differ, since devices reap at different instants).
    #[test]
    fn moderated_delivery_equivalent_to_unmoderated_sync(
        sizes in prop::collection::vec(1usize..21, 1..5),
        itrs in prop::collection::vec(0u32..2500, 4..5),
        upcalls in 0usize..10,
        idle in 1_000u64..400_000,
    ) {
        let mut reference = three_guests(&SystemOptions { upcall_count: upcalls, ..four_nics() });
        // Same forced-upcall set on both sides: only the *mode* and the
        // timers differ.
        let mut moderated = three_guests(&SystemOptions {
            upcall_count: upcalls,
            upcall_mode: UpcallMode::Deferred,
            upcall_flush_deadline_cycles: Some(300_000),
            ..four_nics()
        });
        for (dev, itr) in itrs.iter().enumerate() {
            moderated.set_itr(dev as u32, *itr).unwrap();
        }
        drive(&mut reference, &sizes, 40, 0, |_, _| {});
        prop_assert_eq!(reference.receive_burst(&settle()).unwrap(), 4);
        // Only the moderated system needs time to pass for its windows;
        // the reference delivers inline.
        drive(&mut moderated, &sizes, 40, 0, |sys, _| sys.run_idle(idle).unwrap());
        moderated.drain_moderated().unwrap();
        prop_assert_eq!(moderated.receive_burst(&settle()).unwrap(), 4);
        moderated.drain_moderated().unwrap();
        let (reference, moderated) = (reference.outcome(), moderated.outcome());
        reference.check(&moderated, Law::SameFlows).unwrap();
        prop_assert_eq!(moderated.total("nic", "rx_missed"), 0, "moderation never drops");
        prop_assert_eq!((reference.event(Event::DemuxMiss), moderated.event(Event::DemuxMiss)), (0, 0));
    }

    /// The auto-tuner's core invariant: a closed-loop retuned system
    /// delivers exactly what the untuned (ITR 0) system delivers under
    /// any interleaving of TX/RX bursts and idle gaps across 4
    /// FlowHash-sharded NICs — the moving `ITR` knob shifts *when*
    /// interrupts fire, never *what* traffic flows ([`Law::SameFlows`]),
    /// and drops nothing.
    #[test]
    fn autotuned_delivery_equivalent_to_untuned(
        sizes in prop::collection::vec(1usize..21, 1..5),
        upcalls in 0usize..10,
        idle in 1_000u64..400_000,
    ) {
        let [reference, tuned] = [Itr::Fixed(0), Itr::Auto].map(|itr| {
            let mut sys = three_guests(&SystemOptions { upcall_count: upcalls, itr, ..four_nics() });
            if itr == Itr::Auto {
                // Idle lets the tuner's windows elapse and any moderated
                // window it programmed open.
                drive(&mut sys, &sizes, 40, 0, |sys, _| sys.run_idle(idle).unwrap());
                sys.drain_moderated().unwrap();
                assert_eq!(sys.receive_burst(&settle()).unwrap(), 4);
                sys.drain_moderated().unwrap();
            } else {
                drive(&mut sys, &sizes, 40, 0, |_, _| {});
                assert_eq!(sys.receive_burst(&settle()).unwrap(), 4);
            }
            sys.outcome()
        });
        reference.check(&tuned, Law::SameFlows).unwrap();
        prop_assert_eq!(tuned.total("nic", "rx_missed"), 0, "a moving ITR still delays, never drops");
        prop_assert_eq!((reference.event(Event::DemuxMiss), tuned.event(Event::DemuxMiss)), (0, 0));
    }

    /// The flight recorder's core invariant: tracing is *observation
    /// only*. For any interleaving of TX/RX bursts and idle gaps across
    /// 4 FlowHash-sharded NICs with NAPI, DRR weights and deferred
    /// upcalls all active, a traced run is [`Law::BitExact`] with an
    /// untraced one: the only permitted difference is the recorder's own
    /// contents.
    #[test]
    fn traced_run_is_bit_exact_with_untraced(
        sizes in prop::collection::vec(1usize..21, 1..5),
        upcalls in 0usize..10,
        idle in 1_000u64..400_000,
    ) {
        let [(traced, recorded), (untraced, unrecorded)] = [true, false].map(|tracing| {
            let mut sys = three_guests(&SystemOptions {
                upcall_count: upcalls,
                upcall_mode: UpcallMode::Deferred,
                upcall_flush_deadline_cycles: Some(300_000),
                napi_weight: 16,
                rx_queue_cap: Some(256),
                rx_backlog_watermark: Some(512),
                guest_weights: vec![(2, 64), (3, 64)],
                tracing,
                ..four_nics()
            });
            drive(&mut sys, &sizes, 40, 0, |sys, _| sys.run_idle(idle).unwrap());
            sys.drain_moderated().unwrap();
            (sys.outcome(), sys.machine.trace.len())
        });
        // The traced side actually recorded something (NAPI is on, so at
        // minimum irq/poll events) — the comparison is not vacuous.
        prop_assert!(recorded > 0, "recorder engaged");
        prop_assert_eq!(unrecorded, 0);
        traced.check(&untraced, Law::BitExact).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 5,
        ..ProptestConfig::default()
    })]

    /// The fault-isolation invariant: a fault of any class, against any
    /// device, at any point in the schedule, never perturbs the
    /// survivors — every surviving device's per-flow delivery sequence
    /// is exactly the unfaulted control run's, the faulted device loses
    /// exactly its armed burst, recovery completes, and pool state
    /// returns to the pre-fault steady state (no per-episode leak).
    #[test]
    fn random_faults_never_corrupt_survivors(
        class_i in 0usize..3,
        dev in 0u32..3,
        fault_round in 1usize..4,
        burst in 4usize..13,
    ) {
        use twindrivers::measure::{fault_injected_source, flow_for_dev, FaultClass};
        use twindrivers::SystemError;

        let nics = 3u32;
        let class = FaultClass::ALL[class_i];
        let [mut sys, mut control] = [(); 2].map(|()| {
            three_guests(&SystemOptions {
                driver_source: Some(fault_injected_source(class)),
                num_nics: nics as usize,
                zero_copy: true,
                ..four_nics()
            })
        });
        // One flow per device.
        let flow_for = |d: u32| flow_for_dev(d, nics, 0x7100).unwrap();
        let mut seq = 0u64;
        let mut frames_for = |d: u32| -> Vec<Frame> {
            seq += burst as u64;
            (seq - burst as u64..seq)
                .map(|s| Frame::data(MacAddr::for_guest(1), peer_mac(), flow_for(d), s))
                .collect()
        };

        // One fault-free round to reach steady state, then snapshot the
        // pool occupancy every later episode must return to.
        for d in 0..nics {
            let f = frames_for(d);
            prop_assert_eq!(sys.receive_burst(&f).unwrap(), burst);
            prop_assert_eq!(control.receive_burst(&f).unwrap(), burst);
        }
        // The ring's *composition* shifts after a reset (the dom0-driven
        // refill uses dom0-pool skbs; the hypervisor reap converges it
        // back toward hyper-pool skbs over later rounds), so the
        // conserved quantity is the total: every skb is in some pool or
        // posted in a ring — none lost, none double-freed.
        let steady = sys.outcome().free_skbs();

        let mut lost = 0u64..0;
        for round in 1..6usize {
            for d in 0..nics {
                let f = frames_for(d);
                prop_assert_eq!(control.receive_burst(&f).unwrap(), burst);
                if round == fault_round && d == dev {
                    lost = f[0].seq..f[0].seq + burst as u64;
                    sys.arm_driver_fault(class.arm_value(dev)).unwrap();
                    match sys.receive_burst(&f) {
                        Err(SystemError::DriverAborted(_)) => {}
                        other => prop_assert!(false, "expected abort, got {:?}", other),
                    }
                } else {
                    prop_assert_eq!(sys.receive_burst(&f).unwrap(), burst);
                }
            }
        }

        prop_assert_eq!(sys.recovery_log().len(), 1);
        prop_assert!(sys.quarantined_devices().is_empty());
        let (got, want) = (sys.outcome(), control.outcome());
        for d in 0..nics {
            let flow = flow_for(d);
            let seqs = |o: &Outcome| -> Vec<u64> {
                let log = o.delivered(DomId(1)).iter();
                log.filter(|f| f.flow == flow).map(|f| f.seq).collect()
            };
            let kept = |s: &u64| d != dev || !lost.contains(s);
            let want: Vec<u64> = seqs(&want).into_iter().filter(kept).collect();
            // The faulted device loses exactly the armed burst; a
            // survivor loses nothing.
            prop_assert_eq!(seqs(&got), want, "dev {} (faulted: {})", d, dev);
        }
        prop_assert_eq!(got.free_skbs(), steady, "episode leaked skbs");
        prop_assert_eq!(got.event(Event::DemuxMiss), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// The affinity-equivalence invariant: `ShardPolicy::Affinity`
    /// under an arbitrary vCPU run/sleep schedule is functionally
    /// identical to `ShardPolicy::FlowHash` under the *same* schedule
    /// once the deferred backlog drains ([`Law::SameFlows`]: placement
    /// and sleep deferral may move cycles and interleave flows
    /// differently, never reorder one). Affinity may only move cycles,
    /// never traffic.
    #[test]
    fn affinity_equivalent_to_flowhash_under_random_schedules(
        sizes in prop::collection::vec(1usize..17, 1..6),
        scheds in prop::collection::vec(
            (0u32..4, 50_000u64..400_000, 0u64..400_000),
            3..4,
        ),
        idles in prop::collection::vec(0u64..300_000, 1..6),
    ) {
        let [fh, af] = [ShardPolicy::FlowHash, ShardPolicy::Affinity].map(|shard| {
            let mut sys = three_guests(&SystemOptions { shard, ..four_nics() });
            // Identical registration instants: the phase-locked edges
            // land at the same absolute cycle in both systems, even
            // though their clocks drift apart later (cold refills are
            // charged differently per policy).
            for (g, &(cpu, run, sleep)) in scheds.iter().enumerate() {
                sys.sched_add_vcpu(DomId(g as u32 + 1), cpu, run, sleep).unwrap();
            }
            // Let the schedule flip mid-traffic so bursts land in run
            // and sleep phases alike.
            drive(&mut sys, &sizes, 50, 0, |sys, k| sys.run_idle(idles[k % idles.len()]).unwrap());
            // Drain the deferred backlog past the last sleep phase.
            for _ in 0..64 {
                if sys.rx_backlog() == 0 {
                    break;
                }
                sys.run_idle(500_000).unwrap();
            }
            // TX-completion reap rides device interrupts, whose timing
            // is policy-dependent (affinity moves RX interrupts across
            // devices). One final 8-frame pass covers every TX ring
            // (flows 1..8 hash onto all four devices), cleaning each
            // before posting, so pool state compares at quiescence.
            assert_eq!(sys.transmit_burst(8).unwrap(), 8);
            sys.run_idle(500_000).unwrap();
            sys.outcome()
        });
        fh.check(&af, Law::SameFlows).unwrap();
        prop_assert_eq!(af.backlog(), 0, "backlog drained");
        prop_assert_eq!((fh.event(Event::DemuxMiss), af.event(Event::DemuxMiss)), (0, 0));
    }
}

/// Every byte of physical memory and the allocator's free count.
fn same_memory(a: &System, b: &System) -> bool {
    fn all(s: &System) -> (usize, &[u8]) {
        let phys = &s.machine.phys;
        let len = phys.total_frames() * PAGE_SIZE as usize;
        (phys.free_frames(), phys.read_bytes(0, len))
    }
    all(a) == all(b)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    })]

    /// A fork is the system its snapshot was taken of. After any script
    /// prefix, two forks of one snapshot, each made after a fork of a
    /// second pair's snapshot ran the suffix and was dropped, run any
    /// suffix exactly as the original does: [`Law::BitExact`], and every
    /// byte of memory the same. The second fork lands on the buffer the
    /// first dropped and rewrites only the pages marked written there,
    /// so this checks, by its consequence, that a store the translation
    /// cache answers reaches only marked pages.
    #[test]
    fn a_snapshot_forks_into_the_system_it_was_taken_of(
        prefix in prop::collection::vec(1usize..21, 1..4),
        suffix in prop::collection::vec(1usize..21, 1..4),
        idle in 1_000u64..400_000,
    ) {
        let run = |sys: &mut System, sizes: &[usize], base: u32| {
            drive(sys, sizes, base, 0, |sys, _| sys.run_idle(idle).unwrap());
        };
        // NAPI polling on one pair, interrupts on the other; deferred
        // upcalls and their flush deadline on both.
        let [mut original, other] = [16, 0].map(|napi_weight| {
            let mut sys = three_guests(&SystemOptions {
                napi_weight,
                upcall_mode: UpcallMode::Deferred,
                upcall_flush_deadline_cycles: Some(300_000),
                ..four_nics()
            });
            run(&mut sys, &prefix, 40);
            sys
        });
        let (snapshot, other) = (original.snapshot(), other.snapshot());
        run(&mut original, &suffix, 60);
        let want = original.outcome();
        for round in 0..2 {
            let mut interleaved = other.fork();
            run(&mut interleaved, &suffix, 60);
            drop(interleaved);
            let mut fork = snapshot.fork();
            run(&mut fork, &suffix, 60);
            let law = fork.outcome().check(&want, Law::BitExact);
            law.unwrap_or_else(|e| panic!("fork {round}: {e}"));
            prop_assert!(same_memory(&fork, &original), "fork {}: the memory differs", round);
        }
    }
}
