//! Property-based tests on the core invariants:
//!
//! * **Rewriter equivalence** — for random driver-like programs, the
//!   SVM-rewritten binary executed in the hypervisor (through a real
//!   stlb, from a foreign address space) computes exactly what the
//!   original computes natively in dom0: same return value, same final
//!   data-section bytes. This is the paper's core correctness claim.
//! * **Assembler/encoder round-trips** on the same random programs.
//! * **stlb indexing** properties.

use proptest::prelude::*;
use twin_isa::asm::assemble;
use twin_isa::Module;
use twin_kernel::load_driver;
use twin_machine::{
    run, stlb, CostDomain, Cpu, Env, Event, ExecMode, ExternId, Fault, Machine, NullEnv, SpaceId,
    StopReason, HYPER_BASE, PAGE_SIZE,
};
use twin_rewriter::{rewrite, RewriteOptions};
use twin_svm::{Svm, CALL_XLAT_SYMBOL, SLOW_PATH_SYMBOL};

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
        stlb_misses: m.meter.event(Event::StlbMiss),
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
        use twin_net::{EtherType, Frame, MacAddr, MTU};
        use twindrivers::{peer_mac, Config, System};

        let mut sys = System::build(Config::TwinDrivers).unwrap();
        let mut sent = 0u64;
        let mut rx_seq = 0u64;
        for s in &sizes {
            prop_assert_eq!(sys.transmit_burst(*s).unwrap(), *s);
            sent += *s as u64;
            // Interleave a receive burst of a different size.
            let n = (*s as u64 / 2).max(1);
            let frames: Vec<Frame> = (0..n)
                .map(|_| {
                    let f = Frame {
                        dst: MacAddr::for_guest(1),
                        src: peer_mac(),
                        ethertype: EtherType::Ipv4,
                        payload_len: MTU,
                        flow: 5,
                        seq: rx_seq,
                    };
                    rx_seq += 1;
                    f
                })
                .collect();
            prop_assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
        }
        // Transmit: nothing dropped, strict wire order.
        let wire = sys.take_wire_frames();
        prop_assert_eq!(wire.len() as u64, sent);
        for w in wire.windows(2) {
            prop_assert!(w[0].seq < w[1].seq, "wire reordered");
        }
        // Receive: every injected frame reached the guest, in order.
        prop_assert_eq!(sys.delivered_rx() as u64, rx_seq);
        let gid = sys.guest.unwrap();
        let delivered = &sys.world.xen.as_ref().unwrap().domain(gid).rx_delivered;
        for (i, f) in delivered.iter().enumerate() {
            prop_assert_eq!(f.seq, i as u64, "guest delivery reordered");
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
        use twin_net::{EtherType, Frame, MacAddr, MTU};
        use twindrivers::{peer_mac, Config, ShardPolicy, System, SystemOptions};

        let opts = SystemOptions {
            num_nics: nics,
            shard: ShardPolicy::FlowHash,
            ..SystemOptions::default()
        };
        let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
        let g1 = sys.guest.unwrap();
        let mac2 = MacAddr::for_guest(2);
        let mac3 = MacAddr::for_guest(3);
        let g2 = sys.add_guest(mac2).unwrap();
        let g3 = sys.add_guest(mac3).unwrap();
        let macs = [MacAddr::for_guest(1), mac2, mac3];

        // Per-(guest, flow) sequence counters; six flows over three
        // guests so every burst mixes destinations and devices.
        let mut seqs = [0u64; 6];
        let mut injected = [0usize; 3];
        let mut tx_sent = 0u64;
        for (k, s) in sizes.iter().enumerate() {
            // Interleave a transmit burst (exercises the TX shards).
            prop_assert_eq!(sys.transmit_burst(*s).unwrap(), *s);
            tx_sent += *s as u64;
            let frames: Vec<Frame> = (0..*s as u32)
                .map(|i| {
                    let flow = ((k as u32) + i) % 6;
                    let guest = (flow % 3) as usize;
                    injected[guest] += 1;
                    let f = Frame {
                        dst: macs[guest],
                        src: peer_mac(),
                        ethertype: EtherType::Ipv4,
                        payload_len: MTU,
                        flow: 20 + flow,
                        seq: seqs[flow as usize],
                    };
                    seqs[flow as usize] += 1;
                    f
                })
                .collect();
            prop_assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
        }

        // Transmit: nothing dropped across the shards.
        prop_assert_eq!(sys.take_wire_frames().len() as u64, tx_sent);
        // Receive: each guest got exactly its own frames, with every
        // per-flow subsequence in order — frames never cross guests.
        let xen = sys.world.xen.as_ref().unwrap();
        for (gi, (g, mac)) in [(g1, macs[0]), (g2, mac2), (g3, mac3)].into_iter().enumerate() {
            let delivered = &xen.domain(g).rx_delivered;
            prop_assert_eq!(delivered.len(), injected[gi], "guest {} count", gi);
            prop_assert!(delivered.iter().all(|f| f.dst == mac), "cross-delivery");
            for flow in 20..26u32 {
                let s: Vec<u64> = delivered
                    .iter()
                    .filter(|f| f.flow == flow)
                    .map(|f| f.seq)
                    .collect();
                prop_assert!(s.windows(2).all(|w| w[0] < w[1]), "flow {} reordered", flow);
            }
        }
        prop_assert_eq!(sys.machine.meter.event(Event::DemuxMiss), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// The zero-copy datapath's core invariant: under any interleaving
    /// of TX/RX bursts across 4 FlowHash-sharded NICs and three guests
    /// (one of them never granted a pool, so the copy fallback runs in
    /// the same pass as warm hits) — with, in some cases, one granted
    /// flow bursting past its pool slice so the exhaustion fallback runs
    /// mid-burst too —, zero-copy mode produces exactly the
    /// copy mode's traffic — same wire frames, same per-guest frame
    /// sets with every (guest, flow) subsequence in order, same pool
    /// state. The grant cache may only move cycles, never frames.
    #[test]
    fn zero_copy_equivalent_to_copy_across_shards(
        sizes in prop::collection::vec(1usize..21, 1..6),
        hot in prop_oneof![Just(0usize), 65usize..twindrivers::MAX_BURST + 1],
    ) {
        use twin_net::{EtherType, Frame, MacAddr, MTU};
        use twindrivers::{peer_mac, Config, ShardPolicy, System, SystemOptions};

        let build = |zero_copy: bool| {
            System::build_with(
                Config::TwinDrivers,
                &SystemOptions {
                    num_nics: 4,
                    shard: ShardPolicy::FlowHash,
                    zero_copy,
                    ..SystemOptions::default()
                },
            )
            .unwrap()
        };
        let mut copy = build(false);
        let mut zc = build(true);

        let mac2 = MacAddr::for_guest(2);
        let mac3 = MacAddr::for_guest(3);
        for sys in [&mut copy, &mut zc] {
            let g2 = sys.add_guest(mac2).unwrap();
            sys.add_guest(mac3).unwrap();
            // Guest 2 granted after the fact, guest 3 never: frames to
            // g3 always take the fallback, in both modes.
            sys.grant_zero_copy_pool(g2).unwrap();
        }
        let macs = [MacAddr::for_guest(1), mac2, mac3];

        let mut to_ungranted = 0u64;
        for sys in [&mut copy, &mut zc] {
            let mut seqs = [0u64; 6];
            to_ungranted = 0;
            for (k, s) in sizes.iter().enumerate() {
                prop_assert_eq!(sys.transmit_burst(*s).unwrap(), *s);
                // The first burst opens with `hot` frames of flow 50
                // (guest 1, granted): more than its pool slice holds, so
                // the tail bounces while the flows behind it hit warm
                // slots in the same pass.
                let lead = if k == 0 { hot as u32 } else { 0 };
                let frames: Vec<Frame> = (0..lead + *s as u32)
                    .map(|i| {
                        let flow = if i < lead { 0 } else { ((k as u32) + i - lead) % 6 };
                        let guest = (flow % 3) as usize;
                        to_ungranted += u64::from(guest == 2);
                        let f = Frame {
                            dst: macs[guest],
                            src: peer_mac(),
                            ethertype: EtherType::Ipv4,
                            payload_len: MTU,
                            flow: 50 + flow,
                            seq: seqs[flow as usize],
                        };
                        seqs[flow as usize] += 1;
                        f
                    })
                    .collect();
                prop_assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
            }
        }

        // Identical wire traffic and per-guest deliveries.
        prop_assert_eq!(copy.take_wire_frames(), zc.take_wire_frames());
        let cxen = copy.world.xen.as_ref().unwrap();
        let zxen = zc.world.xen.as_ref().unwrap();
        for g in 1..4u32 {
            let cd = &cxen.domains[g as usize].rx_delivered;
            let zd = &zxen.domains[g as usize].rx_delivered;
            prop_assert_eq!(cd, zd, "guest {} deliveries", g);
            for flow in 50..56u32 {
                let seq: Vec<u64> =
                    zd.iter().filter(|f| f.flow == flow).map(|f| f.seq).collect();
                prop_assert!(
                    seq.windows(2).all(|w| w[0] < w[1]),
                    "guest {} flow {} reordered: {:?}", g, flow, seq
                );
            }
        }
        // Identical side effects on shared state.
        prop_assert_eq!(
            copy.world.kernel.pool.available(),
            zc.world.kernel.pool.available()
        );
        prop_assert_eq!(
            copy.world.kernel.hyper_pool.as_ref().unwrap().available(),
            zc.world.kernel.hyper_pool.as_ref().unwrap().available()
        );
        prop_assert_eq!(copy.machine.meter.event(Event::DemuxMiss), 0);
        prop_assert_eq!(zc.machine.meter.event(Event::DemuxMiss), 0);
        // The zero-copy run actually exercised the cache (and, with a
        // hot flow, the exhaustion fallback toward a granted guest) —
        // cycles moved, traffic did not.
        let accesses = zc.machine.meter.event(Event::GrantCacheHit) + zc.machine.meter.event(Event::PinPage);
        prop_assert!(accesses > 0, "cache engaged");
        let exhausted = zc.machine.meter.event(Event::CopyFallback) - to_ungranted;
        prop_assert_eq!(exhausted > 0, hot > 0, "{} exhaustion fallbacks", exhausted);
    }

    /// The deferred-upcall engine's core invariant: under any
    /// interleaving of transmit/receive bursts across 4 sharded NICs,
    /// with any number of fast-path routines forced onto the upcall
    /// path, deferred mode produces exactly the synchronous mode's
    /// results and side effects — same wire frames, same guest
    /// deliveries, same pool state. Deferral may only move cycles.
    #[test]
    fn deferred_upcalls_equivalent_to_sync_across_shards(
        sizes in prop::collection::vec(1usize..21, 1..5),
        upcalls in 1usize..10,
    ) {
        use twin_net::{EtherType, Frame, MacAddr, MTU};
        use twindrivers::{
            peer_mac, Config, ShardPolicy, System, SystemOptions, UpcallMode,
        };

        let build = |mode: UpcallMode| {
            System::build_with(
                Config::TwinDrivers,
                &SystemOptions {
                    num_nics: 4,
                    shard: ShardPolicy::FlowHash,
                    upcall_count: upcalls,
                    upcall_mode: mode,
                    ..SystemOptions::default()
                },
            )
            .unwrap()
        };
        let mut sync = build(UpcallMode::Sync);
        let mut defer = build(UpcallMode::Deferred);
        for sys in [&mut sync, &mut defer] {
            let mut rx_seq = 0u64;
            for (k, s) in sizes.iter().enumerate() {
                prop_assert_eq!(sys.transmit_burst(*s).unwrap(), *s);
                let frames: Vec<Frame> = (0..*s as u32)
                    .map(|i| {
                        let f = Frame {
                            dst: MacAddr::for_guest(1),
                            src: peer_mac(),
                            ethertype: EtherType::Ipv4,
                            payload_len: MTU,
                            flow: 30 + ((k as u32) + i) % 6,
                            seq: rx_seq,
                        };
                        rx_seq += 1;
                        f
                    })
                    .collect();
                prop_assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
            }
        }
        // Identical traffic...
        prop_assert_eq!(sync.take_wire_frames(), defer.take_wire_frames());
        let gs = sync.guest.unwrap();
        let gd = defer.guest.unwrap();
        prop_assert_eq!(
            &sync.world.xen.as_ref().unwrap().domain(gs).rx_delivered,
            &defer.world.xen.as_ref().unwrap().domain(gd).rx_delivered
        );
        // ...and identical side effects on shared state.
        prop_assert_eq!(
            sync.world.kernel.pool.available(),
            defer.world.kernel.pool.available()
        );
        prop_assert_eq!(
            sync.world.kernel.hyper_pool.as_ref().unwrap().available(),
            defer.world.kernel.hyper_pool.as_ref().unwrap().available()
        );
        prop_assert_eq!(
            sync.machine.meter.event(Event::DemuxMiss),
            defer.machine.meter.event(Event::DemuxMiss)
        );
        // The deferred run really deferred (and drained its ring).
        prop_assert!(defer.machine.meter.event(Event::UpcallFlush) > 0, "engine engaged");
        let engine = &defer.world.hyper.as_ref().unwrap().engine;
        prop_assert_eq!(engine.depth(), 0, "ring drained at pass end");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// The virtual-time engine's core invariant: arbitrary interleaved
    /// TX/RX bursts across 4 FlowHash-sharded NICs with random
    /// per-device ITR values, deferred upcalls and a flush deadline
    /// deliver exactly the same frame sets as ITR=0/sync mode —
    /// moderation and deferral may move *when* things happen, never
    /// *what* happens: same wire frames, same per-guest deliveries with
    /// every (guest, flow) subsequence in order, same pool state.
    #[test]
    fn moderated_delivery_equivalent_to_unmoderated_sync(
        sizes in prop::collection::vec(1usize..21, 1..5),
        itrs in prop::collection::vec(0u32..2500, 4..5),
        upcalls in 0usize..10,
        idle in 1_000u64..400_000,
    ) {
        use twin_net::{EtherType, Frame, MacAddr, MTU};
        use twindrivers::{
            peer_mac, Config, ShardPolicy, System, SystemOptions, UpcallMode,
        };

        let build = |moderated: bool| {
            System::build_with(
                Config::TwinDrivers,
                &SystemOptions {
                    num_nics: 4,
                    shard: ShardPolicy::FlowHash,
                    // Same forced-upcall set on both sides: only the
                    // *mode* (deferred vs sync) and the timers differ.
                    upcall_count: upcalls,
                    upcall_mode: if moderated {
                        UpcallMode::Deferred
                    } else {
                        UpcallMode::Sync
                    },
                    upcall_flush_deadline_cycles: moderated.then_some(300_000),
                    ..SystemOptions::default()
                },
            )
            .unwrap()
        };
        let mut reference = build(false);
        let mut moderated = build(true);
        // Random per-device moderation windows on the moderated system.
        for (dev, itr) in itrs.iter().enumerate() {
            moderated.set_itr(dev as u32, *itr).unwrap();
        }

        let mac2 = MacAddr::for_guest(2);
        let mac3 = MacAddr::for_guest(3);
        for sys in [&mut reference, &mut moderated] {
            sys.add_guest(mac2).unwrap();
            sys.add_guest(mac3).unwrap();
        }
        let macs = [MacAddr::for_guest(1), mac2, mac3];

        // A settle burst covering every device: TX-descriptor reclaim
        // happens on a device's *next* driver invocation, so both
        // systems get one final interrupt pass per NIC — otherwise the
        // moderated run's extra idle-time passes reclaim more of the
        // final TX tail than the reference and pool counts diverge for
        // bookkeeping (not correctness) reasons.
        let settle: Vec<Frame> = {
            let mut frames = Vec::new();
            let mut covered = [false; 4];
            let mut flow = 100u32;
            while covered.iter().any(|c| !c) {
                let dev = ((flow.wrapping_mul(2_654_435_761) >> 16) % 4) as usize;
                if !covered[dev] {
                    covered[dev] = true;
                    frames.push(Frame {
                        dst: macs[0],
                        src: peer_mac(),
                        ethertype: EtherType::Ipv4,
                        payload_len: MTU,
                        flow,
                        seq: 0,
                    });
                }
                flow += 1;
            }
            frames
        };

        for (pass, sys) in [&mut reference, &mut moderated].into_iter().enumerate() {
            let mut seqs = [0u64; 6];
            for (k, s) in sizes.iter().enumerate() {
                prop_assert_eq!(sys.transmit_burst(*s).unwrap(), *s);
                let frames: Vec<Frame> = (0..*s as u32)
                    .map(|i| {
                        let flow = ((k as u32) + i) % 6;
                        let guest = (flow % 3) as usize;
                        let f = Frame {
                            dst: macs[guest],
                            src: peer_mac(),
                            ethertype: EtherType::Ipv4,
                            payload_len: MTU,
                            flow: 40 + flow,
                            seq: seqs[flow as usize],
                        };
                        seqs[flow as usize] += 1;
                        f
                    })
                    .collect();
                prop_assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
                if pass == 1 {
                    // Only the moderated system needs time to pass for
                    // its windows; the reference delivers inline.
                    sys.run_idle(idle).unwrap();
                }
            }
            if pass == 1 {
                sys.drain_moderated().unwrap();
            }
            prop_assert_eq!(sys.receive_burst(&settle).unwrap(), settle.len());
            if pass == 1 {
                sys.drain_moderated().unwrap();
            }
        }

        // Identical wire traffic (TX is untouched by moderation).
        prop_assert_eq!(reference.take_wire_frames(), moderated.take_wire_frames());
        // Identical per-guest deliveries: same frame sets, and every
        // (guest, flow) subsequence in arrival order. Cross-flow
        // interleaving may differ — devices reap at different instants —
        // which is exactly the FlowHash ordering contract.
        let rxen = reference.world.xen.as_ref().unwrap();
        let mxen = moderated.world.xen.as_ref().unwrap();
        for g in 1..4u32 {
            let rd = &rxen.domains[g as usize].rx_delivered;
            let md = &mxen.domains[g as usize].rx_delivered;
            let mut rs: Vec<(u32, u64)> = rd.iter().map(|f| (f.flow, f.seq)).collect();
            let mut ms: Vec<(u32, u64)> = md.iter().map(|f| (f.flow, f.seq)).collect();
            rs.sort_unstable();
            ms.sort_unstable();
            prop_assert_eq!(rs, ms, "guest {} frame set", g);
            for flow in 40..46u32 {
                let seq: Vec<u64> =
                    md.iter().filter(|f| f.flow == flow).map(|f| f.seq).collect();
                prop_assert!(
                    seq.windows(2).all(|w| w[0] < w[1]),
                    "guest {} flow {} reordered: {:?}", g, flow, seq
                );
            }
        }
        // Identical side effects on shared state once everything drained.
        prop_assert_eq!(
            reference.world.kernel.pool.available(),
            moderated.world.kernel.pool.available()
        );
        prop_assert_eq!(
            reference.world.kernel.hyper_pool.as_ref().unwrap().available(),
            moderated.world.kernel.hyper_pool.as_ref().unwrap().available()
        );
        prop_assert_eq!(
            moderated.world.nics.iter().map(|n| n.stats().rx_missed).sum::<u64>(),
            0u64,
            "moderation never drops"
        );
        prop_assert_eq!(reference.machine.meter.event(Event::DemuxMiss), 0);
        prop_assert_eq!(moderated.machine.meter.event(Event::DemuxMiss), 0);
    }

    /// The auto-tuner's core invariant: a closed-loop retuned system
    /// delivers exactly what the untuned (ITR 0) system delivers under
    /// any interleaving of TX/RX bursts and idle gaps across 4
    /// FlowHash-sharded NICs — the moving `ITR` knob shifts *when*
    /// interrupts fire, never *what* traffic flows: same wire frames,
    /// same per-guest frame sets with every (guest, flow) subsequence
    /// in order, same pool state, zero drops.
    #[test]
    fn autotuned_delivery_equivalent_to_untuned(
        sizes in prop::collection::vec(1usize..21, 1..5),
        upcalls in 0usize..10,
        idle in 1_000u64..400_000,
    ) {
        use twin_net::{EtherType, Frame, MacAddr, MTU};
        use twindrivers::{
            peer_mac, Config, Itr, ShardPolicy, System, SystemOptions,
        };

        let build = |itr: Itr| {
            System::build_with(
                Config::TwinDrivers,
                &SystemOptions {
                    num_nics: 4,
                    shard: ShardPolicy::FlowHash,
                    upcall_count: upcalls,
                    itr,
                    ..SystemOptions::default()
                },
            )
            .unwrap()
        };
        let mut reference = build(Itr::Fixed(0));
        let mut tuned = build(Itr::Auto);

        let mac2 = MacAddr::for_guest(2);
        let mac3 = MacAddr::for_guest(3);
        for sys in [&mut reference, &mut tuned] {
            sys.add_guest(mac2).unwrap();
            sys.add_guest(mac3).unwrap();
        }
        let macs = [MacAddr::for_guest(1), mac2, mac3];

        // One final interrupt pass per NIC equalizes TX-descriptor
        // reclaim timing between the two runs (see the moderated
        // proptest above for the rationale).
        let settle: Vec<Frame> = {
            let mut frames = Vec::new();
            let mut covered = [false; 4];
            let mut flow = 100u32;
            while covered.iter().any(|c| !c) {
                let dev = ((flow.wrapping_mul(2_654_435_761) >> 16) % 4) as usize;
                if !covered[dev] {
                    covered[dev] = true;
                    frames.push(Frame {
                        dst: macs[0],
                        src: peer_mac(),
                        ethertype: EtherType::Ipv4,
                        payload_len: MTU,
                        flow,
                        seq: 0,
                    });
                }
                flow += 1;
            }
            frames
        };

        for (pass, sys) in [&mut reference, &mut tuned].into_iter().enumerate() {
            let mut seqs = [0u64; 6];
            for (k, s) in sizes.iter().enumerate() {
                prop_assert_eq!(sys.transmit_burst(*s).unwrap(), *s);
                let frames: Vec<Frame> = (0..*s as u32)
                    .map(|i| {
                        let flow = ((k as u32) + i) % 6;
                        let guest = (flow % 3) as usize;
                        let f = Frame {
                            dst: macs[guest],
                            src: peer_mac(),
                            ethertype: EtherType::Ipv4,
                            payload_len: MTU,
                            flow: 40 + flow,
                            seq: seqs[flow as usize],
                        };
                        seqs[flow as usize] += 1;
                        f
                    })
                    .collect();
                prop_assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
                if pass == 1 {
                    // Idle lets the tuner's windows elapse and any
                    // moderated window it programmed open.
                    sys.run_idle(idle).unwrap();
                }
            }
            if pass == 1 {
                sys.drain_moderated().unwrap();
            }
            prop_assert_eq!(sys.receive_burst(&settle).unwrap(), settle.len());
            if pass == 1 {
                sys.drain_moderated().unwrap();
            }
        }

        // Identical wire traffic and per-guest deliveries.
        prop_assert_eq!(reference.take_wire_frames(), tuned.take_wire_frames());
        let rxen = reference.world.xen.as_ref().unwrap();
        let txen = tuned.world.xen.as_ref().unwrap();
        for g in 1..4u32 {
            let rd = &rxen.domains[g as usize].rx_delivered;
            let td = &txen.domains[g as usize].rx_delivered;
            let mut rs: Vec<(u32, u64)> = rd.iter().map(|f| (f.flow, f.seq)).collect();
            let mut ts: Vec<(u32, u64)> = td.iter().map(|f| (f.flow, f.seq)).collect();
            rs.sort_unstable();
            ts.sort_unstable();
            prop_assert_eq!(rs, ts, "guest {} frame set", g);
            for flow in 40..46u32 {
                let seq: Vec<u64> =
                    td.iter().filter(|f| f.flow == flow).map(|f| f.seq).collect();
                prop_assert!(
                    seq.windows(2).all(|w| w[0] < w[1]),
                    "guest {} flow {} reordered: {:?}", g, flow, seq
                );
            }
        }
        prop_assert_eq!(
            reference.world.kernel.pool.available(),
            tuned.world.kernel.pool.available()
        );
        prop_assert_eq!(
            reference.world.kernel.hyper_pool.as_ref().unwrap().available(),
            tuned.world.kernel.hyper_pool.as_ref().unwrap().available()
        );
        prop_assert_eq!(
            tuned.world.nics.iter().map(|n| n.stats().rx_missed).sum::<u64>(),
            0u64,
            "a moving ITR still delays, never drops"
        );
        prop_assert_eq!(reference.machine.meter.event(Event::DemuxMiss), 0);
        prop_assert_eq!(tuned.machine.meter.event(Event::DemuxMiss), 0);
    }

    /// The flight recorder's core invariant: tracing is *observation
    /// only*. For any interleaving of TX/RX bursts and idle gaps across
    /// 4 FlowHash-sharded NICs with NAPI, DRR weights and deferred
    /// upcalls all active, a traced run is bit-exact with an untraced
    /// one — same virtual clock, same per-domain cycles, same named
    /// meter events, same wire frames, same per-guest deliveries, same
    /// pool state. The only permitted difference is the recorder's own
    /// contents.
    #[test]
    fn traced_run_is_bit_exact_with_untraced(
        sizes in prop::collection::vec(1usize..21, 1..5),
        upcalls in 0usize..10,
        idle in 1_000u64..400_000,
    ) {
        use twin_net::{EtherType, Frame, MacAddr, MTU};
        use twindrivers::{
            peer_mac, Config, ShardPolicy, System, SystemOptions, UpcallMode,
        };

        let build = |tracing: bool| {
            System::build_with(
                Config::TwinDrivers,
                &SystemOptions {
                    num_nics: 4,
                    shard: ShardPolicy::FlowHash,
                    upcall_count: upcalls,
                    upcall_mode: UpcallMode::Deferred,
                    upcall_flush_deadline_cycles: Some(300_000),
                    napi_weight: 16,
                    rx_queue_cap: Some(256),
                    rx_backlog_watermark: Some(512),
                    guest_weights: vec![(2, 64), (3, 64)],
                    tracing,
                    ..SystemOptions::default()
                },
            )
            .unwrap()
        };
        let mut traced = build(true);
        let mut untraced = build(false);

        let mac2 = MacAddr::for_guest(2);
        let mac3 = MacAddr::for_guest(3);
        for sys in [&mut traced, &mut untraced] {
            sys.add_guest(mac2).unwrap();
            sys.add_guest(mac3).unwrap();
        }
        let macs = [MacAddr::for_guest(1), mac2, mac3];

        for sys in [&mut traced, &mut untraced] {
            let mut seqs = [0u64; 6];
            for (k, s) in sizes.iter().enumerate() {
                prop_assert_eq!(sys.transmit_burst(*s).unwrap(), *s);
                let frames: Vec<Frame> = (0..*s as u32)
                    .map(|i| {
                        let flow = ((k as u32) + i) % 6;
                        let guest = (flow % 3) as usize;
                        let f = Frame {
                            dst: macs[guest],
                            src: peer_mac(),
                            ethertype: EtherType::Ipv4,
                            payload_len: MTU,
                            flow: 40 + flow,
                            seq: seqs[flow as usize],
                        };
                        seqs[flow as usize] += 1;
                        f
                    })
                    .collect();
                prop_assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
                sys.run_idle(idle).unwrap();
            }
            sys.drain_moderated().unwrap();
        }

        // The traced side actually recorded something (NAPI is on, so at
        // minimum irq/poll events) — the comparison is not vacuous.
        prop_assert!(!traced.machine.trace.is_empty(), "recorder engaged");
        prop_assert_eq!(untraced.machine.trace.len(), 0);

        // Bit-exact accounting.
        prop_assert_eq!(traced.machine.meter.now(), untraced.machine.meter.now());
        for d in CostDomain::ALL {
            prop_assert_eq!(traced.machine.meter.cycles(d), untraced.machine.meter.cycles(d));
        }
        prop_assert_eq!(
            traced.machine.meter.events().collect::<Vec<_>>(),
            untraced.machine.meter.events().collect::<Vec<_>>()
        );
        // Bit-exact traffic and shared state.
        prop_assert_eq!(traced.take_wire_frames(), untraced.take_wire_frames());
        let txen = traced.world.xen.as_ref().unwrap();
        let uxen = untraced.world.xen.as_ref().unwrap();
        for g in 1..4usize {
            prop_assert_eq!(
                &txen.domains[g].rx_delivered,
                &uxen.domains[g].rx_delivered,
                "guest {} deliveries", g
            );
        }
        prop_assert_eq!(
            traced.world.kernel.pool.available(),
            untraced.world.kernel.pool.available()
        );
        for (nt, nu) in traced.world.nics.iter().zip(untraced.world.nics.iter()) {
            prop_assert_eq!(nt.stats(), nu.stats());
        }
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
        use twin_net::{EtherType, Frame, MacAddr, MTU};
        use twindrivers::measure::{fault_injected_source, FaultClass};
        use twindrivers::{
            peer_mac, Config, ShardPolicy, System, SystemError, SystemOptions,
        };

        let nics = 3u32;
        let class = FaultClass::ALL[class_i];
        let build = |recovery: bool| {
            System::build_with(
                Config::TwinDrivers,
                &SystemOptions {
                    driver_source: Some(fault_injected_source(class)),
                    num_nics: nics as usize,
                    shard: ShardPolicy::FlowHash,
                    zero_copy: true,
                    fault_recovery: recovery,
                    ..SystemOptions::default()
                },
            )
            .unwrap()
        };
        let mut sys = build(true);
        let mut control = build(false);

        let flow_for = |d: u32| -> u32 {
            (0u32..)
                .map(|i| 0x7100 + i)
                .find(|f| (f.wrapping_mul(2_654_435_761) >> 16) % nics == d)
                .unwrap()
        };
        let mut seq = 0u64;
        let mut frames_for = |d: u32, n: usize| -> Vec<Frame> {
            (0..n)
                .map(|_| {
                    let f = Frame {
                        dst: MacAddr::for_guest(1),
                        src: peer_mac(),
                        ethertype: EtherType::Ipv4,
                        payload_len: MTU,
                        flow: flow_for(d),
                        seq,
                    };
                    seq += 1;
                    f
                })
                .collect()
        };

        // One fault-free round to reach steady state, then snapshot the
        // pool occupancy every later episode must return to.
        for d in 0..nics {
            let f = frames_for(d, burst);
            prop_assert_eq!(sys.receive_burst(&f).unwrap(), burst);
            prop_assert_eq!(control.receive_burst(&f).unwrap(), burst);
        }
        // The ring's *composition* shifts after a reset (the dom0-driven
        // refill uses dom0-pool skbs; the hypervisor reap converges it
        // back toward hyper-pool skbs over later rounds), so the
        // conserved quantity is the total: every skb is in some pool or
        // posted in a ring — none lost, none double-freed.
        let steady = sys.world.kernel.pool.available()
            + sys.world.kernel.hyper_pool.as_ref().unwrap().available();

        let mut lost = 0u64..0;
        for round in 1..6usize {
            for d in 0..nics {
                let f = frames_for(d, burst);
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
        let gid = sys.guest.unwrap();
        let got_all = &sys.world.xen.as_ref().unwrap().domain(gid).rx_delivered;
        let gid_c = control.guest.unwrap();
        let want_all = &control.world.xen.as_ref().unwrap().domain(gid_c).rx_delivered;
        for d in 0..nics {
            let flow = flow_for(d);
            let got: Vec<u64> =
                got_all.iter().filter(|f| f.flow == flow).map(|f| f.seq).collect();
            let want: Vec<u64> = want_all
                .iter()
                .filter(|f| f.flow == flow)
                .map(|f| f.seq)
                .filter(|s| d != dev || !lost.contains(s))
                .collect();
            if d == dev {
                prop_assert_eq!(got, want, "dev {} must lose exactly the armed burst", d);
            } else {
                prop_assert_eq!(got, want, "survivor dev {} traffic diverged", d);
            }
        }
        prop_assert_eq!(
            sys.world.kernel.pool.available()
                + sys.world.kernel.hyper_pool.as_ref().unwrap().available(),
            steady,
            "episode leaked skbs"
        );
        prop_assert_eq!(sys.machine.meter.event(Event::DemuxMiss), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// The affinity-equivalence invariant: `ShardPolicy::Affinity`
    /// under an arbitrary vCPU run/sleep schedule is functionally
    /// identical to `ShardPolicy::FlowHash` under the *same* schedule —
    /// same TX wire frames, same per-(guest, flow) delivery sequences
    /// (in arrival order, never reordered by placement or sleep
    /// deferral), same buffer-pool state once the deferred
    /// backlog drains. Affinity may only move cycles, never traffic.
    #[test]
    fn affinity_equivalent_to_flowhash_under_random_schedules(
        sizes in prop::collection::vec(1usize..17, 1..6),
        scheds in prop::collection::vec(
            (0u32..4, 50_000u64..400_000, 0u64..400_000),
            3..4,
        ),
        idles in prop::collection::vec(0u64..300_000, 1..6),
    ) {
        use twin_net::{EtherType, Frame, MacAddr, MTU};
        use twindrivers::system::DomId;
        use twindrivers::{peer_mac, Config, ShardPolicy, System, SystemOptions};

        let build = |shard: ShardPolicy| {
            System::build_with(
                Config::TwinDrivers,
                &SystemOptions {
                    num_nics: 4,
                    shard,
                    sched: true,
                    ..SystemOptions::default()
                },
            )
            .unwrap()
        };
        let mut fh = build(ShardPolicy::FlowHash);
        let mut af = build(ShardPolicy::Affinity);

        let mac2 = MacAddr::for_guest(2);
        let mac3 = MacAddr::for_guest(3);
        let macs = [MacAddr::for_guest(1), mac2, mac3];
        for sys in [&mut fh, &mut af] {
            sys.add_guest(mac2).unwrap();
            sys.add_guest(mac3).unwrap();
            // Identical registration instants: the phase-locked edges
            // land at the same absolute cycle in both systems, even
            // though their clocks drift apart later (cold refills are
            // charged differently per policy).
            for (g, &(cpu, run, sleep)) in scheds.iter().enumerate() {
                sys.sched_add_vcpu(DomId(g as u32 + 1), cpu, run, sleep)
                    .unwrap();
            }
        }

        for sys in [&mut fh, &mut af] {
            let mut seqs = [0u64; 6];
            for (k, s) in sizes.iter().enumerate() {
                prop_assert_eq!(sys.transmit_burst(*s).unwrap(), *s);
                let frames: Vec<Frame> = (0..*s as u32)
                    .map(|i| {
                        let flow = ((k as u32) + i) % 6;
                        let guest = (flow % 3) as usize;
                        let f = Frame {
                            dst: macs[guest],
                            src: peer_mac(),
                            ethertype: EtherType::Ipv4,
                            payload_len: MTU,
                            flow: 50 + flow,
                            seq: seqs[flow as usize],
                        };
                        seqs[flow as usize] += 1;
                        f
                    })
                    .collect();
                prop_assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
                // Let the schedule flip mid-traffic so bursts land in
                // run and sleep phases alike.
                sys.run_idle(idles[k % idles.len()]).unwrap();
            }
            // Drain the deferred backlog past the last sleep phase.
            for _ in 0..64 {
                let backlog = sys
                    .world
                    .xen
                    .as_ref()
                    .unwrap()
                    .domains
                    .iter()
                    .any(|d| !d.rx_queue.is_empty());
                if !backlog {
                    break;
                }
                sys.run_idle(500_000).unwrap();
            }
            // TX-completion reap rides device interrupts, whose timing
            // is policy-dependent (affinity moves RX interrupts across
            // devices). One final 8-frame pass covers every TX ring
            // (flows 1..8 hash onto all four devices), cleaning each
            // before posting, so pool state compares at quiescence.
            prop_assert_eq!(sys.transmit_burst(8).unwrap(), 8);
            sys.run_idle(500_000).unwrap();
        }

        // Identical wire traffic.
        prop_assert_eq!(fh.take_wire_frames(), af.take_wire_frames());
        let fxen = fh.world.xen.as_ref().unwrap();
        let axen = af.world.xen.as_ref().unwrap();
        for g in 1..4u32 {
            let fd = &fxen.domains[g as usize].rx_delivered;
            let ad = &axen.domains[g as usize].rx_delivered;
            prop_assert!(
                fxen.domains[g as usize].rx_queue.is_empty()
                    && axen.domains[g as usize].rx_queue.is_empty(),
                "guest {} backlog drained", g
            );
            for flow in 50..56u32 {
                let fseq: Vec<u64> =
                    fd.iter().filter(|f| f.flow == flow).map(|f| f.seq).collect();
                let aseq: Vec<u64> =
                    ad.iter().filter(|f| f.flow == flow).map(|f| f.seq).collect();
                prop_assert_eq!(&fseq, &aseq, "guest {} flow {}", g, flow);
                prop_assert!(
                    aseq.windows(2).all(|w| w[0] < w[1]),
                    "guest {} flow {} reordered: {:?}", g, flow, aseq
                );
            }
        }
        // Identical side effects on shared state.
        prop_assert_eq!(
            fh.world.kernel.pool.available(),
            af.world.kernel.pool.available()
        );
        prop_assert_eq!(
            fh.world.kernel.hyper_pool.as_ref().unwrap().available(),
            af.world.kernel.hyper_pool.as_ref().unwrap().available()
        );
        prop_assert_eq!(fh.machine.meter.event(Event::DemuxMiss), 0);
        prop_assert_eq!(af.machine.meter.event(Event::DemuxMiss), 0);
    }
}
