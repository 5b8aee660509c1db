//! Layer probes: each times one crate's public entry in isolation, so a
//! change in an end-to-end host number can be traced to the layer that
//! moved. Every figure is the fastest of [`BATCHES`] batches. None of
//! these may move a simulated statistic.

use crate::metrics::Metrics;
use std::hint::black_box;
use std::time::Instant;
use twindrivers::isa::asm::assemble;
use twindrivers::isa::encode::{decode, encode};
use twindrivers::machine::{run, Cpu, ExecMode, Machine, NullEnv, PhysMem, StopReason, PAGE_SIZE};
use twindrivers::net::{Frame, MacAddr};
use twindrivers::nic::{regs, Nic, DESC_SIZE};
use twindrivers::rewriter::{rewrite, RewriteOptions};
use twindrivers::svm::Svm;
use twindrivers::trace::{FlightRecorder, MetricSet, TraceEvent};
use twindrivers::xen::{GrantCache, UpcallEngine, UpcallMode};

const BATCHES: usize = 15;

/// Fastest of [`BATCHES`] runs of `f`, in ns per operation, where one
/// run performs `ops` operations.
fn fastest(ops: u64, mut f: impl FnMut()) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A bare machine running `body` in a counted loop; returns ns per
/// interpreted instruction.
fn interp_loop(body: &str) -> Result<f64, String> {
    let src = format!(
        ".text\n.globl f\nf:\n    movl 4(%esp), %ecx\n    movl 8(%esp), %ebx\n    movl $0, %eax\ntop:\n    cmpl $0, %ecx\n    je done\n{body}    decl %ecx\n    jmp top\ndone:\n    ret\n"
    );
    let module = assemble("probe", &src).map_err(|e| e.to_string())?;
    let mut m = Machine::new();
    let space = m.new_space();
    m.map_fresh(space, 0x2000_0000, 8)
        .map_err(|e| e.to_string())?;
    m.map_stack(space, 0x3000_0000, 4)
        .map_err(|e| e.to_string())?;
    let img = m
        .load_image(&module, 0x0800_0000, |_| None)
        .map_err(|e| e.to_string())?;
    let entry = m.image(img).export("f").ok_or("probe entry")?;
    let mut cpu = Cpu::new(space, ExecMode::Guest);
    let mut err = None;
    let ns = fastest(1, || {
        cpu.set_stack(0x3000_0000 + 4 * PAGE_SIZE);
        if cpu.push_call_frame(&mut m, &[20_000, 0x2000_0000]).is_err() {
            err = Some("probe call frame");
            return;
        }
        cpu.pc = entry;
        if !matches!(
            run(&mut m, &mut cpu, &mut NullEnv, 10_000_000),
            Ok(StopReason::Returned)
        ) {
            err = Some("probe loop did not return");
        }
        black_box(cpu.reg(twindrivers::isa::Reg::Eax));
    });
    if let Some(e) = err {
        return Err(e.into());
    }
    // `fastest` timed whole calls; every call interprets the same count.
    Ok(ns / (m.meter.insns() as f64 / BATCHES as f64))
}

fn nic_deliver_batch() -> f64 {
    const RING: u32 = 128;
    let mut nic = Nic::new(0, MacAddr::for_guest(1));
    let mut phys = PhysMem::new(256);
    nic.mmio_write(&mut phys, regs::RDBAL, 0x2000);
    nic.mmio_write(&mut phys, regs::RDLEN, RING * DESC_SIZE as u32);
    nic.mmio_write(&mut phys, regs::RDH, 0);
    for i in 0..RING {
        phys.write_u32(0x2000 + u64::from(i) * DESC_SIZE, 0x2_0000 + i * 0x800);
    }
    nic.mmio_write(&mut phys, regs::RDT, RING - 1);
    nic.mmio_write(&mut phys, regs::RCTL, 0x2);
    let frames: Vec<Frame> = (0..32)
        .map(|i| Frame::data(MacAddr::for_guest(1), MacAddr::for_guest(9), 7, i))
        .collect();
    let rounds = 200u64;
    fastest(rounds * 32, || {
        for _ in 0..rounds {
            let got = nic.deliver_batch(&mut phys, &frames);
            debug_assert_eq!(got, 32);
            // Re-post everything the hardware consumed.
            let rdh = nic.mmio_read(regs::RDH);
            nic.mmio_write(&mut phys, regs::RDT, (rdh + RING - 1) % RING);
        }
    })
}

/// Runs every probe. Names are the per-layer metric names.
pub fn run_all() -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let src = twindrivers::kernel::e1000::source();

    let module = assemble("e1000", &src).map_err(|e| e.to_string())?;
    m.insert(
        "isa.assemble_us".into(),
        fastest(1, || {
            black_box(assemble("e1000", black_box(&src)).is_ok());
        }) / 1e3,
    );
    m.insert("isa.module_insns".into(), module.text.len() as f64);
    let bytes = encode(&module);
    m.insert(
        "isa.encode_us".into(),
        fastest(1, || {
            black_box(encode(black_box(&module)));
        }) / 1e3,
    );
    m.insert(
        "isa.decode_us".into(),
        fastest(1, || {
            black_box(decode(black_box(&bytes)).is_ok());
        }) / 1e3,
    );

    let opts = RewriteOptions::default();
    let stats = rewrite(&module, &opts).map_err(|e| e.to_string())?.stats;
    m.insert(
        "rewriter.rewrite_us".into(),
        fastest(1, || {
            black_box(rewrite(black_box(&module), &opts).is_ok());
        }) / 1e3,
    );
    m.insert("rewriter.expansion_factor".into(), stats.expansion_factor());
    m.insert("rewriter.mem_sites".into(), stats.mem_sites as f64);

    m.insert(
        "machine.interp_ns_per_insn.alu".into(),
        interp_loop("    addl %ecx, %eax\n    xorl %ecx, %eax\n    addl $3, %eax\n")?,
    );
    m.insert(
        "machine.interp_ns_per_insn.mem".into(),
        interp_loop("    movl %eax, (%ebx)\n    movl (%ebx), %edx\n    addl %edx, 4(%ebx)\n")?,
    );

    let mut mach = Machine::new();
    let dom0 = mach.new_space();
    mach.map_fresh(dom0, 0x2000_0000, 64)
        .map_err(|e| e.to_string())?;
    let mut svm =
        Svm::new_hypervisor(&mut mach, dom0, 0, (0, u64::MAX)).map_err(|e| e.to_string())?;
    svm.slow_path(&mut mach, 0x2000_0000)
        .map_err(|e| e.to_string())?;
    let n = 20_000u64;
    m.insert(
        "svm.slow_path_hit_ns".into(),
        fastest(n, || {
            for _ in 0..n {
                black_box(svm.slow_path(&mut mach, black_box(0x2000_0000)).is_ok());
            }
        }),
    );
    m.insert(
        "svm.translate_data_ns".into(),
        fastest(n, || {
            for i in 0..n {
                black_box(
                    svm.translate_data(&mut mach, 0x2000_0000 + (i % 64) * 64)
                        .is_ok(),
                );
            }
        }),
    );

    m.insert("nic.deliver_batch_ns_per_frame".into(), nic_deliver_batch());

    let mut cache = GrantCache::new(4096);
    m.insert(
        "xen.grantcache_access_ns".into(),
        fastest(n, || {
            for i in 0..n {
                black_box(cache.access(1, (i % 2048) << 12));
            }
        }),
    );
    let mut engine = UpcallEngine::new();
    engine.set_mode(UpcallMode::Deferred);
    m.insert(
        "xen.upcall_enqueue_drain_ns".into(),
        fastest(n, || {
            for round in 0..n / 64 {
                for i in 0..64 {
                    engine.enqueue("dev_kfree_skb_any", vec![i as u32], round);
                }
                black_box(engine.drain().len());
            }
        }),
    );

    let mut rec = FlightRecorder::new();
    rec.set_enabled(true);
    m.insert(
        "trace.record_ns".into(),
        fastest(n, || {
            for i in 0..n {
                rec.record(
                    i,
                    "Xen",
                    TraceEvent::IrqDelivered {
                        dev: (i & 3) as u32,
                    },
                );
            }
        }),
    );
    let keys: Vec<String> = (0..64).map(|i| format!("probe.counter{i}")).collect();
    m.insert(
        "trace.metricset_set_ns".into(),
        fastest(64 * 100, || {
            for _ in 0..100 {
                let mut ms = MetricSet::new();
                for (i, k) in keys.iter().enumerate() {
                    ms.set(k.as_str(), i as u64);
                }
                black_box(ms.counter("probe.counter7"));
            }
        }),
    );
    Ok(m)
}
