//! Safety integration tests (paper §4.5): SVM containment of buggy and
//! malicious drivers, watchdog timeouts, stack protection, privileged
//! instruction scanning, and the IOMMU extension.

use twin_machine::{CostDomain, ExecMode, Fault, Term};
use twindrivers::kernel::e1000;
use twindrivers::net::{Frame, MacAddr};
use twindrivers::{Config, System, SystemError, SystemOptions};

fn sabotage(marker: &str, payload: &str) -> String {
    let src = e1000::source();
    assert!(src.contains(marker), "marker present");
    src.replace(marker, &format!("{marker}\n{payload}"))
}

fn build_evil(payload: &str) -> System {
    let opts = SystemOptions {
        driver_source: Some(sabotage("e1000_xmit_frame:", payload)),
        ..SystemOptions::default()
    };
    System::build_with(Config::TwinDrivers, &opts).expect("evil driver still builds")
}

#[test]
fn wild_hypervisor_write_is_contained() {
    let mut sys = build_evil(
        r#"
    pushl %eax
    movl $0xf0200100, %eax      # the stlb itself
    movl $0xdeadbeef, (%eax)
    popl %eax
"#,
    );
    // Snapshot a hypervisor word the driver tried to clobber.
    let before = sys
        .machine
        .read_u32(sys.world.kernel.space, ExecMode::Hypervisor, 0xf020_0100)
        .unwrap();
    let err = sys.transmit_one().unwrap_err();
    assert!(matches!(err, SystemError::DriverAborted(_)), "{err}");
    let after = sys
        .machine
        .read_u32(sys.world.kernel.space, ExecMode::Hypervisor, 0xf020_0100)
        .unwrap();
    assert_eq!(before, after, "hypervisor memory untouched");
    assert!(sys.world.svm_hyp.as_ref().unwrap().stats().rejected >= 1);
}

#[test]
fn wild_read_of_unmapped_memory_is_contained() {
    let mut sys = build_evil(
        r#"
    pushl %eax
    movl $0x66660000, %eax
    movl (%eax), %eax
    popl %eax
"#,
    );
    let err = sys.transmit_one().unwrap_err();
    assert!(matches!(err, SystemError::DriverAborted(_)));
}

#[test]
fn runaway_driver_hits_watchdog() {
    let mut sys = build_evil("\n.Lforever:\n    jmp .Lforever\n");
    let err = sys.transmit_one().unwrap_err();
    match err {
        SystemError::DriverAborted(reason) => {
            assert!(reason.contains("watchdog"), "{reason}");
        }
        other => panic!("expected watchdog abort, got {other}"),
    }
}

#[test]
fn abort_is_sticky_and_dom0_survives() {
    let mut sys = build_evil(
        r#"
    pushl %eax
    movl $0xf0000000, %eax
    movl $1, (%eax)
    popl %eax
"#,
    );
    assert!(sys.transmit_one().is_err());
    assert!(sys.transmit_one().is_err(), "the reset image faults again");
    // dom0's own packet path (the VM instance in dom0) keeps working:
    // run a config op through the VM instance.
    let dom0 = sys.world.kernel.space;
    let entry = sys.driver.entry("e1000_get_link").unwrap();
    let r = twindrivers::kernel::call_function(
        &mut sys.machine,
        &mut sys.world,
        dom0,
        ExecMode::Guest,
        twin_kernel::DOM0_STACK_BASE + twin_kernel::DOM0_STACK_PAGES * 4096,
        entry,
        &[0],
        2_000_000,
    )
    .unwrap();
    assert_eq!(r, 1);
}

#[test]
fn privileged_instruction_rejected_at_rewrite_time() {
    // Paper §4.5.2: privileged instructions "can be detected and
    // prevented by static inspection of the driver code during binary
    // translation".
    let opts = SystemOptions {
        driver_source: Some(sabotage("e1000_xmit_frame:", "    hlt\n")),
        ..SystemOptions::default()
    };
    let err = System::build_with(Config::TwinDrivers, &opts).unwrap_err();
    match err {
        SystemError::Build(msg) => assert!(msg.contains("privileged"), "{msg}"),
        other => panic!("expected build rejection, got {other}"),
    }
}

#[test]
fn baseline_configs_accept_the_same_driver() {
    // The static scan only runs for the rewritten (hypervisor) driver;
    // native configs load the original unmodified.
    let opts = SystemOptions {
        driver_source: Some(e1000::source()),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::NativeLinux, &opts).unwrap();
    sys.transmit_one().unwrap();
}

/// Frees, at the top of `e1000_xmit_fill`, the skb the driver was just
/// handed — its descriptor still to fill, its ring slot to free it again.
const DOUBLE_FREE: &str = "    pushl 4(%esp)\n    call dev_kfree_skb_any\n    addl $4, %esp";

/// Frees the driver's own adapter slot, an address no pool handed out.
const FORGED_FREE: &str = "    pushl $cur_adapter\n    call dev_kfree_skb_any\n    addl $4, %esp";

/// Where `e1000_xmit_fill` has written the skb's descriptor and
/// remembered the skb in its ring slot.
const RING_HELD: &str = "    movl %edi, (%ecx)           # remember skb at its first descriptor";

/// Frees the skb the ring now holds: the device will still transmit
/// from its buffer, and the ring's clean-up frees it again.
const RING_HELD_FREE: &str = "    pushl %edi\n    call dev_kfree_skb_any\n    addl $4, %esp";

/// A driver that frees across the crossing what it does not own, on
/// both configurations that run it: four bursts, then the recovery of
/// whatever was quarantined. Nothing panics; the misuse surfaces — as
/// an abort that quarantines the hypervisor instance's device, or as
/// the fault dom0's instance returns to its caller, after which every
/// burst toward its device fails naming that fault — and the pools end
/// as an honest system holds them with nothing in flight: no buffer
/// lost, none counted twice, no foreign address taken in.
fn a_hostile_free_is_refused(marker: &str, payload: &str) {
    for config in [Config::TwinDrivers, Config::XenDom0] {
        let build = |src: String| {
            let opts = SystemOptions {
                driver_source: Some(src),
                ..SystemOptions::default()
            };
            System::build_with(config, &opts).unwrap()
        };
        let honest = build(e1000::source()).outcome();
        let mut sys = build(sabotage(marker, payload));
        let mut refused = 0;
        for burst in 0..4 {
            match (config, sys.transmit_burst(32)) {
                // Once dom0's instance faulted, its device stays failed:
                // no later burst may report success.
                (Config::XenDom0, Ok(sent)) if refused > 0 => {
                    panic!("burst {burst}: Ok({sent}) after the refusal")
                }
                (_, Ok(_)) => {}
                (Config::TwinDrivers, Err(SystemError::DriverAborted(_))) => {
                    assert_eq!(sys.quarantined_devices(), vec![0]);
                    refused += 1;
                }
                (Config::XenDom0, Err(SystemError::Fault(_))) if refused == 0 => refused += 1,
                (Config::XenDom0, Err(SystemError::DeviceFailed { dev: 0, fault })) => {
                    assert!(matches!(fault, Fault::EnvFault(_)), "{fault}");
                }
                (_, Err(e)) => panic!("{config:?}: burst {burst}: {e}"),
            }
        }
        assert!(refused > 0, "{config:?}: the bad free went through");
        for dev in sys.quarantined_devices() {
            sys.recover_device(dev).unwrap();
        }
        let o = sys.outcome();
        assert_eq!(
            (o.dom0_free, o.hyper_free),
            (honest.dom0_free, honest.hyper_free),
            "{config:?}"
        );
    }
}

#[test]
fn a_driver_double_free_is_refused() {
    a_hostile_free_is_refused("e1000_xmit_fill:", DOUBLE_FREE);
}

#[test]
fn a_driver_forged_free_is_refused() {
    a_hostile_free_is_refused("e1000_xmit_fill:", FORGED_FREE);
}

#[test]
fn a_driver_free_of_a_ring_held_skb_is_refused() {
    a_hostile_free_is_refused(RING_HELD, RING_HELD_FREE);
}

#[test]
fn stack_checks_extension_still_works_end_to_end() {
    let opts = SystemOptions {
        rewrite: twin_rewriter::RewriteOptions {
            stack_checks: true,
            ..twin_rewriter::RewriteOptions::default()
        },
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    for _ in 0..10 {
        sys.transmit_one().unwrap();
        sys.receive_one().unwrap();
    }
    assert_eq!(sys.take_wire_frames().len(), 10);
    assert_eq!(sys.delivered_rx(), 10);
}

#[test]
fn iommu_blocks_rogue_dma() {
    // A malicious driver writes a descriptor pointing at hypervisor-
    // reserved physical memory. SVM cannot catch DMA (paper §4.5 admits
    // this); the IOMMU extension does.
    let evil = sabotage(
        "    movl 20(%ebx), %eax\n    movl %eax, 0x3818(%ecx)     # TDT: the posted doorbell write",
        "", // no-op marker use; real sabotage below
    );
    let _ = evil;
    // Instead of patching assembly, poke a rogue descriptor directly
    // between xmit and the doorbell: simplest is to build with IOMMU and
    // scribble a descriptor, then ring TDT through the device model.
    let opts = SystemOptions {
        iommu: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    // Legitimate traffic passes.
    for _ in 0..5 {
        sys.transmit_one().unwrap();
    }
    assert_eq!(sys.world.iommu.as_ref().unwrap().blocked, 0);
    // Rogue descriptor: point at a frame that belongs to nobody.
    let tdbal = sys.world.nics[0].mmio_read(twin_nic::regs::TDBAL) as u64;
    let tdh = sys.world.nics[0].mmio_read(twin_nic::regs::TDH);
    let daddr = tdbal + tdh as u64 * twin_nic::DESC_SIZE;
    sys.machine.phys.write_u32(daddr, 0x0F00_0000); // unowned frame
    sys.machine.phys.write_u32(daddr + 8, 64);
    sys.machine
        .phys
        .write_u8(daddr + 11, twin_nic::txcmd::EOP | twin_nic::txcmd::RS);
    let iommu = sys.world.iommu.as_mut().unwrap();
    let err = iommu
        .check_tx_ring(&sys.machine, &mut sys.world.nics[0], tdh + 1)
        .unwrap_err();
    assert!(matches!(err, twin_machine::Fault::EnvFault(_)));
    assert_eq!(sys.world.iommu.as_ref().unwrap().blocked, 1);
}

/// What [`evict_and_drive`] observed: the frames on the wire and at the
/// guest, and the driver-side ledger.
struct Driven {
    wire: Vec<Frame>,
    delivered: Vec<Frame>,
    stlb_misses: u64,
    insns: u64,
    driver_cycles: u64,
}

/// Six rounds of an 8-packet transmit burst and an 8-frame receive
/// burst. With `evict`, the hypervisor instance's stlb is emptied before
/// every odd round: that round's first touch of each page takes the
/// Fig. 4 `jne slow`, `__svm_slow` refills the entry and `jmp retry`
/// re-enters the fast path; the even rounds hit throughout.
fn evict_and_drive(config: Config, evict: bool) -> Driven {
    let mut sys = System::build(config).unwrap();
    let mut wire = Vec::new();
    for round in 0..6u64 {
        if evict && round % 2 == 1 {
            let svm = sys.world.svm_hyp.as_ref().expect("hypervisor instance");
            svm.clear_table(&mut sys.machine).unwrap();
        }
        assert_eq!(sys.transmit_burst(8).unwrap(), 8);
        wire.extend(sys.take_wire_frames());
        let frames: Vec<Frame> = (0..8)
            .map(|i| {
                Frame::data(
                    MacAddr::for_guest(1),
                    twindrivers::peer_mac(),
                    7,
                    round * 8 + i,
                )
            })
            .collect();
        assert_eq!(sys.receive_burst(&frames).unwrap(), 8);
    }
    let delivered = sys.outcome().delivered(twindrivers::xen::DomId(1)).to_vec();
    let m = &sys.machine.meter;
    Driven {
        wire,
        delivered,
        stlb_misses: m.payments(Term::StlbSlowPath),
        insns: m.insns(),
        driver_cycles: m.cycles(CostDomain::Driver),
    }
}

/// Rewritten ≡ original across every arm of the Fig. 4 template. The
/// interpreter runs the template's hit path as one fused op
/// (`twin_machine` crate docs) and falls back to the plain ops on a
/// miss, so an evicting run crosses fused hit, fallback to the slow
/// path, and retry. The frames must be the original driver's, and the
/// ledger must be what the plain, un-fused link charged — the pins
/// below were captured on the commit before the fused op existed.
#[test]
fn evicted_stlb_entries_change_the_ledger_by_the_slow_path_alone() {
    let original = evict_and_drive(Config::XenGuest, false);
    let warm = evict_and_drive(Config::TwinDrivers, false);
    let evicting = evict_and_drive(Config::TwinDrivers, true);
    assert_eq!(original.wire.len(), 48);
    assert_eq!(original.delivered.len(), 48);
    for twin in [&warm, &evicting] {
        assert_eq!(twin.wire, original.wire);
        assert_eq!(twin.delivered, original.delivered);
    }
    assert_eq!(original.stlb_misses, 0, "the original driver has no stlb");
    assert_eq!(
        (warm.stlb_misses, warm.insns, warm.driver_cycles),
        (248, 73_723, 150_492)
    );
    assert_eq!(
        (evicting.stlb_misses, evicting.insns, evicting.driver_cycles),
        (296, 74_299, 153_804)
    );
    // A miss runs the template up to its `jne` (8 instructions), then
    // `push; call; add; jmp retry` — 12 more than the hit it becomes.
    assert_eq!(
        evicting.insns - warm.insns,
        12 * (evicting.stlb_misses - warm.stlb_misses)
    );
}
