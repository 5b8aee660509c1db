//! End-to-end integration tests of the TwinDrivers pipeline across
//! crates: derivation, dual instances over shared data, fast-path
//! behaviour, and the concurrent config-path/fast-path split.

use twin_machine::{CostDomain, Event, ExecMode, Term};
use twin_net::{Frame, MacAddr};
use twindrivers::kernel::e1000;
use twindrivers::{Config, Itr, System, SystemOptions};

#[test]
fn all_four_systems_move_packets() {
    for config in Config::ALL {
        let mut sys = System::build(config).unwrap_or_else(|e| panic!("{config}: {e}"));
        for _ in 0..10 {
            sys.transmit_one()
                .unwrap_or_else(|e| panic!("{config} tx: {e}"));
        }
        assert_eq!(sys.take_wire_frames().len(), 10, "{config} transmit");
        for _ in 0..10 {
            sys.receive_one()
                .unwrap_or_else(|e| panic!("{config} rx: {e}"));
        }
        assert_eq!(sys.delivered_rx(), 10, "{config} receive");
    }
}

/// The contract between `twin_rewriter`'s `emit_fastpath` and
/// `twin_machine`'s link-time recogniser, which both build on the one
/// `twin_machine::stlb::template`: every Figure 4 translation the rewriter emits — one `.Lsvm_retry_*` label
/// each, whether for a plain memory site, a string loop or an indirect
/// call — is an op sequence the linker fuses, in both instances of the
/// rewritten binary. An edit to the emitter that turns fusion off fails
/// here, not just in `host_ns_per_pkt`.
#[test]
fn every_translation_the_rewriter_emits_is_one_the_linker_fuses() {
    let sys = System::build(Config::TwinDrivers).unwrap();
    let hyp = sys.machine.image(sys.hyperdrv().unwrap().image);
    let vm = sys.machine.image(sys.driver.image);
    let emitted = hyp
        .exports
        .keys()
        .filter(|label| label.starts_with(".Lsvm_retry_"))
        .count();
    let stats = sys.rewrite_stats().unwrap();
    assert!(emitted >= stats.mem_sites + stats.string_sites + stats.indirect_sites);
    assert_eq!((hyp.fused_sites(), vm.fused_sites()), (emitted, emitted));
    // Spill frames around a translation: every spill site but the two
    // whose `out` is spilled, which keep their access inside the frame.
    assert_eq!(stats.spill_sites, 93);
    assert_eq!((hyp.fused_frames(), vm.fused_frames()), (91, 91));

    // The original driver has no translation to fuse.
    for config in [Config::XenGuest, Config::XenDom0, Config::NativeLinux] {
        let sys = System::build(config).unwrap();
        let image = sys.machine.image(sys.driver.image);
        assert_eq!((image.fused_sites(), image.fused_frames()), (0, 0));
    }
}

#[test]
fn both_instances_share_one_copy_of_driver_data() {
    // The hypervisor instance transmits; the *VM instance's* adapter
    // statistics must advance, because there is a single data instance
    // in dom0 (paper §3.2).
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    let adapter = sys.driver.data_symbol("adapter").unwrap();
    let dom0 = sys.world.kernel.space;
    let before = sys
        .machine
        .read_u32(dom0, ExecMode::Guest, adapter + e1000::adapter::TX_PACKETS)
        .unwrap();
    for _ in 0..7 {
        sys.transmit_one().unwrap();
    }
    let after = sys
        .machine
        .read_u32(dom0, ExecMode::Guest, adapter + e1000::adapter::TX_PACKETS)
        .unwrap();
    assert_eq!(
        after - before,
        7,
        "stats written by the hypervisor instance"
    );

    // And the VM instance reads them through its own entry point.
    let get_stats = sys.driver.entry("e1000_get_stats").unwrap();
    let netdev = sys.netdevs[0] as u32;
    let stats_ptr = twindrivers::kernel::call_function(
        &mut sys.machine,
        &mut sys.world,
        dom0,
        ExecMode::Guest,
        twin_kernel::DOM0_STACK_BASE + twin_kernel::DOM0_STACK_PAGES * 4096,
        get_stats,
        &[netdev],
        1_000_000,
    )
    .unwrap();
    assert_eq!(stats_ptr as u64, adapter + e1000::adapter::TX_PACKETS);
}

#[test]
fn config_ops_run_in_vm_instance_while_fast_path_runs_in_hypervisor() {
    // Paper §3.1: the VM instance keeps handling ethtool-style requests
    // and the watchdog while the hypervisor instance does TX/RX.
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    let dom0 = sys.world.kernel.space;
    let stack = twin_kernel::DOM0_STACK_BASE + twin_kernel::DOM0_STACK_PAGES * 4096;

    for i in 0..20 {
        sys.transmit_one().unwrap();
        if i % 5 == 0 {
            // ethtool get_link through the indirect-dispatch table.
            let dispatch = sys.driver.entry("e1000_ethtool_dispatch").unwrap();
            let r = twindrivers::kernel::call_function(
                &mut sys.machine,
                &mut sys.world,
                dom0,
                ExecMode::Guest,
                stack,
                dispatch,
                &[2, 0],
                2_000_000,
            )
            .unwrap();
            assert_eq!(r, 1, "link is up");
        }
    }
    // Watchdog timer fires in dom0 (reads NIC stats registers): idle
    // past its 100-jiffy deadline and the virtual-time engine runs it in
    // the VM instance.
    assert!(
        !sys.world.kernel.timers.is_empty(),
        "watchdog armed by probe"
    );
    sys.run_idle(1000 * twin_kernel::CYCLES_PER_JIFFY).unwrap();
    let adapter = sys.driver.data_symbol("adapter").unwrap();
    let wd = sys
        .machine
        .read_u32(
            dom0,
            ExecMode::Guest,
            adapter + e1000::adapter::WATCHDOG_RUNS,
        )
        .unwrap();
    assert!(wd >= 1, "watchdog ran in the VM instance");
    assert_eq!(sys.take_wire_frames().len(), 20);
}

#[test]
fn twin_fast_path_makes_no_upcalls_by_default() {
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    for _ in 0..20 {
        sys.transmit_one().unwrap();
        sys.receive_one().unwrap();
    }
    assert_eq!(
        sys.machine.meter.payments(Term::UpcallOverhead),
        0,
        "all ten fast-path routines are implemented in the hypervisor"
    );
    assert_eq!(sys.machine.meter.payments(Term::DomainSwitch), 0);
}

#[test]
fn forced_upcalls_reach_dom0_and_still_work() {
    let opts = SystemOptions {
        upcall_count: 9,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    for _ in 0..5 {
        sys.transmit_one().unwrap();
    }
    assert_eq!(sys.take_wire_frames().len(), 5, "upcalled path is correct");
    assert!(sys.machine.meter.payments(Term::UpcallOverhead) >= 5);
    assert!(
        sys.machine.meter.payments(Term::DomainSwitch) >= 10,
        "each guest-context upcall switches to dom0 and back"
    );
}

#[test]
fn rewritten_driver_category_grows_but_stack_costs_do_not() {
    // The SVM tax lands on the driver; the guest kernel cost per packet
    // is the same stack either way.
    let mut native = System::build(Config::NativeLinux).unwrap();
    let nb = native.measure_tx(60).unwrap();
    let mut twin = System::build(Config::TwinDrivers).unwrap();
    let tb = twin.measure_tx(60).unwrap();
    assert!(tb.cycles(CostDomain::Driver) > 1.6 * nb.cycles(CostDomain::Driver));
    // Native stack cost ≈ twin guest stack cost (different category).
    let native_stack = nb.cycles(CostDomain::Dom0);
    let twin_stack = tb.cycles(CostDomain::DomU);
    let ratio = twin_stack / native_stack;
    assert!((0.5..1.5).contains(&ratio), "stack cost ratio {ratio:.2}");
}

#[test]
fn stlb_warm_after_startup() {
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    // Warm up past one full RX-ring cycle (128 descriptors).
    for _ in 0..160 {
        sys.transmit_one().unwrap();
        sys.receive_one().unwrap();
    }
    let misses_before = sys.world.svm_hyp.as_ref().unwrap().stats().misses;
    for _ in 0..100 {
        sys.transmit_one().unwrap();
        sys.receive_one().unwrap();
    }
    let misses_after = sys.world.svm_hyp.as_ref().unwrap().stats().misses;
    let new_misses = misses_after - misses_before;
    assert!(
        new_misses <= 40,
        "steady state should mostly hit the stlb ({new_misses} new misses over 200 packets)"
    );
}

#[test]
fn header_copy_threshold_scales_copy_cost() {
    let small = SystemOptions {
        header_copy_bytes: 32,
        ..SystemOptions::default()
    };
    let large = SystemOptions {
        header_copy_bytes: 1024,
        ..SystemOptions::default()
    };
    let mut a = System::build_with(Config::TwinDrivers, &small).unwrap();
    let ba = a.measure_tx(40).unwrap();
    let mut b = System::build_with(Config::TwinDrivers, &large).unwrap();
    let bb = b.measure_tx(40).unwrap();
    assert!(
        bb.cycles(CostDomain::Xen) > ba.cycles(CostDomain::Xen) + 1000.0,
        "copying 1 KiB headers must cost visibly more than 32 B"
    );
    // Both still deliver full frames.
    a.take_wire_frames();
    for _ in 0..3 {
        a.transmit_one().unwrap();
    }
    assert_eq!(a.take_wire_frames()[0].len(), 1514);
}

/// Golden tripwire: the simulator is deterministic, so one burst of 32 in
/// each direction pins every simulated number the interpreter, the cost
/// model and the memory path feed. Work that only makes the simulator
/// faster must leave all of these exactly where they are.
#[test]
fn simulated_numbers_of_one_burst_each_way_are_pinned() {
    fn ledger(sys: &System) -> (u64, [u64; 4], u64) {
        let m = &sys.machine.meter;
        (
            m.insns(),
            CostDomain::ALL.map(|d| m.cycles(d)),
            sys.machine.now_cycles(),
        )
    }

    let mut sys = System::build(Config::TwinDrivers).unwrap();
    assert_eq!(sys.transmit_burst(32).unwrap(), 32);
    assert_eq!(
        ledger(&sys),
        (35_299, [91_601, 70_850, 68_140, 51_555], 282_146)
    );

    let mut sys = System::build(Config::TwinDrivers).unwrap();
    let frames: Vec<Frame> = (0..32).map(|seq| rx_frame(1, 2, seq)).collect();
    assert_eq!(sys.receive_burst(&frames).unwrap(), 32);
    assert_eq!(
        ledger(&sys),
        (25_951, [91_601, 149_950, 158_144, 29_530], 429_225)
    );
}

/// What the two goldens below pin: instructions, the four domain totals,
/// the virtual clock, the interrupt/NAPI/admission event counts, and a
/// fingerprint of the sorted arrival-to-delivery latency samples
/// (count, min, median, max, sum, FNV-1a over every sample).
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    insns: u64,
    domains: [u64; 4],
    now: u64,
    /// `irq`, `irq_moderated`, `napi_enter`, `napi_exit`, `early_drop`.
    events: [u64; 5],
    /// `(len, min, median, max, sum, fnv1a)` of the sorted samples.
    latency: (usize, u64, u64, u64, u64, u64),
}

fn golden(sys: &System) -> Golden {
    let m = &sys.machine.meter;
    let mut lat = sys.rx_latency_samples().to_vec();
    lat.sort_unstable();
    let fnv = lat.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, s| {
        s.to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
    });
    Golden {
        insns: m.insns(),
        domains: CostDomain::ALL.map(|d| m.cycles(d)),
        now: sys.now_cycles(),
        events: [
            m.payments(Term::IrqDispatch),
            m.event(Event::IrqModerated),
            m.event(Event::NapiEnter),
            m.event(Event::NapiExit),
            m.event(Event::EarlyDrop),
        ],
        latency: (
            lat.len(),
            lat.first().copied().unwrap_or(0),
            lat.get(lat.len() / 2).copied().unwrap_or(0),
            lat.last().copied().unwrap_or(0),
            lat.iter().sum(),
            fnv,
        ),
    }
}

fn rx_frame(guest: u32, flow: u32, seq: u64) -> Frame {
    Frame::data(
        MacAddr::for_guest(guest),
        twindrivers::peer_mac(),
        flow,
        seq,
    )
}

/// Golden tripwire for the **open-loop** path, which the burst golden
/// above never enters: the overload-controlled composition (4 NICs,
/// flow hashing, NAPI weight 8, admission watermark 64, demux cap 128,
/// flush quantum 8, a flooded guest and two weighted victims) under one
/// fixed arrival schedule — quiet stretches, where every device re-arms
/// between arrivals, and clusters of short gaps with oversized bursts,
/// where rings stay masked and the watermark sheds load.
#[test]
fn simulated_numbers_of_one_open_loop_schedule_are_pinned() {
    use twindrivers::ShardPolicy;
    let opts = SystemOptions {
        num_nics: 4,
        shard: ShardPolicy::FlowHash,
        rx_queue_cap: Some(128),
        napi_weight: 8,
        rx_backlog_watermark: Some(64),
        rx_flush_quantum: 8,
        guest_weights: vec![(2, 2), (3, 2)],
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    for g in [2, 3] {
        sys.add_guest(MacAddr::for_guest(g)).unwrap();
    }
    // Flood flows toward guest 1, two flows per victim: under FlowHash
    // every NIC carries flood and victim traffic.
    let flood = [203u32, 204, 205, 206, 207, 208, 209, 210];
    let victims = [(2u32, [211u32, 212]), (3, [218, 213])];
    let mut seq = 0u64;
    let mut burst = |total: usize| -> Vec<Frame> {
        let mut out = Vec::with_capacity(total);
        for (g, flows) in victims {
            for flow in flows {
                out.push(rx_frame(g, flow, seq));
                seq += 1;
            }
        }
        while out.len() < total {
            out.push(rx_frame(1, flood[(seq % 8) as usize], seq));
            seq += 1;
        }
        out
    };
    // Closed-loop warm-up through the same composition.
    for _ in 0..8 {
        assert_eq!(sys.receive_burst(&burst(32)).unwrap(), 32);
    }
    let open = sys.now_cycles();
    let mut at = 0u64;
    let (mut offered, mut accepted) = (0usize, 0usize);
    for i in 0..40u64 {
        // Arrivals 16..28 are the overload cluster: 96-frame bursts
        // 60 k cycles apart; the rest are 12..26 frames 450 k apart.
        let (gap, size) = if (16..28).contains(&i) {
            (60_000, 96)
        } else {
            (450_000, 12 + (i as usize * 7) % 15)
        };
        at += gap;
        sys.rx_open_loop_service(open + at).unwrap();
        let frames = burst(size);
        offered += frames.len();
        accepted += sys.rx_open_loop_arrival(&frames, open + at).unwrap();
    }
    sys.rx_open_loop_service(open + at + 10_000_000).unwrap();
    let delivered: usize = [1, 2, 3]
        .iter()
        .map(|g| sys.delivered_rx_for(twindrivers::xen::DomId(*g)))
        .sum();
    // 336 frames shed at the watermark, 244 at full rings, none at the
    // demux cap; every accepted frame is delivered (256 are warm-up).
    assert_eq!((offered, accepted, delivered), (1_677, 1_097, 1_353));
    let o = sys.outcome();
    let drops = (o.total("nic", "rx_missed"), o.total("guest", "queue_drops"));
    assert_eq!(drops, (244, 0));
    assert_eq!(
        golden(&sys),
        Golden {
            insns: 526_913,
            domains: [367_037, 6_773_850, 6_912_521, 1_262_626],
            now: 26_578_998,
            events: [100, 0, 100, 100, 336],
            latency: (
                1_097,
                143_592,
                2_654_118,
                5_773_658,
                2_737_145_098,
                12_487_979_035_393_701_681
            ),
        }
    );
}

/// Golden tripwire for the **moderated closed-loop** path: 4 NICs with a
/// 1500-unit `ITR` window take bursts faster than the window opens, so
/// causes latch, the virtual moderation timer delivers them, and
/// `drain_moderated` flushes the tail.
#[test]
fn simulated_numbers_of_one_moderated_run_are_pinned() {
    use twindrivers::ShardPolicy;
    let opts = SystemOptions {
        num_nics: 4,
        shard: ShardPolicy::FlowHash,
        itr: Itr::Fixed(1500),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mut seq = 0u64;
    let mut delivered = 0usize;
    for round in 0..12u64 {
        let frames: Vec<Frame> = (0..24)
            .map(|_| {
                let f = rx_frame(1, 203 + (seq % 8) as u32, seq);
                seq += 1;
                f
            })
            .collect();
        delivered += sys.receive_burst(&frames).unwrap();
        // Every third round idles past a window; the others arrive
        // inside it.
        sys.run_idle(if round % 3 == 2 { 1_500_000 } else { 90_000 })
            .unwrap();
    }
    sys.drain_moderated().unwrap();
    assert_eq!((delivered, sys.delivered_rx()), (288, 288));
    assert_eq!(
        golden(&sys),
        Golden {
            insns: 160_596,
            domains: [366_517, 1_336_500, 1_428_096, 291_353],
            now: 8_755_067,
            events: [24, 40, 0, 0, 0],
            latency: (
                288,
                257_848,
                1_120_365,
                1_310_544,
                282_297_792,
                5_125_422_443_548_425_493
            ),
        }
    );
}

/// Every per-device and per-guest feature state exists from build time
/// at its neutral value: a default system answers "off / zero / empty"
/// for real ids and for ids that were never there, and a guest added
/// later starts from the options the system was built with.
#[test]
fn default_systems_answer_neutral_state_for_every_id() {
    use twindrivers::xen::DomId;
    for config in Config::ALL {
        let sys = System::build(config).unwrap();
        assert!(!sys.itr_autotune(), "{config}");
        assert!(sys.quarantined_devices().is_empty(), "{config}");
        let ms = sys.metrics();
        let cache = ms.counters_with_prefix("grantcache.").count();
        assert_eq!(cache, 0, "{config}");
        assert_eq!(ms.counter("nic0.poll_cycles"), 0, "{config}");
        for d in [0, 99] {
            assert!(!sys.in_poll_mode(d), "{config} dev {d}");
            assert!(sys.itr_tuner(d).is_none(), "{config} dev {d}");
        }
        for g in [DomId(0), DomId(1), DomId(99)] {
            assert!(sys.guest_rx_latency(g).is_empty(), "{config} {g:?}");
        }
    }

    let opts = SystemOptions {
        rx_queue_cap: Some(40),
        rx_flush_quantum: 4,
        guest_weights: vec![(2, 3)],
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let g2 = sys.add_guest(MacAddr::for_guest(2)).unwrap();
    assert_eq!(g2, DomId(2));
    let xen = sys.world.xen.as_ref().unwrap();
    assert_eq!(xen.domain(g2).rx_queue_cap, Some(40), "cap inherited");
    // One contended flush round: quantum 4 × weight 3 for the late
    // guest, quantum 4 × the default weight for the primary.
    let frames: Vec<Frame> = (0..32)
        .map(|seq| rx_frame(1 + (seq % 2) as u32, 40 + (seq % 2) as u32, seq))
        .collect();
    let now = sys.now_cycles();
    assert_eq!(sys.rx_open_loop_arrival(&frames, now).unwrap(), 32);
    assert_eq!(sys.flush_rx_round().unwrap(), 16);
    assert_eq!(
        sys.rx_flush_log,
        vec![(0, DomId(1), 4), (0, g2, 12)],
        "weight listed before the guest existed"
    );
}
