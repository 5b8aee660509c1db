//! Fault isolation and live recovery, end to end (paper §4.5).
//!
//! The paper's safety story stops at "the hypervisor survives": SVM
//! rejects illegal accesses, the execution watchdog reclaims runaway
//! drivers (§4.5.2), and the faulting invocation is aborted. These
//! tests pin down both that endpoint and what this codebase builds on
//! top of it — an abort that *leaks nothing* (grants revoked with
//! balanced unmaps, the deferred-upcall ring drained and its flush
//! deadline disarmed, NAPI poll spans closed, skb pools conserved),
//! per-device quarantine, and a live reset that resumes traffic with
//! zero cross-NIC blast radius.
//!
//! Fault injection is the device-conditional one-shot hook from
//! [`fault_injected_source`]: arm it for a device, and exactly one
//! driver invocation on behalf of that device executes the fault body.

use twin_kernel::RoutineId;
use twin_net::{Frame, MacAddr};
use twin_trace::{Fate, TraceEvent};
use twindrivers::kernel::e1000;
use twindrivers::machine::{CostDomain, Event, Term};
use twindrivers::measure::{
    fault_injected_source, flow_for_dev, measure_fault_recovery, FaultClass,
};
use twindrivers::{
    peer_mac, Config, Outcome, ShardPolicy, System, SystemError, SystemOptions, UpcallMode,
};

/// Injects a payload right after a label of the stock driver source —
/// the free-form sibling of [`fault_injected_source`] for faults the
/// class enum does not model (e.g. a cross-domain store).
fn sabotage(marker: &str, payload: &str) -> String {
    e1000::source().replace(marker, &format!("{marker}\n{payload}"))
}

/// `burst` in-order frames on `dev`'s flow, continuing from `*seq`.
fn frames_for(dev: u32, nics: u32, burst: usize, seq: &mut u64) -> Vec<Frame> {
    let flow = flow_for_dev(dev, nics, 0x7000).unwrap();
    *seq += burst as u64;
    (*seq - burst as u64..*seq)
        .map(|s| Frame::data(MacAddr::for_guest(1), peer_mac(), flow, s))
        .collect()
}

fn abort_reason(r: Result<usize, SystemError>) -> String {
    match r {
        Err(SystemError::DriverAborted(reason)) => reason,
        other => panic!("expected driver abort, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The §4.5 endpoint, promoted from `examples/fault_injection.rs`: SVM
// rejects, the watchdog reclaims, the hypervisor and dom0 survive.
// ---------------------------------------------------------------------

/// A store into the hypervisor text/data region.
const WILD_WRITE: &str = r#"
    pushl %eax
    movl $0xf0000100, %eax      # hypervisor text/data region
    movl $0x41414141, (%eax)    # corrupt it
    popl %eax
"#;

#[test]
fn wild_write_into_the_hypervisor_is_rejected_and_dom0_survives() {
    let opts = SystemOptions {
        driver_source: Some(sabotage("e1000_xmit_frame:", WILD_WRITE)),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    match sys.transmit_one() {
        Err(SystemError::DriverAborted(reason)) => {
            assert!(reason.contains("svm"), "SVM must be the rejector: {reason}");
        }
        other => panic!("expected driver abort, got {other:?}"),
    }
    // Contained: the hypervisor survives, the faulted device is
    // quarantined, and the broken image faults again after its reset.
    assert_eq!(sys.quarantined_devices(), [0]);
    assert!(matches!(
        sys.transmit_one(),
        Err(SystemError::DriverAborted(_))
    ));
    assert!(
        sys.world.svm_hyp.as_ref().unwrap().stats().rejected >= 1,
        "the wild store must show up in the SVM reject counter"
    );
    // dom0's VM driver instance still serves config operations: the
    // *hypervisor* instance faulted, not the driver domain.
    let stats_entry = sys.driver.entry("e1000_get_stats").unwrap();
    let dom0 = sys.world.kernel.space;
    let netdev = sys.netdevs[0] as u32;
    twindrivers::kernel::call_function(
        &mut sys.machine,
        &mut sys.world,
        dom0,
        twin_machine::ExecMode::Guest,
        twin_kernel::DOM0_STACK_BASE + twin_kernel::DOM0_STACK_PAGES * 4096,
        stats_entry,
        &[netdev],
        1_000_000,
    )
    .expect("dom0 instance must keep serving after the hypervisor abort");
}

#[test]
fn wild_write_into_another_guest_is_rejected() {
    let evil = sabotage(
        "e1000_xmit_frame:",
        r#"
    pushl %eax
    movl $0x40000000, %eax      # a guest heap address, not dom0's
    movl $0x42424242, (%eax)
    popl %eax
"#,
    );
    let opts = SystemOptions {
        driver_source: Some(evil),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    assert!(matches!(
        sys.transmit_one(),
        Err(SystemError::DriverAborted(_))
    ));
}

#[test]
fn watchdog_reclaims_an_infinite_loop() {
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::InfiniteLoop)),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    // Dormant payload: traffic flows normally until armed.
    sys.transmit_one().unwrap();
    sys.arm_driver_fault(FaultClass::InfiniteLoop.arm_value(0))
        .unwrap();
    match sys.transmit_one() {
        Err(SystemError::DriverAborted(reason)) => {
            assert!(
                reason.contains("watchdog") || reason.contains("budget"),
                "the execution watchdog must be the reclaimer: {reason}"
            );
        }
        other => panic!("expected watchdog abort, got {other:?}"),
    }
}

#[test]
fn the_unmodified_driver_triggers_none_of_this() {
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    for _ in 0..50 {
        sys.transmit_one().unwrap();
    }
    assert_eq!(sys.world.svm_hyp.as_ref().unwrap().stats().rejected, 0);
}

// ---------------------------------------------------------------------
// Satellite regressions: abort must not leak.
// ---------------------------------------------------------------------

/// Regression: abort used to leave every guest's zero-copy grants
/// cached in the faulted image — mappings outliving the trust decision,
/// with no `grant_unmap` ever paid. Teardown now revokes them all, and
/// the registry proves each revoked mapping paid exactly one unmap.
#[test]
fn abort_revokes_zero_copy_grants_with_balanced_unmaps() {
    let nics = 2u32;
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
        num_nics: nics as usize,
        shard: ShardPolicy::FlowHash,
        zero_copy: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    // Warm the grant cache on both devices.
    let mut seq = 0u64;
    for _ in 0..2 {
        for d in 0..nics {
            let f = frames_for(d, nics, 8, &mut seq);
            assert_eq!(sys.receive_burst(&f).unwrap(), 8);
        }
    }
    let hits = sys.machine.meter.payments(Term::GrantCacheHit);
    assert!(hits > 0, "cache must be warm before the fault");
    assert_eq!(sys.metrics().counter("grantcache.revoked"), 0);

    let m0 = sys.metrics();
    sys.arm_driver_fault(FaultClass::WildWrite.arm_value(0))
        .unwrap();
    let f = frames_for(0, nics, 8, &mut seq);
    abort_reason(sys.receive_burst(&f));

    let delta = sys.metrics().delta_since(&m0);
    let revoked = delta.counter("grantcache.revoked");
    assert!(revoked > 0, "abort must revoke the cached grants");
    assert_eq!(
        delta.counter("event.grant_unmap"),
        revoked,
        "every revoked mapping owes exactly one grant_unmap"
    );
}

/// Regression: abort with a non-empty deferred-upcall ring used to
/// strand queued frees (skb-pool leak) and leave the flush-deadline
/// timer armed forever toward a dead ring. Teardown now drains the
/// ring — replaying restorative frees natively, discarding the rest
/// with accounting — and disarms the deadline.
#[test]
fn abort_drains_the_upcall_ring_and_disarms_the_flush_deadline() {
    let nics = 2u32;
    let deadline = 5_000_000u64;
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
        num_nics: nics as usize,
        shard: ShardPolicy::FlowHash,
        upcall_mode: UpcallMode::Deferred,
        upcall_count: 9,
        upcall_flush_deadline_cycles: Some(deadline),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mut seq = 0u64;
    for _ in 0..2 {
        for d in 0..nics {
            let f = frames_for(d, nics, 8, &mut seq);
            assert_eq!(sys.receive_burst(&f).unwrap(), 8);
        }
    }
    // Steady state: every pass flushed its own ring.
    assert_eq!(sys.world.hyper.as_ref().unwrap().engine.depth(), 0);
    let pool_base = sys.outcome().dom0_free;

    // Queue a free the driver owes dom0 (an skb leaves the pool) and a
    // non-restorative unmap, arming the flush deadline.
    let space = sys.world.kernel.space;
    let skb = sys
        .world
        .kernel
        .pool
        .alloc(&mut sys.machine, space)
        .expect("pool has skbs");
    {
        let twindrivers::system::World {
            kernel, xen, hyper, ..
        } = &mut sys.world;
        let hs = hyper.as_mut().unwrap();
        let xen = xen.as_mut().unwrap();
        hs.enqueue_upcall(
            RoutineId::lookup("dev_kfree_skb_any").unwrap(),
            vec![skb.0 as u32],
            &mut sys.machine,
            kernel,
            xen,
        )
        .unwrap();
        hs.enqueue_upcall(
            RoutineId::lookup("dma_unmap_single").unwrap(),
            vec![0x1234, 64],
            &mut sys.machine,
            kernel,
            xen,
        )
        .unwrap();
    }
    let engine = &sys.world.hyper.as_ref().unwrap().engine;
    assert_eq!(engine.depth(), 2);
    assert!(engine.flush_due_at().is_some(), "deadline armed on enqueue");
    assert_eq!(sys.outcome().dom0_free, pool_base - 1);

    // The armed pass: device 1's fault body sits at the handler entry,
    // so the abort lands with the two queued entries still in the ring
    // — before any conflicting native routine could force a flush and
    // before the burst-end flush point.
    let f = frames_for(1, nics, 8, &mut seq);
    sys.arm_driver_fault(FaultClass::WildWrite.arm_value(1))
        .unwrap();
    abort_reason(sys.receive_burst(&f));

    // Drained, accounted, disarmed — and the queued free executed, so
    // the skb is back (ring teardown returns more on top).
    assert!(sys.machine.meter.event(Event::UpcallReplayed) >= 1);
    assert!(sys.machine.meter.event(Event::UpcallDiscarded) >= 1);
    let engine = &sys.world.hyper.as_ref().unwrap().engine;
    assert_eq!(engine.depth(), 0, "no upcall may stay queued past abort");
    assert!(engine.flush_due_at().is_none(), "deadline must be disarmed");
    assert!(sys.outcome().dom0_free >= pool_base);

    // An idle epoch spanning several deadline windows must not try to
    // flush toward the dead ring.
    let flushes = sys.machine.meter.payments(Term::UpcallFlushOverhead);
    sys.run_idle(3 * deadline).unwrap();
    assert_eq!(
        sys.machine.meter.payments(Term::UpcallFlushOverhead),
        flushes
    );
    assert_eq!(sys.world.hyper.as_ref().unwrap().engine.depth(), 0);
}

/// Regression: a flush used to drain the whole ring up front and stop
/// at the first routine fault, so every entry queued behind the
/// faulting one was neither executed nor left for teardown — a queued
/// free leaked its skb. The flush now pops entry by entry; teardown
/// finds the tail and replays what dom0 is owed.
#[test]
fn a_free_queued_behind_a_faulting_upcall_is_replayed_not_leaked() {
    let opts = SystemOptions {
        upcall_mode: UpcallMode::Deferred,
        upcall_count: 9,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mut seq = 0u64;
    let round = |sys: &mut System, seq: &mut u64| {
        let f = frames_for(0, 1, 8, seq);
        assert_eq!(sys.receive_burst(&f).unwrap(), 8);
    };
    for _ in 0..3 {
        round(&mut sys, &mut seq);
    }
    let pool_base = sys.outcome().dom0_free;

    // A free of a pointer dom0 cannot read, then one it is really owed.
    let space = sys.world.kernel.space;
    let skb = sys
        .world
        .kernel
        .pool
        .alloc(&mut sys.machine, space)
        .expect("pool has skbs");
    {
        let twindrivers::system::World {
            kernel, xen, hyper, ..
        } = &mut sys.world;
        let (hs, xen) = (hyper.as_mut().unwrap(), xen.as_mut().unwrap());
        let free = RoutineId::lookup("dev_kfree_skb_any").unwrap();
        for ptr in [0x7777_0000, skb.0 as u32] {
            hs.enqueue_upcall(free, vec![ptr], &mut sys.machine, kernel, xen)
                .unwrap();
        }
    }
    // The pass's first forced result-consuming call suspends on a flush;
    // its first entry page-faults in dom0 and the driver is aborted with
    // the good free (and the suspending call) still queued.
    let f = frames_for(0, 1, 8, &mut seq);
    abort_reason(sys.receive_burst(&f));
    assert_eq!(sys.machine.meter.event(Event::UpcallReplayed), 1);
    assert!(sys.machine.meter.event(Event::UpcallDiscarded) >= 1);
    assert_eq!(sys.world.hyper.as_ref().unwrap().engine.depth(), 0);

    sys.recover_device(0).unwrap();
    round(&mut sys, &mut seq);
    round(&mut sys, &mut seq);
    assert_eq!(
        sys.outcome().dom0_free,
        pool_base,
        "the skb queued for freeing behind the faulting entry leaked"
    );
}

/// Regression: every quarantine → reset episode used to leak a ring's
/// worth of skbs (the old rings' buffers were simply forgotten). Pool
/// occupancy at the same schedule point must now be identical across
/// repeated episodes.
#[test]
fn recovery_conserves_skb_pools_across_episodes() {
    let nics = 2u32;
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
        num_nics: nics as usize,
        shard: ShardPolicy::FlowHash,
        upcall_mode: UpcallMode::Deferred,
        upcall_count: 9,
        upcall_flush_deadline_cycles: Some(5_000_000),
        zero_copy: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mut seq = 0u64;
    let round = |sys: &mut System, seq: &mut u64| {
        for d in 0..nics {
            let f = frames_for(d, nics, 8, seq);
            assert_eq!(sys.receive_burst(&f).unwrap(), 8);
        }
    };
    for _ in 0..3 {
        round(&mut sys, &mut seq);
    }
    let occupancy = |sys: &mut System| {
        let o = sys.outcome();
        (o.dom0_free, o.hyper_free)
    };
    let baseline = occupancy(&mut sys);

    for episode in 0..3u32 {
        sys.arm_driver_fault(FaultClass::WildWrite.arm_value(1))
            .unwrap();
        let f = frames_for(1, nics, 8, &mut seq);
        abort_reason(sys.receive_burst(&f));
        // Recovery + settle: the next invocation resets the device.
        round(&mut sys, &mut seq);
        round(&mut sys, &mut seq);
        assert_eq!(
            occupancy(&mut sys),
            baseline,
            "episode {episode} changed pool occupancy: a reset leaks skbs"
        );
    }
    assert_eq!(sys.recovery_log().len(), 3);
    assert!(sys.quarantined_devices().is_empty());
}

/// Regression: abort inside a NAPI poll pass used to leave the IRQ
/// IMC-masked with the `poll_entered_at` span open forever — the
/// residency metric kept growing and the device could never interrupt
/// again. Teardown now closes the span; recovery's `e1000_open`
/// re-enables `IMS`.
#[test]
fn abort_closes_the_napi_poll_span_and_recovery_rearms_the_irq() {
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
        num_nics: 1,
        napi_weight: 8,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mut seq = 0u64;
    let a = frames_for(0, 1, 4, &mut seq);
    let now = sys.now_cycles();
    sys.rx_open_loop_arrival(&a, now).unwrap();
    assert!(sys.in_poll_mode(0), "first irq enters poll mode");
    assert!(sys.world.nics[0].rx_irq_masked());

    sys.arm_driver_fault(FaultClass::WildWrite.arm_value(0))
        .unwrap();
    let until = sys.now_cycles() + 600_000;
    match sys.rx_open_loop_service(until) {
        Err(SystemError::DriverAborted(_)) => {}
        other => panic!("expected abort inside the poll pass, got {other:?}"),
    }

    // Span closed at the abort: mode off, residency frozen.
    assert!(!sys.in_poll_mode(0), "teardown must exit poll mode");
    assert!(sys.machine.meter.event(Event::NapiExit) >= 1);
    let poll_cycles = |sys: &System| sys.metrics().counter("nic0.poll_cycles");
    let frozen = poll_cycles(&sys);
    sys.run_idle(100_000).unwrap();
    assert_eq!(
        poll_cycles(&sys),
        frozen,
        "a closed span must not keep accruing residency"
    );
    // The IRQ stays masked until recovery re-opens the device.
    assert!(sys.world.nics[0].rx_irq_masked());

    // Next traffic toward the quarantined device: live recovery, IMS
    // re-armed, frames served.
    let b = frames_for(0, 1, 8, &mut seq);
    assert_eq!(sys.receive_burst(&b).unwrap(), 8);
    assert_eq!(sys.recovery_log().len(), 1);
    assert!(sys.quarantined_devices().is_empty());
    assert!(
        !sys.world.nics[0].rx_irq_masked(),
        "recovery must re-enable IMS"
    );
}

/// Regression: the abort path used to be invisible to the flight
/// recorder — no typed event, nothing to gate a trace artifact on. A
/// fault episode now emits the full typed sequence, and the quarantine
/// brackets pair up.
#[test]
fn fault_episodes_emit_typed_trace_events() {
    let nics = 2u32;
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
        num_nics: nics as usize,
        shard: ShardPolicy::FlowHash,
        tracing: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    // Detect → enter → account → reset → exit.
    let mut seq = 0u64;
    for d in 0..nics {
        let f = frames_for(d, nics, 8, &mut seq);
        sys.receive_burst(&f).unwrap();
    }
    sys.arm_driver_fault(FaultClass::WildWrite.arm_value(1))
        .unwrap();
    let f = frames_for(1, nics, 8, &mut seq);
    abort_reason(sys.receive_burst(&f));
    let f = frames_for(1, nics, 8, &mut seq);
    assert_eq!(sys.receive_burst(&f).unwrap(), 8);

    let kinds = sys.machine.trace.counts_by_kind();
    for kind in [
        "fault_detected",
        "quarantine_enter",
        "inflight_accounted",
        "device_reset",
        "quarantine_exit",
    ] {
        assert_eq!(kinds.get(kind), Some(&1), "missing or duplicated {kind}");
    }
    assert_eq!(sys.machine.meter.event(Event::DriverAbort), 1);
    assert_eq!(sys.machine.meter.event(Event::QuarantineEnter), 1);
    assert_eq!(sys.machine.meter.event(Event::QuarantineExit), 1);
    assert_eq!(sys.machine.meter.event(Event::DeviceReset), 1);
}

/// With no permanent abort, an image that faults on every invocation is
/// reset and called again each time: every round's transmit aborts, its
/// receive resets the device and delivers, and no episode leaks a pool
/// skb or a grant mapping.
#[test]
fn a_driver_that_faults_on_every_invocation_is_reset_each_time_and_leaks_nothing() {
    let opts = SystemOptions {
        driver_source: Some(sabotage("e1000_xmit_frame:", WILD_WRITE)),
        zero_copy: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let (mut seq, mut pools) = (0u64, None);
    for round in 1..=6 {
        abort_reason(sys.transmit_burst(1));
        // The abort revoked every mapping the last round's receive made.
        let ms = sys.metrics();
        let (maps, unmaps) = (
            ms.counter("event.grant_map"),
            ms.counter("event.grant_unmap"),
        );
        assert_eq!(maps, unmaps, "round {round}");
        let f = frames_for(0, 1, 8, &mut seq);
        assert_eq!(sys.receive_burst(&f).unwrap(), 8, "round {round}");
        assert_eq!(sys.recovery_log().len(), round);
        let o = sys.outcome();
        let free = (o.dom0_free, o.hyper_free);
        assert_eq!(*pools.get_or_insert(free), free, "round {round}");
        assert!(
            o.metrics.counter("event.grant_map") > maps,
            "round {round}: zero-copy maps"
        );
    }
}

/// Regression: which bar a recovery's cycles landed in used to depend
/// on the path that noticed the quarantine — a transmit ran the reset
/// inside its driver bracket, so the e1000 bar took part of dom0's
/// probe and the reset's trace records were labeled `e1000`.
#[test]
fn a_recovery_is_charged_to_dom0_whichever_path_notices_it() {
    let quarantined = || {
        let opts = SystemOptions {
            driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
            tracing: true,
            ..SystemOptions::default()
        };
        let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
        sys.arm_driver_fault(FaultClass::WildWrite.arm_value(0))
            .unwrap();
        abort_reason(sys.receive_burst(&frames_for(0, 1, 8, &mut 0)));
        sys
    };
    for transmit in [false, true] {
        let mut sys = quarantined();
        match transmit {
            false => sys.receive_burst(&frames_for(0, 1, 8, &mut 8)),
            true => sys.transmit_burst(8),
        }
        .unwrap();
        let records = sys.machine.trace.records();
        let reset =
            records.filter(|r| matches!(r.event.kind(), "device_reset" | "quarantine_exit"));
        assert_eq!(reset.map(|r| r.domain).collect::<Vec<_>>(), ["dom0"; 2]);
    }
    let split = |bracket: bool| {
        let mut sys = quarantined();
        if bracket {
            sys.machine.meter.push_domain(CostDomain::Driver);
        }
        sys.recover_device(0).unwrap();
        CostDomain::ALL.map(|d| sys.machine.meter.cycles(d))
    };
    assert_eq!(split(true), split(false));
}

// ---------------------------------------------------------------------
// The tentpole: quarantine one device, recover it live, and prove the
// blast radius is zero.
// ---------------------------------------------------------------------

/// Sibling devices must see *bit-exact* traffic through a fault
/// episode — not "within tolerance": the identical frame sequence an
/// unfaulted control run delivers. The faulted device loses exactly
/// the armed burst and nothing else.
#[test]
fn recovery_preserves_sibling_traffic_bit_exact() {
    let nics = 4u32;
    let dev = 1u32;
    let burst = 8usize;
    let build = || {
        let opts = SystemOptions {
            driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
            num_nics: nics as usize,
            shard: ShardPolicy::FlowHash,
            zero_copy: true,
            ..SystemOptions::default()
        };
        System::build_with(Config::TwinDrivers, &opts).unwrap()
    };
    let (mut sys, mut control) = (build(), build());

    let mut seq = 0u64;
    let mut lost_range = 0u64..0;
    for round in 0..7 {
        for d in 0..nics {
            let f = frames_for(d, nics, burst, &mut seq);
            assert_eq!(control.receive_burst(&f).unwrap(), burst);
            if round == 3 && d == dev {
                lost_range = f[0].seq..f[0].seq + burst as u64;
                sys.arm_driver_fault(FaultClass::WildWrite.arm_value(dev))
                    .unwrap();
                abort_reason(sys.receive_burst(&f));
            } else {
                assert_eq!(sys.receive_burst(&f).unwrap(), burst);
            }
        }
    }
    assert_eq!(sys.recovery_log().len(), 1);
    assert!(sys.quarantined_devices().is_empty());

    let gid = sys.guest().unwrap();
    let (faulted, unfaulted) = (sys.outcome(), control.outcome());
    let flow_frames = |o: &Outcome, d: u32| -> Vec<Frame> {
        let flow = flow_for_dev(d, nics, 0x7000).unwrap();
        let log = o.delivered(gid).iter();
        log.filter(|f| f.flow == flow).cloned().collect()
    };
    // Siblings: the exact same frames in the exact same per-flow order.
    for d in (0..nics).filter(|d| *d != dev) {
        let (got, want) = (flow_frames(&faulted, d), flow_frames(&unfaulted, d));
        assert_eq!(got, want, "sibling dev{d} traffic diverged");
    }
    // The faulted device: the control sequence minus exactly the armed
    // burst — bounded, accounted loss, nothing more.
    let mut want = flow_frames(&unfaulted, dev);
    want.retain(|f| !lost_range.contains(&f.seq));
    assert_eq!(
        flow_frames(&faulted, dev),
        want,
        "faulted dev must lose the armed burst exactly"
    );
}

/// The sweep harness itself, at test scale: full recovery, zero blast
/// radius, loss bounded to one burst per episode, for a second fault
/// class (wedged ring) so both SVM-reject shapes stay covered here.
#[test]
fn fault_harness_measures_full_recovery() {
    let nics = 2usize;
    let build = || {
        let opts = SystemOptions {
            driver_source: Some(fault_injected_source(FaultClass::WedgedRing)),
            num_nics: nics,
            shard: ShardPolicy::FlowHash,
            ..SystemOptions::default()
        };
        System::build_with(Config::TwinDrivers, &opts).unwrap()
    };
    let (mut sys, mut control) = (build(), build());
    let p = measure_fault_recovery(&mut sys, &mut control, 1, FaultClass::WedgedRing, 2, 8, 1)
        .expect("fault point");
    assert_eq!(p.pre_delivered, 16);
    assert_eq!(p.post_delivered, 16, "recovery must restore full goodput");
    assert_eq!(p.sibling_delivered, p.sibling_control, "zero blast radius");
    assert_eq!(p.lost_frames, 8, "exactly the armed burst is lost");
    assert_eq!(
        p.dropped, p.lost_frames,
        "the teardown counts every lost frame"
    );
    assert!(p.recovery_cycles > 0, "the reset costs real virtual time");
    assert_eq!(sys.recovery_log().len(), 1);
}

// ---------------------------------------------------------------------
// Guard rails.
// ---------------------------------------------------------------------

#[test]
fn arming_requires_a_fault_injected_driver() {
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    match sys.arm_driver_fault(1) {
        Err(SystemError::Build(msg)) => assert!(msg.contains("fault_arm")),
        other => panic!("expected a build error, got {other:?}"),
    }
}

/// A fault loses only what is still in its device's ring. Frames the
/// reap already took — here a burst that died at the demux — are not
/// counted a second time as in-flight loss.
#[test]
fn a_fault_counts_only_the_frames_in_its_ring() {
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let nobody = MacAddr::for_guest(77);
    let missed: Vec<Frame> = (0..8)
        .map(|s| Frame::data(nobody, peer_mac(), 9, s))
        .collect();
    assert_eq!(sys.receive_burst(&missed).unwrap(), 8);
    sys.arm_driver_fault(FaultClass::WildWrite.arm_value(0))
        .unwrap();
    sys.machine.trace.set_enabled(true);
    let mut seq = 0u64;
    let aborted = frames_for(0, 1, 8, &mut seq);
    abort_reason(sys.receive_burst(&aborted));
    let m = sys.metrics();
    assert_eq!(m.counter("event.demux_miss"), 8);
    assert_eq!(
        m.counter("event.inflight_lost"),
        8,
        "the aborted burst alone"
    );
    let lost: Vec<(u32, u64)> = (sys.machine.trace.records())
        .filter_map(|r| match r.event {
            TraceEvent::FrameDrop {
                fate: Fate::InflightLost,
                frame,
                ..
            } => frame,
            _ => None,
        })
        .collect();
    let keys: Vec<(u32, u64)> = aborted.iter().map(|f| (f.flow, f.seq)).collect();
    assert_eq!(lost, keys, "each note names its frame, in ring order");
}

/// A fault that strikes after the reap — a wedged adapter faults at the
/// `RDT` bump that ends a budgeted poll pass — finds the reaped frames
/// still counted in the ring's `rx_pending`, yet already in the demux
/// queue: they are delivered, not counted as lost too.
#[test]
fn a_fault_after_the_reap_loses_nothing_the_reap_queued() {
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WedgedRing)),
        num_nics: 1,
        napi_weight: 8,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mut seq = 0u64;
    assert_eq!(
        sys.receive_burst(&frames_for(0, 1, 8, &mut seq)).unwrap(),
        8
    );
    sys.arm_driver_fault(FaultClass::WedgedRing.arm_value(0))
        .unwrap();
    abort_reason(sys.receive_burst(&frames_for(0, 1, 8, &mut seq)));
    assert_eq!(sys.metrics().counter("event.inflight_lost"), 0);
    assert_eq!(sys.rx_backlog(), 8, "the reap queued the whole burst");
    let now = sys.now_cycles();
    let live = frames_for(0, 1, 8, &mut seq);
    assert_eq!(sys.rx_open_loop_arrival(&live, now).unwrap(), 8);
    sys.rx_open_loop_service(now + 2_000_000).unwrap();
    assert_eq!(sys.delivered_rx(), 24, "every frame once");
    assert_eq!(sys.metrics().counter("event.inflight_lost"), 0);
}

/// Regression: the open-loop arrival used to land frames on a
/// quarantined device *before* the recovery its ISR (or poll pass)
/// triggered — the reset reconstructed the rings and wiped them, and
/// because the teardown's in-flight sweep had already run, no counter
/// saw them go. Both arrival entry points now recover first, as the
/// closed loop always did. Every landed frame has a record, so the
/// conservation law has no blind term.
#[test]
fn open_loop_arrival_recovers_a_quarantined_device_before_landing_frames() {
    for weight in [0usize, 8] {
        let opts = SystemOptions {
            driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
            num_nics: 1,
            napi_weight: weight,
            ..SystemOptions::default()
        };
        let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
        let mut seq = 0u64;
        let warm = frames_for(0, 1, 8, &mut seq);
        assert_eq!(sys.receive_burst(&warm).unwrap(), 8);

        // The aborted burst: the fault fires in the ISR reap (inside the
        // arrival) or in the first poll pass (inside the service).
        sys.arm_driver_fault(FaultClass::WildWrite.arm_value(0))
            .unwrap();
        let dead = frames_for(0, 1, 8, &mut seq);
        let now = sys.now_cycles();
        let arrived = sys.rx_open_loop_arrival(&dead, now);
        let serviced = sys.rx_open_loop_service(now + 2_000_000);
        assert!(
            matches!(arrived, Err(SystemError::DriverAborted(_)))
                != matches!(serviced, Err(SystemError::DriverAborted(_))),
            "weight {weight}: exactly one call aborts: {arrived:?} / {serviced:?}"
        );
        assert_eq!(sys.quarantined_devices(), vec![0], "weight {weight}");

        let live = frames_for(0, 1, 8, &mut seq);
        let now = sys.now_cycles();
        assert_eq!(sys.rx_open_loop_arrival(&live, now).unwrap(), 8);
        sys.rx_open_loop_service(now + 2_000_000).unwrap();
        assert_eq!(sys.recovery_log().len(), 1, "weight {weight}");
        assert!(sys.quarantined_devices().is_empty());
        assert_eq!(
            sys.delivered_rx(),
            16,
            "weight {weight}: all 8 frames after the fault must be delivered"
        );

        let m = sys.metrics();
        let offered = (warm.len() + dead.len() + live.len()) as u64;
        assert_eq!(
            offered,
            sys.delivered_rx() as u64
                + m.counter("nic0.rx_missed")
                + m.counter("event.inflight_lost")
                + m.counter("guest1.queue_drops")
                + m.counter("guest1.early_drops"),
            "weight {weight}: every offered frame is delivered or counted"
        );
        assert_eq!(m.counter("event.inflight_lost"), 8, "the aborted burst");
    }
}

/// Regression: a transmit whose invocation aborted after putting skbs
/// in the TX ring freed them twice — once in the fault's teardown, once
/// with the rest of the burst — and panicked with "skb double free".
/// The call fails, every skb is back in its pool, and the next transmit
/// resets the device and leaves the pools as an unfaulted one does.
#[test]
fn a_transmit_aborted_with_skbs_in_its_ring_frees_each_once() {
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WedgedRing)),
        ..SystemOptions::default()
    };
    let build = || System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mut control = build();
    assert_eq!(control.transmit_burst(32).unwrap(), 32);
    let unfaulted = control.outcome();

    let mut sys = build();
    let hyper_free = sys.outcome().hyper_free;
    sys.arm_driver_fault(FaultClass::WedgedRing.arm_value(0))
        .unwrap();
    abort_reason(sys.transmit_burst(32));
    let o = sys.outcome();
    assert_eq!(o.dom0_free, sys.world.kernel.pool.capacity(), "dom0 pool");
    assert_eq!(o.hyper_free, hyper_free, "hypervisor pool");
    assert_eq!(sys.transmit_burst(32).unwrap(), 32);
    assert_eq!(sys.recovery_log().len(), 1);
    let o = sys.outcome();
    assert_eq!(
        (o.dom0_free, o.hyper_free),
        (unfaulted.dom0_free, unfaulted.hyper_free)
    );
}
