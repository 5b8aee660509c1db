//! The traced runs `tests/trace.rs` holds the one-vocabulary law over and
//! `tests/registry.rs` pins the registry of: together they reach every
//! paired trace kind but the two deaths none of them suffers (a demux
//! miss and a malformed frame), every payment published as an `event.*`
//! count and every per-guest split.

use twin_net::{Frame, MacAddr};
use twin_xen::DomId;
use twindrivers::measure::{fault_injected_source, FaultClass};
use twindrivers::{
    peer_mac, Config, Itr, ShardPolicy, System, SystemError, SystemOptions, UpcallMode,
};

pub fn mk(dst: MacAddr, flow: u32, seq: u64) -> Frame {
    Frame::data(dst, peer_mac(), flow, seq)
}

/// The livelock sweep's controlled shape, scaled down: NAPI, DRR
/// weights, queue cap and admission watermark all active so every event
/// family has a chance to fire.
pub fn overload_opts(tracing: bool) -> SystemOptions {
    SystemOptions {
        num_nics: 2,
        shard: ShardPolicy::FlowHash,
        rx_queue_cap: Some(64),
        napi_weight: 16,
        rx_backlog_watermark: Some(48),
        rx_flush_quantum: 8,
        guest_weights: vec![(2, 64)],
        tracing,
        ..SystemOptions::default()
    }
}

/// Drives an open-loop flood plus a victim trickle through `sys` and
/// returns the count delivered — deterministic, heavy enough to enter
/// poll mode and shed at the watermark.
pub fn drive(sys: &mut System) -> u64 {
    let flood = MacAddr::for_guest(1);
    let victim = MacAddr::for_guest(2);
    let mut seq = 0u64;
    let t0 = sys.now_cycles();
    let gap = 40_000u64;
    for i in 0..40u64 {
        let at = t0 + i * gap;
        sys.rx_open_loop_service(at).unwrap();
        let mut frames = Vec::new();
        for _ in 0..4 {
            frames.push(mk(victim, 900, seq));
            seq += 1;
        }
        for _ in 0..80 {
            frames.push(mk(flood, 800, seq));
            seq += 1;
        }
        sys.rx_open_loop_arrival(&frames, at).unwrap();
    }
    sys.rx_open_loop_service(t0 + 40 * gap).unwrap();
    sys.delivered_rx() as u64
}

/// Every layer whose counters the registry publishes, on at once: four
/// NICs, zero-copy, deferred upcalls with a flush deadline (nine routines
/// forced onto them, so the ring really fills and drains), NAPI, the
/// `ITR` auto-tuner, the flight recorder and a second guest.
pub fn composed() -> System {
    let opts = SystemOptions {
        num_nics: 4,
        shard: ShardPolicy::FlowHash,
        zero_copy: true,
        upcall_mode: UpcallMode::Deferred,
        upcall_count: 9,
        upcall_flush_deadline_cycles: Some(300_000),
        napi_weight: 16,
        itr: Itr::Auto,
        tracing: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    sys.add_guest(MacAddr::for_guest(2)).unwrap();
    sys
}

/// [`composed`], driven both ways and idled past the flush deadline.
pub fn composed_run() -> System {
    let mut sys = composed();
    for round in 0..4u64 {
        sys.transmit_burst(32).unwrap();
        sys.take_wire_frames();
        let frames: Vec<Frame> = (0..32u64)
            .map(|i| {
                mk(
                    MacAddr::for_guest(1 + (i % 2) as u32),
                    (i % 11) as u32,
                    round * 32 + i,
                )
            })
            .collect();
        sys.receive_burst(&frames).unwrap();
        sys.run_idle(400_000).unwrap();
    }
    sys
}

/// Zero-copy receive on more flows than the grant cache holds pool
/// pages for, so its LRU evicts.
pub fn churn_run() -> System {
    let opts = SystemOptions {
        zero_copy: true,
        tracing: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    for flow in 0..140u32 {
        let frames: Vec<Frame> = (0..32u64)
            .map(|s| mk(MacAddr::for_guest(1), flow, u64::from(flow) * 32 + s))
            .collect();
        sys.receive_burst(&frames).unwrap();
    }
    sys
}

/// The scheduler model with the affinity shard policy: a guest whose
/// vCPU runs and sleeps while its flow is placed.
pub fn affinity_run() -> System {
    let opts = SystemOptions {
        num_nics: 4,
        shard: ShardPolicy::Affinity,
        tracing: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    sys.sched_add_vcpu(DomId(1), 1, 100_000, 200_000).unwrap();
    for round in 0..4u64 {
        let frames: Vec<Frame> = (0..8)
            .map(|s| mk(MacAddr::for_guest(1), 900, round * 8 + s))
            .collect();
        sys.receive_burst(&frames).unwrap();
        sys.run_idle(150_000).unwrap();
    }
    sys
}

/// `tests/fault.rs`'s `abort_closes_the_napi_poll_span_and_recovery_rearms_the_irq`,
/// traced: a wild write aborts a NAPI poll pass, and the next burst
/// recovers the device.
pub fn aborted_poll_run() -> System {
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
        num_nics: 1,
        napi_weight: 8,
        tracing: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let frames = |from: u64, n: u64| -> Vec<Frame> {
        (from..from + n)
            .map(|s| mk(MacAddr::for_guest(1), 7, s))
            .collect()
    };
    let now = sys.now_cycles();
    sys.rx_open_loop_arrival(&frames(0, 4), now).unwrap();
    assert!(sys.in_poll_mode(0), "first irq enters poll mode");
    sys.arm_driver_fault(FaultClass::WildWrite.arm_value(0))
        .unwrap();
    let until = sys.now_cycles() + 600_000;
    match sys.rx_open_loop_service(until) {
        Err(SystemError::DriverAborted(_)) => {}
        other => panic!("expected abort inside the poll pass, got {other:?}"),
    }
    assert_eq!(sys.receive_burst(&frames(4, 8)).unwrap(), 8);
    assert_eq!(sys.recovery_log().len(), 1);
    sys
}

/// An open-loop flood, interrupt-driven, with the watermark above the
/// queue cap: each arrival is reaped into the queue and flushed only at
/// service, so the flood both sheds at admission and overflows its demux
/// queue.
pub fn overload_run() -> System {
    let opts = SystemOptions {
        napi_weight: 0,
        rx_backlog_watermark: Some(72),
        ..overload_opts(true)
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    sys.add_guest(MacAddr::for_guest(2)).unwrap();
    drive(&mut sys);
    sys
}

/// A scenario: builds and drives its system.
pub type Run = fn() -> System;

/// The five runs by name.
pub const RUNS: [(&str, Run); 5] = [
    ("composed", composed_run),
    ("churn", churn_run),
    ("overload", overload_run),
    ("affinity", affinity_run),
    ("aborted_poll", aborted_poll_run),
];
