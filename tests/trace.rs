//! The flight recorder and metrics registry end to end: tracing is
//! *observation only* — a traced run charges exactly the cycles of an
//! untraced run — identical runs produce identical event streams, ring
//! overflow keeps the stream well-formed and is surfaced in the
//! registry, and the chrome exporter emits the episodes and instants
//! the sweep harness relies on. Counts and trace are one vocabulary:
//! each kind `twin_machine::cost::row` pairs with an `Event` row was
//! recorded exactly as often as the meter counted that row.

use std::collections::{BTreeMap, BTreeSet};
use twin_machine::{cost, Event};
use twin_net::{Frame, MacAddr};
use twin_trace::export::chrome_trace_json;
use twin_trace::{FlightRecorder, TraceEvent};
use twin_xen::DomId;
use twindrivers::measure::{fault_injected_source, FaultClass};
use twindrivers::{
    peer_mac, Config, Itr, Law, ShardPolicy, System, SystemError, SystemOptions, UpcallMode,
};

fn mk(dst: MacAddr, flow: u32, seq: u64) -> Frame {
    Frame::data(dst, peer_mac(), flow, seq)
}

/// The livelock sweep's controlled shape, scaled down: NAPI, DRR
/// weights, queue cap and admission watermark all active so every event
/// family has a chance to fire.
fn overload_opts(tracing: bool) -> SystemOptions {
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
fn drive(sys: &mut System) -> u64 {
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

#[test]
fn identical_runs_produce_identical_streams() {
    let run = || {
        let mut sys = System::build_with(Config::TwinDrivers, &overload_opts(true)).unwrap();
        sys.add_guest(MacAddr::for_guest(2)).unwrap();
        drive(&mut sys);
        sys
    };
    let a = run();
    let b = run();
    assert!(!a.machine.trace.is_empty(), "the drive must record events");
    let ra: Vec<_> = a.machine.trace.records().cloned().collect();
    let rb: Vec<_> = b.machine.trace.records().cloned().collect();
    assert_eq!(ra, rb, "identical runs must record identical streams");
    assert_eq!(
        chrome_trace_json(&a.machine.trace),
        chrome_trace_json(&b.machine.trace)
    );
    assert_eq!(a.metrics().to_json(), b.metrics().to_json());
}

#[test]
fn tracing_charges_zero_cycles() {
    // The whole point of the design: a traced run is `Law::BitExact`
    // with an untraced run — per-domain cycles, named meter events,
    // device stats, deliveries, drops, the whole registry but the
    // recorder's own `trace.*` counters.
    let run = |tracing: bool| {
        let mut sys = System::build_with(Config::TwinDrivers, &overload_opts(tracing)).unwrap();
        sys.add_guest(MacAddr::for_guest(2)).unwrap();
        drive(&mut sys);
        (sys.machine.trace.len(), sys.outcome())
    };
    let (recorded, on) = run(true);
    let (unrecorded, off) = run(false);
    assert!(recorded > 0);
    assert_eq!(unrecorded, 0, "untraced run records nothing");
    on.check(&off, Law::BitExact).unwrap();
}

#[test]
fn ring_overflow_evicts_oldest_and_stays_well_formed() {
    let mut sys = System::build_with(Config::TwinDrivers, &overload_opts(true)).unwrap();
    sys.add_guest(MacAddr::for_guest(2)).unwrap();
    sys.machine.trace.set_capacity(64);
    drive(&mut sys);
    let rec = &sys.machine.trace;
    assert!(rec.dropped() > 0, "the drive must overflow a 64-slot ring");
    assert_eq!(rec.len(), 64);
    assert_eq!(rec.recorded(), 64 + rec.dropped());
    // Well-formed after eviction: seq strictly increasing and dense,
    // virtual clock monotone non-decreasing.
    let recs: Vec<_> = rec.records().cloned().collect();
    for w in recs.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1, "seq gap inside the ring");
        assert!(w[1].at >= w[0].at, "virtual clock ran backwards");
    }
    assert_eq!(recs[0].seq, rec.dropped(), "oldest surviving seq = dropped");
    // The loss is surfaced in the registry, not silent.
    let m = sys.metrics();
    assert_eq!(m.counter("trace.events_dropped"), rec.dropped());
    assert_eq!(m.counter("trace.events_recorded"), rec.recorded());
    // The exporter still produces a parseable stream.
    assert!(chrome_trace_json(rec).starts_with("{\"traceEvents\": ["));
}

#[test]
fn chrome_export_has_napi_episodes_and_drop_instants() {
    let mut sys = System::build_with(Config::TwinDrivers, &overload_opts(true)).unwrap();
    sys.add_guest(MacAddr::for_guest(2)).unwrap();
    drive(&mut sys);
    let kinds = sys.machine.trace.counts_by_kind();
    assert!(kinds.get("napi_enter").copied().unwrap_or(0) > 0);
    assert!(kinds.get("napi_complete").copied().unwrap_or(0) > 0);
    assert!(kinds.get("early_drop").copied().unwrap_or(0) > 0);
    let json = chrome_trace_json(&sys.machine.trace);
    assert!(json.contains("\"name\": \"poll_mode\", \"ph\": \"X\""));
    assert!(json.contains("\"name\": \"early_drop\", \"ph\": \"i\""));
    assert!(json.contains("\"name\": \"drr_grant\", \"ph\": \"i\""));
}

#[test]
fn registry_deltas_reconstruct_a_measurement_window() {
    // Two snapshots bracketing the drive: the delta alone carries the
    // delivered counts and drop totals the accessors report.
    let mut sys = System::build_with(Config::TwinDrivers, &overload_opts(true)).unwrap();
    sys.add_guest(MacAddr::for_guest(2)).unwrap();
    let m0 = sys.metrics();
    drive(&mut sys);
    let d = sys.metrics().delta_since(&m0);
    assert_eq!(d.counter("guest1.delivered"), sys.delivered_rx() as u64);
    assert_eq!(
        d.counter("guest2.delivered"),
        sys.delivered_rx_for(DomId(2)) as u64
    );
    let delivered = d.counter("guest1.delivered") + d.counter("guest2.delivered");
    let early = d.counter("guest1.early_drops") + d.counter("guest2.early_drops");
    assert_eq!(early, sys.machine.meter.event(Event::EarlyDrop));
    let rx_total: u64 = (0..2)
        .map(|i| d.counter(&format!("nic{i}.rx_packets")))
        .sum();
    assert!(rx_total >= delivered);
    assert!(d.counter("clock.now_cycles") > 0);
    // Poll-mode residency is visible and bounded by the window span.
    let poll: u64 = (0..2)
        .map(|i| d.counter(&format!("nic{i}.poll_cycles")))
        .sum();
    assert!(poll > 0, "the flood must enter poll mode");
    assert!(poll <= 2 * d.counter("clock.now_cycles"));
}

#[test]
fn recorder_capacity_shrink_is_safe_mid_stream() {
    let mut rec = FlightRecorder::with_capacity(8);
    rec.set_enabled(true);
    for i in 0..8u64 {
        rec.record(i * 10, "dom0", TraceEvent::TimerFire { data: i });
    }
    rec.set_capacity(3);
    assert_eq!(rec.len(), 3);
    let first = rec.records().next().unwrap().clone();
    assert_eq!(first.event, TraceEvent::TimerFire { data: 5 });
    assert_eq!(rec.dropped(), 5);
}

/// The one-vocabulary law over one run: the recorder neither overflowed
/// nor was cleared, and every recorded kind the pairing table gives a
/// row was recorded exactly as often as the meter counted that row.
/// Returns the rows reached, by kind.
fn assert_one_vocabulary(sys: &System, scenario: &str) -> BTreeMap<&'static str, Event> {
    let rec = &sys.machine.trace;
    assert_eq!(rec.dropped(), 0, "{scenario}: the ring overflowed");
    assert_eq!(
        rec.len() as u64,
        rec.recorded(),
        "{scenario}: the ring was cleared"
    );
    let rows: BTreeMap<&'static str, Event> = rec
        .records()
        .filter_map(|r| Some((r.event.kind(), cost::row(&r.event)?)))
        .collect();
    let kinds = rec.counts_by_kind();
    for (kind, e) in &rows {
        let (traced, counted) = (kinds[kind], sys.machine.meter.event(*e));
        assert_eq!(
            traced,
            counted,
            "{scenario}: {kind} trace {traced} != {} event {counted}",
            e.name()
        );
    }
    rows
}

/// `tests/registry.rs`'s composition: four NICs, zero-copy, deferred
/// upcalls with a flush deadline, NAPI and the ITR auto-tuner, driven
/// both ways and idled past the deadline.
fn composed_run() -> System {
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
fn churn_run() -> System {
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
fn affinity_run() -> System {
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
fn aborted_poll_run() -> System {
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
fn overload_run() -> System {
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

/// Regression: an aborted NAPI poll pass was counted before the driver
/// call and traced only if the call returned, so each abort left
/// `napi_poll` one trace record short of its count.
#[test]
fn an_aborted_poll_pass_is_counted_and_traced_once() {
    let sys = aborted_poll_run();
    let rows = assert_one_vocabulary(&sys, "aborted poll");
    assert_eq!(rows.get("napi_poll"), Some(&Event::NapiPoll));
    // The pass is noted after the abort's accounting, having reaped
    // nothing.
    let events: Vec<&TraceEvent> = sys.machine.trace.records().map(|r| &r.event).collect();
    let accounted = events
        .iter()
        .position(|e| matches!(e, TraceEvent::InflightAccounted { .. }))
        .expect("the abort is accounted");
    assert_eq!(
        events[accounted + 1],
        &TraceEvent::NapiPoll { dev: 0, reaped: 0 }
    );
}

/// The law over five scenarios that together reach every paired row,
/// each onto a row of its own.
#[test]
fn every_paired_kind_is_recorded_as_often_as_its_row_is_counted() {
    let mut reached = BTreeMap::new();
    for (scenario, run) in [
        ("composed", composed_run as fn() -> System),
        ("churn", churn_run),
        ("overload", overload_run),
        ("affinity", affinity_run),
        ("aborted poll", aborted_poll_run),
    ] {
        reached.extend(assert_one_vocabulary(&run(), scenario));
    }
    let rows: BTreeSet<Event> = reached.values().copied().collect();
    assert_eq!(
        (reached.len(), rows.len()),
        (20, 20),
        "every pair reached, onto distinct rows: {reached:?}"
    );
}
