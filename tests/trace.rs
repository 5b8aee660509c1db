//! The flight recorder and metrics registry end to end: tracing is
//! *observation only* — a traced run charges exactly the cycles of an
//! untraced run — identical runs produce identical event streams, ring
//! overflow keeps the stream well-formed and is surfaced in the
//! registry, and the chrome exporter emits the episodes and instants
//! the sweep harness relies on.

use twin_machine::CostDomain;
use twin_net::{EtherType, Frame, MacAddr, MTU};
use twin_trace::export::chrome_trace_json;
use twin_trace::{FlightRecorder, TraceEvent};
use twin_xen::DomId;
use twindrivers::{peer_mac, Config, ShardPolicy, System, SystemOptions};

fn mk(dst: MacAddr, flow: u32, seq: u64) -> Frame {
    Frame {
        dst,
        src: peer_mac(),
        ethertype: EtherType::Ipv4,
        payload_len: MTU,
        flow,
        seq,
    }
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
    // The whole point of the design: a traced run is *bit-exact* with an
    // untraced run everywhere that counts — per-domain cycles, named
    // meter events, device stats, deliveries, drops.
    let run = |tracing: bool| {
        let mut sys = System::build_with(Config::TwinDrivers, &overload_opts(tracing)).unwrap();
        sys.add_guest(MacAddr::for_guest(2)).unwrap();
        let delivered = drive(&mut sys);
        (delivered, sys)
    };
    let (d_on, on) = run(true);
    let (d_off, off) = run(false);
    assert!(!on.machine.trace.is_empty());
    assert_eq!(off.machine.trace.len(), 0, "untraced run records nothing");
    assert_eq!(d_on, d_off);
    assert_eq!(on.machine.meter.now(), off.machine.meter.now());
    for d in CostDomain::ALL {
        assert_eq!(on.machine.meter.cycles(d), off.machine.meter.cycles(d));
    }
    assert!(on.machine.meter.events().eq(off.machine.meter.events()));
    for (na, nb) in on.world.nics.iter().zip(off.world.nics.iter()) {
        assert_eq!(na.stats(), nb.stats());
    }
    // The unified registry agrees too, once the recorder's own counters
    // (the only legitimate difference) are set aside.
    let strip = |sys: &System| {
        let mut m = sys.metrics();
        m.set("trace.events_recorded", 0);
        m.set("trace.events_dropped", 0);
        m.to_json()
    };
    assert_eq!(strip(&on), strip(&off));
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
    assert_eq!(early, sys.rx_early_drops());
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
