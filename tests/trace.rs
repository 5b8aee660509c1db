//! The flight recorder and metrics registry end to end: tracing is
//! *observation only* — a traced run charges exactly the cycles of an
//! untraced run — identical runs produce identical event streams, ring
//! overflow keeps the stream well-formed and is surfaced in the
//! registry, and the chrome exporter emits the episodes and instants
//! the sweep harness relies on. Counts and trace are one vocabulary:
//! each kind `twin_machine::cost::row` pairs with an `Event` row was
//! recorded exactly as often as the meter counted that row.

mod scenarios;

use scenarios::{aborted_poll_run, drive, mk, overload_opts, overload_run, RUNS};
use std::collections::{BTreeMap, BTreeSet};
use twin_machine::{cost, Event, Term};
use twin_net::{Frame, MacAddr};
use twin_trace::export::chrome_trace_json;
use twin_trace::{FlightRecorder, TraceEvent};
use twin_xen::DomId;
use twindrivers::{Config, Law, System, SystemOptions};

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

/// The kinds noted where one payment of a fixed-cost row is made, and
/// no other site pays it: each is counted by that row's payments, not by
/// an `Event` row.
const PAID: [(&str, Term); 7] = [
    ("grant_cache_hit", Term::GrantCacheHit),
    ("grant_cache_miss", Term::PinPage),
    ("irq_delivered", Term::IrqDispatch),
    ("napi_poll", Term::NapiPollDispatch),
    ("upcall_completion", Term::UpcallComplete),
    ("upcall_enqueue", Term::UpcallEnqueue),
    ("upcall_flush", Term::UpcallFlushOverhead),
];

/// What one run's law check reached.
#[derive(Debug, Default)]
struct Reached {
    /// Paired kinds recorded, with their rows.
    rows: BTreeMap<&'static str, Event>,
    /// Paid kinds recorded.
    paid: BTreeSet<&'static str>,
    /// Paired kinds recorded whose events name a domain.
    split: BTreeSet<&'static str>,
}

impl Reached {
    fn extend(&mut self, other: Reached) {
        self.rows.extend(other.rows);
        self.paid.extend(other.paid);
        self.split.extend(other.split);
    }
}

/// The one-vocabulary law over one run: the recorder neither overflowed
/// nor was cleared; every recorded kind the pairing table gives a row
/// was recorded exactly as often as the meter counted that row, and, for
/// the kinds that name a domain, as often per domain as the row's count
/// for that domain; and every paid kind was recorded exactly as often as
/// its row was paid.
fn assert_one_vocabulary(sys: &System, scenario: &str) -> Reached {
    let (rec, meter) = (&sys.machine.trace, &sys.machine.meter);
    assert_eq!(rec.dropped(), 0, "{scenario}: the ring overflowed");
    assert_eq!(
        rec.len() as u64,
        rec.recorded(),
        "{scenario}: the ring was cleared"
    );
    let mut reached = Reached::default();
    let mut per_domain: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for r in rec.records() {
        let Some(e) = cost::row(&r.event) else {
            continue;
        };
        let kind = r.event.kind();
        reached.rows.insert(kind, e);
        if let Some(dom) = r.event.domain() {
            reached.split.insert(kind);
            *per_domain.entry((kind, dom)).or_default() += 1;
        }
    }
    let kinds = rec.counts_by_kind();
    for (kind, e) in &reached.rows {
        let (traced, counted) = (kinds[kind], meter.event(*e));
        assert_eq!(
            traced,
            counted,
            "{scenario}: {kind} trace {traced} != {} event {counted}",
            e.name()
        );
    }
    for ((kind, dom), traced) in per_domain {
        let e = reached.rows[kind];
        let counted = meter.event_for(e, dom);
        assert_eq!(
            traced,
            counted,
            "{scenario}: {kind} of domain {dom} trace {traced} != {} event {counted}",
            e.name()
        );
    }
    for (kind, t) in PAID {
        let traced = kinds.get(kind).copied().unwrap_or(0);
        let paid = meter.payments(t);
        assert_eq!(
            traced,
            paid,
            "{scenario}: {kind} trace {traced} != {} payments {paid}",
            t.name()
        );
        if traced > 0 {
            reached.paid.insert(kind);
        }
    }
    reached
}

/// Regression: an aborted NAPI poll pass was counted before the driver
/// call and traced only if the call returned, so each abort left
/// `napi_poll` one trace record short of its count.
#[test]
fn an_aborted_poll_pass_is_counted_and_traced_once() {
    let sys = aborted_poll_run();
    let reached = assert_one_vocabulary(&sys, "aborted_poll");
    assert!(reached.paid.contains("napi_poll"));
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

/// A traced receive on `config` with two guests, one frame in five
/// addressed to a MAC no guest owns: the hypervisor's demux drops it on
/// `TwinDrivers`, the bridged forward on `XenGuest`.
fn demux_miss_run(config: Config) -> System {
    let opts = SystemOptions {
        tracing: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(config, &opts).unwrap();
    sys.add_guest(MacAddr::for_guest(2)).unwrap();
    let frames: Vec<Frame> = (0..10u64)
        .map(|s| mk(MacAddr::for_guest([1, 2, 1, 2, 77][s as usize % 5]), 3, s))
        .collect();
    sys.receive_burst(&frames).unwrap();
    sys
}

/// The law over the five scenarios plus a demux miss on both paths that
/// drop one: together they reach every paired row but `malformed`
/// (which `NETIF_RX`'s unit tests reach), each onto a row of its own,
/// every paid kind, and every paired kind that names a domain on the
/// domain it names.
#[test]
fn every_paired_kind_is_recorded_as_often_as_its_row_is_counted() {
    let mut reached = Reached::default();
    for (scenario, run) in RUNS {
        reached.extend(assert_one_vocabulary(&run(), scenario));
    }
    for config in [Config::TwinDrivers, Config::XenGuest] {
        let sys = demux_miss_run(config);
        let misses = sys
            .machine
            .trace
            .counts_by_kind()
            .get("demux_miss")
            .copied();
        assert_eq!(misses, Some(2), "{config}: the two unowned frames");
        reached.extend(assert_one_vocabulary(
            &sys,
            &format!("demux_miss on {config}"),
        ));
    }
    let rows: BTreeSet<Event> = reached.rows.values().copied().collect();
    assert_eq!(
        (reached.rows.len(), rows.len()),
        (15, 15),
        "every pair reached, onto distinct rows: {reached:?}"
    );
    assert_eq!(
        reached.paid.len(),
        PAID.len(),
        "every paid kind: {reached:?}"
    );
    let split = [
        "affinity_place",
        "early_drop",
        "grant_cache_evict",
        "queue_cap_drop",
        "vcpu_run",
        "vcpu_sleep",
    ];
    assert_eq!(reached.split, BTreeSet::from(split));
}

/// An admission drop is one payment of its row, and the meter counts it
/// once more, per guest, as its `Event` row: the two agree.
#[test]
fn an_early_drop_is_one_payment_of_its_row() {
    let sys = overload_run();
    let meter = &sys.machine.meter;
    assert!(meter.event(Event::EarlyDrop) > 0, "the flood sheds");
    assert_eq!(
        meter.payments(Term::EarlyDrop),
        meter.event(Event::EarlyDrop)
    );
}
