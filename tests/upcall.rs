//! The deferred-upcall engine, end to end: mode equivalence, completion
//! ordering, queue-overflow forced flushes, latency percentiles and the
//! headline amortization (two switches per *flush* instead of per
//! *call*).

use twin_kernel::RoutineId;
use twindrivers::machine::{Event, Term};
use twindrivers::{throughput, Config, Law, System, SystemOptions, UpcallMode, TESTBED_NICS};

fn build(mode: UpcallMode, upcalls: usize) -> System {
    let opts = SystemOptions {
        upcall_count: upcalls,
        upcall_mode: mode,
        ..SystemOptions::default()
    };
    System::build_with(Config::TwinDrivers, &opts).expect("build")
}

#[test]
fn sync_is_the_default_and_deferred_idles_without_forced_upcalls() {
    // With no routines forced onto the upcall path the engine never
    // engages: a deferred-mode system is cycle-for-cycle identical to
    // the default sync build.
    let mut sync = build(UpcallMode::Sync, 0);
    let bs = sync.measure_tx(40).expect("sync measure");
    let mut defer = build(UpcallMode::Deferred, 0);
    let bd = defer.measure_tx(40).expect("deferred measure");
    assert_eq!(bs.per_domain, bd.per_domain, "cycle-exact with engine off");
    let (sync, defer) = (sync.outcome(), defer.outcome());
    sync.check(&defer, Law::BitExact).unwrap();
    assert_eq!(defer.metrics.counter("event.upcall_flush"), 0);
    assert_eq!(defer.metrics.counter("event.upcall_enqueue"), 0);
    // And the default options really are sync mode.
    assert_eq!(SystemOptions::default().upcall_mode, UpcallMode::Sync);
}

#[test]
fn deferred_traffic_is_equivalent_to_sync_at_full_forcing() {
    // All nine forceable routines on the upcall path: the deferred
    // engine must move exactly the same traffic as the synchronous path
    // (`Law::SameTraffic`, pool counts included: every deferred free
    // executed).
    let mut sync = build(UpcallMode::Sync, 9);
    let mut defer = build(UpcallMode::Deferred, 9);
    for sys in [&mut sync, &mut defer] {
        for burst in [1usize, 8, 32, 5] {
            assert_eq!(sys.transmit_burst(burst).unwrap(), burst);
        }
        for _ in 0..12 {
            sys.receive_one().unwrap();
        }
    }
    // The deferred run actually deferred, and the ring is empty at the
    // end of every pass.
    assert_eq!(defer.world.hyper.as_ref().unwrap().engine.depth(), 0);
    let (sync, defer) = (sync.outcome(), defer.outcome());
    sync.check(&defer, Law::SameTraffic).unwrap();
    assert!(defer.metrics.counter("event.upcall_flush") > 0);
}

#[test]
fn deferred_amortizes_switches_per_flush_not_per_call() {
    // Acceptance: at 4+ forced upcalls and burst 32, the deferred
    // engine sustains at least 3x the synchronous throughput.
    let mut sync = build(UpcallMode::Sync, 4);
    let ts = sync.measure_tx_burst(32, 64).expect("sync sweep");
    let mbps_sync = throughput(ts.breakdown.total(), TESTBED_NICS).mbps;
    let mut defer = build(UpcallMode::Deferred, 4);
    let td = defer.measure_tx_burst(32, 64).expect("deferred sweep");
    let mbps_defer = throughput(td.breakdown.total(), TESTBED_NICS).mbps;
    assert!(
        mbps_defer >= 3.0 * mbps_sync,
        "deferred {mbps_defer:.0} Mb/s vs sync {mbps_sync:.0} Mb/s (needs >= 3x)"
    );
    // The mechanism behind the number: switches collapse from two per
    // upcall to two per flush.
    let sync_switches = sync.machine.meter.payments(Term::DomainSwitch);
    let defer_switches = defer.machine.meter.payments(Term::DomainSwitch);
    assert!(
        defer_switches * 4 < sync_switches,
        "switches {defer_switches} vs {sync_switches}"
    );
    assert!(defer.machine.meter.payments(Term::UpcallFlushOverhead) > 0);
}

#[test]
fn completions_of_the_same_routine_stay_fifo() {
    let mut sys = build(UpcallMode::Deferred, 9);
    // Drive a burst so the driver's own frees/unmaps queue and flush.
    assert_eq!(sys.transmit_burst(16).unwrap(), 16);
    assert_eq!(sys.transmit_burst(16).unwrap(), 16);
    assert!(sys.machine.meter.payments(Term::UpcallComplete) > 0);
    // Enqueue several calls of one routine directly and flush once:
    // completions must come back in enqueue order (FIFO), matched by
    // monotonically increasing continuation ids.
    let (ids, completions) = {
        let twindrivers::system::World {
            kernel, xen, hyper, ..
        } = &mut sys.world;
        let hs = hyper.as_mut().unwrap();
        let xen = xen.as_mut().unwrap();
        let ids: Vec<u64> = (0..5u32)
            .map(|i| {
                hs.enqueue_upcall(
                    RoutineId::lookup("dma_unmap_single").unwrap(),
                    vec![0x1000 + i, 64],
                    &mut sys.machine,
                    kernel,
                    xen,
                )
                .unwrap()
            })
            .collect();
        hs.flush_upcalls(
            &mut sys.machine,
            kernel,
            xen,
            twin_trace::FlushCause::BurstEnd,
        )
        .unwrap();
        let completions: Vec<_> = ids
            .iter()
            .map(|id| hs.engine.take_completion(*id).unwrap())
            .collect();
        (ids, completions)
    };
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "monotonic cont ids");
    for (i, c) in completions.iter().enumerate() {
        assert_eq!(c.routine.name(), "dma_unmap_single");
        assert_eq!(c.cont_id, ids[i], "completion order matches enqueue");
    }
}

#[test]
fn queue_overflow_forces_a_flush_and_loses_nothing() {
    let mut sys = build(UpcallMode::Deferred, 9);
    sys.world.hyper.as_mut().unwrap().engine.set_capacity(8);
    // A burst of 32 queues far more than 8 deferred calls (frees, maps,
    // unmaps, unlock), so the tiny ring must force intermediate flushes
    // — and still deliver every frame.
    assert_eq!(sys.transmit_burst(32).unwrap(), 32);
    assert_eq!(sys.take_wire_frames().len(), 32);
    let meter = &sys.machine.meter;
    assert!(
        meter.event(Event::UpcallForcedFlush) > 0,
        "capacity 8 must overflow on a 32-burst"
    );
    let hs = sys.world.hyper.as_ref().unwrap();
    assert!(
        hs.engine.stats.max_depth <= 8,
        "ring never exceeds capacity"
    );
    assert_eq!(hs.engine.depth(), 0, "end-of-pass flush drains the rest");
    assert_eq!(
        meter.payments(Term::UpcallComplete),
        meter.payments(Term::UpcallEnqueue),
        "every queued upcall completed"
    );
}

#[test]
fn deferral_keeps_tail_latency_bounded_and_measured() {
    // Sync latency: every upcall completes within its own switch-pair.
    let mut sync = build(UpcallMode::Sync, 4);
    sync.measure_tx_burst(32, 64).expect("sync");
    let ls = sync.metrics().histogram("upcall_latency");
    assert!(ls.count > 0);
    let m = &sync.machine;
    assert!(
        ls.p50 >= 2 * m.cost[Term::DomainSwitch],
        "sync upcalls pay their switches ({} cyc)",
        ls.p50
    );
    // Deferred: completion waits for the flush, so p99 grows — but must
    // stay bounded by roughly one burst pass of work, not diverge.
    let mut defer = build(UpcallMode::Deferred, 4);
    defer.measure_tx_burst(32, 64).expect("deferred");
    let ld = defer.metrics().histogram("upcall_latency");
    assert!(ld.count > 0);
    assert!(ld.p50 <= ld.p99 && ld.p99 <= ld.max);
    assert!(
        ld.p99 > ls.p99,
        "deferral trades completion latency ({} vs {}) for throughput",
        ld.p99,
        ls.p99
    );
    let pass_budget = 32 * 25_000;
    assert!(
        ld.p99 < pass_budget,
        "deferred p99 {} must stay under one pass of work {}",
        ld.p99,
        pass_budget
    );
}

#[test]
fn polled_rx_flushes_deferred_upcalls() {
    let opts = SystemOptions {
        upcall_count: 9,
        upcall_mode: UpcallMode::Deferred,
        napi_weight: 16,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).expect("build");
    // The arrival's interrupt only acks and masks; the consumer's
    // budgeted poll pass reaps, the reap queues unmaps/frees/allocs, and
    // the end of the polled pass must flush them.
    let frames: Vec<_> = (0..8)
        .map(|i| twin_net::Frame {
            dst: twin_net::MacAddr::for_guest(1),
            src: twindrivers::peer_mac(),
            ethertype: twin_net::EtherType::Ipv4,
            payload_len: twin_net::MTU,
            flow: 3,
            seq: i,
        })
        .collect();
    let now = sys.now_cycles();
    assert_eq!(sys.rx_open_loop_arrival(&frames, now).unwrap(), 8);
    assert_eq!(sys.delivered_rx(), 0, "nothing reaped at the interrupt");
    sys.rx_open_loop_service(now + 1_000_000).unwrap();
    assert_eq!(
        sys.machine.meter.payments(Term::NapiPollDispatch),
        1,
        "one polled pass"
    );
    assert_eq!(sys.delivered_rx(), 8);
    let hs = sys.world.hyper.as_ref().unwrap();
    assert_eq!(hs.engine.depth(), 0, "polled pass drained the ring");
    assert!(sys.machine.meter.payments(Term::UpcallFlushOverhead) > 0);
}
