//! The virtual-time engine end to end: ITR moderation (latched-pending
//! delivery, no regression when off, the latency/throughput acceptance
//! point) and the deadline-driven upcall flush on an idle system.

use twin_kernel::RoutineId;
use twin_net::{Frame, MacAddr};
use twindrivers::machine::{Event, Term};
use twindrivers::{
    measure_aggregate_throughput, peer_mac, Config, Itr, ShardPolicy, System, SystemOptions,
    UpcallMode,
};

#[test]
fn itr_zero_no_deadline_is_cycle_exact_with_the_shard_baseline() {
    // The virtual-time engine must be invisible when its knobs are off:
    // every point of the committed PR 2/PR 3 shard baseline reproduces
    // to the decimal with the clock, the timer wheel, the moderation
    // hooks and the deadline checks all in place (ITR 0, no deadline —
    // the defaults).
    let (header, points) = twin_bench::baseline("shard");
    let packets = header.num("packets").unwrap() as u64;
    assert_eq!(packets, 64, "baseline was generated at 64 packets/point");
    assert_eq!(points.len(), 12, "full shard baseline");
    for p in points {
        let num = |key| p.num(key).unwrap_or_else(|| panic!("{key} in {p:?}"));
        let (nics, burst) = (num("nics") as usize, num("burst") as usize);
        let (tx_cpp, rx_cpp) = (num("tx_cycles_per_packet"), num("rx_cycles_per_packet"));
        let opts = SystemOptions {
            num_nics: nics,
            shard: ShardPolicy::RoundRobin,
            ..SystemOptions::default()
        };
        let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
        let a = measure_aggregate_throughput(&mut sys, burst, packets).unwrap();
        // The baseline stores one decimal place; anything beyond rounding
        // error is a real cycle deviation.
        assert!(
            (a.tx_cycles_per_packet - tx_cpp).abs() <= 0.051,
            "nics {nics} burst {burst}: tx {:.1} vs baseline {tx_cpp:.1}",
            a.tx_cycles_per_packet
        );
        assert!(
            (a.rx_cycles_per_packet - rx_cpp).abs() <= 0.051,
            "nics {nics} burst {burst}: rx {:.1} vs baseline {rx_cpp:.1}",
            a.rx_cycles_per_packet
        );
        assert_eq!(sys.machine.meter.event(Event::IrqModerated), 0);
        assert_eq!(sys.machine.meter.payments(Term::UpcallFlushOverhead), 0);
    }
}

#[test]
fn moderation_latches_pending_work_and_never_drops_or_reorders() {
    // Random-ish traffic to three guests over six flows across four
    // FlowHash-sharded NICs, with every device's ITR window closed most
    // of the time: deliveries are delayed (latched), never lost, and
    // every (guest, flow) subsequence stays in order.
    let opts = SystemOptions {
        num_nics: 4,
        shard: ShardPolicy::FlowHash,
        itr: Itr::Fixed(1500), // 1.152M-cycle windows: most bursts land inside one
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let g1 = sys.guest().unwrap();
    let mac2 = MacAddr::for_guest(2);
    let mac3 = MacAddr::for_guest(3);
    let g2 = sys.add_guest(mac2).unwrap();
    let g3 = sys.add_guest(mac3).unwrap();
    let macs = [MacAddr::for_guest(1), mac2, mac3];

    let mut seqs = [0u64; 6];
    let mut injected = [0usize; 3];
    for round in 0..6u32 {
        let frames: Vec<Frame> = (0..24u32)
            .map(|i| {
                let flow = (round + i) % 6;
                let guest = (flow % 3) as usize;
                injected[guest] += 1;
                let f = Frame::data(macs[guest], peer_mac(), 20 + flow, seqs[flow as usize]);
                seqs[flow as usize] += 1;
                f
            })
            .collect();
        assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
        // A little idle between bursts; windows open on their own time.
        sys.run_idle(60_000).unwrap();
    }
    assert!(
        sys.machine.meter.event(Event::IrqModerated) > 0,
        "the windows actually gated deliveries"
    );
    // Open every window and deliver the latched tail.
    sys.drain_moderated().unwrap();

    let o = sys.outcome();
    assert_eq!(
        o.total("nic", "rx_missed"),
        0,
        "moderation must delay, never drop"
    );
    for (gi, (g, mac)) in [(g1, macs[0]), (g2, mac2), (g3, mac3)]
        .into_iter()
        .enumerate()
    {
        assert_eq!(o.delivered(g).len(), injected[gi], "guest {gi} count");
        assert!(
            o.delivered(g).iter().all(|f| f.dst == mac),
            "cross-delivery"
        );
    }
    assert_eq!(o.reorders(), 0, "a (guest, flow) subsequence reordered");
}

#[test]
fn moderation_acceptance_point_at_burst32_on_four_nics() {
    // The headline trade-off: some ITR > 0 cuts interrupts/packet at
    // least 4x against ITR 0 while p99 arrival-to-delivery latency stays
    // within 2x — under the same paced arrival process the
    // moderation_sweep bench uses.
    let measure = |itr: u32| {
        let opts = SystemOptions {
            num_nics: 4,
            shard: ShardPolicy::FlowHash,
            itr: Itr::Fixed(itr),
            ..SystemOptions::default()
        };
        let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
        sys.measure_rx_moderated(32, 384, 150_000).unwrap()
    };
    let base = measure(0);
    let moderated = measure(2000);
    let irq_reduction = base.irqs_per_packet / moderated.irqs_per_packet.max(1e-9);
    assert!(
        irq_reduction >= 4.0,
        "irqs/pkt only {irq_reduction:.2}x better ({:.3} vs {:.3})",
        base.irqs_per_packet,
        moderated.irqs_per_packet
    );
    let p99_ratio = moderated.latency.p99 as f64 / base.latency.p99.max(1) as f64;
    assert!(
        p99_ratio <= 2.0,
        "p99 blew past 2x: {} vs {} ({p99_ratio:.2}x)",
        moderated.latency.p99,
        base.latency.p99
    );
    // Both runs moved every frame.
    assert_eq!(base.packets, 384);
    assert_eq!(moderated.packets, 384);
    assert!(moderated.moderated_irqs > 0);
}

#[test]
fn idle_deadline_bounds_upcall_completion_latency() {
    // Queued deferred upcalls on an otherwise idle system: the deadline
    // timer armed at first enqueue must flush them, so p99
    // cycles-to-completion is bounded by deadline + flush overhead.
    const DEADLINE: u64 = 100_000;
    let opts = SystemOptions {
        upcall_mode: UpcallMode::Deferred,
        upcall_count: 9,
        upcall_flush_deadline_cycles: Some(DEADLINE),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    {
        let twindrivers::system::World {
            kernel, xen, hyper, ..
        } = &mut sys.world;
        let hs = hyper.as_mut().unwrap();
        hs.engine.clear_latency();
        let xen = xen.as_mut().unwrap();
        for i in 0..4u32 {
            hs.enqueue_upcall(
                RoutineId::lookup("dma_unmap_single").unwrap(),
                vec![0x1000 * i, 64],
                &mut sys.machine,
                kernel,
                xen,
            )
            .unwrap();
        }
        assert!(hs.engine.flush_due_at().is_some(), "deadline armed");
    }
    let flushes_before = sys.machine.meter.payments(Term::UpcallFlushOverhead);
    // No traffic, no burst-pass flush points: only the deadline fires.
    sys.run_idle(4 * DEADLINE).unwrap();
    let hs = sys.world.hyper.as_ref().unwrap();
    assert_eq!(hs.engine.depth(), 0, "deadline drained the ring");
    assert!(sys.machine.meter.payments(Term::UpcallFlushOverhead) > flushes_before);
    assert!(hs.engine.flush_due_at().is_none(), "disarmed after flush");
    let lat = sys.metrics().histogram("upcall_latency");
    assert_eq!(lat.count, 4);
    // Flush work for 4 entries: flush overhead + two switches + virq +
    // hypercall + per-entry dispatch/routine/complete — well under 20k.
    assert!(
        lat.p99 <= DEADLINE + 20_000,
        "p99 {} exceeds deadline {DEADLINE} + flush overhead",
        lat.p99
    );
    assert!(
        lat.p50 >= DEADLINE / 2,
        "p50 {} — the flush fired long before the deadline?",
        lat.p50
    );
}

#[test]
fn deadline_flush_runs_before_a_simultaneously_due_moderated_irq() {
    // Flush-before-IRQ ordering: when the upcall deadline and a
    // moderated delivery are both due at the same service point, the
    // queued upcalls drain first — the marker entry's completion latency
    // shows no receive-pass work in front of it.
    const DEADLINE: u64 = 200_000;
    let opts = SystemOptions {
        upcall_mode: UpcallMode::Deferred,
        upcall_count: 9,
        upcall_flush_deadline_cycles: Some(DEADLINE),
        itr: Itr::Fixed(500), // 384k-cycle windows
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    // First burst anchors device 0's moderation window…
    let mk = |seq: u64| Frame::data(MacAddr::for_guest(1), peer_mac(), 5, seq);
    sys.receive_burst(&[mk(0), mk(1)]).unwrap();
    // …and a 16-frame burst latches behind it: reaping it costs
    // hundreds of thousands of cycles, so running it ahead of the flush
    // would be unmistakable in the marker's latency.
    let latched: Vec<Frame> = (2..18).map(mk).collect();
    sys.receive_burst(&latched).unwrap();
    assert!(sys.machine.meter.event(Event::IrqModerated) > 0);
    // Arm the deadline with a marker upcall, then jump time past BOTH
    // events in one step so a single service call sees them together.
    {
        let twindrivers::system::World {
            kernel, xen, hyper, ..
        } = &mut sys.world;
        let hs = hyper.as_mut().unwrap();
        hs.engine.clear_latency();
        let xen = xen.as_mut().unwrap();
        hs.enqueue_upcall(
            RoutineId::lookup("dma_unmap_single").unwrap(),
            vec![0x40, 64],
            &mut sys.machine,
            kernel,
            xen,
        )
        .unwrap();
    }
    let horizon = sys.world.nics[0].itr_cycles().max(DEADLINE) + 1_000;
    sys.machine.meter.advance_idle(horizon);
    sys.service_virtual_timers(false).unwrap();
    // The marker completed; its latency is the idle jump plus flush
    // work only. Had the receive pass run first, its reap and demux
    // cycles (hundreds of thousands for 16 frames) would sit in front.
    let lat = sys.world.hyper.as_ref().unwrap().engine.latency_samples()[0];
    assert!(
        lat <= horizon + 20_000,
        "marker latency {lat} includes more than flush work (horizon {horizon})"
    );
    // And the moderated delivery did happen in the same service call.
    assert_eq!(sys.delivered_rx(), 18, "latched frames delivered");
}
