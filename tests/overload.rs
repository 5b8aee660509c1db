//! The overload-control subsystem end to end: NAPI-style poll-mode
//! precedence over the ITR moderation latch, loss-free and order-safe
//! mode switches, DRR weight proportionality, early drop at admission,
//! and cycle-identity of the off-knob defaults.

use twin_net::{Frame, MacAddr};
use twindrivers::machine::Event;
use twindrivers::{peer_mac, Config, Itr, ShardPolicy, System, SystemOptions};

fn mk(dst: MacAddr, flow: u32, seq: u64) -> Frame {
    Frame::data(dst, peer_mac(), flow, seq)
}

#[test]
fn poll_mode_takes_precedence_over_the_moderation_latch() {
    // A NAPI system with a long ITR window: the first arrival's
    // interrupt acks-and-masks into poll mode, and while the device is
    // polled the moderation latch never engages — subsequent arrivals
    // are absorbed by the masked ring, not deferred behind the window.
    // Only after the poll pass re-arms does the ITR latch take over
    // again, and the moderated delivery (PR 4's latched cause + PR 5's
    // gated-wait bookkeeping) composes with a fresh poll-mode entry.
    let opts = SystemOptions {
        num_nics: 1,
        itr: Itr::Fixed(1500), // 1.152M-cycle windows
        napi_weight: 8,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let g1 = sys.guest().unwrap();
    let mac = MacAddr::for_guest(1);

    // Arrival 1: interrupt allowed (window unanchored) → poll mode.
    let a: Vec<Frame> = (0..4).map(|s| mk(mac, 9, s)).collect();
    let now = sys.now_cycles();
    sys.rx_open_loop_arrival(&a, now).unwrap();
    assert!(sys.in_poll_mode(0), "first irq enters poll mode");
    assert!(sys.world.nics[0].rx_irq_masked(), "IMC masked the device");
    assert_eq!(sys.machine.meter.event(Event::NapiEnter), 1);

    // Arrival 2, window closed: poll mode wins over the latch — the
    // frames land in the masked ring and nothing is moderated.
    let b: Vec<Frame> = (4..8).map(|s| mk(mac, 9, s)).collect();
    let now = sys.now_cycles();
    sys.rx_open_loop_arrival(&b, now).unwrap();
    assert_eq!(
        sys.machine.meter.event(Event::IrqModerated),
        0,
        "the latch must not engage while the device is polled"
    );

    // Service: budgeted passes drain both arrivals, then re-arm.
    let until = sys.now_cycles() + 600_000;
    sys.rx_open_loop_service(until).unwrap();
    assert_eq!(sys.delivered_rx(), 8);
    assert!(!sys.in_poll_mode(0), "drained below weight re-arms");
    assert!(!sys.world.nics[0].rx_irq_masked());
    assert_eq!(sys.machine.meter.event(Event::NapiExit), 1);

    // Arrival 3, still inside the ITR window, poll mode off: now the
    // moderation latch governs again.
    let c: Vec<Frame> = (8..12).map(|s| mk(mac, 9, s)).collect();
    let now = sys.now_cycles();
    sys.rx_open_loop_arrival(&c, now).unwrap();
    assert!(sys.machine.meter.event(Event::IrqModerated) >= 1);
    assert_eq!(sys.delivered_rx(), 8, "latched, not delivered");

    // The window opens: the moderated delivery is an ack-and-mask on a
    // NAPI system — a second poll-mode episode, then everything is out.
    sys.drain_moderated().unwrap();
    assert_eq!(sys.delivered_rx(), 12);
    assert_eq!(sys.machine.meter.event(Event::NapiEnter), 2);
    assert_eq!(sys.machine.meter.event(Event::NapiExit), 2);
    assert!(!sys.in_poll_mode(0));

    // Nothing lost, nothing reordered across the four mode switches.
    let o = sys.outcome();
    assert_eq!(o.total("nic", "rx_missed"), 0);
    let seqs: Vec<u64> = o.delivered(g1).iter().map(|f| f.seq).collect();
    assert_eq!(seqs, (0..12).collect::<Vec<u64>>());
}

#[test]
fn napi_absorbs_a_burst_larger_than_the_ring_without_loss() {
    // PR 4's packets-waiting override kept a wedged moderated ring
    // alive by forcing the latched interrupt; in poll mode there is no
    // interrupt to force — the closed-loop accept path must instead
    // keep polling between ring refills. A burst larger than the
    // 127-descriptor ring drains completely, in order.
    let opts = SystemOptions {
        num_nics: 1,
        napi_weight: 8,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let g1 = sys.guest().unwrap();
    let frames: Vec<Frame> = (0..150).map(|s| mk(MacAddr::for_guest(1), 3, s)).collect();
    // (rx_missed counts each wire re-offer of the over-ring tail; what
    // matters here is that every frame ultimately lands, in order.)
    assert_eq!(sys.receive_burst(&frames).unwrap(), 150);
    assert_eq!(sys.delivered_rx(), 150);
    let seqs: Vec<u64> = sys.outcome().delivered(g1).iter().map(|f| f.seq).collect();
    assert_eq!(seqs, (0..150).collect::<Vec<u64>>());
}

/// An uncapped open loop whose backlog outgrows the ring: arrivals come
/// faster than the consumer gets a gap, so the reaped frames pile up in
/// the demux queue, four rings deep. Every frame that reaches the guest
/// has exactly one latency sample — the longest waits included.
#[test]
fn every_frame_delivered_past_the_rings_has_one_latency_sample() {
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    let ring = sys.world.nics[0].rx_ring_len() as usize;
    let open = sys.now_cycles();
    let mut seq = 0u64;
    for k in 0..8u64 {
        let frames: Vec<Frame> = (0..64)
            .map(|_| {
                seq += 1;
                mk(MacAddr::for_guest(1), 5, seq)
            })
            .collect();
        let due = open + k * 1_000;
        sys.rx_open_loop_service(due).unwrap();
        assert_eq!(sys.rx_open_loop_arrival(&frames, due).unwrap(), 64);
    }
    assert!(sys.rx_backlog() > 2 * ring, "{}", sys.rx_backlog());
    sys.rx_open_loop_service(open + 100_000_000).unwrap();
    assert_eq!(sys.delivered_rx(), 512);
    assert_eq!(sys.rx_latency_samples().len(), 512);
}

#[test]
fn mode_switches_under_churn_never_drop_or_reorder() {
    // Six rounds of multi-guest, multi-flow traffic over FlowHash
    // sharding with both overload knobs live (NAPI weight + long ITR
    // windows) and idle gaps that let devices oscillate between poll
    // mode, moderation and re-armed interrupts: every frame arrives,
    // every (guest, flow) subsequence stays ordered.
    let opts = SystemOptions {
        num_nics: 4,
        shard: ShardPolicy::FlowHash,
        itr: Itr::Fixed(1500),
        napi_weight: 4,
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
                let f = mk(macs[guest], 20 + flow, seqs[flow as usize]);
                seqs[flow as usize] += 1;
                f
            })
            .collect();
        assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
        sys.run_idle(60_000).unwrap();
    }
    assert!(
        sys.machine.meter.event(Event::NapiEnter) > 0,
        "poll mode was actually exercised"
    );
    sys.drain_moderated().unwrap();

    let o = sys.outcome();
    assert_eq!(
        o.total("nic", "rx_missed"),
        0,
        "overload control must not drop here"
    );
    assert_eq!(o.total("guest", "queue_drops"), 0);
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
fn drr_weights_split_a_contended_flush_in_proportion() {
    // Two backlogged guests at weights 3:1 with quantum 4: each flush
    // round grants 12 frames to the heavy guest and 4 to the light one,
    // until a queue empties and its deficit resets.
    let opts = SystemOptions {
        num_nics: 1,
        rx_flush_quantum: 4,
        guest_weights: vec![(2, 3)],
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mac2 = MacAddr::for_guest(2);
    let mac3 = MacAddr::for_guest(3);
    let g2 = sys.add_guest(mac2).unwrap();
    let g3 = sys.add_guest(mac3).unwrap();
    let mut frames = Vec::new();
    for s in 0..24 {
        frames.push(mk(mac2, 40, s));
        frames.push(mk(mac3, 41, s));
    }
    let now = sys.now_cycles();
    sys.rx_open_loop_arrival(&frames, now).unwrap();

    // Round 1: 12 + 4.
    assert_eq!(sys.flush_rx_round().unwrap(), 16);
    let grants: Vec<(u32, usize)> = sys.rx_flush_log.iter().map(|&(_, g, n)| (g.0, n)).collect();
    assert_eq!(grants, vec![(g2.0, 12), (g3.0, 4)]);

    // Round 2 empties the heavy queue (deficit resets on empty).
    assert_eq!(sys.flush_rx_round().unwrap(), 16);
    assert_eq!(sys.delivered_rx_for(g2), 24);
    assert_eq!(sys.delivered_rx_for(g3), 8);

    // The light guest keeps its steady 4-frame grant to the end.
    assert_eq!(sys.flush_rx_round().unwrap(), 4);
    let grants: Vec<(u32, usize)> = sys.rx_flush_log.iter().map(|&(_, g, n)| (g.0, n)).collect();
    assert_eq!(grants, vec![(g3.0, 4)]);
    while sys.flush_rx_round().unwrap() > 0 {}
    assert_eq!(sys.delivered_rx_for(g3), 24, "nothing lost to weighting");
}

#[test]
fn early_drop_bounds_admission_and_is_accounted_per_guest() {
    // A 40-frame flood against a 16-frame backlog watermark: 16 admit,
    // 24 die at admission (before any ring or reap work), and the drops
    // are attributed to the flooded guest.
    let opts = SystemOptions {
        num_nics: 1,
        rx_backlog_watermark: Some(16),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let g1 = sys.guest().unwrap();
    let frames: Vec<Frame> = (0..40).map(|s| mk(MacAddr::for_guest(1), 7, s)).collect();
    let now = sys.now_cycles();
    sys.rx_open_loop_arrival(&frames, now).unwrap();
    let early = sys.metrics().counter(&format!("guest{}.early_drops", g1.0));
    assert_eq!(early, 24);
    assert_eq!(sys.machine.meter.event(Event::EarlyDrop), 24);
    let until = sys.now_cycles() + 1_000_000;
    sys.rx_open_loop_service(until).unwrap();
    assert_eq!(sys.delivered_rx(), 16, "admitted frames all arrive");
    // The survivors kept their order.
    assert_eq!(sys.outcome().reorders(), 0);
}

#[test]
fn early_drops_surface_in_aggregate_throughput() {
    // The closed-loop aggregate harness reports admission drops per
    // guest: bursts of 32 against a 24-frame watermark shed 8 per burst
    // into the flooded guest's early_drops bucket.
    let opts = SystemOptions {
        num_nics: 1,
        rx_backlog_watermark: Some(24),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let a = twindrivers::measure_aggregate_throughput(&mut sys, 32, 64).unwrap();
    let dropped = a.early_drops.get(&1).copied().unwrap_or(0);
    assert!(dropped > 0, "watermark drops surface in the aggregate");
    assert_eq!(a.early_drops.len(), 1, "only the flooded guest");
}

#[test]
fn off_knob_runtime_is_cycle_identical_to_defaults() {
    // Explicit unit weights, a never-binding queue cap and zeroed NAPI
    // weight must be indistinguishable — to the cycle — from a default
    // build over the same multi-guest traffic.
    let run = |explicit: bool| {
        let opts = if explicit {
            SystemOptions {
                num_nics: 2,
                shard: ShardPolicy::FlowHash,
                napi_weight: 0,
                rx_backlog_watermark: None,
                rx_queue_cap: Some(1 << 20),
                guest_weights: vec![(1, 1), (2, 1), (3, 1)],
                ..SystemOptions::default()
            }
        } else {
            SystemOptions {
                num_nics: 2,
                shard: ShardPolicy::FlowHash,
                ..SystemOptions::default()
            }
        };
        let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
        let macs = [
            MacAddr::for_guest(1),
            MacAddr::for_guest(2),
            MacAddr::for_guest(3),
        ];
        sys.add_guest(macs[1]).unwrap();
        sys.add_guest(macs[2]).unwrap();
        let mut seq = 0u64;
        for _ in 0..8 {
            let frames: Vec<Frame> = (0..24u32)
                .map(|i| {
                    seq += 1;
                    mk(macs[(i % 3) as usize], 30 + i % 5, seq)
                })
                .collect();
            assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
        }
        (sys.now_cycles(), sys.delivered_rx())
    };
    let (default_cycles, default_delivered) = run(false);
    let (explicit_cycles, explicit_delivered) = run(true);
    assert_eq!(default_delivered, explicit_delivered);
    assert_eq!(
        default_cycles, explicit_cycles,
        "off knobs must be structurally free"
    );
}

/// Golden pin for the open-loop livelock harness, captured on the
/// parent of the evaluation-harness rewrite: the livelock sweep's
/// controlled build at 10× `flood_one_guest`, ten bursts at the
/// 64-packet budget's knee gap. Every field of the point is pinned.
#[test]
fn livelock_harness_point_is_pinned() {
    use twindrivers::measure::{measure_rx_livelock, LivelockPoint, OverloadProfile};
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
    sys.add_guest(MacAddr::for_guest(2)).unwrap();
    sys.add_guest(MacAddr::for_guest(3)).unwrap();
    let p = measure_rx_livelock(
        &mut sys,
        OverloadProfile::FloodOneGuest,
        100,
        32,
        10,
        338_182,
    )
    .unwrap();
    // Destructured so a new field cannot go unpinned.
    let LivelockPoint {
        nics,
        burst,
        profile,
        offered_x10,
        frames_offered,
        frames_delivered,
        goodput_mbps,
        rx_cycles_per_packet,
        early_drops,
        queue_drops,
        ring_drops,
        irqs,
        polls,
        victim_delivered,
        victim_p99,
    } = p;
    assert_eq!((nics, burst, offered_x10), (4, 32, 100));
    assert_eq!(profile, OverloadProfile::FloodOneGuest);
    assert_eq!((frames_offered, frames_delivered), (3200, 296));
    assert_eq!(goodput_mbps, 3230.7905210803647);
    assert_eq!(rx_cycles_per_packet, 11498.381756756755);
    assert_eq!((early_drops, queue_drops, ring_drops), (2480, 0, 313));
    assert_eq!((irqs, polls), (11, 47));
    assert_eq!((victim_delivered, victim_p99), (80, 278_110));
}
