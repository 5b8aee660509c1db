//! The multi-NIC sharded datapath's correctness and scaling contract:
//!
//! * **degenerate equivalence** — sharding over one NIC is cycle-exact
//!   with the single-NIC burst pipeline (PR 1's path), for every policy;
//! * **per-flow ordering** — under [`ShardPolicy::FlowHash`] a flow is
//!   pinned to one NIC, so per-guest per-flow frame order survives any
//!   interleaving across four NICs;
//! * **spreading** — [`ShardPolicy::RoundRobin`] actually exercises every
//!   device, with per-device rings, interrupts and adapter slots;
//! * **aggregate scaling** — the acceptance criterion: RX+TX aggregate
//!   throughput scales ≥ 3× from one to four NICs at burst 32;
//! * **fairness** — the per-guest flush quantum bounds how long a
//!   flooding guest can delay other guests' virtual interrupts.

use twin_machine::{Event, Term};
use twin_net::{Frame, MacAddr};
use twindrivers::{
    measure_aggregate_throughput, peer_mac, Config, Law, ShardPolicy, System, SystemOptions,
};

fn sharded_system(config: Config, nics: usize, shard: ShardPolicy) -> System {
    let opts = SystemOptions {
        num_nics: nics,
        shard,
        ..SystemOptions::default()
    };
    System::build_with(config, &opts).unwrap()
}

fn rx_frame(dst: MacAddr, flow: u32, seq: u64) -> Frame {
    Frame::data(dst, peer_mac(), flow, seq)
}

#[test]
fn sharding_over_one_nic_is_cycle_exact_with_the_burst_path() {
    // A 1-NIC sharded system is the degenerate case: bit-exact with the
    // default build, for every policy and both directions.
    for policy in [
        ShardPolicy::Static,
        ShardPolicy::RoundRobin,
        ShardPolicy::FlowHash,
    ] {
        for config in [Config::TwinDrivers, Config::NativeLinux] {
            let mut plain = System::build(config).unwrap();
            let mut sharded = sharded_system(config, 1, policy);
            for _ in 0..4 {
                assert_eq!(plain.transmit_burst(12).unwrap(), 12);
                assert_eq!(sharded.transmit_burst(12).unwrap(), 12);
            }
            let mac = match config {
                Config::XenGuest | Config::TwinDrivers => MacAddr::for_guest(1),
                _ => MacAddr::for_guest(0),
            };
            for i in 0..3u64 {
                let frames: Vec<Frame> = (0..8).map(|j| rx_frame(mac, 2, i * 8 + j)).collect();
                assert_eq!(plain.receive_burst(&frames).unwrap(), 8);
                assert_eq!(sharded.receive_burst(&frames).unwrap(), 8);
            }
            let verdict = plain.outcome().check(&sharded.outcome(), Law::BitExact);
            verdict.unwrap_or_else(|e| panic!("{config}/{policy:?}: 1-NIC path diverges: {e}"));
        }
    }
}

#[test]
fn flowhash_preserves_per_guest_flow_order_across_four_nics() {
    let mut sys = sharded_system(Config::TwinDrivers, 4, ShardPolicy::FlowHash);
    let g1 = sys.guest().unwrap();
    let mac2 = MacAddr::for_guest(2);
    let mac3 = MacAddr::for_guest(3);
    let g2 = sys.add_guest(mac2).unwrap();
    let g3 = sys.add_guest(mac3).unwrap();

    // Six flows spread over three guests, interleaved in one stream of
    // bursts; the hash sprays flows across the four NICs.
    let macs = [MacAddr::for_guest(1), mac2, mac3];
    let mut seqs = [0u64; 6];
    for burst in 0..6 {
        let mut frames = Vec::new();
        for i in 0..24u32 {
            let flow = (burst + i) % 6;
            let mac = macs[(flow % 3) as usize];
            frames.push(rx_frame(mac, 10 + flow, seqs[flow as usize]));
            seqs[flow as usize] += 1;
        }
        assert_eq!(sys.receive_burst(&frames).unwrap(), 24);
    }

    // Sharding actually used more than one device.
    let active = sys
        .world
        .nics
        .iter()
        .filter(|n| n.stats().rx_packets > 0)
        .count();
    assert!(active >= 2, "only {active} NICs saw traffic");

    let o = sys.outcome();
    let mut total = 0;
    for (g, mac) in [(g1, macs[0]), (g2, mac2), (g3, mac3)] {
        total += o.delivered(g).len();
        // No cross-delivery: every frame belongs to this guest.
        assert!(o.delivered(g).iter().all(|f| f.dst == mac));
    }
    // Per-flow subsequence order is strictly increasing.
    assert_eq!(o.reorders(), 0);
    assert_eq!(total, 6 * 24, "every frame delivered exactly once");
    assert_eq!(sys.machine.meter.event(Event::DemuxMiss), 0);
    assert_eq!(sys.machine.meter.payments(Term::DomainSwitch), 0);
}

#[test]
fn roundrobin_spreads_bursts_across_all_nics() {
    let mut sys = sharded_system(Config::TwinDrivers, 4, ShardPolicy::RoundRobin);
    // Eight bursts rotate over four devices: two bursts each.
    for _ in 0..8 {
        assert_eq!(sys.transmit_burst(16).unwrap(), 16);
    }
    for dev in 0..4 {
        let stats = sys.world.nics[dev].stats();
        assert_eq!(
            stats.tx_packets, 32,
            "device {dev} carried exactly its rotation share"
        );
        // Each device kicked once per burst it carried (one doorbell →
        // one TXDW latch per kick).
        assert_eq!(stats.tx_irqs, 2, "device {dev}");
    }
    // Wire order within each device is strict; the union is a complete
    // permutation of the injected sequence numbers.
    let mut all: Vec<u64> = Vec::new();
    for nic in &mut sys.world.nics {
        let frames = nic.take_tx_frames();
        assert!(frames.windows(2).all(|w| w[0].seq < w[1].seq));
        all.extend(frames.iter().map(|f| f.seq));
    }
    all.sort_unstable();
    assert_eq!(all, (0..128).collect::<Vec<u64>>());
}

#[test]
fn receive_shards_round_robin_with_per_device_interrupts() {
    let mut sys = sharded_system(Config::TwinDrivers, 4, ShardPolicy::RoundRobin);
    let irqs = sys.machine.meter.payments(Term::IrqDispatch);
    // Four bursts land on four different NICs, one coalesced interrupt
    // each; all reach the single guest in order within each burst.
    for b in 0..4u64 {
        let frames: Vec<Frame> = (0..8)
            .map(|i| rx_frame(MacAddr::for_guest(1), 2, b * 8 + i))
            .collect();
        assert_eq!(sys.receive_burst(&frames).unwrap(), 8);
    }
    assert_eq!(sys.delivered_rx(), 32);
    assert_eq!(
        sys.machine.meter.payments(Term::IrqDispatch) - irqs,
        4,
        "one irq per NIC burst"
    );
    for dev in 0..4 {
        assert_eq!(sys.world.nics[dev].stats().rx_packets, 8, "device {dev}");
        assert_eq!(sys.world.nics[dev].stats().rx_irqs, 1, "device {dev}");
    }
}

#[test]
fn aggregate_throughput_scales_3x_from_one_to_four_nics_at_burst_32() {
    // The acceptance criterion: aggregate RX+TX throughput at burst 32
    // must scale at least 3× going from one NIC to four.
    let mut one = sharded_system(Config::TwinDrivers, 1, ShardPolicy::RoundRobin);
    let a1 = measure_aggregate_throughput(&mut one, 32, 96).unwrap();
    let mut four = sharded_system(Config::TwinDrivers, 4, ShardPolicy::RoundRobin);
    let a4 = measure_aggregate_throughput(&mut four, 32, 96).unwrap();
    let scaling = a4.aggregate_mbps() / a1.aggregate_mbps();
    assert!(
        scaling >= 3.0,
        "aggregate scaling only {scaling:.2}x: 1 NIC {:.0} Mb/s → 4 NICs {:.0} Mb/s",
        a1.aggregate_mbps(),
        a4.aggregate_mbps()
    );
    // One NIC is link-bound in both directions at gigabit speed.
    assert_eq!(a1.tx.mbps, 1000.0);
    assert_eq!(a1.rx.mbps, 1000.0);
    // Sharding must not wreck amortization: cycles/packet stays within
    // 25% of the single-NIC figure at the same burst size.
    assert!(a4.tx_cycles_per_packet <= a1.tx_cycles_per_packet * 1.25);
    assert!(a4.rx_cycles_per_packet <= a1.rx_cycles_per_packet * 1.25);
}

#[test]
fn flooding_guest_cannot_starve_another_guests_virq() {
    // Guest A floods the wire with 64 queued frames; guest B has two.
    // With a flush quantum of 8, B's virtual interrupt must go out in
    // the very first round — after at most one quantum of A's copies —
    // instead of after A's entire backlog.
    let opts = SystemOptions {
        rx_flush_quantum: 8,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let g1 = sys.guest().unwrap();
    let mac2 = MacAddr::for_guest(2);
    let g2 = sys.add_guest(mac2).unwrap();

    let mut frames: Vec<Frame> = (0..64)
        .map(|i| rx_frame(MacAddr::for_guest(1), 7, i))
        .collect();
    // B's two frames arrive last, behind the flood.
    frames.push(rx_frame(mac2, 8, 0));
    frames.push(rx_frame(mac2, 8, 1));
    assert_eq!(sys.receive_burst(&frames).unwrap(), 66);

    // Everything was delivered...
    assert_eq!(sys.delivered_rx_for(g1), 64);
    assert_eq!(sys.delivered_rx_for(g2), 2);
    // ...and the flush log shows B served in round 0, while A's backlog
    // took 64/8 = 8 rounds of one quantum each.
    let b_rounds: Vec<usize> = sys
        .rx_flush_log
        .iter()
        .filter(|(_, g, _)| *g == g2)
        .map(|(round, _, _)| *round)
        .collect();
    assert_eq!(b_rounds, vec![0], "guest B's virq fired in the first round");
    let a_entries: Vec<(usize, usize)> = sys
        .rx_flush_log
        .iter()
        .filter(|(_, g, _)| *g == g1)
        .map(|(round, _, n)| (*round, *n))
        .collect();
    assert_eq!(a_entries.len(), 8, "the flood drained quantum by quantum");
    assert!(a_entries.iter().all(|(_, n)| *n == 8));
    assert!(a_entries.iter().enumerate().all(|(i, (r, _))| *r == i));
}

#[test]
fn default_quantum_leaves_single_burst_flushes_untouched() {
    // A burst no larger than the default quantum flushes in one round
    // with exactly one virq per guest — the PR 1 contract.
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    let mac2 = MacAddr::for_guest(2);
    let g2 = sys.add_guest(mac2).unwrap();
    let virqs = sys.machine.meter.payments(Term::VirqDeliver);
    let mut frames = Vec::new();
    for i in 0..12u64 {
        let mac = if i % 2 == 0 {
            MacAddr::for_guest(1)
        } else {
            mac2
        };
        frames.push(rx_frame(mac, 3, i));
    }
    assert_eq!(sys.receive_burst(&frames).unwrap(), 12);
    assert_eq!(
        sys.machine.meter.payments(Term::VirqDeliver) - virqs,
        2,
        "one virq per guest"
    );
    assert!(sys.rx_flush_log.iter().all(|(round, _, _)| *round == 0));
    assert_eq!(sys.delivered_rx_for(g2), 6);
}

#[test]
fn flowhash_spreads_generated_transmit_traffic() {
    // The internal traffic generator cycles over several flows (the
    // paper's netperf runs multiple streams), so FlowHash genuinely
    // spreads transmit bursts instead of pinning everything to one NIC.
    let mut sys = sharded_system(Config::TwinDrivers, 4, ShardPolicy::FlowHash);
    assert_eq!(sys.transmit_burst(64).unwrap(), 64);
    for dev in 0..4 {
        assert!(
            sys.world.nics[dev].stats().tx_packets > 0,
            "device {dev} idle under FlowHash"
        );
    }
    // Per-flow wire order holds on every device.
    for nic in &mut sys.world.nics {
        let frames = nic.take_tx_frames();
        for flow in 1..=8u32 {
            let seqs: Vec<u64> = frames
                .iter()
                .filter(|f| f.flow == flow)
                .map(|f| f.seq)
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "flow {flow} reordered"
            );
        }
    }
}

#[test]
fn aggregate_throughput_counts_only_active_links() {
    // Static on a 4-NIC system drives one gigabit link; the aggregate
    // must be capped by that link, not by idle hardware.
    let mut sys = sharded_system(Config::TwinDrivers, 4, ShardPolicy::Static);
    let a = measure_aggregate_throughput(&mut sys, 32, 96).unwrap();
    assert_eq!(a.tx.mbps, 1000.0, "one active TX link");
    assert_eq!(a.rx.mbps, 1000.0, "one active RX link");
    assert!(a.aggregate_mbps() <= 2000.0);
}

#[test]
fn static_policy_pins_every_burst_to_the_chosen_nic() {
    let mut sys = sharded_system(Config::NativeLinux, 4, ShardPolicy::Static);
    assert_eq!(sys.transmit_burst(40).unwrap(), 40);
    for dev in 0..4 {
        let expect = if dev == 0 { 40 } else { 0 };
        assert_eq!(
            sys.world.nics[dev].stats().tx_packets,
            expect,
            "device {dev}"
        );
    }
    let frames: Vec<Frame> = (0..10)
        .map(|i| rx_frame(MacAddr::for_guest(0), 2, i))
        .collect();
    assert_eq!(sys.receive_burst(&frames).unwrap(), 10);
    assert_eq!(sys.world.nics[0].stats().rx_packets, 10);
    assert_eq!(sys.delivered_rx(), 10);
}

#[test]
fn per_device_attribution_survives_more_flows_than_the_map_holds() {
    // 80 bursts of 128 flows never seen before: 10 240 flows. Every
    // frame is copied into the guest once, so each NIC's grant copies
    // must equal the frames it carried — after every burst, however
    // many flows came before.
    let mut sys = sharded_system(Config::TwinDrivers, 4, ShardPolicy::FlowHash);
    let mac = MacAddr::for_guest(1);
    for burst in 0..80u32 {
        let frames: Vec<Frame> = (0..128)
            .map(|i| rx_frame(mac, 1000 + burst * 128 + i, u64::from(i)))
            .collect();
        assert_eq!(sys.receive_burst(&frames).unwrap(), 128);
        let ms = sys.metrics();
        for dev in 0..4 {
            assert_eq!(
                ms.counter(&format!("grant.dev{dev}.copies")),
                ms.counter(&format!("nic{dev}.rx_packets")),
                "burst {burst}: NIC {dev}'s copies are filed under it"
            );
        }
    }
}

#[test]
fn round_robin_files_each_copy_under_the_nic_that_carried_its_frame() {
    // One flow, two open-loop arrivals: round-robin puts the first on
    // NIC 0 and the second on NIC 1, and nothing is delivered until the
    // consumer runs. Each NIC's copies are its own frames', not all
    // filed under the NIC the flow last used.
    let mut sys = sharded_system(Config::TwinDrivers, 2, ShardPolicy::RoundRobin);
    let mac = MacAddr::for_guest(1);
    let at = sys.now_cycles();
    for k in 0..2u64 {
        let frames: Vec<Frame> = (0..4).map(|i| rx_frame(mac, 7, k * 4 + i)).collect();
        assert_eq!(sys.rx_open_loop_arrival(&frames, at).unwrap(), 4);
    }
    sys.rx_open_loop_service(at + 10_000_000).unwrap();
    assert_eq!(sys.delivered_rx(), 8);
    let ms = sys.metrics();
    for dev in 0..2 {
        assert_eq!(ms.counter(&format!("nic{dev}.rx_packets")), 4, "NIC {dev}");
        let copies = ms.counter(&format!("grant.dev{dev}.copies"));
        assert_eq!(copies, 4, "NIC {dev}");
    }
}
