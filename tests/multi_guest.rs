//! Multi-guest receive demultiplexing (paper §5.3): "the hypervisor
//! demultiplexes the received packets based on the destination MAC
//! address, and queues the packet to the appropriate guest domain."

use twin_net::{Frame, MacAddr};
use twindrivers::machine::{Event, Term};
use twindrivers::system::DomId;
use twindrivers::{peer_mac, Config, System};

fn frame_for(dst: MacAddr, seq: u64) -> Frame {
    Frame::data(dst, peer_mac(), 9, seq)
}

/// Three guests on `config`, twelve frames interleaved across them and
/// one for a MAC nobody owns: each guest gets what was addressed to it.
fn three_guests_get_their_own_frames(config: Config) {
    let mut sys = System::build(config).unwrap();
    let g1 = sys.guest().unwrap();
    let mac2 = MacAddr::for_guest(2);
    let mac3 = MacAddr::for_guest(3);
    let g2 = sys.add_guest(mac2).unwrap();
    let g3 = sys.add_guest(mac3).unwrap();

    // Interleave frames for three guests plus one for an unknown MAC.
    for i in 0..12u64 {
        let dst = match i % 3 {
            0 => MacAddr::for_guest(1),
            1 => mac2,
            _ => mac3,
        };
        sys.receive_frame(&frame_for(dst, i)).unwrap();
    }
    sys.receive_frame(&frame_for(MacAddr::for_guest(77), 99))
        .unwrap();

    let o = sys.outcome();
    for g in [g1, g2, g3] {
        assert_eq!(o.delivered(g).len(), 4, "{config}: guest {}", g.0);
    }
    // Sequence numbers landed with the right owner.
    assert!(o.delivered(g2).iter().all(|f| f.seq % 3 == 1));
    assert!(o.delivered(g3).iter().all(|f| f.dst == mac3));
    // The unknown destination was dropped and counted.
    assert_eq!(sys.machine.meter.event(Event::DemuxMiss), 1);
    if config == Config::TwinDrivers {
        // Still zero domain switches: demux happens in the hypervisor.
        assert_eq!(sys.machine.meter.payments(Term::DomainSwitch), 0);
    }
}

/// The hypervisor's demux on `TwinDrivers`, dom0's bridge and I/O
/// channel on `XenGuest`.
#[test]
fn frames_reach_the_right_guest() {
    three_guests_get_their_own_frames(Config::TwinDrivers);
    three_guests_get_their_own_frames(Config::XenGuest);
}

#[test]
fn broadcast_goes_nowhere_but_counts() {
    // The model demuxes unicast only; broadcasts are counted as misses
    // (the paper's prototype had a single guest per MAC as well).
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    sys.receive_frame(&frame_for(MacAddr::BROADCAST, 0))
        .unwrap();
    assert_eq!(sys.machine.meter.event(Event::DemuxMiss), 1);
    assert_eq!(sys.delivered_rx(), 0);
}

#[test]
fn batch_demux_fans_out_to_guests_in_one_pass() {
    // One coalesced interrupt, one softirq pass, one demux sweep: a
    // twelve-frame burst for three guests lands in all three queues with
    // a single hardware interrupt and one virtual interrupt per guest.
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    let g1 = sys.guest().unwrap();
    let mac2 = MacAddr::for_guest(2);
    let mac3 = MacAddr::for_guest(3);
    let g2 = sys.add_guest(mac2).unwrap();
    let g3 = sys.add_guest(mac3).unwrap();

    let meter = &sys.machine.meter;
    let before = [
        meter.payments(Term::IrqDispatch),
        meter.payments(Term::VirqDeliver),
        meter.payments(Term::DomainSwitch),
    ];
    let frames: Vec<Frame> = (0..12u64)
        .map(|i| {
            let dst = match i % 3 {
                0 => MacAddr::for_guest(1),
                1 => mac2,
                _ => mac3,
            };
            frame_for(dst, i)
        })
        .collect();
    assert_eq!(sys.receive_burst(&frames).unwrap(), 12);

    let meter = &sys.machine.meter;
    let after = [
        meter.payments(Term::IrqDispatch),
        meter.payments(Term::VirqDeliver),
        meter.payments(Term::DomainSwitch),
    ];
    // One coalesced interrupt, one virq per guest, no domain switch.
    assert_eq!(after, [before[0] + 1, before[1] + 3, before[2]]);
    let o = sys.outcome();
    for (g, mac) in [(g1, MacAddr::for_guest(1)), (g2, mac2), (g3, mac3)] {
        let delivered = o.delivered(g);
        assert_eq!(delivered.len(), 4);
        assert!(delivered.iter().all(|f| f.dst == mac));
        // Order within each guest preserved.
        for w in delivered.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }
}

#[test]
fn guests_transmit_interleaved_with_demuxed_receive() {
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    let mac2 = MacAddr::for_guest(2);
    let g2 = sys.add_guest(mac2).unwrap();
    for i in 0..10u64 {
        sys.transmit_one().unwrap();
        sys.receive_frame(&frame_for(mac2, i)).unwrap();
    }
    assert_eq!(sys.take_wire_frames().len(), 10);
    assert_eq!(sys.delivered_rx_for(g2), 10);
}

#[test]
fn an_unknown_domain_has_delivered_nothing() {
    // Like its sibling `guest_rx_latency`, the per-domain delivery count
    // reads 0 for an id that is no endpoint.
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    sys.receive_frame(&frame_for(MacAddr::for_guest(1), 0))
        .unwrap();
    assert_eq!(sys.delivered_rx_for(DomId(9)), 0);
    assert_eq!(sys.delivered_rx_for(DomId(1)), 1);
}
