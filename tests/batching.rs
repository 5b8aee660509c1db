//! The burst datapath's correctness contract:
//!
//! * **burst-of-1 equivalence** — `transmit_one`/`receive_one` are pure
//!   burst-of-1 wrappers, so a run of N per-packet calls costs exactly
//!   what N `*_burst(1)` calls cost and puts identical frames on the
//!   wire (the seed's per-packet figures reproduce unchanged);
//! * **in-order delivery** — a burst of N delivers the same frames in
//!   the same order as N per-packet calls, on both directions;
//! * **amortization** — bigger bursts strictly reduce notifications
//!   (doorbells, interrupts, virqs) without changing what's delivered.

use twin_machine::{Event, Term};
use twin_net::{Frame, MacAddr};
use twindrivers::system::DomId;
use twindrivers::{peer_mac, Config, Law, System};

fn rx_frame(dst: MacAddr, seq: u64) -> Frame {
    Frame::data(dst, peer_mac(), 2, seq)
}

fn guest_mac(config: Config) -> MacAddr {
    match config {
        Config::XenGuest | Config::TwinDrivers => MacAddr::for_guest(1),
        _ => MacAddr::for_guest(0),
    }
}

#[test]
fn burst_of_one_costs_exactly_the_per_packet_path() {
    for config in Config::ALL {
        let mut singles = System::build(config).unwrap();
        let mut bursts = System::build(config).unwrap();
        for _ in 0..20 {
            singles.transmit_one().unwrap();
            assert_eq!(bursts.transmit_burst(1).unwrap(), 1);
        }
        let tx = singles.outcome().check(&bursts.outcome(), Law::BitExact);
        tx.unwrap_or_else(|e| panic!("{config}: transmit burst-of-1 diverges: {e}"));
        // Receive side.
        let mut singles = System::build(config).unwrap();
        let mut bursts = System::build(config).unwrap();
        let mac = guest_mac(config);
        for i in 0..20u64 {
            singles.receive_frame(&rx_frame(mac, i)).unwrap();
            assert_eq!(bursts.receive_burst(&[rx_frame(mac, i)]).unwrap(), 1);
        }
        assert_eq!(singles.delivered_rx(), 20, "{config}");
        assert_eq!(bursts.delivered_rx(), 20, "{config}");
        let rx = singles.outcome().check(&bursts.outcome(), Law::BitExact);
        rx.unwrap_or_else(|e| panic!("{config}: receive burst-of-1 diverges: {e}"));
    }
}

#[test]
fn tx_burst_matches_per_packet_frames_in_order() {
    for config in Config::ALL {
        let mut singles = System::build(config).unwrap();
        for _ in 0..24 {
            singles.transmit_one().unwrap();
        }
        let expected = singles.take_wire_frames();
        let mut bursts = System::build(config).unwrap();
        assert_eq!(bursts.transmit_burst(24).unwrap(), 24, "{config}");
        assert_eq!(bursts.take_wire_frames(), expected, "{config}");
    }
}

#[test]
fn rx_burst_delivers_all_frames_in_order() {
    for config in Config::ALL {
        let mut sys = System::build(config).unwrap();
        let mac = guest_mac(config);
        let frames: Vec<Frame> = (0..24).map(|i| rx_frame(mac, i)).collect();
        assert_eq!(sys.receive_burst(&frames).unwrap(), 24, "{config}");
        assert_eq!(sys.delivered_rx(), 24, "{config}");
        let endpoint = sys.guest().unwrap_or(DomId(0));
        let o = sys.outcome();
        let delivered: Vec<u64> = o.delivered(endpoint).iter().map(|f| f.seq).collect();
        assert_eq!(delivered, (0..24).collect::<Vec<u64>>(), "{config}");
    }
}

#[test]
fn rx_bursts_larger_than_the_ring_split_and_complete() {
    // 127 buffers are posted; a 200-frame burst needs two hardware
    // passes, each replenishing the ring — nothing is dropped.
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    let frames: Vec<Frame> = (0..200)
        .map(|i| rx_frame(MacAddr::for_guest(1), i))
        .collect();
    assert_eq!(sys.receive_burst(&frames).unwrap(), 200);
    assert_eq!(sys.delivered_rx(), 200);
    let irqs = sys.machine.meter.payments(Term::IrqDispatch);
    assert!(
        (2..=3).contains(&irqs),
        "split burst coalesces into a handful of interrupts, got {irqs}"
    );
}

#[test]
fn bigger_bursts_mean_fewer_notifications_same_delivery() {
    let mut small = System::build(Config::TwinDrivers).unwrap();
    let mut large = System::build(Config::TwinDrivers).unwrap();
    for _ in 0..8 {
        assert_eq!(small.transmit_burst(4).unwrap(), 4);
    }
    assert_eq!(large.transmit_burst(32).unwrap(), 32);
    assert_eq!(small.take_wire_frames(), large.take_wire_frames());
    let db_small = small.machine.meter.event(Event::Doorbell);
    let db_large = large.machine.meter.event(Event::Doorbell);
    assert!(db_small >= 8, "one doorbell per burst of 4 (+warmless)");
    assert!(
        db_large < db_small,
        "32-burst ({db_large} doorbells) must beat 8x4 ({db_small})"
    );
    let hc_small = small.machine.meter.payments(Term::Hypercall);
    let hc_large = large.machine.meter.payments(Term::Hypercall);
    assert!(hc_large < hc_small, "one hypercall per burst");
}

#[test]
fn bursts_beyond_max_burst_split_instead_of_clamping() {
    let mut sys = System::build(Config::NativeLinux).unwrap();
    assert_eq!(sys.transmit_burst(200).unwrap(), 200);
    let wire = sys.take_wire_frames();
    assert_eq!(wire.len(), 200);
    assert!(wire.windows(2).all(|w| w[0].seq < w[1].seq));
}

#[test]
fn pool_exhaustion_mid_burst_does_not_leak_skbs() {
    // Drain dom0's pool to 32 free skbs — less than the burst. The
    // burst must fail cleanly with every already-allocated skb returned,
    // and per-packet transmit keeps working afterwards.
    let mut sys = System::build(Config::NativeLinux).unwrap();
    let space = sys.world.kernel.space;
    // Every capture below finds an empty wire, so the final count covers
    // every frame since build, as a single drain at the end would.
    let o = sys.outcome();
    assert!(o.wire.is_empty(), "build transmits nothing");
    let held: Vec<_> = (32..o.dom0_free)
        .map(|_| {
            sys.world
                .kernel
                .pool
                .alloc(&mut sys.machine, space)
                .unwrap()
        })
        .collect();
    let o = sys.outcome();
    assert_eq!((o.dom0_free, o.wire.len()), (32, 0));
    assert!(
        sys.transmit_burst(64).is_err(),
        "pool can't cover the burst"
    );
    let o = sys.outcome();
    assert_eq!(o.dom0_free, 32, "nothing leaked");
    assert!(o.wire.is_empty(), "a failed burst puts nothing on the wire");
    for skb in held {
        sys.world.kernel.pool.free(skb);
    }
    for _ in 0..40 {
        sys.transmit_one().unwrap();
    }
    assert_eq!(sys.take_wire_frames().len(), 40, "pool recovered fully");
}

#[test]
fn interleaved_burst_sizes_never_drop_or_reorder() {
    // Deterministic version of the property in tests/props.rs.
    let sizes = [1usize, 7, 1, 32, 3, 16, 1, 128, 5];
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    let mut sent = 0u64;
    for s in sizes {
        assert_eq!(sys.transmit_burst(s).unwrap(), s);
        sent += s as u64;
        // Interleave receive bursts of a different size.
        let frames: Vec<Frame> = (0..(s / 2).max(1) as u64)
            .map(|i| rx_frame(MacAddr::for_guest(1), 1_000 + i))
            .collect();
        sys.receive_burst(&frames).unwrap();
    }
    let wire = sys.take_wire_frames();
    assert_eq!(wire.len() as u64, sent, "no transmit ever dropped");
    for w in wire.windows(2) {
        assert!(w[0].seq < w[1].seq, "wire order preserved across bursts");
    }
}
