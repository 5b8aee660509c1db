//! The zero-copy grant-mapped datapath end to end: off-mode stays
//! cycle-exact with the committed shard baseline, a warm pool pays no
//! per-packet grant traffic, every fallback trigger bounces through the
//! copy path, revocation quarantines cached grants, and the aggregate
//! sweep attributes grant work per device.

use twin_net::{Frame, MacAddr};
use twindrivers::machine::{Event, Term};
use twindrivers::system::ZC_POOL_FRAMES;
use twindrivers::{
    measure_aggregate_throughput, peer_mac, Config, ShardPolicy, System, SystemOptions,
};

fn zc_opts(nics: usize, zero_copy: bool) -> SystemOptions {
    SystemOptions {
        num_nics: nics,
        shard: ShardPolicy::FlowHash,
        zero_copy,
        ..SystemOptions::default()
    }
}

fn frame_to(mac: MacAddr, flow: u32, seq: u64) -> Frame {
    Frame::data(mac, peer_mac(), flow, seq)
}

/// One committed shard-baseline point: `(nics, burst, tx_cpp, rx_cpp)`.
fn parse_shard_baseline() -> (u64, Vec<(usize, usize, f64, f64)>) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baseline_shard.json"
    );
    let text = std::fs::read_to_string(path).expect("bench/baseline_shard.json");
    let field = |line: &str, name: &str| -> f64 {
        let key = format!("\"{name}\": ");
        let i = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} in {line}"))
            + key.len();
        let rest = &line[i..];
        let end = rest.find([',', '}']).expect("field terminator");
        rest[..end].trim().parse().expect("numeric field")
    };
    let mut packets = 0u64;
    let mut points = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("\"packets\"") {
            packets = field(&format!("{{{line}"), "packets") as u64;
        }
        if line.starts_with('{') && line.contains("\"nics\"") {
            points.push((
                field(line, "nics") as usize,
                field(line, "burst") as usize,
                field(line, "tx_cycles_per_packet"),
                field(line, "rx_cycles_per_packet"),
            ));
        }
    }
    (packets, points)
}

#[test]
fn zero_copy_off_is_cycle_exact_with_the_shard_baseline() {
    // The knob must be invisible when off: with the grant cache, the
    // pool plumbing and the fallback accounting all compiled in, an
    // explicit `zero_copy: false` build reproduces the committed PR 2/3
    // shard baseline to the decimal.
    let (packets, points) = parse_shard_baseline();
    assert_eq!(packets, 64, "baseline was generated at 64 packets/point");
    for (nics, burst, tx_cpp, rx_cpp) in points
        .into_iter()
        .filter(|&(n, b, _, _)| b == 32 && (n == 1 || n == 4))
    {
        let opts = SystemOptions {
            num_nics: nics,
            shard: ShardPolicy::RoundRobin,
            zero_copy: false,
            ..SystemOptions::default()
        };
        let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
        let a = measure_aggregate_throughput(&mut sys, burst, packets).unwrap();
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
        let cache = sys.metrics().counters_with_prefix("grantcache.").count();
        assert_eq!(cache, 0, "no cache when off");
        assert_eq!(sys.machine.meter.payments(Term::GrantCacheHit), 0);
        assert_eq!(sys.machine.meter.payments(Term::CopyFallback), 0);
    }
}

#[test]
fn warm_pool_pays_no_per_packet_grant_traffic_and_beats_copy_mode() {
    // After a priming pass at the target burst, a second measurement —
    // its warm-up and its window — must be all cache hits: zero maps,
    // zero unmaps, zero fallbacks —
    // and the amortized cost must beat copy mode by the acceptance
    // margin (≥ 1.3× at 4 NICs / burst 32).
    let mut on = System::build_with(Config::TwinDrivers, &zc_opts(4, true)).unwrap();
    on.measure_rx_burst(32, 64).unwrap();
    let primed = on.metrics();
    let w = on.measure_rx_burst(32, 64).unwrap();
    let warm = on.metrics().delta_since(&primed);
    assert_eq!(warm.counter("event.grant_map"), 0, "warm: no maps");
    assert_eq!(warm.counter("event.grant_unmap"), 0);
    assert_eq!(warm.counter("event.copy_fallback"), 0);
    assert!(
        w.breakdown.event("grant_cache_hit") >= 64,
        "every measured packet lands through the cache"
    );
    let meter = &on.machine.meter;
    assert!(
        meter.payments(Term::PinPage) > 0,
        "the priming pass faulted the pool in"
    );
    assert_eq!(
        meter.event(Event::GrantCacheEvict),
        0,
        "pool fits the cache"
    );

    let mut off = System::build_with(Config::TwinDrivers, &zc_opts(4, false)).unwrap();
    off.measure_rx_burst(32, 64).unwrap();
    let wo = off.measure_rx_burst(32, 64).unwrap();
    let ratio = wo.breakdown.total() / w.breakdown.total();
    assert!(
        ratio >= 1.3,
        "zero-copy RX speedup {ratio:.2}x below the 1.3x acceptance"
    );
}

#[test]
fn ungranted_guest_falls_back_to_copies_until_granted() {
    let mut sys = System::build_with(Config::TwinDrivers, &zc_opts(1, true)).unwrap();
    let mac2 = MacAddr::for_guest(2);
    let g2 = sys.add_guest(mac2).unwrap();
    for seq in 0..8 {
        sys.receive_frame(&frame_to(mac2, 40, seq)).unwrap();
    }
    let fallbacks = sys.machine.meter.payments(Term::CopyFallback);
    assert_eq!(fallbacks, 8, "every frame to the ungranted guest bounces");

    // Granting the pool stops the fallbacks: first touch maps, the rest
    // hit.
    assert_eq!(sys.grant_zero_copy_pool(g2).unwrap(), 64, "pool granted");
    for seq in 8..16 {
        sys.receive_frame(&frame_to(mac2, 40, seq)).unwrap();
    }
    assert_eq!(
        sys.machine.meter.payments(Term::CopyFallback),
        fallbacks,
        "granted guest takes the zero-copy path"
    );
    assert!(sys.machine.meter.payments(Term::GrantCacheHit) > 0);
}

#[test]
fn exhausted_pool_slice_falls_back() {
    // One flow lands six frames more than its pool slice in one flush
    // pass: every slot maps once, everything behind the last slot
    // bounces.
    let mut sys = System::build_with(Config::TwinDrivers, &zc_opts(1, true)).unwrap();
    let mac1 = MacAddr::for_guest(1);
    let burst: Vec<Frame> = (0..ZC_POOL_FRAMES as u64 + 6)
        .map(|s| frame_to(mac1, 41, s))
        .collect();
    assert_eq!(sys.receive_burst(&burst).unwrap(), burst.len());
    assert_eq!(
        sys.machine.meter.payments(Term::PinPage),
        ZC_POOL_FRAMES as u64,
        "each slot maps once"
    );
    assert_eq!(
        sys.machine.meter.payments(Term::CopyFallback),
        6,
        "slots past the pool bounce"
    );
}

#[test]
fn revocation_quarantines_cached_grants() {
    let mut sys = System::build_with(Config::TwinDrivers, &zc_opts(1, true)).unwrap();
    let gid = sys.guest().unwrap();
    let mac1 = MacAddr::for_guest(1);
    for seq in 0..4 {
        sys.receive_frame(&frame_to(mac1, 42, seq)).unwrap();
    }
    assert!(sys.machine.meter.payments(Term::PinPage) > 0, "pool warmed");
    let unmaps_before = sys.machine.meter.payments(Term::GrantUnmap);
    let revoked = sys.revoke_zero_copy_grants(gid).unwrap();
    assert!(revoked > 0, "live mappings were torn down");
    let counted = sys.metrics().counter("grantcache.revoked");
    assert_eq!(counted as usize, revoked);
    assert_eq!(
        sys.machine.meter.payments(Term::GrantUnmap) - unmaps_before,
        revoked as u64,
        "each revoked mapping owes one unmap"
    );
    // The quarantined guest bounces through copies until re-granted.
    sys.receive_frame(&frame_to(mac1, 42, 4)).unwrap();
    assert!(sys.machine.meter.payments(Term::CopyFallback) > 0);
    sys.grant_zero_copy_pool(gid).unwrap();
    let fallbacks = sys.machine.meter.payments(Term::CopyFallback);
    sys.receive_frame(&frame_to(mac1, 42, 5)).unwrap();
    assert_eq!(
        sys.machine.meter.payments(Term::CopyFallback),
        fallbacks,
        "re-granting restores the zero-copy path"
    );
}

#[test]
fn aggregate_throughput_attributes_grant_work_per_device() {
    // TwinDrivers in copy mode: grant-copies happen per packet and the
    // sweep's stats break them down per NIC.
    let mut sys = System::build_with(Config::TwinDrivers, &zc_opts(4, false)).unwrap();
    let a = measure_aggregate_throughput(&mut sys, 8, 64).unwrap();
    let copies = a.span.counter("grant.copies");
    assert!(copies > 0, "copy mode grant-copies every packet");
    let per_dev: Vec<u64> = (0..4)
        .map(|dev| a.span.counter(&format!("grant.dev{dev}.copies")))
        .collect();
    assert_eq!(
        per_dev.iter().sum::<u64>(),
        copies,
        "per-device copies sum to total"
    );
    assert!(
        per_dev.iter().filter(|&&n| n > 0).count() >= 2,
        "flow-hash sharding spreads grant work over the NICs"
    );

    // Baseline Xen guest: the I/O channel maps and unmaps per packet,
    // attributed to the single device.
    let mut xg = System::build(Config::XenGuest).unwrap();
    let a = measure_aggregate_throughput(&mut xg, 8, 64).unwrap();
    let (maps, unmaps) = (
        a.span.counter("grant.maps"),
        a.span.counter("event.grant_unmap"),
    );
    assert!(maps > 0 && unmaps > 0);
    assert_eq!(a.span.counter("grant.dev0.maps"), maps);
    assert_eq!(a.span.counter("grant.dev0.unmaps"), unmaps);
}

#[test]
fn iommu_pre_pins_the_pool_and_traffic_still_flows() {
    let opts = SystemOptions {
        iommu: true,
        ..zc_opts(1, true)
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let io = sys.world.iommu.as_ref().unwrap();
    assert_eq!(io.pinned_pages, 64, "whole pool pinned up front");
    assert!(
        io.allowlist_entries() < 32,
        "pool pins as coalesced ranges, not per-page entries"
    );
    // Doorbell-time RX/TX walks pass with the pool pinned.
    let mac1 = MacAddr::for_guest(1);
    let burst: Vec<Frame> = (0..8).map(|s| frame_to(mac1, 43, s)).collect();
    assert_eq!(sys.receive_burst(&burst).unwrap(), 8);
    assert_eq!(sys.transmit_burst(8).unwrap(), 8);
    assert_eq!(sys.world.iommu.as_ref().unwrap().blocked, 0);
}
