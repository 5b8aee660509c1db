//! `twin-top` — a top(1)-style live view of a TwinDrivers system under
//! receive overload, rendered **entirely from metrics-registry deltas**.
//!
//! The harness replays the livelock sweep's controlled configuration
//! (4 NICs, scheduler-aware affinity sharding, budgeted NAPI, DRR guest
//! weights, admission watermark) with a vCPU run/sleep schedule per
//! guest, against an open-loop flood at a chosen multiple
//! of the calibrated knee, and at every interval boundary takes one
//! [`System::metrics`] snapshot. Each table below is computed from
//! `snapshot.delta_since(&previous)` alone — no reaching into
//! `NicStats`, guest queues or the grant cache; even the device and
//! guest row sets are discovered from the registry's key space. That is
//! the point: anything `twin-top` can show, any registry consumer can.
//!
//! ```sh
//! cargo run --release --example twin_top          # 10.0x the knee
//! cargo run --release --example twin_top -- 20    # 2.0x the knee
//! ```
//!
//! Set `TWIN_TRACE_OUT=dir` to also dump the flight-recorder chrome
//! trace and final metrics snapshot for the whole replay.

use twindrivers::net::{wire_bits, EtherType, Frame, MacAddr, MTU};
use twindrivers::system::DomId;
use twindrivers::trace::MetricSet;
use twindrivers::{Config, ShardPolicy, System, SystemOptions, CPU_HZ};

const NICS: usize = 4;
const BURST: usize = 32;
const QUEUE_CAP: usize = 512;
const NAPI_WEIGHT: usize = 64;
const WATERMARK: usize = 1536;
const FLUSH_QUANTUM: usize = 8;
const VICTIM_WEIGHT: u32 = 64;
const VICTIM_FRAMES: usize = 4;
const INTERVALS: usize = 5;
const BURSTS_PER_INTERVAL: u64 = 40;

fn build() -> Result<System, Box<dyn std::error::Error>> {
    let opts = SystemOptions {
        num_nics: NICS,
        shard: ShardPolicy::Affinity,
        rx_queue_cap: Some(QUEUE_CAP),
        napi_weight: NAPI_WEIGHT,
        rx_backlog_watermark: Some(WATERMARK),
        rx_flush_quantum: FLUSH_QUANTUM,
        guest_weights: vec![(2, VICTIM_WEIGHT), (3, VICTIM_WEIGHT)],
        tracing: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts)?;
    sys.add_guest(MacAddr::for_guest(2))?;
    sys.add_guest(MacAddr::for_guest(3))?;
    // The flood guest's vCPU never sleeps; the victims run partial duty
    // cycles, so the scheduler columns show deferral and placement at
    // work (run%, placements).
    sys.sched_add_vcpu(DomId(1), 0, 1_000_000, 0)?;
    sys.sched_add_vcpu(DomId(2), 1, 400_000, 200_000)?;
    sys.sched_add_vcpu(DomId(3), 2, 300_000, 300_000)?;
    Ok(sys)
}

/// One arrival burst: a fixed victim trickle plus the flood remainder,
/// same shape as the sweep's `flood_one_guest` profile.
fn burst(flood: MacAddr, victims: &[(u32, MacAddr)], x10: u32, seq: &mut u64) -> Vec<Frame> {
    let total = (BURST * x10 as usize / 10).max(1);
    let mut out = Vec::new();
    let mut push = |dst: MacAddr, flow: u32, seq: &mut u64| {
        out.push(Frame {
            dst,
            src: MacAddr([0x02, 0, 0, 0, 0, 0xee]),
            ethertype: EtherType::Ipv4,
            payload_len: MTU,
            flow,
            seq: *seq,
        });
        *seq += 1;
    };
    for (g, mac) in victims {
        for _ in 0..VICTIM_FRAMES {
            push(*mac, 900 + g, seq);
        }
    }
    for _ in victims.len() * VICTIM_FRAMES..total {
        push(flood, 800, seq);
    }
    out
}

/// Device/guest ids present in a delta, discovered from the key space.
fn ids_with_prefix(d: &MetricSet, prefix: &str) -> Vec<u32> {
    let mut ids: Vec<u32> = d
        .counters_with_prefix(prefix)
        .filter_map(|(k, _)| k[prefix.len()..].split('.').next()?.parse().ok())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn render_interval(n: usize, d: &MetricSet) {
    let span = d.counter("clock.now_cycles");
    let span_ms = span as f64 / CPU_HZ * 1e3;
    println!("interval {n}  (span {span_ms:.2} ms, {span} cycles)");
    println!(
        "  {:<6} {:>8} {:>6} {:>8} {:>7} {:>6}",
        "dev", "rx_pkts", "irqs", "irq/pkt", "poll%", "drops"
    );
    for dev in ids_with_prefix(d, "nic") {
        let pkts = d.counter(&format!("nic{dev}.rx_packets"));
        let irqs = d.counter(&format!("nic{dev}.rx_irqs"));
        let poll = d.counter(&format!("nic{dev}.poll_cycles"));
        println!(
            "  nic{dev:<3} {pkts:>8} {irqs:>6} {:>8.3} {:>6.1}% {:>6}",
            irqs as f64 / pkts.max(1) as f64,
            poll as f64 / span.max(1) as f64 * 100.0,
            d.counter(&format!("nic{dev}.rx_missed")),
        );
    }
    println!(
        "  {:<6} {:>10} {:>9} {:>11} {:>11} {:>6} {:>7}",
        "guest", "goodput", "delivered", "early_drops", "queue_drops", "run%", "placed"
    );
    for g in ids_with_prefix(d, "guest") {
        let delivered = d.counter(&format!("guest{g}.delivered"));
        let mbps = delivered as f64 * wire_bits(MTU) as f64 / (span as f64 / CPU_HZ) / 1e6;
        let run = d.counter(&format!("sched.guest{g}.run_cycles"));
        println!(
            "  dom{g:<3} {mbps:>6.0} Mb/s {delivered:>9} {:>11} {:>11} {:>5.0}% {:>7}",
            d.counter(&format!("guest{g}.early_drops")),
            d.counter(&format!("guest{g}.queue_drops")),
            run as f64 / span.max(1) as f64 * 100.0,
            d.counter(&format!("sched.guest{g}.placements")),
        );
    }
    let (hits, misses) = (d.counter("grantcache.hits"), d.counter("grantcache.misses"));
    if hits + misses > 0 {
        println!(
            "  grant cache: {:.1}% hit ({hits} hits / {misses} misses)",
            hits as f64 / (hits + misses) as f64 * 100.0
        );
    }
    let (flushes, upcalls) = (d.counter("upcall.flushes"), d.counter("upcall.executed"));
    if flushes + upcalls > 0 {
        println!("  upcalls: {upcalls} executed in {flushes} flushes");
    }
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let x10: u32 = std::env::args()
        .nth(1)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(100);
    let mut sys = build()?;
    let flood_gid = sys.guest().expect("TwinDrivers config has a guest");
    let flood_mac = MacAddr::for_guest(flood_gid.0);
    let victims: Vec<(u32, MacAddr)> = [2u32, 3]
        .iter()
        .map(|&g| (g, MacAddr::for_guest(g)))
        .collect();

    // Calibrate the knee exactly like the livelock sweep, then replay.
    let knee = sys.measure_rx_burst(BURST, 256)?;
    let gap = (BURST as f64 * knee.breakdown.total()) as u64;
    println!(
        "twin-top — TwinDrivers, {NICS} NICs, flood_one_guest @ {:.1}x knee (burst {BURST} / {gap} cycles)\n",
        f64::from(x10) / 10.0
    );

    let mut seq = 1_000_000u64;
    let mut prev = sys.metrics();
    let t0 = sys.now_cycles();
    for n in 0..INTERVALS {
        for i in 0..BURSTS_PER_INTERVAL {
            let at = t0 + (n as u64 * BURSTS_PER_INTERVAL + i) * gap;
            sys.rx_open_loop_service(at)?;
            let frames = burst(flood_mac, &victims, x10, &mut seq);
            sys.rx_open_loop_arrival(&frames, at)?;
        }
        sys.rx_open_loop_service(t0 + (n as u64 + 1) * BURSTS_PER_INTERVAL * gap)?;
        let snap = sys.metrics();
        render_interval(n + 1, &snap.delta_since(&prev));
        prev = snap;
    }
    sys.export_trace(&format!("twin_top_{x10}"));
    Ok(())
}
