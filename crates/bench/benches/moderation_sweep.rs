//! Interrupt-moderation sweep: receive cost, interrupt rate and
//! arrival-to-delivery latency percentiles, sweeping the per-device
//! `ITR` register × burst size × NIC count on the TwinDrivers
//! configuration (FlowHash sharding, paced arrivals).
//!
//! Not a paper figure — this wires the virtual-time engine to the real
//! e1000's interrupt-throttling register: each device suppresses IRQ
//! delivery until `ITR × 768` cycles have elapsed since its last
//! delivered interrupt, latching the cause meanwhile (no delivery is
//! ever lost). The arrival process offers bursts every
//! [`twin_bench::DEFAULT_GAP_CYCLES`] of virtual time (shared with the
//! autotune sweep's heavy phase) — slightly above the unmoderated path's
//! per-interrupt service capacity at burst 32 on 4 NICs, the
//! receive-livelock regime interrupt moderation exists for: without
//! moderation the backlog shows up as completion latency *and* maximal
//! interrupt rate; with it, one interrupt reaps several bursts.
//!
//! Acceptance (burst 32, 4 NICs): some ITR > 0 point cuts interrupts
//! per packet ≥ 4× against ITR 0 while keeping p99 arrival-to-delivery
//! latency ≤ 2× the ITR 0 p99, and interrupts/packet fall monotonically
//! with ITR.
//!
//! Besides the human-readable table, the sweep writes
//! **`BENCH_itr.json`** (workspace root) so CI's bench-regression gate
//! can track the moderated receive path against
//! `bench/baseline_itr.json`.

use std::process::ExitCode;
use twin_bench::{packets, Row, Sweep, DEFAULT_GAP_CYCLES as GAP};
use twindrivers::measure::ModeratedRx;
use twindrivers::{Config, Itr, ShardPolicy, System, SystemOptions};

/// `(nics, burst)` grid rows; the acceptance row is (4, 32).
const GRID: [(usize, usize); 3] = [(1, 32), (4, 8), (4, 32)];

/// ITR sweep values (768-cycle units; 0 = unmoderated). The sweep stops
/// at the ring-capacity knee: past ~2000 units the 127-descriptor RX
/// ring fills before the window opens and the packets-waiting override
/// takes over, so wider windows buy no further interrupt reduction.
const ITR_VALUES: [u32; 4] = [0, 500, 1000, 2000];

/// Moderation windows span several bursts, so the sweep needs enough
/// rounds for steady state regardless of the CI smoke budget.
const MIN_PACKETS: u64 = 384;

fn measure(nics: usize, burst: usize, itr: u32, pkts: u64) -> ModeratedRx {
    let opts = SystemOptions {
        num_nics: nics,
        shard: ShardPolicy::FlowHash,
        itr: Itr::Fixed(itr),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).expect("build");
    sys.measure_rx_moderated(burst, pkts, GAP)
        .expect("sweep point")
}

fn row(m: &ModeratedRx) -> Row {
    Row::new()
        .str("config", "domU-twin")
        .int("nics", m.nics)
        .int("burst", m.burst)
        .int("itr", m.itr)
        .str("mode", "sync")
        .f1("rx_cycles_per_packet", m.breakdown.total())
        .f4("irqs_per_packet", m.irqs_per_packet)
        .int("p50_cycles", m.latency.p50)
        .int("p99_cycles", m.latency.p99)
        .f1("rx_mbps", m.throughput().mbps)
}

fn main() -> ExitCode {
    let pkts = packets().max(MIN_PACKETS);
    let mut sweep = Sweep::new(
        "itr",
        Row::new().int("packets", pkts).int("gap_cycles", GAP),
        "Moderation sweep — ITR x burst x NICs, paced arrivals",
        "repo extension (virtual-time engine); acceptance: >= 4x fewer irqs/pkt at <= 2x p99, burst 32 / 4 NICs",
    );
    // The acceptance row's points, in ITR order (ITR 0 first).
    let mut headline: Vec<ModeratedRx> = Vec::new();
    for (nics, burst) in GRID {
        println!("  domU-twin, {nics} NIC(s), burst {burst}, gap {GAP} cycles:");
        for itr in ITR_VALUES {
            let m = measure(nics, burst, itr, pkts);
            sweep.row(row(&m));
            if (nics, burst) == (4, 32) {
                headline.push(m);
            }
        }
        println!();
    }
    let base = &headline[0];
    // (itr, irq reduction, p99 ratio) of the moderated points that meet
    // both bounds; the acceptance point is the largest reduction.
    let accept = headline[1..]
        .iter()
        .map(|m| {
            let irq_red = base.irqs_per_packet / m.irqs_per_packet.max(1e-9);
            let p99_ratio = m.latency.p99 as f64 / base.latency.p99.max(1) as f64;
            (m.itr, irq_red, p99_ratio)
        })
        .filter(|&(_, irq_red, p99_ratio)| irq_red >= 4.0 && p99_ratio <= 2.0)
        .reduce(|best, p| if p.1 > best.1 { p } else { best });
    let claim = match accept {
        Some((itr, irq_red, p99_ratio)) => format!(
            "itr {itr} cuts irqs/pkt {irq_red:.2}x at p99 ratio {p99_ratio:.2} (acceptance >= 4x at <= 2x)"
        ),
        None => "no ITR point cuts irqs/pkt >= 4x within 2x p99".to_string(),
    };
    sweep.require(accept.is_some(), claim);
    // Allow the flat tail (equal rates), never a rise.
    let monotone = headline
        .windows(2)
        .all(|w| w[1].irqs_per_packet <= w[0].irqs_per_packet + 1e-9);
    sweep.require(
        monotone,
        "irqs/pkt non-increasing along ITR at burst 32 / 4 NICs",
    );
    sweep.finish()
}
