//! Batch-size sweep over the burst datapath: amortized cycles/packet,
//! interrupts/packet and doorbells/packet at burst 1 / 8 / 32 / 128.
//!
//! Not a paper figure — this measures the burst pipeline this repo adds
//! on top of the reproduction (interrupt coalescing and notification
//! amortization in the spirit of Kedia & Bansal's software passthrough
//! and Emmerich et al.'s batching analysis). The headline numbers: on
//! the TwinDrivers configuration, burst 32 must move the same traffic
//! with ≥ 1.3× fewer amortized cycles/packet and ≥ 8× fewer
//! interrupts/packet than burst 1.

use std::process::ExitCode;
use twin_bench::{packets, Row, Sweep};
use twindrivers::measure::BurstMeasurement;
use twindrivers::{Config, System, SystemError};

const BURSTS: [usize; 4] = [1, 8, 32, 128];

type Measure = fn(&mut System, usize, u64) -> Result<BurstMeasurement, SystemError>;

/// One direction of one configuration across [`BURSTS`]; returns the
/// burst-1 and burst-32 points.
fn sweep_direction(
    sweep: &mut Sweep,
    config: Config,
    direction: &str,
    measure: Measure,
) -> [BurstMeasurement; 2] {
    let points: Vec<BurstMeasurement> = BURSTS
        .iter()
        .map(|&b| {
            let mut sys = System::build(config).expect("build");
            measure(&mut sys, b, packets()).expect("sweep point")
        })
        .collect();
    for m in &points {
        sweep.row(
            Row::new()
                .str("config", config.label())
                .str("direction", direction)
                .int("burst", m.burst)
                .f1("amortized_cycles_per_packet", m.breakdown.total())
                .f4("irqs_per_packet", m.irqs_per_packet)
                .f4("doorbells_per_packet", m.doorbells_per_packet)
                .f4("speedup", points[0].breakdown.total() / m.breakdown.total()),
        );
    }
    [points[0].clone(), points[2].clone()]
}

fn main() -> ExitCode {
    let mut sweep = Sweep::new(
        "batch",
        Row::new().int("packets", packets()),
        "Batch sweep — amortized cost vs burst size",
        "repo extension; acceptance: twin burst-32 ≥ 1.3x cycles, ≥ 8x irqs vs burst-1",
    );
    for config in Config::ALL {
        let tx = sweep_direction(&mut sweep, config, "transmit", System::measure_tx_burst);
        let rx = sweep_direction(&mut sweep, config, "receive", System::measure_rx_burst);
        println!();
        if config != Config::TwinDrivers {
            continue;
        }
        for (direction, [b1, b32]) in [("transmit", &tx), ("receive", &rx)] {
            let cycles = b1.breakdown.total() / b32.breakdown.total();
            sweep.require(
                cycles >= 1.3,
                format_args!("twin {direction}: burst 32 is {cycles:.2}x cheaper per packet than burst 1 (acceptance >= 1.3x)"),
            );
        }
        let irqs = rx[0].irqs_per_packet / rx[1].irqs_per_packet.max(1e-9);
        sweep.require(
            irqs >= 8.0,
            format_args!("twin receive: burst 32 takes {irqs:.1}x fewer irqs/pkt than burst 1 (acceptance >= 8x)"),
        );
    }
    sweep.finish()
}
