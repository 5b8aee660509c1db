//! Multi-NIC shard sweep: aggregate RX+TX throughput and amortized
//! cycles/packet, sweeping 1 → 8 NICs at burst 1 / 8 / 32 on the
//! TwinDrivers configuration (round-robin burst sharding).
//!
//! Not a paper figure — this extends the reproduction to the paper's
//! five-NIC-testbed scale (§6.1) and beyond: one driver image serves
//! every NIC, per-device rings/IRQ/softirq/adapter state, and the
//! aggregate is link-limited or CPU-limited per direction, whichever
//! binds first. Acceptance: aggregate RX+TX throughput scales ≥ 3× from
//! 1 to 4 NICs at burst 32.
//!
//! Besides the human-readable table, the sweep writes
//! **`BENCH_shard.json`** (workspace root) so CI's bench-regression gate
//! and future PRs can track the perf trajectory against
//! `bench/baseline_shard.json`.

use std::process::ExitCode;
use twin_bench::{packets, Row, Sweep};
use twindrivers::measure::measure_aggregate_throughput;
use twindrivers::{Config, ShardPolicy, System, SystemOptions};

const NIC_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BURSTS: [usize; 3] = [1, 8, 32];

fn main() -> ExitCode {
    let pkts = packets();
    let mut sweep = Sweep::new(
        "shard",
        Row::new().int("packets", pkts).str("policy", "round-robin"),
        "Shard sweep — aggregate RX+TX throughput vs NIC count",
        "repo extension (testbed §6.1); acceptance: ≥ 3x aggregate from 1 to 4 NICs at burst 32",
    );
    let config = Config::TwinDrivers;
    let mut base_agg32 = 0.0;
    let mut four_agg32 = 0.0;
    println!("  {} (round-robin burst sharding):", config.label());
    for nics in NIC_COUNTS {
        for burst in BURSTS {
            let opts = SystemOptions {
                num_nics: nics,
                shard: ShardPolicy::RoundRobin,
                ..SystemOptions::default()
            };
            let mut sys = System::build_with(config, &opts).expect("build sharded system");
            let a = measure_aggregate_throughput(&mut sys, burst, pkts).expect("sweep point");
            if burst == 32 && nics == 1 {
                base_agg32 = a.aggregate_mbps();
            }
            if burst == 32 && nics == 4 {
                four_agg32 = a.aggregate_mbps();
            }
            sweep.row(
                Row::new()
                    .str("config", config.label())
                    .int("nics", a.nics)
                    .int("burst", a.burst)
                    .f1("tx_cycles_per_packet", a.tx_cycles_per_packet)
                    .f1("rx_cycles_per_packet", a.rx_cycles_per_packet)
                    .f1("tx_mbps", a.tx.mbps)
                    .f1("rx_mbps", a.rx.mbps)
                    .f1("aggregate_mbps", a.aggregate_mbps()),
            );
        }
        println!();
    }
    let scaling = four_agg32 / base_agg32.max(1.0);
    sweep.require(
        scaling >= 3.0,
        format_args!("aggregate scaling 1 -> 4 NICs at burst 32: {scaling:.2}x (acceptance >= 3x)"),
    );
    sweep.finish()
}
