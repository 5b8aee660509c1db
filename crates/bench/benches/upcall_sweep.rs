//! Deferred-upcall sweep: transmit throughput and upcall
//! cycles-to-completion percentiles, sweeping the number of forced
//! upcalls at burst 32 in both upcall modes.
//!
//! Not a paper figure — this extends Figure 10 with the deferred-upcall
//! engine: queued, batch-executed dom0 upcalls with completions turn the
//! per-call switch-pair into a per-flush one. Acceptance: at 4+ forced
//! upcalls the deferred path sustains **≥ 3×** the synchronous Mb/s,
//! while the synchronous path stays the PR 2 regime bit for bit.
//!
//! Besides the human-readable table, the sweep writes
//! **`BENCH_upcall.json`** (workspace root) so CI's bench-regression
//! gate can track both modes against `bench/baseline_upcall.json`.

use std::process::ExitCode;
use twin_bench::{packets, Row, Sweep};
use twindrivers::{throughput, Config, System, SystemOptions, UpcallMode, TESTBED_NICS};

const UPCALL_COUNTS: [usize; 6] = [0, 1, 2, 4, 6, 9];
const BURST: usize = 32;

struct Point {
    upcalls: usize,
    mode: &'static str,
    cycles_per_packet: f64,
    mbps: f64,
    p50: u64,
    p99: u64,
}

fn measure(n: usize, mode: UpcallMode, pkts: u64) -> Point {
    let opts = SystemOptions {
        upcall_count: n,
        upcall_mode: mode,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).expect("build");
    let b = sys.measure_tx_burst(BURST, pkts).expect("sweep point");
    let lat = sys.metrics().histogram("upcall_latency");
    Point {
        upcalls: n,
        mode: match mode {
            UpcallMode::Sync => "sync",
            UpcallMode::Deferred => "deferred",
        },
        cycles_per_packet: b.breakdown.total(),
        mbps: throughput(b.breakdown.total(), TESTBED_NICS).mbps,
        p50: lat.p50,
        p99: lat.p99,
    }
}

fn row(p: &Point) -> Row {
    Row::new()
        .str("config", "domU-twin")
        .int("burst", BURST)
        .int("upcalls", p.upcalls)
        .str("mode", p.mode)
        .f1("tx_cycles_per_packet", p.cycles_per_packet)
        .f1("tx_mbps", p.mbps)
        .int("p50_cycles", p.p50)
        .int("p99_cycles", p.p99)
}

fn main() -> ExitCode {
    let pkts = packets();
    let mut sweep = Sweep::new(
        "upcall",
        Row::new().int("packets", pkts).int("burst", BURST),
        "Upcall sweep — deferred vs synchronous upcalls at burst 32",
        "repo extension (Fig 10, §4.2); acceptance: >= 3x Mb/s at 4+ forced upcalls",
    );
    let mut worst_speedup_4plus = f64::INFINITY;
    for n in UPCALL_COUNTS {
        let sync = measure(n, UpcallMode::Sync, pkts);
        let defer = measure(n, UpcallMode::Deferred, pkts);
        let speedup = defer.mbps / sync.mbps.max(1.0);
        if n >= 4 {
            worst_speedup_4plus = worst_speedup_4plus.min(speedup);
        }
        sweep.row(row(&sync));
        sweep.row(row(&defer));
    }
    println!();
    sweep.require(
        worst_speedup_4plus >= 3.0,
        format_args!("worst deferred/sync speedup at >= 4 upcalls: {worst_speedup_4plus:.2}x (acceptance >= 3x)"),
    );
    sweep.finish()
}
