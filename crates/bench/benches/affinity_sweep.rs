//! Scheduler-aware flow-affinity sweep: cache-local NIC placement
//! driven by the vCPU run/sleep model vs static flow hashing, at 4
//! NICs / burst 32 across run duty cycles.
//!
//! Not a paper figure — TwinDrivers (§5) pins one netperf guest per
//! NIC and never migrates, so the paper cannot observe the cost of a
//! frame landing on a NIC whose softirq CPU is not the owning guest's
//! vCPU. This sweep models exactly that: four guests, each with one
//! flow and one pinned vCPU that is deliberately placed on a
//! *different* CPU than the flow's hash-chosen NIC softirq. Under
//! `ShardPolicy::FlowHash` every delivery pays the cold sTLB/cache
//! refill (`Term::ColdDeliveryRefill`); under
//! `ShardPolicy::Affinity` the demux re-places each flow on a NIC
//! local to the guest's vCPU, so every delivery is warm. Duty cycles
//! below 100% additionally exercise the DRR sleep-skip: sleeping
//! guests' frames defer to the wakeup edge (bounded by the scheduler
//! period), for both policies alike.
//!
//! Acceptance at 4 NICs / burst 32 / 50% duty:
//! * Affinity RX cycles/packet ≥ 1.2× better than FlowHash;
//! * Affinity victim p99 ≤ 1.5× FlowHash's (sleep deferral dominates
//!   both; affinity must not trade tail latency for throughput);
//! * zero drops and zero per-(guest, flow) reorders at every point.
//!
//! Besides the human-readable table, the sweep writes
//! **`BENCH_affinity.json`** (workspace root) so CI's bench-regression
//! gate can track the trajectory against `bench/baseline_affinity.json`.

use std::process::ExitCode;
use twin_bench::{knee_gap, packets, point, Row, Sweep};
use twindrivers::measure::{balanced_flow_set, measure_rx_affinity, AffinityPoint};
use twindrivers::net::MacAddr;
use twindrivers::sched::CPUS;
use twindrivers::system::DomId;
use twindrivers::{Config, ShardPolicy, System, SystemOptions};

const NICS: usize = 4;
const BURST: usize = 32;
/// Scheduler period halves, in cycles: at 50% duty a vCPU runs
/// 300k cycles then sleeps 300k. Long against the arrival gap (tens of
/// bursts land per phase) and short against the sweep span.
const PHASE_CYCLES: u64 = 300_000;
/// Run duty cycles swept, in percent.
const DUTIES: [u32; 2] = [100, 50];

fn build(policy: ShardPolicy) -> System {
    let opts = SystemOptions {
        num_nics: NICS,
        shard: policy,
        // Pure interrupt-driven reap, no caps, no watermark: every
        // arrival is reaped immediately, so a drop-free run is the
        // only correct outcome and any drop fails the acceptance.
        tracing: std::env::var_os("TWIN_TRACE_OUT").is_some(),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).expect("build system");
    for g in 2..=4u32 {
        sys.add_guest(MacAddr::for_guest(g)).expect("add guest");
    }
    sys
}

/// `(guest, mac, flow)` arrival plan, as `measure_rx_affinity` takes it.
type Traffic = Vec<(DomId, MacAddr, u32)>;
/// `(guest, cpu, run cycles, sleep cycles)` vCPU registrations.
type Vcpus = Vec<(DomId, u32, u64, u64)>;

/// One flow per guest, hash-balanced across the NICs, with each
/// guest's vCPU pinned one CPU *away* from its flow's hash-chosen NIC
/// softirq CPU — the adversarial placement FlowHash cannot fix.
fn plan(duty: u32) -> (Traffic, Vcpus) {
    let flows = balanced_flow_set(NICS as u32, 1);
    let mut traffic = Vec::new();
    let mut vcpus = Vec::new();
    for (i, &flow) in flows.iter().enumerate() {
        let gid = DomId(i as u32 + 1);
        let cpu = (ShardPolicy::flow_hash_dev(flow, NICS as u32) + 1) % CPUS;
        let (run, sleep) = match duty {
            100 => (PHASE_CYCLES, 0),
            d => {
                let run = PHASE_CYCLES * 2 * u64::from(d) / 100;
                (run, PHASE_CYCLES * 2 - run)
            }
        };
        traffic.push((gid, MacAddr::for_guest(gid.0), flow));
        vcpus.push((gid, cpu, run, sleep));
    }
    (traffic, vcpus)
}

fn row(p: &AffinityPoint) -> Row {
    Row::new()
        .str("config", Config::TwinDrivers.label())
        .str("policy", p.policy)
        .int("duty", p.duty_pct)
        .int("nics", p.nics)
        .int("burst", p.burst)
        .f1("rx_cycles_per_packet", p.rx_cycles_per_packet)
        .int("offered_frames", p.frames_offered)
        .int("delivered", p.frames_delivered)
        .int("cold_deliveries", p.cold_deliveries)
        .int("placements", p.placements)
        .int("wakes", p.wakes)
        .int("early_drops", p.early_drops)
        .int("queue_drops", p.queue_drops)
        .int("ring_drops", p.ring_drops)
        .int("reorders", p.reorders)
        .int("victim_p99", p.victim_p99)
}

fn main() -> ExitCode {
    let pkts = packets();
    let mut sweep = Sweep::new(
        "affinity",
        Row::new().int("packets", pkts),
        "Scheduler-affinity sweep — cache-local NIC placement vs static flow hashing",
        "repo extension (\u{a7}4.4 demux + \u{a7}5 per-NIC guest pinning); acceptance: affinity >= 1.2x cycles/packet vs flow-hash at 50% duty, victim p99 <= 1.5x, zero drops/reorders",
    );
    let bursts = (pkts / BURST as u64).max(10);
    // Twice the knee gap: headroom so the consumer keeps up even while
    // paying cold refills — the sweep measures delivery cost, not
    // overload goodput.
    let gap = knee_gap(&mut build(ShardPolicy::FlowHash), BURST, 2.0);
    println!("  schedule: burst {BURST} every {gap} cycles (4 NICs, 4 CPUs, adversarial vCPU placement)\n");

    // (policy label, duty) → point, for the acceptance comparisons.
    let mut pts: Vec<((&str, u32), AffinityPoint)> = Vec::new();
    for &duty in &DUTIES {
        for (policy, label) in [
            (ShardPolicy::FlowHash, "flowhash"),
            (ShardPolicy::Affinity, "affinity"),
        ] {
            let mut sys = build(policy);
            let (traffic, vcpus) = plan(duty);
            let p =
                measure_rx_affinity(&mut sys, &traffic, &vcpus, label, duty, BURST, bursts, gap)
                    .expect("affinity point");
            sweep.row(row(&p));
            if (policy, duty) == (ShardPolicy::Affinity, 50) {
                let kinds = ["affinity_place", "vcpu_run"];
                sweep.require_traced("affinity 50% duty", &sys.machine.trace, &kinds);
            }
            pts.push(((label, duty), p));
        }
        println!();
    }

    let fh = point(&pts, &("flowhash", 50));
    let af = point(&pts, &("affinity", 50));
    let ratio = fh.rx_cycles_per_packet / af.rx_cycles_per_packet.max(1e-9);
    let p99_ratio = af.victim_p99 as f64 / fh.victim_p99.max(1) as f64;
    sweep.require(
        ratio >= 1.2,
        format_args!(
            "affinity vs flow-hash at 50% duty: {:.0} vs {:.0} cycles/packet = {ratio:.2}x (acceptance >= 1.2x)",
            af.rx_cycles_per_packet, fh.rx_cycles_per_packet
        ),
    );
    sweep.require(
        p99_ratio <= 1.5,
        format_args!(
            "affinity victim p99 at 50% duty: {} cyc = {p99_ratio:.2}x flow-hash {} (acceptance <= 1.5x)",
            af.victim_p99, fh.victim_p99
        ),
    );
    for (_, p) in &pts {
        let drops = p.early_drops + p.queue_drops + p.ring_drops;
        sweep.require(
            drops == 0 && p.reorders == 0 && p.frames_delivered == p.frames_offered,
            format_args!(
                "{} duty {}%: {drops} drops, {} reorders, {} of {} delivered (acceptance: none, none, all)",
                p.policy, p.duty_pct, p.reorders, p.frames_delivered, p.frames_offered
            ),
        );
    }
    sweep.finish()
}
