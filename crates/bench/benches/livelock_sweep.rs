//! Receive-livelock sweep: NAPI-style overload control (interrupt→poll
//! switching + per-guest DRR weights + early drop at admission) vs the
//! uncontrolled per-arrival-interrupt discipline, under an **open-loop**
//! arrival schedule swept from 0.5× to 10× of the calibrated knee.
//!
//! Not a paper figure — the paper's harnesses are closed-loop (netperf
//! paces itself), so they can measure the cost of overload but never
//! the collapse. This sweep fixes the arrival schedule: one burst every
//! `gap` cycles regardless of whether the consumer kept up, which is
//! the regime of Mogul & Ramakrishnan's receive livelock. Without
//! control, every arrival's interrupt reaps frames into per-guest
//! queues that overflow at their cap — all reap/demux work on a capped
//! frame is pure waste — and goodput falls as offered load rises past
//! the knee. With control, the flooded NIC masks its interrupt and is
//! serviced by a budgeted poll; excess frames die free in the ring or
//! at the cheap admission watermark; victims keep their weighted DRR
//! share.
//!
//! Adversarial profiles: `flood_one_guest` (one heavy flow), the same
//! aggregate load as `flow_churn` (flow-id churn defeats flow-affinity
//! state) and `elephant_mice` (bimodal). Victim guests always trickle
//! at a fixed sub-capacity rate — the fairness question is whether the
//! flood's overload leaks into them.
//!
//! Acceptance at 4 NICs / burst 32 / `flood_one_guest`:
//! * controlled goodput at 10× ≥ 70% of its knee (1.0×) goodput;
//! * controlled victim p99 at 10× ≤ 3× its unloaded (0.5×) p99;
//! * uncontrolled goodput falls monotonically past the knee and ends
//!   below 70% of its knee — the collapse the controls exist to stop.
//!
//! Besides the human-readable table, the sweep writes
//! **`BENCH_livelock.json`** (workspace root) so CI's bench-regression
//! gate can track the trajectory against `bench/baseline_livelock.json`.

use std::process::ExitCode;
use twin_bench::{knee_gap, packets, point, Row, Sweep};
use twindrivers::measure::{measure_rx_livelock, LivelockPoint, OverloadProfile};
use twindrivers::net::MacAddr;
use twindrivers::{Config, ShardPolicy, System, SystemOptions};

const NICS: usize = 4;
const BURST: usize = 32;
/// Demux queue cap for both modes (the uncontrolled drop point: every
/// frame reaped and then capped here was pure wasted work).
const QUEUE_CAP: usize = 128;
/// Overload-control knobs (controlled mode only). The poll weight is
/// deliberately much smaller than a knee gap's worth of work so a poll
/// pass (reap + flush) completes well inside a gap — victims are
/// serviced at pass granularity, not once per flood drain.
const NAPI_WEIGHT: usize = 8;
const WATERMARK: usize = 64;
const VICTIM_WEIGHT: u32 = 2;
/// Small DRR quantum (both modes) so a victim's flush turn comes after
/// at most a few flood copies, and a flush round is fine-grained
/// relative to the arrival gap.
const FLUSH_QUANTUM: usize = 8;
/// Offered-load multiples in tenths (5 = 0.5×, 100 = 10×).
const FULL_SWEEP: [u32; 5] = [5, 10, 20, 40, 100];
const SPOT_SWEEP: [u32; 2] = [10, 100];

fn build(controlled: bool) -> System {
    let opts = SystemOptions {
        num_nics: NICS,
        shard: ShardPolicy::FlowHash,
        rx_queue_cap: Some(QUEUE_CAP),
        napi_weight: if controlled { NAPI_WEIGHT } else { 0 },
        rx_backlog_watermark: controlled.then_some(WATERMARK),
        rx_flush_quantum: FLUSH_QUANTUM,
        guest_weights: if controlled {
            vec![(2, VICTIM_WEIGHT), (3, VICTIM_WEIGHT)]
        } else {
            Vec::new()
        },
        // Flight recorder: free when off, zero cycles charged when on —
        // the sweep numbers are bit-identical either way.
        tracing: std::env::var_os("TWIN_TRACE_OUT").is_some(),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).expect("build system");
    // Guest 1 (the primary) is the flood target; 2 and 3 are victims.
    sys.add_guest(MacAddr::for_guest(2))
        .expect("victim guest 2");
    sys.add_guest(MacAddr::for_guest(3))
        .expect("victim guest 3");
    sys
}

fn row(mode: &str, p: &LivelockPoint) -> Row {
    Row::new()
        .str("config", Config::TwinDrivers.label())
        .str("profile", p.profile)
        .str("mode", mode)
        .f1("offered", p.offered())
        .str("guest", "all")
        .int("nics", p.nics)
        .int("burst", p.burst)
        .f1("rx_cycles_per_packet", p.rx_cycles_per_packet)
        .f1("goodput_mbps", p.goodput_mbps)
        .int("offered_frames", p.frames_offered)
        .int("delivered", p.frames_delivered)
        .int("early_drops", p.early_drops)
        .int("queue_drops", p.queue_drops)
        .int("ring_drops", p.ring_drops)
        .int("irqs", p.irqs)
        .int("polls", p.polls)
        .int("victim_delivered", p.victim_delivered)
        .int("victim_p99", p.victim_p99)
}

fn main() -> ExitCode {
    let pkts = packets();
    let mut sweep = Sweep::new(
        "livelock",
        Row::new().int("packets", pkts).str("policy", "flow-hash"),
        "Receive-livelock sweep — NAPI-style overload control vs per-arrival interrupts",
        "repo extension (\u{a7}4.4 softirq discipline; Mogul & Ramakrishnan livelock); acceptance: controlled >= 70% knee goodput and victim p99 <= 3x unloaded at 10x, uncontrolled collapses",
    );
    // Enough bursts that the one-gap window edges don't dominate.
    let bursts = (pkts / BURST as u64).max(10);
    // The knee: a 1.0x open-loop schedule just saturates the
    // uncontrolled consumer.
    let gap = knee_gap(&mut build(false), BURST, 1.0);
    println!("  knee: burst {BURST} every {gap} cycles (4 NICs, flow-hash)\n");

    // flood_one_guest acceptance points: (controlled, offered_x10) → point.
    let mut flood_pts: Vec<((bool, u32), LivelockPoint)> = Vec::new();
    for profile in [
        OverloadProfile::FloodOneGuest,
        OverloadProfile::FlowChurn,
        OverloadProfile::ElephantMice,
    ] {
        let multiples: &[u32] = if profile == OverloadProfile::FloodOneGuest {
            &FULL_SWEEP
        } else {
            &SPOT_SWEEP
        };
        for &controlled in &[false, true] {
            let mode = if controlled {
                "controlled"
            } else {
                "uncontrolled"
            };
            for &x10 in multiples {
                let mut sys = build(controlled);
                let p = measure_rx_livelock(&mut sys, profile, x10, BURST, bursts, gap)
                    .expect("livelock point");
                sweep.row(row(mode, &p));
                if (profile, controlled, x10) == (OverloadProfile::FloodOneGuest, true, 100) {
                    // The controls must be visible at work, not only in
                    // the goodput they buy.
                    let kinds = ["napi_enter", "early_drop"];
                    sweep.require_traced("controlled 10x", &sys.machine.trace, &kinds);
                }
                if profile == OverloadProfile::FloodOneGuest {
                    flood_pts.push(((controlled, x10), p));
                }
            }
            println!();
        }
    }

    let at = |controlled: bool, x10: u32| point(&flood_pts, &(controlled, x10));
    let (ctl_knee, ctl_10x) = (at(true, 10).goodput_mbps, at(true, 100).goodput_mbps);
    let (ctl_unloaded_p99, ctl_10x_p99) = (at(true, 5).victim_p99, at(true, 100).victim_p99);
    let [unc_knee, unc_2x, unc_4x, unc_10x] =
        [10, 20, 40, 100].map(|x10| at(false, x10).goodput_mbps);

    let ctl_frac = ctl_10x / ctl_knee.max(1e-9);
    let p99_ratio = ctl_10x_p99 as f64 / ctl_unloaded_p99.max(1) as f64;
    let unc_frac = unc_10x / unc_knee.max(1e-9);
    sweep.require(
        ctl_frac >= 0.70,
        format_args!("controlled goodput at 10x: {ctl_10x:.0} Mb/s = {:.0}% of knee {ctl_knee:.0} (acceptance >= 70%)", ctl_frac * 100.0),
    );
    sweep.require(
        p99_ratio <= 3.0,
        format_args!("controlled victim p99 at 10x: {ctl_10x_p99} cyc = {p99_ratio:.2}x unloaded {ctl_unloaded_p99} (acceptance <= 3x)"),
    );
    sweep.require(
        unc_2x < unc_knee && unc_4x < unc_2x && unc_10x <= unc_4x,
        format_args!("uncontrolled goodput past knee: {unc_knee:.0} -> {unc_2x:.0} -> {unc_4x:.0} -> {unc_10x:.0} Mb/s (acceptance: monotone fall)"),
    );
    sweep.require(
        unc_frac < 0.70,
        format_args!(
            "uncontrolled goodput at 10x: {:.0}% of knee (acceptance: collapse below 70%)",
            unc_frac * 100.0
        ),
    );
    sweep.finish()
}
