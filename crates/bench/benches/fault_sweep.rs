//! Fault sweep: driver quarantine + live recovery under the three
//! fault classes the paper's §4.5 safety machinery must contain —
//! wild write (SVM reject), wedged ring (corrupted adapter state
//! faulting on the next register access) and infinite loop (VINO-style
//! execution-watchdog budget exhaustion, §4.5.2) — each at two fault
//! rates (1 and 3 episodes per run).
//!
//! Not a paper figure — the paper stops at "the hypervisor survives";
//! this sweep measures what surviving is worth: recovery latency from
//! fault detection to device reset, bounded in-flight loss (one burst
//! per episode on the wire, plus counted queued-upcall and in-flight
//! discards), and blast radius — sibling NICs' goodput against an
//! unfaulted control run over the identical closed-loop schedule.
//! Everything derives from registry deltas (`nic{i}.rx_packets`,
//! `fault.*`) and the recovery log; with `TWIN_TRACE_OUT` set, each
//! class additionally exports a chrome trace whose quarantine→recovery
//! episode renders as an `X` span, and the sweep requires the episode's
//! events in the recorder.
//!
//! Both systems run the *same* sabotaged driver source
//! ([`fault_injected_source`] — the dormant arm-check costs a few
//! instructions per invocation), so the control differs from the
//! faulted run only in never arming the payload. The stock six sweep
//! baselines are untouched: they build the stock driver.
//!
//! Acceptance (per point):
//! * post-recovery goodput on the faulted device ≥ 95% of its
//!   pre-fault window;
//! * sibling goodput within 5% of the unfaulted control (zero
//!   cross-NIC blast radius);
//! * the frames of the aborted bursts (`lost_frames`, an upper bound
//!   on the loss) at most one burst per episode, and the measured
//!   discards (`dropped`) at most those frames and bounded per episode.
//!
//! Besides the human-readable table, the sweep writes
//! **`BENCH_fault.json`** (workspace root) so CI's bench-regression
//! gate can track recovery latency against `bench/baseline_fault.json`
//! (normalized as `recovery_cycles_per_packet` = recovery cycles per
//! frame of the aborted burst, to ride the existing
//! `*_cycles_per_packet` gate machinery).

use std::process::ExitCode;
use twin_bench::{packets, Row, Sweep};
use twindrivers::measure::{fault_injected_source, measure_fault_recovery, FaultClass, FaultPoint};
use twindrivers::{Config, ShardPolicy, System, SystemOptions, UpcallMode};

const NICS: usize = 4;
const BURST: usize = 32;
/// The faulted device; 0, 2, 3 are the siblings whose goodput must not
/// move.
const DEV: u32 = 1;
/// Everything-on configuration: the quarantine path has the most state
/// to tear down — NAPI latches, a deferred-upcall ring with a flush
/// deadline, and grant-mapped zero-copy pools.
const NAPI_WEIGHT: usize = 8;
const FLUSH_DEADLINE: u64 = 200_000;
/// Fault-rate axis: episodes injected per run.
const EPISODE_SWEEP: [u32; 2] = [1, 3];
/// Bound on counted in-flight discards per episode: at most one
/// ring's worth of frames attributed to the dead device plus one
/// upcall ring of queued entries.
const DROP_BOUND_PER_EPISODE: u64 = 256;
/// Flight-recorder event kinds every episode must leave, detection to
/// reset (checked when `TWIN_TRACE_OUT` turns the recorder on).
const EPISODE_EVENTS: [&str; 4] = [
    "fault_detected",
    "quarantine_enter",
    "device_reset",
    "inflight_accounted",
];

fn build(class: FaultClass, traced: bool) -> System {
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(class)),
        num_nics: NICS,
        shard: ShardPolicy::FlowHash,
        zero_copy: true,
        napi_weight: NAPI_WEIGHT,
        upcall_mode: UpcallMode::Deferred,
        upcall_flush_deadline_cycles: Some(FLUSH_DEADLINE),
        // Flight recorder: free when off, zero cycles charged when on —
        // the sweep numbers are bit-identical either way.
        tracing: traced && std::env::var_os("TWIN_TRACE_OUT").is_some(),
        ..SystemOptions::default()
    };
    System::build_with(Config::TwinDrivers, &opts).expect("build system")
}

fn row(p: &FaultPoint) -> Row {
    Row::new()
        .str("config", Config::TwinDrivers.label())
        .str("profile", p.class)
        .str("mode", format_args!("ep{}", p.episodes))
        .int("nics", p.nics)
        .int("burst", p.burst)
        .f1(
            "recovery_cycles_per_packet",
            p.recovery_cycles as f64 / p.episodes.max(1) as f64 / BURST as f64,
        )
        .int("recovery_cycles", p.recovery_cycles)
        .int("replayed", p.replayed)
        .int("dropped", p.dropped)
        .int("lost_frames", p.lost_frames)
        .int("revoked_mappings", p.revoked_mappings)
        .int("pre_delivered", p.pre_delivered)
        .int("post_delivered", p.post_delivered)
        .int("sibling_delivered", p.sibling_delivered)
        .int("sibling_control", p.sibling_control)
        .f1("recovery_pct", p.recovery_frac() * 100.0)
        .f1("sibling_pct", p.sibling_frac() * 100.0)
}

fn main() -> ExitCode {
    let pkts = packets();
    let mut sweep = Sweep::new(
        "fault",
        Row::new().int("packets", pkts).str("policy", "flow-hash"),
        "Fault sweep — driver quarantine + live recovery per fault class",
        "\u{a7}4.5 safety (SVM reject, wedged state, \u{a7}4.5.2 watchdog); acceptance: recovery >= 95% pre-fault goodput, siblings within 5% of unfaulted control, loss bounded per episode",
    );
    // Window length per phase: enough rounds that one round's quantum
    // effects don't dominate the pre/post goodput comparison.
    let rounds = (pkts / (BURST * NICS) as u64).max(2);
    println!("  schedule: {rounds} rounds x {NICS} devices x burst {BURST} per window, faulting dev {DEV}\n");

    for class in FaultClass::ALL {
        for &episodes in &EPISODE_SWEEP {
            let mut sys = build(class, true);
            let mut control = build(class, false);
            let p =
                measure_fault_recovery(&mut sys, &mut control, DEV, class, rounds, BURST, episodes)
                    .expect("fault point");
            sweep.row(row(&p));
            let n = u64::from(episodes);
            sweep.require(
                p.recovery_frac() >= 0.95
                    && (0.95..=1.05).contains(&p.sibling_frac())
                    && p.lost_frames <= n * BURST as u64
                    && p.dropped <= p.lost_frames
                    && p.dropped <= n * DROP_BOUND_PER_EPISODE,
                format_args!(
                    "{class} ep{episodes}: recovery {:.1}% (>= 95%), siblings {:.1}% (95..105%), armed {} (<= {}), discards {} (<= armed, <= {})",
                    p.recovery_frac() * 100.0,
                    p.sibling_frac() * 100.0,
                    p.lost_frames,
                    n * BURST as u64,
                    p.dropped,
                    n * DROP_BOUND_PER_EPISODE
                ),
            );
            sweep.require_traced(
                format_args!("{class} ep{episodes}"),
                &sys.machine.trace,
                &EPISODE_EVENTS,
            );
        }
        println!();
    }
    sweep.finish()
}
