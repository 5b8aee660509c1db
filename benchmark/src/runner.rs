//! Runs one [`Scenario`] on a fresh `System`, through public entry
//! points only, and records what the checker and the metrics need: the
//! registry delta over the measured window, host time of each stage, the
//! delivered logs and the end state.

use crate::spans::Spans;
use crate::workloads::{Op, Scenario};
use std::collections::BTreeMap;
use std::time::Instant;
use twindrivers::net::{Frame, MacAddr};
use twindrivers::trace::MetricSet;
use twindrivers::xen::{DomId, DomainKind};
use twindrivers::{System, SystemError};

/// Slices the measured window's host time is recorded in.
pub const SLICES: usize = 256;

/// Endpoint key of the dom0 / native stack in [`Observed::delivered`]
/// (guests are keyed by domain id).
pub const HOST_STACK: u32 = 0;

/// Everything observed from outside over one scenario's measured window.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    /// Host ns for `build_with` + `add_guest`.
    pub build_ns: u64,
    /// Host ns for the warm-up calls.
    pub warm_ns: u64,
    /// Host ns of the measured window (snapshots excluded), cut into up
    /// to [`SLICES`] runs of consecutive calls. Slice `k` is the same
    /// work in every pass, so the fastest time it ever took estimates
    /// the quiet-machine floor.
    pub slice_ns: Vec<u64>,
    /// Host ns of the two `metrics()` snapshots bounding the window.
    pub snapshot_ns: u64,
    /// Registry counters at window close minus window open.
    pub delta: MetricSet,
    /// Registry at window close (gauges: queued frames).
    pub at_close: MetricSet,
    /// Interpreted instructions in the window.
    pub insns: u64,
    /// Virtual cycles the window spans (charged + idle).
    pub window_cycles: u64,
    /// Closed loop: virtual cycles each call took.
    pub call_cycles: Vec<u64>,
    /// Open loop: how far past its scheduled instant each arrival was
    /// injected (the consumer overran the gap), in virtual cycles.
    pub lateness: Vec<u64>,
    /// Arrival→delivery samples, all guests.
    pub latency_all: Vec<u64>,
    /// Arrival→delivery samples, victim guests only.
    pub latency_victims: Vec<u64>,
    /// Frames delivered in the window, per endpoint, in delivery order.
    pub delivered: BTreeMap<u32, Vec<Frame>>,
    /// Frames that reached the wire in the window (NIC by NIC).
    pub wire: Vec<Frame>,
    /// Frames sitting unreaped in RX rings at window close.
    pub ring_pending: u64,
    /// What the calls themselves reported as accepted/delivered.
    pub accepted: u64,
}

/// The delivery log of every measured endpoint: the guests' for a guest
/// configuration (which also passes frames through the dom0 stack's
/// log), else the dom0 / native stack's.
fn delivered_logs<'a>(sc: &Scenario, sys: &'a System) -> Vec<(u32, &'a [Frame])> {
    if !sc.guest() {
        return vec![(HOST_STACK, &sys.world.kernel.rx_delivered)];
    }
    sys.world
        .xen
        .iter()
        .flat_map(|x| &x.domains)
        .filter(|d| d.kind == DomainKind::Guest)
        .map(|d| (d.id.0, d.rx_delivered.as_slice()))
        .collect()
}

/// Builds, warms and measures `sc`. `recorder` turns the product's own
/// flight recorder on (`SystemOptions::tracing`) — it must not move any
/// simulated statistic.
pub fn run_scenario(
    sc: &Scenario,
    spans: &mut Spans,
    recorder: bool,
) -> Result<Observed, SystemError> {
    let mut obs = Observed::default();

    let t = Instant::now();
    let s = spans.begin("core.build_with");
    let mut opts = sc.opts.clone();
    opts.tracing = recorder;
    let mut sys = System::build_with(sc.config, &opts)?;
    for g in &sc.extra_guests {
        sys.add_guest(MacAddr::for_guest(*g))?;
    }
    if sc.open_loop() {
        sys.track_guest_latency();
    }
    spans.end(s);
    obs.build_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let s = spans.begin("core.warmup");
    for op in &sc.warm {
        match op {
            Op::Rx(frames) => sys.receive_burst(frames)?,
            Op::Tx(n) => sys.transmit_burst(*n)?,
            Op::Arrive { .. } => unreachable!("warm-up is closed loop"),
        };
    }
    sys.take_wire_frames();
    spans.end(s);
    obs.warm_ns = t.elapsed().as_nanos() as u64;

    let before: BTreeMap<u32, usize> = delivered_logs(sc, &sys)
        .into_iter()
        .map(|(ep, log)| (ep, log.len()))
        .collect();
    let t = Instant::now();
    let s = spans.begin("core.metrics_snapshot");
    let m0 = sys.metrics();
    spans.end(s);
    obs.snapshot_ns = t.elapsed().as_nanos() as u64;
    let insns0 = sys.machine.meter.insns();
    let open = sys.now_cycles();

    let mut mark = Instant::now();
    let slices = SLICES.min(sc.ops.len());
    let mut last_at = 0u64;
    for (i, op) in sc.ops.iter().enumerate() {
        match op {
            Op::Rx(frames) => {
                let c0 = sys.now_cycles();
                let s = spans.begin("core.receive_burst");
                obs.accepted += sys.receive_burst(frames)? as u64;
                spans.end(s);
                obs.call_cycles.push(sys.now_cycles() - c0);
            }
            Op::Tx(n) => {
                let c0 = sys.now_cycles();
                let s = spans.begin("core.transmit_burst");
                obs.accepted += sys.transmit_burst(*n)? as u64;
                spans.end(s);
                obs.call_cycles.push(sys.now_cycles() - c0);
            }
            Op::Arrive { at, frames } => {
                let due = open + at;
                let s = spans.begin("core.rx_open_loop_service");
                sys.rx_open_loop_service(due)?;
                spans.end(s);
                obs.lateness.push(sys.now_cycles().saturating_sub(due));
                let s = spans.begin("core.rx_open_loop_arrival");
                obs.accepted += sys.rx_open_loop_arrival(frames, due)? as u64;
                spans.end(s);
                last_at = *at;
            }
        }
        if i + 1 == sc.ops.len() && sc.open_loop() {
            let s = spans.begin("core.rx_open_loop_service");
            sys.rx_open_loop_service(open + last_at + sc.tail_cycles)?;
            spans.end(s);
        }
        // A slice ends where `i + 1` calls cross the next 1/slices mark.
        if (i + 1) * slices / sc.ops.len() != i * slices / sc.ops.len() {
            let now = Instant::now();
            obs.slice_ns.push((now - mark).as_nanos() as u64);
            mark = now;
        }
    }

    obs.window_cycles = sys.now_cycles() - open;
    obs.insns = sys.machine.meter.insns() - insns0;
    let t = Instant::now();
    let s = spans.begin("core.metrics_snapshot");
    obs.at_close = sys.metrics();
    spans.end(s);
    obs.snapshot_ns += t.elapsed().as_nanos() as u64;
    obs.delta = obs.at_close.delta_since(&m0);

    obs.latency_all = sys.rx_latency_samples().to_vec();
    for g in &sc.extra_guests {
        obs.latency_victims
            .extend_from_slice(sys.guest_rx_latency(DomId(*g)));
    }
    obs.delivered = delivered_logs(sc, &sys)
        .into_iter()
        .map(|(ep, log)| (ep, log[before[&ep]..].to_vec()))
        .filter(|(_, new)| !new.is_empty())
        .collect();
    obs.wire = sys.take_wire_frames();
    obs.ring_pending = sys
        .world
        .nics
        .iter()
        .map(|n| u64::from(n.rx_pending()))
        .sum();
    Ok(obs)
}

/// The simulated statistics of one window as a flat, comparable list:
/// every registry counter and histogram summary except the flight
/// recorder's own (`trace.*`, which legitimately differ when it is on),
/// plus instruction count, window length and an order-sensitive digest
/// of every delivered and transmitted frame. Two runs of the same
/// schedule must produce identical fingerprints.
pub fn fingerprint(obs: &Observed) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = obs
        .delta
        .counters()
        .filter(|(k, _)| !k.starts_with("trace."))
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for (k, h) in obs.delta.histograms() {
        out.push((format!("{k}.count"), h.count));
        out.push((format!("{k}.p50"), h.p50));
        out.push((format!("{k}.p99"), h.p99));
        out.push((format!("{k}.max"), h.max));
    }
    out.push(("insns".into(), obs.insns));
    out.push(("window_cycles".into(), obs.window_cycles));
    out.push(("ring_pending".into(), obs.ring_pending));
    let digest = |frames: &[Frame]| {
        frames.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, f| {
            (h ^ (u64::from(f.flow) << 40) ^ f.seq ^ (u64::from(f.payload_len) << 20))
                .wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    for (ep, frames) in &obs.delivered {
        out.push((format!("delivered.{ep}.digest"), digest(frames)));
    }
    out.push(("wire.digest".into(), digest(&obs.wire)));
    out
}
