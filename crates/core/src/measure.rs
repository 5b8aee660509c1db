//! Measurement: the paper's per-packet cycle breakdowns, the
//! cycles-to-throughput conversion every figure uses, and the evaluation
//! harnesses (`measure_*`) behind the figure benches and the gated
//! sweeps.
//!
//! Every harness is the same skeleton — warm up, open a measurement
//! `Window`, run a schedule, close the window, fill a point struct — so
//! the skeleton exists once: `warm_rx_rings` / `warm_tx`, the `Window`,
//! and `open_loop_schedule` for the harnesses whose arrivals do not wait
//! for the consumer. The harnesses drive the pipeline through its entry
//! points only; they read results and touch no pipeline state.

use crate::outcome::{endpoints, reorders};
use crate::system::{ShardPolicy, System, SystemError, MAX_BURST};
use std::collections::BTreeMap;
use twin_machine::CostDomain;
use twin_net::{wire_bits, Frame, MacAddr, MTU};
use twin_trace::{HistogramSummary, MetricSet};
use twin_xen::{DomId, DomainKind};

/// Modeled CPU frequency — the paper's 3.0 GHz Xeon.
pub const CPU_HZ: f64 = 3.0e9;

/// Number of gigabit NICs in the paper's testbed.
pub const TESTBED_NICS: u32 = 5;

/// Per-packet cycle breakdown in the paper's four categories
/// (Figures 7 and 8).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Cycles per packet per category.
    pub per_domain: BTreeMap<CostDomain, f64>,
    /// Packets measured.
    pub packets: u64,
    /// Occurrence counts (total, not per packet), each under the name
    /// of its `event.<name>` registry key.
    pub events: BTreeMap<String, u64>,
}

impl Breakdown {
    /// Cycles per packet for one category.
    pub fn cycles(&self, d: CostDomain) -> f64 {
        self.per_domain.get(&d).copied().unwrap_or(0.0)
    }

    /// Count of the occurrence `event.<name>` (0 for a name that is none).
    pub fn event(&self, name: &str) -> u64 {
        self.events.get(name).copied().unwrap_or(0)
    }

    /// Total cycles per packet.
    pub fn total(&self) -> f64 {
        self.per_domain.values().sum()
    }

    /// Renders one figure-style row: `label total dom0 domU Xen e1000`.
    pub fn row(&self, label: &str) -> String {
        format!(
            "{label:>10}  total {:>8.0}   dom0 {:>8.0}   domU {:>8.0}   Xen {:>8.0}   e1000 {:>8.0}",
            self.total(),
            self.cycles(CostDomain::Dom0),
            self.cycles(CostDomain::DomU),
            self.cycles(CostDomain::Xen),
            self.cycles(CostDomain::Driver),
        )
    }
}

/// One point of a batch-size sweep: amortized per-packet cost and
/// notification rates at a fixed burst size.
#[derive(Clone, Debug)]
pub struct BurstMeasurement {
    /// Burst size measured.
    pub burst: usize,
    /// Per-packet cycle breakdown, amortized over the burst.
    pub breakdown: Breakdown,
    /// Hardware interrupts dispatched per packet (receive side; 1.0 at
    /// burst 1, ~1/N with N-frame coalescing).
    pub irqs_per_packet: f64,
    /// `TDT` doorbell writes per packet (transmit side).
    pub doorbells_per_packet: f64,
}

/// Capacity of the receive-latency reservoir held by a `System`: far
/// above any single measurement window's sample count (the sweeps
/// measure hundreds of frames per point), so the committed sweeps and
/// tests see exact percentiles, while an arbitrarily long paced run
/// stays at a fixed memory footprint.
pub const RX_LATENCY_RESERVOIR: usize = 65_536;

/// Result of converting a per-packet cost into netperf-style throughput.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Throughput {
    /// Achieved throughput in Mb/s.
    pub mbps: f64,
    /// CPU utilisation in [0, 1] (1.0 = saturated).
    pub cpu_util: f64,
}

/// Converts cycles/packet into aggregate TCP throughput over `nics`
/// gigabit links, netperf style: the CPU processes packets at
/// `CPU_HZ / cpp`; throughput is link-limited or CPU-limited, whichever
/// binds first (this is how the paper's Linux transmit saturates 5 NICs
/// at 76.9% CPU while every Xen configuration is CPU-bound).
pub fn throughput(cpp: f64, nics: u32) -> Throughput {
    let bits = wire_bits(MTU) as f64;
    let link_mbps = nics as f64 * 1000.0;
    let cpu_pps = CPU_HZ / cpp.max(1.0);
    let cpu_mbps = cpu_pps * bits / 1e6;
    if cpu_mbps >= link_mbps {
        Throughput {
            mbps: link_mbps,
            cpu_util: link_mbps / cpu_mbps,
        }
    } else {
        Throughput {
            mbps: cpu_mbps,
            cpu_util: 1.0,
        }
    }
}

/// One measurement window. Opening clears the latency reservoirs (a
/// histogram cannot be differenced) and snapshots the registry; closing
/// takes the registry's change since. Every counter is monotone, so that
/// one delta is everything a point struct needs — the per-packet
/// [`Breakdown`], the event rates, the drops, the latency percentiles —
/// and no harness keeps `*_before` locals.
struct Window {
    opened: MetricSet,
}

impl Window {
    fn open(sys: &mut System) -> Window {
        sys.reset_measurement();
        Window {
            opened: sys.metrics(),
        }
    }

    fn close(self, sys: &System) -> Measured {
        Measured {
            delta: sys.metrics().delta_since(&self.opened),
        }
    }
}

/// What a closed [`Window`] saw.
struct Measured {
    /// Registry change over the window (histograms are the window's own:
    /// the reservoirs were cleared when it opened).
    delta: MetricSet,
}

impl Measured {
    /// Charged cycles amortized over `packets`, with the events counted.
    fn breakdown(&self, packets: u64) -> Breakdown {
        let cycles = |d: CostDomain| self.delta.counter(&format!("meter.cycles.{}", d.label()));
        let per_domain = CostDomain::ALL.map(|d| (d, cycles(d) as f64 / packets.max(1) as f64));
        let events = self.delta.counters_with_prefix("event.");
        Breakdown {
            per_domain: per_domain.into(),
            packets,
            events: events
                .map(|(key, n)| (key["event.".len()..].into(), n))
                .collect(),
        }
    }

    /// Count of the occurrence `event.<name>` over the window.
    fn event(&self, name: &str) -> u64 {
        self.delta.counter(&format!("event.{name}"))
    }

    fn per_packet(&self, name: &str, packets: u64) -> f64 {
        self.event(name) as f64 / packets.max(1) as f64
    }

    fn burst(&self, burst: usize, packets: u64) -> BurstMeasurement {
        BurstMeasurement {
            burst,
            breakdown: self.breakdown(packets),
            irqs_per_packet: self.per_packet("irq", packets),
            doorbells_per_packet: self.per_packet("doorbell", packets),
        }
    }

    /// Arrival-to-delivery latency of the frames completed in the
    /// window.
    fn latency(&self) -> HistogramSummary {
        self.delta.histogram("rx_latency")
    }

    /// One guest's `guest{g}.{field}` counter change.
    fn guest(&self, g: DomId, field: &str) -> u64 {
        self.delta.counter(&format!("guest{}.{field}", g.0))
    }

    /// Worst per-guest p99 arrival-to-delivery latency among `guests`
    /// (needs [`System::track_guest_latency`]).
    fn worst_p99(&self, guests: impl Iterator<Item = DomId>) -> u64 {
        guests
            .map(|g| {
                self.delta
                    .histogram(&format!("rx_latency.guest{}", g.0))
                    .p99
            })
            .max()
            .unwrap_or(0)
    }
}

/// Sum of `set`'s `{prefix}{n}.{field}` over every `n` (all guests'
/// drops, all NICs' missed frames).
pub(crate) fn total(set: &MetricSet, prefix: &str, field: &str) -> u64 {
    indexed(set, prefix, field).map(|(_, v)| v).sum()
}

/// `(n, value)` of every counter named `{prefix}{n}.{field}`.
fn indexed<'a>(
    set: &'a MetricSet,
    prefix: &'a str,
    field: &'a str,
) -> impl Iterator<Item = (u32, u64)> + 'a {
    set.counters_with_prefix(prefix)
        .filter_map(move |(key, v)| {
            let (n, f) = key[prefix.len()..].split_once('.')?;
            (f == field).then_some((n.parse().ok()?, v))
        })
}

/// Closed-loop receive warm-up: more than one full RX-ring cycle (128
/// descriptors) per NIC, because each ring's initial dom0-pool buffers
/// are gradually replaced by hypervisor-reserved ones and steady state
/// begins only after the swap completes.
fn warm_rx_rings(sys: &mut System) -> Result<(), SystemError> {
    for _ in 0..160 * sys.nic_count() {
        sys.receive_one()?;
    }
    Ok(())
}

/// Transmit warm-up: fills the stlb and pools of every NIC (the
/// round-robin rotation spreads the packets across all devices).
fn warm_tx(sys: &mut System) -> Result<(), SystemError> {
    for _ in 0..32 * sys.nic_count() {
        sys.transmit_one()?;
    }
    sys.take_wire_frames();
    Ok(())
}

/// The widest per-device `ITR` setting. The sweeps program a uniform
/// value; with heterogeneous ones a point is labeled by the device that
/// dominates the latency tail.
fn widest_itr(sys: &System) -> u32 {
    sys.world
        .nics
        .iter()
        .map(twin_nic::Nic::itr)
        .max()
        .unwrap_or(0)
}

/// Source MAC of the open-loop harnesses' traffic.
const OPEN_LOOP_SRC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0xee]);

/// First sequence number of the open-loop harnesses' traffic — clear of
/// every closed-loop generator, so `(flow, seq)` keys stay unique.
const OPEN_LOOP_SEQ0: u64 = 1_000_000;

/// Runs one **open-loop** arrival schedule: `bursts` bursts land
/// `gap_cycles` apart starting now, whether or not the consumer kept up.
/// The consumer gets exactly the gap before each arrival
/// ([`System::rx_open_loop_service`]); the arrival itself charges only
/// what hardware forces at that instant
/// ([`System::rx_open_loop_arrival`]). The last burst gets one more gap
/// of service, then the schedule closes. Returns the frames offered.
fn open_loop_schedule(
    sys: &mut System,
    bursts: u64,
    gap_cycles: u64,
    mut next_burst: impl FnMut() -> Vec<Frame>,
) -> Result<u64, SystemError> {
    let t0 = sys.now_cycles();
    let mut offered = 0u64;
    for i in 0..bursts {
        let arrival = t0 + i * gap_cycles;
        sys.rx_open_loop_service(arrival)?;
        let frames = next_burst();
        offered += frames.len() as u64;
        sys.rx_open_loop_arrival(&frames, arrival)?;
    }
    sys.rx_open_loop_service(t0 + bursts * gap_cycles)?;
    Ok(offered)
}

impl System {
    /// Measures the per-packet cycle breakdown for `packets` transmits
    /// along the exact per-packet path — [`System::measure_tx_burst`] at
    /// burst 1, since [`System::transmit_one`] is a burst of one.
    ///
    /// # Errors
    ///
    /// Propagates per-packet errors.
    pub fn measure_tx(&mut self, packets: u64) -> Result<Breakdown, SystemError> {
        Ok(self.measure_tx_burst(1, packets)?.breakdown)
    }

    /// Measures the per-packet cycle breakdown for `packets` receives —
    /// [`System::measure_rx_burst`] at burst 1.
    ///
    /// # Errors
    ///
    /// Propagates per-packet errors.
    pub fn measure_rx(&mut self, packets: u64) -> Result<Breakdown, SystemError> {
        Ok(self.measure_rx_burst(1, packets)?.breakdown)
    }

    /// Measures amortized transmit cost at a fixed burst size: at least
    /// `packets` packets move in bursts of `burst`, and the breakdown
    /// divides total cycles by the packets actually sent.
    ///
    /// # Errors
    ///
    /// Propagates per-burst errors; [`SystemError::Build`] if the ring
    /// stops accepting packets entirely.
    pub fn measure_tx_burst(
        &mut self,
        burst: usize,
        packets: u64,
    ) -> Result<BurstMeasurement, SystemError> {
        let burst = burst.clamp(1, MAX_BURST);
        warm_tx(self)?;
        let window = Window::open(self);
        let mut sent = 0u64;
        while sent < packets {
            let n = burst.min((packets - sent) as usize);
            let accepted = self.transmit_burst(n)?;
            if accepted == 0 {
                return Err(SystemError::Build("transmit ring wedged".into()));
            }
            sent += accepted as u64;
        }
        Ok(window.close(self).burst(burst, sent))
    }

    /// Measures amortized receive cost at a fixed burst size (see
    /// [`System::measure_tx_burst`]).
    ///
    /// # Errors
    ///
    /// Propagates per-burst errors.
    pub fn measure_rx_burst(
        &mut self,
        burst: usize,
        packets: u64,
    ) -> Result<BurstMeasurement, SystemError> {
        let burst = burst.clamp(1, MAX_BURST);
        warm_rx_rings(self)?;
        let window = Window::open(self);
        let mut got = 0u64;
        while got < packets {
            let n = burst.min((packets - got) as usize);
            let frames: Vec<Frame> = (0..n).map(|_| self.next_rx_frame()).collect();
            got += self.receive_burst(&frames)? as u64;
        }
        Ok(window.close(self).burst(burst, got))
    }

    /// Measures the receive path under interrupt moderation with a
    /// paced arrival process: bursts of `burst` frames are scheduled
    /// `gap_cycles` of virtual time apart (wire pacing), frames are
    /// stamped with their *scheduled* arrival, and the ITR timer decides
    /// when each device's latched work is reaped; the window ends once
    /// every moderated delivery has drained, so all injected frames
    /// complete. Reports amortized cycles/packet, interrupts/packet and
    /// arrival-to-delivery latency percentiles — the latency/throughput
    /// trade-off the moderation sweep plots.
    ///
    /// With ITR 0 every burst is reaped on arrival (the PR 3 behaviour);
    /// when the offered load outruns the unmoderated per-interrupt cost,
    /// the backlog shows up as completion latency — the receive-livelock
    /// regime interrupt moderation exists to fix.
    ///
    /// # Errors
    ///
    /// Propagates per-burst errors.
    pub fn measure_rx_moderated(
        &mut self,
        burst: usize,
        packets: u64,
        gap_cycles: u64,
    ) -> Result<ModeratedRx, SystemError> {
        let burst = burst.clamp(1, MAX_BURST);
        warm_rx_rings(self)?;
        self.drain_moderated()?;
        let window = Window::open(self);
        let injected = paced_rx_inject(self, burst, packets, gap_cycles, &[])?;
        self.drain_moderated()?;
        let m = window.close(self);
        Ok(ModeratedRx {
            nics: self.nic_count() as u32,
            burst,
            itr: widest_itr(self),
            gap_cycles,
            packets: injected,
            breakdown: m.breakdown(injected),
            irqs_per_packet: m.per_packet("irq", injected),
            moderated_irqs: m.event("irq_moderated"),
            latency: m.latency(),
        })
    }
}

/// Paced closed-loop injection of `packets` frames in bursts of
/// `burst`, scheduled `gap_cycles` apart starting now, each stamped with
/// its scheduled wire-arrival time. No closing drain: the callers
/// separate injection from draining so a phase's settle span flows
/// straight into its measured span. A non-empty `flows` swaps the
/// classic generator's flow ids for that set, round-robin by sequence
/// number (which still comes from the shared counter, so `(flow, seq)`
/// keys stay unique).
fn paced_rx_inject(
    sys: &mut System,
    burst: usize,
    packets: u64,
    gap_cycles: u64,
    flows: &[u32],
) -> Result<u64, SystemError> {
    let t0 = sys.now_cycles();
    let mut injected = 0u64;
    let mut round = 0u64;
    while injected < packets {
        let n = burst.min((packets - injected) as usize);
        let target = t0 + round * gap_cycles;
        let now = sys.now_cycles();
        if now < target {
            sys.run_idle(target - now)?;
        }
        let frames: Vec<Frame> = (0..n)
            .map(|_| {
                let mut f = sys.next_rx_frame();
                if !flows.is_empty() {
                    f.flow = flows[(f.seq % flows.len() as u64) as usize];
                }
                f
            })
            .collect();
        injected += sys.receive_burst_arriving(&frames, Some(target))? as u64;
        round += 1;
    }
    Ok(injected)
}

/// One phase of a shifting-load paced receive run: `settle_packets`
/// frames paced at the new gap let a retuning system adapt (unmeasured —
/// the per-phase analogue of every harness's warm-up), then the settle
/// tail drains, the window opens, and `packets` frames are measured on a
/// fresh schedule ending with its own drain — the regime
/// [`System::measure_rx_moderated`] measures, so per-phase points are
/// comparable with the static moderation sweep's. The drains are
/// event-tight ([`System::drain_moderated_tight`]) so no artificial
/// trailing idle leaks into a closed-loop tuner's load signal at the
/// measure boundary. Traffic uses the device-balanced flow set
/// ([`balanced_flow_set`], two flows per device).
fn paced_rx_phase(
    sys: &mut System,
    burst: usize,
    settle_packets: u64,
    packets: u64,
    gap_cycles: u64,
) -> Result<RxPhase, SystemError> {
    let burst = burst.clamp(1, MAX_BURST);
    let flows = balanced_flow_set(sys.nic_count() as u32, 2);
    paced_rx_inject(sys, burst, settle_packets, gap_cycles, &flows)?;
    sys.drain_moderated_tight()?;
    let window = Window::open(sys);
    let measured = paced_rx_inject(sys, burst, packets, gap_cycles, &flows)?;
    sys.drain_moderated_tight()?;
    let m = window.close(sys);
    Ok(RxPhase {
        gap_cycles,
        packets: measured,
        breakdown: m.breakdown(measured),
        irqs_per_packet: m.per_packet("irq", measured),
        latency: m.latency(),
        retunes: m.event("itr_retune"),
        itr_end: widest_itr(sys),
    })
}

/// One point of the multi-NIC shard sweep: amortized per-packet cost and
/// the aggregate throughput it sustains over `nics` gigabit links, both
/// directions.
#[derive(Clone, Debug)]
pub struct AggregateThroughput {
    /// NICs driven concurrently.
    pub nics: u32,
    /// Burst size per driver invocation.
    pub burst: usize,
    /// Amortized transmit cycles/packet at this burst size.
    pub tx_cycles_per_packet: f64,
    /// Amortized receive cycles/packet at this burst size.
    pub rx_cycles_per_packet: f64,
    /// Transmit throughput over the `nics` links.
    pub tx: Throughput,
    /// Receive throughput over the `nics` links.
    pub rx: Throughput,
    /// Registry change over the whole measurement, both directions and
    /// their warm-ups: grant-table traffic (`event.grant_{map,unmap}`,
    /// `grant.copies`, per NIC `grant.dev{n}.*`), packets per NIC and the
    /// rest of [`System::metrics`].
    pub span: MetricSet,
    /// Per-guest frames shed at the admission watermark over the
    /// measurement (guest id → drops); empty with overload control off.
    pub early_drops: BTreeMap<u32, u64>,
}

impl AggregateThroughput {
    /// Combined RX+TX throughput in Mb/s (full-duplex aggregate — the
    /// shard sweep's headline scaling figure).
    pub fn aggregate_mbps(&self) -> f64 {
        self.tx.mbps + self.rx.mbps
    }
}

/// One point of the interrupt-moderation sweep: amortized receive cost,
/// interrupt rate and arrival-to-delivery latency percentiles at a fixed
/// `ITR` setting under a paced arrival process (see
/// [`System::measure_rx_moderated`]).
#[derive(Clone, Debug)]
pub struct ModeratedRx {
    /// NICs driven concurrently.
    pub nics: u32,
    /// Frames per scheduled arrival burst.
    pub burst: usize,
    /// `ITR` register setting ([`twin_nic::ITR_UNIT_CYCLES`]-cycle
    /// units; 0 = unmoderated).
    pub itr: u32,
    /// Scheduled inter-burst gap in virtual cycles (the offered load).
    pub gap_cycles: u64,
    /// Frames measured.
    pub packets: u64,
    /// Per-packet cycle breakdown (idle time charges nothing, so this is
    /// pure processing cost).
    pub breakdown: Breakdown,
    /// Hardware interrupts dispatched per packet — the side moderation
    /// shrinks.
    pub irqs_per_packet: f64,
    /// Deliveries the ITR window held back (later coalesced into one
    /// interrupt).
    pub moderated_irqs: u64,
    /// Arrival-to-delivery latency percentiles — the side moderation
    /// spends.
    pub latency: HistogramSummary,
}

impl ModeratedRx {
    /// Receive throughput implied by the amortized per-packet cost over
    /// this system's links.
    pub fn throughput(&self) -> Throughput {
        throughput(self.breakdown.total(), self.nics)
    }
}

/// A multi-phase offered-load profile for the auto-tune harness: each
/// phase paces arrival bursts at a different inter-burst gap, so the
/// run crosses the latency/bulk regimes mid-measurement and a
/// closed-loop tuner has something to track that no static `ITR`
/// setting can follow.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LoadProfile {
    /// Two phases: light (latency regime), then heavy (the
    /// receive-livelock regime the moderation sweep paces).
    Step,
    /// Three phases stepping light → medium → heavy.
    Ramp,
}

impl LoadProfile {
    /// Per-phase inter-burst gaps, derived from the heavy (final) gap so
    /// the moderation and autotune benches share one pacing knob: the
    /// light phase offers 6× sparser arrivals (underloaded — windows
    /// mostly idle), the ramp's middle phase 3× (busy but unsaturated).
    pub fn gaps(self, heavy_gap_cycles: u64) -> Vec<u64> {
        match self {
            LoadProfile::Step => vec![heavy_gap_cycles * 6, heavy_gap_cycles],
            LoadProfile::Ramp => vec![heavy_gap_cycles * 6, heavy_gap_cycles * 3, heavy_gap_cycles],
        }
    }
}

/// The JSON/label name.
impl std::fmt::Display for LoadProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LoadProfile::Step => "step",
            LoadProfile::Ramp => "ramp",
        })
    }
}

/// One measured phase of a multi-phase paced receive run: steady-state
/// cost, interrupt rate and arrival-to-delivery latency at that phase's
/// offered load (each phase leads with an unmeasured settle span so a
/// retuning system is compared in steady state, like every other
/// harness's warm-up).
#[derive(Clone, Debug)]
pub struct RxPhase {
    /// Scheduled inter-burst gap during this phase.
    pub gap_cycles: u64,
    /// Frames measured (after the settle span).
    pub packets: u64,
    /// Per-packet cycle breakdown over the measured span.
    pub breakdown: Breakdown,
    /// Hardware interrupts dispatched per measured packet.
    pub irqs_per_packet: f64,
    /// Arrival-to-delivery latency percentiles over the measured span.
    pub latency: HistogramSummary,
    /// `ITR` retunes the auto-tuner performed in the measured span
    /// (0 for static runs).
    pub retunes: u64,
    /// Widest per-device `ITR` at phase end — where the tuner (or the
    /// static setting) sits when the phase closes.
    pub itr_end: u32,
}

/// Result of running one system through a shifting-load profile: the
/// per-phase points the autotune sweep compares against the per-phase
/// best static `ITR`.
#[derive(Clone, Debug)]
pub struct AutotunedRx {
    /// NICs driven concurrently.
    pub nics: u32,
    /// Frames per scheduled arrival burst.
    pub burst: usize,
    /// The load profile run.
    pub profile: LoadProfile,
    /// Whether the closed-loop tuner was active.
    pub autotune: bool,
    /// The fixed `ITR` programmed at build time (static runs; the
    /// tuner's starting point otherwise).
    pub static_itr: u32,
    /// One entry per profile phase, in offered order.
    pub phases: Vec<RxPhase>,
}

/// Runs `sys` through `profile` — paced arrival bursts whose gap shifts
/// at each phase boundary — and reports per-phase steady-state points
/// (see [`RxPhase`]). Works identically for a static-`ITR` system and
/// an auto-tuning one ([`crate::Itr::Auto`]), which is
/// what makes the sweep's comparison apples-to-apples: same warm-up,
/// same pacing, same settle spans, same drift accounting.
///
/// `heavy_gap_cycles` is the final (heaviest) phase's gap — the same
/// knob the moderation sweep paces with; earlier phases derive from it
/// (see [`LoadProfile::gaps`]). Each phase injects `settle_packets`
/// unmeasured frames at the new load first (the tuner's adaptation
/// transient), then measures `packets_per_phase` frames.
///
/// # Errors
///
/// Propagates per-burst errors.
pub fn measure_rx_autotuned(
    sys: &mut System,
    burst: usize,
    profile: LoadProfile,
    heavy_gap_cycles: u64,
    settle_packets: u64,
    packets_per_phase: u64,
) -> Result<AutotunedRx, SystemError> {
    let static_itr = widest_itr(sys);
    warm_rx_rings(sys)?;
    sys.drain_moderated()?;
    let phases = profile
        .gaps(heavy_gap_cycles)
        .into_iter()
        .map(|gap| paced_rx_phase(sys, burst, settle_packets, packets_per_phase, gap))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(AutotunedRx {
        nics: sys.nic_count() as u32,
        burst,
        profile,
        autotune: sys.itr_autotune(),
        static_itr,
        phases,
    })
}

/// An adversarial offered-load shape for the receive-livelock harness.
/// Every profile keeps the victim guests' rate fixed and sub-capacity
/// while the flood scales with the offered multiple — the fairness
/// question is always "does the flood's overload leak into bystanders",
/// and the profiles vary *how* the flood stresses the path.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OverloadProfile {
    /// The whole flood is one heavy flow aimed at one guest — the
    /// classic receive-livelock shape (Mogul & Ramakrishnan).
    FloodOneGuest,
    /// The flood churns through a large flow-id space, defeating any
    /// flow-keyed affinity state (shard hashing) while offering the same
    /// aggregate load.
    FlowChurn,
    /// One elephant flow carries most of the flood while a swarm of
    /// short mice flows carries the rest — bimodal, like a busy server
    /// behind a DoS.
    ElephantMice,
}

/// The JSON/label name.
impl std::fmt::Display for OverloadProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OverloadProfile::FloodOneGuest => "flood_one_guest",
            OverloadProfile::FlowChurn => "flow_churn",
            OverloadProfile::ElephantMice => "elephant_mice",
        })
    }
}

/// Fixed frames per victim guest per arrival burst — deliberately
/// independent of the offered multiple: victims stay well-behaved while
/// the flood scales past capacity.
pub const VICTIM_FRAMES_PER_BURST: usize = 4;

/// One point of the receive-livelock sweep: goodput, drop accounting
/// and victim-guest tail latency at a fixed offered-load multiple of
/// the calibrated knee.
#[derive(Clone, Debug)]
pub struct LivelockPoint {
    /// NICs driven concurrently.
    pub nics: u32,
    /// Frames per arrival burst at the 1.0× knee.
    pub burst: usize,
    /// Offered-load shape.
    pub profile: OverloadProfile,
    /// Offered load as tenths of the knee rate (integer identity: 10 =
    /// 1.0×, 100 = 10×).
    pub offered_x10: u32,
    /// Frames offered on the wire over the measured span.
    pub frames_offered: u64,
    /// Frames fully delivered into guests (the goodput numerator).
    pub frames_delivered: u64,
    /// Delivered throughput over the arrival span, in Mb/s.
    pub goodput_mbps: f64,
    /// Charged cycles per *delivered* packet — under livelock this
    /// balloons as work is sunk into frames that die at a queue cap.
    pub rx_cycles_per_packet: f64,
    /// Frames shed at the admission watermark (before any ring work).
    pub early_drops: u64,
    /// Frames dropped at a demux queue cap (after the reap — waste).
    pub queue_drops: u64,
    /// Frames dropped by the NICs for want of a free descriptor.
    pub ring_drops: u64,
    /// Hardware interrupts dispatched over the span.
    pub irqs: u64,
    /// Budgeted NAPI poll passes over the span.
    pub polls: u64,
    /// Frames delivered to the victim (non-flooded) guests.
    pub victim_delivered: u64,
    /// Worst p99 arrival-to-delivery latency across victim guests.
    pub victim_p99: u64,
}

impl LivelockPoint {
    /// Offered load as a multiple of the knee (1.0 = knee).
    pub fn offered(&self) -> f64 {
        f64::from(self.offered_x10) / 10.0
    }
}

/// Builds one arrival burst for `profile` at `offered_x10` tenths of
/// the knee: each victim guest gets its fixed trickle, the flood guest
/// gets the rest, and `seq` advances once per frame (unique `(flow,
/// seq)` keys for latency tracking).
fn overload_burst(
    profile: OverloadProfile,
    offered_x10: u32,
    burst_base: usize,
    flood: (DomId, MacAddr),
    victims: &[(DomId, MacAddr)],
    seq: &mut u64,
) -> Vec<Frame> {
    let total = (burst_base * offered_x10 as usize / 10).max(1);
    let victim_total = victims.len() * VICTIM_FRAMES_PER_BURST;
    let flood_frames = total.saturating_sub(victim_total);
    let mut out = Vec::with_capacity(victim_total + flood_frames);
    let mut push = |dst: MacAddr, flow: u32, seq: &mut u64| {
        out.push(Frame::data(dst, OPEN_LOOP_SRC, flow, *seq));
        *seq += 1;
    };
    // Victims first in the burst: under overload the tail of a burst is
    // likelier to find full rings, so this ordering is *generous* to
    // the uncontrolled config — it still collapses.
    for (gid, mac) in victims {
        for _ in 0..VICTIM_FRAMES_PER_BURST {
            push(*mac, 900 + gid.0, seq);
        }
    }
    for i in 0..flood_frames {
        let flow = match profile {
            OverloadProfile::FloodOneGuest => 800,
            OverloadProfile::FlowChurn => 1000 + (*seq % 1024) as u32,
            OverloadProfile::ElephantMice => {
                if i % 5 == 4 {
                    1000 + (*seq % 64) as u32 // every 5th frame: a mouse
                } else {
                    800 // the elephant
                }
            }
        };
        push(flood.1, flow, seq);
    }
    out
}

/// Runs one **open-loop** receive-livelock point: `bursts` arrival
/// bursts land at a fixed `gap_cycles` schedule (calibrated so 1.0×
/// saturates the consumer — the knee), each one
/// `offered_x10`/10 × the knee's `burst_base` frames shaped by
/// `profile`. Arrivals charge only what hardware forces at that instant
/// (ISR reap, or nothing for a masked poll-mode NIC); the consumer —
/// budgeted NAPI polls or standalone DRR flush rounds — runs only in
/// the gaps, exactly the regime where per-arrival interrupt work
/// starves delivery and goodput collapses (Mogul & Ramakrishnan; paper
/// §4.4's softirq discipline is the exposure).
///
/// The flood aims at the primary guest; every other guest is a
/// fixed-rate victim whose tail latency the overload controls must
/// bound. The span includes the post-schedule drain, so a backlogged
/// system cannot launder its backlog into goodput.
///
/// # Errors
///
/// Propagates faults; arrival overruns are data, not errors.
pub fn measure_rx_livelock(
    sys: &mut System,
    profile: OverloadProfile,
    offered_x10: u32,
    burst_base: usize,
    bursts: u64,
    gap_cycles: u64,
) -> Result<LivelockPoint, SystemError> {
    let no_guest = || SystemError::Build("the livelock harness needs a guest".into());
    let flood_gid = sys.guest().ok_or_else(no_guest)?;
    let xen = sys.world.xen_mut()?;
    let guests = xen.domains.iter().filter(|d| d.kind == DomainKind::Guest);
    let (flood, victims): (Vec<_>, Vec<_>) = guests
        .map(|d| (d.id, d.mac))
        .partition(|g| g.0 == flood_gid);
    let flood = *flood.first().ok_or_else(no_guest)?;
    sys.track_guest_latency();
    warm_rx_rings(sys)?;
    sys.drain_moderated()?;
    let window = Window::open(sys);
    let mut seq = OPEN_LOOP_SEQ0;
    // The window closes with the schedule. Backlog still queued (or
    // stranded in a masked ring) at that point is NOT goodput — an
    // open-loop source never stops, so frames the consumer couldn't
    // deliver inside the schedule are lost throughput, not work in
    // flight. Counting a tail drain would let a livelocked system
    // launder its backlog into goodput.
    let offered = open_loop_schedule(sys, bursts, gap_cycles, || {
        overload_burst(profile, offered_x10, burst_base, flood, &victims, &mut seq)
    })?;
    let m = window.close(sys);
    let victim_delivered: u64 = victims.iter().map(|v| m.guest(v.0, "delivered")).sum();
    let delivered = m.guest(flood.0, "delivered") + victim_delivered;
    let span = bursts * gap_cycles;
    // Flight-recorder export: a no-op unless TWIN_TRACE_OUT names a
    // directory (and empty unless the system was built with tracing).
    sys.export_trace(&format!("livelock_{profile}_{offered_x10}"));
    Ok(LivelockPoint {
        nics: sys.nic_count() as u32,
        burst: burst_base,
        profile,
        offered_x10,
        frames_offered: offered,
        frames_delivered: delivered,
        goodput_mbps: delivered as f64 * wire_bits(MTU) as f64 / (span as f64 / CPU_HZ) / 1e6,
        rx_cycles_per_packet: m.breakdown(delivered.max(1)).total(),
        early_drops: total(&m.delta, "guest", "early_drops"),
        queue_drops: total(&m.delta, "guest", "queue_drops"),
        ring_drops: total(&m.delta, "nic", "rx_missed"),
        irqs: m.event("irq"),
        polls: m.event("napi_poll"),
        victim_delivered,
        victim_p99: m.worst_p99(victims.iter().map(|v| v.0)),
    })
}

/// One point of the scheduler-affinity sweep: cycles/packet, cold
/// deliveries, placements and per-guest tail latency for one shard
/// policy at one run/sleep duty cycle.
#[derive(Clone, Debug)]
pub struct AffinityPoint {
    /// NICs driven concurrently.
    pub nics: u32,
    /// Frames per arrival burst.
    pub burst: usize,
    /// Shard-policy label (`flowhash` / `affinity`).
    pub policy: &'static str,
    /// Run duty cycle in percent (100 = vCPUs never sleep).
    pub duty_pct: u32,
    /// Frames offered on the wire over the measured span.
    pub frames_offered: u64,
    /// Frames fully delivered into guests (equal to offered on a
    /// drop-free run — the acceptance requires it).
    pub frames_delivered: u64,
    /// Charged cycles per delivered packet, the headline metric the
    /// affinity win shows up in.
    pub rx_cycles_per_packet: f64,
    /// Deliveries that paid the cold sTLB/cache refill (softirq CPU ≠
    /// guest vCPU).
    pub cold_deliveries: u64,
    /// Affinity flow placements over the run (0 under FlowHash).
    pub placements: u64,
    /// vCPU wakeups observed during the measured span.
    pub wakes: u64,
    /// Admission-watermark drops (must be 0 — the harness runs uncapped).
    pub early_drops: u64,
    /// Demux queue-cap drops (must be 0).
    pub queue_drops: u64,
    /// RX-descriptor drops (must be 0).
    pub ring_drops: u64,
    /// Per-(guest, flow) sequence inversions in the delivered logs
    /// (must be 0 — order is preserved across sleep deferral).
    pub reorders: u64,
    /// Worst p99 arrival-to-delivery latency across the scheduled
    /// guests, in cycles (includes sleep deferral by construction).
    pub victim_p99: u64,
}

/// Runs one **open-loop** scheduler-affinity point: `bursts` arrival
/// bursts land on a fixed `gap_cycles` schedule, each spread evenly
/// (round-robin) across the `traffic` guests on their fixed flows;
/// the consumer — per-arrival ISR reaps plus DRR flush rounds between
/// arrivals — follows the vCPU schedule registered from `vcpus`
/// (guest, cpu, run cycles, sleep cycles; an empty slice leaves every
/// guest always-running). After the schedule closes, the harness
/// drains the deferred backlog to the last frame — both policies
/// deliver identical frame sets on a drop-free run, so cycles per
/// delivered packet is an apples-to-apples comparison and sleep
/// deferral shows up in latency, not in lost goodput.
///
/// The system must be a TwinDrivers one when `vcpus` is non-empty.
/// `policy` and `duty_pct` are reporting labels.
///
/// # Errors
///
/// Propagates faults; [`SystemError::Build`] if the post-schedule
/// drain fails to converge (a wedged consumer must fail loudly).
#[allow(clippy::too_many_arguments)] // one sweep point = one call site; the grid is the signature
pub fn measure_rx_affinity(
    sys: &mut System,
    traffic: &[(DomId, MacAddr, u32)],
    vcpus: &[(DomId, u32, u64, u64)],
    policy: &'static str,
    duty_pct: u32,
    burst: usize,
    bursts: u64,
    gap_cycles: u64,
) -> Result<AffinityPoint, SystemError> {
    // Closed-loop warm-up before any vCPU exists: every ring completes
    // its buffer-swap cycle with all guests running, identically for
    // every policy/duty combination.
    warm_rx_rings(sys)?;
    sys.drain_moderated()?;
    for &(gid, cpu, run, sleep) in vcpus {
        sys.sched_add_vcpu(gid, cpu, run, sleep)?;
    }
    sys.track_guest_latency();
    let window = Window::open(sys);
    let mut seq = OPEN_LOOP_SEQ0;
    let offered = open_loop_schedule(sys, bursts, gap_cycles, || {
        (0..burst)
            .map(|j| {
                let (_, mac, flow) = traffic[j % traffic.len()];
                seq += 1;
                Frame::data(mac, OPEN_LOOP_SRC, flow, seq - 1)
            })
            .collect()
    })?;
    // Drain the deferred backlog: sleeping guests' frames deliver at
    // their wakeup edges. Unlike the livelock sweep this tail counts —
    // the question is delivery cost, not overload goodput, and both
    // policies deliver the same frames.
    for _ in 0..10_000 {
        if sys.rx_backlog() == 0 {
            break;
        }
        let now = sys.now_cycles();
        sys.rx_open_loop_service(now + 100_000)?;
    }
    if sys.rx_backlog() > 0 {
        return Err(SystemError::Build("affinity drain did not converge".into()));
    }
    let m = window.close(sys);
    let delivered: u64 = traffic.iter().map(|t| m.guest(t.0, "delivered")).sum();
    sys.export_trace(&format!("affinity_{policy}_{duty_pct}"));
    Ok(AffinityPoint {
        nics: sys.nic_count() as u32,
        burst,
        policy,
        duty_pct,
        frames_offered: offered,
        frames_delivered: delivered,
        rx_cycles_per_packet: m.breakdown(delivered.max(1)).total(),
        cold_deliveries: m.delta.counter("event.cold_delivery"),
        placements: m.delta.counter("sched.placements"),
        wakes: m.event("vcpu_run"),
        early_drops: total(&m.delta, "guest", "early_drops"),
        queue_drops: total(&m.delta, "guest", "queue_drops"),
        ring_drops: total(&m.delta, "nic", "rx_missed"),
        reorders: reorders(endpoints(&sys.world, sys.guest()).map(|e| e.1)),
        victim_p99: m.worst_p99(traffic.iter().map(|t| t.0)),
    })
}

/// Measures aggregate RX+TX throughput of a (possibly multi-NIC) system
/// at a fixed burst size: `packets` packets move in each direction in
/// bursts of `burst`, sharded across the NICs by the system's policy;
/// the amortized cycles/packet convert to throughput via [`throughput`]
/// (link-limited or CPU-limited, whichever binds first — exactly how the
/// paper's five-NIC testbed aggregates).
///
/// The link ceiling per direction counts only NICs that **actually
/// carried traffic** during that direction's run: a 4-NIC system under
/// `ShardPolicy::Static` is capped at one gigabit link, not four —
/// idle hardware adds no capacity.
///
/// A single NIC at burst 1 is the degenerate case and reproduces the
/// per-packet figures.
///
/// # Errors
///
/// Propagates measurement errors from the underlying burst sweeps.
pub fn measure_aggregate_throughput(
    sys: &mut System,
    burst: usize,
    packets: u64,
) -> Result<AggregateThroughput, SystemError> {
    let nics = sys.nic_count() as u32;
    // Active links and the span come from [`System::metrics`] registry
    // deltas; the span deliberately includes both directions' warm-ups.
    let links = |d: &MetricSet, field: &str| -> u32 {
        indexed(d, "nic", field).filter(|&(_, n)| n > 0).count() as u32
    };

    let m0 = sys.metrics();
    let tx = sys.measure_tx_burst(burst, packets)?;
    let m1 = sys.metrics();
    let rx = sys.measure_rx_burst(burst, packets)?;
    let m2 = sys.metrics();

    let tx_links = links(&m1.delta_since(&m0), "tx_packets");
    let rx_links = links(&m2.delta_since(&m1), "rx_packets");

    let span = m2.delta_since(&m0);
    let early_drops = indexed(&span, "guest", "early_drops")
        .filter(|&(_, n)| n > 0)
        .collect();

    let tx_cpp = tx.breakdown.total();
    let rx_cpp = rx.breakdown.total();
    Ok(AggregateThroughput {
        nics,
        burst,
        tx_cycles_per_packet: tx_cpp,
        rx_cycles_per_packet: rx_cpp,
        tx: throughput(tx_cpp, tx_links.max(1)),
        rx: throughput(rx_cpp, rx_links.max(1)),
        span,
        early_drops,
    })
}

/// A driver-fault class the fault sweep injects — the three failure
/// modes the paper's §4.5 safety machinery must contain: an SVM-rejected
/// illegal store, corrupted driver state that faults on the next
/// register access, and a runaway loop reclaimed by the VINO-style
/// execution watchdog.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Wild store into the hypervisor address space: SVM rejects the
    /// access and the invocation aborts at the faulting instruction.
    WildWrite,
    /// The driver corrupts its own adapter slot (`hw_addr` ← 1), so the
    /// very next register access dereferences garbage and faults — the
    /// wedged-ring shape: state is bad, not the current instruction.
    WedgedRing,
    /// Runaway spin: no illegal access at all; only the execution
    /// watchdog's cycle budget reclaims the CPU (paper §4.5.2).
    InfiniteLoop,
}

impl FaultClass {
    /// All three, in sweep order.
    pub const ALL: [FaultClass; 3] = [
        FaultClass::WildWrite,
        FaultClass::WedgedRing,
        FaultClass::InfiniteLoop,
    ];

    /// The value [`System::arm_driver_fault`] writes into the driver's
    /// `fault_arm` word to fault device `dev`: the payload compares it
    /// against the active adapter slot's index + 1, so only an
    /// invocation *on behalf of that device* trips — other devices'
    /// invocations in the same pass sail past the armed payload.
    pub fn arm_value(self, dev: u32) -> u32 {
        dev + 1
    }
}

/// The table/JSON label.
impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultClass::WildWrite => "wild_write",
            FaultClass::WedgedRing => "wedged_ring",
            FaultClass::InfiniteLoop => "infinite_loop",
        })
    }
}

/// The five shared driver bodies every `*_dev` wrapper tail-jumps into
/// after selecting `cur_adapter` — a payload placed right after each
/// label runs on every hot-path invocation regardless of which device
/// (or which entry wrapper) triggered it.
const FAULT_SITES: [&str; 5] = [
    "e1000_xmit_frame:",
    "e1000_xmit_batch:",
    "e1000_intr:",
    "e1000_poll_rx_budget:",
    "e1000_poll_rx_batch:",
];

/// Builds a driver source with a **device-conditional, one-shot**
/// fault of the given class injected into every hot-path entry
/// (`FAULT_SITES`): each invocation loads the `fault_arm` data word,
/// skips ahead when it is zero or names a different device (the word
/// holds faulted-device-index + 1, compared against the active
/// `cur_adapter` slot), and otherwise disarms it (the store persists
/// even though the invocation is about to die — abort stops execution,
/// it does not roll memory back) and executes the fault body. Arm it
/// at runtime with [`System::arm_driver_fault`]; exactly one
/// invocation on behalf of the named device faults — sibling devices'
/// invocations in the same pass are untouched — and recovery resumes
/// with the payload dormant.
///
/// The unarmed check is a handful of extra instructions per invocation,
/// so cycle figures from a sabotaged build are *not* comparable with
/// the stock driver — fault sweeps must compare against a control
/// system built from the **same** source with the fault never armed.
pub fn fault_injected_source(class: FaultClass) -> String {
    let mut src = twin_kernel::e1000::source();
    for (i, site) in FAULT_SITES.iter().enumerate() {
        let body = match class {
            FaultClass::WildWrite => {
                "    movl $0xf0000100, %eax\n    movl $0x41414141, (%eax)".to_string()
            }
            FaultClass::WedgedRing => "    movl cur_adapter, %eax\n    movl $1, (%eax)".to_string(),
            FaultClass::InfiniteLoop => {
                format!(".Lfault_spin_{i}:\n    jmp .Lfault_spin_{i}")
            }
        };
        let payload = format!(
            "{site}\n    pushl %eax\n    pushl %ecx\n    movl fault_arm, %eax\n    \
             cmpl $0, %eax\n    je .Lfault_skip_{i}\n    movl cur_adapter, %ecx\n    \
             subl $adapter, %ecx\n    shrl $7, %ecx\n    addl $1, %ecx\n    \
             cmpl %ecx, %eax\n    jne .Lfault_skip_{i}\n    movl $0, %ecx\n    \
             movl %ecx, fault_arm\n{body}\n.Lfault_skip_{i}:\n    popl %ecx\n    popl %eax"
        );
        src = src.replace(site, &payload);
    }
    // The arm word lives with the driver's other data, zero (dormant)
    // until a harness writes it.
    src.replace(
        "    .globl cur_adapter",
        "    .globl fault_arm\nfault_arm:\n    .long 0\n    .globl cur_adapter",
    )
}

/// One point of the fault sweep: a fault class injected into one device
/// of a multi-NIC system, with recovery latency, in-flight loss
/// accounting, and blast radius measured purely from registry deltas
/// (`nic{i}.rx_packets`, `fault.*`) plus the recovery log.
#[derive(Clone, Debug)]
pub struct FaultPoint {
    /// Fault class injected.
    pub class: FaultClass,
    /// NICs in the system.
    pub nics: u32,
    /// The faulted device.
    pub dev: u32,
    /// Frames offered per device per round.
    pub burst: usize,
    /// Fault episodes injected (the sweep's fault-rate axis).
    pub episodes: u32,
    /// Mean cycles from fault detection to device reset completion.
    pub recovery_cycles: u64,
    /// Queued deferred upcalls replayed natively during teardown
    /// (frees/unlocks the faulted driver owed the kernel).
    pub replayed: u64,
    /// In-flight work discarded with accounting (queued upcalls with no
    /// replay policy + in-flight frames attributed to the dead device).
    pub dropped: u64,
    /// Grant mappings revoked across all episodes (zero-copy pools the
    /// faulted image had cached).
    pub revoked_mappings: u64,
    /// Frames the faulted device delivered in the pre-fault window.
    pub pre_delivered: u64,
    /// Frames it delivered in an equal window after recovery.
    pub post_delivered: u64,
    /// Frames sibling devices delivered from the first fault onward.
    pub sibling_delivered: u64,
    /// Sibling frames over the same schedule on the unfaulted control.
    pub sibling_control: u64,
    /// Frames offered to the faulted device in aborted invocations
    /// (upper bound on wire loss per episode: one burst).
    pub lost_frames: u64,
}

impl FaultPoint {
    /// Post-recovery goodput as a fraction of pre-fault goodput
    /// (acceptance: ≥ 0.95).
    pub fn recovery_frac(&self) -> f64 {
        self.post_delivered as f64 / self.pre_delivered.max(1) as f64
    }

    /// Sibling goodput as a fraction of the unfaulted control run
    /// (acceptance: within 5% of 1.0 — zero cross-NIC blast radius).
    pub fn sibling_frac(&self) -> f64 {
        self.sibling_delivered as f64 / self.sibling_control.max(1) as f64
    }
}

/// A flow set that [`ShardPolicy::FlowHash`] provably balances across
/// `num_nics` devices: exactly `flows_per_nic` flows hash to each
/// device, found by scanning ids upward from
/// [`System::BALANCED_FLOW_BASE`] and keeping a flow only while its
/// device still has room. Returned in scan (ascending) order, so for
/// four NICs × two flows the set is exactly `203..=210` — the
/// hand-picked constant the autotune harness used to special-case —
/// and indexing round-robin by sequence number reproduces that
/// harness's traffic bit-exactly while generalising to any NIC count.
pub fn balanced_flow_set(num_nics: u32, flows_per_nic: usize) -> Vec<u32> {
    let n = num_nics.max(1);
    let mut per_dev = vec![0usize; n as usize];
    let mut out = Vec::with_capacity(n as usize * flows_per_nic);
    let mut flow = System::BALANCED_FLOW_BASE;
    while out.len() < n as usize * flows_per_nic {
        let dev = ShardPolicy::flow_hash_dev(flow, n);
        if per_dev[dev as usize] < flows_per_nic {
            per_dev[dev as usize] += 1;
            out.push(flow);
        }
        flow += 1;
    }
    out
}

/// The first flow id from `from` up that [`ShardPolicy::FlowHash`] maps
/// to `dev` among `nics` devices.
///
/// # Errors
///
/// [`SystemError::Build`] when no flow id from `from` up maps there
/// (`dev` is not below `nics`).
pub fn flow_for_dev(dev: u32, nics: u32, from: u32) -> Result<u32, SystemError> {
    let hashed_to_dev = |&f: &u32| ShardPolicy::flow_hash_dev(f, nics) == dev;
    let found = (dev < nics.max(1)).then(|| (from..=u32::MAX).find(hashed_to_dev));
    let none = || SystemError::Build(format!("no flow hashes to device {dev} of {nics}"));
    found.flatten().ok_or_else(none)
}

/// Measures one fault-recovery episode set: identical closed-loop
/// per-device receive schedules run on `sys` (fault class armed
/// `episodes` times against device `dev`) and `control` (same sabotaged
/// source, never armed — see [`fault_injected_source`] for why the
/// control cannot be the stock driver). Both systems must be built with
/// [`ShardPolicy::FlowHash`].
///
/// Schedule: warm-up, a `rounds`-round pre-fault window, `episodes` ×
/// (one faulted round + one recovery round), then a `rounds`-round
/// post-recovery window. Each round offers `burst` frames to every
/// device through flows that hash to it. Per-device goodput comes from
/// `nic{i}.rx_packets` registry deltas; replay/drop accounting from the
/// `fault.*` counters and the recovery log.
///
/// # Errors
///
/// Propagates faults; [`SystemError::Build`] if the armed fault never
/// triggers or recovery does not occur (a broken harness must fail
/// loudly, not report vacuous goodput).
pub fn measure_fault_recovery(
    sys: &mut System,
    control: &mut System,
    dev: u32,
    class: FaultClass,
    rounds: u64,
    burst: usize,
    episodes: u32,
) -> Result<FaultPoint, SystemError> {
    let nics = sys.nic_count() as u32;
    let mut seqs: Vec<u64> = vec![0; nics as usize];
    let flows = (0..nics).map(|d| flow_for_dev(d, nics, 0x5000));
    let flows = flows.collect::<Result<Vec<u32>, _>>()?;
    let mut frames_for = |d: u32| -> Vec<Frame> {
        let flow = flows[d as usize];
        let seq = &mut seqs[d as usize];
        (0..burst)
            .map(|_| {
                *seq += 1;
                Frame::data(
                    MacAddr::for_guest(1),
                    MacAddr([0x02, 0, 0, 0, 0, 0xfa]),
                    flow,
                    *seq - 1,
                )
            })
            .collect()
    };
    // One round: a burst per device, identical on both systems. An
    // armed round arms the one-shot payload just before the target's
    // burst — it fires on the target's next invocation only, sibling
    // invocations sail past it — and returns the frames that died with
    // the aborted invocation (the whole burst: the bounded per-episode
    // loss). The control runs the same schedule and is never armed.
    let mut round = |sys: &mut System, control: &mut System, armed: bool| {
        let mut lost = 0u64;
        for d in 0..nics {
            let frames = frames_for(d);
            control.receive_burst(&frames)?;
            if !(armed && d == dev) {
                sys.receive_burst(&frames)?;
                continue;
            }
            sys.arm_driver_fault(class.arm_value(dev))?;
            match sys.receive_burst(&frames) {
                Err(SystemError::DriverAborted(_)) => lost += frames.len() as u64,
                Ok(_) => {
                    return Err(SystemError::Build(format!(
                        "armed {class} fault never triggered on dev {dev}"
                    )))
                }
                Err(e) => return Err(e),
            }
        }
        Ok(lost)
    };
    // Closed-loop warm-up: fill every ring's buffer-swap cycle on both
    // systems so the measured windows see steady state.
    for _ in 0..4 {
        round(sys, control, false)?;
    }
    let m0f = sys.metrics();
    for _ in 0..rounds {
        round(sys, control, false)?;
    }
    let (m1f, m1c) = (sys.metrics(), control.metrics());

    // Fault episodes: one armed round, then one recovery round (the
    // target's next invocation finds the device quarantined, resets it,
    // and serves).
    let mut lost = 0u64;
    for _ in 0..episodes {
        lost += round(sys, control, true)?;
        round(sys, control, false)?;
    }
    let m2f = sys.metrics();
    if sys.recovery_log().len() != episodes as usize {
        return Err(SystemError::Build(format!(
            "{} recoveries logged, expected {episodes}",
            sys.recovery_log().len()
        )));
    }

    for _ in 0..rounds {
        round(sys, control, false)?;
    }
    let (m3f, m3c) = (sys.metrics(), control.metrics());

    let rx = |d: &MetricSet, i: u32| d.counter(&format!("nic{i}.rx_packets"));
    let siblings = |hi: &MetricSet, lo: &MetricSet| -> u64 {
        let delta = hi.delta_since(lo);
        (0..nics).filter(|i| *i != dev).map(|i| rx(&delta, i)).sum()
    };
    let fault_span = m3f.delta_since(&m0f);
    let log = sys.recovery_log();
    let downtime: u64 = log.iter().map(|r| r.recovered_at - r.quarantined_at).sum();
    // Flight-recorder export: a no-op unless TWIN_TRACE_OUT names a
    // directory (and empty unless the system was built with tracing).
    sys.export_trace(&format!("fault_{class}"));
    Ok(FaultPoint {
        class,
        nics,
        dev,
        burst,
        episodes,
        recovery_cycles: downtime / log.len().max(1) as u64,
        replayed: fault_span.counter("fault.inflight_replayed"),
        dropped: fault_span.counter("fault.inflight_dropped"),
        revoked_mappings: log.iter().map(|r| r.revoked_mappings as u64).sum(),
        pre_delivered: rx(&m1f.delta_since(&m0f), dev),
        post_delivered: rx(&m3f.delta_since(&m2f), dev),
        sibling_delivered: siblings(&m3f, &m1f),
        sibling_control: siblings(&m3c, &m1c),
        lost_frames: lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_bound_vs_link_bound() {
        // Very cheap packets: link-bound, low CPU.
        let t = throughput(1000.0, 5);
        assert_eq!(t.mbps, 5000.0);
        assert!(t.cpu_util < 0.2);
        // Expensive packets: CPU-bound.
        let t = throughput(30_000.0, 5);
        assert!(t.mbps < 5000.0);
        assert_eq!(t.cpu_util, 1.0);
    }

    #[test]
    fn paper_scale_sanity() {
        // ~9972 cycles/packet (domU-twin TX) should land in the high
        // 3000s of Mb/s, like the paper's 3902.
        let t = throughput(9972.0, 5);
        assert!((3000.0..4800.0).contains(&t.mbps), "{}", t.mbps);
        // ~21159 (baseline domU) lands near 1619.
        let t = throughput(21159.0, 5);
        assert!((1400.0..2100.0).contains(&t.mbps), "{}", t.mbps);
    }

    #[test]
    fn latency_stats_from_unsorted_samples() {
        let s = HistogramSummary::from_samples(&[500, 100, 900, 300, 700]);
        assert_eq!(s.count, 5);
        assert_eq!(s.p50, 500);
        assert_eq!(s.p99, 900);
        assert_eq!(s.max, 900);
        assert!(s.p50 <= s.p99);
        let empty = HistogramSummary::from_samples(&[]);
        assert_eq!(empty, HistogramSummary::default());
    }

    #[test]
    fn load_profile_gaps_share_the_heavy_knob() {
        assert_eq!(LoadProfile::Step.gaps(150_000), vec![900_000, 150_000]);
        assert_eq!(
            LoadProfile::Ramp.gaps(150_000),
            vec![900_000, 450_000, 150_000]
        );
        assert_eq!(LoadProfile::Step.to_string(), "step");
        assert_eq!(LoadProfile::Ramp.to_string(), "ramp");
    }

    #[test]
    fn breakdown_row_mentions_categories() {
        let mut delta = MetricSet::new();
        delta.set("meter.cycles.Xen", 500);
        delta.set("meter.cycles.e1000", 100);
        delta.set("event.irq", 3);
        let b = Measured { delta }.breakdown(10);
        assert_eq!(b.cycles(CostDomain::Xen), 50.0);
        assert_eq!(b.total(), 60.0);
        assert_eq!(b.events, BTreeMap::from([("irq".to_string(), 3)]));
        let row = b.row("test");
        assert!(row.contains("Xen"));
        assert!(row.contains("e1000"));
    }

    #[test]
    fn window_deltas_equal_the_accessor_differences_around_it() {
        // A short open-loop overload on the livelock sweep's two builds:
        // the uncontrolled one drops at the queue caps and in the rings,
        // the controlled one at the admission watermark and in the
        // rings. The meter's early-drop row is the sum of the per-guest
        // keys, and every count moves on one of the two builds.
        let mut seen = [0u64; 5];
        for controlled in [false, true] {
            let opts = crate::SystemOptions {
                num_nics: 4,
                shard: ShardPolicy::FlowHash,
                rx_queue_cap: Some(128),
                napi_weight: if controlled { 8 } else { 0 },
                rx_backlog_watermark: controlled.then_some(64),
                rx_flush_quantum: 8,
                ..Default::default()
            };
            let mut sys = System::build_with(crate::Config::TwinDrivers, &opts).unwrap();
            let flood = (sys.guest().unwrap(), MacAddr::for_guest(1));
            let victim = (
                sys.add_guest(MacAddr::for_guest(2)).unwrap(),
                MacAddr::for_guest(2),
            );
            warm_rx_rings(&mut sys).unwrap();
            let window = Window::open(&mut sys);
            let mut seq = OPEN_LOOP_SEQ0;
            let profile = OverloadProfile::FloodOneGuest;
            let burst = || overload_burst(profile, 100, 32, flood, &[victim], &mut seq);
            assert_eq!(
                open_loop_schedule(&mut sys, 6, 338_182, burst).unwrap(),
                6 * 320
            );
            let m = window.close(&sys);
            let counts = [
                total(&m.delta, "guest", "early_drops"),
                total(&m.delta, "guest", "queue_drops"),
                total(&m.delta, "nic", "rx_missed"),
                m.guest(flood.0, "delivered"),
                m.guest(victim.0, "delivered"),
            ];
            assert_eq!(m.event("early_drop"), counts[0]);
            seen.iter_mut()
                .zip(&counts)
                .for_each(|(total, d)| *total += d);
        }
        assert!(seen.iter().all(|&n| n > 0), "every count moved: {seen:?}");
    }
}
