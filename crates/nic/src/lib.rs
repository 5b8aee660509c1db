//! # twin-nic — an e1000-like gigabit NIC model
//!
//! Models the hardware interface the Intel e1000 driver programs: a
//! memory-mapped register window (CTRL/STATUS/ICR/IMS/TCTL/RCTL, ring
//! registers TDBAL/TDLEN/TDH/TDT and RDBAL/RDLEN/RDH/RDT, receive-address
//! and statistics registers), legacy 16-byte transmit/receive descriptors
//! in driver memory, a DMA engine operating on simulated physical memory,
//! and a level-style interrupt (`ICR & IMS`).
//!
//! The driver in `twin-kernel` is written against this interface in ISA
//! assembly, so the TX path exercised by the TwinDrivers fast path —
//! write descriptor, bump `TDT` (one posted MMIO write), reap `DD` status
//! — matches the real driver's structure instruction for instruction.
//!
//! The "wire" side is exposed as plain queues: [`Nic::take_tx_frames`]
//! drains transmitted frames, [`Nic::deliver`] injects received frames
//! (returning backpressure when the RX ring is out of buffers, which real
//! e1000s report as missed-packet events).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use twin_machine::{PhysMem, PAGE_SIZE};
use twin_net::{Frame, MacAddr, ETH_HEADER_LEN, WIRE_PREFIX_LEN};

/// Register offsets within the MMIO window (real e1000 layout).
pub mod regs {
    /// Device control.
    pub const CTRL: u64 = 0x00000;
    /// Device status (link up, speed).
    pub const STATUS: u64 = 0x00008;
    /// EEPROM read (EERD): write address, poll DONE, read data.
    pub const EERD: u64 = 0x00014;
    /// MDI control (MDIC): PHY register access.
    pub const MDIC: u64 = 0x00020;
    /// Interrupt cause read (read-to-clear).
    pub const ICR: u64 = 0x000C0;
    /// Interrupt throttling register: minimum inter-interrupt interval in
    /// [`crate::ITR_UNIT_CYCLES`]-cycle units (the real part's 256 ns
    /// granularity). 0 disables moderation.
    pub const ITR: u64 = 0x000C4;
    /// Interrupt cause set (software-triggered causes).
    pub const ICS: u64 = 0x000C8;
    /// Interrupt mask set/read.
    pub const IMS: u64 = 0x000D0;
    /// Interrupt mask clear.
    pub const IMC: u64 = 0x000D8;
    /// Receive control.
    pub const RCTL: u64 = 0x00100;
    /// Transmit control.
    pub const TCTL: u64 = 0x00400;
    /// RX descriptor base (low 32 bits).
    pub const RDBAL: u64 = 0x02800;
    /// RX descriptor ring length in bytes.
    pub const RDLEN: u64 = 0x02808;
    /// RX head (hardware-owned).
    pub const RDH: u64 = 0x02810;
    /// RX tail (software-owned).
    pub const RDT: u64 = 0x02818;
    /// TX descriptor base (low 32 bits).
    pub const TDBAL: u64 = 0x03800;
    /// TX descriptor ring length in bytes.
    pub const TDLEN: u64 = 0x03808;
    /// TX head (hardware-owned).
    pub const TDH: u64 = 0x03810;
    /// TX tail (software-owned).
    pub const TDT: u64 = 0x03818;
    /// Good packets received count (read-to-clear).
    pub const GPRC: u64 = 0x04074;
    /// Good packets transmitted count (read-to-clear).
    pub const GPTC: u64 = 0x04080;
    /// Missed packets count (RX ring empty).
    pub const MPC: u64 = 0x04010;
    /// Receive address low (MAC bytes 0-3).
    pub const RAL0: u64 = 0x05400;
    /// Receive address high (MAC bytes 4-5 + valid bit).
    pub const RAH0: u64 = 0x05404;
}

/// Interrupt cause bits.
pub mod intr {
    /// Transmit descriptor written back.
    pub const TXDW: u32 = 0x01;
    /// Link status change.
    pub const LSC: u32 = 0x04;
    /// Receiver timer (packet received).
    pub const RXT0: u32 = 0x80;
}

/// TX descriptor command bits.
pub mod txcmd {
    /// End of packet.
    pub const EOP: u8 = 0x01;
    /// Report status (write DD back).
    pub const RS: u8 = 0x08;
}

/// Descriptor status bits.
pub mod stat {
    /// Descriptor done.
    pub const DD: u8 = 0x01;
    /// End of packet (RX).
    pub const EOP: u8 = 0x02;
}

/// Size of one legacy descriptor in bytes.
pub const DESC_SIZE: u64 = 16;

/// Size of the MMIO register window in bytes (32 pages, like the real
/// device's 128 KiB BAR).
pub const MMIO_WINDOW: u64 = 32 * PAGE_SIZE;

/// Link speed in bits per second (1 GbE).
pub const LINK_BPS: u64 = 1_000_000_000;

/// Cycles per `ITR` register unit: the real e1000's throttling interval
/// granularity is 256 ns, which is 768 cycles on the modeled 3.0 GHz
/// Xeon.
pub const ITR_UNIT_CYCLES: u64 = 768;

/// Default auto-tune interval window in virtual cycles (~67 µs at
/// 3.0 GHz): long enough that a window at offered load holds several
/// packets, short enough that the tuner crosses the whole
/// [`ITR_LADDER`] well inside one measurement phase.
pub const AUTOTUNE_WINDOW_CYCLES: u64 = 200_000;

/// The ITR settings the auto-tuner steps along — exactly the static
/// moderation sweep's grid, so "tracking the pareto front" means landing
/// on the sweep point the current load regime would have picked.
pub const ITR_LADDER: [u32; 4] = [0, 500, 1000, 2000];

/// Consecutive busy tuner windows before sustained traffic counts as the
/// bulk regime (see [`classify_itr_window`]).
pub const BULK_STREAK_WINDOWS: u32 = 3;

/// Packets a window must carry to count as one sustained-busy window
/// toward [`BULK_STREAK_WINDOWS`]: a multi-window service span
/// contributes `min(elapsed, packets / BUSY_WINDOW_PACKETS)` streak
/// windows (at least one), so one small burst smeared across an
/// unserviced span — a moderated light-load wait, where the gated
/// cause also masks the idle signal — reads as a single busy window,
/// while genuinely saturated spans (tens of packets per window) keep
/// their full weight.
pub const BUSY_WINDOW_PACKETS: u64 = 8;

/// Consecutive *bursty* busy windows (each preceded by an idle gap)
/// before the bulk regime demotes. Linux's `e1000_update_itr` is
/// likewise asymmetric — `bulk_latency` only steps down on clearly
/// light intervals — so one isolated gap (a measurement drain, a brief
/// lull) does not throw away a converged setting, while a genuine drop
/// to bursty load demotes within two windows.
pub const BULK_DEMOTE_WINDOWS: u32 = 2;

/// Idle cycles between two busy windows that mark the traffic as
/// bursty: any gap at least this long (a quarter window) restarts the
/// sustained-load streak, so only genuinely back-to-back load — the
/// regime where interrupt cost compounds into receive livelock — can
/// climb to [`LatencyClass::BulkLatency`]. The tuner learns about idle
/// through [`ItrTuner::note_idle`]; a device whose latched cause is
/// merely waiting out its own moderation window is backlogged, not
/// idle, and must not be fed here.
pub const IDLE_RESET_CYCLES: u64 = AUTOTUNE_WINDOW_CYCLES / 4;

/// Consecutive *idle* windows before the tuner starts decaying toward
/// latency mode. Within the grace the knob is frozen, like the real
/// `e1000_update_itr` (which simply never runs without interrupts):
/// a pause while a latched cause waits out its own moderation window —
/// up to `2000 × 768` cycles ≈ 7.7 windows — must not soften the very
/// window it is waiting on, and an inter-burst lull stacked on top of
/// such a wait must not either. Sustained idleness beyond the grace
/// (~4.8 M cycles, 1.6 ms at 3 GHz) steps class and register down one
/// rung per window, so a device that goes genuinely quiet delivers its
/// next interrupt immediately.
pub const IDLE_DECAY_GRACE_WINDOWS: u32 = 24;

/// At most this many packets per window still counts as a trickle…
pub const TRICKLE_PACKETS: u64 = 4;

/// …provided they carry less than this many bytes (a few small frames:
/// pure latency mode, like Linux's `lowest_latency` small-packet rule).
pub const TRICKLE_BYTES: u64 = 4096;

/// Bytes/packet above which a window is bulk regardless of rate
/// (Linux's `bytes/packets > 8000` jumbo rule in `e1000_update_itr`).
pub const BULK_BYTES_PER_PACKET: u64 = 8000;

/// The three latency regimes of the Linux e1000 `e1000_update_itr`
/// state machine. Each maps to a target point on the [`ITR_LADDER`];
/// the tuner steps the `ITR` register one rung per window toward the
/// current class's target (hysteresis), so a transient window never
/// swings the knob across the whole range.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LatencyClass {
    /// Sporadic, small traffic: deliver every interrupt immediately.
    LowestLatency,
    /// Meaningful but bursty traffic: moderate lightly.
    LowLatency,
    /// Sustained traffic saturating the service capacity (the
    /// receive-livelock regime): moderate hard.
    BulkLatency,
}

impl LatencyClass {
    /// Stable label used in trace exports.
    pub fn label(self) -> &'static str {
        match self {
            LatencyClass::LowestLatency => "lowest_latency",
            LatencyClass::LowLatency => "low_latency",
            LatencyClass::BulkLatency => "bulk_latency",
        }
    }

    /// The ladder point this regime steers toward.
    pub fn target_itr(self) -> u32 {
        match self {
            LatencyClass::LowestLatency => 0,
            LatencyClass::LowLatency => 500,
            LatencyClass::BulkLatency => 2000,
        }
    }

    /// One step toward latency mode (an idle window's decay).
    pub fn decay(self) -> LatencyClass {
        match self {
            LatencyClass::BulkLatency => LatencyClass::LowLatency,
            _ => LatencyClass::LowestLatency,
        }
    }
}

/// Classifies one tuner window from its observed counters — the
/// `e1000_update_itr` decision, restated on the virtual clock:
///
/// * an idle window decays one class toward latency mode;
/// * jumbo-sized packets (`bytes/packet >` [`BULK_BYTES_PER_PACKET`])
///   are bulk at any rate, like the real driver's first test;
/// * the regime promotes on *sustainedness*: traffic in
///   [`BULK_STREAK_WINDOWS`] consecutive windows with no idle gap means
///   the device never goes quiet — the bulk regime where interrupt cost
///   compounds into receive livelock;
/// * demotion out of bulk is asymmetric: it needs
///   [`BULK_DEMOTE_WINDOWS`] consecutive *bursty* windows
///   (`light_streak`), so one isolated gap does not discard a converged
///   setting;
/// * below bulk, a trickle (≤ [`TRICKLE_PACKETS`] packets under
///   [`TRICKLE_BYTES`] bytes) is `lowest_latency` and anything more is
///   `low_latency`.
///
/// `busy_streak` counts consecutive no-idle-gap windows with traffic
/// *including* this one; `light_streak` counts consecutive bursty
/// (idle-gapped) busy windows including this one. Pure function so
/// boundary tests can hit it directly.
pub fn classify_itr_window(
    current: LatencyClass,
    busy_streak: u32,
    light_streak: u32,
    packets: u64,
    bytes: u64,
) -> LatencyClass {
    if packets == 0 {
        return current.decay();
    }
    if bytes / packets > BULK_BYTES_PER_PACKET {
        return LatencyClass::BulkLatency;
    }
    if busy_streak >= BULK_STREAK_WINDOWS {
        return LatencyClass::BulkLatency;
    }
    if current == LatencyClass::BulkLatency && light_streak < BULK_DEMOTE_WINDOWS {
        return LatencyClass::BulkLatency;
    }
    if packets <= TRICKLE_PACKETS && bytes < TRICKLE_BYTES {
        LatencyClass::LowestLatency
    } else {
        LatencyClass::LowLatency
    }
}

/// One rung along the [`ITR_LADDER`] from `cur` toward `target` (both
/// snapped to the nearest rung first, so an externally programmed
/// off-grid value converges onto the ladder instead of wedging).
pub fn itr_step_toward(cur: u32, target: u32) -> u32 {
    let nearest = |v: u32| -> usize {
        (0..ITR_LADDER.len())
            .min_by_key(|&i| ITR_LADDER[i].abs_diff(v))
            .unwrap_or(0)
    };
    let c = nearest(cur);
    let t = nearest(target);
    match t.cmp(&c) {
        std::cmp::Ordering::Greater => ITR_LADDER[c + 1],
        std::cmp::Ordering::Less => ITR_LADDER[c - 1],
        std::cmp::Ordering::Equal => ITR_LADDER[c],
    }
}

/// Counters accumulated by the auto-tuner over its most recent closed
/// interval window (test/bench observability).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TunerWindow {
    /// Packets the device received in the window.
    pub packets: u64,
    /// Bytes the device received in the window.
    pub bytes: u64,
    /// Interrupts actually delivered to software in the window.
    pub irqs: u64,
}

/// Per-device closed-loop `ITR` auto-tuner, modeled on the Linux e1000
/// `e1000_update_itr`/`e1000_set_itr` pair: every
/// [`AUTOTUNE_WINDOW_CYCLES`] of virtual time it consumes the device's
/// receive-counter deltas, classifies the window into a
/// [`LatencyClass`], and retunes the `ITR` register **one ladder rung
/// per window** toward that class's target — hysteresis that keeps a
/// constant load from oscillating the knob. Short idle gaps freeze the
/// tuner ([`IDLE_DECAY_GRACE_WINDOWS`]); sustained idleness beyond the
/// grace decays class and register toward latency mode, so a device
/// that goes genuinely quiet is ready to deliver the next interrupt
/// immediately.
///
/// The tuner only observes the [`Nic`] and proposes a new value; the
/// system writes it back through the normal MMIO path, exactly as
/// driver code would.
#[derive(Clone, Debug)]
pub struct ItrTuner {
    window_cycles: u64,
    /// Start of the currently accumulating window (virtual cycles).
    window_start: u64,
    last_rx_packets: u64,
    last_rx_bytes: u64,
    last_irqs_delivered: u64,
    class: LatencyClass,
    busy_streak: u32,
    light_streak: u32,
    idle_streak: u32,
    /// True-idle cycles (not gated-pending waits) reported via
    /// [`ItrTuner::note_idle`] since the last serviced window.
    idle_accum: u64,
    /// Counters of the most recent *closed* window.
    pub last_window: TunerWindow,
    /// Closed windows so far.
    pub windows: u64,
    /// Windows that changed the `ITR` register.
    pub retunes: u64,
}

impl ItrTuner {
    /// Creates a tuner for `nic`, anchored at virtual time `now` with
    /// the given window length (use [`AUTOTUNE_WINDOW_CYCLES`]).
    pub fn new(now: u64, window_cycles: u64, nic: &Nic) -> ItrTuner {
        let s = nic.stats();
        ItrTuner {
            window_cycles: window_cycles.max(1),
            window_start: now,
            last_rx_packets: s.rx_packets,
            last_rx_bytes: s.rx_bytes,
            last_irqs_delivered: nic.irqs_delivered(),
            class: LatencyClass::LowestLatency,
            busy_streak: 0,
            light_streak: 0,
            idle_streak: 0,
            idle_accum: 0,
            last_window: TunerWindow::default(),
            windows: 0,
            retunes: 0,
        }
    }

    /// The current latency regime.
    pub fn class(&self) -> LatencyClass {
        self.class
    }

    /// Reports `cycles` of true device idleness (nothing latched,
    /// nothing arriving) inside the current window. The virtual clock
    /// only elapses when work is charged, so offered-vs-capacity
    /// pressure is invisible in packet rates alone — idle time is the
    /// honest load signal, and any gap of [`IDLE_RESET_CYCLES`]
    /// restarts the sustained-load streak. Do **not** report waits of a
    /// latched cause on its own moderation window: a gated device is
    /// backlogged, not idle (at light load its idleness still shows in
    /// the gap after each window-open delivery clears the cause; the
    /// [`BUSY_WINDOW_PACKETS`] rate floor keeps the masked span from
    /// inflating the streak meanwhile).
    pub fn note_idle(&mut self, cycles: u64) {
        self.idle_accum = self.idle_accum.saturating_add(cycles);
    }

    /// When the currently accumulating window closes — the tuner's
    /// virtual-timer due time.
    pub fn next_window_at(&self) -> u64 {
        self.window_start + self.window_cycles
    }

    /// Services the tuner at virtual time `now`: if at least one window
    /// has elapsed, consume the device's counter deltas, reclassify on
    /// the span's totals, and return the one-rung retuned `ITR` value
    /// when it differs from the device's current one (`None` otherwise —
    /// including mid-window).
    ///
    /// A span of several windows with traffic and no idle means the
    /// system was processing the whole time (heavy passes outrun the
    /// wheel): it stays one classification with its packet-rate-capped
    /// streak weight, never a string of synthetic per-window rates.
    /// Only sustained idle takes multiple decay steps in one service.
    pub fn service(&mut self, now: u64, nic: &Nic) -> Option<u32> {
        if now < self.next_window_at() {
            return None;
        }
        let elapsed = (now - self.window_start) / self.window_cycles;
        self.window_start += elapsed * self.window_cycles;
        self.windows += elapsed;
        let s = nic.stats();
        let packets = s.rx_packets - self.last_rx_packets;
        let bytes = s.rx_bytes - self.last_rx_bytes;
        let irqs = nic.irqs_delivered() - self.last_irqs_delivered;
        self.last_rx_packets = s.rx_packets;
        self.last_rx_bytes = s.rx_bytes;
        self.last_irqs_delivered = nic.irqs_delivered();
        self.last_window = TunerWindow {
            packets,
            bytes,
            irqs,
        };

        let cur = nic.itr();
        let mut new = cur;
        if packets == 0 && self.idle_accum < IDLE_RESET_CYCLES {
            // No arrivals, but no reported idleness either: the span
            // was pure processing (another device's pass, post-pass
            // bookkeeping) — neutral evidence. Consume the window and
            // keep every streak; a still-growing idle gap keeps
            // accumulating toward the next evaluation.
        } else if packets == 0 {
            // Genuinely idle windows: frozen within the grace (a
            // latched cause waiting out its own window must not soften
            // it), decaying one rung per window beyond it. The loop
            // bound covers a full decay from the top of the ladder;
            // longer idles change nothing more.
            self.busy_streak = 0;
            self.idle_accum = 0; // absorbed into the idle-window streak
            let bound = (IDLE_DECAY_GRACE_WINDOWS as u64) + ITR_LADDER.len() as u64;
            for _ in 0..elapsed.min(bound) {
                self.idle_streak = self.idle_streak.saturating_add(1);
                if self.idle_streak > IDLE_DECAY_GRACE_WINDOWS {
                    self.class = self.class.decay();
                    new = itr_step_toward(new, self.class.target_itr());
                }
            }
        } else {
            // Traffic after any idle gap — a whole idle window, or a
            // sub-window gap reported via `note_idle` — is bursty: the
            // sustained-load streak restarts and the lightness streak
            // grows. A multi-window span with *no* idle means the
            // system was crunching the whole time (processing outran
            // the wheel) — sustained load, however few new packets the
            // span carried, so classification uses the span's totals
            // and the streak weights the span by its packet rate.
            let bursty = self.idle_streak > 0 || self.idle_accum >= IDLE_RESET_CYCLES;
            if bursty {
                self.busy_streak = 0;
                self.light_streak = self.light_streak.saturating_add(1);
                // Only a gap that triggered a reset is consumed; a
                // window boundary landing *inside* a still-growing gap
                // must not swallow it piecemeal, or a fixed-rate bursty
                // load whose gaps straddle boundaries would read as
                // sustained (the boundary-phasing race).
                self.idle_accum = 0;
            } else {
                self.light_streak = 0;
                // A sub-threshold remainder keeps most of its weight (a
                // gap may still be growing across this service), but
                // decays geometrically so *distinct* tiny slivers — a
                // near-saturated device idling a few percent of every
                // window — can never pile up into a spurious reset.
                self.idle_accum /= 2;
            }
            self.idle_streak = 0;
            let span_busy = elapsed.min((packets / BUSY_WINDOW_PACKETS).max(1));
            self.busy_streak = self.busy_streak.saturating_add(span_busy as u32);
            self.class = classify_itr_window(
                self.class,
                self.busy_streak,
                self.light_streak,
                packets,
                bytes,
            );
            new = itr_step_toward(new, self.class.target_itr());
        }
        if new != cur {
            self.retunes += 1;
            Some(new)
        } else {
            None
        }
    }
}

/// Counters a real e1000 keeps in hardware.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Good packets transmitted.
    pub tx_packets: u64,
    /// Good packets received.
    pub rx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames dropped because the RX ring was out of buffers.
    pub rx_missed: u64,
    /// Receive interrupt assertions (one per delivery burst, however many
    /// frames it carried — the coalescing the burst datapath measures).
    pub rx_irqs: u64,
    /// Transmit-done interrupt assertions (one per `TDT` kick that moved
    /// at least one frame).
    pub tx_irqs: u64,
}

/// The NIC device model.
#[derive(Clone, Debug)]
pub struct Nic {
    /// Device id used in MMIO routing.
    pub dev_id: u32,
    mac: MacAddr,
    ctrl: u32,
    icr: u32,
    ims: u32,
    rctl: u32,
    tctl: u32,
    tdbal: u32,
    tdlen: u32,
    tdh: u32,
    tdt: u32,
    rdbal: u32,
    rdlen: u32,
    rdh: u32,
    rdt: u32,
    ral: u32,
    rah: u32,
    stats: NicStats,
    /// Interrupt throttling register (moderation interval in
    /// [`ITR_UNIT_CYCLES`]-cycle units; 0 = no moderation).
    itr: u32,
    /// Virtual-cycle timestamp of the last *delivered* interrupt (the
    /// moderation window anchor); `None` until the first delivery.
    last_irq_cycles: Option<u64>,
    /// Interrupts actually delivered to software (every
    /// [`Nic::note_irq_delivered`]) — the rate the ITR auto-tuner
    /// observes, distinct from `stats.rx_irqs` (hardware assertions).
    irqs_delivered: u64,
    tx_out: Vec<Frame>,
    /// Partial multi-descriptor TX packet being accumulated.
    tx_partial: Option<(Frame, u32)>,
    /// Last EERD command written (address select).
    eerd: u32,
    /// Last MDIC command written.
    mdic: u32,
}

impl Nic {
    /// Creates a NIC with the given device id and permanent MAC address.
    pub fn new(dev_id: u32, mac: MacAddr) -> Nic {
        let m = mac.0;
        let ral = u32::from_le_bytes([m[0], m[1], m[2], m[3]]);
        let rah = u32::from(u16::from_le_bytes([m[4], m[5]])) | 0x8000_0000;
        Nic {
            dev_id,
            mac,
            ctrl: 0,
            icr: 0,
            ims: 0,
            rctl: 0,
            tctl: 0,
            tdbal: 0,
            tdlen: 0,
            tdh: 0,
            tdt: 0,
            rdbal: 0,
            rdlen: 0,
            rdh: 0,
            rdt: 0,
            ral,
            rah,
            stats: NicStats::default(),
            itr: 0,
            last_irq_cycles: None,
            irqs_delivered: 0,
            tx_out: Vec::new(),
            tx_partial: None,
            eerd: 0,
            mdic: 0,
        }
    }

    /// EEPROM contents: three 16-bit words of MAC address followed by a
    /// checksum word making the image sum to 0xBABA (like real parts).
    fn eeprom_word(&self, addr: u32) -> u16 {
        let m = self.mac.0;
        match addr {
            0 => u16::from_le_bytes([m[0], m[1]]),
            1 => u16::from_le_bytes([m[2], m[3]]),
            2 => u16::from_le_bytes([m[4], m[5]]),
            3 => {
                let sum = (0..3u32).map(|i| self.eeprom_word(i) as u32).sum::<u32>();
                0xBABAu16.wrapping_sub(sum as u16)
            }
            _ => 0xffff,
        }
    }

    /// The device's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The interrupt line this NIC asserts on. Each device gets its own
    /// line (the multi-NIC sharded datapath routes it to a per-device
    /// handler registration / softirq source); the model simply reuses
    /// the device id, like sequential legacy INTx assignment.
    pub fn irq_line(&self) -> u32 {
        self.dev_id
    }

    /// Hardware statistics.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Whether the interrupt line is asserted (`ICR & IMS != 0`). This is
    /// the raw latched cause — interrupt moderation does not clear it, it
    /// only delays *delivery* (see [`Nic::irq_deliverable`]), so no
    /// pending work is ever lost while a window is closed.
    pub fn irq_asserted(&self) -> bool {
        self.icr & self.ims != 0
    }

    /// Current `ITR` register value (moderation interval units).
    pub fn itr(&self) -> u32 {
        self.itr
    }

    /// The moderation interval in cycles (`ITR` × [`ITR_UNIT_CYCLES`]).
    pub fn itr_cycles(&self) -> u64 {
        self.itr as u64 * ITR_UNIT_CYCLES
    }

    /// True when the throttling window permits delivering an interrupt at
    /// virtual time `now`: either moderation is off, no interrupt has
    /// been delivered yet, or `itr_cycles` have elapsed since the last
    /// delivery.
    pub fn irq_allowed_at(&self, now: u64) -> bool {
        match self.last_irq_cycles {
            _ if self.itr == 0 => true,
            None => true,
            Some(last) => now >= last + self.itr_cycles(),
        }
    }

    /// True when a latched cause can be delivered right now (asserted and
    /// inside an open window).
    pub fn irq_deliverable(&self, now: u64) -> bool {
        self.irq_asserted() && self.irq_allowed_at(now)
    }

    /// When the latched cause becomes deliverable: `Some(cycle)` while a
    /// cause is pending (the cycle is in the past if the window is
    /// already open), `None` when nothing is latched. Used to arm the
    /// virtual moderation timer.
    pub fn irq_ready_at(&self) -> Option<u64> {
        if !self.irq_asserted() {
            return None;
        }
        match self.last_irq_cycles {
            _ if self.itr == 0 => Some(0),
            None => Some(0),
            Some(last) => Some(last + self.itr_cycles()),
        }
    }

    /// Records that the interrupt was delivered to software at virtual
    /// time `now`, opening a new moderation window.
    pub fn note_irq_delivered(&mut self, now: u64) {
        self.last_irq_cycles = Some(now);
        self.irqs_delivered += 1;
    }

    /// Interrupts delivered to software so far (the auto-tuner's
    /// per-window interrupt counter reads deltas of this).
    pub fn irqs_delivered(&self) -> u64 {
        self.irqs_delivered
    }

    /// Number of TX descriptors in the ring (0 before TDLEN is set).
    pub fn tx_ring_len(&self) -> u32 {
        self.tdlen / DESC_SIZE as u32
    }

    /// Number of RX descriptors in the ring.
    pub fn rx_ring_len(&self) -> u32 {
        self.rdlen / DESC_SIZE as u32
    }

    /// Drains frames transmitted since the last call (the wire side).
    pub fn take_tx_frames(&mut self) -> Vec<Frame> {
        std::mem::take(&mut self.tx_out)
    }

    /// MMIO register read. `ICR` is read-to-clear; statistics registers
    /// are read-to-clear like the real device.
    pub fn mmio_read(&mut self, offset: u64) -> u32 {
        match offset {
            regs::CTRL => self.ctrl,
            regs::STATUS => 0x8_0003, // link up, full duplex, 1000 Mb/s
            regs::EERD => {
                // DONE (bit 4) | data in bits 16..32, addr echoed in 8..16.
                let addr = (self.eerd >> 8) & 0xff;
                (self.eeprom_word(addr) as u32) << 16 | (addr << 8) | 0x10
            }
            regs::MDIC => {
                // READY (bit 28) | PHY register data. BMSR (reg 1) reads
                // link-up | autoneg-complete.
                let reg = (self.mdic >> 16) & 0x1f;
                let data: u32 = match reg {
                    1 => 0x0024, // BMSR: link status + autoneg complete
                    2 => 0x0141, // PHY id 1
                    _ => 0,
                };
                (1 << 28) | data
            }
            regs::ICR => {
                let v = self.icr;
                self.icr = 0;
                v
            }
            regs::ITR => self.itr,
            regs::IMS => self.ims,
            regs::RCTL => self.rctl,
            regs::TCTL => self.tctl,
            regs::RDBAL => self.rdbal,
            regs::RDLEN => self.rdlen,
            regs::RDH => self.rdh,
            regs::RDT => self.rdt,
            regs::TDBAL => self.tdbal,
            regs::TDLEN => self.tdlen,
            regs::TDH => self.tdh,
            regs::TDT => self.tdt,
            regs::GPRC => self.stats.rx_packets as u32,
            regs::GPTC => self.stats.tx_packets as u32,
            regs::MPC => self.stats.rx_missed as u32,
            regs::RAL0 => self.ral,
            regs::RAH0 => self.rah,
            _ => 0,
        }
    }

    /// MMIO register write. Writing `TDT` kicks the transmit DMA engine
    /// (the path the driver's `xmit_frame` ends with).
    pub fn mmio_write(&mut self, phys: &mut PhysMem, offset: u64, val: u32) {
        match offset {
            regs::CTRL => self.ctrl = val,
            regs::EERD => self.eerd = val,
            regs::MDIC => self.mdic = val,
            regs::ICS => {
                self.icr |= val;
            }
            regs::ITR => self.itr = val,
            regs::IMS => self.ims |= val,
            regs::IMC => self.ims &= !val,
            regs::ICR => self.icr &= !val, // write-1-to-clear
            regs::RCTL => self.rctl = val,
            regs::TCTL => self.tctl = val,
            regs::RDBAL => self.rdbal = val,
            regs::RDLEN => self.rdlen = val,
            regs::RDH => self.rdh = val,
            regs::RDT => self.rdt = val,
            regs::TDBAL => self.tdbal = val,
            regs::TDLEN => self.tdlen = val,
            regs::TDH => self.tdh = val,
            regs::TDT => {
                self.tdt = val;
                self.process_tx(phys);
            }
            regs::RAL0 => self.ral = val,
            regs::RAH0 => self.rah = val,
            _ => {}
        }
    }

    /// Transmit engine: consume descriptors from `TDH` up to `TDT`,
    /// reading packet data via DMA, writing back `DD` status, and placing
    /// completed frames on the wire queue.
    fn process_tx(&mut self, phys: &mut PhysMem) {
        let n = self.tx_ring_len();
        if n == 0 || self.tctl & 0x2 == 0 {
            return; // ring not configured or TX disabled (TCTL.EN)
        }
        let mut sent = false;
        while self.tdh != self.tdt {
            let daddr = self.tdbal as u64 + self.tdh as u64 * DESC_SIZE;
            let buf = phys.read_u32(daddr) as u64;
            let len = phys.read_u32(daddr + 8) & 0xffff;
            let cmd = phys.read_u8(daddr + 11);

            match &mut self.tx_partial {
                None => {
                    // First descriptor of a packet: parse the wire prefix.
                    let prefix = phys.read_bytes(buf, WIRE_PREFIX_LEN);
                    if let Some(f) = Frame::from_wire_prefix(prefix, len.max(ETH_HEADER_LEN)) {
                        self.tx_partial = Some((f, len));
                    } else {
                        // Malformed packet: count and skip to EOP.
                        self.tx_partial =
                            Some((Frame::data(MacAddr::BROADCAST, self.mac, 0, 0), len));
                    }
                }
                Some((_, total)) => {
                    *total += len;
                }
            }

            if cmd & txcmd::EOP != 0 {
                if let Some((mut f, total)) = self.tx_partial.take() {
                    f.payload_len = total.saturating_sub(ETH_HEADER_LEN);
                    self.stats.tx_packets += 1;
                    self.stats.tx_bytes += total as u64;
                    self.tx_out.push(f);
                    sent = true;
                }
            }
            if cmd & txcmd::RS != 0 {
                phys.write_u8(daddr + 12, stat::DD);
            }
            self.tdh = (self.tdh + 1) % n;
        }
        if sent {
            self.icr |= intr::TXDW;
            self.stats.tx_irqs += 1;
        }
    }

    /// Receive path: DMA a frame into the next posted RX buffer.
    ///
    /// Returns `false` (and counts a missed packet) when the ring has no
    /// free descriptors — i.e. software hasn't replenished buffers.
    /// Equivalent to a [`Nic::deliver_batch`] of one frame.
    pub fn deliver(&mut self, phys: &mut PhysMem, frame: &Frame) -> bool {
        self.deliver_batch(phys, std::slice::from_ref(frame)) == 1
    }

    /// Burst receive path: DMAs as many of `frames` as fit into posted RX
    /// buffers, in order, then asserts a **single** coalesced receive
    /// interrupt — the receive-side interrupt moderation a real e1000
    /// performs with its receive timer (`RXT0` fires once per burst, not
    /// once per frame).
    ///
    /// Returns how many frames were accepted; the remainder are counted
    /// as missed (ring out of buffers).
    pub fn deliver_batch(&mut self, phys: &mut PhysMem, frames: &[Frame]) -> usize {
        let n = self.rx_ring_len();
        if n == 0 || self.rctl & 0x2 == 0 {
            self.stats.rx_missed += frames.len() as u64;
            return 0;
        }
        let mut accepted = 0;
        for frame in frames {
            // Hardware may fill descriptors while RDH != RDT.
            if self.rdh == self.rdt {
                break;
            }
            let daddr = self.rdbal as u64 + self.rdh as u64 * DESC_SIZE;
            let buf = phys.read_u32(daddr) as u64;
            phys.write_bytes(buf, &frame.wire_prefix());
            let total = frame.len();
            phys.write_u32(daddr + 8, total & 0xffff);
            phys.write_u8(daddr + 12, stat::DD | stat::EOP);
            self.rdh = (self.rdh + 1) % n;
            self.stats.rx_packets += 1;
            self.stats.rx_bytes += total as u64;
            accepted += 1;
        }
        self.stats.rx_missed += (frames.len() - accepted) as u64;
        if accepted > 0 {
            self.icr |= intr::RXT0;
            self.stats.rx_irqs += 1;
        }
        accepted
    }

    /// Free RX descriptors currently posted to hardware.
    pub fn rx_free_descriptors(&self) -> u32 {
        let n = self.rx_ring_len();
        if n == 0 {
            return 0;
        }
        (self.rdt + n - self.rdh) % n
    }

    /// RX descriptors the hardware has filled that software has not yet
    /// reaped and replenished — the poll loop's "is there work" signal.
    /// (The driver always posts `n - 1` buffers, so pending work is
    /// whatever of that headroom is currently consumed.)
    pub fn rx_pending(&self) -> u32 {
        let n = self.rx_ring_len();
        if n == 0 {
            return 0;
        }
        (n - 1).saturating_sub(self.rx_free_descriptors())
    }

    /// Whether the receive-interrupt cause is masked (`IMS` bit for
    /// `RXT0` clear) — the NAPI poll-mode state as hardware sees it:
    /// masked means arrivals latch `ICR` silently and the budgeted poll
    /// loop owns the ring until software re-arms via `IMS`.
    pub fn rx_irq_masked(&self) -> bool {
        self.ims & intr::RXT0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_net::EtherType;

    fn mk() -> (Nic, PhysMem) {
        let nic = Nic::new(0, MacAddr::for_guest(1));
        let phys = PhysMem::new(64);
        (nic, phys)
    }

    /// Builds a TX ring at phys 0x1000 with `n` descriptors and one
    /// buffer page per descriptor starting at 0x10000.
    fn setup_tx(nic: &mut Nic, phys: &mut PhysMem, n: u32) {
        nic.mmio_write(phys, regs::TDBAL, 0x1000);
        nic.mmio_write(phys, regs::TDLEN, n * DESC_SIZE as u32);
        nic.mmio_write(phys, regs::TDH, 0);
        nic.mmio_write(phys, regs::TDT, 0);
        nic.mmio_write(phys, regs::TCTL, 0x2);
    }

    fn setup_rx(nic: &mut Nic, phys: &mut PhysMem, n: u32) {
        nic.mmio_write(phys, regs::RDBAL, 0x2000);
        nic.mmio_write(phys, regs::RDLEN, n * DESC_SIZE as u32);
        nic.mmio_write(phys, regs::RDH, 0);
        for i in 0..n {
            let daddr = 0x2000 + i as u64 * DESC_SIZE;
            phys.write_u32(daddr, 0x20000 + i * 0x1000);
        }
        nic.mmio_write(phys, regs::RDT, n - 1); // post n-1 buffers
        nic.mmio_write(phys, regs::RCTL, 0x2);
    }

    fn queue_tx_frame(_nic: &mut Nic, phys: &mut PhysMem, frame: &Frame, desc: u32) {
        let buf = 0x10000 + desc as u64 * 0x1000;
        phys.write_bytes(buf, &frame.wire_prefix());
        let daddr = 0x1000 + desc as u64 * DESC_SIZE;
        phys.write_u32(daddr, buf as u32);
        phys.write_u32(daddr + 8, frame.len());
        phys.write_u8(daddr + 11, txcmd::EOP | txcmd::RS);
        phys.write_u8(daddr + 12, 0);
    }

    #[test]
    fn tx_single_frame() {
        let (mut nic, mut phys) = mk();
        setup_tx(&mut nic, &mut phys, 8);
        let f = Frame::data(MacAddr::for_guest(2), nic.mac(), 7, 3);
        queue_tx_frame(&mut nic, &mut phys, &f, 0);
        nic.mmio_write(&mut phys, regs::TDT, 1);
        let out = nic.take_tx_frames();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, f.dst);
        assert_eq!(out[0].flow, 7);
        assert_eq!(out[0].seq, 3);
        assert_eq!(out[0].payload_len, f.payload_len);
        // DD written back.
        assert_eq!(phys.read_u8(0x1000 + 12) & stat::DD, stat::DD);
        // TDH advanced.
        assert_eq!(nic.mmio_read(regs::TDH), 1);
        assert_eq!(nic.stats().tx_packets, 1);
    }

    #[test]
    fn tx_interrupt_gated_by_mask() {
        let (mut nic, mut phys) = mk();
        setup_tx(&mut nic, &mut phys, 8);
        let f = Frame::data(MacAddr::for_guest(2), nic.mac(), 0, 0);
        queue_tx_frame(&mut nic, &mut phys, &f, 0);
        nic.mmio_write(&mut phys, regs::TDT, 1);
        assert!(!nic.irq_asserted(), "masked interrupts stay deasserted");
        nic.mmio_write(&mut phys, regs::IMS, intr::TXDW);
        assert!(nic.irq_asserted());
        // ICR is read-to-clear.
        let icr = nic.mmio_read(regs::ICR);
        assert_ne!(icr & intr::TXDW, 0);
        assert!(!nic.irq_asserted());
    }

    #[test]
    fn tx_ring_wraps() {
        let (mut nic, mut phys) = mk();
        setup_tx(&mut nic, &mut phys, 4);
        for round in 0..3u32 {
            for i in 0..4u32 {
                let f = Frame::data(MacAddr::for_guest(2), nic.mac(), 0, (round * 4 + i) as u64);
                queue_tx_frame(&mut nic, &mut phys, &f, i);
            }
            // Move TDT one descriptor at a time, wrapping.
            for i in 0..4u32 {
                nic.mmio_write(&mut phys, regs::TDT, (i + 1) % 4);
            }
        }
        let out = nic.take_tx_frames();
        assert_eq!(out.len(), 12);
        assert_eq!(out.last().unwrap().seq, 11);
    }

    #[test]
    fn tx_multi_descriptor_packet() {
        let (mut nic, mut phys) = mk();
        setup_tx(&mut nic, &mut phys, 8);
        let f = Frame::data(MacAddr::for_guest(2), nic.mac(), 1, 1);
        // First descriptor: header + 96 bytes; second: the rest, EOP.
        let buf0 = 0x10000u64;
        phys.write_bytes(buf0, &f.wire_prefix());
        phys.write_u32(0x1000, buf0 as u32);
        phys.write_u32(0x1000 + 8, 96 + ETH_HEADER_LEN);
        phys.write_u8(0x1000 + 11, txcmd::RS); // no EOP
        let rest = f.payload_len - 96;
        phys.write_u32(0x1010, 0x11000);
        phys.write_u32(0x1010 + 8, rest);
        phys.write_u8(0x1010 + 11, txcmd::EOP | txcmd::RS);
        nic.mmio_write(&mut phys, regs::TDT, 2);
        let out = nic.take_tx_frames();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload_len, f.payload_len);
        assert_eq!(nic.mmio_read(regs::TDH), 2);
    }

    #[test]
    fn rx_delivery_and_backpressure() {
        let (mut nic, mut phys) = mk();
        setup_rx(&mut nic, &mut phys, 4); // 3 buffers posted
        let f = Frame {
            dst: nic.mac(),
            src: MacAddr::for_guest(9),
            ethertype: EtherType::Ipv4,
            payload_len: 900,
            flow: 5,
            seq: 42,
        };
        assert!(nic.deliver(&mut phys, &f));
        assert!(nic.deliver(&mut phys, &f));
        assert!(nic.deliver(&mut phys, &f));
        assert!(!nic.deliver(&mut phys, &f), "ring exhausted");
        assert_eq!(nic.stats().rx_packets, 3);
        assert_eq!(nic.stats().rx_missed, 1);
        // First descriptor has DD|EOP and the right length.
        assert_eq!(phys.read_u8(0x2000 + 12), stat::DD | stat::EOP);
        assert_eq!(phys.read_u32(0x2000 + 8), f.len());
        // Buffer contains the header (demux by MAC reads this).
        let got =
            Frame::from_wire_prefix(phys.read_bytes(0x20000, WIRE_PREFIX_LEN), f.len()).unwrap();
        assert_eq!(got.dst, nic.mac());
        assert_eq!(got.seq, 42);
        // Replenish: software moves RDT forward; delivery works again.
        nic.mmio_write(&mut phys, regs::RDT, 2);
        assert!(nic.deliver(&mut phys, &f));
    }

    #[test]
    fn rx_pending_tracks_fill_and_reap() {
        let (mut nic, mut phys) = mk();
        setup_rx(&mut nic, &mut phys, 4); // 3 buffers posted
        assert_eq!(nic.rx_pending(), 0);
        let f = Frame::data(nic.mac(), MacAddr::for_guest(9), 0, 0);
        assert!(nic.deliver(&mut phys, &f));
        assert!(nic.deliver(&mut phys, &f));
        assert_eq!(nic.rx_pending(), 2);
        // Software reaps + replenishes: RDT catches up to RDH - 1.
        nic.mmio_write(&mut phys, regs::RDT, 1);
        assert_eq!(nic.rx_pending(), 0);
    }

    #[test]
    fn rx_irq_mask_state_follows_ims_imc() {
        let (mut nic, mut phys) = mk();
        setup_rx(&mut nic, &mut phys, 4);
        assert!(nic.rx_irq_masked(), "masked until software enables");
        nic.mmio_write(&mut phys, regs::IMS, intr::RXT0);
        assert!(!nic.rx_irq_masked());
        // Poll-mode entry: mask via IMC. The cause still latches, but
        // the line stays deasserted until re-armed.
        nic.mmio_write(&mut phys, regs::IMC, intr::RXT0);
        assert!(nic.rx_irq_masked());
        let f = Frame::data(nic.mac(), MacAddr::for_guest(9), 0, 0);
        assert!(nic.deliver(&mut phys, &f));
        assert!(!nic.irq_asserted(), "masked cause must not assert");
        nic.mmio_write(&mut phys, regs::IMS, intr::RXT0);
        assert!(nic.irq_asserted(), "re-arm raises the latched cause");
    }

    #[test]
    fn rx_interrupt_cause() {
        let (mut nic, mut phys) = mk();
        setup_rx(&mut nic, &mut phys, 4);
        nic.mmio_write(&mut phys, regs::IMS, intr::RXT0);
        let f = Frame::data(nic.mac(), MacAddr::for_guest(9), 0, 0);
        nic.deliver(&mut phys, &f);
        assert!(nic.irq_asserted());
        nic.mmio_read(regs::ICR);
        assert!(!nic.irq_asserted());
    }

    #[test]
    fn disabled_rings_do_nothing() {
        let (mut nic, mut phys) = mk();
        // No TCTL.EN: TDT write is ignored.
        nic.mmio_write(&mut phys, regs::TDBAL, 0x1000);
        nic.mmio_write(&mut phys, regs::TDLEN, 4 * DESC_SIZE as u32);
        nic.mmio_write(&mut phys, regs::TDT, 2);
        assert!(nic.take_tx_frames().is_empty());
        // No RCTL.EN: delivery misses.
        let f = Frame::data(nic.mac(), MacAddr::for_guest(9), 0, 0);
        assert!(!nic.deliver(&mut phys, &f));
    }

    #[test]
    fn mac_in_receive_address_registers() {
        let (mut nic, phys) = mk();
        let _ = phys;
        let ral = nic.mmio_read(regs::RAL0);
        let rah = nic.mmio_read(regs::RAH0);
        let mac = nic.mac();
        assert_eq!(ral.to_le_bytes()[..4], mac.0[..4]);
        assert_eq!((rah as u16).to_le_bytes()[..2], mac.0[4..6]);
        assert_ne!(rah & 0x8000_0000, 0, "address valid bit");
    }

    #[test]
    fn eeprom_holds_mac_and_checksums() {
        let (mut nic, mut phys) = mk();
        let mac = nic.mac();
        let mut sum = 0u16;
        let mut bytes = Vec::new();
        for w in 0..4u32 {
            nic.mmio_write(&mut phys, regs::EERD, w << 8);
            let v = nic.mmio_read(regs::EERD);
            assert_ne!(v & 0x10, 0, "DONE bit");
            let data = (v >> 16) as u16;
            sum = sum.wrapping_add(data);
            if w < 3 {
                bytes.extend_from_slice(&data.to_le_bytes());
            }
        }
        assert_eq!(&bytes[..], &mac.0[..], "MAC stored in words 0..2");
        assert_eq!(sum, 0xBABA, "image checksum");
    }

    #[test]
    fn mdic_phy_registers() {
        let (mut nic, mut phys) = mk();
        nic.mmio_write(&mut phys, regs::MDIC, 0x0801_0000); // read BMSR
        let v = nic.mmio_read(regs::MDIC);
        assert_ne!(v & (1 << 28), 0, "READY");
        assert_ne!(v & 0x0004, 0, "link up");
        nic.mmio_write(&mut phys, regs::MDIC, 0x0802_0000); // PHY id
        assert_eq!(nic.mmio_read(regs::MDIC) & 0xffff, 0x0141);
    }

    #[test]
    fn rx_batch_delivers_in_order_with_one_irq() {
        let (mut nic, mut phys) = mk();
        setup_rx(&mut nic, &mut phys, 16); // 15 buffers posted
        let frames: Vec<Frame> = (0..8)
            .map(|i| Frame::data(nic.mac(), MacAddr::for_guest(9), 1, i))
            .collect();
        assert_eq!(nic.deliver_batch(&mut phys, &frames), 8);
        assert_eq!(nic.stats().rx_packets, 8);
        assert_eq!(nic.stats().rx_irqs, 1, "one coalesced interrupt per burst");
        // Descriptors filled in order.
        for i in 0..8u64 {
            let daddr = 0x2000 + i * DESC_SIZE;
            assert_eq!(phys.read_u8(daddr + 12), stat::DD | stat::EOP);
            let got = Frame::from_wire_prefix(
                phys.read_bytes(0x20000 + i * 0x1000, WIRE_PREFIX_LEN),
                frames[i as usize].len(),
            )
            .unwrap();
            assert_eq!(got.seq, i);
        }
    }

    #[test]
    fn rx_batch_partial_acceptance_on_ring_pressure() {
        let (mut nic, mut phys) = mk();
        setup_rx(&mut nic, &mut phys, 4); // 3 buffers posted
        let frames: Vec<Frame> = (0..5)
            .map(|i| Frame::data(nic.mac(), MacAddr::for_guest(9), 1, i))
            .collect();
        assert_eq!(nic.deliver_batch(&mut phys, &frames), 3);
        assert_eq!(nic.stats().rx_missed, 2);
        assert_eq!(nic.stats().rx_irqs, 1);
        // A burst that fits nothing asserts no interrupt.
        nic.mmio_read(regs::ICR);
        assert_eq!(nic.deliver_batch(&mut phys, &frames[..2]), 0);
        assert_eq!(nic.stats().rx_irqs, 1);
        assert!(!nic.irq_asserted());
    }

    #[test]
    fn tx_kick_counts_one_irq_per_drained_tail() {
        let (mut nic, mut phys) = mk();
        setup_tx(&mut nic, &mut phys, 16);
        for i in 0..4u32 {
            let f = Frame::data(MacAddr::for_guest(2), nic.mac(), 0, i as u64);
            queue_tx_frame(&mut nic, &mut phys, &f, i);
        }
        // One doorbell covering four descriptors: one TXDW assertion.
        nic.mmio_write(&mut phys, regs::TDT, 4);
        assert_eq!(nic.take_tx_frames().len(), 4);
        assert_eq!(nic.stats().tx_irqs, 1);
    }

    #[test]
    fn multiple_nics_have_independent_rings_and_irq_lines() {
        // Two devices over the same physical memory: rings, statistics
        // and interrupt state never bleed across instances.
        let mut phys = PhysMem::new(128);
        let mut a = Nic::new(0, MacAddr::for_guest(0));
        let mut b = Nic::new(1, MacAddr::for_guest(1));
        assert_eq!(a.irq_line(), 0);
        assert_eq!(b.irq_line(), 1);
        // Distinct ring placements (disjoint descriptor/buffer ranges).
        a.mmio_write(&mut phys, regs::RDBAL, 0x2000);
        a.mmio_write(&mut phys, regs::RDLEN, 8 * DESC_SIZE as u32);
        a.mmio_write(&mut phys, regs::RDH, 0);
        for i in 0..8u64 {
            phys.write_u32(0x2000 + i * DESC_SIZE, (0x20000 + i * 0x1000) as u32);
        }
        a.mmio_write(&mut phys, regs::RDT, 7);
        a.mmio_write(&mut phys, regs::RCTL, 0x2);
        b.mmio_write(&mut phys, regs::RDBAL, 0x4000);
        b.mmio_write(&mut phys, regs::RDLEN, 8 * DESC_SIZE as u32);
        b.mmio_write(&mut phys, regs::RDH, 0);
        for i in 0..8u64 {
            phys.write_u32(0x4000 + i * DESC_SIZE, (0x40000 + i * 0x1000) as u32);
        }
        b.mmio_write(&mut phys, regs::RDT, 7);
        b.mmio_write(&mut phys, regs::RCTL, 0x2);

        let fa = Frame::data(a.mac(), MacAddr::for_guest(9), 1, 0);
        let fb = Frame::data(b.mac(), MacAddr::for_guest(9), 2, 0);
        assert_eq!(a.deliver_batch(&mut phys, &[fa.clone(), fa]), 2);
        assert_eq!(b.deliver_batch(&mut phys, &[fb]), 1);
        assert_eq!(a.stats().rx_packets, 2);
        assert_eq!(b.stats().rx_packets, 1);
        assert_eq!(a.stats().rx_irqs, 1, "one coalesced irq per device burst");
        assert_eq!(b.stats().rx_irqs, 1);
        // Interrupt causes are per-device: clearing one leaves the other.
        a.mmio_write(&mut phys, regs::IMS, intr::RXT0);
        b.mmio_write(&mut phys, regs::IMS, intr::RXT0);
        assert!(a.irq_asserted() && b.irq_asserted());
        a.mmio_read(regs::ICR);
        assert!(!a.irq_asserted());
        assert!(b.irq_asserted(), "device 1's cause survives device 0's ack");
        // Descriptors landed in each device's own ring.
        assert_eq!(phys.read_u8(0x2000 + 12), stat::DD | stat::EOP);
        assert_eq!(phys.read_u8(0x4000 + 12), stat::DD | stat::EOP);
    }

    #[test]
    fn itr_gates_delivery_but_keeps_the_cause_latched() {
        let (mut nic, mut phys) = mk();
        setup_rx(&mut nic, &mut phys, 8);
        nic.mmio_write(&mut phys, regs::IMS, intr::RXT0);
        // ITR = 100 units → a 76 800-cycle window.
        nic.mmio_write(&mut phys, regs::ITR, 100);
        assert_eq!(nic.mmio_read(regs::ITR), 100);
        assert_eq!(nic.itr_cycles(), 100 * ITR_UNIT_CYCLES);

        // First interrupt: no prior delivery, window open.
        let f = Frame::data(nic.mac(), MacAddr::for_guest(9), 0, 0);
        assert!(nic.deliver(&mut phys, &f));
        assert!(nic.irq_deliverable(0));
        nic.note_irq_delivered(1_000);
        nic.mmio_read(regs::ICR); // handler acks

        // A frame inside the window: cause latches, delivery is gated.
        assert!(nic.deliver(&mut phys, &f));
        assert!(nic.irq_asserted(), "cause stays latched");
        assert!(!nic.irq_deliverable(1_000 + nic.itr_cycles() - 1));
        assert_eq!(nic.irq_ready_at(), Some(1_000 + nic.itr_cycles()));
        // Window elapses: deliverable, nothing was lost.
        assert!(nic.irq_deliverable(1_000 + nic.itr_cycles()));
    }

    #[test]
    fn itr_zero_never_gates() {
        let (mut nic, mut phys) = mk();
        setup_rx(&mut nic, &mut phys, 8);
        nic.mmio_write(&mut phys, regs::IMS, intr::RXT0);
        let f = Frame::data(nic.mac(), MacAddr::for_guest(9), 0, 0);
        nic.deliver(&mut phys, &f);
        nic.note_irq_delivered(500);
        nic.deliver(&mut phys, &f);
        // Back-to-back deliveries are allowed immediately with ITR = 0.
        assert!(nic.irq_deliverable(500));
        assert_eq!(nic.irq_ready_at(), Some(0), "ready since forever");
        // And with no cause pending there is nothing to wait for.
        nic.mmio_read(regs::ICR);
        assert_eq!(nic.irq_ready_at(), None);
    }

    #[test]
    fn rx_free_descriptor_count() {
        let (mut nic, mut phys) = mk();
        setup_rx(&mut nic, &mut phys, 8);
        assert_eq!(nic.rx_free_descriptors(), 7);
        let f = Frame::data(nic.mac(), MacAddr::for_guest(9), 0, 0);
        nic.deliver(&mut phys, &f);
        assert_eq!(nic.rx_free_descriptors(), 6);
    }

    #[test]
    fn classifier_boundaries() {
        use LatencyClass::*;
        // Idle window: one-class decay toward latency mode.
        assert_eq!(classify_itr_window(BulkLatency, 0, 0, 0, 0), LowLatency);
        assert_eq!(classify_itr_window(LowLatency, 0, 0, 0, 0), LowestLatency);
        assert_eq!(
            classify_itr_window(LowestLatency, 0, 0, 0, 0),
            LowestLatency
        );
        // Jumbo rule: bytes/packet above the threshold is bulk at any
        // rate or streak.
        assert_eq!(
            classify_itr_window(LowestLatency, 1, 0, 1, BULK_BYTES_PER_PACKET + 1),
            BulkLatency
        );
        assert_eq!(
            classify_itr_window(LowestLatency, 1, 0, 1, BULK_BYTES_PER_PACKET),
            LowLatency,
            "exactly at the threshold is not jumbo (but too big for a trickle)"
        );
        // Trickle: both limits must hold.
        assert_eq!(
            classify_itr_window(LowLatency, 1, 0, TRICKLE_PACKETS, TRICKLE_BYTES - 1),
            LowestLatency
        );
        assert_eq!(
            classify_itr_window(LowestLatency, 1, 0, TRICKLE_PACKETS + 1, TRICKLE_BYTES - 1),
            LowLatency,
            "one packet over the trickle limit is real traffic"
        );
        assert_eq!(
            classify_itr_window(LowestLatency, 1, 0, TRICKLE_PACKETS, TRICKLE_BYTES),
            LowLatency,
            "trickle-count packets at full size are real traffic"
        );
        // Sustainedness: the busy-streak boundary decides promotion.
        assert_eq!(
            classify_itr_window(LowestLatency, BULK_STREAK_WINDOWS - 1, 0, 32, 48_000),
            LowLatency
        );
        assert_eq!(
            classify_itr_window(LowestLatency, BULK_STREAK_WINDOWS, 0, 32, 48_000),
            BulkLatency
        );
        // Asymmetric demotion: bulk holds through one bursty window and
        // steps down only on a sustained run of them.
        assert_eq!(
            classify_itr_window(BulkLatency, 1, BULK_DEMOTE_WINDOWS - 1, 32, 48_000),
            BulkLatency,
            "one isolated gap does not demote a converged bulk setting"
        );
        assert_eq!(
            classify_itr_window(BulkLatency, 1, BULK_DEMOTE_WINDOWS, 32, 48_000),
            LowLatency
        );
        assert_eq!(
            classify_itr_window(BulkLatency, 1, BULK_DEMOTE_WINDOWS, TRICKLE_PACKETS, 512),
            LowestLatency,
            "a sustained-light trickle demotes straight to lowest"
        );
    }

    #[test]
    fn itr_ladder_steps_one_rung_and_snaps_off_grid_values() {
        assert_eq!(itr_step_toward(0, 2000), 500);
        assert_eq!(itr_step_toward(500, 2000), 1000);
        assert_eq!(itr_step_toward(1000, 2000), 2000);
        assert_eq!(itr_step_toward(2000, 2000), 2000);
        assert_eq!(itr_step_toward(2000, 0), 1000);
        assert_eq!(itr_step_toward(500, 500), 500);
        // Off-grid values snap to the nearest rung before stepping.
        assert_eq!(itr_step_toward(600, 2000), 1000);
        assert_eq!(itr_step_toward(1900, 0), 1000);
    }

    /// A NIC with a 64-descriptor RX ring over enough physical memory
    /// for its 64 one-page buffers (the tuner tests' fixture).
    fn mk_tuner() -> (Nic, PhysMem) {
        let mut nic = Nic::new(0, MacAddr::for_guest(1));
        let mut phys = PhysMem::new(128);
        setup_rx(&mut nic, &mut phys, 64);
        (nic, phys)
    }

    fn rx_window(nic: &mut Nic, phys: &mut PhysMem, n: u64, seq0: u64) {
        let frames: Vec<Frame> = (0..n)
            .map(|i| Frame::data(nic.mac(), MacAddr::for_guest(9), 1, seq0 + i))
            .collect();
        assert_eq!(nic.deliver_batch(phys, &frames), n as usize);
        // Replenish so the ring never backpressures the test.
        let tail = nic.mmio_read(regs::RDH).wrapping_sub(1) % nic.rx_ring_len();
        nic.mmio_write(phys, regs::RDT, tail);
    }

    #[test]
    fn tuner_converges_on_constant_load_without_oscillation() {
        let (mut nic, mut phys) = mk_tuner();
        let w = AUTOTUNE_WINDOW_CYCLES;
        let mut tuner = ItrTuner::new(0, w, &nic);
        let mut seq = 0;
        let mut trace = Vec::new();
        for k in 1..=12u64 {
            // Constant sustained load: 20 MTU frames every window.
            rx_window(&mut nic, &mut phys, 20, seq);
            seq += 20;
            if let Some(new) = tuner.service(k * w, &nic) {
                nic.mmio_write(&mut phys, regs::ITR, new);
            }
            trace.push(nic.itr());
        }
        // One rung per window up the ladder, then pinned: no oscillation.
        assert_eq!(&trace[..4], &[500, 500, 1000, 2000]);
        assert!(trace[3..].iter().all(|&v| v == 2000), "{trace:?}");
        assert_eq!(tuner.class(), LatencyClass::BulkLatency);
        assert_eq!(tuner.last_window.packets, 20);
        assert!(tuner.retunes >= 3);
        assert_eq!(tuner.windows, 12);
    }

    #[test]
    fn tuner_decays_toward_latency_mode_on_sustained_idle() {
        let (mut nic, mut phys) = mk_tuner();
        let w = AUTOTUNE_WINDOW_CYCLES;
        let mut tuner = ItrTuner::new(0, w, &nic);
        let mut seq = 0;
        for k in 1..=5u64 {
            rx_window(&mut nic, &mut phys, 20, seq);
            seq += 20;
            if let Some(new) = tuner.service(k * w, &nic) {
                nic.mmio_write(&mut phys, regs::ITR, new);
            }
        }
        assert_eq!(nic.itr(), 2000);
        // Idle windows within the grace: frozen — a latched cause
        // waiting out its own moderation window must not soften it.
        let grace = IDLE_DECAY_GRACE_WINDOWS as u64;
        for k in 6..=5 + grace {
            tuner.note_idle(w);
            if let Some(new) = tuner.service(k * w, &nic) {
                nic.mmio_write(&mut phys, regs::ITR, new);
            }
        }
        assert_eq!(nic.itr(), 2000, "frozen within the grace");
        // Sustained idleness beyond it decays one rung per window, all
        // the way down, so the next interrupt delivers immediately.
        for k in 6 + grace..=5 + grace + 8 {
            tuner.note_idle(w);
            if let Some(new) = tuner.service(k * w, &nic) {
                nic.mmio_write(&mut phys, regs::ITR, new);
            }
        }
        assert_eq!(nic.itr(), 0);
        assert_eq!(tuner.class(), LatencyClass::LowestLatency);
        // Mid-window service is a no-op.
        assert_eq!(tuner.service((5 + grace + 8) * w + w / 2, &nic), None);
    }

    #[test]
    fn processing_spans_without_arrivals_are_neutral() {
        // Windows with no arrivals and no *reported* idle were pure
        // processing time (another device's pass, bookkeeping): they
        // neither decay the knob nor reset the sustained-load streak —
        // only genuine idleness does. This is what keeps a converged
        // bulk setting stable through heavy multi-window reap passes.
        let (mut nic, mut phys) = mk_tuner();
        let w = AUTOTUNE_WINDOW_CYCLES;
        let mut tuner = ItrTuner::new(0, w, &nic);
        let mut seq = 0;
        for k in 1..=5u64 {
            rx_window(&mut nic, &mut phys, 20, seq);
            seq += 20;
            if let Some(new) = tuner.service(k * w, &nic) {
                nic.mmio_write(&mut phys, regs::ITR, new);
            }
        }
        assert_eq!(nic.itr(), 2000);
        for k in 6..=40u64 {
            assert_eq!(tuner.service(k * w, &nic), None, "window {k} moved");
        }
        assert_eq!(nic.itr(), 2000);
        assert_eq!(tuner.class(), LatencyClass::BulkLatency);
        // And the streak survives, so the next busy window is still
        // classified as sustained load.
        rx_window(&mut nic, &mut phys, 20, seq);
        tuner.service(41 * w, &nic);
        assert_eq!(tuner.class(), LatencyClass::BulkLatency);
    }

    #[test]
    fn tuner_stays_on_nongating_rungs_under_sparse_load() {
        // Isolated busy windows (bursty light traffic) never climb past
        // low latency: the sustained-load streak resets at every idle
        // gap, and short gaps freeze (not decay) the knob.
        let (mut nic, mut phys) = mk_tuner();
        let w = AUTOTUNE_WINDOW_CYCLES;
        let mut tuner = ItrTuner::new(0, w, &nic);
        let mut seq = 0;
        for k in 1..=16u64 {
            if k % 4 == 0 {
                rx_window(&mut nic, &mut phys, 32, seq);
                seq += 32;
            } else {
                // A sparse system idles its empty windows (the system
                // reports this through run_idle → note_idle).
                tuner.note_idle(w);
            }
            if let Some(new) = tuner.service(k * w, &nic) {
                nic.mmio_write(&mut phys, regs::ITR, new);
            }
            assert!(nic.itr() <= 500, "window {k}: itr {}", nic.itr());
            assert!(tuner.class() <= LatencyClass::LowLatency);
        }
    }

    #[test]
    fn sub_window_idle_gaps_keep_bursty_load_off_the_bulk_rung() {
        // Every window carries traffic, but each service span also saw a
        // quarter-window of true idleness — bursty traffic, not
        // sustained: the streak restarts each time and the tuner never
        // classifies bulk.
        let (mut nic, mut phys) = mk_tuner();
        let w = AUTOTUNE_WINDOW_CYCLES;
        let mut tuner = ItrTuner::new(0, w, &nic);
        let mut seq = 0;
        for k in 1..=12u64 {
            rx_window(&mut nic, &mut phys, 20, seq);
            seq += 20;
            tuner.note_idle(IDLE_RESET_CYCLES);
            if let Some(new) = tuner.service(k * w, &nic) {
                nic.mmio_write(&mut phys, regs::ITR, new);
            }
            assert!(nic.itr() <= 500, "window {k}: itr {}", nic.itr());
            assert!(tuner.class() <= LatencyClass::LowLatency);
        }
        // The same load with no idle gaps is sustained: bulk within the
        // streak threshold.
        for k in 13..=17u64 {
            rx_window(&mut nic, &mut phys, 20, seq);
            seq += 20;
            if let Some(new) = tuner.service(k * w, &nic) {
                nic.mmio_write(&mut phys, regs::ITR, new);
            }
        }
        assert_eq!(tuner.class(), LatencyClass::BulkLatency);
        assert_eq!(nic.itr(), 2000);
    }

    #[test]
    fn delivered_irq_counter_feeds_the_tuner_window() {
        let (mut nic, mut phys) = mk();
        setup_rx(&mut nic, &mut phys, 16);
        let mut tuner = ItrTuner::new(0, 1000, &nic);
        let f = Frame::data(nic.mac(), MacAddr::for_guest(9), 0, 0);
        nic.deliver(&mut phys, &f);
        nic.note_irq_delivered(100);
        nic.note_irq_delivered(700);
        assert_eq!(nic.irqs_delivered(), 2);
        tuner.service(1000, &nic);
        assert_eq!(tuner.last_window.irqs, 2);
        assert_eq!(tuner.last_window.packets, 1);
    }
}
