//! The measurement harness methods — warm-up, measured window, paced
//! injection, moderated drains. They drive the pipeline through its
//! public entry points only; [`crate::measure`] turns their results into
//! the paper's figures.

use super::{System, SystemError, MAX_BURST};
use crate::measure::Breakdown;
use twin_net::Frame;

impl System {
    /// Measures the per-packet cycle breakdown for `packets` transmits
    /// (after a warm-up run that fills the stlb and pools).
    ///
    /// # Errors
    ///
    /// Propagates per-packet errors.
    pub fn measure_tx(&mut self, packets: u64) -> Result<Breakdown, SystemError> {
        for _ in 0..32 {
            self.transmit_one()?;
        }
        self.take_wire_frames();
        self.reset_measurement();
        for _ in 0..packets {
            self.transmit_one()?;
        }
        Ok(Breakdown::from_meter(&self.machine.meter, packets))
    }

    /// Measures the per-packet cycle breakdown for `packets` receives.
    ///
    /// The warm-up covers more than one full RX-ring cycle (128
    /// descriptors): the ring's initial dom0-pool buffers are gradually
    /// replaced by hypervisor-reserved buffers, and steady state begins
    /// only after the swap completes.
    ///
    /// # Errors
    ///
    /// Propagates per-packet errors.
    pub fn measure_rx(&mut self, packets: u64) -> Result<Breakdown, SystemError> {
        for _ in 0..160 {
            self.receive_one()?;
        }
        self.reset_measurement();
        for _ in 0..packets {
            self.receive_one()?;
        }
        Ok(Breakdown::from_meter(&self.machine.meter, packets))
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
    ) -> Result<crate::measure::BurstMeasurement, SystemError> {
        let burst = burst.clamp(1, MAX_BURST);
        // Warm every NIC's stlb/pools (round-robin rotation spreads the
        // warm-up bursts across all devices).
        for _ in 0..32 * self.world.nics.len() {
            self.transmit_one()?;
        }
        self.take_wire_frames();
        self.reset_measurement();
        let mut sent = 0u64;
        while sent < packets {
            let n = burst.min((packets - sent) as usize);
            let accepted = self.transmit_burst(n)?;
            if accepted == 0 {
                return Err(SystemError::Build("transmit ring wedged".into()));
            }
            sent += accepted as u64;
        }
        Ok(self.burst_measurement(burst, sent))
    }

    /// Measures amortized receive cost at a fixed burst size (see
    /// [`System::measure_tx_burst`]; the warm-up matches
    /// [`System::measure_rx`]).
    ///
    /// # Errors
    ///
    /// Propagates per-burst errors.
    pub fn measure_rx_burst(
        &mut self,
        burst: usize,
        packets: u64,
    ) -> Result<crate::measure::BurstMeasurement, SystemError> {
        let burst = burst.clamp(1, MAX_BURST);
        // Per-NIC steady state needs a full ring cycle of buffer swaps;
        // scale the warm-up so every shard reaches it.
        for _ in 0..160 * self.world.nics.len() {
            self.receive_one()?;
        }
        self.reset_measurement();
        let mut got = 0u64;
        while got < packets {
            let n = burst.min((packets - got) as usize);
            let frames: Vec<Frame> = (0..n).map(|_| self.next_rx_frame()).collect();
            got += self.receive_burst(&frames)? as u64;
        }
        Ok(self.burst_measurement(burst, got))
    }

    fn burst_measurement(&self, burst: usize, packets: u64) -> crate::measure::BurstMeasurement {
        let meter = &self.machine.meter;
        let per_packet = |ev: &str| meter.event(ev) as f64 / packets.max(1) as f64;
        crate::measure::BurstMeasurement {
            burst,
            breakdown: Breakdown::from_meter(meter, packets),
            irqs_per_packet: per_packet("irq"),
            doorbells_per_packet: per_packet("doorbell"),
        }
    }

    /// Lets every closed moderation window open and every latched cause
    /// deliver: idles one full window (plus margin) at a time until no
    /// device holds back a delivery.
    ///
    /// # Errors
    ///
    /// Propagates faults from the deliveries.
    pub fn drain_moderated(&mut self) -> Result<(), SystemError> {
        let horizon = self
            .world
            .nics
            .iter()
            .map(twin_nic::Nic::itr_cycles)
            .max()
            .unwrap_or(0);
        let mut rounds = 0;
        loop {
            self.run_idle(horizon + 1)?;
            if self.moderated_pending.is_empty() || rounds >= 8 {
                break;
            }
            rounds += 1;
        }
        Ok(())
    }

    /// Event-driven moderated drain: idles exactly to each gated
    /// device's window-open instant until nothing is latched, with no
    /// trailing idle once the last cause delivers. Deliveries happen at
    /// the same virtual instants [`System::drain_moderated`] would
    /// produce; only the artificial idle *after* the tail differs —
    /// which is what keeps a closed-loop tuner's idle signal honest
    /// across the autotune harness's phase boundaries.
    fn drain_moderated_tight(&mut self) -> Result<(), SystemError> {
        let mut rounds = 0;
        while !self.moderated_pending.is_empty() && rounds < 64 {
            let now = self.machine.meter.now();
            let due = self
                .moderated_pending
                .iter()
                .filter_map(|&d| self.world.nics[d as usize].irq_ready_at())
                .min();
            let step = match due {
                Some(t) if t > now => t - now,
                _ => 1,
            };
            self.run_idle(step)?;
            rounds += 1;
        }
        Ok(())
    }

    /// Measures the receive path under interrupt moderation with a
    /// paced arrival process: bursts of `burst` frames are scheduled
    /// `gap_cycles` of virtual time apart (wire pacing), frames are
    /// stamped with their *scheduled* arrival, and the ITR timer decides
    /// when each device's latched work is reaped. Reports amortized
    /// cycles/packet, interrupts/packet and arrival-to-delivery latency
    /// percentiles — the latency/throughput trade-off the moderation
    /// sweep plots.
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
    ) -> Result<crate::measure::ModeratedRx, SystemError> {
        let burst = burst.clamp(1, MAX_BURST);
        // Per-NIC steady state needs a full ring cycle of buffer swaps.
        for _ in 0..160 * self.world.nics.len() {
            self.receive_one()?;
        }
        self.drain_moderated()?;
        self.reset_measurement();
        let injected = self.paced_rx_run(burst, packets, gap_cycles)?;
        let meter = &self.machine.meter;
        Ok(crate::measure::ModeratedRx {
            nics: self.world.nics.len() as u32,
            burst,
            // The sweep programs a uniform ITR; with heterogeneous
            // per-device values the point is labeled by the widest
            // window (the device that dominates the latency tail).
            itr: self
                .world
                .nics
                .iter()
                .map(twin_nic::Nic::itr)
                .max()
                .unwrap_or(0),
            gap_cycles,
            packets: injected,
            breakdown: Breakdown::from_meter(meter, injected),
            irqs_per_packet: meter.event("irq") as f64 / injected.max(1) as f64,
            moderated_irqs: meter.event("irq_moderated"),
            latency: crate::measure::LatencyStats::from_samples(self.rx_latency.samples()),
        })
    }

    /// Paced injection of `packets` frames in bursts of `burst`,
    /// scheduled `gap_cycles` apart starting now, each stamped with its
    /// scheduled wire-arrival time; ends by draining every moderated
    /// window so all injected frames complete. The inner loop of
    /// [`System::measure_rx_moderated`] and of each autotune-harness
    /// phase.
    fn paced_rx_run(
        &mut self,
        burst: usize,
        packets: u64,
        gap_cycles: u64,
    ) -> Result<u64, SystemError> {
        let injected = self.paced_rx_inject(burst, packets, gap_cycles, false)?;
        self.drain_moderated()?;
        Ok(injected)
    }

    /// The bare paced-injection loop of [`System::paced_rx_run`], with
    /// no closing drain — the phase harness separates injection from
    /// draining so a phase's settle span flows straight into its
    /// measured span. `balanced_flows` swaps the classic generator's
    /// flow ids for the device-balanced set
    /// ([`crate::measure::balanced_flow_set`], two flows per device);
    /// sequence numbers still come from the shared counter, so
    /// `(flow, seq)` keys stay unique.
    fn paced_rx_inject(
        &mut self,
        burst: usize,
        packets: u64,
        gap_cycles: u64,
        balanced_flows: bool,
    ) -> Result<u64, SystemError> {
        let balanced = if balanced_flows {
            crate::measure::balanced_flow_set(self.world.nics.len() as u32, 2)
        } else {
            Vec::new()
        };
        let t0 = self.machine.meter.now();
        let mut injected = 0u64;
        let mut round = 0u64;
        while injected < packets {
            let n = burst.min((packets - injected) as usize);
            let target = t0 + round * gap_cycles;
            let now = self.machine.meter.now();
            if now < target {
                self.run_idle(target - now)?;
            }
            let frames: Vec<Frame> = (0..n)
                .map(|_| {
                    let mut f = self.next_rx_frame();
                    if !balanced.is_empty() {
                        f.flow = balanced[(f.seq % balanced.len() as u64) as usize];
                    }
                    f
                })
                .collect();
            injected += self.receive_burst_arriving(&frames, Some(target))? as u64;
            round += 1;
        }
        Ok(injected)
    }

    /// One phase of a shifting-load paced receive run:
    /// `settle_packets` frames paced at the new gap let a retuning
    /// system adapt (unmeasured — the per-phase analogue of every
    /// harness's warm-up), then the settle tail drains event-tight, the
    /// meter and latency window reset, and `packets` frames are
    /// measured on a fresh schedule ending with its own tight drain —
    /// the same settle→drain→reset→measure→drain regime
    /// [`System::measure_rx_moderated`] measures, so per-phase points
    /// are comparable with the static moderation sweep's. The drains
    /// are event-tight ([`System::drain_moderated_tight`]) so no
    /// artificial trailing idle leaks into a closed-loop tuner's load
    /// signal at the measure boundary.
    ///
    /// The multi-phase harness [`crate::measure::measure_rx_autotuned`]
    /// strings these together; static-`ITR` and auto-tuned systems run
    /// the identical code path.
    ///
    /// # Errors
    ///
    /// Propagates per-burst errors.
    pub(crate) fn paced_rx_phase(
        &mut self,
        burst: usize,
        settle_packets: u64,
        packets: u64,
        gap_cycles: u64,
    ) -> Result<crate::measure::RxPhase, SystemError> {
        let burst = burst.clamp(1, MAX_BURST);
        self.paced_rx_inject(burst, settle_packets, gap_cycles, true)?;
        self.drain_moderated_tight()?;
        self.reset_measurement();
        let measured = self.paced_rx_inject(burst, packets, gap_cycles, true)?;
        self.drain_moderated_tight()?;
        let meter = &self.machine.meter;
        Ok(crate::measure::RxPhase {
            gap_cycles,
            packets: measured,
            breakdown: crate::measure::Breakdown::from_meter(meter, measured),
            irqs_per_packet: meter.event("irq") as f64 / measured.max(1) as f64,
            latency: crate::measure::LatencyStats::from_samples(self.rx_latency.samples()),
            retunes: meter.event("itr_retune"),
            itr_end: self
                .world
                .nics
                .iter()
                .map(twin_nic::Nic::itr)
                .max()
                .unwrap_or(0),
        })
    }
}
