//! The receive pipeline up to the demux queues: admission, the shared
//! ring-landing pass ([`System::land_frames`]), the closed-loop and
//! open-loop arrival entry points built on it, and each configuration's
//! interrupt dispatch and descriptor reap.

use super::{peer_mac, Datapath, DriverOp, Itr, Landed, OnIrq, Overrun, System, SystemError};
use twin_machine::{CostDomain, Event, Term};
use twin_net::{EtherType, Frame, MacAddr, MTU};
use twin_trace::{Fate, FlushCause, TraceEvent};
use twin_xen::{DomId, DomainKind, Softirq};

impl System {
    /// Scan base for [`crate::measure::balanced_flow_set`], the
    /// device-balanced flow generator the autotune and affinity
    /// harnesses pace with. (The classic generator's flows 101–108
    /// split 2/2/1/3 across four NICs under [`crate::ShardPolicy::FlowHash`] —
    /// a device with a single thin flow sees a genuinely lighter regime
    /// than its siblings, which is a property of the traffic, not of
    /// the system under test. Scanning from 203 yields `203..=210`: two
    /// flows per device at four NICs.)
    pub const BALANCED_FLOW_BASE: u32 = 203;

    pub(crate) fn next_rx_frame(&mut self) -> Frame {
        let f = Frame {
            dst: self.endpoint_mac(),
            src: peer_mac(),
            ethertype: EtherType::Ipv4,
            payload_len: MTU,
            flow: 101 + (self.seq % Self::GEN_FLOWS) as u32,
            seq: self.seq,
        };
        self.seq += 1;
        f
    }

    /// Receives one MTU-sized packet along the configuration's full path
    /// (wire → NIC → interrupt → stack/guest) — a burst of one through
    /// [`System::receive_burst`].
    ///
    /// # Errors
    ///
    /// [`SystemError::RxRingFull`] if the driver has not replenished
    /// buffers; otherwise propagates faults.
    pub fn receive_one(&mut self) -> Result<(), SystemError> {
        let frame = self.next_rx_frame();
        self.receive_frame(&frame)
    }

    /// Injects an arbitrary frame from the wire and runs the
    /// configuration's receive path (used for multi-guest demultiplexing
    /// experiments).
    ///
    /// # Errors
    ///
    /// See [`System::receive_one`].
    pub fn receive_frame(&mut self, frame: &Frame) -> Result<(), SystemError> {
        self.receive_burst(std::slice::from_ref(frame)).map(|_| ())
    }

    /// Injects a burst of frames from the wire and runs the
    /// configuration's receive path with **one coalesced interrupt** per
    /// hardware pass: the NIC fills as many RX descriptors as it has
    /// buffers, asserts `RXT0` once, and a single handler pass reaps
    /// them all, fanning the batch out to every destination guest in one
    /// demux sweep (one virtual interrupt per guest per pass).
    ///
    /// Bursts larger than the posted buffers split into multiple
    /// hardware passes (each replenishes the ring), so arbitrarily large
    /// bursts still complete. Returns the number of frames delivered.
    ///
    /// # Errors
    ///
    /// [`SystemError::RxRingFull`] if the ring accepts nothing at all;
    /// otherwise propagates faults.
    pub fn receive_burst(&mut self, frames: &[Frame]) -> Result<usize, SystemError> {
        self.receive_burst_arriving(frames, None)
    }

    /// [`System::receive_burst`] with an explicit arrival stamp: when
    /// `arrival` is `Some(t)`, in-flight frames are stamped with the
    /// *scheduled* wire-arrival time `t` instead of the current virtual
    /// time, so an overloaded system's processing backlog shows up as
    /// completion latency exactly like a real receive queue. `None`
    /// stamps at the moment of landing, and only when a time knob is
    /// armed (the default path reports no latency).
    pub(crate) fn receive_burst_arriving(
        &mut self,
        frames: &[Frame],
        arrival: Option<u64>,
    ) -> Result<usize, SystemError> {
        if frames.is_empty() {
            return Ok(0);
        }
        // Catch up anything already due (deadline flush before IRQ
        // work) — a zero-cost no-op when neither knob is armed.
        self.service_virtual_timers(false)?;
        // The "wire side" of sharding: the switch sprays frames across
        // the NICs per policy (all to NIC 0 in the degenerate case).
        let mut incoming = frames.to_vec();
        self.admit_rx_frames(&mut incoming);
        if incoming.is_empty() {
            return Ok(0); // whole burst early-dropped at the watermark
        }
        let napi = self.opts.napi_weight > 0;
        let mut groups = self.shard_frames(incoming);
        let mut done = 0;
        loop {
            // One hardware pass, then one software pass over the devices
            // whose interrupt it raised: reap each NIC's batch and fan
            // the union out to the guests (one demux sweep per pass). On
            // a NAPI system the interrupt is an ack-and-mask instead,
            // and one budgeted poll pass services every masked device —
            // just interrupted and long-masked alike.
            let (accepted, pass_devs) =
                self.land_frames(&mut groups, arrival, Overrun::Retry, OnIrq::FullPass)?;
            done += accepted;
            self.take_irqs(&pass_devs)?;
            let progressed = if napi {
                self.napi_poll_pass()? > 0
            } else if pass_devs.is_empty() {
                false
            } else {
                self.rx_pass(&pass_devs, true)?;
                true
            };
            if progressed {
                // End of one receive pass: drain any deferred upcalls
                // the reap queued (unmaps, frees).
                self.flush_deferred_upcalls()?;
                self.sample_rx_completions();
                // Heavy passes outrun the tuner's interval window;
                // retune between passes so sustained load escalates
                // promptly.
                self.service_itr_tuners()?;
            }
            if groups.iter().all(|(_, pending)| pending.is_empty()) {
                if self.napi_work_pending() {
                    // Rings may still hold reaped-under-weight work;
                    // keep polling until every device completes and
                    // re-arms.
                    continue;
                }
                break; // all landed; latched causes fire later
            }
            if pass_devs.is_empty() && !progressed {
                if done == 0 {
                    return Err(SystemError::RxRingFull);
                }
                break; // every remaining ring is wedged
            }
        }
        Ok(done)
    }

    /// One hardware pass, shared by both arrival entry points: every NIC
    /// with pending frames fills as many descriptors as it has buffers
    /// (the accepted frames leave `groups`), each accepted frame gets its
    /// [`Landed`] record (the only place one is written), and the device is
    /// classified — *polled* (masked: the ring filled silently and the
    /// budgeted poll loop will find it; poll mode takes precedence over
    /// the moderation latch), *interrupt allowed* (handled per `on_irq`)
    /// or *latched* (inside a closed `ITR` window: the cause stays
    /// latched and the virtual moderation timer delivers it later). A
    /// quarantined device is recovered *before* its frames land: the
    /// reset reconstructs the rings, so frames posted first would be
    /// wiped with the corrupted slot — recovering here means only the
    /// aborted burst is ever lost.
    ///
    /// Returns the frames accepted and the devices owed a full software
    /// pass (always none under [`OnIrq::IsrReap`]).
    fn land_frames(
        &mut self,
        groups: &mut [(u32, Vec<Frame>)],
        arrival: Option<u64>,
        overrun: Overrun,
        on_irq: OnIrq,
    ) -> Result<(usize, Vec<u32>), SystemError> {
        // A landing reports latency when someone can read it back: an
        // explicit arrival stamp (a paced or open-loop measurement) or
        // an armed time knob. Every frame gets its record either way.
        let reports_latency = arrival.is_some()
            || self.opts.itr == Itr::Auto
            || self.world.nics.iter().any(|n| n.itr() != 0)
            || self
                .world
                .hyper
                .as_ref()
                .is_some_and(|h| h.engine.flush_deadline().is_some());
        let mut accepted_total = 0;
        let mut pass_devs: Vec<u32> = Vec::new();
        let mut gated_wedged: Vec<u32> = Vec::new();
        for (dev, pending) in groups.iter_mut() {
            let dev = *dev;
            if pending.is_empty() {
                continue;
            }
            if self.devs[dev as usize].quarantine.is_some() {
                self.recover_device(dev)?;
            }
            let landed_before = self.world.nics[dev as usize].stats().rx_packets;
            let accepted =
                self.world.nics[dev as usize].deliver_batch(&mut self.machine.phys, pending);
            if accepted == 0 {
                if overrun == Overrun::Retry
                    && self.moderated_pending.contains(&dev)
                    && self.world.nics[dev as usize].irq_asserted()
                {
                    // Ring wedged behind a closed moderation window:
                    // real hardware would start dropping here.
                    gated_wedged.push(dev);
                }
                continue;
            }
            accepted_total += accepted;
            let at = reports_latency.then(|| arrival.unwrap_or_else(|| self.machine.meter.now()));
            for (nth, f) in (landed_before + 1..).zip(&pending[..accepted]) {
                self.machine
                    .landed
                    .insert((f.flow, f.seq), Landed { at, dev, nth });
            }
            pending.drain(..accepted);
            let now = self.machine.meter.now();
            if self.devs[dev as usize].poll_entered_at.is_some() {
                // Masked: zero per-arrival cost — the point of NAPI.
            } else if self.world.nics[dev as usize].irq_allowed_at(now) {
                self.moderated_pending.retain(|d| *d != dev);
                match on_irq {
                    OnIrq::FullPass => pass_devs.push(dev),
                    OnIrq::IsrReap => {
                        self.take_irqs(&[dev])?;
                        if self.opts.napi_weight == 0 {
                            self.rx_pass(&[dev], false)?;
                        }
                    }
                }
            } else {
                if !self.moderated_pending.contains(&dev) {
                    self.moderated_pending.push(dev);
                    self.machine.note(TraceEvent::IrqMasked { dev });
                }
                // Anchor the gated wait (tuned devices only): the
                // just-latched batch is excluded, so the anchor measures
                // what arrives *while* waiting.
                let state = &mut self.devs[dev as usize];
                if state.tuner.is_some() && state.gate_anchor.is_none() {
                    let arrived = self.world.nics[dev as usize].stats().rx_packets;
                    state.gate_anchor = Some((arrived, now));
                }
                self.machine.meter.count_event(Event::IrqModerated);
            }
        }
        if pass_devs.is_empty() && !gated_wedged.is_empty() {
            // Ring-pressure override: deliver despite the window (like
            // the e1000's packets-waiting forced interrupt), so
            // moderation can delay frames but never drop them.
            for dev in &gated_wedged {
                self.moderated_pending.retain(|d| d != dev);
                self.machine.meter.count_event(Event::IrqModerationOverride);
            }
            pass_devs = gated_wedged;
        }
        Ok((accepted_total, pass_devs))
    }

    /// The NIC that accepted frame `(flow, seq)` (0 for a frame that
    /// never landed).
    pub(super) fn landed_dev(&self, flow: u32, seq: u64) -> u32 {
        self.machine.landed.get(&(flow, seq)).map_or(0, |l| l.dev)
    }

    /// Delivers the interrupts of `devs` at this instant: each device's
    /// moderation window restarts and its gated wait ends; on a NAPI
    /// system the interrupt is an ack-and-mask into poll mode.
    pub(super) fn take_irqs(&mut self, devs: &[u32]) -> Result<(), SystemError> {
        let now = self.machine.meter.now();
        for &dev in devs {
            self.world.nics[dev as usize].note_irq_delivered(now);
            self.end_gated_wait(dev, now);
            if self.opts.napi_weight > 0 {
                self.napi_enter(dev)?;
            }
        }
        Ok(())
    }

    /// **Open-loop** arrival: one wire burst lands at scheduled time
    /// `arrival` and the receive path does only what real hardware
    /// forces at that instant — rings fill, and per-arrival interrupt
    /// work (or nothing, for a masked poll-mode device) runs. Frames
    /// that find no free descriptor are dropped silently at the wire
    /// (the NIC's `rx_missed` counter), *not* retried: unlike
    /// [`System::receive_burst`], the arrival schedule does not wait for
    /// the consumer. The consumer side runs separately through
    /// [`System::rx_open_loop_service`] — together they reproduce
    /// receive livelock: per-arrival ISR work preempts the consumer,
    /// and past saturation the CPU reaps frames it can never deliver.
    /// Returns the frames accepted into rings.
    ///
    /// # Errors
    ///
    /// Propagates faults; never returns `RxRingFull` (an overrun is the
    /// phenomenon under measurement, not an error).
    pub fn rx_open_loop_arrival(
        &mut self,
        frames: &[Frame],
        arrival: u64,
    ) -> Result<usize, SystemError> {
        self.service_virtual_timers(false)?;
        let mut incoming = frames.to_vec();
        self.admit_rx_frames(&mut incoming);
        if incoming.is_empty() {
            return Ok(0);
        }
        let mut groups = self.shard_frames(incoming);
        let (accepted, _) =
            self.land_frames(&mut groups, Some(arrival), Overrun::Drop, OnIrq::IsrReap)?;
        self.flush_deferred_upcalls()?;
        self.sample_rx_completions();
        Ok(accepted)
    }

    /// The open-loop consumer: runs poll passes (NAPI) or standalone
    /// flush rounds (interrupt mode) until virtual time reaches `until`
    /// or all work drains — whichever is first. Idle gaps advance the
    /// virtual clock through [`System::run_idle`], so moderation timers
    /// and deadline flushes fire on schedule.
    ///
    /// # Errors
    ///
    /// Propagates faults from serviced work and timers.
    pub fn rx_open_loop_service(&mut self, until: u64) -> Result<(), SystemError> {
        loop {
            self.service_virtual_timers(false)?;
            let now = self.machine.meter.now();
            if now >= until {
                return Ok(());
            }
            if self.napi_work_pending() {
                // A zero-reap pass re-arms every idle device; loop to
                // reclassify.
                self.napi_poll_pass()?;
                self.sample_rx_completions();
                continue;
            }
            if self.rx_open_loop_pending() {
                self.flush_rx_round()?;
                self.sample_rx_completions();
                continue;
            }
            let now = self.machine.meter.now();
            if now < until {
                self.run_idle(until - now)?;
            }
            return Ok(());
        }
    }

    /// Whether the open-loop consumer still owes work: a non-empty
    /// per-guest demux queue, or ring descriptors waiting under a
    /// masked poll-mode device.
    pub fn rx_open_loop_pending(&self) -> bool {
        // A sleeping guest's backlog is not serviceable work: it waits
        // for the wakeup timer, which idle stepping lands on
        // (`next_virtual_event`), not for the consumer loop.
        if self.rx_backlogs().any(|running| running) {
            return true;
        }
        self.devs
            .iter()
            .zip(&self.world.nics)
            .any(|(d, nic)| d.poll_entered_at.is_some() && nic.rx_pending() > 0)
    }

    /// One item per domain with frames in its demux queue: whether the
    /// domain's vCPU is running (always, for a domain without one).
    pub(super) fn rx_backlogs(&self) -> impl Iterator<Item = bool> + '_ {
        let domains = self.world.xen.iter().flat_map(|x| &x.domains);
        let backlogged = domains.filter(|d| !d.rx_queue.is_empty());
        backlogged.map(|d| self.sched.as_ref().map_or(true, |s| s.is_running(d.id.0)))
    }

    /// Early drop at RX-descriptor refill time: frames whose destination
    /// guest's backlog has reached
    /// [`crate::SystemOptions::rx_backlog_watermark`] are dropped *before*
    /// being posted to a ring, for the cost of a compare and a counter
    /// bump — the Mogul/Ramakrishnan discipline of shedding load at the
    /// cheapest point instead of after the reap work is sunk. A no-op
    /// when the watermark is unset. Admitted frames count toward the
    /// backlog snapshot, so one oversized burst cannot overshoot the
    /// watermark.
    fn admit_rx_frames(&mut self, frames: &mut Vec<Frame>) {
        let Some(wm) = self.opts.rx_backlog_watermark else {
            return;
        };
        let Some(xen) = self.world.xen.as_ref() else {
            return;
        };
        let mut guests: Vec<(MacAddr, u32, usize)> = xen
            .domains
            .iter()
            .filter(|d| d.kind == DomainKind::Guest)
            .map(|d| (d.mac, d.id.0, d.rx_queue.len()))
            .collect();
        let machine = &mut self.machine;
        frames.retain(|f| {
            let Some(slot) = guests.iter_mut().find(|(mac, _, _)| *mac == f.dst) else {
                return true; // not guest-bound: the demux-miss path counts it
            };
            if slot.2 >= wm {
                machine.pay_to(CostDomain::Xen, Term::EarlyDrop);
                machine.note(TraceEvent::FrameDrop {
                    fate: Fate::EarlyDrop,
                    guest: Some(slot.1),
                    frame: Some((f.flow, f.seq)),
                });
                false
            } else {
                slot.2 += 1;
                true
            }
        });
    }

    /// Runs the configuration's receive software path for one hardware
    /// pass covering `devs` (each with a freshly filled RX ring): per-NIC
    /// interrupt dispatch and descriptor reap, then — with `flush` — a
    /// single demux flush with one virtual interrupt per destination
    /// guest per quantum round. Without it this is the per-arrival ISR
    /// of the open-loop harness: TwinDrivers only demux-queues, and the
    /// consumer (the flush) runs when the CPU gets a gap; the other
    /// paths deliver inline either way, as their stack runs in interrupt
    /// context anyway.
    pub(super) fn rx_pass(&mut self, devs: &[u32], flush: bool) -> Result<(), SystemError> {
        match &self.datapath {
            Datapath::Native | Datapath::Dom0 => {
                for &dev in devs {
                    self.rx_dom0_style(dev)?;
                }
            }
            Datapath::Guest(ep) => self.rx_baseline_guest(ep.gid, devs)?,
            Datapath::Twin { .. } => {
                self.rx_twin_reap(devs)?;
                if flush {
                    self.flush_guest_rx_queues()?;
                }
            }
        }
        Ok(())
    }

    fn dispatch_dom0_irq(&mut self, dev: u32) -> Result<(), SystemError> {
        // One interrupt covers however many descriptors the NIC filled;
        // the first packet the handler pushes into the stack pays the
        // full wakeup cost, the rest of the burst the GRO marginal.
        self.world.kernel.begin_stack_burst();
        self.machine.note(TraceEvent::IrqDelivered { dev });
        self.machine.pay_to(CostDomain::Dom0, Term::IrqDispatch);
        // Each NIC asserts its own IRQ line, for which probe registered
        // `e1000_intr` (`request_irq(dev, …)`).
        self.call_driver(DriverOp::Intr, dev).map(|_| ())
    }

    fn rx_dom0_style(&mut self, dev: u32) -> Result<(), SystemError> {
        if matches!(self.datapath, Datapath::Dom0) {
            // Xen routes the physical interrupt to dom0 as an event.
            let xen = self.world.xen_mut()?;
            xen.send_virq(&mut self.machine, DomId::DOM0, 3);
            self.machine
                .pay_to(CostDomain::Xen, Term::ParavirtTaxPerPacket);
        }
        self.dispatch_dom0_irq(dev)
    }

    fn rx_baseline_guest(&mut self, gid: DomId, devs: &[u32]) -> Result<(), SystemError> {
        // Interrupts arrive while the guest runs: one event per raising
        // NIC, but a single switch to dom0 covers the whole pass.
        let xen = self.world.xen_mut()?;
        for _ in devs {
            xen.send_virq(&mut self.machine, DomId::DOM0, 3);
        }
        xen.switch_to(&mut self.machine, DomId::DOM0);
        for &dev in devs {
            self.dispatch_dom0_irq(dev)?;
        }
        self.forward_bridged_frames()?;
        self.world.xen_mut()?.switch_to(&mut self.machine, gid);
        Ok(())
    }

    /// The interrupt half of the TwinDrivers receive pass: per-NIC
    /// dispatch and descriptor reap into the per-guest queues.
    fn rx_twin_reap(&mut self, devs: &[u32]) -> Result<(), SystemError> {
        // The hypervisor takes each NIC's interrupt directly and runs the
        // hypervisor driver's handler in softirq context (paper §4.4) —
        // from the current (guest) context, no switch. Every NIC is its
        // own softirq source (duplicates coalesce per device), and one
        // softirq pass reaps every descriptor each NIC filled.
        for &dev in devs {
            self.machine.pay_to(CostDomain::Xen, Term::IrqDispatch);
            self.machine.note(TraceEvent::IrqDelivered { dev });
            let xen = self.world.xen_mut()?;
            xen.raise_softirq(Softirq::DriverIrq { nic: dev });
        }
        let work = self.world.xen_mut()?.take_runnable_softirqs();
        for w in work {
            let nic = match w {
                // A poll softirq raised while an interrupt pass is in
                // flight reaps through the same handler: the ICR read
                // inside it consumes whatever cause is latched.
                Softirq::DriverIrq { nic } | Softirq::NapiPoll { nic } => {
                    self.machine.note(TraceEvent::SoftirqDispatch {
                        kind: w.label(),
                        dev: nic,
                    });
                    nic
                }
                // The high-water kick: drain the deferred-upcall ring if
                // no burst-pass flush got there first.
                Softirq::UpcallFlush => {
                    self.machine.note(TraceEvent::SoftirqDispatch {
                        kind: w.label(),
                        dev: 0,
                    });
                    self.flush_deferred_upcalls_as(FlushCause::HighWater)?;
                    continue;
                }
            };
            self.call_driver(DriverOp::Intr, nic)?;
        }
        Ok(())
    }
}
