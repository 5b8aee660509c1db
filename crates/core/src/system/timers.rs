//! Virtual time: the `ITR` moderation knob and its tuners, the scheduler
//! edges, and the one service point where every due virtual timer fires.

use super::{Itr, System, SystemError};
use twin_machine::{CostDomain, Env, Term};
use twin_nic::{ItrTuner, AUTOTUNE_WINDOW_CYCLES};
use twin_trace::{FlushCause, TraceEvent};

impl System {
    /// Programs a device's interrupt-moderation interval (`ITR`
    /// register, in [`twin_nic::ITR_UNIT_CYCLES`]-cycle units) through
    /// the MMIO window, exactly as driver code would.
    ///
    /// # Errors
    ///
    /// Propagates MMIO faults.
    pub fn set_itr(&mut self, dev: u32, itr: u32) -> Result<(), SystemError> {
        Env::mmio_write(
            &mut self.world,
            &mut self.machine,
            dev,
            twin_nic::regs::ITR,
            twin_isa::Width::Long,
            itr,
        )?;
        Ok(())
    }

    /// Current virtual time in cycles (see
    /// [`twin_machine::VirtualClock`]).
    pub fn now_cycles(&self) -> u64 {
        self.machine.meter.now()
    }

    /// Whether closed-loop `ITR` auto-tuning is active.
    pub fn itr_autotune(&self) -> bool {
        self.opts.itr == Itr::Auto
    }

    /// A device's auto-tuner (`None` when auto-tuning is off) —
    /// observability for tests and sweeps.
    pub fn itr_tuner(&self, dev: u32) -> Option<&ItrTuner> {
        self.devs.get(dev as usize).and_then(|d| d.tuner.as_ref())
    }

    /// Ends a device's gated wait at virtual time `now` (the moment its
    /// latched cause delivers, or is otherwise consumed): a wait whose
    /// arrival rate stayed below the busy floor (fewer than
    /// [`twin_nic::BUSY_WINDOW_PACKETS`] packets per tuner window) was
    /// load-idleness — the device was gated *and quiet* — and is
    /// reported to the tuner as idle; a backlogged wait (arrivals at or
    /// above the floor) is not. This lets the tuner distinguish
    /// moderated bursty traffic from moderated overload, where the live
    /// idle feed is masked by the latched cause either way. Must run at
    /// the delivery instant — the reap pass that follows is work, not
    /// waiting, and would inflate the wait.
    pub(super) fn end_gated_wait(&mut self, dev: u32, now: u64) {
        let state = &mut self.devs[dev as usize];
        if let (Some((p0, t0)), Some(tuner)) = (state.gate_anchor.take(), state.tuner.as_mut()) {
            let arrivals = self.world.nics[dev as usize].stats().rx_packets - p0;
            let wait = now.saturating_sub(t0);
            if arrivals * AUTOTUNE_WINDOW_CYCLES < twin_nic::BUSY_WINDOW_PACKETS * wait {
                tuner.note_idle(wait);
            }
        }
    }

    /// Services every device's auto-tuner: at each elapsed interval
    /// window the tuner classifies the window's receive counters and
    /// proposes a one-rung `ITR` step; the system charges the retune
    /// cost to the driver (the state machine runs in the driver's
    /// interrupt context, like Linux's `e1000_set_itr`) and writes the
    /// register through the normal MMIO path. A no-op costing zero
    /// cycles when auto-tuning is off or no window has closed.
    ///
    /// # Errors
    ///
    /// Propagates MMIO faults from the register write.
    pub(super) fn service_itr_tuners(&mut self) -> Result<(), SystemError> {
        let now = self.machine.meter.now();
        // Fallback resolution for waits that ended without a delivery
        // (a polled reap consumed the cause): the wait ends here.
        for dev in 0..self.devs.len() as u32 {
            if self.devs[dev as usize].gate_anchor.is_some()
                && !self.moderated_pending.contains(&dev)
            {
                self.end_gated_wait(dev, now);
            }
        }
        for dev in 0..self.devs.len() {
            let Some(tuner) = self.devs[dev].tuner.as_mut() else {
                continue;
            };
            let old = self.world.nics[dev].itr();
            if let Some(itr) = tuner.service(now, &self.world.nics[dev]) {
                let class = tuner.class();
                self.machine.pay_to(CostDomain::Driver, Term::ItrRetune);
                self.set_itr(dev as u32, itr)?;
                self.machine.note(TraceEvent::ItrRetune {
                    dev: dev as u32,
                    old,
                    new: itr,
                    regime: class.label(),
                });
            }
        }
        Ok(())
    }

    /// Applies every scheduler transition due at `now` — pure
    /// bookkeeping, no cycles charged — emitting the `vcpu_run` /
    /// `vcpu_sleep` events. Returns whether any vCPU woke (the caller
    /// then releases deferred backlog). A no-op without the scheduler
    /// model.
    fn advance_sched(&mut self, now: u64) -> bool {
        let transitions = match self.sched.as_mut() {
            Some(s) => s.advance(now),
            None => return false,
        };
        let mut woke = false;
        for tr in &transitions {
            woke |= tr.now_running;
            let guest = tr.guest;
            let cpu = self
                .sched
                .as_ref()
                .and_then(|s| s.cpu_of(guest))
                .unwrap_or(0);
            self.machine.note(if tr.now_running {
                TraceEvent::VcpuRun { guest, cpu }
            } else {
                TraceEvent::VcpuSleep { guest, cpu }
            });
        }
        woke
    }

    /// Services every virtual timer that is due *now*, in
    /// flush-before-IRQ order: (1) the deadline-driven upcall flush, so
    /// queued frees/unmaps reach dom0 before interrupt work piles more
    /// behind them; (2) moderated interrupt deliveries whose ITR window
    /// has opened; (3) — only when `fire_kernel_timers` — due kernel
    /// timers (the e1000 watchdogs), which fire from idle time, never
    /// from the datapath, preserving the pre-clock watchdog semantics
    /// bit-exactly.
    ///
    /// A no-op costing zero cycles when nothing is armed or due, so the
    /// default configuration (ITR 0, no deadline) stays cycle-exact.
    ///
    /// # Errors
    ///
    /// Propagates faults from flushed upcalls, interrupt handlers and
    /// timer handlers.
    pub fn service_virtual_timers(&mut self, fire_kernel_timers: bool) -> Result<(), SystemError> {
        let now = self.machine.meter.now();
        let sched_woke = self.advance_sched(now);
        if self
            .world
            .hyper
            .as_ref()
            .is_some_and(|h| h.engine.flush_due(now))
        {
            self.flush_deferred_upcalls_as(FlushCause::Deadline)?;
        }
        if !self.moderated_pending.is_empty() {
            // Entries whose cause was acked by another path (an allowed
            // delivery, a polled reap) have nothing left to deliver.
            self.moderated_pending
                .retain(|d| self.world.nics[*d as usize].irq_asserted());
            let now = self.machine.meter.now();
            let ready: Vec<u32> = self
                .moderated_pending
                .iter()
                .copied()
                .filter(|d| self.world.nics[*d as usize].irq_deliverable(now))
                .collect();
            if !ready.is_empty() {
                self.moderated_pending.retain(|d| !ready.contains(d));
                // A moderated delivery on a NAPI system is still an
                // ack-and-mask: enter poll mode and drain budgeted.
                self.take_irqs(&ready)?;
                if self.opts.napi_weight > 0 {
                    while self.napi_work_pending() {
                        if self.napi_poll_pass()? == 0 {
                            break;
                        }
                    }
                } else {
                    self.rx_pass(&ready, true)?;
                }
                self.flush_deferred_upcalls()?;
                self.sample_rx_completions();
            }
        }
        // A wakeup releases the guest's deferred backlog: the frames
        // the DRR flush skipped while it slept deliver now, at the
        // scheduler edge — the deferral bound the wakeup timer
        // provides.
        if sched_woke {
            let backlog = self.world.xen.as_ref().is_some_and(|x| {
                x.domains.iter().any(|d| {
                    !d.rx_queue.is_empty()
                        && self.sched.as_ref().is_some_and(|s| s.is_running(d.id.0))
                })
            });
            if backlog {
                self.flush_guest_rx_queues()?;
                self.sample_rx_completions();
            }
        }
        // After moderated deliveries, so an interrupt delivered at this
        // service point counts into the window that just closed.
        self.service_itr_tuners()?;
        if fire_kernel_timers {
            let now = self.machine.meter.now();
            let due = self.world.kernel.take_due_timers(now);
            for t in due {
                self.machine.note(TraceEvent::TimerFire { data: t.data });
                self.machine.meter.push_domain(CostDomain::Driver);
                let r = self.call_dom0(t.handler, &[t.data as u32], 5_000_000);
                self.machine.meter.pop_domain();
                r?;
            }
        }
        Ok(())
    }

    /// The earliest armed virtual-timer event: kernel wheel, upcall
    /// flush deadline, or a moderated device's window opening.
    fn next_virtual_event(&self) -> Option<u64> {
        let mut candidates: Vec<u64> = Vec::new();
        if let Some(t) = self.world.kernel.timers.next_due() {
            candidates.push(t);
        }
        if let Some(t) = self
            .world
            .hyper
            .as_ref()
            .and_then(|h| h.engine.flush_due_at())
        {
            candidates.push(t);
        }
        for &d in &self.moderated_pending {
            if let Some(t) = self.world.nics[d as usize].irq_ready_at() {
                candidates.push(t);
            }
        }
        // Auto-tune interval windows are virtual timers too: idle
        // stepping wakes at each boundary so the knob decays toward
        // latency mode on schedule.
        for t in self.devs.iter().filter_map(|d| d.tuner.as_ref()) {
            candidates.push(t.next_window_at());
        }
        // Scheduler run/sleep edges: idle stepping lands exactly on the
        // next wakeup so deferred backlog never waits past it.
        if let Some(t) = self.sched.as_ref().and_then(|s| s.next_event()) {
            candidates.push(t);
        }
        candidates.into_iter().min()
    }

    /// Advances virtual time by `cycles` of idle (no domain is charged),
    /// firing every virtual timer — kernel timers, the upcall-flush
    /// deadline, moderated interrupt deliveries — at its due instant
    /// along the way (event-driven stepping, not polling).
    ///
    /// # Errors
    ///
    /// Propagates faults from fired timers and handlers.
    pub fn run_idle(&mut self, cycles: u64) -> Result<(), SystemError> {
        let end = self.machine.meter.now().saturating_add(cycles);
        loop {
            self.service_virtual_timers(true)?;
            let now = self.machine.meter.now();
            if now >= end {
                break;
            }
            let step = match self.next_virtual_event() {
                // Sleep exactly to the next due event (or the horizon).
                Some(t) if t > now => (t - now).min(end - now),
                // An event at or before `now` that service could not
                // clear cannot progress by waiting: skip to the horizon.
                _ => end - now,
            };
            self.machine.meter.advance_idle(step);
            // The tuners' load signal: true idleness. A device whose
            // latched cause is waiting out its own moderation window is
            // backlogged, not idle — its wait is not reported (at
            // sustained load the schedule runs ahead between cheap
            // latching injections, and counting those waits would
            // demote a converged bulk setting mid-overload). The
            // idleness of a *lightly* loaded gated device still shows:
            // its cause clears at each window-open delivery and the
            // remaining inter-burst gap is reported.
            // A sleeping guest's backlog is deferred work, not light
            // load: while it waits for its wakeup the system is
            // backlogged, and reporting the wait as idleness would
            // decay a converged bulk ITR setting every sleep interval.
            let sleep_backlog = self.sched.as_ref().is_some_and(|s| {
                self.world.xen.as_ref().is_some_and(|x| {
                    x.domains
                        .iter()
                        .any(|d| !d.rx_queue.is_empty() && !s.is_running(d.id.0))
                })
            });
            for (d, nic) in self.devs.iter_mut().zip(&self.world.nics) {
                if let Some(t) = d.tuner.as_mut() {
                    if !nic.irq_asserted() && !sleep_backlog {
                        t.note_idle(step);
                    }
                }
            }
        }
        self.service_virtual_timers(true)
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
    pub(crate) fn drain_moderated_tight(&mut self) -> Result<(), SystemError> {
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
}
