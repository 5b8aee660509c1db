//! NAPI-style interrupt→poll switching
//! ([`crate::SystemOptions::napi_weight`]): ack-and-mask entry, budgeted poll
//! passes, re-arm on a drained ring.

use super::{DriverOp, System, SystemError};
use twin_machine::{CostDomain, Env, Term};
use twin_trace::{FlushCause, TraceEvent};
use twin_xen::Softirq;

impl System {
    /// Whether a device is currently in NAPI poll mode (its RX interrupt
    /// masked, serviced by the budgeted poll loop). Always `false` when
    /// [`crate::SystemOptions::napi_weight`] is 0.
    pub fn in_poll_mode(&self, dev: u32) -> bool {
        self.devs
            .get(dev as usize)
            .is_some_and(|d| d.poll_entered_at.is_some())
    }

    /// Virtual cycles `dev` has spent in NAPI poll mode: completed
    /// enter→complete episodes plus the in-progress one (measured to
    /// now). Always 0 when NAPI is off. Pure bookkeeping — maintained
    /// without charging.
    pub fn poll_mode_cycles(&self, dev: u32) -> u64 {
        let Some(d) = self.devs.get(dev as usize) else {
            return 0;
        };
        let live = d
            .poll_entered_at
            .map_or(0, |t| self.machine.meter.now().saturating_sub(t));
        d.poll_cycles + live
    }

    /// NAPI mode entry for one device: the ISR acknowledges the cause
    /// (`ICR` read-to-clear), masks the RX interrupt (`IMC`) and
    /// schedules the poll softirq — no descriptor is reaped here; the
    /// budgeted poll pass does that. Poll mode takes precedence over the
    /// ITR moderation latch: a device entering poll mode leaves
    /// `moderated_pending`, since its cause is consumed right here.
    pub(super) fn napi_enter(&mut self, dev: u32) -> Result<(), SystemError> {
        if self.devs[dev as usize].poll_entered_at.is_some() {
            return Ok(());
        }
        self.machine.pay_to(CostDomain::Xen, Term::IrqDispatch);
        self.machine.note(TraceEvent::IrqDelivered { dev });
        // Ack: read-to-clear consumes the latched cause.
        let _ = self.world.nics[dev as usize].mmio_read(twin_nic::regs::ICR);
        Env::mmio_write(
            &mut self.world,
            &mut self.machine,
            dev,
            twin_nic::regs::IMC,
            twin_isa::Width::Long,
            twin_nic::intr::RXT0,
        )?;
        self.machine.pay_to(CostDomain::Xen, Term::NapiSwitch);
        self.devs[dev as usize].poll_entered_at = Some(self.machine.meter.now());
        self.machine.note(TraceEvent::NapiEnter { dev });
        self.moderated_pending.retain(|d| *d != dev);
        Ok(())
    }

    /// NAPI completion for one device: re-enable the RX interrupt
    /// (`IMS`) after a poll pass that drained the ring below its weight.
    /// The `ICR` read-to-clear first discards any cause latched by
    /// frames the pass already reaped, so re-arming cannot fire a
    /// spurious interrupt over an empty ring.
    fn napi_rearm(&mut self, dev: u32) -> Result<(), SystemError> {
        let _ = self.world.nics[dev as usize].mmio_read(twin_nic::regs::ICR);
        Env::mmio_write(
            &mut self.world,
            &mut self.machine,
            dev,
            twin_nic::regs::IMS,
            twin_isa::Width::Long,
            twin_nic::intr::RXT0,
        )?;
        self.machine.pay_to(CostDomain::Xen, Term::NapiSwitch);
        let state = &mut self.devs[dev as usize];
        if let Some(entered) = state.poll_entered_at.take() {
            state.poll_cycles += self.machine.meter.now().saturating_sub(entered);
        }
        self.machine.note(TraceEvent::NapiComplete { dev });
        Ok(())
    }

    /// The reap half of one budgeted poll: dispatch the poll softirq and
    /// reap up to [`crate::SystemOptions::napi_weight`] descriptors through
    /// `e1000_clean_rx_budget` into the per-guest queues. No flush, no
    /// re-arm — [`System::napi_poll_pass`] sequences those across all
    /// polled devices. Returns frames reaped.
    fn napi_poll_dev_reap(&mut self, dev: u32) -> Result<usize, SystemError> {
        let weight = self.napi_budget_for(dev) as u32;
        let poll = Softirq::NapiPoll { nic: dev };
        self.machine.note(TraceEvent::SoftirqDispatch {
            kind: poll.label(),
            dev,
        });
        {
            let xen = self.world.xen.as_mut().expect("napi implies xen");
            xen.raise_softirq(poll);
            // Drain the pending set so the poll is accounted as softirq
            // work; UpcallFlush kicks ride along as usual.
            let work = xen.take_runnable_softirqs();
            for w in work {
                if let Softirq::UpcallFlush = w {
                    self.machine.note(TraceEvent::SoftirqDispatch {
                        kind: w.label(),
                        dev: 0,
                    });
                    self.flush_deferred_upcalls_as(FlushCause::HighWater)?;
                }
            }
        }
        self.machine.pay_to(CostDomain::Xen, Term::NapiPollDispatch);
        self.world.kernel.begin_stack_burst();
        // Noted on both outcomes: an aborted pass is still a pass.
        let reaped = self.call_driver(DriverOp::PollRxBudget(weight), dev);
        self.machine.note(TraceEvent::NapiPoll {
            dev,
            reaped: *reaped.as_ref().unwrap_or(&0),
        });
        Ok(reaped? as usize)
    }

    /// One poll pass over every device currently in poll mode: reap each
    /// device's budget first, then one demux flush over the union (so no
    /// guest's ring wait includes another guest's flush), then re-arm
    /// every device whose reap came in under weight (the ring is
    /// drained — classic `napi_complete`). Returns total frames reaped.
    pub(super) fn napi_poll_pass(&mut self) -> Result<usize, SystemError> {
        let mut polled: Vec<(u32, usize, usize)> = Vec::new();
        for dev in 0..self.world.nics.len() as u32 {
            if self.devs[dev as usize].poll_entered_at.is_some() {
                let budget = self.napi_budget_for(dev);
                let reaped = self.napi_poll_dev_reap(dev)?;
                polled.push((dev, reaped, budget));
            }
        }
        if polled.is_empty() {
            return Ok(0);
        }
        self.flush_deferred_upcalls()?;
        self.flush_guest_rx_queues()?;
        for &(dev, reaped, budget) in &polled {
            if reaped < budget {
                self.napi_rearm(dev)?;
            }
        }
        Ok(polled.iter().map(|(_, r, _)| r).sum())
    }

    /// The poll budget for `dev` this pass. Without the scheduler model
    /// this is exactly [`crate::SystemOptions::napi_weight`]. With it, polling
    /// capacity weights toward devices whose guests can consume the
    /// frames: a device whose softirq CPU hosts a running vCPU (or no
    /// vCPU at all — an unscheduled device) polls at full weight, while
    /// one whose CPU's vCPUs are all asleep drops to a quarter weight —
    /// it still drains (livelock defence intact), but the budget the
    /// sleeping guests cannot consume goes to devices that can.
    fn napi_budget_for(&self, dev: u32) -> usize {
        match self.sched.as_ref() {
            Some(s) => {
                let cpu = s.nic_cpu(dev);
                if !s.cpu_has_vcpus(cpu) || s.cpu_has_running(cpu) {
                    self.opts.napi_weight
                } else {
                    (self.opts.napi_weight / 4).max(1)
                }
            }
            None => self.opts.napi_weight,
        }
    }

    /// Whether any device still owes poll work (is in poll mode).
    pub(super) fn napi_work_pending(&self) -> bool {
        self.devs.iter().any(|d| d.poll_entered_at.is_some())
    }
}
