//! Running driver code: the two instances' call paths, the one path into
//! the fast-path entry points ([`System::call_driver`]), and what happens
//! when the hypervisor instance faults — teardown, quarantine, recovery.

use super::{
    in_ring, Datapath, DriverOp, QuarantineEpisode, RecoveryReport, System, SystemError, World,
};
use twin_kernel::{call_function, e1000, RoutineId, SkBuff};
use twin_machine::{CostDomain, Cpu, Event, ExecMode, SpaceId, PAGE_SIZE};
use twin_trace::{Fate, FlushCause, TraceEvent};
use twin_xen::{DomId, UPCALL_STACK_BASE, UPCALL_STACK_PAGES};

impl System {
    /// Runs a function of the dom0/native driver instance.
    pub(super) fn call_dom0(
        &mut self,
        entry: u64,
        args: &[u32],
        budget: u64,
    ) -> Result<u32, SystemError> {
        call_function(
            &mut self.machine,
            &mut self.world,
            self.dom0,
            ExecMode::Guest,
            self.dom0_stack_top,
            entry,
            args,
            budget,
        )
        .map_err(SystemError::Fault)
    }

    /// Brings `dev` up through the dom0 instance: `e1000_probe` (adapter
    /// slot, `request_irq`, watchdog arm) then `e1000_open` (rings, `IMS`)
    /// — charged like any driver run. Returns the net_device the probe
    /// registered.
    ///
    /// # Errors
    ///
    /// [`SystemError::Build`] when the driver exports no such entry or
    /// the probe registers no net_device.
    pub(super) fn probe_and_open(&mut self, dev: u32) -> Result<u64, SystemError> {
        let entry = |name: &str| {
            self.driver
                .entry(name)
                .ok_or_else(|| SystemError::Build(format!("the driver exports no `{name}`")))
        };
        let (probe, open) = (entry("e1000_probe")?, entry("e1000_open")?);
        self.call_dom0(probe, &[dev], 50_000_000)?;
        // `register_netdev` pushes: this probe's netdev is the newest.
        let netdev =
            *self.world.kernel.registered_netdevs.last().ok_or_else(|| {
                SystemError::Build("`e1000_probe` registered no net_device".into())
            })?;
        self.call_dom0(open, &[netdev as u32], 200_000_000)?;
        Ok(netdev)
    }

    /// Runs a function of the hypervisor driver instance, from the guest
    /// context, in hypervisor mode — no address-space switch, the core of
    /// the paper's performance claim. `dev` is the device the call
    /// drives: a fault quarantines it, and a call toward a quarantined
    /// device first runs [`System::recover_device`], so traffic resumes
    /// transparently after the one errored invocation. `gspace` is the
    /// guest context the call runs from, `stack_top` the instance's
    /// hypervisor stack.
    fn call_hyperdrv(
        &mut self,
        (gspace, stack_top): (SpaceId, u64),
        entry: u64,
        args: &[u32],
        budget: u64,
        dev: u32,
    ) -> Result<u32, SystemError> {
        if self.devs[dev as usize].quarantine.is_some() {
            // Live recovery: reset the device and fall through into the
            // requested call on the rebuilt adapter slot.
            self.recover_device(dev)?;
        }
        let r = call_function(
            &mut self.machine,
            &mut self.world,
            gspace,
            ExecMode::Hypervisor,
            stack_top,
            entry,
            args,
            budget,
        );
        let fault = match r {
            Ok(v) => return Ok(v),
            Err(fault) => fault,
        };
        // SVM caught something (or the watchdog fired): the hypervisor
        // itself survives (paper §4.5), and so does the shared image —
        // only the faulted device is quarantined, so siblings keep
        // serving through it.
        let reason = twin_xen::hyperdrv::abort_reason_for(&fault);
        self.machine.note(TraceEvent::FaultDetected {
            dev,
            reason: reason.clone(),
        });
        self.machine.note(TraceEvent::QuarantineEnter { dev });
        let at = self.machine.meter.now();
        let episode = self.fault_teardown(dev, reason.clone(), at)?;
        let (replayed, dropped) = (episode.replayed, episode.dropped);
        self.devs[dev as usize].quarantine = Some(episode);
        self.machine.note(TraceEvent::InflightAccounted {
            dev,
            replayed,
            dropped,
        });
        Err(SystemError::DriverAborted(reason))
    }

    /// Resolves every [`DriverOp`] kind's entry point in the instance
    /// [`System::call_driver`] runs — the hypervisor one where it
    /// exists — choosing the `*_dev` variant when the system drives more
    /// than one NIC.
    ///
    /// # Errors
    ///
    /// [`SystemError::Build`] when the driver exports no such entry.
    pub(super) fn resolve_fast_entries(&mut self) -> Result<(), SystemError> {
        let multi = usize::from(self.world.nics.len() > 1);
        for (slot, names) in self.fast_entries.iter_mut().zip(DriverOp::ENTRIES) {
            let name = names[multi];
            let entry = match &self.datapath {
                Datapath::Twin { hyperdrv, .. } => hyperdrv.entry(name),
                _ => self.driver.entry(name),
            };
            *slot = entry.ok_or_else(|| {
                SystemError::Build(format!("the driver exports no fast-path `{name}`"))
            })?;
        }
        Ok(())
    }

    /// The one path into the e1000 fast-path entry points. Owns what
    /// every call site used to repeat: the argument layout of each
    /// entry, the `*_dev` variant (with the trailing device id selecting
    /// the adapter slot) on multi-NIC systems, the instance — the
    /// hypervisor instance where one exists, the dom0 / native one
    /// elsewhere — and the [`CostDomain::Driver`] bracket around the
    /// interpreted run.
    pub(super) fn call_driver(&mut self, op: DriverOp, dev: u32) -> Result<u32, SystemError> {
        let netdev = self.netdevs[dev as usize] as u32;
        let hosted = match &self.datapath {
            Datapath::Twin {
                endpoint: ep,
                hyperdrv: hd,
                ..
            } => Some((ep.gspace, hd.stack_top)),
            _ => None,
        };
        // The dom0 handler runs under the kernel's shorter interrupt
        // budget.
        let intr_budget = hosted.map_or(10_000_000, |_| 20_000_000);
        let (args, arity, budget) = match op {
            DriverOp::XmitFrame(skb) => ([skb.0 as u32, netdev, dev, 0], 2, 2_000_000),
            DriverOp::XmitBatch(n) => (
                [self.tx_batch_buf as u32, n, netdev, dev],
                3,
                2_000_000 * u64::from(n),
            ),
            DriverOp::PollRxBudget(weight) => ([netdev, weight, dev, 0], 2, 20_000_000),
            DriverOp::Intr => ([netdev, dev, 0, 0], 1, intr_budget),
        };
        let multi = usize::from(self.world.nics.len() > 1);
        let (entry, args) = (self.fast_entries[op.kind()], &args[..arity + multi]);
        self.machine.meter.push_domain(CostDomain::Driver);
        let r = match hosted {
            Some(at) => self.call_hyperdrv(at, entry, args, budget, dev),
            None => self.call_dom0_toward(dev, entry, args, budget),
        };
        self.machine.meter.pop_domain();
        r
    }

    /// [`System::call_dom0`] toward `dev`. A fault leaves the adapter as
    /// the invocation stopped, its TX lock possibly held, so it marks
    /// the device failed, and every later call toward it returns
    /// [`SystemError::DeviceFailed`] without running the driver.
    fn call_dom0_toward(
        &mut self,
        dev: u32,
        entry: u64,
        args: &[u32],
        budget: u64,
    ) -> Result<u32, SystemError> {
        if let Some(fault) = self.devs[dev as usize].failed.clone() {
            return Err(SystemError::DeviceFailed { dev, fault });
        }
        let r = self.call_dom0(entry, args, budget);
        if let Err(SystemError::Fault(fault)) = &r {
            self.devs[dev as usize].failed = Some(fault.clone());
        }
        r
    }

    /// Tears down the state a faulted driver leaves behind for one
    /// device: drains the deferred-upcall ring (replaying restorative
    /// frees/unlocks natively, discarding the rest — counted), disarms
    /// the flush-deadline, drops the device's in-flight frames, frees
    /// its ring-held skbs back to their pools (pool conservation across
    /// the reset), closes an open NAPI poll span, clears moderation
    /// latches, revokes every cached zero-copy grant (the faulted
    /// *image* touched all of them — the trust decision is per driver,
    /// re-granted per device on recovery), and disarms the device's
    /// watchdog so the wheel cannot fire a handler over the corrupted
    /// adapter slot. Returns the episode, opened at `at` for `reason`.
    fn fault_teardown(
        &mut self,
        dev: u32,
        reason: String,
        at: u64,
    ) -> Result<QuarantineEpisode, SystemError> {
        let mut replayed = 0u32;
        let mut dropped = 0u32;
        // 1. The deferred-upcall ring: a queued free or unlock — a
        // routine some native body must flush first — is state dom0 is
        // owed regardless of which device queued it: replay its body
        // natively (charged as Xen cleanup work). Anything else is
        // discarded and counted. `drain` also disarms the flush-deadline
        // timer, so an idle system stops re-arming toward a dead ring.
        let drained = self
            .world
            .hyper
            .as_mut()
            .map(|hs| hs.engine.drain())
            .unwrap_or_default();
        for q in &drained {
            if !q.routine.is_flush_first() {
                dropped += 1;
                self.machine.meter.count_event(Event::UpcallDiscarded);
                continue;
            }
            let mut cpu = self.upcall_frame(self.dom0, &q.args)?;
            self.machine.meter.push_domain(CostDomain::Xen);
            let r = self
                .world
                .kernel
                .routine(q.routine, &mut self.machine, &mut cpu);
            self.machine.meter.pop_domain();
            r?;
            replayed += 1;
            self.machine.meter.count_event(Event::UpcallReplayed);
        }
        if let Some(hs) = self.world.hyper.as_mut() {
            hs.engine.prune_stale_completions();
        }
        // 2. Frames still in this device's ring: the reset rebuilds it,
        // so they die here — bounded, counted loss, oldest first. A
        // delivered or dead frame has no record left; one the aborted
        // reap already queued still counts in `rx_pending` (the fault
        // came before the `RDT` bump) but lives on in its queue.
        let queued = |key: &(u32, u64)| {
            let domains = self.world.xen.iter().flat_map(|x| &x.domains);
            domains
                .flat_map(|d| &d.rx_queue)
                .any(|f| (f.flow, f.seq) == *key)
        };
        let nics = &self.world.nics;
        let records = self.machine.landed.iter();
        let mut lost: Vec<(u64, (u32, u64))> = records
            .filter(|(key, l)| l.dev == dev && in_ring(l, nics) && !queued(key))
            .map(|(key, l)| (l.nth, *key))
            .collect();
        lost.sort_unstable();
        dropped += lost.len() as u32;
        for (_, key) in lost {
            self.machine.note(TraceEvent::FrameDrop {
                fate: Fate::InflightLost,
                guest: None,
                frame: Some(key),
            });
        }
        // 3. Ring-held skbs: the reset re-probes the adapter slot and
        // re-fills both rings, so buffers the old rings hold must go
        // back to their pools first or every episode leaks a ring's
        // worth of pool. `e1000_clean_tx` nulls entries it frees, so an
        // honest driver's non-null slot is live exactly once; one the
        // pool refuses (freed already, or no skb at all) is a hostile
        // driver's, and holds nothing to give back.
        let slot = self
            .driver
            .data_symbol("adapter")
            .map(|a| a + u64::from(dev) * e1000::ADAPTER_STRIDE);
        if let Some(slot) = slot {
            for &arr_off in &[e1000::adapter::TX_SKB, e1000::adapter::RX_SKB] {
                let arr = self
                    .machine
                    .read_u32(self.dom0, ExecMode::Guest, slot + arr_off)?;
                if arr == 0 {
                    continue;
                }
                for i in 0..e1000::RING_SIZE {
                    let p = u64::from(arr) + u64::from(i) * 4;
                    let skb = self.machine.read_u32(self.dom0, ExecMode::Guest, p)?;
                    if skb != 0 {
                        self.machine.write_u32(self.dom0, ExecMode::Guest, p, 0)?;
                        let skb = SkBuff(u64::from(skb));
                        let _refused = self.world.kernel.free_skb(&self.machine, skb);
                    }
                }
            }
        }
        // 4. NAPI: close an open poll span (the residency metric and
        // the chrome export both need the episode bounded); the IRQ
        // stays masked until the reset's `e1000_open` re-enables `IMS`.
        let state = &mut self.devs[dev as usize];
        if let Some(entered) = state.poll_entered_at.take() {
            state.poll_cycles += self.machine.meter.now().saturating_sub(entered);
            self.machine.note(TraceEvent::NapiComplete { dev });
        }
        // 5. Moderation latches: a quarantined device owes no delivery.
        state.gate_anchor = None;
        self.moderated_pending.retain(|d| *d != dev);
        // 6. Zero-copy grants: the faulted image cached mappings for
        // every granted pool, so all of them outlive the trust decision
        // unless revoked (each pays its `grant_unmap`). Recovery
        // re-grants, reusing the still-mapped pool pages.
        let revoked_doms: Vec<u32> = (0..self.guests.len() as u32)
            .filter(|d| self.guests[*d as usize].zc_granted)
            .collect();
        let mut revoked_mappings = 0usize;
        for d in &revoked_doms {
            revoked_mappings += self.revoke_zero_copy_grants(DomId(*d))?;
        }
        // 7. The device's watchdog: its handler would run the dom0
        // instance over the corrupted adapter slot at the next wheel
        // service. Re-probe re-arms it via `mod_timer`.
        if let Some(wd) = self.driver.entry("e1000_watchdog") {
            self.world
                .kernel
                .timers
                .disarm_where(|t| t.handler == wd && t.data == u64::from(dev));
        }
        Ok(QuarantineEpisode {
            reason,
            at,
            replayed,
            dropped,
            revoked_doms,
            revoked_mappings,
        })
    }

    /// Resets and resumes a quarantined device: re-runs `e1000_probe`
    /// (adapter-slot reconstruction, `request_irq`, watchdog re-arm) and
    /// `e1000_open` (ring reconstruction, `IMS` re-enable) through the
    /// dom0 instance — charged, so recovery latency is real virtual
    /// time — then re-grants the revoked zero-copy pools and releases
    /// the quarantine. The reset is dom0's work (paper §3.1: the VM
    /// driver initialises the NIC in dom0), so it is charged to dom0
    /// whichever path noticed the quarantine. Called automatically by
    /// the next driver invocation or arrival toward the device;
    /// callable directly for eager recovery.
    ///
    /// # Errors
    ///
    /// [`SystemError::Build`] if the device is not quarantined;
    /// propagates faults from the reset itself.
    pub fn recover_device(&mut self, dev: u32) -> Result<RecoveryReport, SystemError> {
        let state = self.devs.get_mut(dev as usize);
        let Some(ep) = state.and_then(|d| d.quarantine.take()) else {
            return Err(SystemError::Build(format!(
                "device {dev} is not quarantined"
            )));
        };
        self.machine.meter.push_domain(CostDomain::Dom0);
        let reset = self.reset_device(dev, &ep.revoked_doms);
        self.machine.meter.pop_domain();
        reset?;
        let report = RecoveryReport {
            dev,
            reason: ep.reason,
            quarantined_at: ep.at,
            recovered_at: self.machine.meter.now(),
            replayed: ep.replayed,
            dropped: ep.dropped,
            revoked_mappings: ep.revoked_mappings,
        };
        self.recovery_log.push(report.clone());
        Ok(report)
    }

    /// The dom0 half of [`System::recover_device`]: probe and open
    /// `dev` again, then re-grant the pools of `revoked_doms`.
    fn reset_device(&mut self, dev: u32, revoked_doms: &[u32]) -> Result<(), SystemError> {
        self.netdevs[dev as usize] = self.probe_and_open(dev)?;
        self.machine.note(TraceEvent::DeviceReset { dev });
        for d in revoked_doms {
            self.grant_zero_copy_pool(DomId(*d))?;
        }
        self.machine.note(TraceEvent::QuarantineExit { dev });
        Ok(())
    }

    /// Devices currently quarantined (empty on fault-free runs).
    pub fn quarantined_devices(&self) -> Vec<u32> {
        (0..self.devs.len() as u32)
            .filter(|d| self.devs[*d as usize].quarantine.is_some())
            .collect()
    }

    /// Arms the driver's fault-injection hook: writes `value` into the
    /// driver's `fault_arm` data word (present only in sources built by
    /// [`crate::measure::fault_injected_source`]). The next fast-path
    /// invocation of the hypervisor instance *on behalf of device
    /// `value - 1`* sees the match, disarms the word (one-shot) and
    /// executes its fault body; invocations for other devices sail
    /// past. Use [`crate::measure::FaultClass::arm_value`].
    ///
    /// # Errors
    ///
    /// [`SystemError::Build`] when the loaded driver has no `fault_arm`
    /// hook (i.e. it was built from the stock source).
    pub fn arm_driver_fault(&mut self, value: u32) -> Result<(), SystemError> {
        let addr = self.driver.data_symbol("fault_arm").ok_or_else(|| {
            SystemError::Build(
                "driver has no fault_arm hook (build with fault_injected_source)".into(),
            )
        })?;
        self.machine
            .write_u32(self.dom0, ExecMode::Guest, addr, value)
            .map_err(SystemError::Fault)
    }

    /// Completed fault → quarantine → recovery episodes, in order.
    pub fn recovery_log(&self) -> &[RecoveryReport] {
        &self.recovery_log
    }

    /// A hypervisor-mode call frame for `args` on the upcall stack.
    fn upcall_frame(&mut self, space: SpaceId, args: &[u32]) -> Result<Cpu, SystemError> {
        let mut cpu = Cpu::new(space, ExecMode::Hypervisor);
        cpu.set_stack(UPCALL_STACK_BASE + UPCALL_STACK_PAGES * PAGE_SIZE);
        cpu.push_call_frame(&mut self.machine, args)?;
        Ok(cpu)
    }

    /// Calls a hypervisor support routine directly from guest context
    /// `gspace` (the paravirtual glue uses this for buffer management, so
    /// forced upcalls are exercised — Figure 10).
    pub(super) fn call_support(
        &mut self,
        gspace: SpaceId,
        id: RoutineId,
        args: &[u32],
    ) -> Result<u32, SystemError> {
        let mut cpu = self.upcall_frame(gspace, args)?;
        self.world.call_routine(id, &mut self.machine, &mut cpu)?;
        Ok(cpu.reg(twin_isa::Reg::Eax))
    }

    /// Drains the deferred-upcall ring in one switch-pair — the "natural
    /// dom0 scheduling point" at the end of a burst pass. No-op in
    /// synchronous mode or on an empty ring, so the default path is
    /// untouched. Returns how many queued upcalls executed.
    ///
    /// # Errors
    ///
    /// Propagates faults from the flushed routines.
    pub fn flush_deferred_upcalls(&mut self) -> Result<usize, SystemError> {
        self.flush_deferred_upcalls_as(FlushCause::BurstEnd)
    }

    /// [`System::flush_deferred_upcalls`] with an explicit cause for the
    /// flight recorder (the cause is trace metadata only — every cause
    /// drains the same way).
    pub(super) fn flush_deferred_upcalls_as(
        &mut self,
        cause: FlushCause,
    ) -> Result<usize, SystemError> {
        let World {
            kernel, xen, hyper, ..
        } = &mut self.world;
        if let (Some(hs), Some(xen)) = (hyper.as_mut(), xen.as_mut()) {
            if hs.engine.deferred() && hs.engine.depth() > 0 {
                return Ok(hs.flush_upcalls(&mut self.machine, kernel, xen, cause)?);
            }
        }
        Ok(0)
    }
}
