//! Reading a system: the unified metrics snapshot, delivery counts, and
//! the arrival-to-delivery latency samples.

use super::{Datapath, GuestState, System};
use crate::outcome::endpoints;
use twin_machine::{CostDomain, Event, Term};
use twin_net::Frame;
use twin_trace::MetricSet;
use twin_xen::{DomId, DomainKind};

/// The payments published as occurrence counts: `event.<name>` is the
/// meter's [`twin_machine::CycleMeter::payments`] of the row, each
/// operation of the row being one occurrence.
const PAYMENT_COUNTS: [(&str, Term); 19] = [
    ("cold_delivery", Term::ColdDeliveryRefill),
    ("copy_fallback", Term::CopyFallback),
    ("domain_switch", Term::DomainSwitch),
    ("grant_cache_hit", Term::GrantCacheHit),
    ("grant_map", Term::GrantMap),
    ("grant_unmap", Term::GrantUnmap),
    ("hypercall", Term::Hypercall),
    ("irq", Term::IrqDispatch),
    ("mmio_read", Term::MmioRead),
    ("mmio_write", Term::MmioWrite),
    ("napi_poll", Term::NapiPollDispatch),
    ("pin_page", Term::PinPage),
    ("stlb_call_xlat", Term::CallXlat),
    ("stlb_miss", Term::StlbSlowPath),
    ("upcall", Term::UpcallOverhead),
    ("upcall_enqueue", Term::UpcallEnqueue),
    ("upcall_exec", Term::UpcallComplete),
    ("upcall_flush", Term::UpcallFlushOverhead),
    ("virq", Term::VirqDeliver),
];

impl System {
    /// One unified snapshot of every stats source in the system — the
    /// cycle meter (per-domain totals, named event counters, and the
    /// payments counted as events), per-NIC device stats, per-guest
    /// delivery/drop counters, the grant and
    /// upcall statistics no meter row counts, the flight recorder's own
    /// recorded/dropped counts — as a flat [`MetricSet`].
    ///
    /// Every counter is monotone: nothing in the system resets one, so a
    /// measurement window is the [`MetricSet::delta_since`] of two
    /// snapshots. The exceptions are gauges of current state:
    /// `guest{g}.queued`, `nic{i}.itr`, `fault.quarantined` and
    /// `sched.guest{g}.{cpu,running}`. The histograms hold the samples
    /// since the last window opened.
    pub fn metrics(&self) -> MetricSet {
        let mut ms = MetricSet::new();
        let meter = &self.machine.meter;
        ms.set("clock.now_cycles", meter.now());
        for d in CostDomain::ALL {
            ms.set(format!("meter.cycles.{}", d.label()), meter.cycles(d));
        }
        for e in Event::ALL {
            ms.set(format!("event.{}", e.name()), meter.event(e));
        }
        for (name, t) in PAYMENT_COUNTS {
            ms.set(format!("event.{name}"), meter.payments(t));
        }
        for (i, nic) in self.world.nics.iter().enumerate() {
            let s = nic.stats();
            ms.set(format!("nic{i}.tx_packets"), s.tx_packets);
            ms.set(format!("nic{i}.rx_packets"), s.rx_packets);
            ms.set(format!("nic{i}.tx_bytes"), s.tx_bytes);
            ms.set(format!("nic{i}.rx_bytes"), s.rx_bytes);
            ms.set(format!("nic{i}.rx_missed"), s.rx_missed);
            ms.set(format!("nic{i}.rx_irqs"), s.rx_irqs);
            ms.set(format!("nic{i}.tx_irqs"), s.tx_irqs);
            ms.set(format!("nic{i}.irqs_delivered"), nic.irqs_delivered());
            ms.set(format!("nic{i}.itr"), u64::from(nic.itr()));
            ms.set(
                format!("nic{i}.poll_cycles"),
                self.poll_mode_cycles(i as u32),
            );
        }
        // The names `benchmark/README.md` says the benchmark reads, each
        // the sum of the `event.*` counts of its occurrences, published
        // where the layer the name belongs to exists.
        let (xen, hyper, cache) = (
            self.world.xen.is_some(),
            self.world.hyper.is_some(),
            self.grant_cache.is_some(),
        );
        for (name, present, rows) in [
            ("xen.switches", xen, &["domain_switch"][..]),
            ("xen.hypercalls", xen, &["hypercall"]),
            ("xen.virqs_sent", xen, &["virq"]),
            ("grant.maps", xen, &["grant_map"]),
            ("grantcache.hits", cache, &["grant_cache_hit"]),
            ("grantcache.misses", cache, &["pin_page"]),
            ("upcall.executed", hyper, &["upcall", "upcall_exec"]),
            ("upcall.flushes", hyper, &["upcall_flush"]),
        ] {
            if present {
                let n = rows.iter().map(|r| ms.counter(&format!("event.{r}"))).sum();
                ms.set(name, n);
            }
        }
        if let Some(xen) = self.world.xen.as_ref() {
            ms.set("xen.softirqs_coalesced", xen.softirqs_coalesced);
            ms.set("grant.copies", xen.grants.copies);
            for (dev, dg) in &xen.grants.per_device {
                ms.set(format!("grant.dev{dev}.maps"), dg.maps);
                ms.set(format!("grant.dev{dev}.unmaps"), dg.unmaps);
                ms.set(format!("grant.dev{dev}.copies"), dg.copies);
            }
            for d in &xen.domains {
                if d.kind != DomainKind::Guest {
                    continue;
                }
                let g = d.id.0;
                ms.set(format!("guest{g}.delivered"), d.rx_delivered.len() as u64);
                ms.set(format!("guest{g}.queued"), d.rx_queue.len() as u64);
                let drops = |e| meter.event_for(e, g);
                ms.set(format!("guest{g}.queue_drops"), drops(Event::RxQueueDrop));
                ms.set(format!("guest{g}.early_drops"), drops(Event::EarlyDrop));
            }
        }
        if let Some(hs) = self.world.hyper.as_ref() {
            ms.set("upcall.max_depth", hs.engine.stats.max_depth as u64);
            ms.record_samples("upcall_latency", hs.engine.latency_samples());
        }
        if let Some(cache) = self.grant_cache.as_ref() {
            ms.set("grantcache.revoked", cache.stats.revoked);
        }
        ms.set("trace.events_recorded", self.machine.trace.recorded());
        ms.set("trace.events_dropped", self.machine.trace.dropped());
        ms.set("fault.quarantined", self.quarantined_devices().len() as u64);
        ms.set("fault.recoveries", self.recovery_log.len() as u64);
        ms.set(
            "fault.inflight_replayed",
            self.recovery_log
                .iter()
                .map(|r| u64::from(r.replayed))
                .sum(),
        );
        ms.set(
            "fault.inflight_dropped",
            self.recovery_log.iter().map(|r| u64::from(r.dropped)).sum(),
        );
        if let Some(s) = self.sched.as_ref() {
            let now = meter.now();
            let mut placements = 0u64;
            for (g, st) in s.guests().filter_map(|g| Some((g, s.stats(g, now)?))) {
                ms.set(format!("sched.guest{g}.cpu"), u64::from(st.cpu));
                ms.set(format!("sched.guest{g}.running"), u64::from(st.running));
                ms.set(format!("sched.guest{g}.run_cycles"), st.run_cycles);
                ms.set(format!("sched.guest{g}.wakes"), st.wakes);
                ms.set(format!("sched.guest{g}.sleeps"), st.sleeps);
                let p = meter.event_for(Event::AffinityPlace, g);
                ms.set(format!("sched.guest{g}.placements"), p);
                placements += p;
            }
            // Flows placed for guests outside the vCPU set never happen
            // (they take the FlowHash fallback), so the totals are the
            // per-guest sums.
            ms.set("sched.placements", placements);
        }
        ms.record_samples("rx_latency", self.rx_latency.samples());
        for (g, state) in self.guests.iter().enumerate() {
            if !state.latency.is_empty() {
                ms.record_samples(format!("rx_latency.guest{g}"), state.latency.samples());
            }
        }
        ms
    }

    /// Writes `<label>.trace.json` (chrome://tracing) and
    /// `<label>.metrics.json` (flat [`MetricSet`] dump) into the
    /// directory named by the `TWIN_TRACE_OUT` environment variable.
    /// A no-op when the variable is unset; never fatal.
    pub fn export_trace(&self, label: &str) {
        if let Some(dir) = twin_trace::export::trace_out_dir() {
            twin_trace::export::write_trace_files(
                &dir,
                label,
                &self.machine.trace,
                &self.metrics(),
            );
        }
    }

    /// Frames fully delivered to one receive endpoint (0 for an id that
    /// is none; see [`crate::Outcome`] for what the endpoints are).
    pub fn delivered_rx_for(&self, gid: DomId) -> usize {
        let mut endpoints = endpoints(&self.world, self.guest());
        endpoints.find(|e| e.0 == gid).map_or(0, |e| e.1.len())
    }

    /// Frames fully delivered to the measured receive endpoint.
    pub fn delivered_rx(&self) -> usize {
        self.delivered_rx_for(self.guest().unwrap_or(DomId(0)))
    }

    /// Retires the landing records of newly delivered frames, recording
    /// a cycles-to-delivery sample for each that carries an arrival
    /// stamp (the latency side of the moderation sweep). Pure
    /// bookkeeping — no cycles are charged. Debug builds then check the
    /// record law ([`System::check_landed`]).
    pub(super) fn sample_rx_completions(&mut self) {
        if !self.machine.landed.is_empty() {
            let now = self.machine.meter.now();
            let guest = self.guest();
            let per_guest = guest.is_some() && self.guest_latency_tracked;
            let (landed, all) = (&mut self.machine.landed, &mut self.rx_latency);
            let mut sample = |log: &[Frame], state: &mut GuestState| {
                for f in &log[state.sample_cursor.min(log.len())..] {
                    if let Some(t) = landed.remove(&(f.flow, f.seq)).and_then(|l| l.at) {
                        let sample = now.saturating_sub(t);
                        all.push(sample);
                        if per_guest {
                            state.latency.push(sample);
                        }
                    }
                }
                state.sample_cursor = state.sample_cursor.max(log.len());
            };
            for (id, log, _) in endpoints(&self.world, guest) {
                if let Some(state) = self.guests.get_mut(id.0 as usize) {
                    sample(log, state);
                }
            }
        }
        debug_assert_eq!(self.check_landed(), Ok(()));
    }

    /// The record law: once delivered frames are retired, every landing
    /// record is a live frame and every live frame has one —
    /// `landed == Σ rx_pending + Σ rx_queue + bridged`, exactly. A
    /// quarantined device's ring is out of the sum (its unreaped frames
    /// were noted lost and its reset rebuilds it); `bridged` is what
    /// dom0 reaped toward a guest and has not forwarded yet. Keys are
    /// assumed unique among live frames.
    ///
    /// # Errors
    ///
    /// The three sides when they disagree.
    pub(crate) fn check_landed(&self) -> Result<(), String> {
        let devs = self.world.nics.iter().zip(&self.devs);
        let ring: u64 = devs
            .filter(|(_, d)| d.quarantine.is_none())
            .map(|(n, _)| u64::from(n.rx_pending()))
            .sum();
        let domains = self.world.xen.iter().flat_map(|x| &x.domains);
        let queued = domains.map(|d| d.rx_queue.len() as u64).sum::<u64>();
        let bridged = match self.datapath {
            Datapath::Guest(_) => self.world.kernel.rx_delivered.len() as u64,
            _ => 0,
        };
        let records = self.machine.landed.len() as u64;
        if records == ring + queued + bridged {
            return Ok(());
        }
        Err(format!(
            "{records} landing records, but {ring} frames in rings + {queued} queued + {bridged} bridged"
        ))
    }

    /// Cycles-from-arrival-to-delivery samples for frames completed in
    /// the current measurement window (a bounded uniform reservoir; see
    /// [`twin_trace::SampleReservoir`]).
    pub fn rx_latency_samples(&self) -> &[u64] {
        self.rx_latency.samples()
    }

    /// Clears the latency reservoirs at the start of a measurement
    /// window: a histogram cannot be differenced the way the counters
    /// are, so the window's samples are the only ones it holds. Nothing
    /// else is reset — every counter, the cycle meter's included, is
    /// monotone.
    pub(crate) fn reset_measurement(&mut self) {
        if let Some(h) = self.world.hyper.as_mut() {
            h.engine.clear_latency();
        }
        self.rx_latency.clear();
        for g in &mut self.guests {
            g.latency.clear();
        }
    }

    /// Enables per-guest arrival-to-delivery latency reservoirs
    /// (TwinDrivers/XenGuest paths): after this, each delivered frame's
    /// latency is also recorded against its destination domain — the
    /// fairness side of the overload sweeps, where a victim guest's p99
    /// must stay bounded while a neighbour floods.
    pub fn track_guest_latency(&mut self) {
        self.guest_latency_tracked = true;
    }

    /// Latency samples recorded for one domain (empty unless
    /// [`System::track_guest_latency`] was enabled).
    pub fn guest_rx_latency(&self, gid: DomId) -> &[u64] {
        self.guests
            .get(gid.0 as usize)
            .map_or(&[], |g| g.latency.samples())
    }
}

#[cfg(test)]
mod tests {
    use crate::{peer_mac, Config, System};
    use twin_net::{Frame, MacAddr};
    use twin_xen::DomId;

    /// Lands `n` frames of `flow` toward guest `dst` in one open-loop
    /// arrival: the ISR reaps them into the demux, nobody flushes.
    fn land(sys: &mut System, dst: u32, flow: u32, n: u64) {
        let to = MacAddr::for_guest(dst);
        let burst: Vec<Frame> = (0..n)
            .map(|i| Frame::data(to, peer_mac(), flow, i))
            .collect();
        let at = sys.now_cycles();
        assert_eq!(sys.rx_open_loop_arrival(&burst, at).unwrap(), n as usize);
    }

    /// One NIC, 16 frames queued for guest 1, then a flood toward a MAC
    /// no guest owns: every flooded frame dies at the demux and takes
    /// its record with it, so the records never pass the ring plus the
    /// queue — they are exactly the 16 queued frames after every call.
    #[test]
    fn a_demux_miss_flood_leaves_only_the_queued_records() {
        let mut sys = System::build(Config::TwinDrivers).unwrap();
        assert_eq!(sys.world.nics.len(), 1);
        let ring = sys.world.nics[0].rx_ring_len() as usize;
        let calls = [(1, 1, 16)]
            .into_iter()
            .chain((100..105).map(|f| (77, f, 64)));
        for (dst, flow, n) in calls {
            land(&mut sys, dst, flow, n);
            assert!(sys.machine.landed.len() <= ring + 16, "flow {flow}");
            assert_eq!(sys.machine.landed.len(), 16, "flow {flow}");
            assert_eq!(sys.check_landed(), Ok(()));
        }
        assert_eq!(sys.rx_backlog(), 16);
    }

    /// The law's seeded mutant: a queued frame vanishes with no note —
    /// one skipped retire — and its stray record breaks the law.
    #[test]
    fn a_stray_landing_record_breaks_the_law() {
        let mut sys = System::build(Config::TwinDrivers).unwrap();
        land(&mut sys, 1, 1, 16);
        assert_eq!(sys.check_landed(), Ok(()));
        let xen = sys.world.xen.as_mut().unwrap();
        xen.domain_mut(DomId(1)).rx_queue.pop().unwrap();
        let broken = sys.check_landed().unwrap_err();
        assert!(broken.starts_with("16 landing records"), "{broken}");
        assert!(broken.contains("15 queued"), "{broken}");
    }
}
