//! From the demux queues into the guests: the deficit-round-robin flush,
//! the baseline path's I/O-channel forward, and the zero-copy pool slots
//! both land frames in.

use super::{System, SystemError, ZcOccupancy, ZC_POOL_BASE, ZC_POOL_FRAMES, ZC_SLOT_BYTES};
use crate::iommu::runs;
use twin_machine::{CostDomain, ExecMode, Term, PAGE_SIZE};
use twin_net::Frame;
use twin_trace::{Fate, TraceEvent};
use twin_xen::{DomId, GrantAccess};

/// Receive-stack cost of one delivered frame: the first of a wakeup pays
/// the full per-wakeup price, the rest the batched marginal.
fn rx_stack_term(first_of_wakeup: bool) -> Term {
    if first_of_wakeup {
        Term::TcpRxPerPacket
    } else {
        Term::TcpRxBatchMarginal
    }
}

impl System {
    /// Pushes frames the bridge queued toward the backend through the
    /// I/O channel into the guests their destination MACs name (baseline
    /// path, running in dom0): grants and copies stay per-packet, each
    /// destination guest is notified once for the whole batch, in the
    /// order its first frame came, and its stack pays the full wakeup
    /// cost only for that first frame. A frame for a MAC no guest owns is
    /// a demux miss and goes nowhere.
    pub(super) fn forward_bridged_frames(&mut self) -> Result<(), SystemError> {
        let frames: Vec<Frame> = self.world.kernel.rx_delivered.drain(..).collect();
        let mut woken: Vec<DomId> = Vec::new();
        let mut zc_occ = ZcOccupancy::default();
        for f in frames {
            let Some(gid) = self.world.xen_mut()?.guest_by_mac(f.dst) else {
                self.machine.note(TraceEvent::FrameDrop {
                    fate: Fate::DemuxMiss,
                    guest: None,
                    frame: Some((f.flow, f.seq)),
                });
                continue;
            };
            let first = !woken.contains(&gid);
            if first {
                woken.push(gid);
            }
            let dev = self.landed_dev(f.flow, f.seq);
            self.machine
                .pay_to(CostDomain::Dom0, Term::NetfrontPerPacket);
            self.machine.pay_to(CostDomain::Dom0, Term::BackendRxExtra);
            // Zero-copy: the frame lands straight in the guest's granted
            // RX pool — a warm pool page costs one cached grant access
            // instead of a grant-copy bracketed by map/unmap.
            if !self.zc_access(&mut zc_occ, gid, f.flow, false, f.len(), dev)? {
                // Grant-copy of the packet into guest memory.
                self.machine.pay_copy(CostDomain::Dom0, f.len() as u64);
                let xen = self.world.xen_mut()?;
                xen.grant_map_dev(&mut self.machine, dev);
                xen.grant_unmap_dev(&mut self.machine, dev);
                xen.note_grant_copy(Some(dev));
            }
            self.machine
                .pay_to(CostDomain::DomU, Term::NetfrontPerPacket);
            self.machine.pay_to(CostDomain::DomU, rx_stack_term(first));
            self.world.xen_mut()?.domain_mut(gid).rx_delivered.push(f);
        }
        for gid in woken {
            self.world.xen_mut()?.send_virq(&mut self.machine, gid, 4);
        }
        Ok(())
    }

    /// Fans demultiplexed frames out of the per-guest RX queues into the
    /// guests: per-packet copies and glue, one virtual interrupt per
    /// guest per quantum round, and the guest stack pays the full wakeup
    /// cost only for the first frame of its flush batch (paper §5.3,
    /// batched).
    ///
    /// **Fairness:** the rounds run deficit round-robin. Each round a
    /// backlogged guest's deficit grows by its weighted quantum
    /// ([`crate::SystemOptions::rx_flush_quantum`] ×
    /// [`crate::SystemOptions::guest_weights`], weight 1 when unset) and it is
    /// served up to the deficit, so a guest flooding the wire delays
    /// every other guest's virq by at most one weighted quantum of
    /// copies instead of its whole backlog. Unit weights degenerate to
    /// the plain per-round quantum bit-exactly. Rounds repeat until
    /// every queue drains; [`System::rx_flush_log`] records
    /// `(round, guest, frames)` for observation.
    pub(super) fn flush_guest_rx_queues(&mut self) -> Result<(), SystemError> {
        self.rx_flush_log.clear();
        // Guests whose stack already paid the full wakeup cost in this
        // flush (later rounds arrive in the same scheduling pass, so they
        // only pay the batched marginal).
        let mut woken: Vec<DomId> = Vec::new();
        // Zero-copy pool occupancy per (guest, flow) across the whole
        // flush: each landed frame takes the next slot of its flow's
        // index ring, and the ring recycles when the flush completes.
        let mut zc_occ = ZcOccupancy::default();
        let mut round = 0usize;
        while self.flush_rx_round_with(round, &mut woken, &mut zc_occ)? > 0 {
            round += 1;
        }
        Ok(())
    }

    /// One standalone DRR flush round — the open-loop consumer's unit
    /// of work between arrivals. Unlike the rounds inside
    /// `System::flush_guest_rx_queues`, each standalone round is its
    /// own scheduling pass: the first frame per guest pays the full
    /// wakeup cost again. Returns the frames delivered this round.
    ///
    /// # Errors
    ///
    /// Propagates faults from virtual-interrupt delivery.
    pub fn flush_rx_round(&mut self) -> Result<usize, SystemError> {
        self.rx_flush_log.clear();
        let mut woken: Vec<DomId> = Vec::new();
        let mut zc_occ = ZcOccupancy::default();
        self.flush_rx_round_with(0, &mut woken, &mut zc_occ)
    }

    fn flush_rx_round_with(
        &mut self,
        round: usize,
        woken: &mut Vec<DomId>,
        zc_occ: &mut ZcOccupancy,
    ) -> Result<usize, SystemError> {
        let quantum = self.opts.rx_flush_quantum as u64;
        let mut flushed = 0usize;
        // Serving a guest changes no other guest's queue and no vCPU, so
        // deciding who is served as the round reaches each domain is
        // deciding it at the start of the round.
        for idx in 0..self.world.xen_mut()?.domains.len() {
            let d = &self.world.xen_mut()?.domains[idx];
            // Sleeping guests' quanta are skipped: their deficit does
            // not grow, no virq is raised, and the frames stay queued
            // until the wakeup edge releases them (bounded by the
            // scheduler's wakeup timer, which idle stepping lands on).
            let running = self.sched.as_ref().map_or(true, |s| s.is_running(d.id.0));
            if d.rx_queue.is_empty() || !running {
                continue;
            }
            let (g, queued) = (d.id, d.rx_queue.len());
            // Deficit round-robin: the deficit grows by the guest's
            // weighted quantum each round it has backlog, the guest is
            // served up to it, and it resets when the queue drains.
            let state = &mut self.guests[g.0 as usize];
            state.deficit = state
                .deficit
                .saturating_add(quantum * u64::from(state.weight));
            let deficit_at_serve = state.deficit;
            let budget = usize::try_from(deficit_at_serve).unwrap_or(usize::MAX);
            let take = queued.min(budget);
            state.deficit = if take == queued {
                0
            } else {
                state.deficit.saturating_sub(take as u64)
            };
            flushed += take;
            self.machine.note(TraceEvent::DrrGrant {
                guest: g.0,
                deficit: deficit_at_serve,
                granted: take as u32,
            });
            self.world.xen_mut()?.send_virq(&mut self.machine, g, 4);
            self.rx_flush_log.push((round, g, take));
            let first_wake = !woken.contains(&g);
            if first_wake {
                woken.push(g);
            }
            // Each frame's charges in queue order, then the granted
            // prefix moves to the delivered log in one piece: nothing in
            // between reads either queue.
            for i in 0..take {
                let f = &self.world.xen_mut()?.domain(g).rx_queue[i];
                let (flow, seq, len) = (f.flow, f.seq, f.len());
                let dev = self.landed_dev(flow, seq);
                // Warm vs cold delivery: with the scheduler model on, a
                // frame serviced by a softirq CPU other than the one the
                // owning guest's vCPU occupies finds none of the guest's
                // receive path resident and pays the sTLB/cache refill
                // slice. Affinity placement makes this charge vanish;
                // oblivious policies pay it on most deliveries.
                let cold = match self.sched.as_ref() {
                    Some(s) => s.cpu_of(g.0).is_some_and(|cpu| s.nic_cpu(dev) != cpu),
                    None => false,
                };
                if cold {
                    self.machine
                        .pay_to(CostDomain::Xen, Term::ColdDeliveryRefill);
                }
                // Zero-copy: the twin driver posted a pool page for
                // this slot, so delivery is a cached grant access
                // instead of a copy into the guest.
                if !self.zc_access(zc_occ, g, flow, false, len, dev)? {
                    self.machine.pay_copy(CostDomain::Xen, u64::from(len));
                    self.world.xen_mut()?.note_grant_copy(Some(dev));
                }
                self.machine.pay_to(CostDomain::Xen, Term::TwinGlueRx);
                self.machine.pay_to(CostDomain::DomU, Term::PvDriverGuest);
                self.machine
                    .pay_to(CostDomain::DomU, rx_stack_term(i == 0 && first_wake));
            }
            let d = self.world.xen_mut()?.domain_mut(g);
            d.rx_delivered.extend(d.rx_queue.drain(..take));
        }
        Ok(flushed)
    }

    /// Whether the zero-copy datapath is active.
    pub fn zero_copy(&self) -> bool {
        self.opts.zero_copy
    }

    /// Grants a guest's zero-copy buffer pool: maps the pool region in
    /// the guest's space and pre-pins its frames through the IOMMU
    /// allowlist (one coalesced range per run of consecutive pfns, so
    /// the per-doorbell ring walk stays a range check). The build does
    /// this for the primary guest; guests added later start ungranted —
    /// their frames take the copy fallback until this runs. Returns the
    /// pages granted (0 when already granted or zero-copy is off).
    ///
    /// # Errors
    ///
    /// Fails if pool memory cannot be mapped.
    pub fn grant_zero_copy_pool(&mut self, gid: DomId) -> Result<usize, SystemError> {
        if !self.opts.zero_copy || self.zc_granted(gid) {
            return Ok(0);
        }
        let gspace = self.world.xen_mut()?.domain(gid).space;
        let pages = ZC_POOL_FRAMES as u64;
        // Re-granting after a revocation reuses the pool pages already
        // mapped in the guest; only a first grant allocates.
        if self
            .machine
            .translate(gspace, ExecMode::Guest, ZC_POOL_BASE, false)
            .is_err()
        {
            self.machine.map_fresh(gspace, ZC_POOL_BASE, pages)?;
        }
        if let Some(iommu) = self.world.iommu.as_mut() {
            // Pin the pool up front, one range per run of consecutive pfns.
            let mut pfns = Vec::with_capacity(ZC_POOL_FRAMES);
            for p in 0..pages {
                let va = ZC_POOL_BASE + p * PAGE_SIZE;
                pfns.push(
                    self.machine
                        .translate(gspace, ExecMode::Guest, va, false)?
                        .entry
                        .pfn,
                );
            }
            for (start, n) in runs(&pfns) {
                iommu.pin_range(start, n);
            }
        }
        self.guests[gid.0 as usize].zc_granted = true;
        Ok(pages as usize)
    }

    /// Whether domain `dom`'s zero-copy pool is granted.
    fn zc_granted(&self, dom: DomId) -> bool {
        self.guests
            .get(dom.0 as usize)
            .is_some_and(|g| g.zc_granted)
    }

    /// Revokes every cached grant a guest owns — the quarantine seam
    /// for fault isolation: when trust in a guest (or the driver slice
    /// serving it) is withdrawn, its live pool mappings are torn down
    /// (one `grant_unmap` each, charged) and subsequent frames fall
    /// back to copies until the pool is granted again. Returns how many
    /// mappings were revoked.
    ///
    /// # Errors
    ///
    /// [`SystemError::Build`] on a system with no hypervisor to unmap
    /// through.
    pub fn revoke_zero_copy_grants(&mut self, gid: DomId) -> Result<usize, SystemError> {
        let Some(cache) = self.grant_cache.as_mut() else {
            return Ok(0);
        };
        let n = cache.revoke_domain(gid.0);
        for _ in 0..n {
            self.world.xen_mut()?.grant_unmap(&mut self.machine);
        }
        self.machine.note(TraceEvent::GrantCacheRevoke {
            dom: gid.0,
            count: n as u32,
        });
        if let Some(g) = self.guests.get_mut(gid.0 as usize) {
            g.zc_granted = false;
        }
        Ok(n)
    }

    /// One zero-copy slot access for a frame toward domain `dom`: the
    /// frame takes the next slot of its `(domain, flow)` pool slice,
    /// tracked in `occ` for the current pass (the index ring recycles
    /// when the pass completes). Charges `grant_cache_hit` on a hit;
    /// `grant_map` + `pin_page` on a first-touch miss (plus a
    /// `grant_unmap` when LRU eviction made room); `copy_fallback`
    /// dispatch when the frame cannot land in a slot — ungranted
    /// domain, oversized frame, or exhausted pool slice. Returns `true`
    /// when the mapping covers the frame (the caller skips its copy),
    /// `false` on fallback (the caller copies and charges as in copy
    /// mode). Always `false`, for free, when zero-copy mode is off.
    pub(super) fn zc_access(
        &mut self,
        occ: &mut ZcOccupancy,
        dom: DomId,
        flow: u32,
        tx: bool,
        len: u32,
        dev: u32,
    ) -> Result<bool, SystemError> {
        if !self.opts.zero_copy {
            return Ok(false);
        }
        let slot = occ.entry((dom.0, flow)).or_insert(0);
        let fits = self.zc_granted(dom) && len <= ZC_SLOT_BYTES && *slot < ZC_POOL_FRAMES;
        let Some(cache) = self.grant_cache.as_mut().filter(|_| fits) else {
            self.machine.pay_to(CostDomain::Xen, Term::CopyFallback);
            return Ok(false);
        };
        let page = (u64::from(tx) << 48) | (u64::from(flow) << 16) | *slot as u64;
        *slot += 1;
        let access = cache.access(dom.0, page);
        match access {
            GrantAccess::Hit => {
                self.machine.pay_to(CostDomain::Xen, Term::GrantCacheHit);
                self.machine
                    .note(TraceEvent::GrantCacheHit { dom: dom.0, page });
            }
            GrantAccess::Miss { evicted } => {
                self.world.xen_mut()?.grant_map_dev(&mut self.machine, dev);
                self.machine.pay_to(CostDomain::Xen, Term::PinPage);
                self.machine
                    .note(TraceEvent::GrantCacheMiss { dom: dom.0, page });
                if let Some((edom, epage)) = evicted {
                    self.world.xen_mut()?.grant_unmap(&mut self.machine);
                    self.machine.note(TraceEvent::GrantCacheEvict {
                        dom: edom,
                        page: epage,
                    });
                }
            }
        }
        Ok(true)
    }
}
