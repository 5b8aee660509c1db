//! The transmit pipeline: stack → (I/O channel | paravirtual glue) →
//! driver → wire, burst-wise, for each of the four configurations.

use super::{
    peer_mac, Datapath, DriverOp, Endpoint, System, SystemError, World, ZcOccupancy, MAX_BURST,
};
use twin_kernel::{Dom0Kernel, RoutineId, SkBuff};
use twin_machine::{CostDomain, ExecMode, Fault, Machine, Term};
use twin_net::{EtherType, Frame, MacAddr, MTU};
use twin_xen::{DomId, HyperSupport, Xen};

/// Stack cost of the `i`-th packet of a transmit burst: the first pays
/// the full per-wakeup price, the rest the batched marginal.
fn tx_stack_term(i: usize) -> Term {
    if i == 0 {
        Term::TcpTxPerPacket
    } else {
        Term::TcpTxBatchMarginal
    }
}

impl System {
    /// Flows the internal traffic generators cycle over: the paper's
    /// netperf runs several concurrent streams to fill five NICs, so
    /// generated traffic models a small set of flows — enough for
    /// [`crate::ShardPolicy::FlowHash`] to spread across every device (flow is
    /// bookkeeping only; costs and single-NIC behaviour are unchanged).
    pub(super) const GEN_FLOWS: u64 = 8;

    /// MAC of the measured endpoint — the source of generated transmit
    /// traffic and the destination of generated receive traffic: the
    /// guest on the guest configurations, else dom0 / the native stack.
    pub(super) fn endpoint_mac(&self) -> MacAddr {
        MacAddr::for_guest(self.guest().map_or(0, |gid| gid.0))
    }

    fn next_tx_frame(&mut self) -> Frame {
        let f = Frame {
            dst: peer_mac(),
            src: self.endpoint_mac(),
            ethertype: EtherType::Ipv4,
            payload_len: MTU,
            flow: 1 + (self.seq % Self::GEN_FLOWS) as u32,
            seq: self.seq,
        };
        self.seq += 1;
        f
    }

    /// Transmits one MTU-sized packet along the configuration's full
    /// path — a burst of one through [`System::transmit_burst`].
    ///
    /// # Errors
    ///
    /// Propagates faults; [`SystemError::DriverAborted`] if the
    /// hypervisor driver is dead.
    pub fn transmit_one(&mut self) -> Result<(), SystemError> {
        self.transmit_burst(1).map(|_| ())
    }

    /// Transmits a burst of `n` MTU-sized packets along the
    /// configuration's full path: one notification/hypercall, one driver
    /// invocation, one `TDT` doorbell per pipeline pass of up to
    /// [`MAX_BURST`] packets (larger bursts split into several passes).
    /// Stack costs amortise across the burst (TSO/GSO-style);
    /// per-packet work (copies, grants, descriptors) does not.
    ///
    /// Returns how many packets reached the driver's ring (less than `n`
    /// only under ring pressure; the rest are dropped and their buffers
    /// freed, like a queue-discipline drop).
    ///
    /// # Errors
    ///
    /// See [`System::transmit_one`].
    pub fn transmit_burst(&mut self, n: usize) -> Result<usize, SystemError> {
        // Catch up anything already due (deadline flush, opened
        // moderation windows) — a zero-cost no-op when neither is armed.
        self.service_virtual_timers(false)?;
        let mut total = 0;
        'bursts: while total < n {
            let chunk = (n - total).min(MAX_BURST);
            let frames: Vec<Frame> = (0..chunk).map(|_| self.next_tx_frame()).collect();
            // Shard the chunk across NICs; one NIC receives the whole
            // chunk under Static/RoundRobin, FlowHash may split it.
            for (dev, group) in self.shard_frames(frames) {
                let want = group.len();
                let sent = match &self.datapath {
                    Datapath::Native | Datapath::Dom0 => self.tx_dom0_style(&group, dev),
                    Datapath::Guest(ep) => self.tx_baseline_guest(ep.gid, &group, dev),
                    Datapath::Twin { endpoint, .. } => self.tx_twin(*endpoint, &group, dev),
                }?;
                total += sent;
                if sent < want {
                    break 'bursts; // ring pressure: the shortfall was dropped
                }
            }
            // End of one transmit pass: a natural dom0 scheduling point.
            self.flush_deferred_upcalls()?;
        }
        // The ring-pressure break skips the in-loop flush.
        self.flush_deferred_upcalls()?;
        Ok(total)
    }

    /// Frees a set of sk_buffs back to their pools (error-path cleanup
    /// and queue-discipline drops). A buffer its pool refuses is back
    /// already: a fault's teardown frees what the aborted invocation put
    /// in the ring, and a hostile driver may free any skb it was handed.
    fn free_skbs(&mut self, skbs: &[SkBuff]) {
        for skb in skbs {
            let _refused = self.world.kernel.free_skb(&self.machine, *skb);
        }
    }

    /// Hands a prepared burst of sk_buffs to the driver. Each driver
    /// invocation is one lock acquisition and one doorbell; when the
    /// ring cannot hold the whole burst (fragmented packets take two
    /// descriptors each) the kick drains it synchronously and the
    /// remainder goes in a follow-up invocation, so large bursts cost a
    /// few doorbells instead of failing. Returns how many packets the
    /// ring accepted; unaccepted skbs are freed here.
    fn drive_tx(&mut self, skbs: &[SkBuff], dev: u32) -> Result<usize, SystemError> {
        let mut done = 0;
        while done < skbs.len() {
            let accepted = match self.drive_tx_once(&skbs[done..], dev) {
                Ok(a) => a,
                Err(e) => {
                    // Return the in-flight remainder to the pools before
                    // surfacing the fault, or the pool drains for good.
                    self.free_skbs(&skbs[done..]);
                    return Err(e);
                }
            };
            if accepted == 0 {
                break;
            }
            done += accepted;
        }
        self.free_skbs(&skbs[done..]);
        Ok(done)
    }

    /// One driver invocation: `e1000_xmit_frame` for a burst of one (the
    /// exact per-packet path), `e1000_xmit_batch` otherwise.
    fn drive_tx_once(&mut self, skbs: &[SkBuff], dev: u32) -> Result<usize, SystemError> {
        if let [skb] = skbs {
            let r = self.call_driver(DriverOp::XmitFrame(*skb), dev)?;
            return Ok(usize::from(r == 0));
        }
        for (i, skb) in skbs.iter().enumerate() {
            self.machine.write_u32(
                self.dom0,
                ExecMode::Guest,
                self.tx_batch_buf + i as u64 * 4,
                skb.0 as u32,
            )?;
        }
        let sent = self.call_driver(DriverOp::XmitBatch(skbs.len() as u32), dev)?;
        Ok(sent as usize)
    }

    /// Allocates a dom0 sk_buff holding `frame` onto `skbs`. On failure
    /// every buffer of `skbs` goes back to its pool before the error
    /// surfaces, or the pool drains for good.
    fn push_dom0_skb(&mut self, frame: &Frame, skbs: &mut Vec<SkBuff>) -> Result<(), SystemError> {
        let filled = match self.world.kernel.pool.alloc(&mut self.machine, self.dom0) {
            Some(skb) => {
                skbs.push(skb);
                skb.fill_from_frame(&mut self.machine, self.dom0, frame)
                    .map_err(SystemError::from)
            }
            None => Err(SystemError::Build("dom0 skb pool empty".into())),
        };
        if filled.is_err() {
            self.free_skbs(skbs);
        }
        filled
    }

    /// Native Linux / dom0 transmit: stack → driver, burst-wise.
    fn tx_dom0_style(&mut self, frames: &[Frame], dev: u32) -> Result<usize, SystemError> {
        let on_xen = matches!(self.datapath, Datapath::Dom0);
        let mut skbs = Vec::with_capacity(frames.len());
        for (i, frame) in frames.iter().enumerate() {
            // Socket + TCP/IP transmit processing.
            self.machine.pay_to(CostDomain::Dom0, tx_stack_term(i));
            self.machine.pay_to(CostDomain::Dom0, Term::SkbAlloc);
            if on_xen {
                // Paravirtualisation tax (pte maintenance, event checks).
                self.machine
                    .pay_to(CostDomain::Xen, Term::ParavirtTaxPerPacket);
            }
            self.push_dom0_skb(frame, &mut skbs)?;
        }
        self.drive_tx(&skbs, dev)
    }

    /// Baseline Xen guest transmit (paper §2): netfront → I/O channel →
    /// netback → bridge → dom0 driver. netfront produces the whole burst
    /// of requests and notifies **once**; grants, copies and backend
    /// bookkeeping stay per-packet.
    fn tx_baseline_guest(
        &mut self,
        gid: DomId,
        frames: &[Frame],
        dev: u32,
    ) -> Result<usize, SystemError> {
        for i in 0..frames.len() {
            // Guest stack + netfront request production.
            self.machine.pay_to(CostDomain::DomU, tx_stack_term(i));
            self.machine
                .pay_to(CostDomain::DomU, Term::NetfrontPerPacket);
        }
        let xen = self.world.xen_mut()?;
        // One notify + one switch into the driver domain per burst.
        xen.hypercall(&mut self.machine);
        xen.send_virq(&mut self.machine, DomId::DOM0, 1);
        xen.switch_to(&mut self.machine, DomId::DOM0);
        // netback: map each granted guest page, build skbs, bridge them.
        // In zero-copy mode the guest's TX pool is already mapped: a
        // cache hit replaces the per-packet map (and the unmap below);
        // fallback frames keep the baseline map/unmap pair.
        let mut zc_occ = ZcOccupancy::default();
        let mut zc_landed = 0usize;
        let mut skbs = Vec::with_capacity(frames.len());
        for frame in frames {
            if self.zc_access(&mut zc_occ, gid, frame.flow, true, frame.len(), dev)? {
                zc_landed += 1;
            } else {
                let xen = self.world.xen_mut()?;
                xen.grant_map_dev(&mut self.machine, dev);
            }
            for t in [
                Term::NetfrontPerPacket,
                Term::BridgePerPacket,
                Term::BackendTxExtra,
            ] {
                self.machine.pay_to(CostDomain::Dom0, t);
            }
            self.push_dom0_skb(frame, &mut skbs)?;
        }
        let sent = self.drive_tx(&skbs, dev)?;
        // Unmap the per-packet (non-pool) mappings, produce the
        // responses, one notification, switch back. Pool pages stay
        // mapped — that is the point of zero-copy mode.
        let xen = self.world.xen_mut()?;
        for _ in 0..frames.len() - zc_landed {
            xen.grant_unmap_dev(&mut self.machine, dev);
        }
        xen.send_virq(&mut self.machine, gid, 2);
        xen.switch_to(&mut self.machine, gid);
        Ok(sent)
    }

    /// In deferred mode with the allocator forced onto the upcall path,
    /// the paravirtual TX glue batches its allocation requests: it queues
    /// one `netdev_alloc_skb` per frame and suspends the burst **once**,
    /// so one switch-pair returns every buffer (the continuation ids
    /// match completions to frames). Returns `None` when the per-call
    /// path should run instead (sync mode, or the allocator is native).
    fn alloc_burst_deferred(
        &mut self,
        n: usize,
        netdev: u32,
    ) -> Result<Option<Vec<u32>>, SystemError> {
        let World {
            kernel, xen, hyper, ..
        } = &mut self.world;
        let (Some(hs), Some(xen)) = (hyper.as_mut(), xen.as_mut()) else {
            return Ok(None);
        };
        if !hs.engine.deferred() || !hs.is_forced(RoutineId::NETDEV_ALLOC_SKB) {
            return Ok(None);
        }
        // One suspension per ring's worth of requests: completions are
        // consumed right after the flush that posts them (they do not
        // survive a later flush), so the glue suspends whenever the ring
        // fills and once more at the end. With the default capacity a
        // whole burst is a single suspension.
        fn resume(
            hs: &mut HyperSupport,
            kernel: &mut Dom0Kernel,
            xen: &mut Xen,
            machine: &mut Machine,
            pending: &mut Vec<u64>,
            ptrs: &mut Vec<u32>,
        ) -> Result<(), SystemError> {
            hs.resume_continuation(machine, kernel, xen)?;
            for id in pending.drain(..) {
                let lost =
                    || Fault::EnvFault(format!("allocation upcall {id} posted no completion"));
                ptrs.push(hs.engine.take_completion(id).ok_or_else(lost)?.ret);
            }
            Ok(())
        }
        let mut ptrs = Vec::with_capacity(n);
        let mut pending: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            if hs.engine.is_full() {
                resume(hs, kernel, xen, &mut self.machine, &mut pending, &mut ptrs)?;
            }
            let m = &mut self.machine;
            m.pay_to(CostDomain::Xen, Term::TwinGlueTx);
            pending.push(hs.enqueue_upcall(
                RoutineId::NETDEV_ALLOC_SKB,
                vec![netdev, 2048],
                m,
                kernel,
                xen,
            )?);
        }
        resume(hs, kernel, xen, &mut self.machine, &mut pending, &mut ptrs)?;
        Ok(Some(ptrs))
    }

    /// TwinDrivers transmit (paper §5.3): paravirtual driver hypercall →
    /// hypervisor glue (dom0 skb + guest-page fragment per packet) →
    /// hypervisor driver instance, all without leaving the guest
    /// context. A burst pays **one** hypercall and one driver
    /// invocation/doorbell.
    fn tx_twin(
        &mut self,
        guest: Endpoint,
        frames: &[Frame],
        dev: u32,
    ) -> Result<usize, SystemError> {
        let mut zc_occ = ZcOccupancy::default();
        for i in 0..frames.len() {
            // Guest stack + paravirtual driver.
            self.machine.pay_to(CostDomain::DomU, tx_stack_term(i));
            self.machine.pay_to(CostDomain::DomU, Term::PvDriverGuest);
        }
        self.world.xen_mut()?.hypercall(&mut self.machine);
        let netdev = self.netdevs[dev as usize] as u32;
        let batched = self.alloc_burst_deferred(frames.len(), netdev)?;
        let mut skbs = Vec::with_capacity(frames.len());
        for (fi, frame) in frames.iter().enumerate() {
            let ptr = batched.as_ref().map(|ptrs| ptrs[fi]);
            if let Err(e) = self.glue_tx_frame(guest, ptr, frame, &mut zc_occ, dev, &mut skbs) {
                // Back to the pools before the error surfaces: the
                // wrapped skbs, then what the continuation allocated up
                // front for the frames after this one.
                let tail = batched.iter().flat_map(|ptrs| &ptrs[fi + 1..]);
                skbs.extend(tail.filter(|p| **p != 0).map(|p| SkBuff(u64::from(*p))));
                self.free_skbs(&skbs);
                return Err(e);
            }
        }
        self.drive_tx(&skbs, dev)
    }

    /// The hypervisor glue for one frame of a TwinDrivers burst: a dom0
    /// sk_buff pushed onto `skbs` — `batched` when the continuation
    /// already allocated it, else one from the (possibly upcalled)
    /// support routine — holding the packet header, with the rest of the
    /// guest packet chained as a page fragment.
    fn glue_tx_frame(
        &mut self,
        guest: Endpoint,
        batched: Option<u32>,
        frame: &Frame,
        zc_occ: &mut ZcOccupancy,
        dev: u32,
        skbs: &mut Vec<SkBuff>,
    ) -> Result<(), SystemError> {
        let header_copy = self.opts.header_copy_bytes.min(frame.len());
        let raw = match batched {
            Some(ptr) => ptr,
            None => {
                self.machine.pay_to(CostDomain::Xen, Term::TwinGlueTx);
                let args = [self.netdevs[dev as usize] as u32, 2048];
                self.call_support(guest.gspace, RoutineId::NETDEV_ALLOC_SKB, &args)?
            }
        };
        if raw == 0 {
            return Err(SystemError::Build("hypervisor skb pool empty".into()));
        }
        let skb = SkBuff(u64::from(raw));
        skbs.push(skb);
        // With a warm zero-copy pool the header lives in an
        // already-mapped pool page, so even the header copy collapses to
        // the cached grant access; fallback frames bounce through the
        // copy.
        if !self.zc_access(zc_occ, guest.gid, frame.flow, true, frame.len(), dev)? {
            self.machine
                .pay_copy(CostDomain::Xen, u64::from(header_copy));
            self.world.xen_mut()?.note_grant_copy(Some(dev));
        }
        skb.fill_from_frame(&mut self.machine, self.dom0, frame)?;
        skb.set_len(&mut self.machine, self.dom0, header_copy)?;
        let frag_len = frame.len() - header_copy;
        Ok(skb.set_frag(&mut self.machine, self.dom0, guest.tx_frag, frag_len)?)
    }

    /// Drains frames that reached the wire, across every NIC in device
    /// order.
    pub fn take_wire_frames(&mut self) -> Vec<Frame> {
        let mut out = Vec::new();
        for nic in &mut self.world.nics {
            out.extend(nic.take_tx_frames());
        }
        out
    }
}
