//! The transmit pipeline: stack → (I/O channel | paravirtual glue) →
//! driver → wire, burst-wise, for each of the four configurations.

use super::{peer_mac, Config, DriverOp, System, SystemError, World, ZcOccupancy, MAX_BURST};
use twin_kernel::{Dom0Kernel, RoutineId, SkBuff};
use twin_machine::{CostDomain, ExecMode, Machine, Term};
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
    /// guest on the guest configurations (`guest` is `Some` exactly
    /// there), else dom0 / the native stack.
    pub(super) fn endpoint_mac(&self) -> MacAddr {
        MacAddr::for_guest(self.guest.map_or(0, |gid| gid.0))
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
                let sent = match self.config {
                    Config::NativeLinux => self.tx_dom0_style(&group, false, dev),
                    Config::XenDom0 => self.tx_dom0_style(&group, true, dev),
                    Config::XenGuest => self.tx_baseline_guest(&group, dev),
                    Config::TwinDrivers => self.tx_twin(&group, dev),
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
    /// and queue-discipline drops).
    fn free_skbs(&mut self, skbs: &[SkBuff]) -> Result<(), SystemError> {
        for skb in skbs {
            self.world.kernel.free_skb(&self.machine, *skb)?;
        }
        Ok(())
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
                    self.free_skbs(&skbs[done..])?;
                    return Err(e);
                }
            };
            if accepted == 0 {
                break;
            }
            done += accepted;
        }
        self.free_skbs(&skbs[done..])?;
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

    /// Native Linux / dom0 transmit: stack → driver, burst-wise.
    fn tx_dom0_style(
        &mut self,
        frames: &[Frame],
        on_xen: bool,
        dev: u32,
    ) -> Result<usize, SystemError> {
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
            let skb = match self.world.kernel.pool.alloc(&mut self.machine, self.dom0) {
                Some(skb) => skb,
                None => {
                    self.free_skbs(&skbs)?;
                    return Err(SystemError::Build("dom0 skb pool empty".into()));
                }
            };
            skbs.push(skb);
            if let Err(e) = skb.fill_from_frame(&mut self.machine, self.dom0, frame) {
                self.free_skbs(&skbs)?;
                return Err(e.into());
            }
        }
        self.drive_tx(&skbs, dev)
    }

    /// Baseline Xen guest transmit (paper §2): netfront → I/O channel →
    /// netback → bridge → dom0 driver. netfront produces the whole burst
    /// of requests and notifies **once**; grants, copies and backend
    /// bookkeeping stay per-packet.
    fn tx_baseline_guest(&mut self, frames: &[Frame], dev: u32) -> Result<usize, SystemError> {
        let gid = self.guest.expect("guest");
        for i in 0..frames.len() {
            // Guest stack + netfront request production.
            self.machine.pay_to(CostDomain::DomU, tx_stack_term(i));
            self.machine
                .pay_to(CostDomain::DomU, Term::NetfrontPerPacket);
        }
        let xen = self.world.xen.as_mut().expect("xen");
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
            if self.zc_access(&mut zc_occ, gid, frame.flow, true, frame.len(), dev) {
                zc_landed += 1;
            } else {
                let xen = self.world.xen.as_mut().unwrap();
                xen.grant_map_dev(&mut self.machine, dev);
            }
            for t in [
                Term::NetfrontPerPacket,
                Term::BridgePerPacket,
                Term::BackendTxExtra,
            ] {
                self.machine.pay_to(CostDomain::Dom0, t);
            }
            let skb = match self.world.kernel.pool.alloc(&mut self.machine, self.dom0) {
                Some(skb) => skb,
                None => {
                    self.free_skbs(&skbs)?;
                    return Err(SystemError::Build("dom0 skb pool empty".into()));
                }
            };
            skbs.push(skb);
            if let Err(e) = skb.fill_from_frame(&mut self.machine, self.dom0, frame) {
                self.free_skbs(&skbs)?;
                return Err(e.into());
            }
        }
        let sent = self.drive_tx(&skbs, dev)?;
        // Unmap the per-packet (non-pool) mappings, produce the
        // responses, one notification, switch back. Pool pages stay
        // mapped — that is the point of zero-copy mode.
        let xen = self.world.xen.as_mut().unwrap();
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
                let done = hs
                    .engine
                    .take_completion(id)
                    .expect("flush posts every allocation completion");
                ptrs.push(done.ret);
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
    fn tx_twin(&mut self, frames: &[Frame], dev: u32) -> Result<usize, SystemError> {
        let gid = self.guest.expect("guest");
        let mut zc_occ = ZcOccupancy::default();
        for i in 0..frames.len() {
            // Guest stack + paravirtual driver.
            self.machine.pay_to(CostDomain::DomU, tx_stack_term(i));
            self.machine.pay_to(CostDomain::DomU, Term::PvDriverGuest);
        }
        let xen = self.world.xen.as_mut().expect("xen");
        xen.hypercall(&mut self.machine);
        let netdev = self.netdevs[dev as usize] as u32;
        let batched = self.alloc_burst_deferred(frames.len(), netdev)?;
        let mut skbs = Vec::with_capacity(frames.len());
        for (fi, frame) in frames.iter().enumerate() {
            let header_copy = self.opts.header_copy_bytes.min(frame.len());
            // Acquire a pre-allocated dom0 sk_buff: from the batched
            // continuation's completions, or through the (possibly
            // upcalled) support routine.
            let raw = match &batched {
                Some(ptrs) => Ok(ptrs[fi]),
                None => {
                    self.machine.pay_to(CostDomain::Xen, Term::TwinGlueTx);
                    self.call_support(RoutineId::NETDEV_ALLOC_SKB, &[netdev, 2048])
                }
            };
            let skb = match raw {
                Ok(v) if v != 0 => SkBuff(v as u64),
                Ok(_) => {
                    self.free_skbs(&skbs)?;
                    self.free_batched_tail(&batched, fi + 1)?;
                    return Err(SystemError::Build("hypervisor skb pool empty".into()));
                }
                Err(e) => {
                    self.free_skbs(&skbs)?;
                    self.free_batched_tail(&batched, fi + 1)?;
                    return Err(e);
                }
            };
            skbs.push(skb);
            // Copy the packet header into the sk_buff and chain the rest
            // of the guest packet as a page fragment. With a warm
            // zero-copy pool the header lives in an already-mapped pool
            // page, so even the header copy collapses to the cached
            // grant access; fallback frames bounce through the copy.
            if !self.zc_access(&mut zc_occ, gid, frame.flow, true, frame.len(), dev) {
                self.machine
                    .pay_copy(CostDomain::Xen, u64::from(header_copy));
                if let Some(xen) = self.world.xen.as_mut() {
                    xen.note_grant_copy(Some(dev));
                }
            }
            let filled = skb
                .fill_from_frame(&mut self.machine, self.dom0, frame)
                .and_then(|()| skb.set_len(&mut self.machine, self.dom0, header_copy))
                .and_then(|()| {
                    skb.set_frag(
                        &mut self.machine,
                        self.dom0,
                        self.guest_tx_frag,
                        frame.len() - header_copy,
                    )
                });
            if let Err(e) = filled {
                self.free_skbs(&skbs)?;
                self.free_batched_tail(&batched, fi + 1)?;
                return Err(e.into());
            }
        }
        self.drive_tx(&skbs, dev)
    }

    /// Error-path cleanup for the batched allocation continuation: frees
    /// the buffers already allocated up front but not yet wrapped into
    /// `skbs` when a mid-burst failure aborts the glue loop, so the
    /// failure cannot drain the pool.
    fn free_batched_tail(
        &mut self,
        batched: &Option<Vec<u32>>,
        next: usize,
    ) -> Result<(), SystemError> {
        if let Some(ptrs) = batched {
            let tail: Vec<SkBuff> = ptrs[next.min(ptrs.len())..]
                .iter()
                .filter(|p| **p != 0)
                .map(|p| SkBuff(*p as u64))
                .collect();
            self.free_skbs(&tail)?;
        }
        Ok(())
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
