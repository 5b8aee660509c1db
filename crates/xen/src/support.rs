//! Hypervisor-side support routines (paper §4.3) and the upcall
//! mechanism (paper §4.2).
//!
//! The hypervisor implements only the ten fast-path routines of Table 1
//! (the [`twin_kernel::Usage::FastPath`] rows of
//! [`twin_kernel::ROUTINES`]): two differ from dom0's — allocation from
//! the reserved pool, `netif_rx`'s MAC demux — and are written here; the
//! other eight are dom0's bodies ([`Dom0Kernel::routine`]) charged to
//! the hypervisor. Everything else the driver calls is forwarded to dom0
//! through a synchronous upcall: save parameters, switch to the upcall
//! stack, (domain-switch to dom0 if running in a guest context), deliver
//! a synchronous virtual interrupt, run the dom0 routine, return via a
//! hypercall, switch back. For Figure 10, any subset of the fast-path
//! routines can be *forced* onto the upcall path.
//!
//! In **deferred mode** ([`crate::upcall::UpcallMode::Deferred`]) the
//! upcall stub consults the row's [`twin_kernel::DeferClass`] instead of
//! switching immediately: `Deferred`- and `Provisional`-class calls are
//! saved into the request ring at [`crate::hyperdrv::UPCALL_RING_BASE`]
//! and continue (with 0, or a locally computed provisional result);
//! `Continuation`-class calls enqueue themselves, suspend the burst, and
//! [`HyperSupport::flush_upcalls`] drains the whole ring in one
//! switch-pair, posting every return value back through the completion
//! event channel.

use crate::domain::DomId;
use crate::hyperdrv::{
    UPCALL_RING_BASE, UPCALL_RING_SLOTS, UPCALL_RING_SLOT_BYTES, UPCALL_STACK_BASE,
    UPCALL_STACK_PAGES,
};
use crate::upcall::{UpcallEngine, UpcallMode, UPCALL_COMPLETION_PORT};
use crate::xen::{Softirq, Xen};
use twin_kernel::{DeferClass, Dom0Kernel, FastPath, RoutineId, SkBuff, Usage, ROUTINES};
use twin_machine::{CostDomain, Cpu, Event, ExecMode, Fault, Machine, Term, PAGE_SIZE};
use twin_rewriter::SvmHelper;
use twin_svm::Svm;
use twin_trace::{Fate, FlushCause, TraceEvent};

/// Runs one of the three SVM helpers the rewriter emits calls to against
/// `svm`, the calling driver instance's table (paper §5.1.2: the VM
/// instance resolves them to the identity table, the hypervisor instance
/// to the hypervisor's). The caller resolved the extern's name to
/// `helper` once, when it was first called. The stack window (§4.5.1) is
/// enforced only with `stack_checked` — the hypervisor instance; the VM
/// instance's check is a no-op.
pub fn svm_helper(
    helper: SvmHelper,
    m: &mut Machine,
    cpu: &mut Cpu,
    svm: &mut Svm,
    stack_checked: bool,
) -> Result<(), Fault> {
    let arg = |cpu: &Cpu, m: &Machine| cpu.arg(m, 0).map(u64::from);
    match helper {
        SvmHelper::SlowPath => arg(cpu, m).and_then(|addr| svm.slow_path(m, addr).map(drop)),
        SvmHelper::CallXlat => arg(cpu, m)
            .and_then(|target| svm.translate_call(m, target))
            .map(|x| cpu.set_reg(twin_isa::Reg::Eax, x as u32)),
        SvmHelper::StackCheck if stack_checked => arg(cpu, m).and_then(|addr| {
            let esp = cpu.reg(twin_isa::Reg::Esp) as u64;
            // Accept accesses within one stack extent of esp.
            let (lo, hi) = (esp.saturating_sub(4096 * 2), esp + 4096 * 2);
            match (lo..hi).contains(&addr) {
                true => Ok(()),
                false => Err(Fault::EnvFault(format!(
                    "stack check: access at {addr:#x} outside stack window"
                ))),
            }
        }),
        SvmHelper::StackCheck => Ok(()),
    }
}

/// Event-channel port used for upcall requests.
pub const UPCALL_PORT: u32 = 31;

/// Hypervisor support state: which routines are forced to upcall and
/// the deferred-upcall engine. What it does is counted on the meter:
/// upcalls executed in dom0 are the payments of `UpcallOverhead`
/// (synchronous) plus `UpcallComplete` (at a flush), and each frame
/// `NETIF_RX` drops is one `FrameDrop` note.
#[derive(Clone, Debug, Default)]
pub struct HyperSupport {
    /// Table 1 rows forced onto the upcall path (Figure 10 sweep): bit
    /// `i` is [`twin_kernel::ROUTINES`]`[i]`.
    forced: u16,
    /// The deferred-upcall engine (ring, completions, continuation ids).
    pub engine: UpcallEngine,
}

impl HyperSupport {
    /// Creates support state with every Table 1 routine implemented in
    /// the hypervisor (the paper's best configuration: "no upcalls were
    /// made").
    pub fn new() -> HyperSupport {
        HyperSupport::default()
    }

    /// Forces the first `n` fast-path routines (in Table 1 order,
    /// excluding `netif_rx`, which the paper always keeps native) onto
    /// the upcall path — the Figure 10 X axis.
    pub fn set_upcall_count(&mut self, n: usize) {
        let table1 = ROUTINES.iter().enumerate();
        let forcible =
            table1.filter(|(_, r)| matches!(r.usage, Usage::FastPath(_)) && r.name != "netif_rx");
        self.forced = forcible.take(n).fold(0, |bits, (i, _)| bits | 1 << i);
    }

    /// Forces one Table 1 routine onto the upcall path (no effect on a
    /// long-tail routine: those always upcall).
    pub fn force_upcall(&mut self, id: RoutineId) {
        if id.fast_path().is_some() {
            self.forced |= 1 << id.index();
        }
    }

    /// True when `id` is a Table 1 routine forced onto the upcall path.
    pub fn is_forced(&self, id: RoutineId) -> bool {
        id.fast_path().is_some() && self.forced & (1 << id.index()) != 0
    }

    /// Handles a support-routine call made by the *hypervisor* driver
    /// instance, after the SVM helpers ([`svm_helper`]) — the paper's
    /// loader resolution order (§5.2): hypervisor implementations, then
    /// upcall stubs for everything else dom0 implements.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_extern(
        &mut self,
        id: RoutineId,
        m: &mut Machine,
        cpu: &mut Cpu,
        kernel: &mut Dom0Kernel,
        xen: &mut Xen,
        svm: &mut Svm,
    ) -> Result<(), Fault> {
        match (id.fast_path(), self.engine.mode) {
            (Some(fp), _) if !self.is_forced(id) => {
                // Deferred entries must be visible before a native
                // routine that reads the state they mutate (pool free
                // lists, the shared lock word) — flush first on a
                // conflict.
                if self.engine.deferred() && self.engine.has_queued_any(fp.flush_first) {
                    self.flush_upcalls(m, kernel, xen, FlushCause::Conflict)?;
                }
                kernel.record_call(id, m);
                m.meter.push_domain(CostDomain::Xen);
                let r = self.native_impl(id, fp, m, cpu, kernel, xen, svm);
                m.meter.pop_domain();
                r
            }
            // Upcall stub: any other routine dom0 implements (including
            // forced fast-path routines) is forwarded — synchronously, or
            // via the deferred ring per the routine's policy class.
            (_, UpcallMode::Sync) => self.upcall(id, m, cpu, kernel, xen),
            (_, UpcallMode::Deferred) => self.upcall_deferred(id, m, cpu, kernel, xen),
        }
    }

    /// The upcall path (paper §4.2).
    fn upcall(
        &mut self,
        id: RoutineId,
        m: &mut Machine,
        cpu: &mut Cpu,
        kernel: &mut Dom0Kernel,
        xen: &mut Xen,
    ) -> Result<(), Fault> {
        // Latency accounting keys on the virtual clock, not on a domain's
        // total: the upcall charges several domains.
        let cycles_before = m.meter.now();
        // Stub: save parameters, switch to the upcall stack.
        m.pay_to(CostDomain::Xen, Term::UpcallOverhead);
        let back = xen.current;
        // Synchronous switch to dom0 if invoked from a guest context.
        xen.switch_to(m, DomId::DOM0);
        // Synchronous virtual interrupt to the dom0 upcall handler.
        xen.send_virq(m, DomId::DOM0, UPCALL_PORT);
        xen.domain_mut(DomId::DOM0).pending_virqs.pop();
        // The dom0 handler recovers parameters and invokes the support
        // routine; heap and registers are identical by construction, and
        // the stack parameters are read through the same cpu state.
        kernel.handle_extern(id, m, cpu)?;
        // Return to the stub via hypercall, then back to the guest.
        xen.hypercall(m);
        xen.switch_to(m, back);
        self.engine
            .record_sync_latency(m.meter.now() - cycles_before);
        Ok(())
    }

    /// The deferred upcall stub: policy-directed queueing instead of an
    /// immediate switch-pair.
    fn upcall_deferred(
        &mut self,
        id: RoutineId,
        m: &mut Machine,
        cpu: &mut Cpu,
        kernel: &mut Dom0Kernel,
        xen: &mut Xen,
    ) -> Result<(), Fault> {
        let Some(fp) = id.fast_path() else {
            // The long tail stays a synchronous upcall, which is itself
            // a dom0 transition: drain the ring first so queued entries
            // (frees, unlocks) execute before it in program order — dom0
            // must not observe the sync call ahead of older work.
            self.flush_upcalls(m, kernel, xen, FlushCause::SyncOrder)?;
            return self.upcall(id, m, cpu, kernel, xen);
        };
        // The "save parameters" half of the stub.
        let args = (0..fp.arity as u32)
            .map(|i| cpu.arg(m, i))
            .collect::<Result<Vec<u32>, Fault>>()?;
        match fp.defer {
            DeferClass::Deferred => {
                self.enqueue_upcall(id, args, m, kernel, xen)?;
                cpu.set_reg(twin_isa::Reg::Eax, 0);
            }
            DeferClass::Provisional => {
                // The hypervisor computes the result without switching
                // (the body leaves it in `%eax`); dom0's flush execution
                // recomputes it and the completion carries the
                // identical value.
                m.meter.push_domain(CostDomain::Xen);
                let r = kernel.routine(id, m, cpu);
                m.meter.pop_domain();
                r?;
                self.enqueue_upcall(id, args, m, kernel, xen)?;
            }
            DeferClass::Continuation => {
                let cont_id = self.enqueue_upcall(id, args, m, kernel, xen)?;
                // Suspend the burst: drain the ring FIFO (this call
                // last) in one switch-pair, then resume with the dom0
                // return value its completion carries.
                self.resume_continuation(m, kernel, xen)?;
                let lost =
                    || Fault::EnvFault(format!("continuation {cont_id} posted no completion"));
                let done = self.engine.take_completion(cont_id).ok_or_else(lost)?;
                cpu.set_reg(twin_isa::Reg::Eax, done.ret);
            }
        }
        Ok(())
    }

    /// Saves one upcall into the request ring: flushes first if the ring
    /// is full, charges the enqueue cost, writes the slot in hypervisor
    /// memory and schedules a flush kick past the high-water mark.
    /// Returns the continuation id.
    pub fn enqueue_upcall(
        &mut self,
        id: RoutineId,
        args: Vec<u32>,
        m: &mut Machine,
        kernel: &mut Dom0Kernel,
        xen: &mut Xen,
    ) -> Result<u64, Fault> {
        if self.engine.is_full() {
            m.meter.count_event(Event::UpcallForcedFlush);
            self.flush_upcalls(m, kernel, xen, FlushCause::RingFull)?;
        }
        m.pay_to(CostDomain::Xen, Term::UpcallEnqueue);
        let arg = |i: usize| args.get(i).copied().unwrap_or(0);
        // The slot (layout: `UPCALL_RING_SLOT_BYTES`); the routine word
        // is the `RoutineId`, a `ROUTINES` row by construction.
        let mut words = [
            id.index() as u32,
            args.len() as u32,
            arg(0),
            arg(1),
            arg(2),
            arg(3),
            0,
            0,
        ];
        let cycles = m.meter.now();
        let cont_id = self.engine.enqueue_id(id, args, cycles);
        (words[6], words[7]) = (cont_id as u32, (cont_id >> 32) as u32);
        m.note(TraceEvent::UpcallEnqueue {
            routine: id.name(),
            cont_id,
        });
        let entry = cont_id - 1;
        let slot = UPCALL_RING_BASE + (entry % UPCALL_RING_SLOTS) * UPCALL_RING_SLOT_BYTES;
        for (i, w) in words.iter().enumerate() {
            m.write_u32(kernel.space, ExecMode::Hypervisor, slot + 4 * i as u64, *w)?;
        }
        if self.engine.past_high_water() {
            xen.raise_softirq(Softirq::UpcallFlush);
        }
        Ok(cont_id)
    }

    /// Suspends a burst on a continuation: counts the suspension and
    /// drains the ring FIFO, so the suspending calls' completions carry
    /// dom0's return values when the burst resumes.
    pub fn resume_continuation(
        &mut self,
        m: &mut Machine,
        kernel: &mut Dom0Kernel,
        xen: &mut Xen,
    ) -> Result<usize, Fault> {
        m.meter.count_event(Event::UpcallContinuation);
        self.flush_upcalls(m, kernel, xen, FlushCause::Continuation)
    }

    /// Drains the deferred-upcall ring in **one** switch-pair: switch to
    /// dom0, deliver the upcall event, rebuild each saved call frame on
    /// the upcall stack and run the routine, record its completion,
    /// return via hypercall and post a single batched completion event to
    /// the interrupted domain. No-op on an empty ring. Returns how many
    /// upcalls executed.
    ///
    /// # Errors
    ///
    /// Returns the first routine fault; the switch back to the
    /// interrupted context still happens, and the entries behind the
    /// faulting one stay queued, in order (the driver will be aborted by
    /// its caller, whose teardown replays what dom0 is owed).
    pub fn flush_upcalls(
        &mut self,
        m: &mut Machine,
        kernel: &mut Dom0Kernel,
        xen: &mut Xen,
        cause: FlushCause,
    ) -> Result<usize, Fault> {
        let n = self.engine.depth();
        if n == 0 {
            return Ok(0);
        }
        // Records from earlier flushes were consumed by their waiters
        // already (or never had one) — keep the store bounded.
        self.engine.prune_stale_completions();
        m.pay_to(CostDomain::Xen, Term::UpcallFlushOverhead);
        let back = xen.current;
        xen.switch_to(m, DomId::DOM0);
        xen.send_virq(m, DomId::DOM0, UPCALL_PORT);
        xen.domain_mut(DomId::DOM0).pending_virqs.pop();
        m.note(TraceEvent::UpcallFlush {
            cause,
            drained: n as u32,
        });
        let stack_top = UPCALL_STACK_BASE + UPCALL_STACK_PAGES * PAGE_SIZE;
        let mut result = Ok(n);
        while let Some(entry) = self.engine.pop_front() {
            m.pay_to(CostDomain::Dom0, Term::UpcallDispatch);
            // Rebuild the saved call frame on the upcall stack and run
            // the routine in dom0.
            let mut cpu = Cpu::new(kernel.space, ExecMode::Hypervisor);
            cpu.set_stack(stack_top);
            let r = cpu
                .push_call_frame(m, &entry.args)
                .and_then(|()| kernel.handle_extern(entry.routine, m, &mut cpu));
            if let Err(e) = r {
                result = Err(e);
                break;
            }
            m.pay_to(CostDomain::Xen, Term::UpcallComplete);
            self.engine
                .complete(&entry, cpu.reg(twin_isa::Reg::Eax), m.meter.now());
            m.note(TraceEvent::UpcallCompletion {
                routine: entry.routine.name(),
                cont_id: entry.cont_id,
            });
        }
        xen.hypercall(m);
        xen.switch_to(m, back);
        // One batched completion event for the whole flush; the resumed
        // driver instance acknowledges it immediately (like the sync
        // stub's upcall event above).
        xen.send_virq(m, back, UPCALL_COMPLETION_PORT);
        xen.domain_mut(back).drain_virqs(UPCALL_COMPLETION_PORT);
        result
    }

    /// Hypervisor-native execution of a Table 1 routine: the stlb lookup
    /// for driver-data access is explicit (modeled by charging the
    /// fast-path lookup where the row says the body touches driver
    /// data). Allocation and `netif_rx` genuinely differ from dom0's;
    /// the rest are dom0's bodies, run here under the caller's
    /// [`CostDomain::Xen`] — they operate on the shared heap, pools and
    /// lock words in dom0 memory, which is why synchronization between
    /// the two instances just works (paper §4.4).
    #[allow(clippy::too_many_arguments)]
    fn native_impl(
        &mut self,
        id: RoutineId,
        fp: &FastPath,
        m: &mut Machine,
        cpu: &mut Cpu,
        kernel: &mut Dom0Kernel,
        xen: &mut Xen,
        svm: &mut Svm,
    ) -> Result<(), Fault> {
        use twin_isa::Reg;
        let dom0 = kernel.space;
        match id {
            RoutineId::NETDEV_ALLOC_SKB => {
                // From the dom0-reserved buffer pool (paper §4.3).
                m.pay(Term::SkbAlloc);
                svm.charge_fast_path(m);
                let skb = kernel.hyper_pool.as_mut().and_then(|p| p.alloc(m, dom0));
                cpu.set_reg(Reg::Eax, skb.map(|s| s.0 as u32).unwrap_or(0));
            }
            RoutineId::NETIF_RX => {
                // The hypervisor's receive path: demultiplex on the
                // destination MAC and queue to the guest (paper §5.3).
                m.pay(Term::NetifRxDemux);
                svm.charge_fast_path(m);
                let skb = SkBuff(cpu.arg(m, 0)? as u64);
                if skb.0 != 0 {
                    let death = match skb.parse_frame(m, dom0)? {
                        None => Some((Fate::Malformed, None, None)),
                        Some(f) => {
                            let key = Some((f.flow, f.seq));
                            match xen.guest_by_mac(f.dst) {
                                None => Some((Fate::DemuxMiss, None, key)),
                                Some(gid) => (!xen.domain_mut(gid).queue_rx(f)).then_some((
                                    Fate::QueueCap,
                                    Some(gid.0),
                                    key,
                                )),
                            }
                        }
                    };
                    if let Some((fate, guest, frame)) = death {
                        m.note(TraceEvent::FrameDrop { fate, guest, frame });
                    }
                    kernel.free_skb(m, skb)?;
                }
                cpu.set_reg(Reg::Eax, 0);
            }
            _ => {
                if fp.touches_driver_data {
                    svm.charge_fast_path(m);
                }
                kernel.routine(id, m, cpu)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_net::{Frame, MacAddr};

    fn setup() -> (Machine, Dom0Kernel, Xen, Svm, HyperSupport) {
        let mut m = Machine::new();
        let dom0 = m.new_space();
        let mut kernel = Dom0Kernel::new(&mut m, dom0, 32).unwrap();
        kernel.reserve_hypervisor_pool(&mut m, 32).unwrap();
        let xen = Xen::new(dom0);
        let svm = Svm::new_hypervisor(&mut m, dom0, 0, (0, u64::MAX)).unwrap();
        (m, kernel, xen, svm, HyperSupport::new())
    }

    /// Upcalls executed in dom0, synchronously or at a flush.
    fn upcalls(m: &Machine) -> u64 {
        m.meter.payments(Term::UpcallOverhead) + m.meter.payments(Term::UpcallComplete)
    }

    fn id(name: &str) -> RoutineId {
        RoutineId::lookup(name).unwrap()
    }

    /// Calls a support routine with stack-passed args, like driver code.
    fn call(
        hs: &mut HyperSupport,
        name: &str,
        m: &mut Machine,
        kernel: &mut Dom0Kernel,
        xen: &mut Xen,
        svm: &mut Svm,
        args: &[u32],
    ) -> Result<u32, Fault> {
        // Build a stack frame in dom0 memory for arg reads.
        let stack = 0x3f00_0000;
        m.map_fresh(kernel.space, stack, 2).unwrap();
        let mut cpu = Cpu::new(kernel.space, ExecMode::Hypervisor);
        cpu.set_stack(stack + 2 * 4096);
        cpu.push_call_frame(m, args)?;
        let id = RoutineId::lookup(name).ok_or(Fault::UnknownExtern(name.to_string()))?;
        hs.handle_extern(id, m, &mut cpu, kernel, xen, svm)?;
        Ok(cpu.reg(twin_isa::Reg::Eax))
    }

    #[test]
    fn alloc_comes_from_reserved_pool() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup();
        let skb = call(
            &mut hs,
            "netdev_alloc_skb",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[0, 2048],
        )
        .unwrap();
        assert_ne!(skb, 0);
        let flags = SkBuff(skb as u64).pool_flags(&m, kernel.space).unwrap();
        assert_eq!(flags & 1, 1, "reserved-pool buffer");
        assert_eq!(kernel.hyper_pool.as_ref().unwrap().available(), 31);
        // Freeing routes back to the reserved pool, not dom0's.
        call(
            &mut hs,
            "dev_kfree_skb_any",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[skb],
        )
        .unwrap();
        assert_eq!(kernel.hyper_pool.as_ref().unwrap().available(), 32);
        assert_eq!(kernel.pool.available(), 32);
    }

    #[test]
    fn netif_rx_demuxes_by_mac() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup();
        let gspace = m.new_space();
        let gid = xen.add_guest(gspace, MacAddr::for_guest(5));
        // Build an skb holding a frame for guest 5.
        let skb = kernel
            .hyper_pool
            .as_mut()
            .unwrap()
            .alloc(&mut m, kernel.space)
            .unwrap();
        let f = Frame::data(MacAddr::for_guest(5), MacAddr::for_guest(9), 2, 7);
        skb.fill_from_frame(&mut m, kernel.space, &f).unwrap();
        call(
            &mut hs,
            "netif_rx",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[skb.0 as u32],
        )
        .unwrap();
        assert_eq!(xen.domain(gid).rx_queue.len(), 1);
        assert_eq!(xen.domain(gid).rx_queue[0].seq, 7);
        // skb returned to the pool.
        assert_eq!(kernel.hyper_pool.as_ref().unwrap().available(), 32);

        // Unknown MAC: dropped and counted.
        let skb = kernel
            .hyper_pool
            .as_mut()
            .unwrap()
            .alloc(&mut m, kernel.space)
            .unwrap();
        let f = Frame::data(MacAddr::for_guest(77), MacAddr::for_guest(9), 2, 8);
        skb.fill_from_frame(&mut m, kernel.space, &f).unwrap();
        call(
            &mut hs,
            "netif_rx",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[skb.0 as u32],
        )
        .unwrap();
        assert_eq!(m.meter.event(Event::DemuxMiss), 1);
    }

    /// An skb shorter than an Ethernet header is no frame, though its
    /// bytes name a guest: it goes back to its pool, reaches no queue,
    /// and is one `malformed` death.
    #[test]
    fn netif_rx_counts_a_malformed_skb() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup();
        m.trace.set_enabled(true);
        let gspace = m.new_space();
        let gid = xen.add_guest(gspace, MacAddr::for_guest(5));
        let pool = kernel.hyper_pool.as_mut().unwrap();
        let skb = pool.alloc(&mut m, kernel.space).unwrap();
        let f = Frame::data(MacAddr::for_guest(5), MacAddr::for_guest(9), 2, 7);
        skb.fill_from_frame(&mut m, kernel.space, &f).unwrap();
        skb.set_len(&mut m, kernel.space, 13).unwrap();
        let args = [skb.0 as u32];
        call(
            &mut hs,
            "netif_rx",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &args,
        )
        .unwrap();
        assert_eq!(kernel.hyper_pool.as_ref().unwrap().available(), 32);
        assert!(xen.domain(gid).rx_queue.is_empty());
        assert_eq!(m.meter.event(Event::Malformed), 1);
        assert_eq!(m.trace.counts_by_kind().get("malformed"), Some(&1));
    }

    #[test]
    fn upcall_costs_include_switches_from_guest_context() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup();
        let gspace = m.new_space();
        let gid = xen.add_guest(gspace, MacAddr::for_guest(1));
        xen.switch_to(&mut m, gid);
        let before = m.meter.cycles(CostDomain::Xen);
        let switches_before = m.meter.payments(Term::DomainSwitch);
        hs.set_upcall_count(9);
        assert!(hs.is_forced(id("spin_trylock")));
        // spin_trylock now routes via upcall.
        let lock = 0x3e00_0000;
        m.map_fresh(kernel.space, lock, 1).unwrap();
        let r = call(
            &mut hs,
            "spin_trylock",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[lock as u32],
        )
        .unwrap();
        assert_eq!(r, 1, "lock acquired through the upcall");
        assert_eq!(upcalls(&m), 1);
        assert_eq!(
            m.meter.payments(Term::DomainSwitch),
            switches_before + 2,
            "to dom0 and back"
        );
        assert_eq!(xen.current, gid, "restored to the guest");
        let delta = m.meter.cycles(CostDomain::Xen) - before;
        assert!(
            delta >= 2 * m.cost[Term::DomainSwitch] + m.cost[Term::UpcallOverhead],
            "upcall cost {delta}"
        );
    }

    #[test]
    fn upcall_from_dom0_context_skips_switches() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup();
        hs.set_upcall_count(9);
        let before = m.meter.payments(Term::DomainSwitch);
        let lock = 0x3e00_0000;
        m.map_fresh(kernel.space, lock, 1).unwrap();
        call(
            &mut hs,
            "spin_trylock",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[lock as u32],
        )
        .unwrap();
        assert_eq!(
            m.meter.payments(Term::DomainSwitch),
            before,
            "already in dom0: no switches"
        );
        assert_eq!(upcalls(&m), 1);
    }

    #[test]
    fn netif_rx_never_upcalls() {
        let (_m, _kernel, _xen, _svm, mut hs) = setup();
        hs.set_upcall_count(9);
        assert!(!hs.is_forced(id("netif_rx")));
        assert_eq!(hs.forced.count_ones(), 9, "{:#b}", hs.forced);
        assert_eq!(hs.forced, 0b11_1111_1011, "Table 1 rows only");
    }

    #[test]
    fn long_tail_routines_route_via_upcall() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup();
        // `kmalloc` is not a fast-path routine: hypervisor has no native
        // implementation, so it must upcall.
        let r = call(
            &mut hs,
            "kmalloc",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[128],
        )
        .unwrap();
        assert_ne!(r, 0, "allocation served by dom0 through the upcall");
        assert_eq!(upcalls(&m), 1);
    }

    #[test]
    fn truly_unknown_externs_are_rejected() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup();
        let e = call(
            &mut hs,
            "no_such_fn",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[],
        )
        .unwrap_err();
        assert!(matches!(e, Fault::UnknownExtern(_)));
    }

    /// A `setup()` world with the deferred engine armed (upcall stack and
    /// request ring mapped, as the hypervisor loader does).
    fn setup_deferred() -> (Machine, Dom0Kernel, Xen, Svm, HyperSupport) {
        let (mut m, kernel, xen, svm, mut hs) = setup();
        m.map_hyper_fresh(UPCALL_STACK_BASE, UPCALL_STACK_PAGES)
            .unwrap();
        m.map_hyper_fresh(UPCALL_RING_BASE, crate::hyperdrv::UPCALL_RING_PAGES)
            .unwrap();
        hs.engine.set_mode(UpcallMode::Deferred);
        (m, kernel, xen, svm, hs)
    }

    #[test]
    fn deferred_free_queues_until_flush() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup_deferred();
        hs.force_upcall(id("dev_kfree_skb_any"));
        let gspace = m.new_space();
        let gid = xen.add_guest(gspace, MacAddr::for_guest(1));
        xen.switch_to(&mut m, gid);
        let switches_before = m.meter.payments(Term::DomainSwitch);
        let virqs_before = m.meter.payments(Term::VirqDeliver);
        let skb = kernel.pool.alloc(&mut m, kernel.space).unwrap();
        let before = kernel.pool.available();
        call(
            &mut hs,
            "dev_kfree_skb_any",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[skb.0 as u32],
        )
        .unwrap();
        // Queued, not executed: no switches, pool unchanged.
        assert_eq!(
            m.meter.payments(Term::DomainSwitch),
            switches_before,
            "no switch on enqueue"
        );
        assert_eq!(kernel.pool.available(), before);
        assert_eq!(hs.engine.depth(), 1);
        assert_eq!(m.meter.payments(Term::UpcallEnqueue), 1);
        // The flush executes it in one switch-pair and posts completion.
        let n = hs
            .flush_upcalls(&mut m, &mut kernel, &mut xen, FlushCause::BurstEnd)
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            m.meter.payments(Term::DomainSwitch),
            switches_before + 2,
            "one pair per flush"
        );
        assert_eq!(kernel.pool.available(), before + 1, "free ran in dom0");
        assert_eq!(upcalls(&m), 1);
        assert_eq!(m.meter.payments(Term::UpcallFlushOverhead), 1);
        assert_eq!(m.meter.payments(Term::UpcallComplete), 1);
        // The batched completion event went back through the event
        // channel (request to dom0 + completion to the guest) and the
        // resumed instance acknowledged it — nothing left pending.
        assert_eq!(m.meter.payments(Term::VirqDeliver), virqs_before + 2);
        assert!(xen.domain(gid).pending_virqs.is_empty());
    }

    #[test]
    fn deferred_dma_map_returns_translation_immediately() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup_deferred();
        hs.force_upcall(id("dma_map_single"));
        let vaddr = 0x3d00_0000u64;
        m.map_fresh(kernel.space, vaddr, 1).unwrap();
        let switches_before = m.meter.payments(Term::DomainSwitch);
        let r = call(
            &mut hs,
            "dma_map_single",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[vaddr as u32, 2048],
        )
        .unwrap();
        assert_eq!(
            m.meter.payments(Term::DomainSwitch),
            switches_before,
            "provisional, no switch"
        );
        let t = m
            .translate(kernel.space, ExecMode::Guest, vaddr, false)
            .unwrap();
        let machine_addr = (t.entry.pfn * PAGE_SIZE + t.offset) as u32;
        assert_eq!(r, machine_addr, "hypervisor-computed translation");
        // dom0's flush execution recomputes the identical value.
        hs.flush_upcalls(&mut m, &mut kernel, &mut xen, FlushCause::BurstEnd)
            .unwrap();
        let done = hs.engine.take_completion(1).unwrap();
        assert_eq!(done.ret, machine_addr, "completion matches provisional");
    }

    #[test]
    fn continuation_alloc_drains_ring_fifo_and_resumes() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup_deferred();
        hs.set_upcall_count(2); // netdev_alloc_skb + dev_kfree_skb_any
        let gspace = m.new_space();
        let gid = xen.add_guest(gspace, MacAddr::for_guest(1));
        xen.switch_to(&mut m, gid);
        let switches_before = m.meter.payments(Term::DomainSwitch);
        // Queue a free, then suspend on an allocation: both must run in
        // the same single switch-pair, free first (FIFO).
        let skb = kernel.pool.alloc(&mut m, kernel.space).unwrap();
        let before = kernel.pool.available();
        call(
            &mut hs,
            "dev_kfree_skb_any",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[skb.0 as u32],
        )
        .unwrap();
        let r = call(
            &mut hs,
            "netdev_alloc_skb",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            // A real (nonzero) netdev: dom0's dispatch treats a null
            // netdev as the sw_init capability probe and allocates
            // nothing.
            &[1, 2048],
        )
        .unwrap();
        assert_ne!(r, 0, "resumed with dom0's return value");
        assert_eq!(
            m.meter.payments(Term::DomainSwitch),
            switches_before + 2,
            "one pair for both"
        );
        assert_eq!(m.meter.event(Event::UpcallContinuation), 1);
        assert_eq!(m.meter.payments(Term::UpcallFlushOverhead), 1);
        // Free ran before the alloc: net pool change is -1 + 1 = 0.
        assert_eq!(kernel.pool.available(), before);
        assert_eq!(hs.engine.depth(), 0);
        assert_eq!(xen.current, gid, "restored to the guest");
    }

    #[test]
    fn conflict_barrier_flushes_before_native_trylock() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup_deferred();
        // Manually force only the unlock — set_upcall_count can never
        // produce this split, but the policy is user-settable.
        hs.force_upcall(id("spin_unlock_irqrestore"));
        let lock = 0x3e00_0000u64;
        m.map_fresh(kernel.space, lock, 1).unwrap();
        m.write_u32(kernel.space, ExecMode::Guest, lock, 1).unwrap();
        call(
            &mut hs,
            "spin_unlock_irqrestore",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[lock as u32, 0],
        )
        .unwrap();
        assert_eq!(hs.engine.depth(), 1, "unlock queued");
        assert_eq!(
            m.read_u32(kernel.space, ExecMode::Guest, lock).unwrap(),
            1,
            "lock word untouched until flush"
        );
        // Native trylock must observe the queued unlock: the barrier
        // flushes first, so the lock is acquired, not bounced.
        let r = call(
            &mut hs,
            "spin_trylock",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[lock as u32],
        )
        .unwrap();
        assert_eq!(r, 1, "native trylock sees the flushed unlock");
        assert_eq!(m.meter.payments(Term::UpcallFlushOverhead), 1);
        assert_eq!(hs.engine.depth(), 0);
    }

    #[test]
    fn sync_class_upcall_drains_queued_work_first() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup_deferred();
        hs.force_upcall(id("dev_kfree_skb_any"));
        // Queue a free, then make a long-tail (Sync-class) upcall: dom0
        // must see the free before it — program order is preserved even
        // for routines outside the policy table.
        let skb = kernel.pool.alloc(&mut m, kernel.space).unwrap();
        let before = kernel.pool.available();
        call(
            &mut hs,
            "dev_kfree_skb_any",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[skb.0 as u32],
        )
        .unwrap();
        assert_eq!(hs.engine.depth(), 1);
        let r = call(
            &mut hs,
            "kmalloc",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[64],
        )
        .unwrap();
        assert_ne!(r, 0, "sync upcall served by dom0");
        assert_eq!(hs.engine.depth(), 0, "ring drained before the sync call");
        assert_eq!(kernel.pool.available(), before + 1, "free ran first");
        assert_eq!(m.meter.payments(Term::UpcallFlushOverhead), 1);
        assert_eq!(
            m.meter.payments(Term::UpcallOverhead),
            1,
            "the kmalloc itself was sync"
        );
        assert_eq!(upcalls(&m), 2, "one flushed entry + one sync upcall");
    }

    #[test]
    fn full_ring_forces_flush_and_high_water_raises_softirq() {
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup_deferred();
        hs.engine.set_capacity(4);
        hs.force_upcall(id("dma_unmap_single"));
        for i in 0..6u32 {
            call(
                &mut hs,
                "dma_unmap_single",
                &mut m,
                &mut kernel,
                &mut xen,
                &mut svm,
                &[0x1000 * i, 64],
            )
            .unwrap();
        }
        assert_eq!(m.meter.payments(Term::UpcallFlushOverhead), 1);
        assert_eq!(hs.engine.depth(), 2);
        assert!(
            xen.softirqs.contains(&crate::xen::Softirq::UpcallFlush),
            "high-water kick scheduled"
        );
        assert_eq!(
            m.meter.event(Event::UpcallForcedFlush),
            1,
            "5th enqueue flushed"
        );
        // Completions for the flushed four are all posted, FIFO ids.
        assert_eq!(hs.engine.pending_completions(), 4);
        for id in 1..=4u64 {
            assert!(hs.engine.take_completion(id).is_some(), "cont {id}");
        }
    }

    #[test]
    fn a_faulting_flush_leaves_the_unexecuted_tail_queued() {
        let (mut m, mut kernel, mut xen, _svm, mut hs) = setup_deferred();
        let skb = kernel.pool.alloc(&mut m, kernel.space).unwrap();
        let before = kernel.pool.available();
        // A free of an unmapped pointer, then a free dom0 is really owed.
        for ptr in [0x7777_0000, skb.0 as u32] {
            hs.enqueue_upcall(
                id("dev_kfree_skb_any"),
                vec![ptr],
                &mut m,
                &mut kernel,
                &mut xen,
            )
            .unwrap();
        }
        let e = hs
            .flush_upcalls(&mut m, &mut kernel, &mut xen, FlushCause::BurstEnd)
            .unwrap_err();
        assert!(matches!(e, Fault::PageFault { .. }), "{e:?}");
        assert_eq!(kernel.pool.available(), before, "the good free has not run");
        // ... and is still there for teardown to replay, not dropped with
        // the entry that faulted.
        let tail = hs.engine.drain();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].args, [skb.0 as u32]);
    }

    #[test]
    fn shared_lock_word_couples_both_instances() {
        // dom0 takes the lock through the kernel impl; the hypervisor
        // trylock must fail on the same word.
        let (mut m, mut kernel, mut xen, mut svm, mut hs) = setup();
        let lock = 0x3e00_0000;
        m.map_fresh(kernel.space, lock, 1).unwrap();
        m.write_u32(kernel.space, ExecMode::Guest, lock, 1).unwrap();
        let r = call(
            &mut hs,
            "spin_trylock",
            &mut m,
            &mut kernel,
            &mut xen,
            &mut svm,
            &[lock as u32],
        )
        .unwrap();
        assert_eq!(r, 0, "hypervisor sees dom0's lock");
    }
}
