//! Dom0 kernel model: the driver support API (the "large body of code in
//! the VM kernel", paper §3.2), timers, IRQ registration and the call
//! trace used to regenerate Table 1.

use crate::heap::Heap;
use crate::routines::RoutineId;
use crate::skb::{offsets, SkBuff, SkbPool};
use std::collections::BTreeMap;
use twin_machine::{CostDomain, Cpu, ExecMode, Fault, Machine, SpaceId, Term, PAGE_SIZE};
use twin_net::Frame;
use twin_nic::MMIO_WINDOW;
use twin_trace::{Fate, TraceEvent};

/// Virtual address in dom0 where NIC MMIO windows are mapped
/// (`ioremap` hands out `MMIO_BASE + dev * MMIO_WINDOW`).
///
/// Deliberately *not* a multiple of 16 MiB away from the kernel heap:
/// the stlb is direct-mapped on address bits 12..24, so hot pages 16 MiB
/// apart would evict each other on every packet (collision ping-pong).
pub const MMIO_BASE: u64 = 0xE02A_0000;

/// Records which support routines the driver calls in which phase; the
/// Table 1 harness compares the `fastpath` set against the paper's ten.
///
/// This is `twin_trace::CallTrace`. [`Dom0Kernel::record_call`] records
/// a call here and notes a typed [`twin_trace::TraceEvent::KernelCall`]
/// into the machine's flight recorder.
pub use twin_trace::CallTrace as Trace;

/// Virtual cycles per kernel jiffy: the `mod_timer`/`jiffies_read` unit.
/// 30 000 cycles is 10 µs on the modeled 3.0 GHz Xeon — a fine-grained
/// (tickless-style) jiffy so timer deltas stay in the same numeric range
/// the driver always used while the clock underneath is cycle-accurate.
pub const CYCLES_PER_JIFFY: u64 = 30_000;

/// One pending kernel timer.
#[derive(Copy, Clone, Debug)]
pub struct Timer {
    /// ISA handler address.
    pub handler: u64,
    /// Absolute **virtual cycle** at which it fires (armed by `mod_timer`
    /// as `now + delta_jiffies * CYCLES_PER_JIFFY`).
    pub expires_at: u64,
    /// Cookie passed to the handler when it fires (Linux
    /// `timer_list.data`; the e1000 watchdog stores its device index so
    /// each NIC's timer operates on its own adapter slot).
    pub data: u64,
}

/// The armed timers, ordered by `(expires_at, arm sequence)`: expiry pops
/// the due prefix, so timers with one expiry fire in the order they were
/// armed. Sized for the traffic it has — `mod_timer` replaces by
/// `(handler, data)` and the e1000 arms only its per-NIC watchdog, so
/// dom0 never holds more than [`crate::e1000::MAX_NICS`] timers, and the
/// vCPU model arms one edge per vCPU.
#[derive(Clone, Debug, Default)]
pub struct TimerQueue {
    queue: BTreeMap<(u64, u64), Timer>,
    /// Timers armed so far: the tie-break that keeps arm order.
    armed: u64,
}

impl TimerQueue {
    /// Creates an empty queue.
    pub fn new() -> TimerQueue {
        TimerQueue::default()
    }

    /// Armed timers.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Arms a timer behind every armed timer with the same expiry. A
    /// timer already in the past fires on the next [`TimerQueue::expire`].
    pub fn arm(&mut self, t: Timer) {
        self.queue.insert((t.expires_at, self.armed), t);
        self.armed += 1;
    }

    /// Removes every timer matching `pred`; returns how many were
    /// removed.
    pub fn disarm_where<F: Fn(&Timer) -> bool>(&mut self, pred: F) -> usize {
        let before = self.queue.len();
        self.queue.retain(|_, t| !pred(t));
        before - self.queue.len()
    }

    /// The earliest armed expiry, in cycles.
    pub fn next_due(&self) -> Option<u64> {
        self.queue.first_key_value().map(|((at, _), _)| *at)
    }

    /// Pops every timer with `expires_at <= now`, by expiry, then arm
    /// order.
    pub fn expire(&mut self, now: u64) -> Vec<Timer> {
        let mut due = Vec::new();
        while let Some(t) = self.queue.first_entry().filter(|e| e.key().0 <= now) {
            due.push(t.remove());
        }
        due
    }
}

// The rows `Dom0Kernel::routine` has a body for, resolved by name when
// the crate compiles (`RoutineId::named`): a crossing dispatches on the
// row's index, and a name `ROUTINES` lacks does not build.
const DEV_ALLOC_SKB: RoutineId = RoutineId::named("dev_alloc_skb");
const DEV_KFREE_SKB_ANY: RoutineId = RoutineId::named("dev_kfree_skb_any");
const DEV_KFREE_SKB: RoutineId = RoutineId::named("dev_kfree_skb");
const KFREE_SKB: RoutineId = RoutineId::named("kfree_skb");
const DMA_MAP_SINGLE: RoutineId = RoutineId::named("dma_map_single");
const DMA_MAP_PAGE: RoutineId = RoutineId::named("dma_map_page");
const DMA_UNMAP_SINGLE: RoutineId = RoutineId::named("dma_unmap_single");
const DMA_UNMAP_PAGE: RoutineId = RoutineId::named("dma_unmap_page");
const SPIN_TRYLOCK: RoutineId = RoutineId::named("spin_trylock");
const SPIN_LOCK_IRQSAVE: RoutineId = RoutineId::named("spin_lock_irqsave");
const SPIN_UNLOCK_IRQRESTORE: RoutineId = RoutineId::named("spin_unlock_irqrestore");
const SPIN_LOCK_INIT: RoutineId = RoutineId::named("spin_lock_init");
const ETH_TYPE_TRANS: RoutineId = RoutineId::named("eth_type_trans");
const KMALLOC: RoutineId = RoutineId::named("kmalloc");
const VMALLOC: RoutineId = RoutineId::named("vmalloc");
const KFREE: RoutineId = RoutineId::named("kfree");
const VFREE: RoutineId = RoutineId::named("vfree");
const DMA_ALLOC_COHERENT: RoutineId = RoutineId::named("dma_alloc_coherent");
const IOREMAP: RoutineId = RoutineId::named("ioremap");
const ALLOC_ETHERDEV: RoutineId = RoutineId::named("alloc_etherdev");
const REGISTER_NETDEV: RoutineId = RoutineId::named("register_netdev");
const REQUEST_IRQ: RoutineId = RoutineId::named("request_irq");
const MOD_TIMER: RoutineId = RoutineId::named("mod_timer");
const DEL_TIMER: RoutineId = RoutineId::named("del_timer");
const DEL_TIMER_SYNC: RoutineId = RoutineId::named("del_timer_sync");
const NETIF_START_QUEUE: RoutineId = RoutineId::named("netif_start_queue");
const NETIF_WAKE_QUEUE: RoutineId = RoutineId::named("netif_wake_queue");
const NETIF_STOP_QUEUE: RoutineId = RoutineId::named("netif_stop_queue");
const NETIF_QUEUE_STOPPED: RoutineId = RoutineId::named("netif_queue_stopped");
const PRINTK: RoutineId = RoutineId::named("printk");
const MEMCPY: RoutineId = RoutineId::named("memcpy");
const MEMSET: RoutineId = RoutineId::named("memset");
const STRCPY: RoutineId = RoutineId::named("strcpy");
const SKB_RESERVE: RoutineId = RoutineId::named("skb_reserve");
const SKB_PUT: RoutineId = RoutineId::named("skb_put");
const JIFFIES_READ: RoutineId = RoutineId::named("jiffies_read");
const CPU_TO_LE32: RoutineId = RoutineId::named("cpu_to_le32");
const LE32_TO_CPU: RoutineId = RoutineId::named("le32_to_cpu");
const MII_LINK_OK: RoutineId = RoutineId::named("mii_link_ok");
const NETIF_CARRIER_OK: RoutineId = RoutineId::named("netif_carrier_ok");
const CAPABLE: RoutineId = RoutineId::named("capable");
const ETHTOOL_OP_GET_LINK: RoutineId = RoutineId::named("ethtool_op_get_link");
const CRC32: RoutineId = RoutineId::named("crc32");

/// What dom0 does with packets the driver hands to `netif_rx`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RxMode {
    /// Deliver to the local TCP/IP stack (native Linux and dom0
    /// configurations) — charges the full receive-stack cost.
    LocalStack,
    /// Bridge toward a guest backend (baseline Xen guest configuration) —
    /// charges only the bridge lookup; the backend costs are charged by
    /// the I/O-channel model.
    Bridge,
}

/// The dom0 kernel model: heap, sk_buff pools, support-routine
/// implementations, timers and IRQ plumbing.
#[derive(Clone, Debug)]
pub struct Dom0Kernel {
    /// dom0's address space.
    pub space: SpaceId,
    /// The kernel heap.
    pub heap: Heap,
    /// General sk_buff pool (driver RX buffers, netperf TX buffers).
    pub pool: SkbPool,
    /// Hypervisor-reserved pool (paper §4.3); created by the TwinDrivers
    /// setup, `None` for plain configurations.
    pub hyper_pool: Option<SkbPool>,
    /// Frames delivered to the dom0 network stack by `netif_rx`.
    pub rx_delivered: Vec<Frame>,
    /// IRQ number → ISA handler address (`request_irq`).
    pub irq_handlers: BTreeMap<u32, u64>,
    /// Pending timers, keyed on virtual cycles (`mod_timer` deltas are
    /// jiffies, converted via [`CYCLES_PER_JIFFY`]).
    pub timers: TimerQueue,
    /// Call trace for Table 1.
    pub trace: Trace,
    /// Destination of `netif_rx` packets.
    pub rx_mode: RxMode,
    /// Whether the TX queue is stopped.
    pub queue_stopped: bool,
    /// Registered net devices (addresses of netdev structs).
    pub registered_netdevs: Vec<u64>,
    /// Packets `netif_rx` has pushed into the stack since the current
    /// receive burst began (see [`Dom0Kernel::begin_stack_burst`]).
    stack_burst: u64,
    alloc_sizes: BTreeMap<u64, u64>,
}

impl Dom0Kernel {
    /// Creates the kernel model with `pool_size` preallocated 2 KiB
    /// sk_buffs.
    ///
    /// # Errors
    ///
    /// Fails if the heap cannot back the pool.
    pub fn new(m: &mut Machine, space: SpaceId, pool_size: usize) -> Result<Dom0Kernel, Fault> {
        let mut heap = Heap::new(space);
        let pool = SkbPool::preallocate(m, &mut heap, pool_size, 2048, false)?;
        Ok(Dom0Kernel {
            space,
            heap,
            pool,
            hyper_pool: None,
            rx_delivered: Vec::new(),
            irq_handlers: BTreeMap::new(),
            timers: TimerQueue::new(),
            trace: Trace::new(),
            rx_mode: RxMode::LocalStack,
            queue_stopped: false,
            registered_netdevs: Vec::new(),
            stack_burst: 0,
            alloc_sizes: BTreeMap::new(),
        })
    }

    /// Marks the start of one coalesced receive burst: the next
    /// `netif_rx` pays the full per-wakeup stack cost
    /// ([`Term::TcpRxPerPacket`]); packets after it in the same burst pay
    /// only the GRO/NAPI-style marginal cost
    /// ([`Term::TcpRxBatchMarginal`]). The interrupt dispatcher calls this
    /// once per hardware interrupt, so per-packet delivery (a burst of
    /// one) is costed exactly as before.
    pub fn begin_stack_burst(&mut self) {
        self.stack_burst = 0;
    }

    /// Creates the hypervisor-reserved pool (paper §4.3).
    ///
    /// # Errors
    ///
    /// Fails on heap exhaustion.
    pub fn reserve_hypervisor_pool(&mut self, m: &mut Machine, count: usize) -> Result<(), Fault> {
        let pool = SkbPool::preallocate(m, &mut self.heap, count, 2048, true)?;
        self.hyper_pool = Some(pool);
        Ok(())
    }

    /// Frees an sk_buff into whichever pool owns it (the reference-count
    /// trick keeps hypervisor-reserved buffers out of dom0's pool).
    ///
    /// # Errors
    ///
    /// A fault reading the header, or the pool's refusal
    /// ([`SkbPool::release`]) of a foreign or already-free buffer.
    pub fn free_skb(&mut self, m: &Machine, skb: SkBuff) -> Result<(), Fault> {
        let flags = skb.pool_flags(m, self.space)?;
        match &mut self.hyper_pool {
            Some(hp) if flags & 1 != 0 => hp.release(skb),
            _ => self.pool.release(skb),
        }
    }

    /// Timers due at virtual time `now` (cycles), popped from the queue
    /// by expiry, then arm order.
    pub fn take_due_timers(&mut self, now: u64) -> Vec<Timer> {
        self.timers.expire(now)
    }

    /// Handles a support-routine call from driver code, in dom0: records
    /// it for Table 1 and charges the body to [`CostDomain::Dom0`] —
    /// support routines are kernel code, not driver code, matching the
    /// paper's attribution.
    pub fn handle_extern(
        &mut self,
        id: RoutineId,
        m: &mut Machine,
        cpu: &mut Cpu,
    ) -> Result<(), Fault> {
        self.record_call(id, m);
        m.meter.push_domain(CostDomain::Dom0);
        let r = self.routine(id, m, cpu);
        m.meter.pop_domain();
        r
    }

    /// Records a support-routine call in the Table 1 trace and the
    /// machine's flight recorder.
    pub fn record_call(&mut self, id: RoutineId, m: &mut Machine) {
        self.trace.record(id.name());
        m.note(TraceEvent::KernelCall {
            routine: id.name(),
            phase: self.trace.phase,
        });
    }

    /// The body of a support routine — the one place each is written —
    /// charged to the *current* cost domain: dom0 runs it under
    /// [`CostDomain::Dom0`] ([`Dom0Kernel::handle_extern`]); the
    /// hypervisor runs the Table 1 bodies it shares with dom0, and its
    /// teardown replay, under [`CostDomain::Xen`].
    pub fn routine(&mut self, id: RoutineId, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault> {
        use twin_isa::Reg;
        let ret = |cpu: &mut Cpu, v: u32| cpu.set_reg(Reg::Eax, v);
        match id {
            RoutineId::NETDEV_ALLOC_SKB | DEV_ALLOC_SKB => {
                m.pay(Term::SkbAlloc);
                // `e1000_sw_init` probes every init routine with null
                // args; a null netdev is that capability probe, not a
                // real allocation — handing out an skb here leaks one
                // pool slot per probe (and re-probe, on every device
                // reset). Same cycle charge either way.
                if cpu.arg(m, 0)? == 0 {
                    ret(cpu, 0);
                } else {
                    let skb = self.pool.alloc(m, self.space);
                    ret(cpu, skb.map(|s| s.0 as u32).unwrap_or(0));
                }
            }
            DEV_KFREE_SKB_ANY | DEV_KFREE_SKB | KFREE_SKB => {
                m.pay(Term::SkbFree);
                let skb = SkBuff(cpu.arg(m, 0)? as u64);
                if skb.0 != 0 {
                    self.free_skb(m, skb)?;
                }
                ret(cpu, 0);
            }
            RoutineId::NETIF_RX => {
                m.pay(match self.rx_mode {
                    // Bridging is a per-packet lookup either way; the
                    // local stack amortises its per-wakeup work across a
                    // coalesced burst.
                    RxMode::Bridge => Term::BridgePerPacket,
                    RxMode::LocalStack if self.stack_burst == 0 => Term::TcpRxPerPacket,
                    RxMode::LocalStack => Term::TcpRxBatchMarginal,
                });
                self.stack_burst += 1;
                let skb = SkBuff(cpu.arg(m, 0)? as u64);
                if skb.0 != 0 {
                    match skb.parse_frame(m, self.space)? {
                        Some(f) => self.rx_delivered.push(f),
                        None => m.note(TraceEvent::FrameDrop {
                            fate: Fate::Malformed,
                            guest: None,
                            frame: None,
                        }),
                    }
                    self.free_skb(m, skb)?;
                }
                ret(cpu, 0);
            }
            DMA_MAP_SINGLE => {
                m.pay(Term::DmaMap);
                let vaddr = cpu.arg(m, 0)? as u64;
                let t = m.translate(self.space, ExecMode::Guest, vaddr, false)?;
                ret(cpu, (t.entry.pfn * PAGE_SIZE + t.offset) as u32);
            }
            DMA_MAP_PAGE => {
                m.pay(Term::DmaMap);
                // The argument is already a machine address (guest page
                // chained by the hypervisor, or a prior mapping).
                let addr = cpu.arg(m, 0)?;
                ret(cpu, addr);
            }
            DMA_UNMAP_SINGLE | DMA_UNMAP_PAGE => {
                m.pay(Term::DmaMap);
                ret(cpu, 0);
            }
            SPIN_TRYLOCK => {
                m.pay(Term::Spinlock);
                let addr = cpu.arg(m, 0)? as u64;
                let v = m.read_u32(self.space, ExecMode::Guest, addr)?;
                if v == 0 {
                    m.write_u32(self.space, ExecMode::Guest, addr, 1)?;
                    ret(cpu, 1);
                } else {
                    ret(cpu, 0);
                }
            }
            SPIN_LOCK_IRQSAVE => {
                m.pay(Term::Spinlock);
                m.pay(Term::CliSti);
                let addr = cpu.arg(m, 0)? as u64;
                if addr != 0 {
                    m.write_u32(self.space, ExecMode::Guest, addr, 1)?;
                }
                ret(cpu, 0);
            }
            SPIN_UNLOCK_IRQRESTORE => {
                m.pay(Term::Spinlock);
                let addr = cpu.arg(m, 0)? as u64;
                if addr != 0 {
                    m.write_u32(self.space, ExecMode::Guest, addr, 0)?;
                }
                ret(cpu, 0);
            }
            SPIN_LOCK_INIT => {
                let addr = cpu.arg(m, 0)? as u64;
                if addr != 0 {
                    m.write_u32(self.space, ExecMode::Guest, addr, 0)?;
                }
                ret(cpu, 0);
            }
            ETH_TYPE_TRANS => {
                m.pay(Term::EthTypeTrans);
                let skb = SkBuff(cpu.arg(m, 0)? as u64);
                let data = skb.data(m, self.space)?;
                let mut ethertype = [0u8; 2];
                m.read_bytes_virt(self.space, ExecMode::Guest, data + 12, &mut ethertype)?;
                let proto = u16::from_be_bytes(ethertype) as u32;
                skb.set_protocol(m, self.space, proto)?;
                ret(cpu, proto);
            }
            KMALLOC | VMALLOC => {
                let size = cpu.arg(m, 0)? as u64;
                let addr = self.heap.kmalloc(m, size.max(1))?;
                self.alloc_sizes.insert(addr, size.max(1));
                ret(cpu, addr as u32);
            }
            KFREE | VFREE => {
                let addr = cpu.arg(m, 0)? as u64;
                if let Some(size) = self.alloc_sizes.remove(&addr) {
                    self.heap.kfree(addr, size);
                }
                ret(cpu, 0);
            }
            DMA_ALLOC_COHERENT => {
                let size = cpu.arg(m, 0)? as u64;
                let out = cpu.arg(m, 1)? as u64;
                let (vaddr, machine) = self.heap.dma_alloc_coherent(m, size)?;
                if out != 0 {
                    m.write_u32(self.space, ExecMode::Guest, out, machine as u32)?;
                }
                ret(cpu, vaddr as u32);
            }
            IOREMAP => {
                let dev = cpu.arg(m, 0)?;
                ret(cpu, (MMIO_BASE + dev as u64 * MMIO_WINDOW) as u32);
            }
            ALLOC_ETHERDEV => {
                let addr = self.heap.kmalloc(m, 256)?;
                self.alloc_sizes.insert(addr, 256);
                ret(cpu, addr as u32);
            }
            REGISTER_NETDEV => {
                let dev = cpu.arg(m, 0)? as u64;
                self.registered_netdevs.push(dev);
                ret(cpu, 0);
            }
            REQUEST_IRQ => {
                let irq = cpu.arg(m, 0)?;
                let handler = cpu.arg(m, 1)? as u64;
                self.irq_handlers.insert(irq, handler);
                ret(cpu, 0);
            }
            MOD_TIMER => {
                let delta = cpu.arg(m, 0)? as u64;
                let handler = cpu.arg(m, 1)? as u64;
                let data = cpu.arg(m, 2)? as u64;
                // Re-arming replaces the matching timer only: the same
                // handler armed with different data (one watchdog per
                // NIC) coexists.
                self.timers
                    .disarm_where(|t| t.handler == handler && t.data == data);
                self.timers.arm(Timer {
                    handler,
                    expires_at: m.meter.now() + delta * CYCLES_PER_JIFFY,
                    data,
                });
                ret(cpu, 0);
            }
            DEL_TIMER | DEL_TIMER_SYNC => {
                let handler = cpu.arg(m, 0)? as u64;
                self.timers.disarm_where(|t| t.handler == handler);
                ret(cpu, 0);
            }
            NETIF_START_QUEUE | NETIF_WAKE_QUEUE => {
                self.queue_stopped = false;
                ret(cpu, 0);
            }
            NETIF_STOP_QUEUE => {
                self.queue_stopped = true;
                ret(cpu, 0);
            }
            NETIF_QUEUE_STOPPED => {
                ret(cpu, u32::from(self.queue_stopped));
            }
            PRINTK => {
                m.pay(Term::Printk);
                ret(cpu, 0);
            }
            MEMCPY => {
                let dst = cpu.arg(m, 0)? as u64;
                let src = cpu.arg(m, 1)? as u64;
                let n = cpu.arg(m, 2)? as u64;
                if dst != 0 && src != 0 && n > 0 {
                    m.pay_copy(m.meter.current_domain(), n);
                    m.copy_virt(
                        (self.space, ExecMode::Guest, src),
                        (self.space, ExecMode::Guest, dst),
                        n,
                    )?;
                }
                ret(cpu, dst as u32);
            }
            MEMSET => {
                let dst = cpu.arg(m, 0)? as u64;
                let val = cpu.arg(m, 1)?;
                let n = cpu.arg(m, 2)? as u64;
                if dst != 0 && n > 0 {
                    m.pay_copy(m.meter.current_domain(), n);
                    // At most a page of the fill byte per call: `n` is
                    // the driver's, so it sizes no buffer.
                    let fill = [val as u8; PAGE_SIZE as usize];
                    for done in (0..n).step_by(fill.len()) {
                        let chunk = (n - done).min(PAGE_SIZE) as usize;
                        m.write_bytes_virt(
                            self.space,
                            ExecMode::Guest,
                            dst + done,
                            &fill[..chunk],
                        )?;
                    }
                }
                ret(cpu, dst as u32);
            }
            STRCPY => {
                let dst = cpu.arg(m, 0)? as u64;
                let src = cpu.arg(m, 1)? as u64;
                if dst != 0 && src != 0 {
                    // A byte at a time: when the strings overlap, where
                    // the copy stops depends on bytes it has just written.
                    for i in 0..64 {
                        let b = m.read_virt(
                            self.space,
                            ExecMode::Guest,
                            src + i,
                            twin_isa::Width::Byte,
                        )?;
                        m.write_virt(
                            self.space,
                            ExecMode::Guest,
                            dst + i,
                            twin_isa::Width::Byte,
                            b,
                        )?;
                        if b == 0 {
                            break;
                        }
                    }
                }
                ret(cpu, dst as u32);
            }
            SKB_RESERVE => {
                let skb = SkBuff(cpu.arg(m, 0)? as u64);
                let n = cpu.arg(m, 1)?;
                if skb.0 != 0 {
                    let data = skb.data(m, self.space)? as u32;
                    m.write_u32(self.space, ExecMode::Guest, skb.0 + offsets::DATA, data + n)?;
                }
                ret(cpu, 0);
            }
            SKB_PUT => {
                let skb = SkBuff(cpu.arg(m, 0)? as u64);
                let n = cpu.arg(m, 1)?;
                if skb.0 != 0 {
                    let len = skb.len(m, self.space)?;
                    skb.set_len(m, self.space, len + n)?;
                    let data = skb.data(m, self.space)?;
                    ret(cpu, (data as u32) + len);
                } else {
                    ret(cpu, 0);
                }
            }
            JIFFIES_READ => ret(cpu, (m.meter.now() / CYCLES_PER_JIFFY) as u32),
            CPU_TO_LE32 | LE32_TO_CPU => {
                let v = cpu.arg(m, 0)?;
                ret(cpu, v);
            }
            MII_LINK_OK | NETIF_CARRIER_OK | CAPABLE | ETHTOOL_OP_GET_LINK => {
                m.pay(Term::LinkQuery);
                ret(cpu, 1);
            }
            CRC32 => {
                let v = cpu.arg(m, 0)?;
                m.pay(Term::Crc32);
                ret(cpu, v.wrapping_mul(2654435761));
            }
            // The remaining long tail: bookkeeping-only kernel services.
            _ => {
                m.pay(Term::SupportDefault);
                ret(cpu, 0);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_machine::Event;
    use twin_net::MacAddr;

    /// An skb shorter than an Ethernet header is no frame: dom0's
    /// `netif_rx` returns it to its pool, delivers nothing, and notes
    /// one `malformed` death.
    #[test]
    fn netif_rx_counts_a_malformed_skb() {
        let mut m = Machine::new();
        m.trace.set_enabled(true);
        let s = m.new_space();
        let mut k = Dom0Kernel::new(&mut m, s, 4).unwrap();
        let skb = k.pool.alloc(&mut m, s).unwrap();
        let f = Frame::data(MacAddr::for_guest(1), MacAddr::for_guest(9), 2, 7);
        skb.fill_from_frame(&mut m, s, &f).unwrap();
        skb.set_len(&mut m, s, 13).unwrap();
        let stack = 0x3f00_0000;
        m.map_fresh(s, stack, 1).unwrap();
        let mut cpu = Cpu::new(s, ExecMode::Guest);
        cpu.set_stack(stack + 4096);
        cpu.push_call_frame(&mut m, &[skb.0 as u32]).unwrap();
        k.routine(RoutineId::NETIF_RX, &mut m, &mut cpu).unwrap();
        assert_eq!(k.pool.available(), 4, "the skb is back in its pool");
        assert!(k.rx_delivered.is_empty());
        assert_eq!(m.meter.event(Event::Malformed), 1);
        assert_eq!(m.trace.counts_by_kind().get("malformed"), Some(&1));
    }

    #[test]
    fn timers_fire_in_order() {
        let mut m = Machine::new();
        let s = m.new_space();
        let mut k = Dom0Kernel::new(&mut m, s, 4).unwrap();
        k.timers.arm(Timer {
            handler: 0x100,
            expires_at: 5 * CYCLES_PER_JIFFY,
            data: 0,
        });
        k.timers.arm(Timer {
            handler: 0x200,
            expires_at: 10 * CYCLES_PER_JIFFY,
            data: 1,
        });
        assert!(k.take_due_timers(4 * CYCLES_PER_JIFFY).is_empty());
        let due = k.take_due_timers(7 * CYCLES_PER_JIFFY);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].handler, 0x100);
        assert_eq!(k.timers.len(), 1);
    }

    fn t(handler: u64, expires_at: u64, data: u64) -> Timer {
        Timer {
            handler,
            expires_at,
            data,
        }
    }

    #[test]
    fn wheel_partitions_due_timers_at_wheel_boundaries() {
        // Adjacent jiffies (63, 64) and jiffies 64 apart (2, 66): each
        // timer fires exactly at its own expiry, alone.
        let w = 64;
        let mut q = TimerQueue::new();
        q.arm(t(0x1, (w - 1) * CYCLES_PER_JIFFY, 0));
        q.arm(t(0x2, w * CYCLES_PER_JIFFY, 0));
        q.arm(t(0x3, 2 * CYCLES_PER_JIFFY, 0));
        q.arm(t(0x4, (2 + w) * CYCLES_PER_JIFFY, 0));
        assert_eq!(q.len(), 4);
        assert_eq!(q.next_due(), Some(2 * CYCLES_PER_JIFFY));
        for (now, handler) in [(3, 0x3), (w - 1, 0x1), (w, 0x2), (2 + w, 0x4)] {
            let due = q.expire(now * CYCLES_PER_JIFFY);
            assert_eq!(due.len(), 1, "jiffy {now} fires alone");
            assert_eq!(due[0].handler, handler);
        }
        assert!(q.is_empty());
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn wheel_is_cycle_accurate_within_a_jiffy() {
        // Two timers in the same jiffy, different cycles: expiry between
        // them fires only the earlier one.
        let mut q = TimerQueue::new();
        let base = 7 * CYCLES_PER_JIFFY;
        q.arm(t(0xa, base + 100, 0));
        q.arm(t(0xb, base + 900, 0));
        let due = q.expire(base + 500);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].handler, 0xa);
        assert_eq!(q.next_due(), Some(base + 900));
        let due = q.expire(base + 900);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].handler, 0xb);
    }

    #[test]
    fn wheel_rearm_from_within_a_handler_window() {
        // The watchdog pattern: the handler re-arms itself (same handler,
        // same data) while its expiry pass is being consumed — the
        // re-armed timer fires on the *next* interval, exactly once.
        let mut q = TimerQueue::new();
        q.arm(t(0x100, 100 * CYCLES_PER_JIFFY, 3));
        let due = q.expire(100 * CYCLES_PER_JIFFY);
        assert_eq!(due.len(), 1);
        // "Inside the handler": re-arm relative to the fire time.
        let again = Timer {
            handler: due[0].handler,
            expires_at: due[0].expires_at + 100 * CYCLES_PER_JIFFY,
            data: due[0].data,
        };
        assert_eq!(
            q.disarm_where(|x| x.handler == again.handler && x.data == again.data),
            0
        );
        q.arm(again);
        assert!(q.expire(150 * CYCLES_PER_JIFFY).is_empty());
        let due = q.expire(200 * CYCLES_PER_JIFFY);
        assert_eq!(due.len(), 1, "re-armed timer fires once");
        assert_eq!(due[0].data, 3, "the data cookie survives the round trip");
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_keeps_per_device_data_cookies_distinct() {
        // PR 2's contract: one watchdog per NIC — same handler, distinct
        // `data` cookies — must coexist, and re-arming one must not
        // disturb the other.
        let mut q = TimerQueue::new();
        q.arm(t(0x100, 100 * CYCLES_PER_JIFFY, 0));
        q.arm(t(0x100, 100 * CYCLES_PER_JIFFY, 1));
        assert_eq!(q.len(), 2);
        // Re-arm device 0 only (mod_timer replacement semantics).
        assert_eq!(q.disarm_where(|x| x.handler == 0x100 && x.data == 0), 1);
        q.arm(t(0x100, 300 * CYCLES_PER_JIFFY, 0));
        let due = q.expire(100 * CYCLES_PER_JIFFY);
        assert_eq!(due.len(), 1, "only device 1's watchdog is due");
        assert_eq!(due[0].data, 1);
        let due = q.expire(300 * CYCLES_PER_JIFFY);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].data, 0);
    }

    #[test]
    fn wheel_expiry_is_o_due_with_a_thousand_armed_timers() {
        // A thousand armed timers, far in the future: idle expiries
        // return nothing and lose nothing, and the final expiry comes
        // out in order.
        let mut q = TimerQueue::new();
        for i in 0..1_000u64 {
            q.arm(t(0x100 + i, (10_000 + (i * 7) % 100) * CYCLES_PER_JIFFY, i));
        }
        for j in 1..=50u64 {
            assert!(q.expire(j * CYCLES_PER_JIFFY).is_empty());
        }
        assert_eq!(q.len(), 1_000, "nothing lost");
        let due = q.expire(20_000 * CYCLES_PER_JIFFY);
        assert_eq!(due.len(), 1_000);
        let keys: Vec<(u64, u64)> = due.iter().map(|t| (t.expires_at, t.data)).collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "by expiry, then arm order"
        );
        assert!(q.is_empty());
    }

    #[test]
    fn ties_fire_in_arm_order_a_rearm_goes_behind_and_the_past_fires_next() {
        let at = 100 * CYCLES_PER_JIFFY;
        let mut q = TimerQueue::new();
        for dev in 0..4 {
            q.arm(t(0x100, at, dev));
        }
        // `mod_timer` on device 1 to the same expiry: disarm, then arm —
        // it now fires behind its peers.
        assert_eq!(q.disarm_where(|x| x.handler == 0x100 && x.data == 1), 1);
        q.arm(t(0x100, at, 1));
        // Armed in the past: due at the very next expiry, ahead of the
        // later ones.
        q.arm(t(0x200, 0, 9));
        assert_eq!(q.next_due(), Some(0));
        let due = q.expire(1);
        assert_eq!(due.iter().map(|t| t.data).collect::<Vec<_>>(), [9]);
        let due = q.expire(at);
        assert_eq!(due.iter().map(|t| t.data).collect::<Vec<_>>(), [0, 2, 3, 1]);
        assert!(q.is_empty());
    }
}
