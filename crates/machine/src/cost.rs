//! The cycle cost model and attribution meter.
//!
//! The paper reports per-packet CPU overhead split into four categories
//! (Fig. 7/8): the dom0 kernel, the guest kernel, the Xen hypervisor, and
//! the e1000 driver. [`CycleMeter`] reproduces that attribution with an
//! explicit domain stack: whoever is conceptually running pushes its
//! [`CostDomain`]; every payment lands in the top-of-stack category.
//!
//! The model itself is one closed table, [`Term`]: a row per operation
//! that costs cycles, carrying its stable name, its cycles and — as the
//! row's doc comment — the rationale for the value. [`CostParams`] is
//! that table's value column, read-only outside this crate, and a cycle
//! is charged by naming its row ([`crate::Machine::pay`]): outside
//! `twin-machine`, a charge that names no `Term` does not compile. The
//! tests in the workspace assert *shape* (orderings, ratios); the exact
//! values are pinned once, in this file's
//! `the_term_table_is_closed_and_pinned`.
//!
//! Occurrences are the second table, [`Event`], and [`row`] pairs it
//! with the flight recorder's `TraceEvent` kinds, so a count and its
//! trace record are one vocabulary.

use std::fmt;
use std::ops::Index;
use twin_trace::TraceEvent;

/// Attribution category for cycle charges (the four bars of Fig. 7/8).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CostDomain {
    /// The driver-domain (dom0) kernel — for native Linux runs this is
    /// "the kernel".
    Dom0,
    /// The guest-domain kernel.
    DomU,
    /// The hypervisor (switches, hypercalls, grant ops, packet copies).
    Xen,
    /// The network driver itself (original or rewritten).
    Driver,
}

impl CostDomain {
    /// All categories, in the paper's legend order.
    pub const ALL: [CostDomain; 4] = [
        CostDomain::Dom0,
        CostDomain::DomU,
        CostDomain::Xen,
        CostDomain::Driver,
    ];

    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            CostDomain::Dom0 => "dom0",
            CostDomain::DomU => "domU",
            CostDomain::Xen => "Xen",
            CostDomain::Driver => "e1000",
        }
    }
}

impl fmt::Display for CostDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Declares a closed table as a field-less enum: one row per variant
/// with its stable name, plus `ALL`, `COUNT` and `name()`.
macro_rules! closed_table {
    ($(#[$meta:meta])* $E:ident { $($(#[$doc:meta])* $V:ident: $name:literal,)* }) => {
        $(#[$meta])*
        #[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub enum $E {
            $($(#[$doc])* $V,)*
        }

        impl $E {
            /// Number of rows.
            pub const COUNT: usize = [$($name,)*].len();
            /// Every row, in table order.
            pub const ALL: [$E; $E::COUNT] = [$($E::$V,)*];

            /// The row's stable name: what metric keys, exports and
            /// baselines spell.
            pub fn name(self) -> &'static str {
                match self {
                    $($E::$V => $name,)*
                }
            }
        }
    };
}

/// The [`Term`] table: `Variant: "name" = cycles`, the rationale as the
/// row's doc comment.
macro_rules! terms {
    ($($(#[$doc:meta])* $V:ident: $name:literal = $cycles:literal,)*) => {
        closed_table! {
            /// One row of the cost model: an operation that costs CPU
            /// cycles at the modeled 3.0 GHz (the paper's Xeon).
            ///
            /// Instruction-class rows are paid by the interpreter; the
            /// rest by the kernel/hypervisor models when they perform the
            /// modeled operation.
            Term { $($(#[$doc])* $V: $name,)* }
        }

        impl Default for CostParams {
            fn default() -> CostParams {
                CostParams([$($cycles,)*])
            }
        }
    };
}

terms! {
    /// Simple ALU op (reg/reg or reg/imm).
    Alu: "alu" = 1,
    /// Register-to-register or immediate move / `lea`.
    MovReg: "mov_reg" = 1,
    /// Memory load (cache-warm average; includes address generation).
    Load: "load" = 4,
    /// Memory store.
    Store: "store" = 4,
    /// `imul`.
    Mul: "mul" = 4,
    /// Not-taken conditional branch.
    BranchNotTaken: "branch_not_taken" = 1,
    /// Taken branch / unconditional jump.
    BranchTaken: "branch_taken" = 2,
    /// `call` (direct or indirect), excluding the stack store.
    Call: "call" = 4,
    /// `ret`, excluding the stack load.
    Ret: "ret" = 4,
    /// Per-element cost of string instructions beyond the load/store.
    StringPerElem: "string_per_elem" = 1,
    /// `cli`/`sti` (virtualised interrupt-flag ops).
    CliSti: "cli_sti" = 8,
    /// MMIO register read (uncached PCI read — expensive, like a real NIC).
    MmioRead: "mmio_read" = 250,
    /// MMIO register write (posted PCI write).
    MmioWrite: "mmio_write" = 100,
    /// Address-space/domain switch, including the TLB and cache refill tax
    /// the paper identifies as the dominant overhead of the hosted model
    /// (§2, citing \[12\]).
    DomainSwitch: "domain_switch" = 2800,
    /// Cold-delivery refill: the extra sTLB/cache warm-up paid when a
    /// frame is delivered by a NIC softirq running on a different
    /// physical CPU than the owning guest's vCPU (or while the guest
    /// sleeps), so none of the guest's receive path is resident. The
    /// cache-local slice of the same refill tax [`Term::DomainSwitch`]
    /// models; paid only when the scheduler model is enabled.
    ColdDeliveryRefill: "cold_delivery_refill" = 3400,
    /// Hypercall entry/exit (guest → hypervisor → guest, no space switch).
    Hypercall: "hypercall" = 700,
    /// Delivering a virtual interrupt/event to a domain.
    VirqDeliver: "virq_deliver" = 450,
    /// Grant-table map of one page (baseline Xen I/O channel).
    GrantMap: "grant_map" = 1050,
    /// Grant-table unmap of one page.
    GrantUnmap: "grant_unmap" = 950,
    /// Hit on an already-established grant mapping (zero-copy mode):
    /// validating the cached entry and bumping its recycle index — no
    /// hypercall, no page-table work.
    GrantCacheHit: "grant_cache_hit" = 90,
    /// Pinning one pool page through the IOMMU allowlist at map time
    /// (page-table walk, allowlist insert, flush of the stale IOTLB
    /// entry). Paid once per pool page, never per packet.
    PinPage: "pin_page" = 400,
    /// Fixed dispatch overhead of taking the copy fallback in zero-copy
    /// mode (detecting the misaligned/exhausted/not-granted buffer and
    /// routing the frame to the bounce path), on top of the copy itself.
    CopyFallback: "copy_fallback" = 120,
    /// Software bridge lookup + forwarding decision in dom0.
    BridgePerPacket: "bridge_per_packet" = 580,
    /// Fixed cost of a memory copy (function call, setup); paid through
    /// [`crate::Machine::pay_copy`].
    CopyBase: "copy_base" = 60,
    /// Per-byte cost of guest-visible packet copies (cache-cold), in
    /// 1/100 cycle units (235 = 2.35 cycles/byte; Fig. 8 discussion:
    /// 3525 cycles to copy a 1500-byte packet). A rate, not a charge:
    /// paid only through [`crate::Machine::pay_copy`].
    CopyPerByteX100: "copy_per_byte_x100" = 235,
    /// Per-packet TCP/IP transmit-side stack cost (socket, TCP, IP, queue).
    TcpTxPerPacket: "tcp_tx_per_packet" = 3950,
    /// Per-packet TCP/IP receive-side stack cost (softirq, TCP, socket).
    TcpRxPerPacket: "tcp_rx_per_packet" = 8650,
    /// Additional paravirtualisation tax per packet for a kernel running
    /// on Xen rather than bare metal (pte updates, event checks).
    ParavirtTaxPerPacket: "paravirt_tax_per_packet" = 1150,
    /// netfront/netback per-packet processing (requests, responses, skb
    /// juggling) on the baseline Xen guest path — paid on each side.
    NetfrontPerPacket: "netfront_per_packet" = 1750,
    /// Upcall stack-switch bookkeeping beyond the two domain switches and
    /// the virq/hypercall pair; the full guest-context upcall then costs
    /// ~12.7k cycles, matching the first-bar drop of Fig 10.
    UpcallOverhead: "upcall_overhead" = 5950,
    /// Saving one deferred upcall into the request ring (routine id,
    /// parameters, continuation id — no domain switch).
    UpcallEnqueue: "upcall_enqueue" = 140,
    /// Fixed cost of draining the deferred-upcall ring once: switching to
    /// the upcall stack, walking the ring, posting the batched completion
    /// event (the two domain switches, virq and hypercall are paid by
    /// the hypervisor as usual — per *flush*, not per call).
    UpcallFlushOverhead: "upcall_flush_overhead" = 1450,
    /// Per-entry dom0 dispatch during a flush (decode the ring entry,
    /// rebuild the call frame), beyond the routine's own cost.
    UpcallDispatch: "upcall_dispatch" = 170,
    /// Posting one completion record (continuation id, return value) back
    /// through the event channel.
    UpcallComplete: "upcall_complete" = 90,
    /// Interrupt dispatch cost (vector to handler).
    IrqDispatch: "irq_dispatch" = 350,
    /// One ITR auto-tune retune: evaluating the `e1000_update_itr`-style
    /// state machine over the window counters plus the posted MMIO write
    /// that reprograms the throttling register. Paid only when the
    /// register actually changes (window evaluations that keep the value
    /// are below the model's resolution).
    ItrRetune: "itr_retune" = 220,
    /// One NAPI mode transition (interrupt→poll or poll→interrupt): the
    /// posted `IMC`/`IMS` mask write plus the poll-list bookkeeping the
    /// real `__napi_schedule`/`napi_complete` pair does. Paid at each
    /// switch, never per packet.
    NapiSwitch: "napi_switch" = 180,
    /// Dispatching one budgeted poll pass from softirq context: no
    /// vector, no `ICR` read — cheaper than [`Term::IrqDispatch`]
    /// because the device is masked and the softirq was already raised.
    NapiPollDispatch: "napi_poll_dispatch" = 260,
    /// Dropping one frame at RX-descriptor refill time because its
    /// destination guest's backlog is over the admission watermark: a
    /// queue-length compare and a counter bump, paid *before* any reap,
    /// demux or copy work — the whole point of early drop.
    EarlyDrop: "early_drop" = 40,
    /// Allocating an sk_buff in the kernel model.
    SkbAlloc: "skb_alloc" = 180,
    /// DMA map/unmap bookkeeping in the kernel model.
    DmaMap: "dma_map" = 120,
    /// Spinlock acquire/release pair (uncontended).
    Spinlock: "spinlock" = 40,
    /// `eth_type_trans` header inspection.
    EthTypeTrans: "eth_type_trans" = 60,
    /// Additional dom0 backend processing per transmitted packet on the
    /// baseline Xen guest path (request consumption, response production,
    /// skb bookkeeping — the paper's "expensive bridging and grant table
    /// operations in the driver domain", §2).
    BackendTxExtra: "backend_tx_extra" = 3600,
    /// Additional dom0 backend processing per received packet on the
    /// baseline path (the RX side is heavier: flipping/copying decisions,
    /// response ring maintenance, fragment bookkeeping).
    BackendRxExtra: "backend_rx_extra" = 7200,
    /// Hypervisor glue per transmitted packet on the TwinDrivers path:
    /// hypercall argument handling, acquiring the dom0 skb, chaining the
    /// guest page fragment (paper §5.3).
    TwinGlueTx: "twin_glue_tx" = 1400,
    /// Hypervisor glue per received packet on the TwinDrivers path:
    /// scheduling the softirq, guest queue management.
    TwinGlueRx: "twin_glue_rx" = 600,
    /// Guest-side paravirtual driver cost per packet (TwinDrivers path).
    PvDriverGuest: "pv_driver_guest" = 250,
    /// Transmit-stack cost for the second and later packets of one burst
    /// handed to the stack together (TSO/GSO-style aggregation: socket
    /// wakeups, queue-discipline entry and route lookups amortise across
    /// the burst; the first packet of a burst still pays
    /// [`Term::TcpTxPerPacket`]).
    TcpTxBatchMarginal: "tcp_tx_batch_marginal" = 1900,
    /// Receive-stack cost for the second and later packets of one burst
    /// delivered from a single coalesced interrupt (GRO/NAPI-style
    /// aggregation: softirq entry, per-wakeup scheduling and socket
    /// bookkeeping amortise; the first packet still pays
    /// [`Term::TcpRxPerPacket`]).
    TcpRxBatchMarginal: "tcp_rx_batch_marginal" = 4300,
    /// The out-of-line stlb miss handler itself (paper §4.1), before any
    /// page it has to map.
    StlbSlowPath: "stlb_slow_path" = 45,
    /// One `stlb_call` lookup translating an indirect-call target from
    /// the VM driver's code to the hypervisor driver's (paper §5.1.2).
    CallXlat: "call_xlat" = 8,
    /// The hypervisor's `netif_rx`: demultiplexing on the destination MAC
    /// and queueing to the guest (paper §5.3).
    NetifRxDemux: "netif_rx_demux" = 220,
    /// `printk`: formatting into the log ring.
    Printk: "printk" = 120,
    /// A link-state or capability query (`mii_link_ok`,
    /// `netif_carrier_ok`, `capable`, `ethtool_op_get_link`).
    LinkQuery: "link_query" = 40,
    /// `crc32` over a multicast address.
    Crc32: "crc32" = 60,
    /// The long tail of bookkeeping-only kernel services with no body of
    /// their own in the model.
    SupportDefault: "support_default" = 35,
    /// Freeing an sk_buff: half an allocation ([`Term::SkbAlloc`]).
    SkbFree: "skb_free" = 90,
}

/// The [`Term`] table's cycle column, indexed by row
/// (`m.cost[Term::Alu]`). There is one set of values — the table's — and
/// nothing outside this crate can change it.
#[derive(Clone, Debug)]
pub struct CostParams([u64; Term::COUNT]);

impl Index<Term> for CostParams {
    type Output = u64;

    #[inline]
    fn index(&self, t: Term) -> &u64 {
        &self.0[t as usize]
    }
}

impl CostParams {
    /// Overrides one row, for the tests that show a cost is read when
    /// the operation runs.
    #[cfg(test)]
    pub(crate) fn set(&mut self, t: Term, cycles: u64) {
        self.0[t as usize] = cycles;
    }
}

closed_table! {
    /// A named occurrence the meter counts: how often, never how long.
    /// An occurrence with a flight-recorder event is counted by
    /// [`crate::Machine::note`] through [`row`]; one with no payload by
    /// [`CycleMeter::count_event`].
    Event {
        /// A flow was first placed on a NIC by the affinity policy.
        AffinityPlace: "affinity_place",
        /// A frame delivered from a softirq CPU other than the guest's vCPU.
        ColdDelivery: "cold_delivery",
        /// A zero-copy frame took the copy path.
        CopyFallback: "copy_fallback",
        /// A received frame matched no guest MAC.
        DemuxMiss: "demux_miss",
        /// A quarantined device was re-probed.
        DeviceReset: "device_reset",
        /// An address-space switch.
        DomainSwitch: "domain_switch",
        /// A posted `TDT` tail write: one per driver kick.
        Doorbell: "doorbell",
        /// The hypervisor aborted the driver on a fault.
        DriverAbort: "driver_abort",
        /// A frame dropped at the admission watermark.
        EarlyDrop: "early_drop",
        /// A cached grant mapping evicted to make room.
        GrantCacheEvict: "grant_cache_evict",
        /// A zero-copy access found its mapping cached.
        GrantCacheHit: "grant_cache_hit",
        /// A grant-table map.
        GrantMap: "grant_map",
        /// A grant-table unmap.
        GrantUnmap: "grant_unmap",
        /// A hypercall entry/exit.
        Hypercall: "hypercall",
        /// An in-flight frame lost with its device's rings.
        InflightLost: "inflight_lost",
        /// A device interrupt delivered to software.
        Irq: "irq",
        /// An arrival latched behind a closed `ITR` window.
        IrqModerated: "irq_moderated",
        /// A wedged ring forced delivery despite the window.
        IrqModerationOverride: "irq_moderation_override",
        /// The ITR tuner reprogrammed the throttling register.
        ItrRetune: "itr_retune",
        /// An MMIO register read.
        MmioRead: "mmio_read",
        /// An MMIO register write.
        MmioWrite: "mmio_write",
        /// A device switched from interrupt to poll mode.
        NapiEnter: "napi_enter",
        /// A device switched from poll back to interrupt mode.
        NapiExit: "napi_exit",
        /// One budgeted poll pass over one device.
        NapiPoll: "napi_poll",
        /// A pool page pinned through the IOMMU allowlist.
        PinPage: "pin_page",
        /// A faulted device was quarantined.
        QuarantineEnter: "quarantine_enter",
        /// A recovered device left quarantine.
        QuarantineExit: "quarantine_exit",
        /// A frame dropped at a guest's demux queue cap.
        RxQueueDrop: "rx_queue_drop",
        /// An indirect-call target translated through `stlb_call`.
        StlbCallXlat: "stlb_call_xlat",
        /// An stlb entry evicted by a colliding page.
        StlbCollision: "stlb_collision",
        /// An stlb fast-path miss.
        StlbMiss: "stlb_miss",
        /// A dom0 page mapped into the SVM window.
        SvmPageMapped: "svm_page_mapped",
        /// A synchronous upcall into dom0.
        Upcall: "upcall",
        /// A deferred upcall's result awaited through its continuation.
        UpcallContinuation: "upcall_continuation",
        /// A queued upcall dropped at fault teardown.
        UpcallDiscarded: "upcall_discarded",
        /// An upcall saved into the deferred ring.
        UpcallEnqueue: "upcall_enqueue",
        /// A deferred upcall executed in dom0 during a flush.
        UpcallExec: "upcall_exec",
        /// One drain of the deferred-upcall ring.
        UpcallFlush: "upcall_flush",
        /// A drain forced by a full ring.
        UpcallForcedFlush: "upcall_forced_flush",
        /// A queued free/unlock replayed at fault teardown.
        UpcallReplayed: "upcall_replayed",
        /// A guest vCPU was scheduled in.
        VcpuRun: "vcpu_run",
        /// A guest vCPU was descheduled.
        VcpuSleep: "vcpu_sleep",
        /// A virtual interrupt delivered to a domain.
        Virq: "virq",
    }
}

/// The [`Event`] row a flight-recorder event counts: the one pairing of
/// the two vocabularies. [`crate::Machine::note`] counts this row and
/// records the event, so for a recorder that neither overflowed nor was
/// cleared, each paired kind's trace count equals its row's count. The
/// kinds mapped to `None` are trace-only: their occurrence is no row of
/// its own, or has no payload-free meaning as one.
#[inline]
pub fn row(e: &TraceEvent) -> Option<Event> {
    use TraceEvent as T;
    Some(match e {
        T::IrqDelivered { .. } => Event::Irq,
        T::NapiEnter { .. } => Event::NapiEnter,
        T::NapiPoll { .. } => Event::NapiPoll,
        T::NapiComplete { .. } => Event::NapiExit,
        T::ItrRetune { .. } => Event::ItrRetune,
        T::EarlyDrop { .. } => Event::EarlyDrop,
        T::QueueCapDrop { .. } => Event::RxQueueDrop,
        T::UpcallEnqueue { .. } => Event::UpcallEnqueue,
        T::UpcallFlush { .. } => Event::UpcallFlush,
        T::UpcallCompletion { .. } => Event::UpcallExec,
        T::GrantCacheHit { .. } => Event::GrantCacheHit,
        T::GrantCacheMiss { .. } => Event::PinPage,
        T::GrantCacheEvict { .. } => Event::GrantCacheEvict,
        T::FaultDetected { .. } => Event::DriverAbort,
        T::QuarantineEnter { .. } => Event::QuarantineEnter,
        T::QuarantineExit { .. } => Event::QuarantineExit,
        T::DeviceReset { .. } => Event::DeviceReset,
        T::VcpuRun { .. } => Event::VcpuRun,
        T::VcpuSleep { .. } => Event::VcpuSleep,
        T::AffinityPlace { .. } => Event::AffinityPlace,
        T::IrqMasked { .. }
        | T::DrrGrant { .. }
        | T::GrantCacheRevoke { .. }
        | T::TimerFire { .. }
        | T::SoftirqDispatch { .. }
        | T::KernelCall { .. }
        | T::InflightAccounted { .. } => return None,
    })
}

/// The virtual clock: a monotonic cycle counter advanced by the cost
/// accounting itself. Every cycle the interpreter or a model charges to
/// *any* domain also moves this clock forward, so "when" is derived from
/// "how much work happened" — the one coherent notion of time every
/// time-driven feature (kernel timers, interrupt moderation, upcall-flush
/// deadlines) keys on.
///
/// Like every counter of the [`CycleMeter`] that holds it, the clock only
/// moves forward, so timers armed before a measurement window fire at the
/// right instant inside it. Idle time (a system waiting for the wire, a
/// harness modeling inter-arrival gaps) advances the clock *without*
/// charging any domain via [`CycleMeter::advance_idle`], so per-packet
/// cycle breakdowns are untouched by waiting.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now: u64,
}

impl VirtualClock {
    /// Current virtual time in cycles since machine construction.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Moves time forward by `cycles`.
    pub fn advance(&mut self, cycles: u64) {
        self.now += cycles;
    }
}

/// Cycle accounting with domain attribution and [`Event`] counters.
///
/// Every counter is monotone, like the clock: nothing resets it. A
/// measurement window is the difference of two readings (in `twin-core`,
/// two `System::metrics()` snapshots), never a zeroed meter.
///
/// The attribution stack starts empty; charges made with no pushed domain
/// land in [`CostDomain::Dom0`] (a charge must go somewhere — tests push
/// explicitly). Cycles arrive through [`crate::Machine::pay`] and its two
/// siblings only: the raw-number methods below are private to this crate,
/// their one caller the interpreter's per-crossing flush.
#[derive(Clone, Debug)]
pub struct CycleMeter {
    /// Cycles per domain, indexed by `CostDomain as usize`.
    per_domain: [u64; CostDomain::ALL.len()],
    stack: Vec<CostDomain>,
    /// Occurrences per event, indexed by `Event as usize`.
    events: [u64; Event::COUNT],
    insns: u64,
    clock: VirtualClock,
}

impl Default for CycleMeter {
    fn default() -> CycleMeter {
        CycleMeter {
            per_domain: Default::default(),
            stack: Vec::new(),
            events: [0; Event::COUNT],
            insns: 0,
            clock: VirtualClock::default(),
        }
    }
}

impl CycleMeter {
    /// Creates a zeroed meter.
    pub fn new() -> CycleMeter {
        CycleMeter::default()
    }

    /// Pushes an attribution domain; subsequent charges accrue to it.
    pub fn push_domain(&mut self, d: CostDomain) {
        self.stack.push(d);
    }

    /// Pops the current attribution domain.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty (unbalanced push/pop is a harness bug).
    pub fn pop_domain(&mut self) {
        self.stack.pop().expect("unbalanced CycleMeter::pop_domain");
    }

    /// The current attribution domain.
    pub fn current_domain(&self) -> CostDomain {
        self.stack.last().copied().unwrap_or(CostDomain::Dom0)
    }

    /// Charges `cycles` to the current domain (and advances the virtual
    /// clock by the same amount — charged work *is* elapsed time).
    #[inline]
    pub(crate) fn charge(&mut self, cycles: u64) {
        self.charge_to(self.current_domain(), cycles);
    }

    /// Charges `cycles` to an explicit domain (bypassing the stack).
    #[inline]
    pub(crate) fn charge_to(&mut self, d: CostDomain, cycles: u64) {
        self.per_domain[d as usize] += cycles;
        self.clock.advance(cycles);
    }

    /// Current virtual time in cycles (see [`VirtualClock`]).
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// The virtual clock itself.
    pub fn clock(&self) -> VirtualClock {
        self.clock
    }

    /// Advances the virtual clock without charging any domain: idle time
    /// (wire inter-arrival gaps, a system waiting on a timer). Cycle
    /// breakdowns are unaffected; only "when" moves.
    pub fn advance_idle(&mut self, cycles: u64) {
        self.clock.advance(cycles);
    }

    /// Counts `n` executed instructions (for dynamic instruction stats).
    #[inline]
    pub fn count_insns(&mut self, n: u64) {
        self.insns += n;
    }

    /// Total executed instructions.
    pub fn insns(&self) -> u64 {
        self.insns
    }

    /// Counts one occurrence of `e`.
    #[inline]
    pub fn count_event(&mut self, e: Event) {
        self.events[e as usize] += 1;
    }

    /// Occurrences of `e` since the machine was built.
    pub fn event(&self, e: Event) -> u64 {
        self.events[e as usize]
    }

    /// The events counted so far, with their counts (rows never counted
    /// are left out).
    pub fn events(&self) -> impl Iterator<Item = (Event, u64)> {
        let counted = Event::ALL.into_iter().zip(self.events);
        counted.filter(|(_, n)| *n > 0)
    }

    /// Cycles charged to a domain.
    pub fn cycles(&self, d: CostDomain) -> u64 {
        self.per_domain[d as usize]
    }

    /// Total cycles across all domains.
    pub fn total_cycles(&self) -> u64 {
        self.per_domain.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    #[test]
    fn the_term_table_is_closed_and_pinned() {
        const PINNED: [(&str, u64); 58] = [
            ("alu", 1),
            ("mov_reg", 1),
            ("load", 4),
            ("store", 4),
            ("mul", 4),
            ("branch_not_taken", 1),
            ("branch_taken", 2),
            ("call", 4),
            ("ret", 4),
            ("string_per_elem", 1),
            ("cli_sti", 8),
            ("mmio_read", 250),
            ("mmio_write", 100),
            ("domain_switch", 2800),
            ("cold_delivery_refill", 3400),
            ("hypercall", 700),
            ("virq_deliver", 450),
            ("grant_map", 1050),
            ("grant_unmap", 950),
            ("grant_cache_hit", 90),
            ("pin_page", 400),
            ("copy_fallback", 120),
            ("bridge_per_packet", 580),
            ("copy_base", 60),
            ("copy_per_byte_x100", 235),
            ("tcp_tx_per_packet", 3950),
            ("tcp_rx_per_packet", 8650),
            ("paravirt_tax_per_packet", 1150),
            ("netfront_per_packet", 1750),
            ("upcall_overhead", 5950),
            ("upcall_enqueue", 140),
            ("upcall_flush_overhead", 1450),
            ("upcall_dispatch", 170),
            ("upcall_complete", 90),
            ("irq_dispatch", 350),
            ("itr_retune", 220),
            ("napi_switch", 180),
            ("napi_poll_dispatch", 260),
            ("early_drop", 40),
            ("skb_alloc", 180),
            ("dma_map", 120),
            ("spinlock", 40),
            ("eth_type_trans", 60),
            ("backend_tx_extra", 3600),
            ("backend_rx_extra", 7200),
            ("twin_glue_tx", 1400),
            ("twin_glue_rx", 600),
            ("pv_driver_guest", 250),
            ("tcp_tx_batch_marginal", 1900),
            ("tcp_rx_batch_marginal", 4300),
            // The eight that were literals at their charge sites.
            ("stlb_slow_path", 45),
            ("call_xlat", 8),
            ("netif_rx_demux", 220),
            ("printk", 120),
            ("link_query", 40),
            ("crc32", 60),
            ("support_default", 35),
            ("skb_free", 90),
        ];
        assert_eq!(Term::COUNT, 58);
        assert_eq!(Term::ALL.len(), Term::COUNT);
        let cost = CostParams::default();
        let table = Term::ALL.map(|t| (t.name(), cost[t]));
        assert_eq!(table, PINNED);
        for (i, t) in Term::ALL.into_iter().enumerate() {
            assert_eq!(t as usize, i, "{} is row {i}", t.name());
            let same_name = Term::ALL.iter().filter(|u| u.name() == t.name()).count();
            assert_eq!(same_name, 1, "{} names one row", t.name());
        }
    }

    #[test]
    fn the_event_table_is_closed() {
        assert_eq!(Event::ALL.len(), Event::COUNT);
        for (i, e) in Event::ALL.into_iter().enumerate() {
            assert_eq!(e as usize, i);
            let same_name = Event::ALL.iter().filter(|u| u.name() == e.name()).count();
            assert_eq!(same_name, 1, "{} names one row", e.name());
        }
    }

    #[test]
    fn attribution_follows_stack() {
        let mut m = Machine::new();
        m.meter.push_domain(CostDomain::DomU);
        m.pay(Term::Spinlock);
        m.meter.push_domain(CostDomain::Xen);
        m.pay(Term::CliSti);
        m.meter.pop_domain();
        m.pay(Term::Alu);
        m.meter.pop_domain();
        assert_eq!(m.meter.cycles(CostDomain::DomU), 41);
        assert_eq!(m.meter.cycles(CostDomain::Xen), 8);
        assert_eq!(m.meter.total_cycles(), 49);
    }

    #[test]
    fn default_domain_is_dom0() {
        let mut m = Machine::new();
        m.pay(Term::Load);
        assert_eq!(m.meter.cycles(CostDomain::Dom0), 4);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_pop_panics() {
        let mut m = CycleMeter::new();
        m.pop_domain();
    }

    #[test]
    fn events_are_counted_per_row() {
        let mut m = CycleMeter::new();
        assert_eq!(m.events().count(), 0);
        m.count_event(Event::StlbMiss);
        m.count_event(Event::StlbMiss);
        assert_eq!(m.event(Event::StlbMiss), 2);
        assert_eq!(m.event(Event::StlbCollision), 0);
        assert_eq!(m.events().collect::<Vec<_>>(), [(Event::StlbMiss, 2)]);
    }

    #[test]
    fn virtual_clock_tracks_all_charges_and_idle_time() {
        let mut m = Machine::new();
        assert_eq!(m.meter.now(), 0);
        m.meter.push_domain(CostDomain::Driver);
        m.pay(Term::MmioWrite);
        m.meter.pop_domain();
        m.pay_to(CostDomain::Xen, Term::Spinlock);
        assert_eq!(m.meter.now(), 140, "every payment advances the clock");
        m.meter.advance_idle(1000);
        assert_eq!(m.meter.now(), 1140);
        assert_eq!(m.meter.total_cycles(), 140, "idle time charges nothing");
        m.pay(Term::MovReg);
        assert_eq!(m.meter.now(), 1141);
        assert_eq!(m.meter.total_cycles(), 141);
    }

    #[test]
    fn copy_cycles_matches_paper_scale() {
        // Paper: ~3525 cycles to copy a 1500-byte packet (Fig. 8 text).
        let mut m = Machine::new();
        m.pay_copy(CostDomain::Xen, 1500);
        let cycles = m.meter.cycles(CostDomain::Xen);
        assert_eq!(cycles, 60 + 1500 * 235 / 100);
        assert!((3000..4200).contains(&cycles), "copy of 1500B = {cycles}");
    }
}
