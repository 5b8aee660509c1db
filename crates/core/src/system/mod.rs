//! The four measured systems (paper §6.1) and the TwinDrivers derivation
//! pipeline that builds the fourth.
//!
//! * [`Config::NativeLinux`] — driver in the bare kernel;
//! * [`Config::XenDom0`] — driver in dom0 on Xen (virtualisation tax, no
//!   per-packet domain switches for its own traffic);
//! * [`Config::XenGuest`] — the baseline "hosted" path: guest netfront →
//!   I/O channel (grants, copies, domain switches) → netback → bridge →
//!   dom0 driver (paper §2, Figure 1);
//! * [`Config::TwinDrivers`] — guest paravirtual driver → hypercall →
//!   **rewritten driver running in the hypervisor** via SVM → NIC
//!   (paper Figure 2).
//!
//! Driver code always executes instruction-by-instruction on the
//! simulated machine; everything around it (stack, hypervisor, backend)
//! is charged from the calibrated cost model. Cycle attribution follows
//! the paper's four categories.
//!
//! This file holds the types; `impl System` is split by pipeline stage
//! across the sibling files (`build` — option validation and the five
//! §3.1 build steps —, `shard`, `driver`, `timers`, `tx`, `rx`, `napi`,
//! `flush`, `metrics`) — the README's "How `System` is organised" is
//! the map.

use crate::iommu::Iommu;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use twin_kernel::{Dom0Kernel, LoadedDriver, RoutineId, SkBuff};
use twin_machine::{Cpu, Env, Event, ExecMode, ExternId, Fault, IntMap, Landed, Machine, SpaceId};
use twin_net::MacAddr;
use twin_nic::{ItrTuner, Nic};
use twin_rewriter::{RewriteOptions, RewriteStats, SvmHelper};
use twin_sched::VcpuSched;
use twin_svm::Svm;
pub use twin_xen::{DomId, UpcallMode};
use twin_xen::{GrantCache, HyperSupport, HypervisorDriver, Xen};

/// Code base of the VM driver instance in dom0.
pub const VM_CODE_BASE: u64 = 0x0800_0000;

/// Largest burst one `transmit_burst`/`receive_burst` call moves (the TX
/// ring holds 128 descriptors, so bigger bursts would only split).
pub const MAX_BURST: usize = 128;

/// Data base of the driver in dom0. Staggered against the heap base so
/// the hot adapter page does not share an stlb index with hot heap pages
/// (the stlb is direct-mapped on bits 12..24).
pub const DRIVER_DATA_BASE: u64 = 0x2815_0000;

/// Identity stlb table placement (VM instance, paper §5.1.2).
pub const IDENTITY_STLB_BASE: u64 = 0x2f00_0000;

/// Guest heap base (paravirtual driver buffers).
pub const GUEST_HEAP_BASE: u64 = 0x4000_0000;

/// Guest VA where a zero-copy buffer pool is mapped (one region per
/// granted guest, [`ZC_POOL_FRAMES`] pages).
pub const ZC_POOL_BASE: u64 = 0x5000_0000;

/// Pool slots granted per guest in zero-copy mode, per flow direction: a
/// flow that lands more frames than this in one flush pass overflows its
/// slice of the pool and the excess falls back to copies.
pub const ZC_POOL_FRAMES: usize = 64;

/// Bytes one zero-copy pool slot holds (the e1000's 2 KiB RX buffer
/// size); frames longer than this cannot land in a slot and take the
/// copy fallback.
pub const ZC_SLOT_BYTES: u32 = 2048;

/// Live mappings the grant cache holds before LRU eviction kicks in —
/// sized for every pool slot of a realistic flow set (64 flows × a
/// 64-frame pool), so steady state never evicts; pathological flow
/// churn degrades to extra map/unmap pairs, never to wrong behaviour.
pub const ZC_CACHE_CAPACITY: usize = 4096;

/// MAC address of the external traffic peer (the "client machines").
pub fn peer_mac() -> MacAddr {
    MacAddr::for_guest(1000)
}

/// How traffic is sharded across the NICs of a multi-NIC system (the
/// paper's testbed drove five NICs concurrently from one hypervisor
/// driver image; §6.1).
///
/// Sharding operates at *driver-invocation* granularity where possible so
/// burst amortization survives: a whole burst lands on one NIC, and the
/// next burst may land on another. [`ShardPolicy::FlowHash`] pins every
/// flow to one NIC (like receive-side scaling / transmit packet
/// steering), which preserves per-flow frame order by construction. With
/// a single NIC every policy degenerates to the exact PR 1 burst path on
/// NIC 0.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ShardPolicy {
    /// All traffic on NIC 0. The default, and the single-NIC degenerate
    /// case.
    #[default]
    Static,
    /// Successive bursts rotate across NICs round-robin (bonding mode
    /// balance-rr at burst granularity; keeps whole-burst amortization).
    RoundRobin,
    /// Frames hash by flow id to a NIC: same flow, same NIC, always —
    /// per-flow ordering is preserved across any number of devices.
    FlowHash,
    /// Scheduler-aware placement: a guest's flows land on the NIC whose
    /// softirq CPU matches the guest's vCPU (per the
    /// [`twin_sched::VcpuSched`] topology map), so deliveries stay
    /// cache-warm. Flows of guests with no vCPU — every flow until
    /// [`System::sched_add_vcpu`] registers one — fall back to the exact
    /// [`ShardPolicy::FlowHash`] placement. vCPUs never move, so a
    /// flow's placement is permanent.
    Affinity,
}

impl ShardPolicy {
    /// The device [`ShardPolicy::FlowHash`] places `flow` on among
    /// `nics` devices (a zero count reads as one): a multiplicative hash
    /// of the flow id, so a flow's device depends on nothing but its id
    /// and the device count.
    pub fn flow_hash_dev(flow: u32, nics: u32) -> u32 {
        (flow.wrapping_mul(2_654_435_761) >> 16) % nics.max(1)
    }
}

/// Which system is being measured.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Config {
    /// Native Linux ("Linux").
    NativeLinux,
    /// Driver domain on Xen ("dom0").
    XenDom0,
    /// Unoptimised Xen guest ("domU").
    XenGuest,
    /// TwinDrivers guest ("domU-twin").
    TwinDrivers,
}

impl Config {
    /// All four, in the paper's bar order.
    pub const ALL: [Config; 4] = [
        Config::XenGuest,
        Config::TwinDrivers,
        Config::XenDom0,
        Config::NativeLinux,
    ];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Config::NativeLinux => "Linux",
            Config::XenDom0 => "dom0",
            Config::XenGuest => "domU",
            Config::TwinDrivers => "domU-twin",
        }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Interrupt moderation of every NIC ([`SystemOptions::itr`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Itr {
    /// The interval programmed into every NIC's `ITR` register at build
    /// time, in [`twin_nic::ITR_UNIT_CYCLES`]-cycle units (the real
    /// part's 256 ns granularity). `Fixed(0)` — the default — disables
    /// moderation and is cycle-exact with the unmoderated path.
    /// Per-device values can be set later with [`System::set_itr`].
    Fixed(u32),
    /// Closed-loop per-device auto-tuning ([`twin_nic::ItrTuner`],
    /// modeled on Linux's `e1000_update_itr` state machine), starting
    /// unmoderated: every [`twin_nic::AUTOTUNE_WINDOW_CYCLES`] of virtual
    /// time each device's receive counters are classified into a latency
    /// regime and the `ITR` register is stepped one
    /// [`twin_nic::ITR_LADDER`] rung toward that regime's target, through
    /// the same MMIO path [`System::set_itr`] uses.
    Auto,
}

/// Options for building a [`System`]. Every field is an axis a sweep, a
/// figure or a benchmark workload varies (`tests/options.rs` pins the
/// list); a value only one caller ever sets is a constant instead.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SystemOptions {
    /// Rewriter configuration (TwinDrivers only).
    pub rewrite: RewriteOptions,
    /// Number of fast-path routines forced onto the upcall path
    /// (Figure 10; 0 = the paper's best configuration).
    pub upcall_count: usize,
    /// Bytes of the guest packet copied into the dom0 sk_buff header on
    /// transmit (paper §5.3 uses "up to the first 96 bytes").
    pub header_copy_bytes: u32,
    /// Enable the IOMMU extension (TwinDrivers only; paper §4.5 proposes
    /// it as the fix for DMA attacks; not in the paper's implementation).
    pub iommu: bool,
    /// Alternative driver assembly source (fault-injection experiments);
    /// `None` uses the stock e1000 driver.
    pub driver_source: Option<String>,
    /// Number of NICs the system drives (clamped to
    /// 1..=[`twin_kernel::e1000::MAX_NICS`]). Each gets its own MMIO window, rings,
    /// IRQ line, softirq source and adapter slot.
    pub num_nics: usize,
    /// How traffic maps to NICs when `num_nics > 1`.
    pub shard: ShardPolicy,
    /// Per-guest fairness quantum for the receive demux flush: at most
    /// this many frames are copied into one guest per round before every
    /// other pending guest gets its virtual interrupt, so a flooding
    /// guest cannot starve others' virq latency. The guest-stack wakeup
    /// cost still amortises across the whole flush, so per-packet cycle
    /// figures are unchanged; only backlogs beyond the quantum pay an
    /// extra (cheap) virq per round.
    pub rx_flush_quantum: usize,
    /// How upcalls to dom0 execute (TwinDrivers only):
    /// [`UpcallMode::Sync`] is the paper's per-call switch-pair (the
    /// default — cycle-exact with the pre-engine path);
    /// [`UpcallMode::Deferred`] queues policy-eligible calls and drains
    /// the ring in one switch-pair at the end of each burst pass (or on
    /// queue-full/high-water), amortizing the two switches per *flush*.
    pub upcall_mode: UpcallMode,
    /// Interrupt moderation: a fixed `ITR` interval or the closed-loop
    /// tuner.
    pub itr: Itr,
    /// Deadline-driven upcall flush (deferred mode only): the first
    /// enqueue into an empty ring arms a virtual timer this many cycles
    /// ahead, so an idle system's queued upcalls complete within the
    /// deadline even when no burst-pass flush point arrives. `None`
    /// (the default) disables the timer and is cycle-exact with the
    /// PR 3 path.
    pub upcall_flush_deadline_cycles: Option<u64>,
    /// Zero-copy grant-mapped datapath (guest configurations): RX/TX
    /// buffer pools are granted once, mapped on first touch through the
    /// [`twin_xen::GrantCache`] and recycled via an index ring, so the
    /// per-packet grant-copy (and the baseline path's per-buffer
    /// map/unmap pair) disappears in steady state. Frames that cross a
    /// protection domain anyway — oversized, pool-exhausted, or headed
    /// to a guest whose pool was never granted — take the copy
    /// fallback. `false` (the default) is cycle-exact with the copy
    /// path.
    pub zero_copy: bool,
    /// NAPI-style interrupt→poll mode switching (TwinDrivers only): the
    /// poll weight — the real `e1000_clean` budget — in frames per poll
    /// pass. When non-zero, an RX interrupt acks the cause, masks the
    /// device via `IMC` and hands the ring to a budgeted softirq poll
    /// loop; interrupts re-arm via `IMS` only when a pass drains below
    /// this weight. Under sustained overload the device takes **one**
    /// interrupt instead of one per burst — the canonical
    /// receive-livelock defence. 0 (the default) keeps the pure
    /// interrupt path, bit-exact with every prior baseline. Poll mode
    /// takes precedence over the `ITR` moderation latch: a masked
    /// device never joins the moderated-pending set.
    pub napi_weight: usize,
    /// Per-guest weights for the receive-demux flush's deficit-round-
    /// robin accounting, as `(domain id, weight)` pairs: each round a
    /// guest's deficit grows by `rx_flush_quantum × weight` frames and
    /// it is served up to its deficit. Guests not listed (and every
    /// guest when the list is empty — the default) get weight 1, which
    /// is exactly the PR 2 quantum behaviour, bit-exact.
    pub guest_weights: Vec<(u32, u32)>,
    /// Early-drop admission watermark (frames): when a guest's demux
    /// backlog reaches this bound, further frames toward it are dropped
    /// at RX-descriptor refill time — *before* the ring, the reap and
    /// the demux spend anything on them — for a compare and a counter
    /// bump ([`twin_machine::Term::EarlyDrop`]). `None` (the
    /// default) admits everything, bit-exact with the prior path.
    pub rx_backlog_watermark: Option<usize>,
    /// Bound on each guest's demux queue ([`twin_xen::Domain`]
    /// `rx_queue`): past it the demux drops frames *after* the reap
    /// work is spent — the receive-livelock drop point the open-loop
    /// harness measures. `None` (the default) keeps the queue
    /// unbounded, bit-exact with the prior path.
    pub rx_queue_cap: Option<usize>,
    /// Enable the flight recorder ([`twin_trace::FlightRecorder`]) at
    /// build time. Recording is pure bookkeeping outside the charged
    /// path — a traced run's cycle accounting, wire frames and stats are
    /// bit-identical to an untraced run's — so this knob only controls
    /// whether the event ring fills. `false` (the default) records
    /// nothing.
    pub tracing: bool,
}

impl Default for SystemOptions {
    fn default() -> SystemOptions {
        SystemOptions {
            rewrite: RewriteOptions::default(),
            upcall_count: 0,
            header_copy_bytes: 96,
            iommu: false,
            driver_source: None,
            num_nics: 1,
            shard: ShardPolicy::default(),
            rx_flush_quantum: 64,
            upcall_mode: UpcallMode::Sync,
            itr: Itr::Fixed(0),
            upcall_flush_deadline_cycles: None,
            zero_copy: false,
            napi_weight: 0,
            guest_weights: Vec::new(),
            rx_backlog_watermark: None,
            rx_queue_cap: None,
            tracing: false,
        }
    }
}

/// One quarantine episode in progress: the fault was detected and the
/// device torn down, but [`System::recover_device`] has not run yet.
#[derive(Clone, Debug)]
struct QuarantineEpisode {
    /// Abort reason from [`twin_xen::hyperdrv::abort_reason_for`].
    reason: String,
    /// Virtual-clock stamp at quarantine entry.
    at: u64,
    /// Queued deferred upcalls replayed natively during teardown.
    replayed: u32,
    /// Upcalls discarded plus in-flight frames lost — the bounded loss.
    dropped: u32,
    /// Domains whose zero-copy grants were revoked, owed a re-grant.
    revoked_doms: Vec<u32>,
    /// Grant mappings revoked (each paid its `grant_unmap`).
    revoked_mappings: usize,
}

/// What the system tracks per NIC beyond the device model
/// ([`World::nics`]) and its net_device pointer ([`System::netdevs`]).
/// There is always exactly one per device; a feature that is off leaves
/// its field at the neutral value, so nothing asks "is this feature on"
/// before indexing.
#[derive(Clone, Debug, Default)]
struct DevState {
    /// Virtual-clock stamp of the device's current NAPI poll-mode entry.
    /// `Some` *is* poll mode — the RX interrupt is masked and the
    /// budgeted poll loop owns the ring; `None` is interrupt-driven
    /// (always, when [`SystemOptions::napi_weight`] is 0).
    poll_entered_at: Option<u64>,
    /// Poll-mode residency over completed episodes, in virtual cycles;
    /// `nic{i}.poll_cycles` in [`System::metrics`] adds the in-progress
    /// episode.
    poll_cycles: u64,
    /// Closed-loop `ITR` tuner ([`Itr::Auto`]; `None` leaves the fixed
    /// interval untouched).
    tuner: Option<ItrTuner>,
    /// Gated-wait anchor `(rx_packets, cycles)` captured when the
    /// device's latched cause starts waiting on its moderation window
    /// (tuned devices only). Resolved when the wait ends: a wait whose
    /// arrival rate stayed below the busy floor is reported to the tuner
    /// as idle time (the wait of a *quiet* gated device is
    /// load-idleness; the wait of a backlogged one is not). Pure
    /// bookkeeping, no cycles.
    gate_anchor: Option<(u64, u64)>,
    /// The episode between fault detection and recovery.
    quarantine: Option<QuarantineEpisode>,
    /// The fault a dom0-instance call toward this device ended in: the
    /// invocation left the adapter as it stopped, its TX lock
    /// possibly held, so no later call runs the driver toward it.
    failed: Option<Fault>,
}

/// What the system tracks per domain id beyond the hypervisor's own
/// [`twin_xen::Domain`]. Entry 0 is the driver domain (or the native
/// stack); every guest gets one when it is added.
#[derive(Clone, Debug)]
struct GuestState {
    /// DRR flush weight ([`SystemOptions::guest_weights`]; 1 unless
    /// listed, never 0).
    weight: u32,
    /// Deficit-round-robin counter (frames), carried across flush
    /// rounds; reset when the guest's queue drains.
    deficit: u64,
    /// Arrival-to-delivery samples of this domain's frames, filled only
    /// after [`System::track_guest_latency`] — the well-behaved-guest
    /// p99 the livelock acceptance is about.
    latency: twin_trace::SampleReservoir,
    /// Cursor into this endpoint's delivered-frame log.
    sample_cursor: usize,
    /// Whether the guest's zero-copy pool is granted: the build grants
    /// the primary guest; later guests opt in via
    /// [`System::grant_zero_copy_pool`]. Frames toward an ungranted
    /// domain take the copy fallback.
    zc_granted: bool,
}

impl GuestState {
    /// The neutral state of domain `id`, with its weight taken from the
    /// options whether or not the domain existed when they were written.
    fn new(opts: &SystemOptions, id: u32) -> GuestState {
        let weight = opts.guest_weights.iter().rev().find(|(g, _)| *g == id);
        GuestState {
            weight: weight.map_or(1, |(_, w)| (*w).max(1)),
            deficit: 0,
            latency: twin_trace::SampleReservoir::new(crate::measure::RX_LATENCY_RESERVOIR),
            sample_cursor: 0,
            zc_granted: false,
        }
    }
}

/// Outcome of one fault → quarantine → recovery episode, as returned by
/// [`System::recover_device`] and kept in [`System::recovery_log`]. All
/// stamps are virtual-clock cycles, so `recovered_at - quarantined_at`
/// is the recovery latency the fault sweep measures.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// The recovered device.
    pub dev: u32,
    /// The abort reason that triggered the episode.
    pub reason: String,
    /// Virtual-clock stamp at quarantine entry.
    pub quarantined_at: u64,
    /// Virtual-clock stamp when the device re-entered service.
    pub recovered_at: u64,
    /// Queued deferred upcalls replayed natively during teardown.
    pub replayed: u32,
    /// Upcalls discarded plus in-flight frames lost — the bounded,
    /// counted loss for this episode.
    pub dropped: u32,
    /// Grant mappings revoked at quarantine (re-granted on recovery).
    pub revoked_mappings: usize,
}

/// Errors surfaced by system construction or packet operations.
#[derive(Debug)]
pub enum SystemError {
    /// Machine fault (outside the hypervisor driver).
    Fault(Fault),
    /// A hypervisor-driver invocation was aborted (SVM caught an illegal
    /// access, watchdog fired, …). The hypervisor itself keeps running;
    /// the faulted device is quarantined and reset at its next use.
    DriverAborted(String),
    /// Driver assembly/rewriting/loading failed.
    Build(String),
    /// The NIC receive ring had no buffers.
    RxRingFull,
    /// A call toward a device whose dom0 driver instance faulted
    /// earlier, with that fault. Nothing resets a dom0 device.
    DeviceFailed {
        /// The device.
        dev: u32,
        /// The fault its driver call ended in.
        fault: Fault,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Fault(e) => write!(f, "machine fault: {e}"),
            SystemError::DriverAborted(r) => write!(f, "hypervisor driver aborted: {r}"),
            SystemError::Build(r) => write!(f, "system build failed: {r}"),
            SystemError::RxRingFull => write!(f, "receive ring out of buffers"),
            SystemError::DeviceFailed { dev, fault } => {
                write!(
                    f,
                    "device {dev} failed at an earlier dom0 driver fault: {fault}"
                )
            }
        }
    }
}

impl Error for SystemError {}

impl From<Fault> for SystemError {
    fn from(e: Fault) -> SystemError {
        SystemError::Fault(e)
    }
}

/// The mutable environment: dom0 kernel, devices, hypervisor pieces.
/// Implements [`Env`]; extern dispatch is selected by the executing
/// privilege mode, which is equivalent to the paper's per-instance symbol
/// resolution (§5.2).
#[derive(Clone, Debug)]
pub struct World {
    /// The dom0 kernel model.
    pub kernel: Dom0Kernel,
    /// NIC device models.
    pub nics: Vec<Nic>,
    /// The hypervisor (absent for native Linux).
    pub xen: Option<Xen>,
    /// Hypervisor support routines + upcalls (TwinDrivers only).
    pub hyper: Option<HyperSupport>,
    /// Identity SVM for the VM instance of the rewritten driver.
    pub svm_vm: Option<Svm>,
    /// Hypervisor SVM for the hypervisor instance.
    pub svm_hyp: Option<Svm>,
    /// Optional IOMMU (extension).
    pub iommu: Option<Iommu>,
    /// What each extern of the machine resolved to, indexed by
    /// [`twin_machine::ExternId`]: filled the first time the trampoline is
    /// called, so a crossing after that is an index.
    crossings: Vec<Option<Crossing>>,
}

/// What a driver→kernel crossing goes to, resolved once from the extern's
/// name in the loader's order (paper §5.2): an SVM helper of the calling
/// instance's table, else a support routine.
#[derive(Copy, Clone, Debug)]
enum Crossing {
    Svm(SvmHelper),
    Routine(RoutineId),
    /// Neither: the call faults.
    Unknown,
}

impl World {
    /// The hypervisor, for code that runs only on a hosted
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`SystemError::Build`] on native Linux.
    pub(crate) fn xen_mut(&mut self) -> Result<&mut Xen, SystemError> {
        self.xen
            .as_mut()
            .ok_or_else(|| SystemError::Build("no hypervisor in this configuration".into()))
    }

    /// What extern `id` of `m` resolves to, resolving it on first use.
    fn crossing(&mut self, id: ExternId, m: &Machine) -> Crossing {
        if let Some(Some(resolved)) = self.crossings.get(id.0) {
            return *resolved;
        }
        let name = m.extern_name(id).unwrap_or_default();
        let resolved = match (SvmHelper::lookup(name), RoutineId::lookup(name)) {
            (Some(helper), _) => Crossing::Svm(helper),
            (None, Some(routine)) => Crossing::Routine(routine),
            (None, None) => Crossing::Unknown,
        };
        if self.crossings.len() <= id.0 {
            self.crossings.resize(id.0 + 1, None);
        }
        self.crossings[id.0] = Some(resolved);
        resolved
    }

    /// Runs support routine `id` for the instance `cpu` is executing:
    /// the hypervisor instance's calls go to [`HyperSupport`] (native
    /// Table 1 bodies, upcall stubs for the rest), dom0's to the kernel.
    pub(super) fn call_routine(
        &mut self,
        id: RoutineId,
        m: &mut Machine,
        cpu: &mut Cpu,
    ) -> Result<(), Fault> {
        if cpu.mode != ExecMode::Hypervisor {
            return self.kernel.handle_extern(id, m, cpu);
        }
        match (&mut self.hyper, &mut self.xen, &mut self.svm_hyp) {
            (Some(hyper), Some(xen), Some(svm)) => {
                hyper.handle_extern(id, m, cpu, &mut self.kernel, xen, svm)
            }
            _ => Err(Fault::UnknownExtern(id.name().to_string())),
        }
    }
}

impl Env for World {
    /// An SVM helper runs against the calling instance's table — the VM
    /// instance of a rewritten driver resolves the helpers to the
    /// identity table (§5.1.2), with no stack window; a support routine
    /// runs for the calling instance as `call_routine` says.
    fn extern_call(&mut self, id: ExternId, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault> {
        let hyp = cpu.mode == ExecMode::Hypervisor;
        let helper = match self.crossing(id, m) {
            Crossing::Routine(routine) => return self.call_routine(routine, m, cpu),
            Crossing::Svm(helper) => Some(helper),
            Crossing::Unknown => None,
        };
        let svm = match hyp {
            true => self.svm_hyp.as_mut(),
            false => self.svm_vm.as_mut(),
        };
        match (helper, svm) {
            (Some(helper), Some(svm)) => twin_xen::svm_helper(helper, m, cpu, svm, hyp),
            _ => Err(Fault::UnknownExtern(
                m.extern_name(id).unwrap_or_default().to_string(),
            )),
        }
    }

    fn mmio_read(
        &mut self,
        _m: &mut Machine,
        dev: u32,
        offset: u64,
        _w: twin_isa::Width,
    ) -> Result<u32, Fault> {
        Ok(self.nics[dev as usize].mmio_read(offset))
    }

    fn mmio_write(
        &mut self,
        m: &mut Machine,
        dev: u32,
        offset: u64,
        _w: twin_isa::Width,
        val: u32,
    ) -> Result<(), Fault> {
        if offset == twin_nic::regs::TDT {
            // The posted doorbell write: one per driver kick, however
            // many descriptors the tail move covers (the burst metric).
            m.meter.count_event(Event::Doorbell);
            if let Some(iommu) = &mut self.iommu {
                iommu.check_tx_ring(m, &mut self.nics[dev as usize], val)?;
            }
        }
        if offset == twin_nic::regs::RDT {
            // Posted RX buffers are DMA-write targets: validate them at
            // the same doorbell boundary the TX ring gets.
            if let Some(iommu) = &mut self.iommu {
                iommu.check_rx_ring(m, &mut self.nics[dev as usize], val)?;
            }
        }
        self.nics[dev as usize].mmio_write(&mut m.phys, offset, val);
        Ok(())
    }
}

/// The measured guest of a guest configuration: its domain, address
/// space, and the machine address of its first payload page, which the
/// TwinDrivers transmit glue chains as an sk_buff fragment (paper §5.3).
#[derive(Copy, Clone, Debug)]
struct Endpoint {
    gid: DomId,
    gspace: SpaceId,
    tx_frag: u64,
}

/// The parts one configuration has beyond dom0 and its NICs (paper
/// §6.1): [`Config`] is read off the variant, so "is there a guest" or
/// "is there a hypervisor driver" is a match, never a check that can
/// fail.
#[derive(Clone, Debug)]
enum Datapath {
    Native,
    Dom0,
    Guest(Endpoint),
    /// The guest plus the hypervisor driver instance derived in §3.1
    /// step 4 and the statistics of the rewrite that made it.
    Twin {
        endpoint: Endpoint,
        hyperdrv: HypervisorDriver,
        stats: RewriteStats,
    },
}

/// One fully constructed, measurable system.
#[derive(Clone, Debug)]
pub struct System {
    /// The simulated machine.
    pub machine: Machine,
    /// Kernel, devices and hypervisor pieces.
    pub world: World,
    /// The dom0 / native driver instance.
    pub driver: LoadedDriver,
    /// net_device pointers, one per NIC in device order.
    pub netdevs: Vec<u64>,
    /// The configuration's own parts, assigned once the §3.1 build
    /// steps have made them.
    datapath: Datapath,
    /// Per-round log of the most recent receive-demux flush:
    /// `(round, guest, frames delivered)` — the fairness quantum's
    /// observable behaviour (a starved guest would only appear in late
    /// rounds).
    pub rx_flush_log: Vec<(usize, DomId, usize)>,
    /// The options the system was built from, validated: every clamp and
    /// configuration requirement is applied once at the top of
    /// [`System::build_with`], so readers take the fields as they are.
    opts: SystemOptions,
    /// Per-NIC state, one per device in device order.
    devs: Vec<DevState>,
    /// Per-domain state, indexed by domain id (entry 0: the driver
    /// domain / native stack).
    guests: Vec<GuestState>,
    /// Round-robin cursor for [`ShardPolicy::RoundRobin`].
    rr_next: u32,
    /// Devices holding a latched interrupt cause whose moderation window
    /// is still closed: the virtual moderation timer delivers them when
    /// the window opens (no delivery is ever lost — the `ICR` cause
    /// stays latched in hardware meanwhile). Insertion-ordered: when
    /// several windows open in one service call, this is the order the
    /// devices are reaped in.
    moderated_pending: Vec<u32>,
    /// Cycles-to-delivery samples for frames completed in the current
    /// measurement window (the latency side of the moderation sweep) —
    /// a bounded reservoir, so arbitrarily long paced runs keep a fixed
    /// footprint while every committed sweep stays exact (it holds far
    /// fewer samples than [`crate::measure::RX_LATENCY_RESERVOIR`]).
    rx_latency: twin_trace::SampleReservoir,
    /// Whether deliveries also feed the per-guest reservoirs
    /// ([`System::track_guest_latency`]).
    guest_latency_tracked: bool,
    /// Live grant mappings of the zero-copy pools (`None` when the mode
    /// is off — the copy path allocates nothing).
    grant_cache: Option<GrantCache>,
    /// Completed recovery reports in episode order — pure bookkeeping
    /// (never charged), the fault sweep's latency source.
    recovery_log: Vec<RecoveryReport>,
    /// vCPU scheduler model (built by the first
    /// [`System::sched_add_vcpu`]; `None` leaves every decision on the
    /// scheduler-oblivious path, as a model with no vCPU would).
    sched: Option<VcpuSched>,
    /// Permanent [`ShardPolicy::Affinity`] placements: flow → device.
    /// Populated only for guests with a vCPU; FlowHash fallback flows
    /// are never recorded.
    affinity_flow_dev: BTreeMap<u32, u32>,
    dom0: SpaceId,
    dom0_stack_top: u64,
    seq: u64,
    /// Dom0 VA of the `skb*[MAX_BURST]` array handed to
    /// `e1000_xmit_batch` (both driver instances read it — it lives in
    /// dom0 memory like all driver data).
    tx_batch_buf: u64,
    /// Address of each [`DriverOp`] kind's entry point in the instance
    /// [`System::call_driver`] runs — the `*_dev` variant on multi-NIC
    /// systems — resolved once, when the system is built.
    fast_entries: [u64; 4],
}

/// Whether a landed frame is still in its device's ring: the ring is a
/// FIFO, so the frames software has not handed back are the device's
/// last `rx_pending` arrivals.
fn in_ring(landed: &Landed, nics: &[Nic]) -> bool {
    let nic = &nics[landed.dev as usize];
    nic.stats().rx_packets.saturating_sub(landed.nth) < u64::from(nic.rx_pending())
}

/// What an arrival does about frames that found no free RX descriptor —
/// the first of the two policies that separate the arrival entry points
/// ([`System::land_frames`] is everything they share).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Overrun {
    /// Closed loop: the sender waits. Leftovers stay pending for the
    /// next hardware pass, and a ring wedged behind a closed moderation
    /// window forces its interrupt so that pass can make room.
    Retry,
    /// Open loop: the schedule does not wait. Leftovers are gone at the
    /// wire; the NIC's `rx_missed` counted them.
    Drop,
}

/// What an interrupt the moderation window allows runs — the second
/// policy.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum OnIrq {
    /// Closed loop: the device joins the software pass (reap, then one
    /// demux flush over every raised device) that the caller runs once
    /// all groups have landed.
    FullPass,
    /// Open loop: the per-arrival ISR runs at once — ack-and-mask into
    /// poll mode on a NAPI system, otherwise reap every filled
    /// descriptor (into the demux queues for TwinDrivers) — and the
    /// flush is left to the consumer, whenever the CPU next gets a gap.
    /// This is the livelock-prone discipline.
    IsrReap,
}

/// Zero-copy pool occupancy per `(domain, flow)` across one pass: each
/// landed frame takes the next slot of its flow's index ring.
type ZcOccupancy = IntMap<(u32, u32), usize>;

/// The e1000 fast-path entry points [`System::call_driver`] can invoke,
/// with the arguments that vary per call.
#[derive(Copy, Clone, Debug)]
enum DriverOp {
    /// `e1000_xmit_frame`: one sk_buff (the exact per-packet path).
    XmitFrame(SkBuff),
    /// `e1000_xmit_batch`: the first `n` pointers of the burst array.
    XmitBatch(u32),
    /// `e1000_poll_rx_budget`: reap at most this many descriptors.
    PollRxBudget(u32),
    /// `e1000_intr`: the interrupt handler.
    Intr,
}

impl DriverOp {
    /// Each kind's entry point, on one NIC and as the `*_dev` variant
    /// that takes a trailing device id, indexed by [`DriverOp::kind`].
    const ENTRIES: [[&'static str; 2]; 4] = [
        ["e1000_xmit_frame", "e1000_xmit_frame_dev"],
        ["e1000_xmit_batch", "e1000_xmit_batch_dev"],
        ["e1000_poll_rx_budget", "e1000_poll_rx_budget_dev"],
        ["e1000_intr", "e1000_intr_dev"],
    ];

    /// The row of [`DriverOp::ENTRIES`] and of `System::fast_entries`.
    fn kind(self) -> usize {
        match self {
            DriverOp::XmitFrame(_) => 0,
            DriverOp::XmitBatch(_) => 1,
            DriverOp::PollRxBudget(_) => 2,
            DriverOp::Intr => 3,
        }
    }
}

mod build;
pub use build::Snapshot;
mod driver;
mod flush;
mod metrics;
mod napi;
mod rx;
mod shard;
mod timers;
mod tx;
