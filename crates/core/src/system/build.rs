//! Construction: option validation, then the derivation pipeline of the
//! paper's §3.1 as five steps — the machine with dom0 and its NICs, the
//! VM driver instance (rewritten for TwinDrivers) loaded into dom0 and
//! run to initialise every NIC, the primary guest, the hypervisor
//! instance derived from the same module, the zero-copy pool — and the
//! domains and vCPUs added to a built system.

use super::{
    Config, Datapath, DevState, Endpoint, GuestState, Itr, System, SystemError, SystemOptions,
    UpcallMode, World, DRIVER_DATA_BASE, GUEST_HEAP_BASE, IDENTITY_STLB_BASE, MAX_BURST,
    VM_CODE_BASE, ZC_CACHE_CAPACITY,
};
use crate::iommu::Iommu;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use twin_isa::asm::assemble;
use twin_isa::Module;
use twin_kernel::{e1000, load_driver, Dom0Kernel, LoadedDriver, RxMode, MMIO_BASE};
use twin_machine::{ExecMode, Machine, MemImage, PageEntry, PhysMem, SpaceId, PAGE_SIZE};
use twin_net::MacAddr;
use twin_nic::{ItrTuner, Nic, AUTOTUNE_WINDOW_CYCLES, MMIO_WINDOW};
use twin_rewriter::{rewrite, RewriteOptions, RewriteStats};
use twin_sched::VcpuSched;
use twin_svm::Svm;
use twin_xen::{
    load_hypervisor_driver, DomId, GrantCache, HyperSupport, HypervisorDriver, Xen, HYP_CODE_BASE,
};

/// sk_buffs in dom0's pool on a one-NIC system; every extra NIC adds 256
/// (it posts 127 RX buffers at open), so multi-NIC systems keep the same
/// transmit headroom.
const DOM0_POOL_SKBS: usize = 1024;

/// Applies every clamp and rejects a knob the configuration cannot
/// honour, so no later reader re-checks `self.opts` and no knob is a
/// silent no-op.
fn validate(config: Config, opts: &SystemOptions) -> Result<SystemOptions, SystemError> {
    let mut opts = opts.clone();
    opts.num_nics = opts.num_nics.clamp(1, e1000::MAX_NICS);
    opts.header_copy_bytes = opts.header_copy_bytes.clamp(26, 1024);
    opts.rx_flush_quantum = opts.rx_flush_quantum.max(1);
    // The upcall engine, NAPI polling, the IOMMU hook-up, the demux
    // queues with their DRR flush and the transmit glue's header copy
    // all belong to the hypervisor driver — only TwinDrivers has them;
    // the zero-copy pools and the admission watermark belong to a guest.
    let twin = (config == Config::TwinDrivers, "the TwinDrivers");
    let guest = (
        matches!(config, Config::XenGuest | Config::TwinDrivers),
        "a guest",
    );
    let deferred = opts.upcall_mode == UpcallMode::Deferred;
    let deadline = opts.upcall_flush_deadline_cycles.is_some();
    let watermark = opts.rx_backlog_watermark.is_some();
    for (on, knob, (honoured, needs)) in [
        (opts.upcall_count > 0, "upcall_count", twin),
        (opts.iommu, "iommu", twin),
        (deferred, "upcall_mode", twin),
        (deadline, "upcall_flush_deadline_cycles", twin),
        (opts.napi_weight > 0, "napi_weight", twin),
        (opts.rx_queue_cap.is_some(), "rx_queue_cap", twin),
        (!opts.guest_weights.is_empty(), "guest_weights", twin),
        (opts.rx_flush_quantum != 64, "rx_flush_quantum", twin),
        (opts.header_copy_bytes != 96, "header_copy_bytes", twin),
        (opts.zero_copy, "zero_copy", guest),
        (watermark, "rx_backlog_watermark", guest),
    ] {
        if on && !honoured {
            return Err(SystemError::Build(format!(
                "{knob} requires {needs} configuration"
            )));
        }
    }
    Ok(opts)
}

/// Step 1: the machine, dom0 with one MMIO window per NIC, the NICs, and
/// Xen under everything but native Linux.
fn boot_dom0(config: Config, num_nics: usize) -> Result<(Machine, World, SpaceId), SystemError> {
    let mut machine = Machine::new();
    let dom0 = machine.new_space();
    // One MMIO window per device, contiguous in dom0's address space
    // (`ioremap(dev)` hands out `MMIO_BASE + dev * MMIO_WINDOW`).
    for dev in 0..num_nics as u64 {
        for p in 0..(MMIO_WINDOW / PAGE_SIZE) {
            machine.space_mut(dom0).map(
                MMIO_BASE + dev * MMIO_WINDOW + p * PAGE_SIZE,
                PageEntry::mmio(dev as u32, p),
            );
        }
    }
    machine.map_stack(
        dom0,
        twin_kernel::DOM0_STACK_BASE,
        twin_kernel::DOM0_STACK_PAGES,
    )?;
    let pool = DOM0_POOL_SKBS + 256 * (num_nics - 1);
    let kernel = Dom0Kernel::new(&mut machine, dom0, pool)?;
    let nics = (0..num_nics as u32)
        .map(|dev| {
            // NIC 0 keeps dom0's classic MAC (the degenerate path is
            // bit-identical); extra NICs get their own hardware MACs.
            let mac = if dev == 0 {
                MacAddr::for_guest(0)
            } else {
                MacAddr::for_nic(dev)
            };
            Nic::new(dev, mac)
        })
        .collect();
    let world = World {
        kernel,
        nics,
        xen: (config != Config::NativeLinux).then(|| Xen::new(dom0)),
        hyper: None,
        svm_vm: None,
        svm_hyp: None,
        iommu: None,
        crossings: Vec::new(),
    };
    Ok((machine, world, dom0))
}

/// Derivations [`derive`] keeps. The default driver as assembled and
/// as rewritten, the rewriter's ablations and the fault sweep's three
/// sources fit; a sweep over more variants re-derives the least recently
/// used. The memo stays beside [`PAIRS`] because sweep points differ in
/// their options, and so in their snapshots, while sharing one
/// derivation.
const DERIVED_CAP: usize = 8;

/// One driver module derived from `source`: assembled, then rewritten
/// under `rewrite` unless that is `None`.
struct Derivation {
    source: String,
    rewrite: Option<RewriteOptions>,
    module: Arc<Module>,
    stats: RewriteStats,
}

/// The derivations made in this process, least recently used first.
static DERIVED: Mutex<Vec<Derivation>> = Mutex::new(Vec::new());

/// The driver module assembled from `source` and, given options,
/// rewritten under them, with the rewrite statistics (all zero for a
/// module as assembled). As in the paper, a driver is derived once: a
/// process builds each (source, options) pair's module the first time
/// and shares it after. An error is returned, never kept, and a
/// poisoned lock only means deriving afresh.
fn derive(
    source: &str,
    rewrite_opts: Option<&RewriteOptions>,
) -> Result<(Arc<Module>, RewriteStats), SystemError> {
    let same = |d: &Derivation| d.source == source && d.rewrite.as_ref() == rewrite_opts;
    if let Ok(mut derived) = DERIVED.lock() {
        if let Some(i) = derived.iter().position(same) {
            let d = derived.remove(i);
            let found = (Arc::clone(&d.module), d.stats);
            derived.push(d);
            return Ok(found);
        }
    }
    let build_err = |e: &dyn std::fmt::Display| SystemError::Build(e.to_string());
    let mut module = assemble("e1000", source).map_err(|e| build_err(&e))?;
    let mut stats = RewriteStats::default();
    if let Some(opts) = rewrite_opts {
        let out = rewrite(&module, opts).map_err(|e| build_err(&e))?;
        module = out.module;
        stats = out.stats;
    }
    let module = Arc::new(module);
    if let Ok(mut derived) = DERIVED.lock() {
        // Another thread may have derived the same pair meanwhile.
        if !derived.iter().any(same) {
            if derived.len() == DERIVED_CAP {
                derived.remove(0);
            }
            derived.push(Derivation {
                source: source.to_owned(),
                rewrite: rewrite_opts.cloned(),
                module: Arc::clone(&module),
                stats,
            });
        }
    }
    Ok((module, stats))
}

/// Pairs [`System::build_with`] keeps. The benchmark's `paper_b1`
/// builds four pairs pass after pass, and every other workload its
/// anchor's four and one of its own; a sweep builds one point's systems
/// before moving to the next. Eight cover both. A snapshot holds under
/// 1 MB of its own (four NICs in bulk: 314 KiB of non-zero lines and
/// 468 KiB of the rest of the system) and at most one buffer, the one
/// its last fork dropped, resident on the pages its systems touched
/// (about 16 MB for four NICs in bulk). Every other buffer is freed as
/// its memory drops, so the cap bounds all a process keeps beyond its
/// live systems. The least recently used goes.
const PAIR_CAP: usize = 8;

/// A (configuration, validated options) pair built in this process.
/// Its first build only notes it: most pairs outside the benchmark and
/// the sweeps are built once (155 of the 246 pairs the tier-1 tests
/// built when this was measured), and a snapshot costs an image of the
/// memory and a copy of every page the build wrote. Its second build's
/// snapshot is what every later one forks.
struct Pair {
    config: Config,
    opts: SystemOptions,
    snapshot: Option<Arc<Snapshot>>,
}

impl Pair {
    fn is(&self, config: Config, opts: &SystemOptions) -> bool {
        self.config == config && self.opts == *opts
    }
}

/// A system kept to be forked: its memory as the image of its non-zero
/// lines, everything else in `shell`, whose memory has no frames. The
/// image keeps the buffer its last fork dropped, so a fork zeroes and
/// rewrites only the pages the previous one wrote.
#[derive(Debug)]
pub struct Snapshot {
    shell: System,
    memory: MemImage,
}

impl Snapshot {
    /// A system indistinguishable from the one this snapshot was taken
    /// of, as it was then: the shell cloned with its memory restored
    /// under it.
    pub fn fork(&self) -> System {
        let mut sys = self.shell.clone();
        sys.machine.phys = self.memory.restore();
        sys
    }
}

/// The pairs built in this process, least recently used first.
static PAIRS: Mutex<Vec<Pair>> = Mutex::new(Vec::new());

/// Whether this process has built `(config, opts)`, and its snapshot if
/// it keeps one. A poisoned lock means building afresh.
fn look_up(config: Config, opts: &SystemOptions) -> (bool, Option<Arc<Snapshot>>) {
    let Ok(mut pairs) = PAIRS.lock() else {
        return (false, None);
    };
    let Some(i) = pairs.iter().position(|p| p.is(config, opts)) else {
        return (false, None);
    };
    let pair = pairs.remove(i);
    let snapshot = pair.snapshot.clone();
    pairs.push(pair);
    (true, snapshot)
}

/// Notes `sys`, just built, as its pair's first build, or keeps its
/// snapshot for the pair once `seen` says the pair was built before.
fn note(sys: &System, seen: bool) {
    let snapshot = seen.then(|| Arc::new(sys.snapshot()));
    let Ok(mut pairs) = PAIRS.lock() else {
        return;
    };
    let (config, opts) = (sys.config(), &sys.opts);
    // Another thread may have built the same pair meanwhile.
    if let Some(pair) = pairs.iter_mut().find(|p| p.is(config, opts)) {
        pair.snapshot = pair.snapshot.take().or(snapshot);
        return;
    }
    if pairs.len() == PAIR_CAP {
        pairs.remove(0);
    }
    pairs.push(Pair {
        config,
        opts: opts.clone(),
        snapshot,
    });
}

/// Step 2, first half: the driver module — the original for the
/// baselines, rewritten for TwinDrivers (the same rewritten binary
/// serves both instances, paper §5.1.2) — loaded into dom0, behind an
/// identity SVM when rewritten. Returns the module for step 4 and the
/// rewrite statistics (all zero for a module loaded as assembled).
fn load_vm_instance(
    config: Config,
    opts: &SystemOptions,
    machine: &mut Machine,
    world: &mut World,
    dom0: SpaceId,
) -> Result<(Arc<Module>, LoadedDriver, RewriteStats), SystemError> {
    let source = opts.driver_source.clone().unwrap_or_else(e1000::source);
    let twin = config == Config::TwinDrivers;
    let (module, rewrite_stats) = derive(&source, twin.then_some(&opts.rewrite))?;
    if twin {
        world.svm_vm = Some(Svm::new_identity(machine, dom0, IDENTITY_STLB_BASE)?);
    }
    let identity_base = world.svm_vm.as_ref().map(|s| s.placement().base);
    let stlb = |name: &str| identity_base.filter(|_| name == twin_svm::STLB_SYMBOL);
    let driver = load_driver(machine, dom0, &module, VM_CODE_BASE, DRIVER_DATA_BASE, stlb)
        .map_err(|e| SystemError::Build(e.to_string()))?;
    Ok((module, driver, rewrite_stats))
}

impl System {
    /// Builds a system in the given configuration with default options.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Build`] when the driver cannot be
    /// assembled, rewritten or loaded.
    pub fn build(config: Config) -> Result<System, SystemError> {
        System::build_with(config, &SystemOptions::default())
    }

    /// This system as it is now, to be forked
    /// ([`Snapshot::fork`]) any number of times. Its memory is cloned
    /// once and kept as the image's buffer, where the first fork lands
    /// without rewriting a page.
    pub fn snapshot(&self) -> Snapshot {
        let mut shell = self.clone();
        let memory = std::mem::replace(&mut shell.machine.phys, PhysMem::new(0));
        Snapshot {
            shell,
            memory: memory.into_image(),
        }
    }

    /// Number of NICs this system drives.
    pub fn nic_count(&self) -> usize {
        self.world.nics.len()
    }

    /// Which configuration this is.
    pub fn config(&self) -> Config {
        match self.datapath {
            Datapath::Native => Config::NativeLinux,
            Datapath::Dom0 => Config::XenDom0,
            Datapath::Guest(_) => Config::XenGuest,
            Datapath::Twin { .. } => Config::TwinDrivers,
        }
    }

    /// The measured guest (guest configurations).
    pub fn guest(&self) -> Option<DomId> {
        match self.datapath {
            Datapath::Guest(ep) | Datapath::Twin { endpoint: ep, .. } => Some(ep.gid),
            Datapath::Native | Datapath::Dom0 => None,
        }
    }

    /// The derived hypervisor driver (TwinDrivers only).
    pub fn hyperdrv(&self) -> Option<&HypervisorDriver> {
        match &self.datapath {
            Datapath::Twin { hyperdrv, .. } => Some(hyperdrv),
            _ => None,
        }
    }

    /// Rewrite statistics (TwinDrivers only).
    pub fn rewrite_stats(&self) -> Option<RewriteStats> {
        match self.datapath {
            Datapath::Twin { stats, .. } => Some(stats),
            _ => None,
        }
    }

    /// Builds a system with explicit options: validation, then the
    /// paper's §3.1 steps in order. As the paper derives its driver once,
    /// a process that builds a (configuration, validated options) pair
    /// again keeps a [`Snapshot`] of its second build, and every later
    /// build of the pair is a fork of it, indistinguishable from running
    /// the steps again.
    ///
    /// # Errors
    ///
    /// See [`System::build`]; also [`SystemError::Build`] when an option
    /// is set that `config` cannot honour.
    pub fn build_with(config: Config, opts: &SystemOptions) -> Result<System, SystemError> {
        let opts = validate(config, opts)?;
        let (seen, snapshot) = look_up(config, &opts);
        if let Some(snapshot) = snapshot {
            return Ok(snapshot.fork());
        }
        let sys = System::build_fresh(config, opts)?;
        note(&sys, seen);
        Ok(sys)
    }

    /// The paper's §3.1 steps, in order, for validated options.
    fn build_fresh(config: Config, opts: SystemOptions) -> Result<System, SystemError> {
        let (mut machine, mut world, dom0) = boot_dom0(config, opts.num_nics)?;
        let (module, driver, stats) =
            load_vm_instance(config, &opts, &mut machine, &mut world, dom0)?;
        let mut sys = System {
            machine,
            world,
            driver,
            netdevs: Vec::new(),
            // Assigned below, once steps 3 and 4 have made its parts.
            datapath: Datapath::Native,
            rx_flush_log: Vec::new(),
            devs: (0..opts.num_nics).map(|_| DevState::default()).collect(),
            guests: vec![GuestState::new(&opts, 0)],
            rr_next: 0,
            moderated_pending: Vec::new(),
            rx_latency: twin_trace::SampleReservoir::new(crate::measure::RX_LATENCY_RESERVOIR),
            guest_latency_tracked: false,
            grant_cache: None,
            recovery_log: Vec::new(),
            sched: None,
            affinity_flow_dev: BTreeMap::new(),
            dom0,
            dom0_stack_top: twin_kernel::DOM0_STACK_BASE
                + twin_kernel::DOM0_STACK_PAGES * PAGE_SIZE,
            seq: 0,
            tx_batch_buf: 0,
            fast_entries: [0; 4],
            opts,
        };
        sys.machine.trace.set_enabled(sys.opts.tracing);
        sys.init_vm_instance()?;
        sys.datapath = match config {
            Config::NativeLinux => Datapath::Native,
            Config::XenDom0 => Datapath::Dom0,
            Config::XenGuest => Datapath::Guest(sys.add_primary_guest()?),
            Config::TwinDrivers => {
                let endpoint = sys.add_primary_guest()?;
                let hyperdrv = sys.load_hypervisor_instance(&module, endpoint)?;
                Datapath::Twin {
                    endpoint,
                    hyperdrv,
                    stats,
                }
            }
        };
        sys.resolve_fast_entries()?;
        if config == Config::XenGuest {
            // Baseline guest path: dom0 bridges instead of consuming
            // locally.
            sys.world.kernel.rx_mode = RxMode::Bridge;
        }
        if sys.opts.zero_copy {
            // The grant cache comes up empty (mappings establish on first
            // touch) and the primary guest's buffer pool is granted and
            // pre-pinned up front. Entirely absent when the knob is off —
            // the copy path allocates and charges nothing.
            sys.grant_cache = Some(GrantCache::new(ZC_CACHE_CAPACITY));
            if let Some(gid) = sys.guest() {
                sys.grant_zero_copy_pool(gid)?;
            }
        }
        Ok(sys)
    }

    /// Step 2, second half (paper §3.1: "we first load the VM driver
    /// into the dom0 kernel where it performs the initialization of the
    /// NIC and the driver data structures"): probe selects adapter slot
    /// `dev`, open programs that device's rings — one pass per NIC —
    /// then the burst pointer array and the moderation interval.
    fn init_vm_instance(&mut self) -> Result<(), SystemError> {
        for dev in 0..self.opts.num_nics as u32 {
            let netdev = self.probe_and_open(dev)?;
            self.netdevs.push(netdev);
        }
        // Pointer array for burst transmits, in dom0 memory so both
        // driver instances can walk it.
        self.tx_batch_buf = self
            .world
            .kernel
            .heap
            .kmalloc(&mut self.machine, (MAX_BURST * 4) as u64)?;
        match self.opts.itr {
            // Skipped entirely at 0 so the unmoderated build is
            // bit-identical.
            Itr::Fixed(0) => {}
            Itr::Fixed(itr) => {
                for dev in 0..self.opts.num_nics as u32 {
                    self.set_itr(dev, itr)?;
                }
            }
            // One tuner per device, anchored at the current virtual time
            // with the device's current counters.
            Itr::Auto => {
                let now = self.machine.meter.now();
                for (d, nic) in self.devs.iter_mut().zip(&self.world.nics) {
                    d.tuner = Some(ItrTuner::new(now, AUTOTUNE_WINDOW_CYCLES, nic));
                }
            }
        }
        Ok(())
    }

    /// Step 3: the measured guest. The workload runs in it, so that is
    /// who is on the CPU between packets.
    fn add_primary_guest(&mut self) -> Result<Endpoint, SystemError> {
        let gid = self.add_guest(MacAddr::for_guest(1))?;
        let xen = self.world.xen_mut()?;
        xen.current = gid;
        let gspace = xen.domain(gid).space;
        let t = self
            .machine
            .translate(gspace, ExecMode::Guest, GUEST_HEAP_BASE, false)?;
        Ok(Endpoint {
            gid,
            gspace,
            tx_frag: t.entry.pfn * PAGE_SIZE,
        })
    }

    /// Step 4: derive and load the hypervisor instance from the module
    /// the VM instance runs — reserved pool, hypervisor SVM, the loaded
    /// image, the support routines with the upcall engine, the IOMMU
    /// over dom0's and the guest's frames.
    fn load_hypervisor_instance(
        &mut self,
        module: &Module,
        guest: Endpoint,
    ) -> Result<HypervisorDriver, SystemError> {
        // The reserved pool backs RX replenishment for every NIC in
        // steady state (each swaps in ~128 buffers), so it scales with
        // the device count; one NIC keeps the paper's 512.
        self.world
            .kernel
            .reserve_hypervisor_pool(&mut self.machine, 512 * self.opts.num_nics)?;
        let mut svm = Svm::new_hypervisor(&mut self.machine, self.dom0, 0, (0, u64::MAX))?;
        let base = svm.placement().base;
        let hyp = load_hypervisor_driver(&mut self.machine, module, &self.driver, base)
            .map_err(|e| SystemError::Build(e.to_string()))?;
        svm.set_code_mapping((HYP_CODE_BASE - VM_CODE_BASE) as i64, hyp.code_range());
        self.world.svm_hyp = Some(svm);
        let mut hs = HyperSupport::new();
        hs.set_upcall_count(self.opts.upcall_count);
        hs.engine.set_mode(self.opts.upcall_mode);
        hs.engine
            .set_flush_deadline(self.opts.upcall_flush_deadline_cycles);
        self.world.hyper = Some(hs);
        if self.opts.iommu {
            let mut iommu = Iommu::new();
            iommu.allow_space_frames(&self.machine, self.dom0);
            iommu.allow_space_frames(&self.machine, guest.gspace);
            self.world.iommu = Some(iommu);
        }
        Ok(hyp)
    }

    /// Adds another guest domain (TwinDrivers configuration) with its own
    /// MAC, so the hypervisor's receive demultiplexing has more than one
    /// destination. Returns the new domain's id.
    ///
    /// # Errors
    ///
    /// Fails if guest memory cannot be mapped.
    pub fn add_guest(&mut self, mac: MacAddr) -> Result<DomId, SystemError> {
        let gspace = self.machine.new_space();
        let xen = self.world.xen_mut()?;
        let gid = xen.add_guest(gspace, mac);
        xen.domain_mut(gid).rx_queue_cap = self.opts.rx_queue_cap;
        self.guests.push(GuestState::new(&self.opts, gid.0));
        self.machine.map_fresh(gspace, GUEST_HEAP_BASE, 4)?;
        Ok(gid)
    }

    /// Registers a vCPU for `guest`, pinned to physical CPU `cpu` for
    /// the rest of the run, with a periodic `run_cycles`-on /
    /// `sleep_cycles`-off schedule starting now. The first registration
    /// builds the vCPU scheduler model ([`twin_sched::VcpuSched`]); from
    /// then on placement ([`crate::ShardPolicy::Affinity`]), NAPI poll budgets,
    /// DRR flush grants and ITR idle accounting follow it, and a
    /// delivery far from the owning guest's vCPU pays
    /// [`twin_machine::Term::ColdDeliveryRefill`]. Guests without a vCPU
    /// stay always-running, so a system with none behaves as if the
    /// model did not exist.
    ///
    /// # Errors
    ///
    /// [`SystemError::Build`] off the TwinDrivers configuration (the
    /// model steers the hypervisor driver's demux) or when the guest
    /// already has a vCPU.
    pub fn sched_add_vcpu(
        &mut self,
        guest: DomId,
        cpu: u32,
        run_cycles: u64,
        sleep_cycles: u64,
    ) -> Result<(), SystemError> {
        if !matches!(self.datapath, Datapath::Twin { .. }) {
            return Err(SystemError::Build(
                "sched_add_vcpu requires the TwinDrivers configuration".into(),
            ));
        }
        let now = self.machine.meter.now();
        let sched = self.sched.get_or_insert_with(VcpuSched::default);
        if !sched.add_vcpu(guest.0, cpu, run_cycles, sleep_cycles, now) {
            return Err(SystemError::Build(format!(
                "guest {} already has a vCPU",
                guest.0
            )));
        }
        Ok(())
    }

    /// The scheduler model, once a vCPU is registered (test/tool
    /// observability).
    pub fn sched(&self) -> Option<&VcpuSched> {
        self.sched.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{fault_injected_source, FaultClass};

    /// The tests below that read the cache's length or a hit's identity
    /// run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn a_memoized_derivation_is_a_fresh_one() {
        let _serial = SERIAL.lock();
        let no_liveness = RewriteOptions {
            liveness: false,
            ..RewriteOptions::default()
        };
        let keys = [
            (e1000::source(), None),
            (e1000::source(), Some(RewriteOptions::default())),
            (
                fault_injected_source(FaultClass::WedgedRing),
                Some(RewriteOptions::default()),
            ),
            (e1000::source(), Some(no_liveness)),
        ];
        for (source, rewrite_opts) in keys {
            let assembled = assemble("e1000", &source).unwrap();
            let (module, stats) = match &rewrite_opts {
                Some(o) => rewrite(&assembled, o).map(|r| (r.module, r.stats)).unwrap(),
                None => (assembled, RewriteStats::default()),
            };
            let (first, _) = derive(&source, rewrite_opts.as_ref()).unwrap();
            let (again, again_stats) = derive(&source, rewrite_opts.as_ref()).unwrap();
            assert!(
                Arc::ptr_eq(&first, &again),
                "{rewrite_opts:?}: derived twice"
            );
            assert!(*again == module, "{rewrite_opts:?}: the module differs");
            assert_eq!(again_stats, stats, "{rewrite_opts:?}");
            let opts = SystemOptions {
                driver_source: Some(source),
                rewrite: rewrite_opts.clone().unwrap_or_default(),
                ..SystemOptions::default()
            };
            let config = match rewrite_opts {
                Some(_) => Config::TwinDrivers,
                None => Config::NativeLinux,
            };
            let sys = System::build_with(config, &opts).unwrap();
            let built = sys.rewrite_stats().unwrap_or_default();
            assert_eq!(built, stats, "{config}");
        }
    }

    #[test]
    fn the_cache_holds_at_most_its_cap() {
        let _serial = SERIAL.lock();
        let sources: Vec<String> = (0..=DERIVED_CAP)
            .map(|i| format!("{}\n# variant {i}\n", e1000::source()))
            .collect();
        for source in &sources {
            let opts = SystemOptions {
                driver_source: Some(source.clone()),
                ..SystemOptions::default()
            };
            System::build_with(Config::NativeLinux, &opts).unwrap();
        }
        let derived = DERIVED.lock().unwrap();
        assert_eq!(derived.len(), DERIVED_CAP);
        assert!(derived.iter().any(|d| Some(&d.source) == sources.last()));
    }

    #[test]
    fn a_pair_is_kept_from_its_second_build_and_at_most_cap_pairs() {
        let _serial = SERIAL.lock();
        // Interrupt moderation is honoured natively, so each interval is
        // a pair of its own.
        let keys: Vec<SystemOptions> = (1..=PAIR_CAP as u32 + 1)
            .map(|itr| SystemOptions {
                itr: Itr::Fixed(itr),
                ..SystemOptions::default()
            })
            .collect();
        let snapshot = |opts: &SystemOptions| {
            let pairs = PAIRS.lock().unwrap();
            let pair = pairs.iter().find(|p| p.opts == *opts);
            pair.map(|p| p.snapshot.is_some())
        };
        for opts in &keys {
            System::build_with(Config::NativeLinux, opts).unwrap();
            assert_eq!(snapshot(opts), Some(false), "a first build was kept");
        }
        assert_eq!(PAIRS.lock().unwrap().len(), PAIR_CAP);
        assert_eq!(snapshot(&keys[0]), None, "the oldest pair stayed");
        let last = &keys[PAIR_CAP];
        System::build_with(Config::NativeLinux, last).unwrap();
        assert_eq!(snapshot(last), Some(true), "a second build was not kept");
    }

    #[test]
    fn a_failing_build_fails_every_time() {
        let no_probe = e1000::source().replace("e1000_probe", "e1000_renamed");
        let opts = SystemOptions {
            driver_source: Some(no_probe),
            ..SystemOptions::default()
        };
        for attempt in 0..3 {
            let built = System::build_with(Config::TwinDrivers, &opts);
            assert!(matches!(built, Err(SystemError::Build(_))), "{attempt}");
        }
        let pairs = PAIRS.lock().unwrap();
        assert!(!pairs.iter().any(|p| p.opts == opts));
    }
}
