//! Construction: the derivation pipeline of the paper's §3.1 (assemble,
//! rewrite, load the VM instance, probe and open every NIC, derive and
//! load the hypervisor instance) and the domains and vCPUs added to a
//! built system.

use super::{
    Config, DevState, GuestState, ShardPolicy, System, SystemError, SystemOptions, World,
    DRIVER_DATA_BASE, GUEST_HEAP_BASE, IDENTITY_STLB_BASE, MAX_BURST, VM_CODE_BASE,
    ZC_CACHE_CAPACITY,
};
use crate::iommu::Iommu;
use std::collections::BTreeMap;
use twin_isa::asm::assemble;
use twin_kernel::{e1000, load_driver, Dom0Kernel, RxMode, MMIO_BASE};
use twin_machine::{ExecMode, Machine, PageEntry, PAGE_SIZE};
use twin_net::MacAddr;
use twin_nic::{ItrTuner, Nic, AUTOTUNE_WINDOW_CYCLES, MMIO_WINDOW};
use twin_rewriter::rewrite;
use twin_sched::VcpuSched;
use twin_svm::Svm;
use twin_xen::{
    load_hypervisor_driver, DomId, GrantCache, HyperSupport, Xen, HYP_CODE_BASE, UPCALL_RING_SLOTS,
};

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

    /// Builds a system driving `nics` NICs under `shard`, with all other
    /// options at their defaults (the multi-NIC sweep entry point).
    ///
    /// # Errors
    ///
    /// See [`System::build`].
    pub fn build_sharded(
        config: Config,
        nics: usize,
        shard: ShardPolicy,
    ) -> Result<System, SystemError> {
        System::build_with(
            config,
            &SystemOptions {
                num_nics: nics,
                shard,
                ..SystemOptions::default()
            },
        )
    }

    /// Number of NICs this system drives.
    pub fn nic_count(&self) -> usize {
        self.world.nics.len()
    }

    /// Builds a system with explicit options.
    ///
    /// # Errors
    ///
    /// See [`System::build`].
    pub fn build_with(config: Config, opts: &SystemOptions) -> Result<System, SystemError> {
        // Validate once; every later reader takes `self.opts` as it is.
        let mut opts = opts.clone();
        opts.num_nics = opts.num_nics.clamp(1, e1000::MAX_NICS);
        opts.header_copy_bytes = opts.header_copy_bytes.clamp(26, 1024);
        opts.rx_flush_quantum = opts.rx_flush_quantum.max(1);
        opts.zero_copy_pool_frames = opts.zero_copy_pool_frames.clamp(1, MAX_BURST);
        opts.upcall_queue_capacity = opts
            .upcall_queue_capacity
            .clamp(1, UPCALL_RING_SLOTS as usize);
        // NAPI polling, quarantine and the scheduler model all act on the
        // hypervisor driver and its demux; only TwinDrivers has them.
        for (on, knob) in [
            (opts.napi_weight > 0, "napi_weight"),
            (opts.fault_recovery, "fault_recovery"),
            (opts.sched.is_some(), "sched"),
        ] {
            if on && config != Config::TwinDrivers {
                return Err(SystemError::Build(format!(
                    "{knob} requires the TwinDrivers configuration"
                )));
            }
        }
        let source = opts.driver_source.clone().unwrap_or_else(e1000::source);
        let module = assemble("e1000", &source).map_err(|e| SystemError::Build(e.to_string()))?;

        let num_nics = opts.num_nics;
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
        let dom0_stack_top =
            twin_kernel::DOM0_STACK_BASE + twin_kernel::DOM0_STACK_PAGES * PAGE_SIZE;
        // Each extra NIC posts 127 RX buffers at open; grow the pool so
        // multi-NIC systems keep the same transmit headroom as one NIC.
        let pool_size = opts.pool_size + 256 * (num_nics - 1);
        let kernel = Dom0Kernel::new(&mut machine, dom0, pool_size)?;
        let nics: Vec<Nic> = (0..num_nics as u32)
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

        let mut world = World {
            kernel,
            nics,
            xen: None,
            hyper: None,
            svm_vm: None,
            svm_hyp: None,
            iommu: None,
        };

        // Xen present for everything but native Linux.
        if config != Config::NativeLinux {
            world.xen = Some(Xen::new(dom0));
        }

        // The driver module: original for the baselines, rewritten for
        // TwinDrivers (the same rewritten binary serves both instances,
        // paper §5.1.2).
        let (drv_module, rewrite_stats) = if config == Config::TwinDrivers {
            let out =
                rewrite(&module, &opts.rewrite).map_err(|e| SystemError::Build(e.to_string()))?;
            (out.module, Some(out.stats))
        } else {
            (module, None)
        };

        if config == Config::TwinDrivers {
            world.svm_vm = Some(Svm::new_identity(&mut machine, dom0, IDENTITY_STLB_BASE)?);
        }

        let identity_base = world.svm_vm.as_ref().map(|s| s.placement().base);
        let driver = load_driver(
            &mut machine,
            dom0,
            &drv_module,
            VM_CODE_BASE,
            DRIVER_DATA_BASE,
            |name| {
                if name == twin_svm::STLB_SYMBOL {
                    identity_base
                } else {
                    None
                }
            },
        )
        .map_err(|e| SystemError::Build(e.to_string()))?;

        let mut sys = System {
            machine,
            world,
            config,
            driver,
            hyperdrv: None,
            rewrite_stats,
            netdev: 0,
            netdevs: Vec::new(),
            guest: None,
            rx_flush_log: Vec::new(),
            devs: (0..num_nics).map(|_| DevState::default()).collect(),
            guests: vec![GuestState::new(&opts, 0)],
            rr_next: 0,
            moderated_pending: Vec::new(),
            rx_inflight: BTreeMap::new(),
            rx_latency: twin_trace::SampleReservoir::new(crate::measure::RX_LATENCY_RESERVOIR),
            guest_latency_tracked: false,
            grant_cache: None,
            rx_flow_dev: BTreeMap::new(),
            recovery_log: Vec::new(),
            sched: opts.sched.clone().map(VcpuSched::new),
            affinity_flow_dev: BTreeMap::new(),
            dom0,
            dom0_stack_top,
            guest_tx_frag: 0,
            seq: 0,
            tx_batch_buf: 0,
            opts,
        };
        if sys.opts.tracing {
            sys.machine.trace.set_enabled(true);
        }

        // Initialise the VM instance in dom0 (paper §3.1: "we first load
        // the VM driver into the dom0 kernel where it performs the
        // initialization of the NIC and the driver data structures").
        // Probe selects adapter slot `dev`; open programs that device's
        // rings — one pass per NIC.
        for dev in 0..num_nics {
            let probe = sys.driver.entry("e1000_probe").unwrap();
            sys.call_dom0(probe, &[dev as u32], 50_000_000)?;
            let netdev = sys.world.kernel.registered_netdevs[dev];
            sys.netdevs.push(netdev);
            let open = sys.driver.entry("e1000_open").unwrap();
            sys.call_dom0(open, &[netdev as u32], 200_000_000)?;
        }
        sys.netdev = sys.netdevs[0];
        // Pointer array for burst transmits, in dom0 memory so both
        // driver instances can walk it.
        sys.tx_batch_buf = sys
            .world
            .kernel
            .heap
            .kmalloc(&mut sys.machine, (MAX_BURST * 4) as u64)?;
        // Interrupt moderation: program every device's ITR register
        // through the MMIO window. Skipped entirely at 0 so the
        // unmoderated build is bit-identical.
        if sys.opts.itr != 0 {
            for dev in 0..num_nics as u32 {
                sys.set_itr(dev, sys.opts.itr)?;
            }
        }
        // Closed-loop ITR auto-tuning: one tuner per device, anchored at
        // the current virtual time with the device's current counters.
        if sys.opts.itr_autotune {
            let now = sys.machine.meter.now();
            for (d, nic) in sys.devs.iter_mut().zip(&sys.world.nics) {
                d.tuner = Some(ItrTuner::new(now, AUTOTUNE_WINDOW_CYCLES, nic));
            }
        }

        // Guest domain for the guest configurations.
        if matches!(config, Config::XenGuest | Config::TwinDrivers) {
            let gid = sys.add_guest(MacAddr::for_guest(1))?;
            sys.guest = Some(gid);
            // The measured workload runs in the guest, so that is who is
            // on the CPU between packets.
            let xen = sys.world.xen.as_mut().expect("xen present");
            xen.current = gid;
            // The first guest payload page's machine address is what the
            // TX glue chains as an sk_buff fragment (paper §5.3).
            let gspace = xen.domain(gid).space;
            let t = sys
                .machine
                .translate(gspace, ExecMode::Guest, GUEST_HEAP_BASE, false)?;
            sys.guest_tx_frag = t.entry.pfn * PAGE_SIZE;
        }

        // TwinDrivers: derive and load the hypervisor instance.
        if config == Config::TwinDrivers {
            // The reserved pool backs RX replenishment for every NIC in
            // steady state (each swaps in ~128 buffers), so it scales
            // with the device count; one NIC keeps the paper's 512.
            sys.world
                .kernel
                .reserve_hypervisor_pool(&mut sys.machine, 512 * num_nics)?;
            let mut svm = Svm::new_hypervisor(&mut sys.machine, dom0, 0, (0, u64::MAX))?;
            let hyp = load_hypervisor_driver(
                &mut sys.machine,
                &drv_module,
                &sys.driver,
                svm.placement().base,
            )
            .map_err(|e| SystemError::Build(e.to_string()))?;
            svm.set_code_mapping((HYP_CODE_BASE - VM_CODE_BASE) as i64, hyp.code_range());
            sys.world.svm_hyp = Some(svm);
            let mut hs = HyperSupport::new();
            hs.set_upcall_count(sys.opts.upcall_count);
            hs.engine.set_mode(sys.opts.upcall_mode);
            hs.engine.set_capacity(sys.opts.upcall_queue_capacity);
            hs.engine
                .set_flush_deadline(sys.opts.upcall_flush_deadline_cycles);
            sys.world.hyper = Some(hs);
            sys.hyperdrv = Some(hyp);
            if sys.opts.iommu {
                let mut iommu = Iommu::new();
                iommu.allow_space_frames(&sys.machine, dom0);
                if let Some(gid) = sys.guest {
                    let gspace = sys.world.xen.as_ref().unwrap().domain(gid).space;
                    iommu.allow_space_frames(&sys.machine, gspace);
                }
                sys.world.iommu = Some(iommu);
            }
        }

        // Baseline guest path: dom0 bridges instead of consuming locally.
        if config == Config::XenGuest {
            sys.world.kernel.rx_mode = RxMode::Bridge;
        }

        // Zero-copy datapath: the grant cache comes up empty (mappings
        // establish on first touch) and the primary guest's buffer pool
        // is granted and pre-pinned up front. Entirely absent when the
        // knob is off — the copy path allocates and charges nothing.
        if sys.opts.zero_copy && matches!(config, Config::XenGuest | Config::TwinDrivers) {
            sys.grant_cache = Some(GrantCache::new(ZC_CACHE_CAPACITY));
            let gid = sys.guest.expect("guest configurations have a guest");
            sys.grant_zero_copy_pool(gid)?;
        }

        Ok(sys)
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
        let xen = self
            .world
            .xen
            .as_mut()
            .ok_or_else(|| SystemError::Build("no hypervisor in this configuration".into()))?;
        let gid = xen.add_guest(gspace, mac);
        xen.domain_mut(gid).rx_queue_cap = self.opts.rx_queue_cap;
        self.guests.push(GuestState::new(&self.opts, gid.0));
        self.machine.map_fresh(gspace, GUEST_HEAP_BASE, 4)?;
        Ok(gid)
    }

    /// Registers a vCPU for `guest` on physical CPU `cpu` with a
    /// periodic `run_cycles`-on / `sleep_cycles`-off schedule starting
    /// now. Requires [`SystemOptions::sched`]; guests without a vCPU
    /// stay always-running.
    ///
    /// # Errors
    ///
    /// [`SystemError::Build`] when the scheduler model is off.
    pub fn sched_add_vcpu(
        &mut self,
        guest: DomId,
        cpu: u32,
        run_cycles: u64,
        sleep_cycles: u64,
    ) -> Result<(), SystemError> {
        let now = self.machine.meter.now();
        let sched = self
            .sched
            .as_mut()
            .ok_or_else(|| SystemError::Build("sched model is not enabled".into()))?;
        sched.add_vcpu(guest.0, cpu, run_cycles, sleep_cycles, now);
        Ok(())
    }

    /// The scheduler model, when enabled (test/tool observability).
    pub fn sched(&self) -> Option<&VcpuSched> {
        self.sched.as_ref()
    }
}
