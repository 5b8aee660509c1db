//! # twin-kernel — the Linux-like driver substrate
//!
//! The paper runs an unmodified Linux e1000 driver inside dom0 and reuses
//! the kernel's "driver support infrastructure" (§1). This crate builds
//! that substrate:
//!
//! * [`e1000`] — the network driver itself, written in twin-isa assembly
//!   (the input to the rewriter);
//! * [`routines::ROUTINES`] — the driver↔kernel interface as one table:
//!   a row per support routine (name, how the driver source uses it,
//!   and the hypervisor's Table 1 columns), indexed by
//!   [`routines::RoutineId`]; the driver's `.extern` block, both
//!   dispatchers and the Figure 10 knob are derived from it;
//! * [`support::Dom0Kernel`] — the driver support API (sk_buffs, DMA
//!   mapping, spinlocks, timers, `netif_rx`, and the ~90-routine long
//!   tail): one native body per routine
//!   ([`support::Dom0Kernel::routine`]), dispatched through extern
//!   trampolines;
//! * [`heap`] / [`skb`] — the dom0 kernel heap and packet buffers,
//!   including the hypervisor-reserved pool of paper §4.3;
//! * [`loader`] — the module loader that places driver data in dom0 and
//!   records relocation information for the hypervisor loader (§5.2).
//!
//! The integration tests bring up the full native path: probe → open →
//! transmit through the descriptor rings → receive via the interrupt
//! handler — the baseline every TwinDrivers experiment compares against.

pub mod e1000;
pub mod heap;
pub mod loader;
pub mod routines;
pub mod skb;
pub mod support;

pub use heap::Heap;
pub use loader::{load_driver, LoadError, LoadedDriver};
pub use routines::{DeferClass, FastPath, Routine, RoutineId, Usage, ROUTINES};
pub use skb::{SkBuff, SkbPool, SKB_HDR_SIZE};
pub use support::{Dom0Kernel, RxMode, Timer, TimerQueue, Trace, CYCLES_PER_JIFFY, MMIO_BASE};

use twin_machine::{run, Cpu, Env, ExecMode, Fault, Machine, SpaceId, StopReason};

/// Default dom0 kernel stack placement.
pub const DOM0_STACK_BASE: u64 = 0x3000_0000;

/// Dom0 kernel stack pages.
pub const DOM0_STACK_PAGES: u64 = 8;

/// Calls an ISA function and runs it to completion, returning `%eax`.
///
/// This is how native code (kernel, hypervisor, workload harness) invokes
/// driver entry points: push a cdecl frame, run until the return
/// sentinel.
///
/// # Errors
///
/// Propagates machine faults; returns [`Fault::EnvFault`] if the run ends
/// without returning (budget exhaustion — the VINO-style watchdog).
#[allow(clippy::too_many_arguments)] // mirrors a cdecl call site: machine + env + frame
pub fn call_function(
    m: &mut Machine,
    env: &mut dyn Env,
    space: SpaceId,
    mode: ExecMode,
    stack_top: u64,
    entry: u64,
    args: &[u32],
    budget: u64,
) -> Result<u32, Fault> {
    let mut cpu = Cpu::new(space, mode);
    cpu.set_stack(stack_top);
    cpu.push_call_frame(m, args)?;
    cpu.pc = entry;
    match run(m, &mut cpu, env, budget)? {
        StopReason::Returned => Ok(cpu.reg(twin_isa::Reg::Eax)),
        StopReason::Halted => Err(Fault::EnvFault("function halted".into())),
        StopReason::Budget => Err(Fault::EnvFault(
            "execution budget exhausted (watchdog)".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skb::SkBuff;
    use twin_isa::asm::assemble;
    use twin_isa::Width;
    use twin_machine::{ExternId, PageEntry, PAGE_SIZE};
    use twin_net::{Frame, MacAddr};
    use twin_nic::{Nic, MMIO_WINDOW};

    /// Native test world: dom0 kernel + one NIC.
    struct NativeWorld {
        kernel: Dom0Kernel,
        nics: Vec<Nic>,
    }

    impl Env for NativeWorld {
        fn extern_call(
            &mut self,
            id: ExternId,
            m: &mut Machine,
            cpu: &mut Cpu,
        ) -> Result<(), Fault> {
            let name = m.extern_name(id).unwrap_or_default();
            match RoutineId::lookup(name) {
                Some(routine) => self.kernel.handle_extern(routine, m, cpu),
                None => Err(Fault::UnknownExtern(name.to_string())),
            }
        }
        fn mmio_read(
            &mut self,
            m: &mut Machine,
            dev: u32,
            off: u64,
            _w: Width,
        ) -> Result<u32, Fault> {
            let _ = m;
            Ok(self.nics[dev as usize].mmio_read(off))
        }
        fn mmio_write(
            &mut self,
            m: &mut Machine,
            dev: u32,
            off: u64,
            _w: Width,
            val: u32,
        ) -> Result<(), Fault> {
            self.nics[dev as usize].mmio_write(&mut m.phys, off, val);
            Ok(())
        }
    }

    struct Setup {
        m: Machine,
        world: NativeWorld,
        dom0: SpaceId,
        driver: LoadedDriver,
        netdev: u64,
    }

    fn bring_up() -> Setup {
        let module = assemble("e1000", &e1000::source()).unwrap();
        let mut m = Machine::new();
        let dom0 = m.new_space();
        // Map the NIC MMIO window into dom0 at MMIO_BASE.
        for p in 0..(MMIO_WINDOW / PAGE_SIZE) {
            m.space_mut(dom0)
                .map(MMIO_BASE + p * PAGE_SIZE, PageEntry::mmio(0, p));
        }
        m.map_stack(dom0, DOM0_STACK_BASE, DOM0_STACK_PAGES)
            .unwrap();
        let kernel = Dom0Kernel::new(&mut m, dom0, 512).unwrap();
        let nic = Nic::new(0, MacAddr::for_guest(0));
        let mut world = NativeWorld {
            kernel,
            nics: vec![nic],
        };
        let driver =
            load_driver(&mut m, dom0, &module, 0x0800_0000, 0x2800_0000, |_| None).unwrap();

        let stack = DOM0_STACK_BASE + DOM0_STACK_PAGES * PAGE_SIZE;
        let probe = driver.entry("e1000_probe").unwrap();
        let r = call_function(
            &mut m,
            &mut world,
            dom0,
            ExecMode::Guest,
            stack,
            probe,
            &[0],
            5_000_000,
        )
        .unwrap();
        assert_eq!(r, 0, "probe succeeds");
        let netdev = world.kernel.registered_netdevs[0];
        let open = driver.entry("e1000_open").unwrap();
        let r = call_function(
            &mut m,
            &mut world,
            dom0,
            ExecMode::Guest,
            stack,
            open,
            &[netdev as u32],
            50_000_000,
        )
        .unwrap();
        assert_eq!(r, 0, "open succeeds");
        Setup {
            m,
            world,
            dom0,
            driver,
            netdev,
        }
    }

    fn stack_top() -> u64 {
        DOM0_STACK_BASE + DOM0_STACK_PAGES * PAGE_SIZE
    }

    #[test]
    fn probe_and_open_configure_the_nic() {
        let s = bring_up();
        // Rings programmed: 127 RX buffers posted.
        assert_eq!(s.world.nics[0].rx_free_descriptors(), 127);
        assert!(s.world.nics[0].tx_ring_len() == 128);
        // IRQ handler registered.
        assert_eq!(s.world.kernel.irq_handlers.len(), 1);
        // Watchdog timer armed.
        assert_eq!(s.world.kernel.timers.len(), 1);
        let adapter = s.driver.data_symbol("adapter").unwrap();
        let hw =
            s.m.read_u32(s.dom0, ExecMode::Guest, adapter + e1000::adapter::HW_ADDR)
                .unwrap();
        assert_eq!(hw as u64, MMIO_BASE);
    }

    #[test]
    fn transmit_path_sends_frames() {
        let mut s = bring_up();
        let xmit = s.driver.entry("e1000_xmit_frame").unwrap();
        for i in 0..10u64 {
            let skb = s
                .world
                .kernel
                .pool
                .alloc(&mut s.m, s.dom0)
                .expect("skb available");
            let f = Frame::data(MacAddr::for_guest(7), MacAddr::for_guest(0), 1, i);
            skb.fill_from_frame(&mut s.m, s.dom0, &f).unwrap();
            let r = call_function(
                &mut s.m,
                &mut s.world,
                s.dom0,
                ExecMode::Guest,
                stack_top(),
                xmit,
                &[skb.0 as u32, s.netdev as u32],
                1_000_000,
            )
            .unwrap();
            assert_eq!(r, 0, "xmit ok");
        }
        let sent = s.world.nics[0].take_tx_frames();
        assert_eq!(sent.len(), 10);
        assert_eq!(sent[9].seq, 9);
        assert_eq!(sent[0].dst, MacAddr::for_guest(7));
        // Driver stats updated in the shared adapter struct.
        let adapter = s.driver.data_symbol("adapter").unwrap();
        let tx_packets =
            s.m.read_u32(
                s.dom0,
                ExecMode::Guest,
                adapter + e1000::adapter::TX_PACKETS,
            )
            .unwrap();
        assert_eq!(tx_packets, 10);
    }

    #[test]
    fn transmit_batch_sends_in_order_with_one_doorbell() {
        let mut s = bring_up();
        let xmit_batch = s.driver.entry("e1000_xmit_batch").unwrap();
        // Build the skb pointer array in dom0 memory.
        let arr = s.world.kernel.heap.kmalloc(&mut s.m, 4 * 16).unwrap();
        for i in 0..16u64 {
            let skb = s.world.kernel.pool.alloc(&mut s.m, s.dom0).unwrap();
            let f = Frame::data(MacAddr::for_guest(7), MacAddr::for_guest(0), 1, i);
            skb.fill_from_frame(&mut s.m, s.dom0, &f).unwrap();
            s.m.write_u32(s.dom0, ExecMode::Guest, arr + i * 4, skb.0 as u32)
                .unwrap();
        }
        let r = call_function(
            &mut s.m,
            &mut s.world,
            s.dom0,
            ExecMode::Guest,
            stack_top(),
            xmit_batch,
            &[arr as u32, 16, s.netdev as u32],
            4_000_000,
        )
        .unwrap();
        assert_eq!(r, 16, "whole burst accepted");
        let sent = s.world.nics[0].take_tx_frames();
        assert_eq!(sent.len(), 16);
        for (i, f) in sent.iter().enumerate() {
            assert_eq!(f.seq, i as u64, "in order");
        }
        // One doorbell kick → one TXDW assertion for the whole burst.
        assert_eq!(s.world.nics[0].stats().tx_irqs, 1);
    }

    #[test]
    fn transmit_batch_stops_at_ring_capacity() {
        let mut s = bring_up();
        let xmit_batch = s.driver.entry("e1000_xmit_batch").unwrap();
        // Stop the TX engine so nothing completes: capacity is 127.
        s.world.nics[0].mmio_write(&mut s.m.phys, twin_nic::regs::TCTL, 0);
        let n = 60u64;
        let arr = s.world.kernel.heap.kmalloc(&mut s.m, 4 * n).unwrap();
        let fill = |s: &mut Setup, arr: u64| {
            for i in 0..n {
                let skb = s.world.kernel.pool.alloc(&mut s.m, s.dom0).unwrap();
                let f = Frame::data(MacAddr::for_guest(7), MacAddr::for_guest(0), 1, i);
                skb.fill_from_frame(&mut s.m, s.dom0, &f).unwrap();
                s.m.write_u32(s.dom0, ExecMode::Guest, arr + i * 4, skb.0 as u32)
                    .unwrap();
            }
        };
        let mut total = 0;
        for _ in 0..3 {
            fill(&mut s, arr);
            let r = call_function(
                &mut s.m,
                &mut s.world,
                s.dom0,
                ExecMode::Guest,
                stack_top(),
                xmit_batch,
                &[arr as u32, n as u32, s.netdev as u32],
                8_000_000,
            )
            .unwrap();
            total += r;
        }
        assert_eq!(total, 127, "accepts exactly the ring capacity, then stops");
    }

    #[test]
    fn polled_rx_batch_reaps_without_icr_read() {
        let mut s = bring_up();
        let mac = s.world.nics[0].mac();
        let frames: Vec<Frame> = (0..6)
            .map(|i| Frame::data(mac, MacAddr::for_guest(9), 3, i))
            .collect();
        assert_eq!(s.world.nics[0].deliver_batch(&mut s.m.phys, &frames), 6);
        let poll = s.driver.entry("e1000_poll_rx_batch").unwrap();
        let r = call_function(
            &mut s.m,
            &mut s.world,
            s.dom0,
            ExecMode::Guest,
            stack_top(),
            poll,
            &[s.netdev as u32],
            10_000_000,
        )
        .unwrap();
        assert_eq!(r, 6, "poll returns the reap count");
        assert_eq!(s.world.kernel.rx_delivered.len(), 6);
        assert_eq!(s.world.kernel.rx_delivered[5].seq, 5);
        // ICR untouched: the coalesced RXT0 cause is still pending
        // (open unmasked RXT0, and the polled path never reads ICR).
        assert!(s.world.nics[0].irq_asserted());
        // Ring fully replenished.
        assert_eq!(s.world.nics[0].rx_free_descriptors(), 127);
    }

    #[test]
    fn transmit_reclaims_skbs_via_clean_tx() {
        let mut s = bring_up();
        let xmit = s.driver.entry("e1000_xmit_frame").unwrap();
        let before = s.world.kernel.pool.available();
        for i in 0..50u64 {
            let skb = s.world.kernel.pool.alloc(&mut s.m, s.dom0).unwrap();
            let f = Frame::data(MacAddr::for_guest(7), MacAddr::for_guest(0), 1, i);
            skb.fill_from_frame(&mut s.m, s.dom0, &f).unwrap();
            call_function(
                &mut s.m,
                &mut s.world,
                s.dom0,
                ExecMode::Guest,
                stack_top(),
                xmit,
                &[skb.0 as u32, s.netdev as u32],
                1_000_000,
            )
            .unwrap();
        }
        // All but the final in-flight skb have been freed back.
        assert!(
            s.world.kernel.pool.available() >= before - 2,
            "pool drained: {} vs {}",
            s.world.kernel.pool.available(),
            before
        );
    }

    #[test]
    fn receive_path_delivers_to_stack() {
        let mut s = bring_up();
        let mac = s.world.nics[0].mac();
        for i in 0..5u64 {
            let f = Frame {
                dst: mac,
                src: MacAddr::for_guest(9),
                ethertype: twin_net::EtherType::Ipv4,
                payload_len: 1500,
                flow: 3,
                seq: i,
            };
            assert!(s.world.nics[0].deliver(&mut s.m.phys, &f));
        }
        assert!(s.world.nics[0].irq_asserted());
        // Dispatch the interrupt the way the kernel would.
        let handler = *s.world.kernel.irq_handlers.values().next().unwrap();
        call_function(
            &mut s.m,
            &mut s.world,
            s.dom0,
            ExecMode::Guest,
            stack_top(),
            handler,
            &[s.netdev as u32],
            10_000_000,
        )
        .unwrap();
        assert_eq!(s.world.kernel.rx_delivered.len(), 5);
        assert_eq!(s.world.kernel.rx_delivered[4].seq, 4);
        assert_eq!(s.world.kernel.rx_delivered[0].dst, mac);
        // Ring replenished: still 127 free buffers.
        assert_eq!(s.world.nics[0].rx_free_descriptors(), 127);
        let adapter = s.driver.data_symbol("adapter").unwrap();
        let rx_packets =
            s.m.read_u32(
                s.dom0,
                ExecMode::Guest,
                adapter + e1000::adapter::RX_PACKETS,
            )
            .unwrap();
        assert_eq!(rx_packets, 5);
    }

    #[test]
    fn watchdog_timer_rearms_and_reads_stats() {
        let mut s = bring_up();
        // Let 100 jiffies of virtual time elapse (probe armed the
        // watchdog with a 100-jiffy delta relative to "now").
        s.m.meter.advance_idle(101 * CYCLES_PER_JIFFY);
        let now = s.m.meter.now();
        let due = s.world.kernel.take_due_timers(now);
        assert_eq!(due.len(), 1);
        call_function(
            &mut s.m,
            &mut s.world,
            s.dom0,
            ExecMode::Guest,
            stack_top(),
            due[0].handler,
            &[due[0].data as u32],
            1_000_000,
        )
        .unwrap();
        let adapter = s.driver.data_symbol("adapter").unwrap();
        let runs =
            s.m.read_u32(
                s.dom0,
                ExecMode::Guest,
                adapter + e1000::adapter::WATCHDOG_RUNS,
            )
            .unwrap();
        assert_eq!(runs, 1);
        assert_eq!(s.world.kernel.timers.len(), 1, "watchdog re-armed");
    }

    #[test]
    fn ethtool_dispatch_via_indirect_call() {
        let mut s = bring_up();
        let dispatch = s.driver.entry("e1000_ethtool_dispatch").unwrap();
        // op 2 = get_link, returns 1 via mii_link_ok.
        let r = call_function(
            &mut s.m,
            &mut s.world,
            s.dom0,
            ExecMode::Guest,
            stack_top(),
            dispatch,
            &[2, 0],
            1_000_000,
        )
        .unwrap();
        assert_eq!(r, 1);
    }

    #[test]
    fn fastpath_trace_matches_table1() {
        let mut s = bring_up();
        s.world.kernel.trace.enabled = true;
        s.world.kernel.trace.phase = "fastpath";
        let xmit = s.driver.entry("e1000_xmit_frame").unwrap();
        let f = Frame::data(MacAddr::for_guest(7), MacAddr::for_guest(0), 1, 0);
        for _ in 0..2 {
            let skb = s.world.kernel.pool.alloc(&mut s.m, s.dom0).unwrap();
            skb.fill_from_frame(&mut s.m, s.dom0, &f).unwrap();
            call_function(
                &mut s.m,
                &mut s.world,
                s.dom0,
                ExecMode::Guest,
                stack_top(),
                xmit,
                &[skb.0 as u32, s.netdev as u32],
                1_000_000,
            )
            .unwrap();
        }
        let mac = s.world.nics[0].mac();
        let fr = Frame::data(mac, MacAddr::for_guest(9), 1, 0);
        s.world.nics[0].deliver(&mut s.m.phys, &fr);
        let handler = *s.world.kernel.irq_handlers.values().next().unwrap();
        call_function(
            &mut s.m,
            &mut s.world,
            s.dom0,
            ExecMode::Guest,
            stack_top(),
            handler,
            &[s.netdev as u32],
            10_000_000,
        )
        .unwrap();

        let fast = s.world.kernel.trace.names_in_phase("fastpath");
        // The error-free fast path touches no routines beyond Table 1 —
        // dma_map_page/dma_unmap_page only appear for fragmented skbs.
        for n in &fast {
            assert!(
                RoutineId::lookup(n).is_some_and(|id| id.fast_path().is_some()),
                "unexpected fast-path routine {n}"
            );
        }
        assert!(fast.len() >= 8, "fast path set: {fast:?}");
    }

    #[test]
    fn fragmented_skb_uses_two_descriptors_and_map_page() {
        let mut s = bring_up();
        s.world.kernel.trace.enabled = true;
        s.world.kernel.trace.phase = "fastpath";
        let xmit = s.driver.entry("e1000_xmit_frame").unwrap();
        let skb = s.world.kernel.pool.alloc(&mut s.m, s.dom0).unwrap();
        // Header-only linear part (96 bytes) + a page fragment, exactly
        // like the hypervisor TX glue (paper §5.3).
        let f = Frame::data(MacAddr::for_guest(7), MacAddr::for_guest(0), 1, 0);
        skb.fill_from_frame(&mut s.m, s.dom0, &f).unwrap();
        skb.set_len(&mut s.m, s.dom0, 96).unwrap();
        let frag_page = s.m.phys.alloc_frame().unwrap() * PAGE_SIZE;
        skb.set_frag(&mut s.m, s.dom0, frag_page, f.len() - 96)
            .unwrap();
        let r = call_function(
            &mut s.m,
            &mut s.world,
            s.dom0,
            ExecMode::Guest,
            stack_top(),
            xmit,
            &[skb.0 as u32, s.netdev as u32],
            1_000_000,
        )
        .unwrap();
        assert_eq!(r, 0);
        let sent = s.world.nics[0].take_tx_frames();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].len(), f.len(), "full length reassembled");
        assert!(s
            .world
            .kernel
            .trace
            .names_in_phase("fastpath")
            .contains("dma_map_page"));
        // Second xmit reaps and must call dma_unmap_page.
        let skb2 = s.world.kernel.pool.alloc(&mut s.m, s.dom0).unwrap();
        skb2.fill_from_frame(&mut s.m, s.dom0, &f).unwrap();
        call_function(
            &mut s.m,
            &mut s.world,
            s.dom0,
            ExecMode::Guest,
            stack_top(),
            xmit,
            &[skb2.0 as u32, s.netdev as u32],
            1_000_000,
        )
        .unwrap();
        assert!(s
            .world
            .kernel
            .trace
            .names_in_phase("fastpath")
            .contains("dma_unmap_page"));
    }

    #[test]
    fn config_paths_touch_many_more_routines_than_fastpath() {
        let mut s = bring_up();
        s.world.kernel.trace.enabled = true;
        s.world.kernel.trace.phase = "config";
        let swinit = s.driver.entry("e1000_sw_init").unwrap();
        call_function(
            &mut s.m,
            &mut s.world,
            s.dom0,
            ExecMode::Guest,
            stack_top(),
            swinit,
            &[],
            10_000_000,
        )
        .unwrap();
        let config = s.world.kernel.trace.names_in_phase("config");
        assert!(
            config.len() > 50,
            "config path touches {} routines",
            config.len()
        );
    }

    /// Brings up `n` NICs through the same driver image, one adapter
    /// slot each (the multi-NIC sharded datapath's kernel-level
    /// contract).
    fn bring_up_multi(n: u32) -> (Machine, NativeWorld, SpaceId, LoadedDriver, Vec<u64>) {
        let module = assemble("e1000", &e1000::source()).unwrap();
        let mut m = Machine::new();
        let dom0 = m.new_space();
        for dev in 0..n as u64 {
            for p in 0..(MMIO_WINDOW / PAGE_SIZE) {
                m.space_mut(dom0).map(
                    MMIO_BASE + dev * MMIO_WINDOW + p * PAGE_SIZE,
                    PageEntry::mmio(dev as u32, p),
                );
            }
        }
        m.map_stack(dom0, DOM0_STACK_BASE, DOM0_STACK_PAGES)
            .unwrap();
        let kernel = Dom0Kernel::new(&mut m, dom0, 512).unwrap();
        let nics = (0..n).map(|d| Nic::new(d, MacAddr::for_guest(d))).collect();
        let mut world = NativeWorld { kernel, nics };
        let driver =
            load_driver(&mut m, dom0, &module, 0x0800_0000, 0x2800_0000, |_| None).unwrap();
        let mut netdevs = Vec::new();
        for dev in 0..n {
            let probe = driver.entry("e1000_probe").unwrap();
            let r = call_function(
                &mut m,
                &mut world,
                dom0,
                ExecMode::Guest,
                stack_top(),
                probe,
                &[dev],
                5_000_000,
            )
            .unwrap();
            assert_eq!(r, 0, "probe({dev}) succeeds");
            let netdev = world.kernel.registered_netdevs[dev as usize];
            netdevs.push(netdev);
            let open = driver.entry("e1000_open").unwrap();
            let r = call_function(
                &mut m,
                &mut world,
                dom0,
                ExecMode::Guest,
                stack_top(),
                open,
                &[netdev as u32],
                50_000_000,
            )
            .unwrap();
            assert_eq!(r, 0, "open({dev}) succeeds");
        }
        (m, world, dom0, driver, netdevs)
    }

    #[test]
    fn two_nics_keep_isolated_adapter_state() {
        let (mut m, mut world, dom0, driver, netdevs) = bring_up_multi(2);
        // Both devices have independently programmed rings.
        assert_eq!(world.nics[0].rx_free_descriptors(), 127);
        assert_eq!(world.nics[1].rx_free_descriptors(), 127);
        assert_eq!(world.kernel.irq_handlers.len(), 2, "one IRQ line per NIC");
        // Transmit through the dev-id entry points, interleaved.
        let xmit = driver.entry("e1000_xmit_frame_dev").unwrap();
        for i in 0..6u64 {
            let dev = (i % 2) as u32;
            let skb = world.kernel.pool.alloc(&mut m, dom0).unwrap();
            let f = Frame::data(MacAddr::for_guest(7), MacAddr::for_guest(dev), dev + 1, i);
            skb.fill_from_frame(&mut m, dom0, &f).unwrap();
            let r = call_function(
                &mut m,
                &mut world,
                dom0,
                ExecMode::Guest,
                stack_top(),
                xmit,
                &[skb.0 as u32, netdevs[dev as usize] as u32, dev],
                1_000_000,
            )
            .unwrap();
            assert_eq!(r, 0, "xmit on dev {dev} ok");
        }
        // Each NIC saw exactly its own half, in order.
        for dev in 0..2u32 {
            let sent = world.nics[dev as usize].take_tx_frames();
            assert_eq!(sent.len(), 3, "dev {dev}");
            assert!(sent.iter().all(|f| f.flow == dev + 1));
            assert!(sent.windows(2).all(|w| w[0].seq < w[1].seq));
        }
        // Per-slot statistics never bleed across devices.
        let adapter = driver.data_symbol("adapter").unwrap();
        for dev in 0..2u64 {
            let tx_packets = m
                .read_u32(
                    dom0,
                    ExecMode::Guest,
                    adapter + dev * e1000::ADAPTER_STRIDE + e1000::adapter::TX_PACKETS,
                )
                .unwrap();
            assert_eq!(tx_packets, 3, "dev {dev} counted only its own frames");
        }
    }

    #[test]
    fn per_device_receive_via_dev_entries() {
        let (mut m, mut world, dom0, driver, netdevs) = bring_up_multi(2);
        // Deliver different bursts to each NIC, then reap per device.
        for dev in 0..2u32 {
            let mac = world.nics[dev as usize].mac();
            let frames: Vec<Frame> = (0..(3 + dev as u64))
                .map(|i| Frame::data(mac, MacAddr::for_guest(9), dev, i))
                .collect();
            assert_eq!(
                world.nics[dev as usize].deliver_batch(&mut m.phys, &frames),
                frames.len()
            );
        }
        let poll = driver.entry("e1000_poll_rx_batch_dev").unwrap();
        let mut total = 0;
        for dev in 0..2u32 {
            let r = call_function(
                &mut m,
                &mut world,
                dom0,
                ExecMode::Guest,
                stack_top(),
                poll,
                &[netdevs[dev as usize] as u32, dev],
                10_000_000,
            )
            .unwrap();
            assert_eq!(r, 3 + dev, "dev {dev} reaps its own descriptors only");
            total += r;
        }
        assert_eq!(world.kernel.rx_delivered.len() as u32, total);
        // Both rings fully replenished from their own slots.
        assert_eq!(world.nics[0].rx_free_descriptors(), 127);
        assert_eq!(world.nics[1].rx_free_descriptors(), 127);
    }

    #[test]
    fn each_nic_gets_its_own_watchdog_timer() {
        // Probe arms one watchdog per device (timer data = device
        // index); firing each one updates only its own adapter slot,
        // no matter which device the datapath selected last.
        let (mut m, mut world, dom0, driver, netdevs) = bring_up_multi(2);
        let _ = netdevs;
        assert_eq!(world.kernel.timers.len(), 2, "one watchdog per NIC");
        m.meter.advance_idle(101 * CYCLES_PER_JIFFY);
        let now = m.meter.now();
        let due = world.kernel.take_due_timers(now);
        assert_eq!(due.len(), 2);
        for t in &due {
            call_function(
                &mut m,
                &mut world,
                dom0,
                ExecMode::Guest,
                stack_top(),
                t.handler,
                &[t.data as u32],
                1_000_000,
            )
            .unwrap();
        }
        let adapter = driver.data_symbol("adapter").unwrap();
        for dev in 0..2u64 {
            let runs = m
                .read_u32(
                    dom0,
                    ExecMode::Guest,
                    adapter + dev * e1000::ADAPTER_STRIDE + e1000::adapter::WATCHDOG_RUNS,
                )
                .unwrap();
            assert_eq!(runs, 1, "dev {dev} watchdog ran exactly once");
        }
        // Both re-armed independently.
        assert_eq!(world.kernel.timers.len(), 2, "watchdogs re-armed");
    }

    #[test]
    fn set_device_selects_the_slot_for_control_path_entries() {
        // Control-path entries without a device-id argument (get_stats,
        // update_stats, close, …) operate on the slot selected through
        // `e1000_set_device` — the documented multi-NIC contract.
        let (mut m, mut world, dom0, driver, _netdevs) = bring_up_multi(2);
        let set_device = driver.entry("e1000_set_device").unwrap();
        let get_stats = driver.entry("e1000_get_stats").unwrap();
        let adapter = driver.data_symbol("adapter").unwrap();
        for dev in 0..2u32 {
            call_function(
                &mut m,
                &mut world,
                dom0,
                ExecMode::Guest,
                stack_top(),
                set_device,
                &[dev],
                100_000,
            )
            .unwrap();
            let stats_ptr = call_function(
                &mut m,
                &mut world,
                dom0,
                ExecMode::Guest,
                stack_top(),
                get_stats,
                &[0],
                100_000,
            )
            .unwrap();
            assert_eq!(
                stats_ptr as u64,
                adapter + dev as u64 * e1000::ADAPTER_STRIDE + e1000::adapter::TX_PACKETS,
                "dev {dev}'s stats block"
            );
        }
    }

    #[test]
    fn full_ring_reports_busy() {
        let mut s = bring_up();
        let xmit = s.driver.entry("e1000_xmit_frame").unwrap();
        // Stop the TX engine so descriptors never complete, then overfill.
        s.world.nics[0].mmio_write(&mut s.m.phys, twin_nic::regs::TCTL, 0);
        let mut busy = 0;
        for i in 0..200u64 {
            let Some(skb) = s.world.kernel.pool.alloc(&mut s.m, s.dom0) else {
                break;
            };
            let f = Frame::data(MacAddr::for_guest(7), MacAddr::for_guest(0), 1, i);
            skb.fill_from_frame(&mut s.m, s.dom0, &f).unwrap();
            let r = call_function(
                &mut s.m,
                &mut s.world,
                s.dom0,
                ExecMode::Guest,
                stack_top(),
                xmit,
                &[skb.0 as u32, s.netdev as u32],
                1_000_000,
            )
            .unwrap();
            if r != 0 {
                busy += 1;
                s.world.kernel.free_skb(&s.m, SkBuff(skb.0)).unwrap();
            }
        }
        assert!(busy > 0, "ring eventually reports busy");
    }
}
