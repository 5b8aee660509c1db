//! # twindrivers — semi-automatic derivation of fast and safe hypervisor
//! network drivers from guest OS drivers
//!
//! A full reproduction of *TwinDrivers* (Menon, Schubert, Zwaenepoel —
//! ASPLOS 2009) on a simulated substrate. The paper's pipeline is
//! faithfully implemented end to end:
//!
//! 1. the e1000 driver, written in an x86-32-like assembly
//!    ([`twin_kernel::e1000`]), is **rewritten** so that every heap
//!    reference goes through Software Virtual Memory ([`twin_rewriter`],
//!    [`twin_svm`]);
//! 2. the VM instance of the rewritten driver is loaded into dom0 with an
//!    identity stlb and initialises the (simulated) NIC;
//! 3. the hypervisor instance is loaded into the hypervisor, its data
//!    references resolved to dom0 addresses, with the ten fast-path
//!    support routines implemented natively in the hypervisor and
//!    everything else forwarded to dom0 by upcalls ([`twin_xen`]);
//! 4. guests transmit and receive through a paravirtual driver that
//!    invokes the hypervisor driver directly — no domain switches.
//!
//! [`System`] assembles the four measured configurations (native Linux,
//! Xen dom0, baseline Xen guest, TwinDrivers guest) and [`measure`]
//! converts per-packet cycle breakdowns into the paper's figures.
//! [`System::build_with`] validates its [`SystemOptions`] — a knob the
//! configuration cannot honour is an error — and then reads as the
//! paper's §3.1 list: the machine with dom0 and its NICs, the VM
//! instance, the primary guest, the hypervisor instance, the zero-copy
//! pool. [`System::outcome`] captures what a run did as an [`Outcome`],
//! and [`Outcome::check`] is the one law every "knob on ≡ knob off"
//! claim is checked against.
//!
//! ## How `System` is organised
//!
//! One struct, its `impl` split by pipeline stage under `src/system/`
//! (validation and the five build steps, sharding, driver calls and
//! fault recovery, virtual timers, TX, RX, NAPI, demux flush and
//! zero-copy, metrics). State is per resource — one private `DevState` per NIC,
//! one `GuestState` per domain id, each field at its neutral value
//! when its feature is off — both receive entry points share one
//! ring-landing pass, and every fast-path driver invocation goes
//! through one call path. The repository README's section of the same
//! name ("How `System` is organised") has the file table, what each
//! state struct owns and the two policy arguments of the landing pass.
//!
//! ## The burst datapath
//!
//! On top of the paper's per-packet pipeline, the datapath is
//! **burst-based end to end** — the single biggest throughput lever in
//! modern driver work (cf. Emmerich et al. on high-level-language
//! drivers, Kedia & Bansal on software device passthrough):
//!
//! * the NIC model fills a whole burst of RX descriptors and asserts
//!   **one coalesced interrupt** ([`twin_nic::Nic::deliver_batch`]), and
//!   one `TDT` doorbell drains the whole TX tail in one pass;
//! * the e1000 driver exposes burst entry points — `e1000_xmit_batch`
//!   (one lock, N descriptor fills, one doorbell) and
//!   `e1000_poll_rx_budget` (NAPI-style budgeted reap, no `ICR` read) —
//!   next to the classic per-packet `e1000_xmit_frame`/`e1000_intr`;
//! * the hypervisor coalesces duplicate driver softirqs and invokes the
//!   hypervisor driver instance **once per burst**, so a burst costs one
//!   hypercall, one driver invocation and one doorbell;
//! * [`System::transmit_burst`] / [`System::receive_burst`] run the
//!   whole path burst-wise; the receive demux fans one batch out to
//!   every destination guest's RX queue in a single sweep with one
//!   virtual interrupt per guest, and stack costs amortise GRO/TSO-style
//!   (first packet of a burst pays the full wakeup cost, the rest a
//!   marginal cost).
//!
//! [`System::transmit_one`] / [`System::receive_one`] are pure
//! burst-of-1 wrappers, so all per-packet figures reproduce unchanged;
//! [`System::measure_tx_burst`] / [`System::measure_rx_burst`] sweep
//! burst sizes and report amortized cycles/packet plus
//! interrupts/doorbells per packet (`cargo bench -p twin-bench --bench
//! batch_sweep`). At burst 32 the TwinDrivers configuration moves the
//! same traffic with ≥ 1.3× fewer amortized cycles/packet and 32× fewer
//! interrupts/packet than burst 1.
//!
//! ## The multi-NIC sharded datapath
//!
//! On top of the burst pipeline, [`System`] drives up to
//! [`kernel::e1000::MAX_NICS`] NICs from **one** driver image, like the
//! paper's five-NIC testbed (§6.1): each device gets its own MMIO
//! window, descriptor rings, IRQ line, softirq source and adapter slot
//! (the driver's `*_dev` entry points take a device id and select the
//! slot before the shared body runs), and a [`ShardPolicy`] maps traffic
//! to devices — `Static` pinning, `RoundRobin` burst rotation, or
//! `FlowHash` flow pinning (which preserves per-flow order by
//! construction). Each NIC's RX batch demuxes into per-guest queues and
//! one fan-out flush delivers them with one virtual interrupt per guest
//! per fairness-quantum round, so a flooding guest cannot starve
//! another guest's virq latency.
//!
//! [`measure::measure_aggregate_throughput`] converts the amortized
//! cycles/packet of a sharded run into aggregate RX+TX throughput over
//! the system's links (`cargo bench -p twin-bench --bench shard_sweep`
//! sweeps 1→8 NICs at burst 1/8/32 and emits `BENCH_shard.json`).
//! Aggregate throughput scales ≥ 3× from one to four NICs at burst 32;
//! a single NIC is the degenerate case and reproduces PR 1's burst
//! figures cycle for cycle.
//!
//! ## The deferred-upcall engine
//!
//! Support routines the hypervisor does not implement natively upcall
//! to dom0 at two domain switches per call (paper §4.2, Figure 10).
//! With [`SystemOptions::upcall_mode`] set to
//! [`UpcallMode::Deferred`], eligible calls are instead queued in the
//! ring at [`twin_xen::UPCALL_RING_BASE`] — per the routine's
//! [`twin_kernel::DeferClass`] in [`twin_kernel::ROUTINES`]:
//! fire-and-forget side effects defer outright, DMA mappings continue
//! on a locally computed result, other inline-consumed results suspend
//! the burst via a continuation — and dom0 drains the whole ring in **one**
//! switch-pair at the end of each burst pass (or on queue-full /
//! high-water kick), posting completions back through the event
//! channel. At burst 32 with four or more routines forced onto the
//! upcall path this sustains ≥ 3× the synchronous throughput, while
//! [`UpcallMode::Sync`] (the default) stays cycle-exact with the PR 2
//! path; the registry's `upcall_latency` histogram ([`System::metrics`])
//! reports p50/p99 cycles-to-completion so the latency cost of deferral
//! stays visible
//! (`cargo bench -p twin-bench --bench upcall_sweep` emits
//! `BENCH_upcall.json`).
//!
//! ## The virtual-time engine
//!
//! Every time-driven feature keys on the virtual clock
//! ([`twin_machine::CycleMeter::now`]):
//! a monotonic cycle counter advanced by the cost accounting itself
//! (charged work *is* elapsed time; [`System::run_idle`] advances it
//! without charging, firing due virtual timers event-driven along the
//! way). Kernel timers live in a [`twin_kernel::TimerQueue`] ordered by
//! expiry cycle, then arm order ([`twin_kernel::CYCLES_PER_JIFFY`]
//! converts `mod_timer` deltas); each NIC models the
//! real e1000 `ITR` register — IRQ *delivery* is suppressed until the
//! throttling window opens while the cause stays latched
//! ([`Itr::Fixed`], [`System::set_itr`]; delay, never drop; [`Itr::Auto`]
//! retunes it per device from observed traffic);
//! and [`SystemOptions::upcall_flush_deadline_cycles`] arms a
//! deadline-driven upcall flush so an idle system's deferred upcalls
//! complete in bounded time (serviced flush-before-IRQ against the
//! moderation timer). [`System::measure_rx_moderated`] paces arrivals
//! on the virtual clock and reports the latency/throughput trade-off
//! (`cargo bench -p twin-bench --bench moderation_sweep` emits
//! `BENCH_itr.json`): at burst 32 on 4 NICs, moderation cuts
//! interrupts/packet ≥ 4× within 2× of the unmoderated p99, and
//! ITR 0 with no deadline stays cycle-exact with the PR 3 path.
//!
//! ```no_run
//! use twindrivers::{Config, System};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sys = System::build(Config::TwinDrivers)?;
//! let tx = sys.measure_tx(100)?;
//! println!("{}", tx.row("domU-twin"));
//! let t = twindrivers::measure::throughput(tx.total(), 5);
//! println!("transmit: {:.0} Mb/s at {:.0}% CPU", t.mbps, t.cpu_util * 100.0);
//! // Amortized cost at burst 32 (one doorbell/interrupt per burst):
//! let b = sys.measure_tx_burst(32, 256)?;
//! println!("{}", b.breakdown.row("burst 32"));
//! # Ok(())
//! # }
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod iommu;
pub mod measure;
pub mod outcome;
pub mod system;

pub use iommu::Iommu;
pub use measure::{
    balanced_flow_set, fault_injected_source, measure_aggregate_throughput, measure_fault_recovery,
    measure_rx_affinity, measure_rx_autotuned, measure_rx_livelock, throughput, AffinityPoint,
    AggregateThroughput, AutotunedRx, Breakdown, BurstMeasurement, FaultClass, FaultPoint,
    LivelockPoint, LoadProfile, ModeratedRx, OverloadProfile, RxPhase, Throughput, CPU_HZ,
    TESTBED_NICS, VICTIM_FRAMES_PER_BURST,
};
pub use outcome::{Law, Outcome};
pub use system::{
    peer_mac, Config, Itr, RecoveryReport, ShardPolicy, Snapshot, System, SystemError,
    SystemOptions, UpcallMode, World, MAX_BURST,
};

// Re-export the substrate crates so downstream users (workloads, benches,
// examples) need only one dependency.
pub use twin_isa as isa;
pub use twin_kernel as kernel;
pub use twin_machine as machine;
pub use twin_net as net;
pub use twin_nic as nic;
pub use twin_rewriter as rewriter;
pub use twin_sched as sched;
pub use twin_svm as svm;
pub use twin_trace as trace;
pub use twin_xen as xen;

#[cfg(test)]
mod tests {
    use super::*;
    use twin_machine::{CostDomain, Event, Term};

    #[test]
    fn native_linux_transmits_and_receives() {
        let mut sys = System::build(Config::NativeLinux).unwrap();
        for _ in 0..20 {
            sys.transmit_one().unwrap();
        }
        assert_eq!(sys.take_wire_frames().len(), 20);
        for _ in 0..20 {
            sys.receive_one().unwrap();
        }
        assert_eq!(sys.delivered_rx(), 20);
    }

    #[test]
    fn twin_guest_transmits_through_hypervisor_driver() {
        let mut sys = System::build(Config::TwinDrivers).unwrap();
        for _ in 0..20 {
            sys.transmit_one().unwrap();
        }
        let frames = sys.take_wire_frames();
        assert_eq!(frames.len(), 20);
        // Full-size frames reassembled from header + guest fragment.
        assert_eq!(frames[0].len(), 1514);
        // No domain switches on the transmit path.
        assert_eq!(sys.machine.meter.payments(Term::DomainSwitch), 0);
        assert!(sys.machine.meter.insns() > 0);
    }

    #[test]
    fn twin_guest_receives_via_demux() {
        let mut sys = System::build(Config::TwinDrivers).unwrap();
        for _ in 0..20 {
            sys.receive_one().unwrap();
        }
        assert_eq!(sys.delivered_rx(), 20);
        assert_eq!(sys.machine.meter.payments(Term::DomainSwitch), 0);
        assert_eq!(sys.machine.meter.event(Event::DemuxMiss), 0);
    }

    #[test]
    fn baseline_guest_pays_domain_switches() {
        let mut sys = System::build(Config::XenGuest).unwrap();
        for _ in 0..10 {
            sys.transmit_one().unwrap();
        }
        assert_eq!(sys.take_wire_frames().len(), 10);
        assert!(
            sys.machine.meter.payments(Term::DomainSwitch) >= 20,
            "two per packet"
        );
        assert!(sys.machine.meter.payments(Term::GrantMap) >= 10);
        for _ in 0..10 {
            sys.receive_one().unwrap();
        }
        assert_eq!(sys.delivered_rx(), 10);
    }

    #[test]
    fn tx_cost_ordering_matches_paper() {
        // Figure 7: domU > domU-twin > dom0 > Linux.
        let mut costs = Vec::new();
        for c in [
            Config::XenGuest,
            Config::TwinDrivers,
            Config::XenDom0,
            Config::NativeLinux,
        ] {
            let mut sys = System::build(c).unwrap();
            let b = sys.measure_tx(50).unwrap();
            costs.push((c, b.total()));
        }
        for w in costs.windows(2) {
            assert!(
                w[0].1 > w[1].1,
                "{} ({:.0}) should cost more than {} ({:.0})",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
        // TwinDrivers improves on the baseline guest by at least 1.7x
        // (paper: 2.4x in CPU-scaled units).
        let baseline = costs[0].1;
        let twin = costs[1].1;
        assert!(
            baseline / twin > 1.7,
            "improvement only {:.2}x",
            baseline / twin
        );
    }

    #[test]
    fn rx_cost_ordering_matches_paper() {
        // Figure 8: domU > domU-twin > dom0 > Linux.
        let mut costs = Vec::new();
        for c in [
            Config::XenGuest,
            Config::TwinDrivers,
            Config::XenDom0,
            Config::NativeLinux,
        ] {
            let mut sys = System::build(c).unwrap();
            let b = sys.measure_rx(50).unwrap();
            costs.push((c, b.total()));
        }
        for w in costs.windows(2) {
            assert!(
                w[0].1 > w[1].1,
                "{} ({:.0}) should cost more than {} ({:.0})",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
        let baseline = costs[0].1;
        let twin = costs[1].1;
        assert!(
            baseline / twin > 1.5,
            "improvement only {:.2}x",
            baseline / twin
        );
    }

    #[test]
    fn rewritten_driver_slowdown_in_paper_range() {
        // Paper §6.2: "the rewritten driver runs slower by a factor of
        // roughly 2 to 3".
        let mut native = System::build(Config::NativeLinux).unwrap();
        let nb = native.measure_tx(50).unwrap();
        let mut twin = System::build(Config::TwinDrivers).unwrap();
        let tb = twin.measure_tx(50).unwrap();
        let ratio = tb.cycles(CostDomain::Driver) / nb.cycles(CostDomain::Driver);
        assert!(
            (1.6..4.0).contains(&ratio),
            "rewritten/native driver ratio {ratio:.2}"
        );
    }

    #[test]
    fn upcalls_forced_on_fastpath_cost_throughput() {
        let mut base = System::build(Config::TwinDrivers).unwrap();
        let b0 = base.measure_tx(30).unwrap();
        let opts = SystemOptions {
            upcall_count: 9,
            ..SystemOptions::default()
        };
        let mut slow = System::build_with(Config::TwinDrivers, &opts).unwrap();
        let b9 = slow.measure_tx(30).unwrap();
        assert!(
            b9.total() > b0.total() * 3.0,
            "9 upcalls {:.0} vs 0 upcalls {:.0}",
            b9.total(),
            b0.total()
        );
        assert!(slow.machine.meter.payments(Term::UpcallOverhead) > 0);
    }

    #[test]
    fn iommu_extension_builds_and_allows_legitimate_traffic() {
        let opts = SystemOptions {
            iommu: true,
            ..SystemOptions::default()
        };
        let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
        for _ in 0..5 {
            sys.transmit_one().unwrap();
        }
        assert_eq!(sys.take_wire_frames().len(), 5);
        assert_eq!(sys.world.iommu.as_ref().unwrap().blocked, 0);
    }

    #[test]
    fn burst32_amortizes_cycles_and_interrupts() {
        // The tentpole acceptance numbers: on the TwinDrivers config a
        // burst-32 run must show ≥ 1.3× fewer amortized cycles/packet and
        // ≥ 8× fewer interrupts/packet than burst-1.
        let mut one = System::build(Config::TwinDrivers).unwrap();
        let rx1 = one.measure_rx_burst(1, 96).unwrap();
        let mut many = System::build(Config::TwinDrivers).unwrap();
        let rx32 = many.measure_rx_burst(32, 96).unwrap();
        let cycle_ratio = rx1.breakdown.total() / rx32.breakdown.total();
        assert!(
            cycle_ratio >= 1.3,
            "rx cycles/packet only {cycle_ratio:.2}x better at burst 32"
        );
        let irq_ratio = rx1.irqs_per_packet / rx32.irqs_per_packet.max(1e-9);
        assert!(
            irq_ratio >= 8.0,
            "rx interrupts/packet only {irq_ratio:.1}x better at burst 32"
        );

        let mut t1 = System::build(Config::TwinDrivers).unwrap();
        let tx1 = t1.measure_tx_burst(1, 96).unwrap();
        let mut t32 = System::build(Config::TwinDrivers).unwrap();
        let tx32 = t32.measure_tx_burst(32, 96).unwrap();
        let tx_cycle_ratio = tx1.breakdown.total() / tx32.breakdown.total();
        assert!(
            tx_cycle_ratio >= 1.3,
            "tx cycles/packet only {tx_cycle_ratio:.2}x better at burst 32"
        );
        let db_ratio = tx1.doorbells_per_packet / tx32.doorbells_per_packet.max(1e-9);
        assert!(
            db_ratio >= 8.0,
            "tx doorbells/packet only {db_ratio:.1}x better at burst 32"
        );
    }

    #[test]
    fn bursts_deliver_identical_frames_in_order() {
        // Burst-of-N puts exactly the same frames on the wire, in the
        // same order, as N per-packet transmits.
        let mut a = System::build(Config::TwinDrivers).unwrap();
        for _ in 0..24 {
            a.transmit_one().unwrap();
        }
        let singles = a.take_wire_frames();
        let mut b = System::build(Config::TwinDrivers).unwrap();
        assert_eq!(b.transmit_burst(24).unwrap(), 24);
        let burst = b.take_wire_frames();
        assert_eq!(singles, burst);
    }

    #[test]
    fn polled_rx_matches_interrupt_rx() {
        let opts = SystemOptions {
            napi_weight: 16,
            ..SystemOptions::default()
        };
        let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
        let frames: Vec<_> = (0..11)
            .map(|i| twin_net::Frame {
                dst: twin_net::MacAddr::for_guest(1),
                src: peer_mac(),
                ethertype: twin_net::EtherType::Ipv4,
                payload_len: twin_net::MTU,
                flow: 2,
                seq: i,
            })
            .collect();
        // The first arrival's interrupt acks and masks the device; the
        // next ten frames fill descriptors without the interrupt path.
        let now = sys.now_cycles();
        assert_eq!(sys.rx_open_loop_arrival(&frames[..1], now).unwrap(), 1);
        assert!(sys.in_poll_mode(0));
        let irqs = sys.machine.meter.payments(Term::IrqDispatch);
        assert_eq!(sys.rx_open_loop_arrival(&frames[1..], now).unwrap(), 10);
        sys.rx_open_loop_service(now + 1_000_000).unwrap();
        assert_eq!(sys.delivered_rx(), 11, "polled path reaps the whole burst");
        assert_eq!(sys.machine.meter.payments(Term::NapiPollDispatch), 1);
        assert_eq!(
            sys.machine.meter.payments(Term::IrqDispatch),
            irqs,
            "no interrupt dispatched"
        );
    }

    #[test]
    fn throughput_numbers_in_paper_band() {
        // Figure 5 shape: Linux saturates the links below CPU saturation;
        // twin beats the baseline guest by at least 2x.
        let mut linux = System::build(Config::NativeLinux).unwrap();
        let lt = throughput(linux.measure_tx(50).unwrap().total(), 5);
        let mut twin = System::build(Config::TwinDrivers).unwrap();
        let tt = throughput(twin.measure_tx(50).unwrap().total(), 5);
        let mut guest = System::build(Config::XenGuest).unwrap();
        let gt = throughput(guest.measure_tx(50).unwrap().total(), 5);
        assert_eq!(lt.mbps, 5000.0, "native saturates the links");
        assert!(lt.cpu_util < 1.0, "…below CPU saturation");
        assert!(tt.mbps > 2.0 * gt.mbps, "twin ≥ 2x baseline guest");
        assert!(tt.mbps / lt.mbps > 0.5, "twin within reach of native");
    }
}
