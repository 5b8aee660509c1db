//! A repeat build is a fork, and a fork is the fresh build. The first
//! `System::build_with` of a (configuration, options) pair in a process
//! runs the paper's §3.1 steps and notes the pair; the second runs them
//! again and is kept as a template; every later build of the pair clones
//! it. The same script on each must leave the same outcome, the same
//! registry and the same physical memory, byte for byte, and a run on
//! one fork must not reach the template the next fork is made from —
//! neither while that fork lives nor once its memory, dropped, is where
//! the next fork is restored, rewritten only on the pages the run wrote.
//! This file holds one test so that each first build is the process's
//! first of its pair.

use twin_net::{Frame, MacAddr};
use twin_trace::MetricSet;
use twindrivers::{
    fault_injected_source, peer_mac, Config, FaultClass, Law, Outcome, ShardPolicy, System,
    SystemOptions, UpcallMode,
};

/// Every byte of physical memory and the allocator's free count.
fn same_memory(a: &System, b: &System) -> bool {
    fn all(s: &System) -> (usize, &[u8]) {
        let phys = &s.machine.phys;
        let len = phys.total_frames() * twin_machine::PAGE_SIZE as usize;
        (phys.free_frames(), phys.read_bytes(0, len))
    }
    all(a) == all(b)
}

/// A transmit and a receive burst, the receive armed to fault when the
/// driver has the hook, then a transmit that meets the quarantined
/// device; each call's result is part of what the script did.
fn script(sys: &mut System, armed: bool) -> (String, Outcome, MetricSet) {
    let mut calls = format!("{:?}\n", sys.transmit_burst(32));
    if armed {
        let arm = FaultClass::WedgedRing.arm_value(0);
        calls += &format!("{:?}\n", sys.arm_driver_fault(arm));
    }
    let frames: Vec<Frame> = (0..32)
        .map(|seq| Frame::data(MacAddr::for_guest(1), peer_mac(), seq as u32 % 4, seq))
        .collect();
    calls += &format!("{:?}\n", sys.receive_burst(&frames));
    calls += &format!("{:?}\n", sys.transmit_burst(8));
    (calls, sys.outcome(), sys.metrics())
}

/// Where a system's physical memory lives.
fn buffer(sys: &System) -> *const u8 {
    sys.machine.phys.read_bytes(0, 0).as_ptr()
}

/// Eight rounds of a burst each way over 64 flows — far more memory
/// written than [`script`] touches, through every write path: the
/// interpreter's stores and pushes (cached and walked, the rewritten
/// driver's fused spill frames among them), the NICs' DMA, the
/// machine's byte writes — then a copy of the first 64 KiB onto the
/// top of memory, where no frame is allocated.
fn bulk_run(sys: &mut System) {
    for round in 0..8u64 {
        let frames: Vec<Frame> = (0..32)
            .map(|i| {
                let seq = round * 32 + i;
                Frame::data(MacAddr::for_guest(1), peer_mac(), (seq % 64) as u32, seq)
            })
            .collect();
        // A faulted driver's calls fail until its device is reset; the
        // run only has to write memory.
        let _ = sys.receive_burst(&frames);
        let _ = sys.transmit_burst(32);
    }
    const COPY: usize = 64 << 10;
    let phys = &mut sys.machine.phys;
    let top = phys.total_frames() * twin_machine::PAGE_SIZE as usize;
    phys.copy_within(0, (top - COPY) as u64, COPY);
}

#[test]
fn a_fork_is_the_fresh_build() {
    let bulk = SystemOptions {
        num_nics: 4,
        shard: ShardPolicy::FlowHash,
        zero_copy: true,
        napi_weight: 16,
        upcall_mode: UpcallMode::Deferred,
        upcall_flush_deadline_cycles: Some(300_000),
        ..SystemOptions::default()
    };
    let iommu = SystemOptions {
        iommu: true,
        ..SystemOptions::default()
    };
    let wedged = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WedgedRing)),
        ..SystemOptions::default()
    };
    let mut cases: Vec<(String, Config, SystemOptions)> = Config::ALL
        .map(|c| (c.label().to_string(), c, SystemOptions::default()))
        .into();
    cases.push(("bulk".into(), Config::TwinDrivers, bulk));
    cases.push(("iommu".into(), Config::TwinDrivers, iommu));
    cases.push(("wedged_ring".into(), Config::TwinDrivers, wedged));
    for (name, config, opts) in cases {
        let armed = opts.driver_source.is_some();
        let build = || System::build_with(config, &opts).unwrap();
        let mut fresh = build();
        let ran = script(&mut fresh, armed);
        // The second build runs the steps again, the third is a fork.
        for which in ["second build", "fork"] {
            let mut again = build();
            let rerun = script(&mut again, armed);
            assert_eq!(
                rerun.0, ran.0,
                "{name}: the {which}'s calls returned differently"
            );
            let law = rerun.1.check(&ran.1, Law::BitExact);
            law.unwrap_or_else(|e| panic!("{name}: the {which} ran differently: {e}"));
            assert_eq!(rerun.2, ran.2, "{name}: the {which}'s registry differs");
            assert!(
                same_memory(&again, &fresh),
                "{name}: the {which}'s memory differs"
            );
        }

        let mut second = build();
        let before = second.clone();
        bulk_run(&mut second);
        let third = build();
        assert!(
            same_memory(&third, &before),
            "{name}: a run on one fork reached the next"
        );
        assert_eq!(third.metrics(), before.metrics(), "{name}");

        // The next fork is restored where the bulk run wrote.
        let written = buffer(&second);
        drop(second);
        let mut fourth = build();
        assert_eq!(
            buffer(&fourth),
            written,
            "{name}: not on the dropped fork's memory"
        );
        assert!(
            same_memory(&fourth, &before),
            "{name}: a fork on a dropped fork's memory kept a page it wrote"
        );
        let rerun = script(&mut fourth, armed);
        assert_eq!(rerun.0, ran.0, "{name}: the resynced fork's calls");
        let law = rerun.1.check(&ran.1, Law::BitExact);
        law.unwrap_or_else(|e| panic!("{name}: the resynced fork ran differently: {e}"));
        assert_eq!(
            rerun.2, ran.2,
            "{name}: the resynced fork's registry differs"
        );
    }
}
