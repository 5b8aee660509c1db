//! A system built on recycled physical memory is the system built on
//! fresh memory. A dropped `PhysMem` hands its buffer to the next one of
//! its size (`twin_machine::mem`), so what a dirtier system left there —
//! four NICs' rings and pools, a rogue DMA descriptor and the frame it
//! names — must read as zero to the next build: the same run leaves the
//! same outcome, the same registry and the same physical memory, byte
//! for byte. The build checked on recycled memory is its pair's second,
//! which runs the steps again; the third is a fork of it, restored onto
//! recycled memory too. This file holds one test so that its first build
//! is the process's first and runs on fresh memory.

use twin_machine::PAGE_SIZE;
use twin_net::{Frame, MacAddr};
use twin_trace::MetricSet;
use twindrivers::{peer_mac, Config, Law, Outcome, ShardPolicy, System, SystemOptions};

/// Physical memory as 1 MiB chunks by index, all-zero chunks left out.
type Image = Vec<(usize, Vec<u8>)>;

fn image(sys: &System) -> Image {
    const CHUNK: usize = 1 << 20;
    let phys = &sys.machine.phys;
    let all = phys.read_bytes(0, phys.total_frames() * PAGE_SIZE as usize);
    let zero = vec![0; CHUNK];
    let chunks = all.chunks(CHUNK).enumerate();
    chunks
        .filter(|(_, c)| *c != zero)
        .map(|(i, c)| (i, c.to_vec()))
        .collect()
}

/// One TwinDrivers burst each way, then what it did.
fn tx_rx(sys: &mut System) -> (Outcome, MetricSet, Image) {
    assert_eq!(sys.transmit_burst(32).unwrap(), 32);
    let frames: Vec<Frame> = (0..32)
        .map(|seq| Frame::data(MacAddr::for_guest(1), peer_mac(), 2, seq))
        .collect();
    assert_eq!(sys.receive_burst(&frames).unwrap(), 32);
    (sys.outcome(), sys.metrics(), image(sys))
}

/// Four NICs in bulk, both ways: far more memory written than [`tx_rx`]
/// touches.
fn bulk_run() {
    let opts = SystemOptions {
        num_nics: 4,
        shard: ShardPolicy::FlowHash,
        zero_copy: true,
        napi_weight: 16,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let guest = MacAddr::for_guest(1);
    for round in 0..8u64 {
        let frames: Vec<Frame> = (0..32)
            .map(|i| {
                Frame::data(
                    guest,
                    peer_mac(),
                    ((round * 32 + i) % 64) as u32,
                    round * 32 + i,
                )
            })
            .collect();
        assert_eq!(sys.receive_burst(&frames).unwrap(), 32);
        assert_eq!(sys.transmit_burst(32).unwrap(), 32);
    }
}

/// `tests/safety.rs`'s rogue descriptor, and the unowned frame it names
/// written as a device without an IOMMU would.
fn rogue_writes() {
    let opts = SystemOptions {
        iommu: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    sys.transmit_burst(5).unwrap();
    let tdbal = sys.world.nics[0].mmio_read(twin_nic::regs::TDBAL) as u64;
    let tdh = sys.world.nics[0].mmio_read(twin_nic::regs::TDH);
    let daddr = tdbal + tdh as u64 * twin_nic::DESC_SIZE;
    let rogue = 0x0F00_0000;
    sys.machine.phys.write_u32(daddr, rogue as u32);
    sys.machine.phys.write_u32(daddr + 8, 64);
    sys.machine
        .phys
        .write_u8(daddr + 11, twin_nic::txcmd::EOP | twin_nic::txcmd::RS);
    sys.machine.phys.write_bytes(rogue, &[0xa5; 64]);
}

#[test]
fn a_system_on_recycled_memory_is_the_system_on_fresh_memory() {
    let fresh = tx_rx(&mut System::build(Config::TwinDrivers).unwrap());
    bulk_run();
    rogue_writes();
    let recycled = tx_rx(&mut System::build(Config::TwinDrivers).unwrap());
    let law = recycled.0.check(&fresh.0, Law::BitExact);
    law.unwrap_or_else(|e| panic!("recycled memory changed the run: {e}"));
    assert_eq!(recycled.1, fresh.1, "recycled memory changed the registry");
    let chunks = |image: &Image| image.iter().map(|c| c.0).collect::<Vec<_>>();
    assert_eq!(
        chunks(&recycled.2),
        chunks(&fresh.2),
        "non-zero 1 MiB chunks"
    );
    assert!(recycled.2 == fresh.2, "recycled memory reads differently");
    let forked = tx_rx(&mut System::build(Config::TwinDrivers).unwrap());
    forked.0.check(&fresh.0, Law::BitExact).unwrap();
    assert_eq!(forked.1, fresh.1, "a fork changed the registry");
    assert!(forked.2 == fresh.2, "a fork reads differently");
}
