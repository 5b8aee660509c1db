//! Quickstart: derive a hypervisor driver from the e1000 guest driver,
//! send and receive traffic through it, and look at what the mechanism
//! did under the hood.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use twindrivers::machine::Term;
use twindrivers::{throughput, Config, System};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build the full TwinDrivers stack: assemble the e1000 driver from
    // its assembly source, rewrite it for SVM, load the VM instance into
    // dom0 (which initialises the NIC), load the hypervisor instance,
    // and attach a guest with a paravirtual driver.
    let mut sys = System::build(Config::TwinDrivers)?;

    let stats = sys.rewrite_stats().expect("rewrite statistics");
    println!("derived hypervisor driver from the e1000 VM driver:");
    println!("  instructions before rewriting : {}", stats.insns_before);
    println!("  instructions after rewriting  : {}", stats.insns_after);
    println!("  memory-reference sites        : {}", stats.mem_sites);
    println!("  string-instruction sites      : {}", stats.string_sites);
    println!("  indirect-call sites           : {}", stats.indirect_sites);
    println!(
        "  code expansion                : {:.2}x  (mem fraction {:.0}%)",
        stats.expansion_factor(),
        stats.mem_fraction() * 100.0
    );
    println!();

    // Guest transmit: paravirtual driver -> hypercall -> hypervisor
    // driver -> NIC. No domain switches.
    for _ in 0..100 {
        sys.transmit_one()?;
    }
    let sent = sys.take_wire_frames();
    println!("transmitted {} frames from the guest", sent.len());

    // Guest receive: NIC interrupt -> hypervisor driver (softirq) ->
    // demultiplex by MAC -> copy into the guest.
    for _ in 0..100 {
        sys.receive_one()?;
    }
    println!("received    {} frames in the guest", sys.delivered_rx());
    println!(
        "domain switches on the fast path: {}",
        sys.machine.meter.payments(Term::DomainSwitch)
    );
    println!();

    // Measure the per-packet cost and convert to netperf-style
    // throughput on the paper's 5-NIC testbed.
    let tx = sys.measure_tx(200)?;
    let t = throughput(tx.total(), 5);
    println!("{}", tx.row("domU-twin"));
    println!(
        "transmit throughput: {:.0} Mb/s at {:.0}% CPU  (paper: 3902 Mb/s)",
        t.mbps,
        t.cpu_util * 100.0
    );

    let svm = sys.world.svm_hyp.as_ref().expect("hypervisor SVM");
    println!();
    println!("SVM behind the scenes:");
    println!("  stlb misses (cold)   : {}", svm.stats().misses);
    println!("  dom0 pages mapped    : {}", svm.stats().pages_mapped);
    println!("  illegal accesses     : {}", svm.stats().rejected);
    Ok(())
}
