//! The metrics registry as a contract: every counter is monotone — no
//! call rewinds one, a measurement harness included — and the keys the
//! benchmark reads by name (`benchmark/README.md`, "Registry keys read by
//! name") are published, each alias equal to the meter rows it sums.
//! The rest of that README's "API surface" — the `System` and `World`
//! items the benchmark calls — is used once here, because `cargo test`
//! does not build the benchmark's own workspace.

mod scenarios;

use scenarios::{composed, RUNS};
use twin_machine::{CostDomain, Term};
use twin_net::{Frame, MacAddr};
use twin_trace::MetricSet;
use twin_xen::{DomId, DomainKind};
use twindrivers::{peer_mac, Config, System, SystemOptions};

/// A receive burst across both guests and a MAC nobody owns (a demux
/// miss), on flows that spread over the four NICs.
fn burst(round: u64) -> Vec<Frame> {
    (0..32u64)
        .map(|i| {
            let dst = match i % 8 {
                0 => MacAddr::for_guest(77),
                1 | 2 => MacAddr::for_guest(2),
                _ => MacAddr::for_guest(1),
            };
            Frame::data(dst, peer_mac(), (i % 11) as u32, 500_000 + round * 32 + i)
        })
        .collect()
}

/// Counters that report current state rather than count occurrences:
/// these alone may fall between two snapshots.
fn is_gauge(key: &str) -> bool {
    let family = |prefix: &str, suffix: &str| key.starts_with(prefix) && key.ends_with(suffix);
    family("guest", ".queued") || family("nic", ".itr") || key == "fault.quarantined"
}

/// Every non-gauge counter of `earlier` is still published in `later`,
/// at a value no smaller.
fn assert_monotone(earlier: &MetricSet, later: &MetricSet, step: &str) {
    for (key, before) in earlier.counters().filter(|(k, _)| !is_gauge(k)) {
        let after = later.counter(key);
        assert!(after >= before, "{step} rewound {key}: {before} -> {after}");
    }
}

#[test]
fn no_call_rewinds_a_counter() {
    let mut sys = composed();
    let mut last = sys.metrics();
    let mut step = |sys: &mut System, name: &str| {
        let now = sys.metrics();
        assert_monotone(&last, &now, name);
        last = now;
    };
    for round in 0..3u64 {
        sys.transmit_burst(32).unwrap();
        sys.take_wire_frames();
        step(&mut sys, "transmit_burst");
        sys.receive_burst(&burst(round)).unwrap();
        step(&mut sys, "receive_burst");
        sys.run_idle(400_000).unwrap();
        step(&mut sys, "run_idle");
        sys.measure_tx_burst(32, 64).unwrap();
        sys.take_wire_frames();
        step(&mut sys, "measure_tx_burst");
        sys.measure_rx_burst(32, 64).unwrap();
        step(&mut sys, "measure_rx_burst");
    }
}

/// The registry keys `benchmark/README.md` says the benchmark reads by
/// name. For a `nic{i}` or `guest{g}` family one present member is
/// enough.
const READ_BY_NAME: [&str; 31] = [
    "meter.cycles.dom0",
    "meter.cycles.domU",
    "meter.cycles.Xen",
    "meter.cycles.e1000",
    "event.irq",
    "event.doorbell",
    "event.irq_moderated",
    "event.mmio_read",
    "event.mmio_write",
    "event.napi_poll",
    "event.copy_fallback",
    "event.stlb_miss",
    "event.stlb_call_xlat",
    "xen.switches",
    "xen.hypercalls",
    "xen.virqs_sent",
    "grant.copies",
    "grant.maps",
    "grantcache.hits",
    "grantcache.misses",
    "upcall.executed",
    "upcall.flushes",
    "nic{}.rx_packets",
    "nic{}.tx_packets",
    "nic{}.rx_missed",
    "nic{}.poll_cycles",
    "guest{}.early_drops",
    "guest{}.queue_drops",
    "guest{}.queued",
    "trace.events_recorded",
    "trace.events_dropped",
];

#[test]
fn every_key_the_benchmark_reads_is_published_and_each_alias_is_its_rows() {
    let mut sys = composed();
    for round in 0..4u64 {
        sys.transmit_burst(32).unwrap();
        sys.take_wire_frames();
        sys.receive_burst(&burst(round)).unwrap();
        sys.run_idle(400_000).unwrap();
    }
    let ms = sys.metrics();
    for key in READ_BY_NAME {
        let published = match key.split_once("{}") {
            Some((family, field)) => (0..8).any(|n| {
                ms.counters()
                    .any(|(k, _)| k == format!("{family}{n}{field}"))
            }),
            None => ms.counters().any(|(k, _)| k == key),
        };
        assert!(published, "{key} is not published");
    }
    assert!(ms.histograms().any(|(k, _)| k == "upcall_latency"));

    let rows = |names: &[&str]| -> u64 {
        names
            .iter()
            .map(|n| ms.counter(&format!("event.{n}")))
            .sum()
    };
    for (alias, of) in [
        ("xen.switches", &["domain_switch"][..]),
        ("xen.hypercalls", &["hypercall"]),
        ("xen.virqs_sent", &["virq"]),
        ("grant.maps", &["grant_map"]),
        ("grantcache.hits", &["grant_cache_hit"]),
        ("grantcache.misses", &["pin_page"]),
        ("upcall.executed", &["upcall", "upcall_exec"]),
        ("upcall.flushes", &["upcall_flush"]),
    ] {
        assert!(ms.counter(alias) > 0, "{alias} moved");
        assert_eq!(ms.counter(alias), rows(of), "{alias} is {of:?}");
    }
}

/// Every `System` / `World` item the benchmark's README lists under "API
/// surface", used on a built guest system; the deliveries the benchmark
/// reads off `world` agree with [`System::outcome`].
#[test]
fn the_benchmark_api_surface_is_usable_and_agrees_with_the_outcome() {
    let labels = Config::ALL.map(Config::label);
    assert_eq!(labels, ["domU", "domU-twin", "dom0", "Linux"]);
    let zero_copy = SystemOptions {
        zero_copy: true,
        ..SystemOptions::default()
    };
    let refused = System::build_with(Config::NativeLinux, &zero_copy).err();
    assert!(refused.is_some_and(|e| e.to_string().contains("zero_copy")));

    let mut sys = System::build_with(Config::XenGuest, &SystemOptions::default()).unwrap();
    assert_eq!(sys.config(), Config::XenGuest);
    let g2 = sys.add_guest(MacAddr::for_guest(2)).unwrap();
    sys.track_guest_latency();
    let (insns, open) = (sys.machine.meter.insns(), sys.now_cycles());
    let to = |seq: u64| Frame::data(MacAddr::for_guest(1), peer_mac(), 1, seq);
    let closed: Vec<Frame> = (0..8).map(to).collect();
    assert_eq!(sys.receive_burst(&closed).unwrap(), 8);
    assert_eq!(sys.transmit_burst(4).unwrap(), 4);
    let at = sys.now_cycles();
    let paced: Vec<Frame> = (8..12).map(to).collect();
    assert_eq!(sys.rx_open_loop_arrival(&paced, at).unwrap(), 4);
    sys.rx_open_loop_service(at + 200_000).unwrap();
    let wire = sys.take_wire_frames();
    assert!(wire.len() == 4 && wire.iter().all(|f| f.dst == peer_mac()));

    assert!(sys.machine.meter.insns() > insns && sys.now_cycles() > open);
    assert_eq!(sys.metrics().counter("nic0.rx_packets"), 12);
    assert!(!sys.rx_latency_samples().is_empty());
    assert_eq!(sys.guest_rx_latency(DomId(1)).len(), 4);
    assert_eq!(
        sys.world.nics.iter().map(|n| n.rx_pending()).sum::<u32>(),
        0
    );
    // A guest configuration bridges through the dom0 stack's log and
    // drains it into the guests.
    assert!(sys.world.kernel.rx_delivered.is_empty());
    let xen = sys.world.xen.as_ref().unwrap();
    let logs: Vec<(DomId, Vec<Frame>)> = xen
        .domains
        .iter()
        .filter(|d| d.kind == DomainKind::Guest)
        .map(|d| (d.id, d.rx_delivered.clone()))
        .collect();
    let outcome = sys.outcome();
    assert_eq!(
        logs.iter()
            .map(|(id, log)| (*id, log.len()))
            .collect::<Vec<_>>(),
        [(DomId(1), 12), (g2, 0)]
    );
    for (id, log) in &logs {
        assert_eq!(outcome.delivered(*id), log.as_slice(), "guest {}", id.0);
    }
}

/// A build of `config` with `opts` after one transmit and one receive
/// burst of eight frames.
fn one_burst_each_way(config: Config, opts: &SystemOptions) -> System {
    let mut sys = System::build_with(config, opts).unwrap();
    assert_eq!(sys.transmit_burst(8).unwrap(), 8);
    sys.take_wire_frames();
    let frames: Vec<Frame> = (0..8)
        .map(|seq| Frame::data(MacAddr::for_guest(1), peer_mac(), seq as u32 % 4, seq))
        .collect();
    assert_eq!(sys.receive_burst(&frames).unwrap(), 8);
    sys
}

/// The registry's values, committed: every counter `System::metrics()`
/// publishes on each configuration after one burst each way, on
/// `TwinDrivers` with nine routines forced onto synchronous upcalls, and
/// after each of `tests/scenarios.rs`'s runs, one `<scenario> <key>
/// <value>` line each (histograms left out). A key appears, disappears,
/// is renamed or changes value only with an edit of
/// `tests/golden/metrics.txt`.
#[test]
fn the_registry_values_are_the_committed_ones() {
    let default = SystemOptions::default();
    let mut scenarios: Vec<(&str, System)> = Config::ALL
        .map(|c| (c.label(), one_burst_each_way(c, &default)))
        .into();
    let sync_upcalls = SystemOptions {
        upcall_count: 9,
        ..SystemOptions::default()
    };
    let sys = one_burst_each_way(Config::TwinDrivers, &sync_upcalls);
    scenarios.push(("sync_upcalls", sys));
    scenarios.extend(RUNS.map(|(name, run)| (name, run())));
    let mut listed = String::new();
    for (scenario, sys) in &scenarios {
        let ms = sys.metrics();
        for (key, value) in ms.counters() {
            listed += &format!("{scenario} {key} {value}\n");
        }
    }
    let committed = include_str!("golden/metrics.txt");
    assert!(
        listed == committed,
        "the registry moved; published now:\n{listed}"
    );
}

/// The cycle ledger's laws, on every configuration: a fixed-cost row's
/// cells only ever grow by its cost, so their sum is a whole number of
/// payments; on `TwinDrivers` the SVM's miss handler and call
/// translation are counted by their payments alone, which agree with
/// the statistics of the two SVM instances.
#[test]
fn every_fixed_cost_row_is_a_whole_number_of_payments() {
    for config in Config::ALL {
        let sys = one_burst_each_way(config, &SystemOptions::default());
        let meter = &sys.machine.meter;
        for t in Term::ALL
            .into_iter()
            .filter(|&t| t != Term::CopyPerByteX100)
        {
            let paid: u64 = CostDomain::ALL.map(|d| meter.cell(d, t)).iter().sum();
            let cost = sys.machine.cost[t];
            assert_eq!(paid % cost, 0, "{config}: {} paid {paid}", t.name());
            assert_eq!(meter.payments(t), paid / cost, "{config}: {}", t.name());
        }
        if config == Config::TwinDrivers {
            // Both instances' handlers pay: the hypervisor's, and the
            // VM instance's identity SVM that dom0 runs.
            let world = &sys.world;
            let svms = [&world.svm_hyp, &world.svm_vm].map(|s| s.as_ref().unwrap().stats());
            assert!(svms.iter().all(|s| s.misses > 0));
            let misses = svms.iter().map(|s| s.misses).sum();
            let calls = svms.iter().map(|s| s.call_translations).sum();
            assert_eq!(meter.payments(Term::StlbSlowPath), misses);
            assert_eq!(meter.payments(Term::CallXlat), calls);
        }
    }
}
