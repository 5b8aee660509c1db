//! Scheduler-aware flow affinity: the vCPU run/sleep model and the
//! `ShardPolicy::Affinity` placement it drives.
//!
//! * **scheduler-off equivalence** — with no scheduler model built,
//!   `Affinity` is *cycle-exact* with `FlowHash`: same placement, same
//!   charged cycles, same deliveries (the default-off guarantee that
//!   keeps every committed baseline bit-exact);
//! * **warm placement** — with an adversarial vCPU pinning (every
//!   guest one CPU away from its flow's hash-chosen NIC), `Affinity`
//!   eliminates the cold-delivery refill entirely while `FlowHash`
//!   pays it on every frame;
//! * **one vCPU per guest** — a vCPU is pinned for the whole run, so a
//!   flow's placement is permanent and a second registration is a build
//!   error;
//! * **sleep deferral** — a sleeping guest's frames are queued, not
//!   delivered, and flush at the wakeup edge the scheduler predicted;
//! * **poll-budget weighting** — a NAPI poll pass spends its budget on
//!   devices whose CPUs have runnable guests, so a sleeping guest's
//!   device takes strictly more (smaller) polls for the same backlog;
//! * **everything at once** — affinity, NAPI, the overload controls and
//!   three vCPUs under an open-loop flood lose no frame uncounted and
//!   reorder no flow.

use twindrivers::machine::{Event, Term};
use twindrivers::measure::flow_for_dev;
use twindrivers::net::{Frame, MacAddr};
use twindrivers::sched::CPUS;
use twindrivers::system::DomId;
use twindrivers::{peer_mac, Config, Law, ShardPolicy, System, SystemError, SystemOptions};

const NICS: usize = 4;

fn rx_frame(dst: MacAddr, flow: u32, seq: u64) -> Frame {
    Frame::data(dst, peer_mac(), flow, seq)
}

fn hash_dev(flow: u32) -> u32 {
    ShardPolicy::flow_hash_dev(flow, NICS as u32)
}

/// A flow whose hash lands on `dev`, scanning up from `base`.
fn flow_for(dev: u32, base: u32) -> u32 {
    flow_for_dev(dev, NICS as u32, base).unwrap()
}

fn build(shard: ShardPolicy) -> System {
    let opts = SystemOptions {
        num_nics: NICS,
        shard,
        ..SystemOptions::default()
    };
    System::build_with(Config::TwinDrivers, &opts).unwrap()
}

/// With no vCPU registered, `Affinity` *is* `FlowHash`: the two runs
/// are `Law::BitExact` on identical traffic — the default-off guarantee
/// behind every committed bit-exact baseline.
#[test]
fn affinity_without_sched_is_cycle_exact_flowhash() {
    let mut fh = build(ShardPolicy::FlowHash);
    let mut af = build(ShardPolicy::Affinity);
    let mac2 = MacAddr::for_guest(2);
    for sys in [&mut fh, &mut af] {
        sys.add_guest(mac2).unwrap();
        for k in 0..6u64 {
            assert_eq!(sys.transmit_burst(5).unwrap(), 5);
            let frames: Vec<Frame> = (0..16u32)
                .map(|i| {
                    let dst = if i % 2 == 0 {
                        MacAddr::for_guest(1)
                    } else {
                        mac2
                    };
                    rx_frame(dst, 300 + (i % 5), k * 16 + u64::from(i))
                })
                .collect();
            assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
        }
    }
    let verdict = fh.outcome().check(&af.outcome(), Law::BitExact);
    verdict.expect("affinity with no scheduler must be flow-hash, cycle for cycle");
}

/// The scheduler model is a TwinDrivers-configuration feature; the
/// unoptimised configurations must refuse a vCPU loudly.
#[test]
fn sched_requires_twindrivers_config() {
    let mut sys = System::build(Config::XenGuest).unwrap();
    let err = sys.sched_add_vcpu(DomId(1), 0, 1_000_000, 0);
    assert!(matches!(err, Err(SystemError::Build(_))), "{err:?}");
    assert!(sys.sched().is_none());
}

/// Adversarial pinning (each guest one CPU away from its flow's
/// hash-chosen NIC): `FlowHash` pays the cold refill on every frame,
/// `Affinity` re-places the flow on a vCPU-local NIC and pays none —
/// and says so in placements, metrics and cycles.
#[test]
fn placement_follows_vcpu_and_eliminates_cold_refills() {
    let flow = flow_for(2, 500);
    let cpu = (hash_dev(flow) + 1) % CPUS;
    let frames: Vec<Frame> = (0..24u64)
        .map(|s| rx_frame(MacAddr::for_guest(1), flow, s))
        .collect();
    let mut cold_cycles = 0;
    let mut warm_cycles = 0;
    for (shard, expect_cold) in [(ShardPolicy::FlowHash, 24), (ShardPolicy::Affinity, 0)] {
        let mut sys = build(shard);
        sys.sched_add_vcpu(DomId(1), cpu, 1_000_000, 0).unwrap();
        assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
        let cold = sys.machine.meter.payments(Term::ColdDeliveryRefill);
        assert_eq!(cold, expect_cold, "{shard:?} cold deliveries");
        assert_eq!(sys.delivered_rx_for(DomId(1)), frames.len());
        if shard == ShardPolicy::Affinity {
            warm_cycles = sys.machine.meter.now();
            let ms = sys.metrics();
            assert_eq!(ms.counter("sched.placements"), 1, "one flow placed once");
            assert_eq!(ms.counter("sched.guest1.placements"), 1);
            assert_eq!(ms.counter("sched.guest1.cpu"), u64::from(cpu));
            assert_eq!(ms.counter("sched.guest1.running"), 1);
        } else {
            cold_cycles = sys.machine.meter.now();
        }
    }
    assert!(
        warm_cycles < cold_cycles,
        "warm placement must be cheaper: {warm_cycles} vs {cold_cycles}"
    );
}

/// A guest has one vCPU for the whole run: registering a second is a
/// build error, and the first keeps its CPU and its one armed edge.
#[test]
fn reregistering_a_guests_vcpu_is_a_build_error() {
    let mut sys = build(ShardPolicy::Affinity);
    sys.sched_add_vcpu(DomId(1), 0, 1_000, 1_000).unwrap();
    match sys.sched_add_vcpu(DomId(1), 1, 1_000, 1_000) {
        Err(SystemError::Build(why)) => assert_eq!(why, "guest 1 already has a vCPU"),
        other => panic!("re-registration must be refused: {other:?}"),
    }
    let now = sys.now_cycles();
    let mut sched = sys.sched().unwrap().clone();
    assert_eq!(sched.cpu_of(1), Some(0));
    assert!(!sched.cpu_has_vcpus(1), "nothing was placed on CPU 1");
    let edges: Vec<bool> = sched
        .advance(now + 1_000)
        .iter()
        .map(|t| t.now_running)
        .collect();
    assert_eq!(edges, [false], "one edge, and the guest sleeps after it");
    assert!(!sched.cpu_has_running(0));
}

/// A sleeping guest's frames park in its queue and flush exactly at
/// the wakeup edge the scheduler predicted — deferred, never dropped.
#[test]
fn sleeping_guest_defers_until_wakeup() {
    let mut sys = build(ShardPolicy::Affinity);
    // Runs 100k cycles, then sleeps 2M: plenty of room to land a burst
    // mid-sleep without the burst's own charges crossing the edge.
    sys.sched_add_vcpu(DomId(1), 0, 100_000, 2_000_000).unwrap();
    sys.run_idle(150_000).unwrap();
    assert!(
        !sys.sched().unwrap().is_running(1),
        "guest must be asleep after its run phase"
    );
    let frames: Vec<Frame> = (0..8u64)
        .map(|s| rx_frame(MacAddr::for_guest(1), 900, s))
        .collect();
    assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
    assert_eq!(
        sys.delivered_rx_for(DomId(1)),
        0,
        "frames for a sleeping guest must defer, not deliver"
    );
    let parked = sys.outcome().backlog();
    assert_eq!(parked, frames.len(), "deferred frames parked in the queue");
    let wake = sys.sched().unwrap().next_event().expect("wakeup armed");
    let now = sys.machine.meter.now();
    assert!(wake > now, "wakeup is in the future");
    sys.run_idle(wake - now + 50_000).unwrap();
    assert_eq!(
        sys.delivered_rx_for(DomId(1)),
        frames.len(),
        "the wakeup edge flushes the deferred backlog"
    );
    assert_eq!(sys.outcome().backlog(), 0);
}

/// NAPI budgets follow the scheduler: the same ring backlog takes
/// strictly more poll passes when the device's CPU has only sleeping
/// guests, because each pass's reap budget is cut to a quarter.
#[test]
fn poll_budget_weights_toward_running_guests() {
    let flow = flow_for(0, 800); // NIC 0 → softirq CPU 0
    let mut polls = Vec::new();
    for running in [true, false] {
        let mut sys = System::build_with(
            Config::TwinDrivers,
            &SystemOptions {
                num_nics: NICS,
                shard: ShardPolicy::FlowHash,
                napi_weight: 8,
                ..SystemOptions::default()
            },
        )
        .unwrap();
        // Degenerate schedules: always running vs always sleeping, so
        // the only difference between the two runs is the poll budget.
        let (run, sleep) = if running {
            (1_000_000, 0)
        } else {
            (0, 1_000_000)
        };
        sys.sched_add_vcpu(DomId(1), 0, run, sleep).unwrap();
        let frames: Vec<Frame> = (0..32u64)
            .map(|s| rx_frame(MacAddr::for_guest(1), flow, s))
            .collect();
        assert_eq!(sys.receive_burst(&frames).unwrap(), frames.len());
        sys.run_idle(500_000).unwrap();
        polls.push(sys.machine.meter.payments(Term::NapiPollDispatch));
    }
    assert!(
        polls[1] > polls[0],
        "a sleeping guest's device must take more, smaller polls: {polls:?}"
    );
}

/// The livelock sweep's controlled shape with the scheduler on: four
/// NICs under `Affinity`, a NAPI weight, the admission watermark, a
/// queue cap and DRR weights for two victims, whose vCPUs run and sleep
/// while a never-sleeping flood guest is offered about twice what it
/// can service. After a drain, every offered frame is delivered, still
/// queued, or counted: under a death's row or as a ring overrun.
#[test]
fn a_flood_over_affinity_napi_and_three_vcpus_loses_nothing_uncounted() {
    let opts = SystemOptions {
        num_nics: NICS,
        shard: ShardPolicy::Affinity,
        rx_queue_cap: Some(512),
        napi_weight: 64,
        rx_backlog_watermark: Some(1536),
        rx_flush_quantum: 8,
        guest_weights: vec![(2, 64), (3, 64)],
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    for g in [2, 3] {
        sys.add_guest(MacAddr::for_guest(g)).unwrap();
    }
    sys.sched_add_vcpu(DomId(1), 0, 1_000_000, 0).unwrap();
    sys.sched_add_vcpu(DomId(2), 1, 400_000, 200_000).unwrap();
    sys.sched_add_vcpu(DomId(3), 2, 300_000, 300_000).unwrap();
    let (gap, bursts) = (338_182u64, 12u64);
    let t0 = sys.now_cycles();
    let mut seq = 0u64;
    let mut offered = 0u64;
    for i in 0..bursts {
        let at = t0 + i * gap;
        sys.rx_open_loop_service(at).unwrap();
        let mut frames = Vec::new();
        for g in [2u32, 3] {
            for _ in 0..4 {
                frames.push(rx_frame(MacAddr::for_guest(g), 900 + g, seq));
                seq += 1;
            }
        }
        while frames.len() < 64 {
            frames.push(rx_frame(MacAddr::for_guest(1), 800, seq));
            seq += 1;
        }
        offered += frames.len() as u64;
        sys.rx_open_loop_arrival(&frames, at).unwrap();
    }
    sys.rx_open_loop_service(t0 + bursts * gap + 2_000_000)
        .unwrap();

    let o = sys.outcome();
    assert!(o.metrics.counter("sched.placements") > 0);
    for g in [2, 3] {
        let (sleeps, wakes) = (
            o.metrics.counter(&format!("sched.guest{g}.sleeps")),
            o.metrics.counter(&format!("sched.guest{g}.wakes")),
        );
        assert!(
            sleeps > 0 && wakes > 0,
            "victim {g}: {sleeps} sleeps, {wakes} wakes"
        );
    }
    assert!(o.event(Event::NapiEnter) > 0, "the flood enters poll mode");
    assert_eq!(o.reorders(), 0, "no (guest, flow) inversion");
    let deaths = [
        Event::EarlyDrop,
        Event::RxQueueDrop,
        Event::DemuxMiss,
        Event::InflightLost,
        Event::Malformed,
    ];
    let died: u64 = deaths.map(|e| o.event(e)).iter().sum();
    let (delivered, queued) = (o.total("guest", "delivered"), o.backlog() as u64);
    let missed = o.total("nic", "rx_missed");
    assert!(died + missed > 0, "twice the knee sheds some");
    assert_eq!(
        offered,
        delivered + queued + died + missed,
        "{delivered} delivered, {queued} queued, {died} died, {missed} missed"
    );
}

/// Golden pin for the open-loop affinity harness, captured on the
/// parent of the evaluation-harness rewrite: the affinity sweep's
/// 50 %-duty `Affinity` build (four guests, one hash-balanced flow
/// each, every vCPU pinned one CPU away from its flow's hash-chosen
/// NIC), ten bursts at the 64-packet budget's gap. Every field of the
/// point is pinned.
#[test]
fn affinity_harness_point_is_pinned() {
    use twindrivers::measure::{balanced_flow_set, measure_rx_affinity, AffinityPoint};
    let mut sys = build(ShardPolicy::Affinity);
    for g in 2..=4u32 {
        sys.add_guest(MacAddr::for_guest(g)).unwrap();
    }
    let mut traffic = Vec::new();
    let mut vcpus = Vec::new();
    for (i, &flow) in balanced_flow_set(NICS as u32, 1).iter().enumerate() {
        let gid = DomId(i as u32 + 1);
        traffic.push((gid, MacAddr::for_guest(gid.0), flow));
        vcpus.push((gid, (hash_dev(flow) + 1) % CPUS, 300_000, 300_000));
    }
    let p =
        measure_rx_affinity(&mut sys, &traffic, &vcpus, "affinity", 50, 32, 10, 673_664).unwrap();
    // Destructured so a new field cannot go unpinned.
    let AffinityPoint {
        nics,
        burst,
        policy,
        duty_pct,
        frames_offered,
        frames_delivered,
        rx_cycles_per_packet,
        cold_deliveries,
        placements,
        wakes,
        early_drops,
        queue_drops,
        ring_drops,
        reorders,
        victim_p99,
    } = p;
    assert_eq!((nics, burst, policy, duty_pct), (4, 32, "affinity", 50));
    assert_eq!((frames_offered, frames_delivered), (320, 320));
    assert_eq!(rx_cycles_per_packet, 10968.1);
    assert_eq!((cold_deliveries, placements, wakes), (0, 4, 44));
    assert_eq!(
        (early_drops, queue_drops, ring_drops, reorders),
        (0, 0, 0, 0)
    );
    assert_eq!(victim_p99, 1_485_632);
}
