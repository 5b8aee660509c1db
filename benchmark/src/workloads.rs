//! The five workloads, generated from a seed by the benchmark's own
//! frame generator. The program under test only ever sees the generated
//! [`Frame`]s (or, for transmit, a packet count: `transmit_burst` builds
//! its own frames, and the checker knows the sequence it must produce).
//!
//! Every count and every open-loop schedule below is a fixed constant in
//! packets or virtual cycles — nothing is calibrated at run time, so a
//! faster datapath is *not* offered more load and its gain shows.

use crate::rng::Rng;
use twindrivers::net::{EtherType, Frame, MacAddr, MTU};
use twindrivers::{Config, ShardPolicy, SystemOptions, UpcallMode};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "paper_b1",
    "twin_rx_bulk",
    "twin_tx_bulk",
    "paced_multi",
    "overload_4x",
];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20090307;
/// A seed never used while the benchmark was written: claims must also
/// hold here.
pub const HELD_OUT_SEED: u64 = 77_003_141;

/// Packets per `paper_b1` point per pass (8 points).
pub const PAPER_PACKETS: usize = 4_000;
/// Frames per `twin_rx_bulk` pass.
pub const RX_BULK_FRAMES: usize = 48_000;
/// Packets per `twin_tx_bulk` pass.
pub const TX_BULK_PACKETS: usize = 16_000;
/// Burst size of the two bulk workloads, and the base burst the
/// open-loop multiples scale.
pub const BURST: usize = 32;
/// Distinct flows of `twin_rx_bulk`.
pub const RX_BULK_FLOWS: usize = 64;
/// Arrivals per `paced_multi` pass: enough clusters of short gaps that
/// the p99 they decide moves by a few percent, not 15, between seeds.
pub const PACED_ARRIVALS: usize = 5_000;
/// Arrivals per `overload_4x` pass.
pub const OVERLOAD_ARRIVALS: usize = 1_500;
/// Mean of `overload_4x`'s exponential inter-arrival gap, in virtual
/// cycles: the gap at which one [`BURST`] per arrival about saturates
/// this composition (32 frames × ~10.5 k cycles).
pub const MEAN_GAP_CYCLES: u64 = 336_000;
/// Mean of `paced_multi`'s gap: 0.6 × [`BURST`] per arrival then loads
/// the consumer to about 45 %, low enough that even a cluster of short
/// exponential gaps never fills a ring.
pub const PACED_GAP_CYCLES: u64 = 504_000;
/// Frames each victim guest receives per arrival, whatever the flood.
pub const VICTIM_FRAMES: usize = 4;
/// Victim guests of the open-loop workloads (guest 1 takes the flood).
pub const VICTIMS: [u32; 2] = [2, 3];
/// Flows of the open-loop workloads: the flood toward guest 1 picks one
/// of eight per frame, each victim sends one frame per arrival on each
/// of its four.
///
/// `ShardPolicy::FlowHash` places these sixteen ids four to a NIC on a
/// four-NIC system — two flood flows and one flow of each victim — so
/// every ring carries the same share of every arrival and no single
/// ring decides the outcome. (With both victims' flows on one NIC, as
/// ids 902/903 land, that ring takes over half of each arrival and
/// overflows on a cluster of short gaps at 45 % load.) `selftest`
/// checks the balance, so a change of hash cannot skew the workload
/// unnoticed.
const FLOOD_FLOWS: [u32; 8] = [203, 204, 205, 206, 207, 208, 209, 210];
const VICTIM_FLOWS: [[u32; VICTIM_FRAMES]; 2] = [[211, 212, 214, 216], [218, 213, 215, 217]];
/// Idle tail after the last `paced_multi` arrival: long enough that a
/// sub-capacity system delivers everything it was offered.
pub const PACED_TAIL_CYCLES: u64 = 20 * PACED_GAP_CYCLES;

/// Source MAC of every generated receive frame (the external peer).
fn peer() -> MacAddr {
    MacAddr([0x02, 0xbe, 0xac, 0x00, 0x00, 0x01])
}

/// One call into the program under test.
#[derive(Clone, Debug)]
pub enum Op {
    /// Closed loop: `receive_burst` of these frames.
    Rx(Vec<Frame>),
    /// Closed loop: `transmit_burst` of this many packets.
    Tx(usize),
    /// Open loop: service up to, then inject at, `at` cycles after the
    /// window opens — whether or not the consumer kept up.
    Arrive { at: u64, frames: Vec<Frame> },
}

impl Op {
    /// Packets this call offers.
    pub fn packets(&self) -> usize {
        match self {
            Op::Rx(f) | Op::Arrive { frames: f, .. } => f.len(),
            Op::Tx(n) => *n,
        }
    }
}

/// One system under one schedule: built fresh, warmed, then measured.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Point label (`<paper config label>.<tx|rx>`, or the workload name).
    pub label: String,
    pub config: Config,
    pub opts: SystemOptions,
    /// Guests added after the build, by id (their MAC is
    /// `MacAddr::for_guest(id)`).
    pub extra_guests: Vec<u32>,
    /// Closed-loop calls run before the measured window.
    pub warm: Vec<Op>,
    /// The measured window.
    pub ops: Vec<Op>,
    /// Open loop only: mean of the exponential inter-arrival gap.
    pub mean_gap_cycles: u64,
    /// Open loop only: how long after the last arrival the window stays
    /// open (the consumer keeps running; nothing new arrives).
    pub tail_cycles: u64,
    /// Links the goodput figure is capped at; `None` counts the NICs
    /// that carried traffic in the window.
    pub link_cap: Option<u32>,
    /// Whether every offered frame must be delivered inside the window
    /// (everything except the deliberately overloaded workload).
    pub lossless: bool,
}

impl Scenario {
    /// Whether the measured endpoint is a guest domain (else the dom0 /
    /// native stack).
    pub fn guest(&self) -> bool {
        matches!(self.config, Config::XenGuest | Config::TwinDrivers)
    }

    pub fn open_loop(&self) -> bool {
        matches!(self.ops.first(), Some(Op::Arrive { .. }))
    }

    pub fn transmit(&self) -> bool {
        matches!(self.ops.first(), Some(Op::Tx(_)))
    }

    /// Packets offered in the measured window.
    pub fn offered(&self) -> usize {
        self.ops.iter().map(Op::packets).sum()
    }
}

/// Whose latency the two latency metrics report.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LatencyOf {
    /// Closed loop: virtual cycles one call takes from issue to return.
    Calls,
    /// Open loop: scheduled arrival → delivery, every guest.
    AllGuests,
    /// Open loop: scheduled arrival → delivery, victim guests only.
    Victims,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub scenarios: Vec<Scenario>,
    pub latency: LatencyOf,
}

fn rx_frame(dst: MacAddr, flow: u32, seq: u64) -> Frame {
    Frame {
        dst,
        src: peer(),
        ethertype: EtherType::Ipv4,
        payload_len: MTU,
        flow,
        seq,
    }
}

/// Generates workload `name` from `seed`; `None` for an unknown name.
/// `shrink` divides every measured count: 1 for a benchmark run, more
/// for the paper anchor and `selftest`, which need the shape, not the
/// length.
pub fn generate(name: &str, seed: u64, shrink: usize) -> Option<Workload> {
    let idx = WORKLOADS.iter().position(|w| *w == name)?;
    let mut rng = Rng::new(seed, idx as u64 + 1);
    Some(match WORKLOADS[idx] {
        "paper_b1" => paper_b1(&mut rng, PAPER_PACKETS / shrink),
        "twin_rx_bulk" => twin_rx_bulk(&mut rng, RX_BULK_FRAMES / shrink),
        "twin_tx_bulk" => twin_tx_bulk(TX_BULK_PACKETS / shrink),
        "paced_multi" => open_loop(
            "paced_multi",
            &mut rng,
            6,
            PACED_ARRIVALS / shrink,
            PACED_GAP_CYCLES,
            PACED_TAIL_CYCLES,
        ),
        _ => open_loop(
            "overload_4x",
            &mut rng,
            40,
            OVERLOAD_ARRIVALS / shrink,
            MEAN_GAP_CYCLES,
            MEAN_GAP_CYCLES,
        ),
    })
}

/// The paper's four configurations × {TX, RX}: one NIC, one packet in
/// flight, every option at its default.
fn paper_b1(rng: &mut Rng, packets: usize) -> Workload {
    let mut scenarios = Vec::new();
    for config in Config::ALL {
        let guest = matches!(config, Config::XenGuest | Config::TwinDrivers);
        let dst = MacAddr::for_guest(u32::from(guest));
        // Eight seeded flows per point; one NIC, so flow is bookkeeping.
        let flows: Vec<u32> = (0..8).map(|_| 100 + rng.below(1 << 16) as u32).collect();
        let mut seq = 0u64;
        let mut one = |rng: &mut Rng| {
            let f = rx_frame(dst, flows[rng.below(8) as usize], seq);
            seq += 1;
            Op::Rx(vec![f])
        };
        let warm_rx: Vec<Op> = (0..160).map(|_| one(rng)).collect();
        let ops_rx: Vec<Op> = (0..packets).map(|_| one(rng)).collect();
        let base = Scenario {
            label: String::new(),
            config,
            opts: SystemOptions::default(),
            extra_guests: Vec::new(),
            warm: Vec::new(),
            ops: Vec::new(),
            mean_gap_cycles: 0,
            tail_cycles: 0,
            link_cap: Some(5),
            lossless: true,
        };
        scenarios.push(Scenario {
            label: format!("{}.tx", config.label()),
            warm: vec![Op::Tx(1); 32],
            ops: vec![Op::Tx(1); packets],
            ..base.clone()
        });
        scenarios.push(Scenario {
            label: format!("{}.rx", config.label()),
            warm: warm_rx,
            ops: ops_rx,
            ..base
        });
    }
    Workload {
        scenarios,
        latency: LatencyOf::Calls,
    }
}

/// The warm zero-copy bulk composition shared by `twin_rx_bulk` and
/// `twin_tx_bulk`.
fn bulk_opts() -> SystemOptions {
    SystemOptions {
        num_nics: 4,
        shard: ShardPolicy::FlowHash,
        zero_copy: true,
        napi_weight: 16,
        upcall_mode: UpcallMode::Deferred,
        upcall_flush_deadline_cycles: Some(300_000),
        ..SystemOptions::default()
    }
}

fn twin_rx_bulk(rng: &mut Rng, frames: usize) -> Workload {
    let dst = MacAddr::for_guest(1);
    let mut flows: Vec<u32> = Vec::with_capacity(RX_BULK_FLOWS);
    while flows.len() < RX_BULK_FLOWS {
        let f = 1_000 + rng.below(1 << 20) as u32;
        if !flows.contains(&f) {
            flows.push(f);
        }
    }
    let mut seq = 0u64;
    let mut bursts = |rng: &mut Rng, n: usize| -> Vec<Op> {
        (0..n)
            .map(|_| {
                Op::Rx(
                    (0..BURST)
                        .map(|_| {
                            let f =
                                rx_frame(dst, flows[rng.below(flows.len() as u64) as usize], seq);
                            seq += 1;
                            f
                        })
                        .collect(),
                )
            })
            .collect()
    };
    // Two ring cycles per NIC before the window opens, so every ring has
    // swapped its initial buffers and every flow's pool slots are mapped.
    let warm = bursts(rng, 2 * 128 * 4 / BURST);
    let ops = bursts(rng, frames / BURST);
    Workload {
        scenarios: vec![Scenario {
            label: "twin_rx_bulk".into(),
            config: Config::TwinDrivers,
            opts: bulk_opts(),
            extra_guests: Vec::new(),
            warm,
            ops,
            mean_gap_cycles: 0,
            tail_cycles: 0,
            link_cap: None,
            lossless: true,
        }],
        latency: LatencyOf::Calls,
    }
}

fn twin_tx_bulk(packets: usize) -> Workload {
    Workload {
        scenarios: vec![Scenario {
            label: "twin_tx_bulk".into(),
            config: Config::TwinDrivers,
            opts: bulk_opts(),
            extra_guests: Vec::new(),
            warm: vec![Op::Tx(BURST); 8],
            ops: vec![Op::Tx(BURST); packets / BURST],
            mean_gap_cycles: 0,
            tail_cycles: 0,
            link_cap: None,
            lossless: true,
        }],
        latency: LatencyOf::Calls,
    }
}

/// The overload-controlled composition of the receive-livelock sweep
/// (NAPI poll switching, weighted DRR, admission watermark, capped
/// demux queues) under a fixed open-loop schedule: exponential gaps of
/// mean `mean_gap`, `tenths`/10 × [`BURST`] ± 25 % frames per
/// arrival, of which each victim guest always gets [`VICTIM_FRAMES`].
fn open_loop(
    name: &'static str,
    rng: &mut Rng,
    tenths: usize,
    arrivals: usize,
    mean_gap: u64,
    tail: u64,
) -> Workload {
    let opts = SystemOptions {
        num_nics: 4,
        shard: ShardPolicy::FlowHash,
        rx_queue_cap: Some(128),
        napi_weight: 8,
        rx_backlog_watermark: Some(64),
        rx_flush_quantum: 8,
        guest_weights: VICTIMS.iter().map(|g| (*g, 2)).collect(),
        ..SystemOptions::default()
    };
    let flood_dst = MacAddr::for_guest(1);
    let mut seq = 0u64;
    let mut burst = |rng: &mut Rng, total: usize| -> Vec<Frame> {
        let mut out = Vec::with_capacity(total);
        // Victims lead the burst, as in the livelock sweep: the tail of
        // a burst is likelier to find a full ring.
        for (g, flows) in VICTIMS.iter().zip(VICTIM_FLOWS) {
            for flow in flows {
                out.push(rx_frame(MacAddr::for_guest(*g), flow, seq));
                seq += 1;
            }
        }
        while out.len() < total {
            let flow = FLOOD_FLOWS[rng.below(FLOOD_FLOWS.len() as u64) as usize];
            out.push(rx_frame(flood_dst, flow, seq));
            seq += 1;
        }
        out
    };
    // Closed-loop warm-up: two ring cycles per NIC.
    let warm: Vec<Op> = (0..2 * 128 * 4 / BURST)
        .map(|_| Op::Rx(burst(rng, BURST)))
        .collect();
    // Every seed offers the same number of frames over the same span —
    // the burst sizes are one fixed multiset in seeded order, the gaps
    // exponential draws scaled to sum to `arrivals × mean_gap` — so
    // seeds differ in *when* load arrives, never in how much.
    let nominal = tenths * BURST / 10;
    let (lo, hi) = (nominal * 3 / 4, nominal * 5 / 4);
    let mut sizes: Vec<usize> = (0..arrivals).map(|i| lo + i % (hi - lo + 1)).collect();
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let draws: Vec<f64> = (0..arrivals).map(|_| rng.exp_unit()).collect();
    let span = (arrivals as u64 * mean_gap) as f64;
    let total: f64 = draws.iter().sum();
    let mut elapsed = 0.0;
    let ops: Vec<Op> = sizes
        .iter()
        .zip(&draws)
        .map(|(size, draw)| {
            let op = Op::Arrive {
                at: (elapsed / total * span) as u64,
                frames: burst(rng, *size),
            };
            elapsed += draw;
            op
        })
        .collect();
    Workload {
        scenarios: vec![Scenario {
            label: name.into(),
            config: Config::TwinDrivers,
            opts,
            extra_guests: VICTIMS.to_vec(),
            warm,
            ops,
            mean_gap_cycles: mean_gap,
            tail_cycles: tail,
            link_cap: None,
            lossless: name == "paced_multi",
        }],
        latency: if name == "paced_multi" {
            LatencyOf::AllGuests
        } else {
            LatencyOf::Victims
        },
    }
}
