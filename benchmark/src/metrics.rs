//! Turns observations into named metrics.
//!
//! "sim" numbers are modeled virtual cycles and exact event counts read
//! at the window boundaries; they repeat to the last digit for a given
//! seed. "host" numbers are wall-clock time of the simulator itself.

use crate::check::{domain_cycles, family_sum, DOMAINS};
use crate::json::Value;
use crate::runner::Observed;
use crate::workloads::{LatencyOf, Scenario, Workload};
use std::collections::BTreeMap;

pub type Metrics = BTreeMap<String, f64>;

/// Modeled CPU frequency: the paper's 3.0 GHz Xeon.
pub const CPU_HZ: f64 = 3.0e9;
/// Bits one MTU frame occupies on a gigabit wire: 1500 payload + 14
/// header + 8 preamble + 4 FCS + 12 inter-frame gap, times 8.
pub const WIRE_BITS: f64 = 12_304.0;

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_f(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn max_f(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Netperf-style throughput of a closed loop: the CPU moves packets at
/// `CPU_HZ / cpp`, the links cap it.
fn closed_loop_mbps(cpp: f64, links: u32) -> f64 {
    (CPU_HZ / cpp.max(1.0) * WIRE_BITS / 1e6).min(f64::from(links) * 1000.0)
}

fn delivered_packets(obs: &Observed) -> u64 {
    obs.delivered.values().map(|v| v.len() as u64).sum::<u64>() + obs.wire.len() as u64
}

/// One measured point of the paper's figures, with the paper's values.
#[derive(Clone, Debug)]
pub struct PaperPoint {
    /// `<config label>.<tx|rx>`.
    pub label: String,
    pub cycles_per_pkt: f64,
    pub mbps: f64,
    pub paper_cycles_per_pkt: Option<f64>,
    pub paper_mbps: Option<f64>,
    /// Mean relative error over the references the paper gives.
    pub err_frac: f64,
}

/// Scores each `paper_b1` scenario against `paper_reference.json`.
pub fn paper_points(
    w: &Workload,
    runs: &[Observed],
    reference: &Value,
) -> Result<Vec<PaperPoint>, String> {
    let links = reference
        .get("links")
        .and_then(Value::as_f64)
        .ok_or("paper_reference.json: no `links`")? as u32;
    let mut out = Vec::new();
    for (sc, obs) in w.scenarios.iter().zip(runs) {
        let (config, dir) = sc.label.rsplit_once('.').ok_or("paper point label")?;
        let r = reference
            .get("points")
            .and_then(|p| p.get(config))
            .and_then(|p| p.get(dir))
            .ok_or_else(|| format!("paper_reference.json: no point {}", sc.label))?;
        let cpp =
            domain_cycles(obs).iter().sum::<u64>() as f64 / delivered_packets(obs).max(1) as f64;
        let mbps = closed_loop_mbps(cpp, links);
        let paper_cycles_per_pkt = r.get("cycles_per_pkt").and_then(Value::as_f64);
        let paper_mbps = r.get("mbps").and_then(Value::as_f64);
        let errs: Vec<f64> = [(cpp, paper_cycles_per_pkt), (mbps, paper_mbps)]
            .iter()
            .filter_map(|(got, want)| want.map(|p| (got - p).abs() / p))
            .collect();
        if errs.is_empty() {
            return Err(format!(
                "paper_reference.json: point {} has no value",
                sc.label
            ));
        }
        out.push(PaperPoint {
            label: sc.label.clone(),
            cycles_per_pkt: cpp,
            mbps,
            paper_cycles_per_pkt,
            paper_mbps,
            err_frac: errs.iter().sum::<f64>() / errs.len() as f64,
        });
    }
    Ok(out)
}

pub fn paper_err_frac(points: &[PaperPoint]) -> f64 {
    points.iter().map(|p| p.err_frac).sum::<f64>() / points.len().max(1) as f64
}

fn latency_samples<'a>(w: &Workload, obs: &'a Observed) -> &'a [u64] {
    match w.latency {
        LatencyOf::Calls => &obs.call_cycles,
        LatencyOf::AllGuests => &obs.latency_all,
        LatencyOf::Victims => &obs.latency_victims,
    }
}

/// Virtual cycles an open-loop schedule spans: one mean gap per arrival
/// (the source never stops; whatever is undelivered when the window
/// closes is lost throughput, not work in flight).
fn schedule_cycles(sc: &Scenario) -> u64 {
    sc.ops.len() as u64 * sc.mean_gap_cycles
}

/// Every simulated metric — end-to-end and per-layer — of one pass.
/// `sim_cycles_per_pkt` is by construction the sum of its four domain
/// parts (that they are *all* the cycles is `check`'s ledger check);
/// that the drop fractions sum to the receive loss is asserted here.
pub fn simulated(w: &Workload, runs: &[Observed]) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let n = runs.len() as f64;
    let offered: u64 = w.scenarios.iter().map(|s| s.offered() as u64).sum();
    let delivered: u64 = runs.iter().map(delivered_packets).sum();
    let per_pkt = |v: u64| v as f64 / delivered.max(1) as f64;
    let of_offered = |v: u64| v as f64 / offered.max(1) as f64;
    let counter = |name: &str| -> u64 { runs.iter().map(|o| o.delta.counter(name)).sum() };

    let mut parts = [0u64; 4];
    for obs in runs {
        for (p, c) in parts.iter_mut().zip(domain_cycles(obs)) {
            *p += c;
        }
    }
    let total: u64 = parts.iter().sum();
    m.insert("sim_cycles_per_pkt".into(), per_pkt(total));
    for (label, cycles) in DOMAINS.iter().zip(parts) {
        m.insert(format!("core.cycles_per_pkt.{label}"), per_pkt(cycles));
    }
    let mut goodput = 0.0;
    let (mut p50, mut p99, mut samples) = (0.0, 0.0, 0u64);
    let mut late: Vec<u64> = Vec::new();
    let (mut poll_cycles, mut nic_cycles) = (0u64, 0u64);
    for (sc, obs) in w.scenarios.iter().zip(runs) {
        let got = delivered_packets(obs);
        goodput += if sc.open_loop() {
            got as f64 * WIRE_BITS / (schedule_cycles(sc) as f64 / CPU_HZ) / 1e6
        } else {
            let cpp = domain_cycles(obs).iter().sum::<u64>() as f64 / got.max(1) as f64;
            let carried = |dir: &str| {
                (0..sc.opts.num_nics)
                    .filter(|i| obs.delta.counter(&format!("nic{i}.{dir}_packets")) > 0)
                    .count() as u32
            };
            let links = sc
                .link_cap
                .unwrap_or_else(|| carried(if sc.transmit() { "tx" } else { "rx" }).max(1));
            closed_loop_mbps(cpp, links)
        };
        let mut lat = latency_samples(w, obs).to_vec();
        lat.sort_unstable();
        p50 += percentile(&lat, 50.0) as f64;
        p99 += percentile(&lat, 99.0) as f64;
        samples += lat.len() as u64;
        late.extend_from_slice(&obs.lateness);
        poll_cycles += family_sum(&obs.delta, "nic", "poll_cycles");
        nic_cycles += obs.window_cycles * sc.opts.num_nics as u64;
    }
    late.sort_unstable();
    m.insert("sim_goodput_mbps".into(), goodput / n);
    m.insert("sim_p50_latency_cycles".into(), p50 / n);
    m.insert("sim_p99_latency_cycles".into(), p99 / n);
    m.insert("core.latency_samples".into(), samples as f64);
    m.insert(
        "bench.arrival_lateness_p99_cycles".into(),
        percentile(&late, 99.0) as f64,
    );
    m.insert("delivered_frac".into(), of_offered(delivered));

    let sum_family = |prefix: &str, field: &str| -> u64 {
        runs.iter()
            .map(|o| family_sum(&o.delta, prefix, field))
            .sum()
    };
    let ring = sum_family("nic", "rx_missed");
    let early = sum_family("guest", "early_drops");
    let queue = sum_family("guest", "queue_drops");
    let inflight: u64 = runs
        .iter()
        .map(|o| family_sum(&o.at_close, "guest", "queued") + o.ring_pending)
        .sum();
    let rx_lost: u64 = w
        .scenarios
        .iter()
        .zip(runs)
        .filter(|(sc, _)| !sc.transmit())
        .map(|(sc, o)| (sc.offered() as u64).saturating_sub(delivered_packets(o)))
        .sum();
    if ring + early + queue + inflight != rx_lost {
        return Err(format!(
            "drop ledger: ring {ring} + early {early} + queue {queue} + in flight {inflight} ≠ {rx_lost} frames offered and not delivered"
        ));
    }
    m.insert(
        "core.loss_frac".into(),
        of_offered(offered - delivered.min(offered)),
    );
    m.insert("nic.ring_drop_frac".into(), of_offered(ring));
    m.insert("core.early_drop_frac".into(), of_offered(early));
    m.insert("core.queue_drop_frac".into(), of_offered(queue));
    m.insert("core.inflight_at_close_frac".into(), of_offered(inflight));

    m.insert(
        "machine.insns_per_pkt".into(),
        per_pkt(runs.iter().map(|o| o.insns).sum()),
    );
    for (name, key) in [
        ("svm.stlb_misses_per_pkt", "event.stlb_miss"),
        ("svm.call_xlats_per_pkt", "event.stlb_call_xlat"),
        ("nic.irqs_per_pkt", "event.irq"),
        ("nic.doorbells_per_pkt", "event.doorbell"),
        ("nic.irq_moderated_per_pkt", "event.irq_moderated"),
        ("core.napi_polls_per_pkt", "event.napi_poll"),
        ("core.copy_fallbacks_per_pkt", "event.copy_fallback"),
        ("xen.switches_per_pkt", "xen.switches"),
        ("xen.hypercalls_per_pkt", "xen.hypercalls"),
        ("xen.virqs_per_pkt", "xen.virqs_sent"),
        ("xen.grant_copies_per_pkt", "grant.copies"),
        ("xen.grant_maps_per_pkt", "grant.maps"),
        ("xen.upcalls_per_pkt", "upcall.executed"),
        ("xen.upcall_flushes_per_pkt", "upcall.flushes"),
    ] {
        m.insert(name.into(), per_pkt(counter(key)));
    }
    m.insert(
        "nic.mmio_per_pkt".into(),
        per_pkt(counter("event.mmio_read") + counter("event.mmio_write")),
    );
    m.insert(
        "nic.poll_residency_frac".into(),
        poll_cycles as f64 / nic_cycles.max(1) as f64,
    );
    let (hits, misses) = (counter("grantcache.hits"), counter("grantcache.misses"));
    m.insert(
        "xen.grantcache_hit_ratio".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.insert(
        "xen.upcall_p99_cycles".into(),
        runs.iter()
            .map(|o| o.delta.histogram("upcall_latency").p99)
            .max()
            .unwrap_or(0) as f64,
    );
    Ok(m)
}

/// Host-time numbers of one pass, summed over its scenarios.
#[derive(Clone, Debug, Default)]
pub struct PassHost {
    pub spans_on: bool,
    /// Every scenario's window slices, in order.
    pub slice_ns: Vec<u64>,
    /// Every scenario's set-up stages (build, warm-up), in order.
    pub setup_ns: Vec<u64>,
    pub build_ns: u64,
    pub warm_ns: u64,
    pub snapshot_ns: u64,
    pub check_ns: u64,
}

impl PassHost {
    pub fn of(runs: &[Observed], spans_on: bool, check_ns: u64) -> PassHost {
        PassHost {
            spans_on,
            slice_ns: runs
                .iter()
                .flat_map(|o| o.slice_ns.iter().copied())
                .collect(),
            setup_ns: runs.iter().flat_map(|o| [o.build_ns, o.warm_ns]).collect(),
            build_ns: runs.iter().map(|o| o.build_ns).sum(),
            warm_ns: runs.iter().map(|o| o.warm_ns).sum(),
            snapshot_ns: runs.iter().map(|o| o.snapshot_ns).sum(),
            check_ns,
        }
    }

    pub fn window_ns(&self) -> u64 {
        self.slice_ns.iter().sum()
    }

    pub fn setup_s(&self) -> f64 {
        (self.build_ns + self.warm_ns) as f64 / 1e9
    }
}

/// Host ns of the quiet-machine floor of one pass's work: each piece at
/// the fastest it ran in any pass, summed. Piece `k` is identical work
/// in every pass and nothing makes identical work run faster than the
/// machine allows, so the minimum is what the simulator costs when the
/// neighbours are quiet — and every further pass is another chance for
/// each piece to find such a moment.
pub fn floor_ns<'a>(pieces_per_pass: impl Iterator<Item = &'a Vec<u64>>) -> u64 {
    let mut best: Vec<u64> = Vec::new();
    for pieces in pieces_per_pass {
        if best.is_empty() {
            best.clone_from(pieces);
        }
        for (b, p) in best.iter_mut().zip(pieces) {
            *b = (*b).min(*p);
        }
    }
    best.iter().sum()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
