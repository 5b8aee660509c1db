//! One benchmark run of one workload: passes of a fixed schedule on a
//! fresh `System` each, until the time budget is spent.
//!
//! Simulated statistics come from the first pass and every later pass
//! must reproduce them bit for bit (the simulator is deterministic; a
//! mismatch fails the run). Host time is noisy on a shared machine:
//! whole-pass times wander by ±20 % with the neighbours, the
//! quiet-machine floor does not, so `host_ns_per_pkt` is that floor
//! ([`metrics::floor_ns`]: every slice of the pass at the fastest it ran
//! in any pass) and the median and slowest pass are reported beside it.
//! `setup_s` is the same floor over the set-up stages.

use crate::check::{check, domain_cycles, Report};
use crate::json;
use crate::metrics::{self, max_f, median_f, Metrics, PaperPoint, PassHost};
use crate::probes;
use crate::runner::{fingerprint, run_scenario, Observed};
use crate::spans::Spans;
use crate::workloads::{generate, Op, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Fewest passes a run makes, whatever `--seconds` says: the traced run
/// needs one pass with spans and one without.
const MIN_PASSES: usize = 2;
/// Passes made with the product's flight recorder on, after the timed
/// loop of a traced run.
const RECORDER_PASSES: usize = 2;
/// `paper_b1` shrink factor for the fidelity anchor the other workloads
/// report beside their numbers (about 300 packets per point).
const PAPER_ANCHOR_SHRINK: usize = 13;

pub struct RunOutput {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Packets offered, over all passes.
    pub attempted: u64,
    /// Packets that broke an output check, over all passes.
    pub failed: u64,
    pub violations: Vec<String>,
    /// Every metric computed, end-to-end and per-layer alike.
    pub metrics: Metrics,
    /// Per-pass samples behind the two host end-to-end metrics.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub paper: Vec<PaperPoint>,
    pub passes: usize,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// What one pass over a workload's scenarios yields.
struct Pass {
    runs: Vec<Observed>,
    /// Simulated statistics of every scenario, comparable across passes.
    print: Vec<(String, u64)>,
    report: Report,
    check_ns: u64,
}

/// Runs every scenario of `w` once, checks the outputs and fingerprints
/// the simulated statistics.
fn one_pass(w: &Workload, spans: &mut Spans, recorder: bool) -> Result<Pass, String> {
    let pass = spans.begin("bench.pass");
    let mut runs = Vec::with_capacity(w.scenarios.len());
    for sc in &w.scenarios {
        runs.push(run_scenario(sc, spans, recorder).map_err(|e| format!("{}: {e}", sc.label))?);
    }
    let s = spans.begin("bench.check");
    let t = Instant::now();
    let mut report = Report::default();
    let mut print = Vec::new();
    for (sc, obs) in w.scenarios.iter().zip(&runs) {
        report.merge(check(sc, obs));
        print.extend(
            fingerprint(obs)
                .into_iter()
                .map(|(k, v)| (format!("{}/{k}", sc.label), v)),
        );
    }
    let check_ns = t.elapsed().as_nanos() as u64;
    spans.end(s);
    spans.end(pass);
    Ok(Pass {
        runs,
        print,
        report,
        check_ns,
    })
}

/// First key on which two fingerprints differ.
fn first_difference(a: &[(String, u64)], b: &[(String, u64)]) -> String {
    a.iter()
        .zip(b)
        .find(|(x, y)| x != y)
        .map(|(x, y)| format!("{} = {} vs {} = {}", x.0, x.1, y.0, y.1))
        .unwrap_or_else(|| format!("{} vs {} entries", a.len(), b.len()))
}

pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    shrink: usize,
    spans_dir: Option<&Path>,
) -> Result<RunOutput, String> {
    let reference = json::parse(include_str!("../paper_reference.json"))
        .map_err(|e| format!("paper_reference.json: {e}"))?;
    let t = Instant::now();
    let w = generate(name, seed, shrink).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let gen_ns = t.elapsed().as_nanos() as u64;
    let offered: u64 = w.scenarios.iter().map(|s| s.offered() as u64).sum();
    let mut spans = Spans::new();
    let mut violations: Vec<String> = Vec::new();
    let mut failed = 0u64;

    // The simulator's error against the paper, stated beside every
    // workload's numbers: `paper_b1` scores its own first pass, the
    // others a short fixed run of the same eight points.
    let mut paper: Vec<PaperPoint> = Vec::new();
    if name != "paper_b1" && !trace {
        let anchor = generate("paper_b1", seed, PAPER_ANCHOR_SHRINK).expect("paper_b1 exists");
        let pass = one_pass(&anchor, &mut spans, false)?;
        failed += pass.report.failed;
        violations.extend(pass.report.violations);
        paper = metrics::paper_points(&anchor, &pass.runs, &reference)?;
    }

    let start = Instant::now();
    let mut first: Option<Pass> = None;
    let mut passes: Vec<PassHost> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let spans_on = trace && passes.len() % 2 == 0;
        spans.set_enabled(spans_on);
        let mut pass = one_pass(&w, &mut spans, false)?;
        failed += pass.report.failed;
        violations.append(&mut pass.report.violations);
        passes.push(PassHost::of(&pass.runs, spans_on, pass.check_ns));
        match &first {
            None => first = Some(pass),
            Some(want) if want.print != pass.print => {
                violations.push(format!(
                    "pass {} is not bit-identical to pass 0: {}",
                    passes.len() - 1,
                    first_difference(&want.print, &pass.print)
                ));
            }
            Some(_) => {}
        }
    }
    spans.set_enabled(false);
    let Pass {
        runs: runs0,
        print: print0,
        ..
    } = first.expect("at least one pass ran");

    let mut m = metrics::simulated(&w, &runs0)?;
    if name == "paper_b1" {
        paper = metrics::paper_points(&w, &runs0, &reference)?;
    }
    m.insert("paper_err_frac".into(), metrics::paper_err_frac(&paper));
    // Per-point figures are `paper_b1`'s own layer metrics; 0 elsewhere.
    for config in twindrivers::Config::ALL {
        for dir in ["tx", "rx"] {
            let label = format!("{}.{dir}", config.label());
            let p = paper
                .iter()
                .find(|p| p.label == label)
                .filter(|_| name == "paper_b1");
            m.insert(
                format!("core.paper.{label}.cycles_per_pkt"),
                p.map_or(0.0, |p| p.cycles_per_pkt),
            );
            m.insert(
                format!("core.paper.{label}.err_frac"),
                p.map_or(0.0, |p| p.err_frac),
            );
        }
    }

    // Host time. Passes with spans on pay for the spans, so the
    // end-to-end figure only ever uses passes without.
    let per_pkt = |ns: u64| ns as f64 / offered as f64;
    let plain: Vec<f64> = passes
        .iter()
        .filter(|p| !p.spans_on)
        .map(|p| per_pkt(p.window_ns()))
        .collect();
    let setups: Vec<f64> = passes.iter().map(PassHost::setup_s).collect();
    let floor_per_pkt = |of: &[PassHost], spans_on: bool| {
        let slices = of.iter().filter(|p| p.spans_on == spans_on);
        per_pkt(metrics::floor_ns(slices.map(|p| &p.slice_ns)))
    };
    let fastest = floor_per_pkt(&passes, false);
    m.insert("host_ns_per_pkt".into(), fastest);
    m.insert(
        "setup_s".into(),
        metrics::floor_ns(passes.iter().map(|p| &p.setup_ns)) as f64 / 1e9,
    );
    m.insert("host.pass_ns_per_pkt.p50".into(), median_f(&plain));
    m.insert("host.pass_ns_per_pkt.max".into(), max_f(&plain));
    m.insert("host.passes".into(), passes.len() as f64);
    let fastest_of = |f: fn(&PassHost) -> u64| passes.iter().map(f).min().unwrap_or(0) as f64;
    m.insert("core.build_ms".into(), fastest_of(|p| p.build_ns) / 1e6);
    m.insert("core.warmup_ms".into(), fastest_of(|p| p.warm_ns) / 1e6);
    m.insert(
        "core.metrics_snapshot_us".into(),
        fastest_of(|p| p.snapshot_ns) / (2 * w.scenarios.len()) as f64 / 1e3,
    );
    let insns: u64 = runs0.iter().map(|o| o.insns).sum();
    let charged: u64 = runs0.iter().flat_map(domain_cycles).sum();
    m.insert(
        "host.ns_per_insn".into(),
        fastest * offered as f64 / insns.max(1) as f64,
    );
    m.insert(
        "host.ns_per_sim_kcycle".into(),
        fastest * offered as f64 / (charged.max(1) as f64 / 1e3),
    );
    let checks: Vec<f64> = passes.iter().map(|p| p.check_ns as f64).collect();
    m.insert(
        "bench.gen_ns_per_pkt".into(),
        (gen_ns as f64 + median_f(&checks)) / offered as f64,
    );

    // Per-call host time from the spans, per packet that call carried.
    let totals = spans.totals();
    let traced_passes = passes.iter().filter(|p| p.spans_on).count() as f64;
    let carried = |pick: fn(&Op) -> bool| -> f64 {
        w.scenarios
            .iter()
            .flat_map(|s| &s.ops)
            .filter(|op| pick(op))
            .map(Op::packets)
            .sum::<usize>() as f64
    };
    for (metric, span, pkts) in [
        (
            "core.receive_burst_ns_per_pkt",
            "core.receive_burst",
            carried(|op| matches!(op, Op::Rx(_))),
        ),
        (
            "core.transmit_burst_ns_per_pkt",
            "core.transmit_burst",
            carried(|op| matches!(op, Op::Tx(_))),
        ),
        (
            "core.open_loop_arrival_ns_per_pkt",
            "core.rx_open_loop_arrival",
            carried(|op| matches!(op, Op::Arrive { .. })),
        ),
        (
            "core.open_loop_service_ns_per_pkt",
            "core.rx_open_loop_service",
            carried(|op| matches!(op, Op::Arrive { .. })),
        ),
    ] {
        let total = totals.get(span).map_or(0.0, |t| t.total_ns as f64);
        let denom = pkts * traced_passes;
        m.insert(metric.into(), if denom > 0.0 { total / denom } else { 0.0 });
    }
    m.insert(
        "trace.span_overhead_frac".into(),
        if traced_passes == 0.0 {
            0.0
        } else {
            (floor_per_pkt(&passes, true) - fastest) / fastest
        },
    );

    for k in [
        "trace.recorder_overhead_frac",
        "trace.events_per_pkt",
        "trace.events_dropped",
    ] {
        m.insert(k.into(), 0.0);
    }
    if trace {
        // The product's own flight recorder: it may cost host time, it
        // may not move one simulated statistic.
        let mut recorded: Vec<PassHost> = Vec::new();
        for _ in 0..RECORDER_PASSES {
            let Pass {
                runs,
                print,
                report,
                check_ns,
            } = one_pass(&w, &mut spans, true)?;
            failed += report.failed;
            violations.extend(report.violations);
            if print != print0 {
                violations.push(format!(
                    "the flight recorder moved a simulated statistic: {}",
                    first_difference(&print0, &print)
                ));
            }
            recorded.push(PassHost::of(&runs, false, check_ns));
            let recorder = |key: &str| -> u64 { runs.iter().map(|o| o.delta.counter(key)).sum() };
            m.insert(
                "trace.events_per_pkt".into(),
                recorder("trace.events_recorded") as f64 / offered as f64,
            );
            m.insert(
                "trace.events_dropped".into(),
                recorder("trace.events_dropped") as f64,
            );
        }
        m.insert(
            "trace.recorder_overhead_frac".into(),
            (floor_per_pkt(&recorded, false) - fastest) / fastest,
        );
        m.extend(probes::run_all()?);
        if let Some(dir) = spans_dir {
            let path = dir.join(format!("{name}.spans.json"));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, spans.chrome_trace_json()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("wrote {} ({} spans recorded)", path.display(), spans.len());
        }
    }
    m.insert("host.peak_rss_mb".into(), metrics::peak_rss_mb());

    // A check that fails in one pass fails in all of them: say it once.
    let mut seen = std::collections::BTreeSet::new();
    violations.retain(|v| seen.insert(v.clone()));

    let mut samples = BTreeMap::new();
    samples.insert("host_ns_per_pkt", plain);
    samples.insert("setup_s", setups);
    Ok(RunOutput {
        workload: name.to_string(),
        seed,
        trace,
        attempted: offered * (passes.len() + if trace { RECORDER_PASSES } else { 0 }) as u64,
        failed,
        violations,
        metrics: m,
        samples,
        paper,
        passes: passes.len(),
    })
}
