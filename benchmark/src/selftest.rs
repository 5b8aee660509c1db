//! `bench selftest`: proves each output check can fail. It captures real
//! results from shrunken workloads, confirms they pass, corrupts one
//! thing at a time — a delivered log, a wire log, a drop counter, a
//! cycle count — and demands that the matching check objects. It also
//! confirms that a short run computes exactly the metrics
//! `BENCHMARK.json` declares, and that `compare` tells regressed from
//! unresolved.

use crate::bench::run_workload;
use crate::check::check;
use crate::compare::{judge, Record, Verdict};
use crate::metrics::simulated;
use crate::runner::{run_scenario, Observed};
use crate::spans::Spans;
use crate::spec::Spec;
use crate::workloads::{generate, Scenario, Workload, DEFAULT_SEED, HELD_OUT_SEED};

const SHRINK: usize = 20;

fn capture(name: &str) -> Result<(Workload, Observed), String> {
    let w = generate(name, DEFAULT_SEED, SHRINK).ok_or("unknown workload")?;
    let obs = run_scenario(&w.scenarios[0], &mut Spans::new(), false).map_err(|e| e.to_string())?;
    let clean = check(&w.scenarios[0], &obs);
    if !clean.ok() {
        return Err(format!(
            "{name}: uncorrupted result fails its checks: {:?}",
            clean.violations
        ));
    }
    Ok((w, obs))
}

/// Applies `corrupt` to a copy of `obs` and requires a violation that
/// mentions `expect`.
fn must_fail(
    what: &str,
    sc: &Scenario,
    obs: &Observed,
    expect: &str,
    corrupt: impl FnOnce(&mut Observed),
) -> Result<(), String> {
    let mut bad = obs.clone();
    corrupt(&mut bad);
    let report = check(sc, &bad);
    match report.violations.iter().find(|v| v.contains(expect)) {
        Some(v) if report.failed > 0 => {
            println!("  caught  {what}: {v}");
            Ok(())
        }
        _ => Err(format!(
            "{what}: expected a `{expect}` violation, got {:?}",
            report.violations
        )),
    }
}

/// Indices of two frames of one flow in `frames`.
fn same_flow_pair(frames: &[twindrivers::net::Frame]) -> Option<(usize, usize)> {
    (1..frames.len())
        .find(|j| frames[*j].flow == frames[0].flow)
        .map(|j| (0, j))
}

fn bump(obs: &mut Observed, counter: &str) {
    let v = obs.delta.counter(counter);
    obs.delta.set(counter, v + 1);
}

pub fn run() -> Result<(), String> {
    println!("output checks must each be able to fail:");
    let (w, obs) = capture("twin_rx_bulk")?;
    let sc = &w.scenarios[0];
    must_fail(
        "delivered log, two frames of a flow swapped",
        sc,
        &obs,
        "order",
        |o| {
            let log = o.delivered.get_mut(&1).expect("guest 1 log");
            let (i, j) = same_flow_pair(log).expect("a flow delivers twice");
            log.swap(i, j);
        },
    )?;
    must_fail(
        "delivered log, one payload length altered",
        sc,
        &obs,
        "identity",
        |o| {
            o.delivered.get_mut(&1).expect("guest 1 log")[7].payload_len -= 1;
        },
    )?;
    must_fail(
        "delivered log, one frame repeated",
        sc,
        &obs,
        "twice",
        |o| {
            let log = o.delivered.get_mut(&1).expect("guest 1 log");
            let f = log[3].clone();
            log.push(f);
        },
    )?;
    must_fail(
        "delivered log, one frame removed",
        sc,
        &obs,
        "lost on a lossless",
        |o| {
            o.delivered.get_mut(&1).expect("guest 1 log").pop();
        },
    )?;
    must_fail(
        "delivered log, one frame moved to another guest",
        sc,
        &obs,
        "identity",
        |o| {
            let f = o
                .delivered
                .get_mut(&1)
                .expect("guest 1 log")
                .pop()
                .expect("frame");
            o.delivered.entry(2).or_default().push(f);
        },
    )?;
    must_fail(
        "cycle ledger, one Xen cycle added",
        sc,
        &obs,
        "ledger",
        |o| bump(o, "meter.cycles.Xen"),
    )?;
    must_fail(
        "call results, one packet unreported",
        sc,
        &obs,
        "calls reported",
        |o| o.accepted -= 1,
    )?;

    let (w, obs) = capture("overload_4x")?;
    let sc = &w.scenarios[0];
    must_fail(
        "drop counter, one early drop added",
        sc,
        &obs,
        "conservation",
        |o| bump(o, "guest1.early_drops"),
    )?;
    must_fail(
        "drop counter, one ring drop added",
        sc,
        &obs,
        "conservation",
        |o| bump(o, "nic0.rx_missed"),
    )?;
    must_fail(
        "delivered log, one frame removed under overload",
        sc,
        &obs,
        "conservation",
        |o| {
            o.delivered.get_mut(&1).expect("guest 1 log").pop();
        },
    )?;
    must_fail(
        "per-guest account, victim credited with the flood's drops",
        sc,
        &obs,
        "accounts for",
        |o| {
            let v = o.delta.counter("guest1.early_drops");
            o.delta.set("guest1.early_drops", 0);
            o.delta.set("guest2.early_drops", v);
        },
    )?;
    let mut bad = obs.clone();
    bump(&mut bad, "guest1.queue_drops");
    match simulated(&w, &[bad]) {
        Err(e) if e.contains("drop ledger") => {
            println!("  caught  drop fractions no longer summing to the loss: {e}")
        }
        other => return Err(format!("drop ledger: expected an error, got {other:?}")),
    }

    let (_, obs) = capture("paced_multi")?;
    let per_nic: Vec<u64> = (0..4)
        .map(|i| obs.delta.counter(&format!("nic{i}.rx_packets")))
        .collect();
    let total: u64 = per_nic.iter().sum();
    if per_nic.iter().any(|n| n * 5 < total || n * 10 > total * 3) {
        return Err(format!(
            "open-loop flows no longer spread evenly over the NICs: {per_nic:?}"
        ));
    }
    println!("  ok      open-loop arrivals spread evenly over the NICs: {per_nic:?}");

    let (w, obs) = capture("twin_tx_bulk")?;
    let sc = &w.scenarios[0];
    must_fail(
        "wire log, one frame removed",
        sc,
        &obs,
        "never reached the wire",
        |o| {
            o.wire.pop();
        },
    )?;
    must_fail(
        "wire log, two frames of a flow swapped",
        sc,
        &obs,
        "order",
        |o| {
            let (i, j) = same_flow_pair(&o.wire).expect("a flow transmits twice");
            o.wire.swap(i, j);
        },
    )?;
    must_fail(
        "wire log, one destination altered",
        sc,
        &obs,
        "identity",
        |o| {
            o.wire[5].dst = twindrivers::net::MacAddr::for_guest(9);
        },
    )?;

    println!("a run computes exactly the metrics BENCHMARK.json declares:");
    let spec = Spec::load()?;
    for name in &spec.workloads {
        let mut computed = std::collections::BTreeSet::new();
        for (trace, seed) in [(false, DEFAULT_SEED), (true, HELD_OUT_SEED)] {
            let out = run_workload(name, seed, 0.0, trace, SHRINK, None)?;
            if !out.correct() {
                return Err(format!("{name}: {:?}", out.violations));
            }
            let list = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            for m in list {
                let v = out
                    .metrics
                    .get(&m.name)
                    .ok_or_else(|| format!("{name}: `{}` declared, not computed", m.name))?;
                if !trace && *v == 0.0 {
                    return Err(format!("{name}: end-to-end metric `{}` is 0", m.name));
                }
            }
            computed.extend(out.metrics.into_keys());
        }
        let declared: std::collections::BTreeSet<String> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.clone())
            .collect();
        if let Some(extra) = computed.difference(&declared).next() {
            return Err(format!("{name}: `{extra}` computed, not declared"));
        }
        println!("  ok      {name}: {} metrics", declared.len());
    }

    println!("compare tells regressed from unresolved:");
    let host = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "host_ns_per_pkt")
        .ok_or("host_ns_per_pkt undeclared")?;
    let rec = |value: f64, samples: &[f64]| Record {
        workload: "w".into(),
        correct: true,
        metrics: [(host.name.clone(), value)].into(),
        samples: [(host.name.clone(), samples.to_vec())].into(),
    };
    let quiet = rec(100.0, &[100.0, 100.5, 101.0, 101.5]);
    for (what, other, want) in [
        (
            "same code",
            rec(100.4, &[100.4, 100.9, 101.2, 101.8]),
            Verdict::Ok,
        ),
        (
            "30 % slower, quiet machine",
            rec(130.0, &[130.0, 130.5, 131.0, 131.5]),
            Verdict::Regressed,
        ),
        (
            "30 % faster, quiet machine",
            rec(70.0, &[70.0, 70.5, 71.0, 71.5]),
            Verdict::Better,
        ),
        (
            "15 % slower, noisy machine",
            rec(115.0, &[90.0, 115.0, 150.0, 190.0]),
            Verdict::Unresolved,
        ),
    ] {
        let noisy_a = rec(100.0, &[85.0, 100.0, 140.0, 180.0]);
        let a = if want == Verdict::Unresolved {
            &noisy_a
        } else {
            &quiet
        };
        let got = judge(host, &[a], &[&other]).map(|j| j.0);
        if got != Some(want) {
            return Err(format!("compare, {what}: expected {want:?}, got {got:?}"));
        }
        println!("  ok      {what}: {want:?}");
    }
    println!("selftest passed");
    Ok(())
}
