//! `bench compare A.jsonl B.jsonl`: applies the per-metric bounds of
//! `BENCHMARK.json` to two sets of runs (`run --out` appends one line
//! per run), each workload in its own rows.
//!
//! A metric **regressed** when B's median is worse than A's by more than
//! its bound. Where the noise is wider than the bound can resolve — the
//! two sides' interquartile ranges overlap by more than the bound — the
//! verdict is **unresolved**, not "unchanged", unless every B sample
//! beats every A sample. Noise is judged on the runs' reported values
//! when each side has at least four runs, else on their per-pass samples.

use crate::json::{self, Value};
use crate::metrics::median_f;
use crate::spec::{MetricSpec, Spec};
use std::collections::BTreeMap;

#[derive(Clone, Debug, Default)]
pub struct Record {
    pub workload: String,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, Vec<f64>>,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Regressed,
    Unresolved,
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let (j, delta) = ((i * (len + 1)) / 4, (i * (len + 1)) % 4);
        let j = j.clamp(1, len - 1);
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    Some((cut(1), cut(3)))
}

fn parse_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if v.get("trace").and_then(Value::as_f64) == Some(1.0) {
            continue; // traced runs carry no end-to-end numbers
        }
        let mut r = Record {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}:{}: no `workload`", n + 1))?
                .to_string(),
            correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
            ..Record::default()
        };
        if let Some(ms) = v.get("metrics").and_then(Value::as_obj) {
            for (k, m) in ms {
                if let Some(x) = m.get("value").and_then(Value::as_f64) {
                    r.metrics.insert(k.clone(), x);
                }
            }
        }
        if let Some(ss) = v.get("samples").and_then(Value::as_obj) {
            for (k, s) in ss {
                r.samples.insert(
                    k.clone(),
                    s.as_arr().iter().filter_map(Value::as_f64).collect(),
                );
            }
        }
        out.push(r);
    }
    if out.is_empty() {
        return Err(format!("{path}: no untraced runs"));
    }
    Ok(out)
}

/// Judges one metric of one workload. Returns the verdict, both medians
/// and the share of A's median by which B is worse (negative: better).
pub fn judge(spec: &MetricSpec, a: &[&Record], b: &[&Record]) -> Option<(Verdict, f64, f64, f64)> {
    let bound = spec.bound?;
    let values = |rs: &[&Record]| -> Vec<f64> {
        rs.iter()
            .filter_map(|r| r.metrics.get(&spec.name).copied())
            .collect()
    };
    let pooled = |rs: &[&Record]| -> Vec<f64> {
        rs.iter()
            .filter_map(|r| r.samples.get(&spec.name))
            .flatten()
            .copied()
            .collect()
    };
    let (va, vb) = (values(a), values(b));
    if va.is_empty() || vb.is_empty() {
        return None;
    }
    let (ma, mb) = (median_f(&va), median_f(&vb));
    let sign = if spec.lower_is_better { 1.0 } else { -1.0 };
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let worse_by = sign * (mb - ma) / scale;
    let (na, nb) = if va.len() >= 4 && vb.len() >= 4 {
        (va, vb)
    } else {
        (pooled(a), pooled(b))
    };
    if let (Some((a1, a3)), Some((b1, b3))) = (quartiles(&na), quartiles(&nb)) {
        let overlap = (a3.min(b3) - a1.max(b1)).max(0.0);
        if overlap / scale > bound {
            let b_worst = nb
                .iter()
                .map(|x| sign * x)
                .fold(f64::NEG_INFINITY, f64::max);
            let a_best = na.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
            let verdict = if b_worst < a_best {
                Verdict::Better
            } else {
                Verdict::Unresolved
            };
            return Some((verdict, ma, mb, worse_by));
        }
    }
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    };
    Some((verdict, ma, mb, worse_by))
}

pub fn run(path_a: &str, path_b: &str) -> Result<(), String> {
    let spec = Spec::load()?;
    let (a, b) = (parse_records(path_a)?, parse_records(path_b)?);
    let mut regressed = Vec::new();
    for w in &spec.workloads {
        let ra: Vec<&Record> = a.iter().filter(|r| r.workload == *w).collect();
        let rb: Vec<&Record> = b.iter().filter(|r| r.workload == *w).collect();
        if ra.is_empty() || rb.is_empty() {
            println!("{w}: not in both files, skipped");
            continue;
        }
        println!("{w}  (A: {} runs, B: {} runs)", ra.len(), rb.len());
        for r in ra.iter().chain(&rb).filter(|r| !r.correct) {
            regressed.push(format!("{}: a run failed its output checks", r.workload));
        }
        for m in &spec.end_to_end {
            let Some((verdict, ma, mb, worse_by)) = judge(m, &ra, &rb) else {
                continue;
            };
            println!(
                "  {:<24} A {:>14.4}  B {:>14.4} {:<10}  worse by {:>+8.3}%  bound {:>6.2}%  {}",
                m.name,
                ma,
                mb,
                m.unit,
                worse_by * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (noise wider than the bound)",
                }
            );
            if verdict == Verdict::Regressed {
                regressed.push(format!("{w}: {} worse by {:.2}%", m.name, worse_by * 100.0));
            }
        }
    }
    if regressed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} regression(s):\n  {}",
            regressed.len(),
            regressed.join("\n  ")
        ))
    }
}
