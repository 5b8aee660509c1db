//! `bench` — the one benchmark every performance or simplicity change to
//! this repository is judged by. See `benchmark/README.md`.
//!
//! ```text
//! bench run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out FILE]
//! bench selftest
//! bench compare A.jsonl B.jsonl
//! ```

mod bench;
mod check;
mod compare;
mod json;
mod metrics;
mod probes;
mod rng;
mod runner;
mod selftest;
mod spans;
mod spec;
mod workloads;

use bench::RunOutput;
use spec::{MetricSpec, Spec};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  bench run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out FILE]
  bench selftest
  bench compare A.jsonl B.jsonl";

/// Where the traced run writes its spans: `out/` beside this package's
/// manifest (`cargo run` exports the directory; the compile-time value
/// covers a binary started by hand).
fn out_dir() -> PathBuf {
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    PathBuf::from(manifest).join("out")
}

fn number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("a metric is not a finite number ({v})"))
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the listed metrics.
fn metrics_json(out: &RunOutput, list: &[MetricSpec]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(list.len());
    for spec in list {
        let v = out.metrics.get(&spec.name).ok_or_else(|| {
            format!(
                "BENCHMARK.json declares `{}`, the run did not compute it",
                spec.name
            )
        })?;
        parts.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            spec.name,
            number(*v)?,
            spec.unit
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn print_table(out: &RunOutput, list: &[MetricSpec]) {
    println!(
        "== {}  seed {}  {} passes  trace {} ==",
        out.workload,
        out.seed,
        out.passes,
        u8::from(out.trace)
    );
    for spec in list {
        if let Some(v) = out.metrics.get(&spec.name) {
            println!("  {:<42} {:>16.4} {}", spec.name, v, spec.unit);
        }
    }
    if !out.paper.is_empty() {
        println!("  measured vs paper (Fig. 5-8):");
        for p in &out.paper {
            let show =
                |v: Option<f64>| v.map_or_else(|| "     -".to_string(), |v| format!("{v:>6.0}"));
            println!(
                "    {:<13} {:>8.1} cycles/pkt (paper {})   {:>7.1} Mb/s (paper {})   err {:.4}",
                p.label,
                p.cycles_per_pkt,
                show(p.paper_cycles_per_pkt),
                p.mbps,
                show(p.paper_mbps),
                p.err_frac
            );
        }
    }
    for v in &out.violations {
        println!("  CHECK FAILED: {v}");
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let spec = Spec::load()?;
    let (mut workload, mut seed, mut seconds, mut trace, mut out_file) =
        (None, workloads::DEFAULT_SEED, spec.run_seconds, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: not a whole number"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds {value}: not a number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--out" => out_file = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let names: Vec<String> = match workload {
        Some(w) if spec.workloads.contains(&w) => vec![w],
        Some(w) => {
            return Err(format!(
                "unknown workload `{w}` (known: {})",
                spec.workloads.join(", ")
            ))
        }
        None => spec.workloads.clone(),
    };
    let list = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for name in &names {
        let out = bench::run_workload(name, seed, seconds, trace, 1, Some(&out_dir()))?;
        let metrics = metrics_json(&out, list)?;
        print_table(&out, list);
        if let Some(path) = &out_file {
            let samples: Vec<String> = out
                .samples
                .iter()
                .map(|(k, v)| {
                    let vs: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
                    format!("\"{k}\": [{}]", vs.join(", "))
                })
                .collect();
            let line = format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"samples\": {{{}}}}}\n",
                out.workload,
                out.seed,
                u8::from(out.trace),
                out.correct(),
                out.attempted,
                out.failed,
                metrics,
                samples.join(", ")
            );
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(line.as_bytes()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        // The contract's result line: last on standard output.
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            out.correct(),
            out.attempted,
            out.failed,
            metrics
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("selftest") => selftest::run(),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
