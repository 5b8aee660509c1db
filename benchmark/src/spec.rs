//! The contract in `BENCHMARK.json`, compiled in: which metrics a run
//! must print, their units and directions, and the bound by which each
//! end-to-end metric may worsen. The binary reads names and units from
//! here and nowhere else, so the file and the program cannot disagree.

use crate::json::{self, Value};

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: no `{key}`"))?
        .as_arr()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry has no `{k}`"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let doc = json::parse(include_str!("../../BENCHMARK.json"))?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads: doc
                .get("workloads")
                .ok_or("BENCHMARK.json: no `workloads`")?
                .as_arr()
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }
}
