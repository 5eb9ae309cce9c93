//! The metric catalogue (read from `BENCHMARK.json`) and the ledger: the
//! JSON record of a run that `--out` writes and `--compare` reads.

use crate::stats;
use serde_json::Value;

/// `BENCHMARK.json`, compiled in: the one list of metric names, units,
/// directions and bounds that both the result line and `--compare` use.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One catalogued metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the old median (end-to-end only).
    pub bound: Option<f64>,
}

/// The end-to-end and per-layer metrics of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Catalogue {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Catalogue {
    pub fn load() -> Catalogue {
        let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<MetricSpec> {
            root[key]
                .as_array()
                .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
                .iter()
                .map(|m| MetricSpec {
                    name: m["name"].as_str().expect("metric name").to_string(),
                    unit: m["unit"].as_str().expect("metric unit").to_string(),
                    lower_is_better: m["better"] == "lower",
                    bound: m["bound"].as_f64(),
                })
                .collect()
        };
        Catalogue {
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    }

    #[cfg(test)]
    pub fn workload_names() -> Vec<String> {
        let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        root["workloads"]
            .as_array()
            .map(|list| {
                list.iter()
                    .filter_map(|w| w["name"].as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// A JSON object from `(key, value)` pairs, keeping their order.
pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A sampled metric: every sample with its median, maximum and count.
pub fn sampled(unit: &str, values: &[f64]) -> Value {
    object([
        ("unit", Value::String(unit.into())),
        ("median", Value::Float(stats::median(values))),
        ("max", Value::Float(stats::max(values))),
        ("n", Value::Int(values.len() as i64)),
        (
            "values",
            Value::Array(values.iter().map(|&v| Value::Float(v)).collect()),
        ),
    ])
}

/// The samples of `metric` of `workload` in a ledger, if recorded.
pub fn samples(ledger: &Value, workload: &str, section: &str, metric: &str) -> Option<Vec<f64>> {
    let entry = ledger["workloads"]
        .get(workload)?
        .get(section)?
        .get(metric)?;
    match entry.get("values") {
        Some(values) => values.as_array()?.iter().map(Value::as_f64).collect(),
        None => entry.as_f64().map(|v| vec![v]),
    }
}
