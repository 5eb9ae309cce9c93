//! `perf --compare OLD NEW`: a verdict per (workload, end-to-end metric)
//! between two ledgers, with bounds from `BENCHMARK.json`.

use crate::ledger::{samples, Catalogue};
use crate::stats::{median, quartiles};
use serde_json::Value;
use std::path::Path;

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The median got worse by more than the bound.
    Regressed,
    /// The median got better by more than the bound, or every new sample
    /// beats every old one.
    Improved,
    /// The medians agree within the bound.
    Unchanged,
    /// The run-to-run spread is wider than the bound, so the bound cannot
    /// be judged.
    Unresolved,
}

/// Correctness counters recorded in every ledger: any worsening regresses.
const CORRECTNESS: [&str; 2] = ["final_distance", "verify_fail_rate"];

/// How much worse `new` is than `old`: a share of `old`, or the absolute
/// difference when `old` is 0. Negative means better.
fn worsening(old: f64, new: f64, lower_is_better: bool) -> f64 {
    let diff = if lower_is_better {
        new - old
    } else {
        old - new
    };
    if old == 0.0 {
        diff
    } else {
        diff / old.abs()
    }
}

/// Interquartile range as a share of the median.
fn relative_spread(values: &[f64]) -> f64 {
    let (q1, m, q3) = quartiles(values);
    if q3 == q1 {
        0.0
    } else if m == 0.0 {
        f64::INFINITY
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Judge `new` samples against `old` ones under `bound`.
pub fn verdict(old: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if old.is_empty() || new.is_empty() {
        return Verdict::Unresolved;
    }
    let every_run_better = old
        .iter()
        .all(|&o| new.iter().all(|&n| worsening(o, n, lower_is_better) < 0.0));
    if relative_spread(old).max(relative_spread(new)) > bound {
        return if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let change = worsening(median(old), median(new), lower_is_better);
    if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub old: f64,
    pub new: f64,
    /// Both sides repeat one value exactly over several samples (a
    /// deterministic counter).
    pub deterministic: bool,
}

/// Compare every workload of `old` with the same workload of `new`.
pub fn compare_ledgers(old: &Value, new: &Value, catalogue: &Catalogue) -> Vec<Row> {
    let Some(Value::Object(workloads)) = old.get("workloads") else {
        return Vec::new();
    };
    let mut metrics: Vec<(&str, &str, bool, f64)> = catalogue
        .end_to_end
        .iter()
        .map(|m| {
            (
                "end_to_end",
                m.name.as_str(),
                m.lower_is_better,
                m.bound.unwrap_or(0.0),
            )
        })
        .collect();
    metrics.extend(
        CORRECTNESS
            .iter()
            .map(|&name| ("correctness", name, true, 0.0)),
    );
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for &(section, metric, lower_is_better, bound) in &metrics {
            let a = samples(old, workload, section, metric).unwrap_or_default();
            let b = samples(new, workload, section, metric).unwrap_or_default();
            let constant = |v: &[f64]| v.len() > 1 && v.iter().all(|&x| x == v[0]);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                verdict: verdict(&a, &b, lower_is_better, bound),
                old: median(&a),
                new: median(&b),
                deterministic: constant(&a) && constant(&b),
            });
        }
    }
    rows
}

fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the comparison; exit code 1 on any regression, 2 on bad input.
pub fn run(old: &Path, new: &Path) -> i32 {
    let (old, new) = match (read(old), read(new)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf --compare: {e}");
            return 2;
        }
    };
    let rows = compare_ledgers(&old, &new, &Catalogue::load());
    for row in &rows {
        let note = if row.deterministic && row.old != row.new {
            "  (deterministic change)"
        } else {
            ""
        };
        println!(
            "{:<20} {:<17} {:<10} old {:<14} new {:<14}{note}",
            row.workload,
            row.metric,
            format!("{:?}", row.verdict).to_lowercase(),
            row.old,
            row.new,
        );
    }
    let regressions = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    println!(
        "{regressions} regression(s) over {} comparisons",
        rows.len()
    );
    i32::from(regressions > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{object, sampled};

    #[test]
    fn a_worse_median_beyond_the_bound_regresses() {
        let old = [1.00, 1.01, 0.99, 1.00, 1.02];
        let new = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(verdict(&old, &new, true, 0.10), Verdict::Regressed);
        // Higher-is-better metrics regress when they drop.
        assert_eq!(verdict(&new, &old, false, 0.10), Verdict::Regressed);
    }

    #[test]
    fn a_better_median_beyond_the_bound_improves() {
        let old = [1.20, 1.21, 1.19, 1.20, 1.22];
        let new = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(verdict(&old, &new, true, 0.10), Verdict::Improved);
    }

    #[test]
    fn medians_within_the_bound_are_unchanged() {
        let old = [1.00, 1.01, 0.99, 1.00, 1.02];
        let new = [1.04, 1.05, 1.03, 1.04, 1.06];
        assert_eq!(verdict(&old, &new, true, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&[5.0; 3], &[5.0; 3], true, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let old = [1.0, 1.5, 0.7, 1.2, 0.9];
        let new = [1.3, 0.8, 1.6, 1.1, 1.0];
        assert_eq!(verdict(&old, &new, true, 0.10), Verdict::Unresolved);
        // …unless every new run beats every old one.
        let faster = [0.5, 0.55, 0.6, 0.45, 0.5];
        assert_eq!(verdict(&old, &faster, true, 0.10), Verdict::Improved);
        assert_eq!(verdict(&old, &[], true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn zero_bound_counters_regress_on_any_worsening() {
        assert_eq!(verdict(&[0.0], &[0.5], true, 0.0), Verdict::Regressed);
        assert_eq!(
            verdict(&[12952.0; 2], &[12953.0; 2], true, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[1.0; 2], &[0.999; 2], false, 0.0),
            Verdict::Regressed
        );
    }

    fn ledger(wall: &[f64], probes: f64, distance: f64) -> Value {
        object([(
            "workloads",
            object([(
                "bo_uniform_tpch",
                object([
                    (
                        "end_to_end",
                        object([
                            ("wall_s", sampled("s", wall)),
                            ("oracle_probes", sampled("count", &[probes; 3])),
                        ]),
                    ),
                    (
                        "correctness",
                        object([("final_distance", Value::Float(distance))]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn ledgers_compare_metric_by_metric() {
        let catalogue = Catalogue::load();
        let old = ledger(&[2.0, 2.1, 2.05], 12952.0, 0.0);
        let same = compare_ledgers(&old, &ledger(&[2.02, 2.08, 2.04], 12952.0, 0.0), &catalogue);
        let verdict_of = |rows: &[Row], metric: &str| {
            rows.iter().find(|r| r.metric == metric).map(|r| r.verdict)
        };
        assert_eq!(verdict_of(&same, "wall_s"), Some(Verdict::Unchanged));
        assert_eq!(verdict_of(&same, "oracle_probes"), Some(Verdict::Unchanged));
        assert_eq!(
            verdict_of(&same, "final_distance"),
            Some(Verdict::Unchanged)
        );

        let worse = compare_ledgers(&old, &ledger(&[2.0, 2.1, 2.05], 14000.0, 3.0), &catalogue);
        assert_eq!(
            verdict_of(&worse, "oracle_probes"),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            verdict_of(&worse, "final_distance"),
            Some(Verdict::Regressed)
        );
        let probes = worse.iter().find(|r| r.metric == "oracle_probes").unwrap();
        assert!(probes.deterministic);
        // A metric missing from a ledger cannot be judged.
        assert_eq!(verdict_of(&worse, "setup_s"), Some(Verdict::Unresolved));
    }
}
