//! Generation reports.
//!
//! A [`GenerationReport`] carries everything the paper's figures are drawn
//! from: the accepted queries, the Wasserstein-distance-over-time series
//! (Figures 5/6/8b), end-to-end and per-phase timings (the E2E bars and
//! Figure 7), template counts and LLM token usage (Table 2), and the
//! Figure-8a rewrite statistics.

use crate::amplify::AmplifyStats;
use crate::bo_search::GeneratedQuery;
use crate::template_gen::RewriteStats;
use llm::{ResilienceStats, TokenUsage};
use std::time::Duration;

/// Graceful-degradation counters: what the pipeline *lost* to transport
/// failures instead of aborting over. Zero across the board on a healthy
/// transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// LLM calls that surfaced a transport error to a pipeline phase
    /// (after the resilience layer's retries were exhausted).
    pub llm_failures: u64,
    /// Responses that arrived but failed protocol parsing (the typed
    /// `Malformed` outcome — counted as failed attempts, never silently
    /// swallowed).
    pub malformed_responses: u64,
    /// Specifications abandoned by Algorithm 1 because their initial
    /// generation never arrived; the batch continues without them.
    pub abandoned_specs: u64,
    /// Interval-refinement passes Algorithm 2 skipped because every
    /// refine call for the interval failed; the outer round retries them.
    pub abandoned_intervals: u64,
}

impl DegradationStats {
    /// Whether anything degraded at all.
    pub fn is_quiet(&self) -> bool {
        *self == DegradationStats::default()
    }

    /// Fold another phase's counters into this one.
    pub fn merge(&mut self, other: &DegradationStats) {
        self.llm_failures += other.llm_failures;
        self.malformed_responses += other.malformed_responses;
        self.abandoned_specs += other.abandoned_specs;
        self.abandoned_intervals += other.abandoned_intervals;
    }
}

/// Wall-clock spent in each pipeline phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    pub template_generation: Duration,
    pub profiling: Duration,
    pub refinement: Duration,
    pub predicate_search: Duration,
    /// Post-convergence amplification (zero when the stage is disabled).
    pub amplification: Duration,
}

/// Full record of one end-to-end generation run.
#[derive(Debug, Clone, Default)]
pub struct GenerationReport {
    /// Accepted queries (cost-conforming workload).
    pub queries: Vec<GeneratedQuery>,
    /// `(seconds since start, Wasserstein distance)` samples.
    pub distance_series: Vec<(f64, f64)>,
    /// Final Wasserstein distance between target and achieved counts.
    pub final_distance: f64,
    /// End-to-end wall time.
    pub elapsed: Duration,
    /// Per-phase wall times.
    pub phases: PhaseTimes,
    /// Cumulative LLM token usage (Table 2).
    pub llm_usage: TokenUsage,
    /// Seed templates that survived Algorithm 1.
    pub n_seed_templates: usize,
    /// Templates added by Algorithm 2 refinement.
    pub n_refined_templates: usize,
    /// Pool size at the end (after pruning sweeps).
    pub n_final_templates: usize,
    /// Figure-8a series from the template generator.
    pub rewrite_stats: RewriteStats,
    /// Template Alignment Accuracy over the seed templates.
    pub alignment_accuracy: f64,
    /// Achieved per-interval counts.
    pub distribution: Vec<f64>,
    /// Target per-interval counts.
    pub target_counts: Vec<f64>,
    /// Intervals the search gave up on.
    pub skipped_intervals: Vec<usize>,
    /// Cost-oracle evaluations spent (profiling + refinement + search).
    pub evaluations: usize,
    /// Logical cost probes requested from the oracle (cache hits
    /// included — this is the paper's evaluation-budget currency).
    pub oracle_probes: u64,
    /// Probes that actually reached the DBMS planner (distinct memoized
    /// statements plus unmemoizable wall-clock timings).
    pub oracle_physical_evals: u64,
    /// Probes answered from the memo cache (`probes - physical`).
    pub oracle_cache_hits: u64,
    /// Probes answered from the binding-key memo; every probe is a
    /// prepared probe, so this equals `oracle_cache_hits`.
    pub oracle_prepared_hits: u64,
    /// Probes that recosted (or executed) a plan skeleton; equals
    /// `oracle_physical_evals`.
    pub oracle_prepared_misses: u64,
    /// Memo entries discarded by the oracle's second-chance eviction.
    pub oracle_evictions: u64,
    /// Deficit-scheduler rounds executed during the BO search phase.
    pub scheduler_rounds: u64,
    /// Interval BO tasks launched across all scheduler rounds.
    pub scheduler_tasks: u64,
    /// Largest number of tasks any single round ran concurrently.
    pub scheduler_peak_tasks: u64,
    /// Locally accepted queries rejected at a round barrier (the merge's
    /// canonical order resolved an over-admission against them).
    pub scheduler_overadmissions: u64,
    /// Retry/backoff/breaker counters from the LLM's resilience layer.
    pub resilience: ResilienceStats,
    /// What the pipeline degraded over instead of aborting.
    pub degradation: DegradationStats,
    /// Amplification-stage accounting (`--amplify N`); `None` when the
    /// stage did not run.
    pub amplify: Option<AmplifyStats>,
}

impl GenerationReport {
    /// Total SQL templates used (seed + refined) — the paper's Table-2
    /// "#SQL Templates" column.
    pub fn total_templates(&self) -> usize {
        self.n_seed_templates + self.n_refined_templates
    }

    /// Fraction of the target workload actually generated.
    pub fn fill_rate(&self) -> f64 {
        let target: f64 = self.target_counts.iter().sum();
        if target == 0.0 {
            return 1.0;
        }
        self.queries.len() as f64 / target
    }

    /// One-line cost-oracle accounting: logical/physical probe counts
    /// next to the prepared-plan hit/miss (and eviction) counters.
    pub fn oracle_summary(&self) -> String {
        let mut line = format!(
            "oracle: {} probes, {} physical, {} cached; prepared {} hits / {} misses",
            self.oracle_probes,
            self.oracle_physical_evals,
            self.oracle_cache_hits,
            self.oracle_prepared_hits,
            self.oracle_prepared_misses,
        );
        if self.oracle_evictions > 0 {
            line.push_str(&format!(", {} evictions", self.oracle_evictions));
        }
        line
    }

    /// One-line deficit-scheduler accounting: rounds, tasks, peak round
    /// width, and how many local accepts the round barriers rolled back.
    pub fn scheduler_summary(&self) -> String {
        let mut line = format!(
            "scheduler: {} rounds, {} tasks (peak {} concurrent)",
            self.scheduler_rounds, self.scheduler_tasks, self.scheduler_peak_tasks,
        );
        if self.scheduler_overadmissions > 0 {
            line.push_str(&format!(
                ", {} over-admissions resolved",
                self.scheduler_overadmissions
            ));
        }
        line
    }

    /// One-line amplification accounting, or `None` when the stage did
    /// not run: emitted/requested, accept rate, the W₁ distance of the
    /// amplified histogram, and the per-accepted oracle-miss rate (the
    /// near-zero-misses claim, printed even when it is 0).
    pub fn amplify_summary(&self) -> Option<String> {
        let a = self.amplify.as_ref()?;
        let mut line = format!(
            "amplify: {} / {} queries ({:.1}% accept rate over {} candidates, \
             {} pairs), W1 {:.1}, {} oracle misses ({:.4}/query)",
            a.emitted,
            a.requested,
            a.accept_rate() * 100.0,
            a.candidates,
            a.pairs,
            a.wasserstein,
            a.oracle_misses,
            a.misses_per_accept(),
        );
        if a.shortfall > 0 {
            line.push_str(&format!(", {} short", a.shortfall));
        }
        if !a.unserved_intervals.is_empty() {
            line.push_str(&format!(", unserved intervals {:?}", a.unserved_intervals));
        }
        Some(line)
    }

    /// One-line LLM-resilience accounting: retry/backoff/breaker activity
    /// next to what each pipeline phase degraded over. Printed by both
    /// CLIs alongside [`GenerationReport::oracle_summary`].
    pub fn resilience_summary(&self) -> String {
        let r = &self.resilience;
        let d = &self.degradation;
        if r.is_quiet() && d.is_quiet() {
            return format!("llm: {} calls, no transport faults", r.calls);
        }
        let mut line = format!(
            "llm: {} calls, {} retries ({:.1}s backoff), {} recovered, {} failed",
            r.calls,
            r.retries,
            r.backoff_ms as f64 / 1_000.0,
            r.recoveries,
            r.giveups,
        );
        if r.breaker_trips > 0 || r.circuit_rejections > 0 {
            line.push_str(&format!(
                "; breaker: {} trips, {} rejections, {} probes",
                r.breaker_trips, r.circuit_rejections, r.breaker_probes
            ));
        }
        if r.budget_exhausted > 0 {
            line.push_str(&format!(
                "; retry budget exhausted on {} calls",
                r.budget_exhausted
            ));
        }
        if !d.is_quiet() {
            line.push_str(&format!(
                "\ndegraded: {} specs abandoned, {} intervals skipped, \
                 {} malformed responses, {} failed calls absorbed",
                d.abandoned_specs,
                d.abandoned_intervals,
                d.malformed_responses,
                d.llm_failures,
            ));
        }
        line
    }

    /// Render a short human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} queries in {:.2}s (distance {:.1}, fill {:.1}%, {} templates, \
             {}K tokens, ${:.2})",
            self.queries.len(),
            self.elapsed.as_secs_f64(),
            self.final_distance,
            self.fill_rate() * 100.0,
            self.total_templates(),
            self.llm_usage.total_tokens() / 1000,
            self.llm_usage.cost_usd(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_key_numbers() {
        let report = GenerationReport {
            queries: vec![GeneratedQuery { sql: "SELECT 1 FROM t".into(), cost: 1.0 }],
            final_distance: 12.5,
            elapsed: Duration::from_millis(1500),
            n_seed_templates: 20,
            n_refined_templates: 4,
            target_counts: vec![1.0],
            ..Default::default()
        };
        let text = report.summary();
        assert!(text.contains("1 queries"));
        assert!(text.contains("12.5"));
        assert!(text.contains("24 templates"));
        assert_eq!(report.fill_rate(), 1.0);
    }

    #[test]
    fn oracle_summary_shows_prepared_counters() {
        let report = GenerationReport {
            oracle_probes: 100,
            oracle_physical_evals: 40,
            oracle_cache_hits: 60,
            oracle_prepared_hits: 55,
            oracle_prepared_misses: 35,
            ..Default::default()
        };
        let text = report.oracle_summary();
        assert!(text.contains("100 probes"));
        assert!(text.contains("55 hits / 35 misses"), "{text}");
        assert!(!text.contains("evictions"), "zero evictions stay quiet");
        let evicting =
            GenerationReport { oracle_evictions: 7, ..report }.oracle_summary();
        assert!(evicting.contains("7 evictions"));
    }

    #[test]
    fn scheduler_summary_reports_round_accounting() {
        let report = GenerationReport {
            scheduler_rounds: 12,
            scheduler_tasks: 30,
            scheduler_peak_tasks: 4,
            ..Default::default()
        };
        let text = report.scheduler_summary();
        assert!(text.contains("12 rounds"), "{text}");
        assert!(text.contains("30 tasks (peak 4 concurrent)"), "{text}");
        assert!(!text.contains("over-admissions"), "zero over-admissions stay quiet");
        let noisy = GenerationReport { scheduler_overadmissions: 3, ..report }
            .scheduler_summary();
        assert!(noisy.contains("3 over-admissions resolved"), "{noisy}");
    }

    #[test]
    fn amplify_summary_reports_rates_and_misses() {
        let quiet = GenerationReport::default();
        assert!(quiet.amplify_summary().is_none(), "no stage, no line");
        let report = GenerationReport {
            amplify: Some(AmplifyStats {
                requested: 1000,
                emitted: 990,
                candidates: 4096,
                batches: 4,
                pairs: 3,
                shortfall: 10,
                wasserstein: 12.5,
                oracle_misses: 0,
                ..Default::default()
            }),
            ..Default::default()
        };
        let text = report.amplify_summary().unwrap();
        assert!(text.contains("990 / 1000 queries"), "{text}");
        assert!(text.contains("0 oracle misses (0.0000/query)"), "{text}");
        assert!(text.contains("10 short"), "{text}");
        assert!(!text.contains("unserved"), "no unserved intervals listed");
    }

    #[test]
    fn fill_rate_handles_empty_target() {
        let report = GenerationReport::default();
        assert_eq!(report.fill_rate(), 1.0);
    }

    #[test]
    fn resilience_summary_is_quiet_without_faults() {
        let report = GenerationReport {
            resilience: ResilienceStats { calls: 40, attempts: 40, ..Default::default() },
            ..Default::default()
        };
        let text = report.resilience_summary();
        assert!(text.contains("no transport faults"), "{text}");
        assert!(!text.contains("degraded"));
    }

    #[test]
    fn resilience_summary_reports_storm_counters() {
        let report = GenerationReport {
            resilience: ResilienceStats {
                calls: 100,
                attempts: 140,
                retries: 40,
                failures: 45,
                recoveries: 35,
                giveups: 5,
                backoff_ms: 12_300,
                breaker_trips: 2,
                breaker_probes: 2,
                circuit_rejections: 3,
                budget_exhausted: 1,
            },
            degradation: DegradationStats {
                llm_failures: 5,
                malformed_responses: 4,
                abandoned_specs: 1,
                abandoned_intervals: 2,
            },
            ..Default::default()
        };
        let text = report.resilience_summary();
        assert!(text.contains("40 retries (12.3s backoff)"), "{text}");
        assert!(text.contains("2 trips, 3 rejections"), "{text}");
        assert!(text.contains("retry budget exhausted on 1 calls"), "{text}");
        assert!(text.contains("1 specs abandoned, 2 intervals skipped"), "{text}");
    }

    #[test]
    fn degradation_merge_accumulates() {
        let mut a = DegradationStats {
            llm_failures: 1,
            malformed_responses: 2,
            abandoned_specs: 3,
            abandoned_intervals: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.llm_failures, 2);
        assert_eq!(a.abandoned_intervals, 8);
        assert!(!a.is_quiet());
        assert!(DegradationStats::default().is_quiet());
    }
}

/// Export helpers: persist a generated workload for use outside this
/// process (benchmark drivers, regression suites).
impl GenerationReport {
    /// Write the workload as a `.sql` file: one statement per line group,
    /// each preceded by a comment recording its measured cost, ready to be
    /// piped into any SQL client.
    pub fn write_sql(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "-- SQLBarber workload: {} queries", self.queries.len())?;
        writeln!(out, "-- final Wasserstein distance: {:.2}", self.final_distance)?;
        for query in &self.queries {
            writeln!(out, "-- cost: {:.2}", query.cost)?;
            writeln!(out, "{};", query.sql)?;
        }
        Ok(())
    }

    /// Write a machine-readable manifest (JSON): per-query SQL and cost,
    /// the target and achieved histograms, and run metadata.
    pub fn write_manifest(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut manifest = serde_json::json!({
            "queries": self.queries.iter().map(|q| {
                serde_json::json!({ "sql": q.sql, "cost": q.cost })
            }).collect::<Vec<_>>(),
            "target_counts": self.target_counts,
            "achieved_counts": self.distribution,
            "final_distance": self.final_distance,
            "skipped_intervals": self.skipped_intervals,
            "seed_templates": self.n_seed_templates,
            "refined_templates": self.n_refined_templates,
            "alignment_accuracy": self.alignment_accuracy,
            "elapsed_seconds": self.elapsed.as_secs_f64(),
            "oracle_evaluations": self.evaluations,
            "oracle": serde_json::json!({
                "logical_probes": self.oracle_probes,
                "physical_evals": self.oracle_physical_evals,
                "cache_hits": self.oracle_cache_hits,
                "prepared_hits": self.oracle_prepared_hits,
                "prepared_misses": self.oracle_prepared_misses,
                "evictions": self.oracle_evictions,
            }),
            "scheduler": serde_json::json!({
                "rounds": self.scheduler_rounds,
                "tasks": self.scheduler_tasks,
                "peak_tasks": self.scheduler_peak_tasks,
                "overadmissions": self.scheduler_overadmissions,
            }),
            "llm": serde_json::json!({
                "input_tokens": self.llm_usage.input_tokens,
                "output_tokens": self.llm_usage.output_tokens,
                "requests": self.llm_usage.requests,
                "cost_usd": self.llm_usage.cost_usd(),
            }),
            "resilience": serde_json::json!({
                "calls": self.resilience.calls,
                "attempts": self.resilience.attempts,
                "retries": self.resilience.retries,
                "failures": self.resilience.failures,
                "recoveries": self.resilience.recoveries,
                "giveups": self.resilience.giveups,
                "backoff_ms": self.resilience.backoff_ms,
                "breaker_trips": self.resilience.breaker_trips,
                "breaker_probes": self.resilience.breaker_probes,
                "circuit_rejections": self.resilience.circuit_rejections,
                "budget_exhausted": self.resilience.budget_exhausted,
            }),
            "degradation": serde_json::json!({
                "llm_failures": self.degradation.llm_failures,
                "malformed_responses": self.degradation.malformed_responses,
                "abandoned_specs": self.degradation.abandoned_specs,
                "abandoned_intervals": self.degradation.abandoned_intervals,
            }),
        });
        // The amplification section is present exactly when the stage ran,
        // so manifests from amplified runs are distinguishable and the
        // section participates in bit-identity checks.
        if let Some(a) = &self.amplify {
            if let serde_json::Value::Object(pairs) = &mut manifest {
                pairs.push((
                    "amplify".to_string(),
                    serde_json::json!({
                        "requested": a.requested,
                        "emitted": a.emitted,
                        "candidates": a.candidates,
                        "batches": a.batches,
                        "pairs": a.pairs,
                        "shortfall": a.shortfall,
                        "unserved_intervals": a.unserved_intervals,
                        "histogram": a.histogram,
                        "wasserstein": a.wasserstein,
                        "oracle_misses": a.oracle_misses,
                        "accept_rate": a.accept_rate(),
                    }),
                ));
            }
        }
        std::fs::write(path, serde_json::to_string_pretty(&manifest)?)
    }
}

#[cfg(test)]
mod export_tests {
    use super::*;

    fn sample_report() -> GenerationReport {
        GenerationReport {
            queries: vec![
                GeneratedQuery { sql: "SELECT 1 FROM a".into(), cost: 10.5 },
                GeneratedQuery { sql: "SELECT 2 FROM b".into(), cost: 99.0 },
            ],
            final_distance: 0.0,
            target_counts: vec![1.0, 1.0],
            distribution: vec![1.0, 1.0],
            ..Default::default()
        }
    }

    #[test]
    fn sql_export_is_replayable() {
        let dir = std::env::temp_dir().join("sqlbarber_test_export");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workload.sql");
        sample_report().write_sql(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("SELECT 1 FROM a;"));
        assert!(text.contains("-- cost: 10.50"));
        // every non-comment line is a statement ending in ';'
        for line in text.lines().filter(|l| !l.starts_with("--") && !l.is_empty()) {
            assert!(line.ends_with(';'), "unterminated: {line}");
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let dir = std::env::temp_dir().join("sqlbarber_test_export");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workload.json");
        sample_report().write_manifest(&path).unwrap();
        let value: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(value["queries"].as_array().unwrap().len(), 2);
        assert_eq!(value["queries"][0]["cost"], 10.5);
        assert_eq!(value["final_distance"], 0.0);
        assert!(
            value.get("amplify").is_none(),
            "no amplify section when the stage did not run"
        );
    }

    #[test]
    fn manifest_records_amplify_section_when_stage_ran() {
        let dir = std::env::temp_dir().join("sqlbarber_test_export");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workload_amplified.json");
        let report = GenerationReport {
            amplify: Some(crate::amplify::AmplifyStats {
                requested: 500,
                emitted: 500,
                candidates: 2048,
                batches: 2,
                pairs: 2,
                histogram: vec![250.0, 250.0],
                wasserstein: 1.25,
                ..Default::default()
            }),
            ..sample_report()
        };
        report.write_manifest(&path).unwrap();
        let value: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(value["amplify"]["requested"], 500);
        assert_eq!(value["amplify"]["oracle_misses"], 0);
        assert_eq!(value["amplify"]["wasserstein"], 1.25);
        assert_eq!(value["amplify"]["histogram"].as_array().unwrap().len(), 2);
    }
}
