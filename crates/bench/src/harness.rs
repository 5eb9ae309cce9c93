//! Shared experiment harness: figure-scale settings, seed-template
//! preparation, and one-call runners for SQLBarber and both baselines.

use baselines::{mutate_template_pool, BaselineConfig, HillClimbing, LearnedSqlGen, Scheduling};
use llm::SyntheticLlm;
use minidb::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use sqlbarber::cli::{pipeline_config, Dataset, FlagTable, Flags};
use sqlbarber::oracle::CostOracle;
use sqlbarber::template_gen::{generate_templates, TemplateGenConfig};
use sqlbarber::{errln, CostType, SqlBarber, SqlBarberConfig};
use sqlkit::Template;
use workload::redset::redset_template_specs;
use workload::{Benchmark, TargetDistribution};

/// The flags `figures` accepts: `--quick` and the pipeline flags of its
/// SQLBarber legs. Checkpointing is not among them: a target runs many
/// SQLBarber legs, and one snapshot directory cannot hold them all.
pub const FIGURES_FLAGS: FlagTable = &[
    ("--quick", 0),
    ("--threads", 1),
    ("--bo-rounds-concurrency", 1),
    ("--transport-faults", 1),
    ("--retry-budget", 1),
    ("--no-circuit-breaker", 0),
    ("--amplify", 1),
    ("--amplify-shards", 1),
    ("--amplify-out", 1),
];

/// Figure-scale settings and the SQLBarber pipeline every SQLBarber leg
/// runs. `quick()` shrinks the scales and budgets for smoke runs
/// (`SQLBARBER_QUICK=1` or the `--quick` flag).
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessConfig {
    /// TPC-H scale factor.
    pub tpch_sf: f64,
    /// IMDB scale multiplier.
    pub imdb_scale: f64,
    /// Baseline evaluation budget per optimization iteration.
    pub baseline_evals_per_interval: usize,
    /// HillClimbing's mutated-template pool size (paper: ~16 000; the
    /// default trades pool size for harness runtime — see EXPERIMENTS.md).
    pub pool_size: usize,
    /// Master seed.
    pub seed: u64,
    /// The pipeline configuration of every SQLBarber leg, seeded with
    /// `seed` and built from the `figures` flags by
    /// [`sqlbarber::cli::pipeline_config`]. Its worker-thread count also
    /// sizes the baselines' cost oracle; the baselines never call the LLM,
    /// so its transport and retry settings do not touch them.
    pub sqlbarber: SqlBarberConfig,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        // Scales are chosen so that the paper's working cost window
        // [0, 10k] is a *thin slice* of the reachable cost space — on the
        // authors' TPC-H SF10 server most join plans cost far beyond 10k,
        // and that overflow regime is what makes undirected search starve
        // (Figures 5–8). Single-table scans land near the top of the
        // window; joins overflow; selective predicates span the low end.
        let seed = 2025;
        HarnessConfig {
            tpch_sf: Dataset::Tpch.default_scale(),
            imdb_scale: Dataset::Imdb.default_scale(),
            baseline_evals_per_interval: 12_000,
            pool_size: 2_000,
            seed,
            sqlbarber: SqlBarberConfig { seed, ..Default::default() },
        }
    }
}

impl HarnessConfig {
    /// Smoke-test configuration (`--quick`, `SQLBARBER_QUICK=1`, tests).
    pub fn quick() -> HarnessConfig {
        HarnessConfig {
            tpch_sf: 0.002,
            imdb_scale: 0.1,
            baseline_evals_per_interval: 1_200,
            pool_size: 200,
            ..HarnessConfig::default()
        }
    }

    /// The configuration and the targets (bare words) a `figures` command
    /// line asks for. An unknown flag, a missing value, or a value that
    /// does not parse or is out of range is an error, worded as the
    /// `sqlbarber` CLI words it; nothing falls back silently.
    pub fn from_args(args: &[String]) -> Result<(HarnessConfig, Vec<String>), String> {
        let flags = Flags::parse_with_words(args, &[FIGURES_FLAGS])?;
        let quick =
            flags.has("--quick") || std::env::var("SQLBARBER_QUICK").is_ok_and(|v| v == "1");
        let mut config = if quick { HarnessConfig::quick() } else { HarnessConfig::default() };
        config.sqlbarber = pipeline_config(&flags, config.seed, None)?;
        Ok((config, flags.words))
    }
}

/// The 24 Redset seed templates as concrete SQL, generated once through
/// the template generator with a reliable model — these stand in for "the
/// SQL templates provided by the benchmarks" that the baselines consume.
pub fn seed_templates(db: &Database, seed: u64) -> Vec<Template> {
    let mut llm = SyntheticLlm::reliable(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = redset_template_specs(seed);
    generate_templates(db, &mut llm, &specs, TemplateGenConfig::default(), &mut rng)
        .seeds
        .into_iter()
        .map(|s| s.template)
        .collect()
}

/// One method's outcome on one benchmark — a row of Figures 5/6.
#[derive(Debug, Clone, Serialize)]
pub struct MethodRun {
    pub method: String,
    pub benchmark: String,
    pub database: String,
    pub cost_type: String,
    pub e2e_seconds: f64,
    pub final_distance: f64,
    pub queries: usize,
    pub evaluations: usize,
    /// `(seconds, distance)` convergence series.
    pub series: Vec<(f64, f64)>,
}

fn cost_label(cost_type: CostType) -> &'static str {
    match cost_type {
        CostType::Cardinality => "cardinality",
        CostType::PlanCost => "plan_cost",
        CostType::ActualCardinality => "actual_cardinality",
        CostType::ExecutionTimeMicros => "execution_time_us",
    }
}

/// Run SQLBarber end-to-end on a benchmark.
pub fn run_sqlbarber(
    db: &Database,
    bench: &Benchmark,
    target: &TargetDistribution,
    cost_type: CostType,
    config: SqlBarberConfig,
) -> MethodRun {
    let specs = redset_template_specs(workload::redset::DEFAULT_SEED);
    let report = SqlBarber::new(db, config)
        .generate(&specs, target, cost_type)
        .expect("SQLBarber produced no templates");
    if !report.resilience.is_quiet() || !report.degradation.is_quiet() {
        errln!("{}", report.resilience_summary());
    }
    if let Some(line) = report.amplify_summary() {
        errln!("{line}");
    }
    MethodRun {
        method: "SQLBarber".into(),
        benchmark: bench.name.into(),
        database: db.name().into(),
        cost_type: cost_label(cost_type).into(),
        e2e_seconds: report.elapsed.as_secs_f64(),
        final_distance: report.final_distance,
        queries: report.queries.len(),
        evaluations: report.evaluations,
        series: report.distance_series,
    }
}

/// Baseline method selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    HillClimbing,
    LearnedSqlGen,
}

impl BaselineKind {
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::HillClimbing => "HillClimbing",
            BaselineKind::LearnedSqlGen => "LearnedSQLGen",
        }
    }
}

/// Run one baseline configuration on a benchmark.
#[allow(clippy::too_many_arguments)]
pub fn run_baseline(
    kind: BaselineKind,
    scheduling: Scheduling,
    db: &Database,
    bench: &Benchmark,
    target: &TargetDistribution,
    cost_type: CostType,
    seeds: &[Template],
    harness: &HarnessConfig,
) -> MethodRun {
    let mut rng = StdRng::seed_from_u64(harness.seed ^ 0xba5e);
    let pool = mutate_template_pool(db, seeds, harness.pool_size, &mut rng);
    let config = BaselineConfig {
        evals_per_interval: harness.baseline_evals_per_interval,
        iterations: None,
        scheduling,
        seed: harness.seed,
    };
    let oracle = CostOracle::new(db, harness.sqlbarber.threads);
    let report = match kind {
        BaselineKind::HillClimbing => {
            HillClimbing::new(config, pool).generate(&oracle, target, cost_type)
        }
        BaselineKind::LearnedSqlGen => {
            LearnedSqlGen::new(config, pool).generate(&oracle, target, cost_type)
        }
    };
    MethodRun {
        method: format!("{}-{}", kind.label(), scheduling.label()),
        benchmark: bench.name.into(),
        database: db.name().into(),
        cost_type: cost_label(cost_type).into(),
        e2e_seconds: report.elapsed.as_secs_f64(),
        final_distance: report.final_distance,
        queries: report.queries.len(),
        evaluations: report.evaluations,
        series: report.distance_series,
    }
}

/// All five methods of Figures 5/6 on one (benchmark, database) cell.
pub fn run_all_methods(
    db: &Database,
    bench: &Benchmark,
    cost_type: CostType,
    harness: &HarnessConfig,
) -> Vec<MethodRun> {
    let target = bench.target();
    let seeds = seed_templates(db, harness.seed);
    let mut runs = Vec::with_capacity(5);
    for (kind, scheduling) in [
        (BaselineKind::HillClimbing, Scheduling::Order),
        (BaselineKind::HillClimbing, Scheduling::Priority),
        (BaselineKind::LearnedSqlGen, Scheduling::Order),
        (BaselineKind::LearnedSqlGen, Scheduling::Priority),
    ] {
        runs.push(run_baseline(kind, scheduling, db, bench, &target, cost_type, &seeds, harness));
    }
    runs.push(run_sqlbarber(db, bench, &target, cost_type, harness.sqlbarber.clone()));
    runs
}

/// Write a JSON artifact under `results/`.
pub fn write_json(name: &str, value: &impl Serialize) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(text) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(path, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_smaller() {
        let quick = HarnessConfig::quick();
        let full = HarnessConfig::default();
        assert!(quick.tpch_sf < full.tpch_sf);
        assert!(quick.baseline_evals_per_interval < full.baseline_evals_per_interval);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_apply_and_targets_are_returned() {
        let argv = args(&["--quick", "--threads", "3", "fig5", "--no-circuit-breaker"]);
        let (config, targets) = HarnessConfig::from_args(&argv).unwrap();
        assert_eq!(targets, ["fig5"]);
        assert_eq!((config.tpch_sf, config.seed), (0.002, 2025));
        assert_eq!((config.sqlbarber.seed, config.sqlbarber.threads), (2025, 3));
        assert!(!config.sqlbarber.retry.breaker_enabled);
    }

    #[test]
    fn bad_flag_values_are_usage_errors() {
        let cases = [
            (&["--quick", "--threads", "abc", "table1"][..], "invalid value `abc` for `--threads`"),
            (&["table1", "--threads"][..], "missing value for `--threads`"),
            (&["--amplify-out"][..], "missing value for `--amplify-out`"),
            (&["--thread", "4", "table1"][..], "unknown flag `--thread`"),
            (&["--threads", "257"][..], "invalid value `257` for `--threads`: must be at most 256"),
            (
                &["--amplify-shards", "18446744073709551615", "table1"][..],
                "invalid value `18446744073709551615` for `--amplify-shards`: must be at most 256",
            ),
            (&["--transport-faults", "NaN"][..], "--transport-faults must be in [0, 1], got NaN"),
            // Flags `sqlbarber generate` takes but `figures` does not.
            (&["--checkpoint-dir", "ck", "fig7"][..], "unknown flag `--checkpoint-dir`"),
            (&["--resume", "ck", "fig7"][..], "unknown flag `--resume`"),
            (&["--amplify-batch", "64"][..], "unknown flag `--amplify-batch`"),
            (&["--kill-at", "mid-search"][..], "unknown flag `--kill-at`"),
            (&["--seed", "7"][..], "unknown flag `--seed`"),
        ];
        for (argv, expected) in cases {
            assert_eq!(HarnessConfig::from_args(&args(argv)), Err(expected.to_string()));
        }
    }

    #[test]
    fn seed_templates_cover_the_batch() {
        let db = Dataset::Tpch.generate(HarnessConfig::quick().tpch_sf);
        let seeds = seed_templates(&db, 2025);
        assert!(seeds.len() >= 22, "{} seeds", seeds.len());
    }

    #[test]
    fn one_cell_runs_all_five_methods() {
        let config = HarnessConfig::quick();
        let db = Dataset::Tpch.generate(config.tpch_sf);
        let bench = workload::benchmark_by_name("uniform").unwrap().scaled(60, 5);
        let runs = run_all_methods(&db, &bench, CostType::Cardinality, &config);
        assert_eq!(runs.len(), 5);
        let names: Vec<&str> = runs.iter().map(|r| r.method.as_str()).collect();
        assert!(names.contains(&"SQLBarber"));
        assert!(names.contains(&"HillClimbing-order"));
        assert!(names.contains(&"LearnedSQLGen-priority"));
        // SQLBarber ends at the lowest distance.
        let barber = runs.iter().find(|r| r.method == "SQLBarber").unwrap();
        for run in &runs {
            assert!(
                barber.final_distance <= run.final_distance + 1e-9,
                "{} beat SQLBarber: {} < {}",
                run.method,
                run.final_distance,
                barber.final_distance
            );
        }
    }
}
