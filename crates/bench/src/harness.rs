//! Shared experiment harness: database loading, seed-template preparation,
//! and one-call runners for SQLBarber and both baselines.

use baselines::{
    mutate_template_pool, BaselineConfig, HillClimbing, LearnedSqlGen, Scheduling,
};
use llm::SyntheticLlm;
use minidb::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use sqlbarber::oracle::CostOracle;
use sqlbarber::template_gen::{generate_templates, TemplateGenConfig};
use sqlbarber::{CostType, SqlBarber, SqlBarberConfig};
use sqlkit::Template;
use workload::redset::redset_template_specs;
use workload::{Benchmark, TargetDistribution};

/// Harness-wide knobs. `quick()` shrinks everything for smoke runs
/// (`SQLBARBER_QUICK=1` or the `--quick` flag).
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Cost-oracle worker threads (`0` = all available cores).
    pub threads: usize,
    /// LLM transport fault-injection rate in [0, 1] (`--transport-faults`;
    /// 0 = healthy transport). Only SQLBarber talks to the LLM, so the
    /// baselines are unaffected.
    pub transport_fault_rate: f64,
    /// Per-run retry budget for the resilience layer (`--retry-budget`).
    pub retry_budget: u64,
    /// Circuit breaker toggle (`--no-circuit-breaker` clears it).
    pub breaker_enabled: bool,
    /// Pin the deficit scheduler's per-round task width
    /// (`--bo-rounds-concurrency`; 0 lets the deficit profile choose).
    /// Output is bit-identical either way.
    pub bo_rounds_concurrency: usize,
    /// Post-convergence amplification size (`--amplify N`; 0 disables the
    /// stage). The harness streams to a sink by default — `figures`
    /// attaches a file path when `--amplify-out` is given.
    pub amplify: u64,
    /// Amplification emission shards per wave (`--amplify-shards`; 0 =
    /// thread count). Pure speculation width — never changes output.
    pub amplify_shards: usize,
    /// Amplified workload output path (`--amplify-out`; `None` streams to
    /// a sink and reports stats only). A `&'static str` keeps the config
    /// `Copy` — `figures` leaks the parsed argument once at startup.
    pub amplify_out: Option<&'static str>,
    /// Snapshot directory for crash-safe checkpointing
    /// (`--checkpoint-dir`; `None` disables it). Same leaked-`'static`
    /// idiom as `amplify_out`.
    pub checkpoint_dir: Option<&'static str>,
    /// Mid-search snapshot cadence in scheduler rounds
    /// (`--checkpoint-every`; phase boundaries are always checkpointed).
    pub checkpoint_every: u64,
    /// Resume the SQLBarber run from the newest snapshot in this
    /// directory instead of starting fresh (`--resume`). Baselines are
    /// unaffected.
    pub resume: Option<&'static str>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        // Scales are chosen so that the paper's working cost window
        // [0, 10k] is a *thin slice* of the reachable cost space — on the
        // authors' TPC-H SF10 server most join plans cost far beyond 10k,
        // and that overflow regime is what makes undirected search starve
        // (Figures 5–8). Single-table scans land near the top of the
        // window; joins overflow; selective predicates span the low end.
        HarnessConfig {
            tpch_sf: 0.05,
            imdb_scale: 4.0,
            baseline_evals_per_interval: 12_000,
            pool_size: 2_000,
            seed: 2025,
            threads: 0,
            transport_fault_rate: 0.0,
            retry_budget: llm::RetryPolicy::default().retry_budget,
            breaker_enabled: true,
            bo_rounds_concurrency: 0,
            amplify: 0,
            amplify_shards: 0,
            amplify_out: None,
            checkpoint_dir: None,
            checkpoint_every: 8,
            resume: None,
        }
    }
}

impl HarnessConfig {
    /// Smoke-test configuration (used by `cargo bench` and `--quick`).
    pub fn quick() -> HarnessConfig {
        HarnessConfig {
            tpch_sf: 0.002,
            imdb_scale: 0.1,
            baseline_evals_per_interval: 1_200,
            pool_size: 200,
            seed: 2025,
            threads: 0,
            transport_fault_rate: 0.0,
            retry_budget: llm::RetryPolicy::default().retry_budget,
            breaker_enabled: true,
            bo_rounds_concurrency: 0,
            amplify: 0,
            amplify_shards: 0,
            amplify_out: None,
            checkpoint_dir: None,
            checkpoint_every: 8,
            resume: None,
        }
    }

    /// Resolve from the environment (`SQLBARBER_QUICK=1` selects quick).
    pub fn from_env() -> HarnessConfig {
        if std::env::var("SQLBARBER_QUICK").is_ok_and(|v| v == "1") {
            HarnessConfig::quick()
        } else {
            HarnessConfig::default()
        }
    }

    /// The SQLBarber pipeline configuration this harness implies,
    /// including the transport-fault and resilience knobs.
    pub fn sqlbarber_config(&self) -> SqlBarberConfig {
        let mut config = SqlBarberConfig {
            seed: self.seed,
            threads: self.threads,
            transport: llm::TransportFaultConfig::uniform(self.transport_fault_rate),
            retry: llm::RetryPolicy {
                retry_budget: self.retry_budget,
                breaker_enabled: self.breaker_enabled,
                ..Default::default()
            },
            ..Default::default()
        };
        config.search.rounds_concurrency = self.bo_rounds_concurrency;
        if self.amplify > 0 {
            config.amplify = Some(sqlbarber::AmplifyConfig {
                n: self.amplify,
                shards: self.amplify_shards,
                batch: 0,
                out: self.amplify_out.map(std::path::PathBuf::from),
            });
        }
        // A resumed run keeps checkpointing into the directory it came
        // from unless a different one is given explicitly.
        if let Some(dir) = self.checkpoint_dir.or(self.resume) {
            config.checkpoint = Some(sqlbarber::CheckpointConfig {
                dir: std::path::PathBuf::from(dir),
                every: self.checkpoint_every,
            });
        }
        config
    }
}

/// Load one of the paper's two databases by name (`tpch` / `imdb`).
pub fn load_db(name: &str, config: &HarnessConfig) -> Database {
    match name {
        "tpch" => minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig {
            scale_factor: config.tpch_sf,
            seed: 42,
        }),
        "imdb" => minidb::datagen::imdb::generate(minidb::datagen::imdb::ImdbConfig {
            scale: config.imdb_scale,
            seed: 1337,
        }),
        other => panic!("unknown database {other}"),
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

/// Run SQLBarber end-to-end on a benchmark. With `resume`, the run
/// restarts from the newest snapshot in that directory instead of
/// starting fresh (the config must match the checkpointed run's).
pub fn run_sqlbarber(
    db: &Database,
    bench: &Benchmark,
    target: &TargetDistribution,
    cost_type: CostType,
    config: SqlBarberConfig,
    resume: Option<&str>,
) -> MethodRun {
    let specs = redset_template_specs(workload::redset::DEFAULT_SEED);
    let mut barber = SqlBarber::new(db, config);
    let report = match resume {
        Some(dir) => barber
            .resume(std::path::Path::new(dir), target, cost_type)
            .unwrap_or_else(|e| panic!("SQLBarber resume failed: {e}")),
        None => barber
            .generate(&specs, target, cost_type)
            .expect("SQLBarber produced no templates"),
    };
    if !report.resilience.is_quiet() || !report.degradation.is_quiet() {
        eprintln!("{}", report.resilience_summary());
    }
    if let Some(line) = report.amplify_summary() {
        eprintln!("{line}");
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
    let oracle = CostOracle::new(db, harness.threads);
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
        runs.push(run_baseline(
            kind, scheduling, db, bench, &target, cost_type, &seeds, harness,
        ));
    }
    runs.push(run_sqlbarber(
        db,
        bench,
        &target,
        cost_type,
        harness.sqlbarber_config(),
        harness.resume,
    ));
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

    #[test]
    fn seed_templates_cover_the_batch() {
        let db = load_db("tpch", &HarnessConfig::quick());
        let seeds = seed_templates(&db, 2025);
        assert!(seeds.len() >= 22, "{} seeds", seeds.len());
    }

    #[test]
    fn one_cell_runs_all_five_methods() {
        let config = HarnessConfig::quick();
        let db = load_db("tpch", &config);
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
