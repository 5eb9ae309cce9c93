//! `figures` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p sqlbarber-bench --bin figures -- <target> [--quick] [--threads N]
//!                                                         [--bo-rounds-concurrency K]
//!                                                         [--amplify N] [--amplify-shards K] [--amplify-out PATH]
//!                                                         [--transport-faults R] [--retry-budget N] [--no-circuit-breaker]
//!   targets: table1 | fig5 | fig6 | fig7 | fig8a | fig8b | table2 | all
//! ```
//!
//! Each target prints the same rows/series the paper reports and writes a
//! JSON artifact under `results/`. `--quick` (or `SQLBARBER_QUICK=1`)
//! shrinks database scale and baseline budgets for smoke runs. The other
//! flags configure every SQLBarber leg and mean what they mean to
//! `sqlbarber generate`, through the same parser and checks
//! (`sqlbarber::cli`). `--threads N` sets the cost-oracle worker count of
//! every method (0 = all cores, at most 256); results are bit-identical at
//! any thread count. `--transport-faults R` (R in [0, 1]) injects LLM
//! transport faults, deterministic per seed; SQLBarber's resilience layer
//! absorbs them, and the baselines never call the LLM. `--amplify N`
//! appends a post-convergence amplification stage to every SQLBarber
//! run; `--amplify-out PATH` streams it to a file instead of a sink, and
//! runs sharing the path overwrite it.
//!
//! Any other flag, a missing flag value, or a value that does not parse
//! or is out of range is a usage error (exit status 2), raised before any
//! database is built. That includes `sqlbarber generate`'s checkpoint
//! flags (`--checkpoint-dir`, `--checkpoint-every`, `--resume`): a target
//! runs many SQLBarber legs, and one snapshot directory cannot hold them.

use serde::Serialize;
use sqlbarber::cli::Dataset;
use sqlbarber::template_gen::{generate_templates, TemplateGenConfig};
use sqlbarber::{errln, outln, CostType, SqlBarber, SqlBarberConfig};
use sqlbarber_bench::{run_all_methods, run_sqlbarber, write_json, HarnessConfig, MethodRun};
use workload::redset::redset_template_specs;
use workload::{all_benchmarks, benchmark_by_name, Benchmark, CostType as BenchCostType};

fn main() {
    let args = sqlbarber::cli::args();
    let (config, targets) = match args.and_then(|args| HarnessConfig::from_args(&args)) {
        Ok(parsed) => parsed,
        Err(e) => {
            errln!("{e}");
            std::process::exit(2);
        }
    };
    let target = targets.first().map_or("all", String::as_str);

    match target {
        "table1" => table1(),
        "fig5" => fig5_or_6(&config, true),
        "fig6" => fig5_or_6(&config, false),
        "fig7" => fig7(&config),
        "fig8a" => fig8a(&config),
        "fig8b" => fig8b(&config),
        "table2" => table2(&config),
        "all" => {
            table1();
            fig8a(&config);
            fig8b(&config);
            table2(&config);
            fig7(&config);
            fig5_or_6(&config, true);
            fig5_or_6(&config, false);
        }
        other => {
            errln!("unknown target {other}; use table1|fig5|fig6|fig7|fig8a|fig8b|table2|all");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------- Table 1

fn table1() {
    outln!("\n=== Table 1: Overview of Benchmarks ===");
    outln!(
        "{:<11} {:<24} {:<15} {:>8} {:>10}",
        "Source",
        "Distribution",
        "Cost Type",
        "#Queries",
        "#Intervals"
    );
    #[derive(Serialize)]
    struct Row {
        source: String,
        distribution: String,
        cost_type: String,
        n_queries: usize,
        n_intervals: usize,
    }
    let mut rows = Vec::new();
    for bench in all_benchmarks() {
        outln!(
            "{:<11} {:<24} {:<15} {:>8} {:>10}",
            bench.source.label(),
            bench.name,
            bench.cost_type.label(),
            bench.n_queries,
            bench.n_intervals
        );
        rows.push(Row {
            source: bench.source.label().into(),
            distribution: bench.name.into(),
            cost_type: bench.cost_type.label().into(),
            n_queries: bench.n_queries,
            n_intervals: bench.n_intervals,
        });
    }
    write_json("table1", &rows);
}

// ----------------------------------------------------------- Figures 5/6

fn fig5_or_6(config: &HarnessConfig, cardinality: bool) {
    let (fig, metric) = if cardinality {
        ("fig5", BenchCostType::Cardinality)
    } else {
        ("fig6", BenchCostType::PlanCost)
    };
    outln!(
        "\n=== Figure {}: Performance Comparison ({}) ===",
        if cardinality { 5 } else { 6 },
        if cardinality { "Cardinality" } else { "Execution Plan Cost" }
    );
    let mut all_runs: Vec<MethodRun> = Vec::new();
    for bench in all_benchmarks() {
        let applicable = bench.cost_type == metric || bench.cost_type == BenchCostType::Both;
        if !applicable {
            continue;
        }
        let cost_type = CostType::from_benchmark(bench.cost_type, cardinality);
        for (dataset, scale) in
            [(Dataset::Tpch, config.tpch_sf), (Dataset::Imdb, config.imdb_scale)]
        {
            let (db, db_name) = (dataset.generate(scale), dataset.name());
            errln!("[{fig}] {} on {db_name}…", bench.name);
            let runs = run_all_methods(&db, &bench, cost_type, config);
            print_cell(bench.name, db_name, &runs);
            all_runs.extend(runs);
        }
    }
    write_json(fig, &all_runs);
}

fn print_cell(bench: &str, db: &str, runs: &[MethodRun]) {
    outln!("\n--- {bench} / {db} ---");
    outln!("{:<26} {:>12} {:>16} {:>9}", "method", "E2E time (s)", "final distance", "queries");
    for run in runs {
        outln!(
            "{:<26} {:>12.2} {:>16.1} {:>9}",
            run.method,
            run.e2e_seconds,
            run.final_distance,
            run.queries
        );
    }
}

// -------------------------------------------------------------- Figure 7

fn fig7(config: &HarnessConfig) {
    outln!("\n=== Figure 7: Scalability Study (IMDB, Execution Plan Cost) ===");
    let db = Dataset::Imdb.generate(config.imdb_scale);
    let base = benchmark_by_name("Redset_Cost_Hard").expect("benchmark exists");
    let mut all_runs: Vec<MethodRun> = Vec::new();

    let mut run_cell = |label: String, bench: Benchmark| {
        errln!("[fig7] {label}…");
        let mut runs = run_all_methods(&db, &bench, CostType::PlanCost, config);
        for run in &mut runs {
            run.benchmark = format!("Redset_Cost_Hard/{label}");
        }
        print_cell(&label, "imdb", &runs);
        all_runs.extend(runs);
    };
    let full = config.baseline_evals_per_interval >= 5_000;

    // (a)/(b): vary the number of queries, 10 intervals.
    outln!("\n-- varying #queries (10 intervals) --");
    for &n in if full { &[50, 500, 5_000][..] } else { &[50, 500] } {
        run_cell(format!("queries={n}"), base.scaled(n, 10));
    }

    // (c)/(d): vary the number of intervals, 1000 queries.
    outln!("\n-- varying #intervals (1000 queries) --");
    for &k in if full { &[5, 10, 15, 20, 25][..] } else { &[5, 10] } {
        run_cell(format!("intervals={k}"), base.scaled(1_000, k));
    }
    write_json("fig7", &all_runs);
}

// ------------------------------------------------------------ Figure 8a

fn fig8a(config: &HarnessConfig) {
    outln!("\n=== Figure 8(a): Rewrite Analysis (IMDB, 24 Redset templates) ===");
    let db = Dataset::Imdb.generate(config.imdb_scale);
    let specs = redset_template_specs(workload::redset::DEFAULT_SEED);
    let mut llm = llm::SyntheticLlm::new(llm::FaultConfig::default(), config.seed);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(config.seed);
    let out = generate_templates(&db, &mut llm, &specs, TemplateGenConfig::default(), &mut rng);
    outln!("{:<18} {:>14} {:>16}", "rewrite attempt", "spec-correct", "syntax-correct");
    for (attempt, (spec, syntax)) in
        out.stats.spec_correct.iter().zip(&out.stats.syntax_correct).enumerate()
    {
        outln!("{attempt:<18} {spec:>14} {syntax:>16}");
    }
    outln!("total templates: {}", out.stats.total);
    #[derive(Serialize)]
    struct Fig8a {
        spec_correct: Vec<usize>,
        syntax_correct: Vec<usize>,
        total: usize,
    }
    write_json(
        "fig8a",
        &Fig8a {
            spec_correct: out.stats.spec_correct,
            syntax_correct: out.stats.syntax_correct,
            total: out.stats.total,
        },
    );
}

// ------------------------------------------------------------ Figure 8b

fn fig8b(config: &HarnessConfig) {
    outln!("\n=== Figure 8(b): Convergence Analysis (IMDB, Redset_Cost) ===");
    let db = Dataset::Imdb.generate(config.imdb_scale);
    let mut runs = Vec::new();
    for bench_name in ["Redset_Cost_Medium", "Redset_Cost_Hard"] {
        let bench = benchmark_by_name(bench_name).expect("benchmark exists");
        let target = bench.target();
        let base_config = config.sqlbarber.clone();
        let variants: [(&str, SqlBarberConfig); 3] = [
            ("SQLBarber", base_config.clone()),
            ("No-Refine-Prune", base_config.clone().without_refinement()),
            ("Naive-Search", base_config.with_random_search()),
        ];
        outln!("\n--- {bench_name} (mean of 3 seeds) ---");
        outln!(
            "{:<18} {:>12} {:>16} {:>9} {:>12}",
            "variant",
            "E2E time (s)",
            "final distance",
            "queries",
            "oracle calls"
        );
        for (name, barber_config) in variants {
            let mut seed_runs = Vec::new();
            for seed_offset in 0..3u64 {
                errln!("[fig8b] {bench_name}: {name} (seed +{seed_offset})…");
                let mut cfg = barber_config.clone();
                cfg.seed = config.seed + seed_offset;
                let mut run = run_sqlbarber(&db, &bench, &target, CostType::PlanCost, cfg);
                run.method = name.to_string();
                seed_runs.push(run);
            }
            let n = seed_runs.len() as f64;
            let mut mean = seed_runs.swap_remove(0);
            for other in &seed_runs {
                mean.e2e_seconds += other.e2e_seconds;
                mean.final_distance += other.final_distance;
                mean.queries += other.queries;
                mean.evaluations += other.evaluations;
            }
            mean.e2e_seconds /= n;
            mean.final_distance /= n;
            mean.queries = (mean.queries as f64 / n) as usize;
            mean.evaluations = (mean.evaluations as f64 / n) as usize;
            outln!(
                "{:<18} {:>12.2} {:>16.1} {:>9} {:>12}",
                mean.method,
                mean.e2e_seconds,
                mean.final_distance,
                mean.queries,
                mean.evaluations
            );
            runs.push(mean);
        }
    }
    write_json("fig8b", &runs);
}

// -------------------------------------------------------------- Table 2

fn table2(config: &HarnessConfig) {
    outln!("\n=== Table 2: SQLBarber Token Usage and Cost on IMDB ===");
    let db = Dataset::Imdb.generate(config.imdb_scale);
    outln!(
        "{:<22} {:>11} {:>16} {:>11}",
        "Benchmark",
        "Tokens (K)",
        "#SQL Templates",
        "Cost (USD)"
    );
    #[derive(Serialize)]
    struct Row {
        benchmark: String,
        tokens_k: u64,
        n_templates: usize,
        cost_usd: f64,
    }
    let mut rows = Vec::new();
    for name in ["uniform", "Redset_Cost_Medium", "Redset_Cost_Hard"] {
        let bench = benchmark_by_name(name).expect("benchmark exists");
        let target = bench.target();
        let specs = redset_template_specs(workload::redset::DEFAULT_SEED);
        let mut barber = SqlBarber::new(&db, config.sqlbarber.clone());
        errln!("[table2] {name}…");
        let report =
            barber.generate(&specs, &target, CostType::PlanCost).expect("generation succeeded");
        if !report.resilience.is_quiet() || !report.degradation.is_quiet() {
            outln!("{}", report.resilience_summary());
        }
        if let Some(line) = report.amplify_summary() {
            outln!("{line}");
        }
        let row = Row {
            benchmark: name.into(),
            tokens_k: report.llm_usage.total_tokens() / 1000,
            n_templates: report.total_templates(),
            cost_usd: (report.llm_usage.cost_usd() * 100.0).round() / 100.0,
        };
        outln!(
            "{:<22} {:>11} {:>16} {:>11.2}",
            row.benchmark,
            row.tokens_k,
            row.n_templates,
            row.cost_usd
        );
        rows.push(row);
    }
    write_json("table2", &rows);
}
