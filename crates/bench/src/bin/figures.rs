//! `figures` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p sqlbarber-bench --bin figures -- <target> [--quick] [--threads N]
//!                                                         [--bo-rounds-concurrency K]
//!                                                         [--amplify N] [--amplify-shards K] [--amplify-out PATH]
//!                                                         [--transport-faults R] [--retry-budget N] [--no-circuit-breaker]
//!                                                         [--checkpoint-dir DIR] [--checkpoint-every K] [--resume DIR]
//!   targets: table1 | fig5 | fig6 | fig7 | fig8a | fig8b | table2 | all
//! ```
//!
//! Each target prints the same rows/series the paper reports and writes a
//! JSON artifact under `results/`. `--quick` (or `SQLBARBER_QUICK=1`)
//! shrinks database scale and baseline budgets for smoke runs.
//! `--threads N` sets the cost-oracle worker count (0 = all cores);
//! results are bit-identical at any thread count. Any other flag is a
//! usage error (exit status 2). `--transport-faults R` injects
//! LLM transport faults at rate R (deterministic per seed; SQLBarber's
//! resilience layer absorbs them — the baselines never call the LLM);
//! `--retry-budget N` and `--no-circuit-breaker` tune that layer.
//! `--amplify N` appends a post-convergence amplification stage to every
//! SQLBarber run (`--amplify-shards K` tunes speculation width without
//! changing output; `--amplify-out PATH` streams the amplified workload
//! to a file instead of a sink — runs sharing the path overwrite it).
//! `--checkpoint-dir DIR` makes every SQLBarber run write durable
//! snapshots (`--checkpoint-every K` sets the mid-search cadence), and
//! `--resume DIR` restarts a killed run from its newest snapshot —
//! byte-identical to the uninterrupted run. Both apply only to the
//! single-run SQLBarber legs; the fig8b seed sweep never checkpoints.

use serde::Serialize;
use sqlbarber_bench::{
    load_db, run_all_methods, run_sqlbarber, write_json, HarnessConfig, MethodRun,
};
use sqlbarber::template_gen::{generate_templates, TemplateGenConfig};
use sqlbarber::{CostType, SqlBarber, SqlBarberConfig};
use workload::redset::redset_template_specs;
use workload::{all_benchmarks, benchmark_by_name, CostType as BenchCostType};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if quick {
        std::env::set_var("SQLBARBER_QUICK", "1");
    }
    let mut config = HarnessConfig::from_env();
    let mut positional: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                if let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    config.threads = n;
                }
                i += 1; // skip the value
            }
            "--quick" => {} // handled above
            "--bo-rounds-concurrency" => {
                if let Some(k) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    config.bo_rounds_concurrency = k;
                }
                i += 1;
            }
            "--transport-faults" => {
                if let Some(r) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    config.transport_fault_rate = r;
                }
                i += 1;
            }
            "--retry-budget" => {
                if let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    config.retry_budget = n;
                }
                i += 1;
            }
            "--no-circuit-breaker" => config.breaker_enabled = false,
            "--amplify" => {
                if let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    config.amplify = n;
                }
                i += 1;
            }
            "--amplify-shards" => {
                if let Some(k) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    config.amplify_shards = k;
                }
                i += 1;
            }
            "--amplify-out" => {
                if let Some(path) = args.get(i + 1) {
                    config.amplify_out =
                        Some(Box::leak(path.clone().into_boxed_str()));
                }
                i += 1;
            }
            "--checkpoint-dir" => {
                if let Some(dir) = args.get(i + 1) {
                    config.checkpoint_dir =
                        Some(Box::leak(dir.clone().into_boxed_str()));
                }
                i += 1;
            }
            "--checkpoint-every" => {
                if let Some(k) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    config.checkpoint_every = k;
                }
                i += 1;
            }
            "--resume" => {
                if let Some(dir) = args.get(i + 1) {
                    config.resume = Some(Box::leak(dir.clone().into_boxed_str()));
                }
                i += 1;
            }
            arg if !arg.starts_with("--") => positional.push(arg),
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let target = positional.first().copied().unwrap_or("all");

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
            eprintln!("unknown target {other}; use table1|fig5|fig6|fig7|fig8a|fig8b|table2|all");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------- Table 1

fn table1() {
    println!("\n=== Table 1: Overview of Benchmarks ===");
    println!(
        "{:<11} {:<24} {:<15} {:>8} {:>10}",
        "Source", "Distribution", "Cost Type", "#Queries", "#Intervals"
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
        println!(
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
    println!(
        "\n=== Figure {}: Performance Comparison ({}) ===",
        if cardinality { 5 } else { 6 },
        if cardinality { "Cardinality" } else { "Execution Plan Cost" }
    );
    let mut all_runs: Vec<MethodRun> = Vec::new();
    for bench in all_benchmarks() {
        let applicable =
            bench.cost_type == metric || bench.cost_type == BenchCostType::Both;
        if !applicable {
            continue;
        }
        let cost_type = CostType::from_benchmark(bench.cost_type, cardinality);
        for db_name in ["tpch", "imdb"] {
            let db = load_db(db_name, config);
            eprintln!("[{fig}] {} on {db_name}…", bench.name);
            let runs = run_all_methods(&db, &bench, cost_type, config);
            print_cell(bench.name, db_name, &runs);
            all_runs.extend(runs);
        }
    }
    write_json(fig, &all_runs);
}

fn print_cell(bench: &str, db: &str, runs: &[MethodRun]) {
    println!("\n--- {bench} / {db} ---");
    println!(
        "{:<26} {:>12} {:>16} {:>9}",
        "method", "E2E time (s)", "final distance", "queries"
    );
    for run in runs {
        println!(
            "{:<26} {:>12.2} {:>16.1} {:>9}",
            run.method, run.e2e_seconds, run.final_distance, run.queries
        );
    }
}

// -------------------------------------------------------------- Figure 7

fn fig7(config: &HarnessConfig) {
    println!("\n=== Figure 7: Scalability Study (IMDB, Execution Plan Cost) ===");
    let db = load_db("imdb", config);
    let base = benchmark_by_name("Redset_Cost_Hard").expect("benchmark exists");
    let mut all_runs: Vec<MethodRun> = Vec::new();

    // (a)/(b): vary the number of queries, 10 intervals.
    println!("\n-- varying #queries (10 intervals) --");
    let query_counts: &[usize] =
        if config.baseline_evals_per_interval < 5_000 { &[50, 500] } else { &[50, 500, 5_000] };
    for &n in query_counts {
        let bench = base.scaled(n, 10);
        eprintln!("[fig7] {n} queries…");
        let mut runs = run_all_methods(&db, &bench, CostType::PlanCost, config);
        for run in &mut runs {
            run.benchmark = format!("Redset_Cost_Hard/queries={n}");
        }
        print_cell(&format!("queries={n}"), "imdb", &runs);
        all_runs.extend(runs);
    }

    // (c)/(d): vary the number of intervals, 1000 queries.
    println!("\n-- varying #intervals (1000 queries) --");
    let interval_counts: &[usize] = if config.baseline_evals_per_interval < 5_000 {
        &[5, 10]
    } else {
        &[5, 10, 15, 20, 25]
    };
    for &k in interval_counts {
        let bench = base.scaled(1_000, k);
        eprintln!("[fig7] {k} intervals…");
        let mut runs = run_all_methods(&db, &bench, CostType::PlanCost, config);
        for run in &mut runs {
            run.benchmark = format!("Redset_Cost_Hard/intervals={k}");
        }
        print_cell(&format!("intervals={k}"), "imdb", &runs);
        all_runs.extend(runs);
    }
    write_json("fig7", &all_runs);
}

// ------------------------------------------------------------ Figure 8a

fn fig8a(config: &HarnessConfig) {
    println!("\n=== Figure 8(a): Rewrite Analysis (IMDB, 24 Redset templates) ===");
    let db = load_db("imdb", config);
    let specs = redset_template_specs(workload::redset::DEFAULT_SEED);
    let mut llm = llm::SyntheticLlm::new(llm::FaultConfig::default(), config.seed);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(config.seed);
    let out = generate_templates(&db, &mut llm, &specs, TemplateGenConfig::default(), &mut rng);
    println!(
        "{:<18} {:>14} {:>16}",
        "rewrite attempt", "spec-correct", "syntax-correct"
    );
    for (attempt, (spec, syntax)) in out
        .stats
        .spec_correct
        .iter()
        .zip(&out.stats.syntax_correct)
        .enumerate()
    {
        println!("{attempt:<18} {spec:>14} {syntax:>16}");
    }
    println!("total templates: {}", out.stats.total);
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
    println!("\n=== Figure 8(b): Convergence Analysis (IMDB, Redset_Cost) ===");
    let db = load_db("imdb", config);
    let mut runs = Vec::new();
    for bench_name in ["Redset_Cost_Medium", "Redset_Cost_Hard"] {
        let bench = benchmark_by_name(bench_name).expect("benchmark exists");
        let target = bench.target();
        let base_config = config.sqlbarber_config();
        let variants: [(&str, SqlBarberConfig); 3] = [
            ("SQLBarber", base_config.clone()),
            ("No-Refine-Prune", base_config.clone().without_refinement()),
            ("Naive-Search", base_config.with_random_search()),
        ];
        println!("\n--- {bench_name} (mean of 3 seeds) ---");
        println!(
            "{:<18} {:>12} {:>16} {:>9} {:>12}",
            "variant", "E2E time (s)", "final distance", "queries", "oracle calls"
        );
        for (name, barber_config) in variants {
            let mut seed_runs = Vec::new();
            for seed_offset in 0..3u64 {
                eprintln!("[fig8b] {bench_name}: {name} (seed +{seed_offset})…");
                let mut cfg = barber_config.clone();
                cfg.seed = config.seed + seed_offset;
                // 18 variant×seed runs would trample one snapshot dir;
                // checkpointing only applies to the single-run targets.
                cfg.checkpoint = None;
                let mut run =
                    run_sqlbarber(&db, &bench, &target, CostType::PlanCost, cfg, None);
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
            println!(
                "{:<18} {:>12.2} {:>16.1} {:>9} {:>12}",
                mean.method, mean.e2e_seconds, mean.final_distance, mean.queries, mean.evaluations
            );
            runs.push(mean);
        }
    }
    write_json("fig8b", &runs);
}

// -------------------------------------------------------------- Table 2

fn table2(config: &HarnessConfig) {
    println!("\n=== Table 2: SQLBarber Token Usage and Cost on IMDB ===");
    let db = load_db("imdb", config);
    println!(
        "{:<22} {:>11} {:>16} {:>11}",
        "Benchmark", "Tokens (K)", "#SQL Templates", "Cost (USD)"
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
        let mut barber = SqlBarber::new(&db, config.sqlbarber_config());
        eprintln!("[table2] {name}…");
        let report = barber
            .generate(&specs, &target, CostType::PlanCost)
            .expect("generation succeeded");
        if !report.resilience.is_quiet() || !report.degradation.is_quiet() {
            println!("{}", report.resilience_summary());
        }
        if let Some(line) = report.amplify_summary() {
            println!("{line}");
        }
        let row = Row {
            benchmark: name.into(),
            tokens_k: report.llm_usage.total_tokens() / 1000,
            n_templates: report.total_templates(),
            cost_usd: (report.llm_usage.cost_usd() * 100.0).round() / 100.0,
        };
        println!(
            "{:<22} {:>11} {:>16} {:>11.2}",
            row.benchmark, row.tokens_k, row.n_templates, row.cost_usd
        );
        rows.push(row);
    }
    write_json("table2", &rows);
}
