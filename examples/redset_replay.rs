//! Redset replay: regenerate a production-shaped workload from published
//! statistics.
//!
//! This is the paper's headline scenario (§3): real query text is private,
//! but Amazon Redshift published per-template profiles
//! (`num_tables_accessed`, `num_joins`, `num_aggregations`) and runtime
//! statistics. SQLBarber turns those into a synthetic workload whose
//! structure matches the template profiles and whose cost distribution
//! matches the published runtime histogram.
//!
//! ```text
//! cargo run --release -p sqlbarber-examples --bin redset_replay
//! ```

use sqlbarber::{CostType, SqlBarber, SqlBarberConfig};
use workload::redset::{redset_template_specs, DEFAULT_SEED};

fn main() {
    // The paper uses IMDB as the substrate database for this workload.
    let db = minidb::datagen::imdb::generate(minidb::datagen::imdb::ImdbConfig::default());

    // 24 template specifications with Redset annotations + NL instructions.
    let specs = redset_template_specs(DEFAULT_SEED);
    println!("replaying {} Redset template profiles:", specs.len());
    for spec in specs.iter().take(5) {
        println!(
            "  template {:>2}: tables={} joins={} aggs={} instructions={:?}",
            spec.id,
            spec.num_tables.unwrap(),
            spec.num_joins.unwrap(),
            spec.num_aggregations.unwrap(),
            spec.instructions
        );
    }
    println!("  …");

    // The Redset execution-time distribution (Table 1, Redset_Cost_Medium).
    let bench = workload::benchmark_by_name("Redset_Cost_Medium").expect("registered");
    let target = bench.target();

    let mut barber = SqlBarber::new(&db, SqlBarberConfig::default());
    let report =
        barber.generate(&specs, &target, CostType::PlanCost).expect("generation succeeded");

    println!("\n{}", report.summary());
    println!("\nrewrite loop (Algorithm 1) convergence:");
    for (attempt, (s, x)) in report
        .rewrite_stats
        .spec_correct
        .iter()
        .zip(&report.rewrite_stats.syntax_correct)
        .enumerate()
    {
        println!("  attempt {attempt}: {s}/24 spec-correct, {x}/24 executable");
    }

    println!("\ncost histogram (■ = 20 queries):");
    for (j, (t, d)) in report.target_counts.iter().zip(&report.distribution).enumerate() {
        let bar = "■".repeat((*d / 20.0).round() as usize);
        println!("  {:<12} target {:>4.0} got {:>4.0} {bar}", target.intervals.label(j), t, d);
    }
}
