//! Quickstart: generate a small, cost-conforming SQL workload in ~a second.
//!
//! Demonstrates the end-to-end SQLBarber flow of the paper's Figure 2:
//! natural-language template specifications go in, a workload whose query
//! costs match a target distribution comes out.
//!
//! ```text
//! cargo run --release -p sqlbarber-examples --bin quickstart
//! ```

use sqlbarber::{CostType, SqlBarber, SqlBarberConfig};
use sqlkit::TemplateSpec;
use workload::{CostIntervals, TargetDistribution};

fn main() {
    // 1. A database. SQLBarber only needs `EXPLAIN`-style cost estimates
    //    and schema metadata, both provided by the bundled `minidb` engine
    //    with its synthetic TPC-H generator.
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::default());
    println!("database: {} ({} tables)", db.name(), db.table_names().len());

    // 2. Template specifications (Definition 2.5): numeric constraints
    //    plus natural-language instructions — no hand-written SQL.
    let specs = vec![
        TemplateSpec::new(1)
            .with_tables(2)
            .with_joins(1)
            .with_aggregations(1)
            .with_nl_instruction("use the GROUP BY operator")
            .with_nl_instruction("have two predicate values"),
        TemplateSpec::new(2)
            .with_tables(1)
            .with_joins(0)
            .with_nl_instruction("include a nested subquery"),
        TemplateSpec::new(3).with_tables(3).with_joins(2).with_aggregations(2),
    ];

    // 3. A target cost distribution (Definition 2.12): 200 queries,
    //    uniformly spread over estimated cardinalities in [0, 10k].
    let target = TargetDistribution::uniform(CostIntervals::paper_default(10), 200);

    // 4. Generate.
    let mut barber = SqlBarber::new(&db, SqlBarberConfig::default());
    let report =
        barber.generate(&specs, &target, CostType::Cardinality).expect("generation succeeded");

    println!("\n{}", report.summary());
    println!("\ntarget vs achieved per interval:");
    for (j, (t, d)) in report.target_counts.iter().zip(&report.distribution).enumerate() {
        println!(
            "  [{:>5.0}, {:>5.0})  target {:>3}  got {:>3}",
            j as f64 * 1000.0,
            (j + 1) as f64 * 1000.0,
            t,
            d
        );
    }

    println!("\nthree sample queries:");
    let stride = (report.queries.len() / 3).max(1);
    for query in report.queries.iter().step_by(stride).take(3) {
        println!("  -- estimated cardinality {:.0}\n  {}\n", query.cost, query.sql);
    }
    println!("template alignment accuracy: {:.0}%", report.alignment_accuracy * 100.0);
    println!(
        "LLM usage: {}K tokens (${:.2})",
        report.llm_usage.total_tokens() / 1000,
        report.llm_usage.cost_usd()
    );
}
