//! Business-intelligence workload: "no joins but complex scalar
//! expressions".
//!
//! The paper's Example 2.6 motivates SQLBarber with a constraint no
//! existing benchmark supports: BI frontends such as Tableau emit queries
//! with structurally simple relational trees but heavy scalar expressions.
//! This example generates exactly that workload through the declarative
//! interface and verifies the structural guarantees on every template.
//!
//! ```text
//! cargo run --release -p sqlbarber-examples --bin bi_workload
//! ```

use sqlbarber::{CostType, SqlBarber, SqlBarberConfig};
use sqlkit::TemplateSpec;
use workload::{CostIntervals, TargetDistribution};

fn main() {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::default());

    // Ten BI-style template specs, phrased the way a user would type them.
    let specs: Vec<TemplateSpec> = (1..=10)
        .map(|id| {
            TemplateSpec::new(id)
                .with_joins(0)
                .with_nl_instruction("the query must have no joins")
                .with_nl_instruction("project complex scalar expressions")
                .with_nl_instruction("use two predicate values")
        })
        .collect();

    // BI dashboards fire many cheap scans: skew the target low.
    let target = TargetDistribution::snowset_cost(CostIntervals::paper_default(10), 300);

    let mut barber = SqlBarber::new(&db, SqlBarberConfig::default());
    let report =
        barber.generate(&specs, &target, CostType::PlanCost).expect("generation succeeded");

    println!("{}", report.summary());
    println!("\nseed templates honored the BI constraints:");
    println!(
        "  alignment accuracy = {:.0}% across {} templates",
        report.alignment_accuracy * 100.0,
        report.n_seed_templates
    );

    // Show the scalar-expression flavour of the generated queries.
    println!("\nsample BI queries:");
    for query in report.queries.iter().take(3) {
        println!("  -- plan cost {:.0}\n  {}\n", query.cost, query.sql);
    }

    // Structural audit of the final workload: parse every query back and
    // confirm the no-join constraint held end to end for seed-template
    // queries (refined templates may restructure — the paper constrains
    // seed templates, Definition 2.9).
    let mut no_join = 0usize;
    for query in &report.queries {
        let parsed = sqlkit::parse_select(&query.sql).expect("generated SQL parses");
        if parsed.joins.is_empty() {
            no_join += 1;
        }
    }
    println!("workload audit: {}/{} queries are join-free", no_join, report.queries.len());
}
