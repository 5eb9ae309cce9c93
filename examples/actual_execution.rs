//! Generation driven by *actual execution*, not optimizer estimates.
//!
//! Definition 2.10: "These cost metrics can be obtained by estimations
//! from the query optimizer or by actual execution." The paper's
//! evaluation uses `EXPLAIN` estimates; this example drives the whole
//! pipeline with measured wall-clock execution time instead — a noisy,
//! non-deterministic oracle, which exercises the robustness of profiling,
//! refinement, and the BO search.
//!
//! ```text
//! cargo run --release -p sqlbarber-examples --bin actual_execution
//! ```

use sqlbarber::{CostType, SqlBarber, SqlBarberConfig};
use workload::{CostIntervals, TargetDistribution};

fn main() {
    // Tiny scale: every profiling sample and search step executes for real.
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());

    let templates = vec![
        sqlkit::parse_template(
            "SELECT l.l_orderkey, l.l_extendedprice FROM lineitem AS l \
             WHERE l.l_extendedprice > {p_1}",
        )
        .unwrap(),
        sqlkit::parse_template(
            "SELECT o.o_orderpriority, COUNT(*) AS n FROM orders AS o \
             JOIN lineitem AS l ON l.l_orderkey = o.o_orderkey \
             WHERE l.l_quantity BETWEEN {p_1} AND {p_2} GROUP BY o.o_orderpriority",
        )
        .unwrap(),
    ];

    // Target: execution times (µs) spread over [0, 3 ms].
    let target = TargetDistribution::uniform(CostIntervals::new(0.0, 3_000.0, 6), 60);

    let mut barber = SqlBarber::new(&db, SqlBarberConfig::default());
    let report = barber
        .generate_from_templates(templates, &target, CostType::ExecutionTimeMicros)
        .expect("generation succeeded");

    println!("{}", report.summary());
    println!("\nexecution-time histogram (µs):");
    for (j, (t, d)) in report.target_counts.iter().zip(&report.distribution).enumerate() {
        let (lo, hi) = target.intervals.bounds(j);
        println!("  [{lo:>6.0}, {hi:>6.0})  target {t:>3.0}  got {d:>3.0}");
    }

    // Replay three queries and compare recorded vs fresh timings — wall
    // clock is noisy, so expect the interval, not the microsecond.
    println!("\nreplay check:");
    for query in report.queries.iter().take(3) {
        let parsed = sqlkit::parse_select(&query.sql).unwrap();
        let fresh = db.execute(&parsed).unwrap();
        println!(
            "  recorded {:>7.0}µs, replayed {:>7.0}µs, {} rows | {}",
            query.cost,
            fresh.elapsed.as_micros(),
            fresh.cardinality(),
            &query.sql[..query.sql.len().min(72)]
        );
    }
}
