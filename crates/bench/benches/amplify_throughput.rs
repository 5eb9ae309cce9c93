//! Amplification throughput: streaming a large cost-matched workload out
//! of a converged state through the columnar recost substrate.
//!
//! The printed table (emitted, accept rate, queries/sec, oracle misses)
//! is the source of the amplification numbers in EXPERIMENTS.md. The
//! release-mode asserts are the regression gate the ISSUE calls for:
//! aggregate emission must stay above 1M queries/sec on the bench schema
//! at the default thread budget, with ≪ 1 oracle miss per accepted query.

// Wall-clock timing is this harness's entire purpose; detlint
// exempts crates/bench/ from R2 for the same reason.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use minidb::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlbarber::oracle::CostOracle;
use sqlbarber::profiler::{profile_template, ProfiledTemplate};
use sqlbarber::{amplify_workload, AmplifyConfig, CostType};
use sqlkit::parse_template;
use std::io;
use std::time::Instant;
use workload::{CostIntervals, TargetDistribution};

/// Queries requested from the gated measurement run.
const GATE_N: u64 = 500_000;

fn converged_state(db: &Database) -> (Vec<ProfiledTemplate>, TargetDistribution) {
    let oracle = CostOracle::new(db, 0);
    let mut rng = StdRng::seed_from_u64(11);
    let profiled: Vec<ProfiledTemplate> = [
        "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1}",
        "SELECT l.l_orderkey FROM lineitem AS l \
         WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
        "SELECT o.o_orderkey FROM orders AS o \
         WHERE o.o_totalprice > {p_1} AND o.o_orderkey <= {p_2}",
    ]
    .iter()
    .map(|sql| {
        let template = parse_template(sql).unwrap();
        profile_template(&oracle, template, CostType::Cardinality, 48, &mut rng)
    })
    .collect();
    let max = profiled.iter().flat_map(|t| t.costs.iter()).fold(0.0f64, |a, &b| a.max(b));
    let grid = CostIntervals::new(0.0, (max * 1.05).max(1.0), 5);
    let all: Vec<f64> = profiled.iter().flat_map(|t| t.costs.iter().copied()).collect();
    let target = TargetDistribution::from_samples(&all, grid, 200);
    (profiled, target)
}

fn gate(db: &Database, profiled: &[ProfiledTemplate], target: &TargetDistribution) {
    let oracle = CostOracle::new(db, 0);
    let config = AmplifyConfig { n: GATE_N, shards: 0, batch: 0, out: None };
    // Warm-up sizes the lane arenas and populates the prepared-plan cache.
    amplify_workload(&oracle, profiled, target, CostType::Cardinality, &config, 7, io::sink())
        .expect("amplifies");
    let start = Instant::now();
    let stats =
        amplify_workload(&oracle, profiled, target, CostType::Cardinality, &config, 7, io::sink())
            .expect("amplifies");
    let elapsed = start.elapsed();

    let qps = stats.emitted as f64 / elapsed.as_secs_f64();
    println!("\namplify_throughput: {GATE_N} requested, tiny TPC-H, default thread budget");
    println!("{:<22} {:>14}", "metric", "value");
    println!("{:<22} {:>14}", "emitted", stats.emitted);
    println!("{:<22} {:>14}", "candidates", stats.candidates);
    println!("{:<22} {:>13.1}%", "accept rate", stats.accept_rate() * 100.0);
    println!("{:<22} {:>12.2}M", "queries/sec", qps / 1.0e6);
    println!("{:<22} {:>14}", "oracle misses", stats.oracle_misses);
    println!("{:<22} {:>14.1}", "wasserstein (W1)", stats.wasserstein);

    // Release gates (debug builds run the scalar cross-check inside
    // recost_batch, so only release numbers are meaningful).
    #[cfg(not(debug_assertions))]
    {
        assert!(qps >= 1.0e6, "amplification only {:.2}M queries/sec", qps / 1.0e6);
        assert!(
            stats.emitted * 10 >= GATE_N * 9,
            "only {} of {GATE_N} requested queries emitted",
            stats.emitted
        );
        assert!(
            stats.misses_per_accept() < 0.01,
            "{:.4} oracle misses per accepted query",
            stats.misses_per_accept()
        );
    }
}

fn bench(c: &mut Criterion) {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
    let (profiled, target) = converged_state(&db);
    gate(&db, &profiled, &target);

    c.bench_function("amplify/emit_100k", |bencher| {
        let oracle = CostOracle::new(&db, 0);
        let config = AmplifyConfig { n: 100_000, shards: 0, batch: 0, out: None };
        bencher.iter(|| {
            std::hint::black_box(
                amplify_workload(
                    &oracle,
                    &profiled,
                    &target,
                    CostType::Cardinality,
                    &config,
                    7,
                    io::sink(),
                )
                .expect("amplifies"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
