//! Microbenchmarks of the substrates: parser, optimizer, executor,
//! ANALYZE, random-forest surrogate, LHS, and the synthetic LLM.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
    let sql = "SELECT c.c_name, SUM(l.l_extendedprice) AS revenue \
               FROM customer AS c JOIN orders AS o ON c.c_custkey = o.o_custkey \
               JOIN lineitem AS l ON o.o_orderkey = l.l_orderkey \
               WHERE o.o_totalprice > 50000 AND l.l_quantity BETWEEN 10 AND 40 \
               GROUP BY c.c_name ORDER BY c.c_name LIMIT 50";
    let query = sqlkit::parse_select(sql).unwrap();

    c.bench_function("sqlkit/parse_three_way_join", |b| {
        b.iter(|| std::hint::black_box(sqlkit::parse_select(sql).unwrap()))
    });
    c.bench_function("sqlkit/print_three_way_join", |b| {
        b.iter(|| std::hint::black_box(query.to_string()))
    });
    c.bench_function("minidb/explain_three_way_join", |b| {
        b.iter(|| std::hint::black_box(db.explain(&query).unwrap().total_cost))
    });
    c.bench_function("minidb/execute_three_way_join", |b| {
        b.iter(|| std::hint::black_box(db.execute(&query).unwrap().cardinality()))
    });
    // ANALYZE of TPC-H lineitem at the default SF 0.01 (60k rows).
    c.bench_function("minidb/analyze_lineitem", |b| {
        let tpch = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::default());
        let lineitem = tpch.table("lineitem").unwrap();
        b.iter(|| std::hint::black_box(minidb::stats::analyze_table(lineitem)))
    });

    c.bench_function("bayesopt/lhs_100x5", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        b.iter(|| std::hint::black_box(bayesopt::latin_hypercube(100, 5, &mut rng)))
    });
    // 200 training rows in 3 dimensions, and query points for 32 rounds of
    // 200 lookups (one EI-scoring round each). Each round scores fresh
    // points, as `ask` does: repeating one set lets the branch predictor
    // learn the tree walks.
    let (x, y, points) = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x = unit_points(&mut rng, 200, 3);
        let y: Vec<f64> = x.iter().map(|p| p[0] * 10.0 + p[1] * p[2]).collect();
        (x, y, unit_points(&mut rng, 200 * 32, 3))
    };
    let fit = || bayesopt::RandomForest::fit(&x, &y, bayesopt::forest::ForestConfig::default());
    c.bench_function("bayesopt/forest_fit_200x3", |b| b.iter(|| std::hint::black_box(fit())));
    // The fits a BO search makes: about 110 rows, and 1-D or 2-D points
    // (nearly all fit time on the TPC-H reference cell). A 1-D fit also
    // builds its step table.
    for d in [1, 2] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4 + d as u64);
        let x = unit_points(&mut rng, 110, d);
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 6.0).sin() + p[d - 1]).collect();
        c.bench_function(&format!("bayesopt/forest_fit_{d}d_110"), |b| {
            let config = bayesopt::forest::ForestConfig::default();
            b.iter(|| std::hint::black_box(bayesopt::RandomForest::fit(&x, &y, config)))
        });
    }
    // Forests in two or more dimensions walk their trees.
    c.bench_function("bayesopt/forest_predict", |b| {
        let forest = fit();
        let mut rounds = points.chunks(200).cycle();
        b.iter(|| {
            for point in rounds.next().expect("cycle is endless") {
                std::hint::black_box(forest.predict(point));
            }
        })
    });
    // A 1-D forest is a step table: one binary search per point, over
    // fresh points each round as above.
    c.bench_function("bayesopt/forest_predict_1d", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = unit_points(&mut rng, 200, 1);
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 6.0).sin()).collect();
        let points = unit_points(&mut rng, 200 * 32, 1);
        let forest = bayesopt::RandomForest::fit(&x, &y, bayesopt::forest::ForestConfig::default());
        let mut rounds = points.chunks(200).cycle();
        b.iter(|| {
            for point in rounds.next().expect("cycle is endless") {
                std::hint::black_box(forest.predict(point));
            }
        })
    });

    c.bench_function("llm/generate_template", |b| {
        use llm::LanguageModel;
        let prompt = llm::PromptBuilder::new(llm::protocol::TASK_GENERATE)
            .schema(&db.schema_summary())
            .join_path(&[(
                "orders".into(),
                "o_custkey".into(),
                "customer".into(),
                "c_custkey".into(),
            )])
            .spec(&sqlkit::TemplateSpec::new(1).with_tables(2).with_joins(1).with_aggregations(1))
            .build();
        let mut model = llm::SyntheticLlm::reliable(3);
        b.iter(|| std::hint::black_box(model.complete(&prompt)))
    });
}

/// `n` uniform points in the `d`-dimensional unit cube.
fn unit_points(rng: &mut impl rand::Rng, n: usize, d: usize) -> Vec<Vec<f64>> {
    (0..n).map(|_| (0..d).map(|_| rng.gen::<f64>()).collect()).collect()
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
