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
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut points = |n: usize| -> Vec<Vec<f64>> {
            (0..n).map(|_| (0..3).map(|_| rng.gen::<f64>()).collect()).collect()
        };
        let x = points(200);
        let y: Vec<f64> = x.iter().map(|p| p[0] * 10.0 + p[1] * p[2]).collect();
        (x, y, points(200 * 32))
    };
    let fit = || bayesopt::RandomForest::fit(&x, &y, bayesopt::forest::ForestConfig::default());
    c.bench_function("bayesopt/forest_fit_200x3", |b| b.iter(|| std::hint::black_box(fit())));
    c.bench_function("bayesopt/forest_predict", |b| {
        let forest = fit();
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
            .spec(
                &sqlkit::TemplateSpec::new(1)
                    .with_tables(2)
                    .with_joins(1)
                    .with_aggregations(1),
            )
            .build();
        let mut model = llm::SyntheticLlm::reliable(3);
        b.iter(|| std::hint::black_box(model.complete(&prompt)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
