//! Prepared-plan micro-benchmark: costing many *distinct* bindings of a
//! single template, three ways —
//!
//! * `from_scratch`: instantiate + render + full `Database::explain`
//!   (what every distinct probe cost before prepared plans);
//! * `recost`: `PreparedTemplate::recost`, which replays only the
//!   selectivity and cost arithmetic over the cached plan skeleton;
//! * `recost_batch`: the columnar batch path — one skeleton walk for the
//!   whole 256-binding batch, tight per-column selectivity loops, and a
//!   caller-owned scratch arena (zero steady-state allocation);
//! * memo hits: a warm oracle answering repeats from its binding-key
//!   memo, one probe per call through the oracle's batch entry point.
//!
//! Distinct bindings are the case the memo cache cannot help with, so
//! `from_scratch` vs `recost` is the honest measure of the fast path.
//! The printed table is the source of the numbers in EXPERIMENTS.md.

// Wall-clock timing is this harness's entire purpose; detlint
// exempts crates/bench/ from R2 for the same reason.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use minidb::{BindingBatch, Database, PreparedTemplate, RecostScratch};
use sqlbarber::oracle::{ColumnarScratch, CostOracle, PreparedHandle};
use sqlbarber::CostType;
use sqlkit::{parse_template, Template, Value};
use std::collections::HashMap;
use std::time::Instant;

const N_BINDINGS: usize = 256;

fn template() -> Template {
    parse_template(
        "SELECT o.o_orderkey, SUM(l.l_extendedprice) \
         FROM orders AS o, lineitem AS l \
         WHERE o.o_orderkey = l.l_orderkey \
         AND l.l_extendedprice > {p_1} AND l.l_quantity <= {p_2} \
         GROUP BY o.o_orderkey",
    )
    .expect("template parses")
}

fn bindings() -> Vec<HashMap<u32, Value>> {
    (0..N_BINDINGS)
        .map(|i| {
            HashMap::from([
                (1, Value::Float(100.0 + i as f64 * 17.0)),
                (2, Value::Float(1.0 + (i % 50) as f64)),
            ])
        })
        .collect()
}

fn cost_from_scratch(db: &Database, template: &Template, binding: &HashMap<u32, Value>) {
    let query = template.instantiate(binding).expect("binding complete");
    // Render too: the rendered text is what the pre-prepared oracle keyed
    // its memo on, so the string build is part of the replaced work.
    std::hint::black_box(query.to_string());
    std::hint::black_box(db.explain(&query).expect("plans"));
}

/// Cost each binding as an oracle batch of one (the sequential callers'
/// access pattern), reusing one scratch arena.
fn cost_one_at_a_time(
    oracle: &CostOracle,
    handle: &PreparedHandle,
    points: &[HashMap<u32, Value>],
    scratch: &mut ColumnarScratch,
) {
    for binding in points {
        let batch = std::slice::from_ref(binding);
        let result =
            oracle.cost_prepared_batch_columnar(handle, batch, CostType::PlanCost, scratch);
        std::hint::black_box(result[0].as_ref().unwrap());
    }
}

fn speedup_table(db: &Database, template: &Template, points: &[HashMap<u32, Value>]) {
    let prepared = PreparedTemplate::prepare(db, template).expect("prepares");

    let start = Instant::now();
    for binding in points {
        cost_from_scratch(db, template, binding);
    }
    let scratch = start.elapsed();

    let start = Instant::now();
    for binding in points {
        std::hint::black_box(prepared.recost(db, binding).expect("recosts"));
    }
    let recost = start.elapsed();

    // Columnar batch: one warm-up to size the arenas, then measure.
    let ids: Vec<u32> = vec![1, 2];
    let batch = BindingBatch::from_rows(&ids, points).expect("bindings complete");
    let mut batch_scratch = RecostScratch::new();
    std::hint::black_box(
        prepared.recost_batch(db, &batch, &mut batch_scratch).expect("batch recosts"),
    );
    let start = Instant::now();
    std::hint::black_box(
        prepared.recost_batch(db, &batch, &mut batch_scratch).expect("batch recosts"),
    );
    let batch_time = start.elapsed();

    // Warm memo hits: one priming pass, then measure the repeat.
    let oracle = CostOracle::new(db, 1);
    let handle = oracle.prepare(template).expect("prepares");
    let mut memo_scratch = ColumnarScratch::new();
    cost_one_at_a_time(&oracle, &handle, points, &mut memo_scratch);
    let start = Instant::now();
    cost_one_at_a_time(&oracle, &handle, points, &mut memo_scratch);
    let binding_hit = start.elapsed();

    let per_probe = |d: std::time::Duration| d.as_nanos() as f64 / points.len() as f64;
    let speedup = scratch.as_secs_f64() / recost.as_secs_f64();
    let batch_speedup = recost.as_secs_f64() / batch_time.as_secs_f64();
    println!(
        "\nprepared_recost: {} distinct bindings of one join+agg template, tiny TPC-H",
        points.len()
    );
    println!("{:<22} {:>14} {:>12}", "path", "ns/probe", "speedup");
    println!("{:<22} {:>14.0} {:>11.2}x", "from_scratch", per_probe(scratch), 1.0);
    println!("{:<22} {:>14.0} {:>11.2}x", "prepared_recost", per_probe(recost), speedup);
    println!(
        "{:<22} {:>14.0} {:>11.2}x",
        "recost_batch_256",
        per_probe(batch_time),
        scratch.as_secs_f64() / batch_time.as_secs_f64()
    );
    println!(
        "{:<22} {:>14.0} {:>11.2}x",
        "binding_memo_hit",
        per_probe(binding_hit),
        scratch.as_secs_f64() / binding_hit.as_secs_f64()
    );
    // Acceptance bar for the fast path (debug builds run the planner
    // cross-check inside recost, so only release numbers are meaningful).
    #[cfg(not(debug_assertions))]
    assert!(speedup >= 5.0, "prepared recost only {speedup:.2}x over from-scratch");
    // Regression gate for the columnar path: a 256-binding batch must be
    // at least 3x faster than 256 per-probe recosts (typically well
    // beyond; see EXPERIMENTS.md). Debug builds run the scalar
    // cross-check inside recost_batch, so only release numbers count.
    #[cfg(not(debug_assertions))]
    assert!(
        batch_speedup >= 3.0,
        "columnar recost_batch only {batch_speedup:.2}x over per-probe recost"
    );
    #[cfg(debug_assertions)]
    let _ = batch_speedup;
}

fn bench(c: &mut Criterion) {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
    let template = template();
    let points = bindings();
    speedup_table(&db, &template, &points);

    c.bench_function("prepared/from_scratch", |bencher| {
        bencher.iter(|| {
            for binding in &points {
                cost_from_scratch(&db, &template, binding);
            }
        })
    });
    c.bench_function("prepared/recost", |bencher| {
        let prepared = PreparedTemplate::prepare(&db, &template).expect("prepares");
        bencher.iter(|| {
            for binding in &points {
                std::hint::black_box(prepared.recost(&db, binding).expect("recosts"));
            }
        })
    });
    c.bench_function("prepared/recost_batch_256", |bencher| {
        let prepared = PreparedTemplate::prepare(&db, &template).expect("prepares");
        let ids: Vec<u32> = vec![1, 2];
        let batch = BindingBatch::from_rows(&ids, &points).expect("bindings complete");
        let mut scratch = RecostScratch::new();
        bencher.iter(|| {
            std::hint::black_box(
                prepared.recost_batch(&db, &batch, &mut scratch).expect("batch recosts"),
            );
        })
    });
    c.bench_function("prepared/binding_memo_hit", |bencher| {
        let oracle = CostOracle::new(&db, 1);
        let handle = oracle.prepare(&template).expect("prepares");
        let mut scratch = ColumnarScratch::new();
        cost_one_at_a_time(&oracle, &handle, &points, &mut scratch);
        bencher.iter(|| cost_one_at_a_time(&oracle, &handle, &points, &mut scratch))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
