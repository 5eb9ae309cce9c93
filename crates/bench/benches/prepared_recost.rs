//! Prepared-plan micro-benchmark: costing many *distinct* bindings of a
//! single template, four ways —
//!
//! * `from_scratch`: instantiate + render + full `Database::explain`
//!   (what every distinct probe cost before prepared plans);
//! * `recost_batch_1`: `PreparedTemplate::recost_batch` on a batch of one
//!   per binding — the path sequential callers (profiler, baselines)
//!   take, replaying only the selectivity and cost arithmetic over the
//!   cached plan skeleton;
//! * `recost_batch_256`: the same replay over one 256-binding batch — one
//!   skeleton walk for the whole batch, tight per-column selectivity
//!   loops, and a caller-owned scratch arena (zero steady-state
//!   allocation);
//! * memo hits: a warm oracle answering repeats from its binding-key
//!   memo, one probe per call through the oracle's batch entry point.
//!
//! A second template adds a placeholder inside an `IN` subquery (the
//! synthesizer's nested-subquery shape) and measures its 256-binding
//! batch against its own from-scratch cost.
//!
//! Distinct bindings are the case the memo cache cannot help with, so
//! `from_scratch` vs `recost_batch_1` is the honest measure of the fast
//! path. The printed table is the source of the numbers in
//! EXPERIMENTS.md.

// Wall-clock timing is this harness's entire purpose; detlint
// exempts crates/bench/ from R2 for the same reason.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use minidb::{BindingBatch, Database, PreparedTemplate, RecostScratch};
use sqlbarber::oracle::{ColumnarScratch, CostOracle, PreparedHandle};
use sqlbarber::CostType;
use sqlkit::{parse_template, Template, Value};
use std::time::{Duration, Instant};

const N_BINDINGS: usize = 256;

const JOIN_AGG: &str = "SELECT o.o_orderkey, SUM(l.l_extendedprice) \
     FROM orders AS o, lineitem AS l \
     WHERE o.o_orderkey = l.l_orderkey \
     AND l.l_extendedprice > {p_1} AND l.l_quantity <= {p_2} \
     GROUP BY o.o_orderkey";

const JOIN_AGG_IN_SUBQUERY: &str = "SELECT o.o_orderkey, SUM(l.l_extendedprice) \
     FROM orders AS o, lineitem AS l \
     WHERE o.o_orderkey = l.l_orderkey \
     AND l.l_extendedprice > {p_1} AND l.l_quantity <= {p_2} \
     AND o.o_orderkey IN \
     (SELECT orders.o_orderkey FROM orders WHERE orders.o_totalprice > {p_3}) \
     GROUP BY o.o_orderkey";

fn template(sql: &str) -> Template {
    parse_template(sql).expect("template parses")
}

/// `N_BINDINGS` distinct rows over `{p_1}`, `{p_2}` and `{p_3}`; a
/// template without `{p_3}` ignores that column.
fn bindings() -> BindingBatch {
    let mut batch = BindingBatch::new(vec![1, 2, 3]);
    for i in 0..N_BINDINGS {
        batch
            .push_row(&[
                (1, Value::Float(100.0 + i as f64 * 17.0)),
                (2, Value::Float(1.0 + (i % 50) as f64)),
                (3, Value::Float(500.0 + i as f64 * 311.0)),
            ])
            .expect("sorted, complete row");
    }
    batch
}

fn cost_from_scratch(db: &Database, template: &Template, points: &BindingBatch, row: usize) {
    let query = template.instantiate(points.row(row)).expect("binding complete");
    // Render too: the rendered text is what the pre-prepared oracle keyed
    // its memo on, so the string build is part of the replaced work.
    std::hint::black_box(query.to_string());
    std::hint::black_box(db.explain(&query).expect("plans"));
}

fn from_scratch_time(db: &Database, template: &Template, points: &BindingBatch) -> Duration {
    let start = Instant::now();
    for row in 0..points.len() {
        cost_from_scratch(db, template, points, row);
    }
    start.elapsed()
}

/// Recost each binding as a batch of one, reusing one batch and one
/// scratch arena (the sequential callers' access pattern).
fn recost_one_at_a_time(
    db: &Database,
    prepared: &PreparedTemplate,
    points: &BindingBatch,
    batch: &mut BindingBatch,
    scratch: &mut RecostScratch,
) {
    for row in 0..points.len() {
        batch.clear();
        batch.push_row_from(points, row).expect("binding complete");
        std::hint::black_box(prepared.recost_batch(db, batch, scratch).expect("recosts"));
    }
}

/// One warm-up to size the arenas, then one measured 256-row batch.
fn batch_time(db: &Database, prepared: &PreparedTemplate, batch: &BindingBatch) -> Duration {
    let mut scratch = RecostScratch::new();
    std::hint::black_box(prepared.recost_batch(db, batch, &mut scratch).expect("batch recosts"));
    let start = Instant::now();
    std::hint::black_box(prepared.recost_batch(db, batch, &mut scratch).expect("batch recosts"));
    start.elapsed()
}

/// Cost each binding as an oracle batch of one (the sequential callers'
/// access pattern), reusing one batch and one scratch arena.
fn cost_one_at_a_time(
    oracle: &CostOracle,
    handle: &PreparedHandle,
    points: &BindingBatch,
    one: &mut BindingBatch,
    scratch: &mut ColumnarScratch,
) {
    for row in 0..points.len() {
        one.clear();
        one.push_row_from(points, row).expect("binding complete");
        let result =
            oracle.cost_prepared_batch_columnar_on(1, handle, one, CostType::PlanCost, scratch);
        std::hint::black_box(result[0].as_ref().unwrap());
    }
}

fn speedup_table(db: &Database, points: &BindingBatch) {
    let template = template(JOIN_AGG);
    let prepared = PreparedTemplate::prepare(db, &template).expect("prepares");
    let scratch = from_scratch_time(db, &template, points);

    // Batches of one: one warm-up pass to size the arenas, then measure.
    let mut one = BindingBatch::new(prepared.placeholder_ids().to_vec());
    let mut one_scratch = RecostScratch::new();
    recost_one_at_a_time(db, &prepared, points, &mut one, &mut one_scratch);
    let start = Instant::now();
    recost_one_at_a_time(db, &prepared, points, &mut one, &mut one_scratch);
    let batch_one = start.elapsed();

    let batch_256 = batch_time(db, &prepared, points);

    // Warm memo hits: one priming pass, then measure the repeat.
    let oracle = CostOracle::new(db, 1);
    let handle = oracle.prepare(&template).expect("prepares");
    let mut memo_scratch = ColumnarScratch::new();
    cost_one_at_a_time(&oracle, &handle, points, &mut one, &mut memo_scratch);
    let start = Instant::now();
    cost_one_at_a_time(&oracle, &handle, points, &mut one, &mut memo_scratch);
    let binding_hit = start.elapsed();

    let in_subquery = self::template(JOIN_AGG_IN_SUBQUERY);
    let prepared_in_subquery = PreparedTemplate::prepare(db, &in_subquery).expect("prepares");
    let scratch_in_subquery = from_scratch_time(db, &in_subquery, points);
    let batch_in_subquery = batch_time(db, &prepared_in_subquery, points);

    let per_probe = |d: Duration| d.as_nanos() as f64 / points.len() as f64;
    let ratio = |a: Duration, b: Duration| a.as_secs_f64() / b.as_secs_f64();
    let speedup = ratio(scratch, batch_one);
    let batch_speedup = ratio(batch_one, batch_256);
    let in_subquery_speedup = ratio(scratch_in_subquery, batch_in_subquery);
    println!(
        "\nprepared_recost: {} distinct bindings of one join+agg template, tiny TPC-H",
        points.len()
    );
    println!("{:<30} {:>14} {:>12}", "path", "ns/probe", "speedup");
    let row = |name: &str, d: Duration, base: Duration| {
        println!("{name:<30} {:>14.0} {:>11.2}x", per_probe(d), ratio(base, d));
    };
    row("from_scratch", scratch, scratch);
    row("recost_batch_1", batch_one, scratch);
    row("recost_batch_256", batch_256, scratch);
    row("binding_memo_hit", binding_hit, scratch);
    println!("(same template plus `o.o_orderkey IN (SELECT … > {{p_3}})`)");
    row("from_scratch_in_subquery", scratch_in_subquery, scratch_in_subquery);
    row("recost_batch_256_in_subquery", batch_in_subquery, scratch_in_subquery);
    // Acceptance bars for the fast path (debug builds cross-check every
    // row against the planner inside recost_batch, so only release
    // numbers are meaningful).
    #[cfg(not(debug_assertions))]
    {
        // Gate 1: a batch of one is at least 5x faster than planning
        // from scratch.
        assert!(speedup >= 5.0, "recost_batch of one only {speedup:.2}x over from-scratch");
        // Gate 2: a 256-binding batch is at least 3x faster per probe
        // than 256 batches of one.
        assert!(
            batch_speedup >= 3.0,
            "recost_batch of 256 only {batch_speedup:.2}x over batches of one"
        );
        // Gate 3: a placeholder inside an IN subquery keeps the columnar
        // path (at least 5x over its own from-scratch cost).
        assert!(
            in_subquery_speedup >= 5.0,
            "IN-subquery recost_batch of 256 only {in_subquery_speedup:.2}x over from-scratch"
        );
    }
    #[cfg(debug_assertions)]
    let _ = (speedup, batch_speedup, in_subquery_speedup);
}

fn bench(c: &mut Criterion) {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
    let points = bindings();
    speedup_table(&db, &points);

    let template = template(JOIN_AGG);
    c.bench_function("prepared/from_scratch", |bencher| {
        bencher.iter(|| {
            for row in 0..points.len() {
                cost_from_scratch(&db, &template, &points, row);
            }
        })
    });
    c.bench_function("prepared/recost_batch_1", |bencher| {
        let prepared = PreparedTemplate::prepare(&db, &template).expect("prepares");
        let mut batch = BindingBatch::new(prepared.placeholder_ids().to_vec());
        let mut scratch = RecostScratch::new();
        bencher.iter(|| recost_one_at_a_time(&db, &prepared, &points, &mut batch, &mut scratch))
    });
    for (name, sql) in [
        ("prepared/recost_batch_256", JOIN_AGG),
        ("prepared/recost_batch_256_in_subquery", JOIN_AGG_IN_SUBQUERY),
    ] {
        c.bench_function(name, |bencher| {
            let prepared = PreparedTemplate::prepare(&db, &self::template(sql)).expect("prepares");
            let mut scratch = RecostScratch::new();
            bencher.iter(|| {
                std::hint::black_box(
                    prepared.recost_batch(&db, &points, &mut scratch).expect("batch recosts"),
                );
            })
        });
    }
    c.bench_function("prepared/binding_memo_hit", |bencher| {
        let oracle = CostOracle::new(&db, 1);
        let handle = oracle.prepare(&template).expect("prepares");
        let mut one = BindingBatch::new(vec![1, 2]);
        let mut scratch = ColumnarScratch::new();
        cost_one_at_a_time(&oracle, &handle, &points, &mut one, &mut scratch);
        bencher.iter(|| cost_one_at_a_time(&oracle, &handle, &points, &mut one, &mut scratch))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
