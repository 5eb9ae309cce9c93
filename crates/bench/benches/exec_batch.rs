//! Vectorized-executor micro-benchmark: executing many *distinct*
//! bindings of one template, two ways, for a single-table filter and for
//! a hash join with `GROUP BY` —
//!
//! * `execute_per_query`: instantiate + `Database::execute` per binding
//!   (row-at-a-time scan, filter, join, and materialization — what every
//!   execution-based probe cost before the batch executor);
//! * `execute_batch`: `PreparedExec::execute_batch` — plan once,
//!   evaluate binding-dependent predicates as selection vectors over
//!   the columnar storage, join on typed keys over row ids, count the
//!   output phase, no row materialization, caller-owned scratch (zero
//!   steady-state allocation).
//!
//! Distinct bindings are the case the oracle's binding-key memo cannot
//! help with, so per-query vs batch is the honest measure of the
//! vectorized path. The printed table is the source of the numbers in
//! EXPERIMENTS.md.

// Wall-clock timing is this harness's entire purpose; detlint
// exempts crates/bench/ from R2 for the same reason.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use minidb::{BindingBatch, Database, ExecScratch, PreparedExec, PreparedTemplate};
use sqlkit::{parse_template, Template, Value};
use std::sync::Arc;
use std::time::Instant;

const N_BINDINGS: usize = 256;

/// One benchmarked template and its distinct bindings.
struct Case {
    label: &'static str,
    template: Template,
    bindings: BindingBatch,
}

fn cases() -> Vec<Case> {
    let bindings = |p2: fn(usize) -> f64| -> BindingBatch {
        let mut batch = BindingBatch::new(vec![1, 2]);
        for i in 0..N_BINDINGS {
            batch
                .push_row(&[(1, Value::Int((i % 50) as i64)), (2, Value::Float(p2(i)))])
                .expect("sorted, complete row");
        }
        batch
    };
    vec![
        Case {
            label: "single-table filter",
            template: parse_template(
                "SELECT l.l_orderkey FROM lineitem AS l \
                 WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
            )
            .expect("template parses"),
            bindings: bindings(|i| 900.0 + i as f64 * 37.0),
        },
        Case {
            label: "join + GROUP BY",
            template: parse_template(
                "SELECT o.o_orderkey, COUNT(*) FROM orders AS o \
                 JOIN lineitem AS l ON o.o_orderkey = l.l_orderkey \
                 WHERE l.l_quantity > {p_1} AND o.o_totalprice <= {p_2} \
                 GROUP BY o.o_orderkey",
            )
            .expect("template parses"),
            bindings: bindings(|i| 1_000.0 + i as f64 * 800.0),
        },
    ]
}

fn prepare(db: &Database, template: &Template) -> PreparedExec {
    let plan = PreparedTemplate::prepare(db, template).expect("template prepares");
    PreparedExec::prepare(db, Arc::new(plan))
}

fn execute_per_query(db: &Database, template: &Template, points: &BindingBatch, row: usize) {
    let query = template.instantiate(points.row(row)).expect("binding complete");
    std::hint::black_box(db.execute(&query).expect("executes"));
}

fn speedup_table(db: &Database, case: &Case) {
    let Case { label, template, bindings: points } = case;
    let exec = prepare(db, template);
    assert_eq!(exec.tier(), "columnar", "bench template must take the kernel tier");

    let start = Instant::now();
    for row in 0..points.len() {
        execute_per_query(db, template, points, row);
    }
    let per_query = start.elapsed();

    // Batch: one warm-up to size the arenas, then measure.
    let mut scratch = ExecScratch::new();
    std::hint::black_box(exec.execute_batch(db, points, &mut scratch).expect("executes"));
    let start = Instant::now();
    std::hint::black_box(exec.execute_batch(db, points, &mut scratch).expect("executes"));
    let batch_time = start.elapsed();

    let per_probe = |d: std::time::Duration| d.as_nanos() as f64 / points.len() as f64;
    let batch_speedup = per_query.as_secs_f64() / batch_time.as_secs_f64();
    println!(
        "\nexec_batch: {} distinct bindings of one {label} template, tiny TPC-H",
        points.len()
    );
    println!("{:<22} {:>14} {:>12}", "path", "ns/probe", "speedup");
    println!("{:<22} {:>14.0} {:>11.2}x", "execute_per_query", per_probe(per_query), 1.0);
    println!(
        "{:<22} {:>14.0} {:>11.2}x",
        "execute_batch_256",
        per_probe(batch_time),
        batch_speedup
    );
    // Regression gate for the vectorized executor: a 256-binding batch
    // must be at least 3x faster than 256 per-query executes (typically
    // well beyond; see EXPERIMENTS.md). Debug builds run the scalar
    // cross-check inside execute_batch, so only release numbers count.
    #[cfg(not(debug_assertions))]
    assert!(
        batch_speedup >= 3.0,
        "vectorized execute_batch only {batch_speedup:.2}x over per-query execute ({label})"
    );
    #[cfg(debug_assertions)]
    let _ = batch_speedup;
}

fn bench(c: &mut Criterion) {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
    let cases = cases();
    for case in &cases {
        speedup_table(&db, case);
    }

    for case in &cases {
        let Case { label, template, bindings: points } = case;
        c.bench_function(&format!("exec/execute_per_query ({label})"), |bencher| {
            bencher.iter(|| {
                for row in 0..points.len() {
                    execute_per_query(&db, template, points, row);
                }
            })
        });
        c.bench_function(&format!("exec/execute_batch_256 ({label})"), |bencher| {
            let exec = prepare(&db, template);
            let mut scratch = ExecScratch::new();
            bencher.iter(|| {
                std::hint::black_box(
                    exec.execute_batch(&db, points, &mut scratch).expect("executes"),
                );
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
