//! Ternary logic partitioning (TLP; Rigger & Su, OOPSLA 2020) for
//! `ActualCardinality`: a predicate `p`, its negation and `p IS NULL`
//! split a query's rows into three disjoint parts, so their counts must
//! add up to the count without the predicate. With `p = col < v` and a
//! non-NULL `v`, the negation is `col >= v` (the evaluator orders a NaN
//! comparison as equal, so `x < NaN` is false and `x >= NaN` true) and
//! `p IS NULL` is `col IS NULL`.
//!
//! Every count goes through [`PreparedExec::execute_batch`], in batches
//! of one and of 64 bindings, so the relation checks the vectorized
//! executor on its own terms rather than against the scalar executor.

use minidb::{BindingBatch, Database, ExecScratch, PreparedExec, PreparedTemplate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlkit::{parse_template, Value};
use std::sync::{Arc, OnceLock};

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny()))
}

/// One TLP subject: a statement with `{where}` standing for its filter,
/// and the column the partitioning predicate compares.
struct Subject {
    sql: &'static str,
    column: &'static str,
}

const SUBJECTS: [Subject; 3] = [
    // A single-table seq scan over a Float column.
    Subject { sql: "SELECT l.l_orderkey FROM lineitem AS l {where}", column: "l.l_extendedprice" },
    // The primary key: the recorded access path is an index scan for
    // selective bounds and a seq scan for wide ones.
    Subject { sql: "SELECT o.o_orderkey FROM orders AS o {where}", column: "o.o_orderkey" },
    // A join whose build side (orders) is unfiltered.
    Subject {
        sql: "SELECT o.o_orderkey FROM orders AS o JOIN lineitem AS l \
              ON o.o_orderkey = l.l_orderkey {where}",
        column: "l.l_quantity",
    },
];

fn prepare(sql: &str) -> PreparedExec {
    let template = parse_template(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let plan = PreparedTemplate::prepare(db(), &template).unwrap_or_else(|e| panic!("{sql}: {e}"));
    PreparedExec::prepare(db(), Arc::new(plan))
}

/// The cardinality of every row of `batch`.
fn counts(exec: &PreparedExec, batch: &BindingBatch, scratch: &mut ExecScratch) -> Vec<f64> {
    let results = exec.execute_batch(db(), batch, scratch).unwrap();
    results.iter().map(|row| row.as_ref().expect("executes").0).collect()
}

/// The cardinality of a placeholder-free statement, as a batch of one.
fn count_fixed(sql: &str, scratch: &mut ExecScratch) -> f64 {
    let exec = prepare(sql);
    let mut batch = BindingBatch::new(Vec::new());
    batch.push_row(&[]).unwrap();
    counts(&exec, &batch, scratch)[0]
}

/// Bound values for `{p_1}`: numbers inside the column's range, far
/// outside it, NaN, ±0.0, ±∞ and the `i64` extremes, as `Int` and
/// `Float`.
fn drawn_values(rng: &mut StdRng) -> Vec<Value> {
    let mut values = vec![
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(-1),
        Value::Float(1e18),
        Value::Float(-1e18),
    ];
    while values.len() < 64 {
        values.push(match rng.gen_range(0..3) {
            0 => Value::Int(rng.gen_range(-10..70_000)),
            1 => Value::Float(rng.gen_range(-10.0..120_000.0)),
            _ => Value::Float(rng.gen_range(0.0..60.0)),
        });
    }
    values
}

#[test]
fn tlp_partitions_add_up_to_the_unfiltered_count() {
    let mut rng = StdRng::seed_from_u64(29);
    let mut scratch = ExecScratch::new();
    for subject in &SUBJECTS {
        let with = |filter: &str| subject.sql.replace("{where}", filter);
        let lt = prepare(&with(&format!("WHERE {} < {{p_1}}", subject.column)));
        let ge = prepare(&with(&format!("WHERE {} >= {{p_1}}", subject.column)));
        assert_eq!(lt.tier(), "columnar", "{}", subject.sql);
        assert_eq!(ge.tier(), "columnar", "{}", subject.sql);
        let total = count_fixed(&with(""), &mut scratch);
        let null = count_fixed(&with(&format!("WHERE {} IS NULL", subject.column)), &mut scratch);
        assert!(total > 0.0, "{}: an empty relation checks nothing", subject.sql);

        let values = drawn_values(&mut rng);
        let mut batch = BindingBatch::new(vec![1]);
        for v in &values {
            batch.push_row(&[(1, v.clone())]).unwrap();
        }
        let (lt_64, ge_64) = (counts(&lt, &batch, &mut scratch), counts(&ge, &batch, &mut scratch));
        for (row, v) in values.iter().enumerate() {
            let mut single = BindingBatch::new(vec![1]);
            single.push_row(&[(1, v.clone())]).unwrap();
            let lt_1 = counts(&lt, &single, &mut scratch)[0];
            let ge_1 = counts(&ge, &single, &mut scratch)[0];
            let what = format!("{} with {} = {v:?}", subject.sql, subject.column);
            assert_eq!(lt_1, lt_64[row], "batch of 1 vs 64, `<`: {what}");
            assert_eq!(ge_1, ge_64[row], "batch of 1 vs 64, `>=`: {what}");
            assert_eq!(lt_1 + ge_1 + null, total, "TLP: {what}");
        }
    }
}
