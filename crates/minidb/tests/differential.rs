//! Differential property tests: the full plan-and-execute pipeline must
//! agree with a brute-force row-by-row evaluation, for randomly generated
//! predicates — including ones that trigger index paths.

use minidb::expr_eval::{EvalContext, RowSchema, SubqueryResults};
use minidb::{DataType, Database, Table};
use proptest::prelude::*;
use sqlkit::{parse_select, Value};

/// Deterministic 400-row table with an indexed column, a skewed column,
/// and nulls.
fn fixture() -> Database {
    let mut t = Table::new(
        "data",
        vec![
            ("k".into(), DataType::Int),
            ("v".into(), DataType::Int),
            ("w".into(), DataType::Float),
        ],
    );
    for i in 0..400i64 {
        t.push_row(vec![
            Value::Int(i),
            if i % 19 == 0 { Value::Null } else { Value::Int(i * 7 % 100) },
            Value::Float(((i * i) % 997) as f64 / 10.0),
        ]);
    }
    let mut db = Database::new("diff");
    db.add_table(t, Some("k"), &["v"]);
    db
}

/// Brute-force count of rows satisfying the WHERE clause.
fn brute_force_count(db: &Database, where_sql: &str) -> usize {
    let select = parse_select(&format!("SELECT * FROM data WHERE {where_sql}")).unwrap();
    let predicate = select.where_clause.as_ref().unwrap();
    let table = db.table("data").unwrap();
    let schema = RowSchema {
        fields: table.column_names.iter().map(|c| ("data".to_string(), c.clone())).collect(),
    };
    let subqueries = SubqueryResults::default();
    let mut count = 0;
    for row_idx in 0..table.row_count() {
        let row: Vec<Value> = table.columns.iter().map(|c| c.get(row_idx)).collect();
        let context =
            EvalContext { schema: &schema, row: &row, aggregates: None, subqueries: &subqueries };
        if context.eval_filter(predicate).unwrap() {
            count += 1;
        }
    }
    count
}

fn predicate_strategy() -> impl Strategy<Value = String> {
    let comparison = (
        prop::sample::select(vec!["k", "v", "w"]),
        prop::sample::select(vec![">", "<", ">=", "<=", "=", "<>"]),
        -50i64..450,
    )
        .prop_map(|(col, op, v)| format!("data.{col} {op} {v}"));
    let between = (prop::sample::select(vec!["k", "v", "w"]), -50i64..450, -50i64..450)
        .prop_map(|(col, a, b)| format!("data.{col} BETWEEN {} AND {}", a.min(b), a.max(b)));
    let null_check = (prop::sample::select(vec!["k", "v", "w"]), any::<bool>())
        .prop_map(|(col, neg)| format!("data.{col} IS {}NULL", if neg { "NOT " } else { "" }));
    let leaf = prop_oneof![comparison, between, null_check];
    leaf.clone().prop_recursive(2, 8, 2, move |inner| {
        (inner.clone(), prop::sample::select(vec!["AND", "OR"]), inner)
            .prop_map(|(a, op, b)| format!("({a}) {op} ({b})"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Executor count == brute-force count for arbitrary predicates.
    #[test]
    fn executor_matches_brute_force(pred in predicate_strategy()) {
        let db = fixture();
        let sql = format!("SELECT COUNT(*) FROM data WHERE {pred}");
        let result = db.execute_sql(&sql).unwrap();
        let Value::Int(executed) = result.rows[0][0] else { panic!() };
        let expected = brute_force_count(&db, &pred);
        prop_assert_eq!(executed as usize, expected, "predicate: {}", pred);
    }

    /// EXPLAIN's estimate is sane: within [0, table size] and exact for
    /// empty / full predicates.
    #[test]
    fn estimates_are_bounded(pred in predicate_strategy()) {
        let db = fixture();
        let sql = format!("SELECT * FROM data WHERE {pred}");
        let explain = db.explain_sql(&sql).unwrap();
        prop_assert!(explain.estimated_rows >= 0.0);
        prop_assert!(explain.estimated_rows <= 400.0 * 1.05,
            "est {} for {}", explain.estimated_rows, pred);
        prop_assert!(explain.total_cost.is_finite() && explain.total_cost > 0.0);
    }

    /// Re-planning the same statement is deterministic.
    #[test]
    fn planning_is_deterministic(pred in predicate_strategy()) {
        let db = fixture();
        let sql = format!("SELECT * FROM data WHERE {pred}");
        let a = db.explain_sql(&sql).unwrap();
        let b = db.explain_sql(&sql).unwrap();
        prop_assert_eq!(a.total_cost, b.total_cost);
        prop_assert_eq!(a.estimated_rows, b.estimated_rows);
    }
}
