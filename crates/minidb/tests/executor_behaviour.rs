//! Executor behaviour: differential testing against hand-computed results
//! and against brute-force evaluation, plus runtime edge cases.

use minidb::{Database, DataType, Table};
use sqlkit::{parse_select, Value};

/// A small, fully hand-checkable database.
fn micro_db() -> Database {
    let mut products = Table::new(
        "products",
        vec![
            ("pid".into(), DataType::Int),
            ("category".into(), DataType::Str),
            ("price".into(), DataType::Float),
            ("stock".into(), DataType::Int),
        ],
    );
    let rows: Vec<(i64, &str, f64, Option<i64>)> = vec![
        (1, "tools", 9.5, Some(3)),
        (2, "tools", 19.0, Some(0)),
        (3, "toys", 5.0, None),
        (4, "toys", 7.5, Some(12)),
        (5, "food", 2.5, Some(100)),
    ];
    for (pid, cat, price, stock) in rows {
        products.push_row(vec![
            Value::Int(pid),
            Value::Str(cat.into()),
            Value::Float(price),
            stock.map(Value::Int).unwrap_or(Value::Null),
        ]);
    }
    let mut sales = Table::new(
        "sales",
        vec![
            ("sid".into(), DataType::Int),
            ("pid".into(), DataType::Int),
            ("qty".into(), DataType::Int),
        ],
    );
    for (sid, pid, qty) in [(1, 1, 2), (2, 1, 1), (3, 3, 5), (4, 4, 1), (5, 9, 7)] {
        sales.push_row(vec![Value::Int(sid), Value::Int(pid), Value::Int(qty)]);
    }
    let mut db = Database::new("micro");
    db.add_table(products, Some("pid"), &[]);
    db.add_table(sales, Some("sid"), &["pid"]);
    db
}

fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    db.execute(&parse_select(sql).unwrap()).unwrap().rows
}

#[test]
fn group_by_with_having_and_order() {
    let db = micro_db();
    let result = rows(
        &db,
        "SELECT p.category, COUNT(*) AS n, AVG(p.price) AS avg_price \
         FROM products p GROUP BY p.category \
         HAVING COUNT(*) > 1 ORDER BY p.category",
    );
    assert_eq!(result.len(), 2);
    assert_eq!(result[0][0], Value::Str("tools".into()));
    assert_eq!(result[0][1], Value::Int(2));
    assert_eq!(result[0][2], Value::Float(14.25));
    assert_eq!(result[1][0], Value::Str("toys".into()));
}

#[test]
fn inner_join_drops_unmatched_fk_rows() {
    let db = micro_db();
    // sale 5 references pid 9 which does not exist
    let result = rows(
        &db,
        "SELECT s.sid FROM sales s JOIN products p ON s.pid = p.pid ORDER BY s.sid",
    );
    let sids: Vec<&Value> = result.iter().map(|r| &r[0]).collect();
    assert_eq!(
        sids,
        vec![&Value::Int(1), &Value::Int(2), &Value::Int(3), &Value::Int(4)]
    );
}

#[test]
fn null_stock_is_excluded_by_comparisons_but_found_by_is_null() {
    let db = micro_db();
    assert_eq!(rows(&db, "SELECT * FROM products WHERE products.stock > -1").len(), 4);
    let nulls = rows(&db, "SELECT products.pid FROM products WHERE products.stock IS NULL");
    assert_eq!(nulls, vec![vec![Value::Int(3)]]);
}

#[test]
fn aggregates_ignore_nulls() {
    let db = micro_db();
    let result = rows(
        &db,
        "SELECT COUNT(*), COUNT(products.stock), MIN(products.stock), AVG(products.stock) \
         FROM products",
    );
    assert_eq!(result[0][0], Value::Int(5));
    assert_eq!(result[0][1], Value::Int(4)); // null excluded
    assert_eq!(result[0][2], Value::Int(0));
    assert_eq!(result[0][3], Value::Float((3 + 12 + 100) as f64 / 4.0));
}

#[test]
fn count_distinct_and_distinct_projection() {
    let db = micro_db();
    let result = rows(&db, "SELECT COUNT(DISTINCT products.category) FROM products");
    assert_eq!(result[0][0], Value::Int(3));
    let cats = rows(
        &db,
        "SELECT DISTINCT products.category FROM products ORDER BY products.category",
    );
    assert_eq!(cats.len(), 3);
}

#[test]
fn like_and_case_in_projection() {
    let db = micro_db();
    let result = rows(
        &db,
        "SELECT products.pid, \
         CASE WHEN products.price > 8 THEN 'pricey' ELSE 'cheap' END AS tier \
         FROM products WHERE products.category LIKE 'to%' ORDER BY products.pid",
    );
    assert_eq!(result.len(), 4);
    assert_eq!(result[0][1], Value::Str("pricey".into())); // pid 1 at 9.5
    assert_eq!(result[2][1], Value::Str("cheap".into())); // pid 3 at 5.0
}

#[test]
fn scalar_subquery_and_exists_in_one_query() {
    let db = micro_db();
    let result = rows(
        &db,
        "SELECT products.pid FROM products \
         WHERE products.price > (SELECT AVG(p2.price) FROM products AS p2) \
         AND EXISTS (SELECT * FROM sales) ORDER BY products.pid",
    );
    // avg price = 8.7 → pids 1, 2
    assert_eq!(result, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
}

#[test]
fn in_subquery_with_aggregated_inner() {
    let db = micro_db();
    let result = rows(
        &db,
        "SELECT products.pid FROM products WHERE products.pid IN \
         (SELECT sales.pid FROM sales GROUP BY sales.pid HAVING SUM(sales.qty) > 1) \
         ORDER BY products.pid",
    );
    // qty sums: pid1=3, pid3=5, pid4=1, pid9=7(nonexistent product)
    assert_eq!(result, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
}

#[test]
fn division_by_zero_surfaces_as_an_error() {
    let db = micro_db();
    let err = db
        .execute_sql("SELECT 1 / products.stock FROM products WHERE products.pid = 2")
        .unwrap_err();
    assert!(err.contains("division by zero"), "{err}");
}

#[test]
fn order_by_desc_with_nulls_first_ordering() {
    let db = micro_db();
    let result = rows(
        &db,
        "SELECT products.pid, products.stock FROM products ORDER BY products.stock DESC",
    );
    // total order: NULL sorts first ascending → last under DESC? NULLs rank
    // lowest, so DESC places them last.
    assert_eq!(result[0][1], Value::Int(100));
    assert_eq!(result[4][1], Value::Null);
}

#[test]
fn arithmetic_projection_matches_hand_math() {
    let db = micro_db();
    let result = rows(
        &db,
        "SELECT products.price * 2.0 + 1.0 FROM products WHERE products.pid = 5",
    );
    assert_eq!(result[0][0], Value::Float(6.0));
}

#[test]
fn cross_join_cardinality() {
    let db = micro_db();
    let result = rows(&db, "SELECT COUNT(*) FROM products, sales");
    assert_eq!(result[0][0], Value::Int(25));
}

#[test]
fn self_join_with_aliases() {
    let db = micro_db();
    let result = rows(
        &db,
        "SELECT COUNT(*) FROM products a JOIN products b ON a.category = b.category",
    );
    // tools:2² + toys:2² + food:1² = 9
    assert_eq!(result[0][0], Value::Int(9));
}

/// Composite `GROUP BY`/`DISTINCT` keys must be injective: these two rows
/// differ, but joining their parts with U+0001 once made them one key.
#[test]
fn composite_keys_do_not_merge_across_a_separator_byte() {
    let mut t = Table::new(
        "t",
        vec![("a".into(), DataType::Str), ("b".into(), DataType::Str)],
    );
    t.push_row(vec![Value::Str("a\u{1}sb".into()), Value::Str("x".into())]);
    t.push_row(vec![Value::Str("a".into()), Value::Str("b\u{1}sx".into())]);
    let mut db = Database::new("separator");
    db.add_table(t, None, &[]);
    for sql in [
        "SELECT t.a, t.b FROM t AS t GROUP BY t.a, t.b",
        "SELECT DISTINCT t.a, t.b FROM t AS t",
    ] {
        assert_eq!(rows(&db, sql).len(), 2, "{sql}");
    }
}
