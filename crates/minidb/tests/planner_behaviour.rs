//! Planner behaviour tests: join ordering, predicate pushdown, residual
//! filters, subquery costing, and estimate quality on the bundled
//! datasets.

use minidb::plan::{NodeKind, PlanNode};
use minidb::Database;
use sqlkit::parse_select;

fn tpch() -> Database {
    minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
}

fn find_nodes<'a>(node: &'a PlanNode, out: &mut Vec<&'a PlanNode>) {
    out.push(node);
    for child in &node.children {
        find_nodes(child, out);
    }
}

fn scan_tables(plan: &PlanNode) -> Vec<String> {
    let mut nodes = Vec::new();
    find_nodes(plan, &mut nodes);
    nodes
        .iter()
        .filter_map(|n| match &n.kind {
            NodeKind::SeqScan { table, .. } | NodeKind::IndexScan { table, .. } => {
                Some(table.clone())
            }
            _ => None,
        })
        .collect()
}

#[test]
fn three_way_join_plans_with_bounded_estimate() {
    let db = tpch();
    let q = parse_select(
        "SELECT COUNT(*) FROM lineitem l \
         JOIN supplier s ON l.l_suppkey = s.s_suppkey \
         JOIN nation n ON s.s_nationkey = n.n_nationkey",
    )
    .unwrap();
    let plan = db.explain(&q).unwrap().plan;
    let order = scan_tables(&plan);
    assert_eq!(order.len(), 3);
    assert!(order.contains(&"nation".to_string()));
    // FK chain: output bounded by lineitem's size (plus estimator slack)
    let join_root = &plan.children[0].children[0];
    assert!(join_root.est_rows <= 6_000.0 * 1.5, "est {}", join_root.est_rows);
}

#[test]
fn single_table_predicates_are_pushed_into_scans() {
    let db = tpch();
    let q = parse_select(
        "SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey \
         WHERE o.o_totalprice > 90000 AND c.c_acctbal > 0",
    )
    .unwrap();
    let plan = db.explain(&q).unwrap().plan;
    let mut nodes = Vec::new();
    find_nodes(&plan, &mut nodes);
    let scans_with_filters = nodes
        .iter()
        .filter(|n| match &n.kind {
            NodeKind::SeqScan { filter, .. } | NodeKind::IndexScan { filter, .. } => {
                filter.is_some()
            }
            _ => false,
        })
        .count();
    assert_eq!(scans_with_filters, 2, "both filters should be pushed down");
    let residual_filters =
        nodes.iter().filter(|n| matches!(n.kind, NodeKind::Filter { .. })).count();
    assert_eq!(residual_filters, 0);
}

#[test]
fn cross_binding_inequalities_become_residual_filters() {
    let db = tpch();
    let q = parse_select(
        "SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey \
         WHERE o.o_totalprice > c.c_acctbal",
    )
    .unwrap();
    let plan = db.explain(&q).unwrap().plan;
    let mut nodes = Vec::new();
    find_nodes(&plan, &mut nodes);
    let has_residual = nodes.iter().any(|n| match &n.kind {
        NodeKind::HashJoin { residual, .. } => residual.is_some(),
        NodeKind::Filter { .. } => true,
        _ => false,
    });
    assert!(has_residual);
}

#[test]
fn join_estimates_respect_fk_semantics() {
    let db = tpch();
    let q = parse_select(
        "SELECT l.l_orderkey FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey",
    )
    .unwrap();
    let explain = db.explain(&q).unwrap();
    let actual = db.execute(&q).unwrap().cardinality() as f64;
    assert_eq!(actual, 6_000.0);
    assert!(
        (explain.estimated_rows - actual).abs() / actual < 0.25,
        "est {} vs actual {}",
        explain.estimated_rows,
        actual
    );
}

#[test]
fn subquery_cost_is_charged_to_the_outer_plan() {
    let db = tpch();
    let without =
        db.explain_sql("SELECT * FROM customer WHERE customer.c_acctbal > 0").unwrap().total_cost;
    let with_subquery = db
        .explain_sql(
            "SELECT * FROM customer WHERE customer.c_acctbal > 0 AND \
             customer.c_custkey IN (SELECT orders.o_custkey FROM orders)",
        )
        .unwrap()
        .total_cost;
    assert!(with_subquery > without, "{with_subquery} <= {without}");
}

#[test]
fn semijoin_selectivity_tracks_subquery_size() {
    let db = tpch();
    let wide = db
        .explain_sql(
            "SELECT * FROM customer WHERE customer.c_custkey IN \
             (SELECT orders.o_custkey FROM orders)",
        )
        .unwrap()
        .estimated_rows;
    let narrow = db
        .explain_sql(
            "SELECT * FROM customer WHERE customer.c_custkey IN \
             (SELECT orders.o_custkey FROM orders WHERE orders.o_totalprice > 200000)",
        )
        .unwrap()
        .estimated_rows;
    assert!(narrow < wide, "narrow {narrow} !< wide {wide}");
}

#[test]
fn limit_discounts_streaming_plans_only() {
    let db = tpch();
    let full = db.explain_sql("SELECT * FROM lineitem").unwrap().total_cost;
    let limited = db.explain_sql("SELECT * FROM lineitem LIMIT 10").unwrap().total_cost;
    assert!(limited < full / 10.0, "limit should discount: {limited} vs {full}");
    let agg = db.explain_sql("SELECT COUNT(*) FROM lineitem").unwrap().total_cost;
    let agg_limited = db.explain_sql("SELECT COUNT(*) FROM lineitem LIMIT 10").unwrap().total_cost;
    assert!((agg - agg_limited).abs() < agg * 0.01);
}

#[test]
fn explain_text_renders_costs_and_rows() {
    let db = tpch();
    let text = db
        .explain_sql("SELECT COUNT(*) FROM orders WHERE orders.o_totalprice > 1000")
        .unwrap()
        .to_string();
    assert!(text.contains("Aggregate"), "{text}");
    assert!(text.contains("Scan"), "{text}");
    assert!(text.contains("rows="), "{text}");
    assert!(text.contains("cost=0.00.."), "{text}");
}

#[test]
fn from_order_does_not_change_estimates() {
    let db = tpch();
    let a = db
        .explain_sql("SELECT COUNT(*) FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey")
        .unwrap();
    let b = db
        .explain_sql("SELECT COUNT(*) FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey")
        .unwrap();
    assert!((a.estimated_rows - b.estimated_rows).abs() < 1e-6);
    assert!((a.total_cost - b.total_cost).abs() / a.total_cost < 0.05);
}
