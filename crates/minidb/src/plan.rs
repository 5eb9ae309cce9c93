//! Physical plan representation.
//!
//! The planner lowers a [`sqlkit::Select`] into a left-deep tree of
//! [`PlanNode`]s with estimated row counts and cumulative costs attached.
//! `EXPLAIN` renders this tree; the executor interprets it.

use sqlkit::Expr;

/// A physical operator.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Sequential scan of a base table with an optional pushed-down filter.
    SeqScan {
        /// Base table name.
        table: String,
        /// Binding (alias) the scan's columns are exposed under.
        binding: String,
        /// Conjunction of pushed-down single-table predicates.
        filter: Option<Expr>,
    },
    /// B-tree index range scan. The probe bounds come from one indexable
    /// conjunct; the full pushed-down filter is re-applied to the fetched
    /// rows, so inclusive bounds are always safe.
    IndexScan {
        table: String,
        binding: String,
        /// Indexed column driving the probe.
        column: String,
        /// Inclusive lower probe bound.
        lo: Option<f64>,
        /// Inclusive upper probe bound.
        hi: Option<f64>,
        /// Full pushed-down filter (including the probe conjunct).
        filter: Option<Expr>,
    },
    /// Hash join on one equi-key pair, with an optional residual predicate
    /// applied to joined rows. Keys are `(binding, column)` pairs.
    HashJoin { left_key: (String, String), right_key: (String, String), residual: Option<Expr> },
    /// Nested-loop join with optional non-equi condition (cross join when
    /// `None`).
    NestedLoop { condition: Option<Expr> },
    /// Post-join filter (residual `WHERE` conjuncts spanning several
    /// tables without an equi-key, and `HAVING`).
    Filter { predicate: Expr },
    /// Hash aggregation / grouping. Projection details live in the source
    /// `Select`; the node carries what costing needs.
    Aggregate {
        /// Number of grouping expressions.
        group_exprs: usize,
        /// Number of aggregate function calls.
        aggregates: usize,
    },
    /// Hash-based duplicate removal (`SELECT DISTINCT`).
    Distinct,
    /// Comparison sort (`ORDER BY`).
    Sort,
    /// Row-count limit.
    Limit(u64),
    /// Final projection (always the root unless aggregation subsumes it).
    Projection,
}

/// A plan node annotated with optimizer estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    pub kind: NodeKind,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Cumulative cost of this node and its subtree.
    pub total_cost: f64,
    /// Child operators (0 for scans, 1 for unary, 2 for joins).
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// Operator name as shown by `EXPLAIN`.
    pub fn label(&self) -> String {
        match &self.kind {
            NodeKind::SeqScan { table, binding, .. } => {
                if table == binding {
                    format!("Seq Scan on {table}")
                } else {
                    format!("Seq Scan on {table} {binding}")
                }
            }
            NodeKind::IndexScan { table, binding, column, .. } => {
                if table == binding {
                    format!("Index Scan using {table}_{column}_idx on {table}")
                } else {
                    format!("Index Scan using {table}_{column}_idx on {table} {binding}")
                }
            }
            NodeKind::HashJoin { left_key, right_key, .. } => format!(
                "Hash Join ({}.{} = {}.{})",
                left_key.0, left_key.1, right_key.0, right_key.1
            ),
            NodeKind::NestedLoop { condition } => {
                if condition.is_some() {
                    "Nested Loop".into()
                } else {
                    "Nested Loop (cross)".into()
                }
            }
            NodeKind::Filter { .. } => "Filter".into(),
            NodeKind::Aggregate { group_exprs, .. } => {
                if *group_exprs == 0 {
                    "Aggregate".into()
                } else {
                    "HashAggregate".into()
                }
            }
            NodeKind::Distinct => "Unique".into(),
            NodeKind::Sort => "Sort".into(),
            NodeKind::Limit(n) => format!("Limit {n}"),
            NodeKind::Projection => "Projection".into(),
        }
    }

    /// Depth-first count of nodes (used in tests and plan-shape metrics).
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(PlanNode::node_count).sum::<usize>()
    }

    /// Number of scan leaves.
    pub fn scan_count(&self) -> usize {
        match self.kind {
            NodeKind::SeqScan { .. } | NodeKind::IndexScan { .. } => 1,
            _ => self.children.iter().map(PlanNode::scan_count).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(table: &str) -> PlanNode {
        PlanNode {
            kind: NodeKind::SeqScan { table: table.into(), binding: table.into(), filter: None },
            est_rows: 10.0,
            total_cost: 1.0,
            children: vec![],
        }
    }

    #[test]
    fn labels_match_explain_conventions() {
        assert_eq!(scan("t").label(), "Seq Scan on t");
        let aliased = PlanNode {
            kind: NodeKind::SeqScan { table: "t".into(), binding: "x".into(), filter: None },
            est_rows: 0.0,
            total_cost: 0.0,
            children: vec![],
        };
        assert_eq!(aliased.label(), "Seq Scan on t x");
    }

    #[test]
    fn node_and_scan_counts() {
        let join = PlanNode {
            kind: NodeKind::HashJoin {
                left_key: ("a".into(), "x".into()),
                right_key: ("b".into(), "y".into()),
                residual: None,
            },
            est_rows: 5.0,
            total_cost: 2.0,
            children: vec![scan("a"), scan("b")],
        };
        assert_eq!(join.node_count(), 3);
        assert_eq!(join.scan_count(), 2);
    }
}
