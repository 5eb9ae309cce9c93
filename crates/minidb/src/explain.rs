//! `EXPLAIN` output.
//!
//! The paper's cost-aware query generator consumes exactly two numbers per
//! query (§5.1): the optimizer's **estimated cardinality** and the
//! **execution plan cost**. [`Explain`] carries both plus the full plan
//! tree for display and debugging.

use crate::plan::PlanNode;
use std::fmt;

/// Result of explaining a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// Estimated rows produced by the query (the optimizer's cardinality
    /// estimate — the "Cardinality" cost type of the paper's benchmarks).
    pub estimated_rows: f64,
    /// Total plan cost at the root (the "Cost" cost type).
    pub total_cost: f64,
    /// The physical plan.
    pub plan: PlanNode,
}

impl Explain {
    /// Build from a planned root node.
    pub fn from_plan(plan: PlanNode) -> Explain {
        Explain { estimated_rows: plan.est_rows, total_cost: plan.total_cost, plan }
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn render(node: &PlanNode, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let indent = "  ".repeat(depth);
            let arrow = if depth == 0 { "" } else { "->  " };
            writeln!(
                f,
                "{indent}{arrow}{}  (cost=0.00..{:.2} rows={})",
                node.label(),
                node.total_cost,
                node.est_rows.round().max(0.0) as u64
            )?;
            for child in &node.children {
                render(child, depth + 1, f)?;
            }
            Ok(())
        }
        render(&self.plan, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NodeKind;

    #[test]
    fn display_renders_a_tree() {
        let plan = PlanNode {
            kind: NodeKind::Projection,
            est_rows: 3.4,
            total_cost: 12.5,
            children: vec![PlanNode {
                kind: NodeKind::SeqScan { table: "t".into(), binding: "t".into(), filter: None },
                est_rows: 3.4,
                total_cost: 10.0,
                children: vec![],
            }],
        };
        let text = Explain::from_plan(plan).to_string();
        assert!(text.contains("Projection  (cost=0.00..12.50 rows=3)"));
        assert!(text.contains("->  Seq Scan on t"));
    }
}
