//! Cost oracle.
//!
//! Definition 2.10: "The query cost type could be cardinality, execution
//! plan cost, execution time, or any user-defined one. These cost metrics
//! can be obtained by estimations from the query optimizer or by actual
//! execution." The paper's evaluation uses the optimizer estimates
//! (`EXPLAIN`); actual-execution variants are provided for completeness.

use minidb::{Database, DbError};
use sqlkit::Select;

/// Which cost metric drives generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostType {
    /// Optimizer-estimated output rows (`EXPLAIN`).
    Cardinality,
    /// Optimizer-estimated total plan cost (`EXPLAIN`).
    PlanCost,
    /// Actual row count from execution.
    ActualCardinality,
    /// Deterministic execution-time proxy in microseconds: executor work
    /// units (rows scanned, join pairs considered, records materialized)
    /// scaled by [`minidb::WORK_UNIT_MICROS`]. A pure function of the
    /// statement and the data — bit-identical across runs and machines,
    /// unlike wall-clock time.
    ExecutionTimeMicros,
}

impl CostType {
    /// Map a benchmark-level cost type (Table 1) to the oracle used in the
    /// corresponding experiment. `Both` appears in Figure 5 as cardinality
    /// and Figure 6 as plan cost; callers pick per figure.
    pub fn from_benchmark(cost_type: workload::CostType, cardinality_view: bool) -> CostType {
        match (cost_type, cardinality_view) {
            (workload::CostType::Cardinality, _) => CostType::Cardinality,
            (workload::CostType::PlanCost, _) => CostType::PlanCost,
            (workload::CostType::Both, true) => CostType::Cardinality,
            (workload::CostType::Both, false) => CostType::PlanCost,
        }
    }

    /// True when the metric requires executing the query rather than
    /// explaining it.
    pub fn requires_execution(self) -> bool {
        matches!(self, CostType::ActualCardinality | CostType::ExecutionTimeMicros)
    }
}

/// Measure the cost of an executable statement.
pub fn query_cost(db: &Database, select: &Select, cost_type: CostType) -> Result<f64, DbError> {
    match cost_type {
        CostType::Cardinality => Ok(db.explain(select)?.estimated_rows),
        CostType::PlanCost => Ok(db.explain(select)?.total_cost),
        CostType::ActualCardinality => Ok(db.execute(select)?.cardinality() as f64),
        CostType::ExecutionTimeMicros => Ok(db.execute(select)?.work_micros()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::parse_select;

    #[test]
    fn estimated_and_actual_metrics_are_available() {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let q = parse_select("SELECT * FROM lineitem WHERE lineitem.l_quantity > 25").unwrap();
        let card = query_cost(&db, &q, CostType::Cardinality).unwrap();
        let plan = query_cost(&db, &q, CostType::PlanCost).unwrap();
        let actual = query_cost(&db, &q, CostType::ActualCardinality).unwrap();
        let time = query_cost(&db, &q, CostType::ExecutionTimeMicros).unwrap();
        assert!(card > 0.0 && plan > 0.0 && actual > 0.0 && time > 0.0);
        // estimate should be in the ballpark of the truth
        assert!((card - actual).abs() / actual < 0.5, "card {card} vs {actual}");
    }

    #[test]
    fn benchmark_mapping_respects_both() {
        assert_eq!(CostType::from_benchmark(workload::CostType::Both, true), CostType::Cardinality);
        assert_eq!(CostType::from_benchmark(workload::CostType::Both, false), CostType::PlanCost);
        assert_eq!(
            CostType::from_benchmark(workload::CostType::PlanCost, true),
            CostType::PlanCost
        );
        assert!(CostType::ExecutionTimeMicros.requires_execution());
        assert!(!CostType::Cardinality.requires_execution());
    }
}
