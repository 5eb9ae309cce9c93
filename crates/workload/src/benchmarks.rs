//! The ten benchmarks of Table 1.
//!
//! Each benchmark is characterized by its statistics source, target
//! distribution shape, cost type, number of queries, and number of
//! intervals — exactly the columns of the paper's Table 1. The working
//! cost range is `[0, 10k]` throughout (as in the paper, following
//! LearnedSQLGen).

use crate::distribution::TargetDistribution;
use crate::intervals::CostIntervals;

/// Where the benchmark's target statistics come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Synthetic,
    Snowflake,
    Redshift,
}

impl Source {
    /// Table-1 label.
    pub fn label(self) -> &'static str {
        match self {
            Source::Synthetic => "Synthetic",
            Source::Snowflake => "Snowflake",
            Source::Redshift => "Redshift",
        }
    }
}

/// The optimized cost metric.
///
/// The paper's Table 1 lists "Cardinality", "Execution Time", or "Both";
/// per §6.1 both metrics are read from the query optimizer via `EXPLAIN`
/// (estimated rows / execution plan cost), which is what this repository
/// does as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostType {
    /// Estimated output rows.
    Cardinality,
    /// Estimated execution plan cost (the "Execution Time" benchmarks).
    PlanCost,
    /// Evaluated under both metrics (the synthetic benchmarks).
    Both,
}

impl CostType {
    /// Table-1 label.
    pub fn label(self) -> &'static str {
        match self {
            CostType::Cardinality => "Cardinality",
            CostType::PlanCost => "Execution Time",
            CostType::Both => "Both",
        }
    }
}

/// Difficulty class (the paper classifies by query count and interval
/// count: 1000/10 = Medium, 2000/20 = Hard; synthetic = baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Difficulty {
    Synthetic,
    Medium,
    Hard,
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    pub name: &'static str,
    pub source: Source,
    pub cost_type: CostType,
    pub difficulty: Difficulty,
    pub n_queries: usize,
    pub n_intervals: usize,
}

impl Benchmark {
    /// Materialize the target distribution for this benchmark.
    pub fn target(&self) -> TargetDistribution {
        let grid = CostIntervals::paper_default(self.n_intervals);
        match self.name {
            "uniform" => TargetDistribution::uniform(grid, self.n_queries),
            "normal" => TargetDistribution::normal(grid, self.n_queries),
            "Snowset_Card_1_Medium" | "Snowset_Card_1_Hard" => {
                TargetDistribution::snowset_card_1(grid, self.n_queries)
            }
            "Snowset_Card_2_Medium" | "Snowset_Card_2_Hard" => {
                TargetDistribution::snowset_card_2(grid, self.n_queries)
            }
            "Snowset_Cost_Medium" | "Snowset_Cost_Hard" => {
                TargetDistribution::snowset_cost(grid, self.n_queries)
            }
            "Redset_Cost_Medium" | "Redset_Cost_Hard" => {
                TargetDistribution::redset_cost(grid, self.n_queries)
            }
            other => unreachable!("unknown benchmark {other}"),
        }
    }

    /// Scaled copy with different query/interval counts (the Figure-7
    /// scalability sweeps vary these two knobs).
    pub fn scaled(&self, n_queries: usize, n_intervals: usize) -> Benchmark {
        Benchmark { n_queries, n_intervals, ..self.clone() }
    }
}

/// All ten benchmarks, in Table-1 order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "uniform",
            source: Source::Synthetic,
            cost_type: CostType::Both,
            difficulty: Difficulty::Synthetic,
            n_queries: 1000,
            n_intervals: 10,
        },
        Benchmark {
            name: "normal",
            source: Source::Synthetic,
            cost_type: CostType::Both,
            difficulty: Difficulty::Synthetic,
            n_queries: 1000,
            n_intervals: 10,
        },
        Benchmark {
            name: "Snowset_Card_1_Medium",
            source: Source::Snowflake,
            cost_type: CostType::Cardinality,
            difficulty: Difficulty::Medium,
            n_queries: 1000,
            n_intervals: 10,
        },
        Benchmark {
            name: "Snowset_Card_2_Medium",
            source: Source::Snowflake,
            cost_type: CostType::Cardinality,
            difficulty: Difficulty::Medium,
            n_queries: 1000,
            n_intervals: 10,
        },
        Benchmark {
            name: "Snowset_Card_1_Hard",
            source: Source::Snowflake,
            cost_type: CostType::Cardinality,
            difficulty: Difficulty::Hard,
            n_queries: 2000,
            n_intervals: 20,
        },
        Benchmark {
            name: "Snowset_Card_2_Hard",
            source: Source::Snowflake,
            cost_type: CostType::Cardinality,
            difficulty: Difficulty::Hard,
            n_queries: 2000,
            n_intervals: 20,
        },
        Benchmark {
            name: "Snowset_Cost_Medium",
            source: Source::Snowflake,
            cost_type: CostType::PlanCost,
            difficulty: Difficulty::Medium,
            n_queries: 1000,
            n_intervals: 10,
        },
        Benchmark {
            name: "Snowset_Cost_Hard",
            source: Source::Snowflake,
            cost_type: CostType::PlanCost,
            difficulty: Difficulty::Hard,
            n_queries: 2000,
            n_intervals: 20,
        },
        Benchmark {
            name: "Redset_Cost_Medium",
            source: Source::Redshift,
            cost_type: CostType::PlanCost,
            difficulty: Difficulty::Medium,
            n_queries: 1000,
            n_intervals: 10,
        },
        Benchmark {
            name: "Redset_Cost_Hard",
            source: Source::Redshift,
            cost_type: CostType::PlanCost,
            difficulty: Difficulty::Hard,
            n_queries: 2000,
            n_intervals: 20,
        },
    ]
}

/// Look up a benchmark by its Table-1 name.
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_has_ten_rows_with_paper_parameters() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 10);
        let hard: Vec<_> = all.iter().filter(|b| b.difficulty == Difficulty::Hard).collect();
        assert_eq!(hard.len(), 4);
        assert!(hard.iter().all(|b| b.n_queries == 2000 && b.n_intervals == 20));
        let medium: Vec<_> = all.iter().filter(|b| b.difficulty == Difficulty::Medium).collect();
        assert_eq!(medium.len(), 4);
        assert!(medium.iter().all(|b| b.n_queries == 1000 && b.n_intervals == 10));
    }

    #[test]
    fn cardinality_benchmarks_come_from_snowflake_only() {
        // "Since only Snowflake provides the statistics on query
        // cardinality, all the cardinality distributions come from
        // Snowflake."
        for b in all_benchmarks() {
            if b.cost_type == CostType::Cardinality {
                assert_eq!(b.source, Source::Snowflake, "{}", b.name);
            }
        }
    }

    #[test]
    fn every_benchmark_materializes_its_target() {
        for b in all_benchmarks() {
            let t = b.target();
            assert_eq!(t.counts.len(), b.n_intervals);
            assert_eq!(t.total(), b.n_queries as f64, "{}", b.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark_by_name("Redset_Cost_Hard").is_some());
        assert!(benchmark_by_name("nonsense").is_none());
    }

    #[test]
    fn scaled_overrides_counts() {
        let b = benchmark_by_name("Redset_Cost_Hard").unwrap().scaled(500, 10);
        assert_eq!(b.n_queries, 500);
        assert_eq!(b.target().total(), 500.0);
    }
}
