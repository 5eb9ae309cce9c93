//! HillClimbing baseline (Bruno, Chaudhuri & Thomas, TKDE 2006).
//!
//! Takes a fixed pool of SQL templates and, per cost interval, greedily
//! tweaks predicate values: from a random starting assignment, one
//! dimension at a time is nudged in the direction that reduces the
//! distance between the query's cost and the target interval, with the
//! step size halving after failed moves (the paper's "heuristics to
//! greedily tweak the predicate values"). The method's ceiling is the
//! input pool: it can neither create templates for uncovered cost ranges
//! nor reason across intervals — the limitation §6.2 surfaces.

use crate::common::{
    accept_costed, evaluate, schedule_interval, Acceptance, BaselineConfig, BaselineReport,
    PooledTemplate, Probe,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlbarber::bo_search::interval_objective;
use sqlbarber::cost::CostType;
use sqlbarber::oracle::{CostOracle, PreparedHandle};
use std::time::Instant;
use workload::TargetDistribution;

/// Maximum hill-climbing steps per episode before restarting.
const MAX_STEPS: usize = 30;

/// The HillClimbing generator.
pub struct HillClimbing {
    config: BaselineConfig,
    pool: Vec<PooledTemplate>,
    rng: StdRng,
}

impl HillClimbing {
    /// New generator over a prepared template pool (see
    /// [`crate::common::mutate_template_pool`]).
    pub fn new(config: BaselineConfig, pool: Vec<PooledTemplate>) -> HillClimbing {
        let rng = StdRng::seed_from_u64(config.seed);
        HillClimbing { config, pool, rng }
    }

    /// Generate a workload toward the target distribution.
    pub fn generate(
        &mut self,
        oracle: &CostOracle,
        target: &TargetDistribution,
        cost_type: CostType,
    ) -> BaselineReport {
        // detlint::allow(ambient_nondet): baseline wall-time is reporting-only
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let mut acceptance = Acceptance::new(target);
        let mut report = BaselineReport::default();
        if self.pool.is_empty() {
            report.final_distance = acceptance.distance();
            report.distribution = acceptance.d.clone();
            return report;
        }

        // Plan every pool template once up front; each probe afterwards
        // only re-costs the cached skeleton for its bindings.
        let prepared: Vec<Option<PreparedHandle>> =
            self.pool.iter().map(|e| oracle.prepare(&e.template).ok()).collect();
        let mut probe = Probe::default();

        let iterations = self.config.iterations.unwrap_or(target.intervals.count);
        for round in 0..iterations {
            let j = schedule_interval(self.config.scheduling, round, &acceptance);
            acceptance.restrict_to = Some(j);
            let (lo, hi) = target.intervals.bounds(j);
            let mut budget = self.config.evals_per_interval;

            while budget > 0 && acceptance.deficit(j) > 0.0 {
                // One greedy episode on a random template.
                let template_idx = self.rng.gen_range(0..self.pool.len());
                let arity = self.pool[template_idx].space.arity();
                if arity == 0 {
                    // ground template: single evaluation
                    let entry = &self.pool[template_idx];
                    budget = budget.saturating_sub(1);
                    if let Some(cost) = evaluate(
                        oracle,
                        entry,
                        prepared[template_idx].as_ref(),
                        &[],
                        cost_type,
                        &mut probe,
                    ) {
                        report.evaluations += 1;
                        accept_costed(&mut acceptance, entry, &probe, cost);
                    }
                    continue;
                }

                let mut point: Vec<f64> =
                    (0..arity).map(|_| self.rng.gen::<f64>()).collect();
                let mut step = 0.25;
                let mut best = f64::INFINITY;
                for _ in 0..MAX_STEPS {
                    if budget == 0 {
                        break;
                    }
                    budget -= 1;
                    report.evaluations += 1;
                    let entry = &self.pool[template_idx];
                    let Some(cost) = evaluate(
                        oracle,
                        entry,
                        prepared[template_idx].as_ref(),
                        &point,
                        cost_type,
                        &mut probe,
                    ) else {
                        break;
                    };
                    accept_costed(&mut acceptance, entry, &probe, cost);
                    let objective = interval_objective(cost, lo, hi);
                    if objective == 0.0 {
                        // Inside the interval: restart nearby to harvest
                        // more distinct conforming queries.
                        let dim = self.rng.gen_range(0..arity);
                        point[dim] =
                            (point[dim] + self.rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0);
                        continue;
                    }
                    if objective < best {
                        best = objective;
                    } else {
                        step /= 2.0;
                        if step < 1e-3 {
                            break; // converged away from the interval
                        }
                    }
                    // Greedy move on one dimension.
                    let dim = self.rng.gen_range(0..arity);
                    let direction = if self.rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    point[dim] = (point[dim] + direction * step).clamp(0.0, 1.0);
                }
                report
                    .distance_series
                    .push((start.elapsed().as_secs_f64(), acceptance.distance()));
            }
        }

        report.final_distance = acceptance.distance();
        report.distribution = acceptance.d.clone();
        report.queries = acceptance.queries;
        report.elapsed = start.elapsed();
        report
            .distance_series
            .push((report.elapsed.as_secs_f64(), report.final_distance));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::mutate_template_pool;
    use minidb::Database;
    use sqlkit::parse_template;
    use workload::CostIntervals;

    fn tpch() -> Database {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    }

    fn seed_pool(db: &Database, rng: &mut StdRng) -> Vec<PooledTemplate> {
        let seeds = vec![
            parse_template(
                "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1}",
            )
            .unwrap(),
            parse_template(
                "SELECT o.o_orderkey FROM orders AS o WHERE o.o_totalprice > {p_1}",
            )
            .unwrap(),
        ];
        mutate_template_pool(db, &seeds, 30, rng)
    }

    #[test]
    fn fills_easy_intervals_but_is_eval_hungry() {
        let db = tpch();
        let mut rng = StdRng::seed_from_u64(3);
        let pool = seed_pool(&db, &mut rng);
        let target = TargetDistribution::uniform(
            CostIntervals::new(0.0, 6000.0, 3),
            30,
        );
        let oracle = CostOracle::new(&db, 1);
        let mut hc = HillClimbing::new(
            BaselineConfig { evals_per_interval: 1500, ..Default::default() },
            pool,
        );
        let report = hc.generate(&oracle, &target, CostType::Cardinality);
        let filled: f64 = report.distribution.iter().sum();
        assert!(filled >= 20.0, "filled {filled} — d {:?}", report.distribution);
        assert!(report.evaluations > 100, "suspiciously cheap: {}", report.evaluations);
        // distance never increases along the series
        let distances: Vec<f64> = report.distance_series.iter().map(|p| p.1).collect();
        assert!(distances.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    }

    #[test]
    fn order_and_priority_differ_in_behaviour() {
        let db = tpch();
        let mut rng = StdRng::seed_from_u64(4);
        let pool = seed_pool(&db, &mut rng);
        let target = TargetDistribution::uniform(
            CostIntervals::new(0.0, 6000.0, 3),
            60,
        );
        let run = |scheduling| {
            let mut hc = HillClimbing::new(
                BaselineConfig {
                    evals_per_interval: 400,
                    scheduling,
                    iterations: Some(2), // fewer rounds than intervals
                    ..Default::default()
                },
                seed_pool(&db, &mut StdRng::seed_from_u64(4)),
            );
            let oracle = CostOracle::new(&db, 1);
            hc.generate(&oracle, &target, CostType::Cardinality)
        };
        let order = run(crate::Scheduling::Order);
        let priority = run(crate::Scheduling::Priority);
        // The two heuristics walk different interval sequences, so the
        // accepted query streams differ even when both eventually fill
        // every interval opportunistically.
        assert_ne!(order.queries, priority.queries);
        assert!(order.final_distance >= 0.0 && priority.final_distance >= 0.0);
        let _ = pool;
    }

    #[test]
    fn empty_pool_returns_gracefully() {
        let db = tpch();
        let target =
            TargetDistribution::uniform(CostIntervals::paper_default(5), 10);
        let oracle = CostOracle::new(&db, 1);
        let mut hc = HillClimbing::new(BaselineConfig::default(), Vec::new());
        let report = hc.generate(&oracle, &target, CostType::Cardinality);
        assert!(report.queries.is_empty());
        assert!(report.final_distance > 0.0);
    }
}
