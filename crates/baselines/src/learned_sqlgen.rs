//! LearnedSQLGen baseline (Zhang et al., SIGMOD 2022).
//!
//! Constraint-aware SQL generation with reinforcement learning: an agent
//! repeatedly instantiates templates and adjusts predicate values, getting
//! rewarded for landing in the target cost range. The published system
//! trains neural policies on GPUs; this reimplementation uses tabular
//! Q-learning over a discretized cost-ratio state space, which preserves
//! the algorithm's defining property for the paper's comparison — it
//! "requires a large number of samples … to capture the relationship
//! among query cost, SQL templates, and predicate values" (§6.2).

use crate::common::{
    accept_costed, evaluate, schedule_interval, Acceptance, BaselineConfig, BaselineReport,
    PooledTemplate, Probe,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlbarber::bo_search::interval_objective;
use sqlbarber::cost::CostType;
use sqlbarber::oracle::{CostOracle, PreparedHandle};
use std::collections::HashMap;
use std::time::Instant;
use workload::TargetDistribution;

/// Q-learning hyperparameters.
const ALPHA: f64 = 0.3;
const GAMMA: f64 = 0.9;
const EPSILON: f64 = 0.2;
const MAX_EPISODE_STEPS: usize = 25;

/// Predicate-adjustment actions on the unit hypercube.
const ACTIONS: [f64; 4] = [0.2, 0.05, -0.05, -0.2];

/// The LearnedSQLGen generator.
pub struct LearnedSqlGen {
    config: BaselineConfig,
    pool: Vec<PooledTemplate>,
    rng: StdRng,
    /// Q[(template, state, action)].
    q_table: HashMap<(usize, i8, usize), f64>,
    /// Running value of each template for the current interval (used for
    /// ε-greedy template selection).
    template_value: Vec<f64>,
}

impl LearnedSqlGen {
    /// New generator over a template pool.
    pub fn new(config: BaselineConfig, pool: Vec<PooledTemplate>) -> LearnedSqlGen {
        let rng = StdRng::seed_from_u64(config.seed ^ 0x51_0a9e);
        let template_value = vec![0.0; pool.len()];
        LearnedSqlGen { config, pool, rng, q_table: HashMap::new(), template_value }
    }

    /// Discretized state: log₂ of the cost-to-interval-center ratio,
    /// clamped to [-4, 4]; `i8::MIN` for failed evaluations.
    fn state_of(cost: f64, center: f64) -> i8 {
        if cost <= 0.0 || center <= 0.0 {
            return 0;
        }
        (cost / center).log2().clamp(-4.0, 4.0).round() as i8
    }

    fn best_action(&self, template: usize, state: i8) -> (usize, f64) {
        let mut best = (0usize, f64::NEG_INFINITY);
        for action in 0..ACTIONS.len() {
            let q = *self.q_table.get(&(template, state, action)).unwrap_or(&0.0);
            if q > best.1 {
                best = (action, q);
            }
        }
        best
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
            let center = (lo + hi) / 2.0;
            let mut budget = self.config.evals_per_interval;
            self.template_value.iter_mut().for_each(|v| *v = 0.0);

            while budget > 0 && acceptance.deficit(j) > 0.0 {
                // ε-greedy template selection by learned value.
                let template_idx = if self.rng.gen::<f64>() < EPSILON {
                    self.rng.gen_range(0..self.pool.len())
                } else {
                    self.template_value
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(idx, _)| idx)
                        .unwrap_or(0)
                };
                let arity = self.pool[template_idx].space.arity();
                let mut point: Vec<f64> =
                    (0..arity.max(1)).map(|_| self.rng.gen::<f64>()).collect();
                if arity == 0 {
                    point.clear();
                }

                // One episode.
                let mut episode_reward = 0.0;
                let mut previous: Option<(i8, usize)> = None;
                for _step in 0..MAX_EPISODE_STEPS {
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
                    let reward = 1.0 - interval_objective(cost, lo, hi);
                    episode_reward += reward;
                    let state = Self::state_of(cost, center);

                    // Q-update for the transition that led here.
                    if let Some((prev_state, prev_action)) = previous {
                        let (_, future) = self.best_action(template_idx, state);
                        let entry = self
                            .q_table
                            .entry((template_idx, prev_state, prev_action))
                            .or_insert(0.0);
                        *entry += ALPHA * (reward + GAMMA * future - *entry);
                    }

                    if reward >= 1.0 {
                        // In the interval: jitter to harvest distinct
                        // conforming queries, episode keeps going.
                        if arity > 0 {
                            let dim = self.rng.gen_range(0..arity);
                            point[dim] = (point[dim]
                                + self.rng.gen_range(-0.04..0.04))
                            .clamp(0.0, 1.0);
                        } else {
                            break;
                        }
                        previous = None;
                        continue;
                    }
                    if arity == 0 {
                        break; // nothing to adjust
                    }

                    // Choose the next adjustment ε-greedily.
                    let action = if self.rng.gen::<f64>() < EPSILON {
                        self.rng.gen_range(0..ACTIONS.len())
                    } else {
                        self.best_action(template_idx, state).0
                    };
                    let dim = self.rng.gen_range(0..arity);
                    point[dim] = (point[dim] + ACTIONS[action]).clamp(0.0, 1.0);
                    previous = Some((state, action));
                }
                self.template_value[template_idx] = 0.8
                    * self.template_value[template_idx]
                    + 0.2 * episode_reward / MAX_EPISODE_STEPS as f64;
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

    #[test]
    fn rl_fills_reachable_intervals_with_many_samples() {
        let db = tpch();
        let mut rng = StdRng::seed_from_u64(6);
        let seeds = vec![parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1}",
        )
        .unwrap()];
        let pool = mutate_template_pool(&db, &seeds, 20, &mut rng);
        let target = TargetDistribution::uniform(
            CostIntervals::new(0.0, 6000.0, 3),
            24,
        );
        let oracle = CostOracle::new(&db, 1);
        let mut agent = LearnedSqlGen::new(
            BaselineConfig { evals_per_interval: 1500, ..Default::default() },
            pool,
        );
        let report = agent.generate(&oracle, &target, CostType::Cardinality);
        let filled: f64 = report.distribution.iter().sum();
        assert!(filled >= 16.0, "filled {filled} — d {:?}", report.distribution);
        assert!(report.evaluations > 50);
    }

    #[test]
    fn state_discretization_is_bounded() {
        assert_eq!(LearnedSqlGen::state_of(100.0, 100.0), 0);
        assert_eq!(LearnedSqlGen::state_of(400.0, 100.0), 2);
        assert_eq!(LearnedSqlGen::state_of(1e9, 100.0), 4);
        assert_eq!(LearnedSqlGen::state_of(0.001, 100.0), -4);
        assert_eq!(LearnedSqlGen::state_of(0.0, 100.0), 0);
    }

    #[test]
    fn q_table_learns_something() {
        let db = tpch();
        let mut rng = StdRng::seed_from_u64(9);
        let seeds = vec![parse_template(
            "SELECT o.o_orderkey FROM orders AS o WHERE o.o_totalprice > {p_1}",
        )
        .unwrap()];
        let pool = mutate_template_pool(&db, &seeds, 10, &mut rng);
        let target = TargetDistribution::uniform(
            CostIntervals::new(0.0, 1500.0, 3),
            12,
        );
        let oracle = CostOracle::new(&db, 1);
        let mut agent = LearnedSqlGen::new(
            BaselineConfig { evals_per_interval: 600, ..Default::default() },
            pool,
        );
        agent.generate(&oracle, &target, CostType::Cardinality);
        assert!(!agent.q_table.is_empty(), "no Q updates happened");
        assert!(agent.q_table.values().any(|&q| q != 0.0));
    }
}
