//! Template profiling via strategic sampling (§5.1).
//!
//! Each seed template is instantiated at Latin-Hypercube-sampled predicate
//! values and costed on the DBMS (`EXPLAIN` by default). The resulting
//! cost vectors tell the pipeline which cost ranges each template can
//! reach; the raw evaluations are retained to warm-start the Bayesian
//! optimizer (§5.3's history reuse).

use crate::cost::CostType;
use crate::oracle::{ColumnarScratch, CostOracle};
use crate::sampler::PlaceholderSpace;
use bayesopt::parallel::{parallel_map, split_seed};
use bayesopt::{latin_hypercube, Evaluation};
use minidb::BindingBatch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlkit::Template;

/// A template with its search space and profiling results — the `(T_i,
/// C_i)` pairs of the paper's `P`.
#[derive(Debug, Clone)]
pub struct ProfiledTemplate {
    pub template: Template,
    pub space: PlaceholderSpace,
    /// Observed costs (finite values only; failed instantiations are
    /// dropped, as a failed probe contributes no cost observation).
    pub costs: Vec<f64>,
    /// `(unit point, cost)` pairs for BO warm-starting.
    pub evaluations: Vec<Evaluation>,
    /// Points consumed from the search space so far (Algorithm 3's `R`
    /// bookkeeping subtracts this from the space size).
    pub consumed: f64,
}

impl ProfiledTemplate {
    /// Variety factor `v_i = |unique(C_i)| / |C_i|` (Eq. 2) — penalizes
    /// templates whose cost barely responds to predicate values.
    pub fn variety(&self) -> f64 {
        if self.costs.is_empty() {
            return 0.0;
        }
        let mut keys: Vec<i64> = self.costs.iter().map(|c| (c * 1e6) as i64).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len() as f64 / self.costs.len() as f64
    }

    /// Closeness `s_ij` of this template to interval `[lo, hi)` (Eq. 2–3).
    pub fn closeness(&self, lo: f64, hi: f64) -> f64 {
        if self.costs.is_empty() {
            return 0.0;
        }
        let mean_distance = self
            .costs
            .iter()
            .map(|&c| {
                if c < lo {
                    lo - c
                } else if c > hi {
                    c - hi
                } else {
                    0.0
                }
            })
            .sum::<f64>()
            / self.costs.len() as f64;
        (1.0 / (1.0 + mean_distance)) * self.variety()
    }

    /// Remaining search-space size (never below zero).
    pub fn remaining_space(&self) -> f64 {
        (self.space.size() - self.consumed).max(0.0)
    }

    /// Median observed cost (0 when unprofiled).
    pub fn median_cost(&self) -> f64 {
        if self.costs.is_empty() {
            return 0.0;
        }
        let mut sorted = self.costs.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    }

    /// Serialize for a checkpoint. The placeholder space is *not* stored:
    /// it is a pure function of template + schema and is rebuilt by
    /// [`ProfiledTemplate::from_state`].
    pub fn to_state(&self) -> crate::snapshot::ProfiledState {
        crate::snapshot::ProfiledState {
            sql: self.template.sql(),
            costs: self.costs.clone(),
            evaluations: self
                .evaluations
                .iter()
                .map(|e| (e.point.clone(), e.value))
                .collect(),
            consumed: self.consumed,
        }
    }

    /// Rebuild from a checkpoint: re-parse the template and re-derive its
    /// placeholder space from `db`. Errors if the stored SQL no longer
    /// parses (snapshot from an incompatible build) or an evaluation
    /// point does not have one coordinate per dimension of that space.
    pub fn from_state(
        db: &minidb::Database,
        state: &crate::snapshot::ProfiledState,
    ) -> Result<ProfiledTemplate, String> {
        let template = sqlkit::parse_template(&state.sql)
            .map_err(|e| format!("snapshot template no longer parses: {e} ({})", state.sql))?;
        let space = PlaceholderSpace::build(db, &template);
        if let Some((point, _)) =
            state.evaluations.iter().find(|(point, _)| point.len() != space.arity())
        {
            return Err(format!(
                "snapshot evaluation point has {} coordinates, but the space of {} has {}",
                point.len(),
                state.sql,
                space.arity()
            ));
        }
        Ok(ProfiledTemplate {
            template,
            space,
            costs: state.costs.clone(),
            evaluations: state
                .evaluations
                .iter()
                .map(|(point, value)| Evaluation { point: point.clone(), value: *value })
                .collect(),
            consumed: state.consumed,
        })
    }
}

/// Profile one template with `n_samples` LHS-sampled instantiations,
/// costed as one oracle batch on a single worker ([`profile_batch`] fans
/// templates out over the thread budget instead). Costing goes through
/// the oracle's memo cache; a cache hit still counts toward `consumed`
/// (the probe was logically spent). A template that fails
/// [`CostOracle::prepare`] is charged its whole design but issues no
/// probe, leaving `costs` empty.
pub fn profile_template(
    oracle: &CostOracle,
    template: Template,
    cost_type: CostType,
    n_samples: usize,
    rng: &mut StdRng,
) -> ProfiledTemplate {
    let space = PlaceholderSpace::build(oracle.db(), &template);
    let mut profiled = ProfiledTemplate {
        template,
        space,
        costs: Vec::with_capacity(n_samples),
        evaluations: Vec::with_capacity(n_samples),
        consumed: 0.0,
    };
    // A ground template has exactly one instantiation.
    let n = if profiled.space.arity() == 0 { 1 } else { n_samples.max(1) };
    let points = latin_hypercube(n, profiled.space.arity(), rng);
    profiled.consumed = points.len() as f64;
    let Ok(handle) = oracle.prepare(&profiled.template) else { return profiled };
    let mut batch = BindingBatch::default();
    profiled.space.decode_batch(&points, &mut batch);
    let mut scratch = ColumnarScratch::new();
    let costs = oracle.cost_prepared_batch_columnar_on(1, &handle, &batch, cost_type, &mut scratch);
    for (point, cost) in points.into_iter().zip(costs) {
        let &Ok(cost) = cost else { continue };
        if cost.is_finite() {
            profiled.costs.push(cost);
            profiled.evaluations.push(Evaluation { point, value: cost });
        }
    }
    profiled
}

/// Profile a batch, spending `fraction` of the total query budget on
/// profiling, split evenly (the paper keeps overhead low by profiling with
/// ~15% of the number of queries to generate).
///
/// Templates are independent, so they fan out across the oracle's worker
/// threads; each gets its own RNG seeded from `(seed, template index)`
/// and results are merged in input order, so the output is identical at
/// any thread count.
pub fn profile_batch(
    oracle: &CostOracle,
    templates: Vec<Template>,
    cost_type: CostType,
    total_queries: usize,
    fraction: f64,
    seed: u64,
) -> Vec<ProfiledTemplate> {
    if templates.is_empty() {
        return Vec::new();
    }
    let budget = ((total_queries as f64 * fraction) as usize).max(templates.len());
    let per_template = (budget / templates.len()).max(3);
    parallel_map(oracle.threads(), &templates, |i, template| {
        let mut rng = StdRng::seed_from_u64(split_seed(seed, i as u64));
        profile_template(oracle, template.clone(), cost_type, per_template, &mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::Database;
    use sqlkit::parse_template;

    fn tpch() -> Database {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    }

    #[test]
    fn profiling_produces_varied_costs() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let template = parse_template(
            "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_extendedprice > {p_1}",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let profiled =
            profile_template(&oracle, template, CostType::PlanCost, 20, &mut rng);
        assert_eq!(profiled.costs.len(), 20);
        assert!(profiled.variety() > 0.5, "variety {}", profiled.variety());
        assert_eq!(profiled.consumed, 20.0);
    }

    #[test]
    fn batch_costs_equal_scalar_costs_point_by_point() {
        // Each profiled cost must be what planning (or executing) the
        // rendered statement from scratch reports for that design point.
        let db = tpch();
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_extendedprice > {p_1} AND l.l_quantity <= {p_2}",
        )
        .unwrap();
        for cost_type in [CostType::Cardinality, CostType::PlanCost, CostType::ActualCardinality]
        {
            let oracle = CostOracle::new(&db, 2);
            let mut rng = StdRng::seed_from_u64(11);
            let profiled = profile_template(&oracle, template.clone(), cost_type, 24, &mut rng);
            assert_eq!(profiled.evaluations.len(), 24, "{cost_type:?}");
            let mut batch = BindingBatch::default();
            profiled.space.decode_batch(profiled.evaluations.iter().map(|e| &e.point), &mut batch);
            for (row, evaluation) in profiled.evaluations.iter().enumerate() {
                let query = template.instantiate(batch.row(row)).unwrap();
                let scalar = crate::cost::query_cost(&db, &query, cost_type).unwrap();
                assert_eq!(evaluation.value.to_bits(), scalar.to_bits(), "{cost_type:?}: {query}");
            }
        }
    }

    #[test]
    fn unpreparable_template_is_charged_but_never_probed() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let template = parse_template("SELECT * FROM ghosts WHERE ghosts.g > {p_1}").unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let profiled = profile_template(&oracle, template, CostType::PlanCost, 9, &mut rng);
        assert!(profiled.costs.is_empty());
        assert!(profiled.evaluations.is_empty());
        assert_eq!(profiled.consumed, 9.0);
        assert_eq!(oracle.stats().logical_probes, 0);
    }

    #[test]
    fn cardinality_profiles_span_a_range() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1}",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let profiled =
            profile_template(&oracle, template, CostType::Cardinality, 30, &mut rng);
        let min = profiled.costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = profiled.costs.iter().cloned().fold(0.0, f64::max);
        // The widened bounds should reach (near-)empty and (near-)full.
        assert!(min < 600.0, "min {min}");
        assert!(max > 4_000.0, "max {max}");
    }

    #[test]
    fn closeness_prefers_templates_near_the_interval() {
        let near = ProfiledTemplate {
            template: parse_template("SELECT * FROM t").unwrap(),
            space: PlaceholderSpace { dims: vec![], space: Default::default() },
            costs: vec![1000.0, 1100.0, 1200.0],
            evaluations: vec![],
            consumed: 3.0,
        };
        let far = ProfiledTemplate { costs: vec![9000.0, 9100.0, 9300.0], ..near.clone() };
        let lo = 900.0;
        let hi = 1300.0;
        assert!(near.closeness(lo, hi) > far.closeness(lo, hi));
        // inside-interval costs give the max closeness = variety
        assert!((near.closeness(lo, hi) - near.variety()).abs() < 1e-12);
    }

    #[test]
    fn constant_cost_template_has_low_variety() {
        let flat = ProfiledTemplate {
            template: parse_template("SELECT * FROM t").unwrap(),
            space: PlaceholderSpace { dims: vec![], space: Default::default() },
            costs: vec![500.0; 10],
            evaluations: vec![],
            consumed: 10.0,
        };
        assert!((flat.variety() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ground_template_profiles_once() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let template = parse_template("SELECT COUNT(*) FROM nation").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let profiled =
            profile_template(&oracle, template, CostType::PlanCost, 15, &mut rng);
        assert_eq!(profiled.costs.len(), 1);
    }

    #[test]
    fn batch_splits_budget() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let templates = vec![
            parse_template("SELECT * FROM orders WHERE orders.o_totalprice > {p_1}").unwrap(),
            parse_template("SELECT * FROM customer WHERE customer.c_acctbal > {p_1}").unwrap(),
        ];
        let batch =
            profile_batch(&oracle, templates, CostType::PlanCost, 100, 0.15, 4);
        assert_eq!(batch.len(), 2);
        // 15 total / 2 templates ≈ 7 each
        assert!(batch.iter().all(|p| (5..=9).contains(&p.costs.len())));
    }

    #[test]
    fn batch_is_identical_at_any_thread_count() {
        let db = tpch();
        let templates = || {
            vec![
                parse_template("SELECT * FROM orders WHERE orders.o_totalprice > {p_1}")
                    .unwrap(),
                parse_template("SELECT * FROM customer WHERE customer.c_acctbal > {p_1}")
                    .unwrap(),
                parse_template(
                    "SELECT l.l_orderkey FROM lineitem AS l \
                     WHERE l.l_extendedprice > {p_1}",
                )
                .unwrap(),
                parse_template("SELECT COUNT(*) FROM nation").unwrap(),
            ]
        };
        let run = |threads: usize| {
            let oracle = CostOracle::new(&db, threads);
            let batch =
                profile_batch(&oracle, templates(), CostType::Cardinality, 200, 0.15, 99);
            let flat: Vec<(Vec<u64>, f64)> = batch
                .iter()
                .map(|p| {
                    (p.costs.iter().map(|c| c.to_bits()).collect(), p.consumed)
                })
                .collect();
            (flat, oracle.stats())
        };
        let (serial, serial_stats) = run(1);
        let (parallel, parallel_stats) = run(4);
        assert_eq!(serial, parallel);
        assert_eq!(serial_stats, parallel_stats);
    }

    #[test]
    fn cache_hits_still_count_as_consumed_probes() {
        // Profiling the same template twice through one oracle: the
        // second pass answers from the memo cache, but `consumed` (the
        // paper's logical evaluation budget) must not shrink — only the
        // physical-eval count stays flat.
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let template = parse_template(
            "SELECT * FROM orders WHERE orders.o_totalprice > {p_1}",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let first =
            profile_template(&oracle, template.clone(), CostType::PlanCost, 12, &mut rng);
        let physical_after_first = oracle.stats().physical_evals;
        let mut rng = StdRng::seed_from_u64(7); // same points again
        let second =
            profile_template(&oracle, template, CostType::PlanCost, 12, &mut rng);
        assert_eq!(first.consumed, second.consumed, "hits must not deflate consumed");
        assert_eq!(second.consumed, 12.0);
        let stats = oracle.stats();
        assert_eq!(
            stats.physical_evals, physical_after_first,
            "second pass must be pure cache hits"
        );
        assert_eq!(stats.logical_probes, 24);
        assert_eq!(stats.cache_hits, stats.logical_probes - stats.physical_evals);
    }
}
