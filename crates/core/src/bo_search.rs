//! BO-based predicate search (§5.3, Algorithm 3).
//!
//! Fills the vertical dimension of the target distribution: for the
//! interval with the largest deficit, the closest templates (Eq. 2) are
//! searched by Bayesian Optimization over their predicate-value spaces,
//! minimizing the distance-to-interval objective (Eq. 5). The paper's
//! bookkeeping is implemented in full: bad `(interval, template)`
//! combinations via the utility ratio (Eq. 6), skip intervals after five
//! fruitless rounds, remaining-search-space tracking `R`, diversity
//! filtering, and closeness-weighted template sampling.
//!
//! The outer loop — which interval to work on, which templates to claim,
//! when to merge results — lives in [`crate::scheduler`]: a
//! deficit-driven round scheduler that runs several interval searches
//! concurrently and merges their bookkeeping at a deterministic round
//! barrier, so the output is bit-identical at any thread count.

use crate::cost::CostType;
use crate::oracle::{ColumnarScratch, CostOracle, PreparedHandle};
use crate::profiler::ProfiledTemplate;
use crate::scheduler::{deficit_schedule, RoundControl, SchedState};
use bayesopt::BoConfig;
use minidb::BindingBatch;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashSet};
use workload::TargetDistribution;

/// Probes drawn per mini-batch while the conforming region is still
/// unknown: small, to keep the surrogate's ask/tell feedback loop tight.
pub(crate) const BATCH_EXPLORE: usize = 4;
/// Probes per mini-batch once conforming points exist (the harvest phase
/// perturbs known-good points, so stale feedback costs nothing).
pub(crate) const BATCH_HARVEST: usize = 32;

/// One generated query with its measured cost.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedQuery {
    pub sql: String,
    pub cost: f64,
}

/// Algorithm 3 configuration; defaults are the paper's constants.
#[derive(Debug, Clone, PartialEq)]
pub struct BoSearchConfig {
    /// BO budget per (interval, template) run: `budget_factor · Δ*`.
    pub budget_factor: f64,
    /// Hard cap on one run's budget (keeps worst-case bounded).
    pub max_run_budget: usize,
    /// Floor on one run's budget: `5Δ*` is too small to steer a surrogate
    /// when the remaining deficit is a handful of queries.
    pub min_run_budget: usize,
    /// Weighted-sample size of candidate templates per interval (10).
    pub weighted_sample: usize,
    /// Utility-ratio cutoff below which a combination is bad (0.05).
    pub utility_cutoff: f64,
    /// Consecutive fruitless rounds before an interval is skipped (5).
    pub failure_cap: u32,
    /// Remaining-space requirement: `R[T] ≥ space_factor · Δ*` (5).
    pub space_factor: f64,
    /// Minimum variety factor to pass the diversity filter.
    pub min_variety: f64,
    /// Underlying optimizer settings.
    pub bo: BoConfig,
    /// Max concurrent interval tasks per scheduler round. `0` (default)
    /// scales the round width with the deficit profile — how many
    /// intervals still need comparable work — never with the thread
    /// count, so output is independent of the hardware. The CLIs expose
    /// this as `--bo-rounds-concurrency`.
    pub rounds_concurrency: usize,
    /// `false` replaces the whole directed search with uniform random
    /// sampling over (template, predicate values) — the paper's
    /// "Naive-Search" ablation, which "cannot effectively select templates
    /// for different cost ranges or search for suitable predicate values".
    pub use_bo: bool,
    /// Evaluation budget of the naive ablation, as a multiple of the
    /// target query count.
    pub naive_budget_factor: f64,
}

impl Default for BoSearchConfig {
    fn default() -> Self {
        BoSearchConfig {
            budget_factor: 5.0,
            max_run_budget: 400,
            min_run_budget: 30,
            weighted_sample: 10,
            utility_cutoff: 0.05,
            failure_cap: 5,
            space_factor: 5.0,
            min_variety: 0.02,
            bo: BoConfig { init_samples: 8, candidates: 200, ..Default::default() },
            rounds_concurrency: 0,
            use_bo: true,
            naive_budget_factor: 25.0,
        }
    }
}

/// Result of the search.
#[derive(Debug, Clone, Default)]
pub struct SearchResult {
    /// Accepted queries (their costs conform to the target distribution).
    pub queries: Vec<GeneratedQuery>,
    /// Final per-interval counts `d`.
    pub distribution: Vec<f64>,
    /// Intervals given up on.
    pub skipped: Vec<usize>,
    /// Cost-oracle evaluations spent by the search phase.
    pub evaluations: usize,
}

/// Eq. (5): distance of a cost to the target interval, 0 inside. A NaN
/// cost lies in no interval and gets the worst distance, 1.
pub fn interval_objective(cost: f64, lo: f64, hi: f64) -> f64 {
    if cost.is_nan() {
        return 1.0;
    }
    if cost >= lo && cost <= hi {
        return 0.0;
    }
    let ratio = |a: f64, b: f64| -> f64 {
        if a <= 0.0 || b <= 0.0 {
            0.0
        } else {
            (a / b).min(b / a)
        }
    };
    1.0 - ratio(cost, lo).max(ratio(cost, hi))
}

/// The search's acceptance ledger: per-interval counts `d` and the
/// accepted queries, in acceptance order.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchState {
    /// Per-interval accepted counts.
    pub d: Vec<f64>,
    pub(crate) queries: Vec<GeneratedQuery>,
    /// SQL texts already accepted (a workload wants distinct queries, not
    /// one query repeated — note that different unit points can decode to
    /// the same integer predicate values). Always the SQL set of
    /// `queries`: [`SearchState::try_accept`] is the only inserter.
    pub(crate) seen: HashSet<String>,
}

impl SearchState {
    /// A ledger holding `queries` (its seen-set rebuilt from their SQL)
    /// with per-interval counts `d`.
    pub fn new(d: Vec<f64>, queries: Vec<GeneratedQuery>) -> SearchState {
        let seen = queries.iter().map(|q| q.sql.clone()).collect();
        SearchState { d, queries, seen }
    }

    /// Try to accept a query: its interval must have a deficit and its
    /// SQL text must be new.
    pub(crate) fn try_accept(
        &mut self,
        sql: String,
        cost: f64,
        target: &TargetDistribution,
    ) -> bool {
        let Some(j) = target.intervals.interval_of(cost) else { return false };
        if self.d[j] >= target.counts[j] {
            return false;
        }
        if self.seen.contains(&sql) {
            return false;
        }
        self.seen.insert(sql.clone());
        self.d[j] += 1.0;
        self.queries.push(GeneratedQuery { sql, cost });
        true
    }
}

/// Seed a fresh [`SearchState`] with profiling-phase queries that already
/// conform (the generator "outputs the SQL queries whose … costs
/// conform"). Touches no RNG; pure function of the template histories.
fn seed_search_state(templates: &[ProfiledTemplate], target: &TargetDistribution) -> SearchState {
    let mut state = SearchState::new(vec![0.0; target.intervals.count], Vec::new());
    let mut batch = BindingBatch::default();
    for template in templates.iter() {
        template.space.decode_batch(template.evaluations.iter().map(|e| &e.point), &mut batch);
        for (row, eval) in template.evaluations.iter().enumerate() {
            if let Ok(query) = template.template.instantiate(batch.row(row)) {
                state.try_accept(query.to_string(), eval.value, target);
            }
        }
    }
    state
}

/// Run Algorithm 3. `on_progress` is invoked with the current distribution
/// after every optimization run (the hook the distance-over-time plots are
/// recorded through).
pub fn bo_predicate_search(
    oracle: &CostOracle,
    templates: &mut [ProfiledTemplate],
    target: &TargetDistribution,
    cost_type: CostType,
    config: &BoSearchConfig,
    rng: &mut StdRng,
    on_progress: impl FnMut(&[f64]),
) -> SearchResult {
    predicate_search(
        oracle,
        templates,
        target,
        cost_type,
        config,
        rng,
        None,
        on_progress,
        |_, _, _| RoundControl::Continue,
    )
}

/// The one search entry behind [`bo_predicate_search`] and the driver's
/// checkpointed search stage.
///
/// A fresh search (`resume` is `None`) seeds its ledger from the
/// profiling history, then either runs the naive ablation or draws the
/// scheduler's master seed from `rng` and runs the deficit scheduler.
/// The seed is drawn after the (RNG-free) seeding pass and only on the
/// BO path: the naive ablation's probe stream starts at the RNG position
/// the seed would take. A resumed search continues the scheduler from
/// the checkpointed state and draws nothing.
///
/// `on_round` observes every scheduler round boundary with the state a
/// checkpoint stores, the template pool, and the driver RNG as the search
/// left it; the naive ablation has no rounds and never calls it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn predicate_search(
    oracle: &CostOracle,
    templates: &mut [ProfiledTemplate],
    target: &TargetDistribution,
    cost_type: CostType,
    config: &BoSearchConfig,
    rng: &mut StdRng,
    resume: Option<SchedState>,
    mut on_progress: impl FnMut(&[f64]),
    mut on_round: impl FnMut(&SchedState, &[ProfiledTemplate], &StdRng) -> RoundControl,
) -> SearchResult {
    let state = match resume {
        Some(state) => state,
        None => {
            let accepted = seed_search_state(templates, target);
            on_progress(&accepted.d);
            if !config.use_bo {
                return naive_random_search(
                    oracle, templates, target, cost_type, config, rng, accepted, on_progress,
                );
            }
            SchedState::new(rng.gen(), accepted)
        }
    };
    // The directed search itself — interval selection, template claiming,
    // concurrent (interval, template) runs, and the deterministic round
    // merges — lives in the deficit scheduler.
    let rng = &*rng;
    deficit_schedule(
        oracle,
        templates,
        target,
        cost_type,
        config,
        state,
        on_progress,
        |state, pool| on_round(state, pool, rng),
    )
}

/// The "Naive-Search" ablation: undirected uniform sampling of
/// (template, predicate values) pairs until the budget runs out or the
/// distribution is matched. Without closeness-guided template selection
/// and without a surrogate, the last queries of sparsely-hit intervals
/// arrive at the uniform hit rate — which is why the paper observes this
/// variant "fails to reduce the distance to zero".
#[allow(clippy::too_many_arguments)]
fn naive_random_search(
    oracle: &CostOracle,
    templates: &mut [ProfiledTemplate],
    target: &TargetDistribution,
    cost_type: CostType,
    config: &BoSearchConfig,
    rng: &mut StdRng,
    mut state: SearchState,
    mut on_progress: impl FnMut(&[f64]),
) -> SearchResult {
    let total = target.total();
    let budget = (config.naive_budget_factor * total).ceil() as usize;
    let n_templates = templates.len();
    // Templates that fail to prepare stay in the draw (the draws are the
    // ablation's RNG stream) but are never costed.
    let handles: Vec<Option<PreparedHandle>> =
        templates.iter().map(|t| oracle.prepare(&t.template).ok()).collect();
    let mut scratch = ColumnarScratch::new();
    let mut evaluations = 0usize;
    let mut drawn = 0usize;
    'runs: while drawn < budget {
        let remaining: f64 = (0..target.intervals.count)
            .map(|j| (target.counts[j] - state.d[j]).max(0.0))
            .sum();
        if remaining <= 0.0 {
            break;
        }
        // Draw a fixed-size mini-batch serially, cost it grouped by
        // template in ascending template order, then process the draws
        // in order (same structure as `optimize_template`).
        let batch_size = BATCH_HARVEST.min(budget - drawn);
        let mut picks: Vec<(usize, usize)> = Vec::with_capacity(batch_size);
        let mut groups: BTreeMap<usize, Vec<Vec<f64>>> = BTreeMap::new();
        for _ in 0..batch_size {
            drawn += 1;
            let template_idx = rng.gen_range(0..n_templates);
            let point = templates[template_idx].space.space.sample_unit(rng);
            let group = groups.entry(template_idx).or_default();
            picks.push((template_idx, group.len()));
            group.push(point);
        }
        let mut costed = BTreeMap::new();
        for (&template_idx, points) in &groups {
            let Some(handle) = &handles[template_idx] else { continue };
            let mut batch = BindingBatch::default();
            templates[template_idx].space.decode_batch(points, &mut batch);
            let threads = oracle.threads();
            let costs = oracle.cost_prepared_batch_columnar_on(
                threads,
                handle,
                &batch,
                cost_type,
                &mut scratch,
            );
            costed.insert(template_idx, (batch, costs.to_vec()));
        }
        for (template_idx, slot) in picks {
            let Some((batch, costs)) = costed.get(&template_idx) else { continue };
            let &Ok(cost) = &costs[slot] else { continue };
            let template = &mut templates[template_idx];
            let query = template
                .template
                .instantiate(batch.row(slot))
                .expect("a successfully costed binding binds every placeholder");
            evaluations += 1;
            template.consumed += 1.0;
            template.costs.push(cost);
            state.try_accept(query.to_string(), cost, target);
            if evaluations.is_multiple_of(256) {
                on_progress(&state.d);
            }
            let remaining: f64 = (0..target.intervals.count)
                .map(|j| (target.counts[j] - state.d[j]).max(0.0))
                .sum();
            if remaining <= 0.0 {
                break 'runs;
            }
        }
    }
    on_progress(&state.d);
    SearchResult {
        queries: state.queries,
        distribution: state.d,
        skipped: Vec::new(),
        evaluations,
    }
}

/// Weighted sampling without replacement, proportional to closeness.
pub(crate) fn weighted_sample(
    candidates: &mut Vec<(usize, f64)>,
    k: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut picked = Vec::with_capacity(k.min(candidates.len()));
    while picked.len() < k && !candidates.is_empty() {
        let total: f64 = candidates.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            picked.extend(candidates.drain(..).map(|(idx, _)| idx).take(k - picked.len()));
            break;
        }
        let mut roll = rng.gen::<f64>() * total;
        let mut chosen = candidates.len() - 1;
        for (pos, (_, weight)) in candidates.iter().enumerate() {
            roll -= weight;
            if roll <= 0.0 {
                chosen = pos;
                break;
            }
        }
        picked.push(candidates.remove(chosen).0);
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile_template;
    use rand::SeedableRng;
    use sqlkit::parse_template;
    use std::collections::HashMap;
    use workload::CostIntervals;

    #[test]
    fn objective_is_zero_inside_and_grows_outside() {
        assert_eq!(interval_objective(500.0, 0.0, 1000.0), 0.0);
        assert_eq!(interval_objective(1000.0, 0.0, 1000.0), 0.0);
        let near = interval_objective(1100.0, 0.0, 1000.0);
        let far = interval_objective(9000.0, 0.0, 1000.0);
        assert!(near > 0.0 && far > near, "near {near} far {far}");
        // degenerate lo = 0 does not divide by zero
        assert!(interval_objective(0.5, 0.0, 1000.0) == 0.0);
    }

    #[test]
    fn a_nan_cost_gets_the_worst_objective_in_every_interval() {
        // `f64::max` drops one NaN operand but not two, so the ratio
        // arithmetic alone gave 1 at `lo == 0` and NaN at `lo > 0`.
        for (lo, hi) in [(0.0, 1000.0), (250.0, 1000.0), (0.0, 0.0), (7.5, 7.5)] {
            assert_eq!(interval_objective(f64::NAN, lo, hi), 1.0, "[{lo}, {hi}]");
        }
    }

    #[test]
    fn search_fills_a_small_uniform_target() {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let oracle = CostOracle::new(&db, 1);
        let mut rng = StdRng::seed_from_u64(8);
        let mut templates: Vec<ProfiledTemplate> = [
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1}",
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_extendedprice BETWEEN {p_1} AND {p_2}",
        ]
        .iter()
        .map(|sql| {
            profile_template(
                &oracle,
                parse_template(sql).unwrap(),
                CostType::Cardinality,
                15,
                &mut rng,
            )
        })
        .collect();
        let target = workload::TargetDistribution::uniform(
            CostIntervals::new(0.0, 6000.0, 6),
            60,
        );
        let result = bo_predicate_search(
            &oracle,
            &mut templates,
            &target,
            CostType::Cardinality,
            &BoSearchConfig::default(),
            &mut rng,
            |_| {},
        );
        let filled: f64 = result.distribution.iter().sum();
        assert!(
            filled >= 54.0,
            "filled {filled}/60; d = {:?}, skipped {:?}",
            result.distribution,
            result.skipped
        );
        assert_eq!(result.queries.len(), filled as usize);
        // accepted queries actually lie in their intervals and are unique
        let mut sqls: Vec<&str> = result.queries.iter().map(|q| q.sql.as_str()).collect();
        let before = sqls.len();
        sqls.sort_unstable();
        sqls.dedup();
        assert_eq!(sqls.len(), before, "duplicate queries accepted");
    }

    #[test]
    fn random_search_ablation_is_worse_or_equal() {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let run = |use_bo: bool| {
            let oracle = CostOracle::new(&db, 1);
            let mut rng = StdRng::seed_from_u64(42);
            let mut templates = vec![profile_template(
                &oracle,
                parse_template(
                    "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1} \
                     AND l.l_quantity > {p_2}",
                )
                .unwrap(),
                CostType::Cardinality,
                10,
                &mut rng,
            )];
            // Narrow target: needs directed search.
            let target = workload::TargetDistribution::uniform(
                CostIntervals::new(4000.0, 4600.0, 2),
                30,
            );
            let mut evaluations = 0;
            let config = BoSearchConfig {
                use_bo,
                max_run_budget: 60,
                ..Default::default()
            };
            let result = bo_predicate_search(
                &oracle,
                &mut templates,
                &target,
                CostType::Cardinality,
                &config,
                &mut rng,
                |_| evaluations += 1,
            );
            (result.distribution.iter().sum::<f64>(), templates[0].consumed)
        };
        let (bo_filled, bo_consumed) = run(true);
        let (random_filled, random_consumed) = run(false);
        // BO should fill at least as much, or do it with less effort.
        assert!(
            bo_filled > random_filled
                || (bo_filled == random_filled && bo_consumed <= random_consumed),
            "bo {bo_filled}@{bo_consumed} vs random {random_filled}@{random_consumed}"
        );
    }

    #[test]
    fn impossible_intervals_get_skipped_not_looped() {
        let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
        let oracle = CostOracle::new(&db, 1);
        let mut rng = StdRng::seed_from_u64(5);
        // nation has 25 rows: cardinality can never reach [5000, 10000].
        let mut templates = vec![profile_template(
            &oracle,
            parse_template("SELECT * FROM nation WHERE nation.n_nationkey > {p_1}").unwrap(),
            CostType::Cardinality,
            10,
            &mut rng,
        )];
        let target = workload::TargetDistribution::uniform(
            CostIntervals::new(5000.0, 10_000.0, 2),
            20,
        );
        let result = bo_predicate_search(
            &oracle,
            &mut templates,
            &target,
            CostType::Cardinality,
            &BoSearchConfig::default(),
            &mut rng,
            |_| {},
        );
        assert_eq!(result.distribution.iter().sum::<f64>(), 0.0);
        assert_eq!(result.skipped.len(), 2, "both intervals must be skipped");
    }

    #[test]
    fn weighted_sampling_prefers_heavy_candidates() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut firsts = HashMap::new();
        for _ in 0..500 {
            let mut candidates = vec![(0usize, 0.01), (1usize, 1.0), (2usize, 0.01)];
            let picked = weighted_sample(&mut candidates, 1, &mut rng);
            *firsts.entry(picked[0]).or_insert(0usize) += 1;
        }
        assert!(firsts[&1] > 400, "heavy candidate picked {} times", firsts[&1]);
    }
}
