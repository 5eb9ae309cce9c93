//! Shared baseline machinery: configuration, reports, interval
//! scheduling, acceptance bookkeeping, and the template-pool mutation the
//! paper uses to feed HillClimbing ("we prepare about 16000 SQL templates
//! as inputs by randomly adding or removing predicates in the SQL
//! templates provided by the benchmarks, the same approach used in
//! LearnedSQLGen").

use minidb::{BindingBatch, Database};
use rand::rngs::StdRng;
use rand::Rng;
use sqlbarber::cost::CostType;
use sqlbarber::oracle::{ColumnarScratch, CostOracle, PreparedHandle};
use sqlbarber::sampler::PlaceholderSpace;
use sqlkit::{BinaryOp, ColumnRef, Expr, Select, Template};
use std::collections::HashSet;
use std::time::Duration;
use workload::{wasserstein_distance, TargetDistribution};

/// Interval scheduling heuristics (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduling {
    /// Generate from the lowest to the highest cost range.
    Order,
    /// Always work on the cost range with the largest shortfall.
    Priority,
}

impl Scheduling {
    /// Label used in figures, e.g. `order` / `priority`.
    pub fn label(self) -> &'static str {
        match self {
            Scheduling::Order => "order",
            Scheduling::Priority => "priority",
        }
    }
}

/// Baseline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    /// Cost-oracle evaluations allotted per optimization iteration (the
    /// paper gives each iteration a one-hour wall-clock budget; on the
    /// in-memory engine the analogous resource is evaluations).
    pub evals_per_interval: usize,
    /// Number of optimization iterations = number of intervals (paper).
    /// `None` uses the target's interval count.
    pub iterations: Option<usize>,
    pub scheduling: Scheduling,
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            evals_per_interval: 2_000,
            iterations: None,
            scheduling: Scheduling::Priority,
            seed: 7,
        }
    }
}

/// Outcome of a baseline run (mirrors `GenerationReport`'s core fields).
#[derive(Debug, Clone, Default)]
pub struct BaselineReport {
    pub queries: Vec<(String, f64)>,
    /// `(seconds, distance)` samples.
    pub distance_series: Vec<(f64, f64)>,
    pub final_distance: f64,
    pub elapsed: Duration,
    pub distribution: Vec<f64>,
    /// Total cost-oracle evaluations spent.
    pub evaluations: usize,
}

/// Acceptance bookkeeping shared by both baselines: a query is accepted
/// when its interval still has a deficit and its bindings are fresh.
pub(crate) struct Acceptance<'t> {
    pub target: &'t TargetDistribution,
    pub d: Vec<f64>,
    pub queries: Vec<(String, f64)>,
    /// Both baselines "can generate queries for only one cost range per
    /// iteration" (§6.1): while an interval is being optimized, only
    /// queries landing in it are kept. `None` lifts the restriction (used
    /// in tests).
    pub restrict_to: Option<usize>,
    seen: HashSet<String>,
}

impl<'t> Acceptance<'t> {
    pub fn new(target: &'t TargetDistribution) -> Self {
        Acceptance {
            target,
            d: vec![0.0; target.intervals.count],
            queries: Vec::new(),
            restrict_to: None,
            seen: HashSet::new(),
        }
    }

    /// Accept a query when its interval has a deficit (and is the active
    /// interval, if restricted) and its SQL text is new.
    pub fn try_accept(&mut self, sql: String, cost: f64) -> bool {
        let Some(j) = self.target.intervals.interval_of(cost) else { return false };
        if let Some(active) = self.restrict_to {
            if j != active {
                return false;
            }
        }
        if self.d[j] >= self.target.counts[j] {
            return false;
        }
        if self.seen.contains(&sql) {
            return false;
        }
        self.seen.insert(sql.clone());
        self.d[j] += 1.0;
        self.queries.push((sql, cost));
        true
    }

    /// Cost-only prefix of [`Acceptance::try_accept`]: does this cost land
    /// in an interval that still has a deficit (and is the active one, if
    /// restricted)? Lets callers skip instantiating and rendering SQL for
    /// probes that can never be accepted.
    pub fn would_consider(&self, cost: f64) -> bool {
        let Some(j) = self.target.intervals.interval_of(cost) else { return false };
        if let Some(active) = self.restrict_to {
            if j != active {
                return false;
            }
        }
        self.d[j] < self.target.counts[j]
    }

    pub fn distance(&self) -> f64 {
        wasserstein_distance(&self.target.counts, &self.d, self.target.intervals.width())
    }

    pub fn deficit(&self, j: usize) -> f64 {
        self.target.counts[j] - self.d[j]
    }
}

/// Arenas reused across one-point probes: the oracle scratch and the
/// one-row batch [`evaluate`] decodes each point into.
#[derive(Debug, Default)]
pub(crate) struct Probe {
    scratch: ColumnarScratch,
    batch: BindingBatch,
}

/// Decode a point into `probe` and cost it through the template's
/// prepared plan, as an oracle batch of one. Returns the cost (the row
/// stays in `probe`, so the caller can defer SQL rendering until
/// [`Acceptance::would_consider`] says the probe is worth keeping);
/// `None` when the template failed to prepare (no probe is issued) or the
/// probe errs.
///
/// Both baselines probe one point at a time on purpose: hill climbing
/// must see a probe's cost before choosing the next neighbour, and
/// Q-learning must observe the reward before the next action, so their
/// loops are sequentially dependent. The reused scratch keeps each warm
/// memo lookup allocation-free, and `would_consider` defers SQL
/// rendering exactly like the scheduler's batched path does.
pub(crate) fn evaluate(
    oracle: &CostOracle,
    entry: &PooledTemplate,
    prepared: Option<&PreparedHandle>,
    point: &[f64],
    cost_type: CostType,
    probe: &mut Probe,
) -> Option<f64> {
    let handle = prepared?;
    let Probe { scratch, batch } = probe;
    entry.space.decode_batch([point], batch);
    let results = oracle.cost_prepared_batch_columnar_on(1, handle, batch, cost_type, scratch);
    results[0].as_ref().ok().copied()
}

/// Render-on-demand acceptance of the point [`evaluate`] last decoded
/// into `probe`: instantiate and render the SQL only when the cost alone
/// says the query could still be accepted.
pub(crate) fn accept_costed(
    acceptance: &mut Acceptance<'_>,
    entry: &PooledTemplate,
    probe: &Probe,
    cost: f64,
) -> bool {
    if !acceptance.would_consider(cost) {
        return false;
    }
    let Ok(query) = entry.template.instantiate(probe.batch.row(0)) else { return false };
    acceptance.try_accept(query.to_string(), cost)
}

/// Pick the next interval to optimize under a scheduling heuristic.
/// `round` indexes the optimization iteration (0-based).
pub(crate) fn schedule_interval(
    scheduling: Scheduling,
    round: usize,
    acceptance: &Acceptance<'_>,
) -> usize {
    let n = acceptance.target.intervals.count;
    match scheduling {
        Scheduling::Order => round % n,
        Scheduling::Priority => (0..n)
            .max_by(|&a, &b| acceptance.deficit(a).total_cmp(&acceptance.deficit(b)))
            .unwrap_or(0),
    }
}

/// A baseline-ready template: parsed SQL plus its predicate space.
#[derive(Debug, Clone)]
pub struct PooledTemplate {
    pub template: Template,
    pub space: PlaceholderSpace,
}

/// Expand seed templates into a large pool by randomly adding or removing
/// predicates (§6.1's input-preparation step for HillClimbing).
pub fn mutate_template_pool(
    db: &Database,
    seeds: &[Template],
    pool_size: usize,
    rng: &mut StdRng,
) -> Vec<PooledTemplate> {
    let mut pool: Vec<PooledTemplate> = Vec::with_capacity(pool_size);
    for template in seeds {
        pool.push(PooledTemplate {
            space: PlaceholderSpace::build(db, template),
            template: template.clone(),
        });
    }
    if seeds.is_empty() {
        return pool;
    }
    let mut attempts = 0;
    while pool.len() < pool_size && attempts < pool_size * 4 {
        attempts += 1;
        let base = &seeds[rng.gen_range(0..seeds.len())];
        let mut select = base.select().clone();
        if rng.gen_bool(0.5) {
            add_random_predicate(db, &mut select, rng);
        } else {
            remove_random_predicate(&mut select);
        }
        let template = Template::new(select);
        if db.validate_template(&template).is_err() {
            continue;
        }
        let space = PlaceholderSpace::build(db, &template);
        pool.push(PooledTemplate { template, space });
    }
    pool
}

fn add_random_predicate(db: &Database, select: &mut Select, rng: &mut StdRng) {
    // Pick a numeric column from a bound table.
    let bindings: Vec<(String, String)> = select
        .table_refs()
        .iter()
        .map(|t| (t.binding().to_string(), t.table.clone()))
        .collect();
    if bindings.is_empty() {
        return;
    }
    let (alias, table) = bindings[rng.gen_range(0..bindings.len())].clone();
    let Ok(schema) = db.schema(&table) else { return };
    let numeric: Vec<&str> = schema
        .columns
        .iter()
        .filter(|c| matches!(c.data_type, minidb::DataType::Int | minidb::DataType::Float))
        .map(|c| c.name.as_str())
        .collect();
    if numeric.is_empty() {
        return;
    }
    let column = numeric[rng.gen_range(0..numeric.len())].to_string();
    let next_id = Template::new(select.clone())
        .placeholders()
        .into_iter()
        .max()
        .unwrap_or(0)
        + 1;
    let op = [BinaryOp::Gt, BinaryOp::Lt, BinaryOp::GtEq, BinaryOp::LtEq]
        [rng.gen_range(0..4)];
    let predicate = Expr::binary(
        Expr::Column(ColumnRef::qualified(alias, column)),
        op,
        Expr::Placeholder(next_id),
    );
    select.where_clause = Some(Expr::and_opt(select.where_clause.take(), predicate));
}

fn remove_random_predicate(select: &mut Select) {
    let Some(where_clause) = select.where_clause.take() else { return };
    let mut parts = where_clause.conjuncts();
    if parts.len() > 1 {
        parts.remove(0);
    }
    select.where_clause = Expr::conjoin(parts);
}


#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sqlkit::parse_template;
    use workload::CostIntervals;

    fn tpch() -> Database {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    }

    #[test]
    fn pool_mutation_grows_and_stays_valid() {
        let db = tpch();
        let seeds = vec![
            parse_template(
                "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}",
            )
            .unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let pool = mutate_template_pool(&db, &seeds, 50, &mut rng);
        assert!(pool.len() >= 40, "pool size {}", pool.len());
        for entry in &pool {
            db.validate_template(&entry.template).unwrap();
        }
        // mutations actually vary arity
        let arities: std::collections::BTreeSet<usize> =
            pool.iter().map(|p| p.space.arity()).collect();
        assert!(arities.len() >= 2, "arities {arities:?}");
    }

    #[test]
    fn acceptance_respects_deficits_and_uniqueness() {
        let target =
            TargetDistribution::uniform(CostIntervals::new(0.0, 100.0, 2), 2);
        let mut acceptance = Acceptance::new(&target);
        assert!(acceptance.try_accept("q1".into(), 10.0));
        // duplicate point rejected
        assert!(!acceptance.try_accept("q1".into(), 10.0));
        // interval 0 full (target 1 per interval)
        assert!(!acceptance.try_accept("q2".into(), 20.0));
        // out of range rejected
        assert!(!acceptance.try_accept("q3".into(), 999.0));
        assert!(acceptance.try_accept("q4".into(), 60.0));
        assert_eq!(acceptance.distance(), 0.0);
    }

    #[test]
    fn would_consider_mirrors_try_accept_cost_gates() {
        let target =
            TargetDistribution::uniform(CostIntervals::new(0.0, 100.0, 2), 2);
        let mut acceptance = Acceptance::new(&target);
        assert!(acceptance.would_consider(10.0));
        assert!(!acceptance.would_consider(999.0), "out of range");
        acceptance.restrict_to = Some(1);
        assert!(!acceptance.would_consider(10.0), "wrong active interval");
        assert!(acceptance.would_consider(60.0));
        acceptance.restrict_to = None;
        acceptance.try_accept("q1".into(), 10.0);
        assert!(!acceptance.would_consider(20.0), "interval 0 already full");
    }

    #[test]
    fn scheduling_heuristics_differ() {
        let target =
            TargetDistribution::uniform(CostIntervals::new(0.0, 100.0, 4), 8);
        let mut acceptance = Acceptance::new(&target);
        // fill interval 0 fully, leave 1..3 empty
        acceptance.try_accept("a".into(), 1.0);
        acceptance.try_accept("b".into(), 2.0);
        assert_eq!(schedule_interval(Scheduling::Order, 0, &acceptance), 0);
        assert_eq!(schedule_interval(Scheduling::Order, 2, &acceptance), 2);
        let prioritized = schedule_interval(Scheduling::Priority, 0, &acceptance);
        assert_ne!(prioritized, 0, "priority must pick a deficit interval");
    }
}
