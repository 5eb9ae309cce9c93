//! Focused tests for Algorithm 3's bookkeeping on synthetic template
//! pools (no LLM involved).

use rand::SeedableRng;
use sqlbarber::bo_search::{bo_predicate_search, BoSearchConfig};
use sqlbarber::cost::CostType;
use sqlbarber::oracle::CostOracle;
use sqlbarber::profiler::{profile_template, ProfiledTemplate};
use sqlkit::parse_template;
use workload::{CostIntervals, TargetDistribution};

fn tpch() -> minidb::Database {
    minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
}

fn pool(oracle: &CostOracle, rng: &mut rand::rngs::StdRng) -> Vec<ProfiledTemplate> {
    [
        "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1}",
        "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_partkey <= {p_1} \
         AND l.l_quantity > {p_2}",
        "SELECT o.o_orderkey FROM orders AS o WHERE o.o_totalprice BETWEEN {p_1} AND {p_2}",
    ]
    .iter()
    .map(|sql| {
        profile_template(oracle, parse_template(sql).unwrap(), CostType::Cardinality, 12, rng)
    })
    .collect()
}

#[test]
fn distribution_counts_equal_accepted_queries_and_respect_targets() {
    let db = tpch();
    let oracle = CostOracle::new(&db, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut templates = pool(&oracle, &mut rng);
    let target = TargetDistribution::normal(CostIntervals::new(0.0, 6_000.0, 6), 120);
    let result = bo_predicate_search(
        &oracle,
        &mut templates,
        &target,
        CostType::Cardinality,
        &BoSearchConfig::default(),
        &mut rng,
        |_| {},
    );
    assert_eq!(result.distribution.iter().sum::<f64>() as usize, result.queries.len());
    for (j, (&got, &want)) in result.distribution.iter().zip(&target.counts).enumerate() {
        assert!(got <= want, "interval {j} overfilled: {got} > {want}");
    }
    // every reported query cost falls in the interval it was counted for
    let mut recount = vec![0.0; target.intervals.count];
    for q in &result.queries {
        let j = target.intervals.interval_of(q.cost).expect("in range");
        recount[j] += 1.0;
    }
    assert_eq!(recount, result.distribution);
}

#[test]
fn progress_callback_sees_monotone_distance() {
    let db = tpch();
    let oracle = CostOracle::new(&db, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut templates = pool(&oracle, &mut rng);
    let target = TargetDistribution::uniform(CostIntervals::new(0.0, 6_000.0, 4), 60);
    let width = target.intervals.width();
    let mut distances = Vec::new();
    bo_predicate_search(
        &oracle,
        &mut templates,
        &target,
        CostType::Cardinality,
        &BoSearchConfig::default(),
        &mut rng,
        |d| distances.push(workload::wasserstein_distance(&target.counts, d, width)),
    );
    assert!(distances.len() >= 2);
    assert!(distances.windows(2).all(|w| w[1] <= w[0] + 1e-9), "distance increased: {distances:?}");
}

#[test]
fn search_consumes_template_space_bookkeeping() {
    let db = tpch();
    let oracle = CostOracle::new(&db, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut templates = pool(&oracle, &mut rng);
    let before: Vec<f64> = templates.iter().map(|t| t.remaining_space()).collect();
    let target = TargetDistribution::uniform(CostIntervals::new(0.0, 6_000.0, 4), 40);
    bo_predicate_search(
        &oracle,
        &mut templates,
        &target,
        CostType::Cardinality,
        &BoSearchConfig::default(),
        &mut rng,
        |_| {},
    );
    // R decreases for at least the templates that were searched
    let after: Vec<f64> = templates.iter().map(|t| t.remaining_space()).collect();
    assert!(
        before.iter().zip(&after).any(|(b, a)| a < b),
        "no space consumed: {before:?} → {after:?}"
    );
    assert!(before.iter().zip(&after).all(|(b, a)| a <= b));
}

#[test]
fn naive_search_respects_its_budget() {
    let db = tpch();
    let oracle = CostOracle::new(&db, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let mut templates = pool(&oracle, &mut rng);
    // an impossible target (cardinality beyond tiny TPC-H) burns budget
    let target = TargetDistribution::uniform(CostIntervals::new(50_000.0, 60_000.0, 2), 10);
    let config = BoSearchConfig { use_bo: false, naive_budget_factor: 30.0, ..Default::default() };
    let result = bo_predicate_search(
        &oracle,
        &mut templates,
        &target,
        CostType::Cardinality,
        &config,
        &mut rng,
        |_| {},
    );
    assert!(result.queries.is_empty());
    assert!(result.evaluations <= 300, "budget exceeded: {}", result.evaluations);
    assert!(result.evaluations >= 250, "budget unused: {}", result.evaluations);
}

#[test]
fn empty_template_pool_terminates_immediately() {
    let db = tpch();
    let oracle = CostOracle::new(&db, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut templates: Vec<ProfiledTemplate> = Vec::new();
    let target = TargetDistribution::uniform(CostIntervals::new(0.0, 1_000.0, 2), 10);
    let result = bo_predicate_search(
        &oracle,
        &mut templates,
        &target,
        CostType::Cardinality,
        &BoSearchConfig::default(),
        &mut rng,
        |_| {},
    );
    assert!(result.queries.is_empty());
    assert_eq!(result.skipped.len(), 2, "both intervals must be given up");
}
