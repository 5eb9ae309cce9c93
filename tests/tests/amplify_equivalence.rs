//! Property tests for the amplification engine: the fitted binding
//! generator only produces bindings the columnar batch accepts (no
//! unbound or unknown placeholders), and every query an emission lane
//! accepts recosts into the claimed interval bit-for-bit against the
//! from-scratch planner (`Database::explain`), with the rendered text
//! equal to `instantiate(..).to_string()`. A plain N = 100k test then checks
//! the acceptance bar: the amplified histogram's Wasserstein distance to
//! the target (per query) stays within tolerance of the BO-phase
//! workload's distance.

use minidb::{BindingBatch, Database};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlbarber::amplify::{Lane, PairContext};
use sqlbarber::oracle::CostOracle;
use sqlbarber::profiler::{profile_template, ProfiledTemplate};
use sqlbarber::{CostType, SqlBarber, SqlBarberConfig};
use sqlkit::parse_template;
use std::sync::OnceLock;
use workload::redset::redset_template_specs;
use workload::{CostIntervals, TargetDistribution};

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    })
}

const SKELETONS: &[&str] = &[
    "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1}",
    "SELECT l.l_orderkey FROM lineitem AS l \
     WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
    "SELECT o.o_orderkey FROM orders AS o \
     WHERE o.o_totalprice > {p_1} AND o.o_orderkey <= {p_2}",
    "SELECT o.o_orderkey, SUM(l.l_extendedprice) \
     FROM orders AS o, lineitem AS l \
     WHERE o.o_orderkey = l.l_orderkey AND l.l_extendedprice > {p_1} \
     GROUP BY o.o_orderkey",
    "SELECT c.c_custkey FROM customer AS c \
     WHERE c.c_mktsegment = {p_1} AND c.c_acctbal > {p_2}",
];

/// Profile a skeleton and build the pair context for its densest
/// interval (the one Algorithm 3 would have converged on hardest).
/// Returns `None` when no interval has conforming support.
fn converged_pair(
    skeleton_idx: usize,
    profile_seed: u64,
    n_intervals: usize,
) -> Option<(ProfiledTemplate, CostIntervals, usize)> {
    let db = db();
    let oracle = CostOracle::new(db, 1);
    let template = parse_template(SKELETONS[skeleton_idx]).expect("skeleton parses");
    let mut rng = StdRng::seed_from_u64(profile_seed);
    let profiled = profile_template(&oracle, template, CostType::Cardinality, 32, &mut rng);
    let max = profiled.costs.iter().fold(0.0f64, |a, &b| a.max(b));
    let intervals = CostIntervals::new(0.0, (max * 1.05).max(1.0), n_intervals);
    let mut conforming = vec![0usize; n_intervals];
    for eval in &profiled.evaluations {
        if let Some(j) = intervals.interval_of(eval.value) {
            conforming[j] += 1;
        }
    }
    let (interval, &support) =
        conforming.iter().enumerate().max_by_key(|&(_, &n)| n)?;
    if support == 0 {
        return None;
    }
    Some((profiled, intervals, interval))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every binding the fitted generator produces binds the template
    /// completely: `push_row` accepts it (no unbound id) and
    /// `instantiate` succeeds on the pushed row.
    #[test]
    fn fitted_generator_bindings_always_validate(
        skeleton_idx in 0usize..SKELETONS.len(),
        profile_seed in 0u64..64,
        draw_seed in 0u64..1024,
        n_intervals in 2usize..8,
    ) {
        let Some((profiled, intervals, interval)) =
            converged_pair(skeleton_idx, profile_seed, n_intervals)
        else {
            return Ok(()); // degenerate profile: nothing to amplify
        };
        let oracle = CostOracle::new(db(), 1);
        let handle = oracle.prepare(&profiled.template).expect("prepares");
        let ctx = PairContext::new(
            &profiled, handle, CostType::Cardinality, intervals, interval,
        )
        .expect("densest interval has conforming probes");

        let mut rng = StdRng::seed_from_u64(draw_seed);
        let mut point = Vec::new();
        let mut row = Vec::new();
        let mut batch = BindingBatch::new(profiled.template.placeholders());
        for r in 0..64 {
            ctx.generator().draw(&mut rng, &mut point);
            profiled.space.decode_into(&point, &mut row);
            prop_assert!(
                batch.push_row(&row).is_ok(),
                "generator produced an incomplete binding: {:?}",
                row
            );
            prop_assert!(
                profiled.template.instantiate(batch.row(r)).is_ok(),
                "binding does not instantiate: {:?}",
                row
            );
        }
    }

    /// Replaying a lane's RNG stream through the planner reproduces
    /// its accepts exactly: same candidates accepted, the same cost bits,
    /// every accepted cost inside the claimed interval, and the rendered
    /// record text equal to `instantiate(..).to_string()`.
    #[test]
    fn lane_accepts_match_scalar_recost_bit_for_bit(
        skeleton_idx in 0usize..SKELETONS.len(),
        profile_seed in 0u64..64,
        batch_seed in 0u64..1024,
        batch_size in 16usize..128,
        n_intervals in 2usize..8,
    ) {
        let db = db();
        let Some((profiled, intervals, interval)) =
            converged_pair(skeleton_idx, profile_seed, n_intervals)
        else {
            return Ok(());
        };
        let oracle = CostOracle::new(db, 1);
        let handle = oracle.prepare(&profiled.template).expect("prepares");
        let ctx = PairContext::new(
            &profiled, handle, CostType::Cardinality, intervals.clone(), interval,
        )
        .expect("densest interval has conforming probes");

        let mut lane = Lane::new();
        lane.run(db, &ctx, batch_seed, batch_size).expect("lane recosts");
        prop_assert_eq!(lane.candidates(), batch_size);

        // Planner replay of the identical RNG stream.
        let mut rng = StdRng::seed_from_u64(batch_seed);
        let mut point = Vec::new();
        let mut row = Vec::new();
        let mut batch = BindingBatch::new(profiled.template.placeholders());
        let mut expected: Vec<(f64, String)> = Vec::new();
        for r in 0..batch_size {
            ctx.generator().draw(&mut rng, &mut point);
            profiled.space.decode_into(&point, &mut row);
            batch.push_row(&row).expect("binds");
            let query = profiled.template.instantiate(batch.row(r)).expect("binds");
            let rows = db.explain(&query).expect("plans").estimated_rows;
            if intervals.interval_of(rows) != Some(interval) {
                continue;
            }
            let sql = query.to_string();
            expected.push((rows, format!("-- cost: {rows:.2}\n{sql};\n")));
        }

        let accepts = lane.accepts().to_vec();
        prop_assert_eq!(accepts.len(), expected.len(), "accept sets diverged");
        let rendered = lane.accepted_chunk(accepts.len());
        let mut start = 0usize;
        for ((end, cost), (planner_cost, record)) in accepts.iter().zip(&expected) {
            prop_assert_eq!(
                cost.to_bits(),
                planner_cost.to_bits(),
                "accepted cost diverged from the planner"
            );
            prop_assert!(
                intervals.interval_of(*cost) == Some(interval),
                "accepted cost {} outside claimed interval {}",
                cost,
                interval
            );
            let text = std::str::from_utf8(&rendered[start..*end]).expect("utf-8");
            prop_assert_eq!(text, record.as_str(), "rendered record diverged");
            start = *end;
        }
    }
}

/// Acceptance bar at N = 100k: the amplified histogram stays within
/// tolerance of the BO-phase workload's distance to the target, per
/// query. (`AmplifyStats::wasserstein` is measured against the target
/// scaled to N, `final_distance` against the target at its own total, so
/// both are normalized to per-query mass before comparing.)
#[test]
fn amplified_distribution_matches_target_within_tolerance_at_100k() {
    let db = db();
    let n_target = 80u64;
    let target =
        TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), n_target as usize);
    let specs = redset_template_specs(3);
    let n = 100_000u64;
    let mut config = SqlBarberConfig::fast_test();
    config.amplify = Some(sqlbarber::AmplifyConfig { n, shards: 0, batch: 0, out: None });
    let mut barber = SqlBarber::new(db, config);
    let report = barber
        .generate(&specs[..6], &target, CostType::Cardinality)
        .expect("generation succeeds");
    let amplify = report.amplify.as_ref().expect("amplify stage ran");

    assert_eq!(amplify.requested, n);
    assert_eq!(
        amplify.emitted + amplify.shortfall,
        n,
        "every requested query must be accounted emitted or short"
    );
    assert_eq!(amplify.oracle_misses, 0, "amplification bypasses the oracle");
    assert!(amplify.emitted > 0, "nothing was amplified");

    let amplified_per_query = amplify.wasserstein / n as f64;
    let bo_per_query = report.final_distance / n_target as f64;
    assert!(
        amplified_per_query <= bo_per_query + 0.05,
        "amplified W1/query {amplified_per_query:.4} exceeds BO-phase \
         {bo_per_query:.4} + 0.05 (raw: {} at N={n} vs {} at N={n_target})",
        amplify.wasserstein,
        report.final_distance
    );
}
