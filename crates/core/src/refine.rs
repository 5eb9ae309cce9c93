//! Adaptive template refinement and pruning (§5.2, Algorithm 2).
//!
//! Two phases over the coverage vector `c` (Eq. 1):
//!
//! * **Phase 1** (τ₁ = 0.2, k₁ = 3, m₁ = 3, no history): intervals whose
//!   coverage falls below `τ₁ · d*_j` are *missing*; the top-m templates
//!   by closeness (Eq. 2) are refined toward each.
//! * **Phase 2** (τ₂ = 0.1, k₂ = 5, m₂ = 5, with history): intervals that
//!   remain under-covered are *difficult*; refinement prompts now include
//!   the interval's previous attempts, leveraging in-context learning.
//!
//! Newly refined templates are profiled and admitted only if they pass
//! the pruning rule (Eq. 4): they hit an underrepresented interval, or
//! they reduce the Wasserstein distance of the coverage distribution.
//!
//! Refinement is the most LLM-hungry phase, so it degrades gracefully
//! under transport failures: a failed or malformed refine call just skips
//! that candidate, and an interval where *no* candidate produced a usable
//! response is recorded as abandoned — the outer `for _iter in 0..k` loop
//! naturally retries it next round if it is still under-covered.

use crate::cost::CostType;
use crate::oracle::CostOracle;
use crate::profiler::{profile_template, ProfiledTemplate};
use crate::report::DegradationStats;
use llm::protocol::{parse_sql_response, PromptBuilder, TASK_REFINE};
use llm::{LanguageModel, LlmError};
use rand::rngs::StdRng;
use sqlkit::parse_template;
use std::collections::BTreeMap;
use workload::{wasserstein_distance, TargetDistribution};

/// Phase parameters `(τ, k, m, use_history)`.
pub type Phase = (f64, usize, usize, bool);

/// Algorithm 2 configuration; defaults are the paper's constants.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineConfig {
    pub phases: Vec<Phase>,
    /// Profiling samples per refined template.
    pub profile_samples: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig { phases: vec![(0.2, 3, 3, false), (0.1, 5, 5, true)], profile_samples: 10 }
    }
}

/// Summary of one refinement run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefineOutcome {
    /// Templates accepted into the pool.
    pub accepted: usize,
    /// Refined templates rejected by the pruning rule (Eq. 4).
    pub pruned: usize,
    /// LLM refinement calls made.
    pub refine_calls: usize,
    /// Transport failures and protocol breaks absorbed along the way.
    pub degradation: DegradationStats,
}

/// Coverage vector `c` (Eq. 1) over the target's intervals.
pub fn coverage(templates: &[ProfiledTemplate], target: &TargetDistribution) -> Vec<f64> {
    let mut counts = vec![0.0; target.intervals.count];
    for template in templates {
        for &cost in &template.costs {
            if let Some(j) = target.intervals.interval_of(cost) {
                counts[j] += 1.0;
            }
        }
    }
    counts
}

/// Run Algorithm 2 in place over the template pool.
#[allow(clippy::too_many_arguments)]
pub fn refine_and_prune<M: LanguageModel>(
    oracle: &CostOracle,
    llm: &mut M,
    templates: &mut Vec<ProfiledTemplate>,
    target: &TargetDistribution,
    cost_type: CostType,
    config: &RefineConfig,
    rng: &mut StdRng,
) -> RefineOutcome {
    let mut outcome = RefineOutcome::default();
    // History H: interval → previous refinement attempts (sql, median cost).
    // BTreeMap: keyed access only today, but anything feeding prompt
    // construction stays ordered by policy (HashMap iteration order once
    // leaked into reports from this module's neighbor).
    let mut history: BTreeMap<usize, Vec<(String, f64)>> = BTreeMap::new();
    let schema = oracle.db().schema_summary();

    for &(tau, k, m, use_history) in &config.phases {
        for _iter in 0..k {
            let cover = coverage(templates, target);
            let low: Vec<usize> = (0..target.intervals.count)
                .filter(|&j| target.counts[j] > 0.0 && cover[j] < tau * target.counts[j])
                .collect();
            if low.is_empty() {
                break;
            }
            refine_for_intervals(
                oracle,
                llm,
                templates,
                target,
                cost_type,
                &low,
                m,
                use_history,
                &mut history,
                &schema,
                config.profile_samples,
                rng,
                &mut outcome,
            );
        }
    }

    // Final sweep (Figure 4, Step 3): drop templates that cannot produce
    // any cost inside the working range at all.
    templates.retain(|t| {
        !t.costs.is_empty() && t.costs.iter().any(|&c| target.intervals.interval_of(c).is_some())
    });
    outcome
}

/// The `RefineForIntervals` function of Algorithm 2 (lines 12–32).
#[allow(clippy::too_many_arguments)]
fn refine_for_intervals<M: LanguageModel>(
    oracle: &CostOracle,
    llm: &mut M,
    templates: &mut Vec<ProfiledTemplate>,
    target: &TargetDistribution,
    cost_type: CostType,
    target_intervals: &[usize],
    m: usize,
    use_history: bool,
    history: &mut BTreeMap<usize, Vec<(String, f64)>>,
    schema: &str,
    profile_samples: usize,
    rng: &mut StdRng,
    outcome: &mut RefineOutcome,
) {
    for &j in target_intervals {
        let (lo, hi) = target.intervals.bounds(j);
        // Whether any candidate for this interval yielded a usable
        // response; when none does, the interval is abandoned this round.
        let mut any_response = false;
        let calls_before = outcome.refine_calls;

        // Rank existing templates by closeness to interval j (Eq. 2).
        let mut scored: Vec<(usize, f64)> =
            templates.iter().enumerate().map(|(idx, t)| (idx, t.closeness(lo, hi))).collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<usize> = scored.iter().take(m).map(|(idx, _)| *idx).collect();

        for template_idx in top {
            let base = &templates[template_idx];
            let mut prompt = PromptBuilder::new(TASK_REFINE)
                .schema(schema)
                .template(&base.template.sql())
                .target_interval(lo, hi)
                .profile(&base.costs);
            if use_history {
                if let Some(entries) = history.get(&j) {
                    if !entries.is_empty() {
                        prompt = prompt.history(entries);
                    }
                }
            }
            outcome.refine_calls += 1;
            let response = match llm.complete(&prompt.build()) {
                Ok(response) => response,
                Err(LlmError::Malformed { .. }) => {
                    outcome.degradation.malformed_responses += 1;
                    continue;
                }
                Err(_) => {
                    outcome.degradation.llm_failures += 1;
                    continue;
                }
            };
            let Some(sql) = parse_sql_response(&response) else {
                outcome.degradation.malformed_responses += 1;
                continue;
            };
            any_response = true;
            let Ok(new_template) = parse_template(&sql) else { continue };
            if oracle.db().validate_template(&new_template).is_err() {
                continue;
            }
            let profiled = profile_template(oracle, new_template, cost_type, profile_samples, rng);

            if should_prune(&profiled, templates, target, target_intervals) {
                outcome.pruned += 1;
            } else {
                history.entry(j).or_default().push((sql, profiled.median_cost()));
                templates.push(profiled);
                outcome.accepted += 1;
            }
        }
        if !any_response && outcome.refine_calls > calls_before {
            // Every candidate for this interval was lost to the transport
            // or to protocol breaks; the outer round retries it while it
            // stays under-covered.
            outcome.degradation.abandoned_intervals += 1;
        }
    }
}

/// The pruning rule (Eq. 4): keep a refined template when it hits an
/// underrepresented interval or lowers the distribution distance.
fn should_prune(
    candidate: &ProfiledTemplate,
    pool: &[ProfiledTemplate],
    target: &TargetDistribution,
    target_intervals: &[usize],
) -> bool {
    // Case 1: any observed cost lands in a target (underrepresented)
    // interval.
    for &cost in &candidate.costs {
        if let Some(j) = target.intervals.interval_of(cost) {
            if target_intervals.contains(&j) {
                return false;
            }
        }
    }
    // Case 2: adding the candidate's contribution lowers D(d_c + v, d*).
    let current = coverage(pool, target);
    let width = target.intervals.width();
    let before = wasserstein_distance(&target.counts, &current, width);
    let mut after_counts = current;
    for &cost in &candidate.costs {
        if let Some(j) = target.intervals.interval_of(cost) {
            after_counts[j] += 1.0;
        }
    }
    let after = wasserstein_distance(&target.counts, &after_counts, width);
    after >= before
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::SyntheticLlm;
    use rand::SeedableRng;
    use workload::{CostIntervals, TargetDistribution};

    fn tpch() -> minidb::Database {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    }

    fn pool(oracle: &CostOracle, rng: &mut StdRng) -> Vec<ProfiledTemplate> {
        [
            "SELECT l.l_orderkey, l.l_extendedprice FROM lineitem AS l \
             WHERE l.l_extendedprice > {p_1}",
            "SELECT o.o_orderkey FROM orders AS o WHERE o.o_totalprice > {p_1}",
        ]
        .iter()
        .map(|sql| {
            profile_template(oracle, parse_template(sql).unwrap(), CostType::Cardinality, 12, rng)
        })
        .collect()
    }

    #[test]
    fn coverage_counts_in_range_costs_only() {
        let target = TargetDistribution::uniform(CostIntervals::paper_default(10), 100);
        let t = ProfiledTemplate {
            template: parse_template("SELECT * FROM t").unwrap(),
            space: crate::sampler::PlaceholderSpace { dims: vec![], space: Default::default() },
            costs: vec![500.0, 1500.0, 50_000.0],
            evaluations: vec![],
            consumed: 3.0,
        };
        let cover = coverage(&[t], &target);
        assert_eq!(cover[0], 1.0);
        assert_eq!(cover[1], 1.0);
        assert_eq!(cover.iter().sum::<f64>(), 2.0);
    }

    #[test]
    fn refinement_improves_coverage_of_missing_intervals() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let mut rng = StdRng::seed_from_u64(17);
        let mut templates = pool(&oracle, &mut rng);
        let target = TargetDistribution::uniform(CostIntervals::paper_default(10), 200);
        let before_cover = coverage(&templates, &target);
        let missing_before = before_cover.iter().filter(|&&c| c == 0.0).count();

        let mut llm = SyntheticLlm::reliable(17);
        let outcome = refine_and_prune(
            &oracle,
            &mut llm,
            &mut templates,
            &target,
            CostType::Cardinality,
            &RefineConfig::default(),
            &mut rng,
        );
        let after_cover = coverage(&templates, &target);
        let missing_after = after_cover.iter().filter(|&&c| c == 0.0).count();
        assert!(outcome.refine_calls > 0);
        assert!(missing_after <= missing_before, "missing {missing_before} → {missing_after}");
        assert!(outcome.accepted > 0, "no refined template accepted");
    }

    #[test]
    fn transport_faults_skip_intervals_without_aborting() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let mut rng = StdRng::seed_from_u64(29);
        let mut templates = pool(&oracle, &mut rng);
        let target = TargetDistribution::uniform(CostIntervals::paper_default(10), 200);
        // A lossy transport with no retry layer: most refine calls die.
        let mut llm = llm::FaultyTransport::new(
            SyntheticLlm::reliable(29),
            llm::TransportFaultConfig::uniform(0.6),
            57,
        );
        let outcome = refine_and_prune(
            &oracle,
            &mut llm,
            &mut templates,
            &target,
            CostType::Cardinality,
            &RefineConfig::default(),
            &mut rng,
        );
        assert!(outcome.refine_calls > 0);
        assert!(
            outcome.degradation.llm_failures > 0,
            "expected lost calls at 60% faults: {:?}",
            outcome.degradation
        );
        // The pool survives and templates stay in-range.
        assert!(!templates.is_empty());
    }

    #[test]
    fn pruning_rejects_useless_candidates() {
        let target = TargetDistribution::uniform(CostIntervals::paper_default(10), 100);
        let make = |costs: Vec<f64>| ProfiledTemplate {
            template: parse_template("SELECT * FROM t").unwrap(),
            space: crate::sampler::PlaceholderSpace { dims: vec![], space: Default::default() },
            costs,
            evaluations: vec![],
            consumed: 1.0,
        };
        let pool = vec![make(vec![500.0; 20])];
        // candidate costs land nowhere near the range: prune
        assert!(should_prune(&make(vec![90_000.0]), &pool, &target, &[5]));
        // candidate hits the underrepresented interval 5: keep
        assert!(!should_prune(&make(vec![5_500.0]), &pool, &target, &[5]));
        // candidate hits interval 1 (not targeted, but empty): it reduces
        // the Wasserstein distance, so Eq. 4's second clause keeps it.
        assert!(!should_prune(&make(vec![1_500.0]), &pool, &target, &[5]));
    }

    #[test]
    fn out_of_range_templates_are_swept() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut templates = pool(&oracle, &mut rng);
        templates.push(ProfiledTemplate {
            template: parse_template("SELECT * FROM t").unwrap(),
            space: crate::sampler::PlaceholderSpace { dims: vec![], space: Default::default() },
            costs: vec![1e9],
            evaluations: vec![],
            consumed: 1.0,
        });
        let before = templates.len();
        let target = TargetDistribution::uniform(CostIntervals::paper_default(10), 50);
        let mut llm = SyntheticLlm::reliable(5);
        refine_and_prune(
            &oracle,
            &mut llm,
            &mut templates,
            &target,
            CostType::Cardinality,
            &RefineConfig { phases: vec![], profile_samples: 5 },
            &mut rng,
        );
        assert!(templates.len() < before + 1, "sweep should drop the outlier");
        assert!(templates.iter().all(|t| t.costs.iter().any(|&c| c <= 10_000.0)));
    }
}
