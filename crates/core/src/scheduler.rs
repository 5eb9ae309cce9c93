//! Deficit-driven interval scheduler for Algorithm 3 (§5.3).
//!
//! The paper's BO predicate search picks the single largest-deficit
//! interval and runs one `(interval, template)` optimization at a time.
//! That serial outer loop leaves most of the `--threads N` worker pool
//! idle during the explore phase, whose mini-batches are deliberately
//! tiny ([`BATCH_EXPLORE`]). The per-interval searches are nearly
//! independent, so this module runs them concurrently — without giving up
//! the workspace's bit-identical-at-any-thread-count discipline:
//!
//! * **Rounds.** Each round selects the top-K deficit intervals. K scales
//!   with the *deficit profile* (how many intervals still need a
//!   comparable amount of work), never with the thread count, so the
//!   schedule — and therefore the output — is a pure function of the
//!   search state. `--bo-rounds-concurrency` pins K instead.
//! * **Disjoint claims.** Selection runs serially in deficit order; each
//!   interval weight-samples its candidate templates (Eq. 2) from the
//!   templates no earlier interval claimed this round. Tasks therefore
//!   own their templates' mutable profiling state outright. An interval
//!   whose candidates are all claimed is *deferred* (no failure charged);
//!   an interval with no candidates at all is skipped, as in the serial
//!   loop.
//! * **Task-local acceptance.** A task searches against a [`LocalView`]: a
//!   clone of the interval deficits `d` and a frozen snapshot of the
//!   accepted-SQL set. It never touches shared state.
//! * **Round barrier.** After all tasks join, their locally accepted
//!   queries are re-admitted against the real state in canonical
//!   `(interval index, template index)` order. Over-admission — two tasks
//!   filling the same neighbor interval, or proposing the same SQL — is
//!   resolved by that order, not by arrival order. Utility ratios
//!   (Eq. 6), failure counters, and skip decisions are computed from the
//!   post-merge counts, also at the barrier.
//! * **Seed splits.** Every random draw comes from an RNG seeded by
//!   `split_seed` chains keyed on `(round, interval, template)`, so no
//!   task's stream depends on which worker runs it or when.
//!
//! The thread budget is split between the round's tasks and each task's
//! inner oracle batches: with T threads and K tasks, each task costs its
//! mini-batches on `max(1, T/K)` workers
//! ([`CostOracle::cost_prepared_batch_columnar_on`]).

use crate::bo_search::{
    interval_objective, weighted_sample, BoSearchConfig, SearchResult,
    SearchState, BATCH_EXPLORE, BATCH_HARVEST,
};
use crate::cost::CostType;
use crate::oracle::{ColumnarScratch, CostOracle};
use crate::profiler::ProfiledTemplate;
use bayesopt::parallel::{parallel_map, split_seed};
use bayesopt::{BoConfig, Evaluation, Optimizer};
use crate::lockorder::{self, OrderedMutex};
use minidb::BindingBatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use workload::TargetDistribution;

/// Ceiling on the auto-selected task count per round.
const MAX_AUTO_TASKS: usize = 8;
/// Auto mode admits an interval into a round when its deficit is at least
/// this fraction of the round's largest deficit.
const AUTO_DEFICIT_FRACTION: f64 = 0.5;

/// One (interval, claimed templates) work item within a round.
struct RoundTask {
    interval: usize,
    lo: f64,
    hi: f64,
    /// Deficit at selection time; sizes the per-run BO budget.
    delta: f64,
    /// Claimed template indices, in weighted-sample order.
    templates: Vec<usize>,
    /// Seed for this task's per-run RNGs (split per template index).
    seed: u64,
}

/// A query accepted against a task's local view; ratified or rejected at
/// the round barrier.
struct LocalAccept {
    sql: String,
    cost: f64,
}

/// Outcome of one `(interval, template)` BO run inside a task.
struct RunOutcome {
    template_idx: usize,
    generated: usize,
    accepts: Vec<LocalAccept>,
}

/// Everything one task hands to the merge step.
struct TaskOutcome {
    interval: usize,
    runs: Vec<RunOutcome>,
}

/// Task-local view of the shared acceptance state: deficits cloned at the
/// round start plus a frozen reference to the globally accepted SQL set.
/// Accepting locally never mutates shared state; the merge re-runs every
/// acceptance against the real [`SearchState`].
struct LocalView<'a> {
    d: Vec<f64>,
    global_seen: &'a HashSet<String>,
    new_seen: HashSet<String>,
}

impl LocalView<'_> {
    /// Cost-only prefix of [`LocalView::try_accept`], so the hot path can
    /// defer rendering SQL until a cost qualifies.
    fn would_consider(&self, cost: f64, target: &TargetDistribution) -> bool {
        match target.intervals.interval_of(cost) {
            Some(j) => self.d[j] < target.counts[j],
            None => false,
        }
    }

    fn try_accept(&mut self, sql: &str, cost: f64, target: &TargetDistribution) -> bool {
        let Some(j) = target.intervals.interval_of(cost) else { return false };
        if self.d[j] >= target.counts[j] {
            return false;
        }
        if self.global_seen.contains(sql) || self.new_seen.contains(sql) {
            return false;
        }
        self.new_seen.insert(sql.to_string());
        self.d[j] += 1.0;
        true
    }
}

/// How many intervals a round works on. Auto mode (`configured == 0`)
/// counts the intervals whose deficit is within [`AUTO_DEFICIT_FRACTION`]
/// of the largest — "how many intervals need a comparable amount of work
/// right now" — clamped to [1, [`MAX_AUTO_TASKS`]]. The width is a pure
/// function of the deficit profile; the thread count never enters.
fn round_width(eligible: &[(usize, f64)], configured: usize) -> usize {
    if configured > 0 {
        return configured.min(eligible.len()).max(1);
    }
    let max_deficit = eligible.first().map(|&(_, d)| d).unwrap_or(0.0);
    eligible
        .iter()
        .filter(|&&(_, d)| d >= AUTO_DEFICIT_FRACTION * max_deficit)
        .count()
        .clamp(1, MAX_AUTO_TASKS)
}

/// The deficit scheduler's state between rounds: the loop state of
/// [`deficit_schedule`], what its round observer sees, and what a
/// mid-search checkpoint stores
/// ([`crate::snapshot::PhaseState::MidSearch`]). Every per-round RNG
/// chain is keyed by `(search_seed, round)`, so restoring this state
/// reproduces the exact remaining schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedState {
    /// The search's master seed (drawn from the driver RNG).
    pub search_seed: u64,
    /// The next round the search runs.
    pub next_round: u64,
    /// Bad `(interval, template)` combinations (Eq. 6).
    pub bad: BTreeSet<(usize, usize)>,
    /// Skipped intervals.
    pub skip: BTreeSet<usize>,
    /// Consecutive fruitless rounds per interval.
    pub failures: BTreeMap<usize, u32>,
    /// Oracle evaluations spent by the search so far.
    pub evaluations: usize,
    /// Per-interval counts and the queries accepted so far.
    pub accepted: SearchState,
}

impl SchedState {
    /// The state before round 0 of a search that starts from `accepted`.
    pub(crate) fn new(search_seed: u64, accepted: SearchState) -> SchedState {
        SchedState {
            search_seed,
            next_round: 0,
            bad: BTreeSet::new(),
            skip: BTreeSet::new(),
            failures: BTreeMap::new(),
            evaluations: 0,
            accepted,
        }
    }
}

/// Observer verdict at a round boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundControl {
    /// Keep searching.
    Continue,
    /// Stop after this round (kill-switch unwind); the caller decides
    /// what the early return means.
    Stop,
}

/// Run the scheduled BO search until every interval is filled or skipped.
/// Replaces the paper's serial outer loop; at any thread count the rounds,
/// tasks, and merges are identical, so concurrency is a pure perf knob.
///
/// `state` is either fresh ([`SchedState::new`]) or restored from a
/// mid-search checkpoint; either way the loop continues at
/// `state.next_round`. `on_round` observes every round boundary — after
/// the merge, when no task borrows are alive — and may stop the search.
#[allow(clippy::too_many_arguments)]
pub(crate) fn deficit_schedule(
    oracle: &CostOracle,
    templates: &mut [ProfiledTemplate],
    target: &TargetDistribution,
    cost_type: CostType,
    config: &BoSearchConfig,
    mut state: SchedState,
    mut on_progress: impl FnMut(&[f64]),
    mut on_round: impl FnMut(&SchedState, &[ProfiledTemplate]) -> RoundControl,
) -> SearchResult {
    let n_templates = templates.len();

    // The exclusive bound keeps `round + 1` from overflowing.
    for round in state.next_round..u64::MAX {
        let round_seed = split_seed(state.search_seed, round);

        // Intervals still owed queries, by descending deficit
        // (index-ascending on ties).
        let mut eligible: Vec<(usize, f64)> = (0..target.intervals.count)
            .filter(|j| !state.skip.contains(j))
            .map(|j| (j, target.counts[j] - state.accepted.d[j]))
            .filter(|(_, delta)| *delta > 0.0)
            .collect();
        if eligible.is_empty() {
            break;
        }
        eligible.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let width = round_width(&eligible, config.rounds_concurrency);

        // Serial selection in deficit order: rank, filter, and
        // weight-sample candidate templates per interval, claiming each
        // template for at most one task this round.
        let mut claimed_templates: HashSet<usize> = HashSet::new();
        let mut tasks: Vec<RoundTask> = Vec::new();
        for &(j, delta) in eligible.iter().take(width) {
            let (lo, hi) = target.intervals.bounds(j);
            let mut candidates: Vec<(usize, f64)> = (0..n_templates)
                .filter(|&idx| !state.bad.contains(&(j, idx)))
                .filter(|&idx| {
                    templates[idx].remaining_space() >= config.space_factor * delta
                })
                .filter(|&idx| {
                    templates[idx].variety() >= config.min_variety
                        || templates[idx].costs.len() < 10
                })
                .map(|idx| (idx, templates[idx].closeness(lo, hi)))
                .filter(|(_, score)| *score > 0.0)
                .collect();
            if candidates.is_empty() {
                // Nothing can serve this interval, now or later — same
                // rule as the serial loop.
                state.skip.insert(j);
                continue;
            }
            candidates.retain(|(idx, _)| !claimed_templates.contains(idx));
            if candidates.is_empty() {
                // Its templates are busy in this round; try again next
                // round without charging a failure.
                continue;
            }
            let mut sel_rng = StdRng::seed_from_u64(split_seed(round_seed, 2 * j as u64));
            let selected =
                weighted_sample(&mut candidates, config.weighted_sample, &mut sel_rng);
            claimed_templates.extend(selected.iter().copied());
            tasks.push(RoundTask {
                interval: j,
                lo,
                hi,
                delta,
                templates: selected,
                seed: split_seed(round_seed, 2 * j as u64 + 1),
            });
        }
        if tasks.is_empty() {
            // Every selected interval was skipped outright; the skip set
            // grew, so the loop still terminates.
            continue;
        }
        // Canonical order: selection ran in deficit order, but launch and
        // merge run in ascending interval index.
        tasks.sort_by_key(|task| task.interval);

        // Thread budget: task slots × inner costing workers ≤ threads.
        let threads = oracle.threads();
        let slots = tasks.len().min(threads).max(1);
        let inner_threads = (threads / slots).max(1);

        // Hand each task its claimed templates. The claims are disjoint,
        // so every `&mut ProfiledTemplate` moves to exactly one task; the
        // Mutex is only there to let the shared-reference worker closure
        // reach its task's payload (each lock is taken exactly once).
        let mut loans: Vec<Option<&mut ProfiledTemplate>> =
            templates.iter_mut().map(Some).collect();
        let payloads: Vec<OrderedMutex<Vec<(usize, &mut ProfiledTemplate)>>> = tasks
            .iter()
            .map(|task| {
                OrderedMutex::new(
                    lockorder::PAYLOADS,
                    task.templates
                        .iter()
                        .map(|&idx| (idx, loans[idx].take().expect("template claimed once")))
                        .collect(),
                )
            })
            .collect();

        let round_d = state.accepted.d.clone();
        let frozen_seen = &state.accepted.seen;
        let outcomes: Vec<TaskOutcome> = parallel_map(slots, &tasks, |i, task| {
            let mut payload = payloads[i].lock();
            run_task(
                oracle,
                task,
                &mut payload,
                &round_d,
                frozen_seen,
                target,
                cost_type,
                config,
                inner_threads,
            )
        });

        // Round barrier: ratify local accepts against the real state in
        // canonical (interval, template, generation) order, then settle
        // Eq. 6 badness and failure/skip bookkeeping from the post-merge
        // counts.
        let mut overadmissions = 0u64;
        let n_tasks = outcomes.len() as u64;
        for outcome in outcomes {
            let j = outcome.interval;
            let before = state.accepted.d[j];
            for run in outcome.runs {
                state.evaluations += run.generated;
                let mut accepted = 0usize;
                let mut accepted_target = 0usize;
                for admit in run.accepts {
                    if state.accepted.try_accept(admit.sql, admit.cost, target) {
                        accepted += 1;
                        if target.intervals.interval_of(admit.cost) == Some(j) {
                            accepted_target += 1;
                        }
                    } else {
                        overadmissions += 1;
                    }
                }
                // Utility ratio (Eq. 6): a combination is bad when it
                // predominantly wastes evaluations — low ratio AND no
                // progress on the targeted interval itself.
                if run.generated > 0 {
                    let utility = accepted as f64 / run.generated as f64;
                    if utility < config.utility_cutoff && accepted_target == 0 {
                        state.bad.insert((j, run.template_idx));
                    }
                }
                on_progress(&state.accepted.d);
            }
            if state.accepted.d[j] <= before {
                let count = state.failures.entry(j).or_insert(0);
                *count += 1;
                if *count >= config.failure_cap {
                    state.skip.insert(j);
                }
            }
        }
        oracle.note_scheduler_round(n_tasks, overadmissions);

        // Release the template loans so the observer can read the whole
        // (now merge-consistent) template slice.
        drop(payloads);
        drop(loans);
        state.next_round = round + 1;
        if on_round(&state, templates) == RoundControl::Stop {
            break;
        }
    }

    SearchResult {
        queries: state.accepted.queries,
        distribution: state.accepted.d,
        skipped: state.skip.into_iter().collect(),
        evaluations: state.evaluations,
    }
}

/// Execute one task: run the claimed templates in order against a local
/// view, stopping early once the local view says the target interval is
/// full (exactly like the serial loop's per-interval template sweep).
#[allow(clippy::too_many_arguments)]
fn run_task(
    oracle: &CostOracle,
    task: &RoundTask,
    claimed: &mut [(usize, &mut ProfiledTemplate)],
    round_d: &[f64],
    frozen_seen: &HashSet<String>,
    target: &TargetDistribution,
    cost_type: CostType,
    config: &BoSearchConfig,
    inner_threads: usize,
) -> TaskOutcome {
    let mut view = LocalView {
        d: round_d.to_vec(),
        global_seen: frozen_seen,
        new_seen: HashSet::new(),
    };
    let budget = ((config.budget_factor * task.delta).ceil() as usize)
        .clamp(config.min_run_budget.min(config.max_run_budget), config.max_run_budget);
    let mut runs = Vec::with_capacity(claimed.len());
    for (template_idx, template) in claimed.iter_mut() {
        let mut run_rng =
            StdRng::seed_from_u64(split_seed(task.seed, *template_idx as u64));
        let (generated, accepts) = execute_run(
            oracle,
            template,
            task.interval,
            task.lo,
            task.hi,
            budget,
            target,
            cost_type,
            config,
            inner_threads,
            &mut run_rng,
            &mut view,
        );
        runs.push(RunOutcome { template_idx: *template_idx, generated, accepts });
        if target.counts[task.interval] - view.d[task.interval] <= 0.0 {
            break; // locally full; the merge has the final say
        }
    }
    TaskOutcome { interval: task.interval, runs }
}

/// One `BayesianOptimize(T, I_j*, n)` run against a task-local view.
/// Returns `(generated, locally accepted queries in generation order)`.
///
/// Probes are costed in fixed-size mini-batches through the oracle's
/// worker pool: each batch is drawn serially (RNG and surrogate state
/// never touch the parallel section), costed on `inner_threads` workers,
/// and processed in submission order. Probes travel as binding vectors
/// over the template's prepared plan; SQL is rendered only for costs that
/// clear the interval and deficit checks.
#[allow(clippy::too_many_arguments)]
fn execute_run(
    oracle: &CostOracle,
    template: &mut ProfiledTemplate,
    j_star: usize,
    lo: f64,
    hi: f64,
    budget: usize,
    target: &TargetDistribution,
    cost_type: CostType,
    config: &BoSearchConfig,
    inner_threads: usize,
    rng: &mut StdRng,
    view: &mut LocalView,
) -> (usize, Vec<LocalAccept>) {
    let mut generated = 0;
    let mut accepts: Vec<LocalAccept> = Vec::new();

    // Candidates reach this run only with closeness > 0, which requires
    // successfully profiled (hence plannable) templates; the bail-out is
    // pure defense.
    let Ok(prepared) = oracle.prepare(&template.template) else {
        return (0, accepts);
    };

    let mut optimizer = Optimizer::new(
        template.space.space.clone(),
        BoConfig { seed: rng.gen(), threads: inner_threads, ..config.bo },
    );
    // Warm start: re-score historical evaluations under the current
    // interval objective (the paper's run-history reuse).
    optimizer.warm_start(template.evaluations.iter().map(|e| Evaluation {
        point: e.point.clone(),
        value: interval_objective(e.value, lo, hi),
    }));

    // Points already known to land inside the interval. Once the search
    // has *found* the conforming region, pure EI degenerates (the
    // objective is flat at 0 there, and re-proposing the incumbent yields
    // duplicate SQL); §5.3 prescribes "balancing the exploitation of
    // predicate values already known to satisfy the cost targets with the
    // exploration of unknown predicate values" — exploitation here means
    // harvesting distinct neighbours of the known-good points.
    let mut conforming: Vec<Vec<f64>> = Vec::new();

    // Arenas for the columnar batch path, reused across every mini-batch
    // of this run: warm batches cost probes without allocating.
    let mut scratch = ColumnarScratch::new();
    let mut batch = BindingBatch::default();

    let mut spent = 0;
    'runs: while spent < budget {
        // Batch size depends only on search state, never on thread count.
        let batch_size = if conforming.is_empty() { BATCH_EXPLORE } else { BATCH_HARVEST }
            .min(budget - spent);
        let mut points: Vec<Vec<f64>> = Vec::with_capacity(batch_size);
        for _ in 0..batch_size {
            spent += 1;
            let point = if conforming.is_empty() || template.space.arity() == 0 {
                optimizer.ask()
            } else if rng.gen_bool(0.75) {
                let base = &conforming[rng.gen_range(0..conforming.len())];
                template.space.space.perturb(base, 0.12, rng)
            } else {
                template.space.space.sample_unit(rng)
            };
            points.push(point);
        }
        template.space.decode_batch(&points, &mut batch);

        let costs = oracle.cost_prepared_batch_columnar_on(
            inner_threads,
            &prepared,
            &batch,
            cost_type,
            &mut scratch,
        );
        for (row, (point, cost)) in points.into_iter().zip(costs).enumerate() {
            let &Ok(cost) = cost else { continue };
            generated += 1;
            template.consumed += 1.0;
            template.costs.push(cost);
            template.evaluations.push(Evaluation { point: point.clone(), value: cost });
            let objective = interval_objective(cost, lo, hi);
            if conforming.is_empty() {
                optimizer.tell(point.clone(), objective);
            }
            if objective == 0.0 && conforming.len() < 64 {
                conforming.push(point);
            }
            // Render SQL only once the cost clears the interval/deficit
            // checks — the seen-set still needs the text, but rejected
            // probes (the vast majority) never materialize a string.
            if view.would_consider(cost, target) {
                if let Ok(query) = template.template.instantiate(batch.row(row)) {
                    let sql = query.to_string();
                    if view.try_accept(&sql, cost, target) {
                        accepts.push(LocalAccept { sql, cost });
                    }
                }
            }
            if target.counts[j_star] - view.d[j_star] <= 0.0 {
                break 'runs; // the targeted interval is locally full
            }
        }
    }
    (generated, accepts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::CostIntervals;

    #[test]
    fn round_width_scales_with_the_deficit_profile_not_threads() {
        // One dominant deficit → width 1 regardless of anything else.
        assert_eq!(round_width(&[(0, 100.0), (1, 10.0), (2, 5.0)], 0), 1);
        // Three comparable deficits → width 3.
        assert_eq!(round_width(&[(4, 100.0), (1, 80.0), (2, 51.0), (3, 10.0)], 0), 3);
        // Many comparable deficits → clamped to the auto ceiling.
        let flat: Vec<(usize, f64)> = (0..20).map(|j| (j, 50.0)).collect();
        assert_eq!(round_width(&flat, 0), MAX_AUTO_TASKS);
        // Explicit concurrency pins the width (capped by eligibility).
        assert_eq!(round_width(&flat, 3), 3);
        assert_eq!(round_width(&[(0, 9.0)], 5), 1);
    }

    /// Over-admission: two tasks of one round both locally accept into the
    /// same one-slot interval. The merge must ratify the canonically first
    /// accept (lower interval index) and reject the other, identically on
    /// every merge.
    #[test]
    fn merge_resolves_overadmission_by_canonical_order() {
        let target = TargetDistribution::uniform(CostIntervals::new(0.0, 300.0, 3), 3);
        // target.counts = [1, 1, 1]; both tasks below accept a query whose
        // cost lands in interval 1 (the shared neighbor).
        let merge = || {
            let mut state = SearchState::new(vec![0.0; 3], Vec::new());
            let outcomes = vec![
                TaskOutcome {
                    interval: 0,
                    runs: vec![RunOutcome {
                        template_idx: 7,
                        generated: 2,
                        accepts: vec![
                            LocalAccept { sql: "SELECT a".into(), cost: 50.0 },
                            LocalAccept { sql: "SELECT b".into(), cost: 150.0 },
                        ],
                    }],
                },
                TaskOutcome {
                    interval: 2,
                    runs: vec![RunOutcome {
                        template_idx: 3,
                        generated: 2,
                        accepts: vec![
                            // Same neighbor interval as task 0's second
                            // accept — only one slot exists.
                            LocalAccept { sql: "SELECT c".into(), cost: 160.0 },
                            // Same SQL as task 0's first accept.
                            LocalAccept { sql: "SELECT a".into(), cost: 250.0 },
                        ],
                    }],
                },
            ];
            let mut overadmissions = 0u64;
            for outcome in outcomes {
                for run in outcome.runs {
                    for admit in run.accepts {
                        if !state.try_accept(admit.sql, admit.cost, &target) {
                            overadmissions += 1;
                        }
                    }
                }
            }
            let mut sqls: Vec<String> =
                state.queries.iter().map(|q| q.sql.clone()).collect();
            sqls.sort();
            (state.d, sqls, overadmissions)
        };
        let (d, sqls, over) = merge();
        // Task 0's accepts win both conflicts: interval 1 holds "SELECT b",
        // and the duplicate "SELECT a" from task 2 is rejected.
        assert_eq!(d, vec![1.0, 1.0, 0.0]);
        assert_eq!(sqls, vec!["SELECT a".to_string(), "SELECT b".to_string()]);
        assert_eq!(over, 2);
        // Deterministic: re-merging the same outcomes yields the same
        // resolution.
        assert_eq!(merge(), merge());
    }

    /// The local view freezes the global seen-set and deficits: accepts
    /// respect both, and duplicates within the task are caught too.
    #[test]
    fn local_view_enforces_frozen_state_and_local_dedupe() {
        // counts = [4, 4]
        let target = TargetDistribution::uniform(CostIntervals::new(0.0, 200.0, 2), 8);
        let mut global_seen = HashSet::new();
        global_seen.insert("SELECT old".to_string());
        let mut view = LocalView {
            d: vec![1.0, 2.0],
            global_seen: &global_seen,
            new_seen: HashSet::new(),
        };
        assert!(!view.try_accept("SELECT old", 50.0, &target), "globally seen");
        assert!(view.try_accept("SELECT x", 50.0, &target));
        assert!(!view.try_accept("SELECT x", 150.0, &target), "locally seen");
        assert!(view.try_accept("SELECT y", 50.0, &target));
        assert_eq!(view.d[0], 3.0);
        assert!(!view.would_consider(250.0, &target), "out of range");
    }
}
