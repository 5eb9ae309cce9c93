//! The traced pass: `SqlBarber::generate` rebuilt from the library's
//! public calls, with a span around each layer, then replays that time
//! single layers on the run's final state.
//!
//! The rebuilt pipeline must reproduce the untraced run exactly (query
//! texts, cost bits, `OracleStats`, token usage, amplification output);
//! otherwise the trace describes some other computation and is rejected.

use crate::alloc::count_during;
use crate::stats::{median, ratio};
use crate::verify::file_hash;
use crate::workloads::Workload;
use bayesopt::forest::ForestConfig;
use bayesopt::{split_seed, BoConfig, Evaluation, Optimizer, RandomForest};
use llm::{
    FaultyTransport, LanguageModel, LlmError, ModelState, ResilienceStats, ResilientLlm,
    SyntheticLlm, TokenUsage,
};
use minidb::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlbarber::amplify::{amplify_workload, AmplifyConfig, AmplifyStats};
use sqlbarber::bo_search::{bo_predicate_search, interval_objective};
use sqlbarber::driver::DefaultLlm;
use sqlbarber::profiler::{profile_batch, ProfiledTemplate};
use sqlbarber::refine::refine_and_prune;
use sqlbarber::snapshot::{
    CheckpointDir, PhaseState, ReportAcc, Snapshot, StoredResult, TemplatePool,
};
use sqlbarber::template_gen::generate_templates;
use sqlbarber::{
    ColumnarScratch, CostOracle, CostType, GenerationReport, OracleStats, SqlBarberConfig,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;
use workload::{wasserstein_distance, AtomicFile, TargetDistribution};

/// Cold-probe replay: templates sampled from the final pool.
const COLD_TEMPLATES: usize = 8;
/// Surrogate replay: templates sampled, timed asks per optimizer.
const SURROGATE_TEMPLATES: usize = 16;
const SURROGATE_ASKS: usize = 4;
/// `CheckpointDir::store` calls timed by the checkpoint replay.
const STORE_REPEATS: usize = 5;

/// Replay sizes: fresh bindings per template for the cold-probe replay,
/// and queries and batch size of the amplification replay run on
/// workloads without that stage. Execution-based cost types run every
/// probe (~5 ms each on `exec_actual_card`), so they replay less.
struct ReplaySizes {
    cold_bindings: usize,
    amplify: AmplifyConfig,
}

impl ReplaySizes {
    fn for_cost_type(cost_type: CostType) -> ReplaySizes {
        let (cold_bindings, n, batch) = if cost_type.requires_execution() {
            (32, 50, 16)
        } else {
            (256, 20_000, 0)
        };
        ReplaySizes {
            cold_bindings,
            amplify: AmplifyConfig {
                n,
                batch,
                ..AmplifyConfig::default()
            },
        }
    }
}

/// Per-layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What the traced pass is checked against and compared with.
pub struct Reference<'a> {
    pub report: &'a GenerationReport,
    /// Median untraced wall time, seconds.
    pub wall_s: f64,
    /// FNV-1a of the untraced run's amplified file (0 without one).
    pub amplified_hash: u64,
    /// Snapshots the untraced run wrote, and the newest of them.
    pub snapshots: u64,
    pub newest_snapshot: Option<Snapshot>,
}

/// A `LanguageModel` wrapper that counts and times `complete` calls.
struct TimedLlm<M> {
    inner: M,
    calls: u64,
    busy_s: f64,
}

impl<M: LanguageModel> LanguageModel for TimedLlm<M> {
    fn complete(&mut self, prompt: &str) -> Result<String, LlmError> {
        let start = Instant::now();
        let response = self.inner.complete(prompt);
        self.busy_s += start.elapsed().as_secs_f64();
        self.calls += 1;
        response
    }

    fn usage(&self) -> TokenUsage {
        self.inner.usage()
    }

    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn resilience(&self) -> ResilienceStats {
        self.inner.resilience()
    }

    fn export_state(&self) -> Option<ModelState> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &ModelState) -> Result<(), String> {
        self.inner.import_state(state)
    }
}

/// The LLM stack `SqlBarber::new` builds, with the same seed offsets; the
/// equivalence guard fails if they drift apart.
fn default_llm(config: &SqlBarberConfig) -> DefaultLlm {
    let model = SyntheticLlm::new(config.faults, config.seed ^ 0x5ba8_bebe);
    let transport = FaultyTransport::new(model, config.transport, config.seed ^ 0x7a17_5eed);
    ResilientLlm::new(transport, config.retry, config.seed ^ 0x0b0f_f5e7)
}

/// A `Write` wrapper that times every call and counts bytes.
struct TimedWriter<W> {
    inner: W,
    busy_s: f64,
    bytes: u64,
}

impl<W: Write> Write for TimedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.write(buf)?;
        self.busy_s += start.elapsed().as_secs_f64();
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        let start = Instant::now();
        self.inner.flush()?;
        self.busy_s += start.elapsed().as_secs_f64();
        Ok(())
    }
}

/// One timed amplification into an atomically committed file.
struct AmplifyLayer {
    stats: AmplifyStats,
    s: f64,
    write_s: f64,
    bytes: u64,
    allocs: u64,
}

#[allow(clippy::too_many_arguments)]
fn timed_amplify(
    oracle: &CostOracle,
    profiled: &[ProfiledTemplate],
    target: &TargetDistribution,
    cost_type: CostType,
    config: &AmplifyConfig,
    seed: u64,
    path: &Path,
) -> Result<AmplifyLayer, String> {
    let io_err = |e: io::Error| format!("{}: {e}", path.display());
    let start = Instant::now();
    let file = AtomicFile::create(path).map_err(io_err)?;
    let mut out = TimedWriter {
        inner: file,
        busy_s: 0.0,
        bytes: 0,
    };
    let (stats, allocs) = count_during(|| {
        amplify_workload(oracle, profiled, target, cost_type, config, seed, &mut out)
    });
    let stats = stats.map_err(io_err)?;
    let commit = Instant::now();
    out.inner.commit().map_err(io_err)?;
    let write_s = out.busy_s + commit.elapsed().as_secs_f64();
    let s = start.elapsed().as_secs_f64();
    Ok(AmplifyLayer {
        stats,
        s,
        write_s,
        bytes: out.bytes,
        allocs,
    })
}

/// Up to `k` items spread evenly over `items`.
fn spread<T>(items: &[T], k: usize) -> impl Iterator<Item = &T> {
    items
        .iter()
        .step_by((items.len() / k.max(1)).max(1))
        .take(k)
}

/// Run the traced pipeline for `w` into `dir`, check it against
/// `reference`, then replay single layers. `seed` draws the replays'
/// inputs.
pub fn traced_pass(
    w: &Workload,
    db: &Database,
    dir: &Path,
    reference: &Reference,
    seed: u64,
) -> Result<Layers, String> {
    let config = w.config(dir);
    let target = &w.target;
    let total = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut llm = TimedLlm {
        inner: default_llm(&config),
        calls: 0,
        busy_s: 0.0,
    };

    // Algorithm 1: template generation.
    let start = Instant::now();
    let generated = generate_templates(db, &mut llm, &w.specs, config.template_gen, &mut rng);
    let template_gen_s = start.elapsed().as_secs_f64();
    let (template_gen_llm_s, template_gen_calls) = (llm.busy_s, llm.calls);
    let seeds: Vec<_> = generated.seeds.into_iter().map(|s| s.template).collect();
    if seeds.is_empty() {
        return Err(format!("{}: no specification yielded a template", w.name));
    }

    let oracle = CostOracle::new(db, config.threads);
    let mut search = config.search.clone();
    search.bo.threads = oracle.threads();

    // §5.1 profiling.
    let start = Instant::now();
    let profile_seed: u64 = rng.gen();
    let mut profiled = profile_batch(
        &oracle,
        seeds,
        w.cost_type,
        target.total() as usize,
        config.profiling_fraction,
        profile_seed,
    );
    let profiler_s = start.elapsed().as_secs_f64();
    let profiler_physical = oracle.stats().physical_evals;

    // Algorithm 2 refinement and Algorithm 3 search, in
    // `SqlBarber::generate`'s refine → search rounds.
    let (mut refine_s, mut refine_llm_s, mut refine_physical) = (0.0, 0.0, 0u64);
    let (mut refine_accepted, mut refine_calls) = (0usize, 0usize);
    let (mut search_s, mut search_probes, mut search_physical, mut search_allocs) =
        (0.0, 0u64, 0u64, 0u64);
    let mut round = 1;
    let result = loop {
        let start = Instant::now();
        let (llm_before, physical_before) = (llm.busy_s, oracle.stats().physical_evals);
        if config.enable_refine {
            let outcome = refine_and_prune(
                &oracle,
                &mut llm,
                &mut profiled,
                target,
                w.cost_type,
                &config.refine,
                &mut rng,
            );
            refine_accepted += outcome.accepted;
            refine_calls += outcome.refine_calls;
        }
        refine_s += start.elapsed().as_secs_f64();
        refine_llm_s += llm.busy_s - llm_before;
        refine_physical += oracle.stats().physical_evals - physical_before;
        if profiled.is_empty() {
            return Err(format!("{}: refinement pruned every template", w.name));
        }

        let before = oracle.stats();
        let start = Instant::now();
        let (result, allocs) = count_during(|| {
            bo_predicate_search(
                &oracle,
                &mut profiled,
                target,
                w.cost_type,
                &search,
                &mut rng,
                |_| {},
            )
        });
        search_s += start.elapsed().as_secs_f64();
        search_allocs += allocs;
        let after = oracle.stats();
        search_probes += after.logical_probes - before.logical_probes;
        search_physical += after.physical_evals - before.physical_evals;

        let distance = wasserstein_distance(
            &target.counts,
            &result.distribution,
            target.intervals.width(),
        );
        let retry = distance > 0.0
            && !result.skipped.is_empty()
            && config.enable_refine
            && round < config.max_outer_rounds;
        if !retry {
            break result;
        }
        round += 1;
    };

    // Phase 5: amplification, with the seed `SqlBarber::generate` draws.
    let amplified = match &config.amplify {
        Some(amplify) => {
            let amplify_seed: u64 = rng.gen();
            let path = Workload::amplified_path(dir);
            Some(timed_amplify(
                &oracle,
                &profiled,
                target,
                w.cost_type,
                amplify,
                amplify_seed,
                &path,
            )?)
        }
        None => None,
    };
    let wall_s = total.elapsed().as_secs_f64();
    let stats = oracle.stats();

    let diverged = |e: String| {
        format!(
            "{}: traced pipeline diverged from SqlBarber::generate: {e}",
            w.name
        )
    };
    check_equivalence(
        reference.report,
        &result.queries,
        stats,
        llm.usage(),
        amplified.as_ref(),
    )
    .map_err(diverged)?;
    if amplified.is_some() {
        let path = Workload::amplified_path(dir);
        let hash = file_hash(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if hash != reference.amplified_hash {
            return Err(diverged("the amplified files differ".into()));
        }
    }

    // Replays on the final state.
    let sizes = ReplaySizes::for_cost_type(w.cost_type);
    let cold_ns = cold_ns_per_probe(
        db,
        oracle.threads(),
        &profiled,
        w.cost_type,
        sizes.cold_bindings,
        seed,
    );
    let (ask_us, fit_ms) = surrogate_replay(&profiled, target, search.bo, seed);
    let amplify_layer = match amplified {
        Some(a) => a,
        None => {
            let path = dir.join("amplify-replay.sql");
            timed_amplify(
                &oracle,
                &profiled,
                target,
                w.cost_type,
                &sizes.amplify,
                seed,
                &path,
            )?
        }
    };
    // The untraced run's newest checkpoint; without one, the state a
    // checkpoint after the search would hold.
    let final_state;
    let snapshot = match &reference.newest_snapshot {
        Some(newest) => newest,
        None => {
            final_state = Snapshot {
                fingerprint: 0,
                rng: rng.state(),
                llm: llm
                    .export_state()
                    .ok_or("the LLM stack exports no checkpoint state")?,
                acc: ReportAcc::default(),
                pool: TemplatePool::Profiled(profiled.iter().map(|t| t.to_state()).collect()),
                oracle: Some(oracle.export_state()),
                phase: PhaseState::AfterSearch {
                    round: round as u64,
                    result: StoredResult {
                        queries: result
                            .queries
                            .iter()
                            .map(|q| (q.sql.clone(), q.cost))
                            .collect(),
                        distribution: result.distribution.clone(),
                        skipped: result.skipped.iter().map(|&j| j as u64).collect(),
                        evaluations: result.evaluations as u64,
                    },
                },
            };
            &final_state
        }
    };
    let store_ms = store_replay(dir, snapshot)?;

    let ms = |s: f64| s * 1e3;
    let accepted = result.queries.len() as f64;
    let search_ms = ms(search_s);
    let spans = template_gen_s
        + profiler_s
        + refine_s
        + search_s
        + if config.amplify.is_some() {
            amplify_layer.s
        } else {
            0.0
        };
    let overadmit = stats.scheduler_overadmissions as f64;
    let usage = llm.usage();
    Ok(BTreeMap::from([
        ("llm.calls", llm.calls as f64),
        ("llm.ms", ms(llm.busy_s)),
        (
            "llm.tokens_per_call",
            ratio(usage.total_tokens() as f64, llm.calls as f64),
        ),
        ("template_gen.ms", ms(template_gen_s)),
        (
            "template_gen.self_ms",
            ms(template_gen_s - template_gen_llm_s),
        ),
        ("template_gen.attempts", template_gen_calls as f64),
        ("profiler.ms", ms(profiler_s)),
        ("profiler.physical", profiler_physical as f64),
        ("refine.ms", ms(refine_s)),
        ("refine.self_ms", ms(refine_s - refine_llm_s)),
        ("refine.physical", refine_physical as f64),
        ("refine.accepted", refine_accepted as f64),
        (
            "refine.accept_ratio",
            ratio(refine_accepted as f64, refine_calls as f64),
        ),
        ("search.ms", search_ms),
        ("search.probes", search_probes as f64),
        ("search.physical", search_physical as f64),
        ("search.accepted", accepted),
        (
            "search.probes_per_accept",
            ratio(search_probes as f64, accepted),
        ),
        ("scheduler.rounds", stats.scheduler_rounds as f64),
        ("scheduler.tasks", stats.scheduler_tasks as f64),
        (
            "scheduler.overadmit_ratio",
            ratio(overadmit, accepted + overadmit),
        ),
        (
            "oracle.hit_ratio",
            ratio(stats.cache_hits as f64, stats.logical_probes as f64),
        ),
        ("oracle.evictions", stats.evictions as f64),
        ("oracle.cold_ns_per_probe", cold_ns),
        (
            "oracle.search_share",
            ratio(search_physical as f64 * cold_ns * 1e-6, search_ms),
        ),
        ("surrogate.ask_us", ask_us),
        ("surrogate.fit_ms_max", fit_ms),
        ("amplify.ms", ms(amplify_layer.s)),
        (
            "amplify.qps",
            ratio(amplify_layer.stats.emitted as f64, amplify_layer.s),
        ),
        ("amplify.accept_ratio", amplify_layer.stats.accept_rate()),
        ("amplify.write_ms", ms(amplify_layer.write_s)),
        ("amplify.bytes", amplify_layer.bytes as f64),
        ("checkpoint.snapshots", reference.snapshots as f64),
        ("checkpoint.bytes", snapshot.encode().len() as f64),
        ("checkpoint.store_ms", store_ms),
        (
            "alloc.search_per_probe",
            ratio(search_allocs as f64, search_probes as f64),
        ),
        (
            "alloc.amplify_per_query",
            ratio(
                amplify_layer.allocs as f64,
                amplify_layer.stats.emitted as f64,
            ),
        ),
        (
            "trace.overhead_pct",
            (wall_s / reference.wall_s - 1.0) * 100.0,
        ),
        ("trace.span_share", ratio(spans, wall_s)),
    ]))
}

/// The traced run must equal the untraced one in everything deterministic.
fn check_equivalence(
    report: &GenerationReport,
    queries: &[sqlbarber::bo_search::GeneratedQuery],
    stats: OracleStats,
    usage: TokenUsage,
    amplified: Option<&AmplifyLayer>,
) -> Result<(), String> {
    let same_queries = report.queries.len() == queries.len()
        && report
            .queries
            .iter()
            .zip(queries)
            .all(|(a, b)| a.sql == b.sql && a.cost.to_bits() == b.cost.to_bits());
    if !same_queries {
        return Err(format!(
            "{} traced queries vs {} untraced, or different texts/costs",
            queries.len(),
            report.queries.len()
        ));
    }
    let reported = OracleStats {
        logical_probes: report.oracle_probes,
        physical_evals: report.oracle_physical_evals,
        cache_hits: report.oracle_cache_hits,
        prepared_hits: report.oracle_prepared_hits,
        prepared_misses: report.oracle_prepared_misses,
        evictions: report.oracle_evictions,
        scheduler_rounds: report.scheduler_rounds,
        scheduler_tasks: report.scheduler_tasks,
        scheduler_peak_tasks: report.scheduler_peak_tasks,
        scheduler_overadmissions: report.scheduler_overadmissions,
    };
    if stats != reported {
        return Err(format!("oracle stats {stats:?} vs {reported:?}"));
    }
    if usage != report.llm_usage {
        return Err(format!("token usage {usage:?} vs {:?}", report.llm_usage));
    }
    if amplified.map(|a| &a.stats) != report.amplify.as_ref() {
        return Err("amplification accounting differs".into());
    }
    Ok(())
}

/// Nanoseconds per probe of `cost_prepared_batch_columnar` on a fresh
/// (cold) oracle: fresh bindings for a spread of final-pool templates.
fn cold_ns_per_probe(
    db: &Database,
    threads: usize,
    pool: &[ProfiledTemplate],
    cost_type: CostType,
    bindings_per_template: usize,
    seed: u64,
) -> f64 {
    let oracle = CostOracle::new(db, threads);
    let mut rng = StdRng::seed_from_u64(seed);
    let searchable: Vec<&ProfiledTemplate> =
        pool.iter().filter(|t| !t.space.space.is_empty()).collect();
    let batches: Vec<_> = spread(&searchable, COLD_TEMPLATES)
        .filter_map(|t| {
            let handle = oracle.prepare(&t.template).ok()?;
            let bindings: Vec<_> = (0..bindings_per_template)
                .map(|_| t.space.decode(&t.space.space.sample_unit(&mut rng)))
                .collect();
            Some((handle, bindings))
        })
        .collect();
    let probes: usize = batches.iter().map(|(_, b)| b.len()).sum();
    let mut scratch = ColumnarScratch::new();
    let start = Instant::now();
    for (handle, bindings) in &batches {
        black_box(oracle.cost_prepared_batch_columnar(handle, bindings, cost_type, &mut scratch));
    }
    ratio(start.elapsed().as_nanos() as f64, probes as f64)
}

/// Median `Optimizer::ask` (µs, forest already fitted) warm-started from a
/// spread of final-pool templates' histories as the search does, and
/// `RandomForest::fit` (ms) on the largest history.
fn surrogate_replay(
    pool: &[ProfiledTemplate],
    target: &TargetDistribution,
    bo: BoConfig,
    seed: u64,
) -> (f64, f64) {
    let (lo, hi) = target.intervals.bounds(target.intervals.count / 2);
    let history = |t: &ProfiledTemplate| -> Vec<Evaluation> {
        t.evaluations
            .iter()
            .map(|e| Evaluation {
                point: e.point.clone(),
                value: interval_objective(e.value, lo, hi),
            })
            .collect()
    };
    let searchable: Vec<&ProfiledTemplate> = pool
        .iter()
        .filter(|t| !t.space.space.is_empty() && t.evaluations.len() >= bo.init_samples.max(2))
        .collect();
    let mut asks = Vec::new();
    for (i, t) in spread(&searchable, SURROGATE_TEMPLATES).enumerate() {
        let mut optimizer = Optimizer::new(
            t.space.space.clone(),
            BoConfig {
                seed: split_seed(seed, i as u64),
                ..bo
            },
        );
        optimizer.warm_start(history(t));
        black_box(optimizer.ask());
        for _ in 0..SURROGATE_ASKS {
            let start = Instant::now();
            black_box(optimizer.ask());
            asks.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let fit_ms = searchable
        .iter()
        .max_by_key(|t| t.evaluations.len())
        .map_or(0.0, |t| {
            let (x, y): (Vec<Vec<f64>>, Vec<f64>) =
                history(t).into_iter().map(|e| (e.point, e.value)).unzip();
            let config = ForestConfig {
                n_trees: bo.n_trees,
                seed,
                threads: bo.threads,
                ..ForestConfig::default()
            };
            let start = Instant::now();
            black_box(RandomForest::fit(&x, &y, config));
            start.elapsed().as_secs_f64() * 1e3
        });
    (median(&asks), fit_ms)
}

/// Median milliseconds of `CheckpointDir::store` of `snapshot`, each into
/// a fresh directory under `dir`.
fn store_replay(dir: &Path, snapshot: &Snapshot) -> Result<f64, String> {
    let mut times = Vec::with_capacity(STORE_REPEATS);
    for i in 0..STORE_REPEATS {
        let path = dir.join(format!("store-{i}"));
        let mut store = CheckpointDir::open(&path).map_err(|e| e.to_string())?;
        let start = Instant::now();
        store.store(snapshot).map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&times))
}
