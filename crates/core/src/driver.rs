//! End-to-end SQLBarber driver.
//!
//! Wires the four phases together — template generation (Algorithm 1),
//! profiling (§5.1), refinement & pruning (Algorithm 2), BO predicate
//! search (Algorithm 3) — while recording the distance-over-time series
//! and phase timings the paper's figures report. Ablation switches
//! reproduce Figure 8(b): `enable_refine: false` is "No-Refine-Prune" and
//! `search.use_bo: false` is "Naive-Search".
//!
//! The pipeline is a resumable state machine: with a
//! [`CheckpointConfig`], every phase boundary (and every
//! `every` scheduler rounds inside the search) writes a durable
//! [`crate::snapshot::Snapshot`], and [`SqlBarber::resume`] re-enters the
//! pipeline at the recorded boundary with every RNG chain, memo shard,
//! and counter restored — producing byte-identical output to an
//! uninterrupted run. [`KillSwitch`] injects deterministic crashes at
//! those same boundaries for the chaos harness.

use crate::amplify::{amplify_workload, AmplifyConfig};
use crate::bo_search::{predicate_search, BoSearchConfig, GeneratedQuery, SearchResult};
use crate::cost::CostType;
use crate::oracle::CostOracle;
use crate::profiler::{profile_batch, ProfiledTemplate};
use crate::refine::{coverage, refine_and_prune, RefineConfig};
use crate::report::GenerationReport;
use crate::scheduler::RoundControl;
use crate::snapshot::{
    CheckpointDir, OracleState, PhaseState, ProfiledState, ReportAcc, SchedState, Snapshot,
    StoredResult, TemplatePool,
};
use crate::template_gen::{
    generate_templates, template_alignment_accuracy, TemplateGenConfig,
};
use llm::{
    FaultConfig, FaultyTransport, LanguageModel, ResilientLlm, RetryPolicy, SyntheticLlm,
    TransportFaultConfig,
};
use minidb::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlkit::{Template, TemplateSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{wasserstein_distance, AtomicFile, TargetDistribution};

/// Durable checkpointing settings (`--checkpoint-dir`).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Snapshot directory. Created on first use when its parent exists;
    /// a missing parent is an up-front error, not a mid-run surprise.
    pub dir: PathBuf,
    /// Mid-search cadence: one snapshot every `every` scheduler rounds.
    /// Phase boundaries are always checkpointed regardless.
    pub every: u64,
}

/// Full pipeline configuration. Defaults are the paper's constants.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlBarberConfig {
    /// Master seed (drives join-path sampling, LHS, BO, and the synthetic
    /// LLM's fault draws).
    pub seed: u64,
    /// Algorithm 1 settings.
    pub template_gen: TemplateGenConfig,
    /// Synthetic-LLM hallucination rates (content faults).
    pub faults: FaultConfig,
    /// Transport-layer fault injection (timeouts, rate limits,
    /// truncation, 5xx, bursts). Default: none.
    pub transport: TransportFaultConfig,
    /// Retry/backoff/circuit-breaker policy absorbing transport faults.
    pub retry: RetryPolicy,
    /// Fraction of the query budget spent on profiling (§5.1 suggests
    /// ~15%).
    pub profiling_fraction: f64,
    /// Algorithm 2 settings.
    pub refine: RefineConfig,
    /// Algorithm 3 settings.
    pub search: BoSearchConfig,
    /// Ablation: disable Algorithm 2 entirely ("No-Refine-Prune").
    pub enable_refine: bool,
    /// Upper bound on refine→search rounds: when the search skips
    /// intervals, refinement gets another chance to cover them before the
    /// run is declared done.
    pub max_outer_rounds: usize,
    /// Worker threads for the cost oracle, profiling fan-out, and the
    /// surrogate forest (`0` = use all available cores). Results are
    /// bit-identical at any thread count.
    pub threads: usize,
    /// Post-convergence amplification stage (`--amplify N`): stream
    /// cost-matched queries from the converged BO state through the
    /// prepared plans, bypassing the oracle memo. `None` disables it.
    pub amplify: Option<AmplifyConfig>,
    /// Durable snapshots at phase boundaries and every
    /// [`CheckpointConfig::every`] scheduler rounds. `None` disables
    /// checkpointing. Excluded from the resume fingerprint: checkpoint
    /// plumbing never shapes the computation.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for SqlBarberConfig {
    fn default() -> Self {
        SqlBarberConfig {
            seed: 42,
            template_gen: TemplateGenConfig::default(),
            faults: FaultConfig::default(),
            transport: TransportFaultConfig::none(),
            retry: RetryPolicy::default(),
            profiling_fraction: 0.15,
            refine: RefineConfig::default(),
            search: BoSearchConfig::default(),
            enable_refine: true,
            max_outer_rounds: 3,
            threads: 0,
            amplify: None,
            checkpoint: None,
        }
    }
}

impl SqlBarberConfig {
    /// Smaller budgets for unit tests and doctests.
    pub fn fast_test() -> SqlBarberConfig {
        SqlBarberConfig {
            faults: FaultConfig::none(),
            refine: RefineConfig {
                phases: vec![(0.2, 2, 2, false), (0.1, 2, 2, true)],
                profile_samples: 6,
            },
            search: BoSearchConfig { max_run_budget: 80, ..Default::default() },
            ..Default::default()
        }
    }

    /// The "No-Refine-Prune" ablation of Figure 8(b).
    pub fn without_refinement(mut self) -> SqlBarberConfig {
        self.enable_refine = false;
        self
    }

    /// The "Naive-Search" ablation of Figure 8(b).
    pub fn with_random_search(mut self) -> SqlBarberConfig {
        self.search.use_bo = false;
        self
    }
}

/// Errors surfaced by the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// No specification produced a valid seed template.
    NoValidTemplates,
    /// The amplification stage could not write its output stream.
    AmplifyIo(String),
    /// A [`KillSwitch`] fired at the named point (unwind mode).
    Killed(String),
    /// Checkpoint write, load, or resume failed.
    Checkpoint(String),
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::NoValidTemplates => {
                write!(f, "no specification yielded a valid seed template")
            }
            GenerateError::AmplifyIo(detail) => {
                write!(f, "amplified workload could not be written: {detail}")
            }
            GenerateError::Killed(point) => {
                write!(f, "killed by the chaos switch at {point}")
            }
            GenerateError::Checkpoint(detail) => {
                write!(f, "checkpoint/resume failed: {detail}")
            }
        }
    }
}

impl std::error::Error for GenerateError {}

/// Pipeline boundaries the chaos harness can kill at. Each corresponds
/// to a [`PhaseState`] variant and fires immediately *after* the
/// checkpoint written at that boundary, so a resumed run replays the
/// exact remaining work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// After Algorithm 1, before profiling.
    AfterTemplates,
    /// After §5.1 profiling, before initial refinement.
    AfterProfiling,
    /// After an Algorithm-2 pass, before the search round it feeds.
    AfterRefine,
    /// At a scheduler round boundary inside the BO search.
    MidSearch,
    /// After a search round, before the retry decision/amplification.
    AfterSearch,
}

impl KillPoint {
    /// Stable name, identical to [`PhaseState::name`].
    pub fn name(self) -> &'static str {
        match self {
            KillPoint::AfterTemplates => "after-templates",
            KillPoint::AfterProfiling => "after-profiling",
            KillPoint::AfterRefine => "after-refine",
            KillPoint::MidSearch => "mid-search",
            KillPoint::AfterSearch => "after-search",
        }
    }

    /// Inverse of [`KillPoint::name`].
    pub fn parse(name: &str) -> Option<KillPoint> {
        Some(match name {
            "after-templates" => KillPoint::AfterTemplates,
            "after-profiling" => KillPoint::AfterProfiling,
            "after-refine" => KillPoint::AfterRefine,
            "mid-search" => KillPoint::MidSearch,
            "after-search" => KillPoint::AfterSearch,
            _ => return None,
        })
    }
}

/// How a [`KillSwitch`] dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// Return [`GenerateError::Killed`]: a clean unwind, destructors run.
    Unwind,
    /// `std::process::abort()`: no destructors, simulating a hard crash
    /// (power loss, OOM kill). Only useful from a subprocess harness.
    Abort,
}

/// Deterministic crash injector for the chaos harness: fires once, at
/// the first occurrence of its kill point, immediately after the
/// checkpoint written at that boundary.
#[derive(Debug, Clone)]
pub struct KillSwitch {
    point: KillPoint,
    mode: KillMode,
    fired: bool,
}

impl KillSwitch {
    /// A switch that kills at the first occurrence of `point`.
    pub fn new(point: KillPoint, mode: KillMode) -> KillSwitch {
        KillSwitch { point, mode, fired: false }
    }

    /// Parse a CLI spec: a kill-point name with an optional mode suffix,
    /// e.g. `"mid-search"` or `"after-refine:abort"`.
    pub fn parse(spec: &str) -> Result<KillSwitch, String> {
        let (name, mode) = match spec.split_once(':') {
            Some((name, "abort")) => (name, KillMode::Abort),
            Some((name, "unwind")) => (name, KillMode::Unwind),
            Some((_, other)) => {
                return Err(format!(
                    "unknown kill mode {other:?} (use :unwind or :abort)"
                ))
            }
            None => (spec, KillMode::Unwind),
        };
        let point = KillPoint::parse(name).ok_or_else(|| {
            format!(
                "unknown kill point {name:?} (one of after-templates, \
                 after-profiling, after-refine, mid-search, after-search)"
            )
        })?;
        Ok(KillSwitch::new(point, mode))
    }

    fn check(&mut self, point: KillPoint) -> Result<(), GenerateError> {
        if self.fired || self.point != point {
            return Ok(());
        }
        self.fired = true;
        match self.mode {
            KillMode::Unwind => {
                Err(GenerateError::Killed(point.name().to_string()))
            }
            KillMode::Abort => std::process::abort(),
        }
    }
}

/// The built-in LLM stack: synthetic model (content faults) wrapped in
/// the transport fault injector, wrapped in the retry/breaker layer. At
/// `TransportFaultConfig::none()` the outer layers are transparent, so
/// the stack is byte-for-byte identical to the bare synthetic model.
pub type DefaultLlm = ResilientLlm<FaultyTransport<SyntheticLlm>>;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Identity of a run for resume compatibility: everything that shapes
/// the computation, excluding output/checkpoint plumbing (resuming into
/// a different checkpoint dir or amplify path is legal — the bytes the
/// pipeline computes are the same).
fn config_fingerprint(
    config: &SqlBarberConfig,
    target: &TargetDistribution,
    cost_type: CostType,
) -> u64 {
    let mut canon = config.clone();
    canon.checkpoint = None;
    if let Some(amplify) = &mut canon.amplify {
        amplify.out = None;
    }
    fnv1a(format!("{canon:?}|{target:?}|{cost_type:?}").as_bytes())
}

/// Live checkpoint sink for one run.
struct Checkpointer {
    dir: CheckpointDir,
    every: u64,
    fingerprint: u64,
}

/// Pipeline entry state for `run_cost_aware`. A fresh run enters at
/// `Profile`; resume maps each snapshot [`PhaseState`] to the stage
/// that follows its boundary.
enum Stage {
    /// Profile the seed templates (fresh entry / `after-templates`).
    Profile { seeds: Vec<Template> },
    /// Run the Algorithm-2 pass feeding search round `round`
    /// (`after-profiling` resumes at round 1).
    Refine { round: usize },
    /// Run search round `round`; `sched` restores a mid-search snapshot.
    Search { round: usize, sched: Option<SchedState> },
    /// Decide whether round `round`'s `result` warrants another
    /// refine→search round (`after-search`).
    Decide { round: usize, result: SearchResult },
    /// Amplify and assemble the final report.
    Finish { result: SearchResult },
}

fn pool_of(profiled: &[ProfiledTemplate]) -> TemplatePool {
    TemplatePool::Profiled(profiled.iter().map(|t| t.to_state()).collect())
}

/// Report fields committed before a boundary, in snapshot form.
fn acc_of(report: &GenerationReport) -> ReportAcc {
    ReportAcc {
        spec_correct: report.rewrite_stats.spec_correct.iter().map(|&v| v as u64).collect(),
        syntax_correct: report
            .rewrite_stats
            .syntax_correct
            .iter()
            .map(|&v| v as u64)
            .collect(),
        rewrite_total: report.rewrite_stats.total as u64,
        alignment_accuracy: report.alignment_accuracy,
        n_seed_templates: report.n_seed_templates as u64,
        n_refined_templates: report.n_refined_templates as u64,
        degradation: [
            report.degradation.llm_failures,
            report.degradation.malformed_responses,
            report.degradation.abandoned_specs,
            report.degradation.abandoned_intervals,
        ],
    }
}

/// Inverse of [`acc_of`]: a fresh report carrying the accumulated fields.
fn report_from_acc(acc: &ReportAcc, target: &TargetDistribution) -> GenerationReport {
    let mut report = GenerationReport {
        target_counts: target.counts.clone(),
        ..Default::default()
    };
    report.rewrite_stats.spec_correct =
        acc.spec_correct.iter().map(|&v| v as usize).collect();
    report.rewrite_stats.syntax_correct =
        acc.syntax_correct.iter().map(|&v| v as usize).collect();
    report.rewrite_stats.total = acc.rewrite_total as usize;
    report.alignment_accuracy = acc.alignment_accuracy;
    report.n_seed_templates = acc.n_seed_templates as usize;
    report.n_refined_templates = acc.n_refined_templates as usize;
    report.degradation.llm_failures = acc.degradation[0];
    report.degradation.malformed_responses = acc.degradation[1];
    report.degradation.abandoned_specs = acc.degradation[2];
    report.degradation.abandoned_intervals = acc.degradation[3];
    report
}

fn stored_result_of(result: &SearchResult) -> StoredResult {
    StoredResult {
        queries: result.queries.iter().map(|q| (q.sql.clone(), q.cost)).collect(),
        distribution: result.distribution.clone(),
        skipped: result.skipped.iter().map(|&j| j as u64).collect(),
        evaluations: result.evaluations as u64,
    }
}

fn result_from_stored(stored: &StoredResult) -> SearchResult {
    SearchResult {
        queries: stored
            .queries
            .iter()
            .map(|(sql, cost)| GeneratedQuery { sql: sql.clone(), cost: *cost })
            .collect(),
        distribution: stored.distribution.clone(),
        skipped: stored.skipped.iter().map(|&j| j as usize).collect(),
        evaluations: stored.evaluations as usize,
    }
}

/// Reject search state that a CRC-valid snapshot with a matching
/// fingerprint can still hold but this run cannot use. The codec checks
/// a snapshot's structure, not that its histograms fit the target; this
/// runs once, before any of the snapshot is used.
fn check_resumable(
    phase: &PhaseState,
    target: &TargetDistribution,
    use_bo: bool,
) -> Result<(), GenerateError> {
    let intervals = target.intervals.count;
    let problem = match phase {
        PhaseState::MidSearch { .. } if !use_bo => {
            "a mid-search snapshot requires the BO search path, but this config has \
             use_bo = false"
                .to_string()
        }
        PhaseState::MidSearch { sched, .. } if sched.accepted.d.len() != intervals => format!(
            "mid-search counts cover {} intervals, the target has {intervals}",
            sched.accepted.d.len()
        ),
        PhaseState::MidSearch { sched, .. } if sched.next_round == u64::MAX => format!(
            "mid-search round counter {} leaves no scheduler round to run",
            sched.next_round
        ),
        PhaseState::AfterSearch { result, .. } if result.distribution.len() != intervals => {
            format!(
                "after-search distribution covers {} intervals, the target has {intervals}",
                result.distribution.len()
            )
        }
        _ => return Ok(()),
    };
    Err(GenerateError::Checkpoint(format!("snapshot is inconsistent: {problem}")))
}

fn restore_profiled(
    db: &Database,
    states: &[ProfiledState],
) -> Result<Vec<ProfiledTemplate>, GenerateError> {
    states
        .iter()
        .map(|s| ProfiledTemplate::from_state(db, s).map_err(GenerateError::Checkpoint))
        .collect()
}

/// Write one snapshot at a boundary (no-op without a checkpoint dir).
/// `rng` is the driver RNG as the boundary leaves it.
fn write_checkpoint(
    ckpt: &mut Option<Checkpointer>,
    llm: &impl LanguageModel,
    rng: &StdRng,
    oracle: Option<&CostOracle>,
    report: &GenerationReport,
    pool: TemplatePool,
    phase: PhaseState,
) -> Result<(), GenerateError> {
    let Some(ckpt) = ckpt.as_mut() else { return Ok(()) };
    let llm = llm.export_state().ok_or_else(|| {
        GenerateError::Checkpoint(
            "the configured language model stopped exposing checkpoint state".into(),
        )
    })?;
    let snapshot = Snapshot {
        fingerprint: ckpt.fingerprint,
        rng: rng.state(),
        llm,
        acc: acc_of(report),
        pool,
        oracle: oracle.map(|o| o.export_state()),
        phase,
    };
    ckpt.dir
        .store(&snapshot)
        .map(|_| ())
        .map_err(|e| GenerateError::Checkpoint(e.to_string()))
}

fn fire_kill(kill: &mut Option<KillSwitch>, point: KillPoint) -> Result<(), GenerateError> {
    kill.as_mut().map_or(Ok(()), |kill| kill.check(point))
}

/// The SQLBarber system (Figure 2), bound to a database and an LLM.
pub struct SqlBarber<'a, M: LanguageModel = DefaultLlm> {
    db: &'a Database,
    config: SqlBarberConfig,
    llm: M,
    rng: StdRng,
    kill: Option<KillSwitch>,
}

impl<'a> SqlBarber<'a, DefaultLlm> {
    /// New system with the built-in synthetic LLM behind the fault
    /// injector and resilience layer. Each layer derives its own RNG from
    /// the master seed, so transport draws and retry jitter never perturb
    /// the model's content stream (and `--threads` never touches any of
    /// them: all LLM traffic is sequential).
    pub fn new(db: &'a Database, config: SqlBarberConfig) -> Self {
        let model = SyntheticLlm::new(config.faults, config.seed ^ 0x5ba8_bebe);
        let transport =
            FaultyTransport::new(model, config.transport, config.seed ^ 0x7a17_5eed);
        let llm = ResilientLlm::new(transport, config.retry, config.seed ^ 0x0b0f_f5e7);
        let rng = StdRng::seed_from_u64(config.seed);
        SqlBarber { db, config, llm, rng, kill: None }
    }
}

impl<'a, M: LanguageModel> SqlBarber<'a, M> {
    /// New system with a custom language model (e.g. a real API client).
    pub fn with_llm(db: &'a Database, config: SqlBarberConfig, llm: M) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        SqlBarber { db, config, llm, rng, kill: None }
    }

    /// Arm a deterministic crash injector (chaos harness only).
    pub fn with_kill_switch(mut self, kill: KillSwitch) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Borrow the language model (e.g. to inspect token usage).
    pub fn llm(&self) -> &M {
        &self.llm
    }

    /// End-to-end generation: specifications → templates → cost-conforming
    /// workload (Definition 2.13).
    pub fn generate(
        &mut self,
        specs: &[TemplateSpec],
        target: &TargetDistribution,
        cost_type: CostType,
    ) -> Result<GenerationReport, GenerateError> {
        // detlint::allow(ambient_nondet): run timing is reporting-only; no bit-compared artifact depends on it
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let mut report = GenerationReport {
            target_counts: target.counts.clone(),
            ..Default::default()
        };

        // Phase 1: customized template generation (Algorithm 1).
        // detlint::allow(ambient_nondet): phase timing is reporting-only
        #[allow(clippy::disallowed_methods)]
        let phase_start = Instant::now();
        let generated = generate_templates(
            self.db,
            &mut self.llm,
            specs,
            self.config.template_gen,
            &mut self.rng,
        );
        report.phases.template_generation = phase_start.elapsed();
        report.rewrite_stats = generated.stats.clone();
        report.alignment_accuracy = template_alignment_accuracy(&generated.seeds);
        report.n_seed_templates = generated.seeds.len();
        report.degradation.merge(&generated.degradation);
        if generated.seeds.is_empty() {
            return Err(GenerateError::NoValidTemplates);
        }
        let templates: Vec<Template> =
            generated.seeds.into_iter().map(|s| s.template).collect();

        self.run_cost_aware(
            Stage::Profile { seeds: templates },
            Vec::new(),
            None,
            target,
            cost_type,
            start,
            report,
        )
    }

    /// Run only the cost-aware query generator (§5) on caller-provided
    /// templates — the entry point when templates come from elsewhere
    /// (e.g. a library of hand-written templates).
    pub fn generate_from_templates(
        &mut self,
        templates: Vec<Template>,
        target: &TargetDistribution,
        cost_type: CostType,
    ) -> Result<GenerationReport, GenerateError> {
        if templates.is_empty() {
            return Err(GenerateError::NoValidTemplates);
        }
        // detlint::allow(ambient_nondet): run timing is reporting-only; no bit-compared artifact depends on it
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let report = GenerationReport {
            target_counts: target.counts.clone(),
            n_seed_templates: templates.len(),
            alignment_accuracy: 1.0,
            ..Default::default()
        };
        self.run_cost_aware(
            Stage::Profile { seeds: templates },
            Vec::new(),
            None,
            target,
            cost_type,
            start,
            report,
        )
    }

    /// Resume from the newest intact snapshot in `dir`. Corrupt latest
    /// generations (truncated or bit-flipped) are detected by CRC and
    /// skipped in favor of the previous good one; the run then replays
    /// the remaining pipeline and produces byte-identical workload files,
    /// manifests, and counters to an uninterrupted run.
    ///
    /// `self` must be freshly constructed with the *same* config, target,
    /// and cost type as the checkpointed run (enforced via fingerprint).
    pub fn resume(
        &mut self,
        dir: &Path,
        target: &TargetDistribution,
        cost_type: CostType,
    ) -> Result<GenerationReport, GenerateError> {
        let snapshot = CheckpointDir::load_latest(dir)
            .map_err(|e| GenerateError::Checkpoint(e.to_string()))?;
        self.resume_from(&snapshot, target, cost_type)
    }

    /// Resume from an already-decoded snapshot (see [`SqlBarber::resume`]).
    pub fn resume_from(
        &mut self,
        snapshot: &Snapshot,
        target: &TargetDistribution,
        cost_type: CostType,
    ) -> Result<GenerationReport, GenerateError> {
        let fingerprint = config_fingerprint(&self.config, target, cost_type);
        if fingerprint != snapshot.fingerprint {
            return Err(GenerateError::Checkpoint(format!(
                "snapshot fingerprint {:016x} does not match this run's {:016x}; \
                 resume with the same config, target, and cost type the \
                 checkpoint was taken under",
                snapshot.fingerprint, fingerprint
            )));
        }
        check_resumable(&snapshot.phase, target, self.config.search.use_bo)?;
        self.llm
            .import_state(&snapshot.llm)
            .map_err(GenerateError::Checkpoint)?;
        self.rng = StdRng::from_state(snapshot.rng);
        let report = report_from_acc(&snapshot.acc, target);
        // detlint::allow(ambient_nondet): run timing is reporting-only; no bit-compared artifact depends on it
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();

        let (stage, profiled) = match (&snapshot.pool, &snapshot.phase) {
            (TemplatePool::Seeds(seeds), PhaseState::AfterTemplates) => {
                let templates = seeds
                    .iter()
                    .map(|sql| {
                        sqlkit::parse_template(sql).map_err(|e| {
                            GenerateError::Checkpoint(format!(
                                "snapshot seed template no longer parses: {e} ({sql})"
                            ))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                (Stage::Profile { seeds: templates }, Vec::new())
            }
            (TemplatePool::Profiled(states), phase) => {
                let profiled = restore_profiled(self.db, states)?;
                let stage = match phase {
                    PhaseState::AfterTemplates => {
                        return Err(GenerateError::Checkpoint(
                            "snapshot is inconsistent: profiled pool at the \
                             after-templates boundary"
                                .into(),
                        ))
                    }
                    PhaseState::AfterProfiling => Stage::Refine { round: 1 },
                    PhaseState::AfterRefine { round } => {
                        Stage::Search { round: *round as usize, sched: None }
                    }
                    PhaseState::MidSearch { round, sched } => Stage::Search {
                        round: *round as usize,
                        sched: Some(sched.clone()),
                    },
                    PhaseState::AfterSearch { round, result } => Stage::Decide {
                        round: *round as usize,
                        result: result_from_stored(result),
                    },
                };
                (stage, profiled)
            }
            (TemplatePool::Seeds(_), phase) => {
                return Err(GenerateError::Checkpoint(format!(
                    "snapshot is inconsistent: seed pool at the {} boundary",
                    phase.name()
                )))
            }
        };
        self.run_cost_aware(
            stage,
            profiled,
            snapshot.oracle.as_ref(),
            target,
            cost_type,
            start,
            report,
        )
    }

    /// Open the checkpoint sink when configured, vetoing models that
    /// cannot export their state before any work is done.
    fn checkpointer(
        &self,
        target: &TargetDistribution,
        cost_type: CostType,
    ) -> Result<Option<Checkpointer>, GenerateError> {
        let Some(cfg) = &self.config.checkpoint else { return Ok(None) };
        if self.llm.export_state().is_none() {
            return Err(GenerateError::Checkpoint(
                "the configured language model does not expose checkpoint \
                 state (export_state returned None); run without a \
                 checkpoint directory"
                    .into(),
            ));
        }
        let dir = CheckpointDir::open(&cfg.dir)
            .map_err(|e| GenerateError::Checkpoint(e.to_string()))?;
        Ok(Some(Checkpointer {
            dir,
            every: cfg.every.max(1),
            fingerprint: config_fingerprint(&self.config, target, cost_type),
        }))
    }

    /// The cost-aware pipeline (§5) as a resumable state machine. Fresh
    /// runs enter at [`Stage::Profile`]; resume enters at the stage after
    /// the snapshot's boundary with `profiled`/`oracle_state` restored.
    /// Every boundary writes a checkpoint *before* the kill switch can
    /// fire there, so a killed run always resumes at the point it died.
    #[allow(clippy::too_many_arguments)]
    fn run_cost_aware(
        &mut self,
        stage: Stage,
        profiled: Vec<ProfiledTemplate>,
        oracle_state: Option<&OracleState>,
        target: &TargetDistribution,
        cost_type: CostType,
        start: Instant,
        mut report: GenerationReport,
    ) -> Result<GenerationReport, GenerateError> {
        let width = target.intervals.width();
        let total_queries = target.total() as usize;
        let oracle = CostOracle::new(self.db, self.config.threads);
        if let Some(state) = oracle_state {
            oracle.restore_state(state).map_err(GenerateError::Checkpoint)?;
        }
        // Propagate the resolved worker count into the surrogate forest.
        let mut search = self.config.search.clone();
        search.bo.threads = oracle.threads();
        let mut ckpt = self.checkpointer(target, cost_type)?;

        let mut profiled = profiled;
        let mut stage = stage;
        loop {
            stage = match stage {
                Stage::Profile { seeds } => {
                    // Boundary: Algorithm 1 done, oracle untouched, RNG
                    // positioned before the profile-seed draw.
                    write_checkpoint(
                        &mut ckpt,
                        &self.llm,
                        &self.rng,
                        None,
                        &report,
                        TemplatePool::Seeds(
                            seeds.iter().map(|t| t.sql().to_string()).collect(),
                        ),
                        PhaseState::AfterTemplates,
                    )?;
                    fire_kill(&mut self.kill, KillPoint::AfterTemplates)?;

                    // Phase 2: profiling (§5.1).
                    // detlint::allow(ambient_nondet): phase timing is reporting-only
                    #[allow(clippy::disallowed_methods)]
                    let phase_start = Instant::now();
                    let profile_seed: u64 = self.rng.gen();
                    profiled = profile_batch(
                        &oracle,
                        seeds,
                        cost_type,
                        total_queries,
                        self.config.profiling_fraction,
                        profile_seed,
                    );
                    report.phases.profiling += phase_start.elapsed();
                    let after_profiling = coverage(&profiled, target);
                    report.distance_series.push((
                        start.elapsed().as_secs_f64(),
                        wasserstein_distance(&target.counts, &after_profiling, width),
                    ));
                    Stage::Refine { round: 1 }
                }

                Stage::Refine { round } => {
                    if round == 1 {
                        write_checkpoint(
                            &mut ckpt,
                            &self.llm,
                            &self.rng,
                            Some(&oracle),
                            &report,
                            pool_of(&profiled),
                            PhaseState::AfterProfiling,
                        )?;
                        fire_kill(&mut self.kill, KillPoint::AfterProfiling)?;
                    }
                    // Phase 3: refinement & pruning (Algorithm 2) — the
                    // initial pass at round 1, retry passes after a search
                    // round skipped intervals.
                    // detlint::allow(ambient_nondet): phase timing is reporting-only
                    #[allow(clippy::disallowed_methods)]
                    let phase_start = Instant::now();
                    if self.config.enable_refine {
                        let outcome = refine_and_prune(
                            &oracle,
                            &mut self.llm,
                            &mut profiled,
                            target,
                            cost_type,
                            &self.config.refine,
                            &mut self.rng,
                        );
                        report.n_refined_templates += outcome.accepted;
                        report.degradation.merge(&outcome.degradation);
                    }
                    report.phases.refinement += phase_start.elapsed();
                    if profiled.is_empty() {
                        return Err(GenerateError::NoValidTemplates);
                    }
                    write_checkpoint(
                        &mut ckpt,
                        &self.llm,
                        &self.rng,
                        Some(&oracle),
                        &report,
                        pool_of(&profiled),
                        PhaseState::AfterRefine { round: round as u64 },
                    )?;
                    fire_kill(&mut self.kill, KillPoint::AfterRefine)?;
                    Stage::Search { round, sched: None }
                }

                Stage::Search { round, sched } => {
                    // Phase 4: BO predicate search (Algorithm 3). The
                    // naive ablation has no round boundaries, so it is
                    // never checkpointed mid-search (its phase-boundary
                    // snapshots still work).
                    // detlint::allow(ambient_nondet): phase timing is reporting-only
                    #[allow(clippy::disallowed_methods)]
                    let phase_start = Instant::now();
                    let mut series: Vec<(f64, f64)> = Vec::new();
                    let mut push_progress = |d: &[f64]| {
                        series.push((
                            start.elapsed().as_secs_f64(),
                            wasserstein_distance(&target.counts, d, width),
                        ));
                    };

                    let mut rounds_since: u64 = 0;
                    let mut pending: Option<GenerateError> = None;
                    let result = predicate_search(
                        &oracle,
                        &mut profiled,
                        target,
                        cost_type,
                        &search,
                        &mut self.rng,
                        sched,
                        &mut push_progress,
                        |state, templates, rng| {
                            rounds_since += 1;
                            let due = ckpt.as_ref().is_some_and(|c| rounds_since >= c.every);
                            if due {
                                rounds_since = 0;
                                if let Err(e) = write_checkpoint(
                                    &mut ckpt,
                                    &self.llm,
                                    rng,
                                    Some(&oracle),
                                    &report,
                                    pool_of(templates),
                                    PhaseState::MidSearch {
                                        round: round as u64,
                                        sched: state.clone(),
                                    },
                                ) {
                                    pending = Some(e);
                                    return RoundControl::Stop;
                                }
                            }
                            // The kill fires at a checkpointed round
                            // boundary (or any boundary when checkpointing
                            // is off).
                            if due || ckpt.is_none() {
                                if let Err(e) = fire_kill(&mut self.kill, KillPoint::MidSearch)
                                {
                                    pending = Some(e);
                                    return RoundControl::Stop;
                                }
                            }
                            RoundControl::Continue
                        },
                    );
                    if let Some(e) = pending {
                        return Err(e);
                    }

                    report.distance_series.extend(series);
                    report.phases.predicate_search += phase_start.elapsed();
                    write_checkpoint(
                        &mut ckpt,
                        &self.llm,
                        &self.rng,
                        Some(&oracle),
                        &report,
                        pool_of(&profiled),
                        PhaseState::AfterSearch {
                            round: round as u64,
                            result: stored_result_of(&result),
                        },
                    )?;
                    fire_kill(&mut self.kill, KillPoint::AfterSearch)?;
                    Stage::Decide { round, result }
                }

                Stage::Decide { round, result } => {
                    // "This process continues until the generated cost
                    // distribution adequately matches the target" (§5.3) —
                    // bounded by `max_outer_rounds`.
                    let distance = wasserstein_distance(
                        &target.counts,
                        &result.distribution,
                        width,
                    );
                    let can_retry = distance > 0.0
                        && !result.skipped.is_empty()
                        && self.config.enable_refine
                        && round < self.config.max_outer_rounds;
                    if can_retry {
                        Stage::Refine { round: round + 1 }
                    } else {
                        Stage::Finish { result }
                    }
                }

                Stage::Finish { result } => {
                    // Phase 5: post-convergence amplification (ROADMAP
                    // item 1) — stream cost-matched queries from the
                    // converged state through the prepared plans. The
                    // stage seed is drawn only when the stage runs, after
                    // the search has finished, so enabling it never
                    // perturbs the BO workload. Output goes through an
                    // AtomicFile: any pre-existing file at the target path
                    // survives a crash or error mid-emission untouched.
                    if let Some(amplify_config) = self.config.amplify.clone() {
                        // detlint::allow(ambient_nondet): phase timing is reporting-only
                        #[allow(clippy::disallowed_methods)]
                        let amplify_start = Instant::now();
                        let amplify_seed: u64 = self.rng.gen();
                        let amplify_stats = match &amplify_config.out {
                            Some(path) => {
                                let mut file = AtomicFile::create(path)
                                    .map_err(|e| GenerateError::AmplifyIo(e.to_string()))?;
                                let stats = amplify_workload(
                                    &oracle,
                                    &profiled,
                                    target,
                                    cost_type,
                                    &amplify_config,
                                    amplify_seed,
                                    &mut file,
                                )
                                .map_err(|e| GenerateError::AmplifyIo(e.to_string()))?;
                                file.commit().map_err(|e| {
                                    GenerateError::AmplifyIo(format!(
                                        "{}: {e}",
                                        path.display()
                                    ))
                                })?;
                                stats
                            }
                            None => amplify_workload(
                                &oracle,
                                &profiled,
                                target,
                                cost_type,
                                &amplify_config,
                                amplify_seed,
                                std::io::sink(),
                            )
                            .map_err(|e| GenerateError::AmplifyIo(e.to_string()))?,
                        };
                        report.amplify = Some(amplify_stats);
                        report.phases.amplification += amplify_start.elapsed();
                    }

                    report.n_final_templates = profiled.len();
                    report.evaluations =
                        profiled.iter().map(|t| t.consumed as usize).sum();
                    let stats = oracle.stats();
                    report.oracle_probes = stats.logical_probes;
                    report.oracle_physical_evals = stats.physical_evals;
                    report.oracle_cache_hits = stats.cache_hits;
                    report.oracle_prepared_hits = stats.prepared_hits;
                    report.oracle_prepared_misses = stats.prepared_misses;
                    report.oracle_evictions = stats.evictions;
                    report.scheduler_rounds = stats.scheduler_rounds;
                    report.scheduler_tasks = stats.scheduler_tasks;
                    report.scheduler_peak_tasks = stats.scheduler_peak_tasks;
                    report.scheduler_overadmissions = stats.scheduler_overadmissions;
                    report.final_distance = wasserstein_distance(
                        &target.counts,
                        &result.distribution,
                        width,
                    );
                    report.distribution = result.distribution;
                    report.skipped_intervals = result.skipped;
                    report.queries = result.queries;
                    report.llm_usage = self.llm.usage();
                    report.resilience = self.llm.resilience();
                    report.elapsed = start.elapsed();
                    return Ok(report);
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::redset::redset_template_specs;
    use workload::CostIntervals;

    fn tpch() -> Database {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    }

    #[test]
    fn end_to_end_uniform_cardinality_converges() {
        let db = tpch();
        let target =
            TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), 100);
        let specs = redset_template_specs(3);
        let mut barber = SqlBarber::new(&db, SqlBarberConfig::fast_test());
        let report =
            barber.generate(&specs[..8], &target, CostType::Cardinality).unwrap();
        assert!(
            report.final_distance < 300.0,
            "distance {} (d={:?}, skipped={:?})",
            report.final_distance,
            report.distribution,
            report.skipped_intervals
        );
        assert!(report.queries.len() >= 90, "only {} queries", report.queries.len());
        // distance series is non-increasing apart from float noise
        let first = report.distance_series.first().unwrap().1;
        let last = report.distance_series.last().unwrap().1;
        assert!(last <= first);
        assert!(report.llm_usage.requests > 0);
        assert_eq!(report.alignment_accuracy, 1.0);
    }

    #[test]
    fn templates_can_be_supplied_directly() {
        let db = tpch();
        let target =
            TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), 40);
        let templates = vec![
            sqlkit::parse_template(
                "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1}",
            )
            .unwrap(),
        ];
        let mut barber = SqlBarber::new(&db, SqlBarberConfig::fast_test());
        let report = barber
            .generate_from_templates(templates, &target, CostType::Cardinality)
            .unwrap();
        assert!(report.queries.len() >= 30, "{} queries", report.queries.len());
    }

    #[test]
    fn empty_inputs_error() {
        let db = tpch();
        let target =
            TargetDistribution::uniform(CostIntervals::paper_default(5), 10);
        let mut barber = SqlBarber::new(&db, SqlBarberConfig::fast_test());
        assert!(matches!(
            barber.generate_from_templates(vec![], &target, CostType::Cardinality),
            Err(GenerateError::NoValidTemplates)
        ));
    }

    #[test]
    fn ablations_are_wired() {
        let config = SqlBarberConfig::fast_test().without_refinement();
        assert!(!config.enable_refine);
        let config = SqlBarberConfig::fast_test().with_random_search();
        assert!(!config.search.use_bo);
    }

    #[test]
    fn kill_switch_specs_parse() {
        let kill = KillSwitch::parse("mid-search").unwrap();
        assert_eq!(kill.point, KillPoint::MidSearch);
        assert_eq!(kill.mode, KillMode::Unwind);
        let kill = KillSwitch::parse("after-refine:abort").unwrap();
        assert_eq!(kill.point, KillPoint::AfterRefine);
        assert_eq!(kill.mode, KillMode::Abort);
        assert!(KillSwitch::parse("nowhere").is_err());
        assert!(KillSwitch::parse("mid-search:gently").is_err());
    }

    #[test]
    fn fingerprint_ignores_plumbing_but_not_computation() {
        let target =
            TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), 40);
        let base = SqlBarberConfig::fast_test();
        let fp = config_fingerprint(&base, &target, CostType::Cardinality);

        let mut with_ckpt = base.clone();
        with_ckpt.checkpoint =
            Some(CheckpointConfig { dir: PathBuf::from("/tmp/x"), every: 8 });
        assert_eq!(fp, config_fingerprint(&with_ckpt, &target, CostType::Cardinality));

        let mut other_seed = base.clone();
        other_seed.seed = 43;
        assert_ne!(fp, config_fingerprint(&other_seed, &target, CostType::Cardinality));
        assert_ne!(fp, config_fingerprint(&base, &target, CostType::PlanCost));
    }

    fn flat(report: &GenerationReport) -> Vec<(String, u64)> {
        report.queries.iter().map(|q| (q.sql.clone(), q.cost.to_bits())).collect()
    }

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_run() {
        let db = tpch();
        let target =
            TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), 60);
        let template = || {
            vec![sqlkit::parse_template(
                "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1}",
            )
            .unwrap()]
        };
        let baseline = SqlBarber::new(&db, SqlBarberConfig::fast_test())
            .generate_from_templates(template(), &target, CostType::Cardinality)
            .unwrap();

        let dir = std::env::temp_dir()
            .join(format!("sqlbarber-driver-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = SqlBarberConfig::fast_test();
        config.checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 2 });
        let err = SqlBarber::new(&db, config.clone())
            .with_kill_switch(KillSwitch::parse("mid-search").unwrap())
            .generate_from_templates(template(), &target, CostType::Cardinality)
            .unwrap_err();
        assert!(matches!(err, GenerateError::Killed(_)), "{err}");

        let resumed = SqlBarber::new(&db, config)
            .resume(&dir, &target, CostType::Cardinality)
            .unwrap();
        assert_eq!(flat(&baseline), flat(&resumed));
        assert_eq!(
            baseline.final_distance.to_bits(),
            resumed.final_distance.to_bits()
        );
        assert_eq!(baseline.scheduler_rounds, resumed.scheduler_rounds);
        assert_eq!(baseline.oracle_probes, resumed.oracle_probes);
        assert_eq!(baseline.oracle_cache_hits, resumed.oracle_cache_hits);
        assert_eq!(baseline.evaluations, resumed.evaluations);
        assert_eq!(baseline.n_refined_templates, resumed.n_refined_templates);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_different_configuration() {
        let db = tpch();
        let target =
            TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), 40);
        let dir = std::env::temp_dir()
            .join(format!("sqlbarber-driver-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = SqlBarberConfig::fast_test();
        config.checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 4 });
        let template = vec![sqlkit::parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1}",
        )
        .unwrap()];
        SqlBarber::new(&db, config.clone())
            .generate_from_templates(template, &target, CostType::Cardinality)
            .unwrap();

        let mut other = config.clone();
        other.seed = 7;
        let err = SqlBarber::new(&db, other)
            .resume(&dir, &target, CostType::Cardinality)
            .unwrap_err();
        assert!(matches!(err, GenerateError::Checkpoint(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
