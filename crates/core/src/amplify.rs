//! Post-convergence workload amplification (ROADMAP item 1).
//!
//! The BO pipeline tops out at the paper's 1–2k queries per run because
//! every emitted query is minted by an oracle probe. Amplification turns
//! a converged Algorithm 3 state into millions of cost-matched queries at
//! near-zero oracle cost: for each (interval, template) pair the search
//! converged on, a [`FittedGenerator`] is fitted from the accepted probes
//! (anchor points inside the interval plus their harvested bounding box
//! in the unit hypercube), candidate bindings stream through
//! [`BindingBatch`]/[`recost_batch`] in large mini-batches, and only
//! candidates whose recost lands in the claimed interval are emitted.
//! Costing goes straight through the prepared plan — the oracle memo is
//! never consulted, so `physical_evals` stays flat and the per-accepted
//! oracle miss count is 0.
//!
//! ### Determinism model: batch = unit of determinism, shard = speculation
//!
//! Candidate batch `b` of a pair draws from `StdRng(split_seed(pair_seed,
//! b))`, so its content is a pure function of `(interval, template, b)`.
//! Shards only decide how many batches are costed *speculatively* in one
//! wave: the flush barrier consumes batches in canonical batch order
//! until the pair's quota fills and discards the rest unseen, without
//! accounting them. Output bytes, histograms, and every counter are
//! therefore bit-identical at any `--threads N` *and* any
//! `--amplify-shards K`.
//!
//! ### Bounded memory
//!
//! Accepted queries are rendered into per-shard scratch strings
//! ([`Lane`]) and handed to a [`StreamingSqlWriter`] at each barrier;
//! the interval histogram folds incrementally in a
//! [`DistributionAccumulator`]. Nothing proportional to the workload size
//! is ever held in memory — `examples/alloc_probe.rs --amplify`
//! demonstrates a 1M-query emission at 0.000 allocs/query warm.
//!
//! [`recost_batch`]: minidb::PreparedTemplate::recost_batch
//! [`StreamingSqlWriter`]: workload::stream::StreamingSqlWriter
//! [`DistributionAccumulator`]: workload::stream::DistributionAccumulator

use crate::cost::CostType;
use crate::oracle::{CostOracle, EngineScratch, PreparedHandle};
use crate::profiler::ProfiledTemplate;
use crate::sampler::PlaceholderSpace;
use bayesopt::parallel::{parallel_map, split_seed};
use minidb::{BindingBatch, Database, DbError};
use crate::lockorder::{self, OrderedMutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlkit::Template;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::PathBuf;
use workload::stream::{scaled_quotas, DistributionAccumulator, StreamingSqlWriter};
use workload::{wasserstein_distance, CostIntervals, TargetDistribution};

/// Default candidates per mini-batch (one `recost_batch` call).
pub const DEFAULT_BATCH: usize = 1024;
/// Give-up bound: a pair stops after `quota × CANDIDATE_FACTOR` candidates
/// even if its quota is unfilled (the remainder is reported as shortfall).
const CANDIDATE_FACTOR: u64 = 64;
/// A pair always gets at least this many batches before giving up.
const MIN_BATCH_ATTEMPTS: u64 = 2;
/// Anchor points kept per fitted generator.
const MAX_ANCHORS: usize = 128;
/// Fractional widening of the harvested per-dimension box.
const BOX_WIDEN: f64 = 0.05;
/// Minimum absolute widening (unit-hypercube coordinates).
const MIN_BOX_MARGIN: f64 = 0.01;
/// Probability of perturbing an anchor vs sampling the box uniformly —
/// the same exploit/explore split the BO harvest phase uses.
const ANCHOR_FRACTION: f64 = 0.75;
/// Anchor jitter, as a fraction of the box span per dimension.
const PERTURB: f64 = 0.12;

/// Amplification stage configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AmplifyConfig {
    /// Total queries to emit (0 disables the stage).
    pub n: u64,
    /// Emission shards per wave; 0 means "thread count". Pure speculation
    /// width — never changes output.
    pub shards: usize,
    /// Candidates per mini-batch; 0 means [`DEFAULT_BATCH`].
    pub batch: usize,
    /// Output path; `None` streams to a sink (stats only).
    pub out: Option<PathBuf>,
}

/// Per-interval amplification accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntervalAmplifyStats {
    /// Interval index.
    pub interval: usize,
    /// Largest-remainder share of the requested total.
    pub quota: u64,
    /// Queries emitted into this interval.
    pub emitted: u64,
    /// Candidates costed for this interval (consumed batches only).
    pub candidates: u64,
    /// (interval, template) pairs serving this interval.
    pub pairs: u64,
}

impl IntervalAmplifyStats {
    /// Accepted fraction of costed candidates.
    pub fn accept_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.emitted as f64 / self.candidates as f64
        }
    }
}

/// Amplification result accounting, attached to the generation report and
/// the manifest. Everything here is bit-identical at any thread or shard
/// count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AmplifyStats {
    /// Queries requested (`--amplify N`).
    pub requested: u64,
    /// Queries emitted.
    pub emitted: u64,
    /// Candidates costed (consumed batches × batch size).
    pub candidates: u64,
    /// Mini-batches consumed (speculative discards not included).
    pub batches: u64,
    /// (interval, template) pairs that served quota.
    pub pairs: u64,
    /// Requested minus emitted (give-ups + unservable intervals).
    pub shortfall: u64,
    /// Intervals with quota but no converged (template, probe) support.
    pub unserved_intervals: Vec<usize>,
    /// Emitted cost histogram over the target grid.
    pub histogram: Vec<f64>,
    /// Per-interval breakdown (quota, emitted, accept rate).
    pub per_interval: Vec<IntervalAmplifyStats>,
    /// W₁ distance from the target (scaled to the requested total) to the
    /// emitted histogram.
    pub wasserstein: f64,
    /// Oracle physical evaluations charged during amplification. The
    /// engine costs through the prepared plan directly, so this is 0 —
    /// near-zero oracle misses per accepted query is the whole point.
    pub oracle_misses: u64,
}

impl AmplifyStats {
    /// Accepted fraction of costed candidates.
    pub fn accept_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.emitted as f64 / self.candidates as f64
        }
    }

    /// Oracle misses per accepted query (the paper-scale efficiency
    /// claim: ≪ 1).
    pub fn misses_per_accept(&self) -> f64 {
        if self.emitted == 0 {
            0.0
        } else {
            self.oracle_misses as f64 / self.emitted as f64
        }
    }
}

/// Cheap binding generator fitted from a pair's conforming probes: the
/// accepted unit points become anchors, and their per-dimension bounding
/// box (slightly widened, clamped to the unit cube) bounds exploration.
/// Draws perturb an anchor with probability [`ANCHOR_FRACTION`] and
/// sample the box uniformly otherwise — the same exploit/explore split
/// the BO harvest phase uses, minus the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedGenerator {
    anchors: Vec<Vec<f64>>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl FittedGenerator {
    /// Fit from the unit points of conforming probes. Returns `None` when
    /// no probe conformed (the pair has no support to amplify from).
    pub fn fit<'e>(
        arity: usize,
        conforming: impl Iterator<Item = &'e [f64]>,
    ) -> Option<FittedGenerator> {
        let mut anchors: Vec<Vec<f64>> = Vec::new();
        let mut lo = vec![f64::INFINITY; arity];
        let mut hi = vec![f64::NEG_INFINITY; arity];
        let mut seen = 0usize;
        for point in conforming {
            debug_assert_eq!(point.len(), arity);
            seen += 1;
            for (k, &u) in point.iter().enumerate() {
                lo[k] = lo[k].min(u);
                hi[k] = hi[k].max(u);
            }
            if anchors.len() < MAX_ANCHORS {
                anchors.push(point.to_vec());
            }
        }
        if seen == 0 {
            return None;
        }
        for k in 0..arity {
            let margin = ((hi[k] - lo[k]) * BOX_WIDEN).max(MIN_BOX_MARGIN);
            lo[k] = (lo[k] - margin).max(0.0);
            hi[k] = (hi[k] + margin).min(1.0);
        }
        Some(FittedGenerator { anchors, lo, hi })
    }

    /// Dimensionality of the fitted space.
    pub fn arity(&self) -> usize {
        self.lo.len()
    }

    /// Draw one candidate unit point into a reusable buffer. Pure
    /// function of the RNG state — no allocation once `out` has capacity.
    pub fn draw(&self, rng: &mut StdRng, out: &mut Vec<f64>) {
        out.clear();
        if self.lo.is_empty() {
            // Ground template: the single empty point.
            return;
        }
        if rng.gen_bool(ANCHOR_FRACTION) {
            let anchor = &self.anchors[rng.gen_range(0..self.anchors.len())];
            for ((&a, &lo), &hi) in anchor.iter().zip(&self.lo).zip(&self.hi) {
                let jitter = (rng.gen::<f64>() - 0.5) * (hi - lo) * PERTURB;
                out.push((a + jitter).clamp(lo, hi));
            }
        } else {
            for (&lo, &hi) in self.lo.iter().zip(&self.hi) {
                out.push(lo + rng.gen::<f64>() * (hi - lo));
            }
        }
    }

    /// Per-dimension box bounds (unit-hypercube coordinates).
    pub fn bounds(&self) -> (&[f64], &[f64]) {
        (&self.lo, &self.hi)
    }
}

/// Template SQL split at its `{p_i}` placeholders, so an accepted row
/// renders by splicing `Value` text between fixed segments instead of
/// cloning and printing an AST. Placeholders and literals are both
/// printer primaries (never parenthesized), so the splice is bit-identical
/// to `instantiate(..).to_string()` — property-tested in
/// `tests/tests/amplify_equivalence.rs`. Assumes `{p_i}` tokens appear
/// only as placeholders, which holds for AST-printed templates.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedSkeleton {
    /// `segments.len() == slots.len() + 1`; slot `i` splices between
    /// segments `i` and `i + 1`.
    segments: Vec<String>,
    slots: Vec<u32>,
}

impl RenderedSkeleton {
    /// Split a template's printed SQL at its placeholder tokens.
    pub fn new(template: &Template) -> RenderedSkeleton {
        let text = template.sql();
        let mut segments = Vec::new();
        let mut slots = Vec::new();
        let mut current = String::new();
        let mut rest = text.as_str();
        while !rest.is_empty() {
            if let Some(tail) = rest.strip_prefix("{p_") {
                if let Some(close) = tail.find('}') {
                    if let Ok(id) = tail[..close].parse::<u32>() {
                        segments.push(std::mem::take(&mut current));
                        slots.push(id);
                        rest = &tail[close + 1..];
                        continue;
                    }
                }
            }
            let ch = rest.chars().next().expect("non-empty remainder");
            current.push(ch);
            rest = &rest[ch.len_utf8()..];
        }
        segments.push(current);
        RenderedSkeleton { segments, slots }
    }

    /// Append row `row` of `batch`, rendered, to `out`. Every slot id
    /// must have a batch column (guaranteed when the batch was built over
    /// the template's own placeholders).
    pub fn render_row(&self, batch: &BindingBatch, row: usize, out: &mut String) {
        for (i, segment) in self.segments.iter().enumerate() {
            out.push_str(segment);
            if let Some(&id) = self.slots.get(i) {
                let value = batch
                    .value_of(id, row)
                    .expect("template placeholder has a batch column");
                let _ = write!(out, "{value}");
            }
        }
    }

    /// Placeholder ids in splice order (repeats included).
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }
}

/// Read-only emission context for one (interval, template) pair.
pub struct PairContext<'a> {
    interval: usize,
    intervals: CostIntervals,
    /// The cost acceptance filters on.
    cost_type: CostType,
    space: &'a PlaceholderSpace,
    skeleton: RenderedSkeleton,
    handle: PreparedHandle,
    generator: FittedGenerator,
}

impl<'a> PairContext<'a> {
    /// Build the context, fitting the generator from `profiled`'s probes
    /// that landed in `interval`. Returns `None` when no probe conformed.
    pub fn new(
        profiled: &'a ProfiledTemplate,
        handle: PreparedHandle,
        cost_type: CostType,
        intervals: CostIntervals,
        interval: usize,
    ) -> Option<PairContext<'a>> {
        let generator = FittedGenerator::fit(
            profiled.space.arity(),
            profiled
                .evaluations
                .iter()
                .filter(|e| intervals.interval_of(e.value) == Some(interval))
                .map(|e| e.point.as_slice()),
        )?;
        Some(PairContext {
            interval,
            intervals,
            cost_type,
            space: &profiled.space,
            skeleton: RenderedSkeleton::new(&profiled.template),
            handle,
            generator,
        })
    }

    /// The claimed interval index.
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// The fitted binding generator.
    pub fn generator(&self) -> &FittedGenerator {
        &self.generator
    }
}

/// One emission shard's reusable scratch: candidate point and binding
/// buffers, the columnar batch, the engine arenas, and the rendered-record
/// string. Warm batches allocate nothing (string dimensions excepted —
/// they clone the chosen MCV).
pub struct Lane {
    point: Vec<f64>,
    row: Vec<(u32, sqlkit::Value)>,
    batch: BindingBatch,
    engine: EngineScratch,
    sql: String,
    /// `(byte offset after record k, accepted cost of record k)` into
    /// `sql`, in candidate order.
    accepts: Vec<(usize, f64)>,
    candidates: usize,
}

impl Lane {
    /// Fresh scratch (buffers grow to steady-state on the first batches).
    pub fn new() -> Lane {
        Lane {
            point: Vec::new(),
            row: Vec::new(),
            batch: BindingBatch::default(),
            engine: EngineScratch::default(),
            sql: String::new(),
            accepts: Vec::new(),
            candidates: 0,
        }
    }

    /// Cost one candidate batch: draw `batch_size` candidates from
    /// `StdRng(seed)`, cost them as one columnar batch through the
    /// oracle's dispatch ([`PreparedHandle::cost_rows`]), and render the
    /// accepts. The result is a pure function of `(ctx, seed,
    /// batch_size)` — which shard runs it, and when, is invisible.
    // detlint::hot
    pub fn run(
        &mut self,
        db: &Database,
        ctx: &PairContext<'_>,
        seed: u64,
        batch_size: usize,
    ) -> Result<(), DbError> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.sql.clear();
        self.accepts.clear();
        self.candidates = batch_size;
        self.batch.reset(ctx.space.dims.iter().map(|dim| dim.placeholder));
        for _ in 0..batch_size {
            ctx.generator.draw(&mut rng, &mut self.point);
            ctx.space.decode_into(&self.point, &mut self.row);
            self.batch.push_row(&self.row)?;
        }
        let costs = ctx.handle.cost_rows(db, ctx.cost_type, &self.batch, &mut self.engine)?;
        for (row, cost) in costs.iter().enumerate() {
            // Candidates come from the template's own profiled
            // placeholder space, so a per-row failure indicates a broken
            // pair — fail the batch like a batch-level error.
            let metric = match cost {
                Ok(metric) => *metric,
                Err(error) => return Err(error.clone()),
            };
            if ctx.intervals.interval_of(metric) != Some(ctx.interval) {
                continue;
            }
            let _ = writeln!(self.sql, "-- cost: {metric:.2}");
            ctx.skeleton.render_row(&self.batch, row, &mut self.sql);
            self.sql.push_str(";\n");
            self.accepts.push((self.sql.len(), metric));
        }
        Ok(())
    }

    /// Accepted records of the last batch: `(end byte offset, cost)`.
    pub fn accepts(&self) -> &[(usize, f64)] {
        &self.accepts
    }

    /// Candidates costed in the last batch.
    pub fn candidates(&self) -> usize {
        self.candidates
    }

    /// Rendered bytes of the first `take` accepted records.
    pub fn accepted_chunk(&self, take: usize) -> &[u8] {
        if take == 0 {
            return &[];
        }
        &self.sql.as_bytes()[..self.accepts[take - 1].0]
    }
}

impl Default for Lane {
    fn default() -> Lane {
        Lane::new()
    }
}

/// Run the amplification stage: apportion `config.n` across intervals and
/// converged templates (largest-remainder, canonical tie-breaks), then
/// stream accepted candidates to `out` in canonical batch order. Returns
/// the accounting; I/O errors from the sink propagate.
pub fn amplify_workload<W: Write>(
    oracle: &CostOracle<'_>,
    profiled: &[ProfiledTemplate],
    target: &TargetDistribution,
    cost_type: CostType,
    config: &AmplifyConfig,
    seed: u64,
    out: W,
) -> io::Result<AmplifyStats> {
    let mut stats = AmplifyStats {
        requested: config.n,
        histogram: vec![0.0; target.intervals.count],
        per_interval: (0..target.intervals.count)
            .map(|j| IntervalAmplifyStats { interval: j, ..IntervalAmplifyStats::default() })
            .collect(),
        ..AmplifyStats::default()
    };
    let mut writer = StreamingSqlWriter::new(out);
    if config.n == 0 {
        writer.finish()?;
        return Ok(stats);
    }
    let physical_before = oracle.stats().physical_evals;
    let shards = if config.shards == 0 { oracle.threads().max(1) } else { config.shards };
    let batch_size = if config.batch == 0 { DEFAULT_BATCH } else { config.batch };
    let threads = oracle.threads().max(1).min(shards);
    let db = oracle.db();

    // Interval quotas, then per-interval template quotas weighted by each
    // template's conforming-probe count — templates the search actually
    // converged on for that interval carry its amplified mass.
    let interval_quotas = scaled_quotas(&target.counts, config.n);
    for (j, &q) in interval_quotas.iter().enumerate() {
        stats.per_interval[j].quota = q;
    }

    struct Pair<'a> {
        ctx: PairContext<'a>,
        quota: u64,
        seed: u64,
    }
    let mut pairs: Vec<Pair<'_>> = Vec::new();
    for (j, &interval_quota) in interval_quotas.iter().enumerate() {
        if interval_quota == 0 {
            continue;
        }
        let weights: Vec<f64> = profiled
            .iter()
            .map(|t| {
                t.evaluations
                    .iter()
                    .filter(|e| target.intervals.interval_of(e.value) == Some(j))
                    .count() as f64
            })
            .collect();
        let template_quotas = scaled_quotas(&weights, interval_quota);
        let mut served = 0u64;
        for (t, &quota) in template_quotas.iter().enumerate() {
            if quota == 0 {
                continue;
            }
            let Ok(handle) = oracle.prepare(&profiled[t].template) else {
                continue;
            };
            let Some(ctx) = PairContext::new(
                &profiled[t],
                handle,
                cost_type,
                target.intervals.clone(),
                j,
            ) else {
                continue;
            };
            // Seed chained on (interval, template) identity, not pair
            // ordinal, so adding/removing other pairs never reseeds this
            // one.
            let pair_seed = split_seed(split_seed(seed, j as u64), t as u64);
            pairs.push(Pair { ctx, quota, seed: pair_seed });
            stats.per_interval[j].pairs += 1;
            served += quota;
        }
        if served == 0 {
            stats.unserved_intervals.push(j);
        }
    }
    stats.pairs = pairs.len() as u64;

    writer.comment(&format!(
        "SQLBarber amplified workload: {} queries requested over {} intervals",
        config.n, target.intervals.count
    ))?;

    let mut acc = DistributionAccumulator::new(target.intervals.clone());
    let lanes: Vec<OrderedMutex<Lane>> =
        (0..shards).map(|_| OrderedMutex::new(lockorder::LANES, Lane::new())).collect();

    for pair in &pairs {
        let mut emitted = 0u64;
        let mut consumed = 0u64;
        let max_batches = pair
            .quota
            .saturating_mul(CANDIDATE_FACTOR)
            .div_ceil(batch_size as u64)
            .max(MIN_BATCH_ATTEMPTS);
        let mut failed = false;
        while emitted < pair.quota && consumed < max_batches && !failed {
            let wave = shards.min((max_batches - consumed) as usize).max(1);
            let batch_indices: Vec<u64> = (0..wave as u64).map(|s| consumed + s).collect();
            let results: Vec<Result<(), DbError>> =
                parallel_map(threads, &batch_indices, |slot, &b| {
                    lanes[slot].lock().run(db, &pair.ctx, split_seed(pair.seed, b), batch_size)
                });
            // Flush barrier: consume in canonical batch order until the
            // quota fills; later speculative batches are discarded unseen
            // and unaccounted, so shard count never shows in the output.
            for (slot, result) in results.iter().enumerate() {
                if emitted >= pair.quota {
                    break;
                }
                consumed += 1;
                if result.is_err() {
                    // A recost failure is a property of the batch content,
                    // not of scheduling — abort the pair deterministically
                    // and let the remainder surface as shortfall.
                    failed = true;
                    break;
                }
                let lane = lanes[slot].lock();
                stats.candidates += lane.candidates() as u64;
                stats.batches += 1;
                stats.per_interval[pair.ctx.interval].candidates += lane.candidates() as u64;
                let take = ((pair.quota - emitted) as usize).min(lane.accepts().len());
                if take > 0 {
                    writer.write_records(lane.accepted_chunk(take), take as u64)?;
                    for &(_, cost) in &lane.accepts()[..take] {
                        acc.record(cost);
                    }
                    emitted += take as u64;
                }
            }
        }
        stats.per_interval[pair.ctx.interval].emitted += emitted;
    }

    stats.emitted = writer.records();
    debug_assert_eq!(stats.emitted, acc.total(), "accepted costs are in-range by construction");
    stats.histogram = acc.counts().to_vec();
    stats.shortfall = config.n - stats.emitted;
    let target_mass: f64 = target.total();
    if target_mass > 0.0 {
        let scale = config.n as f64 / target_mass;
        let scaled: Vec<f64> = target.counts.iter().map(|c| c * scale).collect();
        stats.wasserstein =
            wasserstein_distance(&scaled, acc.counts(), target.intervals.width());
    }
    writer.comment(&format!(
        "amplified: {} emitted, {} short",
        stats.emitted, stats.shortfall
    ))?;
    writer.finish()?;
    stats.oracle_misses = oracle.stats().physical_evals - physical_before;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile_template;
    use sqlkit::parse_template;

    fn tpch() -> Database {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    }

    fn profiled_pair_for(db: &Database, cost_type: CostType) -> Vec<ProfiledTemplate> {
        let oracle = CostOracle::new(db, 0);
        let mut rng = StdRng::seed_from_u64(11);
        [
            "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_extendedprice > {p_1}",
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
        ]
        .iter()
        .map(|sql| {
            let template = parse_template(sql).unwrap();
            profile_template(&oracle, template, cost_type, 48, &mut rng)
        })
        .collect()
    }

    fn profiled_pair(db: &Database) -> Vec<ProfiledTemplate> {
        profiled_pair_for(db, CostType::Cardinality)
    }

    fn sample_target(db: &Database, profiled: &[ProfiledTemplate]) -> TargetDistribution {
        let _ = db;
        let max = profiled
            .iter()
            .flat_map(|t| t.costs.iter())
            .fold(0.0f64, |a, &b| a.max(b));
        let grid = CostIntervals::new(0.0, (max * 1.05).max(1.0), 5);
        let all: Vec<f64> = profiled.iter().flat_map(|t| t.costs.iter().copied()).collect();
        TargetDistribution::from_samples(&all, grid, 200)
    }

    #[test]
    fn skeleton_render_matches_instantiate() {
        let db = tpch();
        let template = parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_quantity > {p_2} AND l.l_extendedprice BETWEEN {p_2} AND {p_7}",
        )
        .unwrap();
        let space = PlaceholderSpace::build(&db, &template);
        let skeleton = RenderedSkeleton::new(&template);
        assert_eq!(skeleton.slots(), &[2, 2, 7], "repeated placeholder splices twice");
        let mut batch = BindingBatch::new(template.placeholders());
        let mut row = Vec::new();
        for (r, unit) in [[0.1, 0.9], [0.5, 0.5], [1.0, 0.0]].iter().enumerate() {
            space.decode_into(unit, &mut row);
            batch.push_row(&row).unwrap();
            let mut rendered = String::new();
            skeleton.render_row(&batch, r, &mut rendered);
            let direct = template.instantiate(batch.row(r)).unwrap().to_string();
            assert_eq!(rendered, direct);
        }
    }

    #[test]
    fn fitted_draws_stay_in_widened_box() {
        let points: Vec<Vec<f64>> = vec![vec![0.4, 0.6], vec![0.5, 0.55], vec![0.45, 0.7]];
        let gen = FittedGenerator::fit(2, points.iter().map(|p| p.as_slice())).unwrap();
        let (lo, hi) = gen.bounds();
        assert!(lo[0] < 0.4 && hi[0] > 0.5, "box is widened");
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        for _ in 0..500 {
            gen.draw(&mut rng, &mut out);
            assert_eq!(out.len(), 2);
            for k in 0..2 {
                assert!(out[k] >= lo[k] && out[k] <= hi[k], "draw escaped the box");
            }
        }
    }

    #[test]
    fn fit_requires_conforming_support() {
        assert!(FittedGenerator::fit(2, std::iter::empty()).is_none());
    }

    #[test]
    fn lane_runs_are_pure_functions_of_their_seed() {
        let db = tpch();
        let profiled = profiled_pair(&db);
        let oracle = CostOracle::new(&db, 0);
        let target = sample_target(&db, &profiled);
        let handle = oracle.prepare(&profiled[0].template).unwrap();
        let j = (0..target.intervals.count)
            .find(|&j| {
                profiled[0]
                    .evaluations
                    .iter()
                    .any(|e| target.intervals.interval_of(e.value) == Some(j))
            })
            .expect("some interval has support");
        let ctx = PairContext::new(
            &profiled[0],
            handle,
            CostType::Cardinality,
            target.intervals.clone(),
            j,
        )
        .unwrap();
        let mut a = Lane::new();
        let mut b = Lane::new();
        a.run(&db, &ctx, 42, 256).unwrap();
        // Warm `b` with a different seed first: reuse must not leak.
        b.run(&db, &ctx, 7, 256).unwrap();
        b.run(&db, &ctx, 42, 256).unwrap();
        assert_eq!(a.accepts(), b.accepts());
        assert_eq!(a.accepted_chunk(a.accepts().len()), b.accepted_chunk(b.accepts().len()));
    }

    #[test]
    fn amplified_output_is_invariant_to_shards_and_threads() {
        let db = tpch();
        let profiled = profiled_pair(&db);
        let target = sample_target(&db, &profiled);
        let mut baseline: Option<(Vec<u8>, AmplifyStats)> = None;
        for (threads, shards) in [(0usize, 1usize), (0, 4), (4, 3), (4, 8)] {
            let oracle = CostOracle::new(&db, threads);
            let config = AmplifyConfig { n: 3000, shards, batch: 256, out: None };
            let mut buf = Vec::new();
            let stats = amplify_workload(
                &oracle,
                &profiled,
                &target,
                CostType::Cardinality,
                &config,
                99,
                &mut buf,
            )
            .unwrap();
            assert!(stats.emitted > 0, "nothing amplified");
            assert_eq!(stats.oracle_misses, 0, "amplification must bypass the oracle");
            assert_eq!(stats.emitted + stats.shortfall, stats.requested);
            match &baseline {
                None => baseline = Some((buf, stats)),
                Some((bytes, base)) => {
                    assert_eq!(bytes, &buf, "threads={threads} shards={shards}: bytes diverged");
                    assert_eq!(base, &stats, "threads={threads} shards={shards}: stats diverged");
                }
            }
        }
    }

    #[test]
    fn execution_cost_types_amplify_deterministically() {
        let db = tpch();
        for cost_type in [CostType::ActualCardinality, CostType::ExecutionTimeMicros] {
            // Profile (and build the target) under the same metric the
            // amplifier accepts on, so conforming probes exist.
            let profiled = profiled_pair_for(&db, cost_type);
            let target = sample_target(&db, &profiled);
            let mut baseline: Option<(Vec<u8>, AmplifyStats)> = None;
            for (threads, shards) in [(0usize, 1usize), (4, 3)] {
                let oracle = CostOracle::new(&db, threads);
                let config = AmplifyConfig { n: 400, shards, batch: 64, out: None };
                let mut buf = Vec::new();
                let stats = amplify_workload(
                    &oracle, &profiled, &target, cost_type, &config, 7, &mut buf,
                )
                .unwrap();
                assert!(stats.emitted > 0, "{cost_type:?}: nothing amplified");
                assert_eq!(
                    stats.oracle_misses, 0,
                    "{cost_type:?}: amplification must bypass the oracle"
                );
                match &baseline {
                    None => baseline = Some((buf, stats)),
                    Some((bytes, base)) => {
                        assert_eq!(bytes, &buf, "{cost_type:?}: bytes diverged");
                        assert_eq!(base, &stats, "{cost_type:?}: stats diverged");
                    }
                }
            }
        }
    }
}
