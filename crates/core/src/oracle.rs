//! Shared cost oracle: memoized, thread-parallel DBMS costing.
//!
//! Every phase of the pipeline — profiling (§5.1), refinement (§5.2), the
//! BO predicate search (§5.3), the naive-search ablation and the
//! baselines — asks the DBMS one question: *what does this statement
//! cost?* The [`CostOracle`] answers it through one entry point,
//! [`CostOracle::cost_prepared_batch_columnar_on`]: a [`BindingBatch`]
//! of bindings of one prepared template, costed into a caller-owned
//! [`ColumnarScratch`]. Callers that must see each cost before choosing
//! the next probe pass a batch of one.
//! [`CostOracle::cost_prepared_batch_columnar`] is a thin adapter for
//! callers that hold bindings as maps.
//!
//! * **Prepared plans.** [`CostOracle::prepare`] plans a template once
//!   (via [`minidb::PreparedTemplate`]) and is the only admission test: a
//!   template that fails it is never costed. Each binding then re-costs
//!   the cached skeleton — no rendering, lexing, parsing, or join-order
//!   search — or, for the execution-based cost types, runs through the
//!   template's vectorized [`minidb::PreparedExec`] plan.
//! * **Memoization.** Results are cached under the compact `(template
//!   id, cost type, binding vector)` key in sharded, mutex-guarded,
//!   *bounded* maps (per-shard capacity with second-chance eviction, so
//!   long runs cannot grow the cache without limit).
//!   [`CostType::ExecutionTimeMicros`] is *never* memoized — the metric
//!   is a deterministic work-unit proxy, but it is kept as the
//!   always-execute control path so every probe exercises the executor.
//! * **Batching.** Keys are partitioned by memo shard, so a batch takes
//!   each shard lock once for its hit lookups and once for its inserts.
//!   Distinct misses are deduplicated serially and costed as columnar
//!   batches, split into contiguous chunks across up to the batch's
//!   thread budget. Results come back in submission order, and results
//!   and accounting are identical at any thread count.
//!
//! **Probe accounting.** The oracle distinguishes *logical probes* (what
//! the algorithms asked for — the paper's evaluation-budget currency,
//! counted even on cache hits) from *physical evaluations* (statements
//! actually planned or executed). Physical counts are derived from the
//! number of distinct cache entries plus evictions plus un-memoized
//! probes, so they are deterministic even when concurrent batches race to
//! fill the same entry (the duplicated plan work is wasted, not counted).
//! With the default capacity the pipeline never evicts; tiny capacities
//! (set via [`CostOracle::with_cache_capacity`]) trade that determinism
//! guarantee for bounded memory under concurrent batches.
//!
//! The scalar `Database::explain` / `execute` path
//! ([`crate::cost::query_cost`] on an instantiated statement) is the
//! reference the tests hold this entry point to, bit for bit; the
//! pipeline itself never calls it.

use crate::cost::CostType;
use crate::lockorder::{self, OrderedMutex};
use bayesopt::parallel::parallel_map;
use minidb::{
    BindingBatch, Database, DbError, ExecScratch, PreparedExec, PreparedTemplate,
    RecostScratch,
};
use sqlkit::{Template, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Shard count for the memo cache (reduces lock contention; must be a
/// power of two).
const SHARDS: usize = 16;

/// Default per-shard entry capacity. Generous enough that the pipeline
/// never evicts (16 shards × 65536 ≈ 1M entries), while still bounding a
/// pathological run.
const DEFAULT_SHARD_CAPACITY: usize = 65536;

/// Snapshot of the oracle's probe counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Cost questions asked by the algorithms (cache hits included).
    pub logical_probes: u64,
    /// Statements actually planned/executed: distinct memoized probes
    /// (including since-evicted ones) plus every non-memoizable
    /// (execution-time) probe.
    pub physical_evals: u64,
    /// Probes answered from the memo cache: `logical - physical`.
    pub cache_hits: u64,
    /// Probes answered from the binding-key memo. Every probe is a
    /// prepared probe, so this always equals `cache_hits`; kept so
    /// manifests keep their shape.
    pub prepared_hits: u64,
    /// Probes that had to recost (or execute) the skeleton; always equals
    /// `physical_evals`.
    pub prepared_misses: u64,
    /// Memo entries discarded by second-chance eviction.
    pub evictions: u64,
    /// Deficit-scheduler rounds that executed at least one interval task.
    pub scheduler_rounds: u64,
    /// Interval BO tasks executed by the deficit scheduler.
    pub scheduler_tasks: u64,
    /// Largest number of interval tasks launched in a single round.
    pub scheduler_peak_tasks: u64,
    /// Locally accepted queries rejected at a round barrier because
    /// another task filled the interval (or produced the same SQL) first.
    pub scheduler_overadmissions: u64,
}

/// A template planned once by the oracle; cheap to clone and share across
/// worker threads. Probe it with
/// [`CostOracle::cost_prepared_batch_columnar_on`].
#[derive(Debug, Clone)]
pub struct PreparedHandle {
    /// Oracle-assigned id; the first component of the memo key.
    id: u64,
    plan: Arc<PreparedTemplate>,
    /// Lazily built vectorized execution plan for the execution-based
    /// cost types; shared across clones so the first batch's
    /// classification work is paid once per template.
    exec: Arc<OnceLock<PreparedExec>>,
}

impl PreparedHandle {
    /// The template this handle was prepared from.
    pub fn template(&self) -> &Template {
        self.plan.template()
    }

    /// The underlying prepared plan.
    pub fn plan(&self) -> &PreparedTemplate {
        &self.plan
    }

    /// Cost every row of `batch` under `cost_type` — the one cost-type →
    /// engine dispatch, shared by the oracle and amplification. The
    /// estimates recost the skeleton ([`PreparedTemplate::recost_batch`]):
    /// estimated rows for `Cardinality`, total cost for `PlanCost`. The
    /// execution-based types run the vectorized plan
    /// ([`PreparedExec::execute_batch`], built on first use): output
    /// cardinality for `ActualCardinality`, work-unit microseconds for
    /// `ExecutionTimeMicros`. A batch missing a placeholder column fails
    /// whole; execution errors come back per row.
    // detlint::hot
    pub(crate) fn cost_rows<'s>(
        &self,
        db: &Database,
        cost_type: CostType,
        batch: &BindingBatch,
        scratch: &'s mut EngineScratch,
    ) -> Result<&'s [Result<f64, DbError>], DbError> {
        let EngineScratch { recost, exec, costs } = scratch;
        costs.clear();
        if cost_type.requires_execution() {
            let cardinality = cost_type == CostType::ActualCardinality;
            // detlint::allow(hot_alloc): the exec plan is built once per template behind get_or_init; steady-state batches only read it
            let plan = self.exec.get_or_init(|| PreparedExec::prepare(db, self.plan.clone()));
            costs.extend(plan.execute_batch(db, batch, exec)?.iter().map(|row| match row {
                Ok((rows, micros)) => Ok(if cardinality { *rows } else { *micros }),
                Err(error) => Err(error.clone()),
            }));
        } else {
            let estimated_rows = cost_type == CostType::Cardinality;
            costs.extend(
                self.plan
                    .recost_batch(db, batch, recost)?
                    .iter()
                    .map(|&(rows, cost)| Ok(if estimated_rows { rows } else { cost })),
            );
        }
        Ok(costs)
    }
}

/// Reusable engine arenas for [`PreparedHandle::cost_rows`]: the recost
/// and execution scratch and the per-row cost column it returns.
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    recost: RecostScratch,
    exec: ExecScratch,
    costs: Vec<Result<f64, DbError>>,
}

/// Hashable stand-in for a bound [`Value`]. Floats are keyed by bit
/// pattern (so the key roundtrips NaN and signed zero deterministically);
/// strings by interned id (see [`CostOracle::intern`]), so building and
/// cloning a key never allocates per string — the memo hot path used to
/// clone every `String` on lookup *and* again on insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ValueKey {
    Int(i64),
    Float(u64),
    Str(u32),
    Bool(bool),
    Null,
}

/// Slots stored inline in a [`BindingKey`] before spilling to the heap.
/// Covers every template arity the pipeline generates in practice, so
/// the probe hot path builds, hashes, clones, and memoizes keys without
/// a single allocation.
const INLINE_KEY_SLOTS: usize = 4;

/// Binding vector in the template's (sorted) placeholder order, read from
/// the batch columns of those placeholders; batch columns for ids the
/// template does not mention cannot affect the result and are excluded.
/// Slots are `Option`s only so the snapshot codec keeps its format: keys
/// built from a batch are always fully bound (a batch missing a column
/// is rejected before any key is built). Keys up to [`INLINE_KEY_SLOTS`]
/// wide live inline (no allocation per probe); wider templates spill to a
/// boxed slice.
#[derive(Debug, Clone)]
enum BindingKey {
    Inline { len: u8, slots: [Option<ValueKey>; INLINE_KEY_SLOTS] },
    Heap(Box<[Option<ValueKey>]>),
}

impl BindingKey {
    fn collect(arity: usize, mut slot_of: impl FnMut(usize) -> Option<ValueKey>) -> BindingKey {
        if arity <= INLINE_KEY_SLOTS {
            let mut slots = [None; INLINE_KEY_SLOTS];
            for (i, slot) in slots.iter_mut().take(arity).enumerate() {
                *slot = slot_of(i);
            }
            BindingKey::Inline { len: arity as u8, slots }
        } else {
            BindingKey::Heap((0..arity).map(slot_of).collect())
        }
    }

    fn as_slice(&self) -> &[Option<ValueKey>] {
        match self {
            BindingKey::Inline { len, slots } => &slots[..*len as usize],
            BindingKey::Heap(slots) => slots,
        }
    }
}

impl PartialEq for BindingKey {
    fn eq(&self, other: &BindingKey) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for BindingKey {}

// Delegating to the slice `Hash` impl feeds the hasher the identical
// byte stream (length prefix + elements) a `Vec` key would, so shard
// routing is representation-independent: an inline key and a heap key
// with equal slots hash equally.
impl Hash for BindingKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

/// Template id + cost type + binding vector → result.
type PreparedKey = (u64, CostType, BindingKey);

/// One bounded memo shard with second-chance (clock) eviction.
///
/// Entries are kept in a FIFO queue alongside the map; a lookup sets the
/// entry's reference bit, and eviction pops the queue, giving referenced
/// entries a second pass (re-queued with the bit cleared) and discarding
/// the first unreferenced one. Evictions are counted so physical-eval
/// accounting stays exact even after entries are dropped.
struct BoundedShard {
    map: HashMap<PreparedKey, (Result<f64, DbError>, bool)>,
    queue: VecDeque<PreparedKey>,
    capacity: usize,
    evicted: u64,
}

impl BoundedShard {
    fn new(capacity: usize) -> BoundedShard {
        BoundedShard {
            map: HashMap::new(),
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    // detlint::hot
    fn get(&mut self, key: &PreparedKey) -> Option<Result<f64, DbError>> {
        self.map.get_mut(key).map(|(value, referenced)| {
            *referenced = true;
            value.clone()
        })
    }

    fn insert(&mut self, key: PreparedKey, value: Result<f64, DbError>) {
        match self.map.entry(key.clone()) {
            // Concurrent batches racing on the same probe: keep one entry,
            // don't re-queue.
            Entry::Occupied(mut slot) => {
                slot.get_mut().0 = value;
                return;
            }
            Entry::Vacant(slot) => {
                // Fresh entries start referenced so the clock hand cannot
                // evict what it just admitted.
                slot.insert((value, true));
                self.queue.push_back(key);
            }
        }
        while self.map.len() > self.capacity {
            let Some(victim) = self.queue.pop_front() else { break };
            match self.map.get_mut(&victim) {
                Some((_, referenced)) if *referenced => {
                    *referenced = false;
                    self.queue.push_back(victim);
                }
                Some(_) => {
                    self.map.remove(&victim);
                    self.evicted += 1;
                }
                None => {}
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Caller-owned scratch arena for
/// [`CostOracle::cost_prepared_batch_columnar_on`].
///
/// Holds every buffer a batch needs — binding keys, the per-shard probe
/// partition, miss bookkeeping, and the gathered-miss [`BindingBatch`]
/// and engine arenas handed to [`PreparedHandle::cost_rows`] — so repeated
/// batches on a warm oracle allocate nothing. Reusable across handles,
/// cost types, and batch sizes; `results` holds the last batch's outputs
/// until the next call.
#[derive(Debug, Default)]
pub struct ColumnarScratch {
    /// One result per probe, in submission order (the returned slice).
    results: Vec<Result<f64, DbError>>,
    /// One memo key per probe.
    keys: Vec<PreparedKey>,
    /// `shard_of[i]` = memo shard of probe `i`.
    shard_of: Vec<usize>,
    /// Probe indices grouped by shard (`SHARDS` buckets).
    by_shard: Vec<Vec<u32>>,
    /// First-appearance dedup of missed binding keys → miss slot.
    miss_slots: HashMap<BindingKey, usize>,
    /// Probe index of each probe to evaluate, in evaluation-slot order:
    /// the distinct misses (per-shard submission order), or every probe
    /// for the un-memoized cost type.
    misses: Vec<usize>,
    /// `(probe index, miss slot)` pairs to fill after evaluation.
    resolve_later: Vec<(usize, usize)>,
    /// One result per distinct miss.
    miss_results: Vec<Result<f64, DbError>>,
    /// The rows to evaluate, gathered from the caller's batch, for the
    /// serial evaluation path.
    gathered: BindingBatch,
    /// Engine arenas for the serial evaluation path.
    engine: EngineScratch,
}

impl ColumnarScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Memoized, parallel cost oracle over one database.
pub struct CostOracle<'db> {
    db: &'db Database,
    threads: usize,
    /// Artificial per-physical-probe latency. Models the ≥1 ms per
    /// `EXPLAIN` a real DBMS charges (the paper's setup), which the
    /// in-memory engine answers in microseconds. The sleep happens inside
    /// the worker that costs the probe, so concurrent tasks overlap it —
    /// the `bo_scheduler` bench uses this to measure how much DBMS
    /// latency the deficit scheduler hides. `None` (default) adds
    /// nothing; results are identical either way.
    probe_latency: Option<std::time::Duration>,
    prepared_shards: Vec<OrderedMutex<BoundedShard>>,
    /// Template text → handle, so re-preparing a template yields the same
    /// id (and therefore the same memo namespace). Held across plan
    /// construction so racing prepares of one template cannot split ids.
    templates: OrderedMutex<HashMap<String, PreparedHandle>>,
    next_template_id: AtomicU64,
    /// String value → interned id for [`ValueKey::Str`]. Ids are assigned
    /// in first-touch order; they only feed key hashing/equality, never
    /// results or counters, so id assignment order cannot affect output.
    interner: OrderedMutex<HashMap<Box<str>, u32>>,
    logical: AtomicU64,
    /// Execution-time probes (bypass the cache entirely).
    unmemoized: AtomicU64,
    scheduler_rounds: AtomicU64,
    scheduler_tasks: AtomicU64,
    scheduler_peak_tasks: AtomicU64,
    scheduler_overadmissions: AtomicU64,
}

impl<'db> CostOracle<'db> {
    /// New oracle with an explicit worker-thread count (`0` = all
    /// available cores).
    pub fn new(db: &'db Database, threads: usize) -> CostOracle<'db> {
        CostOracle {
            db,
            threads: bayesopt::parallel::resolve_threads(threads),
            probe_latency: None,
            prepared_shards: (0..SHARDS)
                .map(|_| {
                    OrderedMutex::new(
                        lockorder::PREPARED_SHARDS,
                        BoundedShard::new(DEFAULT_SHARD_CAPACITY),
                    )
                })
                .collect(),
            templates: OrderedMutex::new(lockorder::TEMPLATES, HashMap::new()),
            next_template_id: AtomicU64::new(0),
            interner: OrderedMutex::new(lockorder::INTERNER, HashMap::new()),
            logical: AtomicU64::new(0),
            unmemoized: AtomicU64::new(0),
            scheduler_rounds: AtomicU64::new(0),
            scheduler_tasks: AtomicU64::new(0),
            scheduler_peak_tasks: AtomicU64::new(0),
            scheduler_overadmissions: AtomicU64::new(0),
        }
    }

    /// Interned id for a string value; allocates only on the first sight
    /// of each distinct string.
    fn intern(&self, s: &str) -> u32 {
        let mut interner = self.interner.lock();
        if let Some(&id) = interner.get(s) {
            return id;
        }
        let id = u32::try_from(interner.len()).expect("interner overflow");
        interner.insert(s.into(), id);
        id
    }

    fn value_key(&self, value: &Value) -> ValueKey {
        match value {
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(f) => ValueKey::Float(f.to_bits()),
            Value::Str(s) => ValueKey::Str(self.intern(s)),
            Value::Bool(b) => ValueKey::Bool(*b),
            Value::Null => ValueKey::Null,
        }
    }

    /// Charge an artificial latency for every *physical* probe (planned
    /// or executed statement; memo hits stay free). A modeling knob for
    /// benchmarks: a real DBMS charges ≥1 ms per `EXPLAIN` round-trip,
    /// and that latency — unlike the in-memory engine's CPU time —
    /// overlaps across concurrent scheduler tasks. Results and all
    /// counters are bit-identical with and without it.
    pub fn with_probe_latency(mut self, latency: std::time::Duration) -> CostOracle<'db> {
        self.probe_latency = (!latency.is_zero()).then_some(latency);
        self
    }

    /// Sleep for the configured probe latency, if any. Called on the
    /// worker that performs the physical evaluation, inside the parallel
    /// section, so concurrent probes overlap their latency.
    fn charge_latency(&self) {
        if let Some(latency) = self.probe_latency {
            std::thread::sleep(latency);
        }
    }

    /// Override the per-shard memo capacity (entries per shard, floor 1).
    /// Intended for tests and memory-constrained runs; the pipeline
    /// default never evicts in practice.
    pub fn with_cache_capacity(self, per_shard: usize) -> CostOracle<'db> {
        for shard in &self.prepared_shards {
            shard.lock().capacity = per_shard.max(1);
        }
        self
    }

    /// The database this oracle costs against.
    pub fn db(&self) -> &'db Database {
        self.db
    }

    /// Resolved worker-thread count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Plan a template once for repeated recosting. Validates it exactly
    /// like [`Database::validate_template`]; the returned handle is cheap
    /// to clone and share. Idempotent: re-preparing a textually identical
    /// template returns the same handle (and memo namespace), so
    /// re-profiling a template keeps hitting its cache. Failed prepares
    /// are not cached.
    pub fn prepare(&self, template: &Template) -> Result<PreparedHandle, DbError> {
        let text = template.sql();
        let mut registry = self.templates.lock();
        if let Some(handle) = registry.get(&text) {
            return Ok(handle.clone());
        }
        let plan = PreparedTemplate::prepare(self.db, template)?;
        let handle = PreparedHandle {
            id: self.next_template_id.fetch_add(1, Ordering::Relaxed),
            plan: Arc::new(plan),
            exec: Arc::new(OnceLock::new()),
        };
        registry.insert(text, handle.clone());
        Ok(handle)
    }

    /// [`CostOracle::cost_prepared_batch_columnar_on`] with this oracle's
    /// full thread budget, for callers that hold each binding as a map
    /// (the standalone `perf` harness, which decodes points with
    /// [`crate::sampler::PlaceholderSpace::decode`]). The maps are copied
    /// into one [`BindingBatch`] over the template placeholders that every
    /// map binds, so a placeholder one map leaves unbound fails the whole
    /// batch, exactly as a missing batch column does. Pipeline code builds
    /// batches directly and calls the `_on` entry.
    pub fn cost_prepared_batch_columnar<'s>(
        &self,
        handle: &PreparedHandle,
        bindings_list: &[HashMap<u32, Value>],
        cost_type: CostType,
        scratch: &'s mut ColumnarScratch,
    ) -> &'s [Result<f64, DbError>] {
        let mut batch = BindingBatch::new(
            handle
                .plan
                .placeholder_ids()
                .iter()
                .copied()
                .filter(|id| bindings_list.iter().all(|bindings| bindings.contains_key(id)))
                .collect(),
        );
        let mut row = Vec::with_capacity(batch.ids().len());
        for bindings in bindings_list {
            row.clear();
            row.extend(batch.ids().iter().map(|id| (*id, bindings[id].clone())));
            batch.push_row(&row).expect("every map binds every batch id");
        }
        self.cost_prepared_batch_columnar_on(self.threads, handle, &batch, cost_type, scratch)
    }

    /// Cost every row of `batch` — bindings of one prepared template — in
    /// row order: the oracle's only costing entry point. Counts one
    /// logical probe per row. `threads` caps this batch's worker budget
    /// (the deficit scheduler splits the global budget between concurrent
    /// interval tasks this way); results and accounting are identical at
    /// any value.
    ///
    /// * Memo keys are read straight from the batch columns of the
    ///   template's placeholders (no per-probe allocation; columns for
    ///   other ids are ignored) and partitioned by memo shard, so each
    ///   shard lock is taken **once** for the batch's bulk hit-lookup and
    ///   once for its bulk insert.
    /// * Distinct misses are gathered into one columnar batch and
    ///   evaluated exactly once each: recosted through
    ///   [`minidb::PreparedTemplate::recost_batch`]'s columnar replay, or,
    ///   for the execution-based cost types, executed through
    ///   [`minidb::PreparedExec::execute_batch`] (one dispatch,
    ///   [`PreparedHandle::cost_rows`]). `ActualCardinality` is
    ///   memoized like the estimates; `ExecutionTimeMicros` executes every
    ///   probe and is never memoized.
    /// * Results land in the caller-owned [`ColumnarScratch`], so a
    ///   fully-warm batch performs no allocation at all.
    ///
    /// Within each shard, probes keep submission order for both lookups
    /// and inserts, so second-chance eviction behaves identically at any
    /// thread count. A batch with no column for one of the template's
    /// placeholders binds no row: every row fails with
    /// `UnboundPlaceholder` naming the smallest missing id, for every cost
    /// type. That check runs once, before any key is built; it memoizes
    /// and counts nothing, so `stats()` is unchanged by such a batch.
    pub fn cost_prepared_batch_columnar_on<'s>(
        &self,
        threads: usize,
        handle: &PreparedHandle,
        batch: &BindingBatch,
        cost_type: CostType,
        scratch: &'s mut ColumnarScratch,
    ) -> &'s [Result<f64, DbError>] {
        let threads = threads.clamp(1, self.threads);
        let n = batch.len();
        let ColumnarScratch {
            results,
            keys,
            shard_of,
            by_shard,
            miss_slots,
            misses,
            resolve_later,
            miss_results,
            gathered,
            engine,
        } = scratch;
        results.clear();
        // Ids are sorted ascending: the first one without a column is the
        // smallest missing id.
        let ids = handle.plan.placeholder_ids();
        if let Some(&id) = ids.iter().find(|id| batch.ids().binary_search(id).is_err()) {
            results.resize(n, Err(DbError::UnboundPlaceholder(id)));
            return results.as_slice();
        }
        self.logical.fetch_add(n as u64, Ordering::Relaxed);
        results.resize(n, Ok(0.0)); // placeholder; every slot overwritten below

        if cost_type == CostType::ExecutionTimeMicros {
            // Never memoized: every probe executes. The win here is the
            // prepared execution plan — hoisted subqueries and
            // selection-vector kernels — not the memo.
            self.unmemoized.fetch_add(n as u64, Ordering::Relaxed);
            misses.clear();
            misses.extend(0..n);
            self.evaluate(threads, handle, batch, misses, cost_type, gathered, engine, results);
            return results.as_slice();
        }

        // ---- key construction + shard partition (no locks) ----------
        keys.clear();
        shard_of.clear();
        if by_shard.len() != SHARDS {
            by_shard.resize_with(SHARDS, Vec::new);
        }
        for shard in by_shard.iter_mut() {
            shard.clear();
        }
        for row in 0..n {
            let binding = BindingKey::collect(ids.len(), |slot| {
                batch.value_of(ids[slot], row).map(|value| self.value_key(value))
            });
            let key = (handle.id, cost_type, binding);
            let shard = shard_index(&key);
            by_shard[shard].push(keys.len() as u32);
            shard_of.push(shard);
            keys.push(key);
        }

        // ---- phase 1: bulk hit lookup, one lock per populated shard --
        // Within a shard, probes run in submission order; misses are
        // discovered (and deduplicated) in an order that preserves
        // per-shard first appearance.
        miss_slots.clear();
        misses.clear();
        resolve_later.clear();
        for (shard_idx, probe_indices) in by_shard.iter().enumerate() {
            if probe_indices.is_empty() {
                continue;
            }
            let mut shard = self.prepared_shards[shard_idx].lock();
            for &i in probe_indices.iter() {
                let i = i as usize;
                if let Some(cached) = shard.get(&keys[i]) {
                    results[i] = cached;
                } else if let Some(&slot) = miss_slots.get(&keys[i].2) {
                    resolve_later.push((i, slot));
                } else {
                    let slot = misses.len();
                    miss_slots.insert(keys[i].2.clone(), slot);
                    misses.push(i);
                    resolve_later.push((i, slot));
                }
            }
        }

        // ---- phase 2: evaluate each distinct miss exactly once -------
        miss_results.clear();
        miss_results.resize(misses.len(), Ok(0.0));
        self.evaluate(threads, handle, batch, misses, cost_type, gathered, engine, miss_results);

        // ---- phase 3: bulk insert, one lock per populated shard ------
        // `misses` is already shard-grouped (phase 1 walked the shards in
        // order) with submission order preserved within each shard.
        let mut slot = 0;
        while slot < misses.len() {
            let shard_idx = shard_of[misses[slot]];
            let mut shard = self.prepared_shards[shard_idx].lock();
            while slot < misses.len() && shard_of[misses[slot]] == shard_idx {
                let probe_idx = misses[slot];
                shard.insert(keys[probe_idx].clone(), miss_results[slot].clone());
                slot += 1;
            }
        }

        for &(probe_idx, slot) in resolve_later.iter() {
            results[probe_idx] = miss_results[slot].clone();
        }
        results.as_slice()
    }

    /// Evaluate row `rows[slot]` of `batch` into `out[slot]`, bypassing
    /// the memo. The rows are gathered into columnar batches for
    /// [`PreparedHandle::cost_rows`]: a serial batch reuses the
    /// caller-owned scratch (zero steady-state allocation); larger batches
    /// split into contiguous chunks across workers — chunk boundaries
    /// cannot affect results, each row being a pure function of its
    /// bindings. `batch` has a column for every template placeholder.
    #[allow(clippy::too_many_arguments)]
    fn evaluate(
        &self,
        threads: usize,
        handle: &PreparedHandle,
        batch: &BindingBatch,
        rows: &[usize],
        cost_type: CostType,
        gathered: &mut BindingBatch,
        engine: &mut EngineScratch,
        out: &mut [Result<f64, DbError>],
    ) {
        if rows.is_empty() {
            return;
        }
        let chunks = threads.min(rows.len());
        if chunks <= 1 {
            self.evaluate_chunk(handle, batch, rows, cost_type, gathered, engine, out);
            return;
        }
        let per = rows.len().div_ceil(chunks);
        let ranges: Vec<(usize, usize)> = (0..chunks)
            .map(|c| (c * per, ((c + 1) * per).min(rows.len())))
            .filter(|&(start, end)| start < end)
            .collect();
        let computed = parallel_map(threads, &ranges, |_, &(start, end)| {
            let mut chunk = vec![Ok(0.0); end - start];
            self.evaluate_chunk(
                handle,
                batch,
                &rows[start..end],
                cost_type,
                &mut BindingBatch::default(),
                &mut EngineScratch::default(),
                &mut chunk,
            );
            chunk
        });
        for (&(start, end), chunk) in ranges.iter().zip(computed) {
            out[start..end].clone_from_slice(&chunk);
        }
    }

    /// Gather rows `rows` of `batch` into `gathered` and cost them as one
    /// columnar batch through [`PreparedHandle::cost_rows`], one result
    /// per row into `out`. Every row charges the probe latency on the
    /// calling worker.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_chunk(
        &self,
        handle: &PreparedHandle,
        batch: &BindingBatch,
        rows: &[usize],
        cost_type: CostType,
        gathered: &mut BindingBatch,
        engine: &mut EngineScratch,
        out: &mut [Result<f64, DbError>],
    ) {
        gathered.reset(handle.plan().placeholder_ids().iter().copied());
        for &row in rows {
            self.charge_latency();
            gathered.push_row_from(batch, row).expect("columns checked against the template");
        }
        match handle.cost_rows(self.db, cost_type, gathered, engine) {
            Ok(costs) => out.clone_from_slice(costs),
            Err(error) => out.fill(Err(error)),
        }
    }

    /// Current probe counters. Derived from deterministic quantities
    /// (logical counters, cache sizes, eviction and un-memoized
    /// counters), so identical runs report identical stats at any thread
    /// count (provided the cache is not evicting, which the default
    /// capacity guarantees in practice).
    pub fn stats(&self) -> OracleStats {
        let mut distinct = 0u64;
        let mut evicted = 0u64;
        for shard in &self.prepared_shards {
            let guard = shard.lock();
            distinct += guard.len() as u64;
            evicted += guard.evicted;
        }
        let logical = self.logical.load(Ordering::Relaxed);
        let physical = distinct + evicted + self.unmemoized.load(Ordering::Relaxed);
        let cache_hits = logical.saturating_sub(physical);
        OracleStats {
            logical_probes: logical,
            physical_evals: physical,
            cache_hits,
            prepared_hits: cache_hits,
            prepared_misses: physical,
            evictions: evicted,
            scheduler_rounds: self.scheduler_rounds.load(Ordering::Relaxed),
            scheduler_tasks: self.scheduler_tasks.load(Ordering::Relaxed),
            scheduler_peak_tasks: self.scheduler_peak_tasks.load(Ordering::Relaxed),
            scheduler_overadmissions: self.scheduler_overadmissions.load(Ordering::Relaxed),
        }
    }

    /// Record one deficit-scheduler round: how many interval tasks ran
    /// concurrently and how many locally accepted queries the round
    /// barrier rejected. Called from the round merge (serial), so the
    /// counters are deterministic at any thread count.
    pub fn note_scheduler_round(&self, tasks: u64, overadmissions: u64) {
        self.scheduler_rounds.fetch_add(1, Ordering::Relaxed);
        self.scheduler_tasks.fetch_add(tasks, Ordering::Relaxed);
        self.scheduler_peak_tasks.fetch_max(tasks, Ordering::Relaxed);
        self.scheduler_overadmissions.fetch_add(overadmissions, Ordering::Relaxed);
    }

    /// Serialize the oracle's full state for a checkpoint: interner,
    /// prepared-template registry, the memo cache (entries in clock-queue
    /// order, with reference bits and eviction counts), and the raw
    /// counters. [`CostOracle::restore_state`] of this value into a fresh
    /// oracle reproduces every future memo hit, eviction, and derived
    /// [`OracleStats`] field exactly.
    pub fn export_state(&self) -> crate::snapshot::OracleState {
        use crate::snapshot::{OracleCounters, OracleState, PreparedEntry, ShardState};

        // The interner and registry are hash maps; inverting them into
        // vectors indexed by their (densely assigned) ids yields a
        // canonical order regardless of map iteration order.
        let interner_guard = self.interner.lock();
        let mut interner = vec![String::new(); interner_guard.len()];
        for (text, &id) in interner_guard.iter() {
            interner[id as usize] = text.to_string();
        }
        drop(interner_guard);

        let registry = self.templates.lock();
        let mut templates = vec![String::new(); registry.len()];
        for (sql, handle) in registry.iter() {
            templates[handle.id as usize] = sql.clone();
        }
        drop(registry);

        let shards = self
            .prepared_shards
            .iter()
            .map(|mutex| {
                let shard = mutex.lock();
                let entries = shard
                    .queue
                    .iter()
                    .filter_map(|key| {
                        shard.map.get(key).map(|(value, referenced)| PreparedEntry {
                            template_id: key.0,
                            cost_type: key.1,
                            key: key.2.as_slice().iter().map(|slot| slot.map(export_value_key)).collect(),
                            value: value.clone(),
                            referenced: *referenced,
                        })
                    })
                    .collect();
                ShardState { capacity: shard.capacity as u64, evicted: shard.evicted, entries }
            })
            .collect();

        OracleState {
            interner,
            templates,
            shards,
            counters: OracleCounters {
                logical: self.logical.load(Ordering::Relaxed),
                unmemoized: self.unmemoized.load(Ordering::Relaxed),
                scheduler_rounds: self.scheduler_rounds.load(Ordering::Relaxed),
                scheduler_tasks: self.scheduler_tasks.load(Ordering::Relaxed),
                scheduler_peak_tasks: self.scheduler_peak_tasks.load(Ordering::Relaxed),
                scheduler_overadmissions: self.scheduler_overadmissions.load(Ordering::Relaxed),
            },
        }
    }

    /// Restore state exported by [`CostOracle::export_state`] (typically
    /// into a freshly constructed oracle over the same database).
    /// Prepared plans are rebuilt by re-preparing each registry template
    /// under its recorded id; memo entries are reinstalled into their
    /// recorded shards in queue order, so second-chance eviction replays
    /// identically. Errors (snapshot/build mismatch, template that no
    /// longer prepares) leave a partially restored oracle — callers
    /// should discard it on `Err`.
    pub fn restore_state(&self, state: &crate::snapshot::OracleState) -> Result<(), String> {
        if state.shards.len() != SHARDS {
            return Err(format!(
                "snapshot has {} memo shards, this build uses {SHARDS}",
                state.shards.len()
            ));
        }

        {
            let mut interner = self.interner.lock();
            interner.clear();
            for (id, text) in state.interner.iter().enumerate() {
                let id = u32::try_from(id).map_err(|_| "interner overflow".to_string())?;
                interner.insert(text.as_str().into(), id);
            }
        }

        {
            let mut registry = self.templates.lock();
            registry.clear();
            for (id, sql) in state.templates.iter().enumerate() {
                let template = sqlkit::parse_template(sql)
                    .map_err(|e| format!("snapshot template {id} no longer parses: {e}"))?;
                let plan = PreparedTemplate::prepare(self.db, &template)
                    .map_err(|e| format!("snapshot template {id} no longer prepares: {e:?}"))?;
                registry.insert(
                    sql.clone(),
                    PreparedHandle {
                        id: id as u64,
                        plan: Arc::new(plan),
                        exec: Arc::new(OnceLock::new()),
                    },
                );
            }
            self.next_template_id.store(state.templates.len() as u64, Ordering::Relaxed);
        }

        for (mutex, stored) in self.prepared_shards.iter().zip(&state.shards) {
            let mut shard = mutex.lock();
            shard.map.clear();
            shard.queue.clear();
            shard.capacity = usize::try_from(stored.capacity).unwrap_or(usize::MAX).max(1);
            shard.evicted = stored.evicted;
            for entry in &stored.entries {
                let binding = BindingKey::collect(entry.key.len(), |slot| {
                    entry.key[slot].map(import_value_key)
                });
                let key = (entry.template_id, entry.cost_type, binding);
                shard.map.insert(key.clone(), (entry.value.clone(), entry.referenced));
                shard.queue.push_back(key);
            }
        }

        let c = &state.counters;
        self.logical.store(c.logical, Ordering::Relaxed);
        self.unmemoized.store(c.unmemoized, Ordering::Relaxed);
        self.scheduler_rounds.store(c.scheduler_rounds, Ordering::Relaxed);
        self.scheduler_tasks.store(c.scheduler_tasks, Ordering::Relaxed);
        self.scheduler_peak_tasks.store(c.scheduler_peak_tasks, Ordering::Relaxed);
        self.scheduler_overadmissions.store(c.scheduler_overadmissions, Ordering::Relaxed);
        Ok(())
    }
}

fn export_value_key(key: ValueKey) -> crate::snapshot::ValueKeySnap {
    use crate::snapshot::ValueKeySnap;
    match key {
        ValueKey::Int(v) => ValueKeySnap::Int(v),
        ValueKey::Float(bits) => ValueKeySnap::Float(bits),
        ValueKey::Str(id) => ValueKeySnap::Str(id),
        ValueKey::Bool(b) => ValueKeySnap::Bool(b),
        ValueKey::Null => ValueKeySnap::Null,
    }
}

fn import_value_key(snap: crate::snapshot::ValueKeySnap) -> ValueKey {
    use crate::snapshot::ValueKeySnap;
    match snap {
        ValueKeySnap::Int(v) => ValueKey::Int(v),
        ValueKeySnap::Float(bits) => ValueKey::Float(bits),
        ValueKeySnap::Str(id) => ValueKey::Str(id),
        ValueKeySnap::Bool(b) => ValueKey::Bool(b),
        ValueKeySnap::Null => ValueKey::Null,
    }
}

/// Deterministic 64-bit FNV-1a [`Hasher`] for shard routing. The std
/// `DefaultHasher` has an unspecified algorithm that may change between
/// Rust releases; shard routing must stay a pure function of the key so
/// memo placement — and therefore eviction behavior at tiny capacities —
/// is reproducible everywhere.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

fn shard_index<K: Hash>(key: &K) -> usize {
    let mut hasher = Fnv1a(Fnv1a::OFFSET_BASIS);
    key.hash(&mut hasher);
    (hasher.finish() as usize) & (SHARDS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::query_cost;
    use sqlkit::parse_template;

    fn tpch() -> Database {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    }

    const ALL_COST_TYPES: [CostType; 4] = [
        CostType::Cardinality,
        CostType::PlanCost,
        CostType::ActualCardinality,
        CostType::ExecutionTimeMicros,
    ];

    /// Batch over `ids` holding `rows`, each a list of `(id, value)`
    /// pairs sorted by id.
    fn batch_of(ids: &[u32], rows: impl IntoIterator<Item = Vec<(u32, Value)>>) -> BindingBatch {
        let mut batch = BindingBatch::new(ids.to_vec());
        for row in rows {
            batch.push_row(&row).unwrap();
        }
        batch
    }

    /// Batch over `{p_1}`, one row per value.
    fn p1(values: impl IntoIterator<Item = Value>) -> BindingBatch {
        batch_of(&[1], values.into_iter().map(|value| vec![(1, value)]))
    }

    /// Cost `batch` through the entry point with the oracle's full budget.
    fn cost(
        oracle: &CostOracle,
        handle: &PreparedHandle,
        batch: &BindingBatch,
        cost_type: CostType,
    ) -> Vec<Result<f64, DbError>> {
        let mut scratch = ColumnarScratch::new();
        let threads = oracle.threads();
        oracle
            .cost_prepared_batch_columnar_on(threads, handle, batch, cost_type, &mut scratch)
            .to_vec()
    }

    /// Cost one row, given as sorted `(id, value)` pairs, as a batch of
    /// one.
    fn cost_one(
        oracle: &CostOracle,
        handle: &PreparedHandle,
        row: &[(u32, Value)],
        cost_type: CostType,
    ) -> Result<f64, DbError> {
        let ids: Vec<u32> = row.iter().map(|&(id, _)| id).collect();
        cost(oracle, handle, &batch_of(&ids, [row.to_vec()]), cost_type).remove(0)
    }

    /// Bits of an all-`Ok` result vector.
    fn bits(results: &[Result<f64, DbError>]) -> Vec<u64> {
        results.iter().map(|r| r.as_ref().unwrap().to_bits()).collect()
    }

    /// The scalar reference for row `row` of `batch`: instantiate, then
    /// plan or execute from scratch (`cost::query_cost`).
    fn scalar(
        db: &Database,
        template: &Template,
        batch: &BindingBatch,
        row: usize,
        cost_type: CostType,
    ) -> Result<f64, DbError> {
        let select = template
            .instantiate(batch.row(row))
            .map_err(|e| DbError::Unsupported(e.to_string()))?;
        query_cost(db, &select, cost_type)
    }

    /// Every result equals the scalar reference bit for bit (errors only
    /// have to be errors on both sides).
    fn assert_matches_scalar(
        db: &Database,
        template: &Template,
        batch: &BindingBatch,
        results: &[Result<f64, DbError>],
        cost_type: CostType,
    ) {
        assert_eq!(batch.len(), results.len());
        for (i, got) in results.iter().enumerate() {
            match (got, scalar(db, template, batch, i, cost_type)) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "probe {i} diverged ({cost_type:?})")
                }
                (Err(_), Err(_)) => {}
                (got, want) => panic!("probe {i}: {got:?} vs scalar {want:?}"),
            }
        }
    }

    /// Cost `batch` on a fresh oracle at `threads`, check it against the
    /// scalar reference, and return the results and stats.
    fn run_checked(
        db: &Database,
        template_sql: &str,
        batch: &BindingBatch,
        cost_type: CostType,
        threads: usize,
    ) -> (Vec<Result<f64, DbError>>, OracleStats) {
        let template = parse_template(template_sql).unwrap();
        let oracle = CostOracle::new(db, threads);
        let handle = oracle.prepare(&template).unwrap();
        let results = cost(&oracle, &handle, batch, cost_type);
        assert_matches_scalar(db, &template, batch, &results, cost_type);
        (results, oracle.stats())
    }

    const QUANTITY: &str =
        "SELECT lineitem.l_orderkey FROM lineitem WHERE lineitem.l_quantity > {p_1}";
    const PRICE: &str = "SELECT orders.o_orderkey FROM orders WHERE orders.o_totalprice > {p_1}";
    const NATION: &str = "SELECT nation.n_name FROM nation WHERE nation.n_nationkey > {p_1}";
    /// Executing this template with `p_1 = 0` fails with a division by
    /// zero — a per-row engine error, memoized like any result.
    const DIVIDE: &str = "SELECT nation.n_name FROM nation WHERE nation.n_nationkey / {p_1} > 1";

    #[test]
    fn repeat_probes_hit_the_cache() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let template = parse_template("SELECT COUNT(*) FROM nation").unwrap();
        let handle = oracle.prepare(&template).unwrap();
        let first = cost_one(&oracle, &handle, &[], CostType::PlanCost).unwrap();
        let second = cost_one(&oracle, &handle, &[], CostType::PlanCost).unwrap();
        assert_eq!(first.to_bits(), second.to_bits());
        let ground = batch_of(&[], [vec![]]);
        let reference = scalar(&db, &template, &ground, 0, CostType::PlanCost).unwrap();
        assert_eq!(first.to_bits(), reference.to_bits());
        let stats = oracle.stats();
        assert_eq!(stats.logical_probes, 2);
        assert_eq!(stats.physical_evals, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn cost_types_do_not_share_entries() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let handle = oracle.prepare(&parse_template(NATION).unwrap()).unwrap();
        let b = [(1, Value::Int(3))];
        cost_one(&oracle, &handle, &b, CostType::PlanCost).unwrap();
        cost_one(&oracle, &handle, &b, CostType::Cardinality).unwrap();
        assert_eq!(oracle.stats().physical_evals, 2);
        assert_eq!(oracle.stats().cache_hits, 0);
    }

    #[test]
    fn execution_time_is_never_memoized() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let template = parse_template(NATION).unwrap();
        let handle = oracle.prepare(&template).unwrap();
        let b = p1([Value::Int(3)]);
        let first = cost(&oracle, &handle, &b, CostType::ExecutionTimeMicros).remove(0).unwrap();
        let second = cost(&oracle, &handle, &b, CostType::ExecutionTimeMicros).remove(0).unwrap();
        let reference = scalar(&db, &template, &b, 0, CostType::ExecutionTimeMicros).unwrap();
        assert_eq!(first.to_bits(), reference.to_bits());
        assert_eq!(second.to_bits(), reference.to_bits());
        let stats = oracle.stats();
        assert_eq!(stats.logical_probes, 2);
        assert_eq!(stats.physical_evals, 2);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn errors_are_cached_too() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let template = parse_template(DIVIDE).unwrap();
        let handle = oracle.prepare(&template).unwrap();
        let zero = p1([Value::Int(0)]);
        let first = cost(&oracle, &handle, &zero, CostType::ActualCardinality).remove(0);
        let second = cost(&oracle, &handle, &zero, CostType::ActualCardinality).remove(0);
        assert!(first.is_err(), "{first:?}");
        assert_eq!(first, second);
        assert_eq!(first, scalar(&db, &template, &zero, 0, CostType::ActualCardinality));
        let stats = oracle.stats();
        assert_eq!(stats.physical_evals, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn batch_dedupes_and_preserves_order() {
        let db = tpch();
        // Probe 2 duplicates probe 0.
        let batch = p1([Value::Int(5), Value::Int(20), Value::Int(5), Value::Int(40)]);
        let template = parse_template(QUANTITY).unwrap();
        let oracle = CostOracle::new(&db, 4);
        let handle = oracle.prepare(&template).unwrap();
        let results = cost(&oracle, &handle, &batch, CostType::Cardinality);
        assert_matches_scalar(&db, &template, &batch, &results, CostType::Cardinality);
        let stats = oracle.stats();
        assert_eq!(stats.logical_probes, 4);
        assert_eq!(stats.physical_evals, 3, "duplicate must be costed once");
        assert_eq!(stats.cache_hits, 1);

        // A second identical batch is all hits.
        assert_eq!(bits(&cost(&oracle, &handle, &batch, CostType::Cardinality)), bits(&results));
        let stats = oracle.stats();
        assert_eq!(stats.logical_probes, 8);
        assert_eq!(stats.physical_evals, 3);
        assert_eq!(stats.cache_hits, 5);
    }

    #[test]
    fn batch_results_and_stats_match_across_thread_counts() {
        // 40 probes over 13 distinct bindings → in-batch duplicates.
        let db = tpch();
        let batch = p1((0..40).map(|i| Value::Int(i % 13)));
        let (serial, serial_stats) = run_checked(&db, QUANTITY, &batch, CostType::Cardinality, 1);
        let (parallel, parallel_stats) =
            run_checked(&db, QUANTITY, &batch, CostType::Cardinality, 4);
        assert_eq!(bits(&serial), bits(&parallel));
        assert_eq!(serial_stats, parallel_stats);
        assert_eq!(serial_stats.logical_probes, 40);
        assert_eq!(serial_stats.physical_evals, 13);
    }

    #[test]
    fn prepared_probe_matches_rendered_path() {
        // One binding at a time, against the scalar planner/executor on
        // the rendered statement.
        let db = tpch();
        let template = parse_template(QUANTITY).unwrap();
        let oracle = CostOracle::new(&db, 1);
        let handle = oracle.prepare(&template).unwrap();
        for value in [Value::Int(5), Value::Int(30), Value::Float(48.5)] {
            let binding = p1([value]);
            for cost_type in ALL_COST_TYPES {
                let got = cost(&oracle, &handle, &binding, cost_type).remove(0).unwrap();
                let want = scalar(&db, &template, &binding, 0, cost_type).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{cost_type:?}");
            }
        }
    }

    #[test]
    fn prepared_repeat_bindings_hit_the_binding_key_cache() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let handle = oracle.prepare(&parse_template(PRICE).unwrap()).unwrap();
        let b1 = [(1, Value::Float(100.0))];
        let b2 = [(1, Value::Float(5000.0))];
        cost_one(&oracle, &handle, &b1, CostType::PlanCost).unwrap();
        cost_one(&oracle, &handle, &b1, CostType::PlanCost).unwrap();
        cost_one(&oracle, &handle, &b2, CostType::PlanCost).unwrap();
        let stats = oracle.stats();
        assert_eq!(stats.logical_probes, 3);
        assert_eq!(stats.physical_evals, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.prepared_hits, stats.cache_hits);
        assert_eq!(stats.prepared_misses, stats.physical_evals);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn re_preparing_a_template_reuses_its_memo_namespace() {
        // Idempotent prepare: profiling the same template twice (e.g. a
        // second pipeline round) keeps hitting the first round's cache.
        let db = tpch();
        let template = parse_template(NATION).unwrap();
        let oracle = CostOracle::new(&db, 1);
        let h1 = oracle.prepare(&template).unwrap();
        let h2 = oracle.prepare(&template).unwrap();
        assert_eq!(h1.id, h2.id);
        let b = [(1, Value::Int(3))];
        let c1 = cost_one(&oracle, &h1, &b, CostType::Cardinality).unwrap();
        let c2 = cost_one(&oracle, &h2, &b, CostType::Cardinality).unwrap();
        assert_eq!(c1.to_bits(), c2.to_bits());
        let stats = oracle.stats();
        assert_eq!(stats.physical_evals, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn prepared_batch_matches_serial_and_thread_counts() {
        // One batch of 40 at 1 and 4 threads equals 40 batches of one.
        let db = tpch();
        let template = parse_template(QUANTITY).unwrap();
        let values: Vec<Value> = (0..40).map(|i| Value::Int(i % 13)).collect();
        let one_at_a_time = {
            let oracle = CostOracle::new(&db, 1);
            let handle = oracle.prepare(&template).unwrap();
            let results: Vec<_> = values
                .iter()
                .map(|v| cost_one(&oracle, &handle, &[(1, v.clone())], CostType::Cardinality))
                .collect();
            (bits(&results), oracle.stats())
        };
        let batch = p1(values);
        for threads in [1, 4] {
            let (results, stats) =
                run_checked(&db, QUANTITY, &batch, CostType::Cardinality, threads);
            assert_eq!((bits(&results), stats), one_at_a_time, "{threads} threads");
        }
        let stats = one_at_a_time.1;
        assert_eq!(stats.logical_probes, 40);
        assert_eq!(stats.physical_evals, 13);
        assert_eq!(stats.cache_hits, 27);
    }

    #[test]
    fn bounded_cache_evicts_with_second_chance_and_counts_it() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1).with_cache_capacity(1);
        let handle = oracle.prepare(&parse_template(QUANTITY).unwrap()).unwrap();
        // Far more distinct bindings than 16 shards × 1 entry can hold.
        for i in 0..64 {
            cost_one(&oracle, &handle, &[(1, Value::Int(i))], CostType::Cardinality).unwrap();
        }
        let stats = oracle.stats();
        assert_eq!(stats.logical_probes, 64);
        // Every probe was distinct: evicted-or-resident must cover all.
        assert_eq!(stats.physical_evals, 64);
        assert!(stats.evictions > 0, "capacity 1 must evict: {stats:?}");
        let resident: usize = 64 - stats.evictions as usize;
        assert!(resident <= SHARDS, "at most one resident entry per shard");
    }

    #[test]
    fn columnar_batch_matches_per_probe_across_threads() {
        // 40 probes, 13 distinct bindings → in-batch duplicates that span
        // multiple memo shards; every probe equals the per-probe scalar
        // reference, and accounting is arithmetic in the batch shape.
        let db = tpch();
        let batch = p1((0..40).map(|i| Value::Int(i % 13)));
        for cost_type in ALL_COST_TYPES {
            let mut baseline: Option<Vec<u64>> = None;
            for threads in [1, 2, 8] {
                let (results, stats) = run_checked(&db, QUANTITY, &batch, cost_type, threads);
                let physical = if cost_type == CostType::ExecutionTimeMicros { 40 } else { 13 };
                assert_eq!(stats.logical_probes, 40);
                assert_eq!(stats.physical_evals, physical, "{cost_type:?}");
                assert_eq!(stats.cache_hits, 40 - physical, "{cost_type:?}");
                let bits = bits(&results);
                match &baseline {
                    None => baseline = Some(bits),
                    Some(expected) => assert_eq!(expected, &bits, "{cost_type:?}"),
                }
            }
        }
    }

    #[test]
    fn columnar_warm_batch_is_all_hits() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 2);
        let handle = oracle.prepare(&parse_template(PRICE).unwrap()).unwrap();
        let batch = p1((0..16).map(|i| Value::Float(f64::from(i) * 250.0)));
        let mut scratch = ColumnarScratch::new();
        let run = |scratch: &mut ColumnarScratch| {
            bits(oracle.cost_prepared_batch_columnar_on(
                2,
                &handle,
                &batch,
                CostType::PlanCost,
                scratch,
            ))
        };
        let cold = run(&mut scratch);
        let evals_after_cold = oracle.stats().physical_evals;
        let warm = run(&mut scratch);
        assert_eq!(cold, warm);
        let stats = oracle.stats();
        assert_eq!(stats.physical_evals, evals_after_cold, "warm batch must not recost");
        assert_eq!(stats.cache_hits, 16);
    }

    #[test]
    fn missing_placeholder_column_fails_every_row_uncounted() {
        // A batch without a column for one of the template's placeholders
        // binds no row: every row fails with the smallest missing id, for
        // every cost type and thread count, and the oracle memoizes and
        // counts nothing for it. Extra columns change nothing.
        let db = tpch();
        let template = parse_template(
            "SELECT lineitem.l_orderkey FROM lineitem \
             WHERE lineitem.l_quantity > {p_2} AND lineitem.l_discount < {p_5}",
        )
        .unwrap();
        let rows = |ids: &[u32]| {
            batch_of(ids, (0..3).map(|i| ids.iter().map(|&id| (id, Value::Int(i))).collect()))
        };
        let cases = [1, 4].into_iter().flat_map(|t| ALL_COST_TYPES.map(|c| (t, c)));
        for (threads, cost_type) in cases {
            let oracle = CostOracle::new(&db, threads);
            let handle = oracle.prepare(&template).unwrap();
            // Warm the memo so "unchanged" is not trivially zero.
            cost(&oracle, &handle, &rows(&[2, 5]), cost_type);
            let before = oracle.stats();
            for (ids, missing) in [(&[5, 9][..], 2), (&[2][..], 5), (&[][..], 2)] {
                let results = cost(&oracle, &handle, &rows(ids), cost_type);
                let expected = vec![Err(DbError::UnboundPlaceholder(missing)); 3];
                assert_eq!(results, expected, "{cost_type:?} at {threads} threads over {ids:?}");
            }
            assert_eq!(oracle.stats(), before, "{cost_type:?} at {threads} threads");
        }
    }

    #[test]
    fn map_adapter_matches_the_batch_entry() {
        // The `&[HashMap]` entry copies the maps into one batch: results
        // and stats are bit-identical to the batch entry's, at 1 and 4
        // threads; a placeholder one map leaves unbound fails the batch.
        let db = tpch();
        let template = parse_template(QUANTITY).unwrap();
        let values: Vec<Value> = (0..40).map(|i| Value::Int(i % 13)).collect();
        let maps: Vec<HashMap<u32, Value>> = values
            .iter()
            .map(|v| [(1, v.clone()), (7, Value::Null)].into_iter().collect())
            .collect();
        let batch = p1(values);
        let by_maps = |oracle: &CostOracle, maps: &[HashMap<u32, Value>], cost_type| {
            let handle = oracle.prepare(&template).unwrap();
            let mut scratch = ColumnarScratch::new();
            oracle.cost_prepared_batch_columnar(&handle, maps, cost_type, &mut scratch).to_vec()
        };
        let cases = [1, 4].into_iter().flat_map(|t| ALL_COST_TYPES.map(|c| (t, c)));
        for (threads, cost_type) in cases {
            let batch_oracle = CostOracle::new(&db, threads);
            let handle = batch_oracle.prepare(&template).unwrap();
            let expected = bits(&cost(&batch_oracle, &handle, &batch, cost_type));
            let map_oracle = CostOracle::new(&db, threads);
            let got = bits(&by_maps(&map_oracle, &maps, cost_type));
            assert_eq!(got, expected, "{cost_type:?} at {threads} threads");
            assert_eq!(map_oracle.stats(), batch_oracle.stats(), "{cost_type:?} at {threads}");
        }
        let mut partial = maps[..3].to_vec();
        partial[1].remove(&1);
        let oracle = CostOracle::new(&db, 1);
        let results = by_maps(&oracle, &partial, CostType::PlanCost);
        assert_eq!(results, vec![Err(DbError::UnboundPlaceholder(1)); 3]);
        assert_eq!(oracle.stats(), OracleStats::default());
    }

    #[test]
    fn columnar_heap_keys_match_per_probe() {
        // Five placeholders exceed the inline binding-key capacity, forcing
        // the heap key representation through the same shard routing.
        let db = tpch();
        let sql = "SELECT lineitem.l_orderkey FROM lineitem \
                   WHERE lineitem.l_quantity > {p_1} AND lineitem.l_extendedprice > {p_2} \
                   AND lineitem.l_discount > {p_3} AND lineitem.l_suppkey > {p_4} \
                   AND lineitem.l_orderkey > {p_5}";
        let batch = batch_of(
            &[1, 2, 3, 4, 5],
            (0..12).map(|i| {
                vec![
                    (1, Value::Int(i % 5)),
                    (2, Value::Float(i as f64 * 10.0)),
                    (3, Value::Float(0.02)),
                    (4, Value::Int(i % 4)),
                    (5, Value::Int(i % 3)),
                ]
            }),
        );
        for threads in [1, 4] {
            let (_, stats) = run_checked(&db, sql, &batch, CostType::PlanCost, threads);
            assert_eq!(stats.logical_probes, 12);
            assert_eq!(stats.physical_evals, 12, "all 12 bindings are distinct");
        }
    }

    #[test]
    fn columnar_eviction_accounting_matches_under_tiny_capacity() {
        // Capacity 2 with 64 distinct bindings forces second-chance
        // eviction; per-shard lookup and insert order do not depend on
        // the worker count, so results and stats agree at 1 and 4
        // threads.
        let db = tpch();
        let template = parse_template(NATION).unwrap();
        let batch = p1((0..64).map(Value::Int));
        let run = |threads: usize| {
            let oracle = CostOracle::new(&db, threads).with_cache_capacity(2);
            let handle = oracle.prepare(&template).unwrap();
            let results = cost(&oracle, &handle, &batch, CostType::Cardinality);
            assert_matches_scalar(&db, &template, &batch, &results, CostType::Cardinality);
            (bits(&results), oracle.stats())
        };
        let (serial, serial_stats) = run(1);
        let (parallel, parallel_stats) = run(4);
        assert_eq!(serial, parallel);
        assert_eq!(serial_stats, parallel_stats);
        assert_eq!(serial_stats.physical_evals, 64);
        assert!(serial_stats.evictions > 0, "capacity 2 must evict: {serial_stats:?}");
    }

    #[test]
    fn eviction_keeps_recent_entries_reachable() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1).with_cache_capacity(2);
        let handle = oracle.prepare(&parse_template(NATION).unwrap()).unwrap();
        for i in 0..32 {
            cost_one(&oracle, &handle, &[(1, Value::Int(i))], CostType::Cardinality).unwrap();
        }
        // The most recent binding is still cached (fresh entries are
        // admitted referenced, so the clock cannot evict them instantly).
        let before = oracle.stats();
        cost_one(&oracle, &handle, &[(1, Value::Int(31))], CostType::Cardinality).unwrap();
        let after = oracle.stats();
        assert_eq!(after.physical_evals, before.physical_evals);
        assert_eq!(after.cache_hits, before.cache_hits + 1);
    }

    #[test]
    fn state_round_trip_reproduces_stats_and_future_behavior() {
        // Warm an oracle (string-interned bindings, a memoized error,
        // tiny-capacity evictions, an un-memoized probe), export, restore
        // into a fresh oracle, and require (a) identical derived stats and
        // (b) an identical probe future.
        let db = tpch();
        let template =
            parse_template("SELECT nation.n_name FROM nation WHERE nation.n_name > {p_1}")
                .unwrap();
        let divide = parse_template(DIVIDE).unwrap();
        let warm = |oracle: &CostOracle| -> PreparedHandle {
            let handle = oracle.prepare(&template).unwrap();
            for i in 0..24 {
                let b = [(1, Value::Str(format!("N{:02}", i % 9)))];
                cost_one(oracle, &handle, &b, CostType::Cardinality).unwrap();
            }
            let failing = oracle.prepare(&divide).unwrap();
            let zero = [(1, Value::Int(0))];
            assert!(cost_one(oracle, &failing, &zero, CostType::ActualCardinality).is_err());
            let b = [(1, Value::Str("N03".into()))];
            cost_one(oracle, &handle, &b, CostType::ExecutionTimeMicros).unwrap();
            oracle.note_scheduler_round(3, 1);
            handle
        };
        let probe_future = |oracle: &CostOracle, handle: &PreparedHandle| {
            let costs: Vec<u64> = (0..40)
                .map(|i| {
                    let b = [(1, Value::Str(format!("N{:02}", i % 13)))];
                    cost_one(oracle, handle, &b, CostType::Cardinality).unwrap().to_bits()
                })
                .collect();
            (costs, oracle.stats())
        };

        let original = CostOracle::new(&db, 1).with_cache_capacity(2);
        let handle = warm(&original);
        let exported = original.export_state();

        let restored = CostOracle::new(&db, 1);
        restored.restore_state(&exported).unwrap();
        assert_eq!(restored.stats(), original.stats(), "restored stats diverge");
        // The registry round-trips ids, so re-preparing yields the same
        // handle id and therefore the same memo namespace.
        let restored_handle = restored.prepare(&template).unwrap();
        assert_eq!(restored_handle.id, handle.id);
        // Capture is lossless: a second export is structurally identical.
        assert_eq!(restored.export_state(), exported);

        // Both oracles must now agree on every future probe, hit/miss
        // decision, and eviction (capacity was restored too).
        assert_eq!(probe_future(&original, &handle), probe_future(&restored, &restored_handle));
    }

    #[test]
    fn restore_rejects_mismatched_shard_counts() {
        let db = tpch();
        let oracle = CostOracle::new(&db, 1);
        let mut state = oracle.export_state();
        state.shards.pop();
        let err = CostOracle::new(&db, 1).restore_state(&state).unwrap_err();
        assert!(err.contains("memo shards"), "{err}");
    }
}
