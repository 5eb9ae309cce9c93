//! Crash-safe pipeline snapshots: a versioned, CRC-guarded binary codec
//! plus atomic on-disk checkpoint storage with generation fallback.
//!
//! A [`Snapshot`] captures everything a resumed run needs to continue
//! **bit-identically**: the driver RNG's xoshiro256++ state words, the
//! whole LLM stack's [`ModelState`], the report accumulators written so
//! far, the template pool (seed SQL before profiling, full
//! [`ProfiledState`]s after), the cost oracle's memo/interner/registry
//! contents and counters, and a [`PhaseState`] marker saying exactly
//! where in the pipeline the snapshot was taken — including mid-search
//! scheduler bookkeeping ([`SchedState`]).
//!
//! ## File format
//!
//! ```text
//! magic "SQBS" | version u32 | payload_len u64 | crc32(payload) u32 | payload
//! ```
//!
//! All integers little-endian; floats stored as IEEE-754 bit patterns so
//! NaN payloads and signed zeros round-trip exactly. The codec is total:
//! [`Snapshot::decode`] returns a typed [`SnapshotError`] on any input —
//! truncated, bit-flipped, or adversarial — and never panics or
//! overallocates (every length field is validated against the remaining
//! input before allocation).
//!
//! ## Durability & fallback
//!
//! [`CheckpointDir::store`] writes `snapshot-NNNNNN.bin` via temp file +
//! `fsync` + atomic rename (plus a best-effort directory fsync), so a
//! crash mid-write can never clobber the previous good snapshot. The two
//! most recent generations are kept; [`CheckpointDir::load_latest`]
//! scans generations newest-first and falls back past corrupt files
//! (logging each rejection) — a torn or bit-flipped latest snapshot
//! degrades to the previous boundary, never to a panic.

use crate::cost::CostType;
use llm::{BreakerSnapshot, ModelState, ResilientState, SyntheticState, TransportState};
use llm::{InjectedFaults, ResilienceStats, TokenUsage};
use minidb::DbError;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Snapshot file magic.
pub const MAGIC: [u8; 4] = *b"SQBS";
/// Codec version; bumped on any layout change.
pub const VERSION: u32 = 2;
/// Header length in bytes: magic + version + payload_len + crc32.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 4;
/// Maximum model-stack nesting the decoder accepts (the pipeline stacks
/// three layers; the bound keeps hostile input from recursing the stack).
const MAX_MODEL_DEPTH: usize = 8;
/// Snapshot generations kept on disk (current + fallback).
const KEEP_GENERATIONS: u64 = 2;

/// Typed decode/storage failure. Total: every malformed input maps here,
/// never to a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem operation failed.
    Io(String),
    /// Input ended before the structure it promised.
    Truncated,
    /// First four bytes are not the snapshot magic.
    BadMagic,
    /// Unknown codec version.
    BadVersion(u32),
    /// Payload checksum mismatch (torn write or bit flip).
    Crc {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the payload actually read.
        actual: u32,
    },
    /// Structurally invalid payload (bad tag, non-UTF-8 string, ...).
    Malformed(String),
    /// The checkpoint directory holds no snapshot at all.
    NoSnapshot,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(detail) => write!(f, "snapshot I/O error: {detail}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::Crc { expected, actual } => write!(
                f,
                "snapshot checksum mismatch (header {expected:#010x}, payload {actual:#010x})"
            ),
            SnapshotError::Malformed(detail) => write!(f, "malformed snapshot: {detail}"),
            SnapshotError::NoSnapshot => write!(f, "no snapshot found"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the polynomial every
/// `cksum`/zlib implementation agrees on, computed bytewise without a
/// table (snapshots are small; clarity wins).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// State types
// ---------------------------------------------------------------------------

/// Complete pipeline state at one checkpoint boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// FNV-1a fingerprint of (config, target, cost type); resume refuses
    /// a snapshot taken under different settings.
    pub fingerprint: u64,
    /// Driver RNG state words (xoshiro256++), captured at the boundary.
    pub rng: [u64; 4],
    /// Full LLM-stack state (every layer's RNG, counters, clock).
    pub llm: ModelState,
    /// Report fields accumulated before the boundary.
    pub acc: ReportAcc,
    /// Template pool: seed SQL before profiling, profiled states after.
    pub pool: TemplatePool,
    /// Cost-oracle memo/registry/counter state (absent before profiling,
    /// when the oracle has not been consulted yet).
    pub oracle: Option<OracleState>,
    /// Where in the pipeline the snapshot was taken.
    pub phase: PhaseState,
}

/// Pipeline position marker.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseState {
    /// Algorithm 1 finished; profiling next.
    AfterTemplates,
    /// Profiling finished; initial refinement next.
    AfterProfiling,
    /// Refinement preceding search round `round` (1-based) finished.
    AfterRefine {
        /// The search round this refinement feeds.
        round: u64,
    },
    /// Inside search round `round`, between scheduler rounds.
    MidSearch {
        /// Outer refine→search round (1-based).
        round: u64,
        /// Scheduler bookkeeping to resume from.
        sched: SchedState,
    },
    /// Search round `round` finished with `result`; the retry decision
    /// (and, on the final round, amplification) comes next.
    AfterSearch {
        /// Outer refine→search round (1-based).
        round: u64,
        /// The finished round's search result.
        result: StoredResult,
    },
}

impl PhaseState {
    /// Stable name, used by the kill switch and log lines.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseState::AfterTemplates => "after-templates",
            PhaseState::AfterProfiling => "after-profiling",
            PhaseState::AfterRefine { .. } => "after-refine",
            PhaseState::MidSearch { .. } => "mid-search",
            PhaseState::AfterSearch { .. } => "after-search",
        }
    }
}

/// Deficit-scheduler bookkeeping at a round boundary. `seen` is not
/// stored: it is exactly the SQL set of `queries` (the scheduler's
/// `try_accept` is the only inserter) and is rebuilt on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedState {
    /// The search's master seed (already drawn from the driver RNG).
    pub search_seed: u64,
    /// First scheduler round the resumed search runs.
    pub next_round: u64,
    /// Bad `(interval, template)` combinations (Eq. 6).
    pub bad: Vec<(u64, u64)>,
    /// Skipped intervals.
    pub skip: Vec<u64>,
    /// Consecutive fruitless rounds per interval.
    pub failures: Vec<(u64, u32)>,
    /// Oracle evaluations spent by the search so far.
    pub evaluations: u64,
    /// Per-interval accepted counts `d`.
    pub d: Vec<f64>,
    /// Accepted queries so far, in acceptance order.
    pub queries: Vec<(String, f64)>,
}

/// A finished search round's [`crate::bo_search::SearchResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoredResult {
    /// Accepted queries in acceptance order.
    pub queries: Vec<(String, f64)>,
    /// Final per-interval counts.
    pub distribution: Vec<f64>,
    /// Intervals given up on.
    pub skipped: Vec<u64>,
    /// Oracle evaluations spent.
    pub evaluations: u64,
}

/// The template pool at a boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplatePool {
    /// Seed templates (printed SQL), before profiling.
    Seeds(Vec<String>),
    /// Profiled templates with their full evaluation history.
    Profiled(Vec<ProfiledState>),
}

/// Serialized [`crate::profiler::ProfiledTemplate`]: the template's
/// printed SQL plus its measurement history. The placeholder space is
/// rebuilt from the database on resume (it is a pure function of
/// template + schema).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledState {
    /// Template SQL with `{p_i}` placeholders.
    pub sql: String,
    /// Observed costs.
    pub costs: Vec<f64>,
    /// `(unit point, cost)` evaluation history — this is also the BO
    /// warm-start training data, which is why the surrogate forest itself
    /// never needs serializing.
    pub evaluations: Vec<(Vec<f64>, f64)>,
    /// Evaluation budget consumed.
    pub consumed: f64,
}

/// Report fields the pipeline has already committed by the boundary;
/// everything else in the final report is recomputed by the remainder of
/// the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportAcc {
    /// Algorithm 1 spec-correct counts per attempt.
    pub spec_correct: Vec<u64>,
    /// Algorithm 1 syntax-correct counts per attempt.
    pub syntax_correct: Vec<u64>,
    /// Algorithm 1 batch size.
    pub rewrite_total: u64,
    /// Template/specification alignment accuracy.
    pub alignment_accuracy: f64,
    /// Seed templates produced by Algorithm 1.
    pub n_seed_templates: u64,
    /// Refined templates accepted so far.
    pub n_refined_templates: u64,
    /// Degradation counters: llm_failures, malformed_responses,
    /// abandoned_specs, abandoned_intervals.
    pub degradation: [u64; 4],
}

/// Hashable stand-in for a bound value inside a prepared-probe memo key
/// (mirrors the oracle's internal representation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKeySnap {
    /// Integer binding.
    Int(i64),
    /// Float binding, keyed by bit pattern.
    Float(u64),
    /// String binding, as an interner id (index into
    /// [`OracleState::interner`]).
    Str(u32),
    /// Boolean binding.
    Bool(bool),
    /// NULL binding.
    Null,
}

/// One prepared-probe memo entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedEntry {
    /// Oracle-assigned template id.
    pub template_id: u64,
    /// Cost metric of the probe.
    pub cost_type: CostType,
    /// Binding vector in placeholder order (`None` = unbound slot).
    pub key: Vec<Option<ValueKeySnap>>,
    /// Memoized result.
    pub value: Result<f64, DbError>,
    /// Second-chance reference bit.
    pub referenced: bool,
}

/// One bounded memo shard, entries in clock-queue order (front first) so
/// future second-chance evictions replay identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Shard capacity.
    pub capacity: u64,
    /// Entries already evicted from this shard.
    pub evicted: u64,
    /// Live entries in queue order.
    pub entries: Vec<PreparedEntry>,
}

/// The oracle's atomic counters (raw, pre-derivation — `stats()` derives
/// physical/hit counts from these plus the shard contents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleCounters {
    /// Logical probes.
    pub logical: u64,
    /// Unmemoized (execution-time) probes.
    pub unmemoized: u64,
    /// Scheduler rounds.
    pub scheduler_rounds: u64,
    /// Scheduler tasks.
    pub scheduler_tasks: u64,
    /// Peak tasks in one round.
    pub scheduler_peak_tasks: u64,
    /// Round-barrier overadmissions.
    pub scheduler_overadmissions: u64,
}

/// Complete serializable state of a [`crate::oracle::CostOracle`]:
/// restoring it reproduces every future memo hit, eviction, and derived
/// counter exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleState {
    /// String-intern table; index = interned id.
    pub interner: Vec<String>,
    /// Prepared-template registry; index = template id, value = SQL
    /// (plans are rebuilt by re-preparing on resume).
    pub templates: Vec<String>,
    /// Memo shards, by shard index.
    pub shards: Vec<ShardState>,
    /// Raw atomic counters.
    pub counters: OracleCounters,
}

// ---------------------------------------------------------------------------
// Encoder / decoder primitives
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Dec<'a> {
        Dec { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!("bool byte {other}"))),
        }
    }

    /// A length prefix, validated against the remaining input: a list of
    /// `len` elements each at least `elem_min` bytes wide cannot be
    /// longer than what is left, so hostile lengths fail before any
    /// allocation happens.
    fn len(&mut self, elem_min: usize) -> Result<usize, SnapshotError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated)?;
        if len.checked_mul(elem_min.max(1)).is_none_or(|need| need > self.remaining()) {
            return Err(SnapshotError::Truncated);
        }
        Ok(len)
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("non-UTF-8 string".into()))
    }
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

fn enc_rng(enc: &mut Enc, words: &[u64; 4]) {
    for &w in words {
        enc.u64(w);
    }
}

fn dec_rng(dec: &mut Dec) -> Result<[u64; 4], SnapshotError> {
    Ok([dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?])
}

fn enc_usage(enc: &mut Enc, usage: &TokenUsage) {
    enc.u64(usage.input_tokens);
    enc.u64(usage.output_tokens);
    enc.u64(usage.requests);
}

fn dec_usage(dec: &mut Dec) -> Result<TokenUsage, SnapshotError> {
    Ok(TokenUsage {
        input_tokens: dec.u64()?,
        output_tokens: dec.u64()?,
        requests: dec.u64()?,
    })
}

fn enc_model(enc: &mut Enc, state: &ModelState) {
    match state {
        ModelState::Synthetic(s) => {
            enc.u8(0);
            enc_rng(enc, &s.rng);
            enc_usage(enc, &s.usage);
            enc.usize(s.attempts.len());
            for &(spec, attempts) in &s.attempts {
                enc.u32(spec);
                enc.u32(attempts);
            }
        }
        ModelState::Transport { layer, inner } => {
            enc.u8(1);
            enc_rng(enc, &layer.rng);
            enc.u32(layer.remaining_burst);
            enc.u64(layer.injected.timeouts);
            enc.u64(layer.injected.rate_limits);
            enc.u64(layer.injected.truncations);
            enc.u64(layer.injected.server_errors);
            enc.u64(layer.injected.burst_failures);
            enc.u64(layer.injected.bursts);
            enc_usage(enc, &layer.wasted);
            enc_model(enc, inner);
        }
        ModelState::Resilient { layer, inner } => {
            enc.u8(2);
            enc_rng(enc, &layer.rng);
            enc.u64(layer.now_ms);
            match layer.breaker {
                BreakerSnapshot::Closed { consecutive_failures } => {
                    enc.u8(0);
                    enc.u32(consecutive_failures);
                }
                BreakerSnapshot::Open { until_ms } => {
                    enc.u8(1);
                    enc.u64(until_ms);
                }
                BreakerSnapshot::HalfOpen => enc.u8(2),
            }
            enc.u64(layer.retries_left);
            let s = &layer.stats;
            for v in [
                s.calls,
                s.attempts,
                s.failures,
                s.retries,
                s.recoveries,
                s.giveups,
                s.backoff_ms,
                s.breaker_trips,
                s.breaker_probes,
                s.circuit_rejections,
                s.budget_exhausted,
            ] {
                enc.u64(v);
            }
            enc_model(enc, inner);
        }
    }
}

fn dec_model(dec: &mut Dec, depth: usize) -> Result<ModelState, SnapshotError> {
    if depth > MAX_MODEL_DEPTH {
        return Err(SnapshotError::Malformed("model stack too deep".into()));
    }
    match dec.u8()? {
        0 => {
            let rng = dec_rng(dec)?;
            let usage = dec_usage(dec)?;
            let n = dec.len(8)?;
            let mut attempts = Vec::with_capacity(n);
            for _ in 0..n {
                attempts.push((dec.u32()?, dec.u32()?));
            }
            Ok(ModelState::Synthetic(SyntheticState { rng, usage, attempts }))
        }
        1 => {
            let rng = dec_rng(dec)?;
            let remaining_burst = dec.u32()?;
            let injected = InjectedFaults {
                timeouts: dec.u64()?,
                rate_limits: dec.u64()?,
                truncations: dec.u64()?,
                server_errors: dec.u64()?,
                burst_failures: dec.u64()?,
                bursts: dec.u64()?,
            };
            let wasted = dec_usage(dec)?;
            let inner = Box::new(dec_model(dec, depth + 1)?);
            Ok(ModelState::Transport {
                layer: TransportState { rng, remaining_burst, injected, wasted },
                inner,
            })
        }
        2 => {
            let rng = dec_rng(dec)?;
            let now_ms = dec.u64()?;
            let breaker = match dec.u8()? {
                0 => BreakerSnapshot::Closed { consecutive_failures: dec.u32()? },
                1 => BreakerSnapshot::Open { until_ms: dec.u64()? },
                2 => BreakerSnapshot::HalfOpen,
                other => {
                    return Err(SnapshotError::Malformed(format!("breaker tag {other}")))
                }
            };
            let retries_left = dec.u64()?;
            let stats = ResilienceStats {
                calls: dec.u64()?,
                attempts: dec.u64()?,
                failures: dec.u64()?,
                retries: dec.u64()?,
                recoveries: dec.u64()?,
                giveups: dec.u64()?,
                backoff_ms: dec.u64()?,
                breaker_trips: dec.u64()?,
                breaker_probes: dec.u64()?,
                circuit_rejections: dec.u64()?,
                budget_exhausted: dec.u64()?,
            };
            let inner = Box::new(dec_model(dec, depth + 1)?);
            Ok(ModelState::Resilient {
                layer: ResilientState { rng, now_ms, breaker, retries_left, stats },
                inner,
            })
        }
        other => Err(SnapshotError::Malformed(format!("model tag {other}"))),
    }
}

fn enc_cost_type(enc: &mut Enc, ct: CostType) {
    enc.u8(match ct {
        CostType::Cardinality => 0,
        CostType::PlanCost => 1,
        CostType::ActualCardinality => 2,
        CostType::ExecutionTimeMicros => 3,
    });
}

fn dec_cost_type(dec: &mut Dec) -> Result<CostType, SnapshotError> {
    Ok(match dec.u8()? {
        0 => CostType::Cardinality,
        1 => CostType::PlanCost,
        2 => CostType::ActualCardinality,
        3 => CostType::ExecutionTimeMicros,
        other => return Err(SnapshotError::Malformed(format!("cost-type tag {other}"))),
    })
}

fn enc_db_error(enc: &mut Enc, e: &DbError) {
    let (tag, text): (u8, &str) = match e {
        DbError::UnknownTable(s) => (0, s),
        DbError::UnknownColumn(s) => (1, s),
        DbError::AmbiguousColumn(s) => (2, s),
        DbError::DuplicateBinding(s) => (3, s),
        DbError::TypeMismatch(s) => (4, s),
        DbError::UnboundPlaceholder(id) => {
            enc.u8(5);
            enc.u32(*id);
            return;
        }
        DbError::Unsupported(s) => (6, s),
        DbError::Grouping(s) => (7, s),
        DbError::Arithmetic(s) => (8, s),
    };
    enc.u8(tag);
    enc.str(text);
}

fn dec_db_error(dec: &mut Dec) -> Result<DbError, SnapshotError> {
    let tag = dec.u8()?;
    if tag == 5 {
        return Ok(DbError::UnboundPlaceholder(dec.u32()?));
    }
    let text = dec.str()?;
    Ok(match tag {
        0 => DbError::UnknownTable(text),
        1 => DbError::UnknownColumn(text),
        2 => DbError::AmbiguousColumn(text),
        3 => DbError::DuplicateBinding(text),
        4 => DbError::TypeMismatch(text),
        6 => DbError::Unsupported(text),
        7 => DbError::Grouping(text),
        8 => DbError::Arithmetic(text),
        other => return Err(SnapshotError::Malformed(format!("db-error tag {other}"))),
    })
}

fn enc_cost_result(enc: &mut Enc, r: &Result<f64, DbError>) {
    match r {
        Ok(v) => {
            enc.u8(0);
            enc.f64(*v);
        }
        Err(e) => {
            enc.u8(1);
            enc_db_error(enc, e);
        }
    }
}

fn dec_cost_result(dec: &mut Dec) -> Result<Result<f64, DbError>, SnapshotError> {
    match dec.u8()? {
        0 => Ok(Ok(dec.f64()?)),
        1 => Ok(Err(dec_db_error(dec)?)),
        other => Err(SnapshotError::Malformed(format!("result tag {other}"))),
    }
}

fn enc_value_key(enc: &mut Enc, key: &Option<ValueKeySnap>) {
    match key {
        None => enc.u8(0),
        Some(ValueKeySnap::Int(v)) => {
            enc.u8(1);
            enc.i64(*v);
        }
        Some(ValueKeySnap::Float(bits)) => {
            enc.u8(2);
            enc.u64(*bits);
        }
        Some(ValueKeySnap::Str(id)) => {
            enc.u8(3);
            enc.u32(*id);
        }
        Some(ValueKeySnap::Bool(b)) => {
            enc.u8(4);
            enc.bool(*b);
        }
        Some(ValueKeySnap::Null) => enc.u8(5),
    }
}

fn dec_value_key(dec: &mut Dec) -> Result<Option<ValueKeySnap>, SnapshotError> {
    Ok(match dec.u8()? {
        0 => None,
        1 => Some(ValueKeySnap::Int(dec.i64()?)),
        2 => Some(ValueKeySnap::Float(dec.u64()?)),
        3 => Some(ValueKeySnap::Str(dec.u32()?)),
        4 => Some(ValueKeySnap::Bool(dec.bool()?)),
        5 => Some(ValueKeySnap::Null),
        other => return Err(SnapshotError::Malformed(format!("value-key tag {other}"))),
    })
}

fn enc_str_vec(enc: &mut Enc, items: &[String]) {
    enc.usize(items.len());
    for s in items {
        enc.str(s);
    }
}

fn dec_str_vec(dec: &mut Dec) -> Result<Vec<String>, SnapshotError> {
    let n = dec.len(8)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(dec.str()?);
    }
    Ok(items)
}

fn enc_f64_vec(enc: &mut Enc, items: &[f64]) {
    enc.usize(items.len());
    for &v in items {
        enc.f64(v);
    }
}

fn dec_f64_vec(dec: &mut Dec) -> Result<Vec<f64>, SnapshotError> {
    let n = dec.len(8)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(dec.f64()?);
    }
    Ok(items)
}

fn enc_u64_vec(enc: &mut Enc, items: &[u64]) {
    enc.usize(items.len());
    for &v in items {
        enc.u64(v);
    }
}

fn dec_u64_vec(dec: &mut Dec) -> Result<Vec<u64>, SnapshotError> {
    let n = dec.len(8)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(dec.u64()?);
    }
    Ok(items)
}

fn enc_queries(enc: &mut Enc, queries: &[(String, f64)]) {
    enc.usize(queries.len());
    for (sql, cost) in queries {
        enc.str(sql);
        enc.f64(*cost);
    }
}

fn dec_queries(dec: &mut Dec) -> Result<Vec<(String, f64)>, SnapshotError> {
    let n = dec.len(16)?;
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        let sql = dec.str()?;
        queries.push((sql, dec.f64()?));
    }
    Ok(queries)
}

fn enc_sched(enc: &mut Enc, sched: &SchedState) {
    enc.u64(sched.search_seed);
    enc.u64(sched.next_round);
    enc.usize(sched.bad.len());
    for &(j, t) in &sched.bad {
        enc.u64(j);
        enc.u64(t);
    }
    enc_u64_vec(enc, &sched.skip);
    enc.usize(sched.failures.len());
    for &(j, count) in &sched.failures {
        enc.u64(j);
        enc.u32(count);
    }
    enc.u64(sched.evaluations);
    enc_f64_vec(enc, &sched.d);
    enc_queries(enc, &sched.queries);
}

fn dec_sched(dec: &mut Dec) -> Result<SchedState, SnapshotError> {
    let search_seed = dec.u64()?;
    let next_round = dec.u64()?;
    let n = dec.len(16)?;
    let mut bad = Vec::with_capacity(n);
    for _ in 0..n {
        let j = dec.u64()?;
        bad.push((j, dec.u64()?));
    }
    let skip = dec_u64_vec(dec)?;
    let n = dec.len(12)?;
    let mut failures = Vec::with_capacity(n);
    for _ in 0..n {
        let j = dec.u64()?;
        failures.push((j, dec.u32()?));
    }
    Ok(SchedState {
        search_seed,
        next_round,
        bad,
        skip,
        failures,
        evaluations: dec.u64()?,
        d: dec_f64_vec(dec)?,
        queries: dec_queries(dec)?,
    })
}

fn enc_result(enc: &mut Enc, result: &StoredResult) {
    enc_queries(enc, &result.queries);
    enc_f64_vec(enc, &result.distribution);
    enc_u64_vec(enc, &result.skipped);
    enc.u64(result.evaluations);
}

fn dec_result(dec: &mut Dec) -> Result<StoredResult, SnapshotError> {
    Ok(StoredResult {
        queries: dec_queries(dec)?,
        distribution: dec_f64_vec(dec)?,
        skipped: dec_u64_vec(dec)?,
        evaluations: dec.u64()?,
    })
}

fn enc_phase(enc: &mut Enc, phase: &PhaseState) {
    match phase {
        PhaseState::AfterTemplates => enc.u8(0),
        PhaseState::AfterProfiling => enc.u8(1),
        PhaseState::AfterRefine { round } => {
            enc.u8(2);
            enc.u64(*round);
        }
        PhaseState::MidSearch { round, sched } => {
            enc.u8(3);
            enc.u64(*round);
            enc_sched(enc, sched);
        }
        PhaseState::AfterSearch { round, result } => {
            enc.u8(4);
            enc.u64(*round);
            enc_result(enc, result);
        }
    }
}

fn dec_phase(dec: &mut Dec) -> Result<PhaseState, SnapshotError> {
    Ok(match dec.u8()? {
        0 => PhaseState::AfterTemplates,
        1 => PhaseState::AfterProfiling,
        2 => PhaseState::AfterRefine { round: dec.u64()? },
        3 => PhaseState::MidSearch { round: dec.u64()?, sched: dec_sched(dec)? },
        4 => PhaseState::AfterSearch { round: dec.u64()?, result: dec_result(dec)? },
        other => return Err(SnapshotError::Malformed(format!("phase tag {other}"))),
    })
}

fn enc_pool(enc: &mut Enc, pool: &TemplatePool) {
    match pool {
        TemplatePool::Seeds(seeds) => {
            enc.u8(0);
            enc_str_vec(enc, seeds);
        }
        TemplatePool::Profiled(states) => {
            enc.u8(1);
            enc.usize(states.len());
            for s in states {
                enc.str(&s.sql);
                enc_f64_vec(enc, &s.costs);
                enc.usize(s.evaluations.len());
                for (point, value) in &s.evaluations {
                    enc_f64_vec(enc, point);
                    enc.f64(*value);
                }
                enc.f64(s.consumed);
            }
        }
    }
}

fn dec_pool(dec: &mut Dec) -> Result<TemplatePool, SnapshotError> {
    Ok(match dec.u8()? {
        0 => TemplatePool::Seeds(dec_str_vec(dec)?),
        1 => {
            let n = dec.len(8)?;
            let mut states = Vec::with_capacity(n);
            for _ in 0..n {
                let sql = dec.str()?;
                let costs = dec_f64_vec(dec)?;
                let m = dec.len(16)?;
                let mut evaluations = Vec::with_capacity(m);
                for _ in 0..m {
                    let point = dec_f64_vec(dec)?;
                    evaluations.push((point, dec.f64()?));
                }
                states.push(ProfiledState { sql, costs, evaluations, consumed: dec.f64()? });
            }
            TemplatePool::Profiled(states)
        }
        other => return Err(SnapshotError::Malformed(format!("pool tag {other}"))),
    })
}

fn enc_acc(enc: &mut Enc, acc: &ReportAcc) {
    enc_u64_vec(enc, &acc.spec_correct);
    enc_u64_vec(enc, &acc.syntax_correct);
    enc.u64(acc.rewrite_total);
    enc.f64(acc.alignment_accuracy);
    enc.u64(acc.n_seed_templates);
    enc.u64(acc.n_refined_templates);
    for &v in &acc.degradation {
        enc.u64(v);
    }
}

fn dec_acc(dec: &mut Dec) -> Result<ReportAcc, SnapshotError> {
    Ok(ReportAcc {
        spec_correct: dec_u64_vec(dec)?,
        syntax_correct: dec_u64_vec(dec)?,
        rewrite_total: dec.u64()?,
        alignment_accuracy: dec.f64()?,
        n_seed_templates: dec.u64()?,
        n_refined_templates: dec.u64()?,
        degradation: [dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?],
    })
}

fn enc_oracle(enc: &mut Enc, oracle: &OracleState) {
    enc_str_vec(enc, &oracle.interner);
    enc_str_vec(enc, &oracle.templates);
    enc.usize(oracle.shards.len());
    for shard in &oracle.shards {
        enc.u64(shard.capacity);
        enc.u64(shard.evicted);
        enc.usize(shard.entries.len());
        for entry in &shard.entries {
            enc.u64(entry.template_id);
            enc_cost_type(enc, entry.cost_type);
            enc.usize(entry.key.len());
            for slot in &entry.key {
                enc_value_key(enc, slot);
            }
            enc_cost_result(enc, &entry.value);
            enc.bool(entry.referenced);
        }
    }
    let c = &oracle.counters;
    for v in [
        c.logical,
        c.unmemoized,
        c.scheduler_rounds,
        c.scheduler_tasks,
        c.scheduler_peak_tasks,
        c.scheduler_overadmissions,
    ] {
        enc.u64(v);
    }
}

fn dec_oracle(dec: &mut Dec) -> Result<OracleState, SnapshotError> {
    let interner = dec_str_vec(dec)?;
    let templates = dec_str_vec(dec)?;
    let n = dec.len(16)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        let capacity = dec.u64()?;
        let evicted = dec.u64()?;
        let m = dec.len(8)?;
        let mut entries = Vec::with_capacity(m);
        for _ in 0..m {
            let template_id = dec.u64()?;
            let cost_type = dec_cost_type(dec)?;
            let k = dec.len(1)?;
            let mut key = Vec::with_capacity(k);
            for _ in 0..k {
                key.push(dec_value_key(dec)?);
            }
            let value = dec_cost_result(dec)?;
            entries.push(PreparedEntry {
                template_id,
                cost_type,
                key,
                value,
                referenced: dec.bool()?,
            });
        }
        shards.push(ShardState { capacity, evicted, entries });
    }
    let counters = OracleCounters {
        logical: dec.u64()?,
        unmemoized: dec.u64()?,
        scheduler_rounds: dec.u64()?,
        scheduler_tasks: dec.u64()?,
        scheduler_peak_tasks: dec.u64()?,
        scheduler_overadmissions: dec.u64()?,
    };
    Ok(OracleState { interner, templates, shards, counters })
}

impl Snapshot {
    /// Serialize to the framed, CRC-guarded wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u64(self.fingerprint);
        enc_rng(&mut enc, &self.rng);
        enc_model(&mut enc, &self.llm);
        enc_acc(&mut enc, &self.acc);
        enc_pool(&mut enc, &self.pool);
        match &self.oracle {
            None => enc.u8(0),
            Some(state) => {
                enc.u8(1);
                enc_oracle(&mut enc, state);
            }
        }
        enc_phase(&mut enc, &self.phase);

        let payload = enc.buf;
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserialize, verifying magic, version, framing, and checksum.
    /// Total over arbitrary input: every failure is a typed
    /// [`SnapshotError`].
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let payload_len =
            usize::try_from(payload_len).map_err(|_| SnapshotError::Truncated)?;
        let expected = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
        let rest = &bytes[HEADER_LEN..];
        if rest.len() != payload_len {
            return Err(SnapshotError::Truncated);
        }
        let actual = crc32(rest);
        if actual != expected {
            return Err(SnapshotError::Crc { expected, actual });
        }

        let mut dec = Dec::new(rest);
        let fingerprint = dec.u64()?;
        let rng = dec_rng(&mut dec)?;
        let llm = dec_model(&mut dec, 0)?;
        let acc = dec_acc(&mut dec)?;
        let pool = dec_pool(&mut dec)?;
        let oracle = match dec.u8()? {
            0 => None,
            1 => Some(dec_oracle(&mut dec)?),
            other => {
                return Err(SnapshotError::Malformed(format!("oracle tag {other}")))
            }
        };
        let phase = dec_phase(&mut dec)?;
        if dec.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes",
                dec.remaining()
            )));
        }
        Ok(Snapshot { fingerprint, rng, llm, acc, pool, oracle, phase })
    }
}

// ---------------------------------------------------------------------------
// On-disk checkpoint storage
// ---------------------------------------------------------------------------

/// A checkpoint directory holding numbered snapshot generations.
#[derive(Debug)]
pub struct CheckpointDir {
    dir: PathBuf,
    next_generation: u64,
}

fn generation_of(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?.strip_suffix(".bin")?.parse().ok()
}

fn generation_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:06}.bin"))
}

/// Existing snapshot generations in `dir`, ascending.
fn scan_generations(dir: &Path) -> Result<Vec<u64>, SnapshotError> {
    let entries = fs::read_dir(dir)
        .map_err(|e| SnapshotError::Io(format!("{}: {e}", dir.display())))?;
    let mut generations: Vec<u64> = entries
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| generation_of(&entry.file_name().to_string_lossy()))
        .collect();
    // Directory iteration order is platform-defined; sorting restores a
    // canonical view.
    generations.sort_unstable();
    Ok(generations)
}

impl CheckpointDir {
    /// Open (creating if needed) a checkpoint directory. The directory's
    /// parent must already exist — a typo'd path fails here with an
    /// actionable message instead of surfacing later as a failed write.
    pub fn open(dir: &Path) -> Result<CheckpointDir, SnapshotError> {
        if !dir.is_dir() {
            fs::create_dir(dir).map_err(|e| {
                SnapshotError::Io(format!(
                    "cannot create checkpoint directory {}: {e} \
                     (create its parent directory first)",
                    dir.display()
                ))
            })?;
        }
        let next_generation =
            scan_generations(dir)?.last().map(|&g| g + 1).unwrap_or(0);
        Ok(CheckpointDir { dir: dir.to_path_buf(), next_generation })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Write `snapshot` as the next generation: temp file, `fsync`,
    /// atomic rename, best-effort directory fsync, then prune all but
    /// the last [`KEEP_GENERATIONS`] generations. A crash at any point
    /// leaves either the previous or the new generation intact — never a
    /// half-written file under a final name.
    pub fn store(&mut self, snapshot: &Snapshot) -> Result<PathBuf, SnapshotError> {
        let bytes = snapshot.encode();
        let generation = self.next_generation;
        let final_path = generation_path(&self.dir, generation);
        let tmp_path = self.dir.join(format!(".snapshot-{generation:06}.bin.tmp"));

        let io_err = |path: &Path, e: std::io::Error| {
            SnapshotError::Io(format!("{}: {e}", path.display()))
        };
        let mut file = fs::File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
        file.write_all(&bytes).map_err(|e| io_err(&tmp_path, e))?;
        file.sync_all().map_err(|e| io_err(&tmp_path, e))?;
        drop(file);
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, e))?;
        // Make the rename itself durable; failure here only weakens
        // durability of the *newest* generation, so it is not fatal.
        if let Ok(dir_handle) = fs::File::open(&self.dir) {
            let _ = dir_handle.sync_all();
        }
        self.next_generation = generation + 1;

        for old in scan_generations(&self.dir)? {
            if old + KEEP_GENERATIONS <= generation {
                let _ = fs::remove_file(generation_path(&self.dir, old));
            }
        }
        Ok(final_path)
    }

    /// Load the newest decodable snapshot, falling back past corrupt
    /// generations (each rejection is logged to stderr). Errors with
    /// [`SnapshotError::NoSnapshot`] when the directory holds none, or
    /// with the newest failure when every generation is corrupt.
    pub fn load_latest(dir: &Path) -> Result<Snapshot, SnapshotError> {
        let generations = scan_generations(dir)?;
        if generations.is_empty() {
            return Err(SnapshotError::NoSnapshot);
        }
        let mut first_error: Option<SnapshotError> = None;
        for &generation in generations.iter().rev() {
            let path = generation_path(dir, generation);
            let attempt = fs::read(&path)
                .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
                .and_then(|bytes| Snapshot::decode(&bytes));
            match attempt {
                Ok(snapshot) => return Ok(snapshot),
                Err(err) => {
                    eprintln!(
                        "sqlbarber: snapshot {} unusable ({err}); \
                         falling back to the previous generation",
                        path.display()
                    );
                    first_error.get_or_insert(err);
                }
            }
        }
        Err(first_error.expect("at least one generation was tried"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> ModelState {
        ModelState::Resilient {
            layer: ResilientState {
                rng: [1, 2, 3, 4],
                now_ms: 12_345,
                breaker: BreakerSnapshot::Open { until_ms: 20_000 },
                retries_left: 7,
                stats: ResilienceStats { calls: 40, retries: 3, ..Default::default() },
            },
            inner: Box::new(ModelState::Transport {
                layer: TransportState {
                    rng: [5, 6, 7, 8],
                    remaining_burst: 2,
                    injected: InjectedFaults { timeouts: 4, bursts: 1, ..Default::default() },
                    wasted: TokenUsage { input_tokens: 900, output_tokens: 0, requests: 4 },
                },
                inner: Box::new(ModelState::Synthetic(SyntheticState {
                    rng: [9, 10, 11, 12],
                    usage: TokenUsage {
                        input_tokens: 10_000,
                        output_tokens: 2_000,
                        requests: 36,
                    },
                    attempts: vec![(1, 2), (3, 1)],
                })),
            }),
        }
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            rng: [11, 22, 33, u64::MAX],
            llm: sample_model(),
            acc: ReportAcc {
                spec_correct: vec![2, 5, 8],
                syntax_correct: vec![8, 20, 24],
                rewrite_total: 24,
                alignment_accuracy: 1.0,
                n_seed_templates: 24,
                n_refined_templates: 6,
                degradation: [1, 0, 2, 0],
            },
            pool: TemplatePool::Profiled(vec![ProfiledState {
                sql: "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}"
                    .into(),
                costs: vec![10.0, f64::NAN, -0.0],
                evaluations: vec![(vec![0.25, 0.75], 10.0), (vec![], 3.5)],
                consumed: 17.0,
            }]),
            oracle: Some(OracleState {
                interner: vec!["BRAZIL".into(), "ASIA".into()],
                templates: vec!["SELECT 1".into()],
                shards: vec![ShardState {
                    capacity: 4,
                    evicted: 1,
                    entries: vec![
                        PreparedEntry {
                            template_id: 0,
                            cost_type: CostType::Cardinality,
                            key: vec![None],
                            value: Err(DbError::UnknownTable("foo".into())),
                            referenced: true,
                        },
                        PreparedEntry {
                            template_id: 0,
                            cost_type: CostType::PlanCost,
                            key: vec![
                                Some(ValueKeySnap::Int(-5)),
                                Some(ValueKeySnap::Float(f64::NAN.to_bits())),
                                Some(ValueKeySnap::Str(1)),
                                Some(ValueKeySnap::Bool(true)),
                                Some(ValueKeySnap::Null),
                                None,
                            ],
                            value: Ok(42.5),
                            referenced: false,
                        },
                    ],
                }],
                counters: OracleCounters {
                    logical: 1000,
                    unmemoized: 100,
                    scheduler_rounds: 12,
                    ..Default::default()
                },
            }),
            phase: PhaseState::MidSearch {
                round: 2,
                sched: SchedState {
                    search_seed: 777,
                    next_round: 5,
                    bad: vec![(0, 3), (4, 1)],
                    skip: vec![4],
                    failures: vec![(0, 2), (4, 5)],
                    evaluations: 512,
                    d: vec![3.0, 0.0, 7.0],
                    queries: vec![("SELECT 1".into(), 9.0)],
                },
            },
        }
    }

    #[test]
    fn round_trips_bit_for_bit() {
        let snapshot = sample_snapshot();
        let bytes = snapshot.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        // NaN costs make PartialEq of the structs unusable for the full
        // check; byte equality of re-encodings is the stronger statement.
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.fingerprint, snapshot.fingerprint);
        assert_eq!(back.phase.name(), "mid-search");
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample_snapshot().encode();
        for len in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::Crc { .. }
                        | SnapshotError::Malformed(_)
                ),
                "prefix of {len} bytes: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_snapshot().encode();
        // Flipping any payload bit must trip the CRC; flipping header
        // bits trips magic/version/framing checks instead.
        for byte in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 0x10;
            assert!(
                Snapshot::decode(&corrupt).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn version_and_magic_are_checked() {
        let mut bytes = sample_snapshot().encode();
        bytes[5] = 9;
        assert!(matches!(Snapshot::decode(&bytes), Err(SnapshotError::BadVersion(_))));
        bytes[0] = b'X';
        assert!(matches!(Snapshot::decode(&bytes), Err(SnapshotError::BadMagic)));
        assert!(matches!(Snapshot::decode(b""), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn version_1_snapshots_are_refused_with_a_typed_error() {
        // Version 1 carried a rendered-text memo family this build no
        // longer has. A v1 frame with an intact checksum must still be
        // refused by version, before any payload is interpreted.
        let mut bytes = sample_snapshot().encode();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(Snapshot::decode(&bytes), Err(SnapshotError::BadVersion(1)));
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A payload claiming a 2^60-element vector must fail the length
        // check, not attempt the allocation.
        let mut enc = Enc::new();
        enc.u64(1); // fingerprint
        enc_rng(&mut enc, &[0, 0, 0, 1]);
        enc.u8(0); // synthetic model
        enc_rng(&mut enc, &[0, 0, 0, 1]);
        enc_usage(&mut enc, &TokenUsage::default());
        enc.u64(1 << 60); // hostile attempts length
        let payload = enc.buf;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(Snapshot::decode(&bytes), Err(SnapshotError::Truncated));
    }

    #[test]
    fn store_load_and_corruption_fallback() {
        let dir = std::env::temp_dir().join(format!(
            "sqlbarber-snap-test-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut ckpt = CheckpointDir::open(&dir).unwrap();
        assert!(matches!(
            CheckpointDir::load_latest(&dir),
            Err(SnapshotError::NoSnapshot)
        ));

        let mut first = sample_snapshot();
        first.fingerprint = 1;
        let mut second = sample_snapshot();
        second.fingerprint = 2;
        let mut third = sample_snapshot();
        third.fingerprint = 3;
        ckpt.store(&first).unwrap();
        ckpt.store(&second).unwrap();
        let third_path = ckpt.store(&third).unwrap();

        // Pruning keeps the last two generations only.
        assert_eq!(scan_generations(&dir).unwrap(), vec![1, 2]);
        assert_eq!(CheckpointDir::load_latest(&dir).unwrap().fingerprint, 3);

        // Bit-flip the newest generation: load falls back to the second.
        let mut bytes = fs::read(&third_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&third_path, &bytes).unwrap();
        assert_eq!(CheckpointDir::load_latest(&dir).unwrap().fingerprint, 2);

        // Truncate it instead: same fallback.
        fs::write(&third_path, &bytes[..10]).unwrap();
        assert_eq!(CheckpointDir::load_latest(&dir).unwrap().fingerprint, 2);

        // Corrupt both: typed error, no panic.
        fs::write(generation_path(&dir, 1), b"garbage").unwrap();
        assert!(CheckpointDir::load_latest(&dir).is_err());

        // Reopening continues the generation numbering.
        let reopened = CheckpointDir::open(&dir).unwrap();
        assert_eq!(reopened.next_generation, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_requires_an_existing_parent() {
        let missing = std::env::temp_dir()
            .join(format!("sqlbarber-no-such-parent-{}", std::process::id()))
            .join("checkpoints");
        let err = CheckpointDir::open(&missing).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("cannot create checkpoint directory")
                && text.contains("parent"),
            "unhelpful error: {text}"
        );
    }

    #[test]
    fn crc32_matches_the_ieee_reference() {
        // Reference vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
