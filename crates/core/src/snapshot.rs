//! Crash-safe pipeline snapshots: a versioned, CRC-guarded binary codec
//! plus atomic on-disk checkpoint storage with generation fallback.
//!
//! A [`Snapshot`] captures everything a resumed run needs to continue
//! **bit-identically**: the driver RNG's xoshiro256++ state words, the
//! whole LLM stack's [`ModelState`], the report accumulators written so
//! far, the template pool (seed SQL before profiling, full
//! [`ProfiledState`]s after), the cost oracle's memo/interner/registry
//! contents and counters, and a [`PhaseState`] marker saying exactly
//! where in the pipeline the snapshot was taken. A mid-search snapshot
//! holds the deficit scheduler's [`SchedState`] itself: the type the
//! scheduler loops on is the type the snapshot stores.
//!
//! ## File format
//!
//! ```text
//! magic "SQBS" | version u32 | payload_len u64 | crc32(payload) u32 | payload
//! ```
//!
//! All integers little-endian; floats stored as IEEE-754 bit patterns so
//! NaN payloads and signed zeros round-trip exactly. The payload is
//! written by one `Codec` trait: impls for the primitives, generic impls
//! for lists, options, results, pairs, word arrays, sets and maps, and
//! the `struct_codec!`/`enum_codec!` macros, which list each type's
//! fields or tagged variants in wire order. The codec is total:
//! [`Snapshot::decode`] returns a typed [`SnapshotError`] on any input —
//! truncated, bit-flipped, or adversarial — and never panics or
//! overallocates (every list length is checked against the remaining
//! input, times its element type's minimum width, before allocation).
//!
//! Decoding checks structure only; whether a snapshot's histograms fit
//! the run's target is checked once at resume
//! ([`crate::driver::SqlBarber::resume_from`]).
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

use crate::bo_search::{GeneratedQuery, SearchState};
use crate::cost::CostType;
pub use crate::scheduler::SchedState;
use llm::{BreakerSnapshot, ModelState, ResilientState, SyntheticState, TransportState};
use llm::{InjectedFaults, ResilienceStats, TokenUsage};
use minidb::DbError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Snapshot file magic.
pub const MAGIC: [u8; 4] = *b"SQBS";
/// Codec version; bumped on any layout change.
pub const VERSION: u32 = 3;
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
}

/// The oracle's atomic counters (raw, pre-derivation — `stats()` derives
/// physical/hit counts from these plus the number of memo entries).
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
/// restoring it reproduces every future memo hit and derived counter
/// exactly. It records the memo's content only, never its layout, so it
/// is the same at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleState {
    /// String-intern table; index = interned id.
    pub interner: Vec<String>,
    /// Prepared-template registry; index = template id, value = SQL
    /// (plans are rebuilt by re-preparing on resume).
    pub templates: Vec<String>,
    /// Every memo entry, sorted by template id, cost type and key.
    pub entries: Vec<PreparedEntry>,
    /// Raw atomic counters.
    pub counters: OracleCounters,
}

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn tag(&mut self, tag: u8) {
        self.buf.push(tag);
    }

    /// A length prefix, as a `u64`.
    fn len(&mut self, len: usize) {
        (len as u64).encode(self);
    }
}

struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
    /// Model-stack nesting of the value being decoded.
    model_depth: usize,
}

impl<'a> Dec<'a> {
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    fn tag(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// A length prefix, validated against the remaining input: a list of
    /// `len` elements each at least `elem_min` bytes wide cannot be
    /// longer than what is left, so hostile lengths fail before any
    /// allocation happens.
    fn len(&mut self, elem_min: usize) -> Result<usize, SnapshotError> {
        let len = usize::try_from(u64::decode(self)?).map_err(|_| SnapshotError::Truncated)?;
        if len.checked_mul(elem_min.max(1)).is_none_or(|need| need > self.remaining()) {
            return Err(SnapshotError::Truncated);
        }
        Ok(len)
    }
}

fn malformed<T>(what: &str, tag: u8) -> Result<T, SnapshotError> {
    Err(SnapshotError::Malformed(format!("{what} tag {tag}")))
}

/// A value with a wire form: `encode` appends it, `decode` reads it back
/// and returns a typed error on any malformed input.
trait Codec: Sized {
    /// A lower bound on the encoded width in bytes; lists of this type
    /// use it to reject hostile lengths before allocating.
    const MIN_WIDTH: usize = 1;
    /// The encoding always starts with a nonzero tag byte, so an
    /// `Option` of this type writes `None` as a 0 byte and `Some` as the
    /// value itself.
    const NONZERO_TAG: bool = false;

    fn encode(&self, enc: &mut Enc);
    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError>;
}

macro_rules! int_codec {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            const MIN_WIDTH: usize = std::mem::size_of::<$ty>();

            fn encode(&self, enc: &mut Enc) {
                enc.bytes(&self.to_le_bytes());
            }

            fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
                Ok(<$ty>::from_le_bytes(dec.array()?))
            }
        }
    )*};
}

int_codec!(u8, u32, u64, i64);

impl Codec for f64 {
    const MIN_WIDTH: usize = 8;

    /// The IEEE-754 bit pattern, so NaN payloads and signed zeros
    /// round-trip exactly.
    fn encode(&self, enc: &mut Enc) {
        self.to_bits().encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(u64::decode(dec)?))
    }
}

impl Codec for usize {
    const MIN_WIDTH: usize = 8;

    fn encode(&self, enc: &mut Enc) {
        (*self as u64).encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        let v = u64::decode(dec)?;
        usize::try_from(v).map_err(|_| SnapshotError::Malformed(format!("index {v}")))
    }
}

impl Codec for bool {
    fn encode(&self, enc: &mut Enc) {
        enc.tag(u8::from(*self));
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        match dec.tag()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!("bool byte {other}"))),
        }
    }
}

impl Codec for String {
    const MIN_WIDTH: usize = 8;

    fn encode(&self, enc: &mut Enc) {
        enc.len(self.len());
        enc.bytes(self.as_bytes());
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        let len = dec.len(1)?;
        String::from_utf8(dec.take(len)?.to_vec())
            .map_err(|_| SnapshotError::Malformed("non-UTF-8 string".into()))
    }
}

impl<const N: usize> Codec for [u64; N] {
    const MIN_WIDTH: usize = 8 * N;

    fn encode(&self, enc: &mut Enc) {
        for word in self {
            word.encode(enc);
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        let mut words = [0; N];
        for word in &mut words {
            *word = u64::decode(dec)?;
        }
        Ok(words)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_WIDTH: usize = A::MIN_WIDTH + B::MIN_WIDTH;

    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

/// A length-prefixed list.
impl<T: Codec> Codec for Vec<T> {
    const MIN_WIDTH: usize = 8;

    fn encode(&self, enc: &mut Enc) {
        enc.len(self.len());
        for item in self {
            item.encode(enc);
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        let len = dec.len(T::MIN_WIDTH)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(dec)?);
        }
        Ok(items)
    }
}

/// A list in ascending order; a non-canonical list (unsorted or with
/// duplicates) collects into the set it names.
impl<T: Codec + Ord> Codec for BTreeSet<T> {
    const MIN_WIDTH: usize = 8;

    fn encode(&self, enc: &mut Enc) {
        enc.len(self.len());
        for item in self {
            item.encode(enc);
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        Ok(Vec::<T>::decode(dec)?.into_iter().collect())
    }
}

/// A list of `(key, value)` pairs in key order; on a repeated key the
/// last pair wins.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    const MIN_WIDTH: usize = 8;

    fn encode(&self, enc: &mut Enc) {
        enc.len(self.len());
        for (key, value) in self {
            key.encode(enc);
            value.encode(enc);
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        Ok(Vec::<(K, V)>::decode(dec)?.into_iter().collect())
    }
}

/// Tag 0 for `None`; `Some` is tag 1 and the value, or just the value
/// when its own tag is never 0.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, enc: &mut Enc) {
        match self {
            None => enc.tag(0),
            Some(value) => {
                if !T::NONZERO_TAG {
                    enc.tag(1);
                }
                value.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        if T::NONZERO_TAG {
            if dec.data.get(dec.pos) == Some(&0) {
                dec.pos += 1;
                return Ok(None);
            }
            return Ok(Some(T::decode(dec)?));
        }
        match dec.tag()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            other => malformed("option", other),
        }
    }
}

/// Tag 0 and the value, or tag 1 and the error.
impl<T: Codec, E: Codec> Codec for Result<T, E> {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Ok(value) => {
                enc.tag(0);
                value.encode(enc);
            }
            Err(error) => {
                enc.tag(1);
                error.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        match dec.tag()? {
            0 => Ok(Ok(T::decode(dec)?)),
            1 => Ok(Err(E::decode(dec)?)),
            other => malformed("result", other),
        }
    }
}

/// A struct encoded as its fields in the listed order. Decoding builds
/// the struct literal, so a field missing from the list fails to compile.
macro_rules! struct_codec {
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl Codec for $ty {
            const MIN_WIDTH: usize = 0 $(+ <$fty as Codec>::MIN_WIDTH)*;

            fn encode(&self, enc: &mut Enc) {
                $(self.$field.encode(enc);)*
            }

            fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
                Ok($ty { $($field: <$fty as Codec>::decode(dec)?,)* })
            }
        }
    };
}

struct_codec!(TokenUsage { input_tokens: u64, output_tokens: u64, requests: u64 });
struct_codec!(SyntheticState { rng: [u64; 4], usage: TokenUsage, attempts: Vec<(u32, u32)> });
struct_codec!(InjectedFaults {
    timeouts: u64,
    rate_limits: u64,
    truncations: u64,
    server_errors: u64,
    burst_failures: u64,
    bursts: u64,
});
struct_codec!(TransportState {
    rng: [u64; 4],
    remaining_burst: u32,
    injected: InjectedFaults,
    wasted: TokenUsage,
});
struct_codec!(ResilienceStats {
    calls: u64,
    attempts: u64,
    failures: u64,
    retries: u64,
    recoveries: u64,
    giveups: u64,
    backoff_ms: u64,
    breaker_trips: u64,
    breaker_probes: u64,
    circuit_rejections: u64,
    budget_exhausted: u64,
});
struct_codec!(ResilientState {
    rng: [u64; 4],
    now_ms: u64,
    breaker: BreakerSnapshot,
    retries_left: u64,
    stats: ResilienceStats,
});
struct_codec!(ReportAcc {
    spec_correct: Vec<u64>,
    syntax_correct: Vec<u64>,
    rewrite_total: u64,
    alignment_accuracy: f64,
    n_seed_templates: u64,
    n_refined_templates: u64,
    degradation: [u64; 4],
});
struct_codec!(ProfiledState {
    sql: String,
    costs: Vec<f64>,
    evaluations: Vec<(Vec<f64>, f64)>,
    consumed: f64,
});
struct_codec!(GeneratedQuery { sql: String, cost: f64 });
struct_codec!(SchedState {
    search_seed: u64,
    next_round: u64,
    bad: BTreeSet<(usize, usize)>,
    skip: BTreeSet<usize>,
    failures: BTreeMap<usize, u32>,
    evaluations: usize,
    accepted: SearchState,
});
struct_codec!(StoredResult {
    queries: Vec<(String, f64)>,
    distribution: Vec<f64>,
    skipped: Vec<u64>,
    evaluations: u64,
});
struct_codec!(PreparedEntry {
    template_id: u64,
    cost_type: CostType,
    key: Vec<Option<ValueKeySnap>>,
    value: Result<f64, DbError>,
});
struct_codec!(OracleCounters {
    logical: u64,
    unmemoized: u64,
    scheduler_rounds: u64,
    scheduler_tasks: u64,
    scheduler_peak_tasks: u64,
    scheduler_overadmissions: u64,
});
struct_codec!(OracleState {
    interner: Vec<String>,
    templates: Vec<String>,
    entries: Vec<PreparedEntry>,
    counters: OracleCounters,
});
struct_codec!(Snapshot {
    fingerprint: u64,
    rng: [u64; 4],
    llm: ModelState,
    acc: ReportAcc,
    pool: TemplatePool,
    oracle: Option<OracleState>,
    phase: PhaseState,
});

/// `d` then the accepted queries; the seen-set is rebuilt from them.
impl Codec for SearchState {
    const MIN_WIDTH: usize = 16;

    fn encode(&self, enc: &mut Enc) {
        self.d.encode(enc);
        self.queries.encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        let d = Vec::decode(dec)?;
        Ok(SearchState::new(d, Vec::decode(dec)?))
    }
}

/// An inner model layer, one level deeper: the nesting bound keeps
/// hostile input from recursing the stack.
impl Codec for Box<ModelState> {
    fn encode(&self, enc: &mut Enc) {
        (**self).encode(enc);
    }

    fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
        dec.model_depth += 1;
        if dec.model_depth > MAX_MODEL_DEPTH {
            return Err(SnapshotError::Malformed("model stack too deep".into()));
        }
        let inner = ModelState::decode(dec).map(Box::new);
        dec.model_depth -= 1;
        inner
    }
}

/// An enum encoded as a tag byte and then the variant's fields in the
/// listed order. A one-field tuple variant names its field for the
/// macro (`Seeds(seeds: Vec<String>)`); `$what` names the tag in errors.
macro_rules! enum_codec {
    ($what:literal, $ty:ident {
        $($tag:literal => $variant:ident
            $(($bind:ident: $inner:ty))?
            $({ $($field:ident: $fty:ty),* })?),* $(,)?
    }) => {
        impl Codec for $ty {
            const NONZERO_TAG: bool = true $(&& $tag != 0)*;

            fn encode(&self, enc: &mut Enc) {
                match self {
                    $($ty::$variant $(($bind))? $({ $($field),* })? => {
                        enc.tag($tag);
                        $($bind.encode(enc);)?
                        $($($field.encode(enc);)*)?
                    })*
                }
            }

            fn decode(dec: &mut Dec) -> Result<Self, SnapshotError> {
                Ok(match dec.tag()? {
                    $($tag => $ty::$variant
                        $((<$inner as Codec>::decode(dec)?))?
                        $({ $($field: <$fty as Codec>::decode(dec)?),* })?,)*
                    other => return malformed($what, other),
                })
            }
        }
    };
}

enum_codec!("model", ModelState {
    0 => Synthetic(state: SyntheticState),
    1 => Transport { layer: TransportState, inner: Box<ModelState> },
    2 => Resilient { layer: ResilientState, inner: Box<ModelState> },
});
enum_codec!("breaker", BreakerSnapshot {
    0 => Closed { consecutive_failures: u32 },
    1 => Open { until_ms: u64 },
    2 => HalfOpen,
});
enum_codec!("cost-type", CostType {
    0 => Cardinality,
    1 => PlanCost,
    2 => ActualCardinality,
    3 => ExecutionTimeMicros,
});
enum_codec!("db-error", DbError {
    0 => UnknownTable(text: String),
    1 => UnknownColumn(text: String),
    2 => AmbiguousColumn(text: String),
    3 => DuplicateBinding(text: String),
    4 => TypeMismatch(text: String),
    5 => UnboundPlaceholder(id: u32),
    6 => Unsupported(text: String),
    7 => Grouping(text: String),
    8 => Arithmetic(text: String),
});
// Tags 1–5: an unbound key slot (`None`) is the 0 byte.
enum_codec!("value-key", ValueKeySnap {
    1 => Int(v: i64),
    2 => Float(bits: u64),
    3 => Str(id: u32),
    4 => Bool(b: bool),
    5 => Null,
});
enum_codec!("phase", PhaseState {
    0 => AfterTemplates,
    1 => AfterProfiling,
    2 => AfterRefine { round: u64 },
    3 => MidSearch { round: u64, sched: SchedState },
    4 => AfterSearch { round: u64, result: StoredResult },
});
enum_codec!("pool", TemplatePool {
    0 => Seeds(seeds: Vec<String>),
    1 => Profiled(states: Vec<ProfiledState>),
});

impl Snapshot {
    /// Serialize to the framed, CRC-guarded wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Enc { buf: Vec::new() };
        Codec::encode(self, &mut enc);
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
        let payload_len = usize::try_from(payload_len).map_err(|_| SnapshotError::Truncated)?;
        let expected = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
        let rest = &bytes[HEADER_LEN..];
        if rest.len() != payload_len {
            return Err(SnapshotError::Truncated);
        }
        let actual = crc32(rest);
        if actual != expected {
            return Err(SnapshotError::Crc { expected, actual });
        }

        let mut dec = Dec { data: rest, pos: 0, model_depth: 0 };
        let snapshot = <Snapshot as Codec>::decode(&mut dec)?;
        if dec.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!("{} trailing bytes", dec.remaining())));
        }
        Ok(snapshot)
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
    let entries =
        fs::read_dir(dir).map_err(|e| SnapshotError::Io(format!("{}: {e}", dir.display())))?;
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
        let next_generation = scan_generations(dir)?.last().map(|&g| g + 1).unwrap_or(0);
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

        let io_err =
            |path: &Path, e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
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
                    crate::errln!(
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
                    usage: TokenUsage { input_tokens: 10_000, output_tokens: 2_000, requests: 36 },
                    attempts: vec![(1, 2), (3, 1)],
                })),
            }),
        }
    }

    fn queries(items: &[(&str, f64)]) -> Vec<GeneratedQuery> {
        items.iter().map(|&(sql, cost)| GeneratedQuery { sql: sql.into(), cost }).collect()
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
                sql: "SELECT l.l_orderkey FROM lineitem AS l WHERE l.l_quantity > {p_1}".into(),
                costs: vec![10.0, f64::NAN, -0.0],
                evaluations: vec![(vec![0.25, 0.75], 10.0), (vec![], 3.5)],
                consumed: 17.0,
            }]),
            oracle: Some(OracleState {
                interner: vec!["BRAZIL".into(), "ASIA".into()],
                templates: vec!["SELECT 1".into()],
                entries: vec![
                    PreparedEntry {
                        template_id: 0,
                        cost_type: CostType::Cardinality,
                        key: vec![None],
                        value: Err(DbError::UnknownTable("foo".into())),
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
                    },
                ],
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
                    bad: BTreeSet::from([(0, 3), (4, 1)]),
                    skip: BTreeSet::from([4]),
                    failures: BTreeMap::from([(0, 2), (4, 5)]),
                    evaluations: 512,
                    accepted: SearchState::new(vec![3.0, 0.0, 7.0], queries(&[("SELECT 1", 9.0)])),
                },
            },
        }
    }

    fn model_with(breaker: BreakerSnapshot) -> ModelState {
        let ModelState::Resilient { mut layer, inner } = sample_model() else {
            unreachable!("sample_model is a resilient stack")
        };
        layer.breaker = breaker;
        ModelState::Resilient { layer, inner }
    }

    /// An oracle state holding every `DbError` tag, every `ValueKeySnap`
    /// tag (and the unbound slot), every cost type and both result arms.
    fn tag_cover_oracle() -> OracleState {
        let errors = [
            DbError::UnknownTable("t".into()),
            DbError::UnknownColumn("c".into()),
            DbError::AmbiguousColumn("a".into()),
            DbError::DuplicateBinding("b".into()),
            DbError::TypeMismatch("m".into()),
            DbError::UnboundPlaceholder(7),
            DbError::Unsupported("u".into()),
            DbError::Grouping("g".into()),
            DbError::Arithmetic("x".into()),
        ];
        let cost_types = [
            CostType::Cardinality,
            CostType::PlanCost,
            CostType::ActualCardinality,
            CostType::ExecutionTimeMicros,
        ];
        let key = vec![
            None,
            Some(ValueKeySnap::Int(-3)),
            Some(ValueKeySnap::Float(2.5f64.to_bits())),
            Some(ValueKeySnap::Str(0)),
            Some(ValueKeySnap::Bool(false)),
            Some(ValueKeySnap::Null),
        ];
        let mut entries: Vec<PreparedEntry> = errors
            .into_iter()
            .enumerate()
            .map(|(i, e)| PreparedEntry {
                template_id: i as u64,
                cost_type: cost_types[i % 4],
                key: key.clone(),
                value: Err(e),
            })
            .collect();
        entries.push(PreparedEntry {
            template_id: 1,
            cost_type: CostType::ExecutionTimeMicros,
            key: vec![Some(ValueKeySnap::Int(i64::MIN))],
            value: Ok(-0.0),
        });
        OracleState {
            interner: vec!["BRAZIL".into()],
            templates: vec!["SELECT 1".into(), "SELECT {p_1}".into()],
            entries,
            counters: OracleCounters {
                logical: 1,
                unmemoized: 2,
                scheduler_rounds: 3,
                scheduler_tasks: 4,
                scheduler_peak_tasks: 5,
                scheduler_overadmissions: 6,
            },
        }
    }

    /// Five snapshots that between them use every tag of the `v3` format:
    /// the five phases, both pools, the three model layers, the three
    /// breaker states, an absent and a present oracle.
    fn tag_cover() -> Vec<Snapshot> {
        let base = sample_snapshot();
        let with = |phase: PhaseState, breaker: BreakerSnapshot| Snapshot {
            llm: model_with(breaker),
            oracle: Some(tag_cover_oracle()),
            phase,
            ..base.clone()
        };
        vec![
            Snapshot {
                pool: TemplatePool::Seeds(vec!["SELECT 1".into(), "SELECT {p_1}".into()]),
                oracle: None,
                ..with(
                    PhaseState::AfterTemplates,
                    BreakerSnapshot::Closed { consecutive_failures: 3 },
                )
            },
            with(PhaseState::AfterProfiling, BreakerSnapshot::Open { until_ms: 99 }),
            with(PhaseState::AfterRefine { round: 1 }, BreakerSnapshot::HalfOpen),
            with(
                PhaseState::MidSearch {
                    round: 2,
                    sched: SchedState {
                        search_seed: 0x5eed,
                        next_round: 9,
                        bad: BTreeSet::from([(0, 3), (4, 1)]),
                        skip: BTreeSet::from([1, 4]),
                        failures: BTreeMap::from([(0, 2), (4, 5)]),
                        evaluations: 640,
                        accepted: SearchState::new(
                            vec![3.0, 0.0, 7.0, f64::NAN, -0.0],
                            queries(&[("SELECT 1", 9.0), ("SELECT 2", 15.5)]),
                        ),
                    },
                },
                BreakerSnapshot::Closed { consecutive_failures: 0 },
            ),
            with(
                PhaseState::AfterSearch {
                    round: 3,
                    result: StoredResult {
                        queries: vec![("SELECT 3".into(), 1.0)],
                        distribution: vec![1.0, 0.0],
                        skipped: vec![1],
                        evaluations: 17,
                    },
                },
                BreakerSnapshot::Open { until_ms: 0 },
            ),
        ]
    }

    /// The `v3` format is frozen: each tag-covering snapshot encodes to
    /// the length and CRC-32 recorded when the format was introduced, and
    /// decodes back to the same bytes.
    #[test]
    fn v3_bytes_are_pinned() {
        const PINNED: [(usize, u32); 5] = [
            (567, 0xebd0_3d3d),
            (1351, 0x9ba5_61e5),
            (1351, 0xc3c5_2f0a),
            (1579, 0x7a52_9ae3),
            (1439, 0x134c_aa18),
        ];
        for (snapshot, pinned) in tag_cover().iter().zip(PINNED) {
            let bytes = snapshot.encode();
            assert_eq!((bytes.len(), crc32(&bytes)), pinned, "{}", snapshot.phase.name());
            assert_eq!(Snapshot::decode(&bytes).unwrap().encode(), bytes);
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
            assert!(Snapshot::decode(&corrupt).is_err(), "flip at byte {byte} went undetected");
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
        // longer has, and version 2 a shard-shaped memo with clock-queue
        // state. A v1 or v2 frame with an intact checksum must still be
        // refused by version, before any payload is interpreted.
        for version in [1u32, 2] {
            let mut bytes = sample_snapshot().encode();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(Snapshot::decode(&bytes), Err(SnapshotError::BadVersion(version)));
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A payload claiming a 2^60-element vector must fail the length
        // check, not attempt the allocation.
        let mut enc = Enc { buf: Vec::new() };
        1u64.encode(&mut enc); // fingerprint
        [0u64, 0, 0, 1].encode(&mut enc);
        enc.tag(0); // synthetic model
        [0u64, 0, 0, 1].encode(&mut enc);
        TokenUsage::default().encode(&mut enc);
        (1u64 << 60).encode(&mut enc); // hostile attempts length
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
        let dir = std::env::temp_dir().join(format!("sqlbarber-snap-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut ckpt = CheckpointDir::open(&dir).unwrap();
        assert!(matches!(CheckpointDir::load_latest(&dir), Err(SnapshotError::NoSnapshot)));

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
            text.contains("cannot create checkpoint directory") && text.contains("parent"),
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
