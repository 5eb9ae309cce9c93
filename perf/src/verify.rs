//! Scalar output verification.
//!
//! Every statement is re-parsed from its text and re-costed through
//! `sqlbarber::cost::query_cost` — the scalar `Database::explain` /
//! `Database::execute` path — never through the prepared or columnar
//! code that produced it.

use minidb::Database;
use sqlbarber::cost::query_cost;
use sqlbarber::{CostType, GenerationReport};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::time::Instant;
use workload::TargetDistribution;

/// Amplified statements checked at least, when the file has that many.
const AMPLIFIED_SAMPLE: u64 = 10_000;

/// Outcome of verifying one run's outputs.
#[derive(Debug, Default)]
pub struct Verification {
    /// Checks made: one per statement re-costed, plus one per aggregate
    /// (histogram, record count).
    pub checked: u64,
    pub failed: u64,
    pub ms: f64,
    /// The first failure, for the error message.
    pub first_failure: Option<String>,
    /// FNV-1a of the amplified file's bytes (0 without one).
    pub amplified_hash: u64,
}

impl Verification {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }
}

/// Scalar cost of one statement's text.
fn scalar_cost(db: &Database, sql: &str, cost_type: CostType) -> Result<f64, String> {
    let select = sqlkit::parse_select(sql).map_err(|e| e.to_string())?;
    query_cost(db, &select, cost_type).map_err(|e| e.to_string())
}

/// Verify a run: every BO query re-costs to the same bits and interval,
/// the re-derived histogram equals `report.distribution`, and a stride
/// sample (offset by `seed`) of the amplified file re-costs to its printed
/// `-- cost:` value inside the target range.
pub fn verify(
    db: &Database,
    report: &GenerationReport,
    target: &TargetDistribution,
    cost_type: CostType,
    amplified: Option<&Path>,
    seed: u64,
) -> Verification {
    let start = Instant::now();
    let mut v = Verification::default();
    let intervals = &target.intervals;
    let mut histogram = vec![0.0; intervals.count];
    for query in &report.queries {
        let cost = scalar_cost(db, &query.sql, cost_type);
        if let Some(j) = cost.as_ref().ok().and_then(|&c| intervals.interval_of(c)) {
            histogram[j] += 1.0;
        }
        let ok = cost.as_ref().is_ok_and(|&c| {
            c.to_bits() == query.cost.to_bits()
                && intervals.interval_of(c).is_some()
                && intervals.interval_of(c) == intervals.interval_of(query.cost)
        });
        v.check(ok, || {
            format!(
                "BO query re-costs to {cost:?}, recorded {}: {}",
                query.cost, query.sql
            )
        });
    }
    v.check(histogram == report.distribution, || {
        format!(
            "re-derived histogram {histogram:?} != reported {:?}",
            report.distribution
        )
    });
    if let (Some(path), Some(stats)) = (amplified, &report.amplify) {
        if let Err(e) =
            verify_amplified(db, path, stats.emitted, intervals, cost_type, seed, &mut v)
        {
            v.check(false, || format!("{}: {e}", path.display()));
        }
    }
    v.ms = start.elapsed().as_secs_f64() * 1e3;
    v
}

fn verify_amplified(
    db: &Database,
    path: &Path,
    emitted: u64,
    intervals: &workload::CostIntervals,
    cost_type: CostType,
    seed: u64,
    v: &mut Verification,
) -> std::io::Result<()> {
    let stride = (emitted / AMPLIFIED_SAMPLE).max(1);
    let offset = seed % stride;
    let mut hash = Fnv::default();
    let mut records = 0u64;
    let mut printed: Option<String> = None;
    let mut reader = BufReader::new(std::fs::File::open(path)?);
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 {
        hash.write(line.as_bytes());
        let text = line.trim_end_matches('\n');
        if let Some(cost) = text.strip_prefix("-- cost: ") {
            printed = Some(cost.to_string());
        } else if !text.starts_with("--") {
            let claimed = printed.take();
            if records % stride == offset {
                let cost = scalar_cost(db, text, cost_type);
                let ok = match (&cost, &claimed) {
                    (Ok(c), Some(p)) => {
                        format!("{c:.2}") == *p && intervals.interval_of(*c).is_some()
                    }
                    _ => false,
                };
                v.check(ok, || {
                    format!("amplified record {records} re-costs to {cost:?}, printed {claimed:?}: {text}")
                });
            }
            records += 1;
        }
        line.clear();
    }
    v.check(records == emitted, || {
        format!("{records} amplified records, report says {emitted}")
    });
    v.amplified_hash = hash.finish();
    Ok(())
}

/// FNV-1a, for cheap whole-output fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of a file's bytes.
pub fn file_hash(path: &Path) -> std::io::Result<u64> {
    use std::io::Read;
    let mut hash = Fnv::default();
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(hash.finish());
        }
        hash.write(&buf[..n]);
    }
}
