//! Streaming-emission support: distribution accounting and a buffered
//! record writer for workloads too large to hold in memory.
//!
//! The amplification stage (ROADMAP item 1) emits millions of queries;
//! holding them in a `Vec` would defeat the point. Instead emission
//! streams pre-rendered record chunks through [`StreamingSqlWriter`]
//! while a [`DistributionAccumulator`] folds each accepted cost into the
//! interval histogram on the fly, so the Wasserstein check at the end
//! needs only `O(intervals)` memory regardless of workload size.

use crate::intervals::CostIntervals;
use crate::wasserstein::wasserstein_distance;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Incremental interval histogram over a stream of accepted costs.
///
/// Equivalent to collecting every cost and bucketing at the end, but in
/// constant memory: `record` is a pure `interval_of` + increment.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionAccumulator {
    intervals: CostIntervals,
    counts: Vec<f64>,
    out_of_range: u64,
    total: u64,
}

impl DistributionAccumulator {
    /// Empty histogram over `intervals`.
    pub fn new(intervals: CostIntervals) -> DistributionAccumulator {
        let counts = vec![0.0; intervals.count];
        DistributionAccumulator { intervals, counts, out_of_range: 0, total: 0 }
    }

    /// Fold one accepted cost into the histogram. Costs outside the
    /// working range are tallied separately rather than dropped silently.
    pub fn record(&mut self, cost: f64) {
        match self.intervals.interval_of(cost) {
            Some(j) => {
                self.counts[j] += 1.0;
                self.total += 1;
            }
            None => self.out_of_range += 1,
        }
    }

    /// Per-interval counts so far.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Number of in-range costs recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of costs that fell outside the working range.
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// The interval grid this accumulator buckets into.
    pub fn intervals(&self) -> &CostIntervals {
        &self.intervals
    }

    /// W₁ distance from `target_counts` (same grid) to the accumulated
    /// histogram, normalized by the target mass as usual.
    pub fn distance_to(&self, target_counts: &[f64]) -> f64 {
        wasserstein_distance(target_counts, &self.counts, self.intervals.width())
    }
}

/// Largest-remainder apportionment of `n` units proportional to
/// `weights`. Returns one integer quota per weight, summing to exactly
/// `n` (all zeros when every weight is zero). Ties in the fractional
/// remainders break toward the lower index, so the split is a pure
/// function of its inputs — no RNG, no iteration-order dependence.
pub fn scaled_quotas(weights: &[f64], n: u64) -> Vec<u64> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || n == 0 {
        return vec![0; weights.len()];
    }
    let mut quotas = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (j, w) in weights.iter().enumerate() {
        let exact = w / total * n as f64;
        let floor = exact.floor() as u64;
        quotas.push(floor);
        assigned += floor;
        remainders.push((j, exact - floor as f64));
    }
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut leftover = n - assigned;
    for &(j, _) in &remainders {
        if leftover == 0 {
            break;
        }
        quotas[j] += 1;
        leftover -= 1;
    }
    quotas
}

/// Buffered writer for pre-rendered SQL record chunks.
///
/// Emission shards render records into their own scratch strings; at each
/// flush barrier the chunks are handed over in canonical shard order, so
/// the file content is independent of thread scheduling. The writer only
/// counts records and forwards bytes — it never buffers the workload.
#[derive(Debug)]
pub struct StreamingSqlWriter<W: Write> {
    out: W,
    records: u64,
    bytes: u64,
}

impl<W: Write> StreamingSqlWriter<W> {
    /// Wrap a sink (typically a `BufWriter<File>`, or `io::sink()` for
    /// stats-only runs).
    pub fn new(out: W) -> StreamingSqlWriter<W> {
        StreamingSqlWriter { out, records: 0, bytes: 0 }
    }

    /// Write one `-- comment` line (not counted as a record).
    pub fn comment(&mut self, text: &str) -> io::Result<()> {
        debug_assert!(!text.contains('\n'), "comments are single lines");
        self.out.write_all(b"-- ")?;
        self.out.write_all(text.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.bytes += 4 + text.len() as u64;
        Ok(())
    }

    /// Append a chunk of `n` pre-rendered records.
    pub fn write_records(&mut self, chunk: &[u8], n: u64) -> io::Result<()> {
        self.out.write_all(chunk)?;
        self.records += n;
        self.bytes += chunk.len() as u64;
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes written so far (records + comments).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flush and return the underlying sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Crash-safe file sink: all writes go to a `<path>.tmp` sibling, and the
/// finished bytes only land at `path` when [`AtomicFile::commit`] flushes,
/// fsyncs, and renames the temporary into place. A crash (or an error
/// return) mid-emission therefore never truncates or half-overwrites an
/// existing file at `path` — the previous contents stay intact and the
/// temporary is removed on drop.
#[derive(Debug)]
pub struct AtomicFile {
    path: PathBuf,
    tmp: PathBuf,
    out: Option<io::BufWriter<File>>,
}

impl AtomicFile {
    /// Open a temporary sibling of `path` for writing. Fails up front with
    /// an actionable message when the parent directory does not exist,
    /// rather than after a long run has already produced its output.
    pub fn create(path: &Path) -> io::Result<AtomicFile> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() && !parent.is_dir() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "cannot create {}: parent directory {} does not exist \
                         (create it first)",
                        path.display(),
                        parent.display()
                    ),
                ));
            }
        }
        let mut tmp_os = path.as_os_str().to_os_string();
        tmp_os.push(".tmp");
        let tmp = PathBuf::from(tmp_os);
        let file = File::create(&tmp)?;
        Ok(AtomicFile { path: path.to_path_buf(), tmp, out: Some(io::BufWriter::new(file)) })
    }

    /// The final destination this file will be renamed to on commit.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flush, fsync, and atomically rename the temporary over `path`.
    /// Consumes the file: after `commit` the destination holds the complete
    /// bytes, and without it the destination is never touched.
    pub fn commit(mut self) -> io::Result<()> {
        let mut out = self.out.take().expect("AtomicFile committed twice");
        out.flush()?;
        let file = out.into_inner().map_err(|e| io::Error::other(e.to_string()))?;
        file.sync_all()?;
        drop(file);
        fs::rename(&self.tmp, &self.path)
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.as_mut().expect("AtomicFile committed").write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.as_mut().expect("AtomicFile committed").flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        // Still holding the writer means commit never ran: abandon the
        // temporary so failed runs leave no debris next to the target.
        if self.out.take().is_some() {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_matches_batch_bucketing() {
        let grid = CostIntervals::new(0.0, 100.0, 4);
        let mut acc = DistributionAccumulator::new(grid.clone());
        let costs = [5.0, 30.0, 30.5, 99.0, 100.0, 150.0, -1.0];
        for c in costs {
            acc.record(c);
        }
        assert_eq!(acc.counts(), &[1.0, 2.0, 0.0, 2.0]);
        assert_eq!(acc.total(), 5);
        assert_eq!(acc.out_of_range(), 2);
    }

    #[test]
    fn accumulator_distance_matches_direct_wasserstein() {
        let grid = CostIntervals::new(0.0, 40.0, 4);
        let mut acc = DistributionAccumulator::new(grid);
        for c in [5.0, 15.0, 15.5, 35.0] {
            acc.record(c);
        }
        let target = [1.0, 1.0, 1.0, 1.0];
        let direct = wasserstein_distance(&target, acc.counts(), 10.0);
        assert_eq!(acc.distance_to(&target).to_bits(), direct.to_bits());
    }

    #[test]
    fn quotas_sum_exactly_and_follow_proportions() {
        let q = scaled_quotas(&[1.0, 1.0, 1.0], 10);
        assert_eq!(q.iter().sum::<u64>(), 10);
        // 10/3 each → floors 3,3,3; one remainder goes to the lowest index.
        assert_eq!(q, vec![4, 3, 3]);

        let q = scaled_quotas(&[3.0, 1.0], 100);
        assert_eq!(q, vec![75, 25]);
    }

    #[test]
    fn quotas_handle_zero_mass_and_zero_n() {
        assert_eq!(scaled_quotas(&[0.0, 0.0], 10), vec![0, 0]);
        assert_eq!(scaled_quotas(&[1.0, 2.0], 0), vec![0, 0]);
        // Zero-weight entries get nothing even when others round up.
        let q = scaled_quotas(&[0.0, 1.0, 1.0], 7);
        assert_eq!(q[0], 0);
        assert_eq!(q.iter().sum::<u64>(), 7);
    }

    #[test]
    fn quotas_are_deterministic_under_ties() {
        // Equal weights, indivisible remainder: lower indices win.
        let a = scaled_quotas(&[2.0, 2.0, 2.0, 2.0], 6);
        let b = scaled_quotas(&[2.0, 2.0, 2.0, 2.0], 6);
        assert_eq!(a, b);
        assert_eq!(a, vec![2, 2, 1, 1]);
    }

    #[test]
    fn writer_counts_records_and_bytes() {
        let mut w = StreamingSqlWriter::new(Vec::new());
        w.comment("header").unwrap();
        w.write_records(b"-- cost: 1.00\nSELECT 1;\n", 1).unwrap();
        w.write_records(b"-- cost: 2.00\nSELECT 2;\n-- cost: 3.00\nSELECT 3;\n", 2).unwrap();
        assert_eq!(w.records(), 3);
        let expected_bytes = w.bytes();
        let buf = w.finish().unwrap();
        assert_eq!(buf.len() as u64, expected_bytes);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("-- header\n-- cost: 1.00\n"));
    }

    #[test]
    fn atomic_file_only_replaces_target_on_commit() {
        let dir =
            std::env::temp_dir().join(format!("sqlbarber-atomic-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("workload.sql");
        fs::write(&target, b"previous contents\n").unwrap();

        // Abandoned writer: target untouched, temporary cleaned up.
        {
            let mut file = AtomicFile::create(&target).unwrap();
            file.write_all(b"half-written").unwrap();
        }
        assert_eq!(fs::read(&target).unwrap(), b"previous contents\n");
        assert!(!dir.join("workload.sql.tmp").exists());

        // Committed writer: target replaced, temporary gone.
        let mut file = AtomicFile::create(&target).unwrap();
        file.write_all(b"new contents\n").unwrap();
        file.commit().unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"new contents\n");
        assert!(!dir.join("workload.sql.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_file_reports_missing_parent_up_front() {
        let target = std::env::temp_dir()
            .join(format!("sqlbarber-no-parent-{}", std::process::id()))
            .join("workload.sql");
        let err = AtomicFile::create(&target).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let text = err.to_string();
        assert!(text.contains("parent directory"), "unhelpful error: {text}");
        assert!(text.contains("create it first"), "unhelpful error: {text}");
    }
}
