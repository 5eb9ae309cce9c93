//! Untraced runs: one `SqlBarber::generate` call per repetition, timed
//! from the call to the report, with the run's peak resident memory.

use crate::verify::Fnv;
use crate::workloads::Workload;
use minidb::Database;
use sqlbarber::{GenerationReport, SqlBarber};
use std::path::Path;
use std::time::Instant;

/// One repetition's measurements.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub wall_s: f64,
    /// VmHWM after the run, MiB; `None` when it could not be measured.
    pub peak_rss_mb: Option<f64>,
    /// Whether VmHWM was reset before the run (otherwise the peak is the
    /// process's since start-up).
    pub rss_reset: bool,
    /// Fingerprint of the run's deterministic outputs.
    pub fingerprint: u64,
}

/// Run the workload once into `dir`, removing the previous repetition's
/// checkpoints first so every repetition does the same work.
pub fn run_once(
    w: &Workload,
    db: &Database,
    dir: &Path,
) -> Result<(GenerationReport, Rep), String> {
    let checkpoints = Workload::checkpoint_dir(dir);
    if checkpoints.exists() {
        std::fs::remove_dir_all(&checkpoints)
            .map_err(|e| format!("cannot clear {}: {e}", checkpoints.display()))?;
    }
    let config = w.config(dir);
    let rss_reset = reset_peak_rss();
    let start = Instant::now();
    let report = SqlBarber::new(db, config)
        .generate(&w.specs, &w.target, w.cost_type)
        .map_err(|e| format!("{}: generate failed: {e}", w.name))?;
    let wall_s = start.elapsed().as_secs_f64();
    let rep = Rep {
        wall_s,
        peak_rss_mb: peak_rss_mb(),
        rss_reset,
        fingerprint: fingerprint(&report),
    };
    Ok((report, rep))
}

/// Fingerprint of everything deterministic in a report: queries with
/// cost bits, histogram, oracle and scheduler counters, token usage and
/// amplification accounting (wall-clock fields excluded).
pub fn fingerprint(report: &GenerationReport) -> u64 {
    let mut hash = Fnv::default();
    for query in &report.queries {
        hash.write(query.sql.as_bytes());
        hash.write(&query.cost.to_bits().to_le_bytes());
    }
    let rest = format!(
        "{:?}|{:?}|{:?}|{:?}",
        report.distribution,
        [
            report.oracle_probes,
            report.oracle_physical_evals,
            report.oracle_cache_hits,
            report.oracle_prepared_hits,
            report.oracle_prepared_misses,
            report.oracle_evictions,
            report.scheduler_rounds,
            report.scheduler_tasks,
            report.scheduler_peak_tasks,
            report.scheduler_overadmissions,
        ],
        report.llm_usage,
        report.amplify,
    );
    hash.write(rest.as_bytes());
    hash.finish()
}

/// Return freed heap pages to the kernel, then reset the kernel's
/// peak-RSS mark (VmHWM) to the now current RSS. Without the trim, VmHWM
/// starts from whatever earlier set-ups and runs left cached in the heap.
fn reset_peak_rss() -> bool {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only hands free
    // heap pages back to the kernel; it may be called at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// VmHWM in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
