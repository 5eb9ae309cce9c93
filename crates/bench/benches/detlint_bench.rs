//! detlint throughput: one full workspace scan — scan + parse of every
//! first-party file, call-graph construction, all nine rules, and
//! suppression application. The lint job gates every CI run, so its
//! wall time is a budgeted resource: the release-mode scan must stay
//! under two seconds or the gate has regressed (v2's workspace passes
//! — the lock-order graph fixpoint and the hot-alloc reachability memo
//! — are the terms that could grow superlinearly).

// Wall-clock timing is this harness's entire purpose; detlint
// exempts crates/bench/ from R2 for the same reason.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use detlint::{analyze_sources, workspace_sources, Config};
use std::time::{Duration, Instant};

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn full_scan(c: &mut Criterion) {
    let cfg = Config::at_root(workspace_root());
    let sources = workspace_sources(&cfg).expect("tree loads");
    let n_files = sources.len();
    let total_lines: usize = sources.iter().map(|(_, text)| text.lines().count()).sum();

    // Timed gate first, on a fresh end-to-end run (including file IO):
    // the CI lint job runs exactly this. Debug builds are an order of
    // magnitude slower and are not what gates CI, so the budget only
    // binds under --release.
    let gate = Instant::now();
    let report = detlint::analyze_workspace(&cfg).expect("workspace scans");
    let elapsed = gate.elapsed();
    assert!(
        report.files_scanned >= 50,
        "suspiciously few files scanned ({})",
        report.files_scanned
    );
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < Duration::from_secs(2),
            "full workspace scan took {elapsed:?}; the 2s lint-gate \
             budget has regressed"
        );
    }
    println!(
        "\ndetlint full scan: {n_files} files, {total_lines} lines in \
         {elapsed:?} ({:.1} klines/s)",
        total_lines as f64 / 1_000.0 / elapsed.as_secs_f64()
    );

    // Steady-state throughput of the analysis alone (sources in memory).
    c.bench_function("detlint/analyze_workspace_sources", |b| {
        b.iter(|| {
            let report = analyze_sources(&sources, &cfg);
            assert!(report.files_scanned == n_files);
            report.findings.len()
        })
    });
}

criterion_group!(benches, full_scan);
criterion_main!(benches);
