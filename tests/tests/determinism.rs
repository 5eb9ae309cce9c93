//! Cross-crate determinism: the pipeline must produce bit-identical
//! output at any thread count. Parallelism only changes *when* probes are
//! planned, never *which* probes are requested or what they return — the
//! seed-split RNG scheme and order-preserving merges guarantee it.

use sqlbarber::cost::CostType;
use sqlbarber::oracle::OracleStats;
use sqlbarber::{GenerationReport, SqlBarber, SqlBarberConfig};
use workload::redset::redset_template_specs;
use workload::{CostIntervals, TargetDistribution};

fn tpch() -> minidb::Database {
    minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
}

fn run(db: &minidb::Database, threads: usize) -> (GenerationReport, OracleStats) {
    let target = TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), 80);
    let specs = redset_template_specs(3);
    let config = SqlBarberConfig {
        threads,
        ..SqlBarberConfig::fast_test()
    };
    let mut barber = SqlBarber::new(db, config);
    let report = barber
        .generate(&specs[..6], &target, CostType::Cardinality)
        .expect("generation succeeds");
    let stats = OracleStats {
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
    (report, stats)
}

/// The manifest JSON with its one wall-clock field removed — everything
/// else must be bit-identical across thread counts.
fn manifest_without_wallclock(r: &GenerationReport) -> serde_json::Value {
    let path = std::env::temp_dir().join(format!(
        "sqlbarber-determinism-{}-{}.json",
        std::process::id(),
        r.queries.len()
    ));
    r.write_manifest(&path).expect("manifest written");
    let text = std::fs::read_to_string(&path).expect("manifest readable");
    let _ = std::fs::remove_file(&path);
    let mut value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let serde_json::Value::Object(pairs) = &mut value else {
        panic!("manifest is not a JSON object");
    };
    let before = pairs.len();
    pairs.retain(|(key, _)| key != "elapsed_seconds");
    assert_eq!(before, pairs.len() + 1, "manifest records wall-clock exactly once");
    value
}

/// Exact (SQL, cost-bits) fingerprint of the generated workload.
fn flatten(r: &GenerationReport) -> Vec<(String, u64)> {
    r.queries.iter().map(|q| (q.sql.clone(), q.cost.to_bits())).collect()
}

#[test]
fn end_to_end_is_bit_identical_across_thread_counts() {
    // Full pipeline (profile → refine → scheduled BO) at 1, 2, and 8
    // threads: the workload, every counter, and the on-disk manifest
    // (minus wall-clock) must match the serial run bit for bit.
    let db = tpch();
    let (serial, serial_stats) = run(&db, 1);
    let serial_manifest = manifest_without_wallclock(&serial);
    assert!(serial_stats.logical_probes > 0, "oracle was never consulted");
    assert_eq!(
        serial_stats.cache_hits,
        serial_stats.logical_probes - serial_stats.physical_evals
    );
    assert_eq!(serial_stats.prepared_hits, serial_stats.cache_hits);
    assert_eq!(serial_stats.prepared_misses, serial_stats.physical_evals);
    assert!(serial_stats.scheduler_rounds > 0, "scheduler never ran a round");
    assert!(
        serial_stats.scheduler_tasks >= serial_stats.scheduler_rounds,
        "every round runs at least one task"
    );

    for threads in [2usize, 8] {
        let (parallel, parallel_stats) = run(&db, threads);
        assert_eq!(
            serial.final_distance.to_bits(),
            parallel.final_distance.to_bits(),
            "threads={threads}: final distance diverged: {} vs {}",
            serial.final_distance,
            parallel.final_distance
        );
        assert_eq!(
            flatten(&serial),
            flatten(&parallel),
            "threads={threads}: query sets diverged"
        );
        assert_eq!(
            serial.distribution, parallel.distribution,
            "threads={threads}: achieved histograms diverged"
        );
        assert_eq!(
            serial.evaluations, parallel.evaluations,
            "threads={threads}: budget accounting diverged"
        );
        assert_eq!(
            serial_stats, parallel_stats,
            "threads={threads}: oracle/scheduler accounting diverged"
        );
        assert_eq!(serial.skipped_intervals, parallel.skipped_intervals);
        assert_eq!(serial.n_refined_templates, parallel.n_refined_templates);
        assert_eq!(
            serial_manifest,
            manifest_without_wallclock(&parallel),
            "threads={threads}: manifests diverged"
        );
    }
}

#[test]
fn amplified_output_is_bit_identical_across_threads_and_shards() {
    // The amplification stage inherits the same bar: file bytes, the
    // manifest (minus wall-clock), the amplify accounting, and every
    // oracle counter must match the serial single-shard run bit for bit
    // at any `--threads N` and any `--amplify-shards K`. Shards are pure
    // speculation width — the flush barrier consumes candidate batches in
    // canonical order and discards the rest unseen.
    let db = tpch();
    let run_amplified = |threads: usize, shards: usize| {
        let path = std::env::temp_dir().join(format!(
            "sqlbarber-amplify-determinism-{}-t{threads}-s{shards}.sql",
            std::process::id(),
        ));
        let target = TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), 80);
        let specs = redset_template_specs(3);
        let mut config = SqlBarberConfig {
            threads,
            ..SqlBarberConfig::fast_test()
        };
        config.amplify = Some(sqlbarber::AmplifyConfig {
            n: 4_000,
            shards,
            batch: 256,
            out: Some(path.clone()),
        });
        let mut barber = SqlBarber::new(&db, config);
        let report = barber
            .generate(&specs[..6], &target, CostType::Cardinality)
            .expect("generation succeeds");
        let bytes = std::fs::read(&path).expect("amplified file written");
        let _ = std::fs::remove_file(&path);
        (report, bytes)
    };

    let (serial, serial_bytes) = run_amplified(1, 1);
    let serial_manifest = manifest_without_wallclock(&serial);
    let serial_amplify = serial.amplify.clone().expect("amplify stage ran");
    assert_eq!(serial_amplify.requested, 4_000);
    assert_eq!(
        serial_amplify.emitted + serial_amplify.shortfall,
        serial_amplify.requested,
        "every requested query is accounted emitted or short"
    );
    assert_eq!(serial_amplify.oracle_misses, 0, "amplification bypasses the oracle");
    assert!(!serial_bytes.is_empty(), "amplified file has content");

    for (threads, shards) in [(2usize, 1usize), (4, 3), (8, 8)] {
        let (other, other_bytes) = run_amplified(threads, shards);
        assert_eq!(
            serial_bytes, other_bytes,
            "threads={threads} shards={shards}: amplified file bytes diverged"
        );
        assert_eq!(
            serial_amplify,
            other.amplify.clone().expect("amplify stage ran"),
            "threads={threads} shards={shards}: amplify accounting diverged"
        );
        assert_eq!(
            serial_manifest,
            manifest_without_wallclock(&other),
            "threads={threads} shards={shards}: manifests diverged"
        );
        assert_eq!(
            flatten(&serial),
            flatten(&other),
            "threads={threads} shards={shards}: BO query sets diverged"
        );
    }
}

#[test]
fn repeated_runs_on_one_database_are_reproducible() {
    // Two runs with the same seed and thread count must agree exactly —
    // the memo cache is per-run state, not hidden global state.
    let db = tpch();
    let (first, first_stats) = run(&db, 2);
    let (second, second_stats) = run(&db, 2);
    assert_eq!(first.final_distance.to_bits(), second.final_distance.to_bits());
    assert_eq!(first.queries.len(), second.queries.len());
    assert_eq!(first_stats, second_stats);
}
