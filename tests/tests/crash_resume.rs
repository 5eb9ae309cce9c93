//! Crash-safety suite: a run killed at any checkpoint boundary and
//! resumed from disk must reproduce the uninterrupted run bit for bit —
//! same workload, same counters, same manifest (minus wall-clock) — at
//! any thread count. Corrupted snapshots (bit flips, truncation) must be
//! detected by the CRC-guarded codec and skipped in favour of the
//! previous good generation, silently changing nothing about the output.
//!
//! The CI crash-resume job runs these by name (`kill_point_matrix_*`).

use sqlbarber::cost::CostType;
use sqlbarber::snapshot::{CheckpointDir, PhaseState, SchedState, Snapshot, TemplatePool};
use sqlbarber::{
    CheckpointConfig, GenerateError, GenerationReport, KillSwitch, SqlBarber, SqlBarberConfig,
};
use std::path::{Path, PathBuf};
use workload::redset::redset_template_specs;
use workload::{CostIntervals, TargetDistribution};

const KILL_POINTS: [&str; 5] =
    ["after-templates", "after-profiling", "after-refine", "mid-search", "after-search"];

fn tpch() -> minidb::Database {
    minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
}

fn target() -> TargetDistribution {
    TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), 60)
}

fn config(threads: usize, checkpoint: Option<CheckpointConfig>) -> SqlBarberConfig {
    let mut config = SqlBarberConfig { threads, ..SqlBarberConfig::fast_test() };
    config.checkpoint = checkpoint;
    config
}

fn generate(db: &minidb::Database, config: SqlBarberConfig) -> GenerationReport {
    let specs = redset_template_specs(3);
    SqlBarber::new(db, config)
        .generate(&specs[..4], &target(), CostType::Cardinality)
        .expect("uninterrupted generation succeeds")
}

/// Run with the kill switch armed; the chaos switch must actually fire.
fn generate_killed(db: &minidb::Database, config: SqlBarberConfig, point: &str) -> GenerateError {
    let specs = redset_template_specs(3);
    let err = SqlBarber::new(db, config)
        .with_kill_switch(KillSwitch::parse(point).unwrap())
        .generate(&specs[..4], &target(), CostType::Cardinality)
        .expect_err("armed kill switch must abort the run");
    assert!(matches!(err, GenerateError::Killed(_)), "{point}: {err}");
    err
}

fn resume(db: &minidb::Database, config: SqlBarberConfig, dir: &Path) -> GenerationReport {
    SqlBarber::new(db, config)
        .resume(dir, &target(), CostType::Cardinality)
        .expect("resume succeeds")
}

/// Exact (SQL, cost-bits) fingerprint of the generated workload.
fn flatten(r: &GenerationReport) -> Vec<(String, u64)> {
    r.queries.iter().map(|q| (q.sql.clone(), q.cost.to_bits())).collect()
}

/// The manifest JSON with its one wall-clock field removed.
fn manifest_without_wallclock(r: &GenerationReport) -> serde_json::Value {
    let path = std::env::temp_dir().join(format!(
        "sqlbarber-crash-resume-{}-{}.json",
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
    pairs.retain(|(key, _)| key != "elapsed_seconds");
    value
}

fn assert_identical(baseline: &GenerationReport, resumed: &GenerationReport, tag: &str) {
    assert_eq!(flatten(baseline), flatten(resumed), "{tag}: workload diverged");
    assert_eq!(
        baseline.final_distance.to_bits(),
        resumed.final_distance.to_bits(),
        "{tag}: final distance diverged"
    );
    assert_eq!(baseline.distribution, resumed.distribution, "{tag}: histogram");
    assert_eq!(baseline.evaluations, resumed.evaluations, "{tag}: budget");
    assert_eq!(baseline.oracle_probes, resumed.oracle_probes, "{tag}: probes");
    assert_eq!(baseline.oracle_cache_hits, resumed.oracle_cache_hits, "{tag}: cache hits");
    assert_eq!(baseline.scheduler_rounds, resumed.scheduler_rounds, "{tag}: scheduler rounds");
    assert_eq!(
        baseline.n_refined_templates, resumed.n_refined_templates,
        "{tag}: refined templates"
    );
    assert_eq!(baseline.skipped_intervals, resumed.skipped_intervals, "{tag}: skipped intervals");
    assert_eq!(baseline.resilience, resumed.resilience, "{tag}: resilience stats");
    assert_eq!(baseline.degradation, resumed.degradation, "{tag}: degradation stats");
    assert_eq!(
        manifest_without_wallclock(baseline),
        manifest_without_wallclock(resumed),
        "{tag}: manifests diverged"
    );
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlbarber-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn kill_matrix_at(threads: usize) {
    let db = tpch();
    // Checkpointing is pure observation: the baseline is uncheckpointed.
    let baseline = generate(&db, config(threads, None));

    for point in KILL_POINTS {
        let tag = format!("threads={threads} kill={point}");
        let dir = fresh_dir(&format!("{threads}-{point}"));
        // `every: 1` checkpoints at each scheduler round so the
        // mid-search point always comes due, whatever the round count.
        let checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 1 });
        generate_killed(&db, config(threads, checkpoint.clone()), point);
        let resumed = resume(&db, config(threads, checkpoint), &dir);
        assert_identical(&baseline, &resumed, &tag);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_point_matrix_single_thread() {
    kill_matrix_at(1);
}

#[test]
fn kill_point_matrix_four_threads() {
    kill_matrix_at(4);
}

/// The newest snapshot generation — chronologically last by file name.
fn newest_generation(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir listable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(".bin"))
        })
        .collect();
    files.sort();
    files.pop().expect("at least one snapshot generation")
}

/// Every snapshot file in `dir`, by name.
fn snapshot_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("checkpoint dir listable")
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_str()?.to_string();
            let snapshot = name.starts_with("snapshot-") && name.ends_with(".bin");
            snapshot.then(|| (name, std::fs::read(e.path()).expect("snapshot readable")))
        })
        .collect();
    files.sort();
    files
}

/// The snapshot files a checkpointed run at `threads` leaves behind when
/// killed at each kill point, and when it completes, as
/// `("<point>/<file name>", bytes)`.
fn snapshots_at(db: &minidb::Database, threads: usize, run: &str) -> Vec<(String, Vec<u8>)> {
    let mut all = Vec::new();
    for point in KILL_POINTS.into_iter().map(Some).chain([None]) {
        let label = point.unwrap_or("complete");
        let dir = fresh_dir(&format!("snapshots-{threads}-{run}-{label}"));
        let checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 1 });
        match point {
            Some(point) => drop(generate_killed(db, config(threads, checkpoint), point)),
            None => drop(generate(db, config(threads, checkpoint))),
        }
        let files = snapshot_files(&dir);
        assert!(!files.is_empty(), "threads={threads} {label}: no snapshot written");
        all.extend(files.into_iter().map(|(name, bytes)| (format!("{label}/{name}"), bytes)));
        let _ = std::fs::remove_dir_all(&dir);
    }
    all
}

#[test]
fn snapshots_are_byte_identical_across_runs_and_thread_counts() {
    // Workers profile templates and run interval tasks concurrently, so
    // they meet strings and insert memo entries in a different order on
    // every run above one thread; the snapshot must not show it.
    let db = tpch();
    let reference = snapshots_at(&db, 1, "a");
    for (threads, run) in [(4, "a"), (4, "b"), (8, "a"), (8, "b")] {
        let files = snapshots_at(&db, threads, run);
        let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
            files.iter().map(|(name, _)| name.clone()).collect()
        };
        assert_eq!(names(&files), names(&reference), "threads={threads} run {run}");
        for ((name, bytes), (_, expected)) in files.iter().zip(&reference) {
            assert!(
                bytes == expected,
                "threads={threads} run {run}: {name} differs from the 1-thread run's"
            );
        }
    }
}

/// Templates that each bind a text placeholder to a different column, so
/// concurrent workers (profiling fan-out, scheduler tasks) meet their
/// strings in an order that depends on thread timing.
const STRING_TEMPLATES: [&str; 4] = [
    "SELECT lineitem.l_orderkey FROM lineitem \
     WHERE lineitem.l_returnflag = {p_1} AND lineitem.l_quantity > {p_2}",
    "SELECT orders.o_orderkey FROM orders \
     WHERE orders.o_orderpriority = {p_1} AND orders.o_totalprice > {p_2}",
    "SELECT customer.c_custkey FROM customer \
     WHERE customer.c_mktsegment = {p_1} AND customer.c_acctbal > {p_2}",
    "SELECT part.p_partkey FROM part WHERE part.p_brand = {p_1} AND part.p_size > {p_2}",
];

/// Every snapshot file of a completed, checkpointed run over
/// [`STRING_TEMPLATES`] at `threads`.
fn string_template_snapshots(db: &minidb::Database, threads: usize) -> Vec<(String, Vec<u8>)> {
    let dir = fresh_dir(&format!("strings-{threads}"));
    let checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 1 });
    let templates =
        STRING_TEMPLATES.iter().map(|sql| sqlkit::parse_template(sql).unwrap()).collect();
    SqlBarber::new(db, config(threads, checkpoint))
        .generate_from_templates(templates, &target(), CostType::Cardinality)
        .expect("generation from string templates succeeds");
    let files = snapshot_files(&dir);
    if threads == 1 {
        // The cell only tests something if the memo interns strings from
        // more than one template.
        let oracle = CheckpointDir::load_latest(&dir).unwrap().oracle.expect("oracle state");
        let columns = [&["R", "A", "N"][..], &["1-URGENT", "2-HIGH", "3-MEDIUM"][..]];
        for values in columns {
            assert!(
                oracle.interner.iter().any(|s| values.contains(&s.as_str())),
                "no string of {values:?} interned: {:?}",
                oracle.interner
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    files
}

#[test]
fn string_bound_snapshots_are_byte_identical_across_thread_counts() {
    // Strings get interner ids in arrival order, which differs between
    // thread counts; the snapshot lists them by content, so its bytes
    // must not.
    let db = tpch();
    let reference = string_template_snapshots(&db, 1);
    assert!(!reference.is_empty(), "no snapshot written");
    for threads in [4, 8] {
        let files = string_template_snapshots(&db, threads);
        assert_eq!(files.len(), reference.len(), "threads={threads}: snapshot count");
        for ((name, bytes), (expected_name, expected)) in files.iter().zip(&reference) {
            assert_eq!(name, expected_name, "threads={threads}");
            assert!(bytes == expected, "threads={threads}: {name} differs from the 1-thread run's");
        }
    }
}

/// The contents of the newest `n` snapshot files in `dir`, oldest first.
fn newest_snapshots(dir: &Path, n: usize) -> Vec<Vec<u8>> {
    let files = snapshot_files(dir);
    assert!(files.len() >= n, "{dir:?} holds {} snapshot files", files.len());
    files[files.len() - n..].iter().map(|(_, bytes)| bytes.clone()).collect()
}

#[test]
fn resumed_runs_write_the_uninterrupted_runs_snapshots() {
    // A resumed run's live memo meets strings and inserts entries in
    // another order than the uninterrupted run's did; its snapshots must
    // not show it. Resuming at `after-profiling` rewrites that boundary,
    // so its generation numbers run one ahead: files are compared by
    // position, not by name.
    let db = tpch();
    let base = fresh_dir("resume-identity-base");
    generate(&db, config(1, Some(CheckpointConfig { dir: base.clone(), every: 1 })));
    let expected = newest_snapshots(&base, 2);
    let _ = std::fs::remove_dir_all(&base);
    for point in KILL_POINTS {
        let dir = fresh_dir(&format!("resume-identity-{point}"));
        let checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 1 });
        generate_killed(&db, config(4, checkpoint.clone()), point);
        resume(&db, config(4, checkpoint), &dir);
        let got = newest_snapshots(&dir, 2);
        for (position, (got, expected)) in got.iter().zip(&expected).enumerate() {
            assert!(
                got == expected,
                "kill={point}: file {position} of the newest two differs from the \
                 uninterrupted run's"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_snapshot_resumes_at_any_thread_count() {
    let db = tpch();
    let baseline = generate(&db, config(1, None));
    for (written, resumed) in [(4, 1), (1, 8)] {
        let dir = fresh_dir(&format!("rethread-{written}-{resumed}"));
        let checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 1 });
        generate_killed(&db, config(written, checkpoint.clone()), "mid-search");
        let report = resume(&db, config(resumed, checkpoint), &dir);
        let tag = format!("written at {written} threads, resumed at {resumed}");
        assert_identical(&baseline, &report, &tag);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_latest_generation_falls_back_and_stays_identical() {
    let db = tpch();
    let baseline = generate(&db, config(1, None));

    // Bit-flip in the payload: the CRC rejects the newest generation and
    // the resume replays more of the pipeline from the previous one —
    // with identical results, because the pipeline is deterministic.
    let dir = fresh_dir("bitflip");
    let checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 1 });
    generate_killed(&db, config(1, checkpoint.clone()), "after-search");
    let victim = newest_generation(&dir);
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();
    let resumed = resume(&db, config(1, checkpoint), &dir);
    assert_identical(&baseline, &resumed, "bit-flipped latest generation");
    let _ = std::fs::remove_dir_all(&dir);

    // Truncation: same fallback, same bits.
    let dir = fresh_dir("truncate");
    let checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 1 });
    generate_killed(&db, config(1, checkpoint.clone()), "after-search");
    let victim = newest_generation(&dir);
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let resumed = resume(&db, config(1, checkpoint), &dir);
    assert_identical(&baseline, &resumed, "truncated latest generation");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_mismatched_configuration() {
    let db = tpch();
    let dir = fresh_dir("fingerprint");
    let checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 1 });
    generate_killed(&db, config(1, checkpoint.clone()), "after-profiling");

    // Different seed → different fingerprint → typed refusal.
    let mut other = config(1, checkpoint);
    other.seed ^= 1;
    let err = SqlBarber::new(&db, other)
        .resume(&dir, &target(), CostType::Cardinality)
        .expect_err("mismatched config must be refused");
    assert!(matches!(err, GenerateError::Checkpoint(_)), "{err}");
    assert!(err.to_string().contains("fingerprint"), "unhelpful: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_run_keeps_checkpointing() {
    // A resumed run continues the generation sequence in the same
    // directory, so a second crash still has fresh snapshots to land on.
    let db = tpch();
    let dir = fresh_dir("continues");
    let checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 1 });
    generate_killed(&db, config(1, checkpoint.clone()), "after-profiling");
    let before = newest_generation(&dir);
    let _ = resume(&db, config(1, checkpoint), &dir);
    let after = newest_generation(&dir);
    assert!(after > before, "resume wrote no new generations: {after:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume from a snapshot that decodes and matches the run's fingerprint
/// but holds state the run cannot use: the newest snapshot of a run
/// killed at `point`, changed by `corrupt` and stored as a new
/// generation. Returns the resume error; resume must not panic.
fn resume_corrupted(point: &str, tag: &str, corrupt: impl FnOnce(&mut Snapshot)) -> String {
    let db = tpch();
    let dir = fresh_dir(tag);
    let checkpoint = Some(CheckpointConfig { dir: dir.clone(), every: 1 });
    generate_killed(&db, config(1, checkpoint.clone()), point);
    let mut snapshot = CheckpointDir::load_latest(&dir).expect("snapshot loads");
    corrupt(&mut snapshot);
    CheckpointDir::open(&dir).unwrap().store(&snapshot).unwrap();
    let err = SqlBarber::new(&db, config(1, checkpoint))
        .resume(&dir, &target(), CostType::Cardinality)
        .expect_err("an inconsistent snapshot must be refused");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(matches!(err, GenerateError::Checkpoint(_)), "{err}");
    err.to_string()
}

fn mid_search(snapshot: &mut Snapshot) -> &mut SchedState {
    match &mut snapshot.phase {
        PhaseState::MidSearch { sched, .. } => sched,
        other => panic!("expected a mid-search snapshot, got {}", other.name()),
    }
}

#[test]
fn resume_refuses_mid_search_counts_shorter_than_the_target() {
    let err = resume_corrupted("mid-search", "short-d", |s| {
        mid_search(s).accepted.d.pop();
    });
    assert!(err.contains("4 intervals, the target has 5"), "{err}");
}

#[test]
fn resume_refuses_an_exhausted_round_counter() {
    let err = resume_corrupted("mid-search", "round-max", |s| {
        mid_search(s).next_round = u64::MAX;
    });
    assert!(err.contains("no scheduler round"), "{err}");
}

#[test]
fn resume_refuses_an_after_search_distribution_shorter_than_the_target() {
    let err = resume_corrupted("after-search", "short-distribution", |s| match &mut s.phase {
        PhaseState::AfterSearch { result, .. } => {
            result.distribution.pop();
        }
        other => panic!("expected an after-search snapshot, got {}", other.name()),
    });
    assert!(err.contains("4 intervals, the target has 5"), "{err}");
}

#[test]
fn resume_refuses_an_evaluation_point_shorter_than_its_space() {
    let err = resume_corrupted("after-profiling", "short-point", |s| {
        let TemplatePool::Profiled(states) = &mut s.pool else {
            panic!("expected a profiled pool");
        };
        let (point, _) = states
            .iter_mut()
            .flat_map(|state| &mut state.evaluations)
            .find(|(point, _)| !point.is_empty())
            .expect("some template has placeholders");
        point.pop();
    });
    assert!(err.contains("coordinates"), "{err}");
}
