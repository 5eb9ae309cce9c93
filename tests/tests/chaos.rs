//! Chaos suite: the full pipeline under LLM transport-fault storms.
//!
//! Three fault rates (0%, 15%, 50%) plus a correlated burst-outage
//! scenario. At every rate the pipeline must terminate, never panic,
//! produce a valid [`GenerationReport`], and stay bit-identical for a
//! fixed seed at 1 and 4 oracle threads — LLM traffic is strictly
//! sequential, so worker threads can never observe (or perturb) the
//! transport's fault draws or the retry layer's jitter.
//!
//! The CI chaos job runs these by name (`storm_rate_*`) at each rate.

use llm::{RetryPolicy, TransportFaultConfig};
use sqlbarber::cost::CostType;
use sqlbarber::{GenerationReport, SqlBarber, SqlBarberConfig};
use workload::redset::redset_template_specs;
use workload::{CostIntervals, TargetDistribution};

fn tpch() -> minidb::Database {
    minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
}

fn run_with(
    db: &minidb::Database,
    transport: TransportFaultConfig,
    retry: RetryPolicy,
    threads: usize,
) -> GenerationReport {
    let target = TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), 80);
    let specs = redset_template_specs(3);
    let config = SqlBarberConfig { threads, transport, retry, ..SqlBarberConfig::fast_test() };
    let mut barber = SqlBarber::new(db, config);
    barber
        .generate(&specs[..6], &target, CostType::Cardinality)
        .expect("pipeline must degrade gracefully, not abort")
}

fn run_at_rate(db: &minidb::Database, rate: f64, threads: usize) -> GenerationReport {
    run_with(db, TransportFaultConfig::uniform(rate), RetryPolicy::default(), threads)
}

/// Exact (SQL, cost-bits) fingerprint of the generated workload.
fn flatten(r: &GenerationReport) -> Vec<(String, u64)> {
    r.queries.iter().map(|q| (q.sql.clone(), q.cost.to_bits())).collect()
}

fn assert_report_valid(report: &GenerationReport) {
    assert!(!report.queries.is_empty(), "no queries generated");
    assert!(report.final_distance.is_finite());
    assert!(report.n_seed_templates > 0);
    assert!(report.llm_usage.requests > 0);
    for query in &report.queries {
        assert!(query.cost.is_finite(), "non-finite cost in {}", query.sql);
    }
    // The manifest must serialize whatever the storm left behind.
    let dir = std::env::temp_dir().join(format!(
        "sqlbarber-chaos-{}-{}",
        std::process::id(),
        report.queries.len()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("manifest.json");
    report.write_manifest(&path).expect("manifest writes cleanly");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"resilience\""));
    assert!(text.contains("\"degradation\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn storm_rate_00_is_invisible() {
    let db = tpch();
    // A zero-rate injector and an explicitly disabled one must be
    // byte-for-byte identical: the wrapper draws from its own RNG, never
    // the model's.
    let zero = run_at_rate(&db, 0.0, 1);
    let none = run_with(&db, TransportFaultConfig::none(), RetryPolicy::default(), 1);
    assert_eq!(flatten(&zero), flatten(&none), "rate-0 faults changed the workload");
    assert_eq!(zero.final_distance.to_bits(), none.final_distance.to_bits());
    assert!(zero.resilience.is_quiet(), "resilience fired on a healthy transport");
    assert!(zero.degradation.is_quiet(), "degradation counted on a healthy transport");
    assert_eq!(zero.resilience.calls, zero.resilience.attempts);
    assert_report_valid(&zero);
}

#[test]
fn storm_rate_15_recovers_via_retries() {
    let db = tpch();
    let report = run_at_rate(&db, 0.15, 1);
    assert_report_valid(&report);
    assert!(report.resilience.failures > 0, "15% storm injected nothing");
    assert!(report.resilience.retries > 0, "no retries at 15% faults");
    assert!(
        report.resilience.recoveries > 0,
        "retries never recovered a call: {:?}",
        report.resilience
    );
    assert!(report.resilience.attempts > report.resilience.calls);
}

#[test]
fn storm_rate_50_degrades_gracefully() {
    let db = tpch();
    let report = run_at_rate(&db, 0.5, 1);
    assert_report_valid(&report);
    assert!(report.resilience.failures > 0);
    assert!(report.resilience.retries > 0);
    // At 50% per-attempt loss some calls exhaust their attempts: the
    // pipeline absorbs those as degradation instead of aborting.
    assert!(
        report.resilience.giveups > 0,
        "expected surfaced failures at 50%: {:?}",
        report.resilience
    );
    assert!(
        !report.degradation.is_quiet(),
        "giveups must surface as degradation: {:?}",
        report.degradation
    );
    assert_eq!(
        report.degradation.llm_failures, report.resilience.giveups,
        "every surfaced failure must be accounted exactly once"
    );
}

#[test]
fn storms_are_bit_identical_across_thread_counts() {
    let db = tpch();
    for rate in [0.15, 0.5] {
        let serial = run_at_rate(&db, rate, 1);
        let parallel = run_at_rate(&db, rate, 4);
        assert_eq!(
            flatten(&serial),
            flatten(&parallel),
            "rate {rate}: workloads diverged across thread counts"
        );
        assert_eq!(
            serial.final_distance.to_bits(),
            parallel.final_distance.to_bits(),
            "rate {rate}: distance diverged"
        );
        assert_eq!(
            serial.resilience, parallel.resilience,
            "rate {rate}: resilience counters diverged — LLM traffic leaked into \
             the parallel section"
        );
        assert_eq!(serial.degradation, parallel.degradation, "rate {rate}");
        assert_eq!(serial.skipped_intervals, parallel.skipped_intervals);
    }
}

#[test]
fn burst_outages_trip_the_breaker_and_the_run_survives() {
    let db = tpch();
    // Burst-heavy weather: few independent faults, frequent long
    // correlated outages — the scenario the circuit breaker exists for.
    let transport = TransportFaultConfig {
        p_timeout: 0.02,
        p_rate_limit: 0.02,
        p_truncate: 0.0,
        p_server_error: 0.02,
        p_burst_start: 0.08,
        burst_len: (6, 12),
        retry_after_ms: (100, 400),
    };
    // A short cooldown keeps the virtual-clock run brisk while still
    // exercising open → half-open → closed transitions.
    let retry =
        RetryPolicy { breaker_threshold: 4, breaker_cooldown_ms: 500, ..RetryPolicy::default() };
    let report = run_with(&db, transport, retry, 1);
    assert_report_valid(&report);
    assert!(
        report.resilience.breaker_trips > 0,
        "bursts never tripped the breaker: {:?}",
        report.resilience
    );
    assert!(
        report.resilience.breaker_probes > 0,
        "breaker never recovered via a half-open probe: {:?}",
        report.resilience
    );

    // Same weather with the breaker disabled: still terminates, still
    // valid, rides the bursts out with retries alone.
    let no_breaker = RetryPolicy { breaker_enabled: false, ..RetryPolicy::default() };
    let report = run_with(&db, transport, no_breaker, 1);
    assert_report_valid(&report);
    assert_eq!(report.resilience.breaker_trips, 0);
    assert_eq!(report.resilience.circuit_rejections, 0);
}

#[test]
fn storm_survives_a_mid_run_kill_and_resume() {
    // Crash-safety under weather: kill the pipeline mid-search during a
    // 15% transport-fault storm, resume from the on-disk snapshot, and
    // demand the exact uninterrupted outcome — including the resilience
    // and degradation ledgers, which only match if the checkpoint
    // captured the full LLM stack state (fault RNG positions, breaker,
    // virtual clock, injected-fault counters) bit for bit.
    let db = tpch();
    let baseline = run_at_rate(&db, 0.15, 1);

    let dir = std::env::temp_dir().join(format!("sqlbarber-chaos-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let target = TargetDistribution::uniform(CostIntervals::new(0.0, 5000.0, 5), 80);
    let specs = redset_template_specs(3);
    let mut config = SqlBarberConfig {
        threads: 1,
        transport: TransportFaultConfig::uniform(0.15),
        ..SqlBarberConfig::fast_test()
    };
    config.checkpoint = Some(sqlbarber::CheckpointConfig { dir: dir.clone(), every: 1 });
    let err = SqlBarber::new(&db, config.clone())
        .with_kill_switch(sqlbarber::KillSwitch::parse("mid-search").unwrap())
        .generate(&specs[..6], &target, CostType::Cardinality)
        .expect_err("armed kill switch must abort the run");
    assert!(matches!(err, sqlbarber::GenerateError::Killed(_)), "{err}");

    let resumed = SqlBarber::new(&db, config)
        .resume(&dir, &target, CostType::Cardinality)
        .expect("resume under storm succeeds");
    assert_eq!(flatten(&baseline), flatten(&resumed), "workload diverged");
    assert_eq!(baseline.final_distance.to_bits(), resumed.final_distance.to_bits());
    assert_eq!(
        baseline.resilience, resumed.resilience,
        "resilience ledger diverged — the snapshot lost LLM stack state"
    );
    assert_eq!(
        baseline.degradation, resumed.degradation,
        "degradation ledger diverged across kill/resume"
    );
    assert!(baseline.resilience.failures > 0, "the storm never fired; this test proved nothing");
    assert_report_valid(&resumed);
    let _ = std::fs::remove_dir_all(&dir);
}
