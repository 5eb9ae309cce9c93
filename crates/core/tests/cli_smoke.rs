//! Smoke tests for the `sqlbarber` CLI binary, driven through the real
//! executable (the adoption surface a downstream user touches first).

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sqlbarber"))
}

#[test]
fn help_prints_usage() {
    let out = cli().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("generate"));
    assert!(text.contains("--benchmark"));
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn removed_escape_hatch_flags_are_usage_errors() {
    // The removed prepared-plan and columnar escape hatches: an old
    // script passing one must fail loudly instead of having it swallow
    // the next argument (`--threads` here) as its value.
    for hatch in ["prepared", "columnar"] {
        let flag = format!("--no-{hatch}");
        let out = cli()
            .args(["generate", &flag, "--threads", "4", "--out", "unused"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    }
}

#[test]
fn misspelled_flags_are_usage_errors() {
    for args in [
        &["generate", "--thread", "4"][..],
        &["schema", "--bogus-flag", "7"][..],
        &["explain", "--sql", "SELECT 1", "--analyse"][..],
    ] {
        let out = cli().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
}

#[test]
fn degenerate_target_flags_are_usage_errors() {
    // Each is rejected before the database loads, with a message naming
    // the flag, instead of panicking (exit 101).
    for (flags, message) in [
        (&["--queries", "0"][..], "--queries must be at least 1"),
        (&["--intervals", "0"][..], "--intervals must be at least 1"),
        (&["--range", "5000", "0"][..], "--range needs finite bounds"),
        (&["--range", "0", "nan"][..], "--range needs finite bounds"),
    ] {
        let out = cli()
            .arg("generate")
            .args(flags)
            .args(["--out", "unused"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{flags:?}: {err}");
        assert!(!err.contains("loading database"), "{flags:?}: {err}");
    }
}

#[test]
fn every_generate_flag_is_checked_before_the_database_loads() {
    // IMDB takes seconds to build; a bad flag must not wait for it.
    for flags in [
        &["--cost-type", "bogus"][..],
        &["--distribution", "bogus"][..],
        &["--samples", "/nonexistent/costs.txt"][..],
        &["--threads", "-1"][..],
        &["--amplify-batch", "x"][..],
        &["--retry-budget", "x"][..],
        &["--bo-rounds-concurrency", "x"][..],
        &["--amplify-shards", "x"][..],
    ] {
        let out = cli()
            .args(["generate", "--db", "imdb"])
            .args(flags)
            .args(["--out", "unused"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("loading database"), "{flags:?}: {err}");
    }
}

#[test]
fn explain_rejects_nesting_past_the_parser_limit() {
    let sql = format!("SELECT {}1{} FROM orders", "(".repeat(5000), ")".repeat(5000));
    let out = cli().args(["explain", "--scale", "0.001", "--sql", &sql]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("nesting exceeds the maximum depth of 64"), "{err}");
}

#[test]
fn non_positive_scale_is_a_usage_error() {
    // The generators would silently clamp these to their minimum sizes.
    for args in [
        &["generate", "--scale", "-1"][..],
        &["generate", "--scale", "nan"][..],
        &["schema", "--scale", "0"][..],
        &["explain", "--scale", "-0.5", "--sql", "SELECT 1"][..],
    ] {
        let out = cli().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--scale must be a positive finite number"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn nan_samples_fall_inside_no_interval() {
    let dir = std::env::temp_dir().join(format!("sqlbarber_cli_nan_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let samples = dir.join("costs.txt");
    std::fs::write(&samples, "nan\nNaN\n").unwrap();
    let out = cli()
        .args([
            "generate",
            "--scale",
            "0.001",
            "--samples",
            samples.to_str().unwrap(),
        ])
        .args(["--out", dir.join("wl").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("falls inside the target range"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn schema_lists_tpch_tables() {
    let out = cli().args(["schema", "--scale", "0.001"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table lineitem"));
    assert!(text.contains("Foreign keys:"));
}

#[test]
fn explain_renders_a_plan_and_analyze_runs_it() {
    let out = cli()
        .args([
            "explain",
            "--scale",
            "0.001",
            "--sql",
            "SELECT COUNT(*) FROM orders WHERE orders.o_totalprice > 1000",
            "--analyze",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Aggregate"), "{text}");
    assert!(text.contains("Actual: rows="), "{text}");
}

#[test]
fn explain_surfaces_server_errors() {
    let out = cli()
        .args(["explain", "--scale", "0.001", "--sql", "SELECT * FROM ghosts"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("relation \"ghosts\" does not exist"), "{err}");
}

#[test]
fn generate_writes_sql_and_manifest() {
    let dir = std::env::temp_dir().join(format!("sqlbarber_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = dir.join("wl");
    let out = cli()
        .args([
            "generate",
            "--scale",
            "0.001",
            "--queries",
            "40",
            "--intervals",
            "4",
            "--range",
            "0",
            "3000",
            "--spec",
            "tables=1 joins=0; have two predicate values",
            "--out",
            prefix.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sql = std::fs::read_to_string(format!("{}.sql", prefix.display())).unwrap();
    assert!(sql.contains("SELECT"), "{sql}");
    let manifest: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(format!("{}.json", prefix.display())).unwrap(),
    )
    .unwrap();
    assert!(manifest["queries"].as_array().unwrap().len() >= 30);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_from_samples_file() {
    let dir = std::env::temp_dir().join(format!("sqlbarber_cli_s_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let samples = dir.join("costs.txt");
    std::fs::write(&samples, "100\n200\n250\n2400\n2600\n").unwrap();
    let prefix = dir.join("wl");
    let out = cli()
        .args([
            "generate",
            "--scale",
            "0.001",
            "--queries",
            "30",
            "--intervals",
            "3",
            "--range",
            "0",
            "3000",
            "--samples",
            samples.to_str().unwrap(),
            "--spec",
            "tables=1 joins=0",
            "--out",
            prefix.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(format!("{}.json", prefix.display())).unwrap(),
    )
    .unwrap();
    // 3/5 samples in interval 0, 0 in interval 1, 2/5 in interval 2
    let target = manifest["target_counts"].as_array().unwrap();
    assert_eq!(target[0], 18.0);
    assert_eq!(target[1], 0.0);
    assert_eq!(target[2], 12.0);
    std::fs::remove_dir_all(&dir).ok();
}
