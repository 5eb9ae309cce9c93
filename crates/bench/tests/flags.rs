//! The flag front end of both binaries (`sqlbarber::cli`): totality of
//! the parser and the pipeline builder over hostile argv, and the
//! `figures` usage errors, driven through the real executable.

use proptest::prelude::*;
use sqlbarber::amplify::{MAX_BATCH, MAX_LANES};
use sqlbarber::cli::{
    pipeline_config, Flags, COMMON_FLAGS, EXPLAIN_FLAGS, GENERATE_FLAGS, SCHEMA_FLAGS,
};
use sqlbarber::oracle::MAX_THREADS;
use sqlbarber_bench::{HarnessConfig, FIGURES_FLAGS};
use std::path::PathBuf;
use std::process::Command;

/// Every flag either binary accepts, junk tokens, and values at and past
/// the edges: `NaN`, `-1`, `u64::MAX`, paths under a missing directory.
fn tokens() -> Vec<String> {
    let tables = [COMMON_FLAGS, GENERATE_FLAGS, SCHEMA_FLAGS, EXPLAIN_FLAGS, FIGURES_FLAGS];
    let flags = tables.iter().flat_map(|t| t.iter()).map(|(name, _)| name.to_string());
    // `|`-separated, so that the empty token and one with a space are in.
    let junk = "|-|--|-x|--bogus|--threads=4|fig5|table1|NaN|nan|-1|-0|0|1|7|0.5|1e309|inf|abc\
                |18446744073709551615|18446744073709551616|/nonexistent/dir/x|ck|mid-search\
                |tables=2 joins=1";
    flags.chain(junk.split('|').map(str::to_string)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any argv over both binaries' tables parses and builds to `Ok` or
    /// `Err(String)`, never a panic; what builds respects every cap.
    #[test]
    fn parser_and_builder_are_total(argv in prop::collection::vec(prop::sample::select(tokens()), 0..10)) {
        let generate = Flags::parse(&argv, &[COMMON_FLAGS, GENERATE_FLAGS]);
        let _ = Flags::parse(&argv, &[COMMON_FLAGS, SCHEMA_FLAGS]);
        let _ = Flags::parse(&argv, &[COMMON_FLAGS, EXPLAIN_FLAGS]);
        if let Ok(flags) = generate {
            if let Ok(config) = pipeline_config(&flags, 42, Some(PathBuf::from("wl.amplified.sql"))) {
                prop_assert!(config.threads <= MAX_THREADS);
                let amplify = config.amplify.unwrap_or_default();
                prop_assert!(amplify.shards <= MAX_LANES && amplify.batch <= MAX_BATCH);
                prop_assert!((0.0..=1.0).contains(&config.transport.p_timeout));
            }
        }
        if let Ok((harness, _)) = HarnessConfig::from_args(&argv) {
            prop_assert!(harness.sqlbarber.checkpoint.is_none());
            prop_assert_eq!(harness.sqlbarber.seed, harness.seed);
        }
    }
}

/// `figures` with `args`, run in (and then clearing) a scratch directory
/// named by `test`: (exit code, stdout, stderr).
fn figures(test: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let dir = std::env::temp_dir().join(format!("figures_cli_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_figures")).args(args).current_dir(&dir).output();
    std::fs::remove_dir_all(&dir).ok();
    let out = out.unwrap();
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn figures_refuses_bad_flags_before_building_a_database() {
    for (args, message) in [
        (&["fig7", "--checkpoint-dir", "ck"][..], "unknown flag `--checkpoint-dir`"),
        (&["fig7", "--checkpoint-every", "2"][..], "unknown flag `--checkpoint-every`"),
        (&["fig7", "--resume", "ck"][..], "unknown flag `--resume`"),
        (&["table2", "--transport-faults", "NaN"][..], "--transport-faults must be in [0, 1]"),
        (&["table2", "--transport-faults", "7"][..], "--transport-faults must be in [0, 1]"),
        (
            &["table2", "--amplify", "10", "--amplify-out", "/nonexistent/dir/amplified.sql"][..],
            "parent directory /nonexistent/dir does not exist",
        ),
        (&["table2", "--amplify-batch", "64"][..], "unknown flag `--amplify-batch`"),
        (&["fig7", "--kill-at", "mid-search"][..], "unknown flag `--kill-at`"),
    ] {
        let (code, stdout, stderr) = figures("usage", &[&["--quick"][..], args].concat());
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        // Each target prints its title before it builds a database.
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}

#[test]
fn figures_refuses_an_argument_that_is_not_utf8() {
    use std::os::unix::ffi::OsStrExt;
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg(std::ffi::OsStr::from_bytes(b"fig\xff"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("argument `fig\u{fffd}` is not valid UTF-8"), "{err}");
}

#[test]
fn figures_runs_a_target_that_builds_no_database() {
    let (code, stdout, stderr) = figures("table1", &["table1", "--threads", "1"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("Table 1: Overview of Benchmarks"), "{stdout}");
}

#[test]
fn figures_with_a_closed_stderr_keeps_its_exit_status() {
    // As in `figures … 2>&1 | head -1`: the error line meets a broken
    // pipe, which is no panic (exit 101); the usage status stands.
    for args in [&["bogus-target"][..], &["fig7", "--resume", "ck"][..]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stderr.take());
        assert_eq!(child.wait().unwrap().code(), Some(2), "{args:?}");
    }
}
