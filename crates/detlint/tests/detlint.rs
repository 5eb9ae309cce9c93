//! Fixture-corpus tests (pin the exact diagnostics each rule produces)
//! and the workspace self-check (the tree must be detlint-clean with
//! every suppression used).

use detlint::{analyze_source, analyze_workspace, Config, RuleId};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn fixtures_report_exactly_the_expected_findings() {
    let dir = fixture_dir();
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixture dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
        .collect();
    fixtures.sort();
    assert!(!fixtures.is_empty(), "no fixtures in {}", dir.display());

    let cfg = Config::at_root(".");
    for path in fixtures {
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let source = std::fs::read_to_string(&path).unwrap();
        // A neutral first-party-looking path: no R2 exemption applies.
        let rel = format!("crates/fixture/src/{name}");
        let (findings, _) = analyze_source(&rel, &source, &cfg);
        let got: Vec<String> = findings.iter().map(|f| format!("{} {}", f.line, f.rule)).collect();

        let expected_path = path.with_extension("expected");
        let expected_text = std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|_| panic!("missing {}", expected_path.display()));
        let expected: Vec<String> = expected_text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        assert_eq!(got, expected, "fixture {name} diverged");
    }
}

#[test]
fn suppression_without_reason_is_an_error() {
    let cfg = Config::at_root(".");
    let src = "// detlint::allow(ambient_nondet)\nlet t = std::time::Instant::now();\n";
    let (findings, suppressions) = analyze_source("crates/x/src/lib.rs", src, &cfg);
    assert!(suppressions.is_empty(), "reason-less directive must be rejected");
    let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&RuleId::Suppression), "expected S0 in {findings:?}");
    assert!(
        rules.contains(&RuleId::AmbientNondet),
        "a rejected directive must not suppress the finding below it"
    );
}

#[test]
fn suppression_reason_is_recorded_in_the_inventory() {
    let cfg = Config::at_root(".");
    let src = "// detlint::allow(ambient_nondet): timer is reporting-only\n\
               let t = std::time::Instant::now();\n";
    let (findings, suppressions) = analyze_source("crates/x/src/lib.rs", src, &cfg);
    assert!(findings.is_empty(), "suppressed: {findings:?}");
    assert_eq!(suppressions.len(), 1);
    assert_eq!(suppressions[0].reason, "timer is reporting-only");
    assert!(suppressions[0].used);
}

#[test]
fn rooting_at_the_fixture_corpus_scans_it_directly_and_finds_problems() {
    // `check --root <dir>` where <dir> has no crates/examples/tests
    // subdirectories falls back to scanning <dir> itself — so pointing
    // the CLI at the fixture corpus demonstrably exits nonzero.
    let cfg = Config::at_root(fixture_dir());
    let report = analyze_workspace(&cfg).expect("fixture scan succeeds");
    assert!(report.files_scanned >= 6, "scanned {} fixtures", report.files_scanned);
    assert!(!report.clean(), "the fixture corpus must produce findings");
}

#[test]
fn empty_root_is_an_error_not_a_clean_report() {
    let dir = std::env::temp_dir().join("detlint-empty-root-test");
    std::fs::create_dir_all(&dir).unwrap();
    let err = analyze_workspace(&Config::at_root(&dir))
        .expect_err("a root with no .rs files must not report clean");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
}

#[test]
fn stale_suppressions_exit_nonzero_and_are_marked() {
    // The fixture corpus contains a directive that suppresses nothing
    // (`suppressions.rs` line 10), so `suppressions --stale` rooted
    // there must list it as STALE and fail; the real workspace must
    // pass the same gate.
    let exe = env!("CARGO_BIN_EXE_detlint");
    let out = std::process::Command::new(exe)
        .arg("suppressions")
        .arg("--root")
        .arg(fixture_dir())
        .arg("--stale")
        .output()
        .expect("detlint runs");
    assert!(!out.status.success(), "stale directives must fail the gate");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("STALE"), "expected a STALE marker in:\n{text}");

    let clean = std::process::Command::new(exe)
        .arg("suppressions")
        .arg("--root")
        .arg(workspace_root())
        .arg("--stale")
        .output()
        .expect("detlint runs");
    assert!(
        clean.status.success(),
        "workspace has stale suppressions:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );
}

#[test]
fn a_seeded_lock_order_reversal_turns_the_clean_tree_dirty() {
    // Lint an in-memory copy of the real tree with one mutation: a
    // function that acquires `templates` while holding `memo`. The clean
    // workspace must go dirty with a lock_order finding — proving R6
    // catches exactly the nesting the runtime tracker panics on
    // (`out_of_order_nesting_trips_the_tracker` is the dynamic half).
    let cfg = Config::at_root(workspace_root());
    let mut sources = detlint::workspace_sources(&cfg).expect("tree loads");
    let oracle = sources
        .iter_mut()
        .find(|(p, _)| p.ends_with("core/src/oracle.rs"))
        .expect("oracle.rs is part of the scan set");
    oracle.1.push_str(
        "\nstruct SeededRegression {\n\
         \x20   templates: Mutex<u32>,\n\
         \x20   memo: Mutex<u32>,\n\
         }\n\
         \n\
         impl SeededRegression {\n\
         \x20   fn regress(&self) {\n\
         \x20       let m = self.memo.lock();\n\
         \x20       let _t = self.templates.lock();\n\
         \x20       drop(m);\n\
         \x20   }\n\
         }\n",
    );
    let report = detlint::analyze_sources(&sources, &cfg);
    let hit = report.findings.iter().any(|f| {
        f.rule == RuleId::LockOrder
            && f.file.ends_with("oracle.rs")
            && f.message.contains("acquires lock class `templates` while holding `memo`")
    });
    assert!(hit, "seeded reversal was not caught:\n{}", detlint::render_human(&report));
}

#[test]
fn a_method_call_resolves_only_into_crates_the_caller_depends_on() {
    // `cursor.add(1)` in `pool` names the same method as the locking
    // `Loader::add` in `loader`. It may resolve there, and report the
    // nesting under `slots`, only once `pool` depends on `loader`.
    let loader = "use std::sync::Mutex;\n\
                  pub struct Loader { queue: Mutex<u32> }\n\
                  impl Loader {\n\
                  \x20   pub fn add(&self, n: u32) {\n\
                  \x20       *self.queue.lock().unwrap() += n;\n\
                  \x20   }\n\
                  }\n";
    let pool = "use std::sync::Mutex;\n\
                pub struct Pool { slots: Mutex<u32> }\n\
                impl Pool {\n\
                \x20   pub fn fill(&self, cursor: Cursor) {\n\
                \x20       let held = self.slots.lock().unwrap();\n\
                \x20       cursor.add(1);\n\
                \x20       drop(held);\n\
                \x20   }\n\
                }\n";
    let nestings = |pool_dependencies: &str| {
        let files = [
            ("Cargo.toml", "[workspace.dependencies]\nloader = { path = \"crates/loader\" }\n"),
            ("crates/loader/Cargo.toml", "[package]\nname = \"loader\"\n"),
            ("crates/loader/src/lib.rs", loader),
            (
                "crates/pool/Cargo.toml",
                &format!("[package]\nname = \"pool\"\n\n{pool_dependencies}"),
            ),
            ("crates/pool/src/lib.rs", pool),
        ]
        .map(|(path, text)| (path.to_string(), text.to_string()));
        let report = detlint::analyze_sources(&files, &Config::at_root("."));
        report.findings.iter().filter(|f| f.rule == RuleId::LockOrder).count()
    };
    assert_eq!(nestings("[dependencies]\n"), 0);
    assert_eq!(nestings("[dependencies]\nloader.workspace = true\n"), 1);
    assert_eq!(nestings("[dev-dependencies]\nloader = { path = \"../loader\" }\n"), 1);
}

#[test]
fn workspace_is_detlint_clean() {
    let cfg = Config::at_root(workspace_root());
    let report = analyze_workspace(&cfg).expect("workspace scan succeeds");
    assert!(report.clean(), "workspace has detlint findings:\n{}", detlint::render_human(&report));
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — walk roots broken?",
        report.files_scanned
    );
    // `clean()` already implies no unused suppressions (they surface as
    // S0 findings), but assert the inventory invariant directly too.
    for s in &report.suppressions {
        assert!(s.used, "unused suppression at {}:{}", s.file, s.line);
        assert!(!s.reason.is_empty(), "empty reason at {}:{}", s.file, s.line);
    }
}
