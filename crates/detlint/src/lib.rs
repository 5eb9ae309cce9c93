//! detlint — workspace-native static analysis for determinism and
//! unsafe-soundness invariants.
//!
//! Every artifact this workspace produces is guaranteed bit-identical at
//! any `--threads N`. That guarantee is enforced dynamically by the
//! thread-matrix determinism suites — and statically by this tool, which
//! walks every first-party `.rs` file and reports sites that could
//! reintroduce nondeterminism:
//!
//! * **R1 `unordered_iter`** — iterating `HashMap`/`HashSet` (or
//!   collecting/formatting them into ordered output).
//! * **R2 `ambient_nondet`** — `Instant::now`, `SystemTime::now`,
//!   `thread_rng`, `from_entropy`, `RandomState`/`DefaultHasher`,
//!   `thread::current` outside the injectable-Clock/bench modules.
//! * **R3 `undocumented_unsafe`** — `unsafe` without `// SAFETY:`.
//! * **R4 `float_ordering`** — sort-family comparators built on
//!   `partial_cmp` instead of `total_cmp`.
//! * **R5 `silent_swallow`** — `unwrap_or`/`unwrap_or_default` on parse
//!   paths that should route through typed `Malformed` accounting.
//!
//! Escape hatches are explicit and audited: a preceding-line
//! `detlint::allow` comment — the rule name in parentheses, then a colon
//! and a mandatory reason — suppresses one finding within the next three
//! lines, and every
//! directive appears in the report's suppression inventory (unused
//! directives are themselves findings).
//!
//! detlint is deliberately hermetic: no `syn`, no serde — a token/line
//! scanner (see [`scan`]) that builds offline like everything else here.

mod checks;
mod hot_alloc;
mod lock_order;
pub mod parse;
mod report;
pub mod rules;
pub mod scan;
mod seed_prov;
pub mod workspace;

pub use report::{render_human, render_json, render_sarif};
pub use rules::{RuleId, ALL_RULES};

use std::path::{Path, PathBuf};

/// Analysis configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root; relative diagnostics are reported against it.
    pub root: PathBuf,
    /// First-party directories to walk, relative to `root`.
    pub roots: Vec<String>,
    /// Directory names skipped anywhere in the walk.
    pub skip_dir_names: Vec<String>,
    /// Enabled rules (disabled rules report nothing and their
    /// suppressions count as unused only if the meta-rule is enabled).
    pub enabled: Vec<RuleId>,
    /// Path prefixes (relative, `/`-separated) exempt from R2 — the
    /// modules whose *purpose* is ambient time: the injectable Clock's
    /// production implementation and the wall-clock benchmark harness.
    pub ambient_allow: Vec<String>,
}

impl Config {
    /// Default configuration rooted at `root`: scan `crates/`,
    /// `examples/`, and `tests/`; all rules on; benches exempt from R2.
    pub fn at_root(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            roots: vec!["crates".into(), "examples".into(), "tests".into()],
            skip_dir_names: vec!["fixtures".into(), "target".into()],
            enabled: ALL_RULES.to_vec(),
            ambient_allow: vec!["crates/bench/".into()],
        }
    }

    pub(crate) fn rule_enabled(&self, rule: RuleId) -> bool {
        self.enabled.contains(&rule)
    }

    /// Disable one rule.
    pub fn disable(&mut self, rule: RuleId) {
        self.enabled.retain(|r| *r != rule);
    }

    /// Keep only the listed rules (plus the suppression meta-rule, which
    /// audits directives for whatever remains enabled).
    pub fn only(&mut self, rules: &[RuleId]) {
        self.enabled.retain(|r| rules.contains(r) || *r == RuleId::Suppression);
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: RuleId,
    pub message: String,
    /// Trimmed source line the finding points at.
    pub snippet: String,
}

/// One `detlint::allow` directive (the audited escape hatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressionEntry {
    pub file: String,
    pub line: usize,
    pub rule: RuleId,
    pub reason: String,
    /// Whether the directive actually suppressed a finding.
    pub used: bool,
}

/// Full analysis result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub suppressions: Vec<SuppressionEntry>,
    pub files_scanned: usize,
}

impl Report {
    /// No findings at all (unused suppressions count as findings).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Analyze one file's source text. `rel_path` is used for diagnostics
/// and for path-scoped rule exemptions. A convenience wrapper over
/// [`analyze_sources`] — workspace passes (R6/R8) see exactly this one
/// file, which is what the fixture corpus wants.
pub fn analyze_source(
    rel_path: &str,
    source: &str,
    cfg: &Config,
) -> (Vec<Finding>, Vec<SuppressionEntry>) {
    let report = analyze_sources(&[(rel_path.to_string(), source.to_string())], cfg);
    (report.findings, report.suppressions)
}

/// Analyze a set of in-memory `(rel_path, source)` files as one
/// workspace (`Cargo.toml` entries are read as crate manifests for R6's
/// call resolution, not linted): per-file rules (R1–R5, R7), then the
/// cross-file passes (R6 lock nesting, R8 hot-alloc reachability), then
/// suppression application over everything. This is the whole pipeline —
/// [`analyze_workspace`] is just the file-reading front end — and it is
/// public so tests can lint a *mutated* copy of the workspace without
/// touching disk (e.g. seeding a nested lock acquisition and
/// asserting R6 catches it).
pub fn analyze_sources(files: &[(String, String)], cfg: &Config) -> Report {
    let (manifests, sources): (Vec<_>, Vec<_>) =
        files.iter().cloned().partition(|(path, _)| is_manifest(path));
    let units: Vec<workspace::Unit> = sources
        .iter()
        .map(|(path, source)| {
            let lines = scan::scan(source);
            let parsed = parse::parse(&lines);
            workspace::Unit {
                path: path.clone(),
                raw: source.lines().map(str::to_string).collect(),
                lines,
                parsed,
            }
        })
        .collect();
    let ws = workspace::Workspace::build(units, &manifests);

    let mut hash_fields = checks::HashFields::new();
    for unit in &ws.units {
        checks::collect_hash_fields(&unit.lines, &unit.parsed, &mut hash_fields);
    }
    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressions: Vec<SuppressionEntry> = Vec::new();
    for unit in &ws.units {
        suppressions.extend(checks::collect_suppressions(&unit.path, &unit.lines, &mut findings));
        checks::run_local_rules(unit, &hash_fields, cfg, &mut findings);
        if cfg.rule_enabled(RuleId::SeedProvenance) {
            seed_prov::check(unit, &mut findings);
        }
    }
    if cfg.rule_enabled(RuleId::LockOrder) {
        lock_order::check(&ws, &mut findings);
    }
    if cfg.rule_enabled(RuleId::HotAlloc) {
        hot_alloc::check(&ws, &mut findings);
    }

    // Deterministic order before suppression matching, so the same
    // directive always consumes the same finding.
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    apply_suppressions(&mut findings, &mut suppressions, cfg);

    // Snippets for anything the passes left blank.
    for f in &mut findings {
        if f.snippet.is_empty() {
            if let Some(unit) = ws.units.iter().find(|u| u.path == f.file) {
                f.snippet = unit
                    .raw
                    .get(f.line.wrapping_sub(1))
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default();
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    suppressions.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report { findings, suppressions, files_scanned: files.len() }
}

/// Consume findings covered by a reasoned `detlint::allow` directive in
/// the same file within reach, then report the directives that covered
/// nothing (an allow that suppresses nothing is stale and must be
/// removed — the inventory stays an exact census of real escape
/// hatches).
fn apply_suppressions(
    findings: &mut Vec<Finding>,
    suppressions: &mut [SuppressionEntry],
    cfg: &Config,
) {
    use checks::SUPPRESSION_REACH;
    findings.retain(|f| {
        if f.rule == RuleId::Suppression {
            return true;
        }
        for s in suppressions.iter_mut() {
            if s.used || s.rule != f.rule || s.file != f.file {
                continue;
            }
            let reaches =
                s.line == f.line || (s.line < f.line && f.line - s.line <= SUPPRESSION_REACH);
            if reaches {
                s.used = true;
                return false;
            }
        }
        true
    });
    if cfg.rule_enabled(RuleId::Suppression) {
        for s in suppressions.iter() {
            if !s.used {
                findings.push(Finding {
                    file: s.file.clone(),
                    line: s.line,
                    rule: RuleId::Suppression,
                    message: format!(
                        "unused suppression for `{}` (no matching finding within \
                         {SUPPRESSION_REACH} lines below); remove it",
                        s.rule
                    ),
                    snippet: String::new(),
                });
            }
        }
    }
}

/// Walk the configured roots and analyze every first-party `.rs` file.
/// File order (and therefore report order) is deterministic: directory
/// entries are visited in sorted order.
pub fn analyze_workspace(cfg: &Config) -> std::io::Result<Report> {
    Ok(analyze_sources(&workspace_sources(cfg)?, cfg))
}

/// The `(relative path, contents)` set `analyze_workspace` scans, crate
/// manifests included, exposed so tests can lint a deliberately mutated
/// copy of the real tree through [`analyze_sources`] without touching
/// the filesystem.
pub fn workspace_sources(cfg: &Config) -> std::io::Result<Vec<(String, String)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    for sub in &cfg.roots {
        let dir = cfg.root.join(sub);
        if dir.is_dir() {
            collect_files(&dir, &cfg.skip_dir_names, &mut files)?;
        }
    }
    let is_rs = |path: &PathBuf| path.extension().and_then(|e| e.to_str()) == Some("rs");
    if !files.iter().any(is_rs) && cfg.root.is_dir() {
        // A root with none of the configured subdirectories (e.g.
        // `--root` pointed straight at a fixture corpus) is scanned
        // directly rather than silently reported clean.
        files.clear();
        collect_files(&cfg.root, &cfg.skip_dir_names, &mut files)?;
    } else if cfg.root.join("Cargo.toml").is_file() {
        files.push(cfg.root.join("Cargo.toml"));
    }
    if !files.iter().any(is_rs) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no .rs files found under `{}`", cfg.root.display()),
        ));
    }
    files.sort();

    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in files {
        let source = std::fs::read_to_string(&path)?;
        sources.push((rel_path(&cfg.root, &path), source));
    }
    Ok(sources)
}

/// Whether `path` is a crate manifest: read for the crate dependency
/// graph behind R6's call resolution, not linted.
fn is_manifest(path: &str) -> bool {
    path == "Cargo.toml" || path.ends_with("/Cargo.toml")
}

/// Every `.rs` file and `Cargo.toml` under `dir`.
fn collect_files(dir: &Path, skip: &[String], out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if skip.iter().any(|s| s == name) {
                continue;
            }
            collect_files(&path, skip, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs")
            || path.file_name().and_then(|n| n.to_str()) == Some("Cargo.toml")
        {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(source: &str) -> Vec<(usize, RuleId)> {
        let cfg = Config::at_root(".");
        let (findings, _) = analyze_source("crates/x/src/lib.rs", source, &cfg);
        findings.into_iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn flags_hash_iteration_and_respects_btree() {
        let bad = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) {\n\
                   for (k, v) in m.iter() {\n\
                   }\n\
                   }\n";
        assert_eq!(findings_for(bad), vec![(3, RuleId::UnorderedIter)]);
        let good = bad.replace("HashMap", "BTreeMap");
        assert_eq!(findings_for(&good), vec![]);
    }

    #[test]
    fn sort_after_collect_is_clean() {
        let src = "fn f(m: std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
                   let mut v: Vec<u32> = m.into_values().collect();\n\
                   v.sort_unstable();\n\
                   v\n\
                   }\n";
        assert_eq!(findings_for(src), vec![]);
    }

    #[test]
    fn suppression_consumes_and_unused_reports() {
        let src = "// detlint::allow(ambient_nondet): timing is reporting-only\n\
                   let t = std::time::Instant::now();\n";
        assert_eq!(findings_for(src), vec![]);
        let unused = "// detlint::allow(ambient_nondet): nothing here\n\
                      let x = 1;\n";
        assert_eq!(findings_for(unused), vec![(1, RuleId::Suppression)]);
    }

    #[test]
    fn ambient_allow_paths_are_exempt() {
        let cfg = Config::at_root(".");
        let src = "let t = Instant::now();\n";
        let (f, _) = analyze_source("crates/bench/benches/b.rs", src, &cfg);
        assert!(f.is_empty());
        let (f, _) = analyze_source("crates/core/src/driver.rs", src, &cfg);
        assert_eq!(f.len(), 1);
    }
}
