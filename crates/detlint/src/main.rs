//! `detlint` CLI.
//!
//! ```text
//! cargo run -p detlint -- check [--root DIR] [--format human|json|sarif]
//!                               [--disable RULE,..] [--only RULE,..]
//! cargo run -p detlint -- suppressions [--root DIR] [--stale]
//! cargo run -p detlint -- rules
//! ```
//!
//! Exit codes: 0 clean, 1 findings (for `suppressions --stale`: stale
//! directives exist), 2 usage/I-O error.

use detlint::{
    analyze_workspace, render_human, render_json, render_sarif, Config, RuleId, ALL_RULES,
};
use std::io::Write;

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

/// Write to stdout without panicking when the reader hangs up
/// (`detlint rules | head`): a broken pipe keeps the exit code, any
/// other I/O failure is still fatal.
fn emit(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("detlint: cannot write to stdout: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: Vec<String>) -> i32 {
    let mut it = args.into_iter();
    match it.next().as_deref() {
        Some("check") => check(it.collect()),
        Some("suppressions") => suppressions(it.collect()),
        Some("rules") => {
            let mut text = String::new();
            for rule in ALL_RULES {
                text.push_str(&format!(
                    "{} {}\n    {}\n\n",
                    rule.code(),
                    rule.name(),
                    rule.rationale()
                ));
            }
            emit(&text);
            0
        }
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            if_none_exit()
        }
        Some(other) => {
            eprintln!("detlint: unknown command `{other}`\n{USAGE}");
            2
        }
    }
}

const USAGE: &str = "usage: detlint <check|suppressions|rules> [options]\n\
    check --root DIR          workspace root (default: .)\n\
    check --format FMT        human (default), json, or sarif\n\
    check --disable RULES     comma-separated rule names/codes to turn off\n\
    check --only RULES        enable only these rules\n\
    check --quiet             suppress output, keep the exit code\n\
    suppressions --root DIR   list every detlint::allow directive\n\
    suppressions --stale      exit 1 if any directive suppresses nothing";

fn if_none_exit() -> i32 {
    2
}

fn check(args: Vec<String>) -> i32 {
    let mut root = String::from(".");
    let mut format = String::from("human");
    let mut quiet = false;
    let mut disable: Vec<RuleId> = Vec::new();
    let mut only: Option<Vec<RuleId>> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = v,
                None => return usage_error("--root needs a value"),
            },
            "--format" => match it.next().as_deref() {
                Some("human") => format = "human".into(),
                Some("json") => format = "json".into(),
                Some("sarif") => format = "sarif".into(),
                _ => return usage_error("--format must be `human`, `json`, or `sarif`"),
            },
            "--quiet" => quiet = true,
            "--disable" => match it.next() {
                Some(v) => match parse_rules(&v) {
                    Ok(rules) => disable.extend(rules),
                    Err(e) => return usage_error(&e),
                },
                None => return usage_error("--disable needs a value"),
            },
            "--only" => match it.next() {
                Some(v) => match parse_rules(&v) {
                    Ok(rules) => only = Some(rules),
                    Err(e) => return usage_error(&e),
                },
                None => return usage_error("--only needs a value"),
            },
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }

    let mut cfg = Config::at_root(&root);
    if let Some(rules) = only {
        cfg.only(&rules);
    }
    for rule in disable {
        cfg.disable(rule);
    }

    let report = match analyze_workspace(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: {e}");
            return 2;
        }
    };
    if !quiet {
        let rendered = match format.as_str() {
            "json" => render_json(&report),
            "sarif" => render_sarif(&report),
            _ => render_human(&report),
        };
        emit(&rendered);
    }
    i32::from(!report.clean())
}

/// `detlint suppressions [--root DIR] [--stale]`: the audited escape-
/// hatch inventory as a first-class command. Without `--stale` it lists
/// every directive and exits 0; with `--stale` it lists only directives
/// that no longer suppress a finding and exits 1 when any exist, so CI
/// can force dead escape hatches to be retired.
fn suppressions(args: Vec<String>) -> i32 {
    let mut root = String::from(".");
    let mut stale_only = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = v,
                None => return usage_error("--root needs a value"),
            },
            "--stale" => stale_only = true,
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }
    let cfg = Config::at_root(&root);
    let report = match analyze_workspace(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: {e}");
            return 2;
        }
    };
    let mut text = String::new();
    let mut stale = 0usize;
    for s in &report.suppressions {
        if s.used && stale_only {
            continue;
        }
        if !s.used {
            stale += 1;
        }
        let marker = if s.used { "" } else { " [STALE]" };
        text.push_str(&format!(
            "{}:{}: allow({}){} — {}\n",
            s.file,
            s.line,
            s.rule.name(),
            marker,
            s.reason
        ));
    }
    text.push_str(&format!(
        "detlint: {} suppression{} total, {} stale\n",
        report.suppressions.len(),
        if report.suppressions.len() == 1 { "" } else { "s" },
        stale,
    ));
    emit(&text);
    if stale_only {
        i32::from(stale > 0)
    } else {
        0
    }
}

fn parse_rules(list: &str) -> Result<Vec<RuleId>, String> {
    list.split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| RuleId::parse(t).ok_or_else(|| format!("unknown rule `{}`", t.trim())))
        .collect()
}

fn usage_error(message: &str) -> i32 {
    eprintln!("detlint: {message}\n{USAGE}");
    2
}
