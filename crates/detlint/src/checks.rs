//! Rule implementations.
//!
//! All checks operate on the [`ScanLine`] view (comments stripped,
//! strings blanked) plus two side channels: comment text (suppression
//! directives, `SAFETY:` markers) and string contents (`{ident:?}`
//! debug-format leaks). Heuristics are deliberately simple and biased
//! toward reporting; the explicit, reasoned suppression directive is the
//! escape hatch, and the fixture corpus pins the exact behavior.

use crate::parse::ParsedFile;
use crate::rules::RuleId;
use crate::scan::ScanLine;
use crate::workspace::Unit;
use crate::{Config, Finding, SuppressionEntry};
use std::collections::{BTreeMap, BTreeSet};

/// How many lines below its directive a suppression still applies
/// (tolerates one `#[allow]` attribute line between comment and code).
pub(crate) const SUPPRESSION_REACH: usize = 3;

/// Run the per-file rules (R1–R5) over one file. Suppression collection
/// and application live at the workspace level (`analyze_sources`) so
/// the cross-file passes (R6/R8) share the same escape hatch.
pub(crate) fn run_local_rules(
    unit: &Unit,
    hash_fields: &HashFields,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    let (path, lines) = (unit.path.as_str(), unit.lines.as_slice());
    if cfg.rule_enabled(RuleId::UnorderedIter) {
        check_unordered_iter(unit, hash_fields, findings);
    }
    if cfg.rule_enabled(RuleId::AmbientNondet) {
        check_ambient_nondet(path, lines, cfg, findings);
    }
    if cfg.rule_enabled(RuleId::UndocumentedUnsafe) {
        check_undocumented_unsafe(path, lines, findings);
    }
    if cfg.rule_enabled(RuleId::FloatOrdering) {
        check_float_ordering(path, lines, findings);
    }
    if cfg.rule_enabled(RuleId::SilentSwallow) {
        check_silent_swallow(path, lines, findings);
    }
}

// ---------------------------------------------------------------------
// Suppression directives
// ---------------------------------------------------------------------

pub(crate) fn collect_suppressions(
    path: &str,
    lines: &[ScanLine],
    findings: &mut Vec<Finding>,
) -> Vec<SuppressionEntry> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let Some(pos) = line.comment.find("detlint::allow(") else { continue };
        let rest = &line.comment[pos + "detlint::allow(".len()..];
        let Some(close) = rest.find(')') else {
            findings.push(bad_suppression(path, lineno, "unterminated rule list"));
            continue;
        };
        let token = rest[..close].trim();
        let Some(rule) = RuleId::parse(token) else {
            findings.push(bad_suppression(path, lineno, &format!("unknown rule `{token}`")));
            continue;
        };
        if rule == RuleId::Suppression {
            findings.push(bad_suppression(
                path,
                lineno,
                "the suppression meta-rule cannot itself be suppressed",
            ));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim_start).unwrap_or("");
        // The reason must carry actual content, not punctuation.
        if reason.chars().filter(|c| c.is_alphanumeric()).count() < 3 {
            findings.push(bad_suppression(
                path,
                lineno,
                "missing reason — write `detlint::allow(<rule>): <why this site is safe>`",
            ));
            continue;
        }
        out.push(SuppressionEntry {
            file: path.to_string(),
            line: lineno,
            rule,
            reason: reason.trim_end().to_string(),
            used: false,
        });
    }
    out
}

fn bad_suppression(path: &str, line: usize, detail: &str) -> Finding {
    Finding {
        file: path.to_string(),
        line,
        rule: RuleId::Suppression,
        message: format!("malformed suppression: {detail}"),
        snippet: String::new(),
    }
}

// ---------------------------------------------------------------------
// Small text utilities
// ---------------------------------------------------------------------

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of word-boundary occurrences of `word` in `text`.
pub(crate) fn word_occurrences(text: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = text[from..].find(word) {
        let pos = from + rel;
        let before_ok = pos == 0 || !is_ident_char(text[..pos].chars().next_back().unwrap());
        let after = text[pos + word.len()..].chars().next();
        let after_ok = after.is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            out.push(pos);
        }
        from = pos + word.len();
    }
    out
}

pub(crate) fn contains_word(text: &str, word: &str) -> bool {
    !word_occurrences(text, word).is_empty()
}

/// All identifier-shaped tokens in `text`.
pub(crate) fn idents_of(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in text.char_indices() {
        if is_ident_char(c) {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s) = start.take() {
            out.push(&text[s..i]);
        }
    }
    if let Some(s) = start {
        out.push(&text[s..]);
    }
    out
}

/// Join the logical statement around line `idx` (0-based): walk backward
/// and forward until a statement boundary (`;`, `}`, `{`, blank line),
/// capped so a missed boundary cannot drag in half the file.
fn stmt_window(lines: &[ScanLine], idx: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut back = Vec::new();
    let mut j = idx;
    for _ in 0..5 {
        if j == 0 {
            break;
        }
        j -= 1;
        let t = lines[j].code.trim_end();
        if t.is_empty() {
            // Comment-only lines (e.g. a suppression directive inside a
            // method chain) join through; truly blank lines end the
            // statement.
            if lines[j].comment.trim().is_empty() {
                break;
            }
            continue;
        }
        if t.ends_with(';') || t.ends_with('}') {
            break;
        }
        back.push(t);
        if t.ends_with('{') {
            break;
        }
    }
    for t in back.iter().rev() {
        parts.push(t);
    }
    let own = lines[idx].code.trim_end();
    parts.push(own);
    // Only extend forward while the statement is still open.
    if !own.ends_with(';') && !own.ends_with('{') && !own.ends_with('}') {
        for line in lines.iter().skip(idx + 1).take(7) {
            let t = line.code.trim_end();
            if t.is_empty() {
                // Join through comment-only lines, stop at blank ones.
                if line.comment.trim().is_empty() {
                    break;
                }
                continue;
            }
            parts.push(t);
            if t.ends_with(';') || t.ends_with('{') {
                break;
            }
        }
    }
    parts.join("\n")
}

// ---------------------------------------------------------------------
// R1: unordered-iteration hazard
// ---------------------------------------------------------------------

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ORDERED_TYPES: [&str; 2] = ["BTreeMap", "BTreeSet"];

/// Methods that walk the container in hash order.
const ITER_SINKS: [&str; 10] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

/// Statement-level escapes: terminal operations whose result does not
/// depend on visit order.
const ORDER_INSENSITIVE: [&str; 10] = [
    ".sum()",
    ".sum::<",
    ".count()",
    ".product()",
    ".all(",
    ".any(",
    ".min()",
    ".max()",
    ".len()",
    ".is_empty()",
];

/// Collect targets that re-establish (or keep not having) an order.
const SAFE_COLLECTS: [&str; 8] = [
    "collect::<HashMap",
    "collect::<HashSet",
    "collect::<BTreeMap",
    "collect::<BTreeSet",
    ": HashMap<",
    ": HashSet<",
    ": BTreeMap<",
    ": BTreeSet<",
];

/// Identifiers declared with a hash/ordered container as their top-level
/// type anywhere in the file. File-granular on purpose: a scanner cannot
/// resolve scopes, and a shadowing false positive is cheap to suppress.
fn tracked_idents(lines: &[ScanLine], types: &[&str]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    for line in lines {
        let code = &line.code;
        for ty in types {
            for pos in word_occurrences(code, ty) {
                if let Some(ident) = declared_ident(code, pos) {
                    tracked.insert(ident);
                }
            }
        }
    }
    tracked
}

/// Given a type-name occurrence at `pos`, recover the identifier it is
/// declared for: `x: HashMap<..>`, `x: &mut HashMap<..>`,
/// `let [mut] x = HashMap::new()`, or a `let x = ...collect::<HashMap..`
/// turbofish. Returns `None` for use-paths, return types, and nested
/// generics (`Vec<HashMap<..>>` — the outer type governs iteration).
fn declared_ident(code: &str, pos: usize) -> Option<String> {
    let mut p = code[..pos].trim_end();
    p = p.strip_suffix("std::collections::").unwrap_or(p);
    p = p.strip_suffix("collections::").unwrap_or(p);
    loop {
        let before = p;
        p = p.trim_end();
        p = p.strip_suffix('&').unwrap_or(p);
        if let Some(s) = p.strip_suffix("mut") {
            let boundary = s.chars().next_back().is_none_or(|c| !is_ident_char(c));
            if boundary {
                p = s;
            }
        }
        if p == before {
            break;
        }
    }
    if p.ends_with("::") || p.ends_with('<') || p.ends_with('[') || p.ends_with("->") {
        // `use ...::HashMap`, nested generic, slice, or return type.
        if p.ends_with("::<") {
            return let_binding(code, pos); // turbofish in an initializer
        }
        return None;
    }
    if let Some(stripped) = p.strip_suffix(':') {
        return trailing_ident(stripped);
    }
    if p.ends_with('=') && !p.ends_with("==") && !p.ends_with("=>") {
        let lhs = p.trim_end_matches('=').trim_end();
        return trailing_ident(lhs).or_else(|| let_binding(code, pos));
    }
    None
}

/// The `let [mut] <ident>` binding of this line, if the line is a `let`
/// whose initializer (after `=`) contains `pos`.
pub(crate) fn let_binding(code: &str, pos: usize) -> Option<String> {
    let let_pos = word_occurrences(code, "let").into_iter().next()?;
    let eq = code[let_pos..pos].find('=')? + let_pos;
    let mut between = code[let_pos + 3..eq].trim();
    between = between.strip_prefix("mut ").unwrap_or(between);
    // Only simple bindings: `let x = ..` / `let x: T = ..`.
    let name: String = between.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_numeric()) {
        None
    } else {
        Some(name)
    }
}

/// Trailing identifier of `text` (e.g. `pub in_sets` → `in_sets`).
pub(crate) fn trailing_ident(text: &str) -> Option<String> {
    let t = text.trim_end();
    let tail: String = t
        .chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if tail.is_empty() || tail.chars().next().is_some_and(|c| c.is_numeric()) {
        None
    } else {
        Some(tail)
    }
}

/// Struct name → the fields it declares with a hash-container type, for
/// every struct with a braced body the workspace declares. R1 reads it
/// to type `base.field` receivers.
pub(crate) type HashFields = BTreeMap<String, BTreeSet<String>>;

/// Add the structs `lines` declares to `out`.
pub(crate) fn collect_hash_fields(lines: &[ScanLine], parsed: &ParsedFile, out: &mut HashFields) {
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        let Some(pos) = word_occurrences(code, "struct").into_iter().next() else { continue };
        let name: String = code[pos + "struct".len()..]
            .trim_start()
            .chars()
            .take_while(|&c| is_ident_char(c))
            .collect();
        if name.is_empty() || !code.trim_end().ends_with('{') {
            continue;
        }
        let fields = out.entry(name).or_default();
        let Some(&body) = parsed.depth_start.get(idx + 1) else { continue };
        for later in lines.iter().zip(&parsed.depth_start).skip(idx + 1) {
            match *later.1 {
                depth if depth < body => break,
                depth if depth > body => continue,
                _ => {}
            }
            for ty in HASH_TYPES {
                for pos in word_occurrences(&later.0.code, ty) {
                    fields.extend(declared_ident(&later.0.code, pos));
                }
            }
        }
    }
}

/// Whether the receiver `field`, ending at byte `end` of line `idx`, is
/// a `base.field` access whose base has a type the scanner sees — `self`
/// in an impl, or a binding written `base: Type` — naming a struct that
/// does not declare `field` as a hash container. Any other receiver is
/// unknown, and R1 treats it as hash-ordered.
fn typed_as_unhashed(
    unit: &Unit,
    hash_fields: &HashFields,
    idx: usize,
    end: usize,
    field: &str,
) -> bool {
    let code = &unit.lines[idx].code;
    let Some(before) = code[..end].strip_suffix(field).and_then(|b| b.strip_suffix('.')) else {
        return false;
    };
    let Some(base) = trailing_ident(before) else { return false };
    let base_start = before.len() - base.len();
    if before[..base_start].ends_with('.') || before[..base_start].ends_with("::") {
        return false;
    }
    let Some(f) = unit.parsed.line_fn[idx] else { return false };
    let item = &unit.parsed.fns[f];
    let ty = if base == "self" {
        item.impl_type.clone()
    } else {
        written_type(&unit.lines, item.sig_line, idx, base_start, &base).map(|ty| {
            if ty == "Self" {
                item.impl_type.clone().unwrap_or(ty)
            } else {
                ty
            }
        })
    };
    ty.and_then(|ty| hash_fields.get(&ty)).is_some_and(|hashed| !hashed.contains(field))
}

/// The type name (last path segment) written for `base` at its nearest
/// mention before column `col` of line `idx`, searching back to the
/// enclosing fn's signature line `sig`. `None` when that mention is not a
/// `base: Type` binding (a use, or a rebinding with no written type).
fn written_type(
    lines: &[ScanLine],
    sig: usize,
    idx: usize,
    col: usize,
    base: &str,
) -> Option<String> {
    for l in (sig..=idx).rev() {
        let code = if l == idx { &lines[l].code[..col] } else { lines[l].code.as_str() };
        let mention = word_occurrences(code, base)
            .into_iter()
            .rev()
            .find(|&pos| !code[..pos].trim_end().ends_with('.'));
        let Some(pos) = mention else { continue };
        let rest = code[pos + base.len()..].trim_start().strip_prefix(':')?;
        if rest.starts_with(':') {
            return None;
        }
        // `&'a mut crate::snapshot::State` → `State`; generic arguments
        // are cut off, so `Option<State>` names `Option`.
        let ty = rest.split(['<', ',', ')', '=', '{']).next()?;
        return ty.rsplit("::").next().and_then(trailing_ident);
    }
    None
}

fn check_unordered_iter(unit: &Unit, hash_fields: &HashFields, findings: &mut Vec<Finding>) {
    let (path, lines) = (unit.path.as_str(), unit.lines.as_slice());
    let hashed = tracked_idents(lines, &HASH_TYPES);
    let ordered = tracked_idents(lines, &ORDERED_TYPES);
    if hashed.is_empty() {
        return;
    }

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = &line.code;
        let mut flagged: BTreeSet<String> = BTreeSet::new();

        // `for pat in <tail>` over a hash container.
        let trimmed = code.trim_start();
        if trimmed.starts_with("for ") {
            if let Some(in_pos) = find_for_in(trimmed) {
                let tail_start = code.len() - trimmed.len() + in_pos + 4;
                let tail = &code[tail_start..];
                // `for i in 0..map.len()` only counts; it never observes order.
                let insensitive = ORDER_INSENSITIVE.iter().any(|t| tail.contains(t));
                if !insensitive {
                    for ident in idents_of(tail).into_iter().filter(|i| hashed.contains(*i)) {
                        let hashed_use = word_occurrences(tail, ident).into_iter().any(|pos| {
                            let end = tail_start + pos + ident.len();
                            !typed_as_unhashed(unit, hash_fields, idx, end, ident)
                        });
                        if hashed_use {
                            flagged.insert(ident.to_string());
                        }
                    }
                }
            }
        }

        // `x.iter()` / `.keys()` / … sinks, unless the statement is
        // order-insensitive or re-collects into a keyed/ordered container.
        for sink in ITER_SINKS {
            let mut from = 0;
            while let Some(rel) = code[from..].find(sink) {
                let pos = from + rel;
                from = pos + sink.len();
                let (site, end) = sink_receiver(lines, idx, pos);
                let before = &lines[site].code[..end];
                let Some(receiver) = trailing_ident(before) else { continue };
                if !hashed.contains(&receiver) || flagged.contains(&receiver) {
                    continue;
                }
                if typed_as_unhashed(unit, hash_fields, site, before.trim_end().len(), &receiver) {
                    continue;
                }
                let stmt = stmt_window(lines, idx);
                if ORDER_INSENSITIVE.iter().any(|t| stmt.contains(t)) {
                    continue;
                }
                if SAFE_COLLECTS.iter().any(|t| stmt.contains(t)) {
                    continue;
                }
                if extends_tracked(&stmt, &hashed, &ordered) {
                    continue;
                }
                if sorted_after(lines, idx, &stmt) {
                    continue;
                }
                flagged.insert(receiver);
            }
        }

        // Debug-formatting a hash container leaks its order into text.
        for ident in &hashed {
            for pat in [format!("{{{ident}:?}}"), format!("{{{ident}:#?}}")] {
                if line.strings.contains(&pat) {
                    flagged.insert(ident.clone());
                }
            }
        }

        for ident in flagged {
            findings.push(Finding {
                file: path.to_string(),
                line: lineno,
                rule: RuleId::UnorderedIter,
                message: format!(
                    "iteration over hash-ordered `{ident}` observes unspecified \
                     order; use BTreeMap/BTreeSet, or collect and sort explicitly"
                ),
                snippet: String::new(),
            });
        }
    }
}

/// Calls that copy a container, keeping the order it iterates in.
const ORDER_KEEPING_COPIES: [&str; 2] = [".clone()", ".to_owned()"];

/// Where the receiver of the sink at byte `pos` of line `idx` ends, past
/// any [`ORDER_KEEPING_COPIES`] between it and the sink: in
/// `m.clone().into_values()` the receiver is `m`.
fn sink_receiver(lines: &[ScanLine], idx: usize, pos: usize) -> (usize, usize) {
    let (mut site, mut end) = receiver_end(lines, idx, pos);
    loop {
        let before = lines[site].code[..end].trim_end();
        let Some(copy) = ORDER_KEEPING_COPIES.iter().find(|c| before.ends_with(*c)) else {
            return (site, end);
        };
        (site, end) = receiver_end(lines, site, before.len() - copy.len());
    }
}

/// Where the receiver of the method call at byte `pos` of line `idx`
/// ends: `(idx, pos)`, or, when the call opens its line (a chain rustfmt
/// broke before `.method()`), the end of the nearest earlier line with
/// code. Comment-only lines are passed over; a blank line ends the walk.
fn receiver_end(lines: &[ScanLine], idx: usize, pos: usize) -> (usize, usize) {
    if !lines[idx].code[..pos].trim().is_empty() {
        return (idx, pos);
    }
    for j in (0..idx).rev() {
        let code = lines[j].code.trim_end();
        if !code.is_empty() {
            return (j, code.len());
        }
        if lines[j].comment.trim().is_empty() {
            break;
        }
    }
    (idx, pos)
}

/// Position of the ` in ` that separates a `for` pattern from its
/// iterable (the first one — patterns cannot contain ` in `).
fn find_for_in(trimmed: &str) -> Option<usize> {
    trimmed.find(" in ")
}

/// Does the statement feed the iteration into `X.extend(..)` where `X`
/// is itself a tracked container (hash→hash keeps unordered data
/// unordered; hash→btree re-establishes order)?
fn extends_tracked(stmt: &str, hashed: &BTreeSet<String>, ordered: &BTreeSet<String>) -> bool {
    let mut from = 0;
    while let Some(rel) = stmt[from..].find(".extend(") {
        let pos = from + rel;
        from = pos + ".extend(".len();
        if let Some(target) = trailing_ident(&stmt[..pos]) {
            if hashed.contains(&target) || ordered.contains(&target) {
                return true;
            }
        }
    }
    false
}

/// Does a `let` statement collect into a binding that is explicitly
/// sorted within the next few lines? (`let mut v: Vec<_> = map.into_values()
/// .collect(); v.sort_by(..)` — the paper-sanctioned escape.)
fn sorted_after(lines: &[ScanLine], idx: usize, stmt: &str) -> bool {
    let Some(let_pos) = word_occurrences(stmt, "let").into_iter().next() else {
        return false;
    };
    let mut rest = stmt[let_pos + 3..].trim_start();
    rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() {
        return false;
    }
    let sort_call = format!("{name}.sort");
    lines.iter().skip(idx + 1).take(5).any(|l| l.code.contains(&sort_call))
}

// ---------------------------------------------------------------------
// R2: ambient nondeterminism
// ---------------------------------------------------------------------

const AMBIENT_TOKENS: [(&str, &str); 8] = [
    ("Instant::now", "wall-clock read"),
    ("SystemTime::now", "wall-clock read"),
    ("thread_rng", "ambient-entropy RNG"),
    ("from_entropy", "ambient-entropy RNG seed"),
    ("RandomState", "per-process randomized hasher"),
    ("DefaultHasher", "hasher with release-dependent output"),
    ("thread::current", "thread identity"),
    ("rand::random", "ambient-entropy RNG"),
];

fn check_ambient_nondet(path: &str, lines: &[ScanLine], cfg: &Config, findings: &mut Vec<Finding>) {
    if cfg.ambient_allow.iter().any(|prefix| path.starts_with(prefix.as_str())) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        for (token, what) in AMBIENT_TOKENS {
            if contains_word(&line.code, token) {
                findings.push(Finding {
                    file: path.to_string(),
                    line: idx + 1,
                    rule: RuleId::AmbientNondet,
                    message: format!(
                        "`{token}` is a {what}; route time through the injectable \
                         Clock and randomness through seeded RNGs"
                    ),
                    snippet: String::new(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// R3: undocumented unsafe
// ---------------------------------------------------------------------

fn check_undocumented_unsafe(path: &str, lines: &[ScanLine], findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if !contains_word(&line.code, "unsafe") {
            continue;
        }
        if line.comment.contains("SAFETY:") {
            continue;
        }
        // Walk up through the contiguous run of comment-only, attribute,
        // or blank-comment lines looking for a SAFETY: marker.
        let mut j = idx;
        let mut documented = false;
        while j > 0 {
            j -= 1;
            let above = &lines[j];
            let code = above.code.trim();
            let is_attr = code.starts_with("#[") || code.starts_with("#![");
            if !code.is_empty() && !is_attr {
                break;
            }
            if above.comment.contains("SAFETY:") {
                documented = true;
                break;
            }
            if code.is_empty() && above.comment.trim().is_empty() {
                break; // blank line ends the comment block
            }
        }
        if !documented {
            findings.push(Finding {
                file: path.to_string(),
                line: idx + 1,
                rule: RuleId::UndocumentedUnsafe,
                message: "`unsafe` without a preceding `// SAFETY:` comment \
                          stating why the invariants hold"
                    .to_string(),
                snippet: String::new(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// R4: float-ordering hazard
// ---------------------------------------------------------------------

const SORT_FAMILY: [&str; 7] = [
    "sort_by(",
    "sort_unstable_by(",
    "sort_by_cached_key(",
    "binary_search_by(",
    "max_by(",
    "min_by(",
    "select_nth_unstable_by(",
];

fn check_float_ordering(path: &str, lines: &[ScanLine], findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if !line.code.contains("partial_cmp") {
            continue;
        }
        let stmt = stmt_window(lines, idx);
        if SORT_FAMILY.iter().any(|t| stmt.contains(t)) {
            findings.push(Finding {
                file: path.to_string(),
                line: idx + 1,
                rule: RuleId::FloatOrdering,
                message: "comparator uses `partial_cmp` (NaN-dependent, \
                          incomparable elements); use `f64::total_cmp`"
                    .to_string(),
                snippet: String::new(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// R5: silent-swallow hazard
// ---------------------------------------------------------------------

const SWALLOWERS: [&str; 2] = ["unwrap_or(", "unwrap_or_default("];
const PARSE_MARKERS: [&str; 6] = [
    ".parse(",
    ".parse::<",
    "parse_sql_response",
    "ValidationVerdict::parse",
    "LlmRequest::parse",
    "from_str(",
];

fn check_silent_swallow(path: &str, lines: &[ScanLine], findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if !SWALLOWERS.iter().any(|t| line.code.contains(t)) {
            continue;
        }
        let stmt = stmt_window(lines, idx);
        if PARSE_MARKERS.iter().any(|t| stmt.contains(t)) {
            findings.push(Finding {
                file: path.to_string(),
                line: idx + 1,
                rule: RuleId::SilentSwallow,
                message: "`unwrap_or`/`unwrap_or_default` on a parse path \
                          swallows malformed input; route the failure through \
                          the typed `Malformed` accounting"
                    .to_string(),
                snippet: String::new(),
            });
        }
    }
}
