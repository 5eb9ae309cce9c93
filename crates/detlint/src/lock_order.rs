//! R6 `lock_order`: no lock is taken while another is held.
//!
//! A thread that never waits for a lock while holding one cannot be part
//! of a deadlock cycle, so the pass needs no declared acquisition order:
//! every nested acquisition it can see is a finding. It works in three
//! stages:
//!
//! 1. **Class discovery.** Every `Mutex<..>` / `TrackedMutex<..>` /
//!    `RwLock<..>` declared as a named field, local, or static defines
//!    a *lock class* named after the binding (`memo:
//!    TrackedMutex<..>` → class `memo`). A whole `Vec` of mutexes
//!    is one class.
//! 2. **Acquisition extraction.** Every `.lock()` (and `.read()` /
//!    `.write()` on a known class) is resolved to its class through the
//!    receiver text or local aliases (`let shard = &self.shards[i]`,
//!    `for (mutex, _) in self.shards.iter().zip(..)`, closure
//!    params). A `.lock()` whose receiver resolves to no class is a
//!    finding (fail-closed). Guard liveness is block-scoped for named
//!    guards (`let g = m.lock();` — until the enclosing block ends or
//!    `drop(g)`), statement-scoped for temporaries (extended over the
//!    attached block for `if let .. = m.lock().x() {`).
//! 3. **Nestings.** While a guard is live, every later acquisition is a
//!    finding, and so is every call into a function that can
//!    transitively acquire a lock (union-resolved: over-approximating
//!    callees only adds findings, which is fail-closed here). Nesting
//!    two locks of the same class is a finding like any other.
//!
//! The debug-build runtime tracker (`sqlbarber::lockorder`) asserts the
//! same rule on a thread-local flag, so every test run cross-validates
//! whatever this static model under-approximates.

use crate::checks::{contains_word, idents_of, is_ident_char, trailing_ident, word_occurrences};
use crate::parse::{calls_in, Call};
use crate::rules::RuleId;
use crate::workspace::{FnRef, Resolve, Unit, Workspace};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

const LOCK_TYPES: [&str; 3] = ["TrackedMutex", "Mutex", "RwLock"];
/// Acquisition methods. Only `.lock()` is fail-closed (an unresolvable
/// receiver is a finding); `.read()`/`.write()` count only on known
/// classes because the names collide with `std::io`.
const ACQUIRE_METHODS: [&str; 3] = [".lock()", ".read()", ".write()"];
/// Receivers that look like locks but are std stream handles.
const STD_STREAMS: [&str; 3] = ["stdout", "stderr", "stdin"];
/// One lock acquisition inside a fn body.
struct Acq {
    line: usize,
    col: usize,
    class: String,
    /// Last line (0-based, inclusive) the guard is live.
    end: usize,
}

/// Run the pass over the whole workspace.
pub(crate) fn check(ws: &Workspace, findings: &mut Vec<Finding>) {
    let classes = discover_classes(ws);

    // Acquisitions and the R6 call graph, per fn.
    let mut acqs: BTreeMap<FnRef, Vec<Acq>> = BTreeMap::new();
    let mut calls: BTreeMap<FnRef, Vec<Call>> = BTreeMap::new();
    for (u, unit) in ws.units.iter().enumerate() {
        for f in 0..unit.parsed.fns.len() {
            if unit.parsed.fns[f].body().is_none() {
                continue;
            }
            let fr = (u, f);
            acqs.insert(fr, extract_acquisitions(unit, f, &classes, findings));
            let fn_calls: Vec<Call> = calls_in(&unit.lines, &unit.parsed, f)
                .into_iter()
                .filter(|c| !matches!(c.name.as_str(), "lock" | "read" | "write"))
                .collect();
            calls.insert(fr, fn_calls);
        }
    }

    // Transitive lock-class summary per fn, with provenance for chain
    // reconstruction in diagnostics.
    let mut reach: BTreeMap<FnRef, BTreeSet<String>> = BTreeMap::new();
    let mut prov: BTreeMap<(FnRef, String), FnRef> = BTreeMap::new();
    for (fr, list) in &acqs {
        let direct: BTreeSet<String> = list.iter().map(|a| a.class.clone()).collect();
        reach.insert(*fr, direct);
    }
    let resolved: BTreeMap<FnRef, Vec<FnRef>> = calls
        .iter()
        .map(|(fr, list)| {
            let mut targets: BTreeSet<FnRef> = BTreeSet::new();
            for call in list {
                targets.extend(ws.resolve(*fr, call, Resolve::Union));
            }
            (*fr, targets.into_iter().collect())
        })
        .collect();
    loop {
        let mut changed = false;
        for (fr, targets) in &resolved {
            for target in targets {
                let add: Vec<String> =
                    reach.get(target).map(|s| s.iter().cloned().collect()).unwrap_or_default();
                for class in add {
                    let set = reach.entry(*fr).or_default();
                    if set.insert(class.clone()) {
                        prov.insert((*fr, class), *target);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Nestings: acquisitions and calls made while a guard is live.
    let mut seen: BTreeSet<(String, String, String, usize)> = BTreeSet::new();
    for (fr, list) in &acqs {
        let unit = &ws.units[fr.0];
        let held_at = |line: usize, col: usize| -> Vec<&Acq> {
            list.iter().filter(|a| (a.line, a.col) < (line, col) && line <= a.end).collect()
        };
        for acq in list {
            for held in held_at(acq.line, acq.col) {
                let nesting = (held.class.clone(), acq.class.clone(), unit.path.clone(), acq.line);
                report_nesting(nesting, None, &mut seen, findings);
            }
        }
        for call in calls.get(fr).map(Vec::as_slice).unwrap_or(&[]) {
            let held = held_at(call.line, call.col);
            if held.is_empty() {
                continue;
            }
            for target in ws.resolve(*fr, call, Resolve::Union) {
                let Some(target_classes) = reach.get(&target) else { continue };
                for class in target_classes {
                    let chain = chain_text(ws, target, class, &prov);
                    for heldacq in &held {
                        let nesting =
                            (heldacq.class.clone(), class.clone(), unit.path.clone(), call.line);
                        report_nesting(nesting, Some(&chain), &mut seen, findings);
                    }
                }
            }
        }
    }
}

/// Report one nested acquisition `(held class, acquired class, file,
/// 0-based line)`, reached through `chain` if it is a call; each is
/// reported once.
fn report_nesting(
    nesting: (String, String, String, usize),
    chain: Option<&str>,
    seen: &mut BTreeSet<(String, String, String, usize)>,
    findings: &mut Vec<Finding>,
) {
    if !seen.insert(nesting.clone()) {
        return;
    }
    let (from, to, file, line) = nesting;
    let via = chain.map(|c| format!(" via {c}")).unwrap_or_default();
    findings.push(Finding {
        file,
        line: line + 1,
        rule: RuleId::LockOrder,
        message: format!(
            "acquires lock class `{to}`{via} while holding `{from}`; no lock may be \
             taken while another is held"
        ),
        snippet: String::new(),
    });
}

/// `f -> g -> h` text for the shortest recorded path from `target` to a
/// direct acquirer of `class`.
fn chain_text(
    ws: &Workspace,
    target: FnRef,
    class: &str,
    prov: &BTreeMap<(FnRef, String), FnRef>,
) -> String {
    let mut chain = vec![ws.fn_label(target)];
    let mut cur = target;
    let mut hops = 0;
    while let Some(next) = prov.get(&(cur, class.to_string())) {
        chain.push(ws.fn_label(*next));
        cur = *next;
        hops += 1;
        if hops > 8 {
            break;
        }
    }
    format!("`{}`", chain.join(" -> "))
}

// ---------------------------------------------------------------------
// Stage 1: lock-class discovery
// ---------------------------------------------------------------------

fn discover_classes(ws: &Workspace) -> BTreeSet<String> {
    let mut classes = BTreeSet::new();
    for unit in &ws.units {
        for line in &unit.lines {
            let code = &line.code;
            for ty in LOCK_TYPES {
                for pos in word_occurrences(code, ty) {
                    // Only type *usages* (`Mutex<..>`) declare classes;
                    // `use` paths, struct definitions, and `::new` calls
                    // don't carry a binding type.
                    if !code[pos + ty.len()..].starts_with('<') {
                        continue;
                    }
                    if let Some(name) = declared_lock_ident(code, pos) {
                        classes.insert(name);
                    }
                }
            }
        }
    }
    classes
}

/// Binding name a lock type at `pos` is declared for: strips wrapper
/// generics (`Vec<`, `Arc<`, `[`) back to a `name:` field/local/static.
fn declared_lock_ident(code: &str, pos: usize) -> Option<String> {
    let mut p = code[..pos].trim_end();
    loop {
        let before = p;
        p = p.trim_end();
        if let Some(s) = p.strip_suffix('<') {
            let t = s.trim_end();
            let ident_len = t.chars().rev().take_while(|&c| is_ident_char(c)).count();
            p = &t[..t.len() - ident_len];
            continue;
        }
        if let Some(s) = p.strip_suffix('&').or_else(|| p.strip_suffix('[')) {
            p = s;
            continue;
        }
        if p == before {
            break;
        }
    }
    if p.ends_with("::") {
        return None;
    }
    let s = p.strip_suffix(':')?;
    if s.ends_with(':') {
        return None;
    }
    trailing_ident(s)
}

// ---------------------------------------------------------------------
// Stage 2: acquisition extraction
// ---------------------------------------------------------------------

fn extract_acquisitions(
    unit: &Unit,
    fn_idx: usize,
    classes: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) -> Vec<Acq> {
    let mut out = Vec::new();
    let Some((start, end)) = unit.parsed.fns[fn_idx].body() else {
        return out;
    };
    let end = end.min(unit.lines.len() - 1);
    let aliases = collect_aliases(unit, start, end, classes);
    for lineno in start..=end {
        if unit.parsed.line_fn[lineno] != Some(fn_idx) {
            continue;
        }
        let code = &unit.lines[lineno].code;
        for method in ACQUIRE_METHODS {
            let fail_closed = method == ".lock()";
            let mut from = 0;
            while let Some(rel) = code[from..].find(method) {
                let pos = from + rel;
                from = pos + method.len();
                let receiver = receiver_text(unit, lineno, pos);
                let class = resolve_class(&receiver, classes, &aliases);
                let Some(class) = class else {
                    let chain_idents = idents_of(&receiver);
                    let is_stream = chain_idents.iter().any(|i| STD_STREAMS.contains(i));
                    if fail_closed && !is_stream {
                        findings.push(Finding {
                            file: unit.path.clone(),
                            line: lineno + 1,
                            rule: RuleId::LockOrder,
                            message: "cannot resolve the lock class of this \
                                      `.lock()` receiver; declare the mutex as a \
                                      named field or a local with a written type"
                                .to_string(),
                            snippet: String::new(),
                        });
                    }
                    continue;
                };
                let live_end = guard_end(unit, lineno, pos + method.len(), end);
                out.push(Acq { line: lineno, col: pos, class, end: live_end });
            }
        }
    }
    out.sort_by_key(|a| (a.line, a.col));
    out
}

/// Local alias map: bindings that name a known lock class.
fn collect_aliases(
    unit: &Unit,
    start: usize,
    end: usize,
    classes: &BTreeSet<String>,
) -> BTreeMap<String, String> {
    let mut aliases = BTreeMap::new();
    for lineno in start..=end {
        let code = &unit.lines[lineno].code;
        if code.contains(".lock(") {
            continue; // binds a guard, not a mutex
        }
        let the_class = |text: &str| -> Option<String> {
            let found: BTreeSet<&String> =
                classes.iter().filter(|c| contains_word(text, c)).collect();
            if found.len() == 1 {
                Some((*found.iter().next().unwrap()).clone())
            } else {
                None
            }
        };
        // `let shard = &self.shards[idx];`
        if let Some(let_pos) = word_occurrences(code, "let").into_iter().next() {
            if let Some(eq) = code[let_pos..].find('=').map(|p| p + let_pos) {
                if let Some(class) = the_class(&code[eq + 1..]) {
                    let mut lhs = code[let_pos + 3..eq].trim();
                    lhs = lhs.strip_prefix("mut ").unwrap_or(lhs).trim();
                    let name: String = lhs.chars().take_while(|&c| is_ident_char(c)).collect();
                    if !name.is_empty() {
                        aliases.insert(name, class);
                    }
                }
            }
        }
        // `for (mutex, stored) in self.shards.iter().zip(..) {`
        let trimmed = code.trim_start();
        if let Some(rest) = trimmed.strip_prefix("for ") {
            if let Some(in_pos) = rest.find(" in ") {
                if let Some(class) = the_class(&rest[in_pos + 4..]) {
                    for ident in idents_of(&rest[..in_pos]) {
                        if ident != "mut" && ident != "ref" {
                            aliases.insert(ident.to_string(), class.clone());
                        }
                    }
                }
            }
        }
        // `.map(|mutex| {` — the class usually sits on the same or the
        // immediately preceding chained lines.
        if let Some(params) = closure_params(code) {
            let from = lineno.saturating_sub(2);
            let joined: String =
                (from..=lineno).map(|l| unit.lines[l].code.as_str()).collect::<Vec<_>>().join("\n");
            if let Some(class) = the_class(&joined) {
                for ident in params {
                    aliases.insert(ident, class.clone());
                }
            }
        }
    }
    aliases
}

/// Idents bound by a `|a, b|` closure parameter list on this line.
fn closure_params(code: &str) -> Option<Vec<String>> {
    let open = code.find('|')?;
    if code[open + 1..].starts_with('|') {
        return None; // `||` — zero-arg closure or the or-operator
    }
    let close = open + 1 + code[open + 1..].find('|')?;
    let inner = &code[open + 1..close];
    if inner.len() > 48
        || !inner
            .chars()
            .all(|c| is_ident_char(c) || matches!(c, ',' | ' ' | '&' | '(' | ')' | ':' | '_'))
    {
        return None;
    }
    let params: Vec<String> = idents_of(inner)
        .into_iter()
        .filter(|i| !matches!(*i, "mut" | "ref" | "_"))
        .map(str::to_string)
        .collect();
    if params.is_empty() {
        None
    } else {
        Some(params)
    }
}

/// Receiver expression text for an acquisition at `(lineno, pos)`:
/// the code before the method on this line, joined with up to three
/// previous lines while the expression continues across a line break.
fn receiver_text(unit: &Unit, lineno: usize, pos: usize) -> String {
    let mut text = unit.lines[lineno].code[..pos].to_string();
    let mut back = 0;
    while text.trim_start().starts_with('.') || text.trim().is_empty() {
        back += 1;
        if back > 3 || lineno < back {
            break;
        }
        text = format!("{}\n{}", unit.lines[lineno - back].code.trim_end(), text);
    }
    text
}

fn resolve_class(
    receiver: &str,
    classes: &BTreeSet<String>,
    aliases: &BTreeMap<String, String>,
) -> Option<String> {
    let mut tail = receiver.trim_end();
    // Strip a trailing index expression: `self.shards[hash(k)]`.
    if tail.ends_with(']') {
        let chars: Vec<char> = tail.chars().collect();
        let mut depth = 0i32;
        for i in (0..chars.len()).rev() {
            match chars[i] {
                ']' => depth += 1,
                '[' => {
                    depth -= 1;
                    if depth == 0 {
                        tail = &tail[..i];
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    if let Some(ident) = trailing_ident(tail) {
        // Function-local bindings shadow same-named fields elsewhere in
        // the workspace, so aliases win over the global class set.
        if let Some(class) = aliases.get(&ident) {
            return Some(class.clone());
        }
        if classes.contains(&ident) {
            return Some(ident);
        }
    }
    // Fallback: exactly one known class mentioned anywhere in the
    // receiver expression (`self.templates .lock()` split oddly, etc).
    let mentioned: BTreeSet<&String> =
        classes.iter().filter(|c| contains_word(receiver, c)).collect();
    if mentioned.len() == 1 {
        return Some((*mentioned.iter().next().unwrap()).clone());
    }
    None
}

/// Last line (inclusive) the guard from an acquisition is live.
fn guard_end(unit: &Unit, lineno: usize, after_pos: usize, fn_end: usize) -> usize {
    let code = &unit.lines[lineno].code;
    let rest = code[after_pos.min(code.len())..].trim();
    // `;` directly, or through the std-mutex `.unwrap()`/`.expect(..)`
    // poison dance — either way the guard binds if a `let` started it.
    let settles = rest == ";"
        || (rest.ends_with(';') && (rest.starts_with(".unwrap()") || rest.starts_with(".expect(")));
    let named = settles && {
        let joined = receiver_context(unit, lineno);
        !word_occurrences(&joined, "let").is_empty()
    };
    if named {
        let joined = receiver_context(unit, lineno);
        let bind = binding_of(&joined);
        let mut end = unit.parsed.block_last_line(lineno).min(fn_end);
        if let Some(bind) = bind {
            let drop_call = format!("drop({bind})");
            for later in lineno + 1..=end {
                let c: String = unit.lines[later].code.chars().filter(|c| *c != ' ').collect();
                if c.contains(&drop_call) {
                    end = later;
                    break;
                }
            }
        }
        return end;
    }
    // Temporary: live to the end of the statement; if the statement
    // opens a block (`if let Some(x) = m.lock().get(k) {`), the
    // temporary outlives the block in 2021 semantics — keep the block.
    for later in lineno..=(lineno + 20).min(fn_end) {
        let t = unit.lines[later].code.trim_end();
        let t = if later == lineno { code[..code.len()].trim_end() } else { t };
        if t.ends_with('{') {
            return unit.parsed.block_last_line(later).min(fn_end);
        }
        if t.ends_with(';') || t.ends_with('}') {
            return later;
        }
    }
    lineno
}

/// The statement text leading into `lineno` (up to 3 previous lines).
fn receiver_context(unit: &Unit, lineno: usize) -> String {
    let from = lineno.saturating_sub(3);
    let mut parts = Vec::new();
    for l in (from..lineno).rev() {
        let t = unit.lines[l].code.trim_end();
        if t.ends_with(';') || t.ends_with('{') || t.ends_with('}') || t.is_empty() {
            break;
        }
        parts.push(t);
    }
    parts.reverse();
    parts.push(unit.lines[lineno].code.trim_end());
    parts.join("\n")
}

/// `let [mut] name` binding at the start of a statement.
fn binding_of(stmt: &str) -> Option<String> {
    let let_pos = word_occurrences(stmt, "let").into_iter().next()?;
    let mut rest = stmt[let_pos + 3..].trim_start();
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}
