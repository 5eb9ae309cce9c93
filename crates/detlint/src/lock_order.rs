//! R6 `lock_order`: the workspace lock-acquisition graph.
//!
//! The pass works in four stages:
//!
//! 1. **Class discovery.** Every `Mutex<..>` / `OrderedMutex<..>` /
//!    `RwLock<..>` declared as a named field, local, or static defines
//!    a *lock class* named after the binding (`templates:
//!    OrderedMutex<..>` → class `templates`). A whole `Vec` of mutexes
//!    is one class — two shards of the same family count as nested
//!    same-class acquisition, exactly like the runtime tracker.
//! 2. **Declared order.** A `detlint::lock_order` comment followed by a
//!    parenthesized `class_a < class_b < class_c` chain declares the
//!    canonical partial order (outermost first; the grammar is spelled
//!    out in DESIGN.md §7, not here, so this file never parses its own
//!    documentation as a declaration). Multiple declarations merge; the
//!    transitive closure must stay acyclic.
//! 3. **Acquisition extraction.** Every `.lock()` (and `.read()` /
//!    `.write()` on a known class) is resolved to its class through the
//!    receiver text, local aliases (`let shard = &self.prepared_shards[i]`,
//!    `for (mutex, _) in self.prepared_shards.iter().zip(..)`, closure
//!    params), or an explicit `detlint::lock_class` comment. Guard
//!    liveness is block-scoped for named guards (`let g = m.lock();` —
//!    until the enclosing block ends or `drop(g)`), statement-scoped
//!    for temporaries (extended over the attached block for
//!    `if let .. = m.lock().x() {`).
//! 4. **Edges & verdicts.** While a guard is live, every later
//!    acquisition adds a direct edge, and every call adds edges to all
//!    lock classes the callee can transitively acquire (union-resolved:
//!    over-approximating callees only adds edges, which is fail-closed
//!    here). An edge must be covered by the declared order; `b` then
//!    `a` where `a < b` is declared is a violation, an uncovered pair
//!    is a finding too, and same-class nesting is always a finding.
//!
//! The debug-build runtime tracker (`sqlbarber::lockorder`) asserts the
//! same declared order on a thread-local held stack, so every test run
//! cross-validates whatever this static model under-approximates.

use crate::checks::{
    contains_word, idents_of, is_ident_char, trailing_ident, word_occurrences,
};
use crate::parse::{calls_in, Call};
use crate::rules::RuleId;
use crate::workspace::{FnRef, Resolve, Unit, Workspace};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

const LOCK_TYPES: [&str; 3] = ["OrderedMutex", "Mutex", "RwLock"];
/// Acquisition methods. Only `.lock()` is fail-closed (an unresolvable
/// receiver is a finding); `.read()`/`.write()` count only on known
/// classes because the names collide with `std::io`.
const ACQUIRE_METHODS: [&str; 3] = [".lock()", ".read()", ".write()"];
/// Receivers that look like locks but are std stream handles.
const STD_STREAMS: [&str; 3] = ["stdout", "stderr", "stdin"];
/// How many lines above an acquisition a `detlint::lock_class` comment
/// still applies (mirrors the suppression reach).
const CLASS_ANNOTATION_REACH: usize = 3;

/// One `detlint::lock_order` declaration site.
struct DeclSite {
    unit: usize,
    line: usize,
}

/// The merged declared partial order (transitive closure).
struct DeclaredOrder {
    less: BTreeSet<(String, String)>,
    names: BTreeSet<String>,
    sites: Vec<DeclSite>,
}

impl DeclaredOrder {
    fn covers(&self, a: &str, b: &str) -> bool {
        self.less.contains(&(a.to_string(), b.to_string()))
    }
}

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
    let mut classes = discover_classes(ws);
    let annotations: Vec<Vec<(usize, String)>> =
        ws.units.iter().map(class_annotations).collect();
    for per_unit in &annotations {
        for (_, name) in per_unit {
            classes.insert(name.clone());
        }
    }
    let order = declared_order(ws, &mut classes, findings);

    // Acquisitions and the R6 call graph, per fn.
    let mut acqs: BTreeMap<FnRef, Vec<Acq>> = BTreeMap::new();
    let mut calls: BTreeMap<FnRef, Vec<Call>> = BTreeMap::new();
    for (u, unit) in ws.units.iter().enumerate() {
        for f in 0..unit.parsed.fns.len() {
            if unit.parsed.fns[f].body().is_none() {
                continue;
            }
            let fr = (u, f);
            acqs.insert(
                fr,
                extract_acquisitions(unit, f, &classes, &annotations[u], findings),
            );
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
                let add: Vec<String> = reach
                    .get(target)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default();
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

    // Edges: direct nesting + calls made while a guard is live.
    let mut seen_edges: BTreeSet<(String, String, String, usize)> = BTreeSet::new();
    let mut class_graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut edge_sites: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for (fr, list) in &acqs {
        let unit = &ws.units[fr.0];
        let held_at = |line: usize, col: usize| -> Vec<&Acq> {
            list.iter()
                .filter(|a| (a.line, a.col) < (line, col) && line <= a.end)
                .collect()
        };
        for acq in list {
            for held in held_at(acq.line, acq.col) {
                report_edge(
                    &held.class,
                    &acq.class,
                    &unit.path,
                    acq.line,
                    &order,
                    None,
                    &mut seen_edges,
                    &mut class_graph,
                    &mut edge_sites,
                    findings,
                );
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
                        report_edge(
                            &heldacq.class,
                            class,
                            &unit.path,
                            call.line,
                            &order,
                            Some(&chain),
                            &mut seen_edges,
                            &mut class_graph,
                            &mut edge_sites,
                            findings,
                        );
                    }
                }
            }
        }
    }

    // A cycle in the observed class graph is reported once on top of
    // the per-edge findings (every cycle necessarily contains at least
    // one uncovered or violating edge).
    if let Some(cycle) = find_cycle(&class_graph) {
        let site = cycle
            .windows(2)
            .filter_map(|w| edge_sites.get(&(w[0].clone(), w[1].clone())))
            .min()
            .cloned();
        if let Some((file, line)) = site {
            findings.push(Finding {
                file,
                line: line + 1,
                rule: RuleId::LockOrder,
                message: format!(
                    "lock-acquisition graph contains a cycle: {}",
                    cycle.join(" -> ")
                ),
                snippet: String::new(),
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn report_edge(
    from: &str,
    to: &str,
    path: &str,
    line: usize,
    order: &DeclaredOrder,
    chain: Option<&str>,
    seen: &mut BTreeSet<(String, String, String, usize)>,
    graph: &mut BTreeMap<String, BTreeSet<String>>,
    sites: &mut BTreeMap<(String, String), (String, usize)>,
    findings: &mut Vec<Finding>,
) {
    let key = (from.to_string(), to.to_string(), path.to_string(), line);
    if !seen.insert(key) {
        return;
    }
    graph.entry(from.to_string()).or_default().insert(to.to_string());
    sites
        .entry((from.to_string(), to.to_string()))
        .or_insert_with(|| (path.to_string(), line));
    let via = chain.map(|c| format!(" via {c}")).unwrap_or_default();
    let message = if from == to {
        format!(
            "acquires lock class `{to}`{via} while a `{from}` guard is \
             already held (same-class nesting deadlocks under contention)"
        )
    } else if order.covers(from, to) {
        return;
    } else if order.covers(to, from) {
        format!(
            "acquires lock class `{to}`{via} while holding `{from}` — \
             violates the declared order `{to} < {from}`"
        )
    } else {
        format!(
            "acquires lock class `{to}`{via} while holding `{from}`, a \
             nesting not covered by any detlint::lock_order declaration"
        )
    };
    findings.push(Finding {
        file: path.to_string(),
        line: line + 1,
        rule: RuleId::LockOrder,
        message,
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

fn find_cycle(graph: &BTreeMap<String, BTreeSet<String>>) -> Option<Vec<String>> {
    // DFS with an explicit on-path stack; deterministic by BTree order.
    fn visit(
        node: &str,
        graph: &BTreeMap<String, BTreeSet<String>>,
        path: &mut Vec<String>,
        done: &mut BTreeSet<String>,
    ) -> Option<Vec<String>> {
        if let Some(pos) = path.iter().position(|n| n == node) {
            let mut cycle: Vec<String> = path[pos..].to_vec();
            cycle.push(node.to_string());
            return Some(cycle);
        }
        if done.contains(node) {
            return None;
        }
        path.push(node.to_string());
        if let Some(nexts) = graph.get(node) {
            for next in nexts {
                if next == node {
                    continue; // self-loop = same-class nesting, reported per-site
                }
                if let Some(c) = visit(next, graph, path, done) {
                    return Some(c);
                }
            }
        }
        path.pop();
        done.insert(node.to_string());
        None
    }
    let mut done = BTreeSet::new();
    for node in graph.keys() {
        if let Some(c) = visit(node, graph, &mut Vec::new(), &mut done) {
            return Some(c);
        }
    }
    None
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
// Stage 2: declared order
// ---------------------------------------------------------------------

fn declared_order(
    ws: &Workspace,
    classes: &mut BTreeSet<String>,
    findings: &mut Vec<Finding>,
) -> DeclaredOrder {
    let mut order = DeclaredOrder {
        less: BTreeSet::new(),
        names: BTreeSet::new(),
        sites: Vec::new(),
    };
    for (u, unit) in ws.units.iter().enumerate() {
        for (idx, line) in unit.lines.iter().enumerate() {
            let Some(pos) = line.comment.find("detlint::lock_order(") else {
                continue;
            };
            let rest = &line.comment[pos + "detlint::lock_order(".len()..];
            let Some(close) = rest.find(')') else {
                findings.push(malformed(unit, idx, "unterminated declaration"));
                continue;
            };
            let mut ok = true;
            for chain in rest[..close].split(',') {
                let names: Vec<&str> = chain.split('<').map(str::trim).collect();
                if names.len() < 2
                    || names.iter().any(|n| {
                        n.is_empty() || !n.chars().all(is_ident_char)
                    })
                {
                    findings.push(malformed(
                        unit,
                        idx,
                        "expected `class_a < class_b < ...` chains of identifiers",
                    ));
                    ok = false;
                    break;
                }
                for pair in names.windows(2) {
                    order.less.insert((pair[0].to_string(), pair[1].to_string()));
                    order.names.insert(pair[0].to_string());
                    order.names.insert(pair[1].to_string());
                    classes.insert(pair[0].to_string());
                    classes.insert(pair[1].to_string());
                }
            }
            if ok {
                order.sites.push(DeclSite { unit: u, line: idx });
            }
        }
    }
    // Transitive closure; a<a afterwards means the declarations
    // themselves are cyclic.
    loop {
        let mut add = Vec::new();
        for (a, b) in &order.less {
            for (c, d) in &order.less {
                if b == c && !order.less.contains(&(a.clone(), d.clone())) {
                    add.push((a.clone(), d.clone()));
                }
            }
        }
        if add.is_empty() {
            break;
        }
        order.less.extend(add);
    }
    let cyclic: Vec<&String> =
        order.names.iter().filter(|n| order.covers(n, n)).collect();
    if !cyclic.is_empty() {
        if let Some(site) = order.sites.first() {
            findings.push(Finding {
                file: ws.units[site.unit].path.clone(),
                line: site.line + 1,
                rule: RuleId::LockOrder,
                message: format!(
                    "detlint::lock_order declarations are cyclic through `{}`",
                    cyclic[0]
                ),
                snippet: String::new(),
            });
        }
    }
    order
}

fn malformed(unit: &Unit, idx: usize, detail: &str) -> Finding {
    Finding {
        file: unit.path.clone(),
        line: idx + 1,
        rule: RuleId::LockOrder,
        message: format!("malformed detlint::lock_order declaration: {detail}"),
        snippet: String::new(),
    }
}

/// `detlint::lock_class(name)` comments in one unit.
fn class_annotations(unit: &Unit) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in unit.lines.iter().enumerate() {
        let Some(pos) = line.comment.find("detlint::lock_class(") else { continue };
        let rest = &line.comment[pos + "detlint::lock_class(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let name = rest[..close].trim();
        if !name.is_empty() && name.chars().all(is_ident_char) {
            out.push((idx, name.to_string()));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Stage 3: acquisition extraction
// ---------------------------------------------------------------------

fn extract_acquisitions(
    unit: &Unit,
    fn_idx: usize,
    classes: &BTreeSet<String>,
    annotations: &[(usize, String)],
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
                let class =
                    resolve_class(&receiver, classes, &aliases, annotations, lineno);
                let Some(class) = class else {
                    let chain_idents = idents_of(&receiver);
                    let is_stream =
                        chain_idents.iter().any(|i| STD_STREAMS.contains(i));
                    if fail_closed && !is_stream {
                        findings.push(Finding {
                            file: unit.path.clone(),
                            line: lineno + 1,
                            rule: RuleId::LockOrder,
                            message: "cannot resolve the lock class of this \
                                      `.lock()` receiver; declare the mutex as a \
                                      named field/local or add a preceding \
                                      `// detlint::lock_class` comment naming it"
                                .to_string(),
                            snippet: String::new(),
                        });
                    }
                    continue;
                };
                let live_end =
                    guard_end(unit, lineno, pos + method.len(), end, &class);
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
        // `let outer = OrderedMutex::new(TEMPLATES, 1u32);` — a ranked
        // mutex constructed in place (test-local, typically): the rank
        // constant's name, lowercased, is the lock class.
        if let Some(pos) = code.find("OrderedMutex::new(") {
            let arg: String = code[pos + "OrderedMutex::new(".len()..]
                .chars()
                .take_while(|&c| c != ',' && c != ')')
                .collect();
            let rank = arg.trim().rsplit("::").next().unwrap_or("").trim();
            let screaming = !rank.is_empty()
                && rank.chars().all(|c| {
                    c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'
                });
            if screaming {
                if let Some(name) = let_binding_name(code) {
                    aliases.insert(name, rank.to_ascii_lowercase());
                }
            }
        }
        // `let shard = &self.prepared_shards[idx];`
        if let Some(let_pos) = word_occurrences(code, "let").into_iter().next() {
            if let Some(eq) = code[let_pos..].find('=').map(|p| p + let_pos) {
                if let Some(class) = the_class(&code[eq + 1..]) {
                    let mut lhs = code[let_pos + 3..eq].trim();
                    lhs = lhs.strip_prefix("mut ").unwrap_or(lhs).trim();
                    let name: String =
                        lhs.chars().take_while(|&c| is_ident_char(c)).collect();
                    if !name.is_empty() {
                        aliases.insert(name, class);
                    }
                }
            }
        }
        // `for (mutex, stored) in self.prepared_shards.iter().zip(..) {`
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
            let joined: String = (from..=lineno)
                .map(|l| unit.lines[l].code.as_str())
                .collect::<Vec<_>>()
                .join("\n");
            if let Some(class) = the_class(&joined) {
                for ident in params {
                    aliases.insert(ident, class.clone());
                }
            }
        }
    }
    aliases
}

/// Name bound by a `let [mut] name .. =` on this line, if any.
fn let_binding_name(code: &str) -> Option<String> {
    let let_pos = word_occurrences(code, "let").into_iter().next()?;
    let eq = code[let_pos..].find('=')? + let_pos;
    let mut lhs = code[let_pos + 3..eq].trim();
    lhs = lhs.strip_prefix("mut ").unwrap_or(lhs).trim();
    let name: String = lhs.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
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
        || !inner.chars().all(|c| {
            is_ident_char(c) || matches!(c, ',' | ' ' | '&' | '(' | ')' | ':' | '_')
        })
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
    annotations: &[(usize, String)],
    lineno: usize,
) -> Option<String> {
    // An explicit annotation wins over inference.
    if let Some((_, name)) = annotations.iter().find(|(l, _)| {
        *l <= lineno && lineno - *l <= CLASS_ANNOTATION_REACH
    }) {
        return Some(name.clone());
    }
    let mut tail = receiver.trim_end();
    // Strip a trailing index expression: `self.prepared_shards[hash(k)]`.
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
fn guard_end(
    unit: &Unit,
    lineno: usize,
    after_pos: usize,
    fn_end: usize,
    _class: &str,
) -> usize {
    let code = &unit.lines[lineno].code;
    let rest = code[after_pos.min(code.len())..].trim();
    // `;` directly, or through the std-mutex `.unwrap()`/`.expect(..)`
    // poison dance — either way the guard binds if a `let` started it.
    let settles = rest == ";"
        || (rest.ends_with(';')
            && (rest.starts_with(".unwrap()") || rest.starts_with(".expect(")));
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
                let c: String =
                    unit.lines[later].code.chars().filter(|c| *c != ' ').collect();
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
