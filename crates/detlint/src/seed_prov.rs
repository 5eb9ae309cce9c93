//! R7 `seed_provenance`: every RNG must descend from the seed chain.
//!
//! The workspace's determinism contract hangs on one discipline: the
//! only RNG roots are the config/CLI master seed, `split_seed`-derived
//! per-item seeds, and snapshot-restored generator state. This pass is
//! an intra-procedural dataflow proof of that discipline at every
//! construction site (`seed_from_u64(..)` / `from_seed(..)`;
//! `from_state(..)` is snapshot restore and always trusted).
//!
//! An expression is **trusted** when it bottoms out in:
//!
//! * an integer literal (fixtures, benches, golden tests);
//! * a path whose final segment is seed-shaped (contains `seed`) —
//!   `config.seed`, `pair.seed`, a `seed` parameter;
//! * a call to a seed-shaped function whose *first* argument is
//!   trusted (`split_seed(seed, idx)` — the second argument is the
//!   lane index, deliberately unconstrained: mixing untrusted indices
//!   *into* a trusted seed is the whole point of splitting);
//! * a local previously bound to a trusted expression (two-pass, so
//!   ordering inside the fn doesn't matter);
//! * `as`-casts, reference/paren wrapping, byte-order/wrapping-arith
//!   method calls on a trusted receiver, or any binary `^ | & + - *`
//!   combination with at least one trusted operand (mix-ins keep
//!   provenance).
//!
//! Everything else — loop counters, hashes of addresses, thread ids,
//! arrival order — is a finding. The rule is deliberately first-order:
//! it cannot see through function boundaries, so helpers that forward
//! a seed should name their parameter seed-shaped (they all do).

use crate::checks::{is_ident_char, word_occurrences};
use crate::rules::RuleId;
use crate::workspace::Unit;
use crate::Finding;
use std::collections::BTreeSet;

/// RNG construction tokens that take a seed value.
const SEED_CTORS: [&str; 2] = ["seed_from_u64", "from_seed"];

/// Conversion/mixing methods that preserve provenance of the receiver.
const PRESERVING_METHODS: [&str; 10] = [
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "rotate_left",
    "rotate_right",
    "swap_bytes",
    "to_le",
    "to_be",
    "to_le_bytes",
    "from_le_bytes",
];

pub(crate) fn check(unit: &Unit, findings: &mut Vec<Finding>) {
    for f in 0..unit.parsed.fns.len() {
        let Some((start, end)) = unit.parsed.fns[f].body() else { continue };
        let end = end.min(unit.lines.len() - 1);
        let trusted_locals = collect_trusted_locals(unit, start, end);
        for lineno in start..=end {
            if unit.parsed.line_fn[lineno] != Some(f) {
                continue;
            }
            let code = &unit.lines[lineno].code;
            for ctor in SEED_CTORS {
                for pos in word_occurrences(code, ctor) {
                    let after = pos + ctor.len();
                    if !code[after..].starts_with('(') {
                        continue;
                    }
                    let Some(arg) = balanced_arg(unit, lineno, after, end) else {
                        continue;
                    };
                    if arg.trim().is_empty() {
                        continue; // `SeedableRng::from_seed` as a path, no call
                    }
                    if !trusted(&arg, &trusted_locals, 0) {
                        findings.push(Finding {
                            file: unit.path.clone(),
                            line: lineno + 1,
                            rule: RuleId::SeedProvenance,
                            message: format!(
                                "RNG seeded from `{}`, which does not trace to \
                                 the split_seed chain, a seed-named value, or a \
                                 literal; derive it from the master seed instead",
                                compact(&arg)
                            ),
                            snippet: String::new(),
                        });
                    }
                }
            }
        }
    }
}

/// First-argument text of a call whose `(` sits at `open` on `lineno`,
/// joining lines until the parens balance (bounded).
fn balanced_arg(unit: &Unit, lineno: usize, open: usize, fn_end: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut out = String::new();
    for l in lineno..=(lineno + 6).min(fn_end) {
        let code = &unit.lines[l].code;
        let text = if l == lineno { &code[open..] } else { code.as_str() };
        for c in text.chars() {
            match c {
                '(' => {
                    depth += 1;
                    if depth == 1 {
                        continue;
                    }
                }
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(out);
                    }
                }
                _ => {}
            }
            if depth >= 1 {
                out.push(c);
            }
        }
        out.push(' ');
    }
    None
}

/// Two passes over `let` bindings so a trusted local can feed a later
/// one regardless of textual order within the fn.
fn collect_trusted_locals(unit: &Unit, start: usize, end: usize) -> BTreeSet<String> {
    let mut trusted_locals = BTreeSet::new();
    for _ in 0..2 {
        for lineno in start..=end {
            let code = &unit.lines[lineno].code;
            let Some(let_pos) = word_occurrences(code, "let").into_iter().next() else {
                continue;
            };
            let Some(eq) = code[let_pos..]
                .find('=')
                .map(|p| p + let_pos)
                .filter(|&p| !code[p..].starts_with("=="))
            else {
                continue;
            };
            let mut lhs = code[let_pos + 3..eq].trim();
            lhs = lhs.strip_prefix("mut ").unwrap_or(lhs).trim();
            let name: String = lhs.chars().take_while(|&c| is_ident_char(c)).collect();
            if name.is_empty() {
                continue;
            }
            let rhs = code[eq + 1..].trim().trim_end_matches(';');
            if !rhs.is_empty() && trusted(rhs, &trusted_locals, 0) {
                trusted_locals.insert(name);
            }
        }
    }
    trusted_locals
}

/// Does this identifier look like it carries seed provenance?
fn seed_shaped(ident: &str) -> bool {
    ident.to_ascii_lowercase().contains("seed")
}

fn compact(expr: &str) -> String {
    let one_line: String = expr.split_whitespace().collect::<Vec<_>>().join(" ");
    if one_line.len() > 60 {
        format!("{}…", &one_line[..one_line.len().min(57)])
    } else {
        one_line
    }
}

/// The trust judgment. `depth` bounds recursion on pathological input.
fn trusted(expr: &str, locals: &BTreeSet<String>, depth: u32) -> bool {
    if depth > 12 {
        return false;
    }
    let mut e = expr.trim();
    // Unwrap grouping and borrows.
    loop {
        let before = e;
        e = e.trim();
        if let Some(s) = e.strip_prefix('&') {
            e = s;
        }
        if let Some(s) = e.strip_prefix("mut ") {
            e = s;
        }
        if e.starts_with('(') && e.ends_with(')') && balanced(e) {
            e = &e[1..e.len() - 1];
        }
        if e == before {
            break;
        }
    }
    // `x as u64` — the cast preserves provenance.
    if let Some(pos) = top_level_find(e, " as ") {
        return trusted(&e[..pos], locals, depth + 1);
    }
    // Binary mix-ins: trusted if any operand is.
    if let Some(parts) = top_level_split(e, &['^', '|', '&', '+', '-', '*']) {
        return parts.iter().any(|p| trusted(p, locals, depth + 1));
    }
    // Integer literal.
    if e.chars().next().is_some_and(|c| c.is_ascii_digit())
        && e.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return true;
    }
    // Call forms: `name(args)`, `path::name(args)`, `recv.name(args)`.
    if e.ends_with(')') {
        if let Some(open) = matching_open_paren(e) {
            let head = &e[..open];
            let args = &e[open + 1..e.len() - 1];
            let callee: String = head
                .chars()
                .rev()
                .take_while(|&c| is_ident_char(c))
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if seed_shaped(&callee) {
                let first = top_level_first_arg(args);
                return trusted(first, locals, depth + 1);
            }
            if PRESERVING_METHODS.contains(&callee.as_str()) {
                let recv = head.trim_end_matches(|c: char| is_ident_char(c)).trim_end_matches('.');
                return trusted(recv, locals, depth + 1)
                    || trusted(top_level_first_arg(args), locals, depth + 1);
            }
            return false;
        }
    }
    // Plain path: trusted if any segment is seed-shaped or the final
    // segment is a trusted local.
    if e.chars().all(|c| is_ident_char(c) || c == '.' || c == ':') && !e.is_empty() {
        let segments: Vec<&str> = e.split(['.', ':']).filter(|s| !s.is_empty()).collect();
        if segments.iter().any(|s| seed_shaped(s)) {
            return true;
        }
        if let Some(last) = segments.last() {
            return locals.contains(*last);
        }
    }
    false
}

fn balanced(e: &str) -> bool {
    let mut depth = 0i32;
    for (i, c) in e.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 && i != e.len() - 1 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0
}

/// Byte position of `needle` at paren/bracket depth 0, if any.
fn top_level_find(e: &str, needle: &str) -> Option<usize> {
    let bytes = e.as_bytes();
    let mut depth = 0i32;
    for i in 0..e.len() {
        match bytes[i] {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth -= 1,
            _ => {}
        }
        if depth == 0 && e[i..].starts_with(needle) {
            return Some(i);
        }
    }
    None
}

/// Split on any of `ops` at depth 0; `None` if no top-level operator.
/// `->`, `::`, `|..|` closures and unary minus are avoided by requiring
/// the operator to be surrounded by spaces.
fn top_level_split<'a>(e: &'a str, ops: &[char]) -> Option<Vec<&'a str>> {
    let bytes = e.as_bytes();
    let mut depth = 0i32;
    let mut cuts = Vec::new();
    for i in 0..e.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            _ => {}
        }
        if depth == 0
            && i > 0
            && i + 1 < e.len()
            && ops.contains(&(bytes[i] as char))
            && bytes[i - 1] == b' '
            && bytes[i + 1] == b' '
        {
            cuts.push(i);
        }
    }
    if cuts.is_empty() {
        return None;
    }
    let mut parts = Vec::new();
    let mut prev = 0;
    for cut in cuts {
        parts.push(&e[prev..cut]);
        prev = cut + 1;
    }
    parts.push(&e[prev..]);
    Some(parts)
}

/// The `(` opening the trailing argument list of `expr` (which ends
/// with `)`), or `None` when parens don't parse as one trailing list.
fn matching_open_paren(e: &str) -> Option<usize> {
    let chars: Vec<char> = e.chars().collect();
    let mut depth = 0i32;
    for i in (0..chars.len()).rev() {
        match chars[i] {
            ')' => depth += 1,
            '(' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

fn top_level_first_arg(args: &str) -> &str {
    let bytes = args.as_bytes();
    let mut depth = 0i32;
    for i in 0..args.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b',' if depth == 0 => return &args[..i],
            _ => {}
        }
    }
    args
}
