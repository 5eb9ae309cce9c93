//! R8 `hot_alloc`: statically enforced zero-alloc hot paths.
//!
//! `alloc_probe` proves dynamically that the steady-state batch loops
//! don't allocate; this pass proves the same property *structurally*
//! and keeps it from regressing through a helper three calls away. A
//! function is **hot** when a `detlint::hot` comment sits on or within
//! three lines above its signature. A hot function may not contain an
//! allocating token, nor reach one through any intra-workspace call
//! chain (unique-resolution: an ambiguous call is not followed — the
//! dynamic probe backs the under-approximation, and over-approximating
//! here would bury the signal in `HashMap::get` lookalikes).
//!
//! The token list is the *allocation* surface, not the *growth*
//! surface: `push`/`extend`/`reserve` on pre-sized scratch are exactly
//! the amortized-reuse pattern the hot paths are built on and stay
//! legal; so does `clone` of `Copy`-ish values. Cold error paths inside
//! hot functions carry reasoned suppressions. Two further exemptions:
//! lines under `#[cfg(debug_assertions)]` are compiled out of release
//! builds (the contract is a release-mode promise), and a hot callee is
//! not re-reported from a hot caller — it is audited at its own site.
//!
//! Findings anchor at the offending line in the hot function itself
//! (the direct allocation, or the call that starts the chain), so a
//! suppression at the hot site governs the whole chain below it.

use crate::parse::calls_in;
use crate::rules::RuleId;
use crate::workspace::{FnRef, Resolve, Workspace};
use crate::Finding;
use std::collections::BTreeMap;

/// Lines above a fn signature a `detlint::hot` comment may sit.
const HOT_ANNOTATION_REACH: usize = 3;

/// Tokens that allocate on every hit. `Vec::new()`/`String::new()` are
/// deliberately absent: both are alloc-free by std guarantee (capacity
/// zero), and in this tree they mark empty sentinels and grow-once
/// scratch — it is the later growth that allocates, which the
/// amortized-reuse exemption already covers. Fresh map/set/deque
/// construction stays listed: a hot path that builds one populates it.
const ALLOC_TOKENS: [&str; 20] = [
    "Vec::with_capacity(",
    "vec!",
    "String::from(",
    "String::with_capacity(",
    "format!",
    ".to_string(",
    ".to_owned(",
    ".to_vec(",
    ".into_owned(",
    "Box::new(",
    "Rc::new(",
    "Arc::new(",
    ".collect(",
    ".collect::<",
    "HashMap::new(",
    "HashSet::new(",
    "BTreeMap::new(",
    "BTreeSet::new(",
    "VecDeque::new(",
    ".join(",
];

pub(crate) fn check(ws: &Workspace, findings: &mut Vec<Finding>) {
    // Direct allocation sites per fn, computed once.
    let mut direct: BTreeMap<FnRef, Vec<(usize, &'static str)>> = BTreeMap::new();
    let mut hot: Vec<FnRef> = Vec::new();
    let masks: Vec<Vec<bool>> = ws.units.iter().map(debug_only_lines).collect();
    for (u, unit) in ws.units.iter().enumerate() {
        let debug_only = &masks[u];
        for (f, item) in unit.parsed.fns.iter().enumerate() {
            let Some((start, end)) = item.body() else { continue };
            let end = end.min(unit.lines.len() - 1);
            let mut sites = Vec::new();
            for (lineno, masked) in debug_only.iter().enumerate().take(end + 1).skip(start) {
                if unit.parsed.line_fn[lineno] != Some(f) || *masked {
                    continue;
                }
                let code = &unit.lines[lineno].code;
                for token in ALLOC_TOKENS {
                    if code.contains(token) {
                        sites.push((lineno, token));
                        break; // one site per line is enough
                    }
                }
            }
            direct.insert((u, f), sites);
            let sig = item.sig_line;
            let tagged = (sig.saturating_sub(HOT_ANNOTATION_REACH)..=sig)
                .any(|l| unit.lines[l].comment.contains("detlint::hot"));
            if tagged {
                hot.push((u, f));
            }
        }
    }

    // Lazily memoized "does this fn reach an allocation, and how":
    // None = no, Some(chain) = yes. In-progress entries read as no
    // (cuts recursion; a cycle cannot introduce a new alloc site).
    let mut memo: BTreeMap<FnRef, Option<AllocChain>> = BTreeMap::new();

    for &hf in &hot {
        let unit = &ws.units[hf.0];
        // Direct sites in the hot fn itself.
        for &(lineno, token) in &direct[&hf] {
            findings.push(Finding {
                file: unit.path.clone(),
                line: lineno + 1,
                rule: RuleId::HotAlloc,
                message: format!(
                    "allocation (`{}`) inside hot function `{}`; reuse \
                     pre-sized scratch or hoist it out of the batch loop",
                    token.trim_end_matches('('),
                    ws.fn_label(hf)
                ),
                snippet: String::new(),
            });
        }
        // Chains through callees, anchored at the first call site.
        let mut reported: Vec<usize> = Vec::new();
        for call in calls_in(&unit.lines, &unit.parsed, hf.1) {
            if reported.contains(&call.line) || masks[hf.0][call.line] {
                continue;
            }
            for target in ws.resolve(hf, &call, Resolve::Unique) {
                if hot.contains(&target) {
                    // A hot callee is audited at its own site; re-reporting
                    // its chains here would demand duplicate suppressions.
                    continue;
                }
                let Some(chain) = reaches_alloc(ws, target, &direct, &masks, &mut memo) else {
                    continue;
                };
                findings.push(Finding {
                    file: unit.path.clone(),
                    line: call.line + 1,
                    rule: RuleId::HotAlloc,
                    message: format!(
                        "hot function `{}` reaches an allocation through \
                         {}: `{}` at {}:{}",
                        ws.fn_label(hf),
                        chain.path_text(ws),
                        chain.token.trim_end_matches('('),
                        ws.units[chain.site.0 .0].path,
                        chain.site.1 + 1
                    ),
                    snippet: String::new(),
                });
                reported.push(call.line);
                break;
            }
        }
    }
}

/// Mask of lines governed by a `#[cfg(debug_assertions)]` attribute —
/// the block or item it introduces. Those lines are compiled out of
/// release builds, and the hot-path contract is a release-mode promise,
/// so their allocation sites don't count.
fn debug_only_lines(unit: &crate::workspace::Unit) -> Vec<bool> {
    let mut mask = vec![false; unit.lines.len()];
    let mut i = 0;
    while i < unit.lines.len() {
        if unit.lines[i].code.trim() != "#[cfg(debug_assertions)]" {
            i += 1;
            continue;
        }
        // Mask up to and through the block the attribute introduces.
        let mut j = i + 1;
        while j < unit.lines.len() && !unit.lines[j].code.contains('{') {
            mask[j] = true;
            j += 1;
        }
        if j >= unit.lines.len() {
            break;
        }
        let base = unit.parsed.depth_start[j];
        mask[j] = true;
        let mut k = j + 1;
        while k < unit.lines.len() && unit.parsed.depth_start[k] > base {
            mask[k] = true;
            k += 1;
        }
        i = k;
    }
    mask
}

#[derive(Clone)]
struct AllocChain {
    /// Call path from the first callee down to the allocating fn.
    path: Vec<FnRef>,
    /// `(fn, line)` of the allocation itself.
    site: (FnRef, usize),
    token: &'static str,
}

impl AllocChain {
    fn path_text(&self, ws: &Workspace) -> String {
        let labels: Vec<String> =
            self.path.iter().map(|fr| format!("`{}`", ws.fn_label(*fr))).collect();
        labels.join(" -> ")
    }
}

fn reaches_alloc(
    ws: &Workspace,
    fr: FnRef,
    direct: &BTreeMap<FnRef, Vec<(usize, &'static str)>>,
    masks: &[Vec<bool>],
    memo: &mut BTreeMap<FnRef, Option<AllocChain>>,
) -> Option<AllocChain> {
    if let Some(cached) = memo.get(&fr) {
        return cached.clone();
    }
    memo.insert(fr, None); // in-progress marker: cycles read as clean
    let mut result: Option<AllocChain> = None;
    if let Some(&(line, token)) = direct.get(&fr).and_then(|v| v.first()) {
        result = Some(AllocChain { path: vec![fr], site: (fr, line), token });
    } else {
        let unit = &ws.units[fr.0];
        'calls: for call in calls_in(&unit.lines, &unit.parsed, fr.1) {
            if masks[fr.0][call.line] {
                continue;
            }
            for target in ws.resolve(fr, &call, Resolve::Unique) {
                if let Some(sub) = reaches_alloc(ws, target, direct, masks, memo) {
                    let mut path = vec![fr];
                    path.extend(sub.path.iter().copied());
                    result = Some(AllocChain { path, site: sub.site, token: sub.token });
                    break 'calls;
                }
            }
        }
    }
    memo.insert(fr, result.clone());
    result
}
