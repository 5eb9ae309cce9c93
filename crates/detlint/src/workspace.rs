//! Workspace model: every scanned file plus a cross-file function
//! index, with the conservative call-resolution policy shared by the
//! R6 (lock nesting) and R8 (hot alloc) passes.
//!
//! Resolution is name-based — detlint has no type information — so the
//! two passes ask for different failure modes:
//!
//! * **Union** (R6): an ambiguous method call resolves to *every*
//!   function of that name. Over-approximating callees can only add
//!   reported nestings, which is fail-closed for a deadlock lint.
//! * **Unique** (R8): a call resolves only when exactly one candidate
//!   exists. Alloc tokens are everywhere, so over-approximation would
//!   drown the hot-path lint in noise; under-approximation is backed
//!   dynamically by `alloc_probe`.
//!
//! Method names that collide with std (`get`, `insert`, `iter`, …)
//! never resolve through a non-`self` receiver in either mode: a
//! `HashMap::get` misread as a first-party `get` would wire unrelated
//! functions into the graph. Any other method call through a non-`self`
//! receiver resolves only to impls in the caller's crate or in a crate
//! it reaches through workspace path dependencies, read from the
//! members' `Cargo.toml` files: a receiver's type must come from a crate
//! the caller can name. A crate whose manifest was not scanned may reach
//! any crate.

use crate::parse::{Call, CallKind, ParsedFile};
use crate::scan::ScanLine;
use std::collections::{BTreeMap, BTreeSet};

/// One analyzed file.
pub struct Unit {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// Raw source lines (snippets).
    pub raw: Vec<String>,
    /// Scanned channels.
    pub lines: Vec<ScanLine>,
    /// Item model.
    pub parsed: ParsedFile,
}

/// Identifies one fn: `(unit index, fn index within the unit)`.
pub type FnRef = (usize, usize);

/// All units plus the function index.
pub struct Workspace {
    pub units: Vec<Unit>,
    /// fn name → every definition carrying that name.
    fn_index: BTreeMap<String, Vec<FnRef>>,
    /// Crate → every crate it reaches through path dependencies; only
    /// crates whose manifest was scanned have an entry.
    crate_reach: BTreeMap<String, BTreeSet<String>>,
}

/// Method names too generic to resolve through an arbitrary receiver:
/// std collections/iterators/strings own these, and misattributing
/// them to a same-named first-party method would wire unrelated code
/// into the call graph.
const COLLISION_NAMES: [&str; 42] = [
    "get",
    "insert",
    "remove",
    "len",
    "is_empty",
    "push",
    "pop",
    "clear",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "extend",
    "drain",
    "contains",
    "contains_key",
    "new",
    "default",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "as_str",
    "as_ref",
    "to_string",
    "min",
    "max",
    "abs",
    "map",
    "filter",
    "collect",
    "join",
    "zip",
    "take",
    "skip",
    "last",
    "expect",
    "unwrap",
    "run",
    "stats",
];

/// The crate a path belongs to: `crates/<name>` for workspace members,
/// the first component otherwise (`examples`, `tests`).
fn crate_of(path: &str) -> &str {
    let mut slashes = path.match_indices('/').map(|(i, _)| i);
    match (slashes.next(), slashes.next()) {
        (Some(first), Some(second)) if path.starts_with("crates/") => {
            let _ = first;
            &path[..second]
        }
        (Some(first), _) => &path[..first],
        (None, _) => path,
    }
}

/// How a call must match before it is followed into the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolve {
    /// All candidates (fail-closed for lock-class propagation).
    Union,
    /// Exactly one candidate or nothing (fail-open, low-noise).
    Unique,
}

/// `(table header, dependency name, line)` for every entry of a
/// manifest's dependency tables.
fn dependencies(manifest: &str) -> Vec<(&str, &str, &str)> {
    let mut table = "";
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
        } else if table.ends_with("dependencies]") {
            let name = line.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-')).next();
            if let Some(name) = name.filter(|name| !name.is_empty()) {
                out.push((table, name, line));
            }
        }
    }
    out
}

/// The crate a dependency line's `path = "…"` names, relative to the
/// manifest at `manifest_path` (`crates/core/Cargo.toml` +
/// `../minidb` → `crates/minidb`).
fn path_dependency(manifest_path: &str, line: &str) -> Option<String> {
    let relative = line.split("path").skip(1).find_map(|rest| {
        rest.trim_start().strip_prefix('=')?.trim_start().strip_prefix('"')?.split('"').next()
    })?;
    let mut parts: Vec<&str> = manifest_path.split('/').collect();
    parts.pop(); // `Cargo.toml`
    for segment in relative.split('/') {
        match segment {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            _ => parts.push(segment),
        }
    }
    parts.push("Cargo.toml");
    Some(crate_of(&parts.join("/")).to_string())
}

/// Crate → the crates it reaches through path dependencies,
/// transitively, for every scanned member manifest. The root manifest's
/// `[workspace.dependencies]` resolve `name.workspace = true` entries.
fn crate_reach(manifests: &[(String, String)]) -> BTreeMap<String, BTreeSet<String>> {
    let workspace: BTreeMap<&str, String> = manifests
        .iter()
        .filter(|(path, _)| path == "Cargo.toml")
        .flat_map(|(path, text)| {
            dependencies(text)
                .into_iter()
                .filter(|(table, ..)| *table == "[workspace.dependencies]")
                .filter_map(|(_, name, line)| Some((name, path_dependency(path, line)?)))
        })
        .collect();
    let mut reach: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (path, text) in manifests.iter().filter(|(path, _)| path != "Cargo.toml") {
        let reached = reach.entry(crate_of(path).to_string()).or_default();
        for (_, name, line) in dependencies(text) {
            if line.contains("workspace") {
                reached.extend(workspace.get(name).cloned());
            } else {
                reached.extend(path_dependency(path, line));
            }
        }
    }
    loop {
        let direct = reach.clone();
        let mut changed = false;
        for reached in reach.values_mut() {
            let further: Vec<&String> =
                reached.iter().flat_map(|c| direct.get(c).into_iter().flatten()).collect();
            for krate in further {
                changed |= reached.insert(krate.clone());
            }
        }
        if !changed {
            return reach;
        }
    }
}

impl Workspace {
    /// Index `units`; `manifests` are the `(path, contents)` of the
    /// scanned `Cargo.toml` files.
    pub fn build(units: Vec<Unit>, manifests: &[(String, String)]) -> Workspace {
        let mut fn_index: BTreeMap<String, Vec<FnRef>> = BTreeMap::new();
        for (u, unit) in units.iter().enumerate() {
            for (f, item) in unit.parsed.fns.iter().enumerate() {
                fn_index.entry(item.name.clone()).or_default().push((u, f));
            }
        }
        Workspace { units, fn_index, crate_reach: crate_reach(manifests) }
    }

    /// Whether code in the crate of unit `from` can name a type defined
    /// in the crate of unit `to`.
    fn crate_reaches(&self, from: usize, to: usize) -> bool {
        let from = crate_of(&self.units[from].path);
        let to = crate_of(&self.units[to].path);
        from == to || self.crate_reach.get(from).is_none_or(|reached| reached.contains(to))
    }

    pub fn fn_item(&self, fr: FnRef) -> &crate::parse::FnItem {
        &self.units[fr.0].parsed.fns[fr.1]
    }

    /// Human-readable `Type::name` / `name` label for diagnostics.
    pub fn fn_label(&self, fr: FnRef) -> String {
        let item = self.fn_item(fr);
        match &item.impl_type {
            Some(ty) => format!("{ty}::{}", item.name),
            None => item.name.clone(),
        }
    }

    /// Resolve a call made from `caller` under the given policy.
    pub fn resolve(&self, caller: FnRef, call: &Call, policy: Resolve) -> Vec<FnRef> {
        let Some(candidates) = self.fn_index.get(&call.name) else {
            return Vec::new();
        };
        let caller_impl = self.fn_item(caller).impl_type.clone();
        let picked: Vec<FnRef> = match &call.kind {
            CallKind::Macro => Vec::new(),
            CallKind::Qualified { qualifier } => {
                let target_ty =
                    if qualifier == "Self" { caller_impl.clone() } else { Some(qualifier.clone()) };
                let typed: Vec<FnRef> = candidates
                    .iter()
                    .copied()
                    .filter(|fr| self.fn_item(*fr).impl_type == target_ty)
                    .collect();
                if typed.is_empty() && qualifier.chars().next().is_some_and(|c| c.is_lowercase()) {
                    // `module::helper(..)` — fall back to free fns.
                    candidates
                        .iter()
                        .copied()
                        .filter(|fr| self.fn_item(*fr).impl_type.is_none())
                        .collect()
                } else {
                    typed
                }
            }
            CallKind::Method { receiver } => {
                if receiver == "self" || receiver.ends_with(".self") {
                    candidates
                        .iter()
                        .copied()
                        .filter(|fr| {
                            self.fn_item(*fr).impl_type == caller_impl && caller_impl.is_some()
                        })
                        .collect()
                } else if COLLISION_NAMES.contains(&call.name.as_str()) {
                    Vec::new()
                } else {
                    candidates
                        .iter()
                        .copied()
                        .filter(|fr| {
                            self.fn_item(*fr).impl_type.is_some()
                                && self.crate_reaches(caller.0, fr.0)
                        })
                        .collect()
                }
            }
            CallKind::Free => {
                // An unqualified call cannot leave the caller's crate
                // (that would need a `use` we can't see — and resolving
                // across crates wires unrelated same-named helpers
                // together).
                let crate_root = crate_of(&self.units[caller.0].path);
                let free: Vec<FnRef> = candidates
                    .iter()
                    .copied()
                    .filter(|fr| {
                        self.fn_item(*fr).impl_type.is_none()
                            && crate_of(&self.units[fr.0].path) == crate_root
                    })
                    .collect();
                // Same-file definitions shadow cross-file ones.
                let local: Vec<FnRef> =
                    free.iter().copied().filter(|fr| fr.0 == caller.0).collect();
                if local.is_empty() {
                    free
                } else {
                    local
                }
            }
        };
        match policy {
            Resolve::Union => picked,
            Resolve::Unique => {
                if picked.len() == 1 {
                    picked
                } else {
                    Vec::new()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_reach_follows_path_dependencies_transitively() {
        let manifests = [
            ("Cargo.toml", "[workspace.dependencies]\nsqlkit = { path = \"crates/sqlkit\" }\n"),
            ("crates/core/Cargo.toml", "[dependencies]\nminidb = { path = \"../minidb\" }\n"),
            ("crates/minidb/Cargo.toml", "[dependencies]\nsqlkit.workspace = true\n"),
            ("crates/sqlkit/Cargo.toml", "[lints]\nworkspace = true\n"),
        ]
        .map(|(path, text)| (path.to_string(), text.to_string()));
        let reach = crate_reach(&manifests);
        let names = |krate: &str| reach[krate].iter().cloned().collect::<Vec<_>>();
        assert_eq!(names("crates/core"), ["crates/minidb", "crates/sqlkit"]);
        assert_eq!(names("crates/minidb"), ["crates/sqlkit"]);
        assert!(names("crates/sqlkit").is_empty());
    }
}
