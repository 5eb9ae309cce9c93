//! Lightweight item parser: the IR behind the workspace-aware passes.
//!
//! detlint v1 was a pure line scanner. The concurrency/provenance rules
//! (R6/R7/R8) need more structure — which lines belong to which
//! function, which `impl` a method lives in, what a function calls —
//! so this module parses the [`ScanLine`] view (comments already
//! stripped, strings already blanked, so braces and keywords inside
//! literals cannot confuse it) into a flat item model:
//!
//! * [`FnItem`] — every `fn`, with its name, the self-type of the
//!   enclosing `impl`/`trait` block (if any), and the line span of its
//!   body;
//! * per-line brace depth ([`ParsedFile::depth_start`]), which the lock
//!   pass uses to bound guard liveness to the enclosing block;
//! * call-site extraction ([`calls_in`]) classifying each call as a
//!   method call (with receiver text), a `Path::call`, a free call, or
//!   a macro.
//!
//! This is intentionally not a full grammar. It tracks exactly the
//! token patterns the passes consume and degrades conservatively:
//! a construct it cannot attribute is simply not indexed (the paired
//! runtime lock tracker exists precisely to catch what the
//! static model under-approximates).

use crate::scan::ScanLine;

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Self type of the enclosing `impl`/`trait` block (last path
    /// segment, generics stripped), or `None` for free functions.
    pub impl_type: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based line of the body's opening `{` (equals `sig_line` for
    /// single-line signatures). Meaningless when `body_end` is `None`.
    pub body_start: usize,
    /// 0-based line of the body's closing `}`; `None` for bodyless
    /// declarations (trait methods, externs).
    pub body_end: Option<usize>,
}

impl FnItem {
    /// Inclusive body line range, if the fn has a body.
    pub fn body(&self) -> Option<(usize, usize)> {
        self.body_end.map(|end| (self.body_start, end))
    }
}

/// Parse result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    /// Brace depth at the start of each line.
    pub depth_start: Vec<u32>,
    /// Index into `fns` of the innermost function whose body contains
    /// each line (`None` outside any fn body).
    pub line_fn: Vec<Option<usize>>,
}

impl ParsedFile {
    /// Last line (0-based, inclusive) of the block enclosing a binding
    /// introduced at `line`: the first subsequent line that starts at a
    /// shallower depth closes the block, so the binding lives through
    /// the line before it — i.e. through the closing `}` line itself.
    pub fn block_last_line(&self, line: usize) -> usize {
        let Some(&depth) = self.depth_start.get(line + 1) else {
            return self.depth_start.len().saturating_sub(1);
        };
        for (later, &d) in self.depth_start.iter().enumerate().skip(line + 2) {
            if d < depth {
                return later - 1;
            }
        }
        self.depth_start.len().saturating_sub(1)
    }
}

enum Pending {
    Fn { name: String, sig_line: usize },
    Impl { header: String },
}

enum Ctx {
    /// Open fn body: index into `fns`.
    Fn(usize),
    /// Open `impl`/`trait` block with this self-type name.
    Impl(String),
    /// Any other brace (struct, match, closure, plain block, …).
    Other,
}

/// Parse the scanned lines of one file.
pub fn parse(lines: &[ScanLine]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending: Option<Pending> = None;
    // Paren/bracket depth inside a pending fn signature, so the `;` in
    // `fn f(x: [u8; 32])` doesn't read as a bodyless declaration.
    let mut sig_depth = 0i32;

    for (lineno, line) in lines.iter().enumerate() {
        out.depth_start.push(stack.len() as u32);
        let code: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < code.len() {
            let c = code[i];
            // An open impl/trait header swallows everything up to its
            // `{` (or a `;` — `type X = impl Trait;` in type position).
            if let Some(Pending::Impl { header }) = &mut pending {
                if c != '{' && c != ';' {
                    header.push(c);
                    i += 1;
                    continue;
                }
            }
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < code.len() && (code[i].is_alphanumeric() || code[i] == '_') {
                    i += 1;
                }
                let ident: String = code[start..i].iter().collect();
                match ident.as_str() {
                    "fn" => {
                        let mut j = i;
                        while j < code.len() && code[j].is_whitespace() {
                            j += 1;
                        }
                        let name_start = j;
                        while j < code.len() && (code[j].is_alphanumeric() || code[j] == '_') {
                            j += 1;
                        }
                        let name: String = code[name_start..j].iter().collect();
                        if !name.is_empty() {
                            pending = Some(Pending::Fn { name, sig_line: lineno });
                            sig_depth = 0;
                        }
                        i = j;
                    }
                    // `impl`/`trait` only open an item when we are not
                    // inside a signature (`-> impl Iterator`, `x: impl
                    // Fn()` keep the pending fn).
                    "impl" | "trait" if pending.is_none() => {
                        pending = Some(Pending::Impl { header: String::new() });
                    }
                    _ => {}
                }
                continue;
            }
            match c {
                '{' => {
                    match pending.take() {
                        Some(Pending::Fn { name, sig_line }) => {
                            let impl_type = stack.iter().rev().find_map(|ctx| {
                                match ctx {
                                    Ctx::Impl(ty) => Some(ty.clone()),
                                    // A nested fn inside a method is a
                                    // free item, not a method of the
                                    // outer impl.
                                    Ctx::Fn(_) => Some(String::new()),
                                    Ctx::Other => None,
                                }
                            });
                            let impl_type = impl_type.filter(|t| !t.is_empty());
                            out.fns.push(FnItem {
                                name,
                                impl_type,
                                sig_line,
                                body_start: lineno,
                                body_end: None,
                            });
                            stack.push(Ctx::Fn(out.fns.len() - 1));
                        }
                        Some(Pending::Impl { header }) => {
                            stack.push(Ctx::Impl(impl_self_type(&header)));
                        }
                        None => stack.push(Ctx::Other),
                    }
                }
                '}' => {
                    if let Some(Ctx::Fn(idx)) = stack.pop() {
                        out.fns[idx].body_end = Some(lineno);
                    }
                }
                '(' | '[' if pending.is_some() => sig_depth += 1,
                ')' | ']' if pending.is_some() => sig_depth -= 1,
                ';' if sig_depth > 0 => {} // `[u8; 32]` inside a signature
                ';' => {
                    // Bodyless declaration (trait method, extern) or a
                    // type-position `impl` — drop the pending item.
                    if let Some(Pending::Fn { name, sig_line }) = pending.take() {
                        let impl_type = stack.iter().rev().find_map(|ctx| match ctx {
                            Ctx::Impl(ty) => Some(ty.clone()),
                            Ctx::Fn(_) => Some(String::new()),
                            Ctx::Other => None,
                        });
                        out.fns.push(FnItem {
                            name,
                            impl_type: impl_type.filter(|t| !t.is_empty()),
                            sig_line,
                            body_start: lineno,
                            body_end: None,
                        });
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    // Innermost-fn line attribution: larger body_start wins (a nested
    // fn starts later than anything that encloses it).
    out.line_fn = vec![None; lines.len()];
    for (idx, f) in out.fns.iter().enumerate() {
        let Some((start, end)) = f.body() else { continue };
        for slot in out.line_fn.iter_mut().take(end.min(lines.len() - 1) + 1).skip(start) {
            let replace = match slot {
                Some(prev) => out.fns[*prev].body_start <= start,
                None => true,
            };
            if replace {
                *slot = Some(idx);
            }
        }
    }
    out
}

/// Self-type name of an `impl`/`trait` header: generics skipped, the
/// type after ` for ` preferred (`impl<T> Drop for Guard<'_, T>` →
/// `Guard`; `impl CostOracle<'db>` → `CostOracle`; `trait Foo: Bar` →
/// `Foo`).
fn impl_self_type(header: &str) -> String {
    let mut h = header.trim();
    if let Some(rest) = h.strip_prefix('<') {
        let mut depth = 1i32;
        let mut cut = rest.len();
        for (pos, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = pos + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        h = rest[cut.min(rest.len())..].trim_start();
    }
    // Last top-level ` for ` separates trait from self type.
    let mut depth = 0i32;
    let mut ty_start = 0usize;
    let bytes = h.as_bytes();
    for pos in 0..h.len() {
        match bytes[pos] {
            b'<' => depth += 1,
            b'>' => depth = (depth - 1).max(0),
            b'f' if depth == 0
                && h[pos..].starts_with("for ")
                && pos > 0
                && bytes[pos - 1] == b' ' =>
            {
                ty_start = pos + 4;
            }
            _ => {}
        }
    }
    let ty = h[ty_start..].trim_start();
    // Leading path up to generics/whitespace; keep the last segment.
    let path: String =
        ty.chars().take_while(|&c| c.is_alphanumeric() || c == '_' || c == ':').collect();
    path.rsplit("::").next().unwrap_or("").trim_matches(':').to_string()
}

/// Classification of one call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(..)` — `receiver` is the trimmed expression text
    /// before the dot (`self`, an ident, or opaque like `f()`).
    Method { receiver: String },
    /// `Qualifier::name(..)`.
    Qualified { qualifier: String },
    /// `name(..)`.
    Free,
    /// `name!(..)`.
    Macro,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct Call {
    /// 0-based line.
    pub line: usize,
    /// Byte column of the callee name on that line.
    pub col: usize,
    pub name: String,
    pub kind: CallKind,
}

const KEYWORDS: [&str; 30] = [
    "if", "else", "while", "for", "loop", "match", "return", "fn", "as", "in", "move", "ref",
    "mut", "let", "pub", "use", "mod", "impl", "trait", "struct", "enum", "where", "unsafe", "dyn",
    "break", "continue", "crate", "super", "static", "const",
];

/// Extract every call site in `fns[fn_idx]`'s body.
pub fn calls_in(lines: &[ScanLine], parsed: &ParsedFile, fn_idx: usize) -> Vec<Call> {
    let mut out = Vec::new();
    let Some((start, end)) = parsed.fns[fn_idx].body() else {
        return out;
    };
    let last = end.min(lines.len() - 1);
    for (lineno, line) in lines.iter().enumerate().take(last + 1).skip(start) {
        if parsed.line_fn[lineno] != Some(fn_idx) {
            continue; // line belongs to a nested fn
        }
        let code = &line.code;
        let trimmed = code.trim_start();
        if trimmed.starts_with("#[") || trimmed.starts_with("#![") {
            continue; // attribute arguments are not calls
        }
        extract_calls_on_line(code, lineno, &mut out);
    }
    out
}

fn extract_calls_on_line(code: &str, lineno: usize, out: &mut Vec<Call>) {
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        if !(chars[i].is_alphabetic() || chars[i] == '_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        let name: String = chars[start..i].iter().collect();
        // Optional turbofish between name and the paren.
        let mut j = i;
        if chars.get(j) == Some(&':')
            && chars.get(j + 1) == Some(&':')
            && chars.get(j + 2) == Some(&'<')
        {
            let mut depth = 0i32;
            let mut k = j + 2;
            while k < chars.len() {
                match chars[k] {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k;
        }
        let is_macro = chars.get(j) == Some(&'!');
        if is_macro {
            j += 1;
        }
        if !matches!(chars.get(j), Some(&'(')) {
            continue;
        }
        if KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        if is_macro {
            out.push(Call { line: lineno, col: start, name, kind: CallKind::Macro });
            continue;
        }
        // Classify by what precedes the name.
        let before = &chars[..start];
        let prev = before.iter().rev().find(|c| !c.is_whitespace()).copied();
        let kind = if prev == Some('.') {
            let dot = before.iter().rposition(|&c| c == '.').unwrap();
            let receiver: String = chars[..dot].iter().collect();
            CallKind::Method { receiver: receiver.trim().to_string() }
        } else if start >= 2 && chars[start - 1] == ':' && chars[start - 2] == ':' {
            let qual_end = start - 2;
            let mut qs = qual_end;
            while qs > 0 && (chars[qs - 1].is_alphanumeric() || chars[qs - 1] == '_') {
                qs -= 1;
            }
            let qualifier: String = chars[qs..qual_end].iter().collect();
            CallKind::Qualified { qualifier }
        } else if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            // `fn name(` — a declaration, already tokenized; skip.
            continue;
        } else {
            CallKind::Free
        };
        // Skip the declaration site itself (`fn name(`).
        let head: String = before.iter().collect();
        let head = head.trim_end();
        if head.ends_with("fn") {
            continue;
        }
        out.push(Call { line: lineno, col: start, name, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn parsed(src: &str) -> (Vec<ScanLine>, ParsedFile) {
        let lines = scan(src);
        let p = parse(&lines);
        (lines, p)
    }

    #[test]
    fn finds_fns_and_impl_context() {
        let src = "struct S;\n\
                   impl S {\n\
                   pub fn method(&self) -> u32 {\n\
                   1\n\
                   }\n\
                   }\n\
                   fn free() {}\n";
        let (_, p) = parsed(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "method");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("S"));
        assert_eq!(p.fns[0].body(), Some((2, 4)));
        assert_eq!(p.fns[1].name, "free");
        assert_eq!(p.fns[1].impl_type, None);
    }

    #[test]
    fn trait_impls_resolve_the_self_type() {
        let src = "impl<T: Clone> std::ops::Deref for Guard<'_, T> {\n\
                   fn deref(&self) -> &T { &self.0 }\n\
                   }\n";
        let (_, p) = parsed(src);
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Guard"));
    }

    #[test]
    fn return_position_impl_does_not_break_fn_attribution() {
        let src = "impl S {\n\
                   fn iter(&self) -> impl Iterator<Item = u32> + '_ {\n\
                   (0..3).map(|x| x)\n\
                   }\n\
                   }\n";
        let (_, p) = parsed(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "iter");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("S"));
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait T {\n\
                   fn required(&self) -> u32;\n\
                   fn provided(&self) -> u32 { 1 }\n\
                   }\n";
        let (_, p) = parsed(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].body(), None);
        assert_eq!(p.fns[1].body(), Some((2, 2)));
        assert_eq!(p.fns[1].impl_type.as_deref(), Some("T"));
    }

    #[test]
    fn nested_fns_own_their_lines() {
        let src = "fn outer() {\n\
                   fn inner() {\n\
                   work();\n\
                   }\n\
                   other();\n\
                   }\n";
        let (lines, p) = parsed(src);
        assert_eq!(p.line_fn[2], Some(1)); // work() belongs to inner
        assert_eq!(p.line_fn[4], Some(0)); // other() belongs to outer
        let outer_calls = calls_in(&lines, &p, 0);
        assert_eq!(outer_calls.len(), 1);
        assert_eq!(outer_calls[0].name, "other");
    }

    #[test]
    fn call_kinds_are_classified() {
        let src = "fn f(&self) {\n\
                   self.helper(1);\n\
                   Type::assoc(2);\n\
                   free_call(3);\n\
                   vec![1].sort();\n\
                   format!(\"x\");\n\
                   items.iter().collect::<Vec<_>>();\n\
                   }\n";
        let (lines, p) = parsed(src);
        let calls = calls_in(&lines, &p, 0);
        let kinds: Vec<(&str, &CallKind)> =
            calls.iter().map(|c| (c.name.as_str(), &c.kind)).collect();
        assert!(kinds.iter().any(|(n, k)| *n == "helper"
            && matches!(k, CallKind::Method { receiver } if receiver == "self")));
        assert!(kinds.iter().any(|(n, k)| *n == "assoc"
            && matches!(k, CallKind::Qualified { qualifier } if qualifier == "Type")));
        assert!(kinds.iter().any(|(n, k)| *n == "free_call" && matches!(k, CallKind::Free)));
        assert!(kinds.iter().any(|(n, k)| *n == "format" && matches!(k, CallKind::Macro)));
        assert!(kinds.iter().any(|(n, k)| *n == "collect" && matches!(k, CallKind::Method { .. })));
    }

    #[test]
    fn block_last_line_bounds_guard_liveness() {
        let src = "fn f() {\n\
                   {\n\
                   let g = 1;\n\
                   use_it(g);\n\
                   }\n\
                   after();\n\
                   }\n";
        let (_, p) = parsed(src);
        // Binding at line 2 lives through the closing `}` at line 4.
        assert_eq!(p.block_last_line(2), 4);
    }

    #[test]
    fn strings_and_comments_do_not_confuse_braces() {
        let src = "fn f() {\n\
                   let s = \"{ not a brace }\";\n\
                   // } also not\n\
                   done();\n\
                   }\n";
        let (_, p) = parsed(src);
        assert_eq!(p.fns[0].body(), Some((0, 4)));
    }
}
