//! A lightweight item parser on top of the token lexer: functions,
//! `impl`/`trait` blocks, inline modules and `use` declarations.
//!
//! This is the substrate the call graph and the panic/allocation audits
//! are built on. It is
//! deliberately partial — generics, lifetimes and expression structure
//! are skipped — but it recovers exactly what call resolution needs:
//! every function's name, enclosing `impl`/`trait` type, module path,
//! and body token range, plus the file's import aliases.

use crate::checks::exempt_ranges;
use crate::lexer::{Tok, TokKind};

/// One parsed function (or default trait method) with a body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// The enclosing `impl`/`trait` type name, if any.
    pub self_type: Option<String>,
    /// Module path inside the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range `[open, close]` of the body braces, if any
    /// (trait method signatures have none).
    pub body: Option<(usize, usize)>,
    /// `true` when the definition sits in a `#[cfg(test)]`/`#[test]`
    /// region — exempt from the workspace passes.
    pub exempt: bool,
}

/// One binding introduced by a `use` declaration: `alias` names `path`.
#[derive(Debug, Clone)]
pub struct UseItem {
    /// The name the import binds in this file (`as` alias or the last
    /// path segment).
    pub alias: String,
    /// Full path segments, e.g. `["ssr_cluster", "SlotId"]`.
    pub path: Vec<String>,
}

/// Everything the workspace passes need from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Crate directory name for `crates/<name>/…` paths.
    pub krate: Option<String>,
    /// Functions with their bodies.
    pub fns: Vec<FnItem>,
    /// Import aliases.
    pub uses: Vec<UseItem>,
}

/// The module path a file's items live in: `src/lib.rs`, `src/main.rs`
/// and `src/bin/*.rs` are crate roots (`[]`); `src/a/b.rs` is
/// `["a", "b"]`; `mod.rs` names its directory.
fn file_module_of(rel: &str) -> (Option<String>, Vec<String>) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (krate, rest) = match parts.as_slice() {
        ["crates", name, "src", rest @ ..] => (Some((*name).to_owned()), rest),
        _ => (None, &parts[..0]),
    };
    let mut module: Vec<String> = Vec::new();
    if rest.first() == Some(&"bin") {
        return (krate, module);
    }
    for (i, part) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "main" && stem != "mod" {
                module.push(stem.to_owned());
            }
        } else {
            module.push((*part).to_owned());
        }
    }
    (krate, module)
}

/// An open scope (module / impl / trait) and the token index of its
/// closing brace.
struct Scope {
    kind: ScopeKind,
    close: usize,
}

enum ScopeKind {
    Mod(String),
    Impl(String),
}

/// Parses one lexed file into items.
pub fn parse_file(rel: &str, tokens: &[Tok]) -> ParsedFile {
    let (krate, file_module) = file_module_of(rel);
    let exempt = exempt_ranges(tokens);
    let in_exempt = |line: u32| exempt.iter().any(|&(lo, hi)| lo <= line && line <= hi);

    let mut out = ParsedFile { krate, ..Default::default() };
    let mut scopes: Vec<Scope> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        while scopes.last().is_some_and(|s| s.close < i) {
            scopes.pop();
        }
        let t = &tokens[i];
        if t.is_ident("mod") && tokens.get(i + 1).map(|n| n.kind) == Some(TokKind::Ident) {
            let name = tokens[i + 1].text.clone();
            if tokens.get(i + 2).is_some_and(|b| b.is_punct("{")) {
                let close = matching_brace(tokens, i + 2);
                scopes.push(Scope { kind: ScopeKind::Mod(name), close });
                i += 3;
                continue;
            }
            i += 2; // `mod name;` — file modules come from paths
            continue;
        }
        if t.is_ident("trait") && tokens.get(i + 1).map(|n| n.kind) == Some(TokKind::Ident) {
            let name = tokens[i + 1].text.clone();
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
                j += 1;
            }
            if tokens.get(j).is_some_and(|b| b.is_punct("{")) {
                let close = matching_brace(tokens, j);
                scopes.push(Scope { kind: ScopeKind::Impl(name), close });
                i = j + 1;
            } else {
                i = j + 1;
            }
            continue;
        }
        if t.is_ident("impl") {
            if let Some((type_name, open)) = impl_target(tokens, i) {
                let close = matching_brace(tokens, open);
                scopes.push(Scope { kind: ScopeKind::Impl(type_name), close });
                i = open + 1;
                continue;
            }
        }
        if t.is_ident("use") && use_at_statement(tokens, i) {
            let (items, next) = parse_use(tokens, i + 1);
            out.uses.extend(items);
            i = next;
            continue;
        }
        if t.is_ident("fn") && tokens.get(i + 1).map(|n| n.kind) == Some(TokKind::Ident) {
            let name = tokens[i + 1].text.clone();
            // Find the body `{` (or `;` for trait signatures). Braces
            // cannot appear in generics, parameter lists or return types
            // at this syntactic level, but array types (`[T; N]`) carry a
            // `;` — skip bracketed ranges so it doesn't read as body-less.
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
                if tokens[j].is_punct("[") {
                    j = past_brackets(tokens, j);
                } else {
                    j += 1;
                }
            }
            let body = if tokens.get(j).is_some_and(|b| b.is_punct("{")) {
                Some((j, matching_brace(tokens, j)))
            } else {
                None
            };
            let mut module = file_module.clone();
            let mut self_type = None;
            for s in &scopes {
                match &s.kind {
                    ScopeKind::Mod(m) => module.push(m.clone()),
                    ScopeKind::Impl(ty) => self_type = Some(ty.clone()),
                }
            }
            out.fns.push(FnItem {
                name,
                self_type,
                module,
                line: t.line,
                body,
                exempt: in_exempt(t.line),
            });
            i = body.map_or(j + 1, |(open, _)| open + 1);
            continue;
        }
        i += 1;
    }
    out
}

/// For an `impl` keyword at `i`, returns the implemented type name
/// (last path segment; the `for` target for trait impls) and the index
/// of the opening `{`.
fn impl_target(tokens: &[Tok], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    // Skip the generic parameter list on `impl<…>`.
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct("<") {
                depth += 1;
            } else if tokens[j].is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    let mut angle = 0i32;
    let mut open = None;
    let mut last_ident_at_zero: Option<String> = None;
    let mut frozen = false; // stop capturing once a `where` clause starts
    let mut k = j;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if angle == 0 {
            if t.is_punct("{") {
                open = Some(k);
                break;
            }
            if t.is_punct(";") {
                return None; // `impl Trait for Type;` — not a block
            }
            if t.is_ident("where") {
                frozen = true;
            } else if !frozen {
                if t.is_ident("for") {
                    last_ident_at_zero = None; // the target follows `for`
                } else if t.kind == TokKind::Ident && !t.is_ident("dyn") && !t.is_ident("mut") {
                    last_ident_at_zero = Some(t.text.clone());
                }
            }
        }
        k += 1;
    }
    Some((last_ident_at_zero?, open?))
}

/// `true` when the `use` at `i` starts a declaration (not e.g. a
/// variable named `use`, which is impossible anyway — this just guards
/// against pathological token contexts).
fn use_at_statement(tokens: &[Tok], i: usize) -> bool {
    match i.checked_sub(1).and_then(|p| tokens.get(p)) {
        None => true,
        Some(prev) => {
            prev.is_punct(";")
                || prev.is_punct("{")
                || prev.is_punct("}")
                || prev.is_punct("]")
                || prev.is_ident("pub")
                || prev.is_punct(")")
        }
    }
}

/// Parses the use tree starting just past the `use` keyword; returns
/// the bindings and the token index just past the terminating `;`.
fn parse_use(tokens: &[Tok], start: usize) -> (Vec<UseItem>, usize) {
    let mut items = Vec::new();
    let mut i = start;
    // Skip a `pub(crate)`-style visibility that precedes nothing here
    // (visibility comes before `use`, so nothing to skip) — but do skip
    // a leading `::`.
    if tokens.get(i).is_some_and(|t| t.is_punct("::")) {
        i += 1;
    }
    let end = parse_use_tree(tokens, i, &mut Vec::new(), &mut items);
    let mut j = end;
    while j < tokens.len() && !tokens[j].is_punct(";") {
        j += 1;
    }
    (items, j + 1)
}

/// Recursively parses one use subtree with `prefix` already consumed;
/// returns the index just past the subtree.
fn parse_use_tree(
    tokens: &[Tok],
    mut i: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<UseItem>,
) -> usize {
    let depth_at_entry = prefix.len();
    let mut segments = 0usize;
    loop {
        match tokens.get(i) {
            Some(t) if t.kind == TokKind::Ident && t.text == "as" => {
                if let Some(alias) = tokens.get(i + 1) {
                    if alias.kind == TokKind::Ident {
                        out.push(UseItem { alias: alias.text.clone(), path: prefix.clone() });
                        segments = 0; // consumed by the alias
                        i += 2;
                        continue;
                    }
                }
                i += 1;
            }
            Some(t) if t.kind == TokKind::Ident => {
                prefix.push(t.text.clone());
                segments += 1;
                i += 1;
            }
            Some(t) if t.is_punct("::") => {
                i += 1;
            }
            Some(t) if t.is_punct("*") => {
                // Glob import: unresolvable, drop.
                segments = 0;
                prefix.truncate(depth_at_entry);
                i += 1;
            }
            Some(t) if t.is_punct("{") => {
                i += 1;
                loop {
                    i = parse_use_tree(tokens, i, prefix, out);
                    match tokens.get(i) {
                        Some(t) if t.is_punct(",") => i += 1,
                        Some(t) if t.is_punct("}") => {
                            i += 1;
                            break;
                        }
                        _ => break,
                    }
                }
                segments = 0;
                prefix.truncate(depth_at_entry);
            }
            Some(t) if t.is_punct(",") || t.is_punct("}") || t.is_punct(";") => break,
            Some(_) => i += 1,
            None => break,
        }
    }
    if segments > 0 {
        if let Some(last) = prefix.last().cloned() {
            out.push(UseItem { alias: last, path: prefix.clone() });
        }
    }
    prefix.truncate(depth_at_entry);
    i
}

/// Returns the index of the `}` matching the `{` at `open` (last token
/// if unbalanced).
pub(crate) fn matching_brace(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Returns the index just past the `]` matching the `[` at `open`.
pub(crate) fn past_brackets(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    tokens.len()
}
