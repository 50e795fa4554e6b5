//! The interprocedural call graph over the whole workspace.
//!
//! Call resolution is best-effort and **conservative**: an edge is
//! recorded only when the callee can be pinned to a workspace function
//! through one of the rules below; everything else (std calls, trait
//! dispatch, closures, ambiguous method names) resolves to nothing.
//! Conservatism here means *missing* edges, so downstream passes may
//! under-report through dynamic dispatch but never chase phantom paths.
//!
//! Resolution rules, in order:
//!
//! 1. `f(…)` — a free function in the caller's own module, else a
//!    `use`-imported free function.
//! 2. `self.f(…)` — a method of the enclosing `impl` type.
//! 3. `Self::f(…)` / `Type::f(…)` — an inherent method of the named
//!    type, located via the current crate, the file's imports, or a
//!    workspace-unique type name.
//! 4. `crate::`/`self::`/`super::`/`ssr_<x>::`-qualified paths, with
//!    module-relative fallback for unprefixed child-module paths.
//! 5. `expr.f(…)` with a non-`self` receiver — only when `f` names
//!    exactly one workspace method *and* is not a common std method
//!    name (so `map.insert(…)` can never alias a workspace `insert`).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
use crate::parser::ParsedFile;

/// Method names that commonly resolve to std types; the unique-name
/// fallback (rule 5) never fires for these, because a receiver we
/// cannot type is far more likely a std collection than a workspace
/// type sharing the name.
const STD_METHOD_NAMES: &[&str] = &[
    "new", "default", "clone", "len", "is_empty", "get", "get_mut", "insert", "remove", "push",
    "pop", "iter", "iter_mut", "into_iter", "next", "map", "and_then", "unwrap", "expect",
    "unwrap_or", "unwrap_or_else", "unwrap_or_default", "ok", "err", "is_some", "is_none",
    "contains", "contains_key", "entry", "keys", "values", "values_mut", "first", "last", "sort",
    "sort_by", "sort_by_key", "sort_unstable", "sort_unstable_by", "retain", "extend", "drain",
    "clear", "min", "max", "sum", "count", "collect", "filter", "filter_map", "find", "any",
    "all", "fold", "rev", "take", "skip", "chain", "zip", "enumerate", "to_owned", "to_string",
    "as_str", "as_ref", "as_mut", "into", "from", "parse", "split", "trim", "starts_with",
    "ends_with", "push_str", "join", "abs", "floor", "ceil", "round", "powi", "powf", "sqrt",
    "min_by", "max_by", "cmp", "partial_cmp", "total_cmp", "eq", "hash", "fmt", "write", "flush",
    "read", "swap", "replace", "position", "binary_search", "copied", "cloned", "flatten",
    "flat_map", "peekable", "windows", "chunks", "or_insert", "or_insert_with", "or_default",
    "map_or", "map_err", "ok_or", "ok_or_else", "then", "then_some", "is_ok", "is_err",
    "swap_remove", "truncate", "resize", "split_off", "append", "dedup", "repeat", "bytes",
    "chars", "lines", "as_bytes", "as_slice", "to_vec", "fill", "get_or_insert_with",
    "saturating_sub", "saturating_add", "checked_sub", "checked_add", "min_by_key", "max_by_key",
    "last_mut", "first_mut", "front", "back", "remove_entry", "take_while", "skip_while",
    "split_whitespace", "splitn", "rsplitn", "strip_prefix", "strip_suffix", "char_indices",
    "display", "exists", "is_dir", "is_file", "extension", "file_name", "components",
];

/// One workspace function in the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, if any.
    pub self_type: Option<String>,
    /// Crate directory name.
    pub krate: String,
    /// Module path inside the crate.
    pub module: Vec<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// Index of the file in the workspace file list.
    pub file_idx: usize,
    /// 1-based definition line.
    pub line: u32,
    /// Body token range `[open, close]`, if the function has one.
    pub body: Option<(usize, usize)>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Graph nodes, in (file, definition order). Exempt (test-region)
    /// functions are not included.
    pub fns: Vec<FnNode>,
    /// Forward edges: `calls[i]` are the resolved callees of `fns[i]`,
    /// deduplicated, in ascending order.
    pub calls: Vec<Vec<usize>>,
}

/// Per-file inputs to graph construction.
pub struct GraphFile<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// The lexed tokens.
    pub tokens: &'a [Tok],
    /// The parsed items.
    pub parsed: &'a ParsedFile,
}

impl CallGraph {
    /// Builds the graph from every parsed workspace file.
    pub fn build(files: &[GraphFile<'_>]) -> CallGraph {
        let mut g = CallGraph::default();
        // Token ranges of every fn body per file, to keep a nested fn's
        // calls out of its enclosing function.
        let mut bodies_per_file: Vec<Vec<(usize, usize)>> = vec![Vec::new(); files.len()];
        for (fi, f) in files.iter().enumerate() {
            let Some(krate) = f.parsed.krate.clone() else { continue };
            for item in &f.parsed.fns {
                if item.exempt {
                    continue;
                }
                if let Some(b) = item.body {
                    bodies_per_file[fi].push(b);
                }
                g.fns.push(FnNode {
                    name: item.name.clone(),
                    self_type: item.self_type.clone(),
                    krate: krate.clone(),
                    module: item.module.clone(),
                    file: f.rel.to_owned(),
                    file_idx: fi,
                    line: item.line,
                    body: item.body,
                });
            }
        }

        let crate_names: BTreeSet<String> = g.fns.iter().map(|f| f.krate.clone()).collect();
        // (crate, module, name) -> free functions.
        let mut free: BTreeMap<(String, Vec<String>, String), Vec<usize>> = BTreeMap::new();
        // (crate, type, method) -> methods.
        let mut methods: BTreeMap<(String, String, String), Vec<usize>> = BTreeMap::new();
        // type -> crates that impl it.
        let mut type_crates: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        // method name -> all workspace methods with that name.
        let mut by_method: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, f) in g.fns.iter().enumerate() {
            match &f.self_type {
                None => free
                    .entry((f.krate.clone(), f.module.clone(), f.name.clone()))
                    .or_default()
                    .push(idx),
                Some(ty) => {
                    methods
                        .entry((f.krate.clone(), ty.clone(), f.name.clone()))
                        .or_default()
                        .push(idx);
                    type_crates.entry(ty.clone()).or_default().insert(f.krate.clone());
                    by_method.entry(f.name.clone()).or_default().push(idx);
                }
            }
        }

        let resolver = Resolver { free, methods, type_crates, by_method, crate_names };

        g.calls = vec![Vec::new(); g.fns.len()];
        for i in 0..g.fns.len() {
            let node = &g.fns[i];
            let Some((open, close)) = node.body else { continue };
            let file = &files[node.file_idx];
            let uses = &file.parsed.uses;
            let nested: Vec<(usize, usize)> = bodies_per_file[node.file_idx]
                .iter()
                .copied()
                .filter(|&(o, c)| o > open && c < close)
                .collect();
            let mut callees: Vec<usize> = Vec::new();
            let tokens = file.tokens;
            let mut k = open + 1;
            while k < close {
                if let Some(&(_, nc)) = nested.iter().find(|&&(no, _)| no == k) {
                    k = nc + 1;
                    continue;
                }
                if tokens[k].kind == TokKind::Ident
                    && tokens.get(k + 1).is_some_and(|t| t.is_punct("("))
                    && !tokens.get(k.wrapping_sub(1)).is_some_and(|t| t.is_ident("fn"))
                {
                    callees.extend(resolver.resolve(node, uses, tokens, k));
                }
                k += 1;
            }
            callees.sort_unstable();
            callees.dedup();
            g.calls[i] = callees;
        }
        g
    }

    /// Token ranges of functions nested inside `fns[idx]`'s body in the
    /// same file — scans over a body should skip these so a closure-free
    /// nested `fn` is attributed to itself, not its host.
    pub fn nested_bodies(&self, idx: usize) -> Vec<(usize, usize)> {
        let Some((open, close)) = self.fns[idx].body else { return Vec::new() };
        let file_idx = self.fns[idx].file_idx;
        self.fns
            .iter()
            .filter(|o| o.file_idx == file_idx)
            .filter_map(|o| o.body)
            .filter(|&(o, c)| o > open && c < close)
            .collect()
    }

    /// Forward reachability from `roots`, returning for each reached
    /// function the parent that first reached it (`None` for roots).
    pub fn reach_forward(&self, roots: &[usize]) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(None);
                queue.push(r);
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            for &callee in &self.calls[cur] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                    e.insert(Some(cur));
                    queue.push(callee);
                }
            }
        }
        parent
    }

    /// The chain `root … -> idx` implied by a `reach_forward` parent
    /// map, as function indices from root to `idx`.
    pub fn chain_to(parents: &BTreeMap<usize, Option<usize>>, idx: usize) -> Vec<usize> {
        let mut chain = vec![idx];
        let mut cur = idx;
        while let Some(Some(p)) = parents.get(&cur) {
            chain.push(*p);
            cur = *p;
        }
        chain.reverse();
        chain
    }
}

/// Name-resolution tables.
struct Resolver {
    free: BTreeMap<(String, Vec<String>, String), Vec<usize>>,
    methods: BTreeMap<(String, String, String), Vec<usize>>,
    type_crates: BTreeMap<String, BTreeSet<String>>,
    by_method: BTreeMap<String, Vec<usize>>,
    crate_names: BTreeSet<String>,
}

/// `true` for identifiers that start like a type/variant name.
fn is_camel(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_uppercase())
}

/// Keywords that can directly precede a `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "let", "else", "fn",
    "where", "impl", "dyn", "pub", "crate", "box", "ref", "mut",
];

impl Resolver {
    fn method(&self, krate: &str, ty: &str, name: &str) -> Option<&Vec<usize>> {
        self.methods.get(&(krate.to_owned(), ty.to_owned(), name.to_owned()))
    }

    /// Resolves the call whose name token sits at `k` (followed by `(`)
    /// to zero or more workspace functions.
    fn resolve(
        &self,
        caller: &FnNode,
        uses: &[crate::parser::UseItem],
        tokens: &[Tok],
        k: usize,
    ) -> Vec<usize> {
        let name = tokens[k].text.as_str();
        let prev = k.checked_sub(1).and_then(|p| tokens.get(p));
        match prev {
            Some(p) if p.is_punct(".") => {
                // Method call. `self.f(…)` resolves via the impl type;
                // any other receiver via the unique-name fallback.
                let recv = k.checked_sub(2).and_then(|p| tokens.get(p));
                let recv_is_plain_self = recv.is_some_and(|r| r.is_ident("self"))
                    && !k.checked_sub(3).and_then(|p| tokens.get(p)).is_some_and(|t| {
                        t.is_punct(".") || t.is_punct("::")
                    });
                if recv_is_plain_self {
                    if let Some(ty) = &caller.self_type {
                        if let Some(v) = self.method(&caller.krate, ty, name) {
                            return v.clone();
                        }
                    }
                    return Vec::new();
                }
                self.unique_method(name)
            }
            Some(p) if p.is_punct("::") => {
                let segs = path_before(tokens, k);
                let Some((head, rest)) = segs.split_first() else { return Vec::new() };
                self.resolve_headed(caller, uses, head, rest, name, false)
            }
            _ => {
                if is_camel(name) || NON_CALL_KEYWORDS.contains(&name) {
                    return Vec::new(); // tuple-struct/variant constructor or keyword
                }
                // A free function in the caller's own module…
                let hit = self.resolve_free_exact(&caller.krate, &caller.module, name);
                if !hit.is_empty() {
                    return hit;
                }
                // …or an imported one.
                if let Some(u) = uses.iter().find(|u| u.alias == name) {
                    if let Some((head, rest)) = u.path.split_first() {
                        return self.resolve_headed(caller, uses, head, rest, name, true);
                    }
                }
                Vec::new()
            }
        }
    }

    /// Shared tail of qualified-path resolution once the head segment is
    /// known. `from_use` marks an alias expansion (whose path already
    /// ends at the function, so `rest` excludes the name).
    fn resolve_headed(
        &self,
        caller: &FnNode,
        uses: &[crate::parser::UseItem],
        head: &str,
        rest: &[String],
        name: &str,
        from_use: bool,
    ) -> Vec<usize> {
        let krate = caller.krate.as_str();
        match head {
            "crate" => self.resolve_abs_in(krate, rest, name, rest),
            "self" => {
                let mut m = caller.module.clone();
                m.extend(rest.iter().cloned());
                self.resolve_abs_in(krate, &m, name, rest)
            }
            "super" => {
                let mut m = caller.module.clone();
                m.pop();
                m.extend(rest.iter().cloned());
                self.resolve_abs_in(krate, &m, name, rest)
            }
            "Self" => match &caller.self_type {
                Some(ty) => self.method(krate, ty, name).cloned().unwrap_or_default(),
                None => Vec::new(),
            },
            _ if self.crate_names.contains(ext_to_dir(head)) => {
                self.resolve_abs_in(ext_to_dir(head), rest, name, rest)
            }
            _ if is_camel(head) => {
                // `Type::f(…)` — locate the type's crate: current crate
                // first, then the file's imports, then a workspace-unique
                // type name.
                if let Some(v) = self.method(krate, head, name) {
                    return v.clone();
                }
                if let Some(u) = uses.iter().find(|u| u.alias == head) {
                    if let Some(first) = u.path.first() {
                        let dir = ext_to_dir(first);
                        if self.crate_names.contains(dir) {
                            if let Some(v) = self.method(dir, head, name) {
                                return v.clone();
                            }
                        }
                    }
                }
                if let Some(crates) = self.type_crates.get(head) {
                    if crates.len() == 1 {
                        let c = crates.iter().next().cloned().unwrap_or_default();
                        return self.method(&c, head, name).cloned().unwrap_or_default();
                    }
                }
                Vec::new()
            }
            _ => {
                // A lowercase head: a child module of the current module,
                // a crate-root-relative module, or a use-alias for a
                // module path.
                let mut m = caller.module.clone();
                m.push(head.to_owned());
                m.extend(rest.iter().cloned());
                let hit = self.resolve_abs_in(krate, &m, name, rest);
                if !hit.is_empty() {
                    return hit;
                }
                let mut m2: Vec<String> = vec![head.to_owned()];
                m2.extend(rest.iter().cloned());
                let hit = self.resolve_abs_in(krate, &m2, name, rest);
                if !hit.is_empty() {
                    return hit;
                }
                if !from_use {
                    if let Some(u) = uses.iter().find(|u| u.alias == head) {
                        if let Some((h2, r2)) = u.path.split_first() {
                            let mut full: Vec<String> = r2.to_vec();
                            full.extend(rest.iter().cloned());
                            return self.resolve_headed(caller, uses, h2, &full, name, true);
                        }
                    }
                }
                Vec::new()
            }
        }
    }

    /// Resolves `name` in `module` of `krate`, where a trailing `Type`
    /// segment of the written path `rest` (`…::Type::f`) makes it a
    /// method and anything else a module path (`…::mod::f`).
    fn resolve_abs_in(
        &self,
        krate: &str,
        module: &[String],
        name: &str,
        rest: &[String],
    ) -> Vec<usize> {
        if let Some(last) = rest.last() {
            if is_camel(last) {
                return self.method(krate, last, name).cloned().unwrap_or_default();
            }
        }
        self.resolve_in_module(krate, module, name)
    }

    fn resolve_free_exact(&self, krate: &str, module: &[String], name: &str) -> Vec<usize> {
        self.free
            .get(&(krate.to_owned(), module.to_vec(), name.to_owned()))
            .cloned()
            .unwrap_or_default()
    }

    /// Free-function lookup, tolerating the re-export convention where
    /// `lib.rs` re-exports module items at the crate root: an exact
    /// module match first, then a crate-wide unique name.
    fn resolve_in_module(&self, krate: &str, module: &[String], name: &str) -> Vec<usize> {
        let hit = self.resolve_free_exact(krate, module, name);
        if !hit.is_empty() {
            return hit;
        }
        // `use ssr_x::f` where `f` lives in `ssr_x::inner` but is
        // re-exported: accept when the crate has exactly one free fn of
        // that name.
        if module.is_empty() {
            let matches: Vec<usize> = self
                .free
                .iter()
                .filter(|((c, _, n), _)| c == krate && n == name)
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            if matches.len() == 1 {
                return matches;
            }
        }
        Vec::new()
    }

    /// Rule 5: a non-`self` receiver resolves only through a workspace-
    /// unique, non-std method name.
    fn unique_method(&self, name: &str) -> Vec<usize> {
        if STD_METHOD_NAMES.contains(&name) {
            return Vec::new();
        }
        match self.by_method.get(name) {
            Some(v) if v.len() == 1 => v.clone(),
            _ => Vec::new(),
        }
    }
}

/// Maps an extern-crate name (`ssr_cluster`) to its directory name
/// (`cluster`); unprefixed names map to themselves.
fn ext_to_dir(name: &str) -> &str {
    name.strip_prefix("ssr_").unwrap_or(name)
}

/// Collects the `::`-separated path segments immediately before the
/// call-name token at `k` (whose previous token is `::`), outermost
/// first.
fn path_before(tokens: &[Tok], k: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut p = k; // sits on the name; step back over `:: seg` pairs
    while p >= 2 && tokens[p - 1].is_punct("::") {
        let t = &tokens[p - 2];
        if t.kind == TokKind::Ident {
            segs.push(t.text.clone());
            p -= 2;
        } else if t.is_punct(">") {
            // Turbofish on a path segment (`Foo::<T>::new`): skip the
            // generic arguments back to the matching `<`.
            let mut depth = 0i32;
            let mut q = p - 2;
            loop {
                if tokens[q].is_punct(">") {
                    depth += 1;
                } else if tokens[q].is_punct("<") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if q == 0 {
                    break;
                }
                q -= 1;
            }
            if q >= 1 && tokens[q - 1].is_punct("::") {
                p = q; // now at `<`, previous is `::`
            } else {
                break;
            }
        } else {
            break;
        }
    }
    segs.reverse();
    segs
}
