//! The three audits stock tooling cannot express.
//!
//! * **D004** — `partial_cmp` inside a sort/min/max comparator, a
//!   per-file token match. Clippy has no equivalent that spares the
//!   `#[derive(PartialOrd)]` expansions.
//! * **P001** — a panic site reachable from a scheduler recovery root.
//! * **A001** — an allocation reachable from the `resource_offers` hot
//!   path.
//!
//! P001 and A001 walk the workspace call graph ([`crate::callgraph`])
//! forward from their roots. Every pass prefers false positives over
//! false negatives; an audited finding is budgeted in `lint.baseline`.
//!
//! `#[cfg(test)]` modules and `#[test]` functions are exempt: the
//! byte-identical-replay contract governs shipped simulation code, and
//! test-only nondeterminism is caught by the golden regression tests.

use crate::callgraph::{CallGraph, GraphFile};
use crate::lexer::{lex, Tok, TokKind};
use crate::parser::{matching_brace, past_brackets};
use crate::report::Diagnostic;

/// Crates whose code is on the deterministic replay path: anything that
/// executes between seed and report must be a pure function of its
/// inputs. P001 and A001 walk and report only here.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "analytics", "check", "cluster", "core", "dag", "explain", "faults", "perf", "scheduler",
    "sim", "simcore", "trace", "workload",
];

/// Function names that root the P001 panic-path audit: the scheduler's
/// fault-recovery entry points. Anything these can reach on the call
/// graph must not panic — a fault event escalating into a scheduler
/// panic turns one lost slot into a lost scheduler.
pub const RECOVERY_ROOTS: &[&str] = &[
    "fail_slots",
    "restore_slots",
    "instance_crashed",
    "instance_killed",
    "take_offline",
    "bring_online",
    "expire_reservations",
];

/// Function names that root the A001 allocation audit: the offer-round
/// hot path that must stay allocation-free to scale to 100k slots.
pub const HOT_PATH_ROOTS: &[&str] = &["resource_offers"];

/// Comparator-taking order operations (D004 context).
const ORDERING_CALLS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "binary_search_by",
    "select_nth_unstable_by",
];

/// Lints a single file given its workspace-relative path and source
/// text: the per-file D004 pass, outside test regions. This is the unit
/// the fixture tests drive directly.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    lint_tokens(&rel_path.replace('\\', "/"), &lex(source))
}

/// [`lint_source`] over an already-lexed file.
pub(crate) fn lint_tokens(rel: &str, tokens: &[Tok]) -> Vec<Diagnostic> {
    let exempt = exempt_ranges(tokens);
    let mut findings = Vec::new();
    check_d004(rel, tokens, &mut findings);
    findings.retain(|d| !exempt.iter().any(|&(lo, hi)| lo <= d.line && d.line <= hi));
    findings
}

// ---------------------------------------------------------------------
// Test-region exemption
// ---------------------------------------------------------------------

/// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
pub(crate) fn exempt_ranges(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens[i].is_punct("#") && tokens[i + 1].is_punct("[") && is_test_attr(tokens, i + 2)
        {
            let start_line = tokens[i].line;
            let mut j = past_brackets(tokens, i + 1);
            // Skip any further attributes stacked on the same item.
            while j + 1 < tokens.len()
                && tokens[j].is_punct("#")
                && tokens[j + 1].is_punct("[")
            {
                j = past_brackets(tokens, j + 1);
            }
            // Find the item body `{…}` (or a `;` for body-less items).
            while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
                j += 1;
            }
            let end_line = if j < tokens.len() && tokens[j].is_punct("{") {
                let close = matching_brace(tokens, j);
                let line = tokens[close.min(tokens.len() - 1)].line;
                i = close + 1;
                line
            } else {
                let line = tokens[j.min(tokens.len() - 1)].line;
                i = j + 1;
                line
            };
            ranges.push((start_line, end_line));
        } else {
            i += 1;
        }
    }
    ranges
}

/// `true` if the attribute starting at `i` (just past `#[`) is
/// `cfg(test…` or `test]`.
fn is_test_attr(tokens: &[Tok], i: usize) -> bool {
    if tokens.get(i).is_some_and(|t| t.is_ident("test"))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("]"))
    {
        return true;
    }
    tokens.get(i).is_some_and(|t| t.is_ident("cfg"))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
        && tokens.get(i + 2).is_some_and(|t| t.is_ident("test"))
        && tokens
            .get(i + 3)
            .is_some_and(|t| t.is_punct(")") || t.is_punct(","))
}

// ---------------------------------------------------------------------
// D004 — float ordering hazards
// ---------------------------------------------------------------------

fn check_d004(rel: &str, tokens: &[Tok], out: &mut Vec<Diagnostic>) {
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.is_ident("partial_cmp") {
            continue;
        }
        // Walk backwards through enclosing call parentheses looking for
        // a comparator-taking order operation; `partial_cmp` inside its
        // closure is the hazard (panic or bogus order on NaN).
        let mut depth = 0i32;
        let mut found: Option<&str> = None;
        let lo = i.saturating_sub(150);
        let mut j = i;
        while j > lo {
            j -= 1;
            let t = &tokens[j];
            if t.is_punct(")") {
                depth += 1;
            } else if t.is_punct("(") {
                depth -= 1;
                if depth < 0 {
                    if let Some(prev) = j.checked_sub(1).and_then(|p| tokens.get(p)) {
                        if prev.kind == TokKind::Ident
                            && ORDERING_CALLS.contains(&prev.text.as_str())
                        {
                            found = Some(prev.text.as_str());
                            break;
                        }
                    }
                }
            } else if t.is_ident("fn") {
                break;
            }
        }
        if let Some(call) = found {
            out.push(Diagnostic::new(
                "D004",
                rel,
                tok.line,
                tok.col,
                format!(
                    "`partial_cmp` inside `{call}` — NaN makes the comparator panic or \
                     produce an unspecified order"
                ),
                "compare floats with `f64::total_cmp` (a total order), or sort on an \
                 integer key"
                    .to_owned(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// P001 / A001 — forward-reachability audits
// ---------------------------------------------------------------------

/// One forward-reachability audit: every `site` in a deterministic-crate
/// function reachable from one of `roots` is a finding.
pub(crate) struct Audit {
    code: &'static str,
    roots: &'static [&'static str],
    /// The site label if the token at `k` starts one.
    site: fn(&[Tok], usize) -> Option<&'static str>,
    /// `(site, function, root)` to the finding's message.
    message: fn(&str, &str, &str) -> String,
    hint: &'static str,
}

/// P001: panic sites on scheduler recovery paths.
pub(crate) const P001: Audit = Audit {
    code: "P001",
    roots: RECOVERY_ROOTS,
    site: panic_site,
    message: |what, function, root| {
        format!(
            "`{what}` in `{function}` on a scheduler recovery path (reachable from \
             recovery root `{root}`) — a fault event must not escalate into a \
             scheduler panic"
        )
    },
    hint: "handle the `None`/`Err` case with a typed early-return, or name the \
           invariant in the `expect` message and record the site in lint.baseline",
};

/// A001: allocations on the offer-round hot path.
pub(crate) const A001: Audit = Audit {
    code: "A001",
    roots: HOT_PATH_ROOTS,
    site: alloc_site,
    message: |what, function, root| {
        format!(
            "allocation (`{what}`) in `{function}`, reachable from `{root}` — the offer \
             round must stay allocation-free to scale to 100k slots"
        )
    },
    hint: "hoist the allocation into a reusable scratch buffer owned by the \
           scheduler (see the `candidates`/`scratch` pattern in TaskScheduler) \
           or record it in lint.baseline with a reason",
};

/// Potential panic sites: `.unwrap()`, `.expect(…)`,
/// `panic!`/`unreachable!`, and indexing.
fn panic_site(tokens: &[Tok], k: usize) -> Option<&'static str> {
    let t = &tokens[k];
    let prev = k.checked_sub(1).and_then(|p| tokens.get(p));
    let next = tokens.get(k + 1);
    let method = |name: &str| {
        t.is_ident(name)
            && prev.is_some_and(|p| p.is_punct("."))
            && next.is_some_and(|n| n.is_punct("("))
    };
    let mac = |name: &str| t.is_ident(name) && next.is_some_and(|n| n.is_punct("!"));
    if method("unwrap") {
        Some(".unwrap()")
    } else if method("expect") {
        Some(".expect(…)")
    } else if mac("panic") {
        Some("panic!")
    } else if mac("unreachable") {
        Some("unreachable!")
    } else if t.is_punct("[")
        && prev.is_some_and(|p| {
            (p.kind == TokKind::Ident && !p.is_ident("mut") && !p.is_ident("in"))
                || p.is_punct(")")
                || p.is_punct("]")
        })
    {
        Some("indexing `[…]`")
    } else {
        None
    }
}

/// Allocation markers: `Vec::new`, `vec!`, `Box::new`, `.clone()`,
/// `.collect()`.
fn alloc_site(tokens: &[Tok], k: usize) -> Option<&'static str> {
    let t = &tokens[k];
    let prev = k.checked_sub(1).and_then(|p| tokens.get(p));
    let next = tokens.get(k + 1);
    let ctor = |ty: &str| {
        t.is_ident(ty)
            && next.is_some_and(|n| n.is_punct("::"))
            && tokens.get(k + 2).is_some_and(|n| n.is_ident("new"))
    };
    let method = |name: &str| t.is_ident(name) && prev.is_some_and(|p| p.is_punct("."));
    if ctor("Vec") {
        Some("Vec::new")
    } else if t.is_ident("vec") && next.is_some_and(|n| n.is_punct("!")) {
        Some("vec!")
    } else if ctor("Box") {
        Some("Box::new")
    } else if method("clone") && next.is_some_and(|n| n.is_punct("(")) {
        Some(".clone()")
    } else if method("collect") && next.is_some_and(|n| n.is_punct("(") || n.is_punct("::")) {
        Some(".collect()")
    } else {
        None
    }
}

/// Runs `audit`: finds its roots by name in deterministic crates,
/// BFS-walks the graph, and reports every site in each reached
/// deterministic-crate function with the root→function chain.
pub(crate) fn run_audit(
    audit: &Audit,
    graph: &CallGraph,
    files: &[GraphFile<'_>],
    out: &mut Vec<Diagnostic>,
) {
    let roots: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| {
            let f = &graph.fns[i];
            DETERMINISTIC_CRATES.contains(&f.krate.as_str()) && audit.roots.contains(&f.name.as_str())
        })
        .collect();
    let parents = graph.reach_forward(&roots);
    for &idx in parents.keys() {
        let node = &graph.fns[idx];
        if !DETERMINISTIC_CRATES.contains(&node.krate.as_str()) {
            continue;
        }
        let Some((open, close)) = node.body else { continue };
        let tokens = files[node.file_idx].tokens;
        let skip = graph.nested_bodies(idx);
        let chain_idx = CallGraph::chain_to(&parents, idx);
        let root = &graph.fns[chain_idx[0]].name;
        let chain: Vec<String> = chain_idx
            .iter()
            .enumerate()
            .map(|(i, &ci)| {
                let n = &graph.fns[ci];
                let tag = if i == 0 { " (recovery/hot-path root)" } else { "" };
                format!("{}:{} {}{tag}", n.file, n.line, n.name)
            })
            .collect();
        for k in open + 1..close {
            if skip.iter().any(|&(o, c)| o <= k && k <= c) {
                continue;
            }
            if let Some(what) = (audit.site)(tokens, k) {
                out.push(Diagnostic {
                    chain: chain.clone(),
                    function: node.name.clone(),
                    ..Diagnostic::new(
                        audit.code,
                        &node.file,
                        tokens[k].line,
                        tokens[k].col,
                        (audit.message)(what, &node.name, root),
                        audit.hint.to_owned(),
                    )
                });
            }
        }
    }
}
