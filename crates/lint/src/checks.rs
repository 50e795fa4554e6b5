//! D004, the one audit stock tooling cannot express: `partial_cmp`
//! inside a sort/min/max comparator, a per-file token match. Clippy has
//! no equivalent that spares the `#[derive(PartialOrd)]` expansions.
//!
//! `#[cfg(test)]` modules and `#[test]` functions are exempt: the
//! byte-identical-replay contract governs shipped simulation code, and
//! test-only nondeterminism is caught by the golden regression tests.

use crate::lexer::{lex, Tok, TokKind};
use crate::report::Diagnostic;

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
    let tokens = lex(source);
    let exempt = exempt_ranges(&tokens);
    let mut findings = Vec::new();
    check_d004(&rel_path.replace('\\', "/"), &tokens, &mut findings);
    findings.retain(|d| !exempt.iter().any(|&(lo, hi)| lo <= d.line && d.line <= hi));
    findings
}

// ---------------------------------------------------------------------
// Test-region exemption
// ---------------------------------------------------------------------

/// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
fn exempt_ranges(tokens: &[Tok]) -> Vec<(u32, u32)> {
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

/// Returns the index of the `}` matching the `{` at `open` (last token
/// if unbalanced).
fn matching_brace(tokens: &[Tok], open: usize) -> usize {
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
fn past_brackets(tokens: &[Tok], open: usize) -> usize {
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
            out.push(Diagnostic {
                code: "D004".to_owned(),
                col: tok.col,
                file: rel.to_owned(),
                hint: "compare floats with `f64::total_cmp` (a total order), or sort on an \
                       integer key"
                    .to_owned(),
                line: tok.line,
                message: format!(
                    "`partial_cmp` inside `{call}` — NaN makes the comparator panic or \
                     produce an unspecified order"
                ),
            });
        }
    }
}
