//! Diagnostics and report rendering.
//!
//! Findings are sorted by `(file, line, col, code)`, so two runs over
//! the same tree print byte-identical reports.

use std::collections::BTreeMap;

/// One lint finding at a precise source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// For call-graph findings: the witness chain from the audit root to
    /// the flagged function, one `file:line name` entry per hop. Empty
    /// for per-file findings.
    pub chain: Vec<String>,
    /// The lint code (`A001`, `D004`, `P001`).
    pub code: String,
    /// 1-based column.
    pub col: u32,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// The enclosing function for call-graph findings; empty for
    /// per-file findings.
    pub function: String,
    /// How to fix or justify it.
    pub hint: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

impl Diagnostic {
    /// Creates a per-file diagnostic (no function/chain context).
    pub fn new(
        code: &str,
        file: &str,
        line: u32,
        col: u32,
        message: String,
        hint: String,
    ) -> Self {
        Diagnostic {
            chain: Vec::new(),
            code: code.to_owned(),
            col,
            file: file.to_owned(),
            function: String::new(),
            hint,
            line,
            message,
        }
    }
}

/// A whole-workspace lint report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Findings absorbed by the checked-in baseline.
    pub baselined: usize,
    /// Number of `.rs` files visited.
    pub files_scanned: usize,
    /// Non-baselined findings, sorted by `(file, line, col, code)`.
    pub findings: Vec<Diagnostic>,
}

impl Report {
    /// Creates a report, sorting `findings` into canonical order.
    pub fn new(mut findings: Vec<Diagnostic>, files_scanned: usize, baselined: usize) -> Self {
        findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.col, a.code.as_str())
                .cmp(&(b.file.as_str(), b.line, b.col, b.code.as_str()))
        });
        Report { baselined, files_scanned, findings }
    }

    /// `true` when the workspace honours the determinism contract.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering: one `file:line:col: CODE message` block
    /// per finding, its witness chain one hop per line, and a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            let in_fn = if d.function.is_empty() {
                String::new()
            } else {
                format!(" (in `{}`)", d.function)
            };
            out.push_str(&format!(
                "{}:{}:{}: {}{} {}\n  hint: {}\n",
                d.file, d.line, d.col, d.code, in_fn, d.message, d.hint
            ));
            if !d.chain.is_empty() {
                out.push_str("  chain:\n");
                for hop in &d.chain {
                    out.push_str(&format!("    -> {hop}\n"));
                }
            }
        }
        out.push_str(&format!(
            "ssr-lint: {} finding(s), {} baselined, {} file(s) scanned\n",
            self.findings.len(),
            self.baselined,
            self.files_scanned
        ));
        // The one-line `CODE=count` summary CI greps; only codes that
        // occur appear.
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for d in &self.findings {
            *counts.entry(&d.code).or_default() += 1;
        }
        let parts: Vec<String> = counts.iter().map(|(c, n)| format!("{c}={n}")).collect();
        let summary = if parts.is_empty() { "none".to_owned() } else { parts.join(" ") };
        out.push_str(&format!("per-code: {summary}\n"));
        out
    }
}
