//! Diagnostics and report rendering.
//!
//! Findings are sorted by `(file, line, col, code)`, so two runs over
//! the same tree print byte-identical reports.

use std::collections::BTreeMap;

/// One lint finding at a precise source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The lint code (`D004`).
    pub code: String,
    /// 1-based column.
    pub col: u32,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// How to fix or justify it.
    pub hint: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

/// A whole-workspace lint report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Number of `.rs` files visited.
    pub files_scanned: usize,
    /// Findings, sorted by `(file, line, col, code)`.
    pub findings: Vec<Diagnostic>,
}

impl Report {
    /// Creates a report, sorting `findings` into canonical order.
    pub fn new(mut findings: Vec<Diagnostic>, files_scanned: usize) -> Self {
        findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.col, a.code.as_str())
                .cmp(&(b.file.as_str(), b.line, b.col, b.code.as_str()))
        });
        Report { files_scanned, findings }
    }

    /// `true` when the workspace honours the determinism contract.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering: one `file:line:col: CODE message` block
    /// per finding and a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: {} {}\n  hint: {}\n",
                d.file, d.line, d.col, d.code, d.message, d.hint
            ));
        }
        out.push_str(&format!(
            "ssr-lint: {} finding(s), {} file(s) scanned\n",
            self.findings.len(),
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
