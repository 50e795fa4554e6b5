//! # ssr-lint
//!
//! The workspace audits that back the byte-identical-replay contract
//! where stock tooling cannot. A simulation must be a pure function of
//! (workload, seed, fault plan), so outputs are byte-identical at
//! `--jobs 1/2/8` and across re-runs. Clippy (`crates/clippy.toml`), the
//! workspace `[lints]` table and the crate-graph test enforce most of
//! that contract; this crate keeps the three checks they cannot express:
//!
//! | code | finding |
//! |------|---------|
//! | D004 | `partial_cmp` inside a sort/min/max comparator |
//! | P001 | panic site (`unwrap`/`expect`/`panic!`/indexing) reachable from a scheduler recovery root |
//! | A001 | allocation reachable from the `resource_offers` hot path |
//!
//! D004 is a per-file token match ([`lexer`]). P001 and A001 walk an
//! interprocedural call graph built from an item parser on the same
//! lexer ([`parser`], [`callgraph`]); their findings carry the witness
//! chain from the root to the flagged function.
//!
//! Audited debt lives in a checked-in [`baseline`] file (`lint.baseline`
//! at the workspace root, auto-loaded) whose entries are keyed
//! `(code, file, function)` with a count budget and a mandatory reason.
//! It is the only exception mechanism.
//!
//! # Example
//!
//! ```
//! let findings = ssr_lint::lint_source(
//!     "crates/scheduler/src/example.rs",
//!     "pub fn f(v: &mut [f64]) {\n\
//!          v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
//!      }\n",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].code, "D004");
//! ```

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "non-deterministic crate: walks and reads the source tree"
)]
#![deny(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod checks;
pub mod lexer;
pub mod parser;
pub mod report;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use callgraph::{CallGraph, GraphFile};

pub use baseline::{Baseline, BaselineEntry};
pub use checks::{lint_source, DETERMINISTIC_CRATES};
pub use report::{Diagnostic, Report};

/// A whole-workspace lint run.
#[derive(Debug)]
pub struct WorkspaceOutcome {
    /// The aggregated report.
    pub report: Report,
    /// Baseline entries that absorbed fewer findings than budgeted —
    /// debt that has been paid down and should be removed from the file.
    pub stale_baseline: Vec<String>,
}

/// Lints every `.rs` file under `<root>/crates/*/src`: the per-file D004
/// pass, then the P001 and A001 call-graph audits over all files
/// together. Files are visited in sorted path order and every pass is
/// deterministic, so the report is identical across runs and platforms.
///
/// `baseline` names the ledger; `None` auto-loads `<root>/lint.baseline`
/// when it exists, while a named file that is missing is an error.
pub fn lint_workspace(root: &Path, baseline: Option<&Path>) -> io::Result<WorkspaceOutcome> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs_files(&dir.join("src"), &mut files)?;
    }
    files.sort();

    let mut findings = Vec::new();
    let files_scanned = files.len();
    let mut units: Vec<(String, Vec<lexer::Tok>, parser::ParsedFile)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(path)?;
        let tokens = lexer::lex(&source);
        findings.extend(checks::lint_tokens(&rel, &tokens));
        let parsed = parser::parse_file(&rel, &tokens);
        units.push((rel, tokens, parsed));
    }

    let graph_files: Vec<GraphFile<'_>> = units
        .iter()
        .map(|(rel, tokens, parsed)| GraphFile { rel, tokens, parsed })
        .collect();
    let graph = CallGraph::build(&graph_files);
    for audit in [&checks::P001, &checks::A001] {
        checks::run_audit(audit, &graph, &graph_files, &mut findings);
    }

    // Baseline: explicit path, else auto-load `<root>/lint.baseline`.
    let auto = root.join("lint.baseline");
    let baseline_path = baseline.map(Path::to_path_buf).or(auto.exists().then_some(auto));
    let (findings, baselined, stale_baseline) = match baseline_path {
        Some(p) => {
            let text = std::fs::read_to_string(&p)?;
            let bl = Baseline::parse(&text).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", p.display()))
            })?;
            bl.apply(findings)
        }
        None => (findings, 0, Vec::new()),
    };

    Ok(WorkspaceOutcome {
        report: Report::new(findings, files_scanned, baselined),
        stale_baseline,
    })
}

/// Appends every `.rs` file under `dir` (recursively, in sorted order)
/// to `out`; a missing `dir` adds nothing.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Ascends from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Runs the linter as a command-line tool; shared by the `ssr-lint`
/// binary and the `ssr-cli lint` subcommand.
///
/// Flags: `--root PATH` (default: nearest workspace root) and
/// `--baseline PATH` (default: `<root>/lint.baseline` when present).
/// Exits nonzero on any non-baselined finding.
pub fn run_cli(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let target = match arg.as_str() {
            "--root" => &mut root,
            "--baseline" => &mut baseline_path,
            "--help" | "-h" => {
                eprintln!(
                    "ssr-lint — workspace audits for the determinism contract\n\
                     \n\
                     usage: ssr-lint [--root PATH] [--baseline PATH]\n\
                     \n\
                     Walks crates/*/src and runs the checks clippy cannot: D004\n\
                     (partial_cmp in a comparator) and the call-graph audits P001\n\
                     (recovery-path panics) and A001 (hot-path allocation); see\n\
                     EXPERIMENTS.md \"The determinism contract\". Audited debt\n\
                     lives in <root>/lint.baseline (auto-loaded; override with\n\
                     --baseline). Exits nonzero on any non-baselined finding."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::from(2);
            }
        };
        match it.next() {
            Some(p) => *target = Some(PathBuf::from(p)),
            None => {
                eprintln!("error: {arg} requires a path");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.or_else(|| find_workspace_root(&std::env::current_dir().ok()?));
    let Some(root) = root else {
        eprintln!("error: no workspace root found above the working directory");
        return ExitCode::from(2);
    };
    let outcome = match lint_workspace(&root, baseline_path.as_deref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.report.render_text());
    for stale in &outcome.stale_baseline {
        eprintln!("note: stale baseline entry — {stale}");
    }
    if outcome.report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
