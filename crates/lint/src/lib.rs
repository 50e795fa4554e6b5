//! # ssr-lint
//!
//! The one workspace audit that backs the byte-identical-replay contract
//! where stock tooling cannot. A simulation must be a pure function of
//! (workload, seed, fault plan), so outputs are byte-identical at
//! `--jobs 1/2/8` and across re-runs. Clippy (`crates/clippy.toml`), the
//! workspace `[lints]` table and the crate-graph test enforce the rest of
//! that contract; this crate keeps the check they cannot express:
//!
//! | code | finding |
//! |------|---------|
//! | D004 | `partial_cmp` inside a sort/min/max comparator |
//!
//! D004 is a per-file token match ([`lexer`], [`checks`]). Clippy's
//! `partial_cmp` ban would also fire on `#[derive(PartialOrd)]`
//! expansions, which is why it stays here. Test code is exempt.
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

pub mod checks;
pub mod lexer;
pub mod report;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub use checks::lint_source;
pub use report::{Diagnostic, Report};

/// Crates whose code is on the deterministic replay path: anything that
/// executes between seed and report must be a pure function of its
/// inputs. The crate-graph test keeps them from depending on the
/// non-deterministic bench, cli and lint crates.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "analytics", "check", "cluster", "core", "dag", "explain", "faults", "perf", "scheduler",
    "sim", "simcore", "trace", "workload",
];

/// Lints every `.rs` file under `<root>/crates/*/src` with the per-file
/// D004 pass. Files are visited in sorted path order, so the report is
/// identical across runs and platforms.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs_files(&dir.join("src"), &mut files)?;
    }
    files.sort();

    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        findings.extend(lint_source(&rel, &std::fs::read_to_string(path)?));
    }
    Ok(Report::new(findings, files.len()))
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
/// Flag: `--root PATH` (default: nearest workspace root). Exits nonzero
/// on any finding.
pub fn run_cli(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "ssr-lint — the determinism audit clippy cannot express\n\
                     \n\
                     usage: ssr-lint [--root PATH]\n\
                     \n\
                     Walks crates/*/src and reports D004 (partial_cmp in a sort,\n\
                     min or max comparator) outside test code; see EXPERIMENTS.md\n\
                     \"The determinism contract\". Exits nonzero on any finding."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.or_else(|| find_workspace_root(&std::env::current_dir().ok()?));
    let Some(root) = root else {
        eprintln!("error: no workspace root found above the working directory");
        return ExitCode::from(2);
    };
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render_text());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
