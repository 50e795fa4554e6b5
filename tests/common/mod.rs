//! Helpers shared by the determinism-contract tests.

#![allow(dead_code, reason = "each test binary uses a subset of these helpers")]

use std::path::{Path, PathBuf};

/// Crates whose code is on the deterministic replay path: anything that
/// executes between seed and report must be a pure function of its
/// inputs. The crate-graph test keeps them from depending on the
/// non-deterministic bench and cli crates.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "analytics", "check", "cluster", "core", "dag", "explain", "faults", "perf", "scheduler",
    "sim", "simcore", "trace", "workload",
];

/// The workspace root.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Appends every `.rs` file under `dir` (recursively) to `out`; a
/// missing `dir` adds nothing.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every attribute under `crates/*/src` that opts out of a determinism
/// lint (`clippy::disallowed_types` / `clippy::disallowed_methods`), as
/// `(workspace-relative file, attribute text)` in sorted order.
pub fn opt_out_sites() -> Vec<(String, String)> {
    let root = workspace_root();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is listable") {
        collect_rs_files(&entry.expect("dir entry").path().join("src"), &mut files);
    }
    files.sort();
    let mut sites = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source is readable");
        let rel =
            file.strip_prefix(&root).expect("under root").to_string_lossy().replace('\\', "/");
        for (at, _) in text.match_indices('#') {
            let attr = &text[at..];
            let is_opt_out = ["#![allow(", "#![expect(", "#[allow(", "#[expect("]
                .iter()
                .any(|p| attr.starts_with(p));
            let Some(end) = attr.find(")]") else { continue };
            if is_opt_out && attr[..end].contains("clippy::disallowed_") {
                sites.push((rel.clone(), attr[..end + 2].to_owned()));
            }
        }
    }
    sites
}
