//! Helpers shared by the lint crate's integration tests.

use std::path::{Path, PathBuf};

use ssr_lint::find_workspace_root;

/// The workspace this crate ships in.
pub fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/lint lives inside the workspace")
}

/// Every attribute under `crates/*/src` that opts out of a determinism
/// lint (`clippy::disallowed_types` / `clippy::disallowed_methods`), as
/// `(workspace-relative file, attribute text)` in sorted order.
pub fn opt_out_sites() -> Vec<(String, String)> {
    let root = workspace_root();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is listable") {
        let src = entry.expect("dir entry").path().join("src");
        ssr_lint::collect_rs_files(&src, &mut files).expect("sources are listable");
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
