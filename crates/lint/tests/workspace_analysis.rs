//! Integration tests for the workspace-level call-graph audits, driven
//! by small fixture trees under `tests/fixtures/ws_*`. The trees are
//! read from disk at runtime — cargo never compiles them — so they can
//! contain deliberate contract violations.

use std::path::{Path, PathBuf};

use ssr_lint::lint_workspace;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

#[test]
fn p001_baseline_round_trip() {
    let root = fixture_root("ws_panic");
    // Auto-loaded `<root>/lint.baseline` absorbs the audited P001.
    let with = lint_workspace(&root, None).expect("fixture lints");
    assert!(with.report.is_clean(), "got:\n{}", with.report.render_text());
    assert_eq!(with.report.baselined, 1);
    assert!(with.stale_baseline.is_empty());
    // Overriding with an empty ledger surfaces it, chain intact.
    let without =
        lint_workspace(&root, Some(&root.join("empty.baseline"))).expect("fixture lints");
    assert_eq!(without.report.findings.len(), 1);
    let d = &without.report.findings[0];
    assert_eq!((d.code.as_str(), d.function.as_str()), ("P001", "first_failed"));
    assert!(d.chain[0].contains("fail_slots") && d.chain[0].contains("root"));
    assert_eq!(without.report.baselined, 0);
}
