//! The workspace-level regression: the tree this crate ships in must
//! itself pass the audits, and every determinism opt-out must be a
//! reasoned attribute at a sanctioned site.

mod common;

use common::workspace_root;
use ssr_lint::lint_workspace;

#[test]
fn workspace_has_no_unsuppressed_findings() {
    // `lint_workspace` auto-loads `<root>/lint.baseline`, so this gate
    // means: zero findings beyond the audited, reasoned ledger.
    let outcome = lint_workspace(&workspace_root(), None).expect("workspace lints");
    assert!(
        outcome.report.is_clean(),
        "determinism contract violated:\n{}",
        outcome.report.render_text()
    );
    assert!(outcome.report.files_scanned > 0);
}

#[test]
fn baseline_has_no_stale_entries() {
    // Paid-down debt must leave the ledger: every baseline entry's
    // budget is fully consumed by current findings.
    let outcome = lint_workspace(&workspace_root(), None).expect("workspace lints");
    assert!(
        outcome.stale_baseline.is_empty(),
        "stale lint.baseline entries (remove or tighten them):\n{}",
        outcome.stale_baseline.join("\n")
    );
}

#[test]
fn baseline_file_round_trips() {
    let text = std::fs::read_to_string(workspace_root().join("lint.baseline"))
        .expect("lint.baseline is checked in");
    let parsed = ssr_lint::Baseline::parse(&text).expect("baseline parses");
    assert!(!parsed.entries.is_empty(), "ledger should not be empty while debt remains");
    let reparsed = ssr_lint::Baseline::parse(&parsed.render()).expect("render round-trips");
    assert_eq!(parsed, reparsed);
}

#[test]
fn every_suppression_carries_a_reason() {
    // Clippy rejects reasonless opt-outs; this pins *where* they may sit:
    // the three barrier modules and the non-deterministic crate roots.
    let sites = common::opt_out_sites();
    for (file, attr) in &sites {
        assert!(attr.contains("reason = \""), "{file}: opt-out without a reason: {attr}");
    }
    let files: Vec<&str> = sites.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(
        files,
        [
            "crates/bench/src/bin/figures.rs",
            "crates/bench/src/lib.rs",
            "crates/cli/src/main.rs",
            "crates/lint/src/lib.rs",
            "crates/lint/src/main.rs",
            "crates/sim/src/runner.rs",
            "crates/sim/src/walltime.rs",
            "crates/simcore/src/rng.rs",
        ]
    );
}

#[test]
fn report_is_byte_stable_across_runs() {
    let root = workspace_root();
    let a = lint_workspace(&root, None).expect("first run").report;
    let b = lint_workspace(&root, None).expect("second run").report;
    assert_eq!(a, b);
    assert_eq!(a.render_text(), b.render_text());
}
