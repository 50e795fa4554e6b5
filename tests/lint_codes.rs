//! One fixture per determinism lint code, each rejected by the clippy
//! lint that enforces it. The fixtures live in the
//! `tests/fixtures/determinism` crate, linted by [`clippy_fixture`].

mod clippy_fixture;
mod common;

use std::collections::BTreeSet;

use clippy_fixture::{assert_rejected, fixture_source};
use common::DETERMINISTIC_CRATES;

/// Asserts that a barrier module opts out of `lint` with a reasoned
/// `#![expect]`, so the lint still fires (and is expected) there.
fn assert_barrier(file: &str, lint: &str) {
    let sites = common::opt_out_sites();
    let attr = sites.iter().find(|(f, _)| f == file).map(|(_, a)| a.as_str());
    assert!(
        attr.is_some_and(|a| a.starts_with("#![expect(")
            && a.contains(lint)
            && a.contains("reason = ")),
        "{file} must carry `#![expect({lint}, reason = \"…\")]`, found {attr:?}"
    );
}

#[test]
fn clean_fixture_is_clean() {
    assert_rejected("clean");
}

#[test]
fn d001_fires_on_hash_iteration() {
    assert_rejected("d001");
}

#[test]
fn d001_is_scoped_to_deterministic_crates() {
    // No crate opts out wholesale. Outside the barrier modules' `#![expect]`,
    // opt-outs sit on single items of crates outside the deterministic
    // set; the crate-graph test keeps deterministic crates from
    // depending on them.
    let sites = common::opt_out_sites();
    assert!(sites.iter().all(|(_, attr)| !attr.starts_with("#![allow(")), "{sites:?}");
    let item_level: BTreeSet<String> = sites
        .into_iter()
        .filter(|(_, attr)| attr.starts_with("#[expect("))
        .map(|(file, _)| file.split('/').nth(1).expect("crates/<name>/…").to_owned())
        .collect();
    assert_eq!(item_level, BTreeSet::from(["bench", "cli"].map(String::from)));
    assert!(item_level.iter().all(|c| !DETERMINISTIC_CRATES.contains(&c.as_str())));
}

#[test]
fn d002_fires_on_wall_clock() {
    assert_rejected("d002");
}

#[test]
fn d002_allows_the_timing_module() {
    assert_barrier("crates/sim/src/walltime.rs", "clippy::disallowed_types");
}

#[test]
fn d003_fires_on_threads() {
    assert_rejected("d003");
}

#[test]
fn d003_allows_the_trial_runner() {
    assert_barrier("crates/sim/src/runner.rs", "clippy::disallowed_methods");
}

#[test]
fn d004_fires_on_partial_cmp_comparator() {
    assert_rejected("d004");
}

#[test]
fn d004_is_quiet_on_total_cmp() {
    // `d004` also holds a `total_cmp` sort and a hand-written order whose
    // `partial_cmp` defers to `cmp`; neither line may be rejected.
    let source = fixture_source("d004");
    assert!(source.contains("    values.sort_by(f64::total_cmp);\n"));
    assert!(source.contains("        Some(self.cmp(other))\n"));
    assert_rejected("d004");
}

#[test]
fn p001_fires_on_recovery_path_panics() {
    // The recovery code's deny list: one rejected line per lint.
    assert_rejected("p001");
}

#[test]
fn d005_fires_on_raw_seeding() {
    assert_rejected("d005");
}

#[test]
fn d005_allows_the_rng_home() {
    assert_barrier("crates/simcore/src/rng.rs", "clippy::disallowed_methods");
}

#[test]
fn d104_fires_on_randomized_hashers() {
    assert_rejected("d104");
}

#[test]
fn d105_fires_on_pointer_addresses() {
    assert_rejected("d105");
}

#[test]
fn d106_fires_on_environment_and_file_input() {
    assert_rejected("d106");
}

#[test]
fn s001_fires_on_crate_root_without_forbid() {
    // `unsafe_code = "forbid"` now comes from `[workspace.lints]`, which
    // every crate inherits (the crate-graph test checks the opt-in).
    assert_rejected("s001");
}

#[test]
fn l001_fires_on_reasonless_allow_but_still_suppresses() {
    // The reasonless `allow` is rejected, yet the HashMap it covers
    // raises nothing.
    assert_rejected("l001");
}

#[test]
fn l001_fires_on_malformed_directives() {
    assert_rejected("l001_malformed");
}

#[test]
fn l002_fires_on_unknown_code_and_the_directive_is_inert() {
    assert_rejected("l002");
}

#[test]
fn reasoned_allow_is_clean() {
    // `clean.rs` holds a reasoned `#[expect]` over a disallowed call.
    assert!(fixture_source("clean").contains("#[expect(clippy::disallowed_methods, reason = "));
    assert_rejected("clean");
}
