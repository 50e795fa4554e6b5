//! The exception mechanism for recovery code: a panic site is either
//! fixed or carries a reasoned `#[expect]` right where it is, which
//! clippy checks on every run.

mod clippy_fixture;

use clippy_fixture::{assert_rejected, fixture_source};

#[test]
fn p001_baseline_round_trip() {
    // The same indexing site, bare in `p001` and under a reasoned
    // `#[expect]` in `p001_expect`: the lint fires on the first, and the
    // second module is clean.
    let bare = fixture_source("p001");
    let expected = fixture_source("p001_expect");
    assert!(bare.contains("    failed[0] //~ clippy::indexing_slicing\n"));
    assert!(expected.contains("#[expect(clippy::indexing_slicing, reason = "));
    assert!(expected.contains("    failed[0]\n"));
    assert_rejected("p001");
    assert_rejected("p001_expect");
}
