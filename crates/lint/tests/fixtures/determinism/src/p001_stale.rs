//! An `#[expect]` whose panic site was paid down: the expectation is
//! unfulfilled, which `-D warnings` rejects, so stale exceptions cannot
//! pile up.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "fault recovery must not panic"
)]

#[expect(clippy::indexing_slicing, reason = "paid down")] //~ unfulfilled_lint_expectations
pub fn first_failed(failed: &[u32]) -> Option<u32> {
    failed.first().copied()
}
