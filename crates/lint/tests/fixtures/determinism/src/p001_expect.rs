//! `p001::first_failed` under the same deny list with a reasoned
//! `#[expect]`: the lint fires, is expected, and the module is clean.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "fault recovery must not panic"
)]

#[expect(clippy::indexing_slicing, reason = "documented # Panics contract")]
pub fn first_failed(failed: &[u32]) -> u32 {
    failed[0]
}
