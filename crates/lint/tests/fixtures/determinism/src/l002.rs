//! An opt-out naming an unknown lint silences nothing.

#[allow(clippy::no_such_lint, reason = "no such lint")] //~ unknown_lints
pub fn nothing() {}
