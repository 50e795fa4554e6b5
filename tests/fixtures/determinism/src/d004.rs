//! Float ordering: `partial_cmp` panics or misorders on NaN.

use std::cmp::Ordering;

pub fn sort_floats(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap()); //~ clippy::disallowed_methods
}

pub fn sort_floats_totally(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// A derived `PartialOrd` calls `partial_cmp` on each field.
#[derive(PartialEq, PartialOrd)]
pub struct Seconds(f64); //~ clippy::disallowed_methods

/// A hand-written order: `partial_cmp` defers to `cmp` and never reaches
/// a field's `partial_cmp`, as a derived one would.
#[derive(PartialEq, Eq)]
pub struct Micros(u64);

impl PartialOrd for Micros {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Micros {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}
