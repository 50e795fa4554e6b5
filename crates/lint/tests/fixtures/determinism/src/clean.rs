//! Honours the whole contract; the reasoned `expect` is the one
//! exception mechanism and silences its finding cleanly.

use std::collections::BTreeMap;

use ssr_simcore::rng::SimRng;

pub fn sum_values(counts: &BTreeMap<String, u64>) -> u64 {
    counts.values().sum()
}

pub fn sort_floats(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

#[expect(clippy::disallowed_methods, reason = "a barrier module derives streams here")]
pub fn root_stream(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}
