//! Raw RNG construction outside `simcore::rng`.

use ssr_simcore::rng::SimRng;

pub fn fresh_rng(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed) //~ clippy::disallowed_methods
}
