//! Deterministic pseudo-random number generation.
//!
//! The simulator owns its generator — xoshiro256\*\* seeded through
//! SplitMix64 — so that every experiment is reproducible bit-for-bit across
//! platforms and crate upgrades. All workload synthesis and task-duration
//! sampling flows through [`SimRng`].

#![expect(
    clippy::disallowed_methods,
    reason = "the RNG barrier: `stream` is the only caller of `seed_from_u64` outside tests"
)]

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// Not cryptographically secure; intended exclusively for simulation.
///
/// # Example
///
/// ```
/// use ssr_simcore::rng::SimRng;
///
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed, expanding it through
    /// SplitMix64 as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next_sm(), next_sm(), next_sm(), next_sm()];
        SimRng { state }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Returns a uniform `f64` in the half-open interval `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high bits give a uniformly spaced double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in the **open** interval `(0, 1)`.
    ///
    /// Useful for inverse-CDF sampling where `u == 0` would map to an
    /// infinite value (e.g. Pareto and exponential tails).
    pub fn open_f64(&mut self) -> f64 {
        loop {
            let u = self.f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Returns a uniform integer in the half-open range `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the result is
    /// unbiased for every bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SimRng::next_below requires a positive bound");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// Returns `None` if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// The generator for trial `index` of a run rooted at `root_seed`.
    ///
    /// Every trial of a grid draws from its own stream, derived purely
    /// from `(root_seed, index)`: trial results do not depend on which
    /// worker thread executes them or in what order, and any single trial
    /// can be re-run in isolation. The SplitMix64 seeding stage scrambles
    /// the XOR thoroughly, so neighbouring indices yield uncorrelated
    /// streams.
    pub fn stream(root_seed: u64, index: u64) -> SimRng {
        SimRng::seed_from_u64(root_seed ^ index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::seed_from_u64(123);
        let mut b = SimRng::seed_from_u64(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let u = rng.f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn f64_mean_is_roughly_half() {
        let mut rng = SimRng::seed_from_u64(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn next_below_zero_panics() {
        SimRng::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(11);
        assert!((0..100).all(|_| rng.chance(1.0)));
        assert!((0..100).all(|_| !rng.chance(0.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(rng.choose::<u32>(&[]), None);
    }

    #[test]
    fn stream_is_pure_in_root_and_index() {
        let mut a = SimRng::stream(7, 3);
        let mut b = SimRng::stream(7, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::stream(7, 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn open_f64_never_zero() {
        let mut rng = SimRng::seed_from_u64(21);
        for _ in 0..10_000 {
            assert!(rng.open_f64() > 0.0);
        }
    }
}
