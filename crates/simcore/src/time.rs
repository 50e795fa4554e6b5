//! Simulated-clock types.
//!
//! The simulator measures time in integer **microseconds** so that event
//! ordering is exact (no floating-point ties) and replay is deterministic.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in microseconds since the
/// start of the simulation.
///
/// `SimTime` is a newtype over `u64`; arithmetic with [`SimDuration`]
/// saturates rather than wrapping, so a runaway simulation fails loudly at
/// `SimTime::MAX` instead of silently jumping back to zero.
///
/// # Example
///
/// ```
/// use ssr_simcore::{SimTime, SimDuration};
///
/// let t = SimTime::from_secs(3) + SimDuration::from_millis(250);
/// assert_eq!(t.as_micros(), 3_250_000);
/// assert_eq!(format!("{t}"), "3.250s");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Example
///
/// ```
/// use ssr_simcore::SimDuration;
///
/// let d = SimDuration::from_secs_f64(1.5);
/// assert_eq!(d.as_micros(), 1_500_000);
/// assert_eq!(d * 2, SimDuration::from_secs(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from microseconds since simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant from whole seconds since simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates an instant from fractional seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime::from_secs_f64 requires a finite, non-negative value, got {secs}"
        );
        SimTime(round_micros(secs * 1e6))
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier > self` (wraps in release via
    /// standard integer semantics; prefer [`SimTime::saturating_since`]
    /// when ordering is uncertain).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier.0 <= self.0,
            "SimTime::since called with a later instant: {earlier} > {self}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64 requires a finite, non-negative value, got {secs}"
        );
        SimDuration(round_micros(secs * 1e6))
    }

    /// The span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}s", self.0 / 1_000_000, (self.0 % 1_000_000) / 1_000)
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}s", self.0 / 1_000_000, (self.0 % 1_000_000) / 1_000)
    }
}

impl PartialOrd for SimDuration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// `micros.round() as u64` for a finite `micros >= 0`, without the libm
/// call `f64::round` makes on the baseline x86-64 target: halves round
/// away from zero and values past `u64::MAX` saturate, as the cast does.
/// The fraction `micros - t` is exact (for `micros < 2^52` it is the
/// value's low bits; above, `micros` is an integer and it is zero), so
/// the comparison with 0.5 is too.
#[inline]
fn round_micros(micros: f64) -> u64 {
    let t = micros as u64;
    if micros - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The rounding `round_micros` replaces.
    fn libm_round(micros: f64) -> u64 {
        micros.round() as u64
    }

    proptest! {
        /// Every finite non-negative value, drawn from its bit pattern.
        #[test]
        fn round_micros_matches_f64_round(bits in 0u64..0x7ff0_0000_0000_0000) {
            let micros = f64::from_bits(bits);
            prop_assert_eq!(round_micros(micros), libm_round(micros), "{}", micros);
        }

        /// Exact halves and their neighbours one step either side.
        #[test]
        fn round_micros_matches_at_halves(k in 0u64..(1 << 52)) {
            let half = k as f64 + 0.5;
            for micros in [half, half.next_down(), half.next_up()] {
                prop_assert_eq!(round_micros(micros), libm_round(micros), "{}", micros);
            }
        }

        /// From 2^52, where every value is an integer, to past 2^64, where
        /// both saturate.
        #[test]
        fn round_micros_matches_on_large_values(exp in 52i32..70, frac in 0u64..(1 << 52)) {
            let micros = f64::from_bits(((exp + 1023) as u64) << 52 | frac);
            prop_assert_eq!(round_micros(micros), libm_round(micros), "{}", micros);
        }

        /// Subnormals round to zero.
        #[test]
        fn round_micros_matches_on_subnormals(bits in 0u64..(1 << 52)) {
            let micros = f64::from_bits(bits);
            prop_assert_eq!(round_micros(micros), 0);
            prop_assert_eq!(libm_round(micros), 0);
        }
    }

    #[test]
    fn round_micros_edges() {
        for micros in [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            18_446_744_073_709_549_568.0,
            18_446_744_073_709_551_616.0,
            f64::MAX,
        ] {
            assert_eq!(round_micros(micros), libm_round(micros), "{micros}");
        }
        assert_eq!(round_micros(f64::MAX), u64::MAX);
        assert_eq!(round_micros(2.5), 3);
    }

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_micros(), 250_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_secs_f64(), 1.5);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d).as_micros(), 14_000_000);
        assert_eq!((t - d).as_micros(), 6_000_000);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    }

    #[test]
    fn saturation_at_extremes() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1), SimTime::ZERO);
        assert_eq!(SimDuration::MAX * 3, SimDuration::MAX);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d * 3, SimDuration::from_secs(6));
        assert_eq!(d / 2, SimDuration::from_secs(1));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(1_234)), "1.234s");
        assert_eq!(format!("{}", SimDuration::from_micros(1_500)), "0.001s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_rejected() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.min(y), x);
        assert_eq!(x.max(y), y);
    }
}
