//! Summary statistics and order-statistics helpers.
//!
//! These back the metrics pipeline (JCT, slowdown, utilization summaries)
//! and the paper's numerical studies, which are phrased in terms of order
//! statistics (`t_(k)` = duration of the k-th shortest task).

use std::fmt;

/// A summary of a finite sample: count, mean, standard deviation, min, max
/// and selected percentiles.
///
/// # Example
///
/// ```
/// use ssr_simcore::stats::Summary;
///
/// let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0]).expect("non-empty");
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
    p50: f64,
    p90: f64,
    p99: f64,
}

/// Error returned when statistics are requested over an empty sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptySampleError;

impl fmt::Display for EmptySampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "statistics require a non-empty sample")
    }
}

impl std::error::Error for EmptySampleError {}

impl Summary {
    /// Computes a summary of `values`.
    ///
    /// # Errors
    ///
    /// Returns [`EmptySampleError`] if `values` is empty.
    pub fn from_values(values: &[f64]) -> Result<Self, EmptySampleError> {
        if values.is_empty() {
            return Err(EmptySampleError);
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            p50: percentile_sorted(&sorted, 0.50),
            p90: percentile_sorted(&sorted, 0.90),
            p99: percentile_sorted(&sorted, 0.99),
        })
    }

    /// Sample size.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest value.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest value.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median (50th percentile, linear interpolation).
    pub fn p50(&self) -> f64 {
        self.p50
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.p90
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.p99
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} p50={:.4} p90={:.4} p99={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.min, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// Linear-interpolation percentile of a **sorted** slice; `q` in `[0, 1]`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "percentile requires q in [0,1], got {q}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Percentile of an unsorted slice (sorts a copy); `q` in `[0, 1]`.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// Returns the order statistics of `values`: a sorted copy, so that index
/// `k` holds `t_(k+1)` in the paper's notation (the (k+1)-th shortest).
pub fn order_statistics(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::from_values(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.p50(), 2.0);
    }

    #[test]
    fn summary_empty_errors() {
        assert_eq!(Summary::from_values(&[]), Err(EmptySampleError));
        assert!(format!("{EmptySampleError}").contains("non-empty"));
    }

    #[test]
    fn summary_std_dev() {
        let s = Summary::from_values(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert!((percentile(&v, 0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 0.37), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn order_statistics_sorted() {
        assert_eq!(order_statistics(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn summary_display_nonempty() {
        let s = Summary::from_values(&[1.0]).unwrap();
        assert!(format!("{s}").contains("n=1"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Percentiles are monotone in q and bounded by min/max.
        #[test]
        fn percentile_monotone(values in proptest::collection::vec(0f64..1e6, 1..100),
                               q1 in 0f64..=1.0, q2 in 0f64..=1.0) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let p_lo = percentile(&values, lo);
            let p_hi = percentile(&values, hi);
            prop_assert!(p_lo <= p_hi + 1e-9);
            let s = Summary::from_values(&values).unwrap();
            prop_assert!(p_lo >= s.min() - 1e-9);
            prop_assert!(p_hi <= s.max() + 1e-9);
        }
    }
}
