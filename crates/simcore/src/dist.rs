//! Task-duration distributions.
//!
//! The paper's workload model (§IV-B.2) is built on the Pareto distribution
//! of Eq. (1); the workload generators also use log-normal and constant
//! task durations, and test fixtures uniform ones.

use std::fmt;

use crate::rng::SimRng;

/// Error returned when a distribution is constructed with invalid
/// parameters (non-finite, non-positive, or otherwise out of domain).
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidDistributionError {
    what: String,
}

impl InvalidDistributionError {
    fn new(what: impl Into<String>) -> Self {
        InvalidDistributionError { what: what.into() }
    }
}

impl fmt::Display for InvalidDistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameters: {}", self.what)
    }
}

impl std::error::Error for InvalidDistributionError {}

/// A real-valued distribution that can be sampled with a [`SimRng`].
///
/// Implementors return values in seconds when used as task-duration models.
pub trait Distribution: fmt::Debug {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution mean, if finite and known in closed form.
    fn mean(&self) -> Option<f64>;
}

/// The Pareto distribution of Eq. (1):
/// `F(t) = 1 - (t_m / t)^alpha` for `t >= t_m`.
///
/// `alpha` (shape) controls the tail weight — production traces cited by the
/// paper have `alpha` in `[1, 2]` — and `t_m` (scale) is the minimum value,
/// approximated online by the duration of the first task to finish in a
/// phase.
///
/// # Example
///
/// ```
/// use ssr_simcore::dist::{Pareto, Distribution};
/// use ssr_simcore::rng::SimRng;
///
/// let p = Pareto::new(1.0, 1.6)?;
/// assert!((p.mean().unwrap() - 1.6 / 0.6).abs() < 1e-12);
/// let mut rng = SimRng::seed_from_u64(1);
/// assert!(p.sample(&mut rng) >= 1.0);
/// # Ok::<(), ssr_simcore::dist::InvalidDistributionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with scale `t_m` and shape `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistributionError`] unless `scale > 0` and
    /// `shape > 0` (the paper requires `alpha > 1` for a finite mean, but
    /// shapes in `(0, 1]` are valid distributions and useful in stress
    /// tests).
    pub fn new(scale: f64, shape: f64) -> Result<Self, InvalidDistributionError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(InvalidDistributionError::new(format!(
                "Pareto scale must be finite and positive, got {scale}"
            )));
        }
        if !(shape.is_finite() && shape > 0.0) {
            return Err(InvalidDistributionError::new(format!(
                "Pareto shape must be finite and positive, got {shape}"
            )));
        }
        Ok(Pareto { scale, shape })
    }

    /// Creates a Pareto distribution with the given shape whose **mean** is
    /// `mean`, solving `t_m = mean * (alpha - 1) / alpha`.
    ///
    /// This is the transformation used by the paper's Fig. 17 experiment,
    /// which re-fits task durations to Pareto *with the same mean* as the
    /// original workload.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistributionError`] unless `mean > 0` and
    /// `shape > 1` (the mean is infinite otherwise).
    pub fn with_mean(mean: f64, shape: f64) -> Result<Self, InvalidDistributionError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(InvalidDistributionError::new(format!(
                "Pareto mean must be finite and positive, got {mean}"
            )));
        }
        if !(shape.is_finite() && shape > 1.0) {
            return Err(InvalidDistributionError::new(format!(
                "Pareto shape must exceed 1 for a finite mean, got {shape}"
            )));
        }
        Pareto::new(mean * (shape - 1.0) / shape, shape)
    }

    /// The scale parameter `t_m` (the distribution minimum).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The shape parameter `alpha`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The CDF of Eq. (1).
    pub fn cdf(&self, t: f64) -> f64 {
        if t < self.scale {
            0.0
        } else {
            1.0 - (self.scale / t).powf(self.shape)
        }
    }

    /// The quantile function (inverse CDF) for `p` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile requires p in [0,1), got {p}");
        self.scale * (1.0 - p).powf(-1.0 / self.shape)
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse-CDF sampling on an open uniform so the tail stays finite.
        self.scale * rng.open_f64().powf(-1.0 / self.shape)
    }

    fn mean(&self) -> Option<f64> {
        if self.shape > 1.0 {
            Some(self.shape * self.scale / (self.shape - 1.0))
        } else {
            None
        }
    }
}

/// A degenerate distribution that always returns the same value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(f64);

impl Constant {
    /// Creates a constant distribution.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistributionError`] unless `value` is finite and
    /// non-negative.
    pub fn new(value: f64) -> Result<Self, InvalidDistributionError> {
        if !(value.is_finite() && value >= 0.0) {
            return Err(InvalidDistributionError::new(format!(
                "Constant value must be finite and non-negative, got {value}"
            )));
        }
        Ok(Constant(value))
    }

    /// The constant value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl Distribution for Constant {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.0
    }

    fn mean(&self) -> Option<f64> {
        Some(self.0)
    }
}

/// The continuous uniform distribution on `[low, high]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[low, high]`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistributionError`] unless both bounds are finite
    /// and `low <= high`.
    pub fn new(low: f64, high: f64) -> Result<Self, InvalidDistributionError> {
        if !(low.is_finite() && high.is_finite() && low <= high) {
            return Err(InvalidDistributionError::new(format!(
                "Uniform requires finite low <= high, got [{low}, {high}]"
            )));
        }
        Ok(Uniform { low, high })
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.low + (self.high - self.low) * rng.f64()
    }

    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.low + self.high))
    }
}

/// The log-normal distribution, used for moderately skewed (but
/// light-tailed) task durations in the MLlib-like templates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution where `ln(X) ~ N(mu, sigma^2)`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistributionError`] unless `mu` is finite and
    /// `sigma` is finite and non-negative.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, InvalidDistributionError> {
        if !(mu.is_finite() && sigma.is_finite() && sigma >= 0.0) {
            return Err(InvalidDistributionError::new(format!(
                "LogNormal requires finite mu and non-negative sigma, got mu={mu}, sigma={sigma}"
            )));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Creates a log-normal distribution with the given mean and a
    /// coefficient of variation `cv = std / mean`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistributionError`] unless `mean > 0` and `cv >= 0`.
    pub fn with_mean_cv(mean: f64, cv: f64) -> Result<Self, InvalidDistributionError> {
        if !(mean.is_finite() && mean > 0.0 && cv.is_finite() && cv >= 0.0) {
            return Err(InvalidDistributionError::new(format!(
                "LogNormal requires positive mean and non-negative cv, got mean={mean}, cv={cv}"
            )));
        }
        let sigma2 = (1.0 + cv * cv).ln();
        LogNormal::new(mean.ln() - sigma2 / 2.0, sigma2.sqrt())
    }

    fn standard_normal(rng: &mut SimRng) -> f64 {
        // Box–Muller; one value per call keeps the generator stateless.
        let u1 = rng.open_f64();
        let u2 = rng.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + self.sigma * self.sigma / 2.0).exp())
    }
}

/// A type-erased, shareable duration distribution.
///
/// Stage specifications hold one of these so heterogeneous distributions can
/// live in the same DAG.
pub type DynDistribution = std::sync::Arc<dyn Distribution + Send + Sync>;

/// Convenience constructor for a shared [`Pareto`].
///
/// # Panics
///
/// Panics if the parameters are invalid; intended for literal parameters in
/// workload templates and tests.
pub fn pareto(scale: f64, shape: f64) -> DynDistribution {
    std::sync::Arc::new(Pareto::new(scale, shape).expect("valid Pareto parameters"))
}

/// Convenience constructor for a shared [`Constant`].
///
/// # Panics
///
/// Panics if `value` is invalid; intended for literal parameters.
pub fn constant(value: f64) -> DynDistribution {
    std::sync::Arc::new(Constant::new(value).expect("valid Constant parameter"))
}

/// Convenience constructor for a shared [`Uniform`].
///
/// # Panics
///
/// Panics if the bounds are invalid; intended for literal parameters.
pub fn uniform(low: f64, high: f64) -> DynDistribution {
    std::sync::Arc::new(Uniform::new(low, high).expect("valid Uniform parameters"))
}

/// Convenience constructor for a shared [`LogNormal`] given mean and CV.
///
/// # Panics
///
/// Panics if the parameters are invalid; intended for literal parameters.
pub fn lognormal_mean_cv(mean: f64, cv: f64) -> DynDistribution {
    std::sync::Arc::new(LogNormal::with_mean_cv(mean, cv).expect("valid LogNormal parameters"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(dist: &dyn Distribution, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let p = Pareto::new(3.0, 1.5).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(p.sample(&mut rng) >= 3.0);
        }
    }

    #[test]
    fn pareto_cdf_and_quantile_round_trip() {
        let p = Pareto::new(2.0, 1.6).unwrap();
        for &q in &[0.0, 0.1, 0.5, 0.9, 0.99] {
            let t = p.quantile(q);
            assert!((p.cdf(t) - q).abs() < 1e-12, "q={q}");
        }
        assert_eq!(p.cdf(1.0), 0.0);
    }

    #[test]
    fn pareto_sample_matches_cdf() {
        // Empirical CDF at a few points should track the closed form.
        let p = Pareto::new(1.0, 1.6).unwrap();
        let mut rng = SimRng::seed_from_u64(4);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| p.sample(&mut rng)).collect();
        for &t in &[1.2, 2.0, 5.0, 20.0] {
            let emp = samples.iter().filter(|&&s| s <= t).count() as f64 / n as f64;
            assert!((emp - p.cdf(t)).abs() < 0.01, "t={t}: emp={emp}, cdf={}", p.cdf(t));
        }
    }

    #[test]
    fn pareto_with_mean_matches_requested_mean() {
        let p = Pareto::with_mean(10.0, 1.6).unwrap();
        assert!((p.mean().unwrap() - 10.0).abs() < 1e-9);
        let empirical = sample_mean(&p, 2_000_000, 8);
        // Heavy tail converges slowly; allow a loose tolerance.
        assert!((empirical - 10.0).abs() / 10.0 < 0.15, "empirical mean {empirical}");
    }

    #[test]
    fn pareto_mean_infinite_for_small_shape() {
        assert_eq!(Pareto::new(1.0, 0.9).unwrap().mean(), None);
        assert_eq!(Pareto::new(1.0, 1.0).unwrap().mean(), None);
    }

    #[test]
    fn pareto_invalid_parameters_rejected() {
        assert!(Pareto::new(0.0, 1.5).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
        assert!(Pareto::new(f64::NAN, 1.5).is_err());
        assert!(Pareto::with_mean(1.0, 1.0).is_err());
    }

    #[test]
    fn constant_always_returns_value() {
        let c = Constant::new(4.5).unwrap();
        let mut rng = SimRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(c.sample(&mut rng), 4.5);
        }
        assert_eq!(c.mean(), Some(4.5));
        assert!(Constant::new(-1.0).is_err());
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let u = Uniform::new(2.0, 6.0).unwrap();
        let mut rng = SimRng::seed_from_u64(13);
        for _ in 0..10_000 {
            let s = u.sample(&mut rng);
            assert!((2.0..=6.0).contains(&s));
        }
        assert!((sample_mean(&u, 100_000, 14) - 4.0).abs() < 0.05);
        assert!(Uniform::new(6.0, 2.0).is_err());
    }

    #[test]
    fn lognormal_mean_cv_converges() {
        let l = LogNormal::with_mean_cv(5.0, 0.4).unwrap();
        assert!((l.mean().unwrap() - 5.0).abs() < 1e-9);
        assert!((sample_mean(&l, 200_000, 16) - 5.0).abs() < 0.1);
        assert!(LogNormal::with_mean_cv(-1.0, 0.4).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let err = Pareto::new(0.0, 1.0).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("scale"));
    }
}
