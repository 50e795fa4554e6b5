//! Pareto shape estimation.
//!
//! The deadline policy (§IV-B) needs the distribution parameters of the
//! *current* phase while it is still running:
//!
//! * the scale `t_m` "can be well approximated by the duration of the task
//!   that finishes first in a phase" (paper §IV-B.2),
//! * the shape `alpha` is fit by maximum likelihood over the durations
//!   observed so far (the Hill estimator, [`shape_mle`]), falling back to a
//!   configured default while too few samples exist.
//!
//! `ssr_core::DeadlineModel::shape_for` applies both while a phase runs.

use crate::ModelError;

/// The maximum-likelihood (Hill) estimator of the Pareto shape given the
/// scale: `alpha = n / sum(ln(x_i / scale))`.
///
/// # Errors
///
/// Returns [`ModelError`] if `samples` is empty, `scale` is not positive,
/// or any sample lies below `scale` (impossible under the model).
pub fn shape_mle(samples: &[f64], scale: f64) -> Result<f64, ModelError> {
    if samples.is_empty() {
        return Err(ModelError::new("shape estimation needs at least one sample"));
    }
    if !(scale.is_finite() && scale > 0.0) {
        return Err(ModelError::new(format!("scale must be positive, got {scale}")));
    }
    let mut log_sum = 0.0;
    for &x in samples {
        if !x.is_finite() || x < scale {
            return Err(ModelError::new(format!(
                "sample {x} lies below the scale parameter {scale}"
            )));
        }
        log_sum += (x / scale).ln();
    }
    if log_sum <= 0.0 {
        // All samples equal the scale: a degenerate (infinitely light) tail.
        return Ok(f64::INFINITY);
    }
    Ok(samples.len() as f64 / log_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_simcore::dist::{Distribution, Pareto};
    use ssr_simcore::rng::SimRng;

    #[test]
    fn mle_recovers_known_shape() {
        let p = Pareto::new(2.0, 1.6).unwrap();
        let mut rng = SimRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..100_000).map(|_| p.sample(&mut rng)).collect();
        let alpha = shape_mle(&samples, 2.0).unwrap();
        assert!((alpha - 1.6).abs() < 0.03, "alpha={alpha}");
    }

    #[test]
    fn fit_recovers_both_parameters() {
        let p = Pareto::new(3.0, 2.2).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..50_000).map(|_| p.sample(&mut rng)).collect();
        // The deadline model's fit: the sample minimum as scale, then the MLE.
        let scale = samples.iter().copied().fold(f64::INFINITY, f64::min);
        assert!((scale - 3.0) / 3.0 < 0.01);
        let shape = shape_mle(&samples, scale).unwrap();
        assert!((shape - 2.2).abs() < 0.1, "shape={shape}");
    }

    #[test]
    fn mle_error_cases() {
        assert!(shape_mle(&[], 1.0).is_err());
        assert!(shape_mle(&[2.0], 0.0).is_err());
        assert!(shape_mle(&[0.5], 1.0).is_err()); // below scale
    }

    #[test]
    fn degenerate_samples_give_infinite_shape() {
        assert_eq!(shape_mle(&[2.0, 2.0, 2.0], 2.0).unwrap(), f64::INFINITY);
    }
}
