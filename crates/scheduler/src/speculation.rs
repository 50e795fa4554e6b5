//! Progress-based speculative execution — the *status quo* straggler
//! mitigation the paper compares §IV-C against.
//!
//! Production frameworks (Spark speculation, Hadoop LATE, Mantri) watch
//! each task's progress and, once a configurable fraction of a phase has
//! completed, launch an extra copy of any task running far longer than the
//! completed median — on **any** available slot, which generally means a
//! remote read and a cold JVM. The paper's §IV-C strategy differs in all
//! three respects it claims as advantages: no progress estimator, no extra
//! slots (only the job's own reserved ones), and warm copies.
//!
//! This module reproduces the status quo so the comparison is measurable;
//! see the `ablation` harness in `ssr-bench`.

/// Configuration of progress-based speculation, mirroring Spark's
/// `spark.speculation.*` knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// Fraction of a phase that must have completed before any copy is
    /// considered (`spark.speculation.quantile`, default 0.75).
    pub quantile: f64,
    /// A task is a straggler once its elapsed time exceeds
    /// `multiplier × median(completed durations)`
    /// (`spark.speculation.multiplier`, default 1.5).
    pub multiplier: f64,
}

impl SpeculationConfig {
    /// Spark's default configuration (quantile 0.75, multiplier 1.5).
    pub fn spark_defaults() -> Self {
        SpeculationConfig { quantile: 0.75, multiplier: 1.5 }
    }

    /// Sets the completion quantile, clamped into `[0, 1]`. A quantile
    /// above 1 can never be reached (`completed/parallelism` tops out at 1
    /// exactly when every task has finished), which would silently disable
    /// speculation; below 0 is meaningless. `NaN` falls back to the Spark
    /// default (0.75).
    pub fn with_quantile(mut self, quantile: f64) -> Self {
        self.quantile =
            if quantile.is_nan() { SpeculationConfig::spark_defaults().quantile } else { quantile.clamp(0.0, 1.0) };
        self
    }

    /// Sets the elapsed-over-median multiplier, clamped to ≥ 1. A
    /// multiplier below 1 would brand tasks *faster* than the completed
    /// median as stragglers and copy most of the phase. `NaN` falls back to
    /// the Spark default (1.5).
    pub fn with_multiplier(mut self, multiplier: f64) -> Self {
        self.multiplier = if multiplier.is_nan() {
            SpeculationConfig::spark_defaults().multiplier
        } else if multiplier < 1.0 {
            1.0
        } else {
            multiplier
        };
        self
    }

    /// The elapsed-time threshold (seconds) beyond which a running task is
    /// deemed a straggler, given the phase's completed durations; `None`
    /// while too little of the phase has finished.
    pub fn threshold(&self, completed: &[f64], parallelism: u32) -> Option<f64> {
        if parallelism == 0 {
            return None;
        }
        let fraction = completed.len() as f64 / parallelism as f64;
        if fraction < self.quantile || completed.is_empty() {
            return None;
        }
        let median = ssr_simcore::stats::percentile(completed, 0.5);
        Some(self.multiplier * median)
    }
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig::spark_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_spark() {
        let c = SpeculationConfig::spark_defaults();
        assert_eq!(c.quantile, 0.75);
        assert_eq!(c.multiplier, 1.5);
        assert_eq!(SpeculationConfig::default(), c);
    }

    #[test]
    fn threshold_requires_quantile() {
        let c = SpeculationConfig::spark_defaults();
        // 2 of 4 completed < 0.75 quantile.
        assert_eq!(c.threshold(&[1.0, 2.0], 4), None);
        // 3 of 4 completed >= 0.75: median 2.0 x 1.5 = 3.0.
        assert_eq!(c.threshold(&[1.0, 2.0, 3.0], 4), Some(3.0));
    }

    #[test]
    fn threshold_empty_and_zero_parallelism() {
        let c = SpeculationConfig::spark_defaults().with_quantile(0.0);
        assert_eq!(c.threshold(&[], 4), None);
        assert_eq!(c.threshold(&[1.0], 0), None);
    }

    #[test]
    fn builders_apply() {
        let c = SpeculationConfig::spark_defaults().with_quantile(0.5).with_multiplier(2.0);
        // 2 of 4 >= 0.5 quantile; median 1.5 x 2.0 = 3.0.
        assert_eq!(c.threshold(&[1.0, 2.0], 4), Some(3.0));
    }

    #[test]
    fn quantile_clamps_to_unit_interval() {
        assert_eq!(SpeculationConfig::spark_defaults().with_quantile(1.5).quantile, 1.0);
        assert_eq!(SpeculationConfig::spark_defaults().with_quantile(-0.5).quantile, 0.0);
        // Boundaries pass through untouched.
        assert_eq!(SpeculationConfig::spark_defaults().with_quantile(0.0).quantile, 0.0);
        assert_eq!(SpeculationConfig::spark_defaults().with_quantile(1.0).quantile, 1.0);
        // A clamped quantile of 1.0 still triggers once the phase is done.
        let c = SpeculationConfig::spark_defaults().with_quantile(7.0);
        assert_eq!(c.threshold(&[1.0, 2.0, 3.0], 4), None);
        assert_eq!(c.threshold(&[1.0, 2.0, 3.0, 4.0], 4), Some(1.5 * 2.5));
    }

    #[test]
    fn multiplier_clamps_to_at_least_one() {
        assert_eq!(SpeculationConfig::spark_defaults().with_multiplier(0.5).multiplier, 1.0);
        assert_eq!(SpeculationConfig::spark_defaults().with_multiplier(-3.0).multiplier, 1.0);
        assert_eq!(SpeculationConfig::spark_defaults().with_multiplier(1.0).multiplier, 1.0);
        assert_eq!(SpeculationConfig::spark_defaults().with_multiplier(4.0).multiplier, 4.0);
        // Sub-1 multipliers no longer brand median-speed tasks stragglers.
        let c = SpeculationConfig::spark_defaults().with_quantile(0.5).with_multiplier(0.1);
        assert_eq!(c.threshold(&[2.0, 2.0], 4), Some(2.0));
    }

    #[test]
    fn nan_inputs_fall_back_to_spark_defaults() {
        let c = SpeculationConfig::spark_defaults().with_quantile(f64::NAN).with_multiplier(f64::NAN);
        assert_eq!(c, SpeculationConfig::spark_defaults());
        // Infinities are finite-clamped, not defaulted.
        assert_eq!(SpeculationConfig::spark_defaults().with_quantile(f64::INFINITY).quantile, 1.0);
        assert_eq!(SpeculationConfig::spark_defaults().with_multiplier(f64::NEG_INFINITY).multiplier, 1.0);
    }
}
