//! Deadline-based reservation (§IV-B): turning the operator's isolation
//! target `P` into an absolute reservation expiry.
//!
//! For a phase of `N` tasks whose durations follow Pareto(`t_m`, `alpha`),
//! the deadline enforcing isolation `P` is
//! `D = t_m (1 - P^{1/N})^{-1/alpha}` measured from the phase start. The
//! scale `t_m` is approximated online by the duration of the phase's first
//! finisher (paper §IV-B.2); the shape is fit by maximum likelihood over
//! the durations observed so far, falling back to a configured default.
//! All three inputs — the phase's ready time, its parallelism and its
//! winners' durations in finish order — come from the phase's
//! [`TaskSetManager`].

use ssr_analytics::fit::shape_mle;
use ssr_analytics::tradeoff::deadline_for_isolation;
use ssr_scheduler::TaskSetManager;
use ssr_simcore::{SimDuration, SimTime};

use crate::config::SsrConfig;

/// Computes absolute reservation deadlines from a phase's task set.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineModel {
    isolation_target: f64,
    default_shape: f64,
    min_fit_samples: usize,
}

impl DeadlineModel {
    /// Creates the model from an [`SsrConfig`].
    pub fn new(config: &SsrConfig) -> Self {
        DeadlineModel {
            isolation_target: config.isolation_target(),
            default_shape: config.default_shape(),
            min_fit_samples: config.min_fit_samples(),
        }
    }

    /// The isolation target `P`.
    pub fn isolation_target(&self) -> f64 {
        self.isolation_target
    }

    /// The Pareto shape for the phase of `tsm`: the maximum-likelihood
    /// fit over its winners' durations once at least `min_fit_samples`
    /// exist (clamped to `(1, 16]` so the deadline stays finite),
    /// otherwise the default.
    pub fn shape_for(&self, tsm: &TaskSetManager) -> f64 {
        let durations = tsm.durations();
        if durations.len() < self.min_fit_samples {
            return self.default_shape;
        }
        let scale = durations.iter().copied().fold(f64::INFINITY, f64::min);
        match shape_mle(durations, scale) {
            Ok(alpha) => alpha.clamp(1.0 + 1e-6, 16.0),
            Err(_) => self.default_shape,
        }
    }

    /// The absolute deadline for reservations made while the phase of
    /// `tsm` is draining, measured from the phase's ready time, or `None`
    /// when `P = 1` (reservations never expire — strict isolation).
    ///
    /// Returns `None` as well before the phase's first finisher, since no
    /// `t_m` estimate exists yet (no reservation can be made before a task
    /// completes, so this does not occur in practice).
    pub fn deadline_for(&self, tsm: &TaskSetManager) -> Option<SimTime> {
        if self.isolation_target >= 1.0 {
            return None;
        }
        let t_m = *tsm.durations().first()?;
        let alpha = self.shape_for(tsm);
        let d = deadline_for_isolation(
            self.isolation_target,
            t_m.max(1e-9),
            alpha,
            tsm.parallelism().max(1),
        )
        .ok()?;
        if !d.is_finite() {
            return None;
        }
        Some(tsm.ready_since() + SimDuration::from_secs_f64(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_cluster::SlotId;
    use ssr_dag::{JobId, StageId};

    /// A phase of `parallelism` tasks, ready at `ready_secs`, whose first
    /// partitions finished in `durations`' order with those durations.
    fn taskset_with(durations: &[f64], ready_secs: u64, parallelism: u32) -> TaskSetManager {
        let ready = SimTime::from_secs(ready_secs);
        let mut tsm = TaskSetManager::new(JobId::new(1), StageId::new(0), parallelism, ready);
        for (i, &d) in durations.iter().enumerate() {
            let instance = tsm.launch_next(SlotId::new(i as u32)).expect("a pending task");
            tsm.instance_finished(instance, SimDuration::from_secs_f64(d));
        }
        tsm
    }

    #[test]
    fn strict_isolation_has_no_deadline() {
        let model = DeadlineModel::new(&SsrConfig::default());
        let tsm = taskset_with(&[1.0, 2.0, 3.0], 0, 10);
        assert_eq!(model.deadline_for(&tsm), None);
    }

    #[test]
    fn deadline_uses_first_finisher_as_scale() {
        let config = SsrConfig::builder().isolation_target(0.9).build().unwrap();
        let model = DeadlineModel::new(&config);
        // The first finisher, not the shortest, is t_m; two samples stay
        // below min_fit_samples, so alpha is the default.
        let tsm = taskset_with(&[2.0, 1.0], 10, 20);
        let deadline = model.deadline_for(&tsm).unwrap();
        // D = t_m (1 - P^{1/N})^{-1/alpha} with t_m = 2, alpha = 1.6
        // (default), measured from the phase's ready time.
        let expected =
            deadline_for_isolation(0.9, 2.0, 1.6, 20).unwrap();
        let want = SimTime::from_secs(10) + SimDuration::from_secs_f64(expected);
        assert_eq!(deadline, want);
    }

    #[test]
    fn no_deadline_before_first_finish() {
        let config = SsrConfig::builder().isolation_target(0.5).build().unwrap();
        let model = DeadlineModel::new(&config);
        let tsm = taskset_with(&[], 0, 10);
        assert_eq!(model.deadline_for(&tsm), None);
    }

    #[test]
    fn shape_fit_kicks_in_after_min_samples() {
        let config = SsrConfig::builder()
            .isolation_target(0.5)
            .min_fit_samples(3)
            .default_shape(1.6)
            .build()
            .unwrap();
        let model = DeadlineModel::new(&config);
        let few = taskset_with(&[1.0, 2.0], 0, 4);
        assert_eq!(model.shape_for(&few), 1.6);
        let many = taskset_with(&[1.0, 2.0, 4.0, 8.0], 0, 4);
        let fitted = model.shape_for(&many);
        assert_ne!(fitted, 1.6);
        assert!(fitted > 1.0 && fitted <= 16.0);
    }

    #[test]
    fn degenerate_durations_clamp_shape() {
        let config = SsrConfig::builder()
            .isolation_target(0.5)
            .min_fit_samples(2)
            .build()
            .unwrap();
        let model = DeadlineModel::new(&config);
        let tsm = taskset_with(&[3.0, 3.0, 3.0], 0, 8);
        assert_eq!(model.shape_for(&tsm), 16.0);
        // Deadline stays finite thanks to the clamp.
        assert!(model.deadline_for(&tsm).is_some());
    }

    #[test]
    fn lower_isolation_target_gives_earlier_deadline() {
        let mk = |p: f64| {
            let config = SsrConfig::builder().isolation_target(p).build().unwrap();
            DeadlineModel::new(&config)
        };
        let tsm = taskset_with(&[2.0], 0, 20);
        let strict = mk(0.95).deadline_for(&tsm).unwrap();
        let loose = mk(0.2).deadline_for(&tsm).unwrap();
        assert!(loose < strict);
    }
}
