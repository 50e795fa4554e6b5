//! # ssr-analytics
//!
//! The paper's analytical model (§IV-B) and numerical studies (§IV-C):
//!
//! * [`tradeoff`] — the isolation/utilization trade-off: isolation
//!   probability (Eq. 2), the utilization lower bound (Eq. 3), the combined
//!   trade-off curve (Eq. 4) and the deadline that enforces a requested
//!   isolation level (the tunable knob),
//! * [`fit`] — the maximum-likelihood Pareto shape estimate the deadline
//!   policy fits over a running phase's observed durations,
//! * [`straggler`] — the §IV-C numerical model of phase completion time
//!   with and without reserved-slot straggler mitigation (Figs. 8 and 10).
//!
//! # Example
//!
//! ```
//! use ssr_analytics::tradeoff;
//!
//! // A phase of 20 tasks, Pareto(alpha = 1.6) durations with t_m = 2 s.
//! // What deadline guarantees an uninterrupted phase transition with
//! // probability 0.9?
//! let d = tradeoff::deadline_for_isolation(0.9, 2.0, 1.6, 20)?;
//! let p = tradeoff::isolation_probability(d, 2.0, 1.6, 20)?;
//! assert!((p - 0.9).abs() < 1e-9);
//! # Ok::<(), ssr_analytics::ModelError>(())
//! ```

#![deny(missing_docs)]

pub mod fit;
pub mod straggler;
pub mod tradeoff;

use std::fmt;

/// Error returned when model parameters are outside their domain.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelError {
    what: String,
}

impl ModelError {
    pub(crate) fn new(what: impl Into<String>) -> Self {
        ModelError { what: what.into() }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid model parameters: {}", self.what)
    }
}

impl std::error::Error for ModelError {}
