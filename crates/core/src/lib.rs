//! # ssr-core
//!
//! **Speculative slot reservation** — the contribution of *"Speculative
//! Slot Reservation: Enforcing Service Isolation for Dependent
//! Data-Parallel Computations"* (ICDCS 2017), implemented as a
//! [`ReservationPolicy`](ssr_scheduler::ReservationPolicy) that plugs into
//! the `ssr-scheduler` framework exactly where the paper patched Spark's
//! `TaskSetManager` / `TaskSchedulerImpl` (§V).
//!
//! The policy implements:
//!
//! * **Algorithm 1** — when a task of a high-priority workflow job
//!   completes, the freed slot is *reserved* for the job's downstream
//!   phase instead of being handed to a lower-priority competitor:
//!   unconditionally for final-unknown/equal parallelism (Case 1 / 2.1),
//!   releasing the first `m - n` finishers when parallelism shrinks
//!   (Case 2.2), and *pre-reserving* `n - m` extra slots once the phase is
//!   `R`-fraction complete when parallelism grows (Case 2.3),
//! * **deadline-based reservation** (§IV-B) — the reservation expires at
//!   the deadline `D = t_m (1 - P^{1/N})^{-1/alpha}` derived from the
//!   operator's isolation target `P`, with `t_m` estimated online from the
//!   phase's first finisher and `alpha` fit by maximum likelihood,
//! * **straggler mitigation** (§IV-C) — reserved-yet-idle slots run extra
//!   copies of the phase's ongoing tasks; first finish wins.
//!
//! # Example
//!
//! ```
//! use ssr_core::{SpeculativeReservation, SsrConfig};
//! use ssr_scheduler::{TaskScheduler, FifoPriority};
//! use ssr_cluster::{ClusterSpec, LocalityModel};
//! use ssr_dag::{JobSpecBuilder, Priority};
//! use ssr_simcore::{SimTime, dist::constant};
//!
//! let policy = SpeculativeReservation::with_config(
//!     SsrConfig::builder()
//!         .isolation_target(0.9)     // the tunable knob P
//!         .prereserve_threshold(0.5) // R
//!         .mitigate_stragglers(true)
//!         .build()?,
//! );
//!
//! let mut sched = TaskScheduler::new(
//!     ClusterSpec::new(4, 2)?,
//!     LocalityModel::paper_simulation(),
//!     Box::new(policy),
//!     Box::new(FifoPriority),
//! );
//! let job = JobSpecBuilder::new("fg")
//!     .priority(Priority::new(10))
//!     .stage("map", 4, constant(1.0))
//!     .stage("reduce", 4, constant(2.0))
//!     .chain()
//!     .build()?;
//! sched.submit(job, SimTime::ZERO);
//! assert_eq!(sched.resource_offers(SimTime::ZERO).len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod deadline;
pub mod policy;

pub use config::{ConfigError, SsrBuilder, SsrConfig};
pub use deadline::DeadlineModel;
pub use policy::SpeculativeReservation;
