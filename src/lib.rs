//! # ssr — Speculative Slot Reservation
//!
//! A from-scratch Rust reproduction of *"Speculative Slot Reservation:
//! Enforcing Service Isolation for Dependent Data-Parallel Computations"*
//! (ICDCS 2017): a Spark-architecture cluster scheduler with pluggable
//! reservation policies, a deterministic discrete-event cluster simulator,
//! the paper's analytical model, synthetic workload generators, and a
//! harness regenerating every figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`simcore`] | `ssr-simcore` | sim time, deterministic RNG, distributions, event queue, stats |
//! | [`dag`] | `ssr-dag` | workflow DAGs: jobs, phases, barriers |
//! | [`cluster`] | `ssr-cluster` | nodes/slots, reservations, locality |
//! | [`workload`] | `ssr-workload` | MLlib-like, TPC-DS-like and Google-trace-like generators |
//! | [`scheduler`] | `ssr-scheduler` | DAG scheduler, task sets, resource offers, baselines |
//! | [`core`] | `ssr-core` | **the paper's contribution**: Algorithm 1, deadlines, straggler mitigation |
//! | [`analytics`] | `ssr-analytics` | Eqs. 1–4, Pareto fitting, numerical studies |
//! | [`sim`] | `ssr-sim` | discrete-event simulator, metrics, experiment harness |
//! | [`faults`] | `ssr-faults` | deterministic fault plans: crashes, revocations, partitions |
//! | [`check`] | `ssr-check` | invariant checker + bounded-exhaustive scheduler exploration |
//!
//! # Quickstart
//!
//! ```
//! use ssr::prelude::*;
//!
//! // A high-priority 3-phase workflow job against a backlogged batch job.
//! let fg = ssr::workload::synthetic::pareto_pipeline(
//!     "fg", 3, 4, 1.0, 1.3, Priority::new(10))?;
//! let bg = ssr::workload::synthetic::map_only(
//!     "bg", 24, ssr::simcore::dist::constant(30.0), Priority::new(0))?;
//!
//! let config = SimConfig::new(ClusterSpec::new(1, 4)?).with_seed(1);
//! let outcome = Experiment::new(config, PolicyConfig::ssr_strict(), OrderConfig::FifoPriority)
//!     .foreground([fg])
//!     .background([bg])
//!     .run();
//! assert!(outcome.mean_slowdown() < 1.3); // near-perfect isolation
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use ssr_analytics as analytics;
pub use ssr_check as check;
pub use ssr_cluster as cluster;
pub use ssr_core as core;
pub use ssr_dag as dag;
pub use ssr_faults as faults;
pub use ssr_scheduler as scheduler;
pub use ssr_sim as sim;
pub use ssr_simcore as simcore;
pub use ssr_workload as workload;

/// The most common imports for building and running experiments.
pub mod prelude {
    pub use ssr_cluster::{ClusterSpec, LocalityLevel, LocalityModel, SlotId};
    pub use ssr_check::InvariantChecker;
    pub use ssr_core::{SpeculativeReservation, SsrConfig};
    pub use ssr_dag::{JobId, JobSpec, JobSpecBuilder, Priority, StageId};
    pub use ssr_faults::{FaultKind, FaultPlan};
    pub use ssr_scheduler::{Fair, FifoPriority, TaskScheduler, WorkConserving};
    pub use ssr_sim::{
        Experiment, ExperimentOutcome, OrderConfig, PolicyConfig, SimConfig, SimReport, Simulation,
    };
    pub use ssr_simcore::{SimDuration, SimTime};
}
