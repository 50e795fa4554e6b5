//! # ssr-dag
//!
//! The workflow model for the speculative-slot-reservation (SSR)
//! reproduction: jobs as DAGs of *phases* (Spark calls them stages), each
//! phase a set of parallel tasks, with a **barrier** between dependent
//! phases — a downstream phase cannot start until *all* tasks of every
//! upstream phase have completed (paper §II-A).
//!
//! The crate has two layers:
//!
//! * [`ids`] — typed identifiers ([`JobId`], [`StageId`], [`TaskId`]) and the
//!   scheduling [`Priority`],
//! * [`spec`] — immutable job descriptions ([`JobSpec`], [`StageSpec`]) with
//!   a validated-DAG builder ([`JobSpecBuilder`]).
//!
//! A running job's barrier state is not kept here: the scheduler derives
//! it from each phase's task set (`ssr_scheduler::JobState`).
//!
//! # Example
//!
//! ```
//! use ssr_dag::{JobSpecBuilder, Priority};
//! use ssr_simcore::dist::constant;
//!
//! // A three-phase pipeline: map -> shuffle -> reduce.
//! let spec = JobSpecBuilder::new("etl")
//!     .priority(Priority::new(10))
//!     .stage("map", 8, constant(2.0))
//!     .stage("shuffle", 8, constant(1.0))
//!     .stage("reduce", 4, constant(3.0))
//!     .chain()
//!     .build()?;
//! assert_eq!(spec.stages().len(), 3);
//! assert_eq!(spec.total_tasks(), 20);
//! # Ok::<(), ssr_dag::DagError>(())
//! ```

#![warn(missing_docs)]

pub mod ids;
pub mod spec;

pub use ids::{JobId, Priority, StageId, TaskId};
pub use spec::{DagError, JobSpec, JobSpecBuilder, StageSpec};
