//! # ssr-workload
//!
//! Synthetic workload generators standing in for the paper's traces and
//! benchmarks (see DESIGN.md for the substitution rationale):
//!
//! * [`mllib`] — SparkBench-like iterative applications (KMeans, SVM,
//!   PageRank): multi-phase pipelines with a *stable* degree of
//!   parallelism, the foreground jobs of the cluster experiments,
//! * [`sql`] — TPC-DS-like SQL queries: multi-stage DAGs whose degree of
//!   parallelism *changes across phases* (scan → join → aggregate), the
//!   property that stresses pre-reservation (Fig. 16),
//! * [`google`] — Google-trace-like background jobs: Poisson arrivals,
//!   heavy-tailed task counts and Pareto task durations, matching the
//!   published statistics of the trace the paper samples,
//! * [`synthetic`] — small parametric shapes (Pareto pipelines, map-only
//!   jobs) used by the figure harnesses and tests.
//!
//! All generators are deterministic functions of a [`SimRng`] seed.
//!
//! [`SimRng`]: ssr_simcore::rng::SimRng
//!
//! # Example
//!
//! ```
//! use ssr_workload::{mllib, MllibParams};
//! use ssr_dag::Priority;
//!
//! let params = MllibParams::small().with_priority(Priority::new(10));
//! let kmeans = mllib::kmeans(&params)?;
//! assert!(kmeans.stages().len() > 2); // init + iterations
//! # Ok::<(), ssr_dag::DagError>(())
//! ```

#![warn(missing_docs)]

pub mod google;
pub mod mllib;
pub mod sql;
pub mod synthetic;

pub use google::{GoogleTraceConfig, GoogleTraceGenerator};
pub use mllib::MllibParams;
pub use sql::SqlParams;
