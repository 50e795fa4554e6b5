//! # ssr-sim
//!
//! The discrete-event cluster simulator that drives the `ssr-scheduler`
//! framework: it realises task durations (intrinsic sample × locality
//! slowdown), delivers task-finish / reservation-expiry / locality-unlock
//! events, cancels the finish events of killed straggler copies, and
//! collects the metrics the paper reports — job completion time,
//! *slowdown* (JCT normalised by the run-alone JCT, the paper's §VI
//! metric), slot utilization and reserved-idle time, and per-job running
//! task time series (Figs. 5 and 13).
//!
//! * [`Simulation`] — one end-to-end simulated run,
//! * [`SimReport`] / [`JobResult`] — the collected metrics,
//! * [`experiment`] — the contention harness: foreground vs background
//!   workloads, run-alone baselines and slowdown computation,
//! * [`par_map`] / [`worker_count`] — the order-preserving parallel map
//!   that fans independent trials out across workers with output
//!   identical at every worker count.
//!
//! # Example
//!
//! ```
//! use ssr_sim::{Simulation, SimConfig, PolicyConfig, OrderConfig};
//! use ssr_cluster::ClusterSpec;
//! use ssr_workload::synthetic::map_only;
//! use ssr_dag::Priority;
//! use ssr_simcore::dist::constant;
//!
//! let job = map_only("demo", 8, constant(2.0), Priority::default())?;
//! let config = SimConfig::new(ClusterSpec::new(2, 2)?).with_seed(7);
//! let report = Simulation::new(config, PolicyConfig::WorkConserving, OrderConfig::FifoPriority, vec![job])
//!     .run();
//! assert!(report.completed);
//! // 8 tasks of 2 s on 4 slots: two waves, JCT = 4 s.
//! assert_eq!(report.jobs[0].jct.as_secs_f64(), 4.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod report;
pub mod runner;
pub mod simulation;
pub mod walltime;

pub use experiment::{Experiment, ExperimentOutcome, OrderConfig, PolicyConfig, SlowdownRow};
pub use report::{JobResult, SimReport, TaskTraceRecord, TimeSample};
pub use runner::{par_map, worker_count};
pub use simulation::{SimConfig, Simulation};
pub use ssr_faults::{FaultEvent, FaultKind, FaultPlan};
