//! # ssr-simcore
//!
//! Deterministic discrete-event simulation primitives underlying the
//! speculative-slot-reservation (SSR) reproduction.
//!
//! This crate is dependency-free and fully deterministic: given the same seed
//! and the same sequence of calls, every simulation built on top of it replays
//! bit-for-bit on any platform. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated clock
//!   types with saturating arithmetic,
//! * [`rng::SimRng`] — an owned xoshiro256\*\* generator (we do not use
//!   platform entropy or `rand`'s `StdRng`, whose stream may change between
//!   releases),
//! * [`dist`] — the task-duration distributions used by the paper's workload
//!   models, most importantly the Pareto distribution of Eq. (1),
//! * [`events::EventQueue`] — a stable priority queue of timestamped events,
//! * [`stats`] — summary statistics and order-statistics helpers used by the
//!   metrics pipeline and the numerical studies.
//!
//! # Example
//!
//! ```
//! use ssr_simcore::{SimTime, SimDuration, rng::SimRng, dist::{Pareto, Distribution}};
//!
//! let mut rng = SimRng::seed_from_u64(7);
//! let pareto = Pareto::new(2.0, 1.6).expect("valid parameters");
//! let sample = pareto.sample(&mut rng);
//! assert!(sample >= 2.0);
//!
//! let t = SimTime::ZERO + SimDuration::from_secs_f64(sample);
//! assert!(t > SimTime::ZERO);
//! ```

#![warn(missing_docs)]

pub mod dist;
pub mod events;
pub mod rng;
pub mod stats;
mod time;

pub use time::{SimDuration, SimTime};
