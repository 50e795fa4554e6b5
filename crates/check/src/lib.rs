//! # ssr-check
//!
//! The verification cascade for the reservation protocol, in two layers:
//!
//! 1. **Runtime invariant checking** — [`InvariantChecker`] is an
//!    `ssr_trace::TraceSink` that replays the slot pool (`ssr_trace`'s
//!    `SlotReplay`) and per-job accounting from the decision-event stream and
//!    flags every transition the protocol forbids: double slot grants,
//!    reservations outliving their owner, broken pre-reservation fill order,
//!    negative running counts, and illegal slot state-machine moves (including
//!    the fault lifecycle: offline/online must alternate, nothing launches on
//!    an out-of-service slot). Attach it to any run, or feed it a parsed trace
//!    after the fact.
//!
//! 2. **Bounded-exhaustive exploration** — [`explore()`] drives the real
//!    `TaskScheduler` through every interleaving of offer, finish, crash
//!    and restore actions reachable on a small configuration (breadth
//!    first over canonical state fingerprints, depth bounded), with the
//!    invariant checker attached to every replay. A stateright-style
//!    model check against the production state machine, not a model of
//!    it.
//!
//! Both layers render byte-stable text and JSON reports, so CI can diff
//! two invocations and pin the explored state count.
//!
//! # Example
//!
//! ```
//! use ssr_check::InvariantChecker;
//! use ssr_trace::{TraceEvent, TraceEventKind, TraceSink};
//! use ssr_simcore::SimTime;
//! use ssr_dag::{JobId, Priority};
//!
//! let mut checker = InvariantChecker::new();
//! checker.record(&TraceEvent::new(
//!     SimTime::ZERO,
//!     TraceEventKind::JobSubmitted {
//!         job: JobId::new(0),
//!         name: "fg".into(),
//!         priority: Priority::new(10),
//!         stages: Vec::new(),
//!     },
//! ));
//! let report = checker.finish();
//! assert!(report.is_clean());
//! ```

#![warn(missing_docs)]

pub mod explore;
pub mod invariants;

pub use explore::{explore, Action, ExploreConfig, ExploreReport};
pub use invariants::{CheckReport, InvariantChecker, Violation};
