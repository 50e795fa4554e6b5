//! # ssr-cluster
//!
//! The cluster substrate for the speculative-slot-reservation (SSR)
//! reproduction: machines, racks and compute **slots**, the slot state
//! machine (free / running / reserved with priority and optional deadline),
//! and the data-locality model. Where each phase's outputs live is kept by
//! the phase's task set in `ssr-scheduler`.
//!
//! A *slot* is the unit the paper schedules — one Spark executor core. Slot
//! reservations carry the reserving job's [`Priority`](ssr_dag::Priority)
//! and an optional expiry deadline (§IV-B); the scheduler's ApprovalLogic
//! consults them before assigning tasks.
//!
//! # Example
//!
//! ```
//! use ssr_cluster::{ClusterSpec, SlotTable, Reservation};
//! use ssr_dag::{JobId, Priority, StageId, TaskId};
//!
//! let spec = ClusterSpec::new(2, 2)?; // 2 nodes x 2 slots
//! let mut slots = SlotTable::new(&spec);
//! assert_eq!(slots.len(), 4);
//!
//! let slot = slots.free_slots().next().expect("all free initially");
//! let task = TaskId::new(JobId::new(1), StageId::new(0), 0);
//! slots.assign(slot, task)?;
//! slots.finish(slot)?;
//! slots.reserve(slot, Reservation::new(JobId::new(1), Priority::new(5)))?;
//! assert!(slots.get(slot).is_reserved());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod locality;
pub mod pool;
pub mod slot;
pub mod topology;

pub use bits::SlotBits;
pub use locality::{LocalityLevel, LocalityModel};
pub use pool::SlotPool;
pub use slot::{ClusterError, Reservation, SlotState, SlotTable};
pub use topology::{ClusterSpec, NodeId, RackId, SlotId, TopologyError};
