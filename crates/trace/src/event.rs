//! Typed scheduler decision-trace events.
//!
//! Every scheduling decision the engine makes — offer rounds, per-candidate
//! denials, reservation lifecycle transitions, speculation, barrier clears —
//! maps onto exactly one [`TraceEventKind`] variant. Events are timestamped
//! with simulated time only; the emit path never consults the wall clock, so
//! a trace is a pure function of (workload, seed, policy).

use ssr_dag::{JobId, Priority, StageId};
use ssr_simcore::SimTime;

/// Why an offer round declined to place a task for a candidate job.
///
/// The reason is computed by the engine only when tracing is enabled, by
/// re-examining the slot pool from the declined job's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyReason {
    /// The job has no task set with pending (unlaunched) tasks.
    NoPendingTasks,
    /// A fitting slot exists, but delay scheduling has not yet unlocked the
    /// locality level that would allow the job to take it.
    LocalityWait,
    /// The only fitting slots are reserved for other jobs and the active
    /// policy's `ApprovalLogic` denied the hand-over.
    ReservationDenied,
    /// No free or reserved slot in the cluster fits the job's minimum share.
    NoFittingSlot,
}

impl DenyReason {
    /// Stable kebab-case identifier used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            DenyReason::NoPendingTasks => "no-pending-tasks",
            DenyReason::LocalityWait => "locality-wait",
            DenyReason::ReservationDenied => "reservation-denied",
            DenyReason::NoFittingSlot => "no-fitting-slot",
        }
    }
}

impl std::fmt::Display for DenyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialOrd for DenyReason {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DenyReason {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

/// Static description of one stage of a submitted job, carried on
/// [`TraceEventKind::JobSubmitted`] (schema v2).
///
/// Together the per-stage entries reproduce the job's DAG shape, which is
/// what lets `ssr-explain` reconstruct pending-task counts and the stage
/// critical path from the trace alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageMeta {
    /// Partition (task) count of the stage.
    pub tasks: u32,
    /// Upstream stages that must complete before this stage can start.
    /// Empty for root stages.
    pub parents: Vec<StageId>,
}

/// One scheduler decision, without its timestamp.
///
/// Field names mirror the JSONL schema (see [`crate::JsonlSink`]); identifiers
/// are carried as raw ids (`JobId`, `StageId`, slot index) so sinks can decide
/// how to render them.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A job entered the scheduler (`TaskScheduler::submit*`).
    JobSubmitted {
        /// Scheduler-assigned job id.
        job: JobId,
        /// Human-readable job name from the DAG.
        name: String,
        /// Submission priority.
        priority: Priority,
        /// Per-stage task counts and DAG edges, indexed by stage id
        /// (schema v2; empty when read from a v1 trace).
        stages: Vec<StageMeta>,
    },
    /// `resource_offers` began; counts are the pool state entering the round
    /// (after pre-reservation fill).
    OfferRoundStarted {
        /// Free slots at round start.
        free: usize,
        /// Running (occupied) slots at round start.
        running: usize,
        /// Reserved-idle slots at round start.
        reserved: usize,
    },
    /// `resource_offers` finished, having produced this many assignments.
    OfferRoundEnded {
        /// Number of task launches (incl. speculative) this round.
        assignments: usize,
    },
    /// A candidate job was dropped from the current offer round.
    OfferDeclined {
        /// The declined job.
        job: JobId,
        /// The policy/engine reason for the denial.
        reason: DenyReason,
        /// The lowest-id stage with pending tasks that failed to place
        /// (schema v2; `None` when the job had no pending stage or when
        /// read from a v1 trace).
        stage: Option<StageId>,
    },
    /// A task instance started running on a slot.
    TaskLaunched {
        /// Slot index the instance occupies.
        slot: u32,
        /// Owning job.
        job: JobId,
        /// Stage within the job.
        stage: StageId,
        /// Partition (task index) within the stage.
        partition: u32,
        /// Attempt number (0 = original, >0 = speculative copy).
        attempt: u32,
        /// Delay-scheduling locality level the placement satisfied.
        level: &'static str,
        /// Whether this launch is a speculative copy.
        speculative: bool,
        /// Whether the copy was seeded with the original's progress (warm).
        warm: bool,
    },
    /// A task instance finished and freed its slot.
    TaskFinished {
        /// Slot index the instance occupied.
        slot: u32,
        /// Owning job.
        job: JobId,
        /// Stage within the job.
        stage: StageId,
        /// Partition (task index) within the stage.
        partition: u32,
        /// Attempt number of the *winning* instance.
        attempt: u32,
        /// Simulated runtime of the instance, in seconds.
        duration_secs: f64,
    },
    /// A losing duplicate of a completed task was killed.
    CopyKilled {
        /// Slot index the loser occupied (now free).
        slot: u32,
        /// Owning job.
        job: JobId,
        /// Stage within the job.
        stage: StageId,
        /// Partition whose race resolved.
        partition: u32,
    },
    /// The policy reserved a slot on task completion (`SlotDisposition::Reserve`).
    ReservationGranted {
        /// Reserved slot.
        slot: u32,
        /// Job the slot is held for.
        job: JobId,
        /// Reservation priority.
        priority: Priority,
        /// Downstream stage the reservation is earmarked for, if any.
        stage: Option<StageId>,
        /// Expiry deadline in seconds, if the reservation is leased.
        deadline_secs: Option<f64>,
    },
    /// A pending pre-reservation claimed a free slot
    /// (`TaskScheduler::fill_prereservations`).
    PrereserveFilled {
        /// Newly reserved slot.
        slot: u32,
        /// Job the slot is held for.
        job: JobId,
        /// Downstream stage the reservation is earmarked for.
        stage: StageId,
        /// Reservation priority.
        priority: Priority,
        /// Expiry deadline in seconds, if the request carried one.
        deadline_secs: Option<f64>,
    },
    /// A leased reservation hit its deadline and was returned to the free pool.
    ReservationExpired {
        /// Freed slot.
        slot: u32,
        /// Job that held the reservation.
        job: JobId,
    },
    /// A reservation was released because its owning job completed.
    ReservationReleased {
        /// Freed slot.
        slot: u32,
        /// Job that held the reservation.
        job: JobId,
    },
    /// A reservation earmarked for a stage was released because that stage
    /// completed without consuming it.
    StaleReservationReleased {
        /// Freed slot.
        slot: u32,
        /// Job that held the reservation.
        job: JobId,
        /// The completed stage the reservation was earmarked for.
        stage: StageId,
    },
    /// All parents of a stage finished; the stage became schedulable.
    BarrierCleared {
        /// Owning job.
        job: JobId,
        /// The newly runnable stage.
        stage: StageId,
    },
    /// Every partition of a stage finished.
    StageCompleted {
        /// Owning job.
        job: JobId,
        /// The completed stage.
        stage: StageId,
    },
    /// Every stage of a job finished.
    JobCompleted {
        /// The completed job.
        job: JobId,
    },
    /// The delay-scheduling wait elapsed and the simulation woke the
    /// scheduler to retry placement at a relaxed locality level.
    LocalityUnlocked,
    /// A running task instance was lost to a fault (node crash, slot
    /// revocation, executor restart) before it could finish (schema v3).
    TaskCrashed {
        /// Slot index the instance occupied.
        slot: u32,
        /// Owning job.
        job: JobId,
        /// Stage within the job.
        stage: StageId,
        /// Partition (task index) within the stage.
        partition: u32,
        /// Attempt number of the lost instance.
        attempt: u32,
        /// Whether the partition went back onto the pending queue (false
        /// when a surviving duplicate is still running it, or the partition
        /// had already finished).
        requeued: bool,
    },
    /// A reservation was forcibly released because its slot was lost to a
    /// fault; distinct from expiry (deadline) and release (job completion)
    /// (schema v3).
    ReservationRevoked {
        /// The lost slot.
        slot: u32,
        /// Job that held the reservation.
        job: JobId,
    },
    /// A slot left service: it stops appearing in offers, pre-reservation
    /// fills, and pool counts until brought back online (schema v3).
    SlotOffline {
        /// The slot leaving service.
        slot: u32,
        /// Fault that took it down: `"crash"`, `"revocation"`,
        /// `"partition"`, or `"restart"`.
        cause: &'static str,
    },
    /// A slot returned to service after a fault healed (schema v3).
    SlotOnline {
        /// The slot rejoining the pool.
        slot: u32,
    },
}

/// A timestamped scheduler decision.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time at which the decision was made.
    pub time: SimTime,
    /// The decision itself.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Convenience constructor.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn new(time: SimTime, kind: TraceEventKind) -> Self {
        TraceEvent { time, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_reasons_order_in_declaration_order() {
        let reasons = [
            DenyReason::NoPendingTasks,
            DenyReason::LocalityWait,
            DenyReason::ReservationDenied,
            DenyReason::NoFittingSlot,
        ];
        assert!(reasons.windows(2).all(|w| w[0] < w[1]), "{reasons:?}");
    }
}
