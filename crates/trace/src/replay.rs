//! The slot replay: who held which slot when, read off the event stream.
//!
//! [`SlotReplay`] is the one per-slot state machine over a decision trace.
//! The invariant checker, the explain timeline and [`MetricsSink`] all
//! fold the stream through it rather than keeping copies of their own, so
//! they agree on every slot's lifecycle by construction.
//!
//! Occupancy moves Free → Reserved → Running → Free as the events say;
//! the out-of-service bit is orthogonal to it. A partition survivor is
//! *running and offline* until its `task-finished`, after which the slot is
//! free but offline until `slot-online`.
//!
//! [`MetricsSink`]: crate::MetricsSink

use ssr_dag::JobId;
use ssr_simcore::SimTime;

use crate::event::{TraceEvent, TraceEventKind};

/// What one slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Unowned and idle.
    Free,
    /// Held idle under a reservation.
    Reserved {
        /// The job the slot is held for.
        job: JobId,
        /// When the reservation was granted or filled.
        since: SimTime,
    },
    /// Occupied by a task instance.
    Running {
        /// The owning job.
        job: JobId,
        /// When the instance launched.
        since: SimTime,
        /// Whether the instance is a speculative copy.
        speculative: bool,
    },
}

/// One slot: its occupancy plus whether it is out of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// What the slot holds.
    pub state: SlotState,
    /// Between `slot-offline` and `slot-online`.
    pub offline: bool,
}

impl Slot {
    /// Free and in service: every slot before the trace first touches it.
    pub const FREE: Slot = Slot { state: SlotState::Free, offline: false };
}

/// Replays the slot-touching events of a trace.
///
/// Transitions are unconditional: the replay records what the trace says,
/// legal or not. Judging legality is the caller's business, which is why
/// [`apply`](SlotReplay::apply) hands back the state the event found.
#[derive(Debug, Clone, Default)]
pub struct SlotReplay {
    slots: Vec<Slot>,
}

impl SlotReplay {
    /// An empty replay; slots are discovered from the stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one event. Returns the slot it touched and that slot's
    /// state before the event, or `None` for events that touch no slot.
    pub fn apply(&mut self, event: &TraceEvent) -> Option<(u32, Slot)> {
        use TraceEventKind as K;
        let since = event.time;
        let (slot, next) = match &event.kind {
            K::TaskLaunched { slot, job, speculative, .. } => {
                (*slot, Some(SlotState::Running { job: *job, since, speculative: *speculative }))
            }
            K::ReservationGranted { slot, job, .. } | K::PrereserveFilled { slot, job, .. } => {
                (*slot, Some(SlotState::Reserved { job: *job, since }))
            }
            K::TaskFinished { slot, .. }
            | K::CopyKilled { slot, .. }
            | K::TaskCrashed { slot, .. }
            | K::ReservationExpired { slot, .. }
            | K::ReservationReleased { slot, .. }
            | K::StaleReservationReleased { slot, .. }
            | K::ReservationRevoked { slot, .. } => (*slot, Some(SlotState::Free)),
            K::SlotOffline { slot, .. } | K::SlotOnline { slot } => (*slot, None),
            K::JobSubmitted { .. }
            | K::OfferRoundStarted { .. }
            | K::OfferRoundEnded { .. }
            | K::OfferDeclined { .. }
            | K::BarrierCleared { .. }
            | K::StageCompleted { .. }
            | K::JobCompleted { .. }
            | K::LocalityUnlocked => return None,
        };
        let idx = slot as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, Slot::FREE);
        }
        let entry = &mut self.slots[idx];
        let before = *entry;
        match next {
            Some(state) => entry.state = state,
            None => entry.offline = matches!(event.kind, K::SlotOffline { .. }),
        }
        Some((slot, before))
    }

    /// Slot `slot`'s current state (free and in service if the trace has
    /// not touched it).
    pub fn slot(&self, slot: u32) -> Slot {
        self.slots.get(slot as usize).copied().unwrap_or(Slot::FREE)
    }

    /// Every slot up to the highest index touched, indexed by slot.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }
}
