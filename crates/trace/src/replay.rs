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

use std::collections::BTreeMap;

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

impl Default for Slot {
    fn default() -> Self {
        Slot::FREE
    }
}

/// Traces of up to this many slots are served from the dense table alone.
const DENSE_SLACK: usize = 64;

/// A table indexed by slot that grows with the slots a trace touches, not
/// with the highest index it names.
///
/// Indices below about twice the number of entries created live in a
/// dense vector, the rest in a sparse map, so the table holds O(entries)
/// values. An ordinary trace, whose slots are `0..n`, is served from the
/// vector; a trace naming slot `u32::MAX` costs one map entry.
#[derive(Debug, Clone, Default)]
pub struct SlotTable<T> {
    /// Slots `0..dense.len()`.
    dense: Vec<T>,
    /// Slots at or past `dense.len()`.
    sparse: BTreeMap<u32, T>,
    /// Entries created by [`entry`](Self::entry) so far.
    created: usize,
}

impl<T: Default> SlotTable<T> {
    /// The value at `slot`, if the table holds one.
    pub fn get(&self, slot: u32) -> Option<&T> {
        match self.dense.get(slot as usize) {
            Some(value) => Some(value),
            None => self.sparse.get(&slot),
        }
    }

    /// The value at `slot`, created as `T::default()` if absent.
    pub fn entry(&mut self, slot: u32) -> &mut T {
        let idx = slot as usize;
        if idx >= self.dense.len() && !self.sparse.contains_key(&slot) {
            self.created += 1;
            if idx < 2 * self.created + DENSE_SLACK {
                self.dense.resize_with(idx + 1, T::default);
                // Map entries below `slot` are now covered by the vector.
                let beyond = self.sparse.split_off(&slot);
                for (covered, value) in std::mem::replace(&mut self.sparse, beyond) {
                    self.dense[covered as usize] = value;
                }
            }
        }
        match self.dense.get_mut(idx) {
            Some(value) => value,
            None => self.sparse.entry(slot).or_default(),
        }
    }

    /// Every value held, with its slot, in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> + '_ {
        let dense = self.dense.iter().enumerate().map(|(idx, value)| (idx as u32, value));
        dense.chain(self.sparse.iter().map(|(&slot, value)| (slot, value)))
    }
}

/// Replays the slot-touching events of a trace.
///
/// Transitions are unconditional: the replay records what the trace says,
/// legal or not. Judging legality is the caller's business, which is why
/// [`apply`](SlotReplay::apply) hands back the state the event found.
#[derive(Debug, Clone, Default)]
pub struct SlotReplay {
    slots: SlotTable<Slot>,
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
        let entry = self.slots.entry(slot);
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
        self.slots.get(slot).copied().unwrap_or(Slot::FREE)
    }

    /// Every slot that is not free and in service, with its index, in
    /// ascending index order.
    pub fn slots(&self) -> impl Iterator<Item = (u32, Slot)> + '_ {
        self.slots.iter().map(|(idx, &slot)| (idx, slot)).filter(|&(_, slot)| slot != Slot::FREE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_dag::{Priority, StageId};

    proptest::proptest! {
        /// The table agrees with an ordered map under random writes, near
        /// and far, and holds at most three values per entry plus the
        /// slack: a dense table up to twice the entries, and the map.
        #[test]
        fn slot_table_agrees_with_an_ordered_map(
            writes in proptest::collection::vec((0u32..300, 0u32..4, 0u64..1_000), 1..200),
        ) {
            let mut table: SlotTable<u64> = SlotTable::default();
            let mut reference: BTreeMap<u32, u64> = BTreeMap::new();
            for &(slot, far, value) in &writes {
                let slot = if far == 0 { u32::MAX - slot } else { slot };
                *table.entry(slot) += value;
                *reference.entry(slot).or_default() += value;
                assert_eq!(table.get(slot), reference.get(&slot));
            }
            let held: Vec<(u32, u64)> =
                table.iter().map(|(slot, &v)| (slot, v)).filter(|&(_, v)| v != 0).collect();
            let expected: Vec<(u32, u64)> =
                reference.iter().map(|(&slot, &v)| (slot, v)).filter(|&(_, v)| v != 0).collect();
            assert_eq!(held, expected);
            assert!(table.iter().count() <= 3 * reference.len() + DENSE_SLACK);
        }
    }

    #[test]
    fn table_holds_only_the_slots_touched() {
        let job = JobId::new(1);
        let at = |kind| TraceEvent::new(SimTime::from_secs(1), kind);
        let mut replay = SlotReplay::new();
        replay.apply(&at(TraceEventKind::ReservationGranted {
            slot: u32::MAX,
            job,
            priority: Priority::new(3),
            stage: Some(StageId::new(1)),
            deadline_secs: None,
        }));
        replay.apply(&at(TraceEventKind::SlotOffline { slot: 7, cause: "crash" }));
        let touched: Vec<(u32, Slot)> = replay.slots().collect();
        let held = SlotState::Reserved { job, since: SimTime::from_secs(1) };
        assert_eq!(
            touched,
            [(7, Slot { state: SlotState::Free, offline: true }), (u32::MAX, Slot { state: held, offline: false }),]
        );
        assert_eq!(replay.slot(8), Slot::FREE, "untouched slots read as free");
    }
}
