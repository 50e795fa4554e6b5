//! The compute-slot state machine and reservation bookkeeping.
//!
//! Every slot is always in exactly one of three states — free, running a
//! task, or reserved for a job. Reservations carry the reserving job's
//! priority (inherited by the slot, §III-B) and an optional expiry deadline
//! (§IV-B). State transitions are checked: the table returns an error on
//! any double-booking, which the property tests in higher layers rely on.

use std::fmt;

use ssr_dag::{JobId, Priority, StageId, TaskId};
use ssr_simcore::SimTime;

use crate::topology::{ClusterSpec, SlotId};

/// A slot reservation: the slot is held for `job` at `priority` until an
/// optional `deadline`, for an optional specific downstream `stage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    job: JobId,
    priority: Priority,
    deadline: Option<SimTime>,
    stage: Option<StageId>,
}

impl Reservation {
    /// Creates an open-ended reservation for `job` at `priority`.
    pub fn new(job: JobId, priority: Priority) -> Self {
        Reservation { job, priority, deadline: None, stage: None }
    }

    /// Sets an expiry deadline (§IV-B): past this instant the reservation
    /// lapses and the slot becomes free for any job.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Tags the downstream phase the slot is being held for.
    pub fn with_stage(mut self, stage: StageId) -> Self {
        self.stage = Some(stage);
        self
    }

    /// The reserving job.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The priority the slot inherits while reserved.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The expiry deadline, if bounded.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// The downstream phase the reservation targets, if tagged.
    pub fn stage(&self) -> Option<StageId> {
        self.stage
    }

    /// `true` if the reservation has lapsed at `now`.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn expired_at(&self, now: SimTime) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// The state of one compute slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotState {
    /// Available to any job.
    #[default]
    Free,
    /// Executing `task`.
    Running(TaskId),
    /// Held for a job; only that job (or a strictly higher priority, via
    /// the ApprovalLogic) may use it.
    Reserved(Reservation),
}

impl SlotState {
    /// `true` if the slot is free.
    pub fn is_free(&self) -> bool {
        matches!(self, SlotState::Free)
    }

    /// `true` if the slot is executing a task.
    pub fn is_running(&self) -> bool {
        matches!(self, SlotState::Running(_))
    }

    /// `true` if the slot is reserved.
    pub fn is_reserved(&self) -> bool {
        matches!(self, SlotState::Reserved(_))
    }

    /// The reservation, if any.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn reservation(&self) -> Option<&Reservation> {
        match self {
            SlotState::Reserved(r) => Some(r),
            _ => None,
        }
    }

    /// The running task, if any.
    pub fn task(&self) -> Option<TaskId> {
        match self {
            SlotState::Running(t) => Some(*t),
            _ => None,
        }
    }
}

impl fmt::Display for SlotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotState::Free => write!(f, "free"),
            SlotState::Running(t) => write!(f, "running {t}"),
            SlotState::Reserved(r) => write!(f, "reserved for {}", r.job()),
        }
    }
}

/// Error produced by an invalid slot-state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// A task was assigned to a slot already running another task.
    SlotBusy {
        /// The target slot.
        slot: SlotId,
        /// The task occupying it.
        occupant: TaskId,
    },
    /// `finish` was called on a slot that is not running.
    NotRunning {
        /// The target slot.
        slot: SlotId,
    },
    /// `reserve` was called on a slot that is running a task.
    CannotReserveBusy {
        /// The target slot.
        slot: SlotId,
    },
    /// The slot id is outside the cluster.
    UnknownSlot {
        /// The target slot.
        slot: SlotId,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::SlotBusy { slot, occupant } => {
                write!(f, "{slot} is busy running {occupant}")
            }
            ClusterError::NotRunning { slot } => write!(f, "{slot} is not running a task"),
            ClusterError::CannotReserveBusy { slot } => {
                write!(f, "{slot} is running a task and cannot be reserved")
            }
            ClusterError::UnknownSlot { slot } => write!(f, "{slot} is not in the cluster"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The state of every slot in the cluster, with checked transitions.
///
/// The table is purely mechanical: it enforces *physical* invariants (no
/// double-booking). *Policy* — whether a job may take a reserved slot — is
/// the ApprovalLogic's job in the scheduler layer.
#[derive(Debug, Clone)]
pub struct SlotTable {
    states: Vec<SlotState>,
    sizes: Vec<u32>,
}

impl SlotTable {
    /// Creates a table with every slot free, recording each slot's
    /// resource size from the cluster spec.
    pub fn new(spec: &ClusterSpec) -> Self {
        SlotTable {
            states: vec![SlotState::Free; spec.total_slots() as usize],
            sizes: spec.iter_slots().map(|s| spec.slot_size(s)).collect(),
        }
    }

    /// The resource size of `slot` (§III-C heterogeneous clusters; 1 in a
    /// homogeneous one).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn size(&self, slot: SlotId) -> u32 {
        self.sizes[slot.index()]
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if the cluster has no slots (never true for a validated
    /// [`ClusterSpec`]).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn get(&self, slot: SlotId) -> &SlotState {
        &self.states[slot.index()]
    }

    /// Assigns `task` to `slot`. The slot may be free or reserved (the
    /// caller is responsible for having applied the ApprovalLogic);
    /// a reservation is consumed by the assignment.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::SlotBusy`] if the slot is running a task.
    pub fn assign(&mut self, slot: SlotId, task: TaskId) -> Result<(), ClusterError> {
        match self.states[slot.index()] {
            SlotState::Running(occupant) => Err(ClusterError::SlotBusy { slot, occupant }),
            _ => {
                self.states[slot.index()] = SlotState::Running(task);
                Ok(())
            }
        }
    }

    /// Completes the task on `slot`, freeing it, and returns the task.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NotRunning`] if the slot holds no task.
    pub fn finish(&mut self, slot: SlotId) -> Result<TaskId, ClusterError> {
        match self.states[slot.index()] {
            SlotState::Running(task) => {
                self.states[slot.index()] = SlotState::Free;
                Ok(task)
            }
            _ => Err(ClusterError::NotRunning { slot }),
        }
    }

    /// Reserves `slot`. Overwrites an existing reservation (e.g. a
    /// higher-priority job re-reserving, or a deadline refresh).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::CannotReserveBusy`] if the slot is running.
    pub fn reserve(&mut self, slot: SlotId, reservation: Reservation) -> Result<(), ClusterError> {
        match self.states[slot.index()] {
            SlotState::Running(_) => Err(ClusterError::CannotReserveBusy { slot }),
            _ => {
                self.states[slot.index()] = SlotState::Reserved(reservation);
                Ok(())
            }
        }
    }

    /// Releases `slot` unconditionally (reservation cancelled or task
    /// cleanup); running slots are left untouched and reported as an error.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::CannotReserveBusy`] if the slot is running.
    pub fn release(&mut self, slot: SlotId) -> Result<(), ClusterError> {
        match self.states[slot.index()] {
            SlotState::Running(_) => Err(ClusterError::CannotReserveBusy { slot }),
            _ => {
                self.states[slot.index()] = SlotState::Free;
                Ok(())
            }
        }
    }

    /// Frees every reservation whose deadline has passed at `now` and
    /// returns the freed slots (§IV-B: "beyond the deadline the reservation
    /// is expired, and the slot becomes free to use by other jobs").
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn expire_reservations(&mut self, now: SimTime) -> Vec<SlotId> {
        let mut expired = Vec::new();
        for (i, state) in self.states.iter_mut().enumerate() {
            if let SlotState::Reserved(r) = state {
                if r.expired_at(now) {
                    *state = SlotState::Free;
                    expired.push(SlotId::new(i as u32));
                }
            }
        }
        expired
    }

    /// Releases every reservation held by `job` (e.g. on job completion)
    /// and returns the freed slots.
    pub fn release_job_reservations(&mut self, job: JobId) -> Vec<SlotId> {
        let mut freed = Vec::new();
        for (i, state) in self.states.iter_mut().enumerate() {
            if let SlotState::Reserved(r) = state {
                if r.job() == job {
                    *state = SlotState::Free;
                    freed.push(SlotId::new(i as u32));
                }
            }
        }
        freed
    }

    /// Iterator over free slots.
    pub fn free_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_free())
            .map(|(i, _)| SlotId::new(i as u32))
    }

    /// Iterator over slots reserved for `job`.
    pub fn reserved_for(&self, job: JobId) -> impl Iterator<Item = SlotId> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.reservation().is_some_and(|r| r.job() == job))
            .map(|(i, _)| SlotId::new(i as u32))
    }

    /// Iterator over `(slot, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &SlotState)> + '_ {
        self.states.iter().enumerate().map(|(i, s)| (SlotId::new(i as u32), s))
    }

    /// Counts of (free, running, reserved) slots.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut free = 0;
        let mut running = 0;
        let mut reserved = 0;
        for s in &self.states {
            match s {
                SlotState::Free => free += 1,
                SlotState::Running(_) => running += 1,
                SlotState::Reserved(_) => reserved += 1,
            }
        }
        (free, running, reserved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(slots: u32) -> SlotTable {
        SlotTable::new(&ClusterSpec::new(1, slots).unwrap())
    }

    fn task(job: u64, part: u32) -> TaskId {
        TaskId::new(JobId::new(job), StageId::new(0), part)
    }

    #[test]
    fn fresh_table_is_all_free() {
        let t = table(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.counts(), (4, 0, 0));
        assert_eq!(t.free_slots().count(), 4);
    }

    #[test]
    fn assign_finish_cycle() {
        let mut t = table(2);
        let s = SlotId::new(0);
        t.assign(s, task(1, 0)).unwrap();
        assert!(t.get(s).is_running());
        assert_eq!(t.counts(), (1, 1, 0));
        assert_eq!(t.finish(s).unwrap(), task(1, 0));
        assert!(t.get(s).is_free());
    }

    #[test]
    fn double_assign_rejected() {
        let mut t = table(1);
        let s = SlotId::new(0);
        t.assign(s, task(1, 0)).unwrap();
        assert_eq!(
            t.assign(s, task(2, 0)),
            Err(ClusterError::SlotBusy { slot: s, occupant: task(1, 0) })
        );
    }

    #[test]
    fn finish_on_idle_rejected() {
        let mut t = table(1);
        assert_eq!(t.finish(SlotId::new(0)), Err(ClusterError::NotRunning { slot: SlotId::new(0) }));
    }

    #[test]
    fn reserve_and_consume() {
        let mut t = table(2);
        let s = SlotId::new(1);
        let r = Reservation::new(JobId::new(3), Priority::new(9)).with_stage(StageId::new(2));
        t.reserve(s, r).unwrap();
        assert_eq!(t.get(s).reservation().unwrap().priority(), Priority::new(9));
        assert_eq!(t.get(s).reservation().unwrap().stage(), Some(StageId::new(2)));
        assert_eq!(t.reserved_for(JobId::new(3)).count(), 1);
        // Assignment consumes the reservation.
        t.assign(s, task(3, 0)).unwrap();
        assert!(t.get(s).is_running());
    }

    #[test]
    fn cannot_reserve_running_slot() {
        let mut t = table(1);
        let s = SlotId::new(0);
        t.assign(s, task(1, 0)).unwrap();
        assert_eq!(
            t.reserve(s, Reservation::new(JobId::new(2), Priority::default())),
            Err(ClusterError::CannotReserveBusy { slot: s })
        );
        assert_eq!(t.release(s), Err(ClusterError::CannotReserveBusy { slot: s }));
    }

    #[test]
    fn reservation_expiry() {
        let mut t = table(3);
        let deadline = SimTime::from_secs(10);
        t.reserve(
            SlotId::new(0),
            Reservation::new(JobId::new(1), Priority::default()).with_deadline(deadline),
        )
        .unwrap();
        t.reserve(SlotId::new(1), Reservation::new(JobId::new(1), Priority::default()))
            .unwrap(); // open-ended
        assert!(t.expire_reservations(SimTime::from_secs(9)).is_empty());
        let expired = t.expire_reservations(SimTime::from_secs(10));
        assert_eq!(expired, vec![SlotId::new(0)]);
        assert!(t.get(SlotId::new(0)).is_free());
        assert!(t.get(SlotId::new(1)).is_reserved());
    }

    #[test]
    fn release_job_reservations() {
        let mut t = table(3);
        t.reserve(SlotId::new(0), Reservation::new(JobId::new(1), Priority::default())).unwrap();
        t.reserve(SlotId::new(1), Reservation::new(JobId::new(2), Priority::default())).unwrap();
        let freed = t.release_job_reservations(JobId::new(1));
        assert_eq!(freed, vec![SlotId::new(0)]);
        assert_eq!(t.counts(), (2, 0, 1));
    }

    #[test]
    fn reservation_expired_at_semantics() {
        let r = Reservation::new(JobId::new(1), Priority::default())
            .with_deadline(SimTime::from_secs(5));
        assert!(!r.expired_at(SimTime::from_secs(4)));
        assert!(r.expired_at(SimTime::from_secs(5)));
        let open = Reservation::new(JobId::new(1), Priority::default());
        assert!(!open.expired_at(SimTime::MAX));
    }

    #[test]
    fn state_display() {
        let mut t = table(1);
        assert_eq!(format!("{}", t.get(SlotId::new(0))), "free");
        t.assign(SlotId::new(0), task(1, 0)).unwrap();
        assert!(format!("{}", t.get(SlotId::new(0))).contains("running"));
        let err = ClusterError::NotRunning { slot: SlotId::new(0) };
        assert!(format!("{err}").contains("not running"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Assign(u32, u64),
        Finish(u32),
        Reserve(u32, u64),
        Release(u32),
        Expire(u64),
    }

    fn op_strategy(slots: u32) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..slots, 1u64..5).prop_map(|(s, j)| Op::Assign(s, j)),
            (0..slots).prop_map(Op::Finish),
            (0..slots, 1u64..5).prop_map(|(s, j)| Op::Reserve(s, j)),
            (0..slots).prop_map(Op::Release),
            (0u64..100).prop_map(Op::Expire),
        ]
    }

    proptest! {
        /// Under any operation sequence, slot counts always total the table
        /// size and a slot is never double-booked (errors instead).
        #[test]
        fn state_machine_is_safe(ops in proptest::collection::vec(op_strategy(6), 0..200)) {
            let mut t = SlotTable::new(&ClusterSpec::new(2, 3).unwrap());
            for op in ops {
                match op {
                    Op::Assign(s, j) => {
                        let slot = SlotId::new(s);
                        let was_running = t.get(slot).is_running();
                        let res = t.assign(slot, TaskId::new(JobId::new(j), StageId::new(0), 0));
                        prop_assert_eq!(res.is_err(), was_running);
                    }
                    Op::Finish(s) => {
                        let slot = SlotId::new(s);
                        let was_running = t.get(slot).is_running();
                        prop_assert_eq!(t.finish(slot).is_ok(), was_running);
                    }
                    Op::Reserve(s, j) => {
                        let slot = SlotId::new(s);
                        let was_running = t.get(slot).is_running();
                        let res = t.reserve(
                            slot,
                            Reservation::new(JobId::new(j), Priority::default())
                                .with_deadline(SimTime::from_secs(j)),
                        );
                        prop_assert_eq!(res.is_err(), was_running);
                    }
                    Op::Release(s) => {
                        let slot = SlotId::new(s);
                        let was_running = t.get(slot).is_running();
                        prop_assert_eq!(t.release(slot).is_err(), was_running);
                    }
                    Op::Expire(at) => {
                        let freed = t.expire_reservations(SimTime::from_secs(at));
                        for f in freed {
                            prop_assert!(t.get(f).is_free());
                        }
                    }
                }
                let (free, running, reserved) = t.counts();
                prop_assert_eq!(free + running + reserved, t.len());
            }
        }
    }
}
