//! The indexed slot pool: the [`SlotTable`] state machine plus
//! incrementally maintained indexes, so the scheduler hot path never
//! rescans the whole cluster.
//!
//! [`SlotPool`] keeps, updated at every state transition:
//!
//! * the **free** slots (free and in service) as a [`SlotBits`] word
//!   bitset — O(1) membership updates and tests, word-wise intersection,
//!   and ascending enumeration of the whole cluster, a node or a rack
//!   (both contiguous id ranges) at O(result + range / 4096),
//! * the **reserved** slots, globally and **per job**, as the same kind
//!   of bitset with a maintained count — O(log owners) per-job counts, O(result)
//!   `reserved_for` and `release_job_reservations`,
//! * the `(owner, priority)` **reservation groups** with their counts,
//!   and the number of groups at each priority — O(log priorities)
//!   `lowest_group_priority`,
//! * a **deadline index** over bounded reservations — O(log n)
//!   `next_deadline` and O(expired · log n) `expire_reservations_with`,
//! * the `(free, running, reserved)` **counts** — O(1) `counts()`.
//!
//! Fault recovery (`take_offline`, `bring_online`, reservation expiry)
//! runs through this module, so none of it may panic: every per-slot
//! lookup goes through the checked `SlotPool::slot` accessor, which
//! returns [`ClusterError::UnknownSlot`] for an id outside the pool, and
//! clippy rejects any indexing, `unwrap`, `expect` or panic macro here.
//! The public queries that document a `# Panics` contract are the only
//! exceptions.
//!
//! The unindexed [`SlotTable`] survives as the naive reference
//! implementation; a property test drives both through identical operation
//! sequences and asserts they agree (see `proptests` below).
//!
//! [`SlotTable`]: crate::slot::SlotTable

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use std::collections::{BTreeMap, BTreeSet};

use ssr_dag::{JobId, Priority, TaskId};
use ssr_simcore::SimTime;

use crate::bits::SlotBits;
use crate::slot::{ClusterError, Reservation, SlotState};
use crate::topology::{ClusterSpec, NodeId, RackId, SlotId};

/// The state of every slot in the cluster with checked transitions and
/// incrementally maintained indexes (free and reserved slot bitsets, a
/// bitset and count per reservation owner, the `(owner, priority)` group
/// table, a reservation deadline index and O(1) state counts).
///
/// Drop-in replacement for [`SlotTable`](crate::slot::SlotTable) where the
/// caller also needs fast queries: the transition API (`assign`, `finish`,
/// `reserve`, `release`, `expire_reservations_with`,
/// `release_job_reservations`) behaves identically, and every enumeration
/// (`free_slots`, `reserved_for`, expiry results) yields slots in the same
/// ascending-id order the naive scan produced.
///
/// # Example
///
/// ```
/// use ssr_cluster::{ClusterSpec, SlotPool, Reservation};
/// use ssr_dag::{JobId, Priority, StageId, TaskId};
///
/// let spec = ClusterSpec::new(2, 2)?;
/// let mut pool = SlotPool::new(&spec);
/// assert_eq!(pool.counts(), (4, 0, 0));
///
/// let slot = pool.free_slots().next().expect("all free initially");
/// pool.assign(slot, TaskId::new(JobId::new(1), StageId::new(0), 0))?;
/// assert_eq!(pool.counts(), (3, 1, 0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SlotPool {
    spec: ClusterSpec,
    slots: Vec<Slot>,
    /// `slot -> size` (dense): the demand filters of offer rounds read it
    /// for every candidate.
    sizes: Vec<u32>,
    /// `true` when every slot has the same size (the common homogeneous
    /// case): demand filters reduce to a single comparison.
    uniform_size: bool,
    /// The free index: slots that are free and in service.
    free: SlotBits,
    reserved: SlotBits,
    /// Each reservation owner's slots; an owner leaves when its last
    /// reservation goes.
    reserved_by_job: BTreeMap<JobId, SlotBits>,
    /// Reserved-slot count per `(owner, priority)` group — the unit at
    /// which priority-based ApprovalLogic verdicts are uniform, letting
    /// the scheduler approve once per group instead of once per slot.
    /// Sorted by `(owner, priority)`, with no zero counts: offer rounds
    /// walk it once per candidate, so it is a flat array, not a tree.
    reserved_groups: Vec<(JobId, Priority, usize)>,
    /// How many of `reserved_groups` sit at each priority, with no zero
    /// counts: its first key is the lowest group priority, the floor
    /// below which no priority threshold rule approves anyone.
    group_priorities: BTreeMap<Priority, usize>,
    /// `(deadline, slot)` for every reservation with a bounded deadline.
    deadlines: BTreeSet<(SimTime, SlotId)>,
    running_count: usize,
}

/// One slot's state.
#[derive(Debug, Clone, Copy)]
struct Slot {
    state: SlotState,
    /// Out of service (crashed node, revoked slot, partitioned executor).
    /// Orthogonal to `state`: an offline slot may still be `Running`
    /// (network partition — the task survives), but it never appears in
    /// the free index, so it receives no offers or pre-reservation fills
    /// until [`SlotPool::bring_online`].
    offline: bool,
}

impl SlotPool {
    /// Creates a pool with every slot free, recording each slot's size
    /// from the cluster spec.
    pub fn new(spec: &ClusterSpec) -> Self {
        let total = spec.total_slots() as usize;
        let sizes: Vec<u32> = spec.iter_slots().map(|s| spec.slot_size(s)).collect();
        let uniform_size = sizes.iter().all(|s| Some(s) == sizes.first());
        let mut free = SlotBits::new(total);
        for slot in spec.iter_slots() {
            free.insert(slot);
        }
        SlotPool {
            spec: *spec,
            slots: vec![Slot { state: SlotState::Free, offline: false }; total],
            sizes,
            uniform_size,
            free,
            reserved: SlotBits::new(total),
            reserved_by_job: BTreeMap::new(),
            reserved_groups: Vec::new(),
            group_priorities: BTreeMap::new(),
            deadlines: BTreeSet::new(),
            running_count: 0,
        }
    }

    /// The checked per-slot accessor every transition goes through.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownSlot`] if `slot` is not in the pool.
    fn slot(&self, slot: SlotId) -> Result<&Slot, ClusterError> {
        self.slots.get(slot.index()).ok_or(ClusterError::UnknownSlot { slot })
    }

    /// [`SlotPool::slot`], mutably.
    fn slot_mut(&mut self, slot: SlotId) -> Result<&mut Slot, ClusterError> {
        self.slots.get_mut(slot.index()).ok_or(ClusterError::UnknownSlot { slot })
    }

    /// The reservation held on `slot`, if it is a reserved pool slot.
    fn reservation_on(&self, slot: SlotId) -> Option<Reservation> {
        self.slot(slot).ok()?.state.reservation().copied()
    }

    // ------------------------------------------------------------------
    // Index maintenance
    // ------------------------------------------------------------------

    fn index_free(&mut self, slot: SlotId) -> Result<(), ClusterError> {
        // Offline slots never enter the free index, no matter which
        // transition frees them (finish during a partition, release,
        // expiry); `bring_online` re-indexes them when the fault heals.
        if !self.slot(slot)?.offline {
            self.free.insert(slot);
        }
        Ok(())
    }

    fn index_reservation(&mut self, slot: SlotId, r: &Reservation) {
        self.reserved.insert(slot);
        let total = self.slots.len();
        self.reserved_by_job.entry(r.job()).or_insert_with(|| SlotBits::new(total)).insert(slot);
        match self.group_index(r) {
            Ok(i) => {
                if let Some((_, _, count)) = self.reserved_groups.get_mut(i) {
                    *count += 1;
                }
            }
            Err(i) => {
                self.reserved_groups.insert(i, (r.job(), r.priority(), 1));
                *self.group_priorities.entry(r.priority()).or_insert(0) += 1;
            }
        }
        if let Some(d) = r.deadline() {
            self.deadlines.insert((d, slot));
        }
    }

    /// Where `r`'s `(owner, priority)` group sits in `reserved_groups`:
    /// `Ok(index)` when held, else `Err(insertion point)`.
    fn group_index(&self, r: &Reservation) -> Result<usize, usize> {
        let key = (r.job(), r.priority());
        self.reserved_groups.binary_search_by(|&(j, p, _)| (j, p).cmp(&key))
    }

    fn unindex_group(&mut self, r: &Reservation) {
        let Ok(i) = self.group_index(r) else { return };
        let Some((_, _, count)) = self.reserved_groups.get_mut(i) else { return };
        *count -= 1;
        if *count == 0 {
            self.reserved_groups.remove(i);
            if let Some(groups) = self.group_priorities.get_mut(&r.priority()) {
                *groups -= 1;
                if *groups == 0 {
                    self.group_priorities.remove(&r.priority());
                }
            }
        }
    }

    fn unindex_reservation(&mut self, slot: SlotId, r: &Reservation) {
        self.reserved.remove(slot);
        if let Some(set) = self.reserved_by_job.get_mut(&r.job()) {
            set.remove(slot);
            if set.is_empty() {
                self.reserved_by_job.remove(&r.job());
            }
        }
        self.unindex_group(r);
        if let Some(d) = r.deadline() {
            self.deadlines.remove(&(d, slot));
        }
    }

    /// Drops reservation `r` on `slot` from the indexes and frees the slot
    /// (into the free index only while it is in service).
    fn free_reserved(&mut self, slot: SlotId, r: &Reservation) -> Result<(), ClusterError> {
        self.unindex_reservation(slot, r);
        self.slot_mut(slot)?.state = SlotState::Free;
        self.index_free(slot)
    }

    /// Moves `slot` out of whatever non-running state it is in, dropping
    /// its index entries. Returns an error for running slots.
    fn unindex_current(&mut self, slot: SlotId) -> Result<(), ClusterError> {
        match self.slot(slot)?.state {
            SlotState::Running(_) => Err(ClusterError::CannotReserveBusy { slot }),
            SlotState::Free => {
                self.free.remove(slot);
                Ok(())
            }
            SlotState::Reserved(r) => {
                self.unindex_reservation(slot, &r);
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Transitions (same contract as SlotTable)
    // ------------------------------------------------------------------

    /// Assigns `task` to `slot`. The slot may be free or reserved (the
    /// caller is responsible for having applied the ApprovalLogic); a
    /// reservation is consumed by the assignment.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::SlotBusy`] if the slot is running a task,
    /// [`ClusterError::UnknownSlot`] if it is not in the pool.
    pub fn assign(&mut self, slot: SlotId, task: TaskId) -> Result<(), ClusterError> {
        if let SlotState::Running(occupant) = self.slot(slot)?.state {
            return Err(ClusterError::SlotBusy { slot, occupant });
        }
        self.unindex_current(slot)?;
        self.slot_mut(slot)?.state = SlotState::Running(task);
        self.running_count += 1;
        Ok(())
    }

    /// Completes the task on `slot`, freeing it, and returns the task.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NotRunning`] if the slot holds no task,
    /// [`ClusterError::UnknownSlot`] if it is not in the pool.
    pub fn finish(&mut self, slot: SlotId) -> Result<TaskId, ClusterError> {
        let entry = self.slot_mut(slot)?;
        let SlotState::Running(task) = entry.state else {
            return Err(ClusterError::NotRunning { slot });
        };
        entry.state = SlotState::Free;
        self.running_count -= 1;
        self.index_free(slot)?;
        Ok(task)
    }

    /// Reserves `slot`. Overwrites an existing reservation (e.g. a
    /// higher-priority job re-reserving, or a deadline refresh).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::CannotReserveBusy`] if the slot is running,
    /// [`ClusterError::UnknownSlot`] if it is not in the pool.
    pub fn reserve(&mut self, slot: SlotId, reservation: Reservation) -> Result<(), ClusterError> {
        self.unindex_current(slot)?;
        self.slot_mut(slot)?.state = SlotState::Reserved(reservation);
        self.index_reservation(slot, &reservation);
        Ok(())
    }

    /// Releases `slot` unconditionally (reservation cancelled or task
    /// cleanup); running slots are left untouched and reported as an error.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::CannotReserveBusy`] if the slot is running,
    /// [`ClusterError::UnknownSlot`] if it is not in the pool.
    pub fn release(&mut self, slot: SlotId) -> Result<(), ClusterError> {
        self.unindex_current(slot)?;
        self.slot_mut(slot)?.state = SlotState::Free;
        self.index_free(slot)
    }

    /// Frees every reservation whose deadline has passed at `now` and
    /// returns the freed slots in ascending id order (§IV-B: "beyond the
    /// deadline the reservation is expired, and the slot becomes free to
    /// use by other jobs").
    ///
    /// `on_expire(slot, reservation)` runs for each lapsed reservation just
    /// before it is freed — the only point at which the owning job of an
    /// expired reservation is still known (used by decision tracing).
    /// Callbacks fire in deadline order.
    pub fn expire_reservations_with(
        &mut self,
        now: SimTime,
        mut on_expire: impl FnMut(SlotId, &Reservation),
    ) -> Vec<SlotId> {
        let mut expired: Vec<SlotId> = Vec::new();
        // `expired_at` is `deadline <= now`, so everything up to and
        // including (now, SlotId::MAX) has lapsed.
        while let Some(&(deadline, slot)) = self.deadlines.first() {
            if deadline > now {
                break;
            }
            let Some(r) = self.reservation_on(slot) else {
                // An entry without a live reservation is dropped, so a
                // corrupt index cannot stall expiry.
                self.deadlines.remove(&(deadline, slot));
                continue;
            };
            on_expire(slot, &r);
            if self.free_reserved(slot, &r).is_ok() {
                expired.push(slot);
            }
        }
        // The deadline index yields (time, slot) order; the naive scan
        // yielded ascending slot ids.
        expired.sort_unstable();
        expired
    }

    /// Releases every reservation held by `job` (e.g. on job completion)
    /// and returns the freed slots in ascending id order.
    pub fn release_job_reservations(&mut self, job: JobId) -> Vec<SlotId> {
        let Some(set) = self.reserved_by_job.remove(&job) else { return Vec::new() };
        set.iter()
            .filter(|&slot| {
                self.reservation_on(slot).is_some_and(|r| self.free_reserved(slot, &r).is_ok())
            })
            .collect()
    }

    /// Takes `slot` out of service (fault injection). Idempotent.
    ///
    /// A free slot leaves the free index; a reserved slot's reservation
    /// is forcibly dropped (returned so the caller can trace the
    /// revocation); a running slot keeps its task — the caller decides
    /// whether the fault kills it (`finish` first) or lets it survive a
    /// partition (the slot then frees without re-entering the indexes).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownSlot`] if `slot` is not in the pool.
    pub fn take_offline(&mut self, slot: SlotId) -> Result<Option<Reservation>, ClusterError> {
        let entry = self.slot_mut(slot)?;
        if entry.offline {
            return Ok(None);
        }
        entry.offline = true;
        match entry.state {
            SlotState::Running(_) => Ok(None),
            SlotState::Free => {
                self.free.remove(slot);
                Ok(None)
            }
            SlotState::Reserved(r) => self.free_reserved(slot, &r).map(|()| Some(r)),
        }
    }

    /// Returns `slot` to service after a fault heals. Idempotent; returns
    /// `true` when the slot was actually offline. A freed slot rejoins the
    /// free index immediately; a still-running slot (partition survivor)
    /// rejoins when its task finishes.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownSlot`] if `slot` is not in the pool.
    pub fn bring_online(&mut self, slot: SlotId) -> Result<bool, ClusterError> {
        let entry = self.slot_mut(slot)?;
        if !entry.offline {
            return Ok(false);
        }
        entry.offline = false;
        if entry.state.is_free() {
            self.index_free(slot)?;
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// `true` when `slot` is out of service.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownSlot`] if `slot` is not in the pool.
    pub fn is_offline(&self, slot: SlotId) -> Result<bool, ClusterError> {
        Ok(self.slot(slot)?.offline)
    }

    /// `true` when `slot` is free and in service, i.e. in the free
    /// index — O(1).
    pub fn is_free_in_service(&self, slot: SlotId) -> bool {
        self.free.contains(slot)
    }

    /// The free index as a bitset over slot ids, 64 slots a word: bit
    /// `s % 64` of word `s / 64` is [`is_free_in_service`] of slot `s`.
    ///
    /// [`is_free_in_service`]: SlotPool::is_free_in_service
    pub fn free_bits(&self) -> &[u64] {
        self.free.words()
    }

    /// Number of slots currently out of service — O(slots).
    pub fn offline_count(&self) -> usize {
        self.slots.iter().filter(|s| s.offline).count()
    }

    /// The resource size of `slot` (§III-C heterogeneous clusters; 1 in a
    /// homogeneous one).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[expect(clippy::indexing_slicing, reason = "documented # Panics contract")]
    pub fn size(&self, slot: SlotId) -> u32 {
        self.sizes[slot.index()]
    }

    /// `true` when every slot has the same size: a demand of at most that
    /// size fits everywhere and per-slot size filters can be skipped.
    pub fn uniform_size(&self) -> bool {
        self.uniform_size
    }

    /// The machine hosting `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn node_of(&self, slot: SlotId) -> NodeId {
        self.spec.node_of(slot)
    }

    /// The rack containing `slot`'s machine.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn rack_of(&self, slot: SlotId) -> RackId {
        self.spec.rack_of(self.spec.node_of(slot))
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the cluster has no slots (never true for a validated
    /// [`ClusterSpec`]).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The state of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[expect(clippy::indexing_slicing, reason = "documented # Panics contract")]
    pub fn get(&self, slot: SlotId) -> &SlotState {
        &self.slots[slot.index()].state
    }

    /// Iterator over free slots in ascending id order.
    pub fn free_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.free.iter()
    }

    /// Free slots hosted by `node`, ascending: a walk over the node's
    /// contiguous id range of the free index. None for a node outside the
    /// cluster.
    pub fn free_on_node(&self, node: NodeId) -> impl Iterator<Item = SlotId> + '_ {
        let per_node = self.spec.slots_per_node() as usize;
        let lo = node.as_u32() as usize * per_node;
        self.free.range(lo, lo + per_node)
    }

    /// Free slots in `rack`, ascending: a walk over the rack's contiguous
    /// id range of the free index. None for a rack outside the cluster.
    pub fn free_in_rack(&self, rack: RackId) -> impl Iterator<Item = SlotId> + '_ {
        let per_rack = self.spec.nodes_per_rack() as usize * self.spec.slots_per_node() as usize;
        let lo = rack.as_u32() as usize * per_rack;
        self.free.range(lo, lo + per_rack)
    }

    /// Iterator over all reserved slots in ascending id order.
    pub fn reserved_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.reserved.iter()
    }

    /// Iterator over slots reserved for `job`, ascending.
    pub fn reserved_for(&self, job: JobId) -> impl Iterator<Item = SlotId> + '_ {
        self.reserved_by_job.get(&job).into_iter().flat_map(SlotBits::iter)
    }

    /// The slots reserved for `job` as a bitset (with its count), `None`
    /// when it holds none: word-wise searches of one owner's slots read
    /// it.
    pub fn reserved_bits(&self, job: JobId) -> Option<&SlotBits> {
        self.reserved_by_job.get(&job)
    }

    /// The jobs currently holding reservations, with their reserved-slot
    /// counts, in job-id order.
    pub fn reservations_by_job(&self) -> impl Iterator<Item = (JobId, usize)> + '_ {
        self.reserved_by_job.iter().map(|(j, s)| (*j, s.len()))
    }

    /// The distinct `(owner, priority)` reservation groups currently held,
    /// with their slot counts, in `(job, priority)` order: the sorted
    /// table itself. Priority-based ApprovalLogic verdicts are uniform
    /// within a group.
    pub fn reservation_groups(&self) -> &[(JobId, Priority, usize)] {
        &self.reserved_groups
    }

    /// The lowest priority among the reservation groups, `None` when no
    /// slot is reserved — O(log priorities). A priority threshold rule
    /// approves no non-owner at or below it (see
    /// `ApprovalRule::could_approve` in the scheduler).
    pub fn lowest_group_priority(&self) -> Option<Priority> {
        self.group_priorities.first_key_value().map(|(&p, _)| p)
    }

    /// `true` if `job` currently holds at least one reservation — a
    /// binary search of the group table, O(log groups).
    pub fn has_reservations(&self, job: JobId) -> bool {
        let groups = &self.reserved_groups;
        let i = groups.partition_point(|&(owner, _, _)| owner < job);
        groups.get(i).is_some_and(|&(owner, _, _)| owner == job)
    }

    /// Iterator over `(slot, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &SlotState)> + '_ {
        self.slots.iter().enumerate().map(|(i, s)| (SlotId::new(i as u32), &s.state))
    }

    /// Counts of (free, running, reserved) slots — O(1).
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.free.len(), self.running_count, self.reserved.len())
    }

    /// The earliest pending reservation deadline — O(1).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.deadlines.first().map(|&(d, _)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_dag::{Priority, StageId};

    fn pool(nodes: u32, slots: u32) -> SlotPool {
        SlotPool::new(&ClusterSpec::new(nodes, slots).unwrap())
    }

    fn task(job: u64, part: u32) -> TaskId {
        TaskId::new(JobId::new(job), StageId::new(0), part)
    }

    fn expire(p: &mut SlotPool, secs: u64) -> Vec<SlotId> {
        p.expire_reservations_with(SimTime::from_secs(secs), |_, _| {})
    }

    #[test]
    fn fresh_pool_is_all_free_with_indexes() {
        let p = pool(2, 3);
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
        assert_eq!(p.counts(), (6, 0, 0));
        assert_eq!(p.free_slots().count(), 6);
        assert_eq!(p.free_on_node(NodeId::new(0)).count(), 3);
        assert_eq!(p.free_in_rack(RackId::new(0)).count(), 6);
        assert!(p.uniform_size());
        assert_eq!(p.next_deadline(), None);
    }

    #[test]
    fn assign_finish_maintains_indexes() {
        let mut p = pool(2, 2);
        let s = SlotId::new(1);
        p.assign(s, task(1, 0)).unwrap();
        assert_eq!(p.counts(), (3, 1, 0));
        assert!(!p.free_slots().any(|f| f == s));
        assert!(!p.free_on_node(NodeId::new(0)).any(|f| f == s));
        assert_eq!(p.finish(s).unwrap(), task(1, 0));
        assert_eq!(p.counts(), (4, 0, 0));
        assert!(p.free_on_node(NodeId::new(0)).any(|f| f == s));
    }

    #[test]
    fn transition_errors_match_the_reference_table() {
        let mut p = pool(1, 1);
        let s = SlotId::new(0);
        assert_eq!(p.finish(s), Err(ClusterError::NotRunning { slot: s }));
        p.assign(s, task(1, 0)).unwrap();
        assert_eq!(
            p.assign(s, task(2, 0)),
            Err(ClusterError::SlotBusy { slot: s, occupant: task(1, 0) })
        );
        assert_eq!(
            p.reserve(s, Reservation::new(JobId::new(2), Priority::default())),
            Err(ClusterError::CannotReserveBusy { slot: s })
        );
        assert_eq!(p.release(s), Err(ClusterError::CannotReserveBusy { slot: s }));
    }

    #[test]
    fn reserve_overwrite_moves_job_and_deadline_index() {
        let mut p = pool(1, 2);
        let s = SlotId::new(0);
        let r1 = Reservation::new(JobId::new(1), Priority::new(1))
            .with_deadline(SimTime::from_secs(10));
        p.reserve(s, r1).unwrap();
        assert_eq!(p.reserved_for(JobId::new(1)).count(), 1);
        assert_eq!(p.next_deadline(), Some(SimTime::from_secs(10)));
        // Overwrite by another job with a later deadline: the old entries
        // must vanish from both the per-job and the deadline index.
        let r2 = Reservation::new(JobId::new(2), Priority::new(9))
            .with_deadline(SimTime::from_secs(20));
        p.reserve(s, r2).unwrap();
        assert_eq!(p.reserved_for(JobId::new(1)).count(), 0);
        assert_eq!(p.reserved_for(JobId::new(2)).count(), 1);
        assert_eq!(p.next_deadline(), Some(SimTime::from_secs(20)));
        assert!(expire(&mut p, 10).is_empty());
        assert_eq!(expire(&mut p, 20), vec![s]);
        assert_eq!(p.counts(), (2, 0, 0));
        assert_eq!(p.next_deadline(), None);
    }

    #[test]
    fn assignment_consumes_reservation_indexes() {
        let mut p = pool(1, 2);
        let s = SlotId::new(1);
        let r = Reservation::new(JobId::new(3), Priority::new(5))
            .with_deadline(SimTime::from_secs(7));
        p.reserve(s, r).unwrap();
        p.assign(s, task(3, 0)).unwrap();
        assert_eq!(p.reserved_for(JobId::new(3)).count(), 0);
        assert_eq!(p.next_deadline(), None);
        assert_eq!(p.counts(), (1, 1, 0));
    }

    #[test]
    fn release_job_reservations_returns_ascending() {
        let mut p = pool(1, 4);
        for i in [3u32, 0, 2] {
            p.reserve(SlotId::new(i), Reservation::new(JobId::new(1), Priority::default()))
                .unwrap();
        }
        p.reserve(SlotId::new(1), Reservation::new(JobId::new(2), Priority::default()))
            .unwrap();
        let freed = p.release_job_reservations(JobId::new(1));
        assert_eq!(freed, vec![SlotId::new(0), SlotId::new(2), SlotId::new(3)]);
        assert_eq!(p.counts(), (3, 0, 1));
        assert!(p.release_job_reservations(JobId::new(9)).is_empty());
    }

    #[test]
    fn expiry_returns_ascending_slot_order() {
        let mut p = pool(1, 3);
        // Deliberately reversed: later deadline on the smaller slot id.
        p.reserve(
            SlotId::new(0),
            Reservation::new(JobId::new(1), Priority::default())
                .with_deadline(SimTime::from_secs(9)),
        )
        .unwrap();
        p.reserve(
            SlotId::new(2),
            Reservation::new(JobId::new(1), Priority::default())
                .with_deadline(SimTime::from_secs(5)),
        )
        .unwrap();
        let expired = expire(&mut p, 9);
        assert_eq!(expired, vec![SlotId::new(0), SlotId::new(2)]);
    }

    #[test]
    fn reservation_groups_track_owner_priority_counts() {
        let mut p = pool(1, 4);
        let (j1, j2) = (JobId::new(1), JobId::new(2));
        p.reserve(SlotId::new(0), Reservation::new(j1, Priority::new(5))).unwrap();
        p.reserve(SlotId::new(1), Reservation::new(j1, Priority::new(5))).unwrap();
        p.reserve(SlotId::new(2), Reservation::new(j2, Priority::new(9))).unwrap();
        assert_eq!(
            p.reservation_groups().to_vec(),
            vec![(j1, Priority::new(5), 2), (j2, Priority::new(9), 1)]
        );
        assert!(p.has_reservations(j1));
        assert!(!p.has_reservations(JobId::new(3)));
        assert_eq!(p.lowest_group_priority(), Some(Priority::new(5)));
        // Consuming a reservation shrinks its group; the last member
        // removes the group entirely.
        p.assign(SlotId::new(0), task(1, 0)).unwrap();
        assert_eq!(
            p.reservation_groups().to_vec(),
            vec![(j1, Priority::new(5), 1), (j2, Priority::new(9), 1)]
        );
        p.release_job_reservations(j1);
        assert!(!p.has_reservations(j1));
        assert_eq!(p.reservation_groups().to_vec(), vec![(j2, Priority::new(9), 1)]);
        assert_eq!(p.lowest_group_priority(), Some(Priority::new(9)));
        p.release(SlotId::new(2)).unwrap();
        assert_eq!(p.lowest_group_priority(), None);
    }

    #[test]
    fn offline_slots_leave_and_rejoin_the_free_indexes() {
        let mut p = pool(2, 2);
        let s = SlotId::new(1);
        // Free slot: vanishes from every index and from counts.
        assert_eq!(p.take_offline(s), Ok(None));
        assert_eq!(p.is_offline(s), Ok(true));
        assert_eq!(p.offline_count(), 1);
        assert_eq!(p.counts(), (3, 0, 0));
        assert!(!p.free_slots().any(|f| f == s));
        assert!(!p.free_on_node(NodeId::new(0)).any(|f| f == s));
        // Idempotent.
        assert_eq!(p.take_offline(s), Ok(None));
        assert_eq!(p.bring_online(s), Ok(true));
        assert_eq!(p.bring_online(s), Ok(false));
        assert_eq!(p.counts(), (4, 0, 0));
        assert!(p.free_on_node(NodeId::new(0)).any(|f| f == s));
    }

    #[test]
    fn offline_reserved_slot_returns_its_reservation() {
        let mut p = pool(1, 2);
        let s = SlotId::new(0);
        let r = Reservation::new(JobId::new(7), Priority::new(3))
            .with_deadline(SimTime::from_secs(10));
        p.reserve(s, r).unwrap();
        let revoked = p.take_offline(s).unwrap().expect("reservation handed back");
        assert_eq!(revoked.job(), JobId::new(7));
        assert_eq!(p.counts(), (1, 0, 0));
        assert_eq!(p.next_deadline(), None);
        assert!(!p.has_reservations(JobId::new(7)));
        // Expiry at the old deadline is a no-op: the index entry is gone.
        assert!(expire(&mut p, 10).is_empty());
    }

    #[test]
    fn offline_running_slot_survives_and_frees_out_of_service() {
        let mut p = pool(1, 2);
        let s = SlotId::new(0);
        p.assign(s, task(1, 0)).unwrap();
        // Partition: the task keeps running on the unreachable node.
        assert_eq!(p.take_offline(s), Ok(None));
        assert_eq!(p.counts(), (1, 1, 0));
        // It finishes mid-partition: the slot frees but stays invisible.
        assert_eq!(p.finish(s).unwrap(), task(1, 0));
        assert_eq!(p.counts(), (1, 0, 0));
        assert!(!p.free_slots().any(|f| f == s));
        // Healing the partition restores it.
        assert_eq!(p.bring_online(s), Ok(true));
        assert_eq!(p.counts(), (2, 0, 0));
    }

    #[test]
    fn unknown_slots_are_errors_and_change_nothing() {
        let mut p = pool(2, 2);
        let s = SlotId::new(99);
        let err = ClusterError::UnknownSlot { slot: s };
        assert_eq!(p.take_offline(s), Err(err));
        assert_eq!(p.bring_online(s), Err(err));
        assert_eq!(p.is_offline(s), Err(err));
        assert_eq!(p.assign(s, task(1, 0)), Err(err));
        assert_eq!(p.finish(s), Err(err));
        let r = Reservation::new(JobId::new(1), Priority::default());
        assert_eq!(p.reserve(s, r), Err(err));
        assert_eq!(p.release(s), Err(err));
        assert_eq!(p.counts(), (4, 0, 0));
        assert_eq!(p.offline_count(), 0);
        assert!(!p.is_free_in_service(s));
        assert_eq!(p.free_on_node(NodeId::new(9)).count(), 0);
        assert_eq!(p.free_in_rack(RackId::new(9)).count(), 0);
    }

    #[test]
    fn heterogeneous_sizes_reported() {
        let spec = ClusterSpec::new(1, 4).unwrap().with_slot_sizing(1, 4, 4);
        let p = SlotPool::new(&spec);
        assert!(!p.uniform_size());
        assert_eq!(p.size(SlotId::new(0)), 4);
        assert_eq!(p.size(SlotId::new(1)), 1);
    }

    #[test]
    fn topology_lookups_match_spec() {
        let spec = ClusterSpec::with_racks(4, 2, 2).unwrap();
        let p = SlotPool::new(&spec);
        for slot in spec.iter_slots() {
            assert_eq!(p.node_of(slot), spec.node_of(slot));
            assert_eq!(p.rack_of(slot), spec.rack_of(spec.node_of(slot)));
        }
        assert_eq!(p.free_in_rack(RackId::new(1)).count(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::slot::SlotTable;
    use proptest::prelude::*;
    use ssr_dag::{Priority, StageId};

    /// The scheduler's static-pool owner (`STATIC_POOL_JOB`): a
    /// reservation holder that is not a schedulable job, at the far end
    /// of the id range.
    const STATIC_POOL: JobId = JobId::new(u64::MAX);

    /// Every reservation owner the ops draw from: the static-pool
    /// sentinel and four ordinary jobs.
    fn owners() -> [JobId; 5] {
        [JobId::new(1), JobId::new(2), JobId::new(3), JobId::new(4), STATIC_POOL]
    }

    #[derive(Debug, Clone)]
    enum Op {
        Assign(u32, u64),
        Finish(u32),
        /// `(slot, owner index, raised priority, deadline)`.
        Reserve(u32, usize, bool, Option<u64>),
        Release(u32),
        Expire(u64),
        ReleaseJob(usize),
        TakeOffline(u32),
        BringOnline(u32),
    }

    fn op_strategy(slots: u32) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..slots, 1u64..5).prop_map(|(s, j)| Op::Assign(s, j)),
            (0..slots).prop_map(Op::Finish),
            (0..slots, 0usize..5, 0u32..2, 0u64..40)
                .prop_map(|(s, o, hi, d)| Op::Reserve(s, o, hi == 1, (d > 0).then_some(d))),
            (0..slots).prop_map(Op::Release),
            (0u64..50).prop_map(Op::Expire),
            (0usize..5).prop_map(Op::ReleaseJob),
            (0..slots).prop_map(Op::TakeOffline),
            (0..slots).prop_map(Op::BringOnline),
        ]
    }

    /// Applies one op to both implementations and asserts identical
    /// results; `SlotTable` is the naive rescan reference, and `offline`
    /// models the out-of-service set the table does not know about. Slot
    /// draws wrap around the pool's size.
    fn apply(pool: &mut SlotPool, table: &mut SlotTable, offline: &mut BTreeSet<SlotId>, op: Op) {
        let len = pool.len() as u32;
        let at = |s: u32| SlotId::new(s % len);
        match op {
            Op::Assign(s, j) => {
                let t = TaskId::new(JobId::new(j), StageId::new(0), 0);
                prop_assert_eq!(pool.assign(at(s), t), table.assign(at(s), t));
            }
            Op::Finish(s) => prop_assert_eq!(pool.finish(at(s)), table.finish(at(s))),
            Op::Reserve(s, o, raised, d) => {
                // Each owner holds groups at two priorities, and owners
                // 0 and 3, 1 and 4 share theirs, so the lowest group
                // priority outlives one of its groups.
                let priority = Priority::new(o as i32 % 3 + if raised { 10 } else { 0 });
                let mut r = Reservation::new(owners()[o], priority);
                if let Some(d) = d {
                    r = r.with_deadline(SimTime::from_secs(d));
                }
                prop_assert_eq!(pool.reserve(at(s), r), table.reserve(at(s), r));
            }
            Op::Release(s) => prop_assert_eq!(pool.release(at(s)), table.release(at(s))),
            Op::Expire(t) => {
                let now = SimTime::from_secs(t);
                prop_assert_eq!(
                    pool.expire_reservations_with(now, |_, _| {}),
                    table.expire_reservations(now)
                );
            }
            Op::ReleaseJob(o) => {
                let job = owners()[o];
                prop_assert_eq!(
                    pool.release_job_reservations(job),
                    table.release_job_reservations(job)
                );
            }
            Op::TakeOffline(s) => {
                let slot = at(s);
                // A reserved slot loses its reservation; a running one
                // keeps its task.
                let revoked = (!offline.contains(&slot))
                    .then(|| table.get(slot).reservation().copied())
                    .flatten();
                if revoked.is_some() {
                    table.release(slot).unwrap();
                }
                prop_assert_eq!(pool.take_offline(slot), Ok(revoked));
                offline.insert(slot);
            }
            Op::BringOnline(s) => {
                let slot = at(s);
                prop_assert_eq!(pool.bring_online(slot), Ok(offline.remove(&slot)));
            }
        }
    }

    /// Every query of `pool` against a rescan of `table`, with `offline`
    /// the out-of-service set.
    fn check(spec: &ClusterSpec, pool: &SlotPool, table: &SlotTable, offline: &BTreeSet<SlotId>) {
        // Out-of-service slots leave the free index only.
        let free: Vec<SlotId> = table.free_slots().filter(|s| !offline.contains(s)).collect();
        let reserved: Vec<SlotId> =
            table.iter().filter(|(_, s)| s.is_reserved()).map(|(s, _)| s).collect();
        prop_assert_eq!(pool.counts(), (free.len(), table.counts().1, reserved.len()));
        prop_assert_eq!(pool.free_slots().collect::<Vec<_>>(), free.clone());
        prop_assert_eq!(pool.reserved_slots().collect::<Vec<_>>(), reserved);
        prop_assert_eq!(pool.offline_count(), offline.len());
        // Node and rack walks, one past the last of each included.
        for n in (0..=spec.nodes()).map(NodeId::new) {
            let naive: Vec<SlotId> =
                free.iter().copied().filter(|&s| spec.node_of(s) == n).collect();
            prop_assert_eq!(pool.free_on_node(n).collect::<Vec<_>>(), naive);
        }
        for r in (0..=spec.racks()).map(RackId::new) {
            let naive: Vec<SlotId> =
                free.iter().copied().filter(|&s| pool.rack_of(s) == r).collect();
            prop_assert_eq!(pool.free_in_rack(r).collect::<Vec<_>>(), naive);
        }
        // The dense flag is exactly "free and in service".
        for slot in spec.iter_slots() {
            prop_assert_eq!(pool.is_offline(slot), Ok(offline.contains(&slot)));
            prop_assert_eq!(
                pool.is_free_in_service(slot),
                !offline.contains(&slot) && pool.get(slot).is_free()
            );
        }
        for (slot, state) in pool.iter() {
            prop_assert_eq!(state, table.get(slot));
        }
        // Per-owner slots, counts and bitsets; ownership answered from the
        // group table agrees, for non-owners too.
        let mut by_job = Vec::new();
        for job in owners().into_iter().chain([JobId::new(0), JobId::new(5)]) {
            let naive: Vec<SlotId> = table.reserved_for(job).collect();
            prop_assert_eq!(pool.reserved_for(job).collect::<Vec<_>>(), naive.clone());
            let held = (!naive.is_empty()).then_some(naive.len());
            prop_assert_eq!(pool.reserved_bits(job).map(SlotBits::len), held);
            prop_assert_eq!(pool.has_reservations(job), !naive.is_empty());
            if !naive.is_empty() {
                by_job.push((job, naive.len()));
            }
        }
        prop_assert_eq!(pool.reservations_by_job().collect::<Vec<_>>(), by_job);
        prop_assert_eq!(
            pool.next_deadline(),
            pool.iter().filter_map(|(_, s)| s.reservation().and_then(|r| r.deadline())).min()
        );
        // The (owner, priority) group index matches a naive recount.
        let mut naive_groups: BTreeMap<(JobId, Priority), usize> = BTreeMap::new();
        for (_, state) in table.iter() {
            if let Some(r) = state.reservation() {
                *naive_groups.entry((r.job(), r.priority())).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(
            pool.lowest_group_priority(),
            naive_groups.keys().map(|&(_, p)| p).min()
        );
        prop_assert_eq!(
            pool.reservation_groups().to_vec(),
            naive_groups.into_iter().map(|((j, p), c)| (j, p, c)).collect::<Vec<_>>()
        );
        // The free bitset holds exactly the free index, and nothing past
        // the last slot.
        let from_bits: Vec<SlotId> = pool
            .free_bits()
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| (0..64).filter(move |b| (w >> b) & 1 == 1).map(move |b| i * 64 + b))
            .map(|s| SlotId::new(s as u32))
            .collect();
        prop_assert_eq!(from_bits, free);
    }

    proptest! {
        /// The indexed pool and the naive rescan table agree on every
        /// query after any operation sequence — the static-pool sentinel,
        /// owners holding two priorities at once, and slots going out of
        /// and back into service included — on pools of 8, 63 and 65
        /// slots (below and above a 64-slot word), with partial racks.
        #[test]
        fn pool_agrees_with_rescan_reference(
            ops in proptest::collection::vec(op_strategy(65), 0..300)
        ) {
            for (nodes, per_node, per_rack) in [(4, 2, 2), (9, 7, 4), (13, 5, 3)] {
                let spec = ClusterSpec::with_racks(nodes, per_node, per_rack).unwrap();
                let mut pool = SlotPool::new(&spec);
                let mut table = SlotTable::new(&spec);
                let mut offline = BTreeSet::new();
                for op in ops.clone() {
                    apply(&mut pool, &mut table, &mut offline, op);
                    check(&spec, &pool, &table, &offline);
                }
            }
        }
    }
}
