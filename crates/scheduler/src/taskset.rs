//! The task-set manager: pending / running / finished tasks of one phase.
//!
//! Mirrors Spark's `TaskSetManager` (§V): one instance manages all parallel
//! tasks of one phase, created when the phase's barrier clears. It also
//! implements the copy bookkeeping needed by the paper's straggler
//! mitigation (§IV-C): a partition may have several running *instances*
//! (the original plus speculative copies); the first to finish wins and the
//! rest are killed.

use std::collections::BTreeSet;

use ssr_cluster::{ClusterSpec, LocalityLevel, NodeId, RackId, SlotId};
use ssr_dag::{JobId, StageId, TaskId};
use ssr_simcore::{SimDuration, SimTime};

/// One runnable instance of a task: the original attempt (0) or a
/// speculative copy (attempt ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskInstance {
    /// The logical task (job, stage, partition).
    pub task: TaskId,
    /// 0 for the original, ≥ 1 for speculative copies.
    pub attempt: u32,
}

impl TaskInstance {
    /// `true` if this instance is a speculative copy.
    pub fn is_copy(&self) -> bool {
        self.attempt > 0
    }
}

impl std::fmt::Display for TaskInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.task, self.attempt)
    }
}

#[derive(Debug, Clone)]
struct Partition {
    running: Vec<(TaskInstance, SlotId)>,
    next_attempt: u32,
    /// The slot of the instance that finished the partition, which holds
    /// its output; [`NO_OUTPUT`] until then. A bare `u32` keeps the
    /// partition at 32 bytes.
    output: u32,
}

/// [`Partition::output`] of a partition that has not finished.
const NO_OUTPUT: u32 = u32::MAX;

impl Partition {
    fn finished(&self) -> bool {
        self.output != NO_OUTPUT
    }
}

/// Manages the execution of all parallel tasks within one phase, and
/// owns the phase's runtime facts: when it became ready, its winners'
/// durations in finish order, and the slot holding each finished
/// partition's output.
///
/// # Example
///
/// ```
/// use ssr_scheduler::TaskSetManager;
/// use ssr_cluster::SlotId;
/// use ssr_dag::{JobId, StageId};
/// use ssr_simcore::{SimDuration, SimTime};
///
/// let mut tsm = TaskSetManager::new(JobId::new(1), StageId::new(0), 2, SimTime::ZERO);
/// let a = tsm.launch_next(SlotId::new(0)).expect("two tasks pending");
/// let b = tsm.launch_next(SlotId::new(1)).expect("one task pending");
/// assert!(tsm.launch_next(SlotId::new(2)).is_none());
///
/// let outcome = tsm.instance_finished(a, SimDuration::from_secs(3));
/// assert!(outcome.first_finish);
/// assert!(!tsm.is_complete());
/// let outcome = tsm.instance_finished(b, SimDuration::from_secs(5));
/// assert!(tsm.is_complete());
/// assert!(outcome.losers.is_empty());
/// assert_eq!(tsm.durations(), &[3.0, 5.0]);
/// assert_eq!(tsm.output_slots().collect::<Vec<_>>(), [SlotId::new(0), SlotId::new(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct TaskSetManager {
    job: JobId,
    stage: StageId,
    ready_since: SimTime,
    pending: Vec<u32>,
    partitions: Vec<Partition>,
    /// The phase's data-locality preference; `None` when it has none
    /// (every slot is process-local). Boxed so that phases without a
    /// preference, and the job tables holding them, stay small.
    locality: Option<Box<LocalityView>>,
    /// Durations (seconds) of the instances that finished a partition,
    /// in finish order: one per finished partition.
    durations: Vec<f64>,
}

/// A phase's preferred slots in dense form: the slots and their node and
/// rack projections as ascending lists, plus one membership bitset laid
/// out as slots, then nodes, then racks. A locality lookup is at most
/// three bit tests.
#[derive(Debug, Clone)]
struct LocalityView {
    slots: Vec<SlotId>,
    nodes: Vec<NodeId>,
    racks: Vec<RackId>,
    /// Bit `s` is slot `s`, bit `node_base + n` node `n`, bit
    /// `rack_base + r` rack `r` (see [`LocalityView::bases`]).
    bits: Vec<u64>,
    /// The first and last preferred slots, so a search of the slot words
    /// reads their range without touching `slots`.
    span: (SlotId, SlotId),
}

impl LocalityView {
    fn new(preferred: &BTreeSet<SlotId>, spec: &ClusterSpec) -> Self {
        let slots: Vec<SlotId> = preferred.iter().copied().collect();
        // Slots are numbered node by node and nodes rack by rack, so the
        // projections of an ascending list are ascending: dedup suffices.
        let mut nodes: Vec<NodeId> = slots.iter().map(|&s| spec.node_of(s)).collect();
        nodes.dedup();
        let mut racks: Vec<RackId> = nodes.iter().map(|&n| spec.rack_of(n)).collect();
        racks.dedup();
        let (node_base, rack_base) = Self::bases(spec);
        let len = rack_base + spec.racks() as usize;
        let mut bits = vec![0u64; len.div_ceil(64)];
        let members = slots
            .iter()
            .map(|s| s.index())
            .chain(nodes.iter().map(|n| node_base + n.as_u32() as usize))
            .chain(racks.iter().map(|r| rack_base + r.as_u32() as usize));
        for bit in members {
            bits[bit / 64] |= 1 << (bit % 64);
        }
        let edge = |s: Option<&SlotId>| s.copied().unwrap_or(SlotId::new(0));
        let span = (edge(slots.first()), edge(slots.last()));
        LocalityView { slots, nodes, racks, bits, span }
    }

    /// Where the node bits and the rack bits begin on `spec`: after the
    /// slot bits, then after the node bits.
    fn bases(spec: &ClusterSpec) -> (usize, usize) {
        let node_base = spec.total_slots() as usize;
        (node_base, node_base + spec.nodes() as usize)
    }

    /// `true` if bit `bit` is set; out-of-range bits read as unset.
    #[inline]
    fn has(&self, bit: usize) -> bool {
        self.bits.get(bit / 64).is_some_and(|w| (w >> (bit % 64)) & 1 == 1)
    }

    /// The lowest slot set both in the view and in `set` (a bitset over
    /// slot ids, 64 a word) that passes `fits`. Reads only the words from
    /// the first preferred slot's to the last one's, and masks the last
    /// word past the last preferred slot, where the node bits may begin.
    #[inline]
    fn first_slot_in(&self, set: &[u64], mut fits: impl FnMut(SlotId) -> bool) -> Option<SlotId> {
        let (first, last) = (self.span.0.index(), self.span.1.index());
        let (lo, hi) = (first / 64, last / 64);
        let words = self.bits.get(lo..=hi)?.iter().zip(set.get(lo..=hi)?);
        for (i, (&mine, &theirs)) in (lo..).zip(words) {
            let mut w = mine & theirs;
            if i == hi {
                w &= u64::MAX >> (63 - last % 64);
            }
            while w != 0 {
                let slot = SlotId::new((i * 64 + w.trailing_zeros() as usize) as u32);
                if fits(slot) {
                    return Some(slot);
                }
                w &= w - 1;
            }
        }
        None
    }

    fn level(&self, spec: &ClusterSpec, slot: SlotId) -> LocalityLevel {
        if self.has(slot.index()) {
            return LocalityLevel::ProcessLocal;
        }
        let node = spec.node_of(slot);
        let (node_base, rack_base) = Self::bases(spec);
        if self.has(node_base + node.as_u32() as usize) {
            return LocalityLevel::NodeLocal;
        }
        if self.has(rack_base + spec.rack_of(node).as_u32() as usize) {
            return LocalityLevel::RackLocal;
        }
        LocalityLevel::Any
    }
}

/// The result of an instance finishing: whether it was the partition's
/// first finish, and the other still-running instances of the same
/// partition that must now be killed.
#[derive(Debug, Clone)]
pub struct InstanceOutcome {
    /// `true` if this instance completed its partition (the winner).
    pub first_finish: bool,
    /// Losing instances of the same partition to kill, with their slots.
    pub losers: Vec<(TaskInstance, SlotId)>,
}

impl TaskSetManager {
    /// Creates a manager for a phase of `parallelism` tasks that became
    /// ready (barrier cleared) at `ready_since`.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn new(job: JobId, stage: StageId, parallelism: u32, ready_since: SimTime) -> Self {
        assert!(parallelism > 0, "a task set requires at least one task");
        TaskSetManager {
            job,
            stage,
            ready_since,
            // Launch low partitions first: reverse so pop() yields 0, 1, …
            pending: (0..parallelism).rev().collect(),
            partitions: (0..parallelism)
                .map(|_| Partition { running: Vec::new(), next_attempt: 0, output: NO_OUTPUT })
                .collect(),
            locality: None,
            durations: Vec::new(),
        }
    }

    /// Sets the preferred slots (those holding upstream outputs), with
    /// their node and rack projections, so per-slot locality lookups need
    /// no scan over the preference set. An empty set leaves the phase
    /// without a preference.
    pub fn with_preferred(mut self, preferred: BTreeSet<SlotId>, spec: &ClusterSpec) -> Self {
        self.locality =
            (!preferred.is_empty()).then(|| Box::new(LocalityView::new(&preferred, spec)));
        self
    }

    /// The locality level `slot` offers this phase's tasks — pointwise
    /// equal to [`ssr_cluster::locality::level_for`] over
    /// [`preferred`](Self::preferred), but answered by at most three bit
    /// tests instead of scanning the preference set.
    pub fn level_on(&self, spec: &ClusterSpec, slot: SlotId) -> LocalityLevel {
        match &self.locality {
            Some(view) => view.level(spec, slot),
            None => LocalityLevel::ProcessLocal,
        }
    }

    /// The lowest preferred slot that is set in `slots` and passes
    /// `fits`, where `slots` is a bitset over slot ids laid out as
    /// [`SlotPool::free_bits`]; `None` without a preference. Equal to the
    /// minimum of [`preferred`](Self::preferred) filtered by membership
    /// and `fits`, but tests 64 preferred slots per word instead of one.
    ///
    /// [`SlotPool::free_bits`]: ssr_cluster::SlotPool::free_bits
    #[inline]
    pub(crate) fn first_preferred_in(
        &self,
        slots: &[u64],
        fits: impl FnMut(SlotId) -> bool,
    ) -> Option<SlotId> {
        self.locality.as_ref()?.first_slot_in(slots, fits)
    }

    /// The owning job.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The phase this set belongs to.
    pub fn stage(&self) -> StageId {
        self.stage
    }

    /// When the phase's barrier cleared: the start of delay scheduling's
    /// wait and of §IV-B's reservation deadline.
    pub fn ready_since(&self) -> SimTime {
        self.ready_since
    }

    /// The preferred slots of this phase's tasks, in ascending order.
    pub fn preferred(&self) -> &[SlotId] {
        self.locality.as_ref().map_or(&[], |v| &v.slots)
    }

    /// The nodes hosting preferred slots, in ascending order.
    pub fn pref_nodes(&self) -> &[NodeId] {
        self.locality.as_ref().map_or(&[], |v| &v.nodes)
    }

    /// The racks hosting preferred slots, in ascending order.
    pub fn pref_racks(&self) -> &[RackId] {
        self.locality.as_ref().map_or(&[], |v| &v.racks)
    }

    /// Number of tasks not yet launched (originals only).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// `true` if at least one original task awaits launch.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Durations (seconds) of the instances that finished a partition, in
    /// finish order. The first is §IV-B's online estimate of the Pareto
    /// scale `t_m`.
    pub fn durations(&self) -> &[f64] {
        &self.durations
    }

    /// The slots holding the outputs of the finished partitions, in
    /// partition order: each is the slot of the instance that won its
    /// partition.
    pub fn output_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.partitions.iter().filter(|p| p.finished()).map(|p| SlotId::new(p.output))
    }

    /// Number of partitions whose first finish has been recorded.
    pub fn finished_count(&self) -> u32 {
        self.durations.len() as u32
    }

    /// Total tasks (partitions) in the phase.
    pub fn parallelism(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// `true` once every partition has finished.
    pub fn is_complete(&self) -> bool {
        self.finished_count() == self.parallelism()
    }

    /// Partitions that are running and have exactly one live instance (no
    /// copy yet), in ascending partition order: the candidates for
    /// straggler copies (§IV-C). Allocates nothing, so the offer-round
    /// paths can use it (`tests/offer_round_allocations.rs`).
    pub fn copy_candidate_iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.partitions
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.finished() && p.running.len() == 1)
            .map(|(i, _)| i as u32)
    }

    /// Partitions with at least one live instance and no finish yet.
    pub fn ongoing_count(&self) -> usize {
        self.partitions.iter().filter(|p| !p.finished() && !p.running.is_empty()).count()
    }

    /// The single running instance of `partition`, if it is ongoing with
    /// exactly one live instance (i.e. a
    /// [`copy_candidate_iter`](Self::copy_candidate_iter) item).
    pub fn sole_running_instance(&self, partition: u32) -> Option<(TaskInstance, SlotId)> {
        let p = self.partitions.get(partition as usize)?;
        if p.finished() || p.running.len() != 1 {
            None
        } else {
            Some(p.running[0])
        }
    }

    /// Launches the next pending original task on `slot`; returns `None`
    /// if no original is pending.
    pub fn launch_next(&mut self, slot: SlotId) -> Option<TaskInstance> {
        let partition = self.pending.pop()?;
        Some(self.launch_instance(partition, slot))
    }

    /// Launches a speculative copy of `partition` on `slot` (§IV-C).
    ///
    /// # Panics
    ///
    /// Panics if the partition is finished, not yet running, or out of
    /// range — copies are only valid for ongoing tasks.
    pub fn launch_copy(&mut self, partition: u32, slot: SlotId) -> TaskInstance {
        let p = &self.partitions[partition as usize];
        assert!(!p.finished(), "cannot copy a finished partition");
        assert!(!p.running.is_empty(), "cannot copy a partition that is not running");
        self.launch_instance(partition, slot)
    }

    fn launch_instance(&mut self, partition: u32, slot: SlotId) -> TaskInstance {
        let p = &mut self.partitions[partition as usize];
        let instance = TaskInstance {
            task: TaskId::new(self.job, self.stage, partition),
            attempt: p.next_attempt,
        };
        p.next_attempt += 1;
        p.running.push((instance, slot));
        instance
    }

    /// Records that `instance` finished after running for `duration`;
    /// returns whether it won its partition and which sibling instances
    /// must be killed. A winner's slot becomes the partition's output
    /// slot and its duration joins [`durations`](Self::durations).
    ///
    /// # Panics
    ///
    /// Panics if the instance is not currently running in this set.
    pub fn instance_finished(
        &mut self,
        instance: TaskInstance,
        duration: SimDuration,
    ) -> InstanceOutcome {
        let p = &mut self.partitions[instance.task.partition as usize];
        let idx = p
            .running
            .iter()
            .position(|(i, _)| *i == instance)
            .unwrap_or_else(|| panic!("{instance} is not running"));
        let (_, slot) = p.running.swap_remove(idx);
        let first_finish = !p.finished();
        let losers = std::mem::take(&mut p.running);
        if first_finish {
            p.output = slot.as_u32();
            self.durations.push(duration.as_secs_f64());
        }
        InstanceOutcome { first_finish, losers }
    }

    /// Removes `instance` after its slot was lost to a fault. If the
    /// partition has not finished and this was its last live instance, the
    /// partition goes back onto the pending queue for relaunch (attempt
    /// numbers keep increasing, so a late finish of the lost instance can
    /// never be confused with the relaunch). Returns `true` when the
    /// partition was re-queued.
    ///
    /// An instance this set is not tracking is ignored (returns `false`):
    /// crashes arrive from fault injection, which must not escalate into
    /// a scheduler panic.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn instance_crashed(&mut self, instance: TaskInstance) -> bool {
        let partition = instance.task.partition;
        let Some(p) = self.partitions.get_mut(partition as usize) else { return false };
        let Some(idx) = p.running.iter().position(|(i, _)| *i == instance) else {
            return false;
        };
        p.running.swap_remove(idx);
        if !p.finished() && p.running.is_empty() {
            self.pending.push(partition);
            true
        } else {
            false
        }
    }

    /// Removes `instance` from the running set without finishing its
    /// partition (the instance was killed). An instance this set is not
    /// tracking is ignored, as in [`instance_crashed`].
    ///
    /// [`instance_crashed`]: TaskSetManager::instance_crashed
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn instance_killed(&mut self, instance: TaskInstance) {
        let Some(p) = self.partitions.get_mut(instance.task.partition as usize) else { return };
        if let Some(idx) = p.running.iter().position(|(i, _)| *i == instance) {
            p.running.swap_remove(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECOND: SimDuration = SimDuration::from_secs(1);

    fn tsm(parallelism: u32) -> TaskSetManager {
        TaskSetManager::new(JobId::new(1), StageId::new(0), parallelism, SimTime::ZERO)
    }

    #[test]
    fn launches_partitions_in_order() {
        let mut t = tsm(3);
        assert_eq!(t.launch_next(SlotId::new(0)).unwrap().task.partition, 0);
        assert_eq!(t.launch_next(SlotId::new(1)).unwrap().task.partition, 1);
        assert_eq!(t.launch_next(SlotId::new(2)).unwrap().task.partition, 2);
        assert!(t.launch_next(SlotId::new(3)).is_none());
        assert_eq!(t.pending_count(), 0);
        assert_eq!(t.ongoing_count(), 3);
    }

    #[test]
    fn completion_tracking() {
        let mut t = tsm(2);
        let a = t.launch_next(SlotId::new(0)).unwrap();
        let b = t.launch_next(SlotId::new(1)).unwrap();
        assert!(!t.is_complete());
        assert!(t.instance_finished(a, SECOND).first_finish);
        assert_eq!(t.finished_count(), 1);
        assert!(t.instance_finished(b, SECOND).first_finish);
        assert!(t.is_complete());
    }

    #[test]
    fn copy_race_first_finish_wins_and_kills_loser() {
        let mut t = tsm(1);
        let original = t.launch_next(SlotId::new(0)).unwrap();
        let copy = t.launch_copy(0, SlotId::new(1));
        assert_eq!(copy.attempt, 1);
        assert!(copy.is_copy());
        assert!(!original.is_copy());

        let outcome = t.instance_finished(copy, SECOND);
        assert!(outcome.first_finish);
        assert_eq!(outcome.losers, vec![(original, SlotId::new(0))]);
        assert!(t.is_complete());
    }

    #[test]
    fn winning_copy_slot_becomes_partition_output() {
        let mut t = tsm(1);
        let _original = t.launch_next(SlotId::new(0)).unwrap();
        let copy = t.launch_copy(0, SlotId::new(9));
        t.instance_finished(copy, SECOND);
        // The winning copy's slot, not the original's, holds the output.
        assert_eq!(t.output_slots().collect::<Vec<_>>(), vec![SlotId::new(9)]);
    }

    #[test]
    fn fresh_task_set_has_no_output_slots_or_durations() {
        let mut t = tsm(2);
        assert!(t.durations().is_empty());
        assert_eq!(t.output_slots().next(), None);
        // A launched but unfinished partition holds no output either.
        t.launch_next(SlotId::new(3)).unwrap();
        assert!(t.durations().is_empty());
        assert_eq!(t.output_slots().next(), None);
    }

    #[test]
    fn winners_record_durations_and_output_slots() {
        let mut t = tsm(3);
        let a = t.launch_next(SlotId::new(4)).unwrap();
        let b = t.launch_next(SlotId::new(2)).unwrap();
        let _c = t.launch_next(SlotId::new(7)).unwrap();
        t.instance_finished(b, SimDuration::from_secs(4));
        // A later finisher is recorded after, even if shorter.
        t.instance_finished(a, SimDuration::from_secs(2));
        assert_eq!(t.durations(), &[4.0, 2.0]);
        // Partition 2 never finished: it has no output slot.
        assert_eq!(t.output_slots().collect::<Vec<_>>(), vec![SlotId::new(4), SlotId::new(2)]);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn partition_stays_32_bytes() {
        assert_eq!(std::mem::size_of::<Partition>(), 32);
    }

    #[test]
    fn original_can_beat_copy() {
        let mut t = tsm(1);
        let original = t.launch_next(SlotId::new(0)).unwrap();
        let copy = t.launch_copy(0, SlotId::new(1));
        let outcome = t.instance_finished(original, SECOND);
        assert!(outcome.first_finish);
        assert_eq!(outcome.losers, vec![(copy, SlotId::new(1))]);
    }

    #[test]
    fn copy_candidates_excludes_copied_and_finished() {
        let mut t = tsm(3);
        let a = t.launch_next(SlotId::new(0)).unwrap();
        let _b = t.launch_next(SlotId::new(1)).unwrap();
        assert_eq!(t.copy_candidate_iter().collect::<Vec<_>>(), vec![0, 1]); // partition 2 not launched
        t.launch_copy(1, SlotId::new(2));
        assert_eq!(t.copy_candidate_iter().collect::<Vec<_>>(), vec![0]); // 1 already has a copy
        t.instance_finished(a, SECOND);
        assert_eq!(t.copy_candidate_iter().next(), None);
    }

    #[test]
    fn killed_instance_leaves_partition_unfinished() {
        let mut t = tsm(1);
        let original = t.launch_next(SlotId::new(0)).unwrap();
        let copy = t.launch_copy(0, SlotId::new(1));
        t.instance_killed(copy);
        assert!(!t.is_complete());
        assert_eq!(t.ongoing_count(), 1);
        let outcome = t.instance_finished(original, SECOND);
        assert!(outcome.first_finish);
        assert!(outcome.losers.is_empty());
    }

    #[test]
    fn crashed_sole_instance_requeues_its_partition() {
        let mut t = tsm(2);
        let a = t.launch_next(SlotId::new(0)).unwrap();
        let _b = t.launch_next(SlotId::new(1)).unwrap();
        assert!(!t.has_pending());
        assert!(t.instance_crashed(a), "last live instance re-queues");
        assert_eq!(t.pending_count(), 1);
        assert!(!t.is_complete());
        // The relaunch is a fresh attempt of the same partition.
        let retry = t.launch_next(SlotId::new(2)).expect("re-queued partition");
        assert_eq!(retry.task.partition, 0);
        assert_eq!(retry.attempt, 1);
    }

    #[test]
    fn crashed_instance_with_live_copy_does_not_requeue() {
        let mut t = tsm(1);
        let original = t.launch_next(SlotId::new(0)).unwrap();
        let copy = t.launch_copy(0, SlotId::new(1));
        assert!(!t.instance_crashed(original), "copy still racing");
        assert!(!t.has_pending());
        let outcome = t.instance_finished(copy, SECOND);
        assert!(outcome.first_finish);
        assert!(t.is_complete());
    }

    #[test]
    fn crashed_copy_leaves_original_racing() {
        let mut t = tsm(1);
        let original = t.launch_next(SlotId::new(0)).unwrap();
        let copy = t.launch_copy(0, SlotId::new(1));
        assert!(!t.instance_crashed(copy), "original still running");
        assert!(!t.has_pending());
        let outcome = t.instance_finished(original, SECOND);
        assert!(outcome.first_finish);
        assert!(outcome.losers.is_empty());
        assert!(t.is_complete());
    }

    #[test]
    fn crash_of_untracked_instance_is_ignored() {
        // A fault event naming an instance this set is not tracking (a
        // stale attempt, or a partition out of range) must be a no-op,
        // not a panic: crashes originate outside the scheduler's own
        // bookkeeping.
        let mut t = tsm(1);
        let original = t.launch_next(SlotId::new(0)).unwrap();
        let stale = TaskInstance { task: original.task, attempt: original.attempt + 7 };
        assert!(!t.instance_crashed(stale), "stale attempt ignored");
        let out_of_range = TaskInstance {
            task: TaskId::new(JobId::new(1), StageId::new(0), 99),
            attempt: 0,
        };
        assert!(!t.instance_crashed(out_of_range), "unknown partition ignored");
        // The tracked instance is untouched by the ignored crashes.
        assert!(t.instance_finished(original, SECOND).first_finish);
        assert!(t.is_complete());
    }

    #[test]
    #[should_panic(expected = "is not running")]
    fn finishing_unknown_instance_panics() {
        let mut t = tsm(1);
        let phantom = TaskInstance {
            task: TaskId::new(JobId::new(1), StageId::new(0), 0),
            attempt: 5,
        };
        t.instance_finished(phantom, SECOND);
    }

    #[test]
    #[should_panic(expected = "cannot copy a finished partition")]
    fn copying_finished_partition_panics() {
        let mut t = tsm(1);
        let a = t.launch_next(SlotId::new(0)).unwrap();
        t.instance_finished(a, SECOND);
        t.launch_copy(0, SlotId::new(1));
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn copying_unlaunched_partition_panics() {
        let mut t = tsm(1);
        t.launch_copy(0, SlotId::new(1));
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_parallelism_panics() {
        tsm(0);
    }

    #[test]
    fn preferred_slots_attach() {
        let spec = ClusterSpec::new(1, 8).unwrap();
        let preferred: BTreeSet<SlotId> = [SlotId::new(4)].into_iter().collect();
        let t = tsm(1).with_preferred(preferred, &spec);
        assert_eq!(t.preferred(), &[SlotId::new(4)]);
    }

    #[test]
    fn level_on_matches_the_reference_scan() {
        // 4 nodes x 2 slots, racks of 2 nodes — same fixture as the
        // locality tests.
        let spec = ClusterSpec::with_racks(4, 2, 2).unwrap();
        let preferred: BTreeSet<SlotId> = [SlotId::new(0)].into_iter().collect();
        assert_view_matches_set(&spec, &preferred);
        // No preference: process-local everywhere.
        let free = tsm(1);
        assert_eq!(free.level_on(&spec, SlotId::new(5)), LocalityLevel::ProcessLocal);
    }

    /// A topology whose slot, node and rack counts are none of them
    /// multiples of 64, so every bitset section ends mid-word, with 1–4
    /// slots per node and several racks.
    fn ragged_topology(nodes: u32, per_node: u32, per_rack: u32) -> ClusterSpec {
        let mut nodes = nodes;
        loop {
            let spec = ClusterSpec::with_racks(nodes, per_node, per_rack).unwrap();
            if [spec.total_slots(), spec.nodes(), spec.racks()].iter().all(|n| n % 64 != 0) {
                return spec;
            }
            nodes += 1;
        }
    }

    /// Asserts the dense view of `preferred` against `level_for` over
    /// the ordered set for every slot, and its slices against the set's
    /// projections in the sets' (ascending) order.
    fn assert_view_matches_set(spec: &ClusterSpec, preferred: &BTreeSet<SlotId>) {
        let t = tsm(1).with_preferred(preferred.clone(), spec);
        for slot in spec.iter_slots() {
            assert_eq!(
                t.level_on(spec, slot),
                ssr_cluster::locality::level_for(spec, preferred, slot),
                "slot {slot}"
            );
        }
        let nodes: BTreeSet<NodeId> = preferred.iter().map(|&s| spec.node_of(s)).collect();
        let racks: BTreeSet<RackId> = nodes.iter().map(|&n| spec.rack_of(n)).collect();
        assert_eq!(t.preferred(), preferred.iter().copied().collect::<Vec<_>>());
        assert_eq!(t.pref_nodes(), nodes.into_iter().collect::<Vec<_>>());
        assert_eq!(t.pref_racks(), racks.into_iter().collect::<Vec<_>>());
    }

    proptest::proptest! {
        /// The dense view answers exactly what `level_for` answers over
        /// the ordered set, on ragged topologies, for random preferred
        /// sets and for the empty one.
        #[test]
        fn dense_level_on_matches_level_for(
            shape in (1u32..300, 1u32..5, 1u32..40),
            picks in proptest::collection::vec(0u32..1_000_000, 0..64),
        ) {
            let spec = ragged_topology(shape.0, shape.1, shape.2);
            let preferred: BTreeSet<SlotId> =
                picks.iter().map(|p| SlotId::new(p % spec.total_slots())).collect();
            assert_view_matches_set(&spec, &preferred);
            assert_view_matches_set(&spec, &BTreeSet::new());
        }
    }

    /// The process-local search as it read before the word-wise one: a
    /// filter over every preferred slot, then the minimum.
    fn process_local_reference(
        t: &TaskSetManager,
        pool: &ssr_cluster::SlotPool,
        demand: u32,
    ) -> Option<SlotId> {
        t.preferred()
            .iter()
            .copied()
            .filter(|&s| pool.is_free_in_service(s) && pool.size(s) >= demand)
            .min()
    }

    proptest::proptest! {
        /// The word-wise process-local search returns the reference's
        /// slot, on clusters whose slot counts end mid-word, uniform and
        /// sized, for random preferred sets and random free sets (slots
        /// running, reserved or out of service drop out of the free set).
        #[test]
        fn word_wise_process_local_matches_the_reference(
            shape in 0usize..3,
            sized in 0u32..2,
            picks in proptest::collection::vec(0u32..1_000_000, 0..300),
            taken in proptest::collection::vec((0u32..1_000_000, 0u32..3), 0..3000),
            demand in 1u32..4,
        ) {
            // 100, 130 and 4000 slots: node bits begin mid-word in each.
            let (nodes, per_node) = [(25, 4), (65, 2), (1000, 4)][shape];
            let mut spec = ClusterSpec::with_racks(nodes, per_node, 20).unwrap();
            if sized == 1 {
                spec = spec.with_slot_sizing(1, 3, 3);
            }
            let total = spec.total_slots();
            let mut pool = ssr_cluster::SlotPool::new(&spec);
            for &(pick, how) in &taken {
                let slot = SlotId::new(pick % total);
                let _ = match how {
                    0 => pool.assign(slot, TaskId::new(JobId::new(9), StageId::new(0), 0)),
                    1 => pool.reserve(
                        slot,
                        ssr_cluster::Reservation::new(JobId::new(9), ssr_dag::Priority::new(1)),
                    ),
                    _ => pool.take_offline(slot).map(|_| ()),
                };
            }
            let preferred: BTreeSet<SlotId> =
                picks.iter().map(|p| SlotId::new(p % total)).collect();
            let t = tsm(1).with_preferred(preferred, &spec);
            let fits = |s: SlotId| pool.size(s) >= demand;
            proptest::prop_assert_eq!(
                t.first_preferred_in(pool.free_bits(), fits),
                process_local_reference(&t, &pool, demand)
            );
            // Against a set with every bit on, past the last slot too,
            // only preferred slots come back: the node bits that share
            // the last slot word are masked off.
            let everything = vec![u64::MAX; pool.free_bits().len() + 1];
            proptest::prop_assert_eq!(
                t.first_preferred_in(&everything, fits),
                t.preferred().iter().copied().find(|&s| fits(s))
            );
        }
    }

    #[test]
    fn attempts_increment_per_partition() {
        let mut t = tsm(1);
        let a = t.launch_next(SlotId::new(0)).unwrap();
        assert_eq!(a.attempt, 0);
        let c1 = t.launch_copy(0, SlotId::new(1));
        assert_eq!(c1.attempt, 1);
        t.instance_killed(c1);
        let c2 = t.launch_copy(0, SlotId::new(2));
        assert_eq!(c2.attempt, 2);
        assert_eq!(format!("{c2}"), "job-1/stage-0/task-0#2");
    }
}
