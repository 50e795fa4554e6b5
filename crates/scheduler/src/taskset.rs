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
use ssr_simcore::SimTime;

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
    finished: bool,
}

/// Manages the execution of all parallel tasks within one phase.
///
/// # Example
///
/// ```
/// use ssr_scheduler::TaskSetManager;
/// use ssr_cluster::SlotId;
/// use ssr_dag::{JobId, StageId};
/// use ssr_simcore::SimTime;
///
/// let mut tsm = TaskSetManager::new(JobId::new(1), StageId::new(0), 2, SimTime::ZERO);
/// let a = tsm.launch_next(SlotId::new(0)).expect("two tasks pending");
/// let b = tsm.launch_next(SlotId::new(1)).expect("one task pending");
/// assert!(tsm.launch_next(SlotId::new(2)).is_none());
///
/// let outcome = tsm.instance_finished(a);
/// assert!(outcome.first_finish);
/// assert!(!tsm.is_complete());
/// let outcome = tsm.instance_finished(b);
/// assert!(tsm.is_complete());
/// assert!(outcome.losers.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TaskSetManager {
    job: JobId,
    stage: StageId,
    ready_since: SimTime,
    pending: Vec<u32>,
    partitions: Vec<Partition>,
    preferred: BTreeSet<SlotId>,
    pref_nodes: BTreeSet<NodeId>,
    pref_racks: BTreeSet<RackId>,
    finished_count: u32,
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
                .map(|_| Partition { running: Vec::new(), next_attempt: 0, finished: false })
                .collect(),
            preferred: BTreeSet::new(),
            pref_nodes: BTreeSet::new(),
            pref_racks: BTreeSet::new(),
            finished_count: 0,
        }
    }

    /// Sets the preferred slots (those holding upstream outputs), caching
    /// their node and rack projections so per-slot locality lookups need
    /// no scan over the preference set. The set is ordered, so every
    /// walk over it happens in ascending slot order.
    pub fn with_preferred(mut self, preferred: BTreeSet<SlotId>, spec: &ClusterSpec) -> Self {
        self.pref_nodes = preferred.iter().map(|&s| spec.node_of(s)).collect();
        self.pref_racks = self.pref_nodes.iter().map(|&n| spec.rack_of(n)).collect();
        self.preferred = preferred;
        self
    }

    /// The locality level `slot` offers this phase's tasks — pointwise
    /// equal to [`ssr_cluster::locality::level_for`] over
    /// [`preferred`](Self::preferred), but answered from the cached node
    /// and rack projections instead of scanning the preference set.
    pub fn level_on(&self, spec: &ClusterSpec, slot: SlotId) -> LocalityLevel {
        if self.preferred.is_empty() || self.preferred.contains(&slot) {
            return LocalityLevel::ProcessLocal;
        }
        let node = spec.node_of(slot);
        if self.pref_nodes.contains(&node) {
            return LocalityLevel::NodeLocal;
        }
        if self.pref_racks.contains(&spec.rack_of(node)) {
            return LocalityLevel::RackLocal;
        }
        LocalityLevel::Any
    }

    /// The owning job.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The phase this set belongs to.
    pub fn stage(&self) -> StageId {
        self.stage
    }

    /// When the phase's barrier cleared (for delay scheduling).
    pub fn ready_since(&self) -> SimTime {
        self.ready_since
    }

    /// The preferred slots of this phase's tasks.
    pub fn preferred(&self) -> &BTreeSet<SlotId> {
        &self.preferred
    }

    /// The nodes hosting preferred slots, in ascending order.
    pub fn pref_nodes(&self) -> &BTreeSet<NodeId> {
        &self.pref_nodes
    }

    /// The racks hosting preferred slots, in ascending order.
    pub fn pref_racks(&self) -> &BTreeSet<RackId> {
        &self.pref_racks
    }

    /// Number of tasks not yet launched (originals only).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// `true` if at least one original task awaits launch.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Number of partitions whose first finish has been recorded.
    pub fn finished_count(&self) -> u32 {
        self.finished_count
    }

    /// Total tasks (partitions) in the phase.
    pub fn parallelism(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// `true` once every partition has finished.
    pub fn is_complete(&self) -> bool {
        self.finished_count == self.parallelism()
    }

    /// Partitions that are running and have exactly one live instance (no
    /// copy yet) — the candidates for straggler copies (§IV-C).
    pub fn copy_candidates(&self) -> Vec<u32> {
        self.copy_candidate_iter().collect()
    }

    /// Iterator form of [`copy_candidates`], in ascending partition
    /// order — the offer-round paths use this to stay allocation-free
    /// (A001).
    ///
    /// [`copy_candidates`]: TaskSetManager::copy_candidates
    pub fn copy_candidate_iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.partitions
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.finished && p.running.len() == 1)
            .map(|(i, _)| i as u32)
    }

    /// Partitions with at least one live instance and no finish yet.
    pub fn ongoing_count(&self) -> usize {
        self.partitions.iter().filter(|p| !p.finished && !p.running.is_empty()).count()
    }

    /// The single running instance of `partition`, if it is ongoing with
    /// exactly one live instance (i.e. a [`copy_candidate`]).
    ///
    /// [`copy_candidate`]: TaskSetManager::copy_candidates
    pub fn sole_running_instance(&self, partition: u32) -> Option<(TaskInstance, SlotId)> {
        let p = self.partitions.get(partition as usize)?;
        if p.finished || p.running.len() != 1 {
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
        assert!(!p.finished, "cannot copy a finished partition");
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

    /// Records that `instance` finished; returns whether it won its
    /// partition and which sibling instances must be killed.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not currently running in this set.
    pub fn instance_finished(&mut self, instance: TaskInstance) -> InstanceOutcome {
        let p = &mut self.partitions[instance.task.partition as usize];
        let idx = p
            .running
            .iter()
            .position(|(i, _)| *i == instance)
            .unwrap_or_else(|| panic!("{instance} is not running"));
        p.running.swap_remove(idx);
        let first_finish = !p.finished;
        p.finished = true;
        let losers = std::mem::take(&mut p.running);
        if first_finish {
            self.finished_count += 1;
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
    /// Unlike [`instance_killed`] — whose callers hold a kill list that
    /// came from this very set — crashes arrive from fault injection,
    /// so an instance this set is not tracking is ignored (returns
    /// `false`) rather than escalating the fault into a scheduler panic
    /// (P001).
    ///
    /// [`instance_killed`]: TaskSetManager::instance_killed
    pub fn instance_crashed(&mut self, instance: TaskInstance) -> bool {
        let partition = instance.task.partition;
        let Some(p) = self.partitions.get_mut(partition as usize) else { return false };
        let Some(idx) = p.running.iter().position(|(i, _)| *i == instance) else {
            return false;
        };
        p.running.swap_remove(idx);
        if !p.finished && p.running.is_empty() {
            self.pending.push(partition);
            true
        } else {
            false
        }
    }

    /// Removes `instance` from the running set without finishing its
    /// partition (the instance was killed).
    ///
    /// # Panics
    ///
    /// Panics if the instance is not currently running in this set.
    pub fn instance_killed(&mut self, instance: TaskInstance) {
        let p = &mut self.partitions[instance.task.partition as usize];
        let idx = p
            .running
            .iter()
            .position(|(i, _)| *i == instance)
            .unwrap_or_else(|| panic!("{instance} is not running"));
        p.running.swap_remove(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(t.instance_finished(a).first_finish);
        assert_eq!(t.finished_count(), 1);
        assert!(t.instance_finished(b).first_finish);
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

        let outcome = t.instance_finished(copy);
        assert!(outcome.first_finish);
        assert_eq!(outcome.losers, vec![(original, SlotId::new(0))]);
        assert!(t.is_complete());
    }

    #[test]
    fn original_can_beat_copy() {
        let mut t = tsm(1);
        let original = t.launch_next(SlotId::new(0)).unwrap();
        let copy = t.launch_copy(0, SlotId::new(1));
        let outcome = t.instance_finished(original);
        assert!(outcome.first_finish);
        assert_eq!(outcome.losers, vec![(copy, SlotId::new(1))]);
    }

    #[test]
    fn copy_candidates_excludes_copied_and_finished() {
        let mut t = tsm(3);
        let a = t.launch_next(SlotId::new(0)).unwrap();
        let _b = t.launch_next(SlotId::new(1)).unwrap();
        assert_eq!(t.copy_candidates(), vec![0, 1]); // partition 2 not launched
        t.launch_copy(1, SlotId::new(2));
        assert_eq!(t.copy_candidates(), vec![0]); // 1 already has a copy
        t.instance_finished(a);
        assert!(t.copy_candidates().is_empty());
    }

    #[test]
    fn killed_instance_leaves_partition_unfinished() {
        let mut t = tsm(1);
        let original = t.launch_next(SlotId::new(0)).unwrap();
        let copy = t.launch_copy(0, SlotId::new(1));
        t.instance_killed(copy);
        assert!(!t.is_complete());
        assert_eq!(t.ongoing_count(), 1);
        let outcome = t.instance_finished(original);
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
        let outcome = t.instance_finished(copy);
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
        let outcome = t.instance_finished(original);
        assert!(outcome.first_finish);
        assert!(outcome.losers.is_empty());
        assert!(t.is_complete());
    }

    #[test]
    fn crash_of_untracked_instance_is_ignored() {
        // A fault event naming an instance this set is not tracking (a
        // stale attempt, or a partition out of range) must be a no-op,
        // not a panic: crashes originate outside the scheduler's own
        // bookkeeping. Before the P001 audit this panicked.
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
        assert!(t.instance_finished(original).first_finish);
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
        t.instance_finished(phantom);
    }

    #[test]
    #[should_panic(expected = "cannot copy a finished partition")]
    fn copying_finished_partition_panics() {
        let mut t = tsm(1);
        let a = t.launch_next(SlotId::new(0)).unwrap();
        t.instance_finished(a);
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
        let t = tsm(1).with_preferred(preferred.clone(), &spec);
        assert_eq!(t.preferred(), &preferred);
    }

    #[test]
    fn level_on_matches_the_reference_scan() {
        // 4 nodes x 2 slots, racks of 2 nodes — same fixture as the
        // locality tests.
        let spec = ClusterSpec::with_racks(4, 2, 2).unwrap();
        let preferred: BTreeSet<SlotId> = [SlotId::new(0)].into_iter().collect();
        let t = tsm(1).with_preferred(preferred.clone(), &spec);
        for slot in spec.iter_slots() {
            assert_eq!(
                t.level_on(&spec, slot),
                ssr_cluster::locality::level_for(&spec, &preferred, slot),
                "slot {slot}"
            );
        }
        // No preference: process-local everywhere.
        let free = tsm(1);
        assert_eq!(free.level_on(&spec, SlotId::new(5)), LocalityLevel::ProcessLocal);
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
