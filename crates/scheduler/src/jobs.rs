//! Per-job scheduler state: per-phase task sets, which hold each phase's
//! barrier state, runtime statistics and output slots.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ssr_cluster::SlotId;
use ssr_dag::{JobId, JobSpec, Priority, StageId};
use ssr_simcore::{SimDuration, SimTime};

use crate::taskset::{InstanceOutcome, TaskInstance, TaskSetManager};

/// All scheduler-side state of one admitted job.
///
/// A phase's task set is its barrier state, as in Spark's DAGScheduler
/// (paper §II-A, §V): a phase is *blocked* until it has a task set, which
/// the scheduler creates once every parent phase has finished, *ready*
/// while that task set has unfinished partitions, and *complete* once all
/// have finished. The task set also keeps the phase's ready time, its
/// winners' durations and its output slots, from which the phases it
/// feeds take their preferred slots.
#[derive(Debug, Clone)]
pub struct JobState {
    id: JobId,
    spec: JobSpec,
    tsms: BTreeMap<StageId, TaskSetManager>,
    submitted_at: SimTime,
    completed_at: Option<SimTime>,
    /// Slots currently running an instance (original or copy) of this job.
    running: usize,
}

impl JobState {
    pub(crate) fn new(id: JobId, spec: JobSpec, submitted_at: SimTime) -> Self {
        JobState {
            id,
            spec,
            tsms: BTreeMap::new(),
            submitted_at,
            completed_at: None,
            running: 0,
        }
    }

    /// The job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's specification.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The scheduling priority.
    pub fn priority(&self) -> Priority {
        self.spec.priority()
    }

    /// Submission time.
    pub fn submitted_at(&self) -> SimTime {
        self.submitted_at
    }

    /// Completion time, once the final phase finished.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// `true` once every phase has completed.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Number of slots currently running an instance of this job —
    /// originals and copies alike; 0 once the job has drained.
    pub fn running_count(&self) -> usize {
        self.running
    }

    /// The task-set manager of `stage`, if the phase has become ready.
    pub fn taskset(&self, stage: StageId) -> Option<&TaskSetManager> {
        self.tsms.get(&stage)
    }

    /// Number of `stage`'s partitions that have finished — 0 while the
    /// phase is blocked. A partition counts once, on its first finish.
    pub fn completed_tasks(&self, stage: StageId) -> u32 {
        self.tsms.get(&stage).map_or(0, TaskSetManager::finished_count)
    }

    /// Fraction of `stage`'s partitions that have finished, in `[0, 1]` —
    /// the quantity compared against the pre-reservation threshold `R` in
    /// Algorithm 1 (line 16).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range for this job.
    pub fn finished_fraction(&self, stage: StageId) -> f64 {
        self.completed_tasks(stage) as f64 / self.spec.stage(stage).parallelism() as f64
    }

    /// `true` once every phase's task set has finished, whether or not
    /// the job has been marked completed yet.
    pub(crate) fn all_stages_complete(&self) -> bool {
        self.tsms.len() == self.spec.stages().len() && self.tsms.values().all(TaskSetManager::is_complete)
    }

    /// The phases whose barrier `stage` cleared: once `stage` is complete,
    /// each child that has no task set yet and whose parents have all
    /// finished, in [`JobSpec::children`] order. Empty while `stage` has
    /// unfinished partitions.
    pub(crate) fn cleared_by(&self, stage: StageId) -> Vec<StageId> {
        if !self.tsms.get(&stage).is_some_and(TaskSetManager::is_complete) {
            return Vec::new();
        }
        self.spec
            .children(stage)
            .iter()
            .copied()
            .filter(|child| {
                !self.tsms.contains_key(child)
                    && self
                        .spec
                        .parents(*child)
                        .iter()
                        .all(|p| self.tsms.get(p).is_some_and(TaskSetManager::is_complete))
            })
            .collect()
    }

    /// The preferred slots of `stage`'s tasks: the slots holding its
    /// parents' outputs, in ascending order. A shuffle dependency reads
    /// every upstream partition, so this is the union over all parents
    /// (§II-B, §V); a parent partition that has not finished adds none.
    pub(crate) fn preferred_slots(&self, stage: StageId) -> BTreeSet<SlotId> {
        self.spec
            .parents(stage)
            .iter()
            .filter_map(|p| self.tsms.get(p))
            .flat_map(TaskSetManager::output_slots)
            .collect()
    }

    /// Task sets of phases that are ready and still have unfinished tasks,
    /// in stage order.
    pub fn active_tasksets(&self) -> impl Iterator<Item = &TaskSetManager> {
        self.tsms.values().filter(|t| !t.is_complete())
    }

    /// `true` if some ready phase has an unlaunched original task.
    pub fn has_pending_tasks(&self) -> bool {
        self.active_tasksets().any(|t| t.has_pending())
    }

    /// The task set of `stage` if that phase is ready, unfinished and has
    /// an unlaunched original task — one element of
    /// [`active_tasksets`](Self::active_tasksets) filtered by
    /// `has_pending`, looked up directly.
    pub(crate) fn pending_taskset(&self, stage: StageId) -> Option<&TaskSetManager> {
        self.tsms.get(&stage).filter(|t| t.has_pending() && !t.is_complete())
    }

    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub(crate) fn taskset_mut(&mut self, stage: StageId) -> Option<&mut TaskSetManager> {
        self.tsms.get_mut(&stage)
    }

    pub(crate) fn insert_taskset(&mut self, tsm: TaskSetManager) {
        self.tsms.insert(tsm.stage(), tsm);
    }

    pub(crate) fn mark_complete(&mut self, at: SimTime) {
        self.completed_at = Some(at);
    }
}

/// The set of jobs known to the scheduler, iterated in deterministic
/// (job-id) order.
///
/// Jobs live in a table indexed by [`JobId`]: the scheduler hands out
/// ids 0, 1, 2… and never reuses one, so a lookup is an index, not a
/// tree walk. An id that was never admitted is an empty entry (only
/// hand-built fixtures skip ids). Each job also carries its running
/// count, kept by the launch, finish and crash mutations below.
///
/// Besides the jobs themselves it keeps three indexes, each updated by
/// the mutation that can change it, so per-event queries never walk the
/// whole job table:
///
/// - the *pending set*: incomplete jobs with an unlaunched original task
///   (exactly the jobs an offer round may serve);
/// - the *unlock window*: task sets in creation order, from which the
///   scheduler prunes those too old to unlock another locality level;
/// - the count of incomplete jobs.
///
/// Mutations that can change whether a job has pending tasks or how many
/// of its instances run — launching, finishing, a phase becoming ready, a
/// crash re-queue, completion — therefore go through `Jobs`, not through
/// [`JobState`] directly.
#[derive(Debug, Clone, Default)]
pub struct Jobs {
    table: Vec<Option<JobState>>,
    len: usize,
    pending: BTreeSet<JobId>,
    unlock_window: VecDeque<(SimTime, JobId, StageId)>,
    incomplete: usize,
}

impl Jobs {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Jobs::default()
    }

    /// The job with the given id — O(1).
    pub fn get(&self, id: JobId) -> Option<&JobState> {
        self.table.get(index(id)?)?.as_ref()
    }

    /// Iterate over all jobs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &JobState> {
        self.table.iter().flatten()
    }

    /// Number of admitted jobs (completed ones included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no job was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of admitted jobs that have not completed.
    pub(crate) fn incomplete_count(&self) -> usize {
        self.incomplete
    }

    /// Ids of the incomplete jobs with an unlaunched original task, in
    /// ascending order — equal to filtering [`iter`](Self::iter) by
    /// `!is_complete() && has_pending_tasks()`, without the walk.
    pub fn pending_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.pending.iter().copied()
    }

    /// The jobs of [`pending_ids`](Self::pending_ids), in id order.
    pub(crate) fn pending_jobs(&self) -> impl Iterator<Item = &JobState> {
        self.pending.iter().filter_map(|&id| self.get(id))
    }

    /// `true` if `id` is incomplete and has an unlaunched original task.
    pub(crate) fn is_pending(&self, id: JobId) -> bool {
        self.pending.contains(&id)
    }

    /// `(job, stage)` of every task set still in the locality-unlock
    /// window, oldest first. A task set's `ready_since` never changes, so
    /// once one can unlock no further locality level it leaves the window
    /// for good (see [`prune_unlock_window`](Self::prune_unlock_window)).
    pub(crate) fn unlock_window(&self) -> impl Iterator<Item = (JobId, StageId)> + '_ {
        self.unlock_window.iter().map(|&(_, job, stage)| (job, stage))
    }

    /// Drops task sets from the front of the unlock window while
    /// `expired(ready_since)` holds. Entries are in `ready_since` order,
    /// so `expired` must be monotone: once true for an instant it must be
    /// true for every earlier one.
    pub(crate) fn prune_unlock_window(&mut self, expired: impl Fn(SimTime) -> bool) {
        while self.unlock_window.front().is_some_and(|&(since, _, _)| expired(since)) {
            self.unlock_window.pop_front();
        }
    }

    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub(crate) fn get_mut(&mut self, id: JobId) -> Option<&mut JobState> {
        entry_mut(&mut self.table, id)
    }

    /// Admits `state` under its id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not fit a `usize` (the static-pool sentinel
    /// is never admitted).
    pub(crate) fn insert(&mut self, state: JobState) {
        let id = state.id();
        let i = index(id).expect("admitted job ids fit a usize");
        if i >= self.table.len() {
            self.table.resize_with(i + 1, || None);
        }
        debug_assert!(self.table[i].is_none(), "job ids are never reused");
        for tsm in state.tsms.values() {
            self.unlock_window.push_back((tsm.ready_since(), id, tsm.stage()));
        }
        if !state.is_complete() {
            self.incomplete += 1;
        }
        self.table[i] = Some(state);
        self.len += 1;
        self.refresh_pending(id);
    }

    /// Registers the task set of a phase that became ready.
    pub(crate) fn insert_taskset(&mut self, id: JobId, tsm: TaskSetManager) {
        let Some(state) = entry_mut(&mut self.table, id) else { return };
        self.unlock_window.push_back((tsm.ready_since(), id, tsm.stage()));
        state.insert_taskset(tsm);
        self.refresh_pending(id);
    }

    /// Launches the next pending original task of `stage` on `slot`.
    pub(crate) fn launch_next(
        &mut self,
        id: JobId,
        stage: StageId,
        slot: SlotId,
    ) -> Option<TaskInstance> {
        let state = self.get_mut(id)?;
        let tsm = state.tsms.get_mut(&stage)?;
        let instance = tsm.launch_next(slot)?;
        state.running += 1;
        // Only draining this phase can end the job's pending state.
        if !tsm.has_pending() {
            self.refresh_pending(id);
        }
        Some(instance)
    }

    /// Launches a speculative copy of `partition` of `stage` on `slot`
    /// (see [`TaskSetManager::launch_copy`]). Copies never change the
    /// pending set: the partition is already running.
    pub(crate) fn launch_copy(
        &mut self,
        id: JobId,
        stage: StageId,
        partition: u32,
        slot: SlotId,
    ) -> Option<TaskInstance> {
        let state = self.get_mut(id)?;
        let instance = state.tsms.get_mut(&stage)?.launch_copy(partition, slot);
        state.running += 1;
        Some(instance)
    }

    /// Forwards an instance that finished after running for `duration`
    /// to its task set (see [`TaskSetManager::instance_finished`]). The
    /// instance and every losing copy the outcome names stop running; the
    /// caller kills the losers' slots. `None` if the job or its phase is
    /// unknown.
    pub(crate) fn instance_finished(
        &mut self,
        instance: TaskInstance,
        duration: SimDuration,
    ) -> Option<InstanceOutcome> {
        let state = self.get_mut(instance.task.job)?;
        let outcome =
            state.tsms.get_mut(&instance.task.stage)?.instance_finished(instance, duration);
        state.running = state.running.saturating_sub(1 + outcome.losers.len());
        Some(outcome)
    }

    /// Forwards a lost instance to its task set (see
    /// [`TaskSetManager::instance_crashed`]); a re-queued partition makes
    /// its job pending again. Returns `true` when the partition was
    /// re-queued. Never panics: it is on the fault-recovery path.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub(crate) fn instance_crashed(&mut self, instance: TaskInstance) -> bool {
        let id = instance.task.job;
        let Some(state) = self.get_mut(id) else { return false };
        state.running = state.running.saturating_sub(1);
        let taskset = state.taskset_mut(instance.task.stage);
        debug_assert!(taskset.is_some(), "running instance has a task set");
        let requeued = taskset.is_some_and(|ts| ts.instance_crashed(instance));
        // The re-queued partition's phase is ready and unfinished (it
        // still had a live instance), so no rescan is needed.
        if requeued && !state.is_complete() {
            self.pending.insert(id);
        }
        requeued
    }

    /// Marks job `id` completed at `at`.
    pub(crate) fn mark_complete(&mut self, id: JobId, at: SimTime) {
        let Some(state) = entry_mut(&mut self.table, id) else { return };
        if !state.is_complete() {
            self.incomplete -= 1;
        }
        state.mark_complete(at);
        self.pending.remove(&id);
    }

    /// Re-derives whether job `id` belongs in the pending set.
    fn refresh_pending(&mut self, id: JobId) {
        if self.get(id).is_some_and(|j| !j.is_complete() && j.has_pending_tasks()) {
            self.pending.insert(id);
        } else {
            self.pending.remove(&id);
        }
    }
}

/// `id`'s position in the job table, if it fits a `usize`.
#[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#[deny(clippy::panic, clippy::unreachable)]
fn index(id: JobId) -> Option<usize> {
    usize::try_from(id.as_u64()).ok()
}

/// The job `id` in `table`, borrowed apart from `Jobs`' other fields.
#[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#[deny(clippy::panic, clippy::unreachable)]
fn entry_mut(table: &mut [Option<JobState>], id: JobId) -> Option<&mut JobState> {
    table.get_mut(index(id)?)?.as_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_dag::JobSpecBuilder;
    use ssr_simcore::dist::constant;

    fn job_state() -> JobState {
        let spec = JobSpecBuilder::new("j")
            .stage("a", 2, constant(1.0))
            .stage("b", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        JobState::new(JobId::new(1), spec, SimTime::from_secs(1))
    }

    #[test]
    fn fresh_job_state() {
        let js = job_state();
        assert_eq!(js.id(), JobId::new(1));
        assert!(!js.is_complete());
        assert_eq!(js.submitted_at(), SimTime::from_secs(1));
        assert!(js.taskset(StageId::new(0)).is_none());
        assert!(!js.has_pending_tasks());
    }

    #[test]
    fn taskset_registration_enables_pending() {
        let mut js = job_state();
        let tsm = TaskSetManager::new(JobId::new(1), StageId::new(0), 2, SimTime::from_secs(2));
        js.insert_taskset(tsm);
        assert!(js.has_pending_tasks());
        assert_eq!(js.active_tasksets().count(), 1);
        assert_eq!(js.taskset(StageId::new(0)).unwrap().ready_since(), SimTime::from_secs(2));
    }

    pub(super) const JOB: JobId = JobId::new(1);

    /// Admits `spec` as job 1 with a task set for each root phase, as
    /// `TaskScheduler::submit` does.
    pub(super) fn admit(spec: JobSpec) -> Jobs {
        let mut state = JobState::new(JOB, spec, SimTime::ZERO);
        for stage in state.spec().roots() {
            let parallelism = state.spec().stage(stage).parallelism();
            state.insert_taskset(TaskSetManager::new(JOB, stage, parallelism, SimTime::ZERO));
        }
        let mut jobs = Jobs::new();
        jobs.insert(state);
        jobs
    }

    /// Launches and finishes one task of `stage`, then gives each phase
    /// whose barrier that cleared its task set, as
    /// `TaskScheduler::task_finished` does. Returns those phases.
    pub(super) fn finish_one(jobs: &mut Jobs, stage: StageId) -> Vec<StageId> {
        let instance = jobs.launch_next(JOB, stage, SlotId::new(0)).expect("stage has a pending task");
        jobs.instance_finished(instance, SimDuration::from_secs(1)).expect("stage has a task set");
        let state = jobs.get(JOB).unwrap();
        let cleared = state.cleared_by(stage);
        let tasksets: Vec<_> = cleared
            .iter()
            .map(|&s| TaskSetManager::new(JOB, s, state.spec().stage(s).parallelism(), SimTime::ZERO))
            .collect();
        for tsm in tasksets {
            jobs.insert_taskset(JOB, tsm);
        }
        cleared
    }

    fn stages_with_tasksets(jobs: &Jobs) -> Vec<StageId> {
        let state = jobs.get(JOB).unwrap();
        state.spec().iter_stage_ids().filter(|&s| state.taskset(s).is_some()).collect()
    }

    fn active_stages(jobs: &Jobs) -> Vec<StageId> {
        jobs.get(JOB).unwrap().active_tasksets().map(TaskSetManager::stage).collect()
    }

    fn two_phase() -> Jobs {
        let spec = JobSpecBuilder::new("t")
            .stage("a", 3, constant(1.0))
            .stage("b", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        admit(spec)
    }

    #[test]
    fn blocked_stage_is_not_active() {
        let jobs = two_phase();
        let (a, b) = (StageId::new(0), StageId::new(1));
        let state = jobs.get(JOB).unwrap();
        assert!(state.taskset(b).is_none(), "a blocked phase has no task set");
        assert!(state.pending_taskset(b).is_none());
        assert_eq!(active_stages(&jobs), vec![a]);
    }

    #[test]
    fn barrier_clears_only_after_the_last_task() {
        let mut jobs = two_phase();
        let (a, b) = (StageId::new(0), StageId::new(1));
        assert!(finish_one(&mut jobs, a).is_empty());
        assert!(finish_one(&mut jobs, a).is_empty());
        let state = jobs.get(JOB).unwrap();
        assert_eq!(state.finished_fraction(a), 2.0 / 3.0);
        assert!(state.taskset(b).is_none());
        assert_eq!(finish_one(&mut jobs, a), vec![b]);
        assert!(jobs.get(JOB).unwrap().taskset(a).unwrap().is_complete());
        assert!(jobs.get(JOB).unwrap().cleared_by(a).is_empty(), "a barrier clears once");
        assert_eq!(active_stages(&jobs), vec![b]);
    }

    #[test]
    fn job_completes_after_final_stage() {
        let mut jobs = two_phase();
        let (a, b) = (StageId::new(0), StageId::new(1));
        for _ in 0..3 {
            finish_one(&mut jobs, a);
        }
        assert!(!jobs.get(JOB).unwrap().all_stages_complete());
        assert!(finish_one(&mut jobs, b).is_empty());
        assert!(!jobs.get(JOB).unwrap().all_stages_complete());
        assert!(finish_one(&mut jobs, b).is_empty());
        let state = jobs.get(JOB).unwrap();
        assert!(state.all_stages_complete());
        assert_eq!(u64::from(state.completed_tasks(a) + state.completed_tasks(b)), state.spec().total_tasks());
        assert_eq!(active_stages(&jobs), Vec::<StageId>::new());
    }

    #[test]
    fn completed_tasks_counts_up() {
        let mut jobs = two_phase();
        let (a, b) = (StageId::new(0), StageId::new(1));
        assert_eq!(jobs.get(JOB).unwrap().completed_tasks(a), 0);
        finish_one(&mut jobs, a);
        assert_eq!(jobs.get(JOB).unwrap().completed_tasks(a), 1);
        finish_one(&mut jobs, a);
        assert_eq!(jobs.get(JOB).unwrap().completed_tasks(a), 2);
        assert_eq!(jobs.get(JOB).unwrap().completed_tasks(b), 0, "a blocked phase has finished nothing");
    }

    #[test]
    fn complete_stage_has_nothing_left_to_launch() {
        let spec = JobSpecBuilder::new("s")
            .stage("only", 1, constant(1.0))
            .build()
            .unwrap();
        let mut jobs = admit(spec);
        let only = StageId::new(0);
        assert!(finish_one(&mut jobs, only).is_empty());
        assert!(jobs.launch_next(JOB, only, SlotId::new(1)).is_none(), "a complete phase has nothing left to run");
        assert_eq!(jobs.get(JOB).unwrap().completed_tasks(only), 1);
    }

    #[test]
    fn diamond_join_waits_for_both_parents() {
        let spec = JobSpecBuilder::new("d")
            .stage("a", 1, constant(1.0))
            .stage("b", 1, constant(1.0))
            .stage("join", 1, constant(1.0))
            .edge(0, 2)
            .edge(1, 2)
            .build()
            .unwrap();
        let mut jobs = admit(spec);
        assert!(finish_one(&mut jobs, StageId::new(0)).is_empty());
        assert!(jobs.get(JOB).unwrap().taskset(StageId::new(2)).is_none());
        assert_eq!(finish_one(&mut jobs, StageId::new(1)), vec![StageId::new(2)]);
    }

    #[test]
    fn stage_gets_its_task_set_only_once_every_parent_finished() {
        // a (2 tasks) and b (1 task) both feed c; d hangs off b alone.
        let spec = JobSpecBuilder::new("j")
            .stage("a", 2, constant(1.0))
            .stage("b", 1, constant(1.0))
            .stage("c", 1, constant(1.0))
            .stage("d", 1, constant(1.0))
            .edge(0, 2)
            .edge(1, 2)
            .edge(1, 3)
            .build()
            .unwrap();
        let mut jobs = admit(spec);
        let [a, b, c, d] = [0, 1, 2, 3].map(StageId::new);
        assert_eq!(stages_with_tasksets(&jobs), vec![a, b]);
        assert!(jobs.launch_next(JOB, c, SlotId::new(1)).is_none(), "a blocked phase has nothing to run");
        assert_eq!(finish_one(&mut jobs, b), vec![d], "c still waits for a");
        assert_eq!(stages_with_tasksets(&jobs), vec![a, b, d]);
        assert_eq!(active_stages(&jobs), vec![a, d]);
        assert!(finish_one(&mut jobs, a).is_empty());
        assert_eq!(stages_with_tasksets(&jobs), vec![a, b, d]);
        assert_eq!(finish_one(&mut jobs, a), vec![c]);
        assert_eq!(active_stages(&jobs), vec![c, d]);
    }

    #[test]
    fn first_finisher_duration_leads_the_task_sets_durations() {
        let mut jobs = two_phase();
        let a = StageId::new(0);
        let first = jobs.launch_next(JOB, a, SlotId::new(0)).unwrap();
        let second = jobs.launch_next(JOB, a, SlotId::new(1)).unwrap();
        assert!(jobs.get(JOB).unwrap().taskset(a).unwrap().durations().is_empty());
        jobs.instance_finished(first, SimDuration::from_secs(4)).unwrap();
        // A later finisher is recorded after, even if shorter.
        jobs.instance_finished(second, SimDuration::from_secs(2)).unwrap();
        assert_eq!(jobs.get(JOB).unwrap().taskset(a).unwrap().durations(), &[4.0, 2.0]);
    }

    #[test]
    fn jobs_registry_ordering() {
        let mut jobs = Jobs::new();
        assert!(jobs.is_empty());
        for id in [3u64, 1, 2] {
            let spec = JobSpecBuilder::new(format!("j{id}"))
                .stage("s", 1, constant(1.0))
                .build()
                .unwrap();
            jobs.insert(JobState::new(JobId::new(id), spec, SimTime::ZERO));
        }
        let ids: Vec<u64> = jobs.iter().map(|j| j.id().as_u64()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(jobs.len(), 3);
        assert!(jobs.get(JobId::new(2)).is_some());
        assert!(jobs.get(JobId::new(9)).is_none());
    }

    #[test]
    fn completion_marks() {
        let mut js = job_state();
        js.mark_complete(SimTime::from_secs(42));
        assert!(js.is_complete());
        assert_eq!(js.completed_at(), Some(SimTime::from_secs(42)));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{admit, finish_one, JOB};
    use super::*;
    use proptest::prelude::*;
    use ssr_dag::JobSpecBuilder;
    use ssr_simcore::dist::constant;
    use std::collections::btree_map;

    const STAGE: StageId = StageId::new(0);

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Launch(u64, u32),
        Copy(usize, u32),
        Finish(usize),
        Crash(usize),
        Complete(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..8, 1u32..4).prop_map(|(j, p)| Op::Insert(j, p)),
            (0u64..9, 0u32..16).prop_map(|(j, s)| Op::Launch(j, s)),
            (0usize..16, 0u32..16).prop_map(|(k, s)| Op::Copy(k, s)),
            (0usize..16).prop_map(Op::Finish),
            (0usize..16).prop_map(Op::Crash),
            (0u64..9).prop_map(Op::Complete),
        ]
    }

    /// A one-phase job whose phase is ready at time zero, as `submit`
    /// builds it.
    fn job(id: u64, parallelism: u32) -> JobState {
        let spec = JobSpecBuilder::new(format!("j{id}"))
            .stage("s", parallelism, constant(1.0))
            .build()
            .unwrap();
        let mut state = JobState::new(JobId::new(id), spec, SimTime::ZERO);
        let tsm = TaskSetManager::new(JobId::new(id), STAGE, parallelism, SimTime::ZERO);
        state.insert_taskset(tsm);
        state
    }

    /// The reference: an ordered map of job states driven through their
    /// task sets directly, with its own running count per job.
    type Reference = BTreeMap<JobId, (JobState, usize)>;

    fn apply(jobs: &mut Jobs, reference: &mut Reference, live: &mut Vec<TaskInstance>, op: Op) {
        let pick = |live: &Vec<TaskInstance>, k: usize| live.get(k % live.len().max(1)).copied();
        match op {
            Op::Insert(j, p) => {
                if let btree_map::Entry::Vacant(entry) = reference.entry(JobId::new(j)) {
                    jobs.insert(job(j, p));
                    entry.insert((job(j, p), 0));
                }
            }
            Op::Launch(j, s) => {
                let (id, slot) = (JobId::new(j), SlotId::new(s));
                let expected = reference.get_mut(&id).and_then(|(state, running)| {
                    let instance = state.taskset_mut(STAGE)?.launch_next(slot)?;
                    *running += 1;
                    Some(instance)
                });
                prop_assert_eq!(jobs.launch_next(id, STAGE, slot), expected);
                live.extend(expected);
            }
            Op::Copy(k, s) => {
                let Some(of) = pick(live, k) else { return };
                let (id, slot) = (of.task.job, SlotId::new(s));
                let (state, running) = reference.get_mut(&id).expect("live job exists");
                let expected =
                    state.taskset_mut(STAGE).unwrap().launch_copy(of.task.partition, slot);
                *running += 1;
                prop_assert_eq!(
                    jobs.launch_copy(id, STAGE, of.task.partition, slot),
                    Some(expected)
                );
                live.push(expected);
            }
            Op::Finish(k) => {
                let Some(instance) = pick(live, k) else { return };
                let (state, running) = reference.get_mut(&instance.task.job).unwrap();
                let expected =
                    state.taskset_mut(STAGE).unwrap().instance_finished(instance, SimDuration::ZERO);
                *running -= 1 + expected.losers.len();
                let outcome =
                    jobs.instance_finished(instance, SimDuration::ZERO).expect("live job exists");
                prop_assert_eq!(outcome.first_finish, expected.first_finish);
                prop_assert_eq!(&outcome.losers, &expected.losers);
                live.retain(|i| *i != instance && !expected.losers.iter().any(|(l, _)| l == i));
            }
            Op::Crash(k) => {
                let Some(instance) = pick(live, k) else { return };
                let (state, running) = reference.get_mut(&instance.task.job).unwrap();
                let expected = state.taskset_mut(STAGE).unwrap().instance_crashed(instance);
                *running -= 1;
                prop_assert_eq!(jobs.instance_crashed(instance), expected);
                live.retain(|i| *i != instance);
            }
            Op::Complete(j) => {
                let id = JobId::new(j);
                if let Some((state, _)) = reference.get_mut(&id) {
                    state.mark_complete(SimTime::from_secs(j));
                }
                jobs.mark_complete(id, SimTime::from_secs(j));
            }
        }
    }

    proptest! {
        /// Driving any forward-edge DAG by launching and finishing one
        /// task at a time drains it: every phase completes, and no phase
        /// gets a task set before all its parents have finished.
        #[test]
        fn any_dag_drains(
            n in 1usize..8,
            par in proptest::collection::vec(1u32..4, 8),
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..20),
        ) {
            let mut b = JobSpecBuilder::new("drain");
            for (i, &p) in par.iter().enumerate().take(n) {
                b = b.stage(format!("s{i}"), p, constant(1.0));
            }
            for (a, d) in edges {
                let (a, d) = (a % n as u32, d % n as u32);
                if a < d {
                    b = b.edge(a, d);
                }
            }
            let spec = b.build().unwrap();
            let mut jobs = admit(spec.clone());
            for _ in 0..spec.total_tasks() {
                let state = jobs.get(JOB).unwrap();
                for stage in spec.iter_stage_ids().filter(|&s| state.taskset(s).is_some()) {
                    for &p in spec.parents(stage) {
                        prop_assert!(
                            state.taskset(p).is_some_and(TaskSetManager::is_complete),
                            "{} has a task set before its parent {} finished", stage, p
                        );
                    }
                }
                let next = state.active_tasksets().find(|t| t.has_pending()).map(TaskSetManager::stage);
                prop_assert!(next.is_some(), "deadlock: nothing pending but the job is incomplete");
                finish_one(&mut jobs, next.unwrap());
            }
            let state = jobs.get(JOB).unwrap();
            prop_assert!(state.all_stages_complete());
            prop_assert_eq!(
                spec.iter_stage_ids().map(|s| u64::from(state.completed_tasks(s))).sum::<u64>(),
                spec.total_tasks()
            );
        }

        /// The id-indexed job table agrees with an ordered-map reference
        /// on lookups, iteration order, the pending set, the incomplete
        /// count and every job's running count, whatever order ids are
        /// admitted in.
        #[test]
        fn job_table_agrees_with_ordered_map_reference(
            ops in proptest::collection::vec(op_strategy(), 0..200)
        ) {
            let mut jobs = Jobs::new();
            let mut reference = Reference::new();
            let mut live = Vec::new();
            for op in ops {
                apply(&mut jobs, &mut reference, &mut live, op);
                prop_assert_eq!(jobs.len(), reference.len());
                prop_assert_eq!(jobs.is_empty(), reference.is_empty());
                prop_assert_eq!(
                    jobs.iter().map(|j| (j.id(), j.running_count())).collect::<Vec<_>>(),
                    reference.iter().map(|(&id, &(_, running))| (id, running)).collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    jobs.pending_ids().collect::<Vec<_>>(),
                    reference
                        .values()
                        .filter(|(j, _)| !j.is_complete() && j.has_pending_tasks())
                        .map(|(j, _)| j.id())
                        .collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    jobs.incomplete_count(),
                    reference.values().filter(|(j, _)| !j.is_complete()).count()
                );
                for j in 0..9u64 {
                    let id = JobId::new(j);
                    let got = jobs.get(id).map(|s| {
                        (s.id(), s.is_complete(), s.running_count(), s.has_pending_tasks())
                    });
                    let want = reference.get(&id).map(|(s, running)| {
                        (s.id(), s.is_complete(), *running, s.has_pending_tasks())
                    });
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(jobs.is_pending(id), jobs.pending_ids().any(|p| p == id));
                }
                prop_assert!(jobs.get(JobId::new(u64::MAX)).is_none());
            }
        }
    }
}
