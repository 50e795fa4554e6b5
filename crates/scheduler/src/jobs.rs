//! Per-job scheduler state: the DAG run, per-phase task sets and runtime
//! statistics.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ssr_cluster::SlotId;
use ssr_dag::{JobId, JobRun, JobSpec, Priority, StageId, StageState};
use ssr_simcore::SimTime;

use crate::taskset::{TaskInstance, TaskSetManager};

/// Runtime statistics of one phase, fed to reservation policies.
///
/// The paper's deadline model (§IV-B) estimates the Pareto scale parameter
/// `t_m` by "the duration of the task that finishes first in a phase" —
/// that is [`StageStats::first_duration`].
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    ready_at: Option<SimTime>,
    completed_at: Option<SimTime>,
    first_duration: Option<f64>,
    durations: Vec<f64>,
}

impl StageStats {
    /// When the phase's barrier cleared.
    pub fn ready_at(&self) -> Option<SimTime> {
        self.ready_at
    }

    /// When the phase's last task finished.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// Duration (seconds) of the phase's first finisher — the online
    /// estimate of the Pareto scale `t_m`.
    pub fn first_duration(&self) -> Option<f64> {
        self.first_duration
    }

    /// Durations (seconds) of every finished task instance of the phase,
    /// in finish order.
    pub fn durations(&self) -> &[f64] {
        &self.durations
    }

    /// Marks the phase ready. Normally driven by the scheduler engine;
    /// public so policies and tests can build fixtures.
    pub fn mark_ready(&mut self, at: SimTime) {
        self.ready_at = Some(at);
    }

    /// Marks the phase completed. Normally driven by the scheduler engine.
    pub fn mark_completed(&mut self, at: SimTime) {
        self.completed_at = Some(at);
    }

    /// Records one finished task-instance duration (seconds). Normally
    /// driven by the scheduler engine.
    pub fn record_duration(&mut self, secs: f64) {
        if self.first_duration.is_none() {
            self.first_duration = Some(secs);
        }
        self.durations.push(secs);
    }
}

/// All scheduler-side state of one admitted job.
#[derive(Debug, Clone)]
pub struct JobState {
    id: JobId,
    spec: JobSpec,
    run: JobRun,
    tsms: BTreeMap<StageId, TaskSetManager>,
    stats: BTreeMap<StageId, StageStats>,
    submitted_at: SimTime,
    completed_at: Option<SimTime>,
    weight: f64,
}

impl JobState {
    pub(crate) fn new(id: JobId, spec: JobSpec, submitted_at: SimTime) -> Self {
        let run = JobRun::new(id, spec.clone());
        JobState {
            id,
            spec,
            run,
            tsms: BTreeMap::new(),
            stats: BTreeMap::new(),
            submitted_at,
            completed_at: None,
            weight: 1.0,
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

    /// The DAG execution tracker.
    pub fn run(&self) -> &JobRun {
        &self.run
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

    /// Fair-share weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The task-set manager of `stage`, if the phase has become ready.
    pub fn taskset(&self, stage: StageId) -> Option<&TaskSetManager> {
        self.tsms.get(&stage)
    }

    /// Runtime statistics of `stage`, if the phase has become ready.
    pub fn stage_stats(&self, stage: StageId) -> Option<&StageStats> {
        self.stats.get(&stage)
    }

    /// Iterate over `(stage, stats)` for every phase that has become ready.
    pub fn iter_stage_stats(&self) -> impl Iterator<Item = (StageId, &StageStats)> {
        self.stats.iter().map(|(s, st)| (*s, st))
    }

    /// Task sets of phases that are ready and still have unfinished tasks,
    /// in stage order.
    pub fn active_tasksets(&self) -> impl Iterator<Item = &TaskSetManager> {
        self.tsms.values().filter(move |t| {
            self.run.state(t.stage()) == StageState::Ready && !t.is_complete()
        })
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
        self.tsms.get(&stage).filter(|t| {
            t.has_pending() && !t.is_complete() && self.run.state(stage) == StageState::Ready
        })
    }

    pub(crate) fn run_mut(&mut self) -> &mut JobRun {
        &mut self.run
    }

    pub(crate) fn taskset_mut(&mut self, stage: StageId) -> Option<&mut TaskSetManager> {
        self.tsms.get_mut(&stage)
    }

    pub(crate) fn insert_taskset(&mut self, tsm: TaskSetManager, now: SimTime) {
        let stage = tsm.stage();
        self.tsms.insert(stage, tsm);
        self.stats.entry(stage).or_default().mark_ready(now);
    }

    pub(crate) fn stats_mut(&mut self, stage: StageId) -> &mut StageStats {
        self.stats.entry(stage).or_default()
    }

    pub(crate) fn mark_complete(&mut self, at: SimTime) {
        self.completed_at = Some(at);
    }

    pub(crate) fn set_weight(&mut self, weight: f64) {
        self.weight = weight;
    }
}

/// The set of jobs known to the scheduler, iterated in deterministic
/// (job-id) order.
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
/// Mutations that can change whether a job has pending tasks — launching
/// an original, a phase becoming ready, a crash re-queue, completion —
/// therefore go through `Jobs`, not through [`JobState`] directly.
#[derive(Debug, Clone, Default)]
pub struct Jobs {
    map: BTreeMap<JobId, JobState>,
    pending: BTreeSet<JobId>,
    unlock_window: VecDeque<(SimTime, JobId, StageId)>,
    incomplete: usize,
}

impl Jobs {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Jobs::default()
    }

    /// The job with the given id.
    pub fn get(&self, id: JobId) -> Option<&JobState> {
        self.map.get(&id)
    }

    /// Iterate over all jobs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &JobState> {
        self.map.values()
    }

    /// Number of admitted jobs (completed ones included).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no job was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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
        self.pending.iter().filter_map(|id| self.map.get(id))
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

    pub(crate) fn get_mut(&mut self, id: JobId) -> Option<&mut JobState> {
        self.map.get_mut(&id)
    }

    pub(crate) fn insert(&mut self, state: JobState) {
        let id = state.id();
        debug_assert!(!self.map.contains_key(&id), "job ids are never reused");
        for tsm in state.tsms.values() {
            self.unlock_window.push_back((tsm.ready_since(), id, tsm.stage()));
        }
        if !state.is_complete() {
            self.incomplete += 1;
        }
        self.map.insert(id, state);
        self.refresh_pending(id);
    }

    /// Registers the task set of a phase that became ready at `now`.
    pub(crate) fn insert_taskset(&mut self, id: JobId, tsm: TaskSetManager, now: SimTime) {
        let Some(state) = self.map.get_mut(&id) else { return };
        self.unlock_window.push_back((tsm.ready_since(), id, tsm.stage()));
        state.insert_taskset(tsm, now);
        self.refresh_pending(id);
    }

    /// Launches the next pending original task of `stage` on `slot`.
    pub(crate) fn launch_next(
        &mut self,
        id: JobId,
        stage: StageId,
        slot: SlotId,
    ) -> Option<TaskInstance> {
        let tsm = self.map.get_mut(&id)?.taskset_mut(stage)?;
        let instance = tsm.launch_next(slot)?;
        // Only draining this phase can end the job's pending state.
        if !tsm.has_pending() {
            self.refresh_pending(id);
        }
        Some(instance)
    }

    /// Forwards a lost instance to its task set (see
    /// [`TaskSetManager::instance_crashed`]); a re-queued partition makes
    /// its job pending again. Returns `true` when the partition was
    /// re-queued. Never panics: it is on the fault-recovery path.
    pub(crate) fn instance_crashed(&mut self, instance: TaskInstance) -> bool {
        let id = instance.task.job;
        let Some(state) = self.map.get_mut(&id) else { return false };
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
        let Some(state) = self.map.get_mut(&id) else { return };
        if !state.is_complete() {
            self.incomplete -= 1;
        }
        state.mark_complete(at);
        self.pending.remove(&id);
    }

    /// Re-derives whether job `id` belongs in the pending set.
    fn refresh_pending(&mut self, id: JobId) {
        if self.map.get(&id).is_some_and(|j| !j.is_complete() && j.has_pending_tasks()) {
            self.pending.insert(id);
        } else {
            self.pending.remove(&id);
        }
    }
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
        assert_eq!(js.weight(), 1.0);
    }

    #[test]
    fn taskset_registration_enables_pending() {
        let mut js = job_state();
        let tsm = TaskSetManager::new(JobId::new(1), StageId::new(0), 2, SimTime::ZERO);
        js.insert_taskset(tsm, SimTime::from_secs(2));
        assert!(js.has_pending_tasks());
        assert_eq!(js.active_tasksets().count(), 1);
        assert_eq!(
            js.stage_stats(StageId::new(0)).unwrap().ready_at(),
            Some(SimTime::from_secs(2))
        );
    }

    #[test]
    fn blocked_stage_is_not_active() {
        let mut js = job_state();
        // Register a TSM for stage 1, which is still blocked.
        let tsm = TaskSetManager::new(JobId::new(1), StageId::new(1), 2, SimTime::ZERO);
        js.insert_taskset(tsm, SimTime::ZERO);
        assert_eq!(js.active_tasksets().count(), 0);
    }

    #[test]
    fn stage_stats_record_first_duration() {
        let mut stats = StageStats::default();
        assert!(stats.first_duration().is_none());
        stats.record_duration(4.0);
        stats.record_duration(2.0); // later finisher, even if shorter
        assert_eq!(stats.first_duration(), Some(4.0));
        assert_eq!(stats.durations(), &[4.0, 2.0]);
        stats.mark_completed(SimTime::from_secs(9));
        assert_eq!(stats.completed_at(), Some(SimTime::from_secs(9)));
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
