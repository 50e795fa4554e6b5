//! Per-job scheduler state: per-phase task sets, which hold each phase's
//! barrier state, runtime statistics and output slots.

use std::cmp::Ordering;
use std::collections::VecDeque;

use ssr_cluster::SlotId;
use ssr_dag::{JobId, JobSpec, Priority, StageId};
use ssr_simcore::{SimDuration, SimTime};

use crate::order::{JobOrder, JobSnapshot};
use crate::taskset::{InstanceOutcome, TaskInstance, TaskSetManager};

/// A job's pending task sets and the preferred slots over them: what
/// `best_candidate` counts for a job that no reservation group can
/// approve and no free slot can serve, one group walk and one
/// preferred-slot search per pending set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DeclineTally {
    /// Task sets that are ready, unfinished and have an unlaunched
    /// original task.
    pub(crate) sets: u32,
    /// The preferred slots of those sets, summed.
    pub(crate) preferred: u32,
}

impl DeclineTally {
    /// `tsm`'s share: one set and its preferred slots while it is
    /// pending, nothing otherwise.
    fn of(tsm: &TaskSetManager) -> Self {
        if tsm.has_pending() && !tsm.is_complete() {
            DeclineTally { sets: 1, preferred: tsm.preferred().len() as u32 }
        } else {
            DeclineTally::default()
        }
    }

    pub(crate) fn add(&mut self, other: Self) {
        self.sets += other.sets;
        self.preferred += other.preferred;
    }

    pub(crate) fn sub(&mut self, other: Self) {
        self.sets = self.sets.saturating_sub(other.sets);
        self.preferred = self.preferred.saturating_sub(other.preferred);
    }
}

/// The entries at one priority level of a set of pending jobs, and their
/// decline tallies summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LevelTally {
    /// Jobs at this level.
    pub(crate) entries: u32,
    /// Their decline tallies, summed.
    pub(crate) tally: DeclineTally,
}

/// [`LevelTally`]s per priority level, ascending by priority; a level
/// leaves when its last entry does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LevelTallies(Vec<(Priority, LevelTally)>);

impl LevelTallies {
    /// The levels, lowest priority first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Priority, LevelTally)> + '_ {
        self.0.iter().copied()
    }

    /// The tally at `priority`: zero when no entry is there.
    pub(crate) fn get(&self, priority: Priority) -> LevelTally {
        self.0.get(self.find(priority)).filter(|(p, _)| *p == priority).map_or(LevelTally::default(), |&(_, l)| l)
    }

    /// Adds one entry at `priority` with `tally`.
    pub(crate) fn add(&mut self, priority: Priority, tally: DeclineTally) {
        self.add_level(priority, LevelTally { entries: 1, tally });
    }

    /// Adds `level`'s entries at `priority`.
    pub(crate) fn add_level(&mut self, priority: Priority, level: LevelTally) {
        let at = self.find(priority);
        match self.0.get_mut(at) {
            Some((p, l)) if *p == priority => {
                l.entries += level.entries;
                l.tally.add(level.tally);
            }
            _ => self.0.insert(at, (priority, level)),
        }
    }

    /// Takes one entry at `priority` with `tally` out.
    pub(crate) fn sub(&mut self, priority: Priority, tally: DeclineTally) {
        let at = self.find(priority);
        if let Some((p, l)) = self.0.get_mut(at).filter(|(p, _)| *p == priority) {
            debug_assert!(l.entries > 0, "an entry leaves level {p:?} that holds none");
            l.entries = l.entries.saturating_sub(1);
            l.tally.sub(tally);
            if l.entries == 0 {
                debug_assert_eq!(l.tally, DeclineTally::default(), "an empty level holds no tally");
                self.0.remove(at);
            }
        }
    }

    /// Forgets every level, keeping room for as many as `other` holds.
    pub(crate) fn clear_for(&mut self, other: &LevelTallies) {
        self.0.clear();
        self.0.reserve(other.0.len());
    }

    fn find(&self, priority: Priority) -> usize {
        self.0.partition_point(|&(p, _)| p < priority)
    }
}

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
    /// Each phase's task set, indexed by stage id; `None` while the
    /// phase is blocked.
    tsms: Vec<Option<TaskSetManager>>,
    submitted_at: SimTime,
    completed_at: Option<SimTime>,
    /// Slots currently running an instance (original or copy) of this job.
    running: u32,
    /// Its pending task sets, kept by every change to a set's pending
    /// status: a set inserted, drained by a launch, or re-queued by a
    /// crash.
    tally: DeclineTally,
    /// `true` while the job waits in [`Jobs`]' touched list.
    touched: bool,
}

impl JobState {
    pub(crate) fn new(id: JobId, spec: JobSpec, submitted_at: SimTime) -> Self {
        JobState {
            id,
            tsms: std::iter::repeat_with(|| None).take(spec.stages().len()).collect(),
            spec,
            submitted_at,
            completed_at: None,
            running: 0,
            tally: DeclineTally::default(),
            touched: false,
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
        self.running as usize
    }

    /// The task-set manager of `stage`, if the phase has become ready.
    pub fn taskset(&self, stage: StageId) -> Option<&TaskSetManager> {
        self.tsms.get(stage.index())?.as_ref()
    }

    /// The task sets of the ready phases, in stage order.
    fn tasksets(&self) -> impl Iterator<Item = &TaskSetManager> {
        self.tsms.iter().flatten()
    }

    /// Number of `stage`'s partitions that have finished — 0 while the
    /// phase is blocked. A partition counts once, on its first finish.
    pub fn completed_tasks(&self, stage: StageId) -> u32 {
        self.taskset(stage).map_or(0, TaskSetManager::finished_count)
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
        self.tsms.iter().all(|t| t.as_ref().is_some_and(TaskSetManager::is_complete))
    }

    /// The phases whose barrier `stage` cleared: once `stage` is complete,
    /// each child that has no task set yet and whose parents have all
    /// finished, in [`JobSpec::children`] order. Empty while `stage` has
    /// unfinished partitions.
    pub(crate) fn cleared_by(&self, stage: StageId) -> Vec<StageId> {
        if !self.taskset(stage).is_some_and(TaskSetManager::is_complete) {
            return Vec::new();
        }
        self.spec
            .children(stage)
            .iter()
            .copied()
            .filter(|child| {
                self.taskset(*child).is_none()
                    && self
                        .spec
                        .parents(*child)
                        .iter()
                        .all(|&p| self.taskset(p).is_some_and(TaskSetManager::is_complete))
            })
            .collect()
    }

    /// The preferred slots of `stage`'s tasks: the slots holding its
    /// parents' outputs, parent by parent, each in partition order (a
    /// slot holding several outputs repeats). A shuffle dependency reads
    /// every upstream partition, so this is the union over all parents
    /// (§II-B, §V); a parent partition that has not finished adds none.
    pub(crate) fn preferred_slots(&self, stage: StageId) -> impl Iterator<Item = SlotId> + '_ {
        self.spec.parents(stage).iter().filter_map(|&p| self.taskset(p)).flat_map(TaskSetManager::output_slots)
    }

    /// Task sets of phases that are ready and still have unfinished tasks,
    /// in stage order.
    pub fn active_tasksets(&self) -> impl Iterator<Item = &TaskSetManager> {
        self.tasksets().filter(|t| !t.is_complete())
    }

    /// `true` if some ready phase has an unlaunched original task.
    pub fn has_pending_tasks(&self) -> bool {
        self.active_tasksets().any(|t| t.has_pending())
    }

    /// `true` if the job is incomplete and has an unlaunched original
    /// task — [`has_pending_tasks`](Self::has_pending_tasks) on an
    /// incomplete job, read from the tally instead of the task sets.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    fn is_pending(&self) -> bool {
        !self.is_complete() && self.tally.sets > 0
    }

    /// The pending task sets and their preferred slots — equal to summing
    /// [`active_tasksets`](Self::active_tasksets) filtered by
    /// `has_pending`, without the walk.
    pub(crate) fn decline_tally(&self) -> DeclineTally {
        self.tally
    }

    /// The job as the job order sees it with `running` slots.
    fn keyed(&self, running: u32) -> JobSnapshot {
        JobSnapshot {
            id: self.id,
            priority: self.priority(),
            arrival: self.submitted_at,
            running_slots: running as usize,
        }
    }

    /// The task set of `stage` if that phase is ready, unfinished and has
    /// an unlaunched original task — one element of
    /// [`active_tasksets`](Self::active_tasksets) filtered by
    /// `has_pending`, looked up directly.
    pub(crate) fn pending_taskset(&self, stage: StageId) -> Option<&TaskSetManager> {
        self.taskset(stage).filter(|t| t.has_pending() && !t.is_complete())
    }

    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub(crate) fn taskset_mut(&mut self, stage: StageId) -> Option<&mut TaskSetManager> {
        self.tsms.get_mut(stage.index())?.as_mut()
    }

    /// Registers `tsm` as its phase's task set, replacing any earlier one.
    ///
    /// # Panics
    ///
    /// Panics if the phase is out of range for this job.
    pub(crate) fn insert_taskset(&mut self, tsm: TaskSetManager) {
        self.tally.add(DeclineTally::of(&tsm));
        let entry = self.tsms.get_mut(tsm.stage().index()).expect("the task set's phase belongs to the job");
        if let Some(replaced) = entry.replace(tsm) {
            self.tally.sub(DeclineTally::of(&replaced));
        }
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
/// count and a tally of its pending task sets, kept by the launch,
/// finish, crash and phase-ready mutations below.
///
/// Besides the jobs themselves it keeps three indexes, each updated by
/// the mutation that can change it, so per-event queries never walk the
/// whole job table:
///
/// - the *pending index*: incomplete jobs with an unlaunched original
///   task (exactly the jobs an offer round may serve), sorted worst first
///   by [`JobOrder::compare`]. Each mutation marks its job touched, and
///   the next offer round re-keys only the touched jobs;
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
    pending: PendingIndex,
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
    /// `!is_complete() && has_pending_tasks()`, read from each job's
    /// tally.
    pub fn pending_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.iter().filter(|j| j.is_pending()).map(JobState::id)
    }

    /// `true` if `id` is incomplete and has an unlaunched original task —
    /// O(1).
    pub(crate) fn is_pending(&self, id: JobId) -> bool {
        self.get(id).is_some_and(JobState::is_pending)
    }

    /// The pending index as of the last [`rekey`](Self::rekey): the
    /// snapshots of the pending jobs, sorted worst first by the order
    /// that re-keyed them, so the job to serve next is the last.
    pub(crate) fn pending_worst_first(&self) -> &[JobSnapshot] {
        &self.pending.ranked
    }

    /// The pending index's entries and their decline tallies per priority
    /// level, as of the last re-key.
    pub(crate) fn pending_levels(&self) -> &LevelTallies {
        &self.pending.levels
    }

    /// The snapshot `id` is keyed with while pending, `None` while it is
    /// not: its entry in the pending index when no job is touched.
    pub(crate) fn keyed(&self, id: JobId) -> Option<JobSnapshot> {
        let state = self.get(id)?;
        self.pending.key_of(state).map(|k| state.keyed(k.running))
    }

    /// The position `key` takes in the pending index under `order`: the
    /// number of entries it ranks ahead of.
    pub(crate) fn rank(&self, order: &dyn JobOrder, key: &JobSnapshot) -> usize {
        self.pending.ranked.partition_point(|c| order.compare(c, key) == Ordering::Greater)
    }

    /// `id`'s pending task sets and their preferred slots; zero for an
    /// unknown job.
    pub(crate) fn decline_tally(&self, id: JobId) -> DeclineTally {
        self.get(id).map_or(DeclineTally::default(), JobState::decline_tally)
    }

    /// Brings the pending index up to date under `order`: each job
    /// touched since the last call leaves it, re-enters it with its
    /// current snapshot if it is still pending, or keeps its place when
    /// its new key still sorts there — O(log P) comparisons per touched
    /// job. `order` must be the one every earlier call used. Returns
    /// `true` if some job changed since the last call (or this is the
    /// first call).
    #[inline]
    pub(crate) fn rekey(&mut self, order: &dyn JobOrder) -> bool {
        self.rekey_served(order);
        !std::mem::replace(&mut self.pending.unchanged, true)
    }

    /// Moves the entries of the jobs touched since the last re-key, as
    /// [`rekey`](Self::rekey) does, but leaves the change noted for the
    /// next `rekey` to report: an offer round calls it after each of its
    /// own assignments, so the index it walks stays exact.
    #[inline]
    pub(crate) fn rekey_served(&mut self, order: &dyn JobOrder) {
        if !self.pending.touched.is_empty() {
            self.rekey_touched(order);
        }
    }

    /// The re-key of [`rekey`](Self::rekey) for a non-empty touched
    /// list, out of line: most offer rounds find nothing to move.
    #[inline(never)]
    fn rekey_touched(&mut self, order: &dyn JobOrder) {
        let index = &mut self.pending;
        index.static_keys = !order.reads_running_slots();
        for &(id, was) in &index.touched {
            let Some(state) = entry_mut(&mut self.table, id) else { continue };
            state.touched = false;
            let now = index.key_of(state);
            if was == now {
                // Touched, but neither its key nor its tally moved.
                continue;
            }
            let priority = state.priority();
            if let Some(was) = was {
                index.levels.sub(priority, was.tally);
            }
            if let Some(now) = now {
                index.levels.add(priority, now.tally);
            }
            let old = was.map(|k| state.keyed(k.running));
            let new = now.map(|k| state.keyed(k.running));
            rekey_entry(&mut index.ranked, order, old, new);
        }
        index.touched.clear();
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

    /// The job `id`, mutably, bypassing the indexes: for tests that
    /// drive a task set directly.
    #[cfg(test)]
    pub(crate) fn get_mut(&mut self, id: JobId) -> Option<&mut JobState> {
        entry_mut(&mut self.table, id)
    }

    /// Admits `state` under its id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not fit a `usize` (the static-pool sentinel
    /// is never admitted).
    pub(crate) fn insert(&mut self, mut state: JobState) {
        let id = state.id();
        let i = index(id).expect("admitted job ids fit a usize");
        if i >= self.table.len() {
            self.table.resize_with(i + 1, || None);
        }
        debug_assert!(self.table[i].is_none(), "job ids are never reused");
        for tsm in state.tasksets() {
            self.unlock_window.push_back((tsm.ready_since(), id, tsm.stage()));
        }
        if !state.is_complete() {
            self.incomplete += 1;
        }
        self.pending.touch(&mut state, None);
        self.table[i] = Some(state);
        self.len += 1;
    }

    /// Registers the task set of a phase that became ready.
    pub(crate) fn insert_taskset(&mut self, id: JobId, tsm: TaskSetManager) {
        let Some(state) = entry_mut(&mut self.table, id) else { return };
        self.pending.touch(state, self.pending.key_of(state));
        self.unlock_window.push_back((tsm.ready_since(), id, tsm.stage()));
        state.insert_taskset(tsm);
    }

    /// Launches the next pending original task of `stage` on `slot`.
    pub(crate) fn launch_next(&mut self, id: JobId, stage: StageId, slot: SlotId) -> Option<TaskInstance> {
        let state = entry_mut(&mut self.table, id)?;
        let tsm = state.taskset_mut(stage)?;
        let instance = tsm.launch_next(slot)?;
        let drained = (!tsm.has_pending()).then(|| tsm.preferred().len() as u32);
        let running = state.running;
        state.running += 1;
        match drained {
            Some(preferred) => {
                // The phase leaves the tally. The job's entry, if it has
                // one, is keyed with its running count and tally before.
                let running = if self.pending.static_keys { 0 } else { running };
                let keyed = state.is_pending().then_some(Indexed { running, tally: state.tally });
                self.pending.touch(state, keyed);
                state.tally.sub(DeclineTally { sets: 1, preferred });
            }
            None => self.pending.touch_running(state, running),
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
        let state = entry_mut(&mut self.table, id)?;
        let instance = state.taskset_mut(stage)?.launch_copy(partition, slot);
        let running = state.running;
        state.running += 1;
        self.pending.touch_running(state, running);
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
        let state = entry_mut(&mut self.table, instance.task.job)?;
        let outcome = state.taskset_mut(instance.task.stage)?.instance_finished(instance, duration);
        let running = state.running;
        let stopped = u32::try_from(1 + outcome.losers.len()).unwrap_or(u32::MAX);
        state.running = running.saturating_sub(stopped);
        self.pending.touch_running(state, running);
        Some(outcome)
    }

    /// Forwards a lost instance to its task set (see
    /// [`TaskSetManager::instance_crashed`]); a re-queued partition makes
    /// its job pending again. Returns `true` when the partition was
    /// re-queued. Never panics: it is on the fault-recovery path.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub(crate) fn instance_crashed(&mut self, instance: TaskInstance) -> bool {
        let Some(state) = entry_mut(&mut self.table, instance.task.job) else { return false };
        self.pending.touch(state, self.pending.key_of(state));
        state.running = state.running.saturating_sub(1);
        let taskset = state.taskset_mut(instance.task.stage);
        debug_assert!(taskset.is_some(), "running instance has a task set");
        let mut requeued = false;
        if let Some(ts) = taskset {
            let before = DeclineTally::of(ts);
            requeued = ts.instance_crashed(instance);
            // A re-queue onto an empty queue makes the phase pending
            // again.
            let after = DeclineTally::of(ts);
            state.tally.sub(before);
            state.tally.add(after);
        }
        requeued
    }

    /// Marks job `id` completed at `at`.
    pub(crate) fn mark_complete(&mut self, id: JobId, at: SimTime) {
        let Some(state) = entry_mut(&mut self.table, id) else { return };
        self.pending.touch(state, self.pending.key_of(state));
        if !state.is_complete() {
            self.incomplete -= 1;
        }
        state.mark_complete(at);
    }
}

/// The pending jobs, sorted worst first by the job order's
/// [`compare`](JobOrder::compare), and the jobs whose entries may have
/// moved since the last re-key.
///
/// Every [`Jobs`] mutation *touches* its job, noting the key and tally
/// the index holds for it, which are the ones it had before the
/// mutation: a job untouched since the last re-key is still as that
/// re-key saw it.
/// [`Jobs::rekey`] then moves only the touched jobs' entries, so the
/// index is exact right after it and may lag behind the jobs until then.
/// Under an order that does not read running counts
/// ([`JobOrder::reads_running_slots`]) every key holds a running count of
/// 0, and a mutation that changes only a job's running count (a launch
/// that leaves its phase pending, a copy, a finish) touches nothing.
///
/// Beside the ranking it keeps, per priority level, the number of entries
/// and the sum of their [`DeclineTally`]s, moved with the entries: an
/// offer round reads from them the work of declining a run of candidates
/// that no reservation group can approve without visiting each.
#[derive(Debug, Clone, Default)]
struct PendingIndex {
    /// The pending jobs' snapshots, worst first, as of the last re-key.
    ranked: Vec<JobSnapshot>,
    /// `ranked`'s entries and tallies per priority level.
    levels: LevelTallies,
    /// Jobs touched since the last re-key, each listed once with what its
    /// entry holds (`None` when it has none).
    touched: Vec<(JobId, Option<Indexed>)>,
    /// `true` while no job has changed since the last re-key; a new
    /// registry starts stale.
    unchanged: bool,
    /// `true` when the last re-key's order does not read running counts.
    static_keys: bool,
}

/// What the pending index holds for one job: the running count its entry
/// is keyed with and the decline tally its level sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Indexed {
    running: u32,
    tally: DeclineTally,
}

impl PendingIndex {
    /// What `state`'s entry holds while it is pending, as of now; `None`
    /// while it is not pending.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    fn key_of(&self, state: &JobState) -> Option<Indexed> {
        let running = if self.static_keys { 0 } else { state.running };
        state.is_pending().then_some(Indexed { running, tally: state.tally })
    }

    /// Records that `state` changed from its entry `keyed`, as
    /// [`key_of`](Self::key_of) read it before the change.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    fn touch(&mut self, state: &mut JobState, keyed: Option<Indexed>) {
        self.unchanged = false;
        if !state.touched {
            state.touched = true;
            self.touched.push((state.id, keyed));
        }
    }

    /// Records that `state`'s running count alone changed, from
    /// `running`: its pending status did not, and under static keys
    /// neither did its key.
    fn touch_running(&mut self, state: &mut JobState, running: u32) {
        if self.static_keys {
            self.unchanged = false;
        } else {
            let keyed = state.is_pending().then_some(Indexed { running, tally: state.tally });
            self.touch(state, keyed);
        }
    }
}

/// Moves one job's entry in the worst-first `index`: from its `old` key
/// (`None` when it had no entry) to its `new` one (`None` when it leaves).
/// A key that still sorts where the old one was is written in place.
pub(crate) fn rekey_entry(
    index: &mut Vec<JobSnapshot>,
    order: &dyn JobOrder,
    old: Option<JobSnapshot>,
    new: Option<JobSnapshot>,
) {
    if old == new {
        // Touched, but its key did not move.
        return;
    }
    let at = old.and_then(|old| {
        let at = index.partition_point(|c| order.compare(c, &old) == Ordering::Greater);
        if index.get(at).is_some_and(|c| c.id == old.id) {
            Some(at)
        } else {
            // Only an order whose `compare` is not the total order it
            // promises can hide the entry from the search.
            index.iter().position(|c| c.id == old.id)
        }
    });
    if let (Some(at), Some(new)) = (at, new) {
        let after_worse = at == 0 || order.compare(&index[at - 1], &new) == Ordering::Greater;
        let before_better = index.get(at + 1).is_none_or(|next| order.compare(&new, next) == Ordering::Greater);
        if after_worse && before_better {
            index[at] = new;
            return;
        }
    }
    if let Some(at) = at {
        index.remove(at);
    }
    if let Some(new) = new {
        let at = index.partition_point(|c| order.compare(c, &new) == Ordering::Greater);
        index.insert(at, new);
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
        let spec =
            JobSpecBuilder::new("j").stage("a", 2, constant(1.0)).stage("b", 2, constant(1.0)).chain().build().unwrap();
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
        let spec =
            JobSpecBuilder::new("t").stage("a", 3, constant(1.0)).stage("b", 2, constant(1.0)).chain().build().unwrap();
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
        let spec = JobSpecBuilder::new("s").stage("only", 1, constant(1.0)).build().unwrap();
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
            let spec = JobSpecBuilder::new(format!("j{id}")).stage("s", 1, constant(1.0)).build().unwrap();
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
    use crate::order::{Fair, FifoPriority};
    use proptest::prelude::*;
    use ssr_dag::JobSpecBuilder;
    use ssr_simcore::dist::constant;
    use std::collections::{btree_map, BTreeMap};

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
    /// builds it, at one of three priorities.
    fn job(id: u64, parallelism: u32) -> JobState {
        let spec = JobSpecBuilder::new(format!("j{id}"))
            .priority(Priority::new((id % 3) as i32))
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

    /// Applies `op` to the reference and to each registry in `all`, which
    /// must agree with it and with each other.
    fn apply(all: &mut [Jobs], reference: &mut Reference, live: &mut Vec<TaskInstance>, op: Op) {
        let pick = |live: &Vec<TaskInstance>, k: usize| live.get(k % live.len().max(1)).copied();
        match op {
            Op::Insert(j, p) => {
                if let btree_map::Entry::Vacant(entry) = reference.entry(JobId::new(j)) {
                    for jobs in all.iter_mut() {
                        jobs.insert(job(j, p));
                    }
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
                for jobs in all.iter_mut() {
                    prop_assert_eq!(jobs.launch_next(id, STAGE, slot), expected);
                }
                live.extend(expected);
            }
            Op::Copy(k, s) => {
                let Some(of) = pick(live, k) else { return };
                let (id, slot) = (of.task.job, SlotId::new(s));
                let (state, running) = reference.get_mut(&id).expect("live job exists");
                let expected = state.taskset_mut(STAGE).unwrap().launch_copy(of.task.partition, slot);
                *running += 1;
                for jobs in all.iter_mut() {
                    prop_assert_eq!(jobs.launch_copy(id, STAGE, of.task.partition, slot), Some(expected));
                }
                live.push(expected);
            }
            Op::Finish(k) => {
                let Some(instance) = pick(live, k) else { return };
                let (state, running) = reference.get_mut(&instance.task.job).unwrap();
                let expected = state.taskset_mut(STAGE).unwrap().instance_finished(instance, SimDuration::ZERO);
                *running -= 1 + expected.losers.len();
                for jobs in all.iter_mut() {
                    let outcome = jobs.instance_finished(instance, SimDuration::ZERO).expect("live job exists");
                    prop_assert_eq!(outcome.first_finish, expected.first_finish);
                    prop_assert_eq!(&outcome.losers, &expected.losers);
                }
                live.retain(|i| *i != instance && !expected.losers.iter().any(|(l, _)| l == i));
            }
            Op::Crash(k) => {
                let Some(instance) = pick(live, k) else { return };
                let (state, running) = reference.get_mut(&instance.task.job).unwrap();
                let expected = state.taskset_mut(STAGE).unwrap().instance_crashed(instance);
                *running -= 1;
                for jobs in all.iter_mut() {
                    prop_assert_eq!(jobs.instance_crashed(instance), expected);
                }
                live.retain(|i| *i != instance);
            }
            Op::Complete(j) => {
                let id = JobId::new(j);
                if let Some((state, _)) = reference.get_mut(&id) {
                    state.mark_complete(SimTime::from_secs(j));
                }
                for jobs in all.iter_mut() {
                    jobs.mark_complete(id, SimTime::from_secs(j));
                }
            }
        }
    }

    /// The reference's pending jobs per priority level: their count and
    /// their pending task sets and preferred slots, walked from the task
    /// sets.
    fn reference_levels(reference: &Reference) -> Vec<(Priority, LevelTally)> {
        let mut levels: BTreeMap<Priority, LevelTally> = BTreeMap::new();
        for (state, _) in reference.values().filter(|(j, _)| !j.is_complete() && j.has_pending_tasks()) {
            let level = levels.entry(state.priority()).or_default();
            level.entries += 1;
            for tsm in state.active_tasksets().filter(|t| t.has_pending()) {
                level.tally.add(DeclineTally { sets: 1, preferred: tsm.preferred().len() as u32 });
            }
        }
        levels.into_iter().collect()
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
        /// on lookups, iteration order, the pending set, its ordered index
        /// and that index's per-priority entry counts and tally sums, the
        /// incomplete count and every job's running count, whatever order
        /// ids are admitted in. The index is held to the reference under
        /// an order that reads running counts and under one with static
        /// keys.
        #[test]
        fn job_table_agrees_with_ordered_map_reference(
            ops in proptest::collection::vec(op_strategy(), 0..200)
        ) {
            let orders: [&dyn JobOrder; 2] = [&Fair, &FifoPriority];
            let mut all = [Jobs::new(), Jobs::new()];
            let mut reference = Reference::new();
            let mut live = Vec::new();
            for op in ops {
                apply(&mut all, &mut reference, &mut live, op);
                for (order, jobs) in orders.into_iter().zip(&mut all) {
                    jobs.rekey(order);
                    let mut sorted: Vec<JobSnapshot> = reference
                        .values()
                        .filter(|(j, _)| !j.is_complete() && j.has_pending_tasks())
                        .map(|(j, running)| JobSnapshot {
                            id: j.id(),
                            priority: j.priority(),
                            arrival: j.submitted_at(),
                            running_slots: if order.reads_running_slots() { *running } else { 0 },
                        })
                        .collect();
                    crate::order::sort_worst_first(order, &mut sorted);
                    prop_assert_eq!(jobs.pending_worst_first(), &sorted[..], "{}", order.name());
                    prop_assert_eq!(
                        jobs.pending_levels().iter().collect::<Vec<_>>(),
                        reference_levels(&reference),
                        "{}",
                        order.name()
                    );
                }
                let jobs = &all[0];
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
