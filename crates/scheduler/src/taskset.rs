//! The task-set manager: pending / running / finished tasks of one phase.
//!
//! Mirrors Spark's `TaskSetManager` (§V): one instance manages all parallel
//! tasks of one phase, created when the phase's barrier clears. It also
//! implements the copy bookkeeping needed by the paper's straggler
//! mitigation (§IV-C): a partition may have several running *instances*
//! (the original plus speculative copies); the first to finish wins and the
//! rest are killed.

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

/// One partition's record: its first live instance inline, its attempt
/// counter, and the slot holding its output once it finished. Further
/// live instances (speculative copies) sit in the task set's copy list,
/// so launching and finishing a partition's only instance allocates
/// nothing.
///
/// A finished partition has no live instance (the finish kills the
/// losers) and a live one has not finished, so one field holds the live
/// instance's slot or the output slot. The partition's live instances,
/// in the order a `Vec` would hold them under `push` and `swap_remove`,
/// are the inline one, then its copy-list entries in list order.
#[derive(Debug, Clone, Copy)]
struct Partition {
    /// The attempt of the first live instance; [`NONE`] while none is.
    attempt: u32,
    /// The first live instance's slot while one is live; once the
    /// partition finished, the slot of the instance that won it, which
    /// holds its output; [`NONE`] before either.
    slot: u32,
    next_attempt: u32,
    /// Live instances past the first: this partition's entries in the
    /// task set's copy list.
    copies: u32,
}

/// [`Partition::attempt`] with no live instance, and [`Partition::slot`]
/// with neither a live instance nor an output.
const NONE: u32 = u32::MAX;

impl Partition {
    fn finished(&self) -> bool {
        !self.is_live() && self.slot != NONE
    }

    /// `true` while at least one instance is live.
    fn is_live(&self) -> bool {
        self.attempt != NONE
    }

    /// `true` while exactly one instance is live.
    fn is_sole(&self) -> bool {
        self.is_live() && self.copies == 0
    }
}

/// A live instance past a partition's first, in the copy list.
#[derive(Debug, Clone, Copy)]
struct LiveCopy {
    partition: u32,
    attempt: u32,
    slot: SlotId,
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
    /// The lowest partition never launched; those from it up are pending.
    fresh: u32,
    /// Partitions re-queued by a crash, launched last-in first-out ahead
    /// of the fresh ones.
    requeued: Vec<u32>,
    partitions: Vec<Partition>,
    /// The live instances past each partition's first, in launch order
    /// but for `swap_remove`'s moves within a partition (see
    /// [`Partition`]).
    copies: Vec<LiveCopy>,
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
    /// The view of `slots`, which must be ascending and distinct.
    fn new(slots: Vec<SlotId>, spec: &ClusterSpec) -> Self {
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
            fresh: 0,
            requeued: Vec::new(),
            partitions: (0..parallelism)
                .map(|_| Partition { attempt: NONE, slot: NONE, next_attempt: 0, copies: 0 })
                .collect(),
            copies: Vec::new(),
            locality: None,
            // One per partition at most: sized once, so no finish grows it.
            durations: Vec::with_capacity(parallelism as usize),
        }
    }

    /// Sets the preferred slots (those holding upstream outputs), with
    /// their node and rack projections, so per-slot locality lookups need
    /// no scan over the preference set. Repeated slots count once; none
    /// leaves the phase without a preference.
    pub fn with_preferred(mut self, preferred: impl IntoIterator<Item = SlotId>, spec: &ClusterSpec) -> Self {
        let mut slots: Vec<SlotId> = preferred.into_iter().collect();
        slots.sort_unstable();
        slots.dedup();
        self.locality = (!slots.is_empty()).then(|| Box::new(LocalityView::new(slots, spec)));
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
    pub(crate) fn first_preferred_in(&self, slots: &[u64], fits: impl FnMut(SlotId) -> bool) -> Option<SlotId> {
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
        (self.parallelism() - self.fresh) as usize + self.requeued.len()
    }

    /// `true` if at least one original task awaits launch.
    pub fn has_pending(&self) -> bool {
        self.fresh < self.parallelism() || !self.requeued.is_empty()
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
        self.partitions.iter().filter(|p| p.finished()).map(|p| SlotId::new(p.slot))
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
        self.partitions.iter().enumerate().filter(|(_, p)| p.is_sole()).map(|(i, _)| i as u32)
    }

    /// Partitions with at least one live instance and no finish yet.
    pub fn ongoing_count(&self) -> usize {
        self.partitions.iter().filter(|p| p.is_live()).count()
    }

    /// The single running instance of `partition`, if it is ongoing with
    /// exactly one live instance (i.e. a
    /// [`copy_candidate_iter`](Self::copy_candidate_iter) item).
    pub fn sole_running_instance(&self, partition: u32) -> Option<(TaskInstance, SlotId)> {
        let p = self.partitions.get(partition as usize).filter(|p| p.is_sole())?;
        Some((self.instance(partition, p.attempt), SlotId::new(p.slot)))
    }

    fn instance(&self, partition: u32, attempt: u32) -> TaskInstance {
        TaskInstance { task: TaskId::new(self.job, self.stage, partition), attempt }
    }

    /// Launches the next pending original task on `slot`; returns `None`
    /// if no original is pending.
    pub fn launch_next(&mut self, slot: SlotId) -> Option<TaskInstance> {
        // A re-queued partition first, then the fresh ones in ascending
        // order.
        let partition = match self.requeued.pop() {
            Some(partition) => partition,
            None if self.fresh < self.parallelism() => {
                self.fresh += 1;
                self.fresh - 1
            }
            None => return None,
        };
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
        assert!(p.is_live(), "cannot copy a partition that is not running");
        self.launch_instance(partition, slot)
    }

    fn launch_instance(&mut self, partition: u32, slot: SlotId) -> TaskInstance {
        let p = &mut self.partitions[partition as usize];
        let attempt = p.next_attempt;
        p.next_attempt += 1;
        if p.is_live() {
            p.copies += 1;
            self.copies.push(LiveCopy { partition, attempt, slot });
        } else {
            debug_assert!(!p.finished(), "a finished partition is never relaunched");
            (p.attempt, p.slot) = (attempt, slot.as_u32());
        }
        self.instance(partition, attempt)
    }

    /// Removes live `instance` and returns its slot, moving the
    /// partition's last live instance into its place as `Vec::swap_remove`
    /// does; `None` if this set is not running `instance`. A partition
    /// left with no live instance and no finish gets its slot cleared.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    fn take_live(&mut self, instance: TaskInstance) -> Option<SlotId> {
        let TaskId { job, stage, partition } = instance.task;
        if (job, stage) != (self.job, self.stage) {
            return None;
        }
        let p = self.partitions.get_mut(partition as usize).filter(|p| p.is_live())?;
        let copies = &mut self.copies;
        let last = || copies.iter().rposition(|c| c.partition == partition);
        if p.attempt == instance.attempt {
            let slot = SlotId::new(p.slot);
            let moved = if p.copies > 0 { last().map(|at| copies.remove(at)) } else { None };
            (p.attempt, p.slot, p.copies) = match moved {
                Some(moved) => (moved.attempt, moved.slot.as_u32(), p.copies.saturating_sub(1)),
                None => (NONE, NONE, 0),
            };
            return Some(slot);
        }
        let at = copies.iter().position(|c| c.partition == partition && c.attempt == instance.attempt)?;
        let last = last().unwrap_or(at);
        let moved = copies.remove(last);
        p.copies = p.copies.saturating_sub(1);
        match copies.get_mut(at).filter(|_| at != last) {
            Some(taken) => Some(std::mem::replace(taken, moved).slot),
            None => Some(moved.slot),
        }
    }

    /// Records that `instance` finished after running for `duration`;
    /// returns whether it won its partition and which sibling instances
    /// must be killed. A winner's slot becomes the partition's output
    /// slot and its duration joins [`durations`](Self::durations).
    ///
    /// # Panics
    ///
    /// Panics if the instance is not currently running in this set.
    pub fn instance_finished(&mut self, instance: TaskInstance, duration: SimDuration) -> InstanceOutcome {
        let partition = instance.task.partition;
        let slot = self.take_live(instance).unwrap_or_else(|| panic!("{instance} is not running"));
        let p = self.partitions[partition as usize];
        let mut losers = Vec::new();
        if p.is_live() {
            losers.reserve_exact(1 + p.copies as usize);
            losers.push((self.instance(partition, p.attempt), SlotId::new(p.slot)));
            if p.copies > 0 {
                let of_partition = self.copies.iter().filter(|c| c.partition == partition);
                losers.extend(of_partition.map(|c| (self.instance(partition, c.attempt), c.slot)));
                self.copies.retain(|c| c.partition != partition);
            }
        }
        // A live instance's partition has not finished, so it always
        // wins: the finish kills the other live instances.
        let p = &mut self.partitions[partition as usize];
        (p.attempt, p.slot, p.copies) = (NONE, slot.as_u32(), 0);
        self.durations.push(duration.as_secs_f64());
        InstanceOutcome { first_finish: true, losers }
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
        if self.take_live(instance).is_none() {
            return false;
        }
        // A live instance's partition has not finished: with its last
        // instance gone it is pending again.
        let requeue = self.partitions.get(partition as usize).is_some_and(|p| !p.is_live());
        if requeue {
            self.requeued.push(partition);
        }
        requeue
    }

    /// Removes `instance` from the running set without finishing its
    /// partition (the instance was killed). An instance this set is not
    /// tracking is ignored, as in [`instance_crashed`].
    ///
    /// [`instance_crashed`]: TaskSetManager::instance_crashed
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn instance_killed(&mut self, instance: TaskInstance) {
        self.take_live(instance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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
    fn partition_stays_16_bytes() {
        assert_eq!(std::mem::size_of::<Partition>(), 16);
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
        let out_of_range = TaskInstance { task: TaskId::new(JobId::new(1), StageId::new(0), 99), attempt: 0 };
        assert!(!t.instance_crashed(out_of_range), "unknown partition ignored");
        // The tracked instance is untouched by the ignored crashes.
        assert!(t.instance_finished(original, SECOND).first_finish);
        assert!(t.is_complete());
    }

    #[test]
    #[should_panic(expected = "is not running")]
    fn finishing_unknown_instance_panics() {
        let mut t = tsm(1);
        let phantom = TaskInstance { task: TaskId::new(JobId::new(1), StageId::new(0), 0), attempt: 5 };
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
            assert_eq!(t.level_on(spec, slot), ssr_cluster::locality::level_for(spec, preferred, slot), "slot {slot}");
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
    fn process_local_reference(t: &TaskSetManager, pool: &ssr_cluster::SlotPool, demand: u32) -> Option<SlotId> {
        t.preferred().iter().copied().filter(|&s| pool.is_free_in_service(s) && pool.size(s) >= demand).min()
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

    /// The instance store as it read before live instances moved inline:
    /// one `Vec` of live instances per partition, changed by `push` and
    /// `swap_remove`, the finish taking the rest as its losers.
    #[derive(Default)]
    struct Reference {
        pending: Vec<u32>,
        running: Vec<Vec<(TaskInstance, SlotId)>>,
        next_attempt: Vec<u32>,
        output: Vec<Option<SlotId>>,
    }

    impl Reference {
        fn new(parallelism: u32) -> Self {
            let n = parallelism as usize;
            Reference {
                pending: (0..parallelism).rev().collect(),
                running: vec![Vec::new(); n],
                next_attempt: vec![0; n],
                output: vec![None; n],
            }
        }

        fn launch(&mut self, partition: u32, slot: SlotId) -> TaskInstance {
            let p = partition as usize;
            let task = TaskId::new(JobId::new(1), StageId::new(0), partition);
            let instance = TaskInstance { task, attempt: self.next_attempt[p] };
            self.next_attempt[p] += 1;
            self.running[p].push((instance, slot));
            instance
        }

        fn remove(&mut self, instance: TaskInstance) -> Option<SlotId> {
            let running = self.running.get_mut(instance.task.partition as usize)?;
            let idx = running.iter().position(|(i, _)| *i == instance)?;
            Some(running.swap_remove(idx).1)
        }

        fn finish(&mut self, instance: TaskInstance) -> Vec<(TaskInstance, SlotId)> {
            let slot = self.remove(instance).expect("a live instance");
            let p = instance.task.partition as usize;
            self.output[p] = Some(slot);
            std::mem::take(&mut self.running[p])
        }

        fn crash(&mut self, instance: TaskInstance) -> bool {
            let p = instance.task.partition;
            let requeue = self.remove(instance).is_some()
                && self.output[p as usize].is_none()
                && self.running[p as usize].is_empty();
            if requeue {
                self.pending.push(p);
            }
            requeue
        }

        fn live(&self) -> Vec<TaskInstance> {
            self.running.iter().flatten().map(|&(i, _)| i).collect()
        }

        fn sole(&self, partition: u32) -> Option<(TaskInstance, SlotId)> {
            let running = &self.running[partition as usize];
            (running.len() == 1).then(|| running[0])
        }
    }

    /// Asserts every query of the compact store against the reference.
    fn assert_same_queries(t: &TaskSetManager, r: &Reference) {
        let candidates: Vec<u32> = (0..t.parallelism()).filter(|&p| r.sole(p).is_some()).collect();
        assert_eq!(t.copy_candidate_iter().collect::<Vec<_>>(), candidates);
        assert_eq!(t.ongoing_count(), r.running.iter().filter(|l| !l.is_empty()).count());
        for p in 0..t.parallelism() + 1 {
            let expected = r.running.get(p as usize).and_then(|_| r.sole(p));
            assert_eq!(t.sole_running_instance(p), expected, "partition {p}");
        }
        assert_eq!(t.pending_count(), r.pending.len());
        assert_eq!(t.output_slots().collect::<Vec<_>>(), r.output.iter().flatten().copied().collect::<Vec<_>>());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random launches, copies, finishes, crashes and kills leave the
        /// compact store answering what the per-partition `Vec` answers:
        /// the same losers in the same order, the same re-queues, and the
        /// same sole instances, copy candidates and ongoing count after
        /// every step. Copies are drawn three times as often as the other
        /// steps, so partitions race several copies at once and the copy
        /// list interleaves partitions. Stale instances (finished, killed,
        /// or never launched attempts) are crashed and killed too.
        #[test]
        fn compact_store_matches_the_vec_reference(
            parallelism in 1u32..6,
            ops in proptest::collection::vec((0u32..7, 0u32..64, 0u32..64), 0..120),
        ) {
            let mut t = tsm(parallelism);
            let mut r = Reference::new(parallelism);
            for (op, pick, slot) in ops {
                let slot = SlotId::new(slot);
                let live = r.live();
                let copyable: Vec<u32> =
                    (0..parallelism).filter(|&p| !r.running[p as usize].is_empty()).collect();
                match op {
                    0 => {
                        let expected = r.pending.pop().map(|p| r.launch(p, slot));
                        assert_eq!(t.launch_next(slot), expected);
                    }
                    1 | 5 | 6 if !copyable.is_empty() => {
                        let p = copyable[pick as usize % copyable.len()];
                        assert_eq!(t.launch_copy(p, slot), r.launch(p, slot));
                    }
                    2 if !live.is_empty() => {
                        let instance = live[pick as usize % live.len()];
                        let outcome = t.instance_finished(instance, SECOND);
                        assert!(outcome.first_finish);
                        assert_eq!(outcome.losers, r.finish(instance));
                    }
                    3 | 4 => {
                        // A live instance, or a stale attempt of some partition.
                        let partition = pick % (parallelism + 1);
                        let stale = TaskInstance {
                            task: TaskId::new(JobId::new(1), StageId::new(0), partition),
                            attempt: pick % 4,
                        };
                        let instance = if pick % 3 == 0 || live.is_empty() {
                            stale
                        } else {
                            live[pick as usize % live.len()]
                        };
                        if op == 3 {
                            assert_eq!(t.instance_crashed(instance), r.crash(instance));
                        } else {
                            t.instance_killed(instance);
                            r.remove(instance);
                        }
                    }
                    _ => {}
                }
                assert_same_queries(&t, &r);
            }
        }
    }
}
