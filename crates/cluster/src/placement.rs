//! The data-placement map: which slots hold each phase's output.
//!
//! When a task completes on a slot, that slot holds the task's output
//! partition (and a warm JVM with the job's classes loaded). A downstream
//! task therefore *prefers* the slots that ran its upstream phases — this
//! is exactly why the paper's Case-1 (§II-B) wants downstream computations
//! resumed on the same slots, and why losing those slots to a lower
//! priority job hurts so much.

use std::collections::{BTreeMap, BTreeSet};

use ssr_dag::{JobId, StageId};

use crate::topology::SlotId;

/// Records, per `(job, stage)`, the slot on which each partition ran.
///
/// # Example
///
/// ```
/// use ssr_cluster::{DataPlacement, SlotId};
/// use ssr_dag::{JobId, StageId};
///
/// let mut placement = DataPlacement::new();
/// let (job, map) = (JobId::new(1), StageId::new(0));
/// placement.record(job, map, 0, SlotId::new(3));
/// placement.record(job, map, 1, SlotId::new(5));
///
/// let preferred = placement.preferred_slots(job, &[map]);
/// assert!(preferred.contains(&SlotId::new(3)));
/// assert!(preferred.contains(&SlotId::new(5)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataPlacement {
    // Ordered map: iteration and clearing visit entries in key order, so
    // nothing downstream can observe a hash-seed-dependent order.
    outputs: BTreeMap<(JobId, StageId), Vec<SlotId>>,
}

impl DataPlacement {
    /// Creates an empty placement map.
    pub fn new() -> Self {
        DataPlacement::default()
    }

    /// Records that partition `partition` of `(job, stage)` ran on `slot`.
    ///
    /// Re-recording a partition (a straggler copy finishing first on a
    /// different slot) replaces the previous slot.
    pub fn record(&mut self, job: JobId, stage: StageId, partition: u32, slot: SlotId) {
        let slots = self.outputs.entry((job, stage)).or_default();
        let idx = partition as usize;
        if slots.len() <= idx {
            slots.resize(idx + 1, SlotId::new(u32::MAX));
        }
        slots[idx] = slot;
    }

    /// The slots holding the outputs of the given upstream stages of
    /// `job` — the preferred slots of a downstream task, in ascending
    /// slot order so every consumer iterates deterministically.
    ///
    /// In Spark, a shuffle (wide) dependency reads from *all* upstream
    /// partitions, so the preference is the union over all parents;
    /// unknown partitions (never recorded) are skipped.
    pub fn preferred_slots(&self, job: JobId, parents: &[StageId]) -> BTreeSet<SlotId> {
        let mut preferred = BTreeSet::new();
        for &stage in parents {
            if let Some(slots) = self.outputs.get(&(job, stage)) {
                preferred.extend(slots.iter().copied().filter(|s| s.as_u32() != u32::MAX));
            }
        }
        preferred
    }

    /// Drops all records of `job` (call on job completion).
    pub fn clear_job(&mut self, job: JobId) {
        self.outputs.retain(|(j, _), _| *j != job);
    }

    /// Number of `(job, stage)` entries currently tracked.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// `true` if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut p = DataPlacement::new();
        let job = JobId::new(1);
        p.record(job, StageId::new(0), 0, SlotId::new(2));
        p.record(job, StageId::new(0), 2, SlotId::new(4));
        // Partition 1 is a gap: it never ran, so it prefers no slot.
        let preferred = p.preferred_slots(job, &[StageId::new(0)]);
        assert_eq!(preferred.into_iter().collect::<Vec<_>>(), vec![SlotId::new(2), SlotId::new(4)]);
        assert!(p.preferred_slots(job, &[StageId::new(9)]).is_empty());
    }

    #[test]
    fn preferred_slots_union_over_parents() {
        let mut p = DataPlacement::new();
        let job = JobId::new(1);
        p.record(job, StageId::new(0), 0, SlotId::new(1));
        p.record(job, StageId::new(1), 0, SlotId::new(7));
        let preferred = p.preferred_slots(job, &[StageId::new(0), StageId::new(1)]);
        assert_eq!(preferred.len(), 2);
        assert!(preferred.contains(&SlotId::new(1)));
        assert!(preferred.contains(&SlotId::new(7)));
    }

    #[test]
    fn jobs_are_isolated() {
        let mut p = DataPlacement::new();
        p.record(JobId::new(1), StageId::new(0), 0, SlotId::new(1));
        let other = p.preferred_slots(JobId::new(2), &[StageId::new(0)]);
        assert!(other.is_empty());
    }

    #[test]
    fn rerecord_replaces_slot() {
        let mut p = DataPlacement::new();
        let job = JobId::new(1);
        p.record(job, StageId::new(0), 0, SlotId::new(1));
        p.record(job, StageId::new(0), 0, SlotId::new(9));
        let preferred = p.preferred_slots(job, &[StageId::new(0)]);
        assert_eq!(preferred.into_iter().collect::<Vec<_>>(), vec![SlotId::new(9)]);
    }

    #[test]
    fn clear_job_drops_all_stages() {
        let mut p = DataPlacement::new();
        p.record(JobId::new(1), StageId::new(0), 0, SlotId::new(1));
        p.record(JobId::new(1), StageId::new(1), 0, SlotId::new(2));
        p.record(JobId::new(2), StageId::new(0), 0, SlotId::new(3));
        p.clear_job(JobId::new(1));
        assert_eq!(p.len(), 1);
        assert!(p.preferred_slots(JobId::new(1), &[StageId::new(0), StageId::new(1)]).is_empty());
        assert!(!p.preferred_slots(JobId::new(2), &[StageId::new(0)]).is_empty());
    }

    #[test]
    fn empty_map_behaviour() {
        let p = DataPlacement::new();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert!(p.preferred_slots(JobId::new(1), &[StageId::new(0)]).is_empty());
    }
}
