//! Typed identifiers for jobs, phases and tasks, plus the scheduling
//! priority.

use std::cmp::Ordering;
use std::fmt;

/// A cluster-unique job (application) identifier.
///
/// In the paper a *job* is an application (e.g. one KMeans run), not a
/// single Spark action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(u64);

impl JobId {
    /// Creates a job id from a raw value.
    pub const fn new(raw: u64) -> Self {
        JobId(raw)
    }

    /// The raw value.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl PartialOrd for JobId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for JobId {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// A phase (stage) index within one job; phases are numbered in the order
/// they were declared to the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageId(u32);

impl StageId {
    /// Creates a stage id from a raw index.
    pub const fn new(raw: u32) -> Self {
        StageId(raw)
    }

    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The index as `usize`, for slice addressing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage-{}", self.0)
    }
}

impl PartialOrd for StageId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StageId {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// A task identifier: job + phase + partition index within the phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId {
    /// The owning job.
    pub job: JobId,
    /// The phase this task belongs to.
    pub stage: StageId,
    /// The partition index within the phase, `0..parallelism`.
    pub partition: u32,
}

impl TaskId {
    /// Creates a task id.
    pub const fn new(job: JobId, stage: StageId, partition: u32) -> Self {
        TaskId { job, stage, partition }
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/task-{}", self.job, self.stage, self.partition)
    }
}

impl PartialOrd for TaskId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TaskId {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (self.job, self.stage, self.partition).cmp(&(other.job, other.stage, other.partition))
    }
}

/// A scheduling priority; **larger is more important**.
///
/// The paper's foreground (latency-sensitive) jobs receive a higher
/// priority than background (batch) jobs. Reserved slots inherit the
/// priority of the reserving job and may only be overridden by a strictly
/// higher priority (§III-B, "Support of priority scheduling").
///
/// # Example
///
/// ```
/// use ssr_dag::Priority;
///
/// let fg = Priority::new(10);
/// let bg = Priority::new(0);
/// assert!(fg > bg);
/// assert_eq!(Priority::default(), Priority::new(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Priority(i32);

impl Priority {
    /// The lowest possible priority.
    pub const MIN: Priority = Priority(i32::MIN);
    /// The highest possible priority.
    pub const MAX: Priority = Priority(i32::MAX);

    /// Creates a priority from a raw level; larger is more important.
    pub const fn new(level: i32) -> Self {
        Priority(level)
    }

    /// The raw level.
    pub const fn level(self) -> i32 {
        self.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio({})", self.0)
    }
}

impl PartialOrd for Priority {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Priority {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_round_trip() {
        assert_eq!(JobId::new(7).as_u64(), 7);
        assert_eq!(StageId::new(3).as_u32(), 3);
        assert_eq!(StageId::new(3).index(), 3);
    }

    #[test]
    fn display_formats() {
        let t = TaskId::new(JobId::new(1), StageId::new(2), 5);
        assert_eq!(format!("{t}"), "job-1/stage-2/task-5");
        assert_eq!(format!("{}", Priority::new(-3)), "prio(-3)");
    }

    #[test]
    fn priority_orders_by_level() {
        assert!(Priority::new(5) > Priority::new(4));
        assert!(Priority::MIN < Priority::default());
        assert!(Priority::default() < Priority::MAX);
    }

    #[test]
    fn task_ids_are_hashable_and_distinct() {
        let mut set = HashSet::new();
        for p in 0..4 {
            set.insert(TaskId::new(JobId::new(1), StageId::new(0), p));
        }
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn stage_ordering_follows_index() {
        assert!(StageId::new(0) < StageId::new(1));
    }

    #[test]
    fn task_ids_order_by_job_then_stage_then_partition() {
        let task = |j, s, p| TaskId::new(JobId::new(j), StageId::new(s), p);
        let ascending =
            [task(0, 0, 0), task(0, 0, 9), task(0, 1, 0), task(1, 0, 0), task(1, 2, 3)];
        assert!(ascending.windows(2).all(|w| w[0] < w[1]), "{ascending:?}");
        assert_eq!(task(2, 1, 1).partial_cmp(&task(2, 1, 1)), Some(Ordering::Equal));
    }
}
