//! Job-ordering policies: who gets the next slot.
//!
//! The paper enforces isolation under two regimes: strict **priority
//! scheduling** (foreground jobs outrank background jobs) and **fair
//! sharing**, which it casts as *dynamic priority scheduling* — the job
//! with the least allocation is served first. Both are expressed through
//! the [`JobOrder`] trait consulted on every resource offer round.

use std::cmp::Ordering;
use std::fmt;

use ssr_dag::{JobId, Priority};
use ssr_simcore::SimTime;

/// A point-in-time view of one schedulable job, used to pick the next job
/// to serve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSnapshot {
    /// The job.
    pub id: JobId,
    /// Its static scheduling priority.
    pub priority: Priority,
    /// Its submission time.
    pub arrival: SimTime,
    /// Slots currently running its tasks (for fair sharing).
    pub running_slots: usize,
}

/// A policy that picks which job receives the next available slot.
///
/// Implementations must be deterministic: ties must be broken by a total
/// order (we use job id) so simulations replay exactly. `select` must
/// return the minimum of `candidates` under that order, and
/// [`compare`](JobOrder::compare) must agree with it: the offer round
/// sorts its candidates once with `compare` and then serves them best
/// first.
pub trait JobOrder: fmt::Debug {
    /// Picks the next job to serve from `candidates` (jobs with at least
    /// one pending task), or `None` if empty.
    fn select(&self, candidates: &[JobSnapshot]) -> Option<JobId>;

    /// Orders two candidates: `Less` means `a` is served before `b`.
    ///
    /// The default asks [`select`](JobOrder::select) to pick from the
    /// pair, so an order that implements only `select` still works; the
    /// built-in orders implement it natively.
    fn compare(&self, a: &JobSnapshot, b: &JobSnapshot) -> Ordering {
        if a.id == b.id {
            Ordering::Equal
        } else if self.select(&[*a, *b]) == Some(a.id) {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Strict priority scheduling with FIFO tie-breaking — the regime of the
/// paper's §II and §VI-A cluster experiments: the highest-priority job is
/// always served first; among equals, the earliest arrival wins.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoPriority;

impl JobOrder for FifoPriority {
    fn select(&self, candidates: &[JobSnapshot]) -> Option<JobId> {
        candidates.iter().min_by(|a, b| self.compare(a, b)).map(|s| s.id)
    }

    fn compare(&self, a: &JobSnapshot, b: &JobSnapshot) -> Ordering {
        b.priority
            .cmp(&a.priority) // higher priority first
            .then(a.arrival.cmp(&b.arrival))
            .then(a.id.cmp(&b.id))
    }

    fn name(&self) -> &'static str {
        "fifo-priority"
    }
}

/// Pure FIFO: earliest arrival first, ignoring priorities.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl JobOrder for Fifo {
    fn select(&self, candidates: &[JobSnapshot]) -> Option<JobId> {
        candidates.iter().min_by(|a, b| self.compare(a, b)).map(|s| s.id)
    }

    fn compare(&self, a: &JobSnapshot, b: &JobSnapshot) -> Ordering {
        a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id))
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Max-min fair sharing via dynamic priority: the job with the smallest
/// running allocation is served first (the Spark Fair Scheduler
/// behaviour used in the paper's Fig. 13 experiment).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fair;

impl JobOrder for Fair {
    fn select(&self, candidates: &[JobSnapshot]) -> Option<JobId> {
        candidates.iter().min_by(|a, b| self.compare(a, b)).map(|s| s.id)
    }

    fn compare(&self, a: &JobSnapshot, b: &JobSnapshot) -> Ordering {
        a.running_slots
            .cmp(&b.running_slots)
            .then(a.arrival.cmp(&b.arrival))
            .then(a.id.cmp(&b.id))
    }

    fn name(&self) -> &'static str {
        "fair"
    }
}

/// Sorts an offer round's candidates worst first, so the job to serve
/// next is always the last element — the one
/// [`select`](JobOrder::select) would pick from the whole slice.
pub(crate) fn sort_worst_first(order: &dyn JobOrder, queue: &mut [JobSnapshot]) {
    queue.sort_unstable_by(|a, b| order.compare(b, a));
}

/// Puts the last candidate of a [`sort_worst_first`] queue — the job just
/// served one more slot — back in order after bumping its running count.
/// Only an order that reads running counts ([`Fair`]) can move it; for
/// the static orders one comparison confirms it stays at the end.
pub(crate) fn requeue_served(order: &dyn JobOrder, queue: &mut Vec<JobSnapshot>) {
    let Some(mut served) = queue.pop() else { return };
    served.running_slots += 1;
    match queue.last() {
        Some(next) if order.compare(&served, next) == Ordering::Greater => {
            let pos = queue.partition_point(|c| order.compare(c, &served) == Ordering::Greater);
            queue.insert(pos, served);
        }
        _ => queue.push(served),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn snap(id: u64, prio: i32, arrival: u64, running: usize) -> JobSnapshot {
        JobSnapshot {
            id: JobId::new(id),
            priority: Priority::new(prio),
            arrival: SimTime::from_secs(arrival),
            running_slots: running,
        }
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert_eq!(FifoPriority.select(&[]), None);
        assert_eq!(Fair.select(&[]), None);
        assert_eq!(Fifo.select(&[]), None);
    }

    #[test]
    fn priority_wins_over_arrival() {
        let c = [snap(1, 0, 0, 0), snap(2, 10, 5, 0)];
        assert_eq!(FifoPriority.select(&c), Some(JobId::new(2)));
    }

    #[test]
    fn equal_priority_falls_back_to_fifo() {
        let c = [snap(1, 5, 10, 0), snap(2, 5, 3, 0)];
        assert_eq!(FifoPriority.select(&c), Some(JobId::new(2)));
    }

    #[test]
    fn equal_everything_breaks_by_id() {
        let c = [snap(7, 5, 3, 0), snap(2, 5, 3, 0)];
        assert_eq!(FifoPriority.select(&c), Some(JobId::new(2)));
        assert_eq!(Fair.select(&c), Some(JobId::new(2)));
    }

    #[test]
    fn fifo_ignores_priority() {
        let c = [snap(1, 0, 1, 0), snap(2, 99, 2, 0)];
        assert_eq!(Fifo.select(&c), Some(JobId::new(1)));
    }

    #[test]
    fn fair_serves_least_allocated() {
        let c = [snap(1, 0, 0, 8), snap(2, 0, 5, 2)];
        assert_eq!(Fair.select(&c), Some(JobId::new(2)));
    }

    #[test]
    fn fair_converges_to_even_split() {
        // Simulate granting slots one at a time; counts should stay within
        // one of each other.
        let mut running = [0usize, 0usize];
        for _ in 0..100 {
            let c = [snap(1, 0, 0, running[0]), snap(2, 0, 0, running[1])];
            let winner = Fair.select(&c).unwrap();
            running[(winner.as_u64() - 1) as usize] += 1;
            assert!(running[0].abs_diff(running[1]) <= 1);
        }
        assert_eq!(running[0] + running[1], 100);
    }

    /// An order that implements only `select`, so `compare` falls back
    /// to the trait default (as decorators that wrap another order do).
    #[derive(Debug)]
    struct SelectOnly(Fair);

    impl JobOrder for SelectOnly {
        fn select(&self, candidates: &[JobSnapshot]) -> Option<JobId> {
            self.0.select(candidates)
        }

        fn name(&self) -> &'static str {
            "select-only"
        }
    }

    #[test]
    fn native_compare_agrees_with_select() {
        let c = [snap(1, 0, 4, 3), snap(2, 7, 9, 1), snap(3, 7, 2, 1), snap(4, 0, 4, 0)];
        let orders: [&dyn JobOrder; 4] = [&FifoPriority, &Fifo, &Fair, &SelectOnly(Fair)];
        for order in orders {
            for a in &c {
                assert_eq!(order.compare(a, a), Ordering::Equal);
                for b in &c {
                    if a.id == b.id {
                        continue;
                    }
                    let first = if order.compare(a, b) == Ordering::Less { a.id } else { b.id };
                    assert_eq!(order.select(&[*a, *b]), Some(first), "{}", order.name());
                    assert_eq!(order.compare(a, b), order.compare(b, a).reverse());
                }
            }
        }
    }

    /// How one offer-round attempt on the served job ends.
    #[derive(Debug, Clone, Copy)]
    enum Outcome {
        /// Assigned, and the job still has pending tasks.
        Assigned,
        /// Assigned its last pending task.
        Drained,
        /// No acceptable slot: the job leaves the round.
        Declined,
    }

    /// The pre-queue offer loop: `select` over what is left, then remove
    /// by position. Returns the served job sequence.
    fn served_by_select(
        order: &dyn JobOrder,
        mut candidates: Vec<JobSnapshot>,
        outcomes: &[Outcome],
    ) -> Vec<JobId> {
        let mut served = Vec::new();
        for &outcome in outcomes {
            let Some(job) = order.select(&candidates) else { break };
            served.push(job);
            let pos = candidates.iter().position(|c| c.id == job).unwrap();
            match outcome {
                Outcome::Assigned => candidates[pos].running_slots += 1,
                Outcome::Drained | Outcome::Declined => {
                    candidates.swap_remove(pos);
                }
            }
        }
        served
    }

    /// The sorted queue the offer round uses.
    fn served_by_queue(
        order: &dyn JobOrder,
        mut queue: Vec<JobSnapshot>,
        outcomes: &[Outcome],
    ) -> Vec<JobId> {
        sort_worst_first(order, &mut queue);
        let mut served = Vec::new();
        for &outcome in outcomes {
            let Some(job) = queue.last().map(|c| c.id) else { break };
            served.push(job);
            match outcome {
                Outcome::Assigned => requeue_served(order, &mut queue),
                Outcome::Drained | Outcome::Declined => {
                    queue.pop();
                }
            }
        }
        served
    }

    fn outcome_strategy() -> impl Strategy<Value = Outcome> {
        prop_oneof![
            Just(Outcome::Assigned),
            Just(Outcome::Assigned),
            Just(Outcome::Drained),
            Just(Outcome::Declined),
        ]
    }

    proptest! {
        /// The sorted offer queue — including `Fair`'s re-insert after an
        /// assignment — serves exactly the job sequence that repeated
        /// `select` + remove serves, for every built-in order and for a
        /// select-only order that relies on the default `compare`.
        #[test]
        fn sorted_queue_serves_like_repeated_select(
            jobs in proptest::collection::vec((0i32..3, 0u64..4, 0usize..6), 0..24),
            outcomes in proptest::collection::vec(outcome_strategy(), 0..80),
        ) {
            let candidates: Vec<JobSnapshot> = jobs
                .iter()
                .enumerate()
                .map(|(i, &(prio, arrival, running))| {
                    // Ids out of arrival order, so the id tie-break matters.
                    snap((i as u64 * 7) % 31, prio, arrival, running)
                })
                .collect();
            let orders: [&dyn JobOrder; 4] = [&FifoPriority, &Fifo, &Fair, &SelectOnly(Fair)];
            for order in orders {
                prop_assert_eq!(
                    served_by_queue(order, candidates.clone(), &outcomes),
                    served_by_select(order, candidates.clone(), &outcomes),
                    "order {}",
                    order.name()
                );
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(FifoPriority.name(), "fifo-priority");
        assert_eq!(Fair.name(), "fair");
        assert_eq!(Fifo.name(), "fifo");
    }
}
