//! A deterministic, timestamped event queue.
//!
//! Events that share a timestamp are delivered in insertion order (FIFO),
//! which keeps simulations reproducible regardless of heap internals.

use std::collections::BinaryHeap;

use crate::SimTime;

/// A timestamped event queue with stable FIFO ordering for ties.
///
/// # Example
///
/// ```
/// use ssr_simcore::{SimTime, events::EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    peak_len: usize,
    popped: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, peak_len: 0, popped: 0 }
    }

    /// Creates an empty queue with capacity for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue { heap: BinaryHeap::with_capacity(cap), next_seq: 0, peak_len: 0, popped: 0 }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        if self.heap.len() > self.peak_len {
            self.peak_len = self.heap.len();
        }
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        self.popped += 1;
        Some((e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Highest number of events pending at once since construction (or
    /// the last [`reset`](EventQueue::reset)).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total events pushed since construction (or the last
    /// [`reset`](EventQueue::reset)).
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// Total events popped since construction (or the last
    /// [`reset`](EventQueue::reset)); events discarded by
    /// [`clear`](EventQueue::clear) do not count.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Restores the fresh-queue state — no pending events, sequence
    /// counter back at zero — while keeping the heap allocation, so a
    /// recycled queue behaves identically to a newly constructed one.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.peak_len = 0;
        self.popped = 0;
    }

    /// Reserves capacity for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// The number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_pushes_preserve_tie_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "a");
        q.push(SimTime::from_secs(1), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "b")));
        q.push(SimTime::from_secs(5), "c");
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "c")));
    }

    #[test]
    fn clear_empties_the_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peak_len_and_flow_counters_track_traffic() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        for i in 0..5 {
            q.push(SimTime::from_secs(1), i);
        }
        q.pop();
        q.pop();
        q.push(SimTime::from_secs(2), 9);
        // High-water mark was 5; current length is 4.
        assert_eq!(q.peak_len(), 5);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pushed(), 6);
        assert_eq!(q.popped(), 2);
        // clear() discards without counting as pops.
        q.clear();
        assert_eq!(q.popped(), 2);
        assert_eq!(q.pushed(), 6);
        // reset() restores the fresh-queue counters.
        q.reset();
        assert_eq!(q.peak_len(), 0);
        assert_eq!(q.pushed(), 0);
        assert_eq!(q.popped(), 0);
    }

    #[test]
    fn reset_restores_fresh_queue_behavior() {
        let mut q = EventQueue::with_capacity(64);
        for i in 0..50 {
            q.push(SimTime::from_secs(1), i);
        }
        let cap = q.capacity();
        q.reset();
        assert!(q.is_empty());
        assert!(q.capacity() >= cap, "reset must keep the allocation");
        // Tie-break sequence restarts at zero: interleaving with a fresh
        // queue yields identical pop orders.
        let mut fresh = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_secs(2), i);
            fresh.push(SimTime::from_secs(2), i);
        }
        while let Some(expected) = fresh.pop() {
            assert_eq!(q.pop(), Some(expected));
        }
        assert_eq!(q.pop(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popped timestamps are non-decreasing for any push sequence.
        #[test]
        fn pops_are_time_ordered(times in proptest::collection::vec(0u64..10_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Every pushed event is popped exactly once, and ties keep FIFO order.
        #[test]
        fn conservation_and_tie_fifo(times in proptest::collection::vec(0u64..50, 0..300)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut popped: Vec<(SimTime, usize)> = Vec::new();
            while let Some(p) = q.pop() {
                popped.push(p);
            }
            prop_assert_eq!(popped.len(), times.len());
            // Conservation: the multiset of ids is exactly 0..n.
            let mut ids: Vec<usize> = popped.iter().map(|p| p.1).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..times.len()).collect::<Vec<_>>());
            // FIFO among ties: for equal times, ids are increasing.
            for w in popped.windows(2) {
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1);
                }
            }
        }
    }
}
