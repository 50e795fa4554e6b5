//! Deterministic work counters for the scheduling engine.
//!
//! [`WorkCounters`] counts the *work* the engine performs — slots
//! scanned, approval calls, scratch-buffer reuse, events moved through
//! the queue — without ever observing time or thread identity, so the
//! counts are a pure function of the simulation seed. They are always
//! on: there is no enable flag, no branch, and therefore no way for a
//! `--counters` run to diverge from an uncounted one.
//!
//! Counts live in [`Cell`]s because the hottest engine paths
//! (`best_candidate` and friends) take `&self` while other parts of the
//! scheduler are immutably borrowed; interior mutability lets those
//! paths count work without restructuring borrows.

use std::cell::Cell;

use serde::Value;

/// One monotone counter with interior mutability.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counter(Cell<u64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Raises the stored value to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn high_water(&self, v: u64) {
        if v > self.0.get() {
            self.0.set(v);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    fn set(&self, v: u64) {
        self.0.set(v);
    }
}

/// How a field combines when two counter sets are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Merge {
    /// Totals add (work performed).
    Sum,
    /// High-water marks take the maximum (peak live objects).
    Max,
}

/// Deterministic work counts for one run (or a merge of several).
///
/// Every field must be incremented by engine code *and* rendered in the
/// report — `tests/contract_coverage.rs` and `fields_cover_struct` fail
/// otherwise, so a counter can neither silently read zero nor silently
/// disappear from the output.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkCounters {
    /// `ApprovalLogic` verdicts of the group-by-group walk while ranking
    /// offer candidates, by the inline rule or an `approve` call: one per
    /// group the candidate does not own. Where the lowest group priority
    /// proves every verdict false and the walk is skipped, its verdicts
    /// are counted all the same, so the count does not depend on which
    /// path answered.
    pub approval_calls: Counter,
    /// Events popped off the simulation event queue.
    pub events_popped: Counter,
    /// Events pushed onto the simulation event queue.
    pub events_pushed: Counter,
    /// Offer rounds with a free or reserved slot that reused the cached
    /// snapshots of the schedulable jobs.
    pub index_hits: Counter,
    /// Rebuilds of the cached job snapshots (a job's running count,
    /// pending tasks or completion changed since the last round).
    pub index_rescans: Counter,
    /// Offer rounds executed by the scheduler.
    pub offer_rounds: Counter,
    /// Peak number of events pending in the queue at once.
    pub peak_event_queue_len: Counter,
    /// Peak number of task instances running at once.
    pub peak_running_instances: Counter,
    /// Reservation groups the group-by-group walk examines while ranking
    /// offer candidates, counted as for `approval_calls`: where the
    /// lowest group priority proves that no group approves and the walk
    /// is skipped, every group it would have examined.
    pub reservation_groups_touched: Counter,
    /// Scratch buffers allocated fresh (capacity had to grow from zero).
    pub scratch_allocs: Counter,
    /// Scratch buffers reused with their prior capacity intact.
    pub scratch_reuses: Counter,
    /// Slot entries scanned across free-list and candidate walks. A
    /// search that tests a word of slots at a time counts the slots a
    /// per-slot scan would visit: the whole preferred list for the
    /// process-local search, the owner's whole reserved set for ranking
    /// an approved reservation group.
    pub slots_scanned: Counter,
    /// Running instances examined as straggler/progress-speculation candidates.
    pub speculation_candidates_examined: Counter,
    /// Task instances assigned to slots (including speculative copies).
    pub tasks_assigned: Counter,
}

impl WorkCounters {
    /// Creates a zeroed counter set.
    pub fn new() -> WorkCounters {
        WorkCounters::default()
    }

    /// Field table in sorted-name order: `(name, counter, merge rule)`.
    ///
    /// Rendering and merging both walk this table, so a field added to
    /// the struct without a row here fails the `fields_cover_struct`
    /// test.
    fn fields(&self) -> [(&'static str, &Counter, Merge); 14] {
        [
            ("approval_calls", &self.approval_calls, Merge::Sum),
            ("events_popped", &self.events_popped, Merge::Sum),
            ("events_pushed", &self.events_pushed, Merge::Sum),
            ("index_hits", &self.index_hits, Merge::Sum),
            ("index_rescans", &self.index_rescans, Merge::Sum),
            ("offer_rounds", &self.offer_rounds, Merge::Sum),
            ("peak_event_queue_len", &self.peak_event_queue_len, Merge::Max),
            ("peak_running_instances", &self.peak_running_instances, Merge::Max),
            ("reservation_groups_touched", &self.reservation_groups_touched, Merge::Sum),
            ("scratch_allocs", &self.scratch_allocs, Merge::Sum),
            ("scratch_reuses", &self.scratch_reuses, Merge::Sum),
            ("slots_scanned", &self.slots_scanned, Merge::Sum),
            ("speculation_candidates_examined", &self.speculation_candidates_examined, Merge::Sum),
            ("tasks_assigned", &self.tasks_assigned, Merge::Sum),
        ]
    }

    /// Folds `other` into `self`: work totals add, peaks take the max.
    ///
    /// Merging is commutative for `Max` fields and order-independent for
    /// `Sum` fields, but callers still merge in a fixed order (trial
    /// index, foreground order) so intermediate states are reproducible.
    pub fn merge(&self, other: &WorkCounters) {
        for ((_, mine, rule), (_, theirs, _)) in self.fields().iter().zip(other.fields().iter()) {
            match rule {
                Merge::Sum => mine.add(theirs.get()),
                Merge::Max => mine.high_water(theirs.get()),
            }
        }
    }

    /// Resets every field to zero.
    pub fn reset(&self) {
        for (_, c, _) in self.fields() {
            c.set(0);
        }
    }

    /// `true` when every field is zero.
    pub fn is_zero(&self) -> bool {
        self.fields().iter().all(|(_, c, _)| c.get() == 0)
    }

    /// Renders the counters as aligned plain text, one field per line in
    /// sorted-name order.
    pub fn render_text(&self) -> String {
        let fields = self.fields();
        let width = fields.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
        let mut out = String::from("work counters\n");
        for (name, c, _) in fields {
            out.push_str(&format!("  {name:width$}  {}\n", c.get()));
        }
        out
    }

    /// Renders the counters as pretty-printed JSON with sorted keys —
    /// the workspace's byte-stability contract for committed artifacts.
    pub fn render_json(&self) -> String {
        let root = Value::Object(
            self.fields().iter().map(|(n, c, _)| ((*n).to_owned(), Value::UInt(c.get()))).collect(),
        );
        debug_assert!(crate::sorted_keys(&root), "counter JSON keys must be sorted");
        serde_json::to_string_pretty(&root).expect("serializer is total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_cover_struct() {
        // `fields()` must list every struct field exactly once: the
        // rendered report and the debug formatting agree on the set of
        // field names.
        let c = WorkCounters::new();
        let debug = format!("{c:?}");
        for (name, _, _) in c.fields() {
            assert!(debug.contains(name), "field {name} missing from struct");
        }
        let names: Vec<&str> = c.fields().iter().map(|f| f.0).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "fields() must be sorted and unique");
        // Count struct fields via the Debug output's `name: Counter(` pairs.
        let struct_fields = debug.matches(": Counter(").count();
        assert_eq!(struct_fields, names.len(), "fields() must cover every struct field");
    }

    #[test]
    fn merge_sums_work_and_maxes_peaks() {
        let a = WorkCounters::new();
        a.slots_scanned.add(10);
        a.peak_event_queue_len.high_water(7);
        let b = WorkCounters::new();
        b.slots_scanned.add(5);
        b.peak_event_queue_len.high_water(3);
        a.merge(&b);
        assert_eq!(a.slots_scanned.get(), 15);
        assert_eq!(a.peak_event_queue_len.get(), 7);
        b.peak_event_queue_len.high_water(99);
        a.merge(&b);
        assert_eq!(a.peak_event_queue_len.get(), 99);
        assert_eq!(a.slots_scanned.get(), 20);
    }

    #[test]
    fn reset_and_is_zero() {
        let c = WorkCounters::new();
        assert!(c.is_zero());
        c.approval_calls.inc();
        assert!(!c.is_zero());
        c.reset();
        assert!(c.is_zero());
    }

    #[test]
    fn text_and_json_are_sorted_and_stable() {
        let c = WorkCounters::new();
        c.offer_rounds.add(3);
        c.slots_scanned.add(120);
        c.peak_running_instances.high_water(8);
        let text = c.render_text();
        assert!(text.starts_with("work counters\n"));
        let json = c.render_json();
        assert_eq!(json, c.render_json(), "JSON must be byte-stable");
        // Keys appear in sorted order in the serialized bytes.
        let mut last = 0;
        for (name, _, _) in c.fields() {
            let key = format!("\"{name}\"");
            let at = json.find(&key).unwrap_or_else(|| panic!("missing {key}"));
            assert!(at > last || last == 0, "{key} out of order");
            last = at;
        }
        assert!(json.contains("\"slots_scanned\": 120"), "{json}");
    }

    #[test]
    fn golden_counter_report_bytes() {
        // Byte-pin both renderings: CI diffs counter reports across
        // invocations and worker counts, so the shape itself must never
        // drift silently.
        let c = WorkCounters::new();
        c.approval_calls.add(2);
        c.events_popped.add(9);
        c.events_pushed.add(11);
        c.index_hits.add(3);
        c.index_rescans.add(1);
        c.offer_rounds.add(4);
        c.peak_event_queue_len.high_water(6);
        c.peak_running_instances.high_water(2);
        c.reservation_groups_touched.add(5);
        c.scratch_allocs.add(1);
        c.scratch_reuses.add(7);
        c.slots_scanned.add(40);
        c.speculation_candidates_examined.add(8);
        c.tasks_assigned.add(10);
        let expected_json = "{\n  \"approval_calls\": 2,\n  \"events_popped\": 9,\n  \
                             \"events_pushed\": 11,\n  \"index_hits\": 3,\n  \
                             \"index_rescans\": 1,\n  \"offer_rounds\": 4,\n  \
                             \"peak_event_queue_len\": 6,\n  \"peak_running_instances\": 2,\n  \
                             \"reservation_groups_touched\": 5,\n  \"scratch_allocs\": 1,\n  \
                             \"scratch_reuses\": 7,\n  \"slots_scanned\": 40,\n  \
                             \"speculation_candidates_examined\": 8,\n  \
                             \"tasks_assigned\": 10\n}";
        assert_eq!(c.render_json(), expected_json);
        let expected_text = "work counters\n\
                             \x20 approval_calls                   2\n\
                             \x20 events_popped                    9\n\
                             \x20 events_pushed                    11\n\
                             \x20 index_hits                       3\n\
                             \x20 index_rescans                    1\n\
                             \x20 offer_rounds                     4\n\
                             \x20 peak_event_queue_len             6\n\
                             \x20 peak_running_instances           2\n\
                             \x20 reservation_groups_touched       5\n\
                             \x20 scratch_allocs                   1\n\
                             \x20 scratch_reuses                   7\n\
                             \x20 slots_scanned                    40\n\
                             \x20 speculation_candidates_examined  8\n\
                             \x20 tasks_assigned                   10\n";
        assert_eq!(c.render_text(), expected_text);
    }

    #[test]
    fn counter_high_water_never_lowers() {
        let c = Counter::default();
        c.high_water(5);
        c.high_water(2);
        assert_eq!(c.get(), 5);
        c.high_water(9);
        assert_eq!(c.get(), 9);
    }
}
