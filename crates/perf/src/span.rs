//! Scoped-span wall-clock profiling.
//!
//! [`SpanProfiler`] aggregates `enter`/`exit` pairs into per-phase
//! self/total time keyed by the full span path (`run_loop/offer_round`),
//! rendered as a flamegraph-style text tree or sorted-key JSON.
//!
//! The profiler never reads a clock itself: readings come from an
//! injected [`SpanClock`], whose only real-time implementation lives at
//! the workspace's sanctioned wall-clock barrier (`ssr-sim::walltime`).
//! That keeps the clippy wall-clock ban intact — this crate stays
//! deterministic because nothing here can observe time without a
//! caller handing it a clock. Span output belongs to the
//! non-deterministic plane: stderr and explicitly wall-clock report
//! files only, never byte-pinned artifacts.

use std::collections::BTreeMap;
use std::fmt;

use serde::Value;

/// A monotonic seconds source injected into [`SpanProfiler`].
///
/// The real-time implementation is `ssr_sim::walltime::WallClock`;
/// tests inject scripted clocks to pin report bytes.
pub trait SpanClock {
    /// Seconds elapsed from an arbitrary fixed origin.
    fn now_secs(&self) -> f64;
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Times the span was entered.
    pub count: u64,
    /// Wall seconds between enter and exit, summed over entries.
    pub total_secs: f64,
    /// `total_secs` minus time spent in child spans.
    pub self_secs: f64,
}

struct Frame {
    path: String,
    started: f64,
    child_secs: f64,
}

/// Aggregating scoped-span profiler.
///
/// # Example
///
/// ```
/// use ssr_perf::span::{SpanClock, SpanProfiler};
///
/// struct Zero;
/// impl SpanClock for Zero {
///     fn now_secs(&self) -> f64 { 0.0 }
/// }
///
/// let mut p = SpanProfiler::new(Box::new(Zero));
/// p.enter("run_loop");
/// p.enter("offer_round");
/// p.exit();
/// p.exit();
/// let report = p.report();
/// assert_eq!(report.rows.len(), 2);
/// assert_eq!(report.rows[1].path, "run_loop/offer_round");
/// ```
pub struct SpanProfiler {
    clock: Box<dyn SpanClock>,
    stack: Vec<Frame>,
    agg: BTreeMap<String, SpanStats>,
}

impl fmt::Debug for SpanProfiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanProfiler")
            .field("open", &self.stack.len())
            .field("paths", &self.agg.len())
            .finish()
    }
}

impl SpanProfiler {
    /// Creates a profiler reading time from `clock`.
    pub fn new(clock: Box<dyn SpanClock>) -> SpanProfiler {
        SpanProfiler { clock, stack: Vec::new(), agg: BTreeMap::new() }
    }

    /// Opens a span named `name` nested under the currently open span.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn enter(&mut self, name: &str) {
        let path = match self.stack.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_owned(),
        };
        let started = self.clock.now_secs();
        self.stack.push(Frame { path, started, child_secs: 0.0 });
    }

    /// Closes the most recently opened span, folding its elapsed time
    /// into the aggregate and charging it to the parent's child time.
    ///
    /// Exiting with no open span is a no-op (debug builds assert).
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn exit(&mut self) {
        let now = self.clock.now_secs();
        let Some(frame) = self.stack.pop() else {
            debug_assert!(false, "SpanProfiler::exit with no open span");
            return;
        };
        let total = (now - frame.started).max(0.0);
        let stats = self.agg.entry(frame.path).or_default();
        stats.count += 1;
        stats.total_secs += total;
        stats.self_secs += (total - frame.child_secs).max(0.0);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_secs += total;
        }
    }

    /// Number of currently open (unexited) spans.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Snapshot of the aggregate so far, rows sorted by span path.
    pub fn report(&self) -> SpanReport {
        debug_assert!(self.stack.is_empty(), "report with {} open spans", self.stack.len());
        SpanReport {
            rows: self
                .agg
                .iter()
                .map(|(path, s)| SpanRow { path: path.clone(), stats: *s })
                .collect(),
        }
    }
}

/// One aggregated span path in a [`SpanReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Full `/`-joined path from the root span.
    pub path: String,
    /// Aggregated timings for this path.
    pub stats: SpanStats,
}

impl SpanRow {
    fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// Aggregated span timings, sorted by path (parents before children).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanReport {
    /// One row per distinct span path.
    pub rows: Vec<SpanRow>,
}

impl SpanReport {
    /// Renders a flamegraph-style text tree: children indented under
    /// parents, with total/self milliseconds and entry counts.
    pub fn render_text(&self) -> String {
        let mut out = String::from("span profile (wall-clock plane)\n");
        out.push_str(&format!("  {:>12} {:>12} {:>10}  span\n", "total(ms)", "self(ms)", "count"));
        for row in &self.rows {
            let indent = "  ".repeat(row.depth());
            out.push_str(&format!(
                "  {:>12.3} {:>12.3} {:>10}  {indent}{}\n",
                row.stats.total_secs * 1e3,
                row.stats.self_secs * 1e3,
                row.stats.count,
                row.name(),
            ));
        }
        out
    }

    /// Renders the report as pretty-printed JSON with sorted keys.
    ///
    /// Byte-stable *given the clock readings* — with the real wall
    /// clock the values differ run to run, which is why span JSON is
    /// never a committed artifact.
    pub fn render_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("count".to_owned(), Value::UInt(r.stats.count)),
                    ("path".to_owned(), Value::Str(r.path.clone())),
                    ("self_secs".to_owned(), Value::Float(r.stats.self_secs)),
                    ("total_secs".to_owned(), Value::Float(r.stats.total_secs)),
                ])
            })
            .collect();
        let root = Value::Object(vec![("spans".to_owned(), Value::Array(rows))]);
        debug_assert!(crate::sorted_keys(&root), "span JSON keys must be sorted");
        serde_json::to_string_pretty(&root).expect("serializer is total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Clock that replays a scripted sequence of readings.
    struct Scripted {
        at: Rc<Cell<usize>>,
        times: Vec<f64>,
    }

    impl SpanClock for Scripted {
        fn now_secs(&self) -> f64 {
            let i = self.at.get();
            self.at.set(i + 1);
            self.times[i]
        }
    }

    fn scripted(times: &[f64]) -> SpanProfiler {
        SpanProfiler::new(Box::new(Scripted { at: Rc::new(Cell::new(0)), times: times.to_vec() }))
    }

    #[test]
    fn nesting_attributes_self_and_total() {
        // run_loop [0, 10]; offer_round [1, 4]; dispatch [5, 8].
        let mut p = scripted(&[0.0, 1.0, 4.0, 5.0, 8.0, 10.0]);
        p.enter("run_loop");
        p.enter("offer_round");
        p.exit();
        p.enter("dispatch");
        p.exit();
        p.exit();
        let r = p.report();
        assert_eq!(r.rows.len(), 3);
        let by_path = |p: &str| r.rows.iter().find(|x| x.path == p).expect(p).stats;
        let root = by_path("run_loop");
        assert_eq!(root.count, 1);
        assert!((root.total_secs - 10.0).abs() < 1e-12);
        assert!((root.self_secs - 4.0).abs() < 1e-12, "10 total - 3 - 3 child");
        assert!((by_path("run_loop/offer_round").total_secs - 3.0).abs() < 1e-12);
        assert!((by_path("run_loop/dispatch").self_secs - 3.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_entries_accumulate() {
        let mut p = scripted(&[0.0, 1.0, 2.0, 3.0]);
        p.enter("phase");
        p.exit();
        p.enter("phase");
        p.exit();
        let r = p.report();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].stats.count, 2);
        assert!((r.rows[0].stats.total_secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn text_tree_indents_children() {
        let mut p = scripted(&[0.0, 0.0, 1.0, 2.0]);
        p.enter("outer");
        p.enter("inner");
        p.exit();
        p.exit();
        let text = p.report().render_text();
        assert!(text.contains("  outer\n"), "{text}");
        assert!(text.contains("    inner\n"), "{text}");
    }

    #[test]
    fn golden_span_json_bytes() {
        // Byte-pin the span JSON shape with a scripted clock; the real
        // clock changes values, never structure.
        let mut p = scripted(&[0.0, 0.25, 0.5, 1.0]);
        p.enter("run_loop");
        p.enter("offer_round");
        p.exit();
        p.exit();
        let json = p.report().render_json();
        let expected = "{\n  \"spans\": [\n    {\n      \"count\": 1,\n      \"path\": \"run_loop\",\n      \"self_secs\": 0.75,\n      \"total_secs\": 1.0\n    },\n    {\n      \"count\": 1,\n      \"path\": \"run_loop/offer_round\",\n      \"self_secs\": 0.25,\n      \"total_secs\": 0.25\n    }\n  ]\n}";
        assert_eq!(json, expected);
    }

    #[test]
    fn unbalanced_exit_is_ignored_in_release() {
        let mut p = scripted(&[0.0, 1.0, 2.0]);
        p.enter("a");
        p.exit();
        assert_eq!(p.open_spans(), 0);
        assert_eq!(p.report().rows.len(), 1);
    }
}
