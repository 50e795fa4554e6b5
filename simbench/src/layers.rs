//! The per-layer accumulator of one traced pass, and the per-layer
//! metrics derived from it.

use std::collections::BTreeMap;
use std::rc::Rc;

use ssr_perf::span::SpanStats;
use ssr_perf::{SpanReport, WorkCounters};

use crate::measure::{ratio, CallTimer, SampledTimer};
use crate::probes::{OrderProbe, PolicyProbe, SinkProbe};

/// Event-queue pushes and pops: one in this many is timed.
pub const QUEUE_SAMPLE_EVERY: u64 = 32;

/// Everything one traced pass measured, summed over its replica runs and
/// analysis steps.
#[derive(Debug)]
pub struct Layers {
    /// Policy decorator probe (ApprovalLogic, completion handler).
    pub policy: Rc<PolicyProbe>,
    /// Job-order decorator probe.
    pub order: Rc<OrderProbe>,
    /// Trace-sink decorator probe.
    pub sink: Rc<SinkProbe>,
    /// `TaskScheduler::resource_offers`.
    pub resource_offers: CallTimer,
    /// `TaskScheduler::task_finished`.
    pub task_finished: CallTimer,
    /// `TaskScheduler::submit`.
    pub submit: CallTimer,
    /// `TaskScheduler::expire_reservations`.
    pub expire_reservations: CallTimer,
    /// `TaskScheduler::next_locality_unlock`.
    pub next_locality_unlock: CallTimer,
    /// `TaskScheduler::has_unfinished_jobs`.
    pub has_unfinished_jobs: CallTimer,
    /// Event-queue pushes and pops (sampled).
    pub event_queue: SampledTimer,
    /// Events popped off the replica's queue.
    pub events: u64,
    /// Highest pending-event count of any replica run.
    pub peak_queue_len: u64,
    /// Work counters summed over the replica runs.
    pub counters: WorkCounters,
    /// Span totals by path, summed over the replica runs.
    pub spans: BTreeMap<String, SpanStats>,
    /// Bytes of JSONL the traced sinks produced.
    pub trace_bytes: u64,
    /// Recovering the JSONL documents from the sinks.
    pub trace_finish: CallTimer,
    /// `ssr_explain::parse_trace`.
    pub explain_parse: CallTimer,
    /// `ssr_explain::explain`.
    pub explain_analyze: CallTimer,
    /// `Report::render_text` and `Report::render_json`.
    pub explain_render: CallTimer,
    /// `InvariantChecker::check_all`.
    pub check_replay: CallTimer,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            policy: Rc::default(),
            order: Rc::default(),
            sink: Rc::default(),
            resource_offers: CallTimer::with_percentiles(),
            task_finished: CallTimer::with_percentiles(),
            submit: CallTimer::new(),
            expire_reservations: CallTimer::new(),
            next_locality_unlock: CallTimer::new(),
            has_unfinished_jobs: CallTimer::new(),
            event_queue: SampledTimer::new(QUEUE_SAMPLE_EVERY),
            events: 0,
            peak_queue_len: 0,
            counters: WorkCounters::new(),
            spans: BTreeMap::new(),
            trace_bytes: 0,
            trace_finish: CallTimer::new(),
            explain_parse: CallTimer::new(),
            explain_analyze: CallTimer::new(),
            explain_render: CallTimer::new(),
            check_replay: CallTimer::new(),
        }
    }
}

/// One named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

impl Layers {
    /// Folds one replica run's span report into the pass totals.
    pub fn add_spans(&mut self, report: &SpanReport) {
        for row in &report.rows {
            let s = self.spans.entry(row.path.clone()).or_default();
            s.count += row.stats.count;
            s.total_secs += row.stats.total_secs;
            s.self_secs += row.stats.self_secs;
        }
    }

    fn span_ms(&self, path_suffix: &str, self_time: bool) -> f64 {
        self.spans
            .iter()
            .filter(|(path, _)| {
                path.as_str() == path_suffix || path.ends_with(&format!("/{path_suffix}"))
            })
            .map(|(_, s)| if self_time { s.self_secs } else { s.total_secs })
            .fold(0.0, |acc, ms| acc + ms * 1e3)
    }

    /// The pass's per-layer metrics. `clock_ns` is the cost of one clock
    /// read, subtracted once per timed call.
    pub fn metrics(&mut self, clock_ns: f64) -> Vec<Metric> {
        let c = &self.counters;
        let assigned = c.tasks_assigned.get() as f64;
        let select = self.order.select.borrow();
        let trace_events = self.sink.record.borrow().calls() as f64;
        let mut out = vec![
            (
                "core.approve.calls_per_assignment",
                ratio(self.policy.approve.calls() as f64, assigned),
                "calls/assignment",
            ),
            (
                "core.approve.ms",
                self.policy.approve.estimated_ms(clock_ns),
                "ms",
            ),
            (
                "core.on_task_completed.ms",
                self.policy
                    .on_task_completed
                    .borrow()
                    .corrected_ms(clock_ns),
                "ms",
            ),
            (
                "scheduler.order_select.ms",
                select.corrected_ms(clock_ns),
                "ms",
            ),
            (
                "scheduler.order_select.candidates_per_call",
                ratio(self.order.candidates.get() as f64, select.calls() as f64),
                "jobs/call",
            ),
            (
                "scheduler.snapshot_hit_ratio",
                ratio(
                    c.index_hits.get() as f64,
                    (c.index_hits.get() + c.index_rescans.get()) as f64,
                ),
                "ratio",
            ),
            (
                "scheduler.resource_offers.ms",
                self.resource_offers.corrected_ms(clock_ns),
                "ms",
            ),
            (
                "scheduler.slots_scanned_per_assignment",
                ratio(c.slots_scanned.get() as f64, assigned),
                "slots/assignment",
            ),
            (
                "scheduler.groups_per_assignment",
                ratio(c.reservation_groups_touched.get() as f64, assigned),
                "groups/assign",
            ),
            (
                "scheduler.scratch_reuse_ratio",
                ratio(
                    c.scratch_reuses.get() as f64,
                    (c.scratch_reuses.get() + c.scratch_allocs.get()) as f64,
                ),
                "ratio",
            ),
            (
                "scheduler.next_locality_unlock.ms",
                self.next_locality_unlock.corrected_ms(clock_ns),
                "ms",
            ),
            (
                "scheduler.has_unfinished_jobs.ms",
                self.has_unfinished_jobs.corrected_ms(clock_ns),
                "ms",
            ),
            (
                "scheduler.expire_reservations.ms",
                self.expire_reservations.corrected_ms(clock_ns),
                "ms",
            ),
            (
                "scheduler.task_finished.ms",
                self.task_finished.corrected_ms(clock_ns),
                "ms",
            ),
            (
                "scheduler.submit.ms",
                self.submit.corrected_ms(clock_ns),
                "ms",
            ),
            ("sim.run_loop.self_ms", self.span_ms("run_loop", true), "ms"),
            (
                "sim.event_dispatch.ms",
                self.span_ms("run_loop/event_dispatch", false),
                "ms",
            ),
            (
                "scheduler.offer_round.self_ms",
                self.span_ms("run_loop/offer_round", true),
                "ms",
            ),
            (
                "scheduler.speculation_scan.ms",
                self.span_ms("speculation_scan", false),
                "ms",
            ),
            (
                "simcore.event_queue.ms",
                self.event_queue.estimated_ms(clock_ns),
                "ms",
            ),
            ("simcore.events", self.events as f64, "count"),
            (
                "simcore.peak_queue_len",
                self.peak_queue_len as f64,
                "count",
            ),
            (
                "trace.record.ms",
                self.sink.record.borrow().corrected_ms(clock_ns),
                "ms",
            ),
            ("trace.events", trace_events, "count"),
            (
                "trace.bytes_per_event",
                ratio(self.trace_bytes as f64, trace_events),
                "B/event",
            ),
            (
                "trace.finish.ms",
                self.trace_finish.corrected_ms(clock_ns),
                "ms",
            ),
            (
                "explain.parse.ms",
                self.explain_parse.corrected_ms(clock_ns),
                "ms",
            ),
            (
                "explain.analyze.ms",
                self.explain_analyze.corrected_ms(clock_ns),
                "ms",
            ),
            (
                "explain.render.ms",
                self.explain_render.corrected_ms(clock_ns),
                "ms",
            ),
            (
                "check.replay.ms",
                self.check_replay.corrected_ms(clock_ns),
                "ms",
            ),
        ];
        drop(select);
        out.push((
            "scheduler.resource_offers.us_p50",
            self.resource_offers.quantile_us(0.50, clock_ns),
            "us",
        ));
        out.push((
            "scheduler.resource_offers.us_p99",
            self.resource_offers.quantile_us(0.99, clock_ns),
            "us",
        ));
        out.push((
            "scheduler.task_finished.us_p99",
            self.task_finished.quantile_us(0.99, clock_ns),
            "us",
        ));
        out
    }
}
