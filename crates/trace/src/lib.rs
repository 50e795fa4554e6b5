//! Scheduler decision tracing and metrics for the SSR simulator.
//!
//! The scheduler is otherwise a black box that emits only final job
//! completion times; this crate makes every decision observable. The engine
//! carries an optional [`TraceSink`]; when one is attached, each offer
//! round, per-candidate denial (with the policy's [`DenyReason`]),
//! reservation lifecycle transition (grant / pre-reserve fill / expire /
//! release / stale-release), speculation launch and loser-kill, delay
//! scheduling unlock, and barrier clear is reported as a typed
//! [`TraceEvent`]. Every event passes through one engine method, which
//! checks for a sink before it builds the event: with none attached, no
//! event is constructed, and tracing costs one branch per decision.
//!
//! Three sinks ship with the crate:
//!
//! - [`VecSink`] buffers events in memory (tests and ad-hoc inspection);
//! - [`JsonlSink`] streams a sorted, `schema_version`-ed, byte-stable JSON
//!   Lines document (`ssr-cli run --trace <path>`);
//! - [`MetricsSink`] folds the stream into a [`MetricsReport`] of counters
//!   and histograms (`ssr-cli run --metrics`).
//!
//! The crate also owns the two things every trace consumer needs:
//! [`parse_trace`], the inverse of `JsonlSink` (the writer and both of the
//! reader's paths are generated from one table, one row per event, so the
//! format is spelled once), and [`SlotReplay`], the one
//! per-slot state machine that `ssr-check`, `ssr-explain` and
//! `MetricsSink` read slot lifecycles from.
//!
//! Everything here obeys the workspace determinism contract (see
//! EXPERIMENTS.md): simulated time only, `BTreeMap` state, no wall-clock —
//! two runs with the same seed yield byte-identical traces.

#![warn(missing_docs)]

mod event;
mod jsonl;
mod metrics;
mod replay;
mod sink;
#[cfg(test)]
mod test_events;

pub use event::{DenyReason, StageMeta, TraceEvent, TraceEventKind};
pub use jsonl::{parse_trace, JsonlSink, ReadError, Trace, ALL_EVENT_NAMES, SCHEMA_VERSION};
pub use metrics::{Histogram, MetricsReport, MetricsSink, HOLD_TIME_BOUNDS_SECS};
pub use replay::{Slot, SlotReplay, SlotState, SlotTable};
pub use sink::{SplitSink, TraceSink, VecSink};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_events::every_variant;

    #[test]
    fn vec_sink_keeps_emission_order() {
        let mut sink = VecSink::new();
        for e in every_variant() {
            sink.record(&e);
        }
        assert_eq!(sink.events().len(), 20);
        assert_eq!(sink.events()[0].kind.name(), "job-submitted");
        assert_eq!(sink.events()[19].kind.name(), "slot-online");
    }

    #[test]
    fn jsonl_output_is_byte_stable() {
        let render = || {
            let mut sink = JsonlSink::new();
            for e in every_variant() {
                sink.record(&e);
            }
            sink.finish()
        };
        let a = render();
        let b = render();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn jsonl_header_and_line_shape() {
        let mut sink = JsonlSink::new();
        for e in every_variant() {
            sink.record(&e);
        }
        let out = sink.finish();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 21);
        assert_eq!(lines[0], r#"{"event":"trace-start","fields":{"schema_version":3},"seq":0,"time_secs":0.0}"#);
        assert_eq!(
            lines[1],
            concat!(
                r#"{"event":"job-submitted","fields":{"job":5,"name":"fixture","priority":-2,"#,
                r#""stages":[{"parents":[],"tasks":3},{"parents":[0],"tasks":1}]},"seq":1,"time_secs":0.0}"#
            )
        );
        assert_eq!(
            lines[5],
            concat!(
                r#"{"event":"task-launched","fields":{"attempt":1,"job":5,"level":"RACK_LOCAL","#,
                r#""partition":2,"slot":3,"speculative":true,"stage":0,"warm":true},"seq":5,"time_secs":0.0}"#
            )
        );
        // Every line carries a strictly increasing seq.
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i}")), "line {i}: {line}");
        }
    }

    #[test]
    fn metrics_sink_aggregates_counters_and_hold_times() {
        let mut sink = MetricsSink::new();
        for e in every_variant() {
            sink.record(&e);
        }
        let report = sink.into_report();
        // One event of each kind: every counter reads 1.
        for n in [
            report.jobs_submitted,
            report.jobs_completed,
            report.offer_rounds,
            report.tasks_launched,
            report.speculative_launched,
            report.copy_wins,
            report.copy_kills,
            report.reservations_granted,
            report.prereserves_filled,
            report.reservations_expired,
            report.reservations_released,
            report.stale_reservations_released,
            report.tasks_crashed,
            report.reservations_revoked,
            report.barriers_cleared,
            report.locality_unlocks,
        ] {
            assert_eq!(n, 1);
        }
        // Slot 0 is held 1.5..2.5 and slot 3 1.25..3.0; events on slots
        // that hold nothing close nothing.
        assert_eq!(report.reservation_hold_secs.count, 2);
        assert!((report.reservation_hold_secs.sum - 2.75).abs() < 1e-9);
        // The copy ran on slot 3 from t=0 to t=1.25 for job 5.
        assert_eq!(report.slot_seconds_per_job.len(), 1);
        assert!((report.slot_seconds_per_job[&5] - 1.25).abs() < 1e-9);
        assert_eq!(report.speculation_win_rate(), Some(1.0));
        let text = report.render_text();
        assert!(text.contains("jobs: 1 submitted, 1 completed"));
        assert!(text.contains("reservation-denied: 1"));
        assert!(text.contains("job-5: 1.2"), "{text}");
    }

    #[test]
    fn histogram_buckets_cover_bounds_and_overflow() {
        let mut h = Histogram::default();
        h.record(0.25);
        h.record(0.5);
        h.record(0.75);
        h.record(1000.0);
        assert_eq!(h.buckets[0], 2); // <= 0.5
        assert_eq!(h.buckets[1], 1); // <= 1.0
        assert_eq!(h.buckets[HOLD_TIME_BOUNDS_SECS.len()], 1); // overflow
        assert_eq!(h.count, 4);
    }

    #[test]
    fn histogram_quantiles_interpolate_and_clamp() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for _ in 0..50 {
            h.record(0.25); // bucket 0: (0, 0.5]
        }
        for _ in 0..40 {
            h.record(3.0); // bucket 3: (2, 4]
        }
        for _ in 0..9 {
            h.record(100.0); // bucket 8: (64, 128]
        }
        h.record(1000.0); // overflow
        let q = |q: f64| h.quantile(q).expect("non-empty");
        assert!((q(0.50) - 0.5).abs() < 1e-9, "p50 {}", q(0.50));
        assert!((q(0.90) - 4.0).abs() < 1e-9, "p90 {}", q(0.90));
        // p95 lands 5/9 of the way through the (64, 128] bucket.
        assert!((q(0.95) - (64.0 + 64.0 * 5.0 / 9.0)).abs() < 1e-9, "p95 {}", q(0.95));
        assert!((q(0.99) - 128.0).abs() < 1e-9, "p99 {}", q(0.99));
        // The overflow bucket clamps to the largest bound.
        assert!((q(1.0) - 256.0).abs() < 1e-9, "p100 {}", q(1.0));
    }

    #[test]
    fn histogram_quantile_edge_cases_are_pinned() {
        // Empty: no data, no estimate — pinned to None for every q.
        let empty = Histogram::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), None, "empty histogram, q={q}");
        }

        // Single occupied bucket: every quantile is the mean, not a
        // q-dependent interpolation fabricated inside the bucket.
        let mut single = Histogram::default();
        single.record(2.5); // bucket 3: (2, 4]
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile(q), Some(2.5), "single sample, q={q}");
        }
        single.record(3.5); // same bucket; mean 3.0
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile(q), Some(3.0), "single bucket, q={q}");
        }

        // Single occupied *overflow* bucket still clamps to the largest
        // bound — the histogram has no upper edge to interpolate against.
        let mut overflow = Histogram::default();
        overflow.record(1000.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(overflow.quantile(q), Some(256.0), "overflow, q={q}");
        }

        // Two occupied buckets fall back to interpolation as before.
        let mut two = Histogram::default();
        two.record(2.5);
        two.record(100.0);
        assert_ne!(two.quantile(0.0), two.quantile(1.0), "spread is real");
    }

    #[test]
    fn metrics_json_is_sorted_pinned_and_byte_stable() {
        let render = || {
            let mut sink = MetricsSink::new();
            for e in every_variant() {
                sink.record(&e);
            }
            sink.into_report().render_json()
        };
        let json = render();
        assert_eq!(json, render(), "metrics JSON must be byte-stable");
        // Root keys appear in sorted order.
        let mut last = 0;
        for key in [
            "\"barriers_cleared\"",
            "\"jobs_completed\"",
            "\"offers_declined\"",
            "\"reservation_hold_secs\"",
            "\"slot_seconds_per_job\"",
            "\"tasks_launched\"",
        ] {
            let at = json.find(key).unwrap_or_else(|| panic!("missing {key}"));
            assert!(at > last || last == 0, "{key} out of order");
            last = at;
        }
        // Pinned summary values for the sample stream: holds of 1.0s and
        // 1.75s (buckets (0.5, 1] and (1, 2]), one copy busy 1.25
        // slot-seconds for job 5 that won its race.
        assert!(json.contains("\"count\": 2"), "{json}");
        assert!(json.contains("\"mean_secs\": 1.375"), "{json}");
        assert!(json.contains("\"p50_secs\": 1.0"), "{json}");
        assert!(json.contains("\"5\": 1.25"), "{json}");
        assert!(json.contains("\"speculation_win_rate\": 1.0"), "{json}");
    }

    #[test]
    fn split_sink_feeds_both_outputs() {
        let mut sink = SplitSink { jsonl: Some(JsonlSink::new()), metrics: Some(MetricsSink::new()) };
        for e in every_variant() {
            sink.record(&e);
        }
        let any = (Box::new(sink) as Box<dyn TraceSink>).into_any();
        let split = any.downcast::<SplitSink>().expect("concrete type recovered");
        assert_eq!(split.jsonl.unwrap().finish().lines().count(), 21);
        assert_eq!(split.metrics.unwrap().into_report().offer_rounds, 1);
    }

    #[test]
    fn deny_reason_strings_are_kebab_case() {
        assert_eq!(DenyReason::NoPendingTasks.as_str(), "no-pending-tasks");
        assert_eq!(DenyReason::LocalityWait.to_string(), "locality-wait");
        assert_eq!(DenyReason::ReservationDenied.as_str(), "reservation-denied");
        assert_eq!(DenyReason::NoFittingSlot.as_str(), "no-fitting-slot");
    }
}
