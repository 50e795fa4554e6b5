//! Scheduler decision tracing and metrics for the SSR simulator.
//!
//! The scheduler is otherwise a black box that emits only final job
//! completion times; this crate makes every decision observable. The engine
//! carries an optional [`TraceSink`]; when one is attached, each offer
//! round, per-candidate denial (with the policy's [`DenyReason`]),
//! reservation lifecycle transition (grant / pre-reserve fill / expire /
//! release / stale-release), speculation launch and loser-kill, delay
//! scheduling unlock, and barrier clear is reported as a typed
//! [`TraceEvent`]. With no sink attached, no event is constructed — tracing
//! is zero-overhead when disabled.
//!
//! Three sinks ship with the crate:
//!
//! - [`VecSink`] buffers events in memory (tests and ad-hoc inspection);
//! - [`JsonlSink`] streams a sorted, `schema_version`-ed, byte-stable JSON
//!   Lines document (`ssr-cli run --trace <path>`);
//! - [`MetricsSink`] folds the stream into a [`MetricsReport`] of counters
//!   and histograms (`ssr-cli run --metrics`).
//!
//! Everything here obeys the workspace determinism contract (see
//! EXPERIMENTS.md): simulated time only, `BTreeMap` state, no wall-clock —
//! two runs with the same seed yield byte-identical traces.

#![warn(missing_docs)]

mod event;
mod metrics;
mod sink;

pub use event::{DenyReason, StageMeta, TraceEvent, TraceEventKind};
pub use metrics::{Histogram, MetricsReport, MetricsSink, HOLD_TIME_BOUNDS_SECS};
pub use sink::{JsonlSink, SplitSink, TraceSink, VecSink, SCHEMA_VERSION};

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_dag::{JobId, Priority, StageId};
    use ssr_simcore::SimTime;

    fn sample_events() -> Vec<TraceEvent> {
        let job = JobId::new(3);
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_secs_f64(1.5);
        let t2 = SimTime::from_secs_f64(4.0);
        vec![
            TraceEvent::new(
                t0,
                TraceEventKind::JobSubmitted {
                    job,
                    name: "fg".into(),
                    priority: Priority::new(10),
                    stages: vec![
                        StageMeta { tasks: 4, parents: vec![] },
                        StageMeta { tasks: 2, parents: vec![StageId::new(0)] },
                    ],
                },
            ),
            TraceEvent::new(
                t0,
                TraceEventKind::OfferRoundStarted { free: 4, running: 0, reserved: 0 },
            ),
            TraceEvent::new(
                t0,
                TraceEventKind::TaskLaunched {
                    slot: 0,
                    job,
                    stage: StageId::new(0),
                    partition: 0,
                    attempt: 0,
                    level: "node-local",
                    speculative: false,
                    warm: false,
                },
            ),
            TraceEvent::new(t0, TraceEventKind::OfferRoundEnded { assignments: 1 }),
            TraceEvent::new(
                t1,
                TraceEventKind::TaskFinished {
                    slot: 0,
                    job,
                    stage: StageId::new(0),
                    partition: 0,
                    attempt: 0,
                    duration_secs: 1.5,
                },
            ),
            TraceEvent::new(
                t1,
                TraceEventKind::ReservationGranted {
                    slot: 0,
                    job,
                    priority: Priority::new(10),
                    stage: Some(StageId::new(1)),
                    deadline_secs: Some(31.5),
                },
            ),
            TraceEvent::new(t2, TraceEventKind::ReservationExpired { slot: 0, job }),
            TraceEvent::new(t2, TraceEventKind::JobCompleted { job }),
        ]
    }

    #[test]
    fn vec_sink_keeps_emission_order() {
        let mut sink = VecSink::new();
        for e in sample_events() {
            sink.record(&e);
        }
        assert_eq!(sink.events().len(), 8);
        assert_eq!(sink.events()[0].kind.name(), "job-submitted");
        assert_eq!(sink.events()[7].kind.name(), "job-completed");
    }

    #[test]
    fn jsonl_output_is_byte_stable() {
        let render = || {
            let mut sink = JsonlSink::new();
            for e in sample_events() {
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
        for e in sample_events() {
            sink.record(&e);
        }
        let out = sink.finish();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 9);
        assert_eq!(
            lines[0],
            r#"{"event":"trace-start","fields":{"schema_version":3},"seq":0,"time_secs":0.0}"#
        );
        assert_eq!(
            lines[1],
            concat!(
                r#"{"event":"job-submitted","fields":{"job":3,"name":"fg","priority":10,"#,
                r#""stages":[{"parents":[],"tasks":4},{"parents":[0],"tasks":2}]},"seq":1,"time_secs":0.0}"#
            )
        );
        assert_eq!(
            lines[3],
            concat!(
                r#"{"event":"task-launched","fields":{"attempt":0,"job":3,"level":"node-local","#,
                r#""partition":0,"slot":0,"speculative":false,"stage":0,"warm":false},"seq":3,"time_secs":0.0}"#
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
        for e in sample_events() {
            sink.record(&e);
        }
        let report = sink.into_report();
        assert_eq!(report.jobs_submitted, 1);
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.offer_rounds, 1);
        assert_eq!(report.tasks_launched, 1);
        assert_eq!(report.reservations_granted, 1);
        assert_eq!(report.reservations_expired, 1);
        // One reservation held from t=1.5 to t=4.0.
        assert_eq!(report.reservation_hold_secs.count, 1);
        assert!((report.reservation_hold_secs.sum - 2.5).abs() < 1e-9);
        // One task busy on slot 0 from t=0 to t=1.5 for job 3.
        assert!((report.slot_seconds_per_job[&3] - 1.5).abs() < 1e-9);
        assert_eq!(report.speculation_win_rate(), None);
        let text = report.render_text();
        assert!(text.contains("jobs: 1 submitted, 1 completed"));
        assert!(text.contains("job-3: 1.5"));
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
            for e in sample_events() {
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
        // Pinned summary values for the sample stream: one reservation held
        // 2.5s (bucket (2, 4]), one task busy 1.5 slot-seconds for job 3.
        // A single occupied bucket pins every quantile to the mean — the
        // exact hold time here — not an interpolated spread.
        assert!(json.contains("\"count\": 1"), "{json}");
        assert!(json.contains("\"mean_secs\": 2.5"), "{json}");
        assert!(json.contains("\"p50_secs\": 2.5"), "{json}");
        assert!(json.contains("\"p99_secs\": 2.5"), "{json}");
        assert!(json.contains("\"3\": 1.5"), "{json}");
        assert!(json.contains("\"speculation_win_rate\": null"), "{json}");
    }

    #[test]
    fn split_sink_feeds_both_outputs() {
        let mut sink = SplitSink {
            jsonl: Some(JsonlSink::new()),
            metrics: Some(MetricsSink::new()),
        };
        for e in sample_events() {
            sink.record(&e);
        }
        let any = (Box::new(sink) as Box<dyn TraceSink>).into_any();
        let split = any.downcast::<SplitSink>().expect("concrete type recovered");
        assert_eq!(split.jsonl.unwrap().finish().lines().count(), 9);
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
