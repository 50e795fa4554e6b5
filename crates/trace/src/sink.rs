//! Pluggable trace sinks: where decision events go.
//!
//! The engine holds an `Option<Box<dyn TraceSink>>`; when it is `None` no
//! event is even constructed, so tracing is zero-overhead when disabled.

use std::any::Any;
use std::fmt;

use serde::Value;

use crate::event::{TraceEvent, TraceEventKind};
use crate::metrics::MetricsSink;

/// JSONL schema version emitted in the `trace-start` header line.
///
/// Bump whenever an event's name or field set changes shape.
///
/// # History
///
/// - **v1** — initial 16-event schema.
/// - **v2** — `job-submitted` gained `stages` (per-stage task counts and
///   parent edges); `offer-declined` gained `stage` (the blocked stage).
///   Readers accepting v1 treat the missing fields as empty/absent.
/// - **v3** — four fault-lifecycle events: `task-crashed`,
///   `reservation-revoked`, `slot-offline`, `slot-online`. Traces from
///   runs with an empty `FaultPlan` contain none of them, so v2 readers
///   still parse fault-free v3 output.
pub const SCHEMA_VERSION: u32 = 3;

/// Receiver for scheduler decision events.
///
/// Implementations must be deterministic: `record` may only depend on the
/// event stream itself (no wall-clock, no ambient randomness), so that two
/// runs with the same seed produce byte-identical sink output.
pub trait TraceSink: fmt::Debug {
    /// Observes one decision event. Events arrive in emission order, with
    /// monotonically non-decreasing `time`.
    fn record(&mut self, event: &TraceEvent);

    /// Recovers the concrete sink type after the run (`Box<dyn TraceSink>`
    /// cannot be downcast directly). Implementations return `self`.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// In-memory sink that keeps every event; intended for tests.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events recorded so far, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Streams events as byte-stable JSON Lines.
///
/// # Format
///
/// The first line is a header identifying the schema; every subsequent line
/// is one event. Each line is a compact JSON object with its keys — at both
/// the top level and inside `"fields"` — in sorted (ASCII) order, the same
/// discipline as the counter and explain JSON, so equal traces are equal
/// bytes:
///
/// ```text
/// {"event":"trace-start","fields":{"schema_version":3},"seq":0,"time_secs":0.0}
/// {"event":"job-submitted","fields":{"job":0,"name":"fg","priority":10,"stages":[{"parents":[],"tasks":4}]},"seq":1,"time_secs":0.0}
/// ```
///
/// `seq` is a per-trace monotone counter that pins the relative order of
/// same-timestamp decisions. Ids are rendered as raw integers (`job` as u64,
/// `stage`/`slot`/`partition`/`attempt` as unsigned, `priority` as signed);
/// optional deadlines are seconds or `null`.
#[derive(Debug)]
pub struct JsonlSink {
    out: String,
    seq: u64,
}

impl Default for JsonlSink {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonlSink {
    /// Creates a sink and writes the `trace-start` header line.
    pub fn new() -> Self {
        let mut sink = JsonlSink { out: String::new(), seq: 0 };
        let header = Value::Object(vec![(
            "schema_version".into(),
            Value::UInt(u64::from(SCHEMA_VERSION)),
        )]);
        sink.write_line("trace-start", 0.0, header);
        sink
    }

    /// Consumes the sink, returning the complete JSONL document
    /// (newline-terminated).
    pub fn finish(self) -> String {
        self.out
    }

    /// The JSONL document rendered so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    fn write_line(&mut self, event: &str, time_secs: f64, fields: Value) {
        debug_assert!(sorted_keys(&fields), "JSONL field keys must be sorted: {fields:?}");
        let line = Value::Object(vec![
            ("event".into(), Value::Str(event.into())),
            ("fields".into(), fields),
            ("seq".into(), Value::UInt(self.seq)),
            ("time_secs".into(), Value::Float(time_secs)),
        ]);
        self.out.push_str(&serde_json::to_string(&Raw(line)).expect("serializer is total"));
        self.out.push('\n');
        self.seq += 1;
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        let fields = event_fields(&event.kind);
        self.write_line(event.kind.name(), event.time.as_secs_f64(), fields);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Fans one event stream out to an optional JSONL sink and an optional
/// metrics aggregator; used by `ssr-cli run` when both `--trace` and
/// `--metrics` are requested.
#[derive(Debug, Default)]
pub struct SplitSink {
    /// JSONL stream, if requested.
    pub jsonl: Option<JsonlSink>,
    /// Metrics aggregator, if requested.
    pub metrics: Option<MetricsSink>,
}

impl TraceSink for SplitSink {
    fn record(&mut self, event: &TraceEvent) {
        if let Some(j) = self.jsonl.as_mut() {
            j.record(event);
        }
        if let Some(m) = self.metrics.as_mut() {
            m.record(event);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Lowers an event's payload into a `Value::Object` with sorted keys.
fn event_fields(kind: &TraceEventKind) -> Value {
    use TraceEventKind as K;
    let obj = |entries: Vec<(&str, Value)>| {
        Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    };
    let uint = |n: u32| Value::UInt(u64::from(n));
    let opt_secs = |d: Option<f64>| d.map(Value::Float).unwrap_or(Value::Null);
    match kind {
        K::JobSubmitted { job, name, priority, stages } => obj(vec![
            ("job", Value::UInt(job.as_u64())),
            ("name", Value::Str(name.clone())),
            ("priority", Value::Int(i64::from(priority.level()))),
            (
                "stages",
                Value::Array(
                    stages
                        .iter()
                        .map(|s| {
                            Value::Object(vec![
                                (
                                    "parents".to_owned(),
                                    Value::Array(
                                        s.parents
                                            .iter()
                                            .map(|p| Value::UInt(u64::from(p.as_u32())))
                                            .collect(),
                                    ),
                                ),
                                ("tasks".to_owned(), Value::UInt(u64::from(s.tasks))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        K::OfferRoundStarted { free, running, reserved } => obj(vec![
            ("free", Value::UInt(*free as u64)),
            ("reserved", Value::UInt(*reserved as u64)),
            ("running", Value::UInt(*running as u64)),
        ]),
        K::OfferRoundEnded { assignments } => {
            obj(vec![("assignments", Value::UInt(*assignments as u64))])
        }
        K::OfferDeclined { job, reason, stage } => obj(vec![
            ("job", Value::UInt(job.as_u64())),
            ("reason", Value::Str(reason.as_str().into())),
            ("stage", stage.map(|s| uint(s.as_u32())).unwrap_or(Value::Null)),
        ]),
        K::TaskLaunched { slot, job, stage, partition, attempt, level, speculative, warm } => {
            obj(vec![
                ("attempt", uint(*attempt)),
                ("job", Value::UInt(job.as_u64())),
                ("level", Value::Str((*level).into())),
                ("partition", uint(*partition)),
                ("slot", uint(*slot)),
                ("speculative", Value::Bool(*speculative)),
                ("stage", uint(stage.as_u32())),
                ("warm", Value::Bool(*warm)),
            ])
        }
        K::TaskFinished { slot, job, stage, partition, attempt, duration_secs } => obj(vec![
            ("attempt", uint(*attempt)),
            ("duration_secs", Value::Float(*duration_secs)),
            ("job", Value::UInt(job.as_u64())),
            ("partition", uint(*partition)),
            ("slot", uint(*slot)),
            ("stage", uint(stage.as_u32())),
        ]),
        K::CopyKilled { slot, job, stage, partition } => obj(vec![
            ("job", Value::UInt(job.as_u64())),
            ("partition", uint(*partition)),
            ("slot", uint(*slot)),
            ("stage", uint(stage.as_u32())),
        ]),
        K::ReservationGranted { slot, job, priority, stage, deadline_secs } => obj(vec![
            ("deadline_secs", opt_secs(*deadline_secs)),
            ("job", Value::UInt(job.as_u64())),
            ("priority", Value::Int(i64::from(priority.level()))),
            ("slot", uint(*slot)),
            ("stage", stage.map(|s| uint(s.as_u32())).unwrap_or(Value::Null)),
        ]),
        K::PrereserveFilled { slot, job, stage, priority, deadline_secs } => obj(vec![
            ("deadline_secs", opt_secs(*deadline_secs)),
            ("job", Value::UInt(job.as_u64())),
            ("priority", Value::Int(i64::from(priority.level()))),
            ("slot", uint(*slot)),
            ("stage", uint(stage.as_u32())),
        ]),
        K::ReservationExpired { slot, job } | K::ReservationReleased { slot, job } => obj(vec![
            ("job", Value::UInt(job.as_u64())),
            ("slot", uint(*slot)),
        ]),
        K::StaleReservationReleased { slot, job, stage } => obj(vec![
            ("job", Value::UInt(job.as_u64())),
            ("slot", uint(*slot)),
            ("stage", uint(stage.as_u32())),
        ]),
        K::BarrierCleared { job, stage } | K::StageCompleted { job, stage } => obj(vec![
            ("job", Value::UInt(job.as_u64())),
            ("stage", uint(stage.as_u32())),
        ]),
        K::JobCompleted { job } => obj(vec![("job", Value::UInt(job.as_u64()))]),
        K::LocalityUnlocked => obj(vec![]),
        K::TaskCrashed { slot, job, stage, partition, attempt, requeued } => obj(vec![
            ("attempt", uint(*attempt)),
            ("job", Value::UInt(job.as_u64())),
            ("partition", uint(*partition)),
            ("requeued", Value::Bool(*requeued)),
            ("slot", uint(*slot)),
            ("stage", uint(stage.as_u32())),
        ]),
        K::ReservationRevoked { slot, job } => obj(vec![
            ("job", Value::UInt(job.as_u64())),
            ("slot", uint(*slot)),
        ]),
        K::SlotOffline { slot, cause } => obj(vec![
            ("cause", Value::Str((*cause).into())),
            ("slot", uint(*slot)),
        ]),
        K::SlotOnline { slot } => obj(vec![("slot", uint(*slot))]),
    }
}

/// Checks that an object tree's keys are in sorted order (debug builds only).
pub(crate) fn sorted_keys(v: &Value) -> bool {
    match v {
        Value::Object(entries) => {
            entries.windows(2).all(|w| w[0].0 < w[1].0) && entries.iter().all(|(_, v)| sorted_keys(v))
        }
        Value::Array(items) => items.iter().all(sorted_keys),
        _ => true,
    }
}

/// Forwards an already-built `Value` through the `Serialize` entry point.
pub(crate) struct Raw(pub(crate) Value);

impl serde::Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}
