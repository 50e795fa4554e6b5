//! The JSONL trace format, both directions: [`JsonlSink`] writes it and
//! [`parse_trace`] reads it back.
//!
//! The reader validates a document against the schema the writer emits
//! (sorted keys are not required on input, but event names, field names
//! and types are) and lowers each line back into the typed [`TraceEvent`]
//! the engine emitted. A trace written by `JsonlSink` and read back
//! round-trips exactly, field for field and timestamp for timestamp.
//!
//! The reader accepts schema v1 through v3 documents. v1 traces lack the
//! per-stage DAG metadata on `job-submitted` and the blocked `stage` on
//! `offer-declined`; those fields read back as empty/`None` and downstream
//! analyses degrade gracefully (no critical path, coarser attribution).
//! v3 adds the four fault-lifecycle events (`task-crashed`,
//! `reservation-revoked`, `slot-offline`, `slot-online`); older traces
//! simply contain none of them.

use std::any::Any;
use std::cell::Cell;
use std::fmt;

use serde::Value;
use ssr_dag::{JobId, Priority, StageId};
use ssr_simcore::SimTime;

use crate::event::{DenyReason, StageMeta, TraceEvent, TraceEventKind};
use crate::sink::TraceSink;

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
                            obj(vec![
                                ("parents", Value::Array(s.parents.iter().map(|p| uint(p.as_u32())).collect())),
                                ("tasks", uint(s.tasks)),
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

/// A parsed trace document: the schema version from the header plus the
/// typed event stream in emission order.
#[derive(Debug, Clone)]
pub struct Trace {
    /// `schema_version` from the `trace-start` header line.
    pub schema_version: u32,
    /// The decision events, in emission (= `seq`) order.
    pub events: Vec<TraceEvent>,
}

/// A reader failure, carrying the 1-based line number it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// 1-based line number within the document (0 for document-level
    /// failures such as an empty input).
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ReadError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ReadError { line, message: message.into() }
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ReadError {}

/// Parses a complete JSONL trace document.
///
/// Validates the `trace-start` header (schema version 1 through
/// [`SCHEMA_VERSION`]), per-line shape (`event`/`fields`/`seq`/`time_secs`),
/// monotone `seq` numbering, non-decreasing timestamps, and every event
/// payload against the typed schema. Unknown event names, unknown or
/// duplicate fields, ill-typed fields and non-finite numbers are all
/// errors naming the offending line; only the fields schema v1 lacked
/// (`stages`, `stage`) may be missing.
pub fn parse_trace(input: &str) -> Result<Trace, ReadError> {
    let mut lines = input.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ReadError::new(0, "empty document: missing trace-start header"))?;
    let header = json_line(1, header)?;
    let (event, seq, _, fields) = read_line(1, &header)?;
    if event != "trace-start" {
        return Err(ReadError::new(1, format!("expected trace-start header, got {event:?}")));
    }
    if seq != 0 {
        return Err(ReadError::new(1, format!("header seq must be 0, got {seq}")));
    }
    let schema_version = fields.u32("schema_version")?;
    fields.finish()?;
    if schema_version == 0 || schema_version > SCHEMA_VERSION {
        return Err(ReadError::new(
            1,
            format!("unsupported schema_version {schema_version} (reader supports 1..={SCHEMA_VERSION})"),
        ));
    }

    let mut events = Vec::new();
    let mut last_time = SimTime::ZERO;
    for (idx, raw) in lines {
        let lineno = idx + 1;
        let line = json_line(lineno, raw)?;
        let (event, seq, time, fields) = read_line(lineno, &line)?;
        if seq != idx as u64 {
            return Err(ReadError::new(lineno, format!("seq {seq} out of order (expected {idx})")));
        }
        if time < last_time {
            return Err(ReadError::new(
                lineno,
                format!("time_secs {} precedes the previous event", time.as_secs_f64()),
            ));
        }
        last_time = time;
        let kind = parse_kind(lineno, event, &fields)?;
        fields.finish()?;
        events.push(TraceEvent::new(time, kind));
    }
    Ok(Trace { schema_version, events })
}

fn json_line(lineno: usize, raw: &str) -> Result<Value, ReadError> {
    serde_json::from_str(raw).map_err(|e| ReadError::new(lineno, format!("invalid JSON: {e}")))
}

/// Splits one line into its `event` name, `seq`, timestamp and the
/// accessors over its `fields`.
fn read_line(lineno: usize, line: &Value) -> Result<(&str, u64, SimTime, Fields<'_>), ReadError> {
    let top = Fields::new(lineno, line, "line")?;
    let event = top.string("event")?;
    let seq = top.u64("seq")?;
    // The upper bound keeps the instant representable: `SimTime` would
    // silently saturate beyond it.
    let time_secs = top.f64("time_secs")?;
    if !(0.0..=SimTime::MAX.as_secs_f64()).contains(&time_secs) {
        return Err(top.err(format!("time_secs {time_secs} is outside the simulated clock's range")));
    }
    let fields = Fields::new(lineno, top.get("fields")?, "fields")?;
    top.finish()?;
    Ok((event, seq, SimTime::from_secs_f64(time_secs), fields))
}

/// Numeric coercion: the serializer writes integers for whole numbers only
/// in integer-typed fields, but a hand-edited trace may mix shapes. The
/// vendored parser reads an overflowing literal such as `1e400` as
/// infinity, which no field accepts.
fn number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) if f.is_finite() => Some(*f),
        _ => None,
    }
}

/// Typed accessors over one JSON object of a line (`"fields"` or a stage
/// entry), remembering which keys were read so that [`finish`] can reject
/// the rest.
///
/// [`finish`]: Fields::finish
struct Fields<'a> {
    lineno: usize,
    entries: &'a [(String, Value)],
    /// Bit `i` is set once `entries[i]` has been read.
    read: Cell<u64>,
}

impl<'a> Fields<'a> {
    fn new(lineno: usize, value: &'a Value, what: &str) -> Result<Self, ReadError> {
        match value {
            // No event has more than eight fields; the cap keeps the read
            // mask in one word.
            Value::Object(entries) if entries.len() <= 64 => {
                Ok(Fields { lineno, entries, read: Cell::new(0) })
            }
            Value::Object(_) => Err(ReadError::new(lineno, format!("{what} has too many keys"))),
            other => Err(ReadError::new(lineno, format!("{what} must be an object, got {other:?}"))),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ReadError {
        ReadError::new(self.lineno, msg)
    }

    /// Fails on the first key no accessor read: unknown to the schema, or
    /// a duplicate of one that was read.
    fn finish(&self) -> Result<(), ReadError> {
        let read = self.read.get();
        match self.entries.iter().enumerate().find(|(i, _)| read & (1 << i) == 0) {
            Some((_, (key, _))) => Err(self.err(format!("unknown or duplicate field {key:?}"))),
            None => Ok(()),
        }
    }

    fn get(&self, key: &str) -> Result<&'a Value, ReadError> {
        self.get_opt(key).ok_or_else(|| self.err(format!("missing field {key:?}")))
    }

    /// Like [`get`](Self::get) but tolerating absence (schema v1 traces).
    fn get_opt(&self, key: &str) -> Option<&'a Value> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        self.read.set(self.read.get() | 1 << i);
        Some(&self.entries[i].1)
    }

    fn u64(&self, key: &str) -> Result<u64, ReadError> {
        match self.get(key)? {
            Value::UInt(n) => Ok(*n),
            other => Err(self.err(format!("{key:?} must be an unsigned integer, got {other:?}"))),
        }
    }

    fn u32(&self, key: &str) -> Result<u32, ReadError> {
        u32::try_from(self.u64(key)?)
            .map_err(|_| self.err(format!("{key:?} exceeds u32 range")))
    }

    fn usize(&self, key: &str) -> Result<usize, ReadError> {
        usize::try_from(self.u64(key)?)
            .map_err(|_| self.err(format!("{key:?} exceeds usize range")))
    }

    fn i32(&self, key: &str) -> Result<i32, ReadError> {
        let raw = match self.get(key)? {
            Value::Int(n) => *n,
            Value::UInt(n) => i64::try_from(*n).map_err(|_| self.err(format!("{key:?} exceeds i64 range")))?,
            other => return Err(self.err(format!("{key:?} must be an integer, got {other:?}"))),
        };
        i32::try_from(raw).map_err(|_| self.err(format!("{key:?} exceeds i32 range")))
    }

    fn f64(&self, key: &str) -> Result<f64, ReadError> {
        number(self.get(key)?).ok_or_else(|| self.err(format!("{key:?} must be a finite number")))
    }

    fn bool(&self, key: &str) -> Result<bool, ReadError> {
        match self.get(key)? {
            Value::Bool(b) => Ok(*b),
            other => Err(self.err(format!("{key:?} must be a boolean, got {other:?}"))),
        }
    }

    fn string(&self, key: &str) -> Result<&'a str, ReadError> {
        match self.get(key)? {
            Value::Str(s) => Ok(s),
            other => Err(self.err(format!("{key:?} must be a string, got {other:?}"))),
        }
    }

    /// A string field that must be one of `names`, returned as the
    /// engine's static identifier.
    fn one_of(&self, key: &str, names: &[&'static str]) -> Result<&'static str, ReadError> {
        let value = self.string(key)?;
        names
            .iter()
            .copied()
            .find(|n| *n == value)
            .ok_or_else(|| self.err(format!("unknown {key} {value:?}")))
    }

    fn job(&self) -> Result<JobId, ReadError> {
        Ok(JobId::new(self.u64("job")?))
    }

    fn stage(&self) -> Result<StageId, ReadError> {
        Ok(StageId::new(self.u32("stage")?))
    }

    /// `stage` as a nullable field (`offer-declined`, `reservation-granted`);
    /// also absent entirely in schema v1 `offer-declined` lines.
    fn opt_stage(&self) -> Result<Option<StageId>, ReadError> {
        match self.get_opt("stage") {
            None | Some(Value::Null) => Ok(None),
            Some(_) => self.stage().map(Some),
        }
    }

    fn opt_secs(&self, key: &str) -> Result<Option<f64>, ReadError> {
        match self.get(key)? {
            Value::Null => Ok(None),
            _ => self.f64(key).map(Some),
        }
    }

    /// `job-submitted`'s `stages` array; absent in schema v1 traces.
    fn stage_metas(&self) -> Result<Vec<StageMeta>, ReadError> {
        let Some(value) = self.get_opt("stages") else {
            return Ok(Vec::new());
        };
        let Value::Array(items) = value else {
            return Err(self.err(format!("\"stages\" must be an array, got {value:?}")));
        };
        items
            .iter()
            .map(|item| {
                let meta = Fields::new(self.lineno, item, "stage entry")?;
                let Value::Array(parents) = meta.get("parents")? else {
                    return Err(self.err("\"parents\" must be an array"));
                };
                let parents = parents
                    .iter()
                    .map(|p| match p {
                        Value::UInt(n) => u32::try_from(*n)
                            .map(StageId::new)
                            .map_err(|_| self.err("parent stage id exceeds u32 range")),
                        other => Err(self.err(format!("parent stage id must be an unsigned integer, got {other:?}"))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let tasks = meta.u32("tasks")?;
                meta.finish()?;
                Ok(StageMeta { tasks, parents })
            })
            .collect()
    }
}

/// The delay-scheduling locality levels the engine writes on
/// `task-launched`.
const LOCALITY_LEVELS: [&str; 4] = ["PROCESS_LOCAL", "NODE_LOCAL", "RACK_LOCAL", "ANY"];

/// The fault causes the engine writes on `slot-offline`.
const OFFLINE_CAUSES: [&str; 4] = ["crash", "revocation", "partition", "restart"];

/// Every [`DenyReason`], decoded through [`DenyReason::as_str`].
const DENY_REASONS: [DenyReason; 4] = [
    DenyReason::NoPendingTasks,
    DenyReason::LocalityWait,
    DenyReason::ReservationDenied,
    DenyReason::NoFittingSlot,
];

/// Lowers one line's `(event, fields)` pair into the typed event kind: the
/// inverse of [`event_fields`], name for name.
fn parse_kind(lineno: usize, event: &str, f: &Fields<'_>) -> Result<TraceEventKind, ReadError> {
    use TraceEventKind as K;
    Ok(match event {
        "job-submitted" => K::JobSubmitted {
            job: f.job()?,
            name: f.string("name")?.to_owned(),
            priority: Priority::new(f.i32("priority")?),
            stages: f.stage_metas()?,
        },
        "offer-round-started" => K::OfferRoundStarted {
            free: f.usize("free")?,
            running: f.usize("running")?,
            reserved: f.usize("reserved")?,
        },
        "offer-round-ended" => K::OfferRoundEnded { assignments: f.usize("assignments")? },
        "offer-declined" => K::OfferDeclined {
            job: f.job()?,
            reason: {
                let reason = f.string("reason")?;
                DENY_REASONS
                    .into_iter()
                    .find(|r| r.as_str() == reason)
                    .ok_or_else(|| f.err(format!("unknown deny reason {reason:?}")))?
            },
            stage: f.opt_stage()?,
        },
        "task-launched" => K::TaskLaunched {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
            partition: f.u32("partition")?,
            attempt: f.u32("attempt")?,
            level: f.one_of("level", &LOCALITY_LEVELS)?,
            speculative: f.bool("speculative")?,
            warm: f.bool("warm")?,
        },
        "task-finished" => K::TaskFinished {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
            partition: f.u32("partition")?,
            attempt: f.u32("attempt")?,
            duration_secs: f.f64("duration_secs")?,
        },
        "copy-killed" => K::CopyKilled {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
            partition: f.u32("partition")?,
        },
        "reservation-granted" => K::ReservationGranted {
            slot: f.u32("slot")?,
            job: f.job()?,
            priority: Priority::new(f.i32("priority")?),
            stage: f.opt_stage()?,
            deadline_secs: f.opt_secs("deadline_secs")?,
        },
        "prereserve-filled" => K::PrereserveFilled {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
            priority: Priority::new(f.i32("priority")?),
            deadline_secs: f.opt_secs("deadline_secs")?,
        },
        "reservation-expired" => K::ReservationExpired { slot: f.u32("slot")?, job: f.job()? },
        "reservation-released" => K::ReservationReleased { slot: f.u32("slot")?, job: f.job()? },
        "stale-reservation-released" => K::StaleReservationReleased {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
        },
        "barrier-cleared" => K::BarrierCleared { job: f.job()?, stage: f.stage()? },
        "stage-completed" => K::StageCompleted { job: f.job()?, stage: f.stage()? },
        "job-completed" => K::JobCompleted { job: f.job()? },
        "locality-unlocked" => K::LocalityUnlocked,
        "task-crashed" => K::TaskCrashed {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
            partition: f.u32("partition")?,
            attempt: f.u32("attempt")?,
            requeued: f.bool("requeued")?,
        },
        "reservation-revoked" => K::ReservationRevoked { slot: f.u32("slot")?, job: f.job()? },
        "slot-offline" => K::SlotOffline {
            slot: f.u32("slot")?,
            cause: f.one_of("cause", &OFFLINE_CAUSES)?,
        },
        "slot-online" => K::SlotOnline { slot: f.u32("slot")? },
        "trace-start" => {
            return Err(ReadError::new(lineno, "trace-start may only appear as the first line"))
        }
        other => return Err(ReadError::new(lineno, format!("unknown event {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_events::every_variant;
    use crate::VecSink;
    use proptest::prelude::*;

    fn render(events: &[TraceEvent]) -> String {
        let mut sink = JsonlSink::new();
        for e in events {
            sink.record(e);
        }
        sink.finish()
    }

    const HEADER: &str = r#"{"event":"trace-start","fields":{"schema_version":3},"seq":0,"time_secs":0.0}"#;

    /// Parses `HEADER` plus one event line.
    fn parse_one(line: &str) -> Result<Trace, ReadError> {
        parse_trace(&format!("{HEADER}\n{line}\n"))
    }

    #[test]
    fn round_trips_vec_sink_stream() {
        let events = every_variant();
        let mut vec_sink = VecSink::new();
        for e in &events {
            vec_sink.record(e);
        }
        let trace = parse_trace(&render(&events)).expect("sink output parses");
        assert_eq!(trace.schema_version, SCHEMA_VERSION);
        assert_eq!(trace.events, vec_sink.into_events(), "JSONL round-trip must be lossless");
    }

    #[test]
    fn rejects_malformed_documents() {
        let cases: &[(&str, &str)] = &[
            ("", "missing trace-start"),
            ("{\"event\":\"job-completed\",\"fields\":{\"job\":0},\"seq\":0,\"time_secs\":0.0}\n", "expected trace-start"),
            ("{\"event\":\"trace-start\",\"fields\":{\"schema_version\":99},\"seq\":0,\"time_secs\":0.0}\n", "unsupported schema_version"),
            ("not json\n", "invalid JSON"),
        ];
        for (doc, needle) in cases {
            let err = parse_trace(doc).unwrap_err();
            assert!(err.to_string().contains(needle), "{doc:?}: {err}");
        }
    }

    #[test]
    fn rejects_schema_violations_with_line_numbers() {
        let err = parse_one(r#"{"event":"job-completed","fields":{"job":1},"seq":7,"time_secs":0.0}"#).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("seq 7 out of order"));

        let err = parse_one(r#"{"event":"job-completed","fields":{"job":"one"},"seq":1,"time_secs":0.0}"#).unwrap_err();
        assert!(err.to_string().contains(r#""job" must be an unsigned integer"#), "{err}");

        let bad_time = format!("{HEADER}\n{}\n{}\n",
            r#"{"event":"job-completed","fields":{"job":1},"seq":1,"time_secs":5.0}"#,
            r#"{"event":"job-completed","fields":{"job":2},"seq":2,"time_secs":4.0}"#);
        let err = parse_trace(&bad_time).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("precedes"));

        let err = parse_one(r#"{"event":"job-vanished","fields":{},"seq":1,"time_secs":0.0}"#).unwrap_err();
        assert!(err.to_string().contains("unknown event"));
    }

    #[test]
    fn rejects_non_finite_numbers() {
        // The vendored parser reads 1e400 as infinity; SimTime would panic.
        let err = parse_one(r#"{"event":"job-completed","fields":{"job":1},"seq":1,"time_secs":1e400}"#).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("time_secs"), "{err}");
        let err = parse_one(concat!(
            r#"{"event":"task-finished","fields":{"attempt":0,"duration_secs":-1e400,"job":0,"#,
            r#""partition":0,"slot":0,"stage":0},"seq":1,"time_secs":1.0}"#
        ))
        .unwrap_err();
        assert!(err.to_string().contains("duration_secs"), "{err}");
    }

    #[test]
    fn rejects_unknown_and_duplicate_fields() {
        let err = parse_one(r#"{"event":"job-completed","fields":{"bogus":5,"job":0},"seq":1,"time_secs":0.0}"#).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains(r#"field "bogus""#), "{err}");
        let err = parse_one(r#"{"event":"job-completed","fields":{"job":0,"job":1},"seq":1,"time_secs":0.0}"#).unwrap_err();
        assert!(err.to_string().contains(r#"duplicate field "job""#), "{err}");
        let err = parse_one(r#"{"event":"job-completed","extra":1,"fields":{"job":0},"seq":1,"time_secs":0.0}"#).unwrap_err();
        assert!(err.to_string().contains(r#"field "extra""#), "{err}");
        let err = parse_one(concat!(
            r#"{"event":"job-submitted","fields":{"job":0,"name":"fg","priority":1,"#,
            r#""stages":[{"parents":[],"tasks":1,"width":2}]},"seq":1,"time_secs":0.0}"#
        ))
        .unwrap_err();
        assert!(err.to_string().contains(r#"field "width""#), "{err}");
    }

    #[test]
    fn accepts_schema_v1_without_new_fields() {
        let doc = concat!(
            "{\"event\":\"trace-start\",\"fields\":{\"schema_version\":1},\"seq\":0,\"time_secs\":0.0}\n",
            "{\"event\":\"job-submitted\",\"fields\":{\"job\":0,\"name\":\"fg\",\"priority\":10},\"seq\":1,\"time_secs\":0.0}\n",
            "{\"event\":\"offer-declined\",\"fields\":{\"job\":0,\"reason\":\"locality-wait\"},\"seq\":2,\"time_secs\":0.5}\n",
        );
        let trace = parse_trace(doc).expect("v1 accepted");
        assert_eq!(trace.schema_version, 1);
        match &trace.events[0].kind {
            TraceEventKind::JobSubmitted { stages, .. } => assert!(stages.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        match &trace.events[1].kind {
            TraceEventKind::OfferDeclined { stage, .. } => assert!(stage.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Every value position in a JSON tree, as child-index paths.
    fn positions(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        out.push(path.clone());
        let children: Vec<&Value> = match v {
            Value::Object(entries) => entries.iter().map(|(_, v)| v).collect(),
            Value::Array(items) => items.iter().collect(),
            _ => Vec::new(),
        };
        for (i, child) in children.into_iter().enumerate() {
            path.push(i);
            positions(child, path, out);
            path.pop();
        }
    }

    fn at<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
        match (path.split_first(), v) {
            (None, v) => v,
            (Some((&i, rest)), Value::Object(entries)) => at(&mut entries[i].1, rest),
            (Some((&i, rest)), Value::Array(items)) => at(&mut items[i], rest),
            (Some(_), _) => unreachable!("paths come from positions()"),
        }
    }

    /// Whether the document the reader accepted says what the writer makes
    /// of the parsed events: numbers compare by value, and the two fields
    /// schema v1 lacked may be missing.
    fn same(read: &Value, written: &Value) -> bool {
        match (read, written) {
            (Value::Object(r), Value::Object(w)) => {
                r.iter().all(|(k, _)| w.iter().any(|(wk, _)| wk == k))
                    && w.iter().all(|(k, wv)| match r.iter().find(|(rk, _)| rk == k) {
                        Some((_, rv)) => same(rv, wv),
                        None => {
                            (k == "stages" && *wv == Value::Array(Vec::new()))
                                || (k == "stage" && *wv == Value::Null)
                        }
                    })
            }
            (Value::Array(r), Value::Array(w)) => {
                r.len() == w.len() && r.iter().zip(w).all(|(a, b)| same(a, b))
            }
            _ => match (number(read), number(written)) {
                (Some(a), Some(b)) => a == b,
                _ => read == written,
            },
        }
    }

    /// Hostile replacement values, as raw JSON text.
    const REPLACEMENTS: [&str; 5] = ["1e400", "-1", "18446744073709551615", "\"x\"", "null"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// A valid trace with one value replaced, one key or line dropped,
        /// one key added, or two lines swapped: the reader never panics,
        /// rejects what no schema allows, and reads whatever it accepts
        /// faithfully.
        #[test]
        fn hostile_edits_are_errors_never_panics(
            line_pick in 0usize..1000,
            position_pick in 0usize..1000,
            mutation in 0usize..8,
        ) {
            let doc = render(&every_variant());
            let mut lines: Vec<Value> =
                doc.lines().map(|l| serde_json::from_str(l).expect("writer output")).collect();
            let count = lines.len();
            let line = line_pick % count;
            let mut paths = Vec::new();
            positions(&lines[line], &mut Vec::new(), &mut paths);
            let path = &paths[position_pick % paths.len()];
            const MARK: &str = "@@replaced@@";
            match mutation {
                0..=4 => *at(&mut lines[line], path) = Value::Str(MARK.into()),
                5 => match path.split_last() {
                    Some((&i, parent)) => match at(&mut lines[line], parent) {
                        Value::Object(entries) => drop(entries.remove(i)),
                        Value::Array(items) => drop(items.remove(i)),
                        _ => unreachable!("a child's parent is a container"),
                    },
                    None => drop(lines.remove(line)),
                },
                6 => match at(&mut lines[line], path) {
                    Value::Object(entries) => entries.push(("bogus".into(), Value::UInt(5))),
                    _ => match &mut lines[line] {
                        Value::Object(entries) => entries.push(("bogus".into(), Value::UInt(5))),
                        _ => unreachable!("every line is an object"),
                    },
                },
                _ => lines.swap(line, (line + 1) % count),
            }
            let raw = REPLACEMENTS.get(mutation).copied().unwrap_or_default();
            let mutated: String = lines
                .iter()
                .map(|v| {
                    let text = serde_json::to_string(&Raw(v.clone())).expect("serializer is total");
                    text.replace(&format!("\"{MARK}\""), raw) + "\n"
                })
                .collect();
            let parsed = parse_trace(&mutated);
            // No field takes a non-finite number or an unknown key, and
            // swapped lines break the seq order.
            let must_fail = matches!(mutation, 0 | 6 | 7);
            prop_assert!(parsed.is_err() || !must_fail, "accepted:\n{mutated}");
            if let Ok(trace) = parsed {
                let written: Vec<Value> = render(&trace.events)
                    .lines()
                    .map(|l| serde_json::from_str(l).expect("writer output"))
                    .collect();
                let read: Vec<Value> =
                    mutated.lines().map(|l| serde_json::from_str(l).expect("json")).collect();
                prop_assert!(
                    read.len() == written.len() && read.iter().zip(&written).all(|(r, w)| same(r, w)),
                    "accepted an edit it did not read faithfully:\n{mutated}"
                );
            }
        }
    }
}
