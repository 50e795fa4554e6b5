//! The JSONL trace format, both directions: [`JsonlSink`] writes it and
//! [`parse_trace`] reads it back.
//!
//! Each event's wire shape is declared once, in the event table below (an
//! `events!` invocation): its [`TraceEventKind`] variant, its wire name,
//! its fields in wire order, each with its [`Wire`] codec, and the order
//! in which the general reader checks them. The table is the only place
//! an event's shape lives. The writer, each event's expected keys, the
//! direct decoder, the general reader's lowering, [`TraceEventKind::name`]
//! and [`ALL_EVENT_NAMES`] are all generated from it, and the generated
//! patterns and literals hold it to the enum: a variant whose fields
//! change without its row fails to compile.
//!
//! The reader validates a document against the schema the writer emits
//! (event names, field names and types are required; key order is not)
//! and lowers each line back into the typed [`TraceEvent`] the engine
//! emitted. A trace written by `JsonlSink` and read back round-trips
//! exactly, field for field and timestamp for timestamp.
//!
//! Neither direction builds a `serde::Value` tree per line. The writer
//! formats each line straight into its buffer, in the vendored
//! serializer's byte format, with integers and repeated timestamps
//! written without `fmt`. The reader takes keys in any order and is
//! fastest in the writer's. It reads each line by one of two paths:
//!
//! - **Direct decode.** An event line in the writer's exact byte shape
//!   (its keys in the writer's order, no whitespace, integers in plain
//!   digits, every number starting at a digit or a `-`, strings without
//!   an escape, a `\n`, a `\r\n` or the end of input after it) is
//!   decoded straight into its [`TraceEvent`], with nothing built in
//!   between.
//! - **The general grammar.** Any other line, the `trace-start` header
//!   included, is split off as `str::lines` splits it and lexed onto a
//!   flat node list that borrows from the input; its members are then
//!   located by name and lowered into the event. Escapes are decoded by
//!   the vendored parser. This path is the only source of a
//!   [`ReadError`], so a line reports the same error whichever path
//!   first looked at it.
//!
//! Tests hold the writer to the tree writer it replaced, the general
//! grammar to the vendored parser, the direct decoder to the general
//! grammar, and the reader to the search-per-field reader it replaced,
//! error for error. None of those references is generated from the table.
//!
//! The reader accepts schema v1 through v3 documents. v1 traces lack the
//! per-stage DAG metadata on `job-submitted` and the blocked `stage` on
//! `offer-declined`; those fields read back as empty/`None` and downstream
//! analyses degrade gracefully (no critical path, coarser attribution).
//! v3 adds the four fault-lifecycle events (`task-crashed`,
//! `reservation-revoked`, `slot-offline`, `slot-online`); older traces
//! simply contain none of them.

use std::any::Any;
use std::borrow::Cow;
use std::fmt::{self, Write as _};

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

/// Generates everything that depends on an event's shape from the event
/// table: [`TraceEventKind::name`], [`ALL_EVENT_NAMES`], `write_fields`,
/// `payload_keys`, `parse_kind` and [`Decoder::payload`].
///
/// A row reads `Variant = "wire-name" { field: Codec, .. } read [field, ..];`.
/// The fields come in wire order (sorted), as the writer writes them and
/// the direct decoder expects them; each field is also its [`Key`]. The
/// `read` list is the order in which the general reader checks the
/// fields, the variant's declaration order: where a line holds several
/// faults, the first in that order is the one reported.
macro_rules! events {
    ($($variant:ident = $name:literal { $($field:ident: $codec:ty),* $(,)? } read [$($read:ident),* $(,)?];)*) => {
        impl TraceEventKind {
            /// Stable kebab-case event name used in the JSONL schema.
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEventKind::$variant { .. } => $name,)*
                }
            }
        }

        /// Every event name the schema defines, in declaration order.
        pub const ALL_EVENT_NAMES: [&str; [$($name),*].len()] = [$($name),*];

        /// Writes an event's payload, keys sorted.
        fn write_fields(f: &mut FieldWriter<'_>, kind: &TraceEventKind) {
            match kind {
                $(TraceEventKind::$variant { $($field),* } => {
                    $(<$codec as Wire>::write(f.key(Key::$field), $field);)*
                })*
            }
        }

        /// The payload keys of `event`, in the order [`write_fields`] emits
        /// them (sorted); none for `locality-unlocked` and for unknown events.
        fn payload_keys(event: &str) -> &'static [Key] {
            match event {
                "trace-start" => &[Key::schema_version],
                $($name => &[$(Key::$field),*],)*
                _ => &[],
            }
        }

        /// Lowers one line's `(event, fields)` pair into the typed event
        /// kind: the inverse of [`write_fields`], name for name. Each field
        /// is read, and the first fault in the row's `read` order is the
        /// one reported.
        fn parse_kind(lineno: usize, event: &str, f: &Fields<'_>) -> Result<TraceEventKind, ReadError> {
            Ok(match event {
                $($name => {
                    $(let $field = <$codec as Wire>::read(f, Key::$field);)*
                    TraceEventKind::$variant { $($read: $read?),* }
                })*
                "trace-start" => return Err(ReadError::new(lineno, "trace-start may only appear as the first line")),
                other => return Err(ReadError::new(lineno, format!("unknown event {other:?}"))),
            })
        }

        impl Decoder<'_> {
            /// The payload of `event`, its members read in the order
            /// [`write_fields`] writes them; `None` for `trace-start` and
            /// for unknown events.
            fn payload(&mut self, event: &str) -> Option<TraceEventKind> {
                Some(match event {
                    $($name => {
                        $(
                            self.key(Key::$field)?;
                            let $field = <$codec as Wire>::decode(self)?;
                        )*
                        TraceEventKind::$variant { $($field),* }
                    })*
                    _ => return None,
                })
            }
        }
    };
}

events! {
    JobSubmitted = "job-submitted" { job: JobId, name: String, priority: Priority, stages: Vec<StageMeta> }
        read [job, name, priority, stages];
    OfferRoundStarted = "offer-round-started" { free: usize, reserved: usize, running: usize }
        read [free, running, reserved];
    OfferRoundEnded = "offer-round-ended" { assignments: usize } read [assignments];
    OfferDeclined = "offer-declined" { job: JobId, reason: DenyReason, stage: Option<StageId> }
        read [job, reason, stage];
    TaskLaunched = "task-launched" {
        attempt: u32, job: JobId, level: Level, partition: u32, slot: u32, speculative: bool, stage: StageId, warm: bool,
    } read [slot, job, stage, partition, attempt, level, speculative, warm];
    TaskFinished = "task-finished" {
        attempt: u32, duration_secs: f64, job: JobId, partition: u32, slot: u32, stage: StageId,
    } read [slot, job, stage, partition, attempt, duration_secs];
    CopyKilled = "copy-killed" { job: JobId, partition: u32, slot: u32, stage: StageId }
        read [slot, job, stage, partition];
    ReservationGranted = "reservation-granted" {
        deadline_secs: Option<f64>, job: JobId, priority: Priority, slot: u32, stage: Option<StageId>,
    } read [slot, job, priority, stage, deadline_secs];
    PrereserveFilled = "prereserve-filled" {
        deadline_secs: Option<f64>, job: JobId, priority: Priority, slot: u32, stage: StageId,
    } read [slot, job, stage, priority, deadline_secs];
    ReservationExpired = "reservation-expired" { job: JobId, slot: u32 } read [slot, job];
    ReservationReleased = "reservation-released" { job: JobId, slot: u32 } read [slot, job];
    StaleReservationReleased = "stale-reservation-released" { job: JobId, slot: u32, stage: StageId }
        read [slot, job, stage];
    BarrierCleared = "barrier-cleared" { job: JobId, stage: StageId } read [job, stage];
    StageCompleted = "stage-completed" { job: JobId, stage: StageId } read [job, stage];
    JobCompleted = "job-completed" { job: JobId } read [job];
    LocalityUnlocked = "locality-unlocked" {} read [];
    TaskCrashed = "task-crashed" {
        attempt: u32, job: JobId, partition: u32, requeued: bool, slot: u32, stage: StageId,
    } read [slot, job, stage, partition, attempt, requeued];
    ReservationRevoked = "reservation-revoked" { job: JobId, slot: u32 } read [slot, job];
    SlotOffline = "slot-offline" { cause: Cause, slot: u32 } read [slot, cause];
    SlotOnline = "slot-online" { slot: u32 } read [slot];
}

/// The codec of one wire value type, which the event table picks for each
/// field: how the writer writes a value, how the direct decoder decodes it
/// and how the general reader reads it, or reports what is wrong with it.
trait Wire {
    /// The field's type in [`TraceEventKind`].
    type Value;

    /// Appends the value after its key, in the vendored serializer's byte
    /// format: integers as `{n}`, floats as `{x:?}` (`null` when not
    /// finite), free text through its string escaping.
    fn write(out: &mut String, value: &Self::Value);

    /// Decodes the value after its key, if it is in the writer's byte
    /// shape.
    fn decode(d: &mut Decoder<'_>) -> Option<Self::Value>;

    /// Reads member `key` of `f`.
    fn read(f: &Fields<'_>, key: Key) -> Result<Self::Value, ReadError>;
}

impl Wire for u32 {
    type Value = u32;

    fn write(out: &mut String, n: &u32) {
        push_uint(out, (*n).into());
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<u32> {
        d.uint32()
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<u32, ReadError> {
        u32::try_from(f.u64(key)?).map_err(|_| f.fault(key, "exceeds u32 range"))
    }
}

impl Wire for usize {
    type Value = usize;

    fn write(out: &mut String, n: &usize) {
        push_uint(out, *n as u64);
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<usize> {
        usize::try_from(d.uint()?).ok()
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<usize, ReadError> {
        usize::try_from(f.u64(key)?).map_err(|_| f.fault(key, "exceeds usize range"))
    }
}

impl Wire for JobId {
    type Value = JobId;

    fn write(out: &mut String, job: &JobId) {
        push_uint(out, job.as_u64());
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<JobId> {
        d.uint().map(JobId::new)
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<JobId, ReadError> {
        f.u64(key).map(JobId::new)
    }
}

impl Wire for StageId {
    type Value = StageId;

    fn write(out: &mut String, stage: &StageId) {
        push_uint(out, stage.as_u32().into());
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<StageId> {
        d.uint32().map(StageId::new)
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<StageId, ReadError> {
        u32::read(f, key).map(StageId::new)
    }
}

/// A nullable stage (`offer-declined`, `reservation-granted`), which
/// schema v1 `offer-declined` lines leave out.
impl Wire for Option<StageId> {
    type Value = Option<StageId>;

    fn write(out: &mut String, stage: &Option<StageId>) {
        match stage {
            Some(stage) => StageId::write(out, stage),
            None => out.push_str("null"),
        }
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<Option<StageId>> {
        if d.eat("null") {
            return Some(None);
        }
        StageId::decode(d).map(Some)
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<Option<StageId>, ReadError> {
        match f.get_opt(key).map(Json::node) {
            None | Some(Node::Null) => Ok(None),
            Some(_) => StageId::read(f, key).map(Some),
        }
    }
}

impl Wire for Priority {
    type Value = Priority;

    fn write(out: &mut String, priority: &Priority) {
        let level = priority.level();
        if level < 0 {
            out.push('-');
        }
        push_uint(out, level.unsigned_abs().into());
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<Priority> {
        let negative = d.eat("-");
        let n = i64::try_from(d.uint()?).ok()?;
        i32::try_from(if negative { -n } else { n }).ok().map(Priority::new)
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<Priority, ReadError> {
        let value = f.get(key)?;
        let raw = match value.node() {
            Node::Int(n) => *n,
            Node::UInt(n) => i64::try_from(*n).map_err(|_| f.fault(key, "exceeds i64 range"))?,
            _ => return Err(f.mistyped(key, "an integer", value)),
        };
        i32::try_from(raw).map(Priority::new).map_err(|_| f.fault(key, "exceeds i32 range"))
    }
}

impl Wire for bool {
    type Value = bool;

    fn write(out: &mut String, b: &bool) {
        out.push_str(if *b { "true" } else { "false" });
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<bool> {
        if d.eat("true") {
            return Some(true);
        }
        d.lit("false").map(|()| false)
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<bool, ReadError> {
        let value = f.get(key)?;
        match value.node() {
            Node::Bool(b) => Ok(*b),
            _ => Err(f.mistyped(key, "a boolean", value)),
        }
    }
}

impl Wire for f64 {
    type Value = f64;

    fn write(out: &mut String, x: &f64) {
        push_float(out, *x);
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<f64> {
        d.float()
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<f64, ReadError> {
        f.f64(key)
    }
}

/// Optional seconds (a deadline): a number or `null`, never absent.
impl Wire for Option<f64> {
    type Value = Option<f64>;

    fn write(out: &mut String, x: &Option<f64>) {
        match x {
            Some(x) => f64::write(out, x),
            None => out.push_str("null"),
        }
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<Option<f64>> {
        if d.eat("null") {
            return Some(None);
        }
        f64::decode(d).map(Some)
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<Option<f64>, ReadError> {
        match f.get(key)?.node() {
            Node::Null => Ok(None),
            _ => f64::read(f, key).map(Some),
        }
    }
}

/// Free text (a job name), escaped by the vendored serializer.
impl Wire for String {
    type Value = String;

    fn write(out: &mut String, text: &String) {
        out.push_str(&serde_json::to_string(text).expect("serializer is total"));
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<String> {
        d.string().map(str::to_owned)
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<String, ReadError> {
        f.string(key).map(str::to_owned)
    }
}

/// `job-submitted`'s `stages`, each entry `{"parents":[..],"tasks":n}`;
/// absent in schema v1 traces.
impl Wire for Vec<StageMeta> {
    type Value = Vec<StageMeta>;

    fn write(out: &mut String, stages: &Vec<StageMeta>) {
        push_array(out, stages, |out, s| {
            FieldWriter::write_object(out, |m| {
                push_array(m.key(Key::parents), &s.parents, StageId::write);
                u32::write(m.key(Key::tasks), &s.tasks);
            });
        });
    }

    fn decode(d: &mut Decoder<'_>) -> Option<Vec<StageMeta>> {
        d.array(|d| {
            d.lit(r#"{"parents":"#)?;
            let parents = d.array(StageId::decode)?;
            d.lit(r#","tasks":"#)?;
            let tasks = d.uint32()?;
            d.lit("}")?;
            Some(StageMeta { tasks, parents })
        })
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<Vec<StageMeta>, ReadError> {
        let Some(value) = f.get_opt(key) else {
            return Ok(Vec::new());
        };
        let Node::Array { .. } = value.node() else {
            return Err(f.mistyped(key, "an array", value));
        };
        value
            .items()
            .map(|item| {
                let routes = Routes::of(item, STAGE_KEYS);
                let meta = Fields::new(f.lineno, item, "stage entry", &routes)?;
                let parents = meta.get(Key::parents)?;
                let Node::Array { .. } = parents.node() else {
                    return Err(f.err("\"parents\" must be an array"));
                };
                let parents = parents
                    .items()
                    .map(|p| match p.node() {
                        Node::UInt(n) => {
                            u32::try_from(*n).map(StageId::new).map_err(|_| f.err("parent stage id exceeds u32 range"))
                        }
                        _ => Err(f.err(format!("parent stage id must be an unsigned integer, got {p:?}"))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let tasks = u32::read(&meta, Key::tasks)?;
                meta.finish()?;
                Ok(StageMeta { tasks, parents })
            })
            .collect()
    }
}

/// Every [`DenyReason`], decoded through [`DenyReason::as_str`].
const DENY_REASONS: [DenyReason; 4] =
    [DenyReason::NoPendingTasks, DenyReason::LocalityWait, DenyReason::ReservationDenied, DenyReason::NoFittingSlot];

impl Wire for DenyReason {
    type Value = DenyReason;

    fn write(out: &mut String, reason: &DenyReason) {
        push_ident(out, reason.as_str());
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<DenyReason> {
        let reason = d.string()?;
        DENY_REASONS.into_iter().find(|r| r.as_str() == reason)
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<DenyReason, ReadError> {
        let reason = f.string(key)?;
        DENY_REASONS
            .into_iter()
            .find(|r| r.as_str() == reason)
            .ok_or_else(|| f.err(format!("unknown deny reason {reason:?}")))
    }
}

/// The delay-scheduling locality levels the engine writes on
/// `task-launched`.
const LOCALITY_LEVELS: [&str; 4] = ["PROCESS_LOCAL", "NODE_LOCAL", "RACK_LOCAL", "ANY"];

/// The fault causes the engine writes on `slot-offline`.
const OFFLINE_CAUSES: [&str; 4] = ["crash", "revocation", "partition", "restart"];

/// A field whose value is one of a fixed list of static identifiers,
/// each written raw and read back as the list's own `&'static str`.
trait Idents {
    const NAMES: &'static [&'static str];
}

/// The codec of `task-launched`'s `level`.
struct Level;

/// The codec of `slot-offline`'s `cause`.
struct Cause;

impl Idents for Level {
    const NAMES: &'static [&'static str] = &LOCALITY_LEVELS;
}

impl Idents for Cause {
    const NAMES: &'static [&'static str] = &OFFLINE_CAUSES;
}

impl<I: Idents> Wire for I {
    type Value = &'static str;

    fn write(out: &mut String, name: &&'static str) {
        push_ident(out, name);
    }

    #[inline(always)]
    fn decode(d: &mut Decoder<'_>) -> Option<&'static str> {
        let value = d.string()?;
        I::NAMES.iter().copied().find(|n| *n == value)
    }

    fn read(f: &Fields<'_>, key: Key) -> Result<&'static str, ReadError> {
        let value = f.string(key)?;
        I::NAMES.iter().copied().find(|n| *n == value).ok_or_else(|| f.err(format!("unknown {} {value:?}", key.name())))
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
    /// The last timestamp written, as `f64` bits and as text: runs of
    /// events share a timestamp, so most lines reuse the text.
    time: (u64, String),
}

impl Default for JsonlSink {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonlSink {
    /// Creates a sink and writes the `trace-start` header line.
    pub fn new() -> Self {
        let mut sink = JsonlSink { out: String::new(), seq: 0, time: (0.0_f64.to_bits(), String::new()) };
        push_float(&mut sink.time.1, 0.0);
        sink.write_line("trace-start", 0.0, |f| u32::write(f.key(Key::schema_version), &SCHEMA_VERSION));
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

    /// Appends one line: the event name, the payload `fields` writes, the
    /// sequence number and the timestamp.
    fn write_line(&mut self, event: &'static str, time_secs: f64, fields: impl FnOnce(&mut FieldWriter<'_>)) {
        let seq = self.seq;
        if time_secs.to_bits() != self.time.0 {
            self.time.0 = time_secs.to_bits();
            self.time.1.clear();
            push_float(&mut self.time.1, time_secs);
        }
        let time = &self.time.1;
        FieldWriter::write_object(&mut self.out, |line| {
            push_ident(line.key(Key::event), event);
            FieldWriter::write_object(line.key(Key::fields), fields);
            push_uint(line.key(Key::seq), seq);
            line.key(Key::time_secs).push_str(time);
        });
        self.out.push('\n');
        self.seq += 1;
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        self.write_line(event.kind.name(), event.time.as_secs_f64(), |f| write_fields(f, &event.kind));
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Writes one JSON object's members straight into the line buffer, each
/// value as its [`Wire`] codec writes it.
///
/// Keys must come in sorted order, as the format promises; debug builds
/// check it.
struct FieldWriter<'o> {
    out: &'o mut String,
    last: Option<Key>,
}

impl FieldWriter<'_> {
    /// Writes `{`, the members, then `}`.
    fn write_object(out: &mut String, members: impl FnOnce(&mut FieldWriter<'_>)) {
        out.push('{');
        let mut writer = FieldWriter { out, last: None };
        members(&mut writer);
        writer.out.push('}');
    }

    /// Writes the separator and `"key":`, returning the buffer for the value.
    fn key(&mut self, key: Key) -> &mut String {
        debug_assert!(
            self.last.is_none_or(|last| last.name() < key.name()),
            "JSONL keys must be sorted: {:?} after {:?}",
            key.name(),
            self.last.map(|last| last.name())
        );
        if self.last.is_some() {
            self.out.push(',');
        }
        self.last = Some(key);
        self.out.push_str(key.quoted());
        self.out
    }
}

/// Appends `[`, the items as `item` writes them separated by `,`, then `]`.
fn push_array<T>(out: &mut String, items: impl IntoIterator<Item = T>, mut item: impl FnMut(&mut String, T)) {
    out.push('[');
    for (i, value) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, value);
    }
    out.push(']');
}

/// Appends a static identifier (event name, level, reason, cause) as a
/// string: raw, as it needs no escaping.
fn push_ident(out: &mut String, name: &str) {
    debug_assert!(!name.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20), "identifier {name:?} needs escaping");
    out.push('"');
    out.push_str(name);
    out.push('"');
}

/// Appends `n` as `{n}` formats it.
fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends `x` as `{x:?}` formats it, or `null` when it is not finite.
fn push_float(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
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
///
/// An event line exactly as [`JsonlSink`] writes it is decoded directly;
/// the header and every other line are read by the general JSON grammar,
/// which alone reports what is wrong with a line (see the module docs).
pub fn parse_trace(input: &str) -> Result<Trace, ReadError> {
    if input.is_empty() {
        return Err(ReadError::new(0, "empty document: missing trace-start header"));
    }
    let mut reader = JsonReader::default();
    let (header, mut rest) = split_line(input);
    let (event, seq, _, fields) = read_line(1, reader.line(1, header)?)?;
    if event != "trace-start" {
        return Err(ReadError::new(1, format!("expected trace-start header, got {event:?}")));
    }
    if seq != 0 {
        return Err(ReadError::new(1, format!("header seq must be 0, got {seq}")));
    }
    let schema_version = u32::read(&fields, Key::schema_version)?;
    fields.finish()?;
    if schema_version == 0 || schema_version > SCHEMA_VERSION {
        return Err(ReadError::new(
            1,
            format!("unsupported schema_version {schema_version} (reader supports 1..={SCHEMA_VERSION})"),
        ));
    }

    let mut events = Vec::new();
    let mut last_time = SimTime::ZERO;
    let mut idx = 0;
    while !rest.is_empty() {
        idx += 1;
        let lineno = idx + 1;
        let (line, next) = match Decoder::line(rest) {
            Some(decoded) => decoded,
            None => {
                let (raw, next) = split_line(rest);
                (reader.event(lineno, raw)?, next)
            }
        };
        rest = next;
        if line.seq != idx as u64 {
            return Err(ReadError::new(lineno, format!("seq {} out of order (expected {idx})", line.seq)));
        }
        if line.time < last_time {
            return Err(ReadError::new(
                lineno,
                format!("time_secs {} precedes the previous event", line.time.as_secs_f64()),
            ));
        }
        last_time = line.time;
        events.push(TraceEvent::new(line.time, line.kind?));
    }
    Ok(Trace { schema_version, events })
}

/// Splits off the line `rest` starts with as `str::lines` does, at a `\n`
/// or a `\r\n`, and returns it and the text after it.
fn split_line(rest: &str) -> (&str, &str) {
    match rest.split_once('\n') {
        Some((raw, next)) => (raw.strip_suffix('\r').unwrap_or(raw), next),
        None => (rest, ""),
    }
}

/// One event line, read: its `seq`, its timestamp, and its payload
/// lowered into the event kind or the fault that lowering met. The fault
/// is reported only once the `seq` and time checks have passed.
#[derive(Debug)]
struct EventLine {
    seq: u64,
    time: SimTime,
    kind: Result<TraceEventKind, ReadError>,
}

/// Declares [`Key`], one variant per key name, spelled as the key is.
macro_rules! keys {
    ($($key:ident)*) => {
        /// A key of the format at any depth: the line's four, a stage
        /// entry's two and every payload field. Each variant is spelled as
        /// its key is written, so that each field of the event table is
        /// also its key.
        #[derive(Clone, Copy, PartialEq, Eq)]
        #[allow(non_camel_case_types, reason = "each variant is spelled as its key is written")]
        enum Key {
            $($key,)*
        }

        impl Key {
            const COUNT: usize = [$(stringify!($key)),*].len();

            fn name(self) -> &'static str {
                match self {
                    $(Key::$key => stringify!($key),)*
                }
            }

            /// The key as it starts a member: `"name":`.
            fn quoted(self) -> &'static str {
                match self {
                    $(Key::$key => concat!("\"", stringify!($key), "\":"),)*
                }
            }
        }
    };
}

keys! {
    event fields seq time_secs
    parents tasks
    assignments attempt cause deadline_secs duration_secs free job level name partition priority reason requeued
    reserved running schema_version slot speculative stage stages warm
}

/// A line's keys, in the order the writer emits them.
const LINE_KEYS: &[Key] = &[Key::event, Key::fields, Key::seq, Key::time_secs];

/// A `job-submitted` stage entry's keys, in the order the writer emits them.
const STAGE_KEYS: &[Key] = &[Key::parents, Key::tasks];

/// Marks an absent tape index in [`Routes`].
const ABSENT: usize = usize::MAX;

/// Where an object's members sit on the tape: the value of each expected
/// key's first occurrence, and the key of the first member no accessor
/// reads (one the schema does not expect, or a repeat).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Routes {
    value: [usize; Key::COUNT],
    stray: usize,
}

impl Default for Routes {
    fn default() -> Self {
        Routes { value: [ABSENT; Key::COUNT], stray: ABSENT }
    }
}

impl Routes {
    /// Routes the members of `object`, already on the tape, by `keys`,
    /// each looked up by name.
    fn of(object: Json<'_>, keys: &[Key]) -> Routes {
        let mut routes = Routes::default();
        for (name, value) in object.entries() {
            match keys.iter().copied().find(|key| key.name() == name) {
                Some(key) if routes.value[key as usize] == ABSENT => routes.value[key as usize] = value.at,
                _ if routes.stray == ABSENT => routes.stray = value.at - 1,
                _ => {}
            }
        }
        routes
    }
}

/// The general grammar: reads one line at a time into a flat list of
/// nodes, reused from line to line, so a document costs no allocation per
/// line.
///
/// The grammar is the vendored parser's: the same whitespace, literals and
/// number shapes (`UInt`, `Int` when negative, `Float` with a fraction or
/// exponent). Keys and strings without an escape are slices of the input;
/// a string with one is handed to the vendored parser, so `\u` and
/// surrogate handling live in one place.
///
/// It reads the lines [`Decoder`] leaves to it: the header, and any line
/// that departs from the writer's byte shape. It takes keys in any order,
/// locates each object's members by name through [`Routes`], and reports
/// what is wrong with a line.
#[derive(Default)]
struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    tape: Vec<Node<'a>>,
    /// The routes of the line object and of its `fields` payload.
    top: Routes,
    payload: Routes,
}

/// One value of a line, in document order: a container's node precedes
/// its contents and records where they end.
#[derive(Debug)]
enum Node<'a> {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    Str(Cow<'a, str>),
    /// An array; its items follow, up to node `end`.
    Array {
        end: usize,
    },
    /// An object of `len` members; each key (a `Str`) and its value
    /// follow, up to node `end`.
    Object {
        len: usize,
        end: usize,
    },
}

/// A line as [`JsonReader::line`] read it: its tape, the routes of its
/// object and those of its payload.
struct Line<'t> {
    tape: &'t [Node<'t>],
    top: &'t Routes,
    payload: &'t Routes,
}

impl<'t> Line<'t> {
    fn root(&self) -> Json<'t> {
        Json { tape: self.tape, at: 0 }
    }
}

/// The root value's `Debug` output.
impl fmt::Debug for Line<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.root(), f)
    }
}

impl<'a> JsonReader<'a> {
    /// Reads line `lineno`, the whole of `raw`.
    fn line(&mut self, lineno: usize, raw: &'a str) -> Result<Line<'_>, ReadError> {
        self.start(raw).document().map_err(|e| ReadError::new(lineno, format!("invalid JSON: {e}")))?;
        Ok(Line { tape: &self.tape, top: &self.top, payload: &self.payload })
    }

    /// Reads event line `lineno`, the whole of `raw`, and lowers it.
    fn event(&mut self, lineno: usize, raw: &'a str) -> Result<EventLine, ReadError> {
        let (event, seq, time, fields) = read_line(lineno, self.line(lineno, raw)?)?;
        let kind = parse_kind(lineno, event, &fields).and_then(|kind| fields.finish().map(|()| kind));
        Ok(EventLine { seq, time, kind })
    }

    /// Readies the reader for `raw`.
    fn start(&mut self, raw: &'a str) -> &mut Self {
        self.text = raw;
        self.pos = 0;
        self.tape.clear();
        self.top = Routes::default();
        self.payload = Routes::default();
        self
    }

    /// The general grammar, from the line's start: a JSON value and
    /// nothing after it. A line object's members, and its payload's when
    /// it names an event, are routed once read.
    fn document(&mut self) -> Result<(), String> {
        self.value()?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("trailing characters after JSON document"));
        }
        if let Some(Node::Object { .. }) = self.tape.first() {
            self.top = Routes::of(Json { tape: &self.tape, at: 0 }, LINE_KEYS);
            let (event, fields) = (self.top.value[Key::event as usize], self.top.value[Key::fields as usize]);
            if let (Some(Node::Str(event)), Some(Node::Object { .. })) = (self.tape.get(event), self.tape.get(fields)) {
                self.payload = Routes::of(Json { tape: &self.tape, at: fields }, payload_keys(event));
            }
        }
        Ok(())
    }

    fn error(&self, msg: &str) -> String {
        format!("at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` after any whitespace.
    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        let node = match self.peek() {
            Some(b'n') => self.literal("null", Node::Null)?,
            Some(b't') => self.literal("true", Node::Bool(true))?,
            Some(b'f') => self.literal("false", Node::Bool(false))?,
            Some(b'"') => Node::Str(self.string()?),
            Some(b'[') => return self.container(b']', Self::value),
            Some(b'{') => return self.container(b'}', Self::member),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number()?,
            Some(c) => return Err(self.error(&format!("unexpected character '{}'", c as char))),
            None => return Err(self.error("unexpected end of input")),
        };
        self.tape.push(node);
        Ok(())
    }

    fn literal(&mut self, word: &str, node: Node<'a>) -> Result<Node<'a>, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(node)
        } else {
            Err(self.error(&format!("expected literal '{word}'")))
        }
    }

    /// An array (`close` is `]`) or an object (`}`), from its opening
    /// bracket on; `item` reads each item or member.
    fn container(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Result<(), String>) -> Result<(), String> {
        let at = self.tape.len();
        self.tape.push(Node::Null);
        self.pos += 1;
        self.skip_ws();
        let mut len = 0;
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                len += 1;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error(&format!("expected ',' or '{}'", close as char))),
                }
            }
        }
        let end = self.tape.len();
        self.tape[at] = if close == b'}' { Node::Object { len, end } } else { Node::Array { end } };
        Ok(())
    }

    /// An object member: its key, the `:` and its value.
    fn member(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.error("expected '\"'"));
        }
        let key = self.string()?;
        self.tape.push(Node::Str(key));
        self.expect(b':')?;
        self.value()
    }

    /// A string token: borrowed when it has no escape, decoded by the
    /// vendored parser when it has one.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut at = start + 1;
        let mut escaped = false;
        loop {
            match bytes.get(at) {
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    at += 2;
                }
                Some(&c) if c < 0x20 => {
                    self.pos = at;
                    return Err(self.error("unescaped control character"));
                }
                Some(_) => at += 1,
                None => {
                    self.pos = at;
                    return Err(self.error("unterminated string"));
                }
            }
        }
        self.pos = at + 1;
        let token = &self.text[start..self.pos];
        if !escaped {
            return Ok(Cow::Borrowed(&token[1..token.len() - 1]));
        }
        match serde_json::from_str(token) {
            Ok(Value::Str(s)) => Ok(Cow::Owned(s)),
            Ok(other) => Err(format!("at byte {start}: string token read as {other:?}")),
            Err(e) => Err(format!("in the string at byte {start}: {e}")),
        }
    }

    /// A number token, as [`number_token`] cuts it.
    fn number(&mut self) -> Result<Node<'a>, String> {
        let start = self.pos;
        let (end, fractional) = number_token(self.text.as_bytes(), start);
        self.pos = end;
        let text = &self.text[start..self.pos];
        let parsed = if fractional {
            text.parse().map(Node::Float).ok()
        } else if text.starts_with('-') {
            text.parse().map(Node::Int).ok()
        } else {
            text.parse().map(Node::UInt).ok()
        };
        parsed.ok_or_else(|| format!("at byte {start}: malformed or out-of-range number '{text}'"))
    }
}

/// The end of the number token that starts at `start` (an optional `-`,
/// then the longest run of digits and `.eE+-`), and whether it holds one
/// of `.eE+-` after its sign, which makes it a float. Both readers cut
/// numbers here.
#[inline(always)]
fn number_token(bytes: &[u8], start: usize) -> (usize, bool) {
    let mut end = start + usize::from(bytes.get(start) == Some(&b'-'));
    let mut fractional = false;
    while let Some(&c) = bytes.get(end) {
        match c {
            b'0'..=b'9' => {}
            b'.' | b'e' | b'E' | b'+' | b'-' => fractional = true,
            _ => break,
        }
        end += 1;
    }
    (end, fractional)
}

/// A value of a line: node `at` of its reader's tape. Its `Debug` output
/// is `serde::Value`'s, which the reader's error messages quote.
#[derive(Clone, Copy)]
struct Json<'t> {
    tape: &'t [Node<'t>],
    at: usize,
}

impl<'t> Json<'t> {
    fn node(self) -> &'t Node<'t> {
        &self.tape[self.at]
    }

    /// The tape index just past this value.
    fn end(self) -> usize {
        match self.node() {
            Node::Array { end } | Node::Object { end, .. } => *end,
            _ => self.at + 1,
        }
    }

    /// An array's items.
    fn items(self) -> impl Iterator<Item = Json<'t>> {
        let end = self.end();
        let mut next = Json { tape: self.tape, at: self.at + 1 };
        std::iter::from_fn(move || {
            let item = (next.at < end).then_some(next)?;
            next.at = item.end();
            Some(item)
        })
    }

    /// An object's members, in document order; none for any other value,
    /// an array's items included.
    fn entries(self) -> impl Iterator<Item = (&'t str, Json<'t>)> {
        let end = match self.node() {
            Node::Object { end, .. } => *end,
            _ => self.at,
        };
        let mut key = self.at + 1;
        std::iter::from_fn(move || {
            if key >= end {
                return None;
            }
            let Node::Str(name) = &self.tape[key] else { return None };
            let value = Json { tape: self.tape, at: key + 1 };
            key = value.end();
            Some((&**name, value))
        })
    }
}

impl fmt::Debug for Json<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            Node::Array { .. } => {
                f.debug_tuple("Array").field(&fmt::from_fn(|f| f.debug_list().entries(self.items()).finish())).finish()
            }
            Node::Object { .. } => f
                .debug_tuple("Object")
                .field(&fmt::from_fn(|f| f.debug_list().entries(self.entries()).finish()))
                .finish(),
            scalar => fmt::Debug::fmt(scalar, f),
        }
    }
}

/// Splits one line into its `event` name, `seq`, timestamp and the
/// accessors over its `fields`.
fn read_line(lineno: usize, line: Line<'_>) -> Result<(&str, u64, SimTime, Fields<'_>), ReadError> {
    let top = Fields::new(lineno, line.root(), "line", line.top)?;
    let event = top.string(Key::event)?;
    let seq = top.u64(Key::seq)?;
    // The upper bound keeps the instant representable: `SimTime` would
    // silently saturate beyond it.
    let time_secs = top.f64(Key::time_secs)?;
    if !(0.0..=SimTime::MAX.as_secs_f64()).contains(&time_secs) {
        return Err(top.err(format!("time_secs {time_secs} is outside the simulated clock's range")));
    }
    let fields = Fields::new(lineno, top.get(Key::fields)?, "fields", line.payload)?;
    top.finish()?;
    Ok((event, seq, SimTime::from_secs_f64(time_secs), fields))
}

/// Numeric coercion: the serializer writes integers for whole numbers only
/// in integer-typed fields, but a hand-edited trace may mix shapes. The
/// vendored parser reads an overflowing literal such as `1e400` as
/// infinity, which no field accepts.
fn number(v: Json<'_>) -> Option<f64> {
    match v.node() {
        Node::UInt(n) => Some(*n as f64),
        Node::Int(n) => Some(*n as f64),
        Node::Float(f) if f.is_finite() => Some(*f),
        _ => None,
    }
}

/// The accessors over one JSON object of a line (the line itself, its
/// `"fields"` or a stage entry), through its [`Routes`], that the
/// [`Wire`] codecs read with; [`finish`] rejects the members no accessor
/// reads.
///
/// [`finish`]: Fields::finish
struct Fields<'a> {
    lineno: usize,
    tape: &'a [Node<'a>],
    routes: &'a Routes,
}

impl<'a> Fields<'a> {
    fn new(lineno: usize, value: Json<'a>, what: &str, routes: &'a Routes) -> Result<Self, ReadError> {
        match value.node() {
            // No event has more than eight fields; past 64 keys an object
            // is rejected outright.
            Node::Object { len, .. } if *len <= 64 => Ok(Fields { lineno, tape: value.tape, routes }),
            Node::Object { .. } => Err(ReadError::new(lineno, format!("{what} has too many keys"))),
            _ => Err(ReadError::new(lineno, format!("{what} must be an object, got {value:?}"))),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ReadError {
        ReadError::new(self.lineno, msg)
    }

    /// `key` has `problem`.
    fn fault(&self, key: Key, problem: &str) -> ReadError {
        self.err(format!("{:?} {problem}", key.name()))
    }

    /// `key` holds `value`, which is not `shape`.
    fn mistyped(&self, key: Key, shape: &str, value: Json<'_>) -> ReadError {
        self.err(format!("{:?} must be {shape}, got {value:?}", key.name()))
    }

    /// Fails on the first key no accessor read: unknown to the schema, or
    /// a duplicate of one that was read.
    fn finish(&self) -> Result<(), ReadError> {
        match self.tape.get(self.routes.stray) {
            Some(Node::Str(key)) => Err(self.err(format!("unknown or duplicate field {key:?}"))),
            _ => Ok(()),
        }
    }

    fn get(&self, key: Key) -> Result<Json<'a>, ReadError> {
        self.get_opt(key).ok_or_else(|| self.err(format!("missing field {:?}", key.name())))
    }

    /// Like [`get`](Self::get) but tolerating absence (schema v1 traces).
    fn get_opt(&self, key: Key) -> Option<Json<'a>> {
        let at = self.routes.value[key as usize];
        (at != ABSENT).then_some(Json { tape: self.tape, at })
    }

    fn u64(&self, key: Key) -> Result<u64, ReadError> {
        let value = self.get(key)?;
        match value.node() {
            Node::UInt(n) => Ok(*n),
            _ => Err(self.mistyped(key, "an unsigned integer", value)),
        }
    }

    fn f64(&self, key: Key) -> Result<f64, ReadError> {
        number(self.get(key)?).ok_or_else(|| self.fault(key, "must be a finite number"))
    }

    fn string(&self, key: Key) -> Result<&'a str, ReadError> {
        let value = self.get(key)?;
        match value.node() {
            Node::Str(s) => Ok(s),
            _ => Err(self.mistyped(key, "a string", value)),
        }
    }
}

/// Decodes an event line in the writer's exact byte shape straight into
/// its event, with no tape, no [`Routes`] and no [`Fields`].
///
/// It reads only what the general grammar reads to the same event: the
/// keys of [`write_fields`] in its order with nothing between them,
/// integers in plain digits that fit their field, floats that start at a
/// `-` or a digit and hold a fraction or an exponent, read as
/// `str::parse::<f64>` reads them, and strings without an escape or a
/// control character. At the first byte it is unsure of it gives the
/// line up, and [`parse_trace`] hands it to [`JsonReader`]: a leading
/// zero, an exponent or an overflow in an integer, a number that starts
/// with `+` or `.`, an escape, a stray, missing or repeated key,
/// whitespace, an unknown event or identifier, a timestamp out of range,
/// or anything after the closing brace other than `\n`, `\r\n` or the
/// end of input.
///
/// The [`Wire`] decoders are inlined into [`payload`](Decoder::payload),
/// generated from the event table, where each key is a constant, so that
/// each key comparison compiles to a few compares of constant bytes.
struct Decoder<'a> {
    text: &'a str,
    pos: usize,
    /// Whether the next payload member is the object's first, with no
    /// comma before its key.
    first: bool,
}

impl<'a> Decoder<'a> {
    /// Decodes the event line `rest` starts with, returning it and the text
    /// after its line end; `None` where it departs from the writer's shape.
    fn line(rest: &'a str) -> Option<(EventLine, &'a str)> {
        let mut d = Decoder { text: rest, pos: 0, first: true };
        d.lit(r#"{"event":"#)?;
        let event = d.string()?;
        d.lit(r#","fields":{"#)?;
        let kind = d.payload(event)?;
        d.lit(r#"},"seq":"#)?;
        let seq = d.uint()?;
        d.lit(r#","time_secs":"#)?;
        let time_secs = d.float()?;
        d.lit("}")?;
        if !(0.0..=SimTime::MAX.as_secs_f64()).contains(&time_secs) {
            return None;
        }
        let after = &rest[d.pos..];
        let next = match after.as_bytes() {
            [] => after,
            [b'\n', ..] => &after[1..],
            [b'\r', b'\n', ..] => &after[2..],
            _ => return None,
        };
        Some((EventLine { seq, time: SimTime::from_secs_f64(time_secs), kind: Ok(kind) }, next))
    }

    /// Consumes `text` if the line continues with it.
    #[inline(always)]
    fn eat(&mut self, text: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(text.as_bytes());
        if hit {
            self.pos += text.len();
        }
        hit
    }

    #[inline(always)]
    fn lit(&mut self, text: &str) -> Option<()> {
        self.eat(text).then_some(())
    }

    /// The next payload member's key, which must be `key`.
    #[inline(always)]
    fn key(&mut self, key: Key) -> Option<()> {
        if !std::mem::take(&mut self.first) {
            self.lit(",")?;
        }
        self.lit(key.quoted())
    }

    /// Plain digits with no leading zero, where the general grammar's
    /// number token ends too; `None` on overflow.
    #[inline(always)]
    fn uint(&mut self) -> Option<u64> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut n = 0u64;
        while let Some(&digit @ b'0'..=b'9') = bytes.get(self.pos) {
            n = n.checked_mul(10)?.checked_add(u64::from(digit - b'0'))?;
            self.pos += 1;
        }
        let plain = match self.pos - start {
            0 => false,
            1 => true,
            _ => bytes[start] != b'0',
        };
        let ends = !matches!(bytes.get(self.pos), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        (plain && ends).then_some(n)
    }

    /// A number token, as [`number_token`] cuts it, if the general
    /// grammar reads it as a finite float: it must start where the
    /// general grammar starts a number, at a `-` or a digit, since
    /// `str::parse` also takes a leading `+` or `.`.
    #[inline(always)]
    fn float(&mut self) -> Option<f64> {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        if !matches!(bytes.get(start), Some(b'-' | b'0'..=b'9')) {
            return None;
        }
        let (end, fractional) = number_token(bytes, start);
        self.pos = end;
        let x: f64 = self.text[start..self.pos].parse().ok()?;
        (fractional && x.is_finite()).then_some(x)
    }

    /// A string with no escape and no control character, borrowed.
    #[inline(always)]
    fn string(&mut self) -> Option<&'a str> {
        self.lit("\"")?;
        let start = self.pos;
        let len = self.text.as_bytes()[start..].iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20)?;
        self.pos += len;
        self.lit("\"")?;
        Some(&self.text[start..start + len])
    }

    /// [`uint`](Self::uint), within `u32`.
    #[inline(always)]
    fn uint32(&mut self) -> Option<u32> {
        u32::try_from(self.uint()?).ok()
    }

    /// An array of `item`s: `[`, the items separated by `,`, then `]`.
    fn array<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.lit("[")?;
        let mut items = Vec::new();
        if self.eat("]") {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat("]") {
                return Some(items);
            }
            self.lit(",")?;
        }
    }
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

    /// The tree the writer used to build per event, kept as the reference
    /// the direct writer is byte-compared against.
    fn event_fields(kind: &TraceEventKind) -> Value {
        use TraceEventKind as K;
        let obj =
            |entries: Vec<(&str, Value)>| Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
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
            K::OfferRoundEnded { assignments } => obj(vec![("assignments", Value::UInt(*assignments as u64))]),
            K::OfferDeclined { job, reason, stage } => obj(vec![
                ("job", Value::UInt(job.as_u64())),
                ("reason", Value::Str(reason.as_str().into())),
                ("stage", stage.map(|s| uint(s.as_u32())).unwrap_or(Value::Null)),
            ]),
            K::TaskLaunched { slot, job, stage, partition, attempt, level, speculative, warm } => obj(vec![
                ("attempt", uint(*attempt)),
                ("job", Value::UInt(job.as_u64())),
                ("level", Value::Str((*level).into())),
                ("partition", uint(*partition)),
                ("slot", uint(*slot)),
                ("speculative", Value::Bool(*speculative)),
                ("stage", uint(stage.as_u32())),
                ("warm", Value::Bool(*warm)),
            ]),
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
            K::ReservationExpired { slot, job } | K::ReservationReleased { slot, job } => {
                obj(vec![("job", Value::UInt(job.as_u64())), ("slot", uint(*slot))])
            }
            K::StaleReservationReleased { slot, job, stage } => {
                obj(vec![("job", Value::UInt(job.as_u64())), ("slot", uint(*slot)), ("stage", uint(stage.as_u32()))])
            }
            K::BarrierCleared { job, stage } | K::StageCompleted { job, stage } => {
                obj(vec![("job", Value::UInt(job.as_u64())), ("stage", uint(stage.as_u32()))])
            }
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
            K::ReservationRevoked { slot, job } => obj(vec![("job", Value::UInt(job.as_u64())), ("slot", uint(*slot))]),
            K::SlotOffline { slot, cause } => obj(vec![("cause", Value::Str((*cause).into())), ("slot", uint(*slot))]),
            K::SlotOnline { slot } => obj(vec![("slot", uint(*slot))]),
        }
    }

    /// The document the writer produced when it built a `Value` tree per
    /// line and handed it to the vendored serializer.
    fn reference(events: &[TraceEvent]) -> String {
        let line = |seq: u64, event: &str, time_secs: f64, fields: Value| {
            let line = Value::Object(vec![
                ("event".into(), Value::Str(event.into())),
                ("fields".into(), fields),
                ("seq".into(), Value::UInt(seq)),
                ("time_secs".into(), Value::Float(time_secs)),
            ]);
            serde_json::to_string(&line).expect("serializer is total") + "\n"
        };
        let header = Value::Object(vec![("schema_version".into(), Value::UInt(u64::from(SCHEMA_VERSION)))]);
        let mut out = line(0, "trace-start", 0.0, header);
        for (seq, e) in (1..).zip(events) {
            out.push_str(&line(seq, e.kind.name(), e.time.as_secs_f64(), event_fields(&e.kind)));
        }
        out
    }

    /// Job names that exercise every escaping rule and some that need none.
    const NAMES: [&str; 11] = [
        "",
        "fg",
        "quote\"d",
        "back\\slash",
        "new\nline",
        "unit\u{1f}sep",
        "del\u{7f}",
        "line\u{2028}sep",
        "naïve ✓ 名前 😀",
        "\r\t\u{0}\u{8}\u{c}",
        "/",
    ];

    /// Floats at the edges of the `{x:?}` format, and the non-finite ones
    /// that must come out as `null`.
    const FLOATS: [f64; 15] = [
        0.0,
        -0.0,
        1.25,
        0.1,
        5e-324,
        1e-310,
        1e21,
        1e-7,
        f64::MAX,
        f64::MIN_POSITIVE,
        -1.5,
        123_456_789.123,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    const U32S: [u32; 5] = [0, 1, 7, u32::MAX - 1, u32::MAX];
    const U64S: [u64; 5] = [0, 1, 1 << 32, u64::MAX - 1, u64::MAX];
    const I32S: [i32; 5] = [i32::MIN, -1, 0, 10, i32::MAX];
    const USIZES: [usize; 4] = [0, 1, 4000, usize::MAX];

    /// Draws field values from a generated word list: an even word picks
    /// from the table of edge values, an odd one is used raw.
    struct Picks<'a>(std::slice::Iter<'a, u64>);

    impl Picks<'_> {
        fn next(&mut self) -> u64 {
            self.0.next().copied().unwrap_or(0)
        }

        fn edge<T: Copy>(&mut self, table: &[T], raw: impl FnOnce(u64) -> T) -> T {
            let p = self.next();
            if p & 1 == 0 {
                table[(p >> 1) as usize % table.len()]
            } else {
                raw(p >> 1)
            }
        }

        fn u32(&mut self) -> u32 {
            self.edge(&U32S, |p| p as u32)
        }

        fn job(&mut self) -> JobId {
            JobId::new(self.edge(&U64S, |p| p))
        }

        fn stage(&mut self) -> StageId {
            StageId::new(self.u32())
        }

        fn opt_stage(&mut self) -> Option<StageId> {
            (!self.next().is_multiple_of(3)).then(|| self.stage())
        }

        fn priority(&mut self) -> Priority {
            Priority::new(self.edge(&I32S, |p| p as i32))
        }

        fn usize(&mut self) -> usize {
            self.edge(&USIZES, |p| p as usize)
        }

        fn f64(&mut self) -> f64 {
            self.edge(&FLOATS, f64::from_bits)
        }

        fn opt_f64(&mut self) -> Option<f64> {
            (!self.next().is_multiple_of(3)).then(|| self.f64())
        }

        fn bool(&mut self) -> bool {
            self.next() & 1 == 1
        }

        fn of<T: Copy>(&mut self, names: &[T]) -> T {
            names[self.next() as usize % names.len()]
        }

        fn name(&mut self) -> String {
            let (a, b) = (self.of(&NAMES), self.of(&NAMES));
            format!("{a}{b}")
        }

        fn stages(&mut self) -> Vec<StageMeta> {
            (0..self.next() % 4)
                .map(|_| StageMeta { tasks: self.u32(), parents: (0..self.next() % 3).map(|_| self.stage()).collect() })
                .collect()
        }
    }

    /// One event of the variant `words[0]` names, its fields drawn from
    /// the rest of `words`.
    fn generated_event(words: &[u64]) -> TraceEvent {
        use TraceEventKind as K;
        let mut p = Picks(words.iter());
        let variant = p.next() % 20;
        let time = SimTime::from_micros(p.edge(&U64S, |w| w));
        let kind = match variant {
            0 => K::JobSubmitted { job: p.job(), name: p.name(), priority: p.priority(), stages: p.stages() },
            1 => K::OfferRoundStarted { free: p.usize(), running: p.usize(), reserved: p.usize() },
            2 => K::OfferRoundEnded { assignments: p.usize() },
            3 => K::OfferDeclined { job: p.job(), reason: p.of(&DENY_REASONS), stage: p.opt_stage() },
            4 => K::TaskLaunched {
                slot: p.u32(),
                job: p.job(),
                stage: p.stage(),
                partition: p.u32(),
                attempt: p.u32(),
                level: p.of(&LOCALITY_LEVELS),
                speculative: p.bool(),
                warm: p.bool(),
            },
            5 => K::TaskFinished {
                slot: p.u32(),
                job: p.job(),
                stage: p.stage(),
                partition: p.u32(),
                attempt: p.u32(),
                duration_secs: p.f64(),
            },
            6 => K::CopyKilled { slot: p.u32(), job: p.job(), stage: p.stage(), partition: p.u32() },
            7 => K::ReservationGranted {
                slot: p.u32(),
                job: p.job(),
                priority: p.priority(),
                stage: p.opt_stage(),
                deadline_secs: p.opt_f64(),
            },
            8 => K::PrereserveFilled {
                slot: p.u32(),
                job: p.job(),
                stage: p.stage(),
                priority: p.priority(),
                deadline_secs: p.opt_f64(),
            },
            9 => K::ReservationExpired { slot: p.u32(), job: p.job() },
            10 => K::ReservationReleased { slot: p.u32(), job: p.job() },
            11 => K::StaleReservationReleased { slot: p.u32(), job: p.job(), stage: p.stage() },
            12 => K::BarrierCleared { job: p.job(), stage: p.stage() },
            13 => K::StageCompleted { job: p.job(), stage: p.stage() },
            14 => K::JobCompleted { job: p.job() },
            15 => K::LocalityUnlocked,
            16 => K::TaskCrashed {
                slot: p.u32(),
                job: p.job(),
                stage: p.stage(),
                partition: p.u32(),
                attempt: p.u32(),
                requeued: p.bool(),
            },
            17 => K::ReservationRevoked { slot: p.u32(), job: p.job() },
            18 => K::SlotOffline { slot: p.u32(), cause: p.of(&OFFLINE_CAUSES) },
            _ => K::SlotOnline { slot: p.u32() },
        };
        TraceEvent::new(time, kind)
    }

    /// Events drawn by [`generated_event`], one per word list. An event
    /// whose last word is even takes its predecessor's timestamp, so runs
    /// of lines share one, as they do in a run's trace.
    fn generated_stream(words: &[Vec<u64>]) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = Vec::new();
        for w in words {
            let mut event = generated_event(w);
            if let (Some(prev), Some(last)) = (events.last(), w.last()) {
                if last % 2 == 0 {
                    event.time = prev.time;
                }
            }
            events.push(event);
        }
        events
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
            (
                "{\"event\":\"job-completed\",\"fields\":{\"job\":0},\"seq\":0,\"time_secs\":0.0}\n",
                "expected trace-start",
            ),
            (
                "{\"event\":\"trace-start\",\"fields\":{\"schema_version\":99},\"seq\":0,\"time_secs\":0.0}\n",
                "unsupported schema_version",
            ),
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

        let bad_time = format!(
            "{HEADER}\n{}\n{}\n",
            r#"{"event":"job-completed","fields":{"job":1},"seq":1,"time_secs":5.0}"#,
            r#"{"event":"job-completed","fields":{"job":2},"seq":2,"time_secs":4.0}"#
        );
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
        let err =
            parse_one(r#"{"event":"job-completed","fields":{"bogus":5,"job":0},"seq":1,"time_secs":0.0}"#).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains(r#"field "bogus""#), "{err}");
        let err =
            parse_one(r#"{"event":"job-completed","fields":{"job":0,"job":1},"seq":1,"time_secs":0.0}"#).unwrap_err();
        assert!(err.to_string().contains(r#"duplicate field "job""#), "{err}");
        let err =
            parse_one(r#"{"event":"job-completed","extra":1,"fields":{"job":0},"seq":1,"time_secs":0.0}"#).unwrap_err();
        assert!(err.to_string().contains(r#"field "extra""#), "{err}");
        let err = parse_one(concat!(
            r#"{"event":"job-submitted","fields":{"job":0,"name":"fg","priority":1,"#,
            r#""stages":[{"parents":[],"tasks":1,"width":2}]},"seq":1,"time_secs":0.0}"#
        ))
        .unwrap_err();
        assert!(err.to_string().contains(r#"field "width""#), "{err}");
    }

    #[test]
    fn rejects_objects_past_the_read_mask() {
        let fields = |n: usize| (0..n).map(|i| format!(r#""k{i}":0"#)).collect::<Vec<_>>().join(",");
        let line = |n| format!(r#"{{"event":"locality-unlocked","fields":{{{}}},"seq":1,"time_secs":0.0}}"#, fields(n));
        let err = parse_one(&line(65)).unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (2, "fields has too many keys"));
        let err = parse_one(&line(64)).unwrap_err();
        assert_eq!(err.message, r#"unknown or duplicate field "k0""#);
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
                            (k == "stages" && *wv == Value::Array(Vec::new())) || (k == "stage" && *wv == Value::Null)
                        }
                    })
            }
            (Value::Array(r), Value::Array(w)) => r.len() == w.len() && r.iter().zip(w).all(|(a, b)| same(a, b)),
            _ => match (value_number(read), value_number(written)) {
                (Some(a), Some(b)) => a == b,
                _ => read == written,
            },
        }
    }

    /// [`number`] over the vendored parser's tree.
    fn value_number(v: &Value) -> Option<f64> {
        match v {
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) if f.is_finite() => Some(*f),
            _ => None,
        }
    }

    /// Hostile replacement values, as raw JSON text. The last is `"x"`
    /// spelled with an escape, which must read as the plain one does.
    const REPLACEMENTS: [&str; 6] = ["1e400", "-1", "18446744073709551615", "\"x\"", "null", r#""\u0078""#];

    /// `doc` with one hostile edit, each pick taken modulo what it picks
    /// from: a value of a line replaced by `REPLACEMENTS[mutation]` (0–5),
    /// a member, item or line dropped (6), a key added (7), or two lines
    /// swapped (8).
    fn hostile_edit(doc: &str, line_pick: usize, position_pick: usize, mutation: usize) -> String {
        let mut lines: Vec<Value> = doc.lines().map(|l| serde_json::from_str(l).expect("writer output")).collect();
        let count = lines.len();
        let line = line_pick % count;
        let mut paths = Vec::new();
        positions(&lines[line], &mut Vec::new(), &mut paths);
        let path = &paths[position_pick % paths.len()];
        const MARK: &str = "@@replaced@@";
        match mutation {
            0..=5 => *at(&mut lines[line], path) = Value::Str(MARK.into()),
            6 => match path.split_last() {
                Some((&i, parent)) => match at(&mut lines[line], parent) {
                    Value::Object(entries) => drop(entries.remove(i)),
                    Value::Array(items) => drop(items.remove(i)),
                    _ => unreachable!("a child's parent is a container"),
                },
                None => drop(lines.remove(line)),
            },
            7 => match at(&mut lines[line], path) {
                Value::Object(entries) => entries.push(("bogus".into(), Value::UInt(5))),
                // A line an earlier edit replaced whole takes no key.
                _ => {
                    if let Value::Object(entries) = &mut lines[line] {
                        entries.push(("bogus".into(), Value::UInt(5)));
                    }
                }
            },
            _ => lines.swap(line, (line + 1) % count),
        }
        let raw = REPLACEMENTS.get(mutation).copied().unwrap_or_default();
        lines
            .iter()
            .map(|v| {
                let text = serde_json::to_string(v).expect("serializer is total");
                text.replace(&format!("\"{MARK}\""), raw) + "\n"
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// A valid trace with one value replaced, one key or line dropped,
        /// one key added, or two lines swapped: the reader never panics,
        /// rejects what no schema allows, reads whatever it accepts
        /// faithfully, and returns what the reference reader returns.
        #[test]
        fn hostile_edits_are_errors_never_panics(
            line_pick in 0usize..1000,
            position_pick in 0usize..1000,
            mutation in 0usize..9,
        ) {
            let mutated = hostile_edit(&render(&every_variant()), line_pick, position_pick, mutation);
            let parsed = parse_trace(&mutated);
            prop_assert_eq!(
                format!("{parsed:?}"),
                format!("{:?}", reference::parse_trace(&mutated)),
                "{}",
                mutated
            );
            // No field takes a non-finite number or an unknown key, and
            // swapped lines break the seq order.
            let must_fail = matches!(mutation, 0 | 7 | 8);
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

    /// A `job-submitted` line with sequence number `seq` whose `name` is
    /// the raw JSON string body `name`.
    fn submitted(seq: u64, name: &str) -> String {
        format!(
            r#"{{"event":"job-submitted","fields":{{"job":{seq},"name":"{name}","priority":1,"stages":[]}},"seq":{seq},"time_secs":0.0}}"#
        )
    }

    #[test]
    fn reads_escaped_keys_and_names_exactly() {
        let trace = parse_one(r#"{"event":"job\u002dcompleted","fields":{"\u006a\u006fb":3},"seq":1,"time_secs":0.0}"#)
            .expect("escaped names read as plain ones");
        assert_eq!(trace.events[0].kind, TraceEventKind::JobCompleted { job: JobId::new(3) });
        let trace = parse_one(&submitted(1, r#"a\"b\\c\/d\n\u00e9\ud83d\ude00 ✓"#)).expect("escapes decode");
        match &trace.events[0].kind {
            TraceEventKind::JobSubmitted { name, .. } => assert_eq!(name, "a\"b\\c/d\né😀 ✓"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_strings_on_their_line() {
        let cases = [
            r#"\ud800"#,
            r#"\udc00"#,
            r#"\ud800\u0041"#,
            r#"\ud800\udbff"#,
            r#"\u12"#,
            r#"\x"#,
            "raw\ttab",
            "unit\u{1f}sep",
            "nul\u{0}",
        ];
        for name in cases {
            let doc = format!("{HEADER}\n{}\n{}\n", submitted(1, "ok"), submitted(2, name));
            let err = parse_trace(&doc).expect_err(name);
            assert_eq!(err.line, 3, "{name:?}: {err}");
            assert!(err.message.starts_with("invalid JSON: "), "{name:?}: {err}");
        }
        let raw_key = format!(
            "{HEADER}\n{}\n",
            r#"{"event":"job-completed","fields":{"jo\u{1}b":0},"seq":1,"time_secs":0.0}"#.replace("\\u{1}", "\u{1}")
        );
        let err = parse_trace(&raw_key).expect_err("raw control character in a key");
        assert_eq!(err.line, 2);
        assert!(err.message.starts_with("invalid JSON: "), "{err}");
    }

    /// Number and literal tokens of the vendored grammar, valid or not.
    const SCALARS: [&str; 22] = [
        "0",
        "1",
        "-2",
        "0.5",
        "1e400",
        "-1e400",
        "-0",
        "1.5e-3",
        "2E+5",
        "-0.0e+0",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "1.2.3",
        "1e",
        "-",
        "01",
        "null",
        "true",
        "false",
        "nul",
    ];

    /// String tokens: plain, escaped, and ones both parsers must reject.
    const STRINGS: [&str; 13] = [
        r#""k""#,
        r#""""#,
        r#""\u006b""#,
        r#""a\"b\\c\/\n\t\b\f\r""#,
        r#""\ud83d\ude00""#,
        "\"é😀\"",
        r#""\ud800""#,
        r#""\udc00""#,
        r#""\ud800\u0041""#,
        "\"\u{1}\"",
        r#""\x""#,
        r#""\u12""#,
        r#""\é""#,
    ];

    /// What a corruption inserts.
    const SPLICES: [&str; 12] = ["{", "}", "[", "]", ",", ":", "\"", "\\", " ", "+1", "x", "\u{0}"];

    /// Appends a JSON document drawn from `p`: scalars, strings, arrays and
    /// objects nested up to three deep, with whitespace between tokens.
    fn generated_document(p: &mut Picks<'_>, depth: u32, out: &mut String) {
        let ws = |p: &mut Picks<'_>, out: &mut String| out.push_str(p.of(&["", "", " ", "\t", "\r\n"]));
        ws(p, out);
        match p.next() % if depth >= 3 { 2 } else { 4 } {
            0 => out.push_str(p.of(&SCALARS)),
            1 => out.push_str(p.of(&STRINGS)),
            shape => {
                let object = shape == 3;
                out.push(if object { '{' } else { '[' });
                for i in 0..p.next() % 4 {
                    if i > 0 {
                        out.push(',');
                    }
                    if object {
                        ws(p, out);
                        out.push_str(p.of(&STRINGS));
                        ws(p, out);
                        out.push(':');
                    }
                    generated_document(p, depth + 1, out);
                }
                ws(p, out);
                out.push(if object { '}' } else { ']' });
            }
        }
        ws(p, out);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The direct writer emits the bytes the tree writer did, on
        /// streams of every variant with edge-case ids, floats and names.
        #[test]
        fn direct_writer_matches_tree_reference(
            words in proptest::collection::vec(proptest::collection::vec(0u64..u64::MAX, 24), 1..12),
        ) {
            let events = generated_stream(&words);
            let direct = render(&events);
            prop_assert!(direct == reference(&events), "direct:\n{direct}\nreference:\n{}", reference(&events));
        }

        /// The borrowed reader accepts exactly what the vendored parser
        /// accepts and reads it to the same tree, also after a corruption.
        #[test]
        fn borrowed_reader_agrees_with_vendored_parser(
            words in proptest::collection::vec(0u64..u64::MAX, 96),
        ) {
            let mut picks = Picks(words.iter());
            let mut doc = String::new();
            generated_document(&mut picks, 0, &mut doc);
            match picks.next() % 3 {
                0 => {}
                1 => {
                    let at = picks.next() as usize % (doc.len() + 1);
                    let at = (0..=at).rev().find(|&i| doc.is_char_boundary(i)).unwrap_or(0);
                    doc.insert_str(at, picks.of(&SPLICES));
                }
                _ => {
                    if let Some((at, _)) = doc.char_indices().nth(picks.next() as usize % doc.chars().count().max(1)) {
                        doc.remove(at);
                    }
                }
            }
            let mut reader = JsonReader::default();
            let borrowed = reader.line(1, &doc);
            let owned = serde_json::from_str(&doc);
            match (&borrowed, &owned) {
                (Ok(b), Ok(o)) => prop_assert_eq!(format!("{b:?}"), format!("{o:?}"), "{:?}", doc),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{doc:?}: borrowed {borrowed:?}, vendored {owned:?}"),
            }
        }
    }

    /// The reader as it was before it read lines in the writer's key
    /// order: each line lexed by the general grammar, and each field found
    /// by a search from the object's first member, with a read mask for
    /// the members left over. Kept as the reference the reader is held to,
    /// message for message.
    mod reference {
        use std::cell::Cell;

        use super::super::*;

        pub(super) fn parse_trace(input: &str) -> Result<Trace, ReadError> {
            let mut lines = input.lines().enumerate();
            let (_, header) =
                lines.next().ok_or_else(|| ReadError::new(0, "empty document: missing trace-start header"))?;
            let mut reader = JsonReader::default();
            let header = lex(&mut reader, 1, header)?;
            let (event, seq, _, fields) = read_line(1, header)?;
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
                let line = lex(&mut reader, lineno, raw)?;
                let (event, seq, time, fields) = read_line(lineno, line)?;
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

        /// Line `lineno` on the tape, by the general grammar alone.
        fn lex<'r, 'a>(reader: &'r mut JsonReader<'a>, lineno: usize, raw: &'a str) -> Result<Json<'r>, ReadError> {
            reader.start(raw).document().map_err(|e| ReadError::new(lineno, format!("invalid JSON: {e}")))?;
            Ok(Json { tape: &reader.tape, at: 0 })
        }

        fn read_line(lineno: usize, line: Json<'_>) -> Result<(&str, u64, SimTime, Fields<'_>), ReadError> {
            let top = Fields::new(lineno, line, "line")?;
            let event = top.string("event")?;
            let seq = top.u64("seq")?;
            let time_secs = top.f64("time_secs")?;
            if !(0.0..=SimTime::MAX.as_secs_f64()).contains(&time_secs) {
                return Err(top.err(format!("time_secs {time_secs} is outside the simulated clock's range")));
            }
            let fields = Fields::new(lineno, top.get("fields")?, "fields")?;
            top.finish()?;
            Ok((event, seq, SimTime::from_secs_f64(time_secs), fields))
        }

        struct Fields<'a> {
            lineno: usize,
            object: Json<'a>,
            /// Bit `i` is set once member `i` has been read.
            read: Cell<u64>,
        }

        impl<'a> Fields<'a> {
            fn new(lineno: usize, value: Json<'a>, what: &str) -> Result<Self, ReadError> {
                match value.node() {
                    Node::Object { len, .. } if *len <= 64 => Ok(Fields { lineno, object: value, read: Cell::new(0) }),
                    Node::Object { .. } => Err(ReadError::new(lineno, format!("{what} has too many keys"))),
                    _ => Err(ReadError::new(lineno, format!("{what} must be an object, got {value:?}"))),
                }
            }

            fn err(&self, msg: impl Into<String>) -> ReadError {
                ReadError::new(self.lineno, msg)
            }

            fn finish(&self) -> Result<(), ReadError> {
                let read = self.read.get();
                match self.object.entries().enumerate().find(|(i, _)| read & (1 << i) == 0) {
                    Some((_, (key, _))) => Err(self.err(format!("unknown or duplicate field {key:?}"))),
                    None => Ok(()),
                }
            }

            fn get(&self, key: &str) -> Result<Json<'a>, ReadError> {
                self.get_opt(key).ok_or_else(|| self.err(format!("missing field {key:?}")))
            }

            fn get_opt(&self, key: &str) -> Option<Json<'a>> {
                let (i, (_, value)) = self.object.entries().enumerate().find(|(_, (k, _))| *k == key)?;
                self.read.set(self.read.get() | 1 << i);
                Some(value)
            }

            fn u64(&self, key: &str) -> Result<u64, ReadError> {
                let value = self.get(key)?;
                match value.node() {
                    Node::UInt(n) => Ok(*n),
                    _ => Err(self.err(format!("{key:?} must be an unsigned integer, got {value:?}"))),
                }
            }

            fn u32(&self, key: &str) -> Result<u32, ReadError> {
                u32::try_from(self.u64(key)?).map_err(|_| self.err(format!("{key:?} exceeds u32 range")))
            }

            fn usize(&self, key: &str) -> Result<usize, ReadError> {
                usize::try_from(self.u64(key)?).map_err(|_| self.err(format!("{key:?} exceeds usize range")))
            }

            fn i32(&self, key: &str) -> Result<i32, ReadError> {
                let value = self.get(key)?;
                let raw = match value.node() {
                    Node::Int(n) => *n,
                    Node::UInt(n) => i64::try_from(*n).map_err(|_| self.err(format!("{key:?} exceeds i64 range")))?,
                    _ => return Err(self.err(format!("{key:?} must be an integer, got {value:?}"))),
                };
                i32::try_from(raw).map_err(|_| self.err(format!("{key:?} exceeds i32 range")))
            }

            fn f64(&self, key: &str) -> Result<f64, ReadError> {
                number(self.get(key)?).ok_or_else(|| self.err(format!("{key:?} must be a finite number")))
            }

            fn bool(&self, key: &str) -> Result<bool, ReadError> {
                let value = self.get(key)?;
                match value.node() {
                    Node::Bool(b) => Ok(*b),
                    _ => Err(self.err(format!("{key:?} must be a boolean, got {value:?}"))),
                }
            }

            fn string(&self, key: &str) -> Result<&'a str, ReadError> {
                let value = self.get(key)?;
                match value.node() {
                    Node::Str(s) => Ok(s),
                    _ => Err(self.err(format!("{key:?} must be a string, got {value:?}"))),
                }
            }

            fn one_of(&self, key: &str, names: &[&'static str]) -> Result<&'static str, ReadError> {
                let value = self.string(key)?;
                names.iter().copied().find(|n| *n == value).ok_or_else(|| self.err(format!("unknown {key} {value:?}")))
            }

            fn job(&self) -> Result<JobId, ReadError> {
                Ok(JobId::new(self.u64("job")?))
            }

            fn stage(&self) -> Result<StageId, ReadError> {
                Ok(StageId::new(self.u32("stage")?))
            }

            fn opt_stage(&self) -> Result<Option<StageId>, ReadError> {
                match self.get_opt("stage").map(Json::node) {
                    None | Some(Node::Null) => Ok(None),
                    Some(_) => self.stage().map(Some),
                }
            }

            fn opt_secs(&self, key: &str) -> Result<Option<f64>, ReadError> {
                match self.get(key)?.node() {
                    Node::Null => Ok(None),
                    _ => self.f64(key).map(Some),
                }
            }

            fn stage_metas(&self) -> Result<Vec<StageMeta>, ReadError> {
                let Some(value) = self.get_opt("stages") else {
                    return Ok(Vec::new());
                };
                let Node::Array { .. } = value.node() else {
                    return Err(self.err(format!("\"stages\" must be an array, got {value:?}")));
                };
                value
                    .items()
                    .map(|item| {
                        let meta = Fields::new(self.lineno, item, "stage entry")?;
                        let parents = meta.get("parents")?;
                        let Node::Array { .. } = parents.node() else {
                            return Err(self.err("\"parents\" must be an array"));
                        };
                        let parents = parents
                            .items()
                            .map(|p| match p.node() {
                                Node::UInt(n) => u32::try_from(*n)
                                    .map(StageId::new)
                                    .map_err(|_| self.err("parent stage id exceeds u32 range")),
                                _ => Err(self.err(format!("parent stage id must be an unsigned integer, got {p:?}"))),
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        let tasks = meta.u32("tasks")?;
                        meta.finish()?;
                        Ok(StageMeta { tasks, parents })
                    })
                    .collect()
            }
        }

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
                "stale-reservation-released" => {
                    K::StaleReservationReleased { slot: f.u32("slot")?, job: f.job()?, stage: f.stage()? }
                }
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
                "slot-offline" => K::SlotOffline { slot: f.u32("slot")?, cause: f.one_of("cause", &OFFLINE_CAUSES)? },
                "slot-online" => K::SlotOnline { slot: f.u32("slot")? },
                "trace-start" => return Err(ReadError::new(lineno, "trace-start may only appear as the first line")),
                other => return Err(ReadError::new(lineno, format!("unknown event {other:?}"))),
            })
        }
    }

    /// Shuffles the members of every object in `v`, nested ones too, by
    /// draws from `p`.
    fn shuffle_keys(v: &mut Value, p: &mut Picks<'_>) {
        match v {
            Value::Object(entries) => {
                for i in (1..entries.len()).rev() {
                    entries.swap(i, p.next() as usize % (i + 1));
                }
                entries.iter_mut().for_each(|(_, child)| shuffle_keys(child, p));
            }
            Value::Array(items) => items.iter_mut().for_each(|item| shuffle_keys(item, p)),
            _ => {}
        }
    }

    /// `doc` with the keys of every object shuffled, or with one member of
    /// one line's object or payload repeated somewhere in that object.
    fn reordered(doc: &str, p: &mut Picks<'_>) -> String {
        let mut lines: Vec<Value> = doc.lines().map(|l| serde_json::from_str(l).expect("writer output")).collect();
        if p.bool() {
            lines.iter_mut().for_each(|line| shuffle_keys(line, p));
        } else {
            let count = lines.len();
            let line = &mut lines[p.next() as usize % count];
            let fields = match &*line {
                Value::Object(entries) => entries.iter().position(|(k, _)| k == "fields"),
                _ => None,
            };
            let object = match (p.bool(), fields, line) {
                (true, Some(at), Value::Object(entries)) => &mut entries[at].1,
                (_, _, line) => line,
            };
            if let Value::Object(entries) = object {
                if !entries.is_empty() {
                    let member = entries[p.next() as usize % entries.len()].clone();
                    entries.insert(p.next() as usize % (entries.len() + 1), member);
                }
            }
        }
        lines.iter().map(|v| serde_json::to_string(v).expect("serializer is total") + "\n").collect()
    }

    /// `doc` respelled where the direct decoder gives up or must find the
    /// line ends: every line end made `\r\n`, the last newline dropped, or
    /// one value of one line written as the writer never writes it: with
    /// a leading zero, an exponent, a fraction, a sign or a leading `+`
    /// added, with a bare leading `.` (its integer part dropped), as an
    /// integer past `u32` or `u64`, after a space, or with a string's
    /// first letter escaped.
    fn respelled(doc: &str, p: &mut Picks<'_>) -> String {
        match p.next() % 4 {
            0 => return doc.replace('\n', "\r\n"),
            1 => return doc.strip_suffix('\n').unwrap_or(doc).to_owned(),
            _ => {}
        }
        let mut lines: Vec<String> = doc.lines().map(str::to_owned).collect();
        let count = lines.len();
        let line = &mut lines[p.next() as usize % count];
        // Each value follows a `:`; no generated name holds one.
        let starts: Vec<usize> = line.match_indices(':').map(|(at, _)| at + 1).collect();
        let at = starts[p.next() as usize % starts.len()];
        let end = line[at..].find(|c: char| !c.is_ascii_digit() && !".eE+-".contains(c)).map_or(line.len(), |n| at + n);
        let first = line[at..].chars().nth(1).filter(char::is_ascii_alphanumeric);
        let dot = line[at..end].find('.').map_or(at, |n| at + n);
        let (range, text) = match (line.as_bytes()[at], first, p.next() % 9) {
            (b'"', Some(c), _) => (at + 1..at + 2, format!("\\u{:04x}", u32::from(c))),
            (_, _, 0) => (at..at, "0".to_owned()),
            (_, _, 1) => (end..end, "e0".to_owned()),
            (_, _, 2) => (end..end, ".0".to_owned()),
            (_, _, 3) => (at..end, "4294967296".to_owned()),
            (_, _, 4) => (at..end, "18446744073709551616".to_owned()),
            (_, _, 5) => (at..at, "-".to_owned()),
            (_, _, 6) => (at..at, "+".to_owned()),
            (_, _, 7) if dot > at => (at..dot, String::new()),
            (_, _, 7) => (at..at, ".".to_owned()),
            _ => (at..at, " ".to_owned()),
        };
        line.replace_range(range, &text);
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The reader returns what the reference reader returns, the same
        /// `Trace` or the same `ReadError`: on writer output, on the same
        /// lines with their keys shuffled or one key repeated, respelled
        /// where the direct decoder gives up, and after one or two hostile
        /// edits.
        #[test]
        fn reader_agrees_with_reference_reader(
            words in proptest::collection::vec(proptest::collection::vec(0u64..u64::MAX, 24), 1..12),
            draws in proptest::collection::vec(0u64..u64::MAX, 64),
        ) {
            let mut p = Picks(draws.iter());
            let mut events = generated_stream(&words);
            if !p.next().is_multiple_of(4) {
                events.sort_by_key(|e| e.time);
            }
            let doc = match p.next() % 4 {
                0 => render(&events),
                1 => reordered(&render(&events), &mut p),
                2 => respelled(&render(&events), &mut p),
                _ => {
                    // A second edit on the same line pits two faults
                    // against each other.
                    let line = p.next() as usize;
                    let edits = 1 + p.next() % 2;
                    (0..edits).fold(render(&every_variant()), |doc, _| {
                        hostile_edit(&doc, line, p.next() as usize, p.next() as usize % 9)
                    })
                }
            };
            match (parse_trace(&doc), reference::parse_trace(&doc)) {
                (Ok(read), Ok(reference)) => {
                    prop_assert_eq!(format!("{read:?}"), format!("{reference:?}"), "{}", doc)
                }
                (Err(read), Err(reference)) => prop_assert_eq!(read, reference, "{}", doc),
                (read, reference) => prop_assert!(false, "{doc}\nread {read:?}\nreference {reference:?}"),
            }
        }
    }

    /// The reader finds lines where `str::lines` does: at `\n` or `\r\n`,
    /// with or without a final one, whatever a newline or a space lands in.
    #[test]
    fn lines_split_as_str_lines_splits_them() {
        let doc = render(&every_variant());
        let mut docs = vec![
            doc.replace('\n', "\r\n"),
            doc.trim_end().to_owned(),
            format!("{doc}\r"),
            format!("{doc}\n"),
            format!("{doc} \n"),
            doc.replacen('\n', "\n\n", 3),
            doc.replacen("}\n", "} \r\n", 4),
        ];
        // Every position of the header, the `job-submitted` line and the
        // `task-launched` line.
        let lines: Vec<usize> = [0, 1, 5].iter().map(|&n| doc.lines().take(n).map(|l| l.len() + 1).sum()).collect();
        for start in lines {
            let end = start + doc[start..].find('\n').expect("a newline");
            for at in start..=end {
                for insert in ["\n", " ", "\r\n", "\r"] {
                    docs.push(format!("{}{insert}{}", &doc[..at], &doc[at..]));
                }
            }
        }
        for doc in docs {
            let read = parse_trace(&doc).map(|t| format!("{t:?}"));
            assert_eq!(read, reference::parse_trace(&doc).map(|t| format!("{t:?}")), "{doc:?}");
        }
    }

    /// Where a line holds several faults, the reader reports the one the
    /// reference reports: every pair of members of every line of every
    /// variant, in the line object or in its payload, each dropped or
    /// given a value of the wrong type or range.
    #[test]
    fn paired_faults_report_as_the_reference_does() {
        let doc = render(&every_variant());
        let lines: Vec<Value> = doc.lines().map(|l| serde_json::from_str(l).expect("writer output")).collect();
        let faults =
            [None, Some(Value::Str("x".into())), Some(Value::Int(-1)), Some(Value::Null), Some(Value::Bool(true))];
        fn object(line: &mut Value, in_payload: bool) -> Option<&mut Vec<(String, Value)>> {
            let Value::Object(entries) = line else { return None };
            if !in_payload {
                return Some(entries);
            }
            match entries.iter_mut().find(|(k, _)| k == "fields") {
                Some((_, Value::Object(fields))) => Some(fields),
                _ => None,
            }
        }
        for (n, line) in lines.iter().enumerate() {
            for in_payload in [false, true] {
                let len = object(&mut line.clone(), in_payload).map_or(0, |o| o.len());
                for (i, j) in (0..len).flat_map(|i| (i + 1..len).map(move |j| (i, j))) {
                    for a in &faults {
                        for b in &faults {
                            let mut edited = lines.clone();
                            let members = object(&mut edited[n], in_payload).expect("an object");
                            for (at, fault) in [(j, b), (i, a)] {
                                match fault {
                                    Some(v) => members[at].1 = v.clone(),
                                    None => drop(members.remove(at)),
                                }
                            }
                            let doc: String = edited
                                .iter()
                                .map(|v| serde_json::to_string(v).expect("serializer is total") + "\n")
                                .collect();
                            assert_eq!(
                                parse_trace(&doc).map_err(|e| e.to_string()).map(|t| format!("{t:?}")),
                                reference::parse_trace(&doc).map_err(|e| e.to_string()).map(|t| format!("{t:?}")),
                                "{doc}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A `job-submitted` stage entry that is not an object is reported as
    /// the reference reports it, wherever `stages` stands in the payload
    /// and the payload on the line: an array entry is not read as keys and
    /// values, whatever its length.
    #[test]
    fn non_object_stage_entries_report_as_the_reference_does() {
        let entries = [r#"["x"]"#, r#"["a",1,"b"]"#, r#"["a",1]"#, r#"[["x"]]"#, "[]", r#""x""#, "1", "null"];
        let payloads = [
            r#"{"job":0,"name":"a","priority":0,"stages":[ENTRY]}"#,
            r#"{"job":0,"name":"a","priority":0,"stages":[{"parents":[],"tasks":1},ENTRY]}"#,
            r#"{"stages":[ENTRY],"job":0,"name":"a","priority":0}"#,
        ];
        let lines = [
            r#"{"event":"job-submitted","fields":PAYLOAD,"seq":1,"time_secs":0.0}"#,
            r#"{"event":"job-submitted","seq":1,"time_secs":0.0,"fields":PAYLOAD}"#,
        ];
        for entry in entries {
            for payload in payloads {
                for line in lines {
                    let doc = format!("{HEADER}\n{}\n", line.replace("PAYLOAD", &payload.replace("ENTRY", entry)));
                    assert_eq!(
                        parse_trace(&doc).map(|t| format!("{t:?}")),
                        reference::parse_trace(&doc).map(|t| format!("{t:?}")),
                        "{doc}"
                    );
                }
            }
        }
    }

    /// Every event's payload keys, as the reader expects them, are the
    /// keys the writer writes, in its order; so are the line's and a stage
    /// entry's.
    #[test]
    fn expected_keys_are_the_writers() {
        let names = |keys: &[Key]| keys.iter().map(|k| k.name().to_owned()).collect::<Vec<_>>();
        let keys = |v: &Value| match v {
            Value::Object(entries) => entries.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        for line in render(&every_variant()).lines() {
            let line: Value = serde_json::from_str(line).expect("writer output");
            assert_eq!(keys(&line), names(LINE_KEYS));
            let Value::Object(entries) = &line else { unreachable!("checked above") };
            let Value::Str(event) = &entries[0].1 else { panic!("event name") };
            assert_eq!(keys(&entries[1].1), names(payload_keys(event)), "{event}");
            if let Value::Object(fields) = &entries[1].1 {
                if let Some((_, Value::Array(stages))) = fields.iter().find(|(k, _)| k == "stages") {
                    stages.iter().for_each(|s| assert_eq!(keys(s), names(STAGE_KEYS)));
                }
            }
        }
    }

    /// Each line the direct decoder gives up on, and each edge it takes,
    /// reads as the reference reads it, with every line end: the same
    /// `Trace`, or the same `ReadError` line and message.
    #[test]
    fn bail_outs_read_as_the_reference_does() {
        let launched = r#"{"event":"task-launched","fields":{"attempt":0,"job":1,"level":"ANY","partition":2,"slot":3,"speculative":false,"stage":0,"warm":true},"seq":1,"time_secs":1.5}"#;
        let finished = |secs: &str| {
            format!(
                r#"{{"event":"task-finished","fields":{{"attempt":0,"duration_secs":{secs},"job":1,"partition":2,"slot":3,"stage":0}},"seq":1,"time_secs":1.5}}"#
            )
        };
        let granted = r#"{"event":"reservation-granted","fields":{"deadline_secs":null,"job":1,"priority":-3,"slot":3,"stage":null},"seq":1,"time_secs":1.5}"#;
        let declined =
            r#"{"event":"offer-declined","fields":{"job":1,"reason":"locality-wait"},"seq":1,"time_secs":1.5}"#;
        // (what, line, whether the decoder takes it)
        let cases = [
            ("slot past u32", launched.replace(r#""slot":3"#, r#""slot":4294967296"#), false),
            ("seq past u64", launched.replace(r#""seq":1"#, r#""seq":18446744073709551616"#), false),
            ("leading zero", launched.replace(r#""job":1"#, r#""job":007"#), false),
            ("exponent in an integer", launched.replace(r#""job":1"#, r#""job":1e3"#), false),
            ("tiny duration", finished("1e-7"), true),
            ("negative zero duration", finished("-0.0"), true),
            ("integer duration", finished("2"), false),
            ("leading plus duration", finished("+0.5"), false),
            ("leading dot duration", finished(".5"), false),
            ("leading plus time", launched.replace("1.5}", "+1.5}"), false),
            ("leading dot time", launched.replace("1.5}", ".5}"), false),
            ("leading plus deadline", granted.replace(r#""deadline_secs":null"#, r#""deadline_secs":+0.25"#), false),
            ("leading dot deadline", granted.replace(r#""deadline_secs":null"#, r#""deadline_secs":.25"#), false),
            ("null deadline and stage", granted.to_owned(), true),
            ("escaped name", submitted(1, r#"q\"b\\é\n"#), false),
            ("unescaped é", submitted(1, "é"), true),
            ("stray key", launched.replace(r#""warm":true"#, r#""warm":true,"bogus":5"#), false),
            ("missing key", declined.to_owned(), false),
            ("repeated key", launched.replace(r#""job":1"#, r#""job":1,"job":1"#), false),
            ("keys out of order", launched.replace(r#""attempt":0,"job":1"#, r#""job":1,"attempt":0"#), false),
            ("space after a colon", launched.replace(r#""slot":"#, r#""slot": "#), false),
            ("unknown level", launched.replace("ANY", "FAR"), false),
            ("unknown event", launched.replace("task-launched", "task-landed"), false),
            ("second header", HEADER.replace(r#""seq":0"#, r#""seq":1"#), false),
            ("time out of range", launched.replace("1.5}", "1e300}"), false),
            ("text after the brace", format!("{launched} "), false),
        ];
        for (what, line, direct) in cases {
            for end in ["\n", "\r\n", ""] {
                let line = format!("{line}{end}");
                assert_eq!(Decoder::line(&line).is_some(), direct, "{what} {end:?}");
                let doc = format!("{HEADER}\n{line}");
                assert_eq!(
                    format!("{:?}", parse_trace(&doc)),
                    format!("{:?}", reference::parse_trace(&doc)),
                    "{what} {end:?}"
                );
            }
        }
    }

    /// Every event line the writer writes, of every variant and with edge
    /// values, is decoded directly to the event the general grammar reads
    /// from it, and the decoder leaves the text after its line end; only
    /// the lines whose name the writer escaped, and those the general
    /// grammar rejects (a non-finite `duration_secs` written as `null`),
    /// are left to the general grammar.
    #[test]
    fn writer_shape_reads_as_the_general_grammar_does() {
        let words: Vec<Vec<u64>> =
            (0..400u64).map(|i| (0..24).map(|j| (i * 24 + j).wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect()).collect();
        let mut events = every_variant();
        events.extend(generated_stream(&words));
        let doc = render(&events);
        let mut general = JsonReader::default();
        let mut direct = 0;
        for (n, line) in doc.split_inclusive('\n').enumerate().skip(1) {
            let read = general.event(n + 1, split_line(line).0).expect("writer output");
            let decoded = Decoder::line(line);
            if read.kind.is_err() || line.contains('\\') {
                assert!(decoded.is_none(), "{line}");
                continue;
            }
            let (decoded, rest) = decoded.unwrap_or_else(|| panic!("not decoded: {line}"));
            assert_eq!(rest, "", "{line}");
            assert_eq!(format!("{decoded:?}"), format!("{read:?}"), "{line}");
            direct += 1;
        }
        assert!(direct > 300, "only {direct} lines decoded directly");
    }
}
