//! The JSONL trace format, both directions: [`JsonlSink`] writes it and
//! [`parse_trace`] reads it back.
//!
//! The reader validates a document against the schema the writer emits
//! (sorted keys are not required on input, but event names, field names
//! and types are) and lowers each line back into the typed [`TraceEvent`]
//! the engine emitted. A trace written by `JsonlSink` and read back
//! round-trips exactly, field for field and timestamp for timestamp.
//!
//! Neither direction builds a `serde::Value` tree per line. The writer
//! formats each line straight into its buffer, in the vendored
//! serializer's byte format; the reader borrows each line's keys and
//! strings from the input and leaves escape decoding to the vendored
//! parser. Tests hold the writer to the tree writer it replaced and the
//! reader to the vendored parser.
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
use std::cell::Cell;
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
        sink.write_line("trace-start", 0.0, |f| f.uint("schema_version", SCHEMA_VERSION));
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
    fn write_line(
        &mut self,
        event: &'static str,
        time_secs: f64,
        fields: impl FnOnce(&mut FieldWriter<'_>),
    ) {
        let seq = self.seq;
        FieldWriter::write_object(&mut self.out, |line| {
            line.ident("event", event);
            line.object("fields", fields);
            line.uint("seq", seq);
            line.float("time_secs", time_secs);
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

/// Writes one JSON object's members straight into the line buffer, in the
/// byte format of the vendored serializer: integers as `{n}`, floats as
/// `{x:?}` (`null` when not finite), free text through its string escaping.
///
/// Keys must come in sorted order, as the format promises; debug builds
/// check it.
struct FieldWriter<'o> {
    out: &'o mut String,
    last: Option<&'static str>,
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
    fn key(&mut self, key: &'static str) -> &mut String {
        debug_assert!(
            self.last.is_none_or(|last| last < key),
            "JSONL keys must be sorted: {key:?} after {:?}",
            self.last
        );
        if self.last.is_some() {
            self.out.push(',');
        }
        self.last = Some(key);
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    fn object(&mut self, key: &'static str, members: impl FnOnce(&mut FieldWriter<'_>)) {
        FieldWriter::write_object(self.key(key), members);
    }

    fn array<T>(
        &mut self,
        key: &'static str,
        items: impl IntoIterator<Item = T>,
        mut item: impl FnMut(&mut String, T),
    ) {
        let out = self.key(key);
        out.push('[');
        for (i, value) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item(out, value);
        }
        out.push(']');
    }

    fn uint(&mut self, key: &'static str, n: impl Into<u64>) {
        let _ = write!(self.key(key), "{}", n.into());
    }

    fn int(&mut self, key: &'static str, n: i32) {
        let _ = write!(self.key(key), "{n}");
    }

    fn opt_uint(&mut self, key: &'static str, n: Option<u32>) {
        match n {
            Some(n) => self.uint(key, n),
            None => self.key(key).push_str("null"),
        }
    }

    fn float(&mut self, key: &'static str, x: f64) {
        let out = self.key(key);
        if x.is_finite() {
            let _ = write!(out, "{x:?}");
        } else {
            out.push_str("null");
        }
    }

    fn opt_float(&mut self, key: &'static str, x: Option<f64>) {
        match x {
            Some(x) => self.float(key, x),
            None => self.key(key).push_str("null"),
        }
    }

    fn bool(&mut self, key: &'static str, b: bool) {
        self.key(key).push_str(if b { "true" } else { "false" });
    }

    /// A static identifier (event name, level, reason, cause): written
    /// raw, as it needs no escaping.
    fn ident(&mut self, key: &'static str, name: &'static str) {
        debug_assert!(
            !name.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20),
            "identifier {name:?} needs escaping"
        );
        let out = self.key(key);
        out.push('"');
        out.push_str(name);
        out.push('"');
    }

    /// Free text, escaped by the vendored serializer.
    fn text(&mut self, key: &'static str, text: &str) {
        self.key(key).push_str(&serde_json::to_string(text).expect("serializer is total"));
    }
}

/// Writes an event's payload, keys sorted.
fn write_fields(f: &mut FieldWriter<'_>, kind: &TraceEventKind) {
    use TraceEventKind as K;
    match kind {
        K::JobSubmitted { job, name, priority, stages } => {
            f.uint("job", job.as_u64());
            f.text("name", name);
            f.int("priority", priority.level());
            f.array("stages", stages, |out, s| {
                FieldWriter::write_object(out, |m| {
                    m.array("parents", &s.parents, |out, p| {
                        let _ = write!(out, "{}", p.as_u32());
                    });
                    m.uint("tasks", s.tasks);
                });
            });
        }
        K::OfferRoundStarted { free, running, reserved } => {
            f.uint("free", *free as u64);
            f.uint("reserved", *reserved as u64);
            f.uint("running", *running as u64);
        }
        K::OfferRoundEnded { assignments } => f.uint("assignments", *assignments as u64),
        K::OfferDeclined { job, reason, stage } => {
            f.uint("job", job.as_u64());
            f.ident("reason", reason.as_str());
            f.opt_uint("stage", stage.map(StageId::as_u32));
        }
        K::TaskLaunched { slot, job, stage, partition, attempt, level, speculative, warm } => {
            f.uint("attempt", *attempt);
            f.uint("job", job.as_u64());
            f.ident("level", level);
            f.uint("partition", *partition);
            f.uint("slot", *slot);
            f.bool("speculative", *speculative);
            f.uint("stage", stage.as_u32());
            f.bool("warm", *warm);
        }
        K::TaskFinished { slot, job, stage, partition, attempt, duration_secs } => {
            f.uint("attempt", *attempt);
            f.float("duration_secs", *duration_secs);
            f.uint("job", job.as_u64());
            f.uint("partition", *partition);
            f.uint("slot", *slot);
            f.uint("stage", stage.as_u32());
        }
        K::CopyKilled { slot, job, stage, partition } => {
            f.uint("job", job.as_u64());
            f.uint("partition", *partition);
            f.uint("slot", *slot);
            f.uint("stage", stage.as_u32());
        }
        K::ReservationGranted { slot, job, priority, stage, deadline_secs } => {
            f.opt_float("deadline_secs", *deadline_secs);
            f.uint("job", job.as_u64());
            f.int("priority", priority.level());
            f.uint("slot", *slot);
            f.opt_uint("stage", stage.map(StageId::as_u32));
        }
        K::PrereserveFilled { slot, job, stage, priority, deadline_secs } => {
            f.opt_float("deadline_secs", *deadline_secs);
            f.uint("job", job.as_u64());
            f.int("priority", priority.level());
            f.uint("slot", *slot);
            f.uint("stage", stage.as_u32());
        }
        K::ReservationExpired { slot, job }
        | K::ReservationReleased { slot, job }
        | K::ReservationRevoked { slot, job } => {
            f.uint("job", job.as_u64());
            f.uint("slot", *slot);
        }
        K::StaleReservationReleased { slot, job, stage } => {
            f.uint("job", job.as_u64());
            f.uint("slot", *slot);
            f.uint("stage", stage.as_u32());
        }
        K::BarrierCleared { job, stage } | K::StageCompleted { job, stage } => {
            f.uint("job", job.as_u64());
            f.uint("stage", stage.as_u32());
        }
        K::JobCompleted { job } => f.uint("job", job.as_u64()),
        K::LocalityUnlocked => {}
        K::TaskCrashed { slot, job, stage, partition, attempt, requeued } => {
            f.uint("attempt", *attempt);
            f.uint("job", job.as_u64());
            f.uint("partition", *partition);
            f.bool("requeued", *requeued);
            f.uint("slot", *slot);
            f.uint("stage", stage.as_u32());
        }
        K::SlotOffline { slot, cause } => {
            f.ident("cause", cause);
            f.uint("slot", *slot);
        }
        K::SlotOnline { slot } => f.uint("slot", *slot),
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
    let mut reader = JsonReader::default();
    let header = reader.line(1, header)?;
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
        let line = reader.line(lineno, raw)?;
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

/// Reads one line at a time into a flat list of nodes, reused from line to
/// line, so a document costs no allocation per line.
///
/// The grammar is the vendored parser's: the same whitespace, literals and
/// number shapes (`UInt`, `Int` when negative, `Float` with a fraction or
/// exponent). Keys and strings without an escape are slices of the input;
/// a string with one is handed to the vendored parser, so `\u` and
/// surrogate handling live in one place.
#[derive(Default)]
struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    tape: Vec<Node<'a>>,
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
    Array { end: usize },
    /// An object of `len` members; each key (a `Str`) and its value
    /// follow, up to node `end`.
    Object { len: usize, end: usize },
}

impl<'a> JsonReader<'a> {
    /// Reads line `lineno` and returns a view of its root value.
    fn line(&mut self, lineno: usize, raw: &'a str) -> Result<Json<'_>, ReadError> {
        self.text = raw;
        self.pos = 0;
        self.tape.clear();
        self.document().map_err(|e| ReadError::new(lineno, format!("invalid JSON: {e}")))?;
        Ok(Json { tape: &self.tape, at: 0 })
    }

    fn document(&mut self) -> Result<(), String> {
        self.value()?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("trailing characters after JSON document"));
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
            Some(b'[') => return self.container(b']'),
            Some(b'{') => return self.container(b'}'),
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
    /// bracket on.
    fn container(&mut self, close: u8) -> Result<(), String> {
        let object = close == b'}';
        let at = self.tape.len();
        self.tape.push(Node::Null);
        self.pos += 1;
        self.skip_ws();
        let mut len = 0;
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                if object {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.error("expected '\"'"));
                    }
                    let key = self.string()?;
                    self.tape.push(Node::Str(key));
                    self.expect(b':')?;
                }
                self.value()?;
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
        self.tape[at] = if object { Node::Object { len, end } } else { Node::Array { end } };
        Ok(())
    }

    /// A string token: borrowed when it has no escape, decoded by the
    /// vendored parser when it has one.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let start = self.pos;
        self.pos += 1;
        let mut escaped = false;
        loop {
            match self.peek() {
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 2;
                }
                Some(c) if c < 0x20 => return Err(self.error("unescaped control character")),
                Some(_) => self.pos += 1,
                None => return Err(self.error("unterminated string")),
            }
        }
        self.pos += 1;
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

    fn number(&mut self) -> Result<Node<'a>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
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

    /// An object's members, in document order.
    fn entries(self) -> impl Iterator<Item = (&'t str, Json<'t>)> {
        let end = self.end();
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
            Node::Array { .. } => f
                .debug_tuple("Array")
                .field(&fmt::from_fn(|f| f.debug_list().entries(self.items()).finish()))
                .finish(),
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
fn read_line(lineno: usize, line: Json<'_>) -> Result<(&str, u64, SimTime, Fields<'_>), ReadError> {
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
fn number(v: Json<'_>) -> Option<f64> {
    match v.node() {
        Node::UInt(n) => Some(*n as f64),
        Node::Int(n) => Some(*n as f64),
        Node::Float(f) if f.is_finite() => Some(*f),
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
    object: Json<'a>,
    /// Bit `i` is set once member `i` has been read.
    read: Cell<u64>,
}

impl<'a> Fields<'a> {
    fn new(lineno: usize, value: Json<'a>, what: &str) -> Result<Self, ReadError> {
        match value.node() {
            // No event has more than eight fields; the cap keeps the read
            // mask in one word.
            Node::Object { len, .. } if *len <= 64 => Ok(Fields { lineno, object: value, read: Cell::new(0) }),
            Node::Object { .. } => Err(ReadError::new(lineno, format!("{what} has too many keys"))),
            _ => Err(ReadError::new(lineno, format!("{what} must be an object, got {value:?}"))),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ReadError {
        ReadError::new(self.lineno, msg)
    }

    /// Fails on the first key no accessor read: unknown to the schema, or
    /// a duplicate of one that was read.
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

    /// Like [`get`](Self::get) but tolerating absence (schema v1 traces).
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
        u32::try_from(self.u64(key)?)
            .map_err(|_| self.err(format!("{key:?} exceeds u32 range")))
    }

    fn usize(&self, key: &str) -> Result<usize, ReadError> {
        usize::try_from(self.u64(key)?)
            .map_err(|_| self.err(format!("{key:?} exceeds usize range")))
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

    /// `job-submitted`'s `stages` array; absent in schema v1 traces.
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
/// inverse of [`write_fields`], name for name.
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

    /// The tree the writer used to build per event, kept as the reference
    /// the direct writer is byte-compared against.
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
                .map(|_| StageMeta {
                    tasks: self.u32(),
                    parents: (0..self.next() % 3).map(|_| self.stage()).collect(),
                })
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
                            (k == "stages" && *wv == Value::Array(Vec::new()))
                                || (k == "stage" && *wv == Value::Null)
                        }
                    })
            }
            (Value::Array(r), Value::Array(w)) => {
                r.len() == w.len() && r.iter().zip(w).all(|(a, b)| same(a, b))
            }
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
            mutation in 0usize..9,
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
                    let text = serde_json::to_string(v).expect("serializer is total");
                    text.replace(&format!("\"{MARK}\""), raw) + "\n"
                })
                .collect();
            let parsed = parse_trace(&mutated);
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
        let raw_key = format!("{HEADER}\n{}\n", r#"{"event":"job-completed","fields":{"jo\u{1}b":0},"seq":1,"time_secs":0.0}"#.replace("\\u{1}", "\u{1}"));
        let err = parse_trace(&raw_key).expect_err("raw control character in a key");
        assert_eq!(err.line, 2);
        assert!(err.message.starts_with("invalid JSON: "), "{err}");
    }

    /// Number and literal tokens of the vendored grammar, valid or not.
    const SCALARS: [&str; 22] = [
        "0", "1", "-2", "0.5", "1e400", "-1e400", "-0", "1.5e-3", "2E+5", "-0.0e+0", "18446744073709551615",
        "18446744073709551616", "-9223372036854775808", "-9223372036854775809", "1.2.3", "1e", "-", "01", "null",
        "true", "false", "nul",
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
            let events: Vec<TraceEvent> = words.iter().map(|w| generated_event(w)).collect();
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
}
