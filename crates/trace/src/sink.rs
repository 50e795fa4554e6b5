//! Pluggable trace sinks: where decision events go.
//!
//! The engine holds an `Option<Box<dyn TraceSink>>` and reports every
//! decision through one `emit` method that takes a closure building the
//! event. When the sink is `None` the closure never runs, so no event is
//! constructed and a disabled trace costs one branch per decision.

use std::any::Any;
use std::fmt;

use crate::event::TraceEvent;
use crate::jsonl::JsonlSink;
use crate::metrics::MetricsSink;

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
