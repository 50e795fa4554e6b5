//! # ssr-perf
//!
//! Performance observability for the SSR scheduler, split into two
//! strictly separated planes:
//!
//! - **Deterministic work counters** ([`counters`]): pure counts of
//!   engine work (slots scanned, approval calls, scratch-buffer reuse,
//!   events pushed/popped, …) plus peak high-water marks. Counters are
//!   a function of the seed alone — no clocks, no thread state — so
//!   their reports are byte-identical across re-runs and `--jobs`
//!   worker counts, and enabling them cannot perturb simulated output.
//! - **Wall-clock span profiling** ([`span`]): a scoped-span profiler
//!   that aggregates per-phase self/total time into a flamegraph-style
//!   tree. Spans read real time, so they live outside the deterministic
//!   plane: readings flow in through a [`span::SpanClock`] implemented
//!   at the workspace's sanctioned wall-clock barrier
//!   (`ssr-sim::walltime`), and span output only ever reaches stderr or
//!   explicitly non-deterministic report files.
//!
//! The two-plane rule in one line: **counters may shape committed
//! artifacts, spans may not.** Anything byte-pinned (figures, traces,
//! counter reports) must derive from the counter plane only.

#![deny(missing_docs)]

pub mod counters;
pub mod span;

pub use counters::WorkCounters;
pub use span::{SpanClock, SpanProfiler, SpanReport};

use serde::Value;

/// `true` when every object in the tree has strictly sorted keys.
pub(crate) fn sorted_keys(v: &Value) -> bool {
    match v {
        Value::Object(entries) => {
            entries.windows(2).all(|w| w[0].0 < w[1].0) && entries.iter().all(|(_, v)| sorted_keys(v))
        }
        Value::Array(items) => items.iter().all(sorted_keys),
        _ => true,
    }
}

/// Serializes a pre-built [`Value`] tree verbatim.
pub(crate) struct Raw(pub(crate) Value);

impl serde::Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}
