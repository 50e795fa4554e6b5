//! `ssr-explain`: trace-driven slowdown attribution, timeline
//! reconstruction and byte-stable analysis reports.
//!
//! The tracing layer (`ssr-trace`) records every scheduler decision as a
//! JSONL document; this crate closes the loop by reading those documents
//! back and answering the question the paper's evaluation keeps asking:
//! *where did the foreground job's time go?*
//!
//! The reader itself lives beside the writer in `ssr-trace`
//! ([`parse_trace`], schema v1 through v3, re-exported here). Three layers
//! build on the parsed stream:
//!
//! - [`timeline`] replays the stream into per-slot occupancy segments,
//!   per-job running / reserved-idle / waiting interval sets, per-stage
//!   lifecycle marks, stage critical paths, and an ASCII gantt;
//! - [`attribution`] decomposes each foreground job's contended−alone JCT
//!   gap into additive causes (reservation-denied queueing, locality wait,
//!   barrier ramp-up, speculation overhead, residual), conserving the gap
//!   by construction;
//! - [`report`] bundles all of it into text and sorted-key JSON renderings
//!   that are byte-identical across runs and `--jobs` worker counts.
//!
//! Everything is a pure function of the input traces: no wall clock, no
//! randomness, no hash-order iteration (the workspace determinism contract
//! enforced by `crates/clippy.toml`).
//!
//! # Example
//!
//! ```
//! use ssr_explain::{explain, parse_trace};
//!
//! let doc = "{\"event\":\"trace-start\",\"fields\":{\"schema_version\":2},\"seq\":0,\"time_secs\":0.0}\n";
//! let trace = parse_trace(doc).expect("valid trace");
//! let report = explain(&trace, &[]).expect("no baselines needed");
//! assert!(report.render_text(64).contains("ssr-explain"));
//! ```

#![warn(missing_docs)]

pub mod attribution;
pub mod report;
pub mod timeline;

pub use attribution::{attribute, blocked_profile, Attribution, AttributionError, BlockedProfile};
pub use reader::{parse_trace, ReadError, Trace};
pub use ssr_trace::SlotState;
pub use report::{explain, Report, REPORT_VERSION};
pub use timeline::{CriticalHop, Interval, JobTimeline, StageTimeline, Timeline};

/// The trace reader; it lives beside the writer in `ssr-trace`.
mod reader {
    pub use ssr_trace::{parse_trace, ReadError, Trace};

    #[cfg(test)]
    mod tests {
        /// A line of each schema event name with empty fields reaches that
        /// event's decoder: it parses or misses a field, never is unknown.
        #[test]
        fn sample_set_covers_every_event_name() {
            let header = r#"{"event":"trace-start","fields":{"schema_version":3},"seq":0,"time_secs":0.0}"#;
            for name in ssr_trace::ALL_EVENT_NAMES {
                let line = format!(r#"{{"event":"{name}","fields":{{}},"seq":1,"time_secs":0.0}}"#);
                if let Err(e) = super::parse_trace(&format!("{header}\n{line}\n")) {
                    assert!(e.to_string().contains("missing field"), "{name}: {e}");
                }
            }
        }
    }
}
