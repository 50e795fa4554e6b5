//! The combined analysis report: timeline + critical paths + attribution,
//! rendered as fixed-layout text or sorted-key JSON.
//!
//! Both renderings are pure functions of the parsed traces — no wall
//! clock, no ambient state — so running `ssr-cli explain` twice on the
//! same input yields byte-identical output, and CI diffs exactly that.

use std::fmt::{self, Write as _};

use serde::Value;
use ssr_trace::Trace;

use crate::attribution::{attribute, Attribution, AttributionError};
use crate::timeline::{total_secs, Timeline};

/// Version of the *report* format (independent of the trace schema);
/// rendered into the JSON output so downstream tooling can detect shape
/// changes.
pub const REPORT_VERSION: u32 = 1;

/// A fully analyzed run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Trace schema version of the contended document.
    pub trace_schema_version: u32,
    /// The reconstructed timeline.
    pub timeline: Timeline,
    /// Per-foreground-job slowdown decompositions, in the order the alone
    /// traces were supplied.
    pub attributions: Vec<Attribution>,
}

/// Analyzes a contended trace, optionally decomposing slowdowns against
/// alone-baseline traces.
///
/// Each alone trace must contain exactly the foreground job it baselines
/// (matched by job name); jobs present in an alone trace but absent from
/// the contended trace are an error.
pub fn explain(contended: &Trace, alone: &[Trace]) -> Result<Report, AttributionError> {
    let timeline = Timeline::reconstruct(contended);
    let mut attributions = Vec::with_capacity(alone.len());
    for baseline in alone {
        let names = crate::attribution::job_names(baseline);
        let name = match names.as_slice() {
            [single] => single.clone(),
            [] => {
                return Err(AttributionError {
                    message: "alone trace contains no job-submitted event".into(),
                })
            }
            many => {
                return Err(AttributionError {
                    message: format!(
                        "alone trace must contain exactly one job, found {}: {}",
                        many.len(),
                        many.join(", ")
                    ),
                })
            }
        };
        attributions.push(attribute(contended, baseline, &name)?);
    }
    Ok(Report {
        trace_schema_version: contended.schema_version,
        timeline,
        attributions,
    })
}

impl Report {
    /// Renders the human-readable report with a gantt of the given width.
    pub fn render_text(&self, width: usize) -> String {
        let tl = &self.timeline;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== ssr-explain: {} slots, {} jobs, horizon {:.3}s (trace schema v{}) ==",
            tl.slots,
            tl.jobs.len(),
            tl.horizon.as_secs_f64(),
            self.trace_schema_version,
        );
        out.push_str("\n-- timeline --\n");
        out.push_str(&tl.render_gantt(width));

        out.push_str("\n-- per-job activity (seconds) --\n");
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "job", "submit", "complete", "jct", "running", "resv-idle", "waiting"
        );
        // Seconds in the caller's width and precision, or `-` when absent.
        let opt_secs = |secs: Option<f64>| {
            fmt::from_fn(move |f| match secs {
                Some(secs) => fmt::Display::fmt(&secs, f),
                None => f.pad("-"),
            })
        };
        for job in &tl.jobs {
            let _ = writeln!(
                out,
                "{:<20} {:>8.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                job.name,
                job.submitted.as_secs_f64(),
                opt_secs(job.completed.map(|c| c.as_secs_f64())),
                opt_secs(job.jct_secs()),
                total_secs(&job.running),
                total_secs(&job.reserved_idle),
                total_secs(&job.waiting),
            );
        }

        out.push_str("\n-- critical paths --\n");
        for job in &tl.jobs {
            match job.critical_path() {
                Some(path) => {
                    let _ = write!(out, "{}: ", job.name);
                    for (i, h) in path.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" -> ");
                        }
                        let _ = write!(
                            out,
                            "stage {} ({:.3}..{:.3})",
                            h.stage.as_u32(),
                            h.runnable.as_secs_f64(),
                            h.completed.as_secs_f64()
                        );
                    }
                    out.push('\n');
                }
                None => {
                    let _ = writeln!(out, "{}: (no stage metadata or no completed stage)", job.name);
                }
            }
        }

        if !self.attributions.is_empty() {
            out.push_str("\n-- slowdown attribution (contended vs alone) --\n");
            for a in &self.attributions {
                let _ = writeln!(
                    out,
                    "{}: alone {:.3}s, contended {:.3}s, gap {:.3}s",
                    a.job, a.alone_jct_secs, a.contended_jct_secs, a.gap_secs
                );
                let _ = writeln!(out, "  reservation-denied {:>9.3}s", a.reservation_denied_secs);
                let _ = writeln!(out, "  locality-wait      {:>9.3}s", a.locality_secs);
                let _ = writeln!(out, "  ramp-up            {:>9.3}s", a.rampup_secs);
                let _ = writeln!(out, "  fault-recovery     {:>9.3}s", a.fault_recovery_secs);
                let _ = writeln!(out, "  speculation        {:>9.3}s", a.speculation_secs);
                let _ = writeln!(out, "  residual           {:>9.3}s", a.residual_secs);
                let _ = writeln!(
                    out,
                    "  sum                {:>9.3}s   (conserves gap: {})",
                    a.components_sum(),
                    if a.conserves(1e-6) { "yes" } else { "NO" }
                );
            }
        }
        out
    }

    /// Renders the report as pretty-printed JSON with every object's keys
    /// in sorted (ASCII) order — the workspace's byte-stability discipline.
    pub fn render_json(&self) -> String {
        let tl = &self.timeline;
        let secs = |t: ssr_simcore::SimTime| Value::Float(t.as_secs_f64());
        let opt_secs =
            |t: Option<ssr_simcore::SimTime>| t.map(secs).unwrap_or(Value::Null);
        let obj = |entries: Vec<(&str, Value)>| {
            debug_assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "report JSON keys must be sorted: {:?}",
                entries.iter().map(|(k, _)| *k).collect::<Vec<_>>()
            );
            Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };

        let attribution = Value::Array(
            self.attributions
                .iter()
                .map(|a| {
                    obj(vec![
                        ("alone_jct_secs", Value::Float(a.alone_jct_secs)),
                        ("contended_jct_secs", Value::Float(a.contended_jct_secs)),
                        ("fault_recovery_secs", Value::Float(a.fault_recovery_secs)),
                        ("gap_secs", Value::Float(a.gap_secs)),
                        ("job", Value::Str(a.job.clone())),
                        ("locality_secs", Value::Float(a.locality_secs)),
                        ("rampup_secs", Value::Float(a.rampup_secs)),
                        ("reservation_denied_secs", Value::Float(a.reservation_denied_secs)),
                        ("residual_secs", Value::Float(a.residual_secs)),
                        ("speculation_secs", Value::Float(a.speculation_secs)),
                    ])
                })
                .collect(),
        );

        let jobs = Value::Array(
            tl.jobs
                .iter()
                .map(|job| {
                    let critical_path = job
                        .critical_path()
                        .map(|path| {
                            Value::Array(
                                path.iter()
                                    .map(|h| {
                                        obj(vec![
                                            ("completed_secs", secs(h.completed)),
                                            ("runnable_secs", secs(h.runnable)),
                                            ("stage", Value::UInt(u64::from(h.stage.as_u32()))),
                                        ])
                                    })
                                    .collect(),
                            )
                        })
                        .unwrap_or(Value::Null);
                    let stages = Value::Array(
                        job.stages
                            .iter()
                            .map(|s| {
                                obj(vec![
                                    ("completed_secs", opt_secs(s.completed)),
                                    ("first_launch_secs", opt_secs(s.first_launch)),
                                    (
                                        "parents",
                                        Value::Array(
                                            s.parents
                                                .iter()
                                                .map(|p| Value::UInt(u64::from(p.as_u32())))
                                                .collect(),
                                        ),
                                    ),
                                    ("runnable_secs", secs(s.runnable)),
                                    ("stage", Value::UInt(u64::from(s.stage.as_u32()))),
                                    ("tasks", Value::UInt(u64::from(s.tasks))),
                                ])
                            })
                            .collect(),
                    );
                    obj(vec![
                        ("completed_secs", opt_secs(job.completed)),
                        ("critical_path", critical_path),
                        ("job", Value::UInt(job.job.as_u64())),
                        ("name", Value::Str(job.name.clone())),
                        ("priority", Value::Int(i64::from(job.priority))),
                        ("reserved_idle_secs", Value::Float(total_secs(&job.reserved_idle))),
                        ("running_secs", Value::Float(total_secs(&job.running))),
                        ("stages", stages),
                        ("submitted_secs", secs(job.submitted)),
                        ("waiting_secs", Value::Float(total_secs(&job.waiting))),
                    ])
                })
                .collect(),
        );

        let root = obj(vec![
            ("attribution", attribution),
            ("horizon_secs", secs(tl.horizon)),
            ("jobs", jobs),
            ("report_version", Value::UInt(u64::from(REPORT_VERSION))),
            ("slots", Value::UInt(tl.slots as u64)),
            ("trace_schema_version", Value::UInt(u64::from(self.trace_schema_version))),
        ]);
        let mut out = serde_json::to_string_pretty(&root).expect("serializer is total");
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::tests::two_stage_trace as fixture_trace;

    #[test]
    fn text_report_is_byte_stable() {
        let trace = fixture_trace();
        let a = explain(&trace, &[]).unwrap().render_text(60);
        let b = explain(&trace, &[]).unwrap().render_text(60);
        assert_eq!(a, b);
        assert!(a.contains("== ssr-explain:"));
        assert!(a.contains("-- per-job activity"));
        assert!(a.contains("-- critical paths"));
        // No alone traces → no attribution section.
        assert!(!a.contains("slowdown attribution"));
    }

    #[test]
    fn json_report_is_byte_stable_and_parses() {
        let trace = fixture_trace();
        let a = explain(&trace, &[]).unwrap().render_json();
        let b = explain(&trace, &[]).unwrap().render_json();
        assert_eq!(a, b);
        let value = serde_json::from_str(&a).expect("report JSON parses");
        let serde::Value::Object(entries) = value else { panic!("not an object") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "attribution",
                "horizon_secs",
                "jobs",
                "report_version",
                "slots",
                "trace_schema_version"
            ]
        );
    }

    #[test]
    fn self_baseline_attributes_zero_gap() {
        let trace = fixture_trace();
        let report = explain(&trace, std::slice::from_ref(&trace)).unwrap();
        assert_eq!(report.attributions.len(), 1);
        let a = &report.attributions[0];
        assert!(a.gap_secs.abs() < 1e-9, "{a:?}");
        assert!(a.conserves(1e-9));
        assert!(report.render_text(60).contains("slowdown attribution"));
    }

    #[test]
    fn rejects_multi_job_alone_trace() {
        let trace = fixture_trace();
        let mut doubled = fixture_trace();
        let extra = doubled.events[0].clone();
        doubled.events.push(extra);
        let err = explain(&trace, &[doubled]).unwrap_err();
        assert!(err.to_string().contains("exactly one job"), "{err}");
        let empty = Trace { schema_version: 2, events: vec![] };
        let err = explain(&trace, &[empty]).unwrap_err();
        assert!(err.to_string().contains("no job-submitted"), "{err}");
    }
}
