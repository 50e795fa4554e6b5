//! Runtime invariant checker over the decision-trace stream.
//!
//! [`InvariantChecker`] is a [`TraceSink`]: attach it to any run (or feed
//! it a parsed trace) and it replays the slot pool (through `ssr-trace`'s
//! [`SlotReplay`]) and per-job accounting from the events alone, flagging
//! every transition the reservation protocol forbids. The invariants it
//! enforces:
//!
//! - **I1 — no double grant**: a reservation is only granted or
//!   prereserve-filled on a slot the trace shows as free and in service.
//! - **I2 — reservations die with their owner**: no grant to a completed
//!   job, and at the end of the stream no reservation is still held by a
//!   completed job. (The engine emits `job-completed` *before* the
//!   release events of that job's remaining reservations, so a release
//!   after completion is legal; an unreleased one at end-of-trace is not.)
//! - **I3 — fill order**: within one contiguous run of
//!   `prereserve-filled` events, priorities are non-increasing — recovery
//!   must not let a lower-priority job jump the pre-reservation queue.
//! - **I4 — running conservation**: a job's running-instance count (from
//!   launch/finish/kill/crash events) never goes negative and is zero at
//!   `job-completed`.
//! - **I5 — slot legality**: launches only on free or reserved in-service
//!   slots (a launch consumes the reservation; the trace cannot carry the
//!   policy's approval verdict, so foreign launches on reserved slots are
//!   accepted); finish/kill/crash only on slots running that job;
//!   expiry/release/revocation only on slots reserved for that job;
//!   offline/online transitions strictly alternate per slot.
//!
//! The offline bit is orthogonal to occupancy: a partition survivor is
//! *running and offline*, and its later `task-finished` is legal (the
//! slot becomes free-but-offline, unschedulable until `slot-online`).

use std::collections::BTreeMap;

use ssr_dag::JobId;
use ssr_trace::{Slot, SlotReplay, SlotState, TraceEvent, TraceEventKind, TraceSink};

/// One invariant breach, anchored to the event that exposed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// 0-based index of the offending event within the checked stream.
    pub index: u64,
    /// Simulated time of the offending event, in seconds; for an
    /// end-of-stream violation, the time of the last event read.
    pub time_secs: f64,
    /// Short invariant identifier (e.g. `"double-grant"`).
    pub invariant: &'static str,
    /// Human-readable description of the breach.
    pub message: String,
}

#[derive(Debug, Clone)]
struct JobShadow {
    name: String,
    completed: bool,
    running: i64,
}

/// The checker's verdict over one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Number of events checked.
    pub events: u64,
    /// Every invariant breach found, in stream order.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether the stream satisfied every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders a human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "ssr-check: {} events, {} violation{}\n",
            self.events,
            self.violations.len(),
            if self.violations.len() == 1 { "" } else { "s" }
        );
        for v in &self.violations {
            out.push_str(&format!(
                "  [event {} t={:.3}s] {}: {}\n",
                v.index, v.time_secs, v.invariant, v.message
            ));
        }
        if self.violations.is_empty() {
            out.push_str("  all invariants hold\n");
        }
        out
    }

    /// Renders pretty-printed JSON with keys in sorted (ASCII) order at
    /// every nesting level — the workspace's byte-stability contract.
    pub fn render_json(&self) -> String {
        use serde::Value;
        let obj = |entries: Vec<(&str, Value)>| {
            debug_assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "check JSON keys must be sorted: {:?}",
                entries.iter().map(|(k, _)| *k).collect::<Vec<_>>()
            );
            Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        let violations = Value::Array(
            self.violations
                .iter()
                .map(|v| {
                    obj(vec![
                        ("index", Value::UInt(v.index)),
                        ("invariant", Value::Str(v.invariant.to_owned())),
                        ("message", Value::Str(v.message.clone())),
                        ("time_secs", Value::Float(v.time_secs)),
                    ])
                })
                .collect(),
        );
        let root = obj(vec![
            ("clean", Value::Bool(self.is_clean())),
            ("events", Value::UInt(self.events)),
            ("violations", violations),
        ]);
        let mut out = serde_json::to_string_pretty(&Raw(root)).expect("serializer is total");
        out.push('\n');
        out
    }
}

/// Forwards an already-built `Value` through the `Serialize` entry point.
struct Raw(serde::Value);

impl serde::Serialize for Raw {
    fn to_value(&self) -> serde::Value {
        self.0.clone()
    }
}

/// A [`TraceSink`] that validates the reservation protocol's invariants
/// as events stream past. See the module docs for the invariant list.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    replay: SlotReplay,
    jobs: BTreeMap<JobId, JobShadow>,
    index: u64,
    /// Time of the last event read, in seconds (0 before any): the time
    /// end-of-stream violations are reported at.
    last_time_secs: f64,
    violations: Vec<Violation>,
    /// Priority level of the previous event iff it was `prereserve-filled`
    /// (I3 checks contiguous fill runs only).
    fill_run_prev: Option<i32>,
}

impl InvariantChecker {
    /// Creates an empty checker; slots and jobs are discovered from the
    /// stream itself.
    pub fn new() -> Self {
        InvariantChecker::default()
    }

    /// Feeds a whole pre-parsed event stream through the checker.
    pub fn check_all(mut self, events: &[TraceEvent]) -> CheckReport {
        for e in events {
            self.record(e);
        }
        self.finish()
    }

    /// Finalizes: runs the end-of-stream checks (I2's "no reservation
    /// outlives its owner") and returns the verdict.
    pub fn finish(mut self) -> CheckReport {
        for (idx, s) in self.replay.slots() {
            if let SlotState::Reserved { job, .. } = s.state {
                if self.jobs.get(&job).is_some_and(|j| j.completed) {
                    self.violations.push(Violation {
                        index: self.index.saturating_sub(1),
                        time_secs: self.last_time_secs,
                        invariant: "reservation-outlives-owner",
                        message: format!(
                            "slot {idx} still reserved for completed job {} at end of trace",
                            job.as_u64()
                        ),
                    });
                }
            }
        }
        CheckReport { events: self.index, violations: self.violations }
    }

    fn flag(&mut self, time_secs: f64, invariant: &'static str, message: String) {
        self.violations.push(Violation { index: self.index, time_secs, invariant, message });
    }

    /// I1 + I5 + I2(grant side): a reservation lands on a free, in-service
    /// slot owned by a live job.
    fn check_grant(&mut self, t: f64, slot: u32, before: Slot, job: JobId, what: &str) {
        if before.state != SlotState::Free {
            self.flag(
                t,
                "double-grant",
                format!(
                    "{what} on slot {slot} for job {} while {}",
                    job.as_u64(),
                    describe(before.state)
                ),
            );
        }
        if before.offline {
            self.flag(
                t,
                "grant-offline",
                format!("{what} on out-of-service slot {slot} for job {}", job.as_u64()),
            );
        }
        if self.jobs.get(&job).is_some_and(|j| j.completed) {
            self.flag(
                t,
                "grant-after-completion",
                format!("{what} on slot {slot} for already-completed job {}", job.as_u64()),
            );
        }
    }

    /// I5 (run side) + I4: a run-closing event must hit a slot running
    /// that job.
    fn check_run_close(&mut self, t: f64, slot: u32, before: Slot, job: JobId, what: &str) {
        if !matches!(before.state, SlotState::Running { job: held, .. } if held == job) {
            self.flag(
                t,
                "phantom-finish",
                format!(
                    "{what} on slot {slot} for job {} but slot is {}",
                    job.as_u64(),
                    describe(before.state)
                ),
            );
        }
        if let Some(j) = self.jobs.get_mut(&job) {
            j.running -= 1;
            if j.running < 0 {
                let name = j.name.clone();
                self.flag(
                    t,
                    "running-negative",
                    format!("job {} ({name}) running count dropped below zero", job.as_u64()),
                );
            }
        }
    }

    /// I5 (reservation side): a reservation-closing event must hit a slot
    /// reserved for that job.
    fn check_reservation_close(&mut self, t: f64, slot: u32, before: Slot, job: JobId, what: &str) {
        if !matches!(before.state, SlotState::Reserved { job: held, .. } if held == job) {
            self.flag(
                t,
                "phantom-release",
                format!(
                    "{what} on slot {slot} for job {} but slot is {}",
                    job.as_u64(),
                    describe(before.state)
                ),
            );
        }
    }
}

/// A slot's occupancy in words, for violation messages.
fn describe(state: SlotState) -> String {
    match state {
        SlotState::Free => "free".to_owned(),
        SlotState::Reserved { job, .. } => format!("reserved for job {}", job.as_u64()),
        SlotState::Running { job, .. } => format!("running job {}", job.as_u64()),
    }
}

impl TraceSink for InvariantChecker {
    fn record(&mut self, event: &TraceEvent) {
        use TraceEventKind as K;
        let t = event.time.as_secs_f64();
        self.last_time_secs = t;
        // I3 applies to *contiguous* fill runs: any other event ends one.
        let fill_prev = self.fill_run_prev.take();
        // Every slot-touching event is judged by the state it found.
        let before = self.replay.apply(event).map_or(Slot::FREE, |(_, before)| before);
        match &event.kind {
            K::JobSubmitted { job, name, .. } => {
                self.jobs.insert(
                    *job,
                    JobShadow { name: name.clone(), completed: false, running: 0 },
                );
            }
            K::TaskLaunched { slot, job, .. } => {
                // A launch on a reserved slot consumes the reservation. The
                // owner always may; a foreign job may when the policy's
                // ApprovalLogic said yes — a verdict the trace does not
                // carry, so the checker accepts any foreign launch here
                // rather than second-guess the policy.
                if let SlotState::Running { job: held, .. } = before.state {
                    self.flag(
                        t,
                        "double-launch",
                        format!("launch on slot {slot} already running job {}", held.as_u64()),
                    );
                }
                if before.offline {
                    self.flag(
                        t,
                        "launch-offline",
                        format!("job {} launched on out-of-service slot {slot}", job.as_u64()),
                    );
                }
                if let Some(j) = self.jobs.get_mut(job) {
                    j.running += 1;
                }
            }
            K::TaskFinished { slot, job, .. } => {
                self.check_run_close(t, *slot, before, *job, "task-finished");
            }
            K::CopyKilled { slot, job, .. } => {
                self.check_run_close(t, *slot, before, *job, "copy-killed");
            }
            K::TaskCrashed { slot, job, .. } => {
                self.check_run_close(t, *slot, before, *job, "task-crashed");
            }
            K::ReservationGranted { slot, job, .. } => {
                self.check_grant(t, *slot, before, *job, "reservation-granted");
            }
            K::PrereserveFilled { slot, job, priority, .. } => {
                self.check_grant(t, *slot, before, *job, "prereserve-filled");
                let level = priority.level();
                if let Some(prev) = fill_prev {
                    if level > prev {
                        self.flag(
                            t,
                            "fill-order",
                            format!(
                                "prereserve fill priority {level} follows {prev} in one fill run"
                            ),
                        );
                    }
                }
                self.fill_run_prev = Some(level);
            }
            K::ReservationExpired { slot, job } => {
                self.check_reservation_close(t, *slot, before, *job, "reservation-expired");
            }
            K::ReservationReleased { slot, job } => {
                self.check_reservation_close(t, *slot, before, *job, "reservation-released");
            }
            K::StaleReservationReleased { slot, job, .. } => {
                self.check_reservation_close(t, *slot, before, *job, "stale-reservation-released");
            }
            K::ReservationRevoked { slot, job } => {
                self.check_reservation_close(t, *slot, before, *job, "reservation-revoked");
            }
            K::SlotOffline { slot, cause } => {
                if before.offline {
                    self.flag(
                        t,
                        "double-offline",
                        format!("slot {slot} taken offline ({cause}) while already offline"),
                    );
                }
            }
            K::SlotOnline { slot } => {
                if !before.offline {
                    self.flag(
                        t,
                        "double-online",
                        format!("slot {slot} brought online while already in service"),
                    );
                }
            }
            K::JobCompleted { job } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    j.completed = true;
                    if j.running != 0 {
                        let (name, running) = (j.name.clone(), j.running);
                        self.flag(
                            t,
                            "completed-while-running",
                            format!(
                                "job {} ({name}) completed with {running} instances still running",
                                job.as_u64()
                            ),
                        );
                    }
                }
            }
            K::OfferRoundStarted { .. }
            | K::OfferRoundEnded { .. }
            | K::OfferDeclined { .. }
            | K::BarrierCleared { .. }
            | K::StageCompleted { .. }
            | K::LocalityUnlocked => {}
        }
        self.index += 1;
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_dag::{Priority, StageId};
    use ssr_simcore::SimTime;

    fn ev(s: f64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent::new(SimTime::from_secs_f64(s), kind)
    }

    fn submitted(job: u64) -> TraceEvent {
        ev(
            0.0,
            TraceEventKind::JobSubmitted {
                job: JobId::new(job),
                name: format!("j{job}"),
                priority: Priority::new(0),
                stages: Vec::new(),
            },
        )
    }

    fn granted(s: f64, slot: u32, job: u64) -> TraceEvent {
        ev(
            s,
            TraceEventKind::ReservationGranted {
                slot,
                job: JobId::new(job),
                priority: Priority::new(0),
                stage: None,
                deadline_secs: None,
            },
        )
    }

    fn filled(s: f64, slot: u32, job: u64, priority: i32) -> TraceEvent {
        ev(
            s,
            TraceEventKind::PrereserveFilled {
                slot,
                job: JobId::new(job),
                stage: StageId::new(0),
                priority: Priority::new(priority),
                deadline_secs: None,
            },
        )
    }

    fn launched(s: f64, slot: u32, job: u64) -> TraceEvent {
        ev(
            s,
            TraceEventKind::TaskLaunched {
                slot,
                job: JobId::new(job),
                stage: StageId::new(0),
                partition: 0,
                attempt: 0,
                level: "ANY",
                speculative: false,
                warm: false,
            },
        )
    }

    fn finished(s: f64, slot: u32, job: u64) -> TraceEvent {
        ev(
            s,
            TraceEventKind::TaskFinished {
                slot,
                job: JobId::new(job),
                stage: StageId::new(0),
                partition: 0,
                attempt: 0,
                duration_secs: 1.0,
            },
        )
    }

    #[test]
    fn clean_lifecycle_passes() {
        let report = InvariantChecker::new().check_all(&[
            submitted(0),
            launched(0.0, 0, 0),
            finished(1.0, 0, 0),
            granted(1.0, 0, 0),
            ev(2.0, TraceEventKind::ReservationReleased { slot: 0, job: JobId::new(0) }),
            ev(2.0, TraceEventKind::JobCompleted { job: JobId::new(0) }),
        ]);
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.events, 6);
    }

    #[test]
    fn double_grant_is_flagged() {
        let report = InvariantChecker::new()
            .check_all(&[submitted(0), submitted(1), granted(0.0, 3, 0), granted(0.0, 3, 1)]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, "double-grant");
        assert_eq!(report.violations[0].index, 3);
    }

    #[test]
    fn fill_order_must_be_non_increasing_within_a_run() {
        let bad = InvariantChecker::new()
            .check_all(&[submitted(0), submitted(1), filled(0.0, 0, 0, 0), filled(0.0, 1, 1, 10)]);
        assert_eq!(bad.violations.len(), 1);
        assert_eq!(bad.violations[0].invariant, "fill-order");
        // Separate runs (another event in between) are independent.
        let ok = InvariantChecker::new().check_all(&[
            submitted(0),
            submitted(1),
            filled(0.0, 0, 0, 0),
            ev(0.0, TraceEventKind::OfferRoundEnded { assignments: 0 }),
            filled(0.0, 1, 1, 10),
        ]);
        assert!(ok.is_clean(), "{}", ok.render_text());
    }

    #[test]
    fn reservation_outliving_owner_is_flagged_at_end() {
        let report = InvariantChecker::new().check_all(&[
            submitted(0),
            granted(0.0, 0, 0),
            ev(1.0, TraceEventKind::JobCompleted { job: JobId::new(0) }),
        ]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, "reservation-outlives-owner");
        // Reported at the last event read, in both renders.
        assert_eq!(report.violations[0].time_secs, 1.0);
        assert!(report.render_text().contains("[event 2 t=1.000s] reservation-outlives-owner"));
        let json = serde_json::from_str(&report.render_json()).expect("the JSON render parses");
        let field = |v: &serde::Value, key: &str| match v {
            serde::Value::Object(entries) => {
                entries.iter().find(|(k, _)| k == key).map(|(_, x)| x.clone())
            }
            _ => None,
        };
        let Some(serde::Value::Array(violations)) = field(&json, "violations") else {
            panic!("violations array in {json:?}");
        };
        assert_eq!(field(&violations[0], "time_secs"), Some(serde::Value::Float(1.0)));
        // The engine's actual order — completion, then release — is clean.
        let ok = InvariantChecker::new().check_all(&[
            submitted(0),
            granted(0.0, 0, 0),
            ev(1.0, TraceEventKind::JobCompleted { job: JobId::new(0) }),
            ev(1.0, TraceEventKind::ReservationReleased { slot: 0, job: JobId::new(0) }),
        ]);
        assert!(ok.is_clean(), "{}", ok.render_text());
    }

    #[test]
    fn offline_lifecycle_is_tracked_orthogonally() {
        // Partition survivor: running slot goes offline, finishes out of
        // service, then a grant while offline is flagged.
        let report = InvariantChecker::new().check_all(&[
            submitted(0),
            submitted(1),
            launched(0.0, 0, 0),
            ev(1.0, TraceEventKind::SlotOffline { slot: 0, cause: "partition" }),
            finished(2.0, 0, 0),
            granted(2.0, 0, 1),
        ]);
        assert_eq!(report.violations.len(), 1, "{}", report.render_text());
        assert_eq!(report.violations[0].invariant, "grant-offline");
    }

    #[test]
    fn crash_closes_run_and_revocation_closes_reservation() {
        let report = InvariantChecker::new().check_all(&[
            submitted(0),
            submitted(1),
            launched(0.0, 0, 0),
            granted(0.0, 1, 1),
            ev(
                1.0,
                TraceEventKind::TaskCrashed {
                    slot: 0,
                    job: JobId::new(0),
                    stage: StageId::new(0),
                    partition: 0,
                    attempt: 0,
                    requeued: true,
                },
            ),
            ev(1.0, TraceEventKind::ReservationRevoked { slot: 1, job: JobId::new(1) }),
            ev(1.0, TraceEventKind::SlotOffline { slot: 0, cause: "crash" }),
            ev(1.0, TraceEventKind::SlotOffline { slot: 1, cause: "crash" }),
            ev(2.0, TraceEventKind::SlotOnline { slot: 0 }),
            ev(2.0, TraceEventKind::SlotOnline { slot: 1 }),
        ]);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn phantom_events_are_flagged() {
        let report = InvariantChecker::new().check_all(&[
            submitted(0),
            finished(0.0, 0, 0),
            ev(0.0, TraceEventKind::ReservationExpired { slot: 1, job: JobId::new(0) }),
            ev(0.0, TraceEventKind::SlotOnline { slot: 2 }),
        ]);
        let kinds: Vec<&str> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(kinds, vec!["phantom-finish", "running-negative", "phantom-release", "double-online"]);
    }

    #[test]
    fn json_report_is_byte_stable() {
        let r1 = InvariantChecker::new().check_all(&[submitted(0), granted(0.0, 3, 0), granted(0.0, 3, 0)]);
        let r2 = InvariantChecker::new().check_all(&[submitted(0), granted(0.0, 3, 0), granted(0.0, 3, 0)]);
        assert_eq!(r1.render_json(), r2.render_json());
        assert!(r1.render_json().contains("\"clean\": false"));
    }
}
