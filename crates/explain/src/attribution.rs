//! Slowdown attribution: decomposing a foreground job's contended-vs-alone
//! JCT gap into additive causes.
//!
//! For each trace (contended and alone) the analyzer sweeps the event
//! stream and integrates the job's **parallelism deficit** — at each
//! moment, the fraction `pending / (pending + running)` of its schedulable
//! work that is *not* running (1.0 when fully blocked, 0.0 when every
//! remaining task has a slot) — and attributes each deficit-weighted
//! second to the scheduler's own stated reason: the most recent
//! `offer-declined` for the job. The per-cause seconds of the alone run
//! are then subtracted from the contended run's, so each component
//! reports only what *contention added*:
//!
//! - **reservation-denied** — queueing behind slots reserved for others;
//! - **locality-wait** — delay scheduling holding out for better placement;
//! - **ramp-up** — no fitting slot at all (the cluster was saturated, e.g.
//!   while a wave of background tasks drains);
//! - **fault-recovery** — stalls induced by injected faults: time after a
//!   crash/revocation hit the job, and saturated-cluster waits while slots
//!   are out of service (those would otherwise be misread as ramp-up);
//! - **speculation** — extra runtime of the job's own speculative copies
//!   that lost their race (wasted duplicate work);
//! - **residual** — everything the deficit model cannot see (slower task
//!   placement levels, second-order interactions between causes, the
//!   clamping of negative per-cause deltas, weighting error of the deficit
//!   heuristic itself). Defined as `gap − Σ components`, which makes the
//!   decomposition conserve by construction; it may be negative when the
//!   deficit heuristic over-counts a named cause. The Fig. 12(a)
//!   regression test asserts the decomposition conserves and that the
//!   named causes explain a nonzero share of the measured gap.

use std::fmt;

use ssr_dag::{JobId, StageId};
use ssr_simcore::SimTime;
use ssr_trace::{DenyReason, Slot, SlotReplay, SlotState, Trace, TraceEvent, TraceEventKind};

/// Attribution failure: the job wasn't found or never completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AttributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for AttributionError {}

fn err(message: impl Into<String>) -> AttributionError {
    AttributionError { message: message.into() }
}

/// Deficit-weighted blocked-time profile of one job within one trace.
///
/// Each `*_secs` field integrates `pending / (pending + running)` over the
/// job's lifetime while that cause was active, so a stage with 9 of 10
/// tasks queued accrues 0.9 s of blocked time per wall second, and a fully
/// blocked job accrues 1.0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockedProfile {
    /// Job completion time minus submission, in seconds.
    pub jct_secs: f64,
    /// Deficit seconds attributed to `reservation-denied` declines.
    pub reservation_denied_secs: f64,
    /// Deficit seconds attributed to `locality-wait` declines.
    pub locality_secs: f64,
    /// Deficit seconds attributed to `no-fitting-slot` declines.
    pub rampup_secs: f64,
    /// Deficit seconds attributed to fault recovery: accrued after a
    /// crash/revocation struck the job, or under `no-fitting-slot`
    /// declines while slots were offline.
    pub fault_recovery_secs: f64,
    /// Deficit seconds with no decline explaining them (folded into the
    /// residual, never into a named cause).
    pub unattributed_secs: f64,
    /// Wasted runtime of the job's speculative copies that lost their race.
    pub speculation_wasted_secs: f64,
}

/// One foreground job's slowdown decomposition.
///
/// The five component fields are additive: their sum equals
/// [`gap_secs`](Self::gap_secs) exactly (the residual is defined as the
/// remainder). `components_sum` re-adds them in a fixed order so the
/// conservation check is reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Job name (shared between the contended and alone traces).
    pub job: String,
    /// JCT of the job running alone, from the alone trace.
    pub alone_jct_secs: f64,
    /// JCT of the job in the contended trace.
    pub contended_jct_secs: f64,
    /// `contended − alone`: the slowdown being explained.
    pub gap_secs: f64,
    /// Queueing behind reserved slots (contention-added).
    pub reservation_denied_secs: f64,
    /// Delay-scheduling waits (contention-added).
    pub locality_secs: f64,
    /// Saturated-cluster waits (contention-added).
    pub rampup_secs: f64,
    /// Fault-induced stalls (contention-added; zero without a fault plan).
    pub fault_recovery_secs: f64,
    /// Lost speculative-copy runtime (contention-added).
    pub speculation_secs: f64,
    /// The unexplained remainder, `gap − Σ` of the four causes above.
    pub residual_secs: f64,
}

impl Attribution {
    /// Re-adds the components in declaration order; equals
    /// [`gap_secs`](Self::gap_secs) up to float associativity.
    pub fn components_sum(&self) -> f64 {
        self.reservation_denied_secs
            + self.locality_secs
            + self.rampup_secs
            + self.fault_recovery_secs
            + self.speculation_secs
            + self.residual_secs
    }

    /// Whether the decomposition conserves the gap to within `tol` seconds.
    pub fn conserves(&self, tol: f64) -> bool {
        (self.components_sum() - self.gap_secs).abs() <= tol
    }
}

/// Finds a job id by name within a trace.
fn find_job(trace: &Trace, name: &str) -> Option<JobId> {
    trace.events.iter().find_map(|e| match &e.kind {
        TraceEventKind::JobSubmitted { job, name: n, .. } if n == name => Some(*job),
        _ => None,
    })
}

/// Every job name submitted in a trace, in submission order.
pub fn job_names(trace: &Trace) -> Vec<String> {
    trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::JobSubmitted { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect()
}

/// Sweeps one trace and measures the named job's blocked time per cause.
///
/// Errors when the job is absent or the trace ends before it completes.
pub fn blocked_profile(trace: &Trace, name: &str) -> Result<BlockedProfile, AttributionError> {
    let job = find_job(trace, name).ok_or_else(|| err(format!("job {name:?} not found in trace")))?;
    Sweep::new(job).run(&trace.events).ok_or_else(|| {
        err(format!("job {name:?} does not complete within the trace (truncated run?)"))
    })
}

/// Decomposes the job's contended−alone JCT gap.
///
/// Both traces must contain a completed job with the given name.
pub fn attribute(
    contended: &Trace,
    alone: &Trace,
    name: &str,
) -> Result<Attribution, AttributionError> {
    let c = blocked_profile(contended, name)?;
    let a = blocked_profile(alone, name)?;
    let gap_secs = c.jct_secs - a.jct_secs;
    // Per-cause contention-added time; clamped at zero so one cause
    // shrinking under contention (possible for locality) never masquerades
    // as negative queueing.
    let delta = |cv: f64, av: f64| (cv - av).max(0.0);
    let reservation_denied_secs = delta(c.reservation_denied_secs, a.reservation_denied_secs);
    let locality_secs = delta(c.locality_secs, a.locality_secs);
    let rampup_secs = delta(c.rampup_secs, a.rampup_secs);
    let fault_recovery_secs = delta(c.fault_recovery_secs, a.fault_recovery_secs);
    let speculation_secs = delta(c.speculation_wasted_secs, a.speculation_wasted_secs);
    let residual_secs = gap_secs
        - (reservation_denied_secs
            + locality_secs
            + rampup_secs
            + fault_recovery_secs
            + speculation_secs);
    Ok(Attribution {
        job: name.to_owned(),
        alone_jct_secs: a.jct_secs,
        contended_jct_secs: c.jct_secs,
        gap_secs,
        reservation_denied_secs,
        locality_secs,
        rampup_secs,
        fault_recovery_secs,
        speculation_secs,
        residual_secs,
    })
}

/// Blocked-cause buckets keyed by the engine's deny reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    ReservationDenied,
    Locality,
    Rampup,
    FaultRecovery,
    Unattributed,
}

impl Cause {
    fn of(reason: DenyReason) -> Cause {
        match reason {
            DenyReason::ReservationDenied => Cause::ReservationDenied,
            DenyReason::LocalityWait => Cause::Locality,
            DenyReason::NoFittingSlot => Cause::Rampup,
            // A no-pending-tasks decline while we observe pending tasks is
            // a bookkeeping disagreement; don't blame a named cause.
            DenyReason::NoPendingTasks => Cause::Unattributed,
        }
    }
}

/// Event-stream sweep for one job.
struct Sweep {
    job: JobId,
    submitted: Option<SimTime>,
    completed: Option<SimTime>,
    /// Remaining original (non-speculative) launches per stage; `None`
    /// until `job-submitted` declares the stage (schema v2). For v1 traces
    /// this stays empty and pending-ness is approximated as "submitted and
    /// not yet completed".
    pending: Vec<u32>,
    /// Stages whose barrier has cleared (roots clear at submit).
    runnable: Vec<bool>,
    /// Running instance count across all slots.
    running: usize,
    /// Every slot's lifecycle: killed copies' launch times and the
    /// cluster's out-of-service slots.
    replay: SlotReplay,
    /// End of the last integrated interval; set at `job-submitted`.
    last: Option<SimTime>,
    cause: Cause,
    profile: BlockedProfile,
    has_stage_meta: bool,
}

impl Sweep {
    fn new(job: JobId) -> Sweep {
        Sweep {
            job,
            submitted: None,
            completed: None,
            pending: Vec::new(),
            runnable: Vec::new(),
            running: 0,
            replay: SlotReplay::new(),
            last: None,
            cause: Cause::Unattributed,
            profile: BlockedProfile::default(),
            has_stage_meta: false,
        }
    }

    /// The job's parallelism deficit right now: the fraction of its
    /// schedulable work that is not running. 1.0 when fully blocked, 0.0
    /// when every remaining task of every runnable stage holds a slot.
    fn deficit(&self) -> f64 {
        if self.submitted.is_none() || self.completed.is_some() {
            return 0.0;
        }
        if self.has_stage_meta {
            let pending: u64 = self
                .pending
                .iter()
                .zip(&self.runnable)
                .filter(|&(_, &runnable)| runnable)
                .map(|(&pending, _)| u64::from(pending))
                .sum();
            if pending == 0 {
                0.0
            } else {
                pending as f64 / (pending as f64 + self.running as f64)
            }
        } else if self.running == 0 {
            // v1 trace: no task counts; only full stalls are visible.
            1.0
        } else {
            0.0
        }
    }

    fn bucket(&mut self) -> &mut f64 {
        match self.cause {
            Cause::ReservationDenied => &mut self.profile.reservation_denied_secs,
            Cause::Locality => &mut self.profile.locality_secs,
            Cause::Rampup => &mut self.profile.rampup_secs,
            Cause::FaultRecovery => &mut self.profile.fault_recovery_secs,
            Cause::Unattributed => &mut self.profile.unattributed_secs,
        }
    }

    /// Integrates the deficit held since the previous event into the
    /// current cause's bucket. Call *before* applying an event's state
    /// change: the deficit is piecewise constant between the job's events.
    fn advance(&mut self, now: SimTime) {
        let Some(last) = self.last else { return };
        let weight = self.deficit();
        if weight > 0.0 {
            let dt = now.saturating_since(last).as_secs_f64();
            if dt > 0.0 {
                *self.bucket() += weight * dt;
            }
        }
        self.last = Some(now);
    }

    fn stage_idx(&self, stage: StageId) -> Option<usize> {
        let idx = stage.index();
        (idx < self.pending.len()).then_some(idx)
    }

    fn run(mut self, events: &[TraceEvent]) -> Option<BlockedProfile> {
        use TraceEventKind as K;
        for event in events {
            let t = event.time;
            let before = self.replay.apply(event).map_or(Slot::FREE, |(_, before)| before);
            match &event.kind {
                K::JobSubmitted { job, stages, .. } if *job == self.job => {
                    self.submitted = Some(t);
                    self.last = Some(t);
                    self.has_stage_meta = !stages.is_empty();
                    self.pending = stages.iter().map(|s| s.tasks).collect();
                    self.runnable = stages.iter().map(|s| s.parents.is_empty()).collect();
                }
                K::BarrierCleared { job, stage } if *job == self.job => {
                    self.advance(t);
                    if let Some(idx) = self.stage_idx(*stage) {
                        self.runnable[idx] = true;
                    }
                }
                K::OfferDeclined { job, reason, .. } if *job == self.job => {
                    // Cause boundary: deficit accrued since the last event
                    // belongs to the previous cause; what follows is
                    // explained by this decline. A saturated cluster with
                    // slots out of service is a fault symptom, not ramp-up.
                    self.advance(t);
                    let offline = || self.replay.slots().any(|(_, s)| s.offline);
                    self.cause =
                        if *reason == DenyReason::NoFittingSlot && offline() {
                            Cause::FaultRecovery
                        } else {
                            Cause::of(*reason)
                        };
                }
                K::TaskLaunched { job, stage, speculative, .. } if *job == self.job => {
                    self.advance(t);
                    self.running += 1;
                    if !*speculative {
                        if let Some(idx) = self.stage_idx(*stage) {
                            self.pending[idx] = self.pending[idx].saturating_sub(1);
                        }
                    }
                }
                // A finishing speculative copy won its race; no waste.
                K::TaskFinished { job, .. } if *job == self.job => {
                    self.advance(t);
                    self.running = self.running.saturating_sub(1);
                }
                K::CopyKilled { job, .. } if *job == self.job => {
                    self.advance(t);
                    self.running = self.running.saturating_sub(1);
                    if let SlotState::Running { since, speculative: true, .. } = before.state {
                        self.profile.speculation_wasted_secs +=
                            t.saturating_since(since).as_secs_f64();
                    }
                }
                K::JobCompleted { job } if *job == self.job => {
                    self.advance(t);
                    self.completed = Some(t);
                }
                // A crashed copy is fault loss, not speculation waste.
                K::TaskCrashed { job, stage, requeued, .. } if *job == self.job => {
                    self.advance(t);
                    self.running = self.running.saturating_sub(1);
                    if *requeued {
                        if let Some(idx) = self.stage_idx(*stage) {
                            self.pending[idx] += 1;
                        }
                    }
                    self.cause = Cause::FaultRecovery;
                }
                K::ReservationRevoked { job, .. } if *job == self.job => {
                    // The job's held slot was taken out of service: the
                    // stall that follows is fault-induced.
                    self.advance(t);
                    self.cause = Cause::FaultRecovery;
                }
                _ => {}
            }
        }
        let (submitted, completed) = (self.submitted?, self.completed?);
        self.profile.jct_secs = completed.saturating_since(submitted).as_secs_f64();
        Some(self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_dag::Priority;
    use ssr_trace::StageMeta;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn submitted(job: u64, name: &str, tasks: u32) -> TraceEvent {
        TraceEvent::new(
            t(0.0),
            TraceEventKind::JobSubmitted {
                job: JobId::new(job),
                name: name.into(),
                priority: Priority::new(10),
                stages: vec![StageMeta { tasks, parents: vec![] }],
            },
        )
    }

    fn launched(at: f64, job: u64, partition: u32, speculative: bool) -> TraceEvent {
        TraceEvent::new(
            t(at),
            TraceEventKind::TaskLaunched {
                slot: partition,
                job: JobId::new(job),
                stage: StageId::new(0),
                partition,
                attempt: u32::from(speculative),
                level: "ANY",
                speculative,
                warm: false,
            },
        )
    }

    fn finished(at: f64, job: u64, partition: u32) -> TraceEvent {
        TraceEvent::new(
            t(at),
            TraceEventKind::TaskFinished {
                slot: partition,
                job: JobId::new(job),
                stage: StageId::new(0),
                partition,
                attempt: 0,
                duration_secs: 1.0,
            },
        )
    }

    fn declined(at: f64, job: u64, reason: DenyReason) -> TraceEvent {
        TraceEvent::new(
            t(at),
            TraceEventKind::OfferDeclined {
                job: JobId::new(job),
                reason,
                stage: Some(StageId::new(0)),
            },
        )
    }

    fn completed(at: f64, job: u64) -> TraceEvent {
        TraceEvent::new(t(at), TraceEventKind::JobCompleted { job: JobId::new(job) })
    }

    fn trace(events: Vec<TraceEvent>) -> Trace {
        Trace { schema_version: 2, events }
    }

    /// Alone: one task launches immediately, runs 0..4. JCT 4.
    fn alone_trace() -> Trace {
        trace(vec![
            submitted(0, "fg", 1),
            launched(0.0, 0, 0, false),
            finished(4.0, 0, 0),
            completed(4.0, 0),
        ])
    }

    /// Contended: declined reservation-denied 0..3, locality-wait 3..5,
    /// then runs 5..9. JCT 9 → gap 5 (3 reservation + 2 locality).
    fn contended_trace() -> Trace {
        trace(vec![
            submitted(0, "fg", 1),
            declined(0.0, 0, DenyReason::ReservationDenied),
            declined(3.0, 0, DenyReason::LocalityWait),
            launched(5.0, 0, 0, false),
            finished(9.0, 0, 0),
            completed(9.0, 0),
        ])
    }

    #[test]
    fn blocked_profile_splits_causes_by_decline_segments() {
        let p = blocked_profile(&contended_trace(), "fg").unwrap();
        assert!((p.jct_secs - 9.0).abs() < 1e-9);
        assert!((p.reservation_denied_secs - 3.0).abs() < 1e-9, "{p:?}");
        assert!((p.locality_secs - 2.0).abs() < 1e-9, "{p:?}");
        assert!((p.rampup_secs).abs() < 1e-9);
        assert!((p.unattributed_secs).abs() < 1e-9);
    }

    #[test]
    fn attribution_conserves_and_names_causes() {
        let a = attribute(&contended_trace(), &alone_trace(), "fg").unwrap();
        assert!((a.gap_secs - 5.0).abs() < 1e-9);
        assert!((a.reservation_denied_secs - 3.0).abs() < 1e-9);
        assert!((a.locality_secs - 2.0).abs() < 1e-9);
        assert!((a.residual_secs).abs() < 1e-9);
        assert!(a.conserves(1e-9));
    }

    #[test]
    fn speculation_waste_counts_killed_copies_only() {
        // Original runs 0..6; a copy launches at 2 and is killed at 6.
        let tr = trace(vec![
            submitted(0, "fg", 1),
            launched(0.0, 0, 0, false),
            launched(2.0, 0, 1, true),
            TraceEvent::new(
                t(6.0),
                TraceEventKind::TaskFinished {
                    slot: 0,
                    job: JobId::new(0),
                    stage: StageId::new(0),
                    partition: 0,
                    attempt: 0,
                    duration_secs: 6.0,
                },
            ),
            TraceEvent::new(
                t(6.0),
                TraceEventKind::CopyKilled {
                    slot: 1,
                    job: JobId::new(0),
                    stage: StageId::new(0),
                    partition: 0,
                },
            ),
            completed(6.0, 0),
        ]);
        let p = blocked_profile(&tr, "fg").unwrap();
        assert!((p.speculation_wasted_secs - 4.0).abs() < 1e-9, "{p:?}");
        // Nothing was blocked: a task ran the whole time.
        assert!((p.reservation_denied_secs + p.locality_secs + p.rampup_secs + p.unattributed_secs).abs() < 1e-9);
    }

    #[test]
    fn unattributed_blocked_time_stays_out_of_named_buckets() {
        // Blocked 0..2 with no decline explaining it, then runs 2..3.
        let tr = trace(vec![
            submitted(0, "fg", 1),
            launched(2.0, 0, 0, false),
            finished(3.0, 0, 0),
            completed(3.0, 0),
        ]);
        let p = blocked_profile(&tr, "fg").unwrap();
        assert!((p.unattributed_secs - 2.0).abs() < 1e-9, "{p:?}");
        assert!((p.reservation_denied_secs).abs() < 1e-9);
    }

    #[test]
    fn fault_recovery_claims_crash_induced_stalls() {
        // Runs 0..2, crashes at 2 (requeued); blocked 2..5 while the slot
        // is offline — a no-fitting-slot decline mid-window must stay in
        // the fault bucket, not ramp-up; relaunches 5..7.
        let tr = trace(vec![
            submitted(0, "fg", 1),
            launched(0.0, 0, 0, false),
            TraceEvent::new(
                t(2.0),
                TraceEventKind::TaskCrashed {
                    slot: 0,
                    job: JobId::new(0),
                    stage: StageId::new(0),
                    partition: 0,
                    attempt: 0,
                    requeued: true,
                },
            ),
            TraceEvent::new(t(2.0), TraceEventKind::SlotOffline { slot: 0, cause: "crash" }),
            declined(3.0, 0, DenyReason::NoFittingSlot),
            TraceEvent::new(t(5.0), TraceEventKind::SlotOnline { slot: 0 }),
            launched(5.0, 0, 0, false),
            finished(7.0, 0, 0),
            completed(7.0, 0),
        ]);
        let p = blocked_profile(&tr, "fg").unwrap();
        assert!((p.fault_recovery_secs - 3.0).abs() < 1e-9, "{p:?}");
        assert!((p.rampup_secs).abs() < 1e-9, "{p:?}");
        assert!((p.unattributed_secs).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn missing_or_truncated_job_is_an_error() {
        assert!(blocked_profile(&alone_trace(), "nope").is_err());
        let truncated = trace(vec![submitted(0, "fg", 1), launched(0.0, 0, 0, false)]);
        let e = blocked_profile(&truncated, "fg").unwrap_err();
        assert!(e.to_string().contains("does not complete"));
    }
}
