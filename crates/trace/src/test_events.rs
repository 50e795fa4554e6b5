//! The one every-variant test fixture the crate's tests share.

use ssr_dag::{JobId, Priority, StageId};
use ssr_simcore::SimTime;

use crate::event::{DenyReason, StageMeta, TraceEvent, TraceEventKind};

/// One event of every [`TraceEventKind`] variant, in
/// [`ALL_EVENT_NAMES`](crate::ALL_EVENT_NAMES) order at non-decreasing
/// times, with the optional fields populated. The slots do not form a
/// legal lifecycle; the codec does not care.
pub(crate) fn every_variant() -> Vec<TraceEvent> {
    use TraceEventKind as K;
    let job = JobId::new(5);
    let (s0, s1) = (StageId::new(0), StageId::new(1));
    let prio = Priority::new(-2);
    let at = |s: f64, kind: TraceEventKind| TraceEvent::new(SimTime::from_secs_f64(s), kind);
    vec![
        at(
            0.0,
            K::JobSubmitted {
                job,
                name: "fixture".into(),
                priority: prio,
                stages: vec![StageMeta { tasks: 3, parents: vec![] }, StageMeta { tasks: 1, parents: vec![s0] }],
            },
        ),
        at(0.0, K::OfferRoundStarted { free: 2, running: 1, reserved: 1 }),
        at(0.0, K::OfferRoundEnded { assignments: 1 }),
        at(0.0, K::OfferDeclined { job, reason: DenyReason::ReservationDenied, stage: Some(s0) }),
        at(
            0.0,
            K::TaskLaunched {
                slot: 3,
                job,
                stage: s0,
                partition: 2,
                attempt: 1,
                level: "RACK_LOCAL",
                speculative: true,
                warm: true,
            },
        ),
        at(1.25, K::TaskFinished { slot: 3, job, stage: s0, partition: 2, attempt: 1, duration_secs: 1.25 }),
        at(1.25, K::CopyKilled { slot: 0, job, stage: s0, partition: 2 }),
        at(1.25, K::ReservationGranted { slot: 3, job, priority: prio, stage: Some(s1), deadline_secs: Some(31.25) }),
        at(1.5, K::PrereserveFilled { slot: 0, job, stage: s1, priority: prio, deadline_secs: None }),
        at(2.5, K::ReservationExpired { slot: 0, job }),
        at(2.5, K::ReservationReleased { slot: 4, job }),
        at(3.0, K::StaleReservationReleased { slot: 3, job, stage: s0 }),
        at(3.0, K::BarrierCleared { job, stage: s1 }),
        at(3.0, K::StageCompleted { job, stage: s0 }),
        at(4.0, K::JobCompleted { job }),
        at(4.0, K::LocalityUnlocked),
        at(4.25, K::TaskCrashed { slot: 1, job, stage: s0, partition: 0, attempt: 0, requeued: true }),
        at(4.25, K::ReservationRevoked { slot: 2, job }),
        at(4.25, K::SlotOffline { slot: 1, cause: "crash" }),
        at(4.5, K::SlotOnline { slot: 1 }),
    ]
}

#[cfg(test)]
mod tests {
    /// `TraceEventKind::name`'s exhaustive `match`, generated from the
    /// event table, is the compile-time witness; the fixture must agree
    /// with it and with `ALL_EVENT_NAMES`.
    #[test]
    fn witness_agrees_with_event_names() {
        let names: Vec<&str> = super::every_variant().iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, crate::ALL_EVENT_NAMES, "one event per variant, in schema order");
    }
}
