//! A trace naming slot `u32::MAX` is read, checked and explained at the
//! cost of the slots it touches, not of the highest index it names.

use ssr_check::InvariantChecker;
use ssr_dag::{JobId, Priority, StageId};
use ssr_explain::{explain, parse_trace};
use ssr_simcore::SimTime;
use ssr_trace::{DenyReason, JsonlSink, StageMeta, TraceEvent, TraceEventKind as K, TraceSink};

const FAR: u32 = u32::MAX;

/// One job runs a task on slot 0, then holds slot `FAR` past its own
/// completion while slot `FAR - 1` is out of service.
fn hostile_jsonl() -> String {
    let job = JobId::new(0);
    let (s0, s1) = (StageId::new(0), StageId::new(1));
    let prio = Priority::new(10);
    let at = |s: f64, kind| TraceEvent::new(SimTime::from_secs_f64(s), kind);
    let launch = |stage| K::TaskLaunched {
        slot: 0,
        job,
        stage,
        partition: 0,
        attempt: 0,
        level: "PROCESS_LOCAL",
        speculative: false,
        warm: false,
    };
    let finish = |stage| K::TaskFinished {
        slot: 0,
        job,
        stage,
        partition: 0,
        attempt: 0,
        duration_secs: 1.0,
    };
    let events = [
        at(0.0, K::JobSubmitted {
            job,
            name: "far".into(),
            priority: prio,
            stages: vec![
                StageMeta { tasks: 1, parents: vec![] },
                StageMeta { tasks: 1, parents: vec![s0] },
            ],
        }),
        at(0.0, launch(s0)),
        at(1.0, finish(s0)),
        at(1.0, K::StageCompleted { job, stage: s0 }),
        at(1.0, K::ReservationGranted {
            slot: FAR,
            job,
            priority: prio,
            stage: Some(s1),
            deadline_secs: None,
        }),
        at(1.0, K::SlotOffline { slot: FAR - 1, cause: "crash" }),
        at(1.0, K::BarrierCleared { job, stage: s1 }),
        at(1.5, K::OfferDeclined { job, reason: DenyReason::NoFittingSlot, stage: Some(s1) }),
        at(2.0, launch(s1)),
        at(3.0, finish(s1)),
        at(3.0, K::StageCompleted { job, stage: s1 }),
        at(3.0, K::JobCompleted { job }),
    ];
    let mut sink = JsonlSink::new();
    for event in &events {
        sink.record(event);
    }
    sink.finish()
}

#[test]
fn slot_u32_max_is_analysed_without_a_table_up_to_it() {
    let trace = parse_trace(&hostile_jsonl()).expect("well-formed trace");

    let checked = InvariantChecker::new().check_all(&trace.events);
    assert!(
        checked.violations.iter().any(|v| v.invariant == "reservation-outlives-owner"
            && v.message.contains(&format!("slot {FAR} "))),
        "the far slot's reservation outlives its owner: {:?}",
        checked.violations
    );

    let report = explain(&trace, std::slice::from_ref(&trace)).expect("explainable");
    let tl = &report.timeline;
    assert_eq!(tl.slots, FAR as usize + 1, "the cluster spans the highest slot named");
    let drawn: Vec<u32> = tl
        .slot_segments
        .iter()
        .filter(|(_, segments)| !segments.is_empty())
        .map(|(slot, _)| slot)
        .collect();
    assert_eq!(drawn, [0, FAR]);
    assert_eq!(tl.slot_segments.iter().count(), 2, "one table entry per drawn slot");
    assert_eq!(tl.occupancy(SimTime::from_secs(1)), (FAR as usize, 1, 0));
    let attribution = &report.attributions[0];
    assert!(attribution.conserves(1e-9), "attribution conserves the slowdown: {attribution:?}");

    // The gantt draws the two slots the trace touches, not a row per
    // index up to the highest one named.
    let gantt = tl.render_gantt(20);
    let rows: Vec<&str> = gantt.lines().filter(|l| l.starts_with("slot")).collect();
    assert_eq!(rows.len(), 2, "{gantt}");
    assert!(rows[0].starts_with("slot   0 |") && rows[1].starts_with(&format!("slot {FAR} |")));
    assert!(report.render_text(20).contains(rows[1]));
}
