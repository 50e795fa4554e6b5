//! Runtime coverage of the trace schema and the work counters: a few
//! small scenarios (speculation, pre-reservation, every fault kind) must
//! between them emit every trace event name and move every
//! `WorkCounters` field. A variant the engine never emits, or a counter
//! it never bumps, fails here. The readers' side is held by ssr-trace's
//! event table, from which `TraceEventKind::name`'s exhaustive `match`
//! and both readers are generated, with its every-variant round trip,
//! and by `fields_cover_struct` in ssr-perf.
//!
//! The same scenarios, rendered through `JsonlSink`, are pinned byte for
//! byte in `tests/golden/contract_traces.jsonl`: every event kind and
//! every fault cause, as the engine writes them. To regenerate it after an
//! intentional change to the trace format:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test contract_coverage
//! ```

use std::collections::BTreeSet;

use ssr::cluster::{ClusterSpec, LocalityLevel, LocalityModel};
use ssr::dag::{JobId, Priority, StageId};
use ssr::scheduler::SpeculationConfig;
use ssr::sim::{FaultPlan, OrderConfig, PolicyConfig, SimConfig, SimReport, Simulation};
use ssr::simcore::dist::{constant, pareto};
use ssr::simcore::{SimDuration, SimTime};
use ssr::workload::synthetic::{map_only, pareto_pipeline, pipeline_of};
use ssr_trace::{parse_trace, JsonlSink, TraceEvent, TraceEventKind, TraceSink, VecSink};

/// Runs one traced scenario; returns its report and its decision trace.
fn run(config: SimConfig, policy: PolicyConfig) -> (SimReport, Vec<TraceEvent>) {
    let fg = pipeline_of(
        "fg",
        &[(4, constant(2.0)), (6, constant(3.0)), (2, constant(1.0))],
        Priority::new(10),
        SimTime::from_secs(1),
    )
    .expect("valid job");
    let skewed = pareto_pipeline("skewed", 3, 6, 1.0, 1.2, Priority::new(5)).expect("valid job");
    let bg = map_only("bg", 12, pareto(2.0, 1.5), Priority::new(0)).expect("valid job");
    let (report, sink) =
        Simulation::new(config, policy, OrderConfig::FifoPriority, vec![fg, skewed, bg])
            .with_trace_sink(Box::new(VecSink::new()))
            .run_traced();
    let events = sink
        .expect("sink attached")
        .into_any()
        .downcast::<VecSink>()
        .expect("VecSink recovered")
        .into_events();
    (report, events)
}

fn scenarios() -> Vec<(SimReport, Vec<TraceEvent>)> {
    let cluster = ClusterSpec::new(2, 3).expect("valid cluster");
    let base = SimConfig::new(cluster).with_seed(7);
    let faults = FaultPlan::parse(
        "crash:node=0,at=3,down=4;revoke:slot=5,at=5;partition:node=1,at=6,secs=2;\
         storm:at=8,secs=5,factor=2;restart:node=0,at=12,down=1,rampup=3,cold=2",
    )
    .expect("valid fault plan");
    vec![
        // Locality waits, reservations and pre-reservation under SSR.
        run(
            base.clone().with_locality(LocalityModel::paper_simulation()),
            PolicyConfig::ssr_strict(),
        ),
        // Straggler copies on reserved slots, and Spark-style speculation.
        run(base.clone(), PolicyConfig::ssr_strict_with_stragglers()),
        run(
            base.clone().with_speculation(SpeculationConfig::spark_defaults()),
            PolicyConfig::WorkConserving,
        ),
        // Blind timeouts expire reservations.
        run(base.clone(), PolicyConfig::Timeout(SimDuration::from_secs(1))),
        // Every fault kind.
        run(base.with_faults(faults), PolicyConfig::ssr_strict()),
    ]
}

#[test]
fn scenarios_emit_every_trace_event() {
    let emitted: BTreeSet<&str> =
        scenarios().iter().flat_map(|(_, events)| events.iter().map(|e| e.kind.name())).collect();
    let missing: Vec<&str> =
        ssr_trace::ALL_EVENT_NAMES.iter().copied().filter(|n| !emitted.contains(n)).collect();
    assert!(missing.is_empty(), "never emitted: {missing:?}");
}

#[test]
fn scenarios_move_every_work_counter() {
    let reports = scenarios();
    let total = reports[0].0.counters.clone();
    for (report, _) in &reports[1..] {
        total.merge(&report.counters);
    }
    // One `name value` row per field, in the table that rendering and
    // merging both walk.
    let text = total.render_text();
    let zero: Vec<&str> = text
        .lines()
        .skip(1)
        .filter_map(|row| {
            let mut cols = row.split_whitespace();
            Some((cols.next()?, cols.next()?))
        })
        .filter(|&(_, value)| value == "0")
        .map(|(name, _)| name)
        .collect();
    assert!(zero.is_empty(), "counters never bumped: {zero:?}\n{text}");
}

/// `events` as `JsonlSink` writes them.
fn render(events: &[TraceEvent]) -> String {
    let mut sink = JsonlSink::new();
    events.iter().for_each(|e| sink.record(e));
    sink.finish()
}

#[test]
fn scenario_traces_match_golden_and_read_back_to_the_same_bytes() {
    let docs: Vec<String> = scenarios().iter().map(|(_, events)| render(events)).collect();
    for doc in &docs {
        let read = parse_trace(doc).expect("writer output parses");
        assert!(render(&read.events) == *doc, "a trace read back renders to other bytes");
    }
    let actual = docs.concat();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/contract_traces.jsonl");
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &actual).expect("write golden trace");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden trace {}: {e}", path.display()));
    let drift = expected.lines().zip(actual.lines()).position(|(e, a)| e != a);
    assert!(
        expected == actual,
        "the scenario traces drifted from {} (first differing line {:?}, {} lines expected, \
         {} written); if the change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test contract_coverage",
        path.display(),
        drift.map(|n| n + 1),
        expected.lines().count(),
        actual.lines().count(),
    );
}

/// ssr-trace keeps its own list of the locality level names, as it does
/// not depend on ssr-cluster: a `task-launched` line at every level the
/// engine can write must read back as the event it was written from.
#[test]
fn every_locality_level_reads_back() {
    let events: Vec<TraceEvent> = (0..)
        .zip(LocalityLevel::ALL)
        .map(|(slot, level)| {
            let kind = TraceEventKind::TaskLaunched {
                slot,
                job: JobId::new(1),
                stage: StageId::new(0),
                partition: slot,
                attempt: 0,
                level: level.as_str(),
                speculative: false,
                warm: false,
            };
            TraceEvent::new(SimTime::from_secs(u64::from(slot)), kind)
        })
        .collect();
    let read = parse_trace(&render(&events)).expect("every locality level reads back");
    assert_eq!(read.events, events);
}
