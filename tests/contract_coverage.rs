//! Runtime coverage of the trace schema and the work counters: a few
//! small scenarios (speculation, pre-reservation, every fault kind) must
//! between them emit every trace event name and move every
//! `WorkCounters` field. A variant the engine never emits, or a counter
//! it never bumps, fails here. The readers' side is held by the
//! exhaustive `match` in `TraceEventKind::name` with ssr-trace's
//! every-variant round trip, and by `fields_cover_struct` in ssr-perf.

use std::collections::BTreeSet;

use ssr::cluster::{ClusterSpec, LocalityModel};
use ssr::dag::Priority;
use ssr::scheduler::SpeculationConfig;
use ssr::sim::{FaultPlan, OrderConfig, PolicyConfig, SimConfig, SimReport, Simulation};
use ssr::simcore::dist::{constant, pareto};
use ssr::simcore::{SimDuration, SimTime};
use ssr::workload::synthetic::{map_only, pareto_pipeline, pipeline_of};
use ssr_trace::VecSink;

/// Runs one traced scenario; returns its report and event names.
fn run(config: SimConfig, policy: PolicyConfig) -> (SimReport, BTreeSet<&'static str>) {
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
    (report, events.iter().map(|e| e.kind.name()).collect())
}

fn scenarios() -> Vec<(SimReport, BTreeSet<&'static str>)> {
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
    let emitted: BTreeSet<&str> = scenarios().into_iter().flat_map(|(_, names)| names).collect();
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
