//! Metamorphic relations: pairs of runs whose inputs differ in a way the
//! paper's mechanisms cannot observe must produce the same results.
//!
//! Pins and goldens hold the engine to the bytes it produced when they
//! were recorded; these relations need no recorded data. Each runs the
//! same contended mix on a 20-node × 4-slot cluster at seed 7 — a
//! k-means job (parallelism 20, priority 10) and a 3-phase Pareto
//! pipeline (parallelism 30, priority 5) in the foreground against 150
//! Google-trace-like background jobs (priority 0) — under each of the
//! four reservation policies and each job order, or as it says:
//!
//! - **Priority shift.** ApprovalLogic, job order and pre-reservation
//!   compare priorities only with each other and with the configured
//!   thresholds, so adding the same constant to every priority and every
//!   threshold (the static pool's class, SSR's
//!   `reserve_only_at_or_above`) leaves the serialized outcome, task trace
//!   included, and the work counters byte-identical once the reported
//!   priorities are mapped back.
//! - **Late arrival.** A background job arriving long after every other
//!   job has finished cannot touch their runs: each earlier job's result,
//!   every task placement of theirs and every foreground slowdown stay
//!   the same.
//! - **Late faults.** Faults that strike after the last job has completed
//!   find nothing left to disturb: the run stops at its last completion,
//!   so they are never applied. The serialized outcome and the contended
//!   run's JSONL decision trace stay byte-identical. Only the event-queue
//!   counters may move, `events_pushed` and `peak_event_queue_len`, since
//!   every fault strike is queued when the run starts.
//! - **Renaming.** To the trace analyses a job's name is a label. The
//!   SSR and work-conserving runs' decision traces, every job renamed
//!   with a quote, a backslash, an `é` and a tab (which the JSONL writer
//!   escapes, so the reader leaves those lines to its general grammar),
//!   read back to the same events once the names are mapped back, and
//!   give the same checker verdict and the same `explain` attributions
//!   and per-job timelines, field by field. The renaming is done on the
//!   trace: the engine keys each task's duration draw by its job's name,
//!   so a renamed mix is a different run.

use ssr::prelude::*;
use ssr::sim::{par_map, worker_count};
use ssr::simcore::rng::SimRng;
use ssr::workload::google::{GoogleTraceConfig, GoogleTraceGenerator};
use ssr::workload::mllib::{self, MllibParams};
use ssr::workload::synthetic::pareto_pipeline;
use ssr_explain::{explain, parse_trace, Trace};
use ssr_trace::{JsonlSink, TraceEventKind, TraceSink};

/// What the priority-shift relation adds to every priority and threshold.
const SHIFT: i32 = 100;

/// The late background job's name and arrival, far past the mix's end.
const LATE: &str = "svm";
const LATE_ARRIVAL_SECS: u64 = 100_000;

/// The foreground and background jobs of the mix, every priority raised
/// by `shift`, plus the late background job when `late` is set.
fn mix(shift: i32, late: bool) -> (Vec<JobSpec>, Vec<JobSpec>) {
    let prio = |p: i32| Priority::new(p + shift);
    let kmeans = mllib::kmeans(&MllibParams::small().with_parallelism(20).with_priority(prio(10)))
        .expect("valid job");
    let pipeline = pareto_pipeline("pipeline", 3, 30, 1.0, 1.6, prio(5)).expect("valid job");
    let google = GoogleTraceConfig::cluster_hour().with_jobs(150).with_priority(prio(0));
    let mut background = GoogleTraceGenerator::new(google)
        .generate(&mut SimRng::stream(7, 0))
        .expect("valid trace");
    if late {
        let params = MllibParams::small()
            .with_parallelism(4)
            .with_priority(prio(0))
            .with_arrival(SimTime::from_secs(LATE_ARRIVAL_SECS));
        background.push(mllib::svm(&params).expect("valid job"));
    }
    (vec![kmeans, pipeline], background)
}

/// The four reservation policies, each threshold raised by `shift`.
/// SSR runs with a finite isolation target and straggler mitigation, so
/// its deadlines and copies are part of what each relation compares.
fn policies(shift: i32) -> [PolicyConfig; 4] {
    let ssr = SsrConfig::builder()
        .isolation_target(0.9)
        .mitigate_stragglers(true)
        .reserve_only_at_or_above(5 + shift)
        .build()
        .expect("valid configuration");
    [
        PolicyConfig::WorkConserving,
        PolicyConfig::Timeout(SimDuration::from_secs(5)),
        PolicyConfig::Static { count: 16, class: Priority::new(5 + shift) },
        PolicyConfig::Ssr(ssr),
    ]
}

const ORDERS: [OrderConfig; 3] = [OrderConfig::FifoPriority, OrderConfig::Fair, OrderConfig::Fifo];

fn experiment(policy: PolicyConfig, order: OrderConfig, shift: i32, late: bool) -> Experiment {
    let config = SimConfig::new(ClusterSpec::new(20, 4).expect("valid cluster"))
        .with_seed(7)
        .record_trace(true);
    let (foreground, background) = mix(shift, late);
    Experiment::new(config, policy, order).foreground(foreground).background(background)
}

/// Every (policy index, order) case, in a fixed order.
fn cases() -> Vec<(usize, OrderConfig)> {
    (0..4).flat_map(|p| ORDERS.map(|o| (p, o))).collect()
}

fn serialize(outcome: &ExperimentOutcome) -> String {
    serde_json::to_string_pretty(outcome).expect("serializable outcome")
}

#[test]
fn priority_shift_leaves_outcome_and_counters_unchanged() {
    let runs = |shift: i32| {
        let experiments: Vec<Experiment> = cases()
            .into_iter()
            .map(|(p, order)| experiment(policies(shift)[p].clone(), order, shift, false))
            .collect();
        par_map(worker_count(), &experiments, Experiment::run)
    };
    let pairs = runs(0).into_iter().zip(runs(SHIFT));
    for ((p, order), (base, mut shifted)) in cases().into_iter().zip(pairs) {
        let case = format!("{} under {order:?}", policies(0)[p].label());
        assert!(base.contended.completed, "{case}: the mix must drain");
        for job in &mut shifted.contended.jobs {
            job.priority -= SHIFT;
        }
        assert_eq!(serialize(&shifted), serialize(&base), "{case}: outcome moved");
        assert_eq!(
            shifted.counters.render_json(),
            base.counters.render_json(),
            "{case}: counters moved"
        );
    }
}

#[test]
fn late_arrival_leaves_earlier_jobs_unchanged() {
    let experiments: Vec<Experiment> = cases()
        .into_iter()
        .flat_map(|(p, order)| [false, true].map(|late| (policies(0)[p].clone(), order, late)))
        .map(|(policy, order, late)| experiment(policy, order, 0, late))
        .collect();
    let outcomes = par_map(worker_count(), &experiments, Experiment::run);
    for ((p, order), pair) in cases().into_iter().zip(outcomes.chunks(2)) {
        let case = format!("{} under {order:?}", policies(0)[p].label());
        let (base, late) = (&pair[0].contended, &pair[1].contended);
        assert!(late.completed, "{case}: the late job must run");
        let last_finish = base.jobs.iter().filter_map(|j| j.completed_secs).fold(0.0, f64::max);
        assert!(last_finish < LATE_ARRIVAL_SECS as f64, "{case}: the late job must arrive last");
        assert_eq!(pair[1].foreground, pair[0].foreground, "{case}: a slowdown moved");
        let (late_job, earlier) = late.jobs.split_last().expect("the late job ran");
        assert_eq!(late_job.name, LATE);
        assert_eq!(earlier, &base.jobs[..], "{case}: an earlier job's result moved");
        let earlier_tasks: Vec<_> = late.trace.iter().filter(|t| t.job != LATE).collect();
        let base_tasks: Vec<_> = base.trace.iter().collect();
        assert_eq!(earlier_tasks, base_tasks, "{case}: a placement moved");
    }
}

/// A fault of every kind, each striking long after the mix has drained.
const LATE_FAULTS: &str = "crash:node=0,at=200000,down=5;revoke:slot=3,at=200001;\
                           partition:node=1,at=200002,secs=2;storm:at=200003,secs=5,factor=2;\
                           restart:node=2,at=200004,down=1,rampup=3,cold=2";

/// The counters the late faults may move: each strike is queued at start.
const QUEUE_COUNTERS: [&str; 2] = ["events_pushed", "peak_event_queue_len"];

#[test]
fn late_faults_leave_outcome_and_trace_unchanged() {
    let faults = FaultPlan::parse(LATE_FAULTS).expect("valid fault plan");
    let experiments: Vec<Experiment> = cases()
        .into_iter()
        .flat_map(|(p, order)| [FaultPlan::default(), faults.clone()].map(|plan| (p, order, plan)))
        .map(|(p, order, plan)| {
            let config = SimConfig::new(ClusterSpec::new(20, 4).expect("valid cluster"))
                .with_seed(7)
                .record_trace(true)
                .with_faults(plan);
            let (foreground, background) = mix(0, false);
            Experiment::new(config, policies(0)[p].clone(), order)
                .foreground(foreground)
                .background(background)
        })
        .collect();
    let runs = par_map(worker_count(), &experiments, |experiment| {
        let (outcome, sink, _) =
            experiment.run_traced_with_baselines(Some(Box::new(JsonlSink::new())));
        let sink = sink.expect("sink attached").into_any().downcast::<JsonlSink>();
        (outcome, sink.expect("a JsonlSink").finish())
    });
    // Every counter but the event queue's, one `"name": value` line each.
    let steady = |outcome: &ExperimentOutcome| -> Vec<String> {
        let json = outcome.counters.render_json();
        let moved = |line: &str| QUEUE_COUNTERS.iter().any(|c| line.contains(&format!("\"{c}\"")));
        json.lines().filter(|line| !moved(line)).map(str::to_owned).collect()
    };
    let first_fault = faults.events().iter().map(|f| f.at.as_secs_f64()).fold(f64::MAX, f64::min);
    for ((p, order), pair) in cases().into_iter().zip(runs.chunks(2)) {
        let case = format!("{} under {order:?}", policies(0)[p].label());
        let ((base, base_jsonl), (faulted, faulted_jsonl)) = (&pair[0], &pair[1]);
        assert!(base.contended.completed, "{case}: the mix must drain");
        let last_finish =
            base.contended.jobs.iter().filter_map(|j| j.completed_secs).fold(0.0, f64::max);
        assert!(last_finish < first_fault, "{case}: the faults must strike after the mix");
        assert_eq!(serialize(faulted), serialize(base), "{case}: outcome moved");
        assert!(faulted_jsonl == base_jsonl, "{case}: the decision trace moved");
        assert_eq!(steady(faulted), steady(base), "{case}: a counter moved");
        assert_eq!(
            faulted.counters.events_pushed.get(),
            base.counters.events_pushed.get() + faults.events().len() as u64,
            "{case}: each fault strike is queued once"
        );
    }
}

/// What the renaming relation puts before every job name.
const RENAMED: &str = "\"\\é\t";

/// The name a renamed job had.
fn original(name: &str) -> String {
    name.strip_prefix(RENAMED).expect("a renamed job").to_owned()
}

/// The JSONL decision traces of the mix under `policy`: the contended
/// run's and each alone baseline's.
fn traces(policy: &PolicyConfig) -> (String, Vec<String>) {
    let (foreground, background) = mix(0, false);
    let config = SimConfig::new(ClusterSpec::new(20, 4).expect("valid cluster")).with_seed(7);
    let (_, sink, alone) = Experiment::new(config, policy.clone(), OrderConfig::FifoPriority)
        .foreground(foreground)
        .background(background)
        .run_traced_with_baselines(Some(Box::new(JsonlSink::new())));
    let jsonl = sink.expect("sink attached").into_any().downcast::<JsonlSink>().expect("a JsonlSink").finish();
    (jsonl, alone.into_iter().map(|a| a.jsonl).collect())
}

/// `trace` with every submitted job's name passed through `rename`.
fn with_names(trace: &Trace, rename: impl Fn(&str) -> String) -> Trace {
    let mut trace = trace.clone();
    for event in &mut trace.events {
        if let TraceEventKind::JobSubmitted { name, .. } = &mut event.kind {
            *name = rename(name);
        }
    }
    trace
}

/// `trace` written by the engine's JSONL writer and read back.
fn rewritten(trace: &Trace) -> (String, Trace) {
    let mut sink = JsonlSink::new();
    trace.events.iter().for_each(|e| sink.record(e));
    let jsonl = sink.finish();
    let read = parse_trace(&jsonl).expect("writer output parses");
    (jsonl, read)
}

/// The engine draws each task's duration from a stream keyed by its job's
/// name, so that a job's alone baseline sees the durations it saw in
/// contention; the relation therefore renames the jobs of the traces.
#[test]
fn renaming_leaves_trace_verdict_and_explanation_unchanged() {
    // SSR (with its deadlines and copies) and work-conserving.
    let policies = [3, 0].map(|p| policies(0)[p].clone());
    let docs = par_map(worker_count(), &policies, traces);
    let read = |doc: &String| parse_trace(doc).expect("engine output parses");
    for (policy, (jsonl, alone)) in policies.iter().zip(&docs) {
        let case = policy.label();
        let (base, base_alone) = (read(jsonl), alone.iter().map(read).collect::<Vec<_>>());
        let rename = |name: &str| format!("{RENAMED}{name}");
        let (named_jsonl, named) = rewritten(&with_names(&base, rename));
        let named_alone: Vec<Trace> = base_alone.iter().map(|t| rewritten(&with_names(t, rename)).1).collect();
        assert!(named_jsonl.contains(r#""name":"\"\\é\t"#), "{case}: names must be escaped");
        assert_eq!(with_names(&named, original).events, base.events, "{case}: an event moved");
        for (named, base) in named_alone.iter().zip(&base_alone) {
            assert_eq!(with_names(named, original).events, base.events, "{case}: an alone event moved");
        }

        let verdict = |trace: &Trace| InvariantChecker::new().check_all(&trace.events).render_json();
        assert_eq!(verdict(&named), verdict(&base), "{case}: the verdict moved");

        let base = explain(&base, &base_alone).expect("explains");
        let named = explain(&named, &named_alone).expect("explains");
        assert_eq!(named.attributions.len(), base.attributions.len(), "{case}");
        for (named, base) in named.attributions.iter().zip(&base.attributions) {
            let named = ssr_explain::Attribution { job: original(&named.job), ..named.clone() };
            assert_eq!(&named, base, "{case}: an attribution moved");
        }
        assert_eq!(named.timeline.jobs.len(), base.timeline.jobs.len(), "{case}");
        for (named, base) in named.timeline.jobs.iter().zip(&base.timeline.jobs) {
            let named = ssr_explain::JobTimeline { name: original(&named.name), ..named.clone() };
            assert_eq!(format!("{named:?}"), format!("{base:?}"), "{case}: a timeline moved");
        }
    }
}
