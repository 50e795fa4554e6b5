//! `traced_faults`: one decision-traced, faulted run and its analysis.
//! 400 slots in 20 racks, `google:jobs=700,horizon=1800` against
//! `kmeans:par=40,prio=10,arrival=300`, with one fault of each kind,
//! under SSR and work-conserving. The contended run and the alone
//! baseline are traced to JSONL; the traces are then parsed, replayed
//! through the invariant checker, explained and rendered.
//!
//! The workload seed places the faults; the background trace and the
//! simulation use [`TRACE_SEED`]. Re-seeding the simulation instead
//! makes the work bimodal: two seeds in ten ran 1.5 times the trace
//! events and ten times the approve calls per assignment of the rest,
//! while placing the faults moves both by under 10%.

use ssr_check::{CheckReport, InvariantChecker};
use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_dag::Priority;
use ssr_explain::{explain, parse_trace, Trace};
use ssr_faults::FaultPlan;
use ssr_sim::{ExperimentOutcome, OrderConfig, PolicyConfig};
use ssr_simcore::rng::SimRng;
use ssr_simcore::{SimDuration, SimTime};
use ssr_trace::{JsonlSink, TraceSink};
use ssr_workload::google::GoogleTraceGenerator;
use ssr_workload::{mllib, GoogleTraceConfig, MllibParams};

use super::paper_scale::{compare_experiment, derived_seed};
use super::{json, Workload};
use crate::layers::Layers;
use crate::ledger::{digest, Ledger, TRACE_SEED};
use crate::measure::CallTimer;
use crate::replica::{self, ReplicaOutcome};
use crate::runspec::{ExperimentSpec, RunSpec};

/// One fault of each kind, striking while the foreground job runs, on
/// nodes, a slot and at times drawn from `seed`.
pub fn faults(seed: u64) -> FaultPlan {
    let draw = |k: u64, n: u64| derived_seed(seed, k) % n;
    let spec = format!(
        "crash:node={},at={},down=120;revoke:slot={},at={};\
         partition:node={},at={},secs=90;storm:at={},secs=60,factor=2;\
         restart:node={},at={},down=30,rampup=120,cold=2",
        draw(0, 100),
        300 + draw(1, 60),
        draw(2, 400),
        300 + draw(3, 60),
        draw(4, 100),
        300 + draw(5, 60),
        300 + draw(6, 60),
        draw(7, 100),
        300 + draw(8, 60),
    );
    FaultPlan::parse(&spec).expect("valid fault plan")
}

/// Width of the rendered text report's Gantt chart.
const RENDER_WIDTH: usize = 72;

/// Builds the mix under SSR and work-conserving, with `jobs` background
/// jobs drawn from `trace_seed`, simulated at `trace_seed` too, with the
/// faults of `seed`.
pub fn experiments(jobs: u32, trace_seed: u64, seed: u64) -> Vec<(String, ExperimentSpec)> {
    let mut config = GoogleTraceConfig::cluster_hour()
        .with_jobs(jobs)
        .with_priority(Priority::new(0));
    config.horizon = SimDuration::from_secs(1800);
    let background = GoogleTraceGenerator::new(config)
        .generate(&mut SimRng::stream(trace_seed, 0))
        .expect("valid trace");
    let params = MllibParams::small()
        .with_parallelism(40)
        .with_priority(Priority::new(10))
        .with_arrival(SimTime::from_secs(300));
    let foreground = vec![mllib::kmeans(&params).expect("valid template")];
    let faults = faults(seed);
    [
        ("ssr", PolicyConfig::ssr_strict()),
        ("wc", PolicyConfig::WorkConserving),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let base = RunSpec {
            cluster: ClusterSpec::with_racks(100, 4, 20).expect("valid cluster"),
            locality: LocalityModel::paper_simulation(),
            seed: trace_seed,
            faults: faults.clone(),
            policy,
            order: OrderConfig::FifoPriority,
            jobs: Vec::new(),
        };
        let spec = ExperimentSpec::new(base, foreground.clone(), background.clone());
        (format!("traced_faults/{label}"), spec)
    })
    .collect()
}

/// The traced outputs of one experiment: the outcome, the contended
/// run's JSONL trace and the alone baselines' traces.
#[derive(Debug)]
pub struct Traced {
    outcome: ExperimentOutcome,
    jsonl: String,
    alone: Vec<String>,
}

fn jsonl_of(sink: Box<dyn TraceSink>) -> String {
    sink.into_any()
        .downcast::<JsonlSink>()
        .expect("a JsonlSink")
        .finish()
}

fn run_traced(spec: &ExperimentSpec) -> Traced {
    let (outcome, sink, alone) = spec
        .experiment()
        .run_traced_with_baselines(Some(Box::new(JsonlSink::new())));
    Traced {
        outcome,
        jsonl: jsonl_of(sink.expect("sink attached")),
        alone: alone.into_iter().map(|a| a.jsonl).collect(),
    }
}

fn verify_run(t: &Traced) -> Result<Option<String>, String> {
    if !t.outcome.contended.completed {
        return Err("contended run did not complete".to_owned());
    }
    let mut doc = json(&t.outcome);
    doc.push_str(&t.outcome.counters.render_json());
    doc.push_str(&digest(t.jsonl.as_bytes()));
    for a in &t.alone {
        doc.push_str(&digest(a.as_bytes()));
    }
    Ok(Some(digest(doc.as_bytes())))
}

/// The analysis timers: the traced pass's layers, or scratch timers in
/// the untraced pass.
struct Timers<'a> {
    parse: &'a mut CallTimer,
    check: &'a mut CallTimer,
    analyze: &'a mut CallTimer,
    render: &'a mut CallTimer,
}

/// Parses, checks, explains and renders one experiment's traces, each
/// step one operation.
fn analyze(key: &str, jsonl: &str, alone: &[String], ledger: &mut Ledger, timers: Timers<'_>) {
    let parsed = ledger.op(
        &format!("{key}/parse"),
        || {
            timers.parse.time(|| {
                let alone: Result<Vec<Trace>, _> = alone.iter().map(|a| parse_trace(a)).collect();
                Ok::<_, ssr_explain::ReadError>((parse_trace(jsonl)?, alone?))
            })
        },
        |r| {
            r.as_ref()
                .map(|_| None)
                .map_err(|e| format!("trace does not parse: {e}"))
        },
    );
    let Some(Ok((contended, alone))) = parsed else {
        return;
    };
    ledger.op(
        &format!("{key}/check"),
        || {
            timers
                .check
                .time(|| InvariantChecker::new().check_all(&contended.events))
        },
        |report: &CheckReport| {
            if report.is_clean() {
                Ok(Some(digest(report.render_json().as_bytes())))
            } else {
                Err(format!(
                    "{} invariant violation(s)",
                    report.violations.len()
                ))
            }
        },
    );
    let explained = ledger.op(
        &format!("{key}/explain"),
        || timers.analyze.time(|| explain(&contended, &alone)),
        |r| match r {
            Err(e) => Err(format!("explain failed: {e}")),
            Ok(report) if report.attributions.len() != alone.len() => {
                Err("missing attribution".to_owned())
            }
            Ok(report) => match report.attributions.iter().find(|a| !a.conserves(1e-6)) {
                Some(a) => Err(format!(
                    "attribution of {} does not conserve the gap",
                    a.job
                )),
                None => Ok(None),
            },
        },
    );
    let Some(Ok(report)) = explained else { return };
    ledger.op(
        &format!("{key}/render"),
        || {
            timers
                .render
                .time(|| (report.render_text(RENDER_WIDTH), report.render_json()))
        },
        |(text, json)| Ok(Some(digest(format!("{text}{json}").as_bytes()))),
    );
}

/// The traces one replicated experiment produced, with its runs.
type Replicated = (String, Vec<String>, ReplicaOutcome, Vec<ReplicaOutcome>);

/// Runs the contended run and the alone baselines through the replica
/// loop, each with a timed JSONL sink.
fn replicate_traced(spec: &ExperimentSpec, layers: &mut Layers) -> Replicated {
    let run = |s: &RunSpec, layers: &mut Layers| {
        let mut out = replica::run(s, Some(Box::new(JsonlSink::new())), layers);
        let sink = out.sink.take().expect("sink attached");
        let jsonl = layers.trace_finish.time(|| jsonl_of(sink));
        layers.trace_bytes += jsonl.len() as u64;
        (jsonl, out)
    };
    let (jsonl, contended) = run(&spec.contended, layers);
    let (alone, alone_runs) = spec
        .foreground
        .iter()
        .map(|job| run(&spec.alone(job), layers))
        .unzip();
    (jsonl, alone, contended, alone_runs)
}

/// The `traced_faults` workload.
#[derive(Debug)]
pub struct TracedFaults;

impl Workload for TracedFaults {
    type Input = Vec<(String, ExperimentSpec)>;
    type Reference = Vec<Traced>;

    const SETUP_REPEATS: usize = 101;

    fn generate(seed: u64) -> Self::Input {
        experiments(700, TRACE_SEED, seed)
    }

    fn untraced(
        input: &Self::Input,
        ledger: &mut Ledger,
        keep: bool,
    ) -> (u64, Option<Self::Reference>) {
        let mut kept = Vec::new();
        let mut assignments = 0;
        for (key, spec) in input {
            let Some(t) = ledger.op(&format!("{key}/run"), || run_traced(spec), verify_run) else {
                continue;
            };
            assignments += t.outcome.counters.tasks_assigned.get();
            let mut scratch: [CallTimer; 4] = Default::default();
            let [parse, check, analyze_t, render] = &mut scratch;
            let timers = Timers {
                parse,
                check,
                analyze: analyze_t,
                render,
            };
            analyze(key, &t.jsonl, &t.alone, ledger, timers);
            if keep {
                kept.push(t);
            }
        }
        (assignments, keep.then_some(kept))
    }

    fn traced(
        input: &Self::Input,
        reference: &Self::Reference,
        ledger: &mut Ledger,
        layers: &mut Layers,
    ) {
        for ((key, spec), want) in input.iter().zip(reference) {
            let replicated = ledger.op(
                &format!("{key}/replica"),
                || replicate_traced(spec, layers),
                |(jsonl, alone, contended, alone_runs)| {
                    compare_experiment(&want.outcome, contended, alone_runs)?;
                    if *jsonl != want.jsonl || *alone != want.alone {
                        return Err("replica decision trace differs from the engine's".to_owned());
                    }
                    Ok(None)
                },
            );
            let Some((jsonl, alone, _, _)) = replicated else {
                continue;
            };
            let timers = Timers {
                parse: &mut layers.explain_parse,
                check: &mut layers.check_replay,
                analyze: &mut layers.explain_analyze,
                render: &mut layers.explain_render,
            };
            analyze(key, &jsonl, &alone, ledger, timers);
        }
    }
}
