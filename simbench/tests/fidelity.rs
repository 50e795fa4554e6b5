//! The replica loop must stay call-for-call identical to
//! `Simulation::run`, and the benchmark's rebuilt workloads identical to
//! what the engine's own entry points compute; otherwise the per-layer
//! numbers would describe a different run. Run with
//! `cargo test --release --manifest-path simbench/Cargo.toml`.

use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_dag::{JobSpec, Priority};
use ssr_faults::FaultPlan;
use ssr_sim::{OrderConfig, PolicyConfig, Simulation};
use ssr_simcore::dist::constant;
use ssr_simcore::{SimDuration, SimTime};
use ssr_trace::{JsonlSink, TraceSink};
use ssr_workload::synthetic::{map_only, pareto_pipeline, pipeline_of};

use simbench::layers::Layers;
use simbench::ledger::{Ledger, PINNED_SEED};
use simbench::replica;
use simbench::runspec::RunSpec;
use simbench::workloads::{fig15, paper_scale, traced_faults};

fn policies() -> Vec<PolicyConfig> {
    vec![
        PolicyConfig::WorkConserving,
        PolicyConfig::Timeout(SimDuration::from_secs(4)),
        PolicyConfig::Static {
            count: 3,
            class: Priority::new(10),
        },
        PolicyConfig::ssr_strict(),
        PolicyConfig::ssr_strict_with_stragglers(),
    ]
}

const ORDERS: [OrderConfig; 3] = [
    OrderConfig::FifoPriority,
    OrderConfig::Fair,
    OrderConfig::Fifo,
];

fn jobs() -> Vec<JobSpec> {
    let late = pipeline_of(
        "late",
        &[(3, constant(2.0)), (5, constant(1.5))],
        Priority::new(10),
        SimTime::from_secs(7),
    )
    .unwrap();
    vec![
        pareto_pipeline("fg", 3, 6, 1.0, 1.3, Priority::new(10)).unwrap(),
        map_only("bg", 24, constant(5.0), Priority::new(0)).unwrap(),
        late,
        pareto_pipeline("mid", 2, 4, 2.0, 1.6, Priority::new(5)).unwrap(),
    ]
}

fn spec(policy: PolicyConfig, order: OrderConfig, faults: FaultPlan) -> RunSpec {
    RunSpec {
        cluster: ClusterSpec::with_racks(4, 2, 2).unwrap(),
        locality: LocalityModel::paper_simulation(),
        seed: 13,
        faults,
        policy,
        order,
        jobs: jobs(),
    }
}

fn jsonl_of(sink: Box<dyn TraceSink>) -> String {
    sink.into_any()
        .downcast::<JsonlSink>()
        .expect("a JsonlSink")
        .finish()
}

/// Runs `spec` both ways, with a decision trace, and requires identical
/// counters, completions, makespan and trace bytes.
fn assert_replica_matches(spec: &RunSpec) {
    let (report, sink) = Simulation::new(
        spec.sim_config(),
        spec.policy.clone(),
        spec.order,
        spec.jobs.clone(),
    )
    .with_trace_sink(Box::new(JsonlSink::new()))
    .run_traced();
    assert!(
        report.completed,
        "{:?}/{:?}: engine run incomplete",
        spec.policy, spec.order
    );
    let mut layers = Layers::default();
    let mut out = replica::run(spec, Some(Box::new(JsonlSink::new())), &mut layers);
    if let Err(e) = replica::compare(&report, &out) {
        panic!("{:?} / {:?}: {e}", spec.policy, spec.order);
    }
    let engine = jsonl_of(sink.expect("sink attached"));
    let replica = jsonl_of(out.sink.take().expect("sink attached"));
    assert!(
        engine == replica,
        "{:?} / {:?}: decision traces differ",
        spec.policy,
        spec.order
    );
}

#[test]
fn replica_matches_simulation_for_every_policy_and_order() {
    for policy in policies() {
        for order in ORDERS {
            assert_replica_matches(&spec(policy.clone(), order, FaultPlan::default()));
        }
    }
}

#[test]
fn replica_matches_simulation_under_faults() {
    let faults = FaultPlan::parse(
        "crash:node=1,at=2,down=6;revoke:slot=5,at=3;partition:node=2,at=4,secs=5;\
         storm:at=1,secs=8,factor=2;restart:node=3,at=6,down=2,rampup=10,cold=3",
    )
    .unwrap();
    for policy in policies() {
        assert_replica_matches(&spec(policy, OrderConfig::FifoPriority, faults.clone()));
    }
}

#[test]
fn fig15_rebuild_renders_exactly_what_run_scaled_prints() {
    let input = fig15::generate(12, 5, 5);
    let reports: Vec<_> = fig15_sims(&input).iter().map(RunSpec::simulate).collect();
    assert_eq!(
        fig15::render(&input, &reports),
        ssr_bench::figures::fig15::run_scaled(12, 5)
    );
}

fn fig15_sims(input: &fig15::Input) -> Vec<RunSpec> {
    input.sims().into_iter().map(|(_, s)| s.clone()).collect()
}

#[test]
fn paper_scale_replica_matches_experiment() {
    for (key, spec) in paper_scale::experiments(12, 30, 60, 3) {
        let outcome = spec.experiment().run();
        let mut layers = Layers::default();
        let (contended, alone) = paper_scale::replicate(&spec, &mut layers);
        if let Err(e) = paper_scale::compare_experiment(&outcome, &contended, &alone) {
            panic!("{key}: {e}");
        }
    }
}

#[test]
fn traced_faults_small_is_correct_and_replicates() {
    use simbench::workloads::Workload;
    let input = traced_faults::experiments(40, 9, 9);
    let mut ledger = Ledger::new(9, false);
    let (assigned, reference) = traced_faults::TracedFaults::untraced(&input, &mut ledger, true);
    assert!(assigned > 0);
    let mut layers = Layers::default();
    traced_faults::TracedFaults::traced(&input, &reference.unwrap(), &mut ledger, &mut layers);
    assert_eq!(ledger.failed, 0, "{:?}", ledger.errors);
    // run + parse + check + explain + render, per policy, in each pass.
    assert_eq!(ledger.attempted, 2 * 5 + 2 * 5);
}

#[test]
fn deterministic_layer_counts_repeat_exactly() {
    let spec = spec(
        PolicyConfig::ssr_strict(),
        OrderConfig::Fair,
        FaultPlan::default(),
    );
    let counts = || {
        let mut layers = Layers::default();
        replica::run(&spec, Some(Box::new(JsonlSink::new())), &mut layers);
        let m = layers.metrics(0.0);
        let get = |name: &str| m.iter().find(|(n, _, _)| *n == name).unwrap().1;
        [
            get("core.approve.calls_per_assignment"),
            get("scheduler.slots_scanned_per_assignment"),
            get("scheduler.order_select.candidates_per_call"),
            get("trace.events"),
            get("simcore.events"),
        ]
    };
    let first = counts();
    assert!(first.iter().all(|&v| v > 0.0), "{first:?}");
    assert_eq!(first, counts());
}

#[test]
fn pin_mismatches_and_panics_count_as_failed_operations() {
    let mut ledger = Ledger::new(PINNED_SEED, false);
    ledger.op(
        "no/such/pin",
        || 1,
        |_| Ok(Some("0000000000000000".to_owned())),
    );
    ledger.op("panics", || panic!("boom"), |_: &()| Ok(None));
    ledger.op("broken", || 2, |_| Err("invariant broken".to_owned()));
    ledger.op("fine", || 3, |_| Ok(None));
    assert_eq!(
        (ledger.attempted, ledger.failed),
        (4, 3),
        "{:?}",
        ledger.errors
    );
    // Away from the pinned seed only invariants are checked.
    let mut unpinned = Ledger::new(PINNED_SEED + 1, false);
    unpinned.op(
        "no/such/pin",
        || 1,
        |_| Ok(Some("0000000000000000".to_owned())),
    );
    assert_eq!(unpinned.failed, 0);
}
