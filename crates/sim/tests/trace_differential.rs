//! Differential test of the untraced offer round against the traced one.
//!
//! With no trace sink attached and a declared `ApprovalRule`, a round
//! whose free slots are gone declines the candidates the priority floor
//! refuses in bulk: a comparison and an ownership check each, their work
//! counted from each job's cached tally of pending task sets. With a
//! sink attached, every candidate is attempted and declined on its own,
//! each with an `offer-declined` line. The traced path is the
//! per-candidate reference: both runs must place the same tasks, render
//! the same report and count the same work, byte for byte.
//!
//! The mixes are saturated on purpose: a few high-priority pipelines
//! whose barriers leave reservation groups behind, and dozens of
//! low-priority background jobs pending behind them, arriving and
//! finishing so that a few slots come free per round.

use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_core::SsrConfig;
use ssr_dag::{JobSpec, JobSpecBuilder, Priority};
use ssr_sim::{FaultKind, FaultPlan, OrderConfig, PolicyConfig, SimConfig, Simulation};
use ssr_simcore::dist::{constant, uniform};
use ssr_simcore::rng::SimRng;
use ssr_simcore::{SimDuration, SimTime};
use ssr_trace::JsonlSink;

/// One saturated scenario: cluster, jobs, policy, order and fault plan.
struct Case {
    config: SimConfig,
    policy: PolicyConfig,
    order: OrderConfig,
    jobs: Vec<JobSpec>,
}

fn case(seed: u64, policy: usize, order: usize) -> Case {
    let mut rng = SimRng::stream(seed, 0);
    let nodes = 2 + rng.next_below(3) as u32;
    let cluster = ClusterSpec::with_racks(nodes, 2 + rng.next_below(2) as u32, 2).unwrap();
    let slots = cluster.total_slots();
    let mut jobs = Vec::new();
    for f in 0..1 + rng.next_below(3) {
        let mut b = JobSpecBuilder::new(format!("fg{f}"))
            .priority(Priority::new(5 + rng.next_below(4) as i32))
            .arrival(SimTime::from_millis(rng.next_below(10_000)));
        for st in 0..2 + rng.next_below(2) {
            let tasks = 1 + rng.next_below(u64::from(slots)) as u32;
            let secs = 1.0 + rng.next_below(30) as f64 / 10.0;
            b = b.stage(format!("s{st}"), tasks, uniform(secs, 2.0 * secs));
        }
        jobs.push(b.chain().build().unwrap());
    }
    for g in 0..20 + rng.next_below(40) {
        let mut b = JobSpecBuilder::new(format!("bg{g}"))
            .priority(Priority::new(rng.next_below(3) as i32))
            .arrival(SimTime::from_millis(rng.next_below(20_000)));
        for st in 0..1 + rng.next_below(2) {
            let tasks = 1 + rng.next_below(4) as u32;
            let secs = 0.5 + rng.next_below(50) as f64 / 10.0;
            let duration = if rng.chance(0.5) { constant(secs) } else { uniform(secs, 2.0 * secs) };
            b = b.stage(format!("s{st}"), tasks, duration);
        }
        jobs.push(b.chain().build().unwrap());
    }
    let policy = match policy {
        0 => PolicyConfig::WorkConserving,
        1 => PolicyConfig::Timeout(SimDuration::from_millis(1_000 + rng.next_below(10_000))),
        2 => PolicyConfig::Static {
            count: 1 + rng.next_below(u64::from(slots / 2)) as u32,
            class: Priority::new(3 + rng.next_below(4) as i32),
        },
        _ => PolicyConfig::Ssr(
            SsrConfig::builder()
                .isolation_target(if rng.chance(0.5) { 1.0 } else { 0.8 })
                .prereserve_threshold(rng.next_below(5) as f64 / 4.0)
                .mitigate_stragglers(rng.chance(0.5))
                .build()
                .unwrap(),
        ),
    };
    let order = match order {
        0 => OrderConfig::FifoPriority,
        1 => OrderConfig::Fair,
        _ => OrderConfig::Fifo,
    };
    let mut faults = FaultPlan::new();
    for _ in 0..rng.next_below(4) {
        let at = SimTime::from_millis(rng.next_below(30_000));
        let node = rng.next_below(u64::from(nodes)) as u32;
        let secs = SimDuration::from_millis(1_000 + rng.next_below(10_000));
        let kind = match rng.next_below(4) {
            0 => FaultKind::NodeCrash { node, down: rng.chance(0.7).then_some(secs) },
            1 => FaultKind::SlotRevocation { slot: rng.next_below(u64::from(slots)) as u32 },
            2 => FaultKind::NetworkPartition { node, secs },
            _ => FaultKind::ExecutorRestart { node, down: secs, rampup: secs, cold_factor: 1.5 },
        };
        faults.push(at, kind);
    }
    let config = SimConfig::new(cluster)
        .with_locality(LocalityModel::paper_simulation().with_wait(SimDuration::from_millis(rng.next_below(4_000))))
        .with_seed(seed)
        .with_faults(faults)
        .with_horizon(SimTime::from_secs(100_000));
    Case { config, policy, order, jobs }
}

/// The report JSON and the counter JSON of one run, and its trace when
/// `traced`.
fn run(case: &Case, traced: bool) -> (String, String, Option<String>) {
    let mut sim = Simulation::new(case.config.clone(), case.policy.clone(), case.order, case.jobs.clone());
    if traced {
        sim = sim.with_trace_sink(Box::new(JsonlSink::new()));
    }
    let (report, sink) = sim.run_traced();
    let jsonl = sink.map(|sink| sink.into_any().downcast::<JsonlSink>().expect("JsonlSink recovered").finish());
    (serde_json::to_string_pretty(&report).unwrap(), report.counters.render_json(), jsonl)
}

/// Runs `case` untraced and traced; both must agree byte for byte.
/// Returns the trace's `offer-declined` lines.
fn differential(seed: u64, policy: usize, order: usize) -> usize {
    let case = case(seed, policy, order);
    let (plain_report, plain_counters, _) = run(&case, false);
    let (traced_report, traced_counters, jsonl) = run(&case, true);
    assert!(plain_report == traced_report, "seed {seed}: report JSON moved under a trace sink");
    assert_eq!(plain_counters, traced_counters, "seed {seed}: work counters");
    jsonl.expect("sink attached").lines().filter(|l| l.contains("\"offer-declined\"")).count()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

    /// Untraced and traced runs render the same report and count the same
    /// work under saturated mixes, random fault plans, the four shipped
    /// policies and the three job orders.
    #[test]
    fn untraced_rounds_match_traced_rounds(
        seed in 0u64..1_000_000,
        policy in 0usize..4,
        order in 0usize..3,
    ) {
        differential(seed, policy, order);
    }
}

/// A fixed saturated SSR mix under each order: the traced run declines
/// hundreds of offers, which the untraced run declines in bulk, and the
/// two still agree.
#[test]
fn saturated_ssr_mix_declines_in_bulk_and_agrees() {
    for order in 0..3 {
        let declined = differential(7, 3, order);
        assert!(declined >= 100, "order {order}: only {declined} offers declined");
    }
}
