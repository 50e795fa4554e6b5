//! Determinism regression tests for parallel trial execution.
//!
//! The guarantee under test: [`par_map`] merges results in input order,
//! and every trial derives its RNG stream purely from
//! `(root_seed, trial index)` (seed `root_seed ^ i`, as the figures seed
//! theirs), so serialized results and merged work counters are
//! **byte-identical** at every worker count, and a given root seed always
//! reproduces the same reports. Wall-clock readings never enter a report.

use ssr::prelude::*;
use ssr::sim::{par_map, worker_count};
use ssr::simcore::dist::constant;
use ssr::workload::synthetic::{map_only, pareto_pipeline};

/// SSR and work-conserving, three runs each, run `i` seeded
/// `root_seed ^ i`.
fn trials(root_seed: u64) -> Vec<Experiment> {
    let fg = pareto_pipeline("fg", 3, 4, 1.0, 1.4, Priority::new(10)).expect("valid job");
    let bg = map_only("bg", 16, constant(10.0), Priority::new(0)).expect("valid job");
    let config = SimConfig::new(ClusterSpec::new(1, 4).expect("valid cluster"));
    let ssr = Experiment::new(config.clone(), PolicyConfig::ssr_strict(), OrderConfig::FifoPriority)
        .foreground([fg.clone()])
        .background([bg.clone()]);
    let wc = Experiment::new(config, PolicyConfig::WorkConserving, OrderConfig::FifoPriority)
        .foreground([fg])
        .background([bg]);
    let runs = [ssr, wc].into_iter().flat_map(|e| std::iter::repeat_n(e, 3));
    runs.enumerate().map(|(i, e)| e.with_seed(root_seed ^ i as u64)).collect()
}

fn run_with(root_seed: u64, workers: usize) -> Vec<ExperimentOutcome> {
    par_map(workers, &trials(root_seed), Experiment::run)
}

fn serialize(outcomes: &[ExperimentOutcome]) -> String {
    serde_json::to_string_pretty(outcomes).expect("serializable results")
}

#[test]
fn grid_results_byte_identical_at_1_2_and_8_workers() {
    let reference = serialize(&run_with(0xDEAD_BEEF, 1));
    for workers in [2, 8] {
        let parallel = serialize(&run_with(0xDEAD_BEEF, workers));
        assert_eq!(
            parallel, reference,
            "serialized grid results diverged at {workers} workers"
        );
    }
}

#[test]
fn merged_counters_are_worker_count_invariant() {
    let merged = |workers| {
        let outcomes = run_with(0xC0FFEE, workers);
        let merged = outcomes[0].counters.clone();
        for outcome in &outcomes[1..] {
            merged.merge(&outcome.counters);
        }
        assert!(!merged.is_zero(), "trials must count work");
        (merged.render_json(), merged.render_text())
    };
    let reference = merged(1);
    for workers in [2, 8] {
        assert_eq!(merged(workers), reference, "merged counters diverged at {workers} workers");
    }
}

#[test]
fn same_root_seed_reproduces_identical_reports() {
    let a = run_with(42, worker_count());
    let b = run_with(42, worker_count());
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(
            serde_json::to_string_pretty(&x.contended).expect("serializable"),
            serde_json::to_string_pretty(&y.contended).expect("serializable"),
            "trial {i} reports diverged across runs of the same root seed"
        );
    }
}

#[test]
fn different_root_seeds_change_results() {
    let a = serialize(&run_with(1, 2));
    let b = serialize(&run_with(2, 2));
    assert_ne!(a, b, "root seed must steer the trial RNG streams");
}

#[test]
fn distinct_trials_see_distinct_streams() {
    // The three SSR runs differ only in their seed: Pareto task durations
    // give each its own alone JCT.
    let outcomes = run_with(5, 2);
    let alone: Vec<f64> = outcomes[..3].iter().map(|o| o.foreground[0].alone_jct_secs).collect();
    assert!(
        alone[0] != alone[1] && alone[1] != alone[2] && alone[0] != alone[2],
        "repetitions must not reuse one RNG stream: {alone:?}"
    );
}

#[test]
fn single_simulation_serializes_identically_across_runs() {
    let run = || {
        let jobs = vec![
            pareto_pipeline("a", 4, 8, 1.0, 1.4, Priority::new(10)).expect("valid job"),
            map_only("b", 32, constant(5.0), Priority::new(0)).expect("valid job"),
        ];
        Simulation::new(
            SimConfig::new(ClusterSpec::new(2, 4).expect("valid cluster")).with_seed(7),
            PolicyConfig::ssr_strict(),
            OrderConfig::FifoPriority,
            jobs,
        )
        .run()
    };
    let a = run();
    let b = run();
    assert!(a.events_processed > 0, "event counter must accumulate");
    assert_eq!(
        serde_json::to_string_pretty(&a).expect("serializable"),
        serde_json::to_string_pretty(&b).expect("serializable")
    );
}
