//! Golden equivalence tests: reduced-scale figure output is pinned
//! byte-for-byte against checked-in snapshots.
//!
//! These guard the scheduler hot-path optimizations (indexed slot pool,
//! incremental offer rounds) against behavioral drift: any change to the
//! engine that alters a single byte of figure output fails here, and any
//! change that moves a work counter fails the counter snapshots.
//!
//! To regenerate the snapshots after an *intentional* behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ssr-bench --test golden
//! ```

use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares `actual` against the checked-in snapshot `name`, or rewrites
/// the snapshot when `UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    assert!(
        expected == actual,
        "{name} drifted from its golden snapshot.\n\
         If the change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p ssr-bench --test golden\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn fig08_matches_golden_snapshot() {
    // Closed-form Eq. 4 curves; worker-count independent by the par_map
    // merge contract, pinned at one worker anyway for belt and braces.
    ssr_sim::runner::set_worker_override(Some(1));
    assert_golden("fig08.txt", &ssr_bench::figures::fig08::run());
}

#[test]
fn fig15_reduced_matches_golden_snapshot() {
    // Small grid (12 background jobs, seed 5 — the same scale the unit
    // tests use), single worker: the full simulator pipeline end to end.
    ssr_sim::runner::set_worker_override(Some(1));
    assert_golden("fig15_reduced.txt", &ssr_bench::figures::fig15::run_scaled(12, 5));
}

#[test]
fn counters_report_matches_golden_snapshot() {
    // Exact work counts of the canonical contended scenario: a change to
    // an index or a loop that moves counted work fails here even when
    // every decision, and so every figure byte, stays the same.
    assert_golden("counters_report.json", &ssr_bench::figures::counters_report(11));
}

#[test]
fn fig15_ssr_cell_counters_match_golden_snapshot() {
    // The SSR cells of the reduced Fig. 15 grid above: saturated offer
    // rounds over many reservation groups, the regime the offer-round
    // indexes exist for.
    ssr_sim::runner::set_worker_override(Some(1));
    assert_golden("fig15_ssr_counters.txt", &ssr_bench::figures::fig15::ssr_cell_counters(12, 5));
}

#[test]
fn paper_scale_counters_match_golden_snapshot() {
    // The 1000 x 4 "Profiling a run" mix under SSR and work-conserving:
    // the slot-scan regime (process-local searches, reserved-slot
    // ranking, free-list walks) that the two snapshots above barely
    // reach. Pins the counted work of paper-scale offer rounds.
    assert_golden("paper_scale_counters.txt", &ssr_bench::figures::paper_scale_counters(7));
}

#[test]
fn empty_fault_plan_is_zero_cost_on_figure_scenarios() {
    // The fault hooks' zero-cost contract, made explicit: figure
    // SimConfigs carry the default (empty) FaultPlan, and attaching an
    // explicitly empty plan changes nothing — so the two snapshot tests
    // above, whose goldens predate fault injection, double as the proof
    // that an empty plan leaves figure output byte-identical.
    use ssr_sim::{FaultPlan, OrderConfig, PolicyConfig, Simulation};
    use ssr_simcore::dist::constant;
    use ssr_simcore::SimTime;
    use ssr_trace::JsonlSink;
    use ssr_workload::synthetic::{map_only, pipeline_of};

    let cluster = ssr_cluster::ClusterSpec::new(4, 2).unwrap();
    let config = ssr_bench::figures::common::cluster_sim(cluster, 7);
    assert!(config.faults().is_empty(), "figure SimConfigs must not schedule faults");

    // The canonical contended scenario replays byte-identically with the
    // default plan and with an explicitly attached empty plan.
    let run = |config: ssr_sim::SimConfig| {
        let fg = pipeline_of(
            "fg",
            &[(4, constant(2.0)), (2, constant(6.0))],
            ssr_bench::figures::common::FG_PRIORITY,
            SimTime::from_secs(5),
        )
        .unwrap();
        let bg =
            map_only("bg", 16, constant(9.0), ssr_bench::figures::common::BG_PRIORITY).unwrap();
        let (report, sink) = Simulation::new(
            config,
            PolicyConfig::ssr_strict(),
            OrderConfig::FifoPriority,
            vec![fg, bg],
        )
        .with_trace_sink(Box::new(JsonlSink::new()))
        .run_traced();
        let jsonl = sink
            .expect("sink attached")
            .into_any()
            .downcast::<JsonlSink>()
            .expect("JsonlSink recovered")
            .finish();
        (serde_json::to_string_pretty(&report).unwrap(), jsonl)
    };
    let default_plan = run(config.clone());
    let explicit_empty = run(config.with_faults(FaultPlan::new()));
    assert_eq!(default_plan, explicit_empty, "an empty FaultPlan must be a no-op");
}
