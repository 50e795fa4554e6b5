//! One module per evaluation figure of the paper (Figs. 2, 3, 7, 9 and 11
//! are illustrative diagrams with no data and are not reproduced).
//!
//! Every module exposes `run() -> String` returning the rendered tables;
//! the `figures` binary prints them. Figures driven by the simulator run
//! at a scaled-down default (documented per module) so the full suite
//! completes in minutes on a laptop; set `SSR_FULL=1` for paper-scale
//! runs.

pub mod ablation;
pub mod common;
pub mod fig01;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig08;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;

/// The figure ids known to the harness, in paper order.
pub const ALL: [&str; 13] = [
    "fig01", "fig04", "fig05", "fig06", "fig08", "fig10", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "ablation",
];

/// Renders the canonical decision trace: the small contended SSR scenario
/// (a high-priority pipeline against a low-priority map-only background on
/// a 4×2 cluster) run once with a JSONL trace sink attached.
///
/// The output is byte-stable for a given seed — `figures --trace PATH`
/// writes it to disk and CI diffs two invocations to pin replay
/// determinism of the whole tracing layer.
pub fn decision_trace_jsonl(seed: u64) -> String {
    let (report, sink) =
        canonical_simulation(seed).with_trace_sink(Box::new(ssr_trace::JsonlSink::new())).run_traced();
    assert!(report.completed, "canonical trace scenario must complete");
    sink.expect("sink attached")
        .into_any()
        .downcast::<ssr_trace::JsonlSink>()
        .expect("JsonlSink recovered")
        .finish()
}

/// The canonical contended scenario behind `--trace`, `--explain` and
/// `--counters`, as `(config, foreground, background)`: a high-priority
/// three-phase pipeline against a low-priority map-only background on a
/// 4×2 cluster.
fn canonical_scenario(seed: u64) -> (ssr_sim::SimConfig, ssr_dag::JobSpec, ssr_dag::JobSpec) {
    use ssr_simcore::dist::constant;
    use ssr_workload::synthetic::{map_only, pipeline_of};

    let fg = pipeline_of(
        "fg-pipeline",
        &[(4, constant(2.0)), (2, constant(6.0)), (1, constant(3.0))],
        common::FG_PRIORITY,
        ssr_simcore::SimTime::from_secs(5),
    )
    .expect("valid spec");
    let bg = map_only("bg-batch", 16, constant(9.0), common::BG_PRIORITY).expect("valid spec");
    let cluster = ssr_cluster::ClusterSpec::new(4, 2).expect("valid cluster");
    (common::cluster_sim(cluster, seed), fg, bg)
}

/// The canonical scenario as one strict-SSR, FIFO-priority simulation.
fn canonical_simulation(seed: u64) -> ssr_sim::Simulation {
    use ssr_sim::{OrderConfig, PolicyConfig, Simulation};

    let (config, fg, bg) = canonical_scenario(seed);
    Simulation::new(config, PolicyConfig::ssr_strict(), OrderConfig::FifoPriority, vec![fg, bg])
}

/// Runs the canonical decision-trace scenario end-to-end through
/// `ssr-explain`: the contended run is traced alongside per-foreground
/// run-alone baseline traces, and the resulting timeline / critical-path /
/// slowdown-attribution report is rendered as text.
///
/// Byte-stable for a given seed — `figures --explain PATH` writes it to
/// disk and CI diffs two invocations, pinning the whole
/// trace→read→analyze→render pipeline.
pub fn explain_report(seed: u64) -> String {
    use ssr_sim::{Experiment, OrderConfig, PolicyConfig};
    use ssr_trace::JsonlSink;

    let (config, fg, bg) = canonical_scenario(seed);
    let (outcome, sink, alone) = Experiment::new(config, PolicyConfig::ssr_strict(), OrderConfig::FifoPriority)
        .foreground([fg])
        .background([bg])
        .run_traced_with_baselines(Some(Box::new(JsonlSink::new())));
    assert!(outcome.contended.completed, "explain scenario must complete");
    let contended = sink
        .expect("sink attached")
        .into_any()
        .downcast::<JsonlSink>()
        .expect("JsonlSink recovered")
        .finish();
    let contended = ssr_explain::parse_trace(&contended).expect("own trace parses");
    let baselines: Vec<ssr_explain::Trace> = alone
        .iter()
        .map(|a| ssr_explain::parse_trace(&a.jsonl).expect("own alone trace parses"))
        .collect();
    let report = ssr_explain::explain(&contended, &baselines).expect("analysis succeeds");
    report.render_text(72)
}

/// Runs the canonical decision-trace scenario and renders its
/// deterministic work counters as sorted-key JSON.
///
/// Byte-stable for a given seed and worker count-independent —
/// `figures --counters PATH` writes it to disk and CI diffs two
/// invocations, pinning the whole counter plane (scheduler increments,
/// event-queue flow statistics, report harvest, JSON render).
pub fn counters_report(seed: u64) -> String {
    let report = canonical_simulation(seed).run();
    assert!(report.completed, "canonical counter scenario must complete");
    report.counters.render_json()
}

/// Runs EXPERIMENTS.md's "Profiling a run" mix at the paper's simulator
/// size — 1000 nodes × 4 slots, `pipeline:phases=3,par=2000,prio=10`
/// against `maponly:tasks=6000,secs=30`, built as `ssr-cli run` builds it
/// — under SSR and work-conserving, and renders each experiment's work
/// counters (contended run plus alone baseline) as a labelled
/// sorted-key JSON block.
///
/// Here slot scans dominate, where [`counters_report`] and Fig. 15 are
/// dominated by reservation groups and job order.
pub fn paper_scale_counters(seed: u64) -> String {
    use ssr_cluster::{ClusterSpec, LocalityModel};
    use ssr_dag::Priority;
    use ssr_sim::{Experiment, OrderConfig, PolicyConfig, SimConfig};
    use ssr_simcore::dist::constant;
    use ssr_simcore::SimDuration;
    use ssr_workload::synthetic::{map_only, pareto_pipeline};

    let locality = LocalityModel::paper_simulation()
        .with_wait(SimDuration::from_secs_f64(3.0))
        .with_any_slowdown(5.0);
    let cluster = ClusterSpec::new(1000, 4).expect("valid cluster");
    let config = SimConfig::new(cluster).with_locality(locality).with_seed(seed);
    let fg = pareto_pipeline("pipeline", 3, 2000, 1.0, 1.6, Priority::new(10)).expect("valid job");
    let bg = map_only("maponly", 6000, constant(30.0), Priority::new(0)).expect("valid job");
    [("ssr", PolicyConfig::ssr_strict()), ("work-conserving", PolicyConfig::WorkConserving)]
        .into_iter()
        .map(|(label, policy)| {
            let outcome = Experiment::new(config.clone(), policy, OrderConfig::FifoPriority)
                .foreground([fg.clone()])
                .background([bg.clone()])
                .run();
            assert!(outcome.contended.completed, "{label}: paper-scale mix must complete");
            format!("{label}\n{}\n", outcome.counters.render_json())
        })
        .collect()
}

/// Runs one figure by id and returns its rendered output.
///
/// Returns `None` for an unknown id.
pub fn run(id: &str) -> Option<String> {
    let out = match id {
        "fig01" => fig01::run(),
        "fig04" => fig04::run(),
        "fig05" => fig05::run(),
        "fig06" => fig06::run(),
        "fig08" => fig08::run(),
        "fig10" => fig10::run(),
        "fig12" => fig12::run(),
        "fig13" => fig13::run(),
        "fig14" => fig14::run(),
        "fig15" => fig15::run(),
        "fig16" => fig16::run(),
        "fig17" => fig17::run(),
        "ablation" => ablation::run(),
        _ => return None,
    };
    Some(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_covers_all_ids() {
        for id in super::ALL {
            // Only check dispatch wiring for the cheap closed-form figures;
            // simulator figures are exercised by their own tests.
            if id == "fig08" {
                assert!(super::run(id).is_some());
            }
        }
        assert!(super::run("fig99").is_none());
    }

    #[test]
    fn explain_report_is_reproducible_and_complete() {
        let a = super::explain_report(11);
        let b = super::explain_report(11);
        assert_eq!(a, b, "same-seed explain reports must be byte-identical");
        for section in ["== ssr-explain:", "-- timeline --", "-- per-job activity",
                        "-- critical paths --", "-- slowdown attribution"] {
            assert!(a.contains(section), "report must contain {section:?}");
        }
        assert!(a.contains("conserves gap: yes"), "decomposition must conserve");
        assert!(!a.contains("conserves gap: NO"));
    }

    #[test]
    fn counters_report_is_reproducible_and_trace_independent() {
        let a = super::counters_report(11);
        let b = super::counters_report(11);
        assert_eq!(a, b, "same-seed counter reports must be byte-identical");
        assert!(a.starts_with("{\n  \"approval_calls\":"), "{a}");
        for key in ["offer_rounds", "slots_scanned", "tasks_assigned", "events_popped"] {
            assert!(a.contains(&format!("\"{key}\"")), "report must carry {key}");
        }
        // Attaching a decision-trace sink must not move a single counter:
        // trace-gated work is deliberately uncounted, so the counter
        // plane is identical whether or not the run is observed.
        let (traced, _) =
            super::canonical_simulation(11).with_trace_sink(Box::new(ssr_trace::JsonlSink::new())).run_traced();
        assert_eq!(a, traced.counters.render_json(), "tracing must not shift counters");
    }

    #[test]
    fn decision_trace_is_reproducible_and_well_formed() {
        let a = super::decision_trace_jsonl(11);
        let b = super::decision_trace_jsonl(11);
        assert_eq!(a, b, "same-seed traces must be byte-identical");
        assert!(a.starts_with(r#"{"event":"trace-start","fields":{"schema_version":3}"#));
        for needle in ["job-submitted", "offer-round-started", "task-launched", "job-completed"] {
            assert!(
                a.contains(&format!(r#""event":"{needle}""#)),
                "trace must contain {needle} events"
            );
        }
    }
}
