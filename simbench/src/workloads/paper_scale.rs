//! `paper_scale`: the "Profiling a run" mix at the paper's simulator size
//! — 1000 nodes × 4 slots, `pipeline:phases=3,par=2000,prio=10` against
//! `maponly:tasks=6000,secs=30` — run through `Experiment::run` as
//! `ssr-cli run` does, under SSR and work-conserving, over several seeds
//! derived from the workload seed.

use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_dag::Priority;
use ssr_faults::FaultPlan;
use ssr_sim::{ExperimentOutcome, OrderConfig, PolicyConfig};
use ssr_simcore::dist::constant;
use ssr_simcore::SimDuration;
use ssr_workload::synthetic::{map_only, pareto_pipeline};

use super::{json, Workload};
use crate::layers::Layers;
use crate::ledger::{digest, Ledger};
use crate::replica::{self, ReplicaOutcome};
use crate::runspec::{ExperimentSpec, RunSpec};

/// Simulation seeds per pass, derived from the workload seed.
pub const SEEDS_PER_PASS: u64 = 4;

/// The `k`-th simulation seed derived from the workload seed (SplitMix64).
pub fn derived_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add((k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds the mix on `nodes` × 4 slots for each derived seed, under SSR
/// and work-conserving, with the foreground pipeline `par` wide and
/// `tasks` background tasks.
pub fn experiments(nodes: u32, par: u32, tasks: u32, seed: u64) -> Vec<(String, ExperimentSpec)> {
    let cluster = ClusterSpec::new(nodes, 4).expect("valid cluster");
    // `ssr-cli run`'s locality defaults: 3 s wait, ANY at 5x.
    let locality = LocalityModel::paper_simulation()
        .with_wait(SimDuration::from_secs_f64(3.0))
        .with_any_slowdown(5.0);
    let fg = pareto_pipeline("pipeline", 3, par, 1.0, 1.6, Priority::new(10)).expect("valid job");
    let bg = map_only("maponly", tasks, constant(30.0), Priority::new(0)).expect("valid job");
    let mut out = Vec::new();
    for k in 0..SEEDS_PER_PASS {
        for (label, policy) in [
            ("ssr", PolicyConfig::ssr_strict()),
            ("wc", PolicyConfig::WorkConserving),
        ] {
            let base = RunSpec {
                cluster,
                locality: locality.clone(),
                seed: derived_seed(seed, k),
                faults: FaultPlan::default(),
                policy,
                order: OrderConfig::FifoPriority,
                jobs: Vec::new(),
            };
            out.push((
                format!("paper_scale/{k}/{label}"),
                ExperimentSpec::new(base, vec![fg.clone()], vec![bg.clone()]),
            ));
        }
    }
    out
}

/// Runs an experiment's contended run and alone baselines through the
/// replica loop.
pub fn replicate(
    spec: &ExperimentSpec,
    layers: &mut Layers,
) -> (ReplicaOutcome, Vec<ReplicaOutcome>) {
    let contended = replica::run(&spec.contended, None, layers);
    let alone = spec
        .foreground
        .iter()
        .map(|j| replica::run(&spec.alone(j), None, layers))
        .collect();
    (contended, alone)
}

/// Checks replicated runs against the engine's experiment outcome: the
/// contended run as [`replica::compare`] does, each alone baseline's JCT,
/// and the counters merged over all of them.
pub fn compare_experiment(
    outcome: &ExperimentOutcome,
    contended: &ReplicaOutcome,
    alone: &[ReplicaOutcome],
) -> Result<(), String> {
    replica::compare(&outcome.contended, contended)?;
    let merged = contended.counters.clone();
    for (row, a) in outcome.foreground.iter().zip(alone) {
        merged.merge(&a.counters);
        let jct = a.completions.first().map(|c| c.2.as_secs_f64());
        if jct != Some(row.alone_jct_secs) {
            return Err(format!(
                "alone JCT of {} differs: engine {}, replica {jct:?}",
                row.name, row.alone_jct_secs
            ));
        }
    }
    if merged != outcome.counters {
        return Err("merged experiment counters differ".to_owned());
    }
    Ok(())
}

fn verify(outcome: &ExperimentOutcome) -> Result<Option<String>, String> {
    if !outcome.contended.completed {
        return Err("contended run did not complete".to_owned());
    }
    let mut doc = json(outcome);
    doc.push_str(&outcome.counters.render_json());
    Ok(Some(digest(doc.as_bytes())))
}

/// The `paper_scale` workload.
#[derive(Debug)]
pub struct PaperScale;

impl Workload for PaperScale {
    type Input = Vec<(String, ExperimentSpec)>;
    type Reference = Vec<ExperimentOutcome>;

    const SETUP_REPEATS: usize = 2001;

    fn generate(seed: u64) -> Self::Input {
        experiments(1000, 2000, 6000, seed)
    }

    fn untraced(
        input: &Self::Input,
        ledger: &mut Ledger,
        keep: bool,
    ) -> (u64, Option<Self::Reference>) {
        let mut outcomes = Vec::new();
        for (key, spec) in input {
            if let Some(o) = ledger.op(key, || spec.experiment().run(), verify) {
                outcomes.push(o);
            }
        }
        let assignments = outcomes
            .iter()
            .map(|o| o.counters.tasks_assigned.get())
            .sum();
        (assignments, keep.then_some(outcomes))
    }

    fn traced(
        input: &Self::Input,
        reference: &Self::Reference,
        ledger: &mut Ledger,
        layers: &mut Layers,
    ) {
        for ((key, spec), outcome) in input.iter().zip(reference) {
            ledger.op(
                &format!("{key}/replica"),
                || replicate(spec, layers),
                |(contended, alone)| compare_experiment(outcome, contended, alone).map(|()| None),
            );
        }
    }
}
