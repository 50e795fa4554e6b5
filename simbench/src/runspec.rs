//! Plain descriptions of one simulation and of one contention experiment,
//! from which both the engine's own entry points (`Simulation`,
//! `Experiment`) and the benchmark's replica loop are built, so the two
//! always see the same inputs.

use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_dag::JobSpec;
use ssr_faults::FaultPlan;
use ssr_sim::{Experiment, OrderConfig, PolicyConfig, SimConfig, SimReport, Simulation};

/// One simulated run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Cluster topology.
    pub cluster: ClusterSpec,
    /// Locality model (delay-scheduling wait and per-level slowdowns).
    pub locality: LocalityModel,
    /// Simulation seed.
    pub seed: u64,
    /// Injected faults (empty for a fault-free run).
    pub faults: FaultPlan,
    /// Reservation policy.
    pub policy: PolicyConfig,
    /// Job order.
    pub order: OrderConfig,
    /// Jobs in submission-index order.
    pub jobs: Vec<JobSpec>,
}

impl RunSpec {
    /// The engine configuration for this run.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::new(self.cluster)
            .with_locality(self.locality.clone())
            .with_seed(self.seed)
            .with_faults(self.faults.clone())
    }

    /// Runs the engine's own simulation loop.
    pub fn simulate(&self) -> SimReport {
        Simulation::new(
            self.sim_config(),
            self.policy.clone(),
            self.order,
            self.jobs.clone(),
        )
        .run()
    }
}

/// A contention experiment: measured foreground jobs against background
/// load, plus a run-alone baseline per foreground job.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// The contended run's settings; its `jobs` are foreground then
    /// background, as `Experiment` submits them.
    pub contended: RunSpec,
    /// The measured foreground jobs.
    pub foreground: Vec<JobSpec>,
    /// The background load.
    pub background: Vec<JobSpec>,
}

impl ExperimentSpec {
    /// Describes an experiment.
    pub fn new(
        base: RunSpec,
        foreground: Vec<JobSpec>,
        background: Vec<JobSpec>,
    ) -> ExperimentSpec {
        let mut jobs = foreground.clone();
        jobs.extend(background.iter().cloned());
        ExperimentSpec {
            contended: RunSpec { jobs, ..base },
            foreground,
            background,
        }
    }

    /// The engine's experiment harness for this description.
    pub fn experiment(&self) -> Experiment {
        Experiment::new(
            self.contended.sim_config(),
            self.contended.policy.clone(),
            self.contended.order,
        )
        .foreground(self.foreground.clone())
        .background(self.background.clone())
    }

    /// The run-alone baseline of `job`, as `Experiment` runs it:
    /// work-conserving, fault-free, the job alone on the cluster.
    pub fn alone(&self, job: &JobSpec) -> RunSpec {
        let c = &self.contended;
        RunSpec {
            cluster: c.cluster,
            locality: c.locality.clone(),
            seed: c.seed,
            faults: FaultPlan::default(),
            policy: PolicyConfig::WorkConserving,
            order: c.order,
            jobs: vec![job.clone()],
        }
    }
}
