//! Shared helpers for the figure harnesses.

use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_dag::{JobSpec, Priority};
use ssr_sim::SimConfig;
use ssr_simcore::rng::SimRng;
use ssr_simcore::SimDuration;
use ssr_workload::google::GoogleTraceGenerator;
use ssr_workload::{GoogleTraceConfig, MllibParams};

/// The foreground priority used across the cluster experiments.
pub const FG_PRIORITY: Priority = Priority::new(10);
/// The background priority.
pub const BG_PRIORITY: Priority = Priority::new(0);

/// `true` when paper-scale runs were requested via `SSR_FULL=1`.
#[expect(clippy::disallowed_methods, reason = "SSR_FULL picks the scale, not a run's outcome")]
pub fn full_scale() -> bool {
    std::env::var("SSR_FULL").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Scales a quantity between the quick default and the paper-scale value.
pub fn scaled(quick: u32, full: u32) -> u32 {
    if full_scale() {
        full
    } else {
        quick
    }
}

/// The paper's 50-node EC2 cluster (2 executors per m4.large) — used at
/// quarter scale by default.
pub fn ec2_cluster() -> ClusterSpec {
    let nodes = scaled(24, 50);
    ClusterSpec::new(nodes, 2).expect("valid cluster")
}

/// The paper's 1000-node / 4000-slot simulated cluster — scaled down by
/// default.
pub fn large_cluster() -> ClusterSpec {
    let nodes = scaled(100, 1000);
    ClusterSpec::with_racks(nodes, 4, 20).expect("valid cluster")
}

/// Simulation config for the cluster-deployment figures (no meaningful
/// racks; locality wait 3 s).
pub fn cluster_sim(cluster: ClusterSpec, seed: u64) -> SimConfig {
    SimConfig::new(cluster)
        .with_locality(LocalityModel::paper_simulation())
        .with_seed(seed)
}

/// The three MLlib-like foreground applications at the cluster scale.
///
/// They arrive at t = 60 s, after the background load has built up —
/// matching the paper's setup where the foreground contends with an
/// already-running background mix.
pub fn foreground_apps() -> Vec<JobSpec> {
    let params = MllibParams::cluster()
        .with_priority(FG_PRIORITY)
        .with_arrival(ssr_simcore::SimTime::from_secs(60));
    ssr_workload::mllib::foreground_suite(&params).expect("valid templates")
}

/// Google-trace-like background jobs: `jobs` of them, dense enough to keep
/// the cluster backlogged (the regime of the paper's §II-B / §VI-A
/// figures), runtimes multiplied by `runtime_factor`.
pub fn background_jobs(jobs: u32, runtime_factor: f64, seed: u64) -> Vec<JobSpec> {
    let mut config = GoogleTraceConfig::cluster_hour()
        .with_jobs(jobs)
        .with_priority(BG_PRIORITY)
        .with_runtime_factor(runtime_factor);
    config.horizon = SimDuration::from_secs(scaled(600, 3600) as u64);
    config.median_tasks = scaled(20, 40);
    config.duration_scale_secs = 10.0;
    let mut rng = SimRng::stream(seed, 0);
    GoogleTraceGenerator::new(config).generate(&mut rng).expect("valid trace")
}

/// Background jobs for the large-scale simulation, spread over `horizon`.
pub fn background_jobs_large(
    jobs: u32,
    runtime_factor: f64,
    horizon: SimDuration,
    seed: u64,
) -> Vec<JobSpec> {
    let mut config = GoogleTraceConfig::simulation(jobs, horizon)
        .with_priority(BG_PRIORITY)
        .with_runtime_factor(runtime_factor);
    config.duration_scale_secs = 10.0;
    let mut rng = SimRng::stream(seed, 0);
    GoogleTraceGenerator::new(config).generate(&mut rng).expect("valid trace")
}

/// Staggers a set of foreground jobs uniformly over `[0, window]` —
/// latency-sensitive queries are submitted over time, not all at once.
pub fn stagger(jobs: Vec<JobSpec>, window: SimDuration) -> Vec<JobSpec> {
    let n = jobs.len().max(1) as u64;
    jobs.into_iter()
        .enumerate()
        .map(|(i, job)| {
            let at = ssr_simcore::SimTime::ZERO
                + SimDuration::from_micros(window.as_micros() * i as u64 / n);
            respecify_arrival(job, at)
        })
        .collect()
}

/// Rebuilds a job spec with a different arrival time.
fn respecify_arrival(job: JobSpec, at: ssr_simcore::SimTime) -> JobSpec {
    use ssr_dag::JobSpecBuilder;
    let mut b = JobSpecBuilder::new(job.name()).priority(job.priority()).arrival(at);
    for stage in job.stages() {
        let mut s =
            ssr_dag::StageSpec::new(stage.name(), stage.parallelism(), stage.duration().clone());
        if !stage.parallelism_known() {
            s = s.with_hidden_parallelism();
        }
        b = b.stage_spec(s);
    }
    for u in job.iter_stage_ids() {
        for &d in job.children(u) {
            b = b.edge(u.as_u32(), d.as_u32());
        }
    }
    b.build().expect("original spec was valid")
}

/// Downsamples a time series to at most `max_rows` evenly spaced samples.
pub fn downsample<T: Clone>(series: &[T], max_rows: usize) -> Vec<T> {
    if series.len() <= max_rows || max_rows == 0 {
        return series.to_vec();
    }
    let step = series.len() as f64 / max_rows as f64;
    (0..max_rows)
        .map(|i| series[(i as f64 * step) as usize].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_env_default() {
        // Tests run without SSR_FULL set.
        if !full_scale() {
            assert_eq!(scaled(5, 50), 5);
        }
    }

    #[test]
    fn clusters_are_valid() {
        assert!(ec2_cluster().total_slots() >= 48);
        assert!(large_cluster().total_slots() >= 400);
    }

    #[test]
    fn foreground_apps_are_three() {
        let apps = foreground_apps();
        assert_eq!(apps.len(), 3);
        assert!(apps.iter().all(|a| a.priority() == FG_PRIORITY));
    }

    #[test]
    fn background_jobs_deterministic() {
        let a = background_jobs(10, 1.0, 1);
        let b = background_jobs(10, 1.0, 1);
        assert_eq!(a.len(), 10);
        assert_eq!(a[0].arrival(), b[0].arrival());
    }

    #[test]
    fn downsample_limits_rows() {
        let data: Vec<u32> = (0..1000).collect();
        let d = downsample(&data, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0], 0);
        let short = downsample(&data[..5], 10);
        assert_eq!(short.len(), 5);
    }
}
