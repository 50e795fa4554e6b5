//! **Fig. 16** — SQL-job slowdown vs the pre-reservation threshold `R`.
//!
//! SQL queries change their degree of parallelism across phases; when a
//! downstream phase is wider (n > m), reserved upstream slots cannot cover
//! it, and the job must pre-reserve extras. The earlier the
//! pre-reservation starts (smaller `R`), the less the job is slowed down.
//!
//! Methodology note: each query is measured individually against a
//! long-task background (as in the paper's per-job slowdown measurements);
//! the window between the `R`-threshold crossing and the barrier is where
//! freed background slots can be pre-reserved — with long background
//! tasks, missing that window costs a full background task length.

use ssr_sim::{par_map, worker_count, Experiment, OrderConfig, PolicyConfig, SimConfig};
use ssr_simcore::SimDuration;
use ssr_workload::{sql, SqlParams};

use crate::figures::common::{background_jobs_large, large_cluster, scaled, FG_PRIORITY};
use crate::table::Table;

const THRESHOLDS: [f64; 4] = [0.2, 0.5, 0.8, 1.0];

/// Runs the figure and renders its table.
pub fn run() -> String {
    run_scaled(scaled(350, 4000), scaled(10, 20), 91)
}

pub(crate) fn run_scaled(bg_jobs: u32, queries: u32, seed: u64) -> String {
    let cluster = large_cluster();
    let params = SqlParams::medium().with_priority(FG_PRIORITY).with_runtime_factor(3.0);
    let all = sql::all_queries(&params).expect("valid queries");
    let suite: Vec<_> = all.into_iter().take(queries as usize).collect();
    // Long-running background (x4): freed slots are rare, so acquiring the
    // extra n - m slots for a widening phase on demand is expensive.
    let background = background_jobs_large(bg_jobs, 4.0, SimDuration::from_secs(1800), seed);

    let mut table = Table::new(["R", "avg SQL slowdown"]);
    for &r in &THRESHOLDS {
        // Query i runs under seed ⊕ i at every threshold, so the rows
        // compare R values over paired conditions. Queries fan out across
        // the worker pool and merge back in query order.
        let trials: Vec<Experiment> = suite
            .iter()
            .enumerate()
            .map(|(i, q)| {
                Experiment::new(
                    SimConfig::new(cluster).stop_after([q.name()]),
                    PolicyConfig::ssr_with_prereserve_threshold(r),
                    OrderConfig::FifoPriority,
                )
                .foreground([q.clone()])
                .background(background.clone())
                .with_seed(seed ^ i as u64)
            })
            .collect();
        let results = par_map(worker_count(), &trials, Experiment::run);
        let slowdowns: Vec<f64> = results.iter().map(|o| o.mean_slowdown()).collect();
        let avg = slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64;
        table.row([format!("{r:.1}"), format!("{avg:.3}x")]);
    }
    format!(
        "Fig. 16 — SQL slowdown vs pre-reservation threshold R (SSR, per-query runs)\n\
         paper: earlier pre-reservation (smaller R) -> less slowdown\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn earlier_prereservation_does_not_hurt() {
        let out = super::run_scaled(60, 4, 5);
        let slowdowns: Vec<f64> = out
            .lines()
            .filter(|l| l.starts_with("0.") || l.starts_with("1.0"))
            .filter_map(|l| {
                l.split_whitespace()
                    .last()
                    .and_then(|w| w.trim_end_matches('x').parse().ok())
            })
            .collect();
        assert_eq!(slowdowns.len(), 4);
        // R = 0.2 must be no worse than R = 1.0 (allowing small noise).
        assert!(
            slowdowns[0] <= slowdowns[3] * 1.05 + 0.05,
            "R=0.2 ({}) worse than R=1.0 ({})",
            slowdowns[0],
            slowdowns[3]
        );
    }
}
