//! **Fig. 15** — Large-scale trace-driven simulation: average slowdown of
//! the foreground suites (SQL, MLlib, MLlib with 2× parallelism) with and
//! without speculative slot reservation, in three settings:
//!
//! * (a) standard (locality wait 3 s, `ANY` slowdown 5×),
//! * (b) background task runtime × 2,
//! * (c) locality slowdown factor × 2 (`ANY` = 10×).
//!
//! Paper findings reproduced: background duration barely matters in a
//! large cluster (slots are plentiful); the locality factor dominates;
//! with SSR the MLlib suites see < 10% slowdown while SQL (changing
//! parallelism) retains a moderate slowdown; background jobs are
//! essentially unaffected by SSR.

use ssr_cluster::LocalityModel;
use ssr_dag::JobSpec;
use ssr_sim::{OrderConfig, PolicyConfig, SimConfig, SimReport, Simulation};
use ssr_simcore::SimDuration;
use ssr_workload::{mllib, sql, MllibParams, SqlParams};

use crate::figures::common::{
    background_jobs_large, large_cluster, scaled, BG_PRIORITY, FG_PRIORITY,
};
use crate::table::{num, Table};

/// How long the background workload keeps arriving.
const HORIZON: SimDuration = SimDuration::from_secs(1800);

/// Runs the figure and renders its tables.
pub fn run() -> String {
    run_scaled(scaled(700, 8000), 81)
}

fn suites() -> Vec<(&'static str, Vec<JobSpec>)> {
    let sql_params = SqlParams::medium().with_priority(FG_PRIORITY);
    let ml = MllibParams::cluster().with_priority(FG_PRIORITY);
    let ml2 = ml.with_parallelism(40);
    // Foreground jobs are latency-sensitive requests submitted over time.
    let window = SimDuration::from_secs(600);
    vec![
        (
            "sql",
            crate::figures::common::stagger(
                sql::all_queries(&sql_params).expect("valid queries"),
                window,
            ),
        ),
        (
            "mllib",
            crate::figures::common::stagger(
                mllib::foreground_suite(&ml).expect("valid templates"),
                window,
            ),
        ),
        (
            "mllib-2x-par",
            crate::figures::common::stagger(
                mllib::foreground_suite(&ml2).expect("valid templates"),
                window,
            ),
        ),
    ]
}

struct Setting {
    label: &'static str,
    bg_factor: f64,
    locality: LocalityModel,
}

fn settings() -> Vec<Setting> {
    vec![
        Setting {
            label: "(a) standard",
            bg_factor: 1.0,
            locality: LocalityModel::paper_simulation(),
        },
        Setting {
            label: "(b) background x2",
            bg_factor: 2.0,
            locality: LocalityModel::paper_simulation(),
        },
        Setting {
            label: "(c) locality slowdown x2",
            bg_factor: 1.0,
            locality: LocalityModel::paper_simulation_amplified(),
        },
    ]
}

/// Every `(setting, suite)` index pair, in table order.
fn grid(settings: usize, suites: usize) -> Vec<(usize, usize)> {
    (0..settings).flat_map(|s| (0..suites).map(move |q| (s, q))).collect()
}

/// One contended cell: the suite's foreground `jobs` against `bg_jobs`
/// background jobs under `policy`, in `setting`.
fn contended(
    setting: &Setting,
    jobs: &[JobSpec],
    policy: PolicyConfig,
    bg_jobs: u32,
    seed: u64,
) -> SimReport {
    let mut all = jobs.to_vec();
    all.extend(background_jobs_large(bg_jobs, setting.bg_factor, HORIZON, seed));
    Simulation::new(
        SimConfig::new(large_cluster()).with_locality(setting.locality.clone()).with_seed(seed),
        policy,
        OrderConfig::FifoPriority,
        all,
    )
    .run()
}

/// The work counters of every SSR contended cell of
/// [`run_scaled`]`(bg_jobs, seed)`, one labelled `render_json` block per
/// cell in table order. A layout change that moves counted work shows up
/// here even when the rendered tables do not.
pub fn ssr_cell_counters(bg_jobs: u32, seed: u64) -> String {
    let settings = settings();
    let suite_list = suites();
    let cells = grid(settings.len(), suite_list.len());
    let blocks = ssr_sim::par_map(ssr_sim::worker_count(), &cells, |&(si, qi)| {
        let setting = &settings[si];
        let (name, jobs) = &suite_list[qi];
        let report = contended(setting, jobs, PolicyConfig::ssr_strict(), bg_jobs, seed);
        format!("{} / {name}\n{}\n", setting.label, report.counters.render_json())
    });
    blocks.concat()
}

/// Runs the figure at an explicit background-job count and seed — the
/// `run()` entry point uses the `SSR_FULL`-scaled defaults; tests and the
/// golden-equivalence suite call this directly with a reduced grid.
pub fn run_scaled(bg_jobs: u32, seed: u64) -> String {
    let cluster = large_cluster();
    let mut out = format!(
        "Fig. 15 — large-scale simulation ({} slots, {} background jobs)\n\
         paper: locality dominates in large clusters; SSR keeps MLlib < 1.10x, SQL 1.3-1.5x\n\n",
        cluster.total_slots(),
        bg_jobs
    );

    // One independent cell per (setting, suite): its alone baselines plus
    // the two contended runs. Cells fan out across the runner's worker
    // pool and come back in input order, so the rendered tables are
    // byte-identical at every worker count.
    let settings = settings();
    let suite_list = suites();
    let cells = grid(settings.len(), suite_list.len());
    let rows = ssr_sim::par_map(ssr_sim::worker_count(), &cells, |&(si, qi)| {
        let setting = &settings[si];
        let (name, jobs) = &suite_list[qi];
        // Alone baselines per suite (policy-independent).
        let alone: Vec<f64> = jobs
            .iter()
            .map(|j| {
                let config = SimConfig::new(cluster)
                    .with_locality(setting.locality.clone())
                    .with_seed(seed);
                Simulation::new(
                    config,
                    PolicyConfig::WorkConserving,
                    OrderConfig::FifoPriority,
                    vec![j.clone()],
                )
                .run()
                .jct_secs(j.name())
                .expect("foreground finishes alone")
            })
            .collect();
        let mut row = vec![(*name).to_owned()];
        for policy in [PolicyConfig::WorkConserving, PolicyConfig::ssr_strict()] {
            let report = contended(setting, jobs, policy, bg_jobs, seed);
            let slowdowns: Vec<f64> = jobs
                .iter()
                .zip(&alone)
                .filter_map(|(j, &a)| report.jct_secs(j.name()).map(|c| c / a))
                .collect();
            let avg = slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64;
            row.push(format!("{avg:.2}x"));
        }
        row
    });
    for (si, setting) in settings.iter().enumerate() {
        let mut table = Table::new(["suite", "w/o SSR avg slowdown", "w/ SSR avg slowdown"]);
        for qi in 0..suite_list.len() {
            table.row(rows[si * suite_list.len() + qi].clone());
        }
        out.push_str(setting.label);
        out.push('\n');
        out.push_str(&table.render());
        out.push('\n');
    }
    // Background-impact check (§VI-B "Impact on the background workload"):
    // measured in the paper's regime — an under-subscribed cluster where
    // the foreground is a small fraction of capacity. At saturation, any
    // slot-holding necessarily delays a backlogged background, so this
    // claim is specific to that regime.
    let moderate_bg = bg_jobs / 4;
    // One foreground job of parallelism 20 on the whole cluster, mirroring
    // the paper's regime where the foreground is a tiny capacity fraction
    // (<= 5% here; ~0.5% at SSR_FULL scale).
    let ml = MllibParams::cluster().with_priority(FG_PRIORITY);
    let fg = vec![mllib::kmeans(&ml).expect("valid template")];
    // Only the foreground opts into reservations, as in the paper's
    // deployment (isolation is a per-user service).
    let fg_only = PolicyConfig::ssr_foreground_only(FG_PRIORITY.level());
    let policies = [PolicyConfig::WorkConserving, fg_only];
    let reports = ssr_sim::par_map(ssr_sim::worker_count(), &policies, |policy| {
        let mut all = fg.clone();
        all.extend(background_jobs_large(moderate_bg, 1.0, HORIZON, seed));
        Simulation::new(
            SimConfig::new(cluster).with_seed(seed),
            policy.clone(),
            OrderConfig::FifoPriority,
            all,
        )
        .run()
    });
    // Per-job slowdown ratio (SSR JCT / work-conserving JCT), paired by
    // name — the paper's "average slowdown due to speculative slot
    // reservation" for background jobs. A ratio of means would instead be
    // dominated by a handful of giant heavy-tail jobs.
    let (wc, ssr) = (&reports[0], &reports[1]);
    let ratios: Vec<f64> = wc
        .jobs
        .iter()
        .filter(|j| j.priority == BG_PRIORITY.level() && j.completed_secs.is_some())
        .filter_map(|j| Some(ssr.jct_secs(&j.name)? / j.jct_secs()))
        .collect();
    if !ratios.is_empty() {
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        out.push_str(&format!(
            "background impact ({} bg jobs, under-subscribed as in the paper): \
             mean per-job bg slowdown due to SSR = {} ({:+.2}%)\n",
            moderate_bg,
            num(mean),
            (mean - 1.0) * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn ssr_never_worse_and_mllib_well_isolated() {
        // Tiny version for CI speed.
        let out = super::run_scaled(60, 5);
        for line in out.lines().filter(|l| {
            l.starts_with("sql") || l.starts_with("mllib")
        }) {
            let cells: Vec<f64> = line
                .split_whitespace()
                .filter_map(|w| w.strip_suffix('x').and_then(|n| n.parse().ok()))
                .collect();
            assert_eq!(cells.len(), 2, "row: {line}");
            let (wc, ssr) = (cells[0], cells[1]);
            assert!(ssr <= wc * 1.1 + 0.1, "SSR materially worse on: {line}");
        }
        assert!(out.contains("background impact"));
    }

    #[test]
    fn output_is_byte_identical_across_worker_counts() {
        // The acceptance property of the parallel runner, pinned at a
        // CI-friendly scale: the rendered figure is the same string no
        // matter how many workers computed its cells.
        ssr_sim::runner::set_worker_override(Some(1));
        let sequential = super::run_scaled(12, 5);
        ssr_sim::runner::set_worker_override(Some(8));
        let parallel = super::run_scaled(12, 5);
        ssr_sim::runner::set_worker_override(None);
        assert_eq!(sequential, parallel, "fig15 output depends on the worker count");
    }
}
