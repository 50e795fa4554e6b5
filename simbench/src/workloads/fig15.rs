//! `fig15`: Fig. 15 at quick scale, as
//! `ssr_bench::figures::fig15::run_scaled(700, seed)` computes it at one
//! worker — 400 slots, 700 Google-trace background jobs, the SQL / MLlib
//! / MLlib-2×-par suites staggered over 600 s, settings (a)/(b)/(c) under
//! work-conserving and SSR with run-alone baselines, plus the
//! background-impact pair.
//!
//! The background trace is always drawn from [`TRACE_SEED`] (the
//! figure's own seed, 81) and the workload seed re-seeds the simulations,
//! so at the pinned seed this is exactly the figure, and at other seeds
//! the same trace under other task-duration draws. Re-drawing the trace
//! too would change the work itself by a fifth or more between seeds.
//!
//! The figure's cells are rebuilt here from the same public helpers so
//! that each simulation's report (and its work counters) is visible; the
//! rendered tables are pinned, and a test holds them byte-equal to
//! `run_scaled` at a reduced scale.

use ssr_bench::figures::common::{
    background_jobs_large, large_cluster, stagger, BG_PRIORITY, FG_PRIORITY,
};
use ssr_bench::table::{num, Table};
use ssr_cluster::LocalityModel;
use ssr_dag::JobSpec;
use ssr_faults::FaultPlan;
use ssr_sim::{OrderConfig, PolicyConfig, SimReport};
use ssr_simcore::SimDuration;
use ssr_workload::{mllib, sql, MllibParams, SqlParams};

use super::{json, Workload};
use crate::layers::Layers;
use crate::ledger::{digest, Ledger, TRACE_SEED};
use crate::replica;
use crate::runspec::RunSpec;

/// Background jobs in the quick-scale figure.
pub const BG_JOBS: u32 = 700;

const SETTINGS: [&str; 3] = [
    "(a) standard",
    "(b) background x2",
    "(c) locality slowdown x2",
];

/// One (setting, suite) cell: the suite's alone baselines and its two
/// contended runs (work-conserving, then SSR).
#[derive(Debug)]
pub struct Cell {
    setting: usize,
    suite: &'static str,
    foreground: Vec<JobSpec>,
    alone: Vec<RunSpec>,
    contended: [RunSpec; 2],
}

/// The figure's simulations, in the order `run_scaled` runs them.
#[derive(Debug)]
pub struct Input {
    bg_jobs: u32,
    cells: Vec<Cell>,
    impact: [RunSpec; 2],
}

impl Input {
    /// Every simulation with its operation key, in run order.
    pub fn sims(&self) -> Vec<(String, &RunSpec)> {
        let mut out = Vec::new();
        for c in &self.cells {
            let prefix = format!("fig15/{}/{}", ["a", "b", "c"][c.setting], c.suite);
            for (job, spec) in c.foreground.iter().zip(&c.alone) {
                out.push((format!("{prefix}/alone/{}", job.name()), spec));
            }
            out.push((format!("{prefix}/wc"), &c.contended[0]));
            out.push((format!("{prefix}/ssr"), &c.contended[1]));
        }
        out.push(("fig15/impact/wc".to_owned(), &self.impact[0]));
        out.push(("fig15/impact/ssr".to_owned(), &self.impact[1]));
        out
    }
}

fn suites() -> Vec<(&'static str, Vec<JobSpec>)> {
    let sql_params = SqlParams::medium().with_priority(FG_PRIORITY);
    let ml = MllibParams::cluster().with_priority(FG_PRIORITY);
    let ml2 = ml.with_parallelism(40);
    let window = SimDuration::from_secs(600);
    vec![
        (
            "sql",
            stagger(
                sql::all_queries(&sql_params).expect("valid queries"),
                window,
            ),
        ),
        (
            "mllib",
            stagger(
                mllib::foreground_suite(&ml).expect("valid templates"),
                window,
            ),
        ),
        (
            "mllib-2x-par",
            stagger(
                mllib::foreground_suite(&ml2).expect("valid templates"),
                window,
            ),
        ),
    ]
}

/// Builds the figure's simulations for `bg_jobs` background jobs drawn
/// from `trace_seed`, simulated at `seed` (`run_scaled` uses one seed
/// for both).
pub fn generate(bg_jobs: u32, trace_seed: u64, seed: u64) -> Input {
    let cluster = large_cluster();
    let horizon = SimDuration::from_secs(1800);
    let run = |locality: &LocalityModel, policy: PolicyConfig, jobs: Vec<JobSpec>| RunSpec {
        cluster,
        locality: locality.clone(),
        seed,
        faults: FaultPlan::default(),
        policy,
        order: OrderConfig::FifoPriority,
        jobs,
    };
    let settings = [
        (1.0, LocalityModel::paper_simulation()),
        (2.0, LocalityModel::paper_simulation()),
        (1.0, LocalityModel::paper_simulation_amplified()),
    ];
    let suite_list = suites();
    let mut cells = Vec::new();
    for (si, (bg_factor, locality)) in settings.iter().enumerate() {
        let background = background_jobs_large(bg_jobs, *bg_factor, horizon, trace_seed);
        for (suite, jobs) in &suite_list {
            let alone = jobs
                .iter()
                .map(|j| run(locality, PolicyConfig::WorkConserving, vec![j.clone()]))
                .collect();
            let mut all = jobs.clone();
            all.extend(background.iter().cloned());
            cells.push(Cell {
                setting: si,
                suite,
                foreground: jobs.clone(),
                alone,
                contended: [
                    run(locality, PolicyConfig::WorkConserving, all.clone()),
                    run(locality, PolicyConfig::ssr_strict(), all),
                ],
            });
        }
    }
    let ml = MllibParams::cluster().with_priority(FG_PRIORITY);
    let mut impact_jobs = vec![mllib::kmeans(&ml).expect("valid template")];
    impact_jobs.extend(background_jobs_large(bg_jobs / 4, 1.0, horizon, trace_seed));
    let plain = LocalityModel::paper_simulation();
    let impact = [
        run(&plain, PolicyConfig::WorkConserving, impact_jobs.clone()),
        run(
            &plain,
            PolicyConfig::ssr_foreground_only(FG_PRIORITY.level()),
            impact_jobs,
        ),
    ];
    Input {
        bg_jobs,
        cells,
        impact,
    }
}

/// Renders the figure from its reports (in [`Input::sims`] order),
/// byte-for-byte as `run_scaled` does.
pub fn render(input: &Input, reports: &[SimReport]) -> String {
    let mut out = format!(
        "Fig. 15 — large-scale simulation ({} slots, {} background jobs)\n\
         paper: locality dominates in large clusters; SSR keeps MLlib < 1.10x, SQL 1.3-1.5x\n\n",
        large_cluster().total_slots(),
        input.bg_jobs
    );
    let mut next = reports.iter();
    let mut rows = Vec::new();
    for c in &input.cells {
        let alone: Vec<f64> = c
            .foreground
            .iter()
            .map(|j| {
                let r = next.next().expect("one report per simulation");
                r.jct_secs(j.name()).expect("foreground finishes alone")
            })
            .collect();
        let mut row = vec![c.suite.to_owned()];
        for _ in 0..2 {
            let report = next.next().expect("one report per simulation");
            let slowdowns: Vec<f64> = c
                .foreground
                .iter()
                .zip(&alone)
                .filter_map(|(j, &a)| report.jct_secs(j.name()).map(|t| t / a))
                .collect();
            let avg = slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64;
            row.push(format!("{avg:.2}x"));
        }
        rows.push((c.setting, row));
    }
    for (si, label) in SETTINGS.iter().enumerate() {
        let mut table = Table::new(["suite", "w/o SSR avg slowdown", "w/ SSR avg slowdown"]);
        for (_, row) in rows.iter().filter(|(s, _)| *s == si) {
            table.row(row.clone());
        }
        out.push_str(label);
        out.push('\n');
        out.push_str(&table.render());
        out.push('\n');
    }
    let (wc, ssr) = (
        next.next().expect("impact wc"),
        next.next().expect("impact ssr"),
    );
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
            input.bg_jobs / 4,
            num(mean),
            (mean - 1.0) * 100.0
        ));
    }
    out
}

fn completed(report: &SimReport) -> Result<Option<String>, String> {
    if report.completed {
        Ok(Some(digest(json(report).as_bytes())))
    } else {
        Err("run did not complete".to_owned())
    }
}

/// The `fig15` workload.
#[derive(Debug)]
pub struct Fig15;

impl Workload for Fig15 {
    type Input = Input;
    type Reference = Vec<SimReport>;

    const SETUP_REPEATS: usize = 21;

    fn generate(seed: u64) -> Input {
        generate(BG_JOBS, TRACE_SEED, seed)
    }

    fn untraced(input: &Input, ledger: &mut Ledger, keep: bool) -> (u64, Option<Vec<SimReport>>) {
        let mut reports = Vec::new();
        for (key, spec) in input.sims() {
            if let Some(r) = ledger.op(&key, || spec.simulate(), completed) {
                reports.push(r);
            }
        }
        let assignments = reports
            .iter()
            .map(|r| r.counters.tasks_assigned.get())
            .sum();
        if reports.len() == input.sims().len() {
            ledger.op(
                "fig15/tables",
                || render(input, &reports),
                |tables| Ok(Some(digest(tables.as_bytes()))),
            );
        }
        (assignments, keep.then_some(reports))
    }

    fn traced(input: &Input, reference: &Vec<SimReport>, ledger: &mut Ledger, layers: &mut Layers) {
        for ((key, spec), report) in input.sims().into_iter().zip(reference) {
            ledger.op(
                &format!("{key}/replica"),
                || replica::run(spec, None, layers),
                |outcome| replica::compare(report, outcome).map(|()| None),
            );
        }
    }
}
