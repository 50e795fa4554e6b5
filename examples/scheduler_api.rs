//! Driving the scheduler directly — the low-level API beneath the
//! simulator.
//!
//! Builds a diamond-shaped SQL-like DAG, submits it to a [`TaskScheduler`]
//! configured with speculative slot reservation, and steps through
//! resource offers and task completions by hand, printing the slot table
//! after each step. Useful as a template for embedding the scheduler in a
//! custom event loop.
//!
//! Run with: `cargo run --release --example scheduler_api`

use ssr::cluster::LocalityModel;
use ssr::prelude::*;
use ssr::simcore::dist::constant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let policy = SpeculativeReservation::with_config(
        SsrConfig::builder().isolation_target(0.9).prereserve_threshold(0.5).build()?,
    );
    let mut sched = TaskScheduler::new(
        ClusterSpec::new(2, 4)?,
        LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
        Box::new(policy),
        Box::new(FifoPriority),
    );

    // scan -> {filter-a, filter-b} -> join (a diamond with changing
    // parallelism: 4 -> 2+2 -> 6).
    let job = JobSpecBuilder::new("diamond")
        .priority(Priority::new(10))
        .stage("scan", 4, constant(2.0))
        .stage("filter-a", 2, constant(1.0))
        .stage("filter-b", 2, constant(1.0))
        .stage("join", 6, constant(3.0))
        .edge(0, 1)
        .edge(0, 2)
        .edge(1, 3)
        .edge(2, 3)
        .build()?;
    println!("execution plan: {:?}", job.execution_plan());
    sched.submit(job, SimTime::ZERO);

    let mut now = SimTime::ZERO;
    let mut step = 0u32;
    while sched.has_unfinished_jobs() {
        let assignments = sched.resource_offers(now);
        for a in &assignments {
            println!("t={now}  place {} on {} at {:?}", a.instance, a.slot, a.level);
        }
        // Finish everything currently running one second later (constant
        // durations make this exact enough for a demo).
        now += SimDuration::from_secs(1);
        let running: Vec<SlotId> = sched.running_instances().map(|(s, _)| s).collect();
        if running.is_empty() && assignments.is_empty() {
            break;
        }
        for slot in running {
            let outcome = sched.task_finished(slot, now);
            if outcome.stage_completed {
                println!("t={now}  stage of {} completed", outcome.instance);
            }
        }
        let (free, running, reserved) = sched.slot_pool().counts();
        println!("t={now}  slots: {free} free / {running} running / {reserved} reserved");
        step += 1;
        assert!(step < 100, "demo should finish quickly");
    }
    println!("job complete");
    Ok(())
}
