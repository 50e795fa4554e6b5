//! A warm task's launch and finish allocate nothing: the allocator's own
//! count around `task_finished` and the `resource_offers_into` round that
//! relaunches the freed slot. One `#[test]` in its own binary, so no
//! other test thread allocates while a count is open.

use std::alloc::System;
use std::collections::VecDeque;

use ssr::prelude::*;
use ssr::simcore::dist::constant;
use stats_alloc::{Region, StatsAlloc};

#[global_allocator]
static GLOBAL: StatsAlloc<System> = StatsAlloc::system();

/// What `steps` warm task lifecycles allocated under `policy`: on a
/// 4-slot cluster, one job whose first phase has 64 tasks then a second
/// phase, each step finishes the oldest running task and runs the offer
/// round that relaunches its slot. No step completes a phase or the job.
/// The first 8 steps warm the scheduler and are not counted.
fn lifecycle_allocations(policy: &PolicyConfig, steps: u64) -> usize {
    let mut s = TaskScheduler::new(
        ClusterSpec::new(2, 2).unwrap(),
        LocalityModel::paper_simulation(),
        policy.build(),
        OrderConfig::FifoPriority.build(),
    );
    let job = JobSpecBuilder::new("long")
        .stage("map", 64, constant(1.0))
        .stage("reduce", 4, constant(1.0))
        .chain()
        .build()
        .unwrap();
    s.submit(job, SimTime::ZERO);
    let mut round = Vec::new();
    s.resource_offers_into(SimTime::ZERO, &mut round);
    let mut running: VecDeque<SlotId> = round.iter().map(|a| a.slot).collect();
    let mut allocations = 0;
    for step in 1..=8 + steps {
        let now = SimTime::from_secs(step);
        let slot = running.pop_front().expect("every slot runs a task");
        let region = Region::new(&GLOBAL);
        let outcome = s.task_finished(slot, now);
        s.resource_offers_into(now, &mut round);
        let counted = region.change().allocations;
        assert!(!outcome.stage_completed && !outcome.job_completed, "step {step}");
        assert_eq!(round.len(), 1, "step {step}: the freed slot is refilled");
        running.push_back(round[0].slot);
        if step > 8 {
            allocations += counted;
        }
    }
    allocations
}

#[test]
fn a_warm_task_launch_and_finish_allocate_nothing() {
    for policy in [
        PolicyConfig::WorkConserving,
        PolicyConfig::ssr_strict(),
        PolicyConfig::ssr_strict_with_stragglers(),
        PolicyConfig::Static { count: 2, class: Priority::new(10) },
    ] {
        let allocations = lifecycle_allocations(&policy, 40);
        assert_eq!(allocations, 0, "{}", policy.label());
    }
    // A timeout reservation is taken back by its own job each step, and
    // the pool drops the job's reservation-index entry with it and builds
    // it again at the next reservation: two allocations a step, none of
    // them the scheduler's.
    let timeout = PolicyConfig::Timeout(SimDuration::from_secs(3));
    let allocations = lifecycle_allocations(&timeout, 40);
    assert!(allocations <= 2 * 40, "{}: {allocations}", timeout.label());
}
