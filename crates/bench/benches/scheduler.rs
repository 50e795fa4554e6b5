//! The scheduler hot-path benchmark suite tracked in
//! `BENCH_scheduler.json` at the repo root: resource-offer rounds at
//! 100 / 1000 / 4000 slots (the paper's simulator scale), saturated
//! re-offer rounds at the same scales, a contended offer round with 150
//! candidate jobs on locality wait (the Fig. 15 shape), a saturated
//! round in which a phase preferring 2,000 slots takes its 2,000
//! reservations (the `paper_scale` shape), per-unit rows for the offer
//! round's inner loops (the viability filter of a saturated round at 8
//! and 64 reservation groups, the declined tail of a round whose free
//! slots run out, at the same group counts, a round that gets through
//! 100, 1,000 or 4,000 pending jobs once its two free slots are gone, and the
//! process-local search of a phase preferring 2,000 of 4,000 slots), the
//! ranking of an owner's 2,000 reserved slots for a candidate that
//! declines them, a warm task's launch, finish and re-offer at 100 and
//! 4,000 slots (per task), a full small-grid
//! simulation, the trace codec (writing and reading the small-grid SSR
//! run's decision trace), and event-queue throughput including the
//! recycled-allocation path.
//!
//! Regenerate the JSON with:
//!
//! ```text
//! CRITERION_OUTPUT_JSON=BENCH_scheduler.json \
//!     cargo bench -p ssr-bench --bench scheduler --offline
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_dag::{JobSpecBuilder, Priority, StageId};
use ssr_scheduler::{FifoPriority, TaskScheduler, TimeoutReservation, WorkConserving};
use ssr_sim::{OrderConfig, PolicyConfig, SimConfig, Simulation};
use ssr_simcore::dist::{constant, pareto};
use ssr_simcore::events::EventQueue;
use ssr_simcore::{SimDuration, SimTime};
use ssr_trace::{parse_trace, JsonlSink, TraceEvent, TraceSink, VecSink};
use std::time::{Duration, Instant};

/// The scales the acceptance criteria track: a small rack, a mid-size
/// cluster, and the paper's 1000-node / 4000-slot simulator.
const SCALES: [u32; 3] = [100, 1000, 4000];

/// Extra offer-round scales beyond the paper's simulator, exercising the
/// index and scratch-reuse paths well past their design point. Only the
/// single-round benchmark runs these — the saturated re-offer and
/// full-sim benchmarks stay at the tracked scales.
const OFFER_ROUND_EXTRA_SCALES: [u32; 2] = [20_000, 50_000];

fn backlogged_scheduler(slots: u32) -> TaskScheduler {
    let mut sched = TaskScheduler::new(
        ClusterSpec::with_racks(slots / 4, 4, 20).expect("valid"),
        LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
        Box::new(WorkConserving),
        Box::new(FifoPriority),
    );
    let job = JobSpecBuilder::new("big")
        .priority(Priority::new(5))
        .stage("map", slots * 2, constant(1.0))
        .build()
        .expect("valid");
    sched.submit(job, SimTime::ZERO);
    sched
}

/// One offer round that fills the whole cluster from a backlogged job —
/// `slots` assignment decisions in a single `resource_offers` call.
fn bench_offer_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/offer_round");
    for &slots in SCALES.iter().chain(&OFFER_ROUND_EXTRA_SCALES) {
        group.bench_with_input(BenchmarkId::from_parameter(slots), &slots, |b, &slots| {
            b.iter_batched(
                || backlogged_scheduler(slots),
                |mut sched| black_box(sched.resource_offers(SimTime::ZERO).len()),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Candidate jobs in the contended offer round: about as many as a
/// Fig. 15 SSR round ranks.
const CONTENDED_JOBS: u32 = 150;

/// A scheduler holding [`CONTENDED_JOBS`] jobs whose downstream phase is
/// ready but on locality wait: each prefers the slot its upstream task
/// ran on, which a high-priority filler job now occupies, and the one
/// free slot is remote. Every offer round at `t` then tries and declines
/// all of them.
fn contended_scheduler(t: SimTime) -> TaskScheduler {
    let mut sched = TaskScheduler::new(
        ClusterSpec::new(CONTENDED_JOBS + 1, 1).expect("valid"),
        LocalityModel::paper_simulation().with_wait(SimDuration::from_secs(3)),
        Box::new(WorkConserving),
        Box::new(FifoPriority),
    );
    for i in 0..CONTENDED_JOBS {
        let job = JobSpecBuilder::new(format!("bg{i}"))
            .stage("up", 1, constant(1.0))
            .stage("down", 1, constant(1.0))
            .chain()
            .build()
            .expect("valid");
        sched.submit(job, SimTime::ZERO);
    }
    let ups = sched.resource_offers(SimTime::ZERO);
    assert_eq!(ups.len(), CONTENDED_JOBS as usize);
    for a in &ups {
        sched.task_finished(a.slot, t);
    }
    let filler = JobSpecBuilder::new("filler")
        .priority(Priority::new(10))
        .stage("map", CONTENDED_JOBS, constant(1.0))
        .build()
        .expect("valid");
    sched.submit(filler, t);
    assert_eq!(sched.resource_offers(t).len(), CONTENDED_JOBS as usize);
    // One free slot, every downstream phase pending, none may take it.
    assert_eq!(sched.slot_pool().free_slots().count(), 1);
    assert_eq!(sched.jobs().pending_ids().count(), CONTENDED_JOBS as usize);
    assert!(sched.resource_offers(t).is_empty());
    sched
}

/// An offer round with one free slot and [`CONTENDED_JOBS`] candidates
/// that all decline it on locality wait: one ranking of the candidates
/// plus one failed attempt each.
fn bench_offer_round_contended(c: &mut Criterion) {
    let t = SimTime::from_secs(1);
    c.bench_function("scheduler/offer_round_contended", |b| {
        let mut sched = contended_scheduler(t);
        b.iter(|| black_box(sched.resource_offers(t).len()))
    });
}

/// Tasks per phase of the foreground job in the preferred-slot round:
/// half of the paper's 4000 slots.
const PREFERRED_PAR: u32 = 2_000;

/// The `paper_scale` shape at the moment a barrier clears: 1000 nodes x
/// 4 slots under SSR, a background job holding the 2,000 slots the
/// foreground job did not, and the foreground's downstream phase ready,
/// preferring the 2,000 slots its upstream ran on and owning a
/// reservation on each. No slot is free.
fn preferred_scheduler() -> TaskScheduler {
    let mut sched = TaskScheduler::new(
        ClusterSpec::with_racks(1000, 4, 20).expect("valid"),
        LocalityModel::paper_simulation(),
        Box::new(ssr_core::SpeculativeReservation::new()),
        Box::new(FifoPriority),
    );
    let fg = JobSpecBuilder::new("fg")
        .priority(Priority::new(10))
        .stage("up", PREFERRED_PAR, constant(1.0))
        .stage("down", PREFERRED_PAR, constant(1.0))
        .chain()
        .build()
        .expect("valid");
    let fg = sched.submit(fg, SimTime::ZERO);
    let bg = JobSpecBuilder::new("bg")
        .stage("map", 3 * PREFERRED_PAR, constant(30.0))
        .build()
        .expect("valid");
    sched.submit(bg, SimTime::ZERO);
    let ups = sched.resource_offers(SimTime::ZERO);
    assert_eq!(ups.len(), 2 * PREFERRED_PAR as usize, "the cluster saturates");
    let t = SimTime::from_secs(1);
    for a in ups.iter().filter(|a| a.instance.task.job == fg) {
        sched.task_finished(a.slot, t);
    }
    let down = sched.jobs().get(fg).and_then(|j| j.taskset(StageId::new(1))).expect("ready");
    assert_eq!(down.preferred().len(), PREFERRED_PAR as usize);
    assert_eq!(sched.slot_pool().counts(), (0, PREFERRED_PAR as usize, PREFERRED_PAR as usize));
    assert_eq!(sched.slot_pool().reserved_for(fg).count(), PREFERRED_PAR as usize);
    sched
}

/// One saturated offer round in which the ready phase takes all 2,000 of
/// its reservations: 2,000 decisions, each ranking the phase's reserved
/// slots and scanning its preferred ones.
fn bench_offer_round_preferred(c: &mut Criterion) {
    let t = SimTime::from_secs(1);
    c.bench_function("scheduler/offer_round_preferred", |b| {
        b.iter_batched(
            preferred_scheduler,
            |mut sched| {
                let placed = sched.resource_offers(t).len();
                assert_eq!(placed, PREFERRED_PAR as usize, "every reservation is taken");
                black_box(placed)
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

/// Candidate jobs in the approval-walk round.
const WALK_CANDIDATES: u32 = 100;

/// A saturated cluster under timeout reservation holding `groups`
/// reservation groups: `groups` high-priority jobs each run one task and
/// hold one reserved slot, with their downstream phase behind its
/// barrier. [`WALK_CANDIDATES`] low-priority jobs wait with one pending
/// task each, and no group approves any of them.
fn approval_walk_scheduler(groups: u32, t: SimTime) -> TaskScheduler {
    let mut sched = TaskScheduler::new(
        ClusterSpec::new(2 * groups, 1).expect("valid"),
        LocalityModel::paper_simulation(),
        Box::new(TimeoutReservation::new(SimDuration::from_secs(1_000_000))),
        Box::new(FifoPriority),
    );
    for i in 0..groups {
        let holder = JobSpecBuilder::new(format!("holder{i}"))
            .priority(Priority::new(10))
            .stage("up", 2, constant(1.0))
            .stage("down", 1, constant(1.0))
            .chain()
            .build()
            .expect("valid");
        sched.submit(holder, SimTime::ZERO);
    }
    for i in 0..WALK_CANDIDATES {
        let job = JobSpecBuilder::new(format!("bg{i}"))
            .stage("map", 1, constant(1.0))
            .build()
            .expect("valid");
        sched.submit(job, SimTime::ZERO);
    }
    let ups = sched.resource_offers(SimTime::ZERO);
    assert_eq!(ups.len(), 2 * groups as usize, "the holders fill the cluster");
    // One finished task per holder leaves one reserved slot per holder.
    for a in ups.iter().filter(|a| a.instance.task.partition == 0) {
        sched.task_finished(a.slot, t);
    }
    assert_eq!(sched.slot_pool().counts(), (0, groups as usize, groups as usize));
    assert_eq!(sched.slot_pool().reservation_groups().len(), groups as usize);
    assert!(sched.resource_offers(t).is_empty());
    sched
}

/// A saturated offer round with no free slot and `G` reservation groups,
/// none approving the [`WALK_CANDIDATES`] candidates: the viability
/// filter drops them all. Each sits at or below the lowest group
/// priority, so the filter reads that floor instead of walking the
/// groups, and the round costs the same at any `G`.
fn bench_approval_walk(c: &mut Criterion) {
    let t = SimTime::from_secs(1);
    let mut group = c.benchmark_group("scheduler/approval_walk");
    for groups in [8u32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(groups), &groups, |b, &groups| {
            let mut sched = approval_walk_scheduler(groups, t);
            b.iter(|| black_box(sched.resource_offers(t).len()))
        });
    }
    group.finish();
}

/// Free slots at the start of each declined-tail round.
const TAIL_FREE: u32 = 3;

/// [`approval_walk_scheduler`]'s cluster with `free` more slots, left
/// free, and a filler job with one task per free slot. Each offer round
/// starts with free slots, so no candidate is dropped up front: the
/// filler takes them, and the `candidates` low-priority jobs that follow
/// meet a cluster with no free slot and no group that approves them. The
/// filler has the holders' priority, so no group approves it either and
/// its placements rank no reserved slots: what grows with the group count
/// and the candidate count is the tail.
fn declined_tail_scheduler(groups: u32, free: u32, candidates: u32, t: SimTime) -> TaskScheduler {
    let mut sched = TaskScheduler::new(
        ClusterSpec::new(2 * groups + free, 1).expect("valid"),
        LocalityModel::paper_simulation(),
        Box::new(TimeoutReservation::new(SimDuration::from_secs(1_000_000))),
        Box::new(FifoPriority),
    );
    for i in 0..groups {
        let holder = JobSpecBuilder::new(format!("holder{i}"))
            .priority(Priority::new(10))
            .stage("up", 2, constant(1.0))
            .stage("down", 1, constant(1.0))
            .chain()
            .build()
            .expect("valid");
        sched.submit(holder, SimTime::ZERO);
    }
    let ups = sched.resource_offers(SimTime::ZERO);
    assert_eq!(ups.len(), 2 * groups as usize, "the holders take free slots");
    for a in ups.iter().filter(|a| a.instance.task.partition == 0) {
        sched.task_finished(a.slot, t);
    }
    let filler = JobSpecBuilder::new("filler")
        .priority(Priority::new(10))
        .stage("map", free, constant(1.0))
        .build()
        .expect("valid");
    sched.submit(filler, t);
    for i in 0..candidates {
        let job = JobSpecBuilder::new(format!("bg{i}"))
            .stage("map", 1, constant(1.0))
            .build()
            .expect("valid");
        sched.submit(job, t);
    }
    let counts = (free as usize, groups as usize, groups as usize);
    assert_eq!(sched.slot_pool().counts(), counts);
    assert_eq!(declined_tail_round(&mut sched, t), free as usize);
    assert_eq!(sched.slot_pool().counts(), counts);
    sched
}

/// One declined-tail round: the filler takes the free slots and every
/// other candidate declines. The filler's tasks are then crashed and
/// their slots brought back, which returns the scheduler to the state
/// the round began from.
fn declined_tail_round(sched: &mut TaskScheduler, t: SimTime) -> usize {
    let taken: Vec<_> = sched.resource_offers(t).iter().map(|a| a.slot).collect();
    sched.fail_slots(&taken, t, true, "bench");
    sched.restore_slots(&taken, t);
    taken.len()
}

/// An offer round that starts with [`TAIL_FREE`] free slots and runs out
/// of them mid-round, then tries [`WALK_CANDIDATES`] candidates behind
/// `G` reservation groups, none of which approves them: the tail of a
/// saturated round, plus the crash and restore of three slots.
fn bench_declined_tail(c: &mut Criterion) {
    let t = SimTime::from_secs(1);
    let mut group = c.benchmark_group("scheduler/declined_tail");
    for groups in [8u32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(groups), &groups, |b, &groups| {
            let mut sched = declined_tail_scheduler(groups, TAIL_FREE, WALK_CANDIDATES, t);
            b.iter(|| black_box(declined_tail_round(&mut sched, t)))
        });
    }
    group.finish();
}

/// Reservation groups ahead of the pending jobs in the pending round.
const PENDING_GROUPS: u32 = 8;

/// Free slots at the start of each pending round.
const PENDING_FREE: u32 = 2;

/// A declined-tail round at a fixed [`PENDING_GROUPS`] groups and
/// [`PENDING_FREE`] free slots, with `P` pending jobs that no group
/// approves behind the filler: what grows is the pending set a round
/// must get through once its free slots are gone.
fn bench_pending_round(c: &mut Criterion) {
    let t = SimTime::from_secs(1);
    let mut group = c.benchmark_group("scheduler/pending_round");
    for pending in [100u32, 1_000, 4_000] {
        group.bench_with_input(BenchmarkId::from_parameter(pending), &pending, |b, &pending| {
            let mut sched = declined_tail_scheduler(PENDING_GROUPS, PENDING_FREE, pending, t);
            b.iter(|| black_box(declined_tail_round(&mut sched, t)))
        });
    }
    group.finish();
}

/// 1000 nodes x 4 slots, a phase preferring the 2,000 slots its upstream
/// ran on, all of them now taken by a higher-priority filler, and the one
/// free slot elsewhere. The phase is on locality wait, so each offer
/// round tries it at process-local only and declines.
fn process_local_scheduler(t: SimTime) -> TaskScheduler {
    let mut sched = TaskScheduler::new(
        ClusterSpec::with_racks(1000, 4, 20).expect("valid"),
        LocalityModel::paper_simulation().with_wait(SimDuration::from_secs(3)),
        Box::new(WorkConserving),
        Box::new(FifoPriority),
    );
    let fg = JobSpecBuilder::new("fg")
        .priority(Priority::new(10))
        .stage("up", PREFERRED_PAR, constant(1.0))
        .stage("down", 1, constant(1.0))
        .chain()
        .build()
        .expect("valid");
    let fg = sched.submit(fg, SimTime::ZERO);
    let bg = JobSpecBuilder::new("bg")
        .stage("map", PREFERRED_PAR, constant(30.0))
        .build()
        .expect("valid");
    let bg = sched.submit(bg, SimTime::ZERO);
    let ups = sched.resource_offers(SimTime::ZERO);
    assert_eq!(ups.len(), 2 * PREFERRED_PAR as usize, "the cluster saturates");
    for a in ups.iter().filter(|a| a.instance.task.job == fg) {
        sched.task_finished(a.slot, t);
    }
    let bg_slot = ups.iter().find(|a| a.instance.task.job == bg).expect("bg runs").slot;
    sched.task_finished(bg_slot, t);
    let filler = JobSpecBuilder::new("filler")
        .priority(Priority::new(20))
        .stage("map", PREFERRED_PAR, constant(30.0))
        .build()
        .expect("valid");
    sched.submit(filler, t);
    assert_eq!(sched.resource_offers(t).len(), PREFERRED_PAR as usize);
    let down = sched.jobs().get(fg).and_then(|j| j.taskset(StageId::new(1))).expect("ready");
    assert_eq!(down.preferred().len(), PREFERRED_PAR as usize);
    assert_eq!(sched.slot_pool().free_slots().collect::<Vec<_>>(), vec![bg_slot]);
    assert!(!down.preferred().contains(&bg_slot));
    assert!(sched.resource_offers(t).is_empty());
    sched
}

/// An offer round whose one candidate searches its 2,000 preferred slots
/// for a free one and finds none: one process-local search per call.
fn bench_process_local(c: &mut Criterion) {
    let t = SimTime::from_secs(1);
    c.bench_function("scheduler/process_local/4000", |b| {
        let mut sched = process_local_scheduler(t);
        b.iter(|| black_box(sched.resource_offers(t).len()))
    });
}

/// Reservations the holder keeps in the reserved-ranking round.
const RANKED_RESERVED: u32 = 2_000;

/// 1000 nodes x 4 slots under timeout reservation, no slot free. A
/// holder's downstream phase runs its one task, and the holder keeps
/// [`RANKED_RESERVED`] reservations on that phase's other preferred
/// slots (where its upstream ran). A candidate of higher priority, whom
/// the holder's group approves, is on locality wait for the one slot
/// its own upstream ran on, now taken by a higher-priority job. Each
/// offer round ranks the holder's reserved slots for the candidate at
/// process-local and declines.
fn rank_reserved_scheduler(t: SimTime) -> TaskScheduler {
    let mut sched = TaskScheduler::new(
        ClusterSpec::with_racks(1000, 4, 20).expect("valid"),
        LocalityModel::paper_simulation().with_wait(SimDuration::from_secs(3)),
        Box::new(TimeoutReservation::new(SimDuration::from_secs(1_000_000))),
        Box::new(FifoPriority),
    );
    let chain = |name: &str, priority: i32, up: u32| {
        JobSpecBuilder::new(name)
            .priority(Priority::new(priority))
            .stage("up", up, constant(1.0))
            .stage("down", 1, constant(30.0))
            .chain()
            .build()
            .expect("valid")
    };
    let filler = JobSpecBuilder::new("filler")
        .priority(Priority::new(20))
        .stage("map", 4000 - RANKED_RESERVED - 2, constant(30.0))
        .build()
        .expect("valid");
    let filler = sched.submit(filler, SimTime::ZERO);
    let candidate = sched.submit(chain("candidate", 15, 1), SimTime::ZERO);
    let holder = sched.submit(chain("holder", 10, RANKED_RESERVED + 1), SimTime::ZERO);
    let ups = sched.resource_offers(SimTime::ZERO);
    assert_eq!(ups.len(), 4000, "the cluster saturates");
    for a in ups.iter().filter(|a| a.instance.task.job != filler) {
        sched.task_finished(a.slot, t);
    }
    // A higher-priority arrival takes the candidate's reserved slot, the
    // lowest reserved id; the holder's downstream takes one of its own.
    let late = JobSpecBuilder::new("late")
        .priority(Priority::new(20))
        .stage("map", 1, constant(30.0))
        .build()
        .expect("valid");
    sched.submit(late, t);
    assert_eq!(sched.resource_offers(t).len(), 2);
    let down = sched.jobs().get(candidate).and_then(|j| j.taskset(StageId::new(1)));
    assert_eq!(down.expect("ready").preferred().len(), 1);
    assert_eq!(sched.slot_pool().counts(), (0, 4000 - RANKED_RESERVED as usize, 2000));
    assert_eq!(sched.slot_pool().reserved_for(holder).count(), RANKED_RESERVED as usize);
    let scanned = sched.work_counters().slots_scanned.get();
    assert!(sched.resource_offers(t).is_empty());
    let scanned = sched.work_counters().slots_scanned.get() - scanned;
    // Every reserved slot, plus the one preferred slot of the free search.
    assert_eq!(scanned, u64::from(RANKED_RESERVED) + 1, "the round ranks the reserved slots");
    sched
}

/// An offer round whose one candidate ranks the holder's 2,000 reserved
/// slots, finds none it may use at process-local, and declines: one
/// reserved-slot ranking per call.
fn bench_rank_reserved(c: &mut Criterion) {
    let t = SimTime::from_secs(1);
    c.bench_function("scheduler/rank_reserved/4000", |b| {
        let mut sched = rank_reserved_scheduler(t);
        b.iter(|| black_box(sched.resource_offers(t).len()))
    });
}

/// A re-offer round on an already saturated cluster: the scheduler must
/// conclude "nothing to do" — the old engine paid a full slot scan per
/// backlogged job to learn that.
fn bench_saturated_reoffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/saturated_reoffer");
    for &slots in &SCALES {
        group.bench_with_input(BenchmarkId::from_parameter(slots), &slots, |b, &slots| {
            let mut sched = backlogged_scheduler(slots);
            assert_eq!(sched.resource_offers(SimTime::ZERO).len(), slots as usize);
            b.iter(|| black_box(sched.resource_offers(SimTime::ZERO).len()))
        });
    }
    group.finish();
}

/// Offer rounds each scheduler of [`bench_task_lifecycle`] serves.
const LIFECYCLE_ROUNDS: u32 = 8;

/// `slots` slots and one job whose first phase has a task per slot for
/// one more round than [`LIFECYCLE_ROUNDS`], so no round's finishes
/// complete it.
fn lifecycle_scheduler(slots: u32) -> TaskScheduler {
    let mut sched = TaskScheduler::new(
        ClusterSpec::with_racks(slots / 4, 4, 20).expect("valid"),
        LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
        Box::new(WorkConserving),
        Box::new(FifoPriority),
    );
    let job = JobSpecBuilder::new("long")
        .stage("map", slots * (LIFECYCLE_ROUNDS + 1), constant(1.0))
        .stage("reduce", 1, constant(1.0))
        .chain()
        .build()
        .expect("valid");
    sched.submit(job, SimTime::ZERO);
    sched
}

/// A task's launch, finish and re-offer, in ns per task: each round
/// launches a task on every slot into a reused buffer, then finishes them
/// all, so the next round re-offers every slot. One warm-up round per
/// fresh scheduler is not timed. This is the `task_finished` layer row.
fn bench_task_lifecycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/task_lifecycle");
    for slots in [100u32, 4_000] {
        group.bench_with_input(BenchmarkId::from_parameter(slots), &slots, |b, &slots| {
            let mut round = Vec::new();
            b.iter_custom(|tasks| {
                let (mut elapsed, mut done) = (Duration::ZERO, 0u64);
                while done < tasks {
                    let mut sched = lifecycle_scheduler(slots);
                    for r in 0..=LIFECYCLE_ROUNDS {
                        let now = SimTime::from_secs(u64::from(r));
                        let started = Instant::now();
                        sched.resource_offers_into(now, &mut round);
                        for a in &round {
                            sched.task_finished(a.slot, now);
                        }
                        if r > 0 {
                            elapsed += started.elapsed();
                            done += round.len() as u64;
                        }
                    }
                }
                // Scaled to the `tasks` asked for: the last scheduler's
                // rounds may run past them.
                elapsed.mul_f64(tasks as f64 / done as f64)
            })
        });
    }
    group.finish();
}

/// Full small-grid simulation: a contended foreground/background mix on a
/// 100-slot cluster, end to end through the event loop.
fn bench_full_sim_small_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/full_small_grid_100slots");
    for (name, policy) in [
        ("work_conserving", PolicyConfig::WorkConserving),
        ("ssr", PolicyConfig::ssr_strict()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(small_grid_simulation(policy.clone()).run().makespan_secs))
        });
    }
    group.finish();
}

/// The small-grid mix: a two-stage foreground job against a 400-task
/// background job on 100 slots, at seed 7.
fn small_grid_simulation(policy: PolicyConfig) -> Simulation {
    let fg = JobSpecBuilder::new("fg")
        .priority(Priority::new(10))
        .stage("up", 40, pareto(1.0, 1.6))
        .stage("down", 40, pareto(1.0, 1.6))
        .chain()
        .build()
        .expect("valid");
    let bg = JobSpecBuilder::new("bg")
        .priority(Priority::new(0))
        .stage("map", 400, constant(5.0))
        .build()
        .expect("valid");
    Simulation::new(
        SimConfig::new(ClusterSpec::with_racks(25, 4, 20).expect("valid")).with_seed(7),
        policy,
        OrderConfig::FifoPriority,
        vec![fg, bg],
    )
}

/// The decision events of the small-grid mix under SSR, so the trace
/// rows see a real run's event mix.
fn recorded_events() -> Vec<TraceEvent> {
    let (_, sink) = small_grid_simulation(PolicyConfig::ssr_strict())
        .with_trace_sink(Box::new(VecSink::new()))
        .run_traced();
    sink.expect("sink attached")
        .into_any()
        .downcast::<VecSink>()
        .expect("a VecSink")
        .into_events()
}

/// Trace emission and reading, per recorded stream: `JsonlSink`
/// rendering every event of [`recorded_events`], and `parse_trace`
/// reading the document back. Divide by the stream's event count for ns
/// per event.
fn bench_trace_codec(c: &mut Criterion) {
    let events = recorded_events();
    let mut sink = JsonlSink::new();
    for e in &events {
        sink.record(e);
    }
    let doc = sink.finish();
    assert_eq!(parse_trace(&doc).expect("writer output parses").events, events);
    c.bench_function("trace/jsonl_record", |b| {
        b.iter(|| {
            let mut sink = JsonlSink::new();
            for e in &events {
                sink.record(e);
            }
            black_box(sink.finish().len())
        })
    });
    c.bench_function("trace/parse", |b| {
        b.iter(|| black_box(parse_trace(&doc).map(|t| t.events.len())))
    });
}

/// Event-queue push/pop throughput, including the recycled-allocation
/// path (`reset` keeps the heap buffer across trials).
fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("push_pop_10k_fresh", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for i in 0..10_000u64 {
                q.push(SimTime::from_micros((i * 2_654_435_761) % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
    group.bench_function("push_pop_10k_recycled", |b| {
        let mut q = EventQueue::with_capacity(10_000);
        b.iter(|| {
            q.reset();
            for i in 0..10_000u64 {
                q.push(SimTime::from_micros((i * 2_654_435_761) % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_offer_round,
    bench_offer_round_contended,
    bench_offer_round_preferred,
    bench_approval_walk,
    bench_declined_tail,
    bench_pending_round,
    bench_process_local,
    bench_rank_reserved,
    bench_saturated_reoffer,
    bench_task_lifecycle,
    bench_full_sim_small_grid,
    bench_trace_codec,
    bench_event_queue
);
criterion_main!(benches);
