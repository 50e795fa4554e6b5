//! Differential test of the reservation-group walk.
//!
//! Every shipped policy declares its ApprovalLogic as an `ApprovalRule`,
//! which the scheduler evaluates inline once per reservation group. The
//! same run is repeated behind two forwarding decorators:
//!
//! - one hides the rule, so the group walk asks `approve` through the
//!   vtable (the path a timing decorator takes);
//! - one also reports `approval_is_priority_based() == false`, so the
//!   scheduler asks `approve` once per reserved slot, and answers it with
//!   the `approve` bodies as they read before the rule was stated as
//!   data: the reference, independent of `ApprovalRule`.
//!
//! All three must place the same tasks on the same slots. The two group
//! walks must also write the same trace, byte for byte, and count the
//! same work. The reference writes the same trace except for its offer
//! declines: without group verdicts, a round that starts with no free
//! slot cannot drop the candidates no group approves up front, so the
//! ones the round never reaches are not declined.
//!
//! The random scenarios rarely hold more than a handful of reservation
//! groups at once, so two scripted rounds drive the scheduler directly
//! with twenty groups at mixed priorities, the candidate that owns one of
//! them in the middle of the table, and candidates whose viability walk
//! stops at their first approving group: one under the paper's rule and
//! one with a static pool's group at the end of the table. Two more
//! start with free slots that run out mid-round, leaving two dozen
//! candidates at or below the lowest group priority, which the rule path
//! declines without walking the groups: one under the paper's rule, and
//! one whose lowest group is a static pool at the priority of two
//! candidates, which its `>=` must still serve.

use ssr_cluster::{ClusterSpec, LocalityModel, Reservation, SlotId};
use ssr_core::SsrConfig;
use ssr_dag::{JobId, JobSpec, JobSpecBuilder, Priority, StageId, TaskId};
use ssr_perf::WorkCounters;
use ssr_scheduler::policy::{ApprovalRule, STATIC_POOL_JOB};
use ssr_scheduler::{
    Assignment, FifoPriority, PolicyCtx, PreReserveRequest, ReservationPolicy, SlotDisposition,
    StaticReservation, TaskScheduler, TimeoutReservation,
};
use ssr_sim::{FaultKind, FaultPlan, OrderConfig, PolicyConfig, SimConfig, Simulation};
use ssr_simcore::dist::{constant, uniform};
use ssr_simcore::rng::SimRng;
use ssr_simcore::{SimDuration, SimTime};
use ssr_trace::JsonlSink;

/// Forwards every policy call except `approval_rule`, which it leaves at
/// the default (`None`). With `per_slot` it also denies that approval is
/// priority based and approves by [`reference_approve`].
#[derive(Debug)]
struct Forward {
    inner: Box<dyn ReservationPolicy>,
    per_slot: bool,
}

/// The shipped policies' `approve` bodies before the rule was stated as
/// data: the paper's rule, except that a static pool serves its whole
/// class. Only `StaticReservation` ever reserves for the pool sentinel.
fn reference_approve(r: &Reservation, job: JobId, priority: Priority) -> bool {
    if r.job() == STATIC_POOL_JOB {
        priority >= r.priority()
    } else {
        job == r.job() || priority > r.priority()
    }
}

impl ReservationPolicy for Forward {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_task_completed(
        &mut self,
        ctx: &PolicyCtx<'_>,
        task: TaskId,
        slot: SlotId,
    ) -> SlotDisposition {
        self.inner.on_task_completed(ctx, task, slot)
    }

    fn approve(
        &self,
        ctx: &PolicyCtx<'_>,
        reservation: &Reservation,
        job: JobId,
        priority: Priority,
    ) -> bool {
        if self.per_slot {
            reference_approve(reservation, job, priority)
        } else {
            self.inner.approve(ctx, reservation, job, priority)
        }
    }

    fn approval_is_priority_based(&self) -> bool {
        !self.per_slot && self.inner.approval_is_priority_based()
    }

    fn prereserve(&mut self, ctx: &PolicyCtx<'_>, task: TaskId) -> Option<PreReserveRequest> {
        self.inner.prereserve(ctx, task)
    }

    fn mitigate_stragglers(&self) -> bool {
        self.inner.mitigate_stragglers()
    }

    fn initial_static_pool(&self, total_slots: u32) -> Option<(u32, Priority)> {
        self.inner.initial_static_pool(total_slots)
    }

    fn static_pool_assigned(&mut self, slots: &[SlotId]) {
        self.inner.static_pool_assigned(slots);
    }

    fn on_stage_ready(&mut self, ctx: &PolicyCtx<'_>, job: JobId, stage: StageId) {
        self.inner.on_stage_ready(ctx, job, stage);
    }

    fn on_job_completed(&mut self, ctx: &PolicyCtx<'_>, job: JobId) {
        self.inner.on_job_completed(ctx, job);
    }
}

/// One random scenario: cluster, jobs, policy, order and fault plan.
struct Case {
    config: SimConfig,
    policy: PolicyConfig,
    order: OrderConfig,
    jobs: Vec<JobSpec>,
}

fn case(seed: u64, policy: usize, order: usize) -> Case {
    let mut rng = SimRng::stream(seed, 0);
    let nodes = 2 + rng.next_below(3) as u32;
    let cluster = ClusterSpec::with_racks(nodes, 1 + rng.next_below(3) as u32, 2).unwrap();
    let jobs = (0..2 + rng.next_below(6))
        .map(|j| {
            let mut b = JobSpecBuilder::new(format!("j{j}"))
                .priority(Priority::new(rng.next_below(4) as i32))
                .arrival(SimTime::from_millis(rng.next_below(20_000)));
            for st in 0..1 + rng.next_below(3) {
                let tasks = 1 + rng.next_below(6) as u32;
                let secs = 0.5 + rng.next_below(40) as f64 / 10.0;
                let duration = if rng.chance(0.5) { constant(secs) } else { uniform(secs, 2.0 * secs) };
                b = b.stage(format!("s{st}"), tasks, duration);
            }
            b.chain().build().unwrap()
        })
        .collect();
    let policy = match policy {
        0 => PolicyConfig::WorkConserving,
        1 => PolicyConfig::Timeout(SimDuration::from_millis(1_000 + rng.next_below(10_000))),
        2 => PolicyConfig::Static {
            count: 1 + rng.next_below(u64::from(cluster.total_slots() / 2)) as u32,
            class: Priority::new(rng.next_below(4) as i32),
        },
        _ => PolicyConfig::Ssr(
            SsrConfig::builder()
                .isolation_target(if rng.chance(0.5) { 1.0 } else { 0.8 })
                .prereserve_threshold(rng.next_below(5) as f64 / 4.0)
                .mitigate_stragglers(rng.chance(0.5))
                .build()
                .unwrap(),
        ),
    };
    let order = match order {
        0 => OrderConfig::FifoPriority,
        1 => OrderConfig::Fair,
        _ => OrderConfig::Fifo,
    };
    let mut faults = FaultPlan::new();
    for _ in 0..rng.next_below(4) {
        let at = SimTime::from_millis(rng.next_below(30_000));
        let node = rng.next_below(u64::from(nodes)) as u32;
        let secs = SimDuration::from_millis(1_000 + rng.next_below(10_000));
        let kind = match rng.next_below(5) {
            0 => FaultKind::NodeCrash { node, down: rng.chance(0.7).then_some(secs) },
            1 => FaultKind::SlotRevocation {
                slot: rng.next_below(u64::from(cluster.total_slots())) as u32,
            },
            2 => FaultKind::NetworkPartition { node, secs },
            3 => FaultKind::StragglerStorm { factor: 2.0, secs },
            _ => FaultKind::ExecutorRestart { node, down: secs, rampup: secs, cold_factor: 1.5 },
        };
        faults.push(at, kind);
    }
    let config = SimConfig::new(cluster)
        .with_locality(
            LocalityModel::paper_simulation()
                .with_wait(SimDuration::from_millis(rng.next_below(4_000))),
        )
        .with_seed(seed)
        .with_faults(faults)
        .with_horizon(SimTime::from_secs(100_000));
    Case { config, policy, order, jobs }
}

/// The whole trace and the work counters of one run.
fn run(case: &Case, policy: Box<dyn ReservationPolicy>) -> (String, WorkCounters) {
    let (report, sink) =
        Simulation::from_policy(case.config.clone(), policy, case.order, case.jobs.clone())
            .with_trace_sink(Box::new(JsonlSink::new()))
            .run_traced();
    let jsonl = sink
        .expect("sink attached")
        .into_any()
        .downcast::<JsonlSink>()
        .expect("JsonlSink recovered")
        .finish();
    (jsonl, report.counters)
}

/// The trace's lines without offer declines and sequence numbers.
fn decisions(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .filter(|line| !line.contains("\"offer-declined\""))
        .map(|line| {
            let seq = line.find(",\"seq\":").expect("every event has a seq");
            let next = line[seq + 1..].find(',').expect("time follows seq") + seq + 1;
            format!("{}{}", &line[..seq], &line[next..])
        })
        .collect()
}

/// The task launches among `decisions`.
fn launches(decisions: &[String]) -> Vec<&String> {
    decisions.iter().filter(|line| line.contains("\"task-launched\"")).collect()
}

fn differential(seed: u64, policy: usize, order: usize) {
    let case = case(seed, policy, order);
    let built = case.policy.build();
    assert!(built.approval_rule().is_some(), "{} declares its rule", built.name());
    let (rule_trace, rule_counters) = run(&case, built);
    let vtable = Forward { inner: case.policy.build(), per_slot: false };
    let (vtable_trace, vtable_counters) = run(&case, Box::new(vtable));
    let per_slot = Forward { inner: case.policy.build(), per_slot: true };
    let (slot_trace, _) = run(&case, Box::new(per_slot));

    let (rule, vtable, slot) =
        (decisions(&rule_trace), decisions(&vtable_trace), decisions(&slot_trace));
    assert!(!launches(&rule).is_empty(), "seed {seed}: the workload runs");
    assert_eq!(launches(&rule), launches(&slot), "seed {seed}: rule vs per-slot assignments");
    assert_eq!(launches(&vtable), launches(&slot), "seed {seed}: vtable vs per-slot assignments");
    assert_eq!(rule, slot, "seed {seed}: rule vs per-slot decisions");
    assert!(rule_trace == vtable_trace, "seed {seed}: rule vs vtable trace bytes");
    assert_eq!(rule_counters, vtable_counters, "seed {seed}: rule vs vtable work counters");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

    /// The inline rule, the vtable group walk and the per-slot reference
    /// agree on every decision under random workloads, fault plans, the
    /// four shipped policies and the three job orders.
    #[test]
    fn approval_paths_agree_under_faults(
        seed in 0u64..1_000_000,
        policy in 0usize..4,
        order in 0usize..3,
    ) {
        differential(seed, policy, order);
    }
}

/// Timeout reservation with a static pool: slots of the pool return to
/// it, every other freed slot is held for its job, and the declared rule
/// is [`ApprovalRule::StaticPoolAtLeast`].
#[derive(Debug)]
struct PooledTimeout {
    timeout: TimeoutReservation,
    pool: StaticReservation,
}

impl ReservationPolicy for PooledTimeout {
    fn name(&self) -> &'static str {
        "pooled-timeout"
    }

    fn approval_rule(&self) -> Option<ApprovalRule> {
        Some(ApprovalRule::StaticPoolAtLeast)
    }

    fn on_task_completed(
        &mut self,
        ctx: &PolicyCtx<'_>,
        task: TaskId,
        slot: SlotId,
    ) -> SlotDisposition {
        if self.pool.pool_slots().contains(&slot) {
            self.pool.on_task_completed(ctx, task, slot)
        } else {
            self.timeout.on_task_completed(ctx, task, slot)
        }
    }

    fn initial_static_pool(&self, total_slots: u32) -> Option<(u32, Priority)> {
        self.pool.initial_static_pool(total_slots)
    }

    fn static_pool_assigned(&mut self, slots: &[SlotId]) {
        self.pool.static_pool_assigned(slots);
    }
}

/// Reservation holders in the scripted rounds: one group each.
const HOLDERS: u64 = 20;
/// The holder that keeps a pending task: its group sits mid-table.
const MID_OWNER: JobId = JobId::new(10);

/// One scripted round under `policy`, with its decision trace and work
/// counters. `HOLDERS` jobs fill a cluster of two slots per holder (plus
/// `pool` static-pool slots); each finishes one task and holds that slot
/// at its own priority. `MID_OWNER`, the lowest priority, has a third
/// task still pending and holds both its slots. Twelve one-task jobs at
/// priorities 0..=11 then arrive, and one offer round runs with no free
/// slot.
fn scripted_round(
    policy: Box<dyn ReservationPolicy>,
    pool: u32,
) -> (Vec<Assignment>, String, WorkCounters) {
    let now = SimTime::from_secs(1);
    let mut sched = TaskScheduler::new(
        ClusterSpec::new(2 * HOLDERS as u32 + pool, 1).unwrap(),
        LocalityModel::paper_simulation(),
        policy,
        Box::new(FifoPriority),
    )
    .with_trace_sink(Box::new(JsonlSink::new()));
    for i in 0..HOLDERS {
        let mid = JobId::new(i) == MID_OWNER;
        let holder = JobSpecBuilder::new(format!("holder{i}"))
            .priority(Priority::new(if mid { 0 } else { 1 + (i as i32 * 7) % 9 }))
            .stage("up", if mid { 3 } else { 2 }, constant(1.0))
            .stage("down", 1, constant(1.0))
            .chain()
            .build()
            .unwrap();
        assert_eq!(sched.submit(holder, SimTime::ZERO), JobId::new(i));
    }
    let ups = sched.resource_offers(SimTime::ZERO);
    assert_eq!(ups.len(), 2 * HOLDERS as usize, "the holders fill the free slots");
    for a in
        ups.iter().filter(|a| a.instance.task.partition == 0 || a.instance.task.job == MID_OWNER)
    {
        sched.task_finished(a.slot, now);
    }
    for (i, p) in [5, 0, 9, 2, 11, 4, 1, 7, 3, 10, 6, 8].into_iter().enumerate() {
        let job = JobSpecBuilder::new(format!("c{i}"))
            .priority(Priority::new(p))
            .stage("map", 1, constant(1.0))
            .build()
            .unwrap();
        sched.submit(job, now);
    }

    // The table the round starts from: twenty job groups (and the pool's
    // at the end), the mid owner's in the middle, no free slot.
    let groups = sched.slot_pool().reservation_groups().to_vec();
    assert_eq!(groups.len(), HOLDERS as usize + usize::from(pool > 0));
    let mid = groups.iter().position(|g| g.0 == MID_OWNER).expect("the mid owner holds a group");
    assert!((5..15).contains(&mid), "own group at {mid} of {}", groups.len());
    assert!(sched.jobs().get(MID_OWNER).unwrap().has_pending_tasks());
    assert_eq!(sched.slot_pool().counts().0, 0);
    // Some newcomer's viability walk stops at an approving group before
    // the table's end, and some newcomer is approved by no job group.
    let first_approving = |p: i32| {
        groups.iter().position(|&(owner, rprio, _)| {
            reference_approve(&Reservation::new(owner, rprio), JobId::new(99), Priority::new(p))
        })
    };
    assert!((0..12).any(|p| first_approving(p).is_some_and(|i| i + 1 < groups.len())));
    assert!((0..12).any(|p| first_approving(p).is_none_or(|i| groups[i].0 == STATIC_POOL_JOB)));

    let placed = sched.resource_offers(now);
    let jsonl = sched
        .take_trace_sink()
        .expect("sink attached")
        .into_any()
        .downcast::<JsonlSink>()
        .expect("JsonlSink recovered")
        .finish();
    (placed, jsonl, sched.work_counters().clone())
}

/// Runs [`scripted_round`] under the declared rule, the vtable walk and
/// the per-slot reference: the same placements everywhere, and the two
/// group walks write the same trace and count the same work.
fn scripted_differential(build: fn() -> Box<dyn ReservationPolicy>, pool: u32) {
    assert!(build().approval_rule().is_some());
    let (rule, rule_trace, rule_counters) = scripted_round(build(), pool);
    let (vtable, vtable_trace, vtable_counters) =
        scripted_round(Box::new(Forward { inner: build(), per_slot: false }), pool);
    let (slot, _, _) = scripted_round(Box::new(Forward { inner: build(), per_slot: true }), pool);
    assert!(rule.len() >= 8, "the round places tasks: {rule:?}");
    assert!(rule.iter().any(|a| a.instance.task.job == MID_OWNER), "the mid owner places");
    assert_eq!(rule, slot, "rule vs per-slot placements");
    assert_eq!(vtable, slot, "vtable vs per-slot placements");
    assert!(rule_trace == vtable_trace, "rule vs vtable trace bytes");
    assert_eq!(rule_counters, vtable_counters, "rule vs vtable work counters");
}

#[test]
fn many_groups_agree_when_the_viability_walk_stops_early() {
    scripted_differential(
        || Box::new(TimeoutReservation::new(SimDuration::from_secs(1_000_000))),
        0,
    );
}

#[test]
fn many_groups_and_a_static_pool_agree() {
    scripted_differential(
        || {
            Box::new(PooledTimeout {
                timeout: TimeoutReservation::new(SimDuration::from_secs(1_000_000)),
                pool: StaticReservation::new(3, Priority::new(3)),
            })
        },
        3,
    );
}

/// Free slots at the start of [`declined_tail_round`].
const TAIL_FREE: u32 = 3;
/// Holders in [`declined_tail_round`]: one group each.
const TAIL_HOLDERS: u32 = 8;
/// The static pool's class in [`declined_tail_round`], below every
/// holder's priority, so that it is the lowest group priority when held.
const TAIL_POOL_CLASS: i32 = 4;

/// One offer round that starts with [`TAIL_FREE`] free slots and runs out
/// of them mid-round, under `policy`. [`TAIL_HOLDERS`] holders each hold
/// one reserved slot at priorities 5..=12 (plus `pool` static-pool slots
/// at class [`TAIL_POOL_CLASS`]). The round's candidates: three jobs at
/// priority 20 take the free slots; two at the pool's class come next,
/// approved by the pool's `>=` only; then 24 at priorities 0..=3, which
/// own nothing and which the lowest group priority rules out, decline.
fn declined_tail_round(
    policy: Box<dyn ReservationPolicy>,
    pool: u32,
) -> (Vec<Assignment>, String, WorkCounters) {
    let now = SimTime::from_secs(1);
    let mut sched = TaskScheduler::new(
        ClusterSpec::new(2 * TAIL_HOLDERS + pool + TAIL_FREE, 1).unwrap(),
        LocalityModel::paper_simulation(),
        policy,
        Box::new(FifoPriority),
    )
    .with_trace_sink(Box::new(JsonlSink::new()));
    for i in 0..TAIL_HOLDERS {
        let holder = JobSpecBuilder::new(format!("holder{i}"))
            .priority(Priority::new(5 + (i as i32 * 3) % 8))
            .stage("up", 2, constant(1.0))
            .stage("down", 1, constant(1.0))
            .chain()
            .build()
            .unwrap();
        sched.submit(holder, SimTime::ZERO);
    }
    let ups = sched.resource_offers(SimTime::ZERO);
    assert_eq!(ups.len(), 2 * TAIL_HOLDERS as usize, "the holders take free slots only");
    for a in ups.iter().filter(|a| a.instance.task.partition == 0) {
        sched.task_finished(a.slot, now);
    }
    let priorities = [20, 20, 20, TAIL_POOL_CLASS, TAIL_POOL_CLASS]
        .into_iter()
        .chain((0..24).map(|i| (i * 7) % 4));
    for (i, p) in priorities.enumerate() {
        let job = JobSpecBuilder::new(format!("c{i}"))
            .priority(Priority::new(p))
            .stage("map", 1, constant(1.0))
            .build()
            .unwrap();
        sched.submit(job, now);
    }

    let pool_view = sched.slot_pool();
    assert_eq!(pool_view.counts().0, TAIL_FREE as usize, "the round starts with free slots");
    let groups = pool_view.reservation_groups();
    assert_eq!(groups.len(), TAIL_HOLDERS as usize + usize::from(pool > 0));
    let lowest = if pool > 0 { TAIL_POOL_CLASS } else { 5 };
    assert_eq!(pool_view.lowest_group_priority(), Some(Priority::new(lowest)));
    assert_eq!(groups.iter().map(|g| g.1).min(), Some(Priority::new(lowest)));

    let placed = sched.resource_offers(now);
    let jsonl = sched
        .take_trace_sink()
        .expect("sink attached")
        .into_any()
        .downcast::<JsonlSink>()
        .expect("JsonlSink recovered")
        .finish();
    (placed, jsonl, sched.work_counters().clone())
}

/// Runs [`declined_tail_round`] under the declared rule, the vtable walk
/// and the per-slot reference. Every candidate is tried (the round starts
/// with free slots, so none is dropped up front), so all three write the
/// same trace; the two group walks also count the same work. Returns the
/// placements.
fn declined_tail_differential(
    build: fn() -> Box<dyn ReservationPolicy>,
    pool: u32,
) -> Vec<Assignment> {
    assert!(build().approval_rule().is_some());
    let (rule, rule_trace, rule_counters) = declined_tail_round(build(), pool);
    let (vtable, vtable_trace, vtable_counters) =
        declined_tail_round(Box::new(Forward { inner: build(), per_slot: false }), pool);
    let (slot, slot_trace, _) =
        declined_tail_round(Box::new(Forward { inner: build(), per_slot: true }), pool);
    assert_eq!(rule, slot, "rule vs per-slot placements");
    assert_eq!(vtable, slot, "vtable vs per-slot placements");
    assert!(rule_trace == vtable_trace, "rule vs vtable trace bytes");
    assert!(rule_trace == slot_trace, "rule vs per-slot trace bytes");
    assert_eq!(rule_counters, vtable_counters, "rule vs vtable work counters");
    let declined = rule_trace.lines().filter(|l| l.contains("\"offer-declined\"")).count();
    assert!(declined >= 24, "the tail declines: {declined}");
    assert!(rule_trace.contains("\"reason\":\"reservation-denied\""));
    rule
}

#[test]
fn a_declined_tail_agrees_under_the_paper_rule() {
    let placed = declined_tail_differential(
        || Box::new(TimeoutReservation::new(SimDuration::from_secs(1_000_000))),
        0,
    );
    // Only the free slots are taken: no group approves priority 4 or less.
    assert_eq!(placed.len(), TAIL_FREE as usize, "{placed:?}");
}

#[test]
fn a_declined_tail_agrees_at_the_static_pool_boundary() {
    let placed = declined_tail_differential(
        || {
            Box::new(PooledTimeout {
                timeout: TimeoutReservation::new(SimDuration::from_secs(1_000_000)),
                pool: StaticReservation::new(2, Priority::new(TAIL_POOL_CLASS)),
            })
        },
        2,
    );
    // The free slots, then the pool's two slots to the candidates at its
    // class: the floor equals their priority and must not rule them out.
    assert_eq!(placed.len(), TAIL_FREE as usize + 2, "{placed:?}");
}
