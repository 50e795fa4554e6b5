//! The reservation-policy seam (the paper's *ApprovalLogic* plus
//! `HandleTaskCompletion`) and the §III-A naive baselines.
//!
//! A [`ReservationPolicy`] decides, at every task completion, whether the
//! freed slot is **released** to the cluster or **reserved** for the job's
//! downstream computation, and — at every resource offer — whether an
//! assignment onto a reserved slot is **approved**. The paper's
//! contribution, speculative slot reservation (Algorithm 1), implements
//! this trait in the `ssr-core` crate; this module provides the trait, the
//! context handed to policies, and three baselines:
//!
//! * [`WorkConserving`] — the status quo: never reserve anything,
//! * [`TimeoutReservation`] — Spark dynamic-allocation style: blindly hold
//!   every freed slot for a fixed timeout,
//! * [`StaticReservation`] — Mesos/Borg style: a fixed pool of slots
//!   permanently set aside for a priority class.

use std::fmt;

use ssr_cluster::{Reservation, SlotId, SlotPool};
use ssr_dag::{JobId, Priority, StageId, TaskId};
use ssr_simcore::{SimDuration, SimTime};

use crate::jobs::Jobs;

/// What to do with a slot freed by a completed task (Algorithm 1, lines
/// 2–17 decide between these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotDisposition {
    /// Return the slot to the cluster (work conservation).
    Release,
    /// Hold the slot under the given reservation.
    Reserve(Reservation),
}

/// A request to opportunistically grab extra slots for an upcoming phase
/// (Algorithm 1, lines 14–17: pre-reservation when the downstream
/// parallelism exceeds the current one).
///
/// Requests are not served immediately: the scheduler queues them (one
/// per `(job, stage)`, later requests overwrite earlier ones) and fills
/// them from free slots at the start of every offer round and after
/// completions. When several jobs have outstanding requests, slots go to
/// the **highest-priority** request first; ties prefer the earlier
/// `deadline` (a request with no deadline sorts after any dated one),
/// then the smaller `(job, stage)` id. A partially-filled request stays
/// queued and keeps its place in that order, so a low-priority job can
/// never starve a later-arriving high-priority one out of pre-reserved
/// slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreReserveRequest {
    /// The requesting job.
    pub job: JobId,
    /// The downstream phase the slots are for.
    pub stage: StageId,
    /// Priority the pre-reserved slots inherit.
    pub priority: Priority,
    /// How many additional slots to acquire (the paper's `n - m`).
    pub extra: u32,
    /// Optional expiry for the pre-reservations.
    pub deadline: Option<SimTime>,
    /// Minimum slot size required (§III-C "right size"; 1 for homogeneous
    /// clusters).
    pub min_size: u32,
}

/// Read-only scheduler state handed to policy callbacks.
#[derive(Debug)]
pub struct PolicyCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The slot pool (states, reservations, indexes).
    pub slots: &'a SlotPool,
    /// All admitted jobs.
    pub jobs: &'a Jobs,
}

/// The pluggable reservation policy — the seam the paper adds to Spark's
/// `TaskSetManager` / `TaskSchedulerImpl` (§V).
pub trait ReservationPolicy: fmt::Debug {
    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Called when `task` completes (or a losing copy is killed), freeing
    /// `slot`; decides whether to release or reserve it. This is the
    /// paper's `HandleTaskCompletion` (Algorithm 1, lines 1–17).
    fn on_task_completed(&mut self, ctx: &PolicyCtx<'_>, task: TaskId, slot: SlotId) -> SlotDisposition;

    /// The ApprovalLogic (Algorithm 1, lines 18–22) stated as data: the
    /// [`ApprovalRule`] every [`approve`](Self::approve) verdict follows,
    /// or `None` when the verdict is computed some other way.
    ///
    /// Declaring a rule lets the scheduler evaluate it inline, once per
    /// `(owner, priority)` reservation group, without calling `approve`.
    /// The scheduler reads it once, when it is built. The default is
    /// `None`; a policy overriding `approve` with slot- or time-dependent
    /// logic must leave it that way.
    fn approval_rule(&self) -> Option<ApprovalRule> {
        None
    }

    /// The ApprovalLogic (Algorithm 1, lines 18–22): may a task of `job`
    /// (at `priority`) be assigned onto a slot held by `reservation`?
    ///
    /// The default evaluates the declared
    /// [`approval_rule`](Self::approval_rule), or the paper's rule
    /// ([`ApprovalRule::OwnerOrAbove`]) when none is declared.
    fn approve(&self, ctx: &PolicyCtx<'_>, reservation: &Reservation, job: JobId, priority: Priority) -> bool {
        let _ = ctx;
        self.approval_rule().unwrap_or(ApprovalRule::OwnerOrAbove).approves(
            reservation.job(),
            reservation.priority(),
            job,
            priority,
        )
    }

    /// `true` iff this policy's [`approve`](Self::approve) verdict is a
    /// pure function of the candidate's `(job, priority)` and the
    /// reservation's `(job, priority)` — it never consults `ctx`, the
    /// specific slot, or any mutable policy state, and the owning job is
    /// always approved on its own reservations.
    ///
    /// Declaring this lets the scheduler evaluate ApprovalLogic once per
    /// `(owner, priority)` reservation *group* instead of once per
    /// reserved slot, and to skip candidates that cannot match any group
    /// when no free slots remain. The default is `true` exactly when an
    /// [`approval_rule`](Self::approval_rule) is declared; otherwise the
    /// scheduler makes one `approve` call per slot.
    fn approval_is_priority_based(&self) -> bool {
        self.approval_rule().is_some()
    }

    /// Called after `task`'s completion was processed; returns a
    /// pre-reservation request if the policy wants extra slots for the
    /// downstream phase (Algorithm 1, lines 14–17). See
    /// [`PreReserveRequest`] for how queued requests compete for free
    /// slots (priority-ordered fill).
    fn prereserve(&mut self, ctx: &PolicyCtx<'_>, task: TaskId) -> Option<PreReserveRequest> {
        let _ = (ctx, task);
        None
    }

    /// `true` if reserved-yet-idle slots should run extra copies of the
    /// phase's ongoing tasks (§IV-C straggler mitigation).
    fn mitigate_stragglers(&self) -> bool {
        false
    }

    /// A fixed slot pool to reserve at scheduler start: `(count,
    /// class_priority)`. Only [`StaticReservation`] uses this.
    fn initial_static_pool(&self, total_slots: u32) -> Option<(u32, Priority)> {
        let _ = total_slots;
        None
    }

    /// Informs the policy which slots form its static pool.
    fn static_pool_assigned(&mut self, slots: &[SlotId]) {
        let _ = slots;
    }

    /// Called when a phase of `job` clears its barrier.
    fn on_stage_ready(&mut self, ctx: &PolicyCtx<'_>, job: JobId, stage: StageId) {
        let _ = (ctx, job, stage);
    }

    /// Called when `job`'s final phase completes.
    fn on_job_completed(&mut self, ctx: &PolicyCtx<'_>, job: JobId) {
        let _ = (ctx, job);
    }
}

/// The sentinel "job" that owns a static reservation pool; no real job
/// ever receives this id.
pub const STATIC_POOL_JOB: JobId = JobId::new(u64::MAX);

/// ApprovalLogic (Algorithm 1, lines 18–22) as data: which candidates
/// may take a slot held by a reservation.
///
/// A rule's verdict depends only on the reservation's `(owner,
/// priority)` and the candidate's `(job, priority)`, so it is uniform
/// over a reservation group and the scheduler can evaluate it inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApprovalRule {
    /// The paper's rule: the owning job may use its own slot; any other
    /// job needs a strictly higher priority than the reservation's.
    OwnerOrAbove,
    /// [`OwnerOrAbove`](Self::OwnerOrAbove), except that a reservation
    /// owned by [`STATIC_POOL_JOB`] serves its whole class: any priority
    /// at or above the reservation's.
    StaticPoolAtLeast,
}

impl ApprovalRule {
    /// May a task of `job` at `priority` take a slot that `owner` holds
    /// at `rprio`?
    #[inline]
    pub fn approves(self, owner: JobId, rprio: Priority, job: JobId, priority: Priority) -> bool {
        match self {
            ApprovalRule::StaticPoolAtLeast if owner == STATIC_POOL_JOB => priority >= rprio,
            _ => job == owner || priority > rprio,
        }
    }

    /// Could any reservation group approve a job that owns none, at
    /// `priority`, when the lowest group priority is `lowest`? `false`
    /// proves every [`approves`](Self::approves) verdict for it false;
    /// `true` means some might hold, and only a walk of the groups
    /// tells which. Both rules are thresholds on priority, so the floor
    /// decides: above it ([`OwnerOrAbove`](Self::OwnerOrAbove)), or at
    /// or above it ([`StaticPoolAtLeast`](Self::StaticPoolAtLeast),
    /// whose static pool serves its own class).
    #[inline]
    pub fn could_approve(self, priority: Priority, lowest: Priority) -> bool {
        match self {
            ApprovalRule::OwnerOrAbove => priority > lowest,
            ApprovalRule::StaticPoolAtLeast => priority >= lowest,
        }
    }
}

/// The status-quo baseline: strictly work conserving, never reserves a
/// slot. This is the configuration under which the paper demonstrates the
/// isolation failure (§II-B).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkConserving;

impl ReservationPolicy for WorkConserving {
    fn name(&self) -> &'static str {
        "work-conserving"
    }

    fn approval_rule(&self) -> Option<ApprovalRule> {
        Some(ApprovalRule::OwnerOrAbove)
    }

    fn on_task_completed(&mut self, _ctx: &PolicyCtx<'_>, _task: TaskId, _slot: SlotId) -> SlotDisposition {
        SlotDisposition::Release
    }
}

/// Timeout-based reservation (§III-A.2, Spark dynamic allocation): every
/// freed slot is *blindly* held for the reserving job for a fixed timeout —
/// even when no downstream computation exists.
#[derive(Debug, Clone, Copy)]
pub struct TimeoutReservation {
    timeout: SimDuration,
}

impl TimeoutReservation {
    /// Creates the policy with the given hold timeout.
    pub fn new(timeout: SimDuration) -> Self {
        TimeoutReservation { timeout }
    }

    /// The hold timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }
}

impl ReservationPolicy for TimeoutReservation {
    fn name(&self) -> &'static str {
        "timeout-reservation"
    }

    fn approval_rule(&self) -> Option<ApprovalRule> {
        Some(ApprovalRule::OwnerOrAbove)
    }

    fn on_task_completed(&mut self, ctx: &PolicyCtx<'_>, task: TaskId, _slot: SlotId) -> SlotDisposition {
        let priority = ctx.jobs.get(task.job).map(|j| j.priority()).unwrap_or_default();
        // Blind: reserves even after the final phase (the inefficiency the
        // paper calls out).
        SlotDisposition::Reserve(Reservation::new(task.job, priority).with_deadline(ctx.now + self.timeout))
    }
}

/// Static slot reservation (§III-A.1, Mesos/Borg): `pool` slots are
/// permanently set aside for jobs of priority ≥ `class`; the pool neither
/// grows under load nor shrinks when idle.
#[derive(Debug, Clone)]
pub struct StaticReservation {
    pool: u32,
    class: Priority,
    pool_slots: Vec<SlotId>,
}

impl StaticReservation {
    /// Reserves `pool` slots for jobs at or above `class`.
    pub fn new(pool: u32, class: Priority) -> Self {
        StaticReservation { pool, class, pool_slots: Vec::new() }
    }

    /// The slots forming the pool (set at scheduler start).
    pub fn pool_slots(&self) -> &[SlotId] {
        &self.pool_slots
    }
}

impl ReservationPolicy for StaticReservation {
    fn name(&self) -> &'static str {
        "static-reservation"
    }

    fn approval_rule(&self) -> Option<ApprovalRule> {
        Some(ApprovalRule::StaticPoolAtLeast)
    }

    fn initial_static_pool(&self, total_slots: u32) -> Option<(u32, Priority)> {
        Some((self.pool.min(total_slots), self.class))
    }

    fn static_pool_assigned(&mut self, slots: &[SlotId]) {
        self.pool_slots = slots.to_vec();
    }

    fn on_task_completed(&mut self, ctx: &PolicyCtx<'_>, _task: TaskId, slot: SlotId) -> SlotDisposition {
        if self.pool_slots.contains(&slot) {
            // Restore the pool reservation once the class task vacates.
            let _ = ctx;
            SlotDisposition::Reserve(Reservation::new(STATIC_POOL_JOB, self.class))
        } else {
            SlotDisposition::Release
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_cluster::ClusterSpec;
    use ssr_dag::JobSpecBuilder;
    use ssr_simcore::dist::constant;

    fn ctx_fixture() -> (SlotPool, Jobs) {
        let slots = SlotPool::new(&ClusterSpec::new(2, 2).unwrap());
        let mut jobs = Jobs::new();
        let spec = JobSpecBuilder::new("j")
            .priority(Priority::new(5))
            .stage("a", 2, constant(1.0))
            .stage("b", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        jobs.insert(crate::jobs::JobState::new(JobId::new(1), spec, SimTime::ZERO));
        (slots, jobs)
    }

    fn task() -> TaskId {
        TaskId::new(JobId::new(1), StageId::new(0), 0)
    }

    #[test]
    fn work_conserving_always_releases() {
        let (slots, jobs) = ctx_fixture();
        let ctx = PolicyCtx { now: SimTime::ZERO, slots: &slots, jobs: &jobs };
        let mut p = WorkConserving;
        assert_eq!(p.on_task_completed(&ctx, task(), SlotId::new(0)), SlotDisposition::Release);
        assert!(!p.mitigate_stragglers());
        assert_eq!(p.name(), "work-conserving");
    }

    #[test]
    fn default_approval_rule() {
        let (slots, jobs) = ctx_fixture();
        let ctx = PolicyCtx { now: SimTime::ZERO, slots: &slots, jobs: &jobs };
        let p = WorkConserving;
        let r = Reservation::new(JobId::new(1), Priority::new(5));
        // Owner may always use its own reservation.
        assert!(p.approve(&ctx, &r, JobId::new(1), Priority::new(5)));
        // Equal priority of another job is refused (Algorithm 1: >=).
        assert!(!p.approve(&ctx, &r, JobId::new(2), Priority::new(5)));
        // Lower priority refused, strictly higher approved.
        assert!(!p.approve(&ctx, &r, JobId::new(2), Priority::new(4)));
        assert!(p.approve(&ctx, &r, JobId::new(2), Priority::new(6)));
    }

    #[test]
    fn timeout_policy_reserves_blindly_with_deadline() {
        let (slots, jobs) = ctx_fixture();
        let now = SimTime::from_secs(10);
        let ctx = PolicyCtx { now, slots: &slots, jobs: &jobs };
        let mut p = TimeoutReservation::new(SimDuration::from_secs(60));
        assert_eq!(p.timeout(), SimDuration::from_secs(60));
        match p.on_task_completed(&ctx, task(), SlotId::new(0)) {
            SlotDisposition::Reserve(r) => {
                assert_eq!(r.job(), JobId::new(1));
                assert_eq!(r.priority(), Priority::new(5));
                assert_eq!(r.deadline(), Some(SimTime::from_secs(70)));
            }
            other => panic!("expected reservation, got {other:?}"),
        }
        // Blind even for the final phase.
        let final_task = TaskId::new(JobId::new(1), StageId::new(1), 0);
        assert!(matches!(p.on_task_completed(&ctx, final_task, SlotId::new(0)), SlotDisposition::Reserve(_)));
    }

    #[test]
    fn static_pool_sizing_and_membership() {
        let mut p = StaticReservation::new(3, Priority::new(10));
        assert_eq!(p.initial_static_pool(100), Some((3, Priority::new(10))));
        assert_eq!(p.initial_static_pool(2), Some((2, Priority::new(10)))); // clamped
        p.static_pool_assigned(&[SlotId::new(0), SlotId::new(1)]);
        assert_eq!(p.pool_slots(), &[SlotId::new(0), SlotId::new(1)]);
    }

    #[test]
    fn static_pool_restores_reservation_on_completion() {
        let (slots, jobs) = ctx_fixture();
        let ctx = PolicyCtx { now: SimTime::ZERO, slots: &slots, jobs: &jobs };
        let mut p = StaticReservation::new(2, Priority::new(10));
        p.static_pool_assigned(&[SlotId::new(0)]);
        match p.on_task_completed(&ctx, task(), SlotId::new(0)) {
            SlotDisposition::Reserve(r) => {
                assert_eq!(r.job(), STATIC_POOL_JOB);
                assert_eq!(r.priority(), Priority::new(10));
                assert_eq!(r.deadline(), None);
            }
            other => panic!("expected pool reservation, got {other:?}"),
        }
        // Non-pool slots are released normally.
        assert_eq!(p.on_task_completed(&ctx, task(), SlotId::new(3)), SlotDisposition::Release);
    }

    #[test]
    fn static_pool_approves_whole_class() {
        let (slots, jobs) = ctx_fixture();
        let ctx = PolicyCtx { now: SimTime::ZERO, slots: &slots, jobs: &jobs };
        let p = StaticReservation::new(2, Priority::new(10));
        let pool_r = Reservation::new(STATIC_POOL_JOB, Priority::new(10));
        assert!(p.approve(&ctx, &pool_r, JobId::new(1), Priority::new(10)));
        assert!(p.approve(&ctx, &pool_r, JobId::new(2), Priority::new(11)));
        assert!(!p.approve(&ctx, &pool_r, JobId::new(2), Priority::new(9)));
        // Ordinary reservations keep the default rule.
        let r = Reservation::new(JobId::new(1), Priority::new(5));
        assert!(!p.approve(&ctx, &r, JobId::new(2), Priority::new(5)));
    }

    #[test]
    fn baselines_declare_priority_based_approval() {
        assert!(WorkConserving.approval_is_priority_based());
        assert!(TimeoutReservation::new(SimDuration::from_secs(1)).approval_is_priority_based());
        assert!(StaticReservation::new(1, Priority::new(1)).approval_is_priority_based());
        assert_eq!(WorkConserving.approval_rule(), Some(ApprovalRule::OwnerOrAbove));
        assert_eq!(
            TimeoutReservation::new(SimDuration::from_secs(1)).approval_rule(),
            Some(ApprovalRule::OwnerOrAbove)
        );
        assert_eq!(StaticReservation::new(1, Priority::new(1)).approval_rule(), Some(ApprovalRule::StaticPoolAtLeast));
    }

    /// The paper's `approve` body as the default implemented it before
    /// the rule was stated as data.
    fn paper_approve(r: &Reservation, job: JobId, priority: Priority) -> bool {
        job == r.job() || priority > r.priority()
    }

    /// `StaticReservation::approve` as it read before the rule was
    /// stated as data.
    fn static_approve(r: &Reservation, job: JobId, priority: Priority) -> bool {
        if r.job() == STATIC_POOL_JOB {
            priority >= r.priority()
        } else {
            job == r.job() || priority > r.priority()
        }
    }

    /// A policy that declares no rule and keeps the default `approve`.
    #[derive(Debug)]
    struct NoRule;

    impl ReservationPolicy for NoRule {
        fn name(&self) -> &'static str {
            "no-rule"
        }

        fn on_task_completed(&mut self, _ctx: &PolicyCtx<'_>, _task: TaskId, _slot: SlotId) -> SlotDisposition {
            SlotDisposition::Release
        }
    }

    #[test]
    fn approval_rule_truth_table_matches_the_approve_bodies() {
        let (slots, jobs) = ctx_fixture();
        let ctx = PolicyCtx { now: SimTime::ZERO, slots: &slots, jobs: &jobs };
        let candidate = JobId::new(1);
        let rprio = Priority::new(5);
        let timeout = TimeoutReservation::new(SimDuration::from_secs(1));
        let pool = StaticReservation::new(1, rprio);
        assert!(!NoRule.approval_is_priority_based());
        assert_eq!(NoRule.approval_rule(), None);
        let mut rows = 0;
        for owner in [candidate, JobId::new(2), STATIC_POOL_JOB] {
            for priority in [Priority::new(4), rprio, Priority::new(6)] {
                let r = Reservation::new(owner, rprio);
                let paper = paper_approve(&r, candidate, priority);
                let class = static_approve(&r, candidate, priority);
                let case = format!("owner {owner:?}, candidate priority {priority:?}");
                assert_eq!(
                    ApprovalRule::OwnerOrAbove.approves(owner, rprio, candidate, priority),
                    paper,
                    "OwnerOrAbove, {case}"
                );
                assert_eq!(
                    ApprovalRule::StaticPoolAtLeast.approves(owner, rprio, candidate, priority),
                    class,
                    "StaticPoolAtLeast, {case}"
                );
                assert_eq!(WorkConserving.approve(&ctx, &r, candidate, priority), paper, "{case}");
                assert_eq!(timeout.approve(&ctx, &r, candidate, priority), paper, "{case}");
                assert_eq!(NoRule.approve(&ctx, &r, candidate, priority), paper, "{case}");
                assert_eq!(pool.approve(&ctx, &r, candidate, priority), class, "{case}");
                rows += 1;
            }
        }
        assert_eq!(rows, 9);
        // The two rules differ only on the pool sentinel at equal priority.
        assert!(!ApprovalRule::OwnerOrAbove.approves(STATIC_POOL_JOB, rprio, candidate, rprio));
        assert!(ApprovalRule::StaticPoolAtLeast.approves(STATIC_POOL_JOB, rprio, candidate, rprio));
    }

    #[test]
    fn the_floor_rules_out_only_candidates_no_group_approves() {
        let candidate = JobId::new(1);
        let lowest = Priority::new(5);
        for rule in [ApprovalRule::OwnerOrAbove, ApprovalRule::StaticPoolAtLeast] {
            for p in 3..9 {
                let priority = Priority::new(p);
                // Every group another owner could hold at or above the floor.
                let any = [JobId::new(2), STATIC_POOL_JOB]
                    .into_iter()
                    .any(|owner| (5..8).any(|r| rule.approves(owner, Priority::new(r), candidate, priority)));
                if !rule.could_approve(priority, lowest) {
                    assert!(!any, "{rule:?} ruled out priority {p}, which a group approves");
                }
            }
        }
        // The boundary: a static pool at the floor serves its own class.
        assert!(!ApprovalRule::OwnerOrAbove.could_approve(lowest, lowest));
        assert!(ApprovalRule::StaticPoolAtLeast.could_approve(lowest, lowest));
        assert!(ApprovalRule::OwnerOrAbove.could_approve(Priority::new(6), lowest));
        assert!(!ApprovalRule::StaticPoolAtLeast.could_approve(Priority::new(4), lowest));
    }
}
