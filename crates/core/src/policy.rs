//! Algorithm 1: speculative slot reservation.

use ssr_cluster::{Reservation, SlotId};
use ssr_dag::{StageId, TaskId};
use ssr_scheduler::{
    ApprovalRule, PolicyCtx, PreReserveRequest, ReservationPolicy, SlotDisposition,
};
use ssr_simcore::SimTime;

use crate::config::SsrConfig;
use crate::deadline::DeadlineModel;

/// The speculative-slot-reservation policy (Algorithm 1 + §IV).
///
/// On every task completion the policy inspects the job's workflow DAG —
/// readily available to the scheduler at submission — and speculates
/// whether the freed slot will shortly be reused by the downstream phase:
///
/// * the task is in the **final phase** → release (lines 2–3),
/// * downstream parallelism `n` unknown, or equal to the current `m` →
///   reserve (lines 7–8),
/// * `m > n` → release the first `m - n` finishers, reserve the rest
///   (lines 9–13),
/// * `m < n` → reserve, and once the completed fraction reaches the
///   threshold `R`, pre-reserve the extra `n - m` slots (lines 14–17).
///
/// Reserved slots inherit the job's priority and are only usable by the
/// reserving job or strictly higher priorities (lines 18–22, the
/// ApprovalLogic). With an isolation target `P < 1`, reservations carry
/// the Eq. 2 deadline; with straggler mitigation enabled, reserved-idle
/// slots run extra copies of ongoing tasks (§IV-C).
#[derive(Debug, Clone)]
pub struct SpeculativeReservation {
    config: SsrConfig,
    deadline: DeadlineModel,
}

impl SpeculativeReservation {
    /// Creates the policy with the paper's default configuration
    /// (strict isolation `P = 1`, `R = 0.5`, no straggler mitigation).
    pub fn new() -> Self {
        SpeculativeReservation::with_config(SsrConfig::default())
    }

    /// Creates the policy from a validated configuration.
    pub fn with_config(config: SsrConfig) -> Self {
        SpeculativeReservation { deadline: DeadlineModel::new(&config), config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SsrConfig {
        &self.config
    }

    /// The first downstream phase of `task`'s stage, used to tag
    /// reservations for stale-cleanup when that phase completes.
    fn downstream_tag(ctx: &PolicyCtx<'_>, task: TaskId) -> Option<StageId> {
        ctx.jobs.get(task.job)?.spec().children(task.stage).first().copied()
    }

    /// The absolute expiry for a reservation made now, per §IV-B.
    fn reservation_deadline(&self, ctx: &PolicyCtx<'_>, task: TaskId) -> Option<SimTime> {
        self.deadline.deadline_for(ctx.jobs.get(task.job)?.taskset(task.stage)?)
    }

    fn reserve_disposition(
        &self,
        ctx: &PolicyCtx<'_>,
        task: TaskId,
        slot: SlotId,
    ) -> SlotDisposition {
        let Some(job) = ctx.jobs.get(task.job) else {
            return SlotDisposition::Release;
        };
        // §III-C: if the slot is too small for the downstream tasks,
        // release it immediately (the right-sized replacement is acquired
        // via `prereserve`).
        if let Some(needed) = job.spec().downstream_demand(task.stage) {
            if ctx.slots.size(slot) < needed {
                return SlotDisposition::Release;
            }
        }
        let mut r = Reservation::new(task.job, job.priority());
        if let Some(stage) = Self::downstream_tag(ctx, task) {
            r = r.with_stage(stage);
        }
        if let Some(deadline) = self.reservation_deadline(ctx, task) {
            r = r.with_deadline(deadline);
        }
        SlotDisposition::Reserve(r)
    }
}

impl Default for SpeculativeReservation {
    fn default() -> Self {
        SpeculativeReservation::new()
    }
}

impl ReservationPolicy for SpeculativeReservation {
    fn name(&self) -> &'static str {
        "speculative-slot-reservation"
    }

    /// Algorithm 1, ApprovalLogic (lines 18–22).
    fn approval_rule(&self) -> Option<ApprovalRule> {
        Some(ApprovalRule::OwnerOrAbove)
    }

    /// Algorithm 1, `HandleTaskCompletion` (lines 1–17).
    fn on_task_completed(
        &mut self,
        ctx: &PolicyCtx<'_>,
        task: TaskId,
        slot: SlotId,
    ) -> SlotDisposition {
        let Some(job) = ctx.jobs.get(task.job) else {
            return SlotDisposition::Release;
        };
        let spec = job.spec();
        // Foreground opt-in: below the reservation threshold, behave
        // work-conserving (the paper's deployment model).
        if self.config.min_priority().is_some_and(|t| job.priority().level() < t) {
            return SlotDisposition::Release;
        }
        // Lines 2-3: final phase -> release.
        if spec.is_final(task.stage) {
            return SlotDisposition::Release;
        }
        let m = u64::from(spec.stage(task.stage).parallelism());
        match spec.downstream_parallelism(task.stage) {
            // Lines 7-8: n unavailable (Case 1) or unchanged (Case 2.1).
            None => self.reserve_disposition(ctx, task, slot),
            Some(n) if n == m => self.reserve_disposition(ctx, task, slot),
            // Lines 9-13 (Case 2.2): release the first m-n finishers.
            Some(n) if n < m => {
                let finished = u64::from(job.completed_tasks(task.stage));
                if finished <= m - n {
                    SlotDisposition::Release
                } else {
                    self.reserve_disposition(ctx, task, slot)
                }
            }
            // Lines 14-15 (Case 2.3): n > m -> reserve; pre-reservation is
            // requested separately via `prereserve`.
            Some(_) => self.reserve_disposition(ctx, task, slot),
        }
    }

    /// Algorithm 1, lines 16-17: once the completed fraction of the
    /// current phase reaches `R` and the downstream phase is wider,
    /// request the extra `n - m` slots.
    fn prereserve(&mut self, ctx: &PolicyCtx<'_>, task: TaskId) -> Option<PreReserveRequest> {
        let job = ctx.jobs.get(task.job)?;
        let spec = job.spec();
        if self.config.min_priority().is_some_and(|t| job.priority().level() < t) {
            return None;
        }
        if spec.is_final(task.stage) {
            return None;
        }
        let m = u64::from(spec.stage(task.stage).parallelism());
        let min_size = spec.downstream_demand(task.stage).unwrap_or(1);
        // §III-C: if the current slots cannot fit the downstream tasks at
        // all, every downstream task needs a right-sized slot, regardless
        // of the threshold (the freed slots were released immediately).
        let undersized = spec.stage(task.stage).demand() < min_size;
        let n = match spec.downstream_parallelism(task.stage) {
            Some(n) => n,
            None if undersized => m, // best estimate under Case 1
            None => return None,
        };
        let extra = if undersized {
            n // none of the current-phase slots can be reused
        } else {
            if n <= m {
                return None;
            }
            if job.finished_fraction(task.stage) < self.config.prereserve_threshold() {
                return None;
            }
            n - m
        };
        let stage = Self::downstream_tag(ctx, task)?;
        Some(PreReserveRequest {
            job: task.job,
            stage,
            priority: job.priority(),
            extra: extra as u32,
            deadline: self.reservation_deadline(ctx, task),
            min_size,
        })
    }

    fn mitigate_stragglers(&self) -> bool {
        self.config.mitigate_stragglers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_cluster::{ClusterSpec, LocalityModel, SlotPool};
    use ssr_dag::{JobId, JobSpecBuilder, Priority, StageSpec};
    use ssr_scheduler::{FifoPriority, TaskScheduler};
    use ssr_simcore::dist::constant;
    use ssr_simcore::SimDuration;

    /// Drives a real scheduler so the ctx fixtures are authentic.
    fn scheduler_with(policy: SpeculativeReservation, slots: u32) -> TaskScheduler {
        TaskScheduler::new(
            ClusterSpec::new(1, slots).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(policy),
            Box::new(FifoPriority),
        )
    }

    #[test]
    fn final_phase_slots_are_released() {
        let mut s = scheduler_with(SpeculativeReservation::new(), 2);
        let spec = JobSpecBuilder::new("one")
            .stage("only", 2, constant(1.0))
            .build()
            .unwrap();
        s.submit(spec, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        let (free, running, reserved) = s.slot_pool().counts();
        assert_eq!((free, running, reserved), (1, 1, 0));
    }

    #[test]
    fn equal_parallelism_reserves_every_slot() {
        let mut s = scheduler_with(SpeculativeReservation::new(), 2);
        let spec = JobSpecBuilder::new("p")
            .priority(Priority::new(5))
            .stage("up", 2, constant(1.0))
            .stage("down", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        let job = s.submit(spec, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        let (_, _, reserved) = s.slot_pool().counts();
        assert_eq!(reserved, 1);
        let r = s.slot_pool().get(a[0].slot).reservation().unwrap();
        assert_eq!(r.job(), job);
        assert_eq!(r.priority(), Priority::new(5));
        assert_eq!(r.stage(), Some(StageId::new(1)));
        assert_eq!(r.deadline(), None, "strict isolation has no deadline");
    }

    #[test]
    fn hidden_parallelism_reserves_like_case_one() {
        let mut s = scheduler_with(SpeculativeReservation::new(), 2);
        let spec = JobSpecBuilder::new("hidden")
            .stage("up", 2, constant(1.0))
            .stage_spec(StageSpec::new("down", 2, constant(1.0)).with_hidden_parallelism())
            .chain()
            .build()
            .unwrap();
        s.submit(spec, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        let (_, _, reserved) = s.slot_pool().counts();
        assert_eq!(reserved, 1);
    }

    #[test]
    fn shrinking_parallelism_releases_first_finishers() {
        // m = 4 -> n = 2: first 2 finishers released, next reserved.
        let mut s = scheduler_with(SpeculativeReservation::new(), 4);
        let spec = JobSpecBuilder::new("shrink")
            .stage("up", 4, constant(1.0))
            .stage("down", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        s.submit(spec, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        assert_eq!(s.slot_pool().counts().2, 0, "1st finisher released");
        s.task_finished(a[1].slot, SimTime::from_secs(2));
        assert_eq!(s.slot_pool().counts().2, 0, "2nd finisher released");
        s.task_finished(a[2].slot, SimTime::from_secs(3));
        assert_eq!(s.slot_pool().counts().2, 1, "3rd finisher reserved");
    }

    #[test]
    fn growing_parallelism_prereserves_after_threshold() {
        // m = 2 -> n = 4 on a 6-slot cluster with an idle bystander slot
        // pool; R = 0.5 means pre-reservation starts at the 1st completion.
        let policy = SpeculativeReservation::with_config(
            SsrConfig::builder().prereserve_threshold(0.5).build().unwrap(),
        );
        let mut s = scheduler_with(policy, 6);
        let spec = JobSpecBuilder::new("grow")
            .stage("up", 2, constant(1.0))
            .stage("down", 4, constant(1.0))
            .chain()
            .build()
            .unwrap();
        s.submit(spec, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 2);
        // First completion: fraction 0.5 >= R -> reserve own slot + grab
        // n - m = 2 extra free slots.
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        let (_, running, reserved) = s.slot_pool().counts();
        assert_eq!(running, 1);
        assert_eq!(reserved, 1 + 2, "own slot + pre-reserved extras");
        // Second completion: barrier clears; downstream takes 4 slots.
        s.task_finished(a[1].slot, SimTime::from_secs(2));
        let b = s.resource_offers(SimTime::from_secs(2));
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn high_threshold_delays_prereservation() {
        let policy = SpeculativeReservation::with_config(
            SsrConfig::builder().prereserve_threshold(1.0).build().unwrap(),
        );
        let mut s = scheduler_with(policy, 6);
        let spec = JobSpecBuilder::new("grow")
            .stage("up", 2, constant(1.0))
            .stage("down", 4, constant(1.0))
            .chain()
            .build()
            .unwrap();
        s.submit(spec, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        // fraction 0.5 < R = 1.0: only the own-slot reservation exists.
        assert_eq!(s.slot_pool().counts().2, 1);
    }

    #[test]
    fn reservation_blocks_lower_and_equal_priority_but_not_higher() {
        let mut s = scheduler_with(SpeculativeReservation::new(), 2);
        let fg = JobSpecBuilder::new("fg")
            .priority(Priority::new(10))
            .stage("up", 2, constant(1.0))
            .stage("down", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        let fg = s.submit(fg, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        assert_eq!(s.slot_pool().counts().2, 1);

        // Equal-priority contender is refused.
        let eq = JobSpecBuilder::new("eq")
            .priority(Priority::new(10))
            .stage("only", 2, constant(1.0))
            .build()
            .unwrap();
        s.submit(eq, SimTime::from_secs(1));
        assert!(s.resource_offers(SimTime::from_secs(1)).is_empty());

        // Strictly higher priority overrides the reservation.
        let hi = JobSpecBuilder::new("hi")
            .priority(Priority::new(11))
            .stage("only", 1, constant(1.0))
            .build()
            .unwrap();
        let hi = s.submit(hi, SimTime::from_secs(1));
        let b = s.resource_offers(SimTime::from_secs(1));
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].instance.task.job, hi);
        let _ = fg;
    }

    #[test]
    fn isolation_target_attaches_deadline() {
        let policy = SpeculativeReservation::with_config(
            SsrConfig::builder().isolation_target(0.5).build().unwrap(),
        );
        let mut s = scheduler_with(policy, 2);
        let spec = JobSpecBuilder::new("dl")
            .stage("up", 2, constant(2.0))
            .stage("down", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        s.submit(spec, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        s.task_finished(a[0].slot, SimTime::from_secs(2));
        let r = s.slot_pool().get(a[0].slot).reservation().unwrap();
        let deadline = r.deadline().expect("P < 1 must set a deadline");
        assert!(deadline > SimTime::from_secs(2));
        assert_eq!(s.next_reservation_expiry(), Some(deadline));
    }

    #[test]
    fn end_to_end_isolation_vs_work_conserving() {
        // The headline behaviour: with SSR, the foreground two-phase job's
        // freed slot is NOT given to the backlogged background job.
        let mut s = scheduler_with(SpeculativeReservation::new(), 2);
        let fg = JobSpecBuilder::new("fg")
            .priority(Priority::new(10))
            .stage("up", 2, constant(1.0))
            .stage("down", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        let fg = s.submit(fg, SimTime::ZERO);
        let bg = JobSpecBuilder::new("bg")
            .priority(Priority::new(0))
            .stage("only", 8, constant(100.0))
            .build()
            .unwrap();
        let bg = s.submit(bg, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert!(a.iter().all(|x| x.instance.task.job == fg));
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        // Background may not take the reserved slot.
        assert!(s.resource_offers(SimTime::from_secs(1)).is_empty());
        // Barrier clears; downstream reclaims both slots immediately.
        s.task_finished(a[1].slot, SimTime::from_secs(2));
        let b = s.resource_offers(SimTime::from_secs(2));
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|x| x.instance.task.job == fg));
        let _ = bg;
    }

    #[test]
    fn straggler_copies_launch_on_reserved_slots() {
        let policy = SpeculativeReservation::with_config(
            SsrConfig::builder().mitigate_stragglers(true).build().unwrap(),
        );
        assert!(policy.mitigate_stragglers());
        let mut s = scheduler_with(policy, 4);
        let spec = JobSpecBuilder::new("strag")
            .stage("up", 4, constant(1.0))
            .stage("down", 4, constant(1.0))
            .chain()
            .build()
            .unwrap();
        s.submit(spec, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 4);
        // Two tasks finish -> two reserved slots, two ongoing tasks:
        // reserved >= ongoing triggers one copy per ongoing task.
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        s.task_finished(a[1].slot, SimTime::from_secs(1));
        let copies = s.resource_offers(SimTime::from_secs(1));
        assert_eq!(copies.len(), 2);
        assert!(copies.iter().all(|c| c.speculative));
        assert!(copies.iter().all(|c| c.instance.is_copy()));
        // The copy slots are the previously reserved ones.
        let copy_slots: Vec<_> = copies.iter().map(|c| c.slot).collect();
        assert!(copy_slots.contains(&a[0].slot));
        assert!(copy_slots.contains(&a[1].slot));
        // A copy finishing first kills the original and completes the
        // partition.
        let out = s.task_finished(copies[0].slot, SimTime::from_secs(2));
        assert_eq!(out.killed.len(), 1);
    }

    #[test]
    fn no_copies_when_reserved_slots_insufficient() {
        let policy = SpeculativeReservation::with_config(
            SsrConfig::builder().mitigate_stragglers(true).build().unwrap(),
        );
        let mut s = scheduler_with(policy, 4);
        let spec = JobSpecBuilder::new("strag")
            .stage("up", 4, constant(1.0))
            .stage("down", 4, constant(1.0))
            .chain()
            .build()
            .unwrap();
        s.submit(spec, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        // One finish: 1 reserved < 3 ongoing -> no copies yet (§IV-C).
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        let offers = s.resource_offers(SimTime::from_secs(1));
        assert!(offers.is_empty());
    }

    #[test]
    fn undersized_slots_released_and_right_size_prereserved() {
        // SIII-C: cluster of 6 slots where slots 0 and 3 are large (size
        // 4). Upstream runs 2 unit-demand tasks; downstream demands 4.
        // On upstream completion the small slots must be released, and
        // large slots pre-reserved instead.
        use ssr_dag::StageSpec;
        let policy = SpeculativeReservation::new();
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 6).unwrap().with_slot_sizing(1, 4, 3),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(policy),
            Box::new(FifoPriority),
        );
        let job = JobSpecBuilder::new("sized")
            .priority(Priority::new(10))
            .stage("up", 2, constant(1.0))
            .stage_spec(StageSpec::new("down", 2, constant(1.0)).with_demand(4))
            .chain()
            .build()
            .unwrap();
        s.submit(job, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 2);
        let first = s.task_finished(a[0].slot, SimTime::from_secs(1));
        assert!(!first.stage_completed);
        // Every reservation made so far must be on a right-sized slot.
        let reserved: Vec<ssr_cluster::SlotId> = s
            .slot_pool()
            .iter()
            .filter(|(_, st)| st.is_reserved())
            .map(|(slot, _)| slot)
            .collect();
        for slot in &reserved {
            assert!(
                s.slot_pool().size(*slot) >= 4,
                "{slot} reserved despite being too small for the downstream demand"
            );
        }
        assert!(!reserved.is_empty(), "right-sized slots should have been pre-reserved");
        // Drive on: downstream runs on large slots only.
        s.task_finished(a[1].slot, SimTime::from_secs(2));
        let down = s.resource_offers(SimTime::from_secs(2));
        assert!(!down.is_empty());
        for d in &down {
            assert!(s.slot_pool().size(d.slot) >= 4);
        }
    }

    #[test]
    fn foreground_opt_in_leaves_background_work_conserving() {
        // A low-priority two-phase job under foreground-only SSR: its
        // freed slots are NOT reserved (work-conserving for batch), while
        // a high-priority job's are.
        let policy = SpeculativeReservation::with_config(
            crate::SsrConfig::builder()
                .reserve_only_at_or_above(10)
                .build()
                .unwrap(),
        );
        let mut s = scheduler_with(policy, 4);
        let lo = JobSpecBuilder::new("lo")
            .priority(Priority::new(0))
            .stage("up", 2, constant(1.0))
            .stage("down", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        s.submit(lo, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        assert_eq!(s.slot_pool().counts().2, 0, "batch job must not reserve");

        let hi = JobSpecBuilder::new("hi")
            .priority(Priority::new(10))
            .stage("up", 2, constant(1.0))
            .stage("down", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        s.submit(hi, SimTime::from_secs(1));
        let b = s.resource_offers(SimTime::from_secs(1));
        let hi_slot = b.iter().find(|x| x.instance.task.job.as_u64() == 1).unwrap().slot;
        s.task_finished(hi_slot, SimTime::from_secs(2));
        assert_eq!(s.slot_pool().counts().2, 1, "foreground job must reserve");
    }

    #[test]
    fn builder_propagates_config() {
        let config = SsrConfig::builder()
            .isolation_target(0.7)
            .prereserve_threshold(0.3)
            .default_shape(2.5)
            .min_fit_samples(7)
            .mitigate_stragglers(true)
            .build()
            .unwrap();
        let p = SpeculativeReservation::with_config(config);
        assert_eq!(p.config().isolation_target(), 0.7);
        assert_eq!(p.config().prereserve_threshold(), 0.3);
        assert_eq!(p.config().default_shape(), 2.5);
        assert_eq!(p.config().min_fit_samples(), 7);
        assert!(p.mitigate_stragglers());
        assert_eq!(p.name(), "speculative-slot-reservation");
        assert!(SsrConfig::builder().isolation_target(2.0).build().is_err());
    }

    #[test]
    fn default_policy_is_strict() {
        let p = SpeculativeReservation::default();
        assert_eq!(p.config().isolation_target(), 1.0);
        assert!(!p.mitigate_stragglers());
        assert_eq!(p.approval_rule(), Some(ApprovalRule::OwnerOrAbove));
        assert!(p.approval_is_priority_based());
    }

    #[test]
    fn stale_reservations_cleared_when_downstream_completes() {
        // After the downstream phase finishes, no reservation tagged for it
        // survives.
        let mut s = scheduler_with(SpeculativeReservation::new(), 2);
        let spec = JobSpecBuilder::new("p")
            .stage("up", 2, constant(1.0))
            .stage("mid", 2, constant(1.0))
            .stage("down", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        s.submit(spec, SimTime::ZERO);
        let mut t = 1u64;
        // Drive the whole job to completion.
        loop {
            let offers = s.resource_offers(SimTime::from_secs(t));
            if offers.is_empty() && !s.has_unfinished_jobs() {
                break;
            }
            let running: Vec<SlotId> = s.running_instances().map(|(slot, _)| slot).collect();
            if running.is_empty() {
                break;
            }
            t += 1;
            for slot in running {
                s.task_finished(slot, SimTime::from_secs(t));
            }
        }
        assert!(!s.has_unfinished_jobs());
        let (free, running, reserved) = s.slot_pool().counts();
        assert_eq!((free, running, reserved), (2, 0, 0), "no reservations may leak");
        // Also verify via SlotPool that nothing is reserved.
        let table: &SlotPool = s.slot_pool();
        assert_eq!(table.free_slots().count(), 2);
        let _ = JobId::new(0);
    }
}
