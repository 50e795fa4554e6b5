//! The task scheduler: matches resource offers to tasks through the job
//! order, delay scheduling and the reservation policy's ApprovalLogic.
//!
//! This is the reproduction of the paper's modified `TaskSchedulerImpl`
//! (§V), combined with the `DAGScheduler` duties of submitting a phase's
//! task set when its barrier clears. It is a *reactive* state machine: a
//! driving simulator (the `ssr-sim` crate) calls [`TaskScheduler::submit`],
//! [`TaskScheduler::resource_offers`], [`TaskScheduler::task_finished`] and
//! [`TaskScheduler::expire_reservations`] as events occur, and realises
//! task durations itself.

use std::collections::BTreeMap;

use ssr_cluster::{ClusterSpec, LocalityLevel, LocalityModel, Reservation, SlotId, SlotPool};
use ssr_dag::{JobId, JobSpec, Priority, StageId};
use ssr_perf::{SpanProfiler, WorkCounters};
use ssr_simcore::SimTime;
use ssr_trace::{DenyReason, TraceEvent, TraceEventKind, TraceSink};

use crate::jobs::{DeclineTally, JobState, Jobs, LevelTallies};
use crate::order::{JobOrder, JobSnapshot};
use crate::policy::{ApprovalRule, PolicyCtx, ReservationPolicy, SlotDisposition};
use crate::speculation::SpeculationConfig;
use crate::taskset::{TaskInstance, TaskSetManager};

/// One running task instance as tracked by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningInstance {
    /// The instance (task + attempt).
    pub instance: TaskInstance,
    /// When it was placed.
    pub started: SimTime,
    /// The locality level it was placed at.
    pub level: LocalityLevel,
}

/// A task-to-slot assignment produced by a resource-offer round. The
/// driving simulator realises the task's duration (intrinsic sample ×
/// locality slowdown) and schedules the finish event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The slot the instance was placed on.
    pub slot: SlotId,
    /// The placed instance.
    pub instance: TaskInstance,
    /// The locality level of the placement.
    pub level: LocalityLevel,
    /// `true` if this is an extra copy of an already-running task (either
    /// the §IV-C reserved-slot strategy or status-quo progress-based
    /// speculation).
    pub speculative: bool,
    /// `true` if the copy runs on a warm slot that just executed the same
    /// phase (§IV-C) and therefore incurs no locality or cold-JVM penalty;
    /// status-quo speculation copies are cold (`false`).
    pub warm: bool,
}

/// The result of processing a task-finish event.
#[derive(Debug, Clone)]
pub struct FinishOutcome {
    /// The instance that finished.
    pub instance: TaskInstance,
    /// Its realised duration.
    pub duration: ssr_simcore::SimDuration,
    /// Phases of the same job whose barriers cleared.
    pub newly_ready: Vec<StageId>,
    /// Slots whose losing copies were killed — the simulator must cancel
    /// their pending finish events.
    pub killed: Vec<SlotId>,
    /// `true` if this finish completed its phase.
    pub stage_completed: bool,
    /// `true` if this finish completed the whole job.
    pub job_completed: bool,
}

/// The result of failing a set of slots (fault injection).
#[derive(Debug, Clone, Default)]
pub struct FailureOutcome {
    /// Slots whose running instances were killed by the fault — the
    /// simulator must cancel their pending finish events.
    pub killed: Vec<SlotId>,
    /// Slots whose reservations were forcibly revoked.
    pub revoked: Vec<SlotId>,
}

#[derive(Debug, Clone, Copy)]
struct PendingPrereserve {
    target: u32,
    granted: u32,
    priority: Priority,
    deadline: Option<SimTime>,
    min_size: u32,
}

/// The cluster task scheduler with pluggable job order and reservation
/// policy.
///
/// Time must not go backwards: the `now` passed to [`submit`],
/// [`resource_offers`], [`task_finished`], [`fail_slots`] and
/// [`restore_slots`] must never be smaller than the `now` of an earlier
/// call (debug builds assert it). The locality-unlock window relies on
/// this to drop task sets that can no longer unlock a level.
///
/// [`submit`]: TaskScheduler::submit
/// [`resource_offers`]: TaskScheduler::resource_offers
/// [`task_finished`]: TaskScheduler::task_finished
/// [`fail_slots`]: TaskScheduler::fail_slots
/// [`restore_slots`]: TaskScheduler::restore_slots
///
/// # Example
///
/// ```
/// use ssr_scheduler::{TaskScheduler, WorkConserving, FifoPriority};
/// use ssr_cluster::{ClusterSpec, LocalityModel};
/// use ssr_dag::JobSpecBuilder;
/// use ssr_simcore::{SimTime, dist::constant};
///
/// let mut sched = TaskScheduler::new(
///     ClusterSpec::new(2, 2)?,
///     LocalityModel::paper_simulation(),
///     Box::new(WorkConserving),
///     Box::new(FifoPriority),
/// );
/// let spec = JobSpecBuilder::new("demo").stage("map", 4, constant(1.0)).build()?;
/// let job = sched.submit(spec, SimTime::ZERO);
/// let assignments = sched.resource_offers(SimTime::ZERO);
/// assert_eq!(assignments.len(), 4);
/// assert_eq!(sched.running_count_for(job), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TaskScheduler {
    spec: ClusterSpec,
    slots: SlotPool,
    locality: LocalityModel,
    jobs: Jobs,
    /// The instance on each slot, indexed by slot id (`None` when idle).
    running: Vec<Option<RunningInstance>>,
    policy: Box<dyn ReservationPolicy>,
    /// The policy's declared [`ApprovalRule`], read once here: offer
    /// rounds evaluate it inline rather than through `policy.approve`.
    approval: Option<ApprovalRule>,
    order: Box<dyn JobOrder>,
    speculation: Option<SpeculationConfig>,
    next_job: u64,
    prereserve: BTreeMap<(JobId, StageId), PendingPrereserve>,
    /// Optional decision-trace sink. `None` (the default) means tracing is
    /// off. Only [`emit`](Self::emit) reads it: call sites hand `emit` a
    /// closure that builds the event, and with no sink the closure never
    /// runs, so the disabled path costs one branch per decision.
    trace: Option<Box<dyn TraceSink>>,
    /// Deterministic work counters, always on: pure counts of engine
    /// work, a function of the seed alone. `Cell`-based so `&self` hot
    /// paths (`best_candidate` and friends) can count without
    /// restructuring borrows.
    counters: WorkCounters,
    /// Optional wall-clock span profiler (non-deterministic plane).
    /// `None` (the default) means no span is ever opened; every site is
    /// guarded by `self.profiler.is_some()`-shaped checks, so the
    /// disabled path costs one branch, as for `trace`.
    profiler: Option<Box<SpanProfiler>>,
    /// `true` once an offer round with a slot to offer found a pending
    /// job (see [`resource_offers`](Self::resource_offers)).
    offered_pending: bool,
    // Reusable scratch for the offer-round hot path — cleared on use,
    // retained across rounds so steady state allocates nothing.
    round: RoundNotes,
    straggler_jobs_buf: Vec<JobId>,
    straggler_slots_buf: Vec<SlotId>,
    straggler_plans_buf: Vec<(StageId, u32)>,
    spec_free_buf: Vec<SlotId>,
    spec_plans_buf: Vec<(JobId, StageId, u32, SlotId, LocalityLevel)>,
    prereserve_free_buf: Vec<(SlotId, u32)>,
    prereserve_keys_buf: Vec<(JobId, StageId)>,
    /// The latest `now` seen by a time-taking call (see the type docs).
    last_now: SimTime,
}

impl TaskScheduler {
    /// Creates a scheduler over `cluster` with the given locality model,
    /// reservation policy and job order. A policy with a static pool
    /// (§III-A.1) gets its slots reserved immediately.
    pub fn new(
        cluster: ClusterSpec,
        locality: LocalityModel,
        mut policy: Box<dyn ReservationPolicy>,
        order: Box<dyn JobOrder>,
    ) -> Self {
        let mut slots = SlotPool::new(&cluster);
        if let Some((count, class)) = policy.initial_static_pool(cluster.total_slots()) {
            let pool: Vec<SlotId> = (0..count).map(SlotId::new).collect();
            for &slot in &pool {
                slots
                    .reserve(slot, Reservation::new(crate::policy::STATIC_POOL_JOB, class))
                    .expect("fresh slots are free");
            }
            policy.static_pool_assigned(&pool);
        }
        TaskScheduler {
            spec: cluster,
            slots,
            locality,
            jobs: Jobs::new(),
            running: vec![None; cluster.total_slots() as usize],
            approval: policy.approval_rule(),
            policy,
            order,
            speculation: None,
            next_job: 0,
            prereserve: BTreeMap::new(),
            trace: None,
            counters: WorkCounters::new(),
            profiler: None,
            offered_pending: false,
            round: RoundNotes::default(),
            straggler_jobs_buf: Vec::new(),
            straggler_slots_buf: Vec::new(),
            straggler_plans_buf: Vec::new(),
            spec_free_buf: Vec::new(),
            spec_plans_buf: Vec::new(),
            prereserve_free_buf: Vec::new(),
            prereserve_keys_buf: Vec::new(),
            last_now: SimTime::ZERO,
        }
    }

    /// Records `now` as the current instant; debug builds check that it
    /// did not move backwards.
    #[inline]
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    fn advance_clock(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_now, "TaskScheduler time went backwards: {now:?} after {:?}", self.last_now);
        self.last_now = now;
    }

    /// Enables status-quo progress-based speculative execution (the
    /// baseline §IV-C is compared against): once `quantile` of a phase has
    /// completed, tasks running beyond `multiplier x median` get an extra
    /// copy on any *free* slot — remote data, cold JVM.
    pub fn with_speculation(mut self, config: SpeculationConfig) -> Self {
        self.speculation = Some(config);
        self
    }

    /// Attaches a decision-trace sink (builder form). See
    /// [`set_trace_sink`](TaskScheduler::set_trace_sink).
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.set_trace_sink(sink);
        self
    }

    /// Attaches a decision-trace sink: every scheduling decision from here
    /// on is reported to it as a [`TraceEvent`]. Replaces any prior sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detaches and returns the trace sink, if one was attached; used to
    /// recover the collected trace after a run.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// `true` while a trace sink is attached.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The deterministic work counters accumulated so far.
    pub fn work_counters(&self) -> &WorkCounters {
        &self.counters
    }

    /// Attaches a wall-clock span profiler: offer rounds, speculation
    /// scans and trace emission are timed from here on. Replaces any
    /// prior profiler. Spans are the non-deterministic plane — see the
    /// two-plane rule in `ssr-perf`.
    pub fn set_span_profiler(&mut self, profiler: Box<SpanProfiler>) {
        self.profiler = Some(profiler);
    }

    /// Detaches and returns the span profiler, if one was attached;
    /// used to recover the aggregated spans after a run.
    pub fn take_span_profiler(&mut self) -> Option<Box<SpanProfiler>> {
        self.profiler.take()
    }

    /// The attached span profiler, if any — the driving loop opens its
    /// own phases (run loop, event dispatch) on the same span stack so
    /// scheduler spans nest under them.
    pub fn span_profiler_mut(&mut self) -> Option<&mut SpanProfiler> {
        self.profiler.as_deref_mut()
    }

    /// Opens a profiler span, if a profiler is attached.
    #[inline]
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    fn span_enter(&mut self, name: &str) {
        if let Some(p) = self.profiler.as_mut() {
            p.enter(name);
        }
    }

    /// Closes the innermost profiler span, if a profiler is attached.
    #[inline]
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    fn span_exit(&mut self) {
        if let Some(p) = self.profiler.as_mut() {
            p.exit();
        }
    }

    /// Reports one decision to the attached sink. With no sink attached
    /// `build` never runs, so no event is constructed; otherwise it builds
    /// the event from the engine's state, outside the `trace_emit` span.
    #[inline]
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    fn emit(&mut self, time: SimTime, build: impl FnOnce(&Self) -> TraceEventKind) {
        if self.trace.is_none() {
            return;
        }
        let event = TraceEvent::new(time, build(self));
        self.span_enter("trace_emit");
        if let Some(sink) = self.trace.as_mut() {
            sink.record(&event);
        }
        self.span_exit();
    }

    /// Admits a job at `now`; its root phases become ready immediately.
    pub fn submit(&mut self, spec: JobSpec, now: SimTime) -> JobId {
        self.advance_clock(now);
        let id = JobId::new(self.next_job);
        self.next_job += 1;
        let mut state = JobState::new(id, spec, now);
        self.emit(now, |_| TraceEventKind::JobSubmitted {
            job: id,
            name: state.spec().name().to_owned(),
            priority: state.priority(),
            stages: state
                .spec()
                .iter_stage_ids()
                .map(|s| ssr_trace::StageMeta {
                    tasks: state.spec().stage(s).parallelism(),
                    parents: state.spec().parents(s).to_vec(),
                })
                .collect(),
        });
        for stage in (0..state.spec().stages().len() as u32).map(StageId::new) {
            if state.spec().parents(stage).is_empty() {
                let parallelism = state.spec().stage(stage).parallelism();
                state.insert_taskset(TaskSetManager::new(id, stage, parallelism, now));
            }
        }
        self.jobs.insert(state);
        // The root phases are the job's only task sets yet, in stage order.
        let state = self.jobs.get(id).expect("job just admitted");
        for stage in state.active_tasksets().map(TaskSetManager::stage) {
            let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
            self.policy.on_stage_ready(&ctx, id, stage);
        }
        id
    }

    /// Runs a resource-offer round at `now`: fills pending
    /// pre-reservations, then assigns tasks to available slots (free, or
    /// reserved and approved) in job order under delay scheduling, and
    /// finally launches straggler copies on reserved-idle slots if the
    /// policy mitigates stragglers. Returns the round's assignments in
    /// placement order; [`resource_offers_into`](Self::resource_offers_into)
    /// fills a caller's buffer instead.
    pub fn resource_offers(&mut self, now: SimTime) -> Vec<Assignment> {
        let mut assignments = Vec::new();
        self.resource_offers_into(now, &mut assignments);
        assignments
    }

    /// Runs the offer round of [`resource_offers`](Self::resource_offers)
    /// and leaves its assignments in `assignments`, which it clears
    /// first: a driver that passes the same buffer every round allocates
    /// for it only while it grows.
    pub fn resource_offers_into(&mut self, now: SimTime, assignments: &mut Vec<Assignment>) {
        assignments.clear();
        self.advance_clock(now);
        self.counters.offer_rounds.inc();
        self.span_enter("offer_round");
        // Task sets whose every locality level has unlocked can never
        // wake the driver again; `now` only grows, so they leave for good.
        let locality = &self.locality;
        self.jobs.prune_unlock_window(|since| locality.next_unlock_after(now.saturating_since(since)).is_none());
        self.fill_prereservations(now);
        // Early exit for a saturated cluster: no free or reserved slot means
        // no assignment can possibly be made this round.
        let (free, running, reserved) = self.slots.counts();
        self.emit(now, |_| TraceEventKind::OfferRoundStarted { free, running, reserved });
        let available = free + reserved;
        if available > 0 {
            // `index_rescans` counts the rounds that found some job
            // changed since the last round with a slot to offer (and the
            // first such round), `index_hits` those that found none.
            if self.jobs.rekey(&*self.order) {
                self.counters.index_rescans.inc();
            } else {
                self.counters.index_hits.inc();
            }
            // The scratch counters count one buffer per round with a slot
            // to offer, as the copy of the pending index that rounds once
            // worked on did: fresh until a round has found a pending job,
            // reused after.
            if self.offered_pending {
                self.counters.scratch_reuses.inc();
            } else {
                self.counters.scratch_allocs.inc();
            }
            self.offered_pending |= !self.jobs.pending_worst_first().is_empty();
            let mut notes = std::mem::take(&mut self.round);
            notes.clear(self.jobs.pending_levels());
            if free == 0 && self.group_approval() {
                self.filter_candidates(&mut notes, now);
            }
            self.serve_candidates(&mut notes, available, assignments, now);
            self.round = notes;
        }
        if self.policy.mitigate_stragglers() {
            self.span_enter("speculation_scan");
            self.launch_straggler_copies(now, assignments);
            self.span_exit();
        }
        if self.speculation.is_some() {
            self.span_enter("speculation_scan");
            self.launch_progress_speculation(now, assignments);
            self.span_exit();
        }
        self.emit(now, |_| TraceEventKind::OfferRoundEnded { assignments: assignments.len() });
        self.span_exit();
    }

    /// The viability filter of a round that starts with no free slot. A
    /// job can then place only onto a reserved slot it owns or whose group
    /// approves its priority, so the others are dropped before the round
    /// serves anyone. A dropped candidate would fail `try_assign_one`
    /// unchanged, and a drop stays valid through the round (assignments
    /// only consume slots: free stays 0 and groups only shrink), so the
    /// assignment sequence is the unfiltered round's. Each drop counts its
    /// refusal or its group walk. Traced, the dropped candidates are
    /// declined in job-id order.
    ///
    /// Untraced with a declared rule, only the candidates above the floor
    /// are walked. Those at or below it that own nothing are counted from
    /// the index's level sums, one refused walk each, and noted as passed.
    fn filter_candidates(&mut self, notes: &mut RoundNotes, now: SimTime) {
        let lowest = self.slots.lowest_group_priority();
        notes.filter_floor = Some(lowest);
        let ranked = self.jobs.pending_worst_first();
        match self.approval {
            Some(rule) if !self.trace_enabled() => {
                let (mut refused, mut above) = (0, 0);
                for (priority, level) in self.jobs.pending_levels().iter() {
                    if above_floor(rule, priority, lowest) {
                        above += level.entries as usize;
                    } else {
                        refused += level.entries;
                        notes.passed.add_level(priority, level);
                    }
                }
                // Owners at or below the floor are kept.
                for owner in self.slots.reservations_by_job().filter_map(|(owner, _)| self.jobs.keyed(owner)) {
                    if !above_floor(rule, owner.priority, lowest) {
                        refused -= 1;
                        notes.passed.sub(owner.priority, self.jobs.decline_tally(owner.id));
                    }
                }
                self.count_refused(DeclineTally { sets: refused, preferred: 0 });
                // Under an order that ranks by priority first, the
                // candidates above the floor are the best ones.
                let top = &ranked[ranked.len().saturating_sub(above)..];
                let scan = if top.iter().all(|c| above_floor(rule, c.priority, lowest)) { top } else { ranked };
                for c in scan.iter().filter(|c| above_floor(rule, c.priority, lowest)) {
                    if !self.slots.has_reservations(c.id)
                        && !self.walk_groups(c.id, c.priority, now, true, |_, _, class| class.is_some())
                    {
                        notes.dropped.push(c.id);
                        notes.passed.add(c.priority, self.jobs.decline_tally(c.id));
                    }
                }
            }
            _ => {
                for c in ranked {
                    if !self.viable_on_reserved(c.id, c.priority, now) {
                        notes.dropped.push(c.id);
                    }
                }
            }
        }
        notes.dropped.sort_unstable();
        if self.trace_enabled() {
            for &job in &notes.dropped {
                self.emit(now, |s| declined_event(s, job, now));
            }
        }
    }

    /// Serves the pending index best first until `available` slots are
    /// used or no candidate is left, walking it in place with a cursor:
    /// the candidates still to come are the entries below it. A served
    /// job is re-keyed where it stands, and one that stays pending stays
    /// below the cursor (serving a job never ranks it sooner); a declined
    /// one is passed.
    ///
    /// Untraced with a declared rule, once no slot is free and no
    /// candidate to come sits above the floor, the rest of the round goes
    /// to [`serve_owners`](Self::serve_owners), which declines the refused
    /// candidates in bulk. Traced, each candidate is attempted and
    /// declined on its own, with its `offer-declined` line.
    fn serve_candidates(
        &mut self,
        notes: &mut RoundNotes,
        mut available: usize,
        assignments: &mut Vec<Assignment>,
        now: SimTime,
    ) {
        let bulk = self.approval.is_some() && !self.trace_enabled();
        let mut cursor = self.jobs.pending_worst_first().len();
        while available > 0 {
            let Some(&c) = cursor.checked_sub(1).and_then(|at| self.jobs.pending_worst_first().get(at)) else {
                break;
            };
            // With no slot free, a candidate the floor refuses, or one the
            // filter dropped, cannot place.
            if self.slots.counts().0 == 0
                && (self.floor_refuses(c.id, c.priority) || notes.dropped.binary_search(&c.id).is_ok())
            {
                if bulk && self.none_above_floor(notes) {
                    self.serve_owners(notes, cursor, available, assignments, now);
                    return;
                }
                if !self.filtered(notes, &c) {
                    self.decline_refused(notes, &c, now);
                }
                cursor -= 1;
                continue;
            }
            match self.try_assign_one(c.id, now) {
                Some((a, held_by)) => {
                    self.emit(now, |_| launch_event(&a));
                    assignments.push(a);
                    available -= 1;
                    self.note_lost(notes, held_by);
                    self.jobs.rekey_served(&*self.order);
                    debug_assert!(
                        self.jobs.keyed(c.id).is_none_or(|k| self.jobs.rank(&*self.order, &k) < cursor),
                        "{}: serving {:?} ranked it ahead of the candidates the round passed",
                        self.order.name(),
                        c.id
                    );
                    if !self.jobs.is_pending(c.id) {
                        // Drained: its entry, the last to come, left.
                        cursor -= 1;
                    }
                }
                None => {
                    self.emit(now, |s| declined_event(s, c.id, now));
                    self.note_passed(notes, &c);
                    cursor -= 1;
                }
            }
        }
    }

    /// The rest of an untraced round once no slot is free and no
    /// candidate below `cursor` sits above the floor: of those candidates
    /// only the reservation owners can place, and every other one would be
    /// declined as the floor refuses it. The owners are served best first,
    /// the cursor jumping from one to the next; the candidates it jumps
    /// over are declined in bulk before the owner's attempt, as the groups
    /// stand then. Once no owner is left, the candidates still to come are
    /// declined in bulk from the index's level sums less the entries
    /// passed or declined. A round that runs out of slots declines none of
    /// the candidates ranked below the owner it served last.
    fn serve_owners(
        &mut self,
        notes: &mut RoundNotes,
        mut cursor: usize,
        mut available: usize,
        assignments: &mut Vec<Assignment>,
        now: SimTime,
    ) {
        // The tallies declined in bulk so far.
        let mut declined = DeclineTally::default();
        while available > 0 {
            let next = self
                .slots
                .reservations_by_job()
                .filter_map(|(owner, _)| self.jobs.keyed(owner))
                .map(|k| (self.jobs.rank(&*self.order, &k), k))
                .filter(|&(at, _)| at < cursor)
                .max_by_key(|&(at, _)| at);
            let Some((at, next)) = next else { break };
            let jumped = self.refused_between(notes, at + 1, cursor);
            self.count_refused(jumped);
            declined.add(jumped);
            match self.try_assign_one(next.id, now) {
                Some((a, held_by)) => {
                    self.emit(now, |_| launch_event(&a));
                    assignments.push(a);
                    available -= 1;
                    self.note_lost(notes, held_by);
                    self.jobs.rekey_served(&*self.order);
                    cursor = if self.jobs.is_pending(next.id) { at + 1 } else { at };
                }
                None => {
                    self.emit(now, |s| declined_event(s, next.id, now));
                    self.note_passed(notes, &next);
                    cursor = at;
                }
            }
        }
        if available > 0 {
            // Every entry the round has neither passed nor declined in bulk.
            let mut rest = DeclineTally::default();
            for (priority, level) in self.jobs.pending_levels().iter() {
                rest.add(level.tally);
                rest.sub(notes.passed.get(priority).tally);
            }
            rest.sub(declined);
            self.count_refused(rest);
        }
    }

    /// The tallies of the entries in `from..to` of the pending index that
    /// the filter did not drop.
    fn refused_between(&self, notes: &RoundNotes, from: usize, to: usize) -> DeclineTally {
        let mut sum = DeclineTally::default();
        for c in self.jobs.pending_worst_first()[from..to].iter().filter(|c| !self.filtered(notes, c)) {
            sum.add(self.jobs.decline_tally(c.id));
        }
        sum
    }

    /// `true` for a candidate the viability filter dropped, which the
    /// round passes without an attempt: one the rule refuses at the
    /// filter's floor and that owned nothing then, or one noted dropped.
    fn filtered(&self, notes: &RoundNotes, c: &JobSnapshot) -> bool {
        let Some(lowest) = notes.filter_floor else { return false };
        let refused = self.approval.is_some_and(|rule| !above_floor(rule, c.priority, lowest));
        let owned = || self.slots.has_reservations(c.id) || notes.lost.contains(&c.id);
        (refused && !owned()) || notes.dropped.binary_search(&c.id).is_ok()
    }

    /// Declines `c`, which the floor refuses while no slot is free: every
    /// `best_candidate` of its pending task sets would walk the groups to
    /// no verdict and search the empty free index, so the work they would
    /// count is counted.
    fn decline_refused(&mut self, notes: &mut RoundNotes, c: &JobSnapshot, now: SimTime) {
        self.count_refused(self.jobs.decline_tally(c.id));
        self.emit(now, |s| declined_event(s, c.id, now));
        self.note_passed(notes, c);
    }

    /// Notes `c` as passed where the round declines in bulk.
    fn note_passed(&self, notes: &mut RoundNotes, c: &JobSnapshot) {
        if self.approval.is_some() && !self.trace_enabled() {
            notes.passed.add(c.priority, self.jobs.decline_tally(c.id));
        }
    }

    /// Notes, in a filtered round, that the job whose reserved slot an
    /// assignment took has none left.
    fn note_lost(&self, notes: &mut RoundNotes, held_by: Option<JobId>) {
        if let Some(owner) = held_by.filter(|&o| notes.filter_floor.is_some() && !self.slots.has_reservations(o)) {
            notes.lost.push(owner);
        }
    }

    /// `true` when every candidate still to come sits at or below the
    /// floor: each level above it holds only entries the round passed.
    fn none_above_floor(&self, notes: &RoundNotes) -> bool {
        let Some(rule) = self.approval else { return false };
        let lowest = self.slots.lowest_group_priority();
        self.jobs.pending_levels().iter().all(|(priority, level)| {
            !above_floor(rule, priority, lowest) || level.entries == notes.passed.get(priority).entries
        })
    }

    /// Classifies why a candidate job could not place a task this round,
    /// along with the lowest-id pending stage that was blocked (`None`
    /// when the job had no pending stage). Only called on the trace path,
    /// so the re-examination costs nothing when tracing is disabled.
    fn deny_reason(&self, job: JobId, now: SimTime) -> (DenyReason, Option<ssr_dag::StageId>) {
        let Some(state) = self.jobs.get(job) else {
            return (DenyReason::NoPendingTasks, None);
        };
        // A slot is usable by some pending stage iff it fits the
        // smallest pending demand.
        let Some((blocked_stage, demand)) = state
            .active_tasksets()
            .filter(|tsm| tsm.has_pending())
            .map(|tsm| (tsm.stage(), state.spec().stage(tsm.stage()).demand()))
            .reduce(|(s, d), (t, e)| (s.min(t), d.min(e)))
        else {
            return (DenyReason::NoPendingTasks, None);
        };
        let fits = |slot: SlotId| self.slots.size(slot) >= demand;
        let priority = state.priority();
        let mut usable = self.slots.free_slots().any(fits);
        let mut saw_denied_reservation = false;
        if !usable {
            // Takes verdicts on fitting reserved slots until one approves:
            // one per group when verdicts are group-uniform, else one per
            // slot. The walk's counts are dropped: tracing must not move
            // counters.
            let mut note = |approved: bool| {
                usable = approved;
                saw_denied_reservation |= !approved;
                approved
            };
            if self.floor_refuses(job, priority) {
                // No group approves, so any fitting reserved slot is a
                // denied one.
                saw_denied_reservation = self.slots.reserved_slots().any(fits);
            } else if self.group_approval() {
                self.walk_groups(job, priority, now, false, |owner, rprio, class| {
                    self.slots.reserved_for(owner).any(|slot| fits(slot) && self.reserved_priority(slot) == Some(rprio))
                        && note(class.is_some())
                });
            } else {
                let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
                self.slots.reserved_slots().filter(|&slot| fits(slot)).any(|slot| {
                    let r = self.slots.get(slot).reservation().expect("reserved index entry");
                    note(r.job() == job || self.policy.approve(&ctx, r, job, priority))
                });
            }
        }
        // A usable (free or approved) fitting slot exists, yet
        // `try_assign_one` declined: delay scheduling has not unlocked
        // the locality level that slot sits at.
        let reason = if usable {
            DenyReason::LocalityWait
        } else if saw_denied_reservation {
            DenyReason::ReservationDenied
        } else {
            DenyReason::NoFittingSlot
        };
        (reason, Some(blocked_stage))
    }

    /// With zero free slots: can `job` possibly place a task at all?
    /// Only if it owns reservations, or some other job's reservation
    /// group approves its priority (verdicts are group-uniform under
    /// [`group_approval`](Self::group_approval)). A job the priority
    /// floor refuses is answered without the walk, which is counted as
    /// taken.
    fn viable_on_reserved(&self, job: JobId, priority: Priority, now: SimTime) -> bool {
        if self.floor_refuses(job, priority) {
            // One group walk, with no free-slot search.
            self.count_refused(DeclineTally { sets: 1, preferred: 0 });
            return false;
        }
        self.slots.has_reservations(job) || self.walk_groups(job, priority, now, true, |_, _, class| class.is_some())
    }

    /// `true` when the declared rule proves that no reservation group
    /// approves `job` at `priority`: the job owns none, and sits at or
    /// below the lowest group priority ([`ApprovalRule::could_approve`]).
    /// Always `false` without a declared rule, whose verdicts only the
    /// walk can take. Checked where a refusal saves work (a viability
    /// test, a whole attempt with no free slot), not in every
    /// [`walk_groups`](Self::walk_groups), where the many walks it does
    /// not refuse would pay for it.
    fn floor_refuses(&self, job: JobId, priority: Priority) -> bool {
        self.approval.is_some_and(|rule| {
            !above_floor(rule, priority, self.slots.lowest_group_priority()) && !self.slots.has_reservations(job)
        })
    }

    /// Counts the work of attempts the floor refused as the walks they
    /// stand for would have: per task set in `tally`, one group walk
    /// (every group touched, one false verdict each), plus its preferred
    /// slots, which `best_candidate`'s process-local search counts.
    fn count_refused(&self, tally: DeclineTally) {
        let groups = u64::from(tally.sets) * self.slots.reservation_groups().len() as u64;
        self.counters.reservation_groups_touched.add(groups);
        self.counters.approval_calls.add(groups);
        self.counters.slots_scanned.add(u64::from(tally.preferred));
    }

    /// `true` when ApprovalLogic verdicts are uniform per `(owner,
    /// priority)` reservation group, so offers walk groups, not slots.
    fn group_approval(&self) -> bool {
        self.approval.is_some() || self.policy.approval_is_priority_based()
    }

    /// Walks the reservation groups in `(owner, priority)` order, handing
    /// `visit` each group's standing for `job` at `priority`: `Some(0)`
    /// for its own group, `Some(2)` for a group that approves it, `None`
    /// for one that does not. Stops at the first group `visit` returns
    /// `true` for, and returns whether it did. The verdict source is picked
    /// once per walk: the declared rule inline, else `approve` through the
    /// vtable. With `count`, the groups touched and the verdicts taken (its
    /// own group needs none) are added to the work counters.
    fn walk_groups(
        &self,
        job: JobId,
        priority: Priority,
        now: SimTime,
        count: bool,
        visit: impl FnMut(JobId, Priority, Option<u8>) -> bool,
    ) -> bool {
        let groups = self.slots.reservation_groups();
        let (touched, calls, stopped) = match self.approval {
            Some(rule) => walk_groups_with(groups, job, visit, |o, p| rule.approves(o, p, job, priority)),
            None => {
                let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
                walk_groups_with(groups, job, visit, |o, p| {
                    self.policy.approve(&ctx, &Reservation::new(o, p), job, priority)
                })
            }
        };
        if count {
            self.counters.reservation_groups_touched.add(touched);
            self.counters.approval_calls.add(calls);
        }
        stopped
    }

    /// Finds the best placement for one pending task of `job` and applies
    /// it, or returns `None` if no acceptable slot exists this round.
    /// Beside the assignment, returns the job whose reservation the slot
    /// held, if any.
    fn try_assign_one(&mut self, job: JobId, now: SimTime) -> Option<(Assignment, Option<JobId>)> {
        let state = self.jobs.get(job)?;
        let priority = state.priority();
        let mut chosen: Option<(StageId, SlotId, LocalityLevel)> = None;
        for tsm in state.active_tasksets() {
            if !tsm.has_pending() {
                continue;
            }
            let demand = state.spec().stage(tsm.stage()).demand();
            let elapsed = now.saturating_since(tsm.ready_since());
            let allowed = self.locality.max_allowed_level(elapsed);
            if let Some((slot, level)) = self.best_candidate(job, priority, tsm, demand, allowed, now) {
                chosen = Some((tsm.stage(), slot, level));
                break;
            }
        }
        let (stage, slot, level) = chosen?;
        let held_by = self.slots.get(slot).reservation().map(|r| r.job());
        let instance = self.jobs.launch_next(job, stage, slot).expect("stage had a pending task");
        self.slots.assign(slot, instance.task).expect("candidate slot was not running");
        self.start_instance(slot, RunningInstance { instance, started: now, level });
        Some((Assignment { slot, instance, level, speculative: false, warm: false }, held_by))
    }

    /// Records `ri` as running on `slot` and counts the launch.
    fn start_instance(&mut self, slot: SlotId, ri: RunningInstance) {
        if let Some(entry) = self.running.get_mut(slot.index()) {
            *entry = Some(ri);
        }
        self.counters.tasks_assigned.inc();
        self.counters.peak_running_instances.high_water(self.slots.counts().1 as u64);
    }

    /// Removes and returns the instance running on `slot`, if any.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    fn stop_instance(&mut self, slot: SlotId) -> Option<RunningInstance> {
        self.running.get_mut(slot.index())?.take()
    }

    /// Ranks candidate slots for one task set from the pool's indexes,
    /// reproducing the full-scan rank exactly: the minimum of
    /// `(locality level, ownership class, slot id)` where class 0 = own
    /// approved reservation, 1 = free, 2 = another job's approved
    /// reservation.
    ///
    /// Free candidates are searched level by level in the pool's free
    /// bitset: word-wise against the preferred slots, then over each
    /// preferred node's and rack's contiguous id range. No exclusion is
    /// needed at the coarser levels: the search returns at the *first*
    /// level with any candidate, so reaching level L implies no free
    /// fitting slot exists at any better level — a fit check alone
    /// suffices. Reserved slots are ranked per approved reservation group
    /// from its owner's bitset ([`rank_group`](Self::rank_group)).
    fn best_candidate(
        &self,
        job: JobId,
        priority: Priority,
        tsm: &TaskSetManager,
        demand: u32,
        allowed: LocalityLevel,
        now: SimTime,
    ) -> Option<(SlotId, LocalityLevel)> {
        let preferred = tsm.preferred();
        // Best approved reserved candidate per locality level: (class, id).
        let mut reserved_best: [Option<(u8, SlotId)>; 4] = [None; 4];
        if self.group_approval() {
            // Verdicts are uniform per (owner, priority) reservation
            // group: one ApprovalLogic verdict covers every slot of a
            // group, and the owning job never needs one. Visits the same
            // approved-slot set as the per-slot scan below, so the
            // min-rank result is identical.
            self.walk_groups(job, priority, now, true, |owner, rprio, class| {
                if let Some(class) = class {
                    let group = (owner, rprio, class);
                    self.rank_group(group, tsm, demand, allowed, &mut reserved_best);
                }
                false
            });
        } else {
            for slot in self.slots.reserved_slots() {
                self.counters.slots_scanned.inc();
                // §III-C: a task only fits a slot of at least its demand.
                if self.slots.size(slot) < demand {
                    continue;
                }
                let level = tsm.level_on(&self.spec, slot);
                if level > allowed {
                    continue;
                }
                let r = self.slots.get(slot).reservation().expect("reserved index entry");
                let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
                self.counters.approval_calls.inc();
                if !self.policy.approve(&ctx, r, job, priority) {
                    continue;
                }
                let class = if r.job() == job { 0u8 } else { 2u8 };
                keep_min(&mut reserved_best[level.index()], (class, slot));
            }
        }
        // With the free index empty, its searches can only come back
        // empty (and count nothing), so they are skipped.
        let no_free = self.slots.counts().0 == 0;
        for &level in LocalityLevel::ALL.iter().filter(|&&l| l <= allowed) {
            let free = match level {
                // Intersects the preferred slots with the free bitset a
                // word at a time, so the out-of-service guard comes with
                // it: a crashed slot is Free but never in the free index,
                // and never offered. Counts every preferred slot, as the
                // per-slot filter it replaced did.
                LocalityLevel::ProcessLocal if !preferred.is_empty() => {
                    self.counters.slots_scanned.add(preferred.len() as u64);
                    tsm.first_preferred_in(self.slots.free_bits(), |s| self.slots.size(s) >= demand)
                }
                _ if no_free => None,
                // No preference: every slot is process-local.
                LocalityLevel::ProcessLocal => self.min_free_fitting(self.slots.free_slots(), demand),
                LocalityLevel::NodeLocal => tsm
                    .pref_nodes()
                    .iter()
                    .filter_map(|&n| self.min_free_fitting(self.slots.free_on_node(n), demand))
                    .min(),
                LocalityLevel::RackLocal => tsm
                    .pref_racks()
                    .iter()
                    .filter_map(|&r| self.min_free_fitting(self.slots.free_in_rack(r), demand))
                    .min(),
                LocalityLevel::Any => self.min_free_fitting(self.slots.free_slots(), demand),
            };
            let best = match (reserved_best[level.index()], free) {
                (Some(r), Some(f)) => Some(r.min((1u8, f))),
                (Some(r), None) => Some(r),
                (None, Some(f)) => Some((1u8, f)),
                (None, None) => None,
            };
            if let Some((_, slot)) = best {
                return Some((slot, level));
            }
        }
        None
    }

    /// Ranks the slots of the approved reservation group `(owner, rprio)`
    /// into `best`, the best `(class, slot)` per locality level. Kept out
    /// of line so that the group walk calling it stays a tight loop over
    /// the groups that do not approve.
    ///
    /// The group's process-local candidate is the lowest slot of the
    /// owner's bitset that is preferred (every slot is, without a
    /// preference), carries `rprio` and fits `demand`, found 64 slots a
    /// word. `best_candidate` returns at the first level with a
    /// candidate, so once `best` has a process-local entry the coarser
    /// levels are never read: the per-slot walk that ranks them runs only
    /// while it has none. Counts the owner's whole reserved set, as the
    /// per-slot walk over it did.
    #[inline(never)]
    fn rank_group(
        &self,
        (owner, rprio, class): (JobId, Priority, u8),
        tsm: &TaskSetManager,
        demand: u32,
        allowed: LocalityLevel,
        best: &mut [Option<(u8, SlotId)>; 4],
    ) {
        let Some(mine) = self.slots.reserved_bits(owner) else { return };
        self.counters.slots_scanned.add(mine.len() as u64);
        // §III-C: a task only fits a slot of at least its demand.
        let fits = |slot: SlotId| self.reserved_priority(slot) == Some(rprio) && self.slots.size(slot) >= demand;
        let local = if tsm.preferred().is_empty() {
            mine.iter().find(|&s| fits(s))
        } else {
            tsm.first_preferred_in(mine.words(), fits)
        };
        let local_best = &mut best[LocalityLevel::ProcessLocal.index()];
        if let Some(slot) = local {
            keep_min(local_best, (class, slot));
            return;
        }
        if local_best.is_some() || allowed == LocalityLevel::ProcessLocal || tsm.preferred().is_empty() {
            return;
        }
        for slot in mine.iter().filter(|&s| fits(s)) {
            let level = tsm.level_on(&self.spec, slot);
            if level <= allowed {
                keep_min(&mut best[level.index()], (class, slot));
            }
        }
    }

    /// The priority of the reservation on `slot`, if it is reserved.
    fn reserved_priority(&self, slot: SlotId) -> Option<Priority> {
        self.slots.get(slot).reservation().map(|r| r.priority())
    }

    /// The minimum free slot of size ≥ `demand` from an ascending
    /// iterator over the pool's free index (all of it, a node or a rack).
    fn min_free_fitting(&self, mut iter: impl Iterator<Item = SlotId>, demand: u32) -> Option<SlotId> {
        if self.slots.uniform_size() {
            // Homogeneous cluster: the first slot fits iff any does.
            let first = iter.next();
            if first.is_some() {
                self.counters.slots_scanned.inc();
            }
            return first.filter(|&s| self.slots.size(s) >= demand);
        }
        iter.inspect(|_| self.counters.slots_scanned.inc()).find(|&s| self.slots.size(s) >= demand)
    }

    /// §IV-C: for each job whose reserved-idle slots can cover all ongoing
    /// tasks of a phase (with no originals left to launch), runs one extra
    /// copy of each ongoing task on a reserved slot. Copies run on warm
    /// slots that just executed the same phase, so they incur no locality
    /// or cold-JVM penalty. Appends the copies to `out`.
    fn launch_straggler_copies(&mut self, now: SimTime, out: &mut Vec<Assignment>) {
        // Only jobs actually holding reservations can launch copies; the
        // per-job reservation index lists them in ascending id order, the
        // same relative order the all-jobs scan visited them in.
        let mut job_ids = take_scratch(&self.counters, &mut self.straggler_jobs_buf);
        job_ids.extend(self.slots.reservations_by_job().map(|(j, _)| j));
        let mut remaining = take_scratch(&self.counters, &mut self.straggler_slots_buf);
        let mut plans = take_scratch(&self.counters, &mut self.straggler_plans_buf);
        for &job in &job_ids {
            remaining.clear();
            remaining.extend(self.slots.reserved_for(job));
            // Skips reservation holders that are not schedulable jobs
            // (the static-pool sentinel).
            let Some(state) = self.jobs.get(job) else { continue };
            plans.clear();
            let mut budget = remaining.len();
            for tsm in state.active_tasksets() {
                if tsm.has_pending() {
                    continue;
                }
                let demand = state.spec().stage(tsm.stage()).demand();
                let fitting = remaining.iter().filter(|&&s| self.slots.size(s) >= demand).count();
                let ongoing = tsm.ongoing_count();
                if ongoing == 0 || fitting < ongoing || budget < ongoing {
                    continue;
                }
                let before = plans.len();
                plans.extend(
                    tsm.copy_candidate_iter()
                        .take(budget)
                        .inspect(|_| self.counters.speculation_candidates_examined.inc())
                        .map(|p| (tsm.stage(), p)),
                );
                budget -= plans.len() - before;
            }
            for &(stage, partition) in &plans {
                let demand = self.jobs.get(job).expect("job exists").spec().stage(stage).demand();
                let Some(pos) =
                    remaining.iter().position(|&s| self.slots.size(s) >= demand && !self.slots.get(s).is_running())
                else {
                    break;
                };
                let slot = remaining.remove(pos);
                let instance = self.jobs.launch_copy(job, stage, partition, slot).expect("stage has a task set");
                self.slots.assign(slot, instance.task).expect("reserved slot is assignable");
                self.start_instance(
                    slot,
                    RunningInstance { instance, started: now, level: LocalityLevel::ProcessLocal },
                );
                let a =
                    Assignment { slot, instance, level: LocalityLevel::ProcessLocal, speculative: true, warm: true };
                self.emit(now, |_| launch_event(&a));
                out.push(a);
            }
        }
        self.straggler_jobs_buf = job_ids;
        self.straggler_slots_buf = remaining;
        self.straggler_plans_buf = plans;
    }

    /// Status-quo speculation: copies of slow tasks on free slots, cold.
    /// Appends the copies to `out`.
    fn launch_progress_speculation(&mut self, now: SimTime, out: &mut Vec<Assignment>) {
        let Some(cfg) = self.speculation else { return };
        // Plan immutably first: (job, stage, partition, slot, level).
        let mut plans = take_scratch(&self.counters, &mut self.spec_plans_buf);
        let mut free = take_scratch(&self.counters, &mut self.spec_free_buf);
        free.extend(self.slots.free_slots());
        for state in self.jobs.iter() {
            if state.is_complete() || free.is_empty() {
                continue;
            }
            for tsm in state.active_tasksets() {
                if tsm.has_pending() {
                    continue;
                }
                let Some(threshold) = cfg.threshold(tsm.durations(), tsm.parallelism()) else {
                    continue;
                };
                for partition in tsm.copy_candidate_iter() {
                    self.counters.speculation_candidates_examined.inc();
                    let Some((instance, running_slot)) = tsm.sole_running_instance(partition) else {
                        continue;
                    };
                    let Some(Some(ri)) = self.running.get(running_slot.index()) else { continue };
                    debug_assert_eq!(ri.instance, instance);
                    let elapsed = now.saturating_since(ri.started).as_secs_f64();
                    if elapsed <= threshold {
                        continue;
                    }
                    let demand = state.spec().stage(tsm.stage()).demand();
                    let Some(pos) = free.iter().position(|&s| self.slots.size(s) >= demand) else {
                        continue;
                    };
                    let slot = free.remove(pos);
                    let level = tsm.level_on(&self.spec, slot);
                    plans.push((state.id(), tsm.stage(), partition, slot, level));
                }
            }
        }
        for &(job, stage, partition, slot, level) in &plans {
            let instance = self.jobs.launch_copy(job, stage, partition, slot).expect("stage has a task set");
            self.slots.assign(slot, instance.task).expect("free slot is assignable");
            self.start_instance(slot, RunningInstance { instance, started: now, level });
            let a = Assignment { slot, instance, level, speculative: true, warm: false };
            self.emit(now, |_| launch_event(&a));
            out.push(a);
        }
        self.spec_plans_buf = plans;
        self.spec_free_buf = free;
    }

    /// Processes the completion of the task instance running on `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no running instance — the simulator must
    /// cancel finish events of killed copies.
    pub fn task_finished(&mut self, slot: SlotId, now: SimTime) -> FinishOutcome {
        self.advance_clock(now);
        let ri = self.stop_instance(slot).unwrap_or_else(|| panic!("task_finished on {slot} with no running instance"));
        let task = ri.instance.task;
        self.slots.finish(slot).expect("slot was running");
        let duration = now.saturating_since(ri.started);
        self.emit(now, |_| TraceEventKind::TaskFinished {
            slot: slot.as_u32(),
            job: task.job,
            stage: task.stage,
            partition: task.partition,
            attempt: ri.instance.attempt,
            duration_secs: duration.as_secs_f64(),
        });

        // The task set records the winner's duration and its slot, which
        // now holds the partition's output (and a warm JVM for this job).
        let outcome = self.jobs.instance_finished(ri.instance, duration).expect("stage has a task set");
        debug_assert!(outcome.first_finish, "losers are killed, not finished");

        // Kill losing copies of the same partition.
        let mut killed = Vec::new();
        for (_, loser_slot) in &outcome.losers {
            self.slots.finish(*loser_slot).expect("loser was running");
            self.stop_instance(*loser_slot);
            self.emit(now, |_| TraceEventKind::CopyKilled {
                slot: loser_slot.as_u32(),
                job: task.job,
                stage: task.stage,
                partition: task.partition,
            });
            killed.push(*loser_slot);
        }

        // The phases whose barrier this finish cleared.
        let newly_ready = self.jobs.get(task.job).expect("job exists").cleared_by(task.stage);
        for &ready_stage in &newly_ready {
            self.emit(now, |_| TraceEventKind::BarrierCleared { job: task.job, stage: ready_stage });
            let state = self.jobs.get(task.job).expect("job exists");
            let parallelism = state.spec().stage(ready_stage).parallelism();
            let tsm = TaskSetManager::new(task.job, ready_stage, parallelism, now)
                .with_preferred(state.preferred_slots(ready_stage), &self.spec);
            self.jobs.insert_taskset(task.job, tsm);
            // The phase has started: stop pre-reserving for it.
            self.prereserve.remove(&(task.job, ready_stage));
        }

        let state = self.jobs.get(task.job).expect("job exists");
        let stage_completed = state.taskset(task.stage).expect("stage has a task set").is_complete();
        let job_completed = stage_completed && state.all_stages_complete();

        if stage_completed {
            self.emit(now, |_| TraceEventKind::StageCompleted { job: task.job, stage: task.stage });
            // Reservations that were held *for* this phase are now stale.
            // The per-job index yields ascending slot ids, like the old
            // full scan.
            let stale: Vec<SlotId> = self
                .slots
                .reserved_for(task.job)
                .filter(|&s| self.slots.get(s).reservation().is_some_and(|r| r.stage() == Some(task.stage)))
                .collect();
            for s in stale {
                self.slots.release(s).expect("stale reservation is releasable");
                self.emit(now, |_| TraceEventKind::StaleReservationReleased {
                    slot: s.as_u32(),
                    job: task.job,
                    stage: task.stage,
                });
            }
            self.prereserve.remove(&(task.job, task.stage));
        }

        if job_completed {
            self.emit(now, |_| TraceEventKind::JobCompleted { job: task.job });
            self.jobs.mark_complete(task.job, now);
            for s in self.slots.release_job_reservations(task.job) {
                self.emit(now, |_| TraceEventKind::ReservationReleased { slot: s.as_u32(), job: task.job });
            }
            self.prereserve.retain(|(j, _), _| *j != task.job);
            let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
            self.policy.on_job_completed(&ctx, task.job);
        } else {
            // Algorithm 1 HandleTaskCompletion: the policy decides the fate
            // of the winner's slot and of every killed copy's slot.
            for s in std::iter::once(slot).chain(killed.iter().copied()) {
                // A slot that went offline mid-run (a partition survivor
                // finishing out of service) cannot be handed back to the
                // policy: it takes no reservation until it heals.
                if self.slots.is_offline(s) != Ok(false) {
                    continue;
                }
                let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
                match self.policy.on_task_completed(&ctx, task, s) {
                    SlotDisposition::Release => {}
                    SlotDisposition::Reserve(r) => {
                        self.slots.reserve(s, r).expect("freed slot is reservable");
                        self.emit(now, |_| TraceEventKind::ReservationGranted {
                            slot: s.as_u32(),
                            job: r.job(),
                            priority: r.priority(),
                            stage: r.stage(),
                            deadline_secs: r.deadline().map(|d| d.as_secs_f64()),
                        });
                    }
                }
            }
            for &ready_stage in &newly_ready {
                let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
                self.policy.on_stage_ready(&ctx, task.job, ready_stage);
            }
            // Algorithm 1 lines 14-17: pre-reservation for a wider
            // downstream phase.
            let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
            if let Some(req) = self.policy.prereserve(&ctx, task) {
                if req.extra > 0 {
                    let entry = self.prereserve.entry((req.job, req.stage)).or_insert(PendingPrereserve {
                        target: 0,
                        granted: 0,
                        priority: req.priority,
                        deadline: req.deadline,
                        min_size: req.min_size,
                    });
                    entry.target = entry.target.max(req.extra);
                    entry.priority = req.priority;
                    entry.deadline = req.deadline;
                    entry.min_size = req.min_size;
                }
            }
        }
        self.fill_prereservations(now);

        FinishOutcome { instance: ri.instance, duration, newly_ready, killed, stage_completed, job_completed }
    }

    /// Grants pending pre-reservations from currently free slots.
    ///
    /// Requests are served highest priority first (deadline, then job id
    /// and stage id as tie-breaks) — *not* in `(JobId, StageId)` map-key
    /// order, which would let an older (smaller-id) low-priority job grab
    /// free slots ahead of a higher-priority job's pending request. See
    /// [`crate::policy::PreReserveRequest`] for the contract.
    fn fill_prereservations(&mut self, now: SimTime) {
        if self.prereserve.is_empty() {
            return;
        }
        let mut free = take_scratch(&self.counters, &mut self.prereserve_free_buf);
        free.extend(self.slots.free_slots().map(|s| (s, self.slots.size(s))));
        let mut keys = take_scratch(&self.counters, &mut self.prereserve_keys_buf);
        keys.extend(self.prereserve.keys().copied());
        let prereserve = &self.prereserve;
        keys.sort_by_key(|key| {
            let e = prereserve.get(key).expect("key just listed");
            // Highest priority first; among equals, earliest deadline
            // (requests without a deadline last), then (job, stage) id.
            (std::cmp::Reverse(e.priority), e.deadline.is_none(), e.deadline, key.0, key.1)
        });
        for &key in &keys {
            let entry = *self.prereserve.get(&key).expect("key just listed");
            let mut granted = entry.granted;
            while granted < entry.target {
                // §III-C: pre-reserved slots must be of the right size.
                let Some(pos) = free.iter().position(|&(_, size)| size >= entry.min_size) else {
                    break;
                };
                let (slot, _) = free.remove(pos);
                let mut r = Reservation::new(key.0, entry.priority).with_stage(key.1);
                if let Some(d) = entry.deadline {
                    r = r.with_deadline(d);
                }
                self.slots.reserve(slot, r).expect("free slot is reservable");
                self.emit(now, |_| TraceEventKind::PrereserveFilled {
                    slot: slot.as_u32(),
                    job: key.0,
                    stage: key.1,
                    priority: entry.priority,
                    deadline_secs: entry.deadline.map(|d| d.as_secs_f64()),
                });
                granted += 1;
            }
            self.prereserve.get_mut(&key).expect("key just listed").granted = granted;
        }
        self.prereserve_free_buf = free;
        self.prereserve_keys_buf = keys;
    }

    /// Releases reservations whose deadline has passed; returns freed
    /// slots.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn expire_reservations(&mut self, now: SimTime) -> Vec<SlotId> {
        // The owners are kept only for the trace, in deadline order.
        let tracing = self.trace_enabled();
        let mut expired: Vec<(SlotId, JobId)> = Vec::new();
        let freed = self.slots.expire_reservations_with(now, |slot, r| {
            if tracing {
                expired.push((slot, r.job()));
            }
        });
        for (slot, job) in expired {
            self.emit(now, |_| TraceEventKind::ReservationExpired { slot: slot.as_u32(), job });
        }
        freed
    }

    /// Takes `failed` slots out of service at `now` (fault injection).
    ///
    /// For each slot not already offline, in order: with `kill_running`,
    /// any running instance is killed (`task-crashed`) and its partition
    /// re-queued unless a sibling copy survives; an idle reservation is
    /// forcibly revoked (`reservation-revoked`); finally the slot leaves
    /// the pool (`slot-offline`) and stops receiving offers and
    /// pre-reservation fills until [`restore_slots`]. Without
    /// `kill_running` (network partition) running instances survive and
    /// may finish out of service. The caller must cancel pending finish
    /// events for every returned `killed` slot.
    ///
    /// [`restore_slots`]: TaskScheduler::restore_slots
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn fail_slots(
        &mut self,
        failed: &[SlotId],
        now: SimTime,
        kill_running: bool,
        cause: &'static str,
    ) -> FailureOutcome {
        self.advance_clock(now);
        let mut outcome = FailureOutcome::default();
        for &slot in failed {
            // Unknown slots and slots already out of service are skipped.
            if self.slots.is_offline(slot) != Ok(false) {
                continue;
            }
            if kill_running {
                if let Some(ri) = self.stop_instance(slot) {
                    let task = ri.instance.task;
                    // Invariant: a slot in `self.running` is Busy in the
                    // pool and its instance belongs to a registered
                    // job/stage. A violation would be internal index
                    // corruption — a fault event must not escalate it
                    // into a panic, so release builds degrade to
                    // skipping the broken bookkeeping.
                    let freed = self.slots.finish(slot);
                    debug_assert!(freed.is_ok(), "tracked instance occupies a busy slot");
                    let requeued = self.jobs.instance_crashed(ri.instance);
                    self.emit(now, |_| TraceEventKind::TaskCrashed {
                        slot: slot.as_u32(),
                        job: task.job,
                        stage: task.stage,
                        partition: task.partition,
                        attempt: ri.instance.attempt,
                        requeued,
                    });
                    outcome.killed.push(slot);
                }
            }
            if let Ok(Some(r)) = self.slots.take_offline(slot) {
                outcome.revoked.push(slot);
                self.emit(now, |_| TraceEventKind::ReservationRevoked { slot: slot.as_u32(), job: r.job() });
            }
            self.emit(now, |_| TraceEventKind::SlotOffline { slot: slot.as_u32(), cause });
        }
        outcome
    }

    /// Returns `restored` slots to service after a fault heals; freed slots
    /// rejoin the offer pool immediately, partition survivors when their
    /// task finishes. Slots that were never offline, or are not in the
    /// cluster, are skipped.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
    #[deny(clippy::panic, clippy::unreachable)]
    pub fn restore_slots(&mut self, restored: &[SlotId], now: SimTime) {
        self.advance_clock(now);
        for &slot in restored {
            if self.slots.bring_online(slot) == Ok(true) {
                self.emit(now, |_| TraceEventKind::SlotOnline { slot: slot.as_u32() });
            }
        }
    }

    /// Reports a delay-scheduling unlock wakeup to the trace. Called by the
    /// driving simulator when its locality-unlock event fires, just before
    /// the offer round it triggers; a no-op without a sink.
    pub fn trace_locality_unlock(&mut self, now: SimTime) {
        self.emit(now, |_| TraceEventKind::LocalityUnlocked);
    }

    /// The earliest reservation deadline currently pending, for event
    /// scheduling.
    pub fn next_reservation_expiry(&self) -> Option<SimTime> {
        self.slots.next_deadline()
    }

    /// The earliest future instant at which some pending task unlocks a
    /// more relaxed locality level (delay scheduling), for event
    /// scheduling.
    ///
    /// Walks only the task sets of the unlock window — those created
    /// recently enough to unlock another level — not the job table, so
    /// `now` must not precede the latest [`resource_offers`] call, which
    /// prunes the window.
    ///
    /// [`resource_offers`]: TaskScheduler::resource_offers
    pub fn next_locality_unlock(&self, now: SimTime) -> Option<SimTime> {
        self.jobs
            .unlock_window()
            .filter_map(|(job, stage)| {
                let state = self.jobs.get(job).filter(|j| !j.is_complete())?;
                self.unlock_at(state.pending_taskset(stage)?, now)
            })
            .min()
    }

    /// When `tsm` next unlocks a locality level after `now`, if ever.
    fn unlock_at(&self, tsm: &TaskSetManager, now: SimTime) -> Option<SimTime> {
        let elapsed = now.saturating_since(tsm.ready_since());
        self.locality.next_unlock_after(elapsed).map(|unlock| tsm.ready_since() + unlock)
    }

    /// The full-walk reference [`next_locality_unlock`] is tested
    /// against: every pending task set of every incomplete job.
    ///
    /// [`next_locality_unlock`]: TaskScheduler::next_locality_unlock
    #[cfg(test)]
    fn next_locality_unlock_full_walk(&self, now: SimTime) -> Option<SimTime> {
        self.jobs
            .iter()
            .filter(|j| !j.is_complete())
            .flat_map(|j| j.active_tasksets().filter(|t| t.has_pending()))
            .filter_map(|tsm| self.unlock_at(tsm, now))
            .min()
    }

    /// The cluster topology.
    pub fn cluster_spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The locality model in force.
    pub fn locality(&self) -> &LocalityModel {
        &self.locality
    }

    /// The slot pool (states, reservations and indexes).
    pub fn slot_pool(&self) -> &SlotPool {
        &self.slots
    }

    /// All admitted jobs.
    pub fn jobs(&self) -> &Jobs {
        &self.jobs
    }

    /// Slots currently running tasks of `job` — O(1), 0 for an unknown
    /// job.
    pub fn running_count_for(&self, job: JobId) -> usize {
        self.jobs.get(job).map_or(0, JobState::running_count)
    }

    /// Iterate over `(slot, running instance)` pairs.
    pub fn running_instances(&self) -> impl Iterator<Item = (SlotId, &RunningInstance)> {
        self.running.iter().enumerate().filter_map(|(i, r)| Some((SlotId::new(i as u32), r.as_ref()?)))
    }

    /// `true` while some admitted job is incomplete.
    pub fn has_unfinished_jobs(&self) -> bool {
        self.jobs.incomplete_count() > 0
    }

    /// The reservation policy's name (for reports).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The job order's name (for reports).
    pub fn order_name(&self) -> &'static str {
        self.order.name()
    }
}

/// What an offer round notes while it walks the pending index, kept
/// across rounds for its capacity.
#[derive(Debug, Default)]
struct RoundNotes {
    /// In a round that starts with no free slot, the lowest group
    /// priority the viability filter read.
    filter_floor: Option<Option<Priority>>,
    /// The jobs that held reservations when the filter ran and have
    /// since had their last one taken.
    lost: Vec<JobId>,
    /// The candidates the filter dropped, by id; untraced with a declared
    /// rule, only those above its floor.
    dropped: Vec<JobId>,
    /// Untraced with a declared rule, the entries the round has passed,
    /// by declining them or in the filter, per priority level.
    passed: LevelTallies,
}

impl RoundNotes {
    /// Empties the notes for a round over an index with `levels`. The
    /// passed entries never span more levels than the index, so their
    /// table is sized to it here: a round allocates for it only when the
    /// index has gained a level.
    fn clear(&mut self, levels: &LevelTallies) {
        self.filter_floor = None;
        self.lost.clear();
        self.dropped.clear();
        self.passed.clear_for(levels);
    }
}

/// `true` when `rule` could approve a job that owns no reservation at
/// `priority` while the lowest group priority is `lowest`: at or below
/// that floor, or with no group at all, every verdict is false.
#[inline]
fn above_floor(rule: ApprovalRule, priority: Priority, lowest: Option<Priority>) -> bool {
    lowest.is_some_and(|l| rule.could_approve(priority, l))
}

/// [`TaskScheduler::walk_groups`], monomorphic per verdict source: returns
/// the groups touched, the verdicts taken, and whether `visit` stopped it.
#[inline(always)]
fn walk_groups_with(
    groups: &[(JobId, Priority, usize)],
    job: JobId,
    mut visit: impl FnMut(JobId, Priority, Option<u8>) -> bool,
    approves: impl Fn(JobId, Priority) -> bool,
) -> (u64, u64, bool) {
    let mut calls = 0;
    for (i, &(owner, rprio, _)) in groups.iter().enumerate() {
        let class = if owner == job {
            Some(0)
        } else {
            calls += 1;
            approves(owner, rprio).then_some(2)
        };
        if visit(owner, rprio, class) {
            return (i as u64 + 1, calls, true);
        }
    }
    (groups.len() as u64, calls, false)
}

/// Keeps the lower of `entry` and `rank`, a `(class, slot)` candidate rank.
#[inline]
fn keep_min(entry: &mut Option<(u8, SlotId)>, rank: (u8, SlotId)) {
    if entry.is_none_or(|b| rank < b) {
        *entry = Some(rank);
    }
}

/// Takes a scratch buffer for one use, empty, and counts the recycle: a
/// buffer that kept its capacity from a prior round is a reuse, one
/// growing from zero is a fresh allocation. The caller puts it back.
#[inline]
fn take_scratch<T>(counters: &WorkCounters, buf: &mut Vec<T>) -> Vec<T> {
    let mut taken = std::mem::take(buf);
    if taken.capacity() > 0 {
        counters.scratch_reuses.inc();
    } else {
        counters.scratch_allocs.inc();
    }
    taken.clear();
    taken
}

/// The trace event for a candidate `job` that placed no task this round.
fn declined_event(s: &TaskScheduler, job: JobId, now: SimTime) -> TraceEventKind {
    let (reason, stage) = s.deny_reason(job, now);
    TraceEventKind::OfferDeclined { job, reason, stage }
}

/// Lowers an [`Assignment`] into its trace event.
fn launch_event(a: &Assignment) -> TraceEventKind {
    TraceEventKind::TaskLaunched {
        slot: a.slot.as_u32(),
        job: a.instance.task.job,
        stage: a.instance.task.stage,
        partition: a.instance.task.partition,
        attempt: a.instance.attempt,
        level: a.level.as_str(),
        speculative: a.speculative,
        warm: a.warm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{Fair, FifoPriority};
    use crate::policy::{StaticReservation, TimeoutReservation, WorkConserving};
    use crate::speculation::SpeculationConfig;
    use ssr_dag::{JobSpecBuilder, StageSpec};
    use ssr_simcore::dist::constant;
    use ssr_simcore::SimDuration;

    fn scheduler(nodes: u32, slots_per_node: u32) -> TaskScheduler {
        TaskScheduler::new(
            ClusterSpec::new(nodes, slots_per_node).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        )
    }

    fn one_stage_job(name: &str, parallelism: u32, priority: i32) -> JobSpec {
        JobSpecBuilder::new(name)
            .priority(Priority::new(priority))
            .stage("only", parallelism, constant(1.0))
            .build()
            .unwrap()
    }

    fn two_stage_job(name: &str, parallelism: u32, priority: i32) -> JobSpec {
        JobSpecBuilder::new(name)
            .priority(Priority::new(priority))
            .stage("up", parallelism, constant(1.0))
            .stage("down", parallelism, constant(1.0))
            .chain()
            .build()
            .unwrap()
    }

    #[test]
    fn assigns_all_tasks_up_to_capacity() {
        let mut s = scheduler(2, 2);
        let job = s.submit(one_stage_job("j", 6, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 4); // only 4 slots
        assert_eq!(s.running_count_for(job), 4);
        assert_eq!(s.jobs().get(job).unwrap().taskset(StageId::new(0)).unwrap().pending_count(), 2);
        // No double assignment on re-offer.
        assert!(s.resource_offers(SimTime::ZERO).is_empty());
    }

    #[test]
    fn priority_job_gets_slots_first() {
        let mut s = scheduler(1, 2);
        let low = s.submit(one_stage_job("low", 2, 0), SimTime::ZERO);
        let high = s.submit(one_stage_job("high", 2, 10), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|x| x.instance.task.job == high));
        assert_eq!(s.running_count_for(low), 0);
    }

    #[test]
    fn submit_gives_the_root_phase_a_task_set() {
        let mut s = scheduler(1, 2);
        let job = s.submit(two_stage_job("c", 2, 0), SimTime::ZERO);
        let state = s.jobs().get(job).unwrap();
        let ready: Vec<StageId> = state.active_tasksets().map(TaskSetManager::stage).collect();
        assert_eq!(ready, vec![StageId::new(0)]);
        assert!(state.taskset(StageId::new(1)).is_none());
    }

    #[test]
    fn submit_gives_each_root_phase_a_task_set() {
        let mut s = scheduler(1, 2);
        let spec = JobSpecBuilder::new("m")
            .stage("a", 1, constant(1.0))
            .stage("b", 2, constant(1.0))
            .stage("join", 1, constant(1.0))
            .edge(0, 2)
            .edge(1, 2)
            .build()
            .unwrap();
        let job = s.submit(spec, SimTime::ZERO);
        let state = s.jobs().get(job).unwrap();
        let ready: Vec<StageId> = state.active_tasksets().map(TaskSetManager::stage).collect();
        assert_eq!(ready, vec![StageId::new(0), StageId::new(1)]);
        assert!(state.taskset(StageId::new(2)).is_none());
    }

    #[test]
    fn full_pipeline_runs_to_completion() {
        let mut s = scheduler(1, 2);
        let job = s.submit(two_stage_job("p", 2, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 2);
        let t1 = SimTime::from_secs(1);
        let o1 = s.task_finished(a[0].slot, t1);
        assert!(!o1.stage_completed);
        assert!(o1.newly_ready.is_empty());
        let o2 = s.task_finished(a[1].slot, t1);
        assert!(o2.stage_completed);
        assert_eq!(o2.newly_ready, vec![StageId::new(1)]);

        let b = s.resource_offers(t1);
        assert_eq!(b.len(), 2);
        let t2 = SimTime::from_secs(2);
        s.task_finished(b[0].slot, t2);
        let done = s.task_finished(b[1].slot, t2);
        assert!(done.job_completed);
        assert!(!s.has_unfinished_jobs());
        assert_eq!(s.jobs().get(job).unwrap().completed_at(), Some(t2));
    }

    #[test]
    fn work_conserving_gives_freed_slots_to_backlog() {
        // The §II-B failure mode: a high-priority two-phase job loses its
        // freed slot to a backlogged low-priority job at the barrier.
        let mut s = scheduler(1, 2);
        let high = s.submit(two_stage_job("fg", 2, 10), SimTime::ZERO);
        let low = s.submit(one_stage_job("bg", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert!(a.iter().all(|x| x.instance.task.job == high));
        // First foreground task finishes; barrier still holds.
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        let b = s.resource_offers(SimTime::from_secs(1));
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].instance.task.job, low, "work conservation hands the slot to bg");
    }

    #[test]
    fn timeout_reservation_holds_slot_from_lower_priority() {
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 2).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(TimeoutReservation::new(SimDuration::from_secs(30))),
            Box::new(FifoPriority),
        );
        let high = s.submit(two_stage_job("fg", 2, 10), SimTime::ZERO);
        let low = s.submit(one_stage_job("bg", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert!(a.iter().all(|x| x.instance.task.job == high));
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        // Slot is reserved for the foreground job; background is refused.
        let b = s.resource_offers(SimTime::from_secs(1));
        assert!(b.is_empty(), "reservation must block the background job, got {b:?}");
        let (_, _, reserved) = s.slot_pool().counts();
        assert_eq!(reserved, 1);
        // After expiry the slot goes to the background job.
        assert_eq!(s.next_reservation_expiry(), Some(SimTime::from_secs(31)));
        let freed = s.expire_reservations(SimTime::from_secs(31));
        assert_eq!(freed.len(), 1);
        let c = s.resource_offers(SimTime::from_secs(31));
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].instance.task.job, low);
    }

    #[test]
    fn static_pool_reserved_at_start_and_restored() {
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 4).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(StaticReservation::new(2, Priority::new(10))),
            Box::new(FifoPriority),
        );
        let (_, _, reserved) = s.slot_pool().counts();
        assert_eq!(reserved, 2);
        // A low-priority job can only use the 2 unreserved slots.
        let low = s.submit(one_stage_job("bg", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 2);
        // A class job may use the pool.
        let high = s.submit(one_stage_job("fg", 2, 10), SimTime::ZERO);
        let b = s.resource_offers(SimTime::ZERO);
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|x| x.instance.task.job == high));
        // Pool slots are re-reserved after the class task finishes.
        s.task_finished(b[0].slot, SimTime::from_secs(1));
        let (_, _, reserved) = s.slot_pool().counts();
        assert_eq!(reserved, 1);
        let _ = (low, high);
    }

    #[test]
    fn fair_order_splits_slots() {
        let mut s = TaskScheduler::new(
            ClusterSpec::new(2, 2).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(WorkConserving),
            Box::new(Fair),
        );
        let j1 = s.submit(one_stage_job("a", 4, 0), SimTime::ZERO);
        let j2 = s.submit(one_stage_job("b", 4, 0), SimTime::ZERO);
        s.resource_offers(SimTime::ZERO);
        assert_eq!(s.running_count_for(j1), 2);
        assert_eq!(s.running_count_for(j2), 2);
    }

    #[test]
    fn delay_scheduling_blocks_remote_slots_until_wait() {
        // 2 nodes x 1 slot; downstream prefers the slot its upstream ran
        // on. Make the other slot the only one available.
        let mut s = TaskScheduler::new(
            ClusterSpec::new(2, 1).unwrap(),
            LocalityModel::fixed(SimDuration::from_secs(3), 1.0, 1.0, 1.0, 5.0),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        );
        let fg = s.submit(
            JobSpecBuilder::new("fg")
                .priority(Priority::new(10))
                .stage("up", 1, constant(1.0))
                .stage("down", 1, constant(1.0))
                .chain()
                .build()
                .unwrap(),
            SimTime::ZERO,
        );
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 1);
        let up_slot = a[0].slot;
        // Occupy the upstream slot with a background task before the
        // barrier clears.
        let bg = s.submit(one_stage_job("bg", 1, 0), SimTime::ZERO);
        let b = s.resource_offers(SimTime::ZERO);
        assert_eq!(b.len(), 1);
        assert_ne!(b[0].slot, up_slot);
        let bg_slot = b[0].slot;
        // Upstream finishes at t=1; downstream becomes ready but its
        // preferred slot is free... actually up_slot is freed; downstream
        // prefers up_slot and takes it immediately at PROCESS_LOCAL.
        let o = s.task_finished(up_slot, SimTime::from_secs(1));
        assert!(o.stage_completed);
        let c = s.resource_offers(SimTime::from_secs(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].slot, up_slot);
        assert_eq!(c[0].level, LocalityLevel::ProcessLocal);
        let _ = (fg, bg, bg_slot);
    }

    #[test]
    fn delay_scheduling_waits_when_preferred_slot_is_taken() {
        let mut s = TaskScheduler::new(
            ClusterSpec::new(2, 1).unwrap(),
            LocalityModel::fixed(SimDuration::from_secs(3), 1.0, 1.0, 1.0, 5.0),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        );
        let fg = s.submit(
            JobSpecBuilder::new("fg")
                .priority(Priority::new(10))
                .stage("up", 1, constant(1.0))
                .stage("down", 1, constant(1.0))
                .chain()
                .build()
                .unwrap(),
            SimTime::ZERO,
        );
        let a = s.resource_offers(SimTime::ZERO);
        let up_slot = a[0].slot;
        // Upstream finishes; in the same instant a long bg job grabs the
        // freed preferred slot (work conserving, bg submitted earlier in
        // the offer round via lower priority? ensure ordering: bg offered
        // after fg has nothing pending at that moment).
        s.task_finished(up_slot, SimTime::from_secs(1));
        // Downstream is ready and wants up_slot, and it is free, so it is
        // taken immediately. Instead simulate the bad case: bg occupies
        // up_slot first because downstream had not yet been submitted...
        // Here we test the wait mechanics directly: occupy up_slot with bg.
        let bg = s.submit(one_stage_job("bg", 2, 20), SimTime::from_secs(1));
        let b = s.resource_offers(SimTime::from_secs(1));
        // bg (higher priority here) takes both slots including up_slot.
        assert_eq!(b.len(), 2);
        // fg-downstream now pends; its preferred slot is busy. The other
        // slot frees at t=2 but delay scheduling refuses it until
        // ready_since + 3s = 4s.
        let other = b.iter().find(|x| x.slot != up_slot).unwrap().slot;
        s.task_finished(other, SimTime::from_secs(2));
        let c = s.resource_offers(SimTime::from_secs(2));
        assert!(c.is_empty(), "ANY-level slot must be refused during locality wait");
        assert_eq!(s.next_locality_unlock(SimTime::from_secs(2)), Some(SimTime::from_secs(4)));
        // After one wait period NODE_LOCAL unlocks (still not enough: the
        // free slot is on another node => ANY). After 3 periods it is
        // accepted.
        let d = s.resource_offers(SimTime::from_secs(4));
        assert!(d.is_empty());
        let e = s.resource_offers(SimTime::from_secs(10));
        assert_eq!(e.len(), 1);
        // Both nodes share the single default rack, so the foreign slot is
        // RACK_LOCAL.
        assert_eq!(e[0].level, LocalityLevel::RackLocal);
        let _ = (fg, bg);
    }

    #[test]
    fn finish_records_durations_and_output_slots() {
        let mut s = scheduler(1, 2);
        let job = s.submit(one_stage_job("j", 2, 0), SimTime::from_secs(1));
        let a = s.resource_offers(SimTime::from_secs(1));
        // Partition 1 finishes first.
        let by_partition = |p: u32| a.iter().find(|x| x.instance.task.partition == p).unwrap().slot;
        s.task_finished(by_partition(1), SimTime::from_secs(4));
        s.task_finished(by_partition(0), SimTime::from_secs(6));
        let tsm = s.jobs().get(job).unwrap().taskset(StageId::new(0)).unwrap();
        assert_eq!(tsm.ready_since(), SimTime::from_secs(1));
        assert_eq!(tsm.durations(), &[3.0, 5.0]);
        assert_eq!(tsm.output_slots().collect::<Vec<_>>(), vec![by_partition(0), by_partition(1)]);
    }

    #[test]
    #[should_panic(expected = "no running instance")]
    fn finish_on_idle_slot_panics() {
        let mut s = scheduler(1, 1);
        s.task_finished(SlotId::new(0), SimTime::ZERO);
    }

    #[test]
    fn demand_excludes_small_slots() {
        // 4 slots, slot 0 large (size 4); a stage demanding 4 may only
        // run on slot 0 — one task at a time.
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 4).unwrap().with_slot_sizing(1, 4, 4),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        );
        let job = ssr_dag::JobSpecBuilder::new("fat")
            .stage_spec(ssr_dag::StageSpec::new("only", 3, constant(1.0)).with_demand(4))
            .build()
            .unwrap();
        s.submit(job, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 1, "only the large slot fits");
        assert_eq!(a[0].slot, SlotId::new(0));
        // The small slots stay free even though tasks are pending.
        assert_eq!(s.slot_pool().free_slots().count(), 3);
        // Serial execution through the single large slot.
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        let b = s.resource_offers(SimTime::from_secs(1));
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].slot, SlotId::new(0));
    }

    #[test]
    fn progress_speculation_copies_slow_tasks_cold() {
        let mut s = TaskScheduler::new(
            ClusterSpec::new(2, 4).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        )
        .with_speculation(SpeculationConfig::spark_defaults());
        let job = s.submit(one_stage_job("j", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 4);
        // 3 of 4 tasks finish quickly (median 2 s); the 4th lingers.
        for slot in [a[0].slot, a[1].slot, a[2].slot] {
            s.task_finished(slot, SimTime::from_secs(2));
        }
        // Below the 1.5 x median threshold: no copy yet.
        let none = s.resource_offers(SimTime::from_secs(2));
        assert!(none.is_empty());
        // Past the threshold (elapsed 4 > 3): one cold copy on a free slot.
        let copies = s.resource_offers(SimTime::from_secs(4));
        assert_eq!(copies.len(), 1);
        assert!(copies[0].speculative);
        assert!(!copies[0].warm, "status-quo copies are cold");
        assert_eq!(copies[0].instance.task.job, job);
        assert_eq!(copies[0].instance.attempt, 1);
        // No second copy of the same partition.
        assert!(s.resource_offers(SimTime::from_secs(5)).is_empty());
        // Copy wins; the original is killed.
        let out = s.task_finished(copies[0].slot, SimTime::from_secs(6));
        assert_eq!(out.killed.len(), 1);
        assert!(out.job_completed);
        // The winning copy's slot, not the original's, holds the output.
        let tsm = s.jobs().get(job).unwrap().taskset(StageId::new(0)).unwrap();
        let partition = copies[0].instance.task.partition as usize;
        assert_eq!(tsm.output_slots().nth(partition), Some(copies[0].slot));
    }

    #[test]
    fn progress_speculation_needs_quantile() {
        let mut s = TaskScheduler::new(
            ClusterSpec::new(2, 4).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        )
        .with_speculation(SpeculationConfig::spark_defaults());
        s.submit(one_stage_job("j", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        // Only half the phase completed: below the 0.75 quantile.
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        s.task_finished(a[1].slot, SimTime::from_secs(1));
        assert!(s.resource_offers(SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn downstream_prefers_upstream_output_slots() {
        let mut s = scheduler(1, 4);
        let job = s.submit(two_stage_job("p", 2, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        let slots_used: Vec<SlotId> = a.iter().map(|x| x.slot).collect();
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        s.task_finished(a[1].slot, SimTime::from_secs(1));
        let state = s.jobs().get(job).unwrap();
        let tsm = state.taskset(StageId::new(1)).unwrap();
        for slot in slots_used {
            assert!(tsm.preferred().contains(&slot));
        }
    }

    #[test]
    fn diamond_join_prefers_both_parents_output_slots() {
        // a (2 tasks) and b (1 task) both feed the join; one slot stays
        // idle, so it holds no output.
        let mut s = scheduler(1, 4);
        let spec = JobSpecBuilder::new("d")
            .stage("a", 2, constant(1.0))
            .stage("b", 1, constant(1.0))
            .stage("join", 1, constant(1.0))
            .edge(0, 2)
            .edge(1, 2)
            .build()
            .unwrap();
        let job = s.submit(spec, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 3);
        let mut used: Vec<SlotId> = a.iter().map(|x| x.slot).collect();
        for x in &a {
            s.task_finished(x.slot, SimTime::from_secs(1));
        }
        used.sort();
        let join = s.jobs().get(job).unwrap().taskset(StageId::new(2)).unwrap();
        assert_eq!(join.preferred(), &used[..], "the ascending union of both parents' outputs");
    }

    /// Test policy that releases every slot and pre-reserves aggressively
    /// for the downstream phase (stage 1) at the job's own priority —
    /// minimal surface to exercise `fill_prereservations` contention.
    #[derive(Debug)]
    struct GreedyPrereserve;

    impl ReservationPolicy for GreedyPrereserve {
        fn name(&self) -> &'static str {
            "greedy-prereserve"
        }

        fn on_task_completed(
            &mut self,
            _ctx: &PolicyCtx<'_>,
            _task: ssr_dag::TaskId,
            _slot: SlotId,
        ) -> SlotDisposition {
            SlotDisposition::Release
        }

        fn prereserve(
            &mut self,
            ctx: &PolicyCtx<'_>,
            task: ssr_dag::TaskId,
        ) -> Option<crate::policy::PreReserveRequest> {
            let priority = ctx.jobs.get(task.job)?.priority();
            Some(crate::policy::PreReserveRequest {
                job: task.job,
                stage: StageId::new(1),
                priority,
                extra: 4,
                deadline: None,
                min_size: 1,
            })
        }
    }

    #[test]
    fn prereservations_fill_in_priority_order() {
        // Regression: `fill_prereservations` used to walk pending requests
        // in `(JobId, StageId)` key order, letting an older low-priority
        // job grab the only free slot ahead of a high-priority job's
        // pending pre-reservation.
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 4).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(GreedyPrereserve),
            Box::new(FifoPriority),
        );
        // Submission order gives `low` the smaller JobId.
        let low = s.submit(two_stage_job("low", 2, 0), SimTime::ZERO);
        let high = s.submit(two_stage_job("high", 2, 10), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 4, "both up-phases saturate the cluster");

        // One `low` up-task finishes: its freed slot immediately serves
        // low's own pre-reservation (the only pending request).
        let low_slot = a.iter().find(|x| x.instance.task.job == low).unwrap().slot;
        s.task_finished(low_slot, SimTime::from_secs(1));
        assert_eq!(s.slot_pool().reserved_for(low).count(), 1);

        // One `high` up-task finishes: now both jobs have a pending
        // request and exactly one slot is free. Priority order must give
        // it to `high`; the buggy key order gave it to `low` (JobId 0).
        let high_slot = a.iter().find(|x| x.instance.task.job == high).unwrap().slot;
        s.task_finished(high_slot, SimTime::from_secs(2));
        assert_eq!(
            s.slot_pool().reserved_for(high).count(),
            1,
            "the high-priority job's pre-reservation wins the free slot"
        );
        assert_eq!(s.slot_pool().reserved_for(low).count(), 1);
    }

    #[test]
    fn running_per_job_drops_drained_entries() {
        // Regression: completed jobs stayed pinned at a stale running
        // count, polluting slot-composition consumers. The count now
        // lives in the job table; a drained job must read 0.
        let mut s = scheduler(1, 2);
        let job = s.submit(one_stage_job("j", 2, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(s.running_count_for(job), 2);
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        assert_eq!(s.running_count_for(job), 1);
        let done = s.task_finished(a[1].slot, SimTime::from_secs(1));
        assert!(done.job_completed);
        assert_eq!(s.running_count_for(job), 0, "drained job must not linger at a stale count");
    }

    #[test]
    fn trace_records_offer_and_lifecycle_decisions() {
        use ssr_trace::{TraceEventKind, VecSink};
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 2).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(TimeoutReservation::new(SimDuration::from_secs(30))),
            Box::new(FifoPriority),
        )
        .with_trace_sink(Box::new(VecSink::new()));
        assert!(s.trace_enabled());
        let high = s.submit(two_stage_job("fg", 2, 10), SimTime::ZERO);
        let low = s.submit(one_stage_job("bg", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 2);
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        // The reservation denies the background job this round.
        assert!(s.resource_offers(SimTime::from_secs(1)).is_empty());
        s.expire_reservations(SimTime::from_secs(31));
        let sink = s.take_trace_sink().expect("sink attached");
        assert!(!s.trace_enabled());
        let events = sink.into_any().downcast::<VecSink>().expect("VecSink recovered").into_events();
        let names: Vec<&'static str> = events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"job-submitted"));
        assert!(names.contains(&"offer-round-started"));
        assert!(names.contains(&"task-launched"));
        assert!(names.contains(&"task-finished"));
        assert!(names.contains(&"reservation-granted"));
        assert!(names.contains(&"offer-declined"));
        assert!(names.contains(&"reservation-expired"));
        // The denial names the background job with the reservation reason.
        let denial = events
            .iter()
            .find_map(|e| match e.kind {
                TraceEventKind::OfferDeclined { job, reason, stage } => Some((job, reason, stage)),
                _ => None,
            })
            .expect("a decline was traced");
        assert_eq!(denial.0, low);
        assert_eq!(denial.1, ssr_trace::DenyReason::ReservationDenied);
        assert!(denial.2.is_some(), "a declined pending job names its blocked stage");
        // The reservation grant names the foreground job.
        let grant_job = events
            .iter()
            .find_map(|e| match e.kind {
                TraceEventKind::ReservationGranted { job, .. } => Some(job),
                _ => None,
            })
            .expect("a grant was traced");
        assert_eq!(grant_job, high);
    }

    #[test]
    fn disabled_trace_changes_nothing() {
        // The whole decision sequence and every work counter must be
        // identical with and without a sink attached (zero-overhead
        // contract, behaviour half). The run reaches both places that keep
        // extra data for the trace: a round that starts with no free slot
        // drops the background job in the viability filter, and a
        // reservation expires.
        let run = |traced: bool| {
            let mut s = TaskScheduler::new(
                ClusterSpec::new(2, 2).unwrap(),
                LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
                Box::new(TimeoutReservation::new(SimDuration::from_secs(30))),
                Box::new(FifoPriority),
            );
            if traced {
                s.set_trace_sink(Box::new(ssr_trace::VecSink::new()));
            }
            s.submit(two_stage_job("fg", 2, 10), SimTime::ZERO);
            s.submit(one_stage_job("bg", 4, 0), SimTime::ZERO);
            let mut log: Vec<(u32, u64)> = Vec::new();
            let mut offer = |s: &mut TaskScheduler, t: SimTime| {
                let a = s.resource_offers(t);
                log.extend(a.iter().map(|x| (x.slot.as_u32(), x.instance.task.job.as_u64())));
                a
            };
            let a = offer(&mut s, SimTime::ZERO);
            let t = SimTime::from_secs(1);
            for x in a.iter().filter(|x| x.instance.task.job.as_u64() == 0) {
                s.task_finished(x.slot, t);
            }
            let b = offer(&mut s, t);
            // One downstream task finishes; its slot is reserved until 32 s.
            s.task_finished(b[0].slot, SimTime::from_secs(2));
            assert_eq!(s.expire_reservations(SimTime::from_secs(32)).len(), 1);
            offer(&mut s, SimTime::from_secs(32));
            let events = s.take_trace_sink().map(|sink| {
                let sink = sink.into_any().downcast::<ssr_trace::VecSink>();
                sink.expect("VecSink recovered").into_events()
            });
            (log, s.work_counters().render_json(), events)
        };
        let (plain_log, plain_counters, _) = run(false);
        let (traced_log, traced_counters, events) = run(true);
        assert_eq!(plain_log, traced_log);
        assert_eq!(plain_counters, traced_counters);
        let events = events.expect("sink attached");
        let saturated_decline = events.windows(2).any(|w| {
            matches!(w[0].kind, TraceEventKind::OfferRoundStarted { free: 0, .. })
                && matches!(w[1].kind, TraceEventKind::OfferDeclined { .. })
        });
        assert!(saturated_decline, "a round with no free slot declines a candidate");
        assert!(events.iter().any(|e| e.kind.name() == "reservation-expired"));
    }

    /// A round that starts with a free slot, loses it to the filler, and
    /// then meets a refused candidate ranked above a reservation owner:
    /// the untraced round declines that candidate in bulk, serves the
    /// owner its two reserved slots, and stops there with no slot left.
    /// Two refused candidates whose pending phases prefer slots are still
    /// ranked below the owner; the round never reached them, so their
    /// preferred-slot searches are not counted. The untraced round must
    /// place and count exactly what the traced round, which attempts
    /// candidates one at a time, does.
    #[test]
    fn round_that_stops_at_an_owner_counts_only_the_candidates_it_reached() {
        let run = |traced: bool| {
            let mut s = TaskScheduler::new(
                ClusterSpec::new(1, 4).unwrap(),
                LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
                Box::new(WorkConserving),
                Box::new(FifoPriority),
            );
            if traced {
                s.set_trace_sink(Box::new(ssr_trace::VecSink::new()));
            }
            let at = |secs: u64| SimTime::from_secs(secs);
            // A busy job holds slot 0 throughout. The two jobs ranked last
            // run their upstream phases on slots 1 and 2, so their
            // downstream phases prefer those slots.
            s.submit(one_stage_job("busy", 1, 20), at(0));
            let after = s.submit(two_stage_job("after", 1, 4), at(0));
            let background = s.submit(two_stage_job("bg", 1, 0), at(0));
            assert_eq!(s.resource_offers(at(0)).len(), 3);
            s.task_finished(SlotId::new(1), at(1));
            s.task_finished(SlotId::new(2), at(1));
            let filler = s.submit(one_stage_job("filler", 1, 10), at(2));
            let before = s.submit(one_stage_job("before", 2, 5), at(2));
            let owner = s.submit(one_stage_job("owner", 2, 5), at(2));
            // Slots 1 and 2 are the owner's, at its own priority, which
            // refuses the candidate ranked just above it; slot 3 is free.
            for slot in [1, 2] {
                s.slots.reserve(SlotId::new(slot), Reservation::new(owner, Priority::new(5))).unwrap();
            }
            let placed: Vec<(u32, JobId)> =
                s.resource_offers(at(3)).iter().map(|a| (a.slot.as_u32(), a.instance.task.job)).collect();
            assert_eq!(placed, [(3, filler), (1, owner), (2, owner)]);
            let ranked: Vec<JobId> = s.jobs().pending_worst_first().iter().map(|c| c.id).collect();
            assert_eq!(ranked, [background, after, before], "candidates left below the owner");
            let declined = s.take_trace_sink().map(|sink| {
                let events = sink.into_any().downcast::<ssr_trace::VecSink>().expect("VecSink").into_events();
                let declined = events.iter().filter_map(|e| match e.kind {
                    TraceEventKind::OfferDeclined { job, .. } => Some(job),
                    _ => None,
                });
                declined.collect::<Vec<_>>()
            });
            (placed, s.work_counters().clone(), declined, before)
        };
        let (plain, plain_counters, _, _) = run(false);
        let (traced, traced_counters, declined, before) = run(true);
        assert_eq!(plain, traced);
        assert_eq!(plain_counters, traced_counters);
        // Only the candidate ranked above the owner was declined.
        assert_eq!(declined, Some(vec![before]));
    }

    /// Asserts every index `TaskScheduler` keeps against the full walk it
    /// replaces, every job's deny reason against the per-slot scan, and
    /// the candidate-slot ranking of every pending task set against the
    /// scan per decision.
    fn assert_indexes_match_full_walks(s: &TaskScheduler, now: SimTime) {
        let pending: Vec<JobId> =
            s.jobs().iter().filter(|j| !j.is_complete() && j.has_pending_tasks()).map(|j| j.id()).collect();
        assert_eq!(s.jobs().pending_ids().collect::<Vec<_>>(), pending, "pending-job set");
        // The ordered pending index, re-keyed as the next offer round
        // would, against the per-round rebuild it replaced: the pending
        // jobs' snapshots, sorted worst first.
        let mut jobs = s.jobs.clone();
        jobs.rekey(&*s.order);
        let mut rebuilt: Vec<JobSnapshot> = pending
            .iter()
            .map(|&id| {
                let j = s.jobs().get(id).expect("pending job exists");
                let keyed = if s.order.reads_running_slots() { j.running_count() } else { 0 };
                JobSnapshot { id, priority: j.priority(), arrival: j.submitted_at(), running_slots: keyed }
            })
            .collect();
        crate::order::sort_worst_first(&*s.order, &mut rebuilt);
        assert_eq!(jobs.pending_worst_first(), &rebuilt[..], "pending index at {now:?}");
        // Every job's decline tally against the walk of its task sets.
        for state in s.jobs().iter() {
            let mut walked = DeclineTally::default();
            for tsm in state.active_tasksets().filter(|t| t.has_pending()) {
                walked.add(DeclineTally { sets: 1, preferred: tsm.preferred().len() as u32 });
            }
            assert_eq!(state.decline_tally(), walked, "decline tally of {:?}", state.id());
        }
        assert_eq!(
            s.next_locality_unlock(now),
            s.next_locality_unlock_full_walk(now),
            "locality-unlock window at {now:?}"
        );
        assert_eq!(s.has_unfinished_jobs(), s.jobs().iter().any(|j| !j.is_complete()));
        // Running counts: per job against the running table, and the
        // table's size against the pool's.
        for job in s.jobs().iter().map(|j| j.id()) {
            assert_eq!(
                s.running_count_for(job),
                s.running_instances().filter(|(_, ri)| ri.instance.task.job == job).count(),
                "running count of {job:?}"
            );
        }
        assert_eq!(s.running_instances().count(), s.slot_pool().counts().1, "running slots");
        for job in s.jobs().iter().map(|j| j.id()) {
            assert_eq!(s.deny_reason(job, now), deny_reason_per_slot(s, job, now), "deny reason of {job:?} at {now:?}");
        }
        for state in s.jobs().iter().filter(|j| !j.is_complete()) {
            for tsm in state.active_tasksets().filter(|t| t.has_pending()) {
                let demand = state.spec().stage(tsm.stage()).demand();
                let allowed = s.locality.max_allowed_level(now.saturating_since(tsm.ready_since()));
                let (job, priority) = (state.id(), state.priority());
                assert_eq!(
                    s.best_candidate(job, priority, tsm, demand, allowed, now),
                    best_candidate_full_scan(s, job, priority, tsm, demand, allowed, now),
                    "best candidate of {:?}/{:?} at {now:?}",
                    state.id(),
                    tsm.stage()
                );
            }
        }
    }

    /// Candidate-slot ranking as a scan per decision: every slot, the
    /// ordered-set `level_for`, the out-of-service guard, and one
    /// `approve` call per foreign reservation; the minimum of
    /// `(level, class, slot)` with class 0 = own reservation, 1 = free,
    /// 2 = another job's approved reservation.
    fn best_candidate_full_scan(
        s: &TaskScheduler,
        job: JobId,
        priority: Priority,
        tsm: &TaskSetManager,
        demand: u32,
        allowed: LocalityLevel,
        now: SimTime,
    ) -> Option<(SlotId, LocalityLevel)> {
        let preferred: std::collections::BTreeSet<SlotId> = tsm.preferred().iter().copied().collect();
        let ctx = PolicyCtx { now, slots: &s.slots, jobs: &s.jobs };
        s.spec
            .iter_slots()
            .filter(|&x| s.slots.is_offline(x) == Ok(false) && s.slots.size(x) >= demand)
            .filter_map(|x| {
                let class = match s.slots.get(x) {
                    ssr_cluster::SlotState::Free => 1u8,
                    ssr_cluster::SlotState::Reserved(r) if r.job() == job => 0,
                    ssr_cluster::SlotState::Reserved(r) if s.policy.approve(&ctx, r, job, priority) => 2,
                    _ => return None,
                };
                let level = ssr_cluster::locality::level_for(&s.spec, &preferred, x);
                (level <= allowed).then_some((level, class, x))
            })
            .min()
            .map(|(level, _, x)| (x, level))
    }

    /// `deny_reason` as it read before it shared the group walk: one
    /// `approve` call per fitting reserved slot, per pending stage.
    fn deny_reason_per_slot(s: &TaskScheduler, job: JobId, now: SimTime) -> (DenyReason, Option<StageId>) {
        let Some(state) = s.jobs.get(job) else {
            return (DenyReason::NoPendingTasks, None);
        };
        let priority = state.priority();
        let mut blocked_stage: Option<StageId> = None;
        let mut usable_anywhere = false;
        let mut saw_denied_reservation = false;
        for tsm in state.active_tasksets().filter(|t| t.has_pending()) {
            blocked_stage = Some(blocked_stage.map_or(tsm.stage(), |b| b.min(tsm.stage())));
            let demand = state.spec().stage(tsm.stage()).demand();
            let mut usable = s.slots.free_slots().any(|x| s.slots.size(x) >= demand);
            for slot in s.slots.reserved_slots().filter(|&x| s.slots.size(x) >= demand) {
                let r = s.slots.get(slot).reservation().expect("reserved index entry");
                let ctx = PolicyCtx { now, slots: &s.slots, jobs: &s.jobs };
                if r.job() == job || s.policy.approve(&ctx, r, job, priority) {
                    usable = true;
                } else {
                    saw_denied_reservation = true;
                }
            }
            usable_anywhere |= usable;
        }
        let reason = match (blocked_stage, usable_anywhere, saw_denied_reservation) {
            (None, _, _) => DenyReason::NoPendingTasks,
            (_, true, _) => DenyReason::LocalityWait,
            (_, _, true) => DenyReason::ReservationDenied,
            _ => DenyReason::NoFittingSlot,
        };
        (reason, blocked_stage)
    }

    /// Drives a scheduler with a random workload, random event order and
    /// a random fault schedule (node crashes, network partitions, heals),
    /// checking the indexes after every public call.
    fn drive_with_faults(seed: u64, policy: usize, order: usize, wait_ms: u64) {
        use crate::order::{Fifo, SelectOnly};
        use ssr_simcore::rng::SimRng;
        let mut rng = SimRng::stream(seed, 0);
        // Half the clusters are sized: every third slot is large, and
        // stages demand either size.
        let sized = rng.chance(0.5);
        let mut cluster = ClusterSpec::with_racks(4, 2, 2).unwrap();
        if sized {
            cluster = cluster.with_slot_sizing(1, 2, 3);
        }
        let policy: Box<dyn ReservationPolicy> = match policy {
            0 => Box::new(WorkConserving),
            1 => Box::new(TimeoutReservation::new(SimDuration::from_secs(5))),
            _ => Box::new(StaticReservation::new(2, Priority::new(2))),
        };
        let order: Box<dyn JobOrder> = match order {
            0 => Box::new(FifoPriority),
            1 => Box::new(Fair),
            2 => Box::new(Fifo),
            _ => Box::new(SelectOnly(Fair)),
        };
        let locality = LocalityModel::paper_simulation().with_wait(SimDuration::from_millis(wait_ms));
        let mut s = TaskScheduler::new(cluster, locality, policy, order);
        if rng.chance(0.3) {
            s = s.with_speculation(SpeculationConfig::spark_defaults());
        }
        let node_slots = |node: u32| -> Vec<SlotId> {
            cluster.iter_slots().filter(|&x| cluster.node_of(x).as_u32() == node).collect()
        };
        let mut now = SimTime::ZERO;
        let mut submitted = 0;
        for _ in 0..200 {
            now += SimDuration::from_millis(rng.next_below(1_500));
            match rng.next_below(10) {
                0 if submitted < 8 => {
                    submitted += 1;
                    let mut b =
                        JobSpecBuilder::new(format!("j{submitted}")).priority(Priority::new(rng.next_below(3) as i32));
                    for st in 0..1 + rng.next_below(3) {
                        let par = 1 + rng.next_below(4) as u32;
                        let demand = if sized { 1 + rng.next_below(2) as u32 } else { 1 };
                        let stage = StageSpec::new(format!("s{st}"), par, constant(1.0));
                        b = b.stage_spec(stage.with_demand(demand));
                    }
                    s.submit(b.chain().build().unwrap(), now);
                }
                1..=3 => {
                    s.resource_offers(now);
                }
                4..=6 => {
                    let running: Vec<SlotId> = s.running_instances().map(|(x, _)| x).collect();
                    if let Some(&slot) = rng.choose(&running) {
                        s.task_finished(slot, now);
                    }
                }
                7 => {
                    s.expire_reservations(now);
                }
                8 => {
                    let node = rng.next_below(4) as u32;
                    let kill = rng.chance(0.7);
                    s.fail_slots(&node_slots(node), now, kill, "fault");
                }
                _ => s.restore_slots(&node_slots(rng.next_below(4) as u32), now),
            }
            assert_indexes_match_full_walks(&s, now);
        }
    }

    proptest::proptest! {
        /// The pending-job set and its ordered index, the decline tallies,
        /// the locality-unlock window and the incomplete-job count agree
        /// with full walks of the job table after every call, under
        /// random workloads, fault schedules, policies and orders (the
        /// built-in three, and a `select`-only one that sorts with the
        /// default `compare`).
        #[test]
        fn indexes_agree_with_full_walks_under_faults(
            seed in 0u64..1_000_000,
            policy in 0usize..3,
            order in 0usize..4,
            wait_ms in 0u64..5_000,
        ) {
            drive_with_faults(seed, policy, order, wait_ms);
        }
    }

    /// An order that implements only `select` keeps its pending index
    /// through the default `compare`, as a decorator that times another
    /// order does: the index still equals the sorted rebuild after every
    /// call, under each policy.
    #[test]
    fn select_only_order_keeps_the_pending_index() {
        for seed in 0..8 {
            for policy in 0..3 {
                drive_with_faults(seed, policy, 3, 500);
            }
        }
    }

    /// `rank_group` as a loop over the owner's reserved slots, one slot
    /// at a time: count it, test its priority, fit and level, and keep
    /// the best `(class, slot)` per level.
    fn rank_group_per_slot(
        s: &TaskScheduler,
        (owner, rprio, class): (JobId, Priority, u8),
        tsm: &TaskSetManager,
        demand: u32,
        allowed: LocalityLevel,
        best: &mut [Option<(u8, SlotId)>; 4],
    ) {
        for slot in s.slots.reserved_for(owner) {
            s.counters.slots_scanned.inc();
            let r = s.slots.get(slot).reservation().expect("reserved index entry");
            if r.priority() != rprio || s.slots.size(slot) < demand {
                continue;
            }
            let level = tsm.level_on(&s.spec, slot);
            if level > allowed {
                continue;
            }
            let entry = &mut best[level.index()];
            if entry.is_none_or(|b| (class, slot) < b) {
                *entry = Some((class, slot));
            }
        }
    }

    /// Fills a cluster with random free, running, reserved and offline
    /// slots — up to four owners (the static pool among them) holding
    /// reservations at several priorities each — and checks, for random
    /// candidate jobs, demands and preferences (or none) at every allowed
    /// level, that the word-wise `rank_group` ranks what the per-slot loop
    /// ranks and counts the same slots, and that `best_candidate` picks
    /// the full scan's slot.
    fn check_reserved_ranking(seed: u64, shape: usize) {
        use crate::policy::STATIC_POOL_JOB;
        use ssr_simcore::rng::SimRng;
        let mut rng = SimRng::stream(seed, 1);
        // 80 and 150 slots uniform; 80 and 64 slots sized.
        let spec = match shape {
            0 => ClusterSpec::with_racks(20, 4, 6).unwrap(),
            1 => ClusterSpec::with_racks(50, 3, 7).unwrap(),
            2 => ClusterSpec::with_racks(20, 4, 6).unwrap().with_slot_sizing(1, 2, 3),
            _ => ClusterSpec::with_racks(16, 4, 3).unwrap().with_slot_sizing(1, 3, 5),
        };
        let policy: Box<dyn ReservationPolicy> = if rng.chance(0.5) {
            Box::new(TimeoutReservation::new(SimDuration::from_secs(5)))
        } else {
            Box::new(StaticReservation::new(0, Priority::new(2)))
        };
        let mut s = TaskScheduler::new(spec, LocalityModel::paper_simulation(), policy, Box::new(Fair));
        let owners = [JobId::new(0), JobId::new(1), JobId::new(2), STATIC_POOL_JOB];
        let now = SimTime::ZERO;
        for slot in spec.iter_slots() {
            match rng.next_below(10) {
                0..=3 => {}
                4 | 5 => {
                    let task = ssr_dag::TaskId::new(JobId::new(9), StageId::new(0), 0);
                    s.slots.assign(slot, task).unwrap();
                }
                _ => {
                    let owner = owners[rng.next_below(4) as usize];
                    let rprio = Priority::new([0, 1, 2, 5][rng.next_below(4) as usize]);
                    s.slots.reserve(slot, Reservation::new(owner, rprio)).unwrap();
                }
            }
            if rng.chance(0.1) {
                s.slots.take_offline(slot).unwrap();
            }
        }
        for _ in 0..8 {
            let job = JobId::new(rng.next_below(4));
            let priority = Priority::new(rng.next_below(6) as i32);
            let demand = 1 + rng.next_below(u64::from(spec.max_slot_size())) as u32;
            let density = [0.0, 0.03, 0.3][rng.next_below(3) as usize];
            let preferred: Vec<SlotId> = spec.iter_slots().filter(|_| rng.chance(density)).collect();
            let tsm = TaskSetManager::new(job, StageId::new(0), 1, now).with_preferred(preferred, &spec);
            for allowed in LocalityLevel::ALL {
                let (mut words, mut slots) = ([None; 4], [None; 4]);
                let scanned = |f: &mut dyn FnMut()| {
                    let before = s.counters.slots_scanned.get();
                    f();
                    s.counters.slots_scanned.get() - before
                };
                let counted = (
                    scanned(&mut || {
                        s.walk_groups(job, priority, now, false, |owner, rprio, class| {
                            if let Some(class) = class {
                                let group = (owner, rprio, class);
                                s.rank_group(group, &tsm, demand, allowed, &mut words);
                            }
                            false
                        });
                    }),
                    scanned(&mut || {
                        s.walk_groups(job, priority, now, false, |owner, rprio, class| {
                            if let Some(class) = class {
                                let group = (owner, rprio, class);
                                rank_group_per_slot(&s, group, &tsm, demand, allowed, &mut slots);
                            }
                            false
                        });
                    }),
                );
                assert_eq!(counted.0, counted.1, "slots scanned, {job:?} at {allowed:?}");
                // `best_candidate` reads levels up to the first one with a
                // reserved candidate; those must agree, the rest may not.
                let read = slots.iter().position(Option::is_some).map_or(4, |l| l + 1);
                assert_eq!(words[..read], slots[..read], "{job:?} d{demand} at {allowed:?}");
                assert_eq!(
                    s.best_candidate(job, priority, &tsm, demand, allowed, now),
                    best_candidate_full_scan(&s, job, priority, &tsm, demand, allowed, now),
                    "best candidate of {job:?} d{demand} at {allowed:?}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The word-wise reserved-slot ranking agrees with the per-slot
        /// loop and the full scan on uniform and sized clusters.
        #[test]
        fn reserved_ranking_agrees_with_per_slot_reference(
            seed in 0u64..1_000_000,
            shape in 0usize..4,
        ) {
            check_reserved_ranking(seed, shape);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time went backwards")]
    fn time_going_backwards_is_caught_in_debug_builds() {
        let mut s = scheduler(1, 1);
        s.resource_offers(SimTime::from_secs(2));
        s.resource_offers(SimTime::from_secs(1));
    }

    #[test]
    fn recovery_on_unknown_slots_and_instances_changes_nothing() {
        // Fault injection may name a slot outside the cluster or an
        // instance a task set no longer tracks: the recovery paths skip
        // them instead of panicking.
        let mut s = scheduler(2, 2);
        let job = s.submit(one_stage_job("j", 6, 0), SimTime::ZERO);
        assert_eq!(s.resource_offers(SimTime::ZERO).len(), 4);
        let state = |s: &TaskScheduler| {
            let running: Vec<(SlotId, RunningInstance)> = s.running_instances().map(|(slot, ri)| (slot, *ri)).collect();
            (s.slot_pool().counts(), running, s.work_counters().render_json())
        };
        let before = state(&s);
        let t = SimTime::from_secs(1);
        let unknown = SlotId::new(99);
        for kill_running in [true, false] {
            let outcome = s.fail_slots(&[unknown], t, kill_running, "crash");
            assert!(outcome.killed.is_empty() && outcome.revoked.is_empty());
            assert_eq!(state(&s), before);
        }
        s.restore_slots(&[unknown], t);
        assert_eq!(state(&s), before);
        let stage = StageId::new(0);
        for (partition, attempt) in [(99, 0), (0, 7)] {
            let phantom = TaskInstance { task: ssr_dag::TaskId::new(job, stage, partition), attempt };
            let tsm = s.jobs.get_mut(job).and_then(|j| j.taskset_mut(stage)).unwrap();
            tsm.instance_killed(phantom);
            assert_eq!(state(&s), before);
        }
    }

    #[test]
    fn crashed_slot_is_never_offered_to_its_preferring_stage() {
        // Regression (found by the ssr-check explorer on its smallest
        // config): after [Offer, Finish, Finish, Crash(node 0), Offer]
        // the downstream stage launched on the slot its upstream ran on
        // even though that slot's node had crashed. The preferred-slot
        // fast path read the raw slot state — Free once the crash revoked
        // its reservation — instead of the offline-guarded free indexes.
        let mut s = scheduler(2, 1);
        let fg = s.submit(two_stage_job("fg", 1, 10), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 1);
        let up_slot = a[0].slot;
        let o = s.task_finished(up_slot, SimTime::from_secs(1));
        assert!(o.stage_completed);
        // The node hosting the upstream output crashes before the next
        // offer round; its slot is Free but out of service.
        s.fail_slots(&[up_slot], SimTime::from_secs(2), true, "crash");
        let b = s.resource_offers(SimTime::from_secs(2));
        assert_eq!(b.len(), 1, "downstream still launches on the surviving node");
        assert_ne!(b[0].slot, up_slot, "an out-of-service slot must not be offered");
        assert_eq!(s.running_count_for(fg), 1);
        s.task_finished(b[0].slot, SimTime::from_secs(3));
        assert!(s.jobs().get(fg).unwrap().is_complete());
        // Once the node rejoins, the slot takes offers again.
        s.restore_slots(&[up_slot], SimTime::from_secs(3));
        s.submit(one_stage_job("bg", 1, 0), SimTime::from_secs(3));
        let c = s.resource_offers(SimTime::from_secs(3));
        assert_eq!(c.len(), 1);
    }
}
