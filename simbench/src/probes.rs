//! Timing decorators on the engine's public trait seams:
//! [`ReservationPolicy`], [`JobOrder`] and [`TraceSink`].
//!
//! Each decorator forwards every call to the wrapped implementation
//! unchanged and records its count and duration in a shared probe, which
//! the benchmark reads after the run. The scheduler owns the decorator,
//! so the probe is shared through an `Rc`.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ssr_cluster::{Reservation, SlotId};
use ssr_dag::{JobId, Priority, StageId, TaskId};
use ssr_scheduler::{
    JobOrder, JobSnapshot, PolicyCtx, PreReserveRequest, ReservationPolicy, SlotDisposition,
};
use ssr_trace::{TraceEvent, TraceSink};

use crate::measure::{CallTimer, SampledTimer};

/// One `approve` call in this many is timed; the calls take well under a
/// microsecond, so timing each would mostly measure the clock.
pub const APPROVE_SAMPLE_EVERY: u64 = 32;

/// What the policy decorator observed.
#[derive(Debug)]
pub struct PolicyProbe {
    /// ApprovalLogic calls (sampled timing).
    pub approve: SampledTimer,
    /// `HandleTaskCompletion` calls.
    pub on_task_completed: RefCell<CallTimer>,
}

impl Default for PolicyProbe {
    fn default() -> Self {
        PolicyProbe {
            approve: SampledTimer::new(APPROVE_SAMPLE_EVERY),
            on_task_completed: RefCell::new(CallTimer::new()),
        }
    }
}

/// Times a [`ReservationPolicy`]'s ApprovalLogic and completion handler.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn ReservationPolicy>,
    probe: Rc<PolicyProbe>,
}

impl TimedPolicy {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn ReservationPolicy>, probe: Rc<PolicyProbe>) -> TimedPolicy {
        TimedPolicy { inner, probe }
    }
}

impl ReservationPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_task_completed(
        &mut self,
        ctx: &PolicyCtx<'_>,
        task: TaskId,
        slot: SlotId,
    ) -> SlotDisposition {
        let inner = &mut self.inner;
        self.probe
            .on_task_completed
            .borrow_mut()
            .time(|| inner.on_task_completed(ctx, task, slot))
    }

    fn approve(
        &self,
        ctx: &PolicyCtx<'_>,
        reservation: &Reservation,
        job: JobId,
        priority: Priority,
    ) -> bool {
        self.probe
            .approve
            .time(|| self.inner.approve(ctx, reservation, job, priority))
    }

    fn approval_is_priority_based(&self) -> bool {
        self.inner.approval_is_priority_based()
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

/// What the job-order decorator observed.
#[derive(Debug, Default)]
pub struct OrderProbe {
    /// `select` calls.
    pub select: RefCell<CallTimer>,
    /// Candidates offered across all `select` calls.
    pub candidates: Cell<u64>,
}

/// Times a [`JobOrder`]'s `select` and counts the candidates it scans.
#[derive(Debug)]
pub struct TimedOrder {
    inner: Box<dyn JobOrder>,
    probe: Rc<OrderProbe>,
}

impl TimedOrder {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn JobOrder>, probe: Rc<OrderProbe>) -> TimedOrder {
        TimedOrder { inner, probe }
    }
}

impl JobOrder for TimedOrder {
    fn select(&self, candidates: &[JobSnapshot]) -> Option<JobId> {
        self.probe
            .candidates
            .set(self.probe.candidates.get() + candidates.len() as u64);
        self.probe
            .select
            .borrow_mut()
            .time(|| self.inner.select(candidates))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What the trace-sink decorator observed.
#[derive(Debug, Default)]
pub struct SinkProbe {
    /// `record` calls, one per emitted decision event.
    pub record: RefCell<CallTimer>,
}

/// Times a [`TraceSink`]'s `record`.
#[derive(Debug)]
pub struct TimedSink {
    inner: Box<dyn TraceSink>,
    probe: Rc<SinkProbe>,
}

impl TimedSink {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn TraceSink>, probe: Rc<SinkProbe>) -> TimedSink {
        TimedSink { inner, probe }
    }

    /// Unwraps a sink the scheduler handed back, returning the decorated
    /// sink (`None` if `sink` is not a [`TimedSink`]).
    pub fn unwrap(sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        sink.into_any()
            .downcast::<TimedSink>()
            .ok()
            .map(|timed| timed.inner)
    }
}

impl TraceSink for TimedSink {
    fn record(&mut self, event: &TraceEvent) {
        let inner = &mut self.inner;
        self.probe.record.borrow_mut().time(|| inner.record(event));
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}
