//! The discrete-event simulation loop.

use ssr_cluster::{ClusterSpec, LocalityLevel, LocalityModel, NodeId, SlotId};
use ssr_dag::{JobId, JobSpec};
use ssr_faults::{FaultKind, FaultPlan};
use ssr_perf::SpanProfiler;
use ssr_scheduler::{ReservationPolicy, TaskScheduler};
use ssr_simcore::events::EventQueue;
use ssr_simcore::rng::SimRng;
use ssr_simcore::{SimDuration, SimTime};

use crate::experiment::{OrderConfig, PolicyConfig};
use crate::report::{Collector, JobResult, SimReport, TimeSample};

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    cluster: ClusterSpec,
    locality: LocalityModel,
    seed: u64,
    horizon: SimTime,
    track_jobs: Vec<String>,
    speculation: Option<ssr_scheduler::SpeculationConfig>,
    record_trace: bool,
    stop_after: Vec<String>,
    faults: FaultPlan,
}

impl SimConfig {
    /// Creates a configuration over `cluster` with the paper's simulation
    /// locality model, seed 0 and a one-simulated-week safety horizon.
    pub fn new(cluster: ClusterSpec) -> Self {
        SimConfig {
            cluster,
            locality: LocalityModel::paper_simulation(),
            seed: 0,
            horizon: SimTime::from_secs(7 * 24 * 3600),
            track_jobs: Vec::new(),
            speculation: None,
            record_trace: false,
            stop_after: Vec::new(),
            faults: FaultPlan::default(),
        }
    }

    /// Injects a deterministic fault schedule (see [`FaultPlan`]). The
    /// default plan is empty; an empty plan adds no events and leaves the
    /// run byte-identical to a fault-free build.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Drops any injected fault schedule — used for alone-baseline runs,
    /// which measure the undisturbed job.
    pub fn without_faults(mut self) -> Self {
        self.faults = FaultPlan::default();
        self
    }

    /// The injected fault schedule.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Stops the run as soon as every job with one of the given names has
    /// completed — a large speed-up for slowdown experiments where the
    /// background's tail is irrelevant. The report then has
    /// `completed = false` (the background was cut short).
    pub fn stop_after<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.stop_after = names.into_iter().map(Into::into).collect();
        self
    }

    /// Records a per-instance execution trace
    /// ([`SimReport::trace`](crate::SimReport)): placement, locality
    /// level, finish/kill — the raw data behind Gantt charts.
    pub fn record_trace(mut self, enabled: bool) -> Self {
        self.record_trace = enabled;
        self
    }

    /// Enables status-quo progress-based speculative execution in the
    /// scheduler (the baseline the paper's §IV-C strategy is compared
    /// against).
    pub fn with_speculation(mut self, config: ssr_scheduler::SpeculationConfig) -> Self {
        self.speculation = Some(config);
        self
    }

    /// Sets the locality model.
    pub fn with_locality(mut self, locality: LocalityModel) -> Self {
        self.locality = locality;
        self
    }

    /// Sets the RNG seed (runs are bit-for-bit deterministic per seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the safety horizon after which the run aborts (reported as
    /// `completed = false`).
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Enables the running-task time series for the named jobs (Figs. 5
    /// and 13).
    pub fn track_jobs<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.track_jobs = names.into_iter().map(Into::into).collect();
        self
    }

    /// The cluster topology.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    JobArrival(usize),
    TaskFinish { slot: SlotId, token: u64 },
    ReservationExpiry,
    LocalityUnlock,
    /// A scheduled fault strikes (index into the plan's event list).
    Fault(usize),
    /// A bounded fault heals (node rejoin, partition end).
    FaultHeal(usize),
}

/// One end-to-end simulated run: jobs arrive, tasks execute with locality
/// penalties, the scheduler's policy reserves or releases slots, and
/// metrics are integrated exactly between events.
#[derive(Debug)]
pub struct Simulation {
    sched: TaskScheduler,
    events: EventQueue<Event>,
    seed: u64,
    now: SimTime,
    jobs: Vec<JobSpec>,
    submitted: usize,
    slot_tokens: Vec<u64>,
    collector: Collector,
    tracked: Vec<(JobId, String)>,
    track_names: Vec<String>,
    scheduled_expiry: Option<SimTime>,
    scheduled_unlock: Option<SimTime>,
    horizon: SimTime,
    last_integrated: SimTime,
    record_trace: bool,
    open_trace: Vec<Option<OpenTrace>>,
    stop_names: Vec<String>,
    stop_pending: usize,
    faults: FaultPlan,
    storm_until: SimTime,
    storm_factor: f64,
    cold_until: Vec<SimTime>,
    cold_factor: Vec<f64>,
    progress_every: Option<u64>,
}

#[derive(Debug, Clone)]
struct OpenTrace {
    job: String,
    stage: u32,
    partition: u32,
    attempt: u32,
    start: SimTime,
    level: LocalityLevel,
    speculative: bool,
}

impl Simulation {
    /// Creates a run over `jobs` with the given policy and job order.
    pub fn new(
        config: SimConfig,
        policy: PolicyConfig,
        order: OrderConfig,
        jobs: Vec<JobSpec>,
    ) -> Self {
        Simulation::from_policy(config, policy.build(), order, jobs)
    }

    /// Creates a run like [`new`](Simulation::new) around a policy the
    /// caller built, such as a decorator over a shipped one.
    pub fn from_policy(
        config: SimConfig,
        policy: Box<dyn ReservationPolicy>,
        order: OrderConfig,
        jobs: Vec<JobSpec>,
    ) -> Self {
        let mut sched =
            TaskScheduler::new(config.cluster, config.locality.clone(), policy, order.build());
        if let Some(spec_cfg) = config.speculation {
            sched = sched.with_speculation(spec_cfg);
        }
        let total_slots = config.cluster.total_slots() as usize;
        // Recycle the event-queue allocation across trials on this thread:
        // a benchmark or figure grid runs thousands of simulations, each
        // pushing one finish event per task instance.
        let mut events = recycled_event_queue(jobs.len() * 2 + 16);
        for (i, job) in jobs.iter().enumerate() {
            events.push(job.arrival(), Event::JobArrival(i));
        }
        // Fault strikes are scheduled up front, after the arrivals: an
        // empty plan pushes nothing, so the event sequence numbering (and
        // therefore every tie-break) is identical to a fault-free run.
        for (i, f) in config.faults.events().iter().enumerate() {
            events.push(f.at, Event::Fault(i));
        }
        let stop_pending = jobs
            .iter()
            .filter(|j| config.stop_after.iter().any(|n| n == j.name()))
            .count();
        Simulation {
            sched,
            events,
            seed: config.seed,
            now: SimTime::ZERO,
            jobs,
            submitted: 0,
            slot_tokens: vec![0; total_slots],
            collector: Collector::new(),
            tracked: Vec::new(),
            track_names: config.track_jobs,
            scheduled_expiry: None,
            scheduled_unlock: None,
            horizon: config.horizon,
            last_integrated: SimTime::ZERO,
            record_trace: config.record_trace,
            open_trace: vec![None; total_slots],
            stop_pending,
            stop_names: config.stop_after,
            faults: config.faults,
            storm_until: SimTime::ZERO,
            storm_factor: 1.0,
            cold_until: vec![SimTime::ZERO; total_slots],
            cold_factor: vec![1.0; total_slots],
            progress_every: None,
        }
    }

    /// Attaches a scheduler decision-trace sink: every offer round,
    /// denial, reservation transition and launch is reported to it as an
    /// `ssr_trace::TraceEvent`. Recover the sink with
    /// [`run_traced`](Simulation::run_traced).
    pub fn with_trace_sink(mut self, sink: Box<dyn ssr_trace::TraceSink>) -> Self {
        self.sched.set_trace_sink(sink);
        self
    }

    /// Attaches a wall-clock span profiler (the `--profile` plane): the
    /// run loop, event dispatch, offer rounds, speculation scans and
    /// trace emission are timed on one shared span stack. Recover the
    /// profiler with [`run_instrumented`](Simulation::run_instrumented).
    ///
    /// Profiling never influences the simulation: spans only observe.
    pub fn with_span_profiler(mut self, profiler: Box<SpanProfiler>) -> Self {
        self.sched.set_span_profiler(profiler);
        self
    }

    /// Enables a stderr progress heartbeat every `every_events` processed
    /// events. Wall-clock plane: the output goes to stderr only and never
    /// influences the simulation or anything serialized from it.
    pub fn with_progress_heartbeat(mut self, every_events: u64) -> Self {
        self.progress_every = Some(every_events.max(1));
        self
    }

    /// Runs to completion (or the safety horizon) and returns the report.
    pub fn run(self) -> SimReport {
        self.run_traced().0
    }

    /// Runs to completion like [`run`](Simulation::run) and additionally
    /// returns the decision-trace sink attached via
    /// [`with_trace_sink`](Simulation::with_trace_sink) (`None` if none
    /// was).
    pub fn run_traced(self) -> (SimReport, Option<Box<dyn ssr_trace::TraceSink>>) {
        let (report, sink, _) = self.run_instrumented();
        (report, sink)
    }

    /// [`run_traced`](Simulation::run_traced) plus the span profiler
    /// attached via
    /// [`with_span_profiler`](Simulation::with_span_profiler) (`None` if
    /// none was), carrying the run's aggregated wall-clock spans.
    pub fn run_instrumented(
        mut self,
    ) -> (SimReport, Option<Box<dyn ssr_trace::TraceSink>>, Option<Box<SpanProfiler>>) {
        self.run_loop();
        let sink = self.sched.take_trace_sink();
        let profiler = self.sched.take_span_profiler();
        let report = self.finish_report();
        (report, sink, profiler)
    }

    /// Opens a profiler span on the scheduler's span stack, if a
    /// profiler is attached.
    #[inline]
    fn span_enter(&mut self, name: &str) {
        if let Some(p) = self.sched.span_profiler_mut() {
            p.enter(name);
        }
    }

    /// Closes the innermost profiler span, if a profiler is attached.
    #[inline]
    fn span_exit(&mut self) {
        if let Some(p) = self.sched.span_profiler_mut() {
            p.exit();
        }
    }

    fn run_loop(&mut self) {
        let heartbeat =
            self.progress_every.map(|every| (crate::walltime::Stopwatch::start(), every));
        self.span_enter("run_loop");
        while let Some((t, event)) = self.events.pop() {
            if t > self.horizon {
                break;
            }
            self.collector.events_processed += 1;
            if let Some((clock, every)) = &heartbeat {
                if self.collector.events_processed.is_multiple_of(*every) {
                    // Non-deterministic plane: stderr only, never reports.
                    eprintln!(
                        "[ssr-perf] {:7.1}s wall  {:>10} events  sim t={:.1}s  {} pending",
                        clock.elapsed_secs(),
                        self.collector.events_processed,
                        t.as_secs_f64(),
                        self.events.len(),
                    );
                }
            }
            self.integrate_to(t);
            self.now = t;
            self.span_enter("event_dispatch");
            match event {
                Event::JobArrival(index) => {
                    let spec = self.jobs[index].clone();
                    let id = self.sched.submit(spec, t);
                    self.submitted += 1;
                    if self.track_names.iter().any(|n| n == self.jobs[index].name()) {
                        self.tracked.push((id, self.jobs[index].name().to_owned()));
                    }
                }
                Event::TaskFinish { slot, token } => {
                    if self.slot_tokens[slot.index()] != token {
                        self.span_exit(); // event_dispatch
                        continue; // the instance on this slot was killed
                    }
                    let outcome = self.sched.task_finished(slot, t);
                    self.slot_tokens[slot.index()] += 1;
                    self.close_trace(slot, t, "finished");
                    for killed in &outcome.killed {
                        self.slot_tokens[killed.index()] += 1;
                        self.collector.kills += 1;
                        self.close_trace(*killed, t, "killed");
                    }
                    if outcome.job_completed {
                        self.record_job_completion(outcome.instance.task.job, t);
                    }
                }
                Event::ReservationExpiry => {
                    self.scheduled_expiry = None;
                    self.sched.expire_reservations(t);
                }
                Event::LocalityUnlock => {
                    self.scheduled_unlock = None;
                    self.sched.trace_locality_unlock(t);
                }
                Event::Fault(index) => self.apply_fault(index, t),
                Event::FaultHeal(index) => self.heal_fault(index, t),
            }
            self.span_exit(); // event_dispatch
            self.dispatch();
            self.sample_timeseries();
            if !self.stop_names.is_empty() && self.stop_pending == 0 {
                break;
            }
            if !self.sched.has_unfinished_jobs() && self.submitted == self.jobs.len() {
                break;
            }
        }
        self.span_exit(); // run_loop
    }

    /// Applies one scheduled [`FaultEvent`](ssr_faults::FaultEvent) and,
    /// for bounded faults, schedules the matching heal.
    fn apply_fault(&mut self, index: usize, t: SimTime) {
        let kind = self.faults.events()[index].kind.clone();
        match kind {
            FaultKind::NodeCrash { node, down } => {
                let slots = self.node_slots(node);
                self.kill_and_offline(&slots, t, "crash");
                if let Some(d) = down {
                    self.events.push(t + d, Event::FaultHeal(index));
                }
            }
            FaultKind::SlotRevocation { slot } => {
                self.kill_and_offline(&[SlotId::new(slot)], t, "revocation");
            }
            FaultKind::NetworkPartition { node, secs } => {
                // Running tasks survive the partition and may finish out of
                // service; only the master-side reservations are revoked.
                let slots = self.node_slots(node);
                self.sched.fail_slots(&slots, t, false, "partition");
                self.events.push(t + secs, Event::FaultHeal(index));
            }
            FaultKind::StragglerStorm { factor, secs } => {
                self.storm_until = self.storm_until.max(t + secs);
                self.storm_factor = factor;
            }
            FaultKind::ExecutorRestart { node, down, .. } => {
                let slots = self.node_slots(node);
                self.kill_and_offline(&slots, t, "restart");
                self.events.push(t + down, Event::FaultHeal(index));
            }
        }
    }

    /// Heals a bounded fault: the slots rejoin the pool (executor restarts
    /// additionally run cold for the configured ramp-up window).
    fn heal_fault(&mut self, index: usize, t: SimTime) {
        let kind = self.faults.events()[index].kind.clone();
        match kind {
            FaultKind::NodeCrash { node, .. } | FaultKind::NetworkPartition { node, .. } => {
                let slots = self.node_slots(node);
                self.sched.restore_slots(&slots, t);
            }
            FaultKind::ExecutorRestart { node, rampup, cold_factor, .. } => {
                let slots = self.node_slots(node);
                self.sched.restore_slots(&slots, t);
                for slot in slots {
                    self.cold_until[slot.index()] = t + rampup;
                    self.cold_factor[slot.index()] = cold_factor;
                }
            }
            FaultKind::SlotRevocation { .. } | FaultKind::StragglerStorm { .. } => {}
        }
    }

    /// Takes `slots` out of service, killing whatever runs on them: the
    /// scheduler requeues the work, and the pending finish events are
    /// cancelled through the slot-token generation bump.
    fn kill_and_offline(&mut self, slots: &[SlotId], t: SimTime, cause: &'static str) {
        let outcome = self.sched.fail_slots(slots, t, true, cause);
        for slot in outcome.killed {
            self.slot_tokens[slot.index()] += 1;
            self.collector.kills += 1;
            self.close_trace(slot, t, "crashed");
        }
    }

    /// All slots hosted on `node` (an out-of-range node has none — the
    /// fault is then a no-op).
    fn node_slots(&self, node: u32) -> Vec<SlotId> {
        self.sched.cluster_spec().slots_of(NodeId::new(node)).collect()
    }

    /// Runs one resource-offer round and schedules the resulting finish,
    /// expiry and unlock events.
    fn dispatch(&mut self) {
        let assignments = self.sched.resource_offers(self.now);
        for a in &assignments {
            let task = a.instance.task;
            let spec = self.sched.jobs().get(task.job).expect("assigned job exists").spec();
            // Durations are a deterministic function of (job name, stage,
            // partition, attempt): a job draws identical intrinsic
            // durations whether it runs alone or in contention, so
            // slowdown measurements carry no sampling noise.
            let mut rng = self.task_rng(spec.name(), a.instance);
            let intrinsic = spec.stage(task.stage).duration().sample(&mut rng).max(1e-6);
            let factor = if a.speculative && a.warm {
                // §IV-C: copies run on warm slots of the same phase.
                1.0
            } else {
                self.sched.locality().sample_slowdown(a.level, &mut rng).max(0.0)
            };
            // Fault multipliers stretch the already-sampled duration: no
            // extra RNG draw, so an empty plan leaves the stream untouched.
            let mut secs = intrinsic * factor;
            if self.now < self.storm_until {
                secs *= self.storm_factor;
            }
            if self.now < self.cold_until[a.slot.index()] {
                secs *= self.cold_factor[a.slot.index()];
            }
            let duration = SimDuration::from_secs_f64(secs);
            let token = self.slot_tokens[a.slot.index()];
            self.events.push(self.now + duration, Event::TaskFinish { slot: a.slot, token });
            self.collector.locality_counts[a.level.index()] += 1;
            if self.record_trace {
                self.open_trace[a.slot.index()] = Some(OpenTrace {
                    job: spec.name().to_owned(),
                    stage: task.stage.as_u32(),
                    partition: task.partition,
                    attempt: a.instance.attempt,
                    start: self.now,
                    level: a.level,
                    speculative: a.speculative,
                });
            }
            if a.speculative {
                self.collector.speculative_copies += 1;
            }
        }
        // Reservation-expiry wakeup.
        if let Some(expiry) = self.sched.next_reservation_expiry() {
            let wake = expiry.max(self.now);
            if self.scheduled_expiry.is_none_or(|s| wake < s) {
                self.events.push(wake, Event::ReservationExpiry);
                self.scheduled_expiry = Some(wake);
            }
        }
        // Delay-scheduling wakeup.
        if let Some(unlock) = self.sched.next_locality_unlock(self.now) {
            let wake = unlock.max(self.now);
            if self.scheduled_unlock.is_none_or(|s| wake < s) {
                self.events.push(wake, Event::LocalityUnlock);
                self.scheduled_unlock = Some(wake);
            }
        }
    }

    /// Derives the per-instance RNG: FNV-1a over the job name and task
    /// coordinates, mixed with the run seed.
    fn task_rng(&self, name: &str, instance: ssr_scheduler::TaskInstance) -> SimRng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in name.bytes() {
            mix(u64::from(b));
        }
        mix(u64::from(instance.task.stage.as_u32()));
        mix(u64::from(instance.task.partition));
        mix(u64::from(instance.attempt));
        // stream(root, index) == seed_from_u64(root ^ index), so this is
        // byte-identical to the former `seed_from_u64(h ^ self.seed)`.
        SimRng::stream(self.seed, h)
    }

    /// Integrates slot-state occupancy exactly over `[last, t]` (states
    /// are piecewise constant between events).
    fn integrate_to(&mut self, t: SimTime) {
        let dt = t.saturating_since(self.last_integrated).as_secs_f64();
        if dt > 0.0 {
            let (free, running, reserved) = self.sched.slot_pool().counts();
            self.collector.busy_slot_secs += running as f64 * dt;
            self.collector.reserved_idle_slot_secs += reserved as f64 * dt;
            self.collector.free_slot_secs += free as f64 * dt;
        }
        self.last_integrated = t;
    }

    fn sample_timeseries(&mut self) {
        if self.tracked.is_empty() {
            return;
        }
        let running: Vec<(String, usize)> = self
            .tracked
            .iter()
            .map(|(id, name)| (name.clone(), self.sched.running_count_for(*id)))
            .collect();
        self.collector.timeseries.push(TimeSample {
            time_secs: self.now.as_secs_f64(),
            running,
        });
    }

    fn close_trace(&mut self, slot: SlotId, end: SimTime, outcome: &str) {
        if !self.record_trace {
            return;
        }
        if let Some(open) = self.open_trace[slot.index()].take() {
            self.collector.trace.push(crate::report::TaskTraceRecord {
                job: open.job,
                stage: open.stage,
                partition: open.partition,
                attempt: open.attempt,
                slot: slot.as_u32(),
                start_secs: open.start.as_secs_f64(),
                end_secs: end.as_secs_f64(),
                level: open.level.to_string(),
                speculative: open.speculative,
                outcome: outcome.to_owned(),
            });
        }
    }

    fn record_job_completion(&mut self, job: JobId, t: SimTime) {
        let state = self.sched.jobs().get(job).expect("completed job exists");
        if self.stop_names.iter().any(|n| n == state.spec().name()) {
            self.stop_pending = self.stop_pending.saturating_sub(1);
        }
        let result = JobResult {
            name: state.spec().name().to_owned(),
            job_id: job.as_u64(),
            priority: state.priority().level(),
            arrival_secs: state.submitted_at().as_secs_f64(),
            completed_secs: Some(t.as_secs_f64()),
            jct: t.saturating_since(state.submitted_at()),
        };
        self.collector.results.push((job, result));
        self.collector.makespan = self.collector.makespan.max(t);
    }

    fn finish_report(mut self) -> SimReport {
        // Close the occupancy integral at the last event time.
        let end = self.now;
        self.integrate_to(end);
        // Fold the event queue's flow statistics into the run's work
        // counters, then hand the allocation back for the next trial.
        let counters = self.sched.work_counters().clone();
        counters.events_pushed.add(self.events.pushed());
        counters.events_popped.add(self.events.popped());
        counters.peak_event_queue_len.high_water(self.events.peak_len() as u64);
        recycle_event_queue(std::mem::take(&mut self.events));
        // Report unfinished jobs too.
        let mut jobs: Vec<JobResult> =
            self.collector.results.iter().map(|(_, r)| r.clone()).collect();
        let mut all_done = self.submitted == self.jobs.len();
        for state in self.sched.jobs().iter() {
            if state.is_complete() {
                continue;
            }
            all_done = false;
            jobs.push(JobResult {
                name: state.spec().name().to_owned(),
                job_id: state.id().as_u64(),
                priority: state.priority().level(),
                arrival_secs: state.submitted_at().as_secs_f64(),
                completed_secs: None,
                jct: SimDuration::ZERO,
            });
        }
        jobs.sort_by_key(|j| j.job_id);
        SimReport {
            policy: self.sched.policy_name().to_owned(),
            order: self.sched.order_name().to_owned(),
            jobs,
            completed: all_done,
            makespan_secs: self.collector.makespan.as_secs_f64(),
            busy_slot_secs: self.collector.busy_slot_secs,
            reserved_idle_slot_secs: self.collector.reserved_idle_slot_secs,
            free_slot_secs: self.collector.free_slot_secs,
            speculative_copies: self.collector.speculative_copies,
            kills: self.collector.kills,
            locality_counts: self.collector.locality_counts,
            timeseries: self.collector.timeseries,
            trace: self.collector.trace,
            events_processed: self.collector.events_processed,
            counters,
        }
    }
}

thread_local! {
    /// One recycled event queue per worker thread; trials on a thread run
    /// sequentially, so a single slot suffices.
    static QUEUE_POOL: std::cell::RefCell<Option<EventQueue<Event>>> =
        const { std::cell::RefCell::new(None) };
}

/// Takes the thread's recycled event queue (or builds one), reset to the
/// fresh-queue state with capacity for at least `cap` events.
fn recycled_event_queue(cap: usize) -> EventQueue<Event> {
    QUEUE_POOL.with(|pool| {
        let mut q = pool.borrow_mut().take().unwrap_or_default();
        q.reset();
        q.reserve(cap);
        q
    })
}

/// Returns a finished trial's queue to the thread's pool.
fn recycle_event_queue(q: EventQueue<Event>) {
    QUEUE_POOL.with(|pool| {
        *pool.borrow_mut() = Some(q);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_dag::Priority;
    use ssr_simcore::dist::constant;
    use ssr_workload::synthetic::{map_only, pareto_pipeline, pipeline_of};

    fn config(nodes: u32, slots: u32) -> SimConfig {
        SimConfig::new(ClusterSpec::new(nodes, slots).unwrap())
            .with_locality(LocalityModel::paper_simulation().with_wait(SimDuration::ZERO))
            .with_seed(1)
    }

    #[test]
    fn single_job_completes_with_exact_jct() {
        let job = map_only("m", 8, constant(2.0), Priority::default()).unwrap();
        let report =
            Simulation::new(config(2, 2), PolicyConfig::WorkConserving, OrderConfig::FifoPriority, vec![job])
                .run();
        assert!(report.completed);
        assert_eq!(report.jct_secs("m"), Some(4.0)); // 8 tasks / 4 slots x 2 s
        assert_eq!(report.makespan_secs, 4.0);
        // Utilization: 8 tasks x 2 s busy over 4 slots x 4 s.
        assert!((report.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pipeline_jct_accounts_for_barriers() {
        let job = pipeline_of(
            "p",
            &[(4, constant(1.0)), (4, constant(2.0))],
            Priority::default(),
            SimTime::ZERO,
        )
        .unwrap();
        let report =
            Simulation::new(config(2, 2), PolicyConfig::WorkConserving, OrderConfig::FifoPriority, vec![job])
                .run();
        assert_eq!(report.jct_secs("p"), Some(3.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let jobs = || {
            vec![
                pareto_pipeline("a", 3, 8, 1.0, 1.6, Priority::new(5)).unwrap(),
                pareto_pipeline("b", 2, 8, 1.0, 1.6, Priority::new(0)).unwrap(),
            ]
        };
        let r1 = Simulation::new(
            config(2, 4).with_seed(42),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            jobs(),
        )
        .run();
        let r2 = Simulation::new(
            config(2, 4).with_seed(42),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            jobs(),
        )
        .run();
        assert_eq!(r1.jct_secs("a"), r2.jct_secs("a"));
        assert_eq!(r1.jct_secs("b"), r2.jct_secs("b"));
        assert_eq!(r1.busy_slot_secs, r2.busy_slot_secs);
        let r3 = Simulation::new(
            config(2, 4).with_seed(43),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            jobs(),
        )
        .run();
        assert_ne!(r1.jct_secs("a"), r3.jct_secs("a"));
    }

    #[test]
    fn ssr_protects_foreground_from_background() {
        // The paper's core claim, end to end: a 3-phase foreground job
        // contends with long background tasks. Work conserving interleaves
        // them; SSR keeps the foreground's slots across barriers.
        let fg = || {
            pipeline_of(
                "fg",
                &[(4, constant(2.0)), (4, constant(2.0)), (4, constant(2.0))],
                Priority::new(10),
                SimTime::ZERO,
            )
            .unwrap()
        };
        let bg = || map_only("bg", 32, constant(50.0), Priority::new(0)).unwrap();
        // Phase durations are constant, so the only skew source is the
        // per-task sampling... constant() has none: all tasks finish
        // together and even work conserving loses nothing. Introduce skew
        // via Pareto.
        let fg_skewed = || pareto_pipeline("fg", 3, 4, 1.0, 1.3, Priority::new(10)).unwrap();
        let run = |policy: PolicyConfig, jobs: Vec<JobSpec>| {
            Simulation::new(config(1, 4), policy, OrderConfig::FifoPriority, jobs).run()
        };
        let _ = fg;
        let wc = run(PolicyConfig::WorkConserving, vec![fg_skewed(), bg()]);
        let ssr = run(PolicyConfig::ssr_strict(), vec![fg_skewed(), bg()]);
        let alone = run(PolicyConfig::WorkConserving, vec![fg_skewed()]);
        let jct_wc = wc.jct_secs("fg").unwrap();
        let jct_ssr = ssr.jct_secs("fg").unwrap();
        let jct_alone = alone.jct_secs("fg").unwrap();
        // Under work conservation the foreground waits behind 50 s
        // background tasks at each barrier.
        assert!(
            jct_wc > jct_alone * 1.5,
            "work conserving should inflate JCT: {jct_wc} vs alone {jct_alone}"
        );
        // SSR keeps it within a whisker of running alone.
        assert!(
            jct_ssr < jct_alone * 1.2,
            "SSR should isolate: {jct_ssr} vs alone {jct_alone}"
        );
    }

    #[test]
    fn background_still_completes_under_ssr() {
        let fg = pareto_pipeline("fg", 3, 4, 1.0, 1.3, Priority::new(10)).unwrap();
        let bg = map_only("bg", 16, constant(5.0), Priority::new(0)).unwrap();
        let report = Simulation::new(
            config(1, 4),
            PolicyConfig::ssr_strict(),
            OrderConfig::FifoPriority,
            vec![fg, bg],
        )
        .run();
        assert!(report.completed, "all jobs must finish");
        assert!(report.jct_secs("bg").is_some());
    }

    #[test]
    fn timeseries_tracks_requested_jobs() {
        let fg = pareto_pipeline("fg", 2, 4, 1.0, 1.5, Priority::new(10)).unwrap();
        let report = Simulation::new(
            config(1, 4).track_jobs(["fg"]),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            vec![fg],
        )
        .run();
        assert!(!report.timeseries.is_empty());
        let max_running = report
            .timeseries
            .iter()
            .flat_map(|s| s.running.iter().map(|(_, c)| *c))
            .max()
            .unwrap();
        assert_eq!(max_running, 4);
    }

    #[test]
    fn straggler_mitigation_reduces_phase_tail() {
        // Heavy-tailed single foreground job alone on the cluster: copies
        // on reserved slots cut the tail (the §IV-C effect).
        let job = || pareto_pipeline("fg", 4, 16, 1.0, 1.2, Priority::new(10)).unwrap();
        let without = Simulation::new(
            config(4, 4).with_seed(7),
            PolicyConfig::ssr_strict(),
            OrderConfig::FifoPriority,
            vec![job()],
        )
        .run();
        let with = Simulation::new(
            config(4, 4).with_seed(7),
            PolicyConfig::ssr_strict_with_stragglers(),
            OrderConfig::FifoPriority,
            vec![job()],
        )
        .run();
        assert!(with.speculative_copies > 0);
        let a = without.jct_secs("fg").unwrap();
        let b = with.jct_secs("fg").unwrap();
        assert!(b < a, "mitigation must shorten the heavy tail: {b} !< {a}");
    }

    #[test]
    fn horizon_aborts_incomplete_runs() {
        let job = map_only("long", 4, constant(1000.0), Priority::default()).unwrap();
        let report = Simulation::new(
            config(1, 2).with_horizon(SimTime::from_secs(10)),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            vec![job],
        )
        .run();
        assert!(!report.completed);
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.jobs[0].completed_secs, None);
    }

    #[test]
    fn locality_counts_accumulate() {
        let job = pipeline_of(
            "p",
            &[(4, constant(1.0)), (4, constant(1.0))],
            Priority::default(),
            SimTime::ZERO,
        )
        .unwrap();
        let report =
            Simulation::new(config(2, 2), PolicyConfig::WorkConserving, OrderConfig::FifoPriority, vec![job])
                .run();
        let total: u64 = report.locality_counts.iter().sum();
        assert_eq!(total, 8);
        // Downstream tasks land on their upstream slots (free at barrier).
        assert_eq!(report.locality_counts[0], 8);
    }

    #[test]
    fn trace_records_every_instance() {
        let job = pipeline_of(
            "p",
            &[(4, constant(1.0)), (4, constant(2.0))],
            Priority::default(),
            SimTime::ZERO,
        )
        .unwrap();
        let report = Simulation::new(
            config(2, 2).record_trace(true),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            vec![job],
        )
        .run();
        assert_eq!(report.trace.len(), 8);
        for r in &report.trace {
            assert_eq!(r.job, "p");
            assert_eq!(r.outcome, "finished");
            assert!(r.end_secs > r.start_secs);
            assert!(!r.speculative);
        }
        // Stage 1 records start after stage 0's barrier clears.
        let s0_end = report
            .trace
            .iter()
            .filter(|r| r.stage == 0)
            .map(|r| r.end_secs)
            .fold(0.0f64, f64::max);
        for r in report.trace.iter().filter(|r| r.stage == 1) {
            assert!(r.start_secs >= s0_end);
        }
        // Disabled by default.
        let quiet = Simulation::new(
            config(2, 2),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            vec![pipeline_of("q", &[(2, constant(1.0))], Priority::default(), SimTime::ZERO)
                .unwrap()],
        )
        .run();
        assert!(quiet.trace.is_empty());
    }

    #[test]
    fn trace_marks_killed_copies() {
        let job = pareto_pipeline("h", 2, 8, 1.0, 1.2, Priority::new(10)).unwrap();
        let report = Simulation::new(
            config(2, 4).with_seed(3).record_trace(true),
            PolicyConfig::ssr_strict_with_stragglers(),
            OrderConfig::FifoPriority,
            vec![job],
        )
        .run();
        let killed = report.trace.iter().filter(|r| r.outcome == "killed").count() as u64;
        assert_eq!(killed, report.kills);
        if report.speculative_copies > 0 {
            assert!(report.trace.iter().any(|r| r.speculative));
        }
    }

    fn jsonl_of(sink: Box<dyn ssr_trace::TraceSink>) -> String {
        sink.into_any()
            .downcast::<ssr_trace::JsonlSink>()
            .expect("JsonlSink recovered")
            .finish()
    }

    #[test]
    fn empty_fault_plan_is_byte_identical() {
        let jobs = || {
            vec![
                pareto_pipeline("fg", 3, 8, 1.0, 1.4, Priority::new(10)).unwrap(),
                map_only("bg", 16, constant(5.0), Priority::new(0)).unwrap(),
            ]
        };
        let run = |cfg: SimConfig| {
            Simulation::new(cfg, PolicyConfig::ssr_strict(), OrderConfig::FifoPriority, jobs())
                .with_trace_sink(Box::new(ssr_trace::JsonlSink::new()))
                .run_traced()
        };
        let (plain, plain_sink) = run(config(2, 4).with_seed(11).record_trace(true));
        let (faulted, faulted_sink) = run(
            config(2, 4).with_seed(11).record_trace(true).with_faults(FaultPlan::default()),
        );
        assert_eq!(
            jsonl_of(plain_sink.unwrap()),
            jsonl_of(faulted_sink.unwrap()),
            "empty plan must not perturb the decision trace"
        );
        assert_eq!(plain.jct_secs("fg"), faulted.jct_secs("fg"));
        assert_eq!(plain.jct_secs("bg"), faulted.jct_secs("bg"));
        assert_eq!(plain.busy_slot_secs, faulted.busy_slot_secs);
        assert_eq!(plain.events_processed, faulted.events_processed);
        assert_eq!(plain.trace.len(), faulted.trace.len());
    }

    #[test]
    fn node_crash_requeues_and_still_completes() {
        let job = map_only("m", 8, constant(2.0), Priority::default()).unwrap();
        let plan = FaultPlan::new()
            .with(SimTime::from_secs(1), FaultKind::NodeCrash { node: 1, down: None });
        let report = Simulation::new(
            config(2, 2).record_trace(true).with_faults(plan),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            vec![job],
        )
        .run();
        assert!(report.completed, "requeued tasks must finish on the surviving node");
        let crashed = report.trace.iter().filter(|r| r.outcome == "crashed").count();
        assert_eq!(crashed, 2, "both tasks on the crashed node are killed");
        // 8 x 2 s tasks on 2 surviving slots after losing 2 mid-flight.
        assert!(report.jct_secs("m").unwrap() > 4.0);
        // Every partition still finishes exactly once.
        let finished = report.trace.iter().filter(|r| r.outcome == "finished").count();
        assert_eq!(finished, 8);
    }

    #[test]
    fn crash_of_a_node_past_the_cluster_is_a_no_op() {
        let run = |plan: FaultPlan| {
            let jobs = vec![
                pareto_pipeline("fg", 3, 8, 1.0, 1.4, Priority::new(10)).unwrap(),
                map_only("bg", 16, constant(5.0), Priority::new(0)).unwrap(),
            ];
            let cfg = config(2, 4).with_seed(11).with_faults(plan);
            Simulation::new(cfg, PolicyConfig::ssr_strict(), OrderConfig::FifoPriority, jobs)
                .with_trace_sink(Box::new(ssr_trace::JsonlSink::new()))
                .run_traced()
        };
        let (plain, _) = run(FaultPlan::new());
        let past = FaultKind::NodeCrash { node: 2, down: Some(SimDuration::from_secs(3)) };
        let (faulted, sink) = run(FaultPlan::new().with(SimTime::from_secs(1), past));
        let jsonl = jsonl_of(sink.unwrap());
        assert!(!jsonl.contains("\"slot-offline\""), "no slot goes offline");
        assert!(!jsonl.contains("\"task-crashed\""), "no task is killed");
        let jcts = |r: &SimReport| r.jobs.iter().map(|j| j.jct).collect::<Vec<_>>();
        assert_eq!(jcts(&faulted), jcts(&plain));
    }

    #[test]
    fn crashed_node_rejoins_after_downtime() {
        let job = map_only("m", 12, constant(2.0), Priority::default()).unwrap();
        let heal = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::NodeCrash { node: 1, down: Some(SimDuration::from_secs(3)) },
        );
        let permanent = FaultPlan::new()
            .with(SimTime::from_secs(1), FaultKind::NodeCrash { node: 1, down: None });
        let run = |plan: FaultPlan| {
            Simulation::new(
                config(2, 2).with_faults(plan),
                PolicyConfig::WorkConserving,
                OrderConfig::FifoPriority,
                vec![map_only("m", 12, constant(2.0), Priority::default()).unwrap()],
            )
            .run()
        };
        let _ = job;
        let healed = run(heal);
        let down = run(permanent);
        assert!(healed.completed && down.completed);
        assert!(
            healed.jct_secs("m").unwrap() < down.jct_secs("m").unwrap(),
            "a rejoining node must speed the job up versus a permanent loss"
        );
    }

    #[test]
    fn partition_survivors_finish_out_of_service() {
        let job = map_only("m", 8, constant(2.0), Priority::default()).unwrap();
        let plan = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::NetworkPartition { node: 1, secs: SimDuration::from_secs(10) },
        );
        let report = Simulation::new(
            config(2, 2).record_trace(true).with_faults(plan),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            vec![job],
        )
        .run();
        assert!(report.completed);
        // Nothing is killed: tasks running through the partition finish.
        assert!(report.trace.iter().all(|r| r.outcome == "finished"));
        // The partitioned slots take no new work until the heal at t=11:
        // 4 done by t=2, the rest run on node 0's two slots.
        assert_eq!(report.jct_secs("m"), Some(6.0));
    }

    #[test]
    fn straggler_storm_stretches_in_flight_window() {
        let plan = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::StragglerStorm { factor: 2.0, secs: SimDuration::from_secs(100) },
        );
        let report = Simulation::new(
            config(2, 2).with_faults(plan),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            vec![map_only("m", 8, constant(2.0), Priority::default()).unwrap()],
        )
        .run();
        // First wave (launched at t=0) predates the storm and takes 2 s;
        // the second wave launches at t=2 inside the storm window: 4 s.
        assert_eq!(report.jct_secs("m"), Some(6.0));
    }

    #[test]
    fn executor_restart_runs_cold_through_rampup() {
        let plan = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::ExecutorRestart {
                node: 1,
                down: SimDuration::from_secs(1),
                rampup: SimDuration::from_secs(100),
                cold_factor: 3.0,
            },
        );
        let report = Simulation::new(
            config(2, 2).record_trace(true).with_faults(plan),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            vec![map_only("m", 8, constant(2.0), Priority::default()).unwrap()],
        )
        .run();
        assert!(report.completed);
        // Tasks relaunched on the restarted executor run 3x slower.
        let cold = report
            .trace
            .iter()
            .filter(|r| r.outcome == "finished" && (r.end_secs - r.start_secs - 6.0).abs() < 1e-9)
            .count();
        assert!(cold > 0, "some task must run cold on the restarted node");
    }

    #[test]
    fn occupancy_integral_accounts_every_slot_second() {
        let job = pareto_pipeline("p", 2, 4, 1.0, 1.6, Priority::default()).unwrap();
        let report =
            Simulation::new(config(1, 4), PolicyConfig::ssr_strict(), OrderConfig::FifoPriority, vec![job])
                .run();
        let total = report.busy_slot_secs + report.reserved_idle_slot_secs + report.free_slot_secs;
        let expected = 4.0 * report.makespan_secs;
        assert!(
            (total - expected).abs() < 1e-6,
            "integral {total} != slots x makespan {expected}"
        );
    }

    #[test]
    fn work_counters_are_harvested_into_the_report() {
        let job = pareto_pipeline("p", 2, 8, 1.0, 1.6, Priority::default()).unwrap();
        let report =
            Simulation::new(config(1, 4), PolicyConfig::ssr_strict(), OrderConfig::FifoPriority, vec![job])
                .run();
        let c = &report.counters;
        assert!(!c.is_zero());
        assert_eq!(c.tasks_assigned.get(), 16, "2 phases x 8 partitions, no copies");
        assert!(c.offer_rounds.get() >= report.events_processed, "one round per event");
        // Every processed event was popped; pops past the break are legal.
        assert!(c.events_popped.get() >= report.events_processed);
        assert!(c.events_pushed.get() >= c.events_popped.get());
        assert!(c.peak_event_queue_len.get() > 0);
        assert!(c.slots_scanned.get() > 0);
        assert!(c.peak_running_instances.get() as usize <= 4, "cluster has 4 slots");
    }

    #[test]
    fn span_profiling_only_observes() {
        // The two-plane rule, end to end: a profiled run must produce a
        // byte-identical report, and its spans must balance.
        struct Zero;
        impl ssr_perf::SpanClock for Zero {
            fn now_secs(&self) -> f64 {
                0.0
            }
        }
        let job = || pareto_pipeline("p", 2, 8, 1.0, 1.6, Priority::default()).unwrap();
        let build = || {
            Simulation::new(
                config(1, 4),
                PolicyConfig::ssr_strict(),
                OrderConfig::FifoPriority,
                vec![job()],
            )
        };
        let plain = build().run();
        let (profiled, _, profiler) = build()
            .with_span_profiler(Box::new(SpanProfiler::new(Box::new(Zero))))
            .run_instrumented();
        let profiler = profiler.expect("profiler attached");
        assert_eq!(profiler.open_spans(), 0, "all spans must close");
        let spans = profiler.report();
        let paths: Vec<&str> = spans.rows.iter().map(|r| r.path.as_str()).collect();
        assert!(paths.contains(&"run_loop"), "{paths:?}");
        assert!(paths.contains(&"run_loop/event_dispatch"), "{paths:?}");
        assert!(paths.contains(&"run_loop/offer_round"), "{paths:?}");
        assert_eq!(plain.jct_secs("p"), profiled.jct_secs("p"));
        assert_eq!(plain.events_processed, profiled.events_processed);
        assert_eq!(plain.counters, profiled.counters, "counters ignore the profiler");
    }

    #[test]
    fn progress_heartbeat_only_observes() {
        let job = || map_only("m", 8, constant(2.0), Priority::default()).unwrap();
        let build = |hb: bool| {
            let sim = Simulation::new(
                config(2, 2),
                PolicyConfig::WorkConserving,
                OrderConfig::FifoPriority,
                vec![job()],
            );
            if hb {
                sim.with_progress_heartbeat(1).run()
            } else {
                sim.run()
            }
        };
        let quiet = build(false);
        let chatty = build(true);
        assert_eq!(quiet.jct_secs("m"), chatty.jct_secs("m"));
        assert_eq!(quiet.events_processed, chatty.events_processed);
        assert_eq!(quiet.counters, chatty.counters);
    }
}
