//! A replica of `Simulation`'s event loop that drives `TaskScheduler`
//! through its public API, so that every per-event call into the engine
//! can be timed from outside.
//!
//! The replica must make exactly the calls `Simulation::run` makes, in the
//! same order: the same event order (arrivals, then fault strikes, then
//! FIFO among equal times), the same per-instance duration RNG
//! (`SimRng::stream` over the FNV-1a task hash), the same fault
//! multipliers and the same wakeup scheduling. [`compare`] checks the
//! outcome against the engine's report; the fidelity tests run it for
//! every policy and job order.

use std::rc::Rc;

use ssr_cluster::SlotId;
use ssr_dag::JobId;
use ssr_faults::FaultKind;
use ssr_perf::{SpanProfiler, WorkCounters};
use ssr_scheduler::{TaskInstance, TaskScheduler};
use ssr_sim::walltime::WallClock;
use ssr_sim::SimReport;
use ssr_simcore::events::EventQueue;
use ssr_simcore::rng::SimRng;
use ssr_simcore::{SimDuration, SimTime};
use ssr_trace::TraceSink;

use crate::layers::Layers;
use crate::probes::{TimedOrder, TimedPolicy, TimedSink};
use crate::runspec::RunSpec;

/// `Simulation`'s default safety horizon: one simulated week.
const HORIZON: SimTime = SimTime::from_secs(7 * 24 * 3600);

#[derive(Debug, Clone, Copy)]
enum Event {
    JobArrival(usize),
    TaskFinish { slot: SlotId, token: u64 },
    ReservationExpiry,
    LocalityUnlock,
    Fault(usize),
    FaultHeal(usize),
}

/// What one replica run produced.
#[derive(Debug)]
pub struct ReplicaOutcome {
    /// Work counters, with the event-queue totals folded in as
    /// `Simulation` folds them.
    pub counters: WorkCounters,
    /// `(job id, completion time, JCT)` of every completed job, in
    /// completion order.
    pub completions: Vec<(JobId, SimTime, SimDuration)>,
    /// Latest completion time.
    pub makespan: SimTime,
    /// The decision-trace sink, if one was attached, without its timing
    /// decorator.
    pub sink: Option<Box<dyn TraceSink>>,
}

/// Runs `spec` through the replica loop. Policy, job order and (if
/// given) trace sink are wrapped in timing decorators; every per-event
/// scheduler call is timed into `layers`, and a span profiler records
/// the same spans `Simulation::with_span_profiler` would.
pub fn run(
    spec: &RunSpec,
    sink: Option<Box<dyn TraceSink>>,
    layers: &mut Layers,
) -> ReplicaOutcome {
    let mut sched = TaskScheduler::new(
        spec.cluster,
        spec.locality.clone(),
        Box::new(TimedPolicy::new(
            spec.policy.build(),
            Rc::clone(&layers.policy),
        )),
        Box::new(TimedOrder::new(
            spec.order.build(),
            Rc::clone(&layers.order),
        )),
    );
    if let Some(sink) = sink {
        sched.set_trace_sink(Box::new(TimedSink::new(sink, Rc::clone(&layers.sink))));
    }
    sched.set_span_profiler(Box::new(SpanProfiler::new(Box::new(WallClock::start()))));
    let mut r = Replica {
        spec,
        events: EventQueue::with_capacity(spec.jobs.len() * 2 + 16),
        slot_tokens: vec![0; spec.cluster.total_slots() as usize],
        now: SimTime::ZERO,
        scheduled_expiry: None,
        scheduled_unlock: None,
        storm_until: SimTime::ZERO,
        storm_factor: 1.0,
        cold_until: vec![SimTime::ZERO; spec.cluster.total_slots() as usize],
        cold_factor: vec![1.0; spec.cluster.total_slots() as usize],
        completions: Vec::new(),
        makespan: SimTime::ZERO,
        sched,
    };
    for (i, job) in spec.jobs.iter().enumerate() {
        r.push(layers, job.arrival(), Event::JobArrival(i));
    }
    for (i, f) in spec.faults.events().iter().enumerate() {
        r.push(layers, f.at, Event::Fault(i));
    }
    r.run_loop(layers);

    let profiler = r
        .sched
        .take_span_profiler()
        .expect("profiler attached above");
    layers.add_spans(&profiler.report());
    let sink = r.sched.take_trace_sink().and_then(TimedSink::unwrap);
    let counters = r.sched.work_counters().clone();
    counters.events_pushed.add(r.events.pushed());
    counters.events_popped.add(r.events.popped());
    counters
        .peak_event_queue_len
        .high_water(r.events.peak_len() as u64);
    layers.counters.merge(&counters);
    layers.events += r.events.popped();
    layers.peak_queue_len = layers.peak_queue_len.max(r.events.peak_len() as u64);
    ReplicaOutcome {
        counters,
        completions: r.completions,
        makespan: r.makespan,
        sink,
    }
}

struct Replica<'a> {
    spec: &'a RunSpec,
    sched: TaskScheduler,
    events: EventQueue<Event>,
    slot_tokens: Vec<u64>,
    now: SimTime,
    scheduled_expiry: Option<SimTime>,
    scheduled_unlock: Option<SimTime>,
    storm_until: SimTime,
    storm_factor: f64,
    cold_until: Vec<SimTime>,
    cold_factor: Vec<f64>,
    completions: Vec<(JobId, SimTime, SimDuration)>,
    makespan: SimTime,
}

impl Replica<'_> {
    fn push(&mut self, layers: &Layers, at: SimTime, event: Event) {
        let events = &mut self.events;
        layers.event_queue.time(|| events.push(at, event));
    }

    fn span(&mut self, name: Option<&str>) {
        let profiler = self.sched.span_profiler_mut().expect("profiler attached");
        match name {
            Some(name) => profiler.enter(name),
            None => profiler.exit(),
        }
    }

    fn run_loop(&mut self, layers: &mut Layers) {
        let mut submitted = 0usize;
        self.span(Some("run_loop"));
        loop {
            let events = &mut self.events;
            let Some((t, event)) = layers.event_queue.time(|| events.pop()) else {
                break;
            };
            if t > HORIZON {
                break;
            }
            self.now = t;
            self.span(Some("event_dispatch"));
            match event {
                Event::JobArrival(index) => {
                    let job = self.spec.jobs[index].clone();
                    let sched = &mut self.sched;
                    layers.submit.time(|| sched.submit(job, t));
                    submitted += 1;
                }
                Event::TaskFinish { slot, token } => {
                    if self.slot_tokens[slot.index()] != token {
                        self.span(None);
                        continue;
                    }
                    let sched = &mut self.sched;
                    let outcome = layers.task_finished.time(|| sched.task_finished(slot, t));
                    self.slot_tokens[slot.index()] += 1;
                    for killed in &outcome.killed {
                        self.slot_tokens[killed.index()] += 1;
                    }
                    if outcome.job_completed {
                        let job = outcome.instance.task.job;
                        let state = self.sched.jobs().get(job).expect("completed job exists");
                        self.completions
                            .push((job, t, t.saturating_since(state.submitted_at())));
                        self.makespan = self.makespan.max(t);
                    }
                }
                Event::ReservationExpiry => {
                    self.scheduled_expiry = None;
                    let sched = &mut self.sched;
                    layers
                        .expire_reservations
                        .time(|| sched.expire_reservations(t));
                }
                Event::LocalityUnlock => {
                    self.scheduled_unlock = None;
                    self.sched.trace_locality_unlock(t);
                }
                Event::Fault(index) => self.apply_fault(layers, index, t),
                Event::FaultHeal(index) => self.heal_fault(index, t),
            }
            self.span(None);
            self.dispatch(layers);
            let sched = &self.sched;
            let unfinished = layers
                .has_unfinished_jobs
                .time(|| sched.has_unfinished_jobs());
            if !unfinished && submitted == self.spec.jobs.len() {
                break;
            }
        }
        self.span(None);
    }

    fn dispatch(&mut self, layers: &mut Layers) {
        let now = self.now;
        let sched = &mut self.sched;
        let assignments = layers.resource_offers.time(|| sched.resource_offers(now));
        for a in &assignments {
            let task = a.instance.task;
            let spec = self
                .sched
                .jobs()
                .get(task.job)
                .expect("assigned job exists")
                .spec();
            let mut rng = task_rng(self.spec.seed, spec.name(), a.instance);
            let intrinsic = spec.stage(task.stage).duration().sample(&mut rng).max(1e-6);
            let factor = if a.speculative && a.warm {
                1.0
            } else {
                self.sched
                    .locality()
                    .sample_slowdown(a.level, &mut rng)
                    .max(0.0)
            };
            let mut secs = intrinsic * factor;
            if now < self.storm_until {
                secs *= self.storm_factor;
            }
            if now < self.cold_until[a.slot.index()] {
                secs *= self.cold_factor[a.slot.index()];
            }
            let token = self.slot_tokens[a.slot.index()];
            let at = now + SimDuration::from_secs_f64(secs);
            self.push(
                layers,
                at,
                Event::TaskFinish {
                    slot: a.slot,
                    token,
                },
            );
        }
        if let Some(expiry) = self.sched.next_reservation_expiry() {
            let wake = expiry.max(now);
            if self.scheduled_expiry.is_none_or(|s| wake < s) {
                self.push(layers, wake, Event::ReservationExpiry);
                self.scheduled_expiry = Some(wake);
            }
        }
        let sched = &self.sched;
        if let Some(unlock) = layers
            .next_locality_unlock
            .time(|| sched.next_locality_unlock(now))
        {
            let wake = unlock.max(now);
            if self.scheduled_unlock.is_none_or(|s| wake < s) {
                self.push(layers, wake, Event::LocalityUnlock);
                self.scheduled_unlock = Some(wake);
            }
        }
    }

    fn apply_fault(&mut self, layers: &Layers, index: usize, t: SimTime) {
        match self.spec.faults.events()[index].kind {
            FaultKind::NodeCrash { node, down } => {
                self.kill_and_offline(&self.node_slots(node), t, "crash");
                if let Some(d) = down {
                    self.push(layers, t + d, Event::FaultHeal(index));
                }
            }
            FaultKind::SlotRevocation { slot } => {
                self.kill_and_offline(&[SlotId::new(slot)], t, "revocation");
            }
            FaultKind::NetworkPartition { node, secs } => {
                let slots = self.node_slots(node);
                self.sched.fail_slots(&slots, t, false, "partition");
                self.push(layers, t + secs, Event::FaultHeal(index));
            }
            FaultKind::StragglerStorm { factor, secs } => {
                self.storm_until = self.storm_until.max(t + secs);
                self.storm_factor = factor;
            }
            FaultKind::ExecutorRestart { node, down, .. } => {
                self.kill_and_offline(&self.node_slots(node), t, "restart");
                self.push(layers, t + down, Event::FaultHeal(index));
            }
        }
    }

    fn heal_fault(&mut self, index: usize, t: SimTime) {
        match self.spec.faults.events()[index].kind {
            FaultKind::NodeCrash { node, .. } | FaultKind::NetworkPartition { node, .. } => {
                self.sched.restore_slots(&self.node_slots(node), t);
            }
            FaultKind::ExecutorRestart {
                node,
                rampup,
                cold_factor,
                ..
            } => {
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

    fn kill_and_offline(&mut self, slots: &[SlotId], t: SimTime, cause: &'static str) {
        for slot in self.sched.fail_slots(slots, t, true, cause).killed {
            self.slot_tokens[slot.index()] += 1;
        }
    }

    fn node_slots(&self, node: u32) -> Vec<SlotId> {
        let spec = self.sched.cluster_spec();
        spec.iter_slots()
            .filter(|&s| spec.node_of(s).as_u32() == node)
            .collect()
    }
}

/// The per-instance duration RNG: FNV-1a over the job name and task
/// coordinates, as a stream of the run seed.
fn task_rng(seed: u64, name: &str, instance: TaskInstance) -> SimRng {
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
    SimRng::stream(seed, h)
}

/// Checks a replica outcome against the engine's report of the same
/// run: identical work counters, per-job completion times and JCTs, and
/// makespan.
pub fn compare(report: &SimReport, replica: &ReplicaOutcome) -> Result<(), String> {
    if report.counters != replica.counters {
        return Err(format!(
            "work counters differ\n engine:\n{}\n replica:\n{}",
            report.counters.render_text(),
            replica.counters.render_text()
        ));
    }
    if report.makespan_secs != replica.makespan.as_secs_f64() {
        return Err(format!(
            "makespan differs: engine {} s, replica {} s",
            report.makespan_secs,
            replica.makespan.as_secs_f64()
        ));
    }
    let completed = report
        .jobs
        .iter()
        .filter(|j| j.completed_secs.is_some())
        .count();
    if completed != replica.completions.len() {
        return Err(format!(
            "completed jobs differ: engine {completed}, replica {}",
            replica.completions.len()
        ));
    }
    for &(job, at, jct) in &replica.completions {
        let Some(r) = report.jobs.iter().find(|j| j.job_id == job.as_u64()) else {
            return Err(format!(
                "job {} missing from the engine report",
                job.as_u64()
            ));
        };
        if r.completed_secs != Some(at.as_secs_f64()) || r.jct != jct {
            return Err(format!(
                "job {} ({}) differs: engine done at {:?} jct {}, replica done at {} jct {}",
                r.job_id,
                r.name,
                r.completed_secs,
                r.jct,
                at.as_secs_f64(),
                jct
            ));
        }
    }
    Ok(())
}
