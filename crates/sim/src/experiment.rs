//! The contention-experiment harness: foreground jobs vs background
//! workloads, run-alone baselines, and the paper's *slowdown* metric
//! (§VI: measured JCT normalised by the minimum JCT when running alone).

use serde::{Deserialize, Serialize};
use ssr_cluster::ClusterSpec;
use ssr_core::{SpeculativeReservation, SsrConfig};
use ssr_dag::{JobSpec, Priority};
use ssr_perf::SpanProfiler;
use ssr_scheduler::{
    Fair, Fifo, FifoPriority, JobOrder, ReservationPolicy, StaticReservation, TimeoutReservation,
    WorkConserving,
};
use ssr_simcore::SimDuration;

use crate::report::SimReport;
use crate::simulation::{SimConfig, Simulation};

/// A cloneable description of a reservation policy, so experiments can
/// instantiate fresh policy state per run.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyConfig {
    /// The work-conserving status quo (no reservations).
    WorkConserving,
    /// Blind timeout-based reservation (§III-A.2).
    Timeout(SimDuration),
    /// A static pool of `count` slots for priorities ≥ `class` (§III-A.1).
    Static {
        /// Pool size in slots.
        count: u32,
        /// Priority class served by the pool.
        class: Priority,
    },
    /// Speculative slot reservation (Algorithm 1 + §IV).
    Ssr(SsrConfig),
}

impl PolicyConfig {
    /// SSR with strict isolation (`P = 1`), the paper's default.
    pub fn ssr_strict() -> Self {
        PolicyConfig::Ssr(SsrConfig::default())
    }

    /// SSR with strict isolation and §IV-C straggler mitigation.
    pub fn ssr_strict_with_stragglers() -> Self {
        PolicyConfig::Ssr(
            SsrConfig::builder()
                .mitigate_stragglers(true)
                .build()
                .expect("valid static configuration"),
        )
    }

    /// SSR reserving only for jobs at or above `level` — the paper's
    /// deployment model (foreground opt-in; batch jobs stay
    /// work-conserving).
    ///
    /// # Panics
    ///
    /// Never panics; the default configuration is always valid.
    pub fn ssr_foreground_only(level: i32) -> Self {
        PolicyConfig::Ssr(
            SsrConfig::builder()
                .reserve_only_at_or_above(level)
                .build()
                .expect("valid static configuration"),
        )
    }

    /// SSR with isolation target `p` (the §IV-B knob).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn ssr_with_isolation(p: f64) -> Self {
        PolicyConfig::Ssr(
            SsrConfig::builder()
                .isolation_target(p)
                .build()
                .expect("isolation target must lie in [0, 1]"),
        )
    }

    /// SSR with pre-reservation threshold `r` (Fig. 16's sweep).
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside `[0, 1]`.
    pub fn ssr_with_prereserve_threshold(r: f64) -> Self {
        PolicyConfig::Ssr(
            SsrConfig::builder()
                .prereserve_threshold(r)
                .build()
                .expect("threshold must lie in [0, 1]"),
        )
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn ReservationPolicy> {
        match self {
            PolicyConfig::WorkConserving => Box::new(WorkConserving),
            PolicyConfig::Timeout(timeout) => Box::new(TimeoutReservation::new(*timeout)),
            PolicyConfig::Static { count, class } => {
                Box::new(StaticReservation::new(*count, *class))
            }
            PolicyConfig::Ssr(config) => Box::new(SpeculativeReservation::with_config(*config)),
        }
    }

    /// A short label for tables.
    pub fn label(&self) -> String {
        match self {
            PolicyConfig::WorkConserving => "work-conserving".to_owned(),
            PolicyConfig::Timeout(t) => format!("timeout({t})"),
            PolicyConfig::Static { count, .. } => format!("static({count})"),
            PolicyConfig::Ssr(c) => format!(
                "ssr(P={},R={}{})",
                c.isolation_target(),
                c.prereserve_threshold(),
                if c.mitigate_stragglers() { ",strag" } else { "" }
            ),
        }
    }
}

/// A cloneable description of the job-ordering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderConfig {
    /// Strict priority with FIFO tie-break.
    FifoPriority,
    /// Dynamic-priority fair sharing.
    Fair,
    /// Pure FIFO.
    Fifo,
}

impl OrderConfig {
    /// Instantiates the order.
    pub fn build(&self) -> Box<dyn JobOrder> {
        match self {
            OrderConfig::FifoPriority => Box::new(FifoPriority),
            OrderConfig::Fair => Box::new(Fair),
            OrderConfig::Fifo => Box::new(Fifo),
        }
    }
}

/// One foreground job's slowdown measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowdownRow {
    /// The foreground job's name.
    pub name: String,
    /// JCT running alone in the cluster (seconds) — the denominator.
    pub alone_jct_secs: f64,
    /// JCT in contention (seconds).
    pub contended_jct_secs: f64,
    /// `contended / alone`, the paper's §VI metric.
    pub slowdown: f64,
}

/// The outcome of one contention experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentOutcome {
    /// Policy label.
    pub policy: String,
    /// Per-foreground-job slowdowns.
    pub foreground: Vec<SlowdownRow>,
    /// The full contended-run report.
    pub contended: SimReport,
    /// Events processed across the contended run and every alone
    /// baseline. Deterministic per seed.
    pub events_processed: u64,
    /// Deterministic work counters merged over the contended run and
    /// every alone baseline, in foreground order — identical at any
    /// worker count. Excluded from serialization; counters carry their
    /// own sorted-key report.
    #[serde(skip)]
    pub counters: ssr_perf::WorkCounters,
}

impl ExperimentOutcome {
    /// Mean foreground slowdown.
    pub fn mean_slowdown(&self) -> f64 {
        if self.foreground.is_empty() {
            return 0.0;
        }
        self.foreground.iter().map(|r| r.slowdown).sum::<f64>() / self.foreground.len() as f64
    }

    /// The slowdown row for a named foreground job.
    pub fn slowdown_of(&self, name: &str) -> Option<&SlowdownRow> {
        self.foreground.iter().find(|r| r.name == name)
    }
}

/// The JSONL decision trace of one run-alone baseline, produced by
/// [`Experiment::run_traced_with_baselines`].
///
/// The alone run is the attribution reference: `ssr-explain` subtracts
/// its per-cause waits from the contended run's to decompose the
/// slowdown gap.
#[derive(Debug, Clone, PartialEq)]
pub struct AloneTrace {
    /// The foreground job's name.
    pub job: String,
    /// The complete JSONL trace document of the job running alone.
    pub jsonl: String,
}

/// What [`Experiment::run_instrumented`] hands back: the outcome plus
/// every attached instrument returned for harvesting — the contended
/// run's trace sink, the alone-baseline traces, and the span profiler.
pub type InstrumentedOutcome = (
    ExperimentOutcome,
    Option<Box<dyn ssr_trace::TraceSink>>,
    Vec<AloneTrace>,
    Option<Box<SpanProfiler>>,
);

/// A contention experiment: foreground jobs (measured) run against
/// background jobs (load), each foreground job also measured running
/// alone to obtain the slowdown denominator.
#[derive(Debug, Clone)]
pub struct Experiment {
    sim_config: SimConfig,
    policy: PolicyConfig,
    order: OrderConfig,
    foreground: Vec<JobSpec>,
    background: Vec<JobSpec>,
    progress_every: Option<u64>,
}

impl Experiment {
    /// Creates an experiment on the given cluster configuration.
    pub fn new(sim_config: SimConfig, policy: PolicyConfig, order: OrderConfig) -> Self {
        Experiment {
            sim_config,
            policy,
            order,
            foreground: Vec::new(),
            background: Vec::new(),
            progress_every: None,
        }
    }

    /// Enables the contended run's stderr progress heartbeat every
    /// `every_events` processed events (wall-clock plane; run-alone
    /// baselines stay quiet).
    #[must_use]
    pub fn with_progress_heartbeat(mut self, every_events: u64) -> Self {
        self.progress_every = Some(every_events.max(1));
        self
    }

    /// Adds measured foreground jobs.
    pub fn foreground(mut self, jobs: impl IntoIterator<Item = JobSpec>) -> Self {
        self.foreground.extend(jobs);
        self
    }

    /// Adds background load.
    pub fn background(mut self, jobs: impl IntoIterator<Item = JobSpec>) -> Self {
        self.background.extend(jobs);
        self
    }

    /// The configured cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        self.sim_config.cluster()
    }

    /// Re-seeds the underlying simulation — the hook a fan-out through
    /// [`par_map`](crate::par_map) uses to give each trial its own RNG
    /// stream.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim_config = self.sim_config.with_seed(seed);
        self
    }

    /// Runs the complete experiment: alone baselines + contended run +
    /// slowdowns. The per-job alone baselines are independent simulations
    /// and fan out across the runner's worker pool; results are merged in
    /// foreground order, so the outcome is identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if a foreground job fails to finish in either setting.
    pub fn run(&self) -> ExperimentOutcome {
        self.run_instrumented(None, None, false).0
    }

    /// [`run`](Experiment::run) with an optional decision-trace sink on
    /// the *contended* simulation, plus a JSONL decision trace of every
    /// run-alone baseline, in foreground order.
    ///
    /// Attaching the baseline sinks never changes the simulations
    /// themselves (tracing is observation-only), so the outcome is
    /// byte-identical to [`run`](Experiment::run); the explicit method
    /// keeps the common untraced path free of even the sink allocation.
    pub fn run_traced_with_baselines(
        &self,
        sink: Option<Box<dyn ssr_trace::TraceSink>>,
    ) -> (ExperimentOutcome, Option<Box<dyn ssr_trace::TraceSink>>, Vec<AloneTrace>) {
        let (outcome, sink, alone, _) = self.run_instrumented(sink, None, true);
        (outcome, sink, alone)
    }

    /// The fully instrumented experiment run: optional decision-trace
    /// sink and wall-clock span profiler on the contended simulation,
    /// optional JSONL traces of the alone baselines. Instrumentation is
    /// observation-only — the outcome is byte-identical to
    /// [`run`](Experiment::run) whatever is attached.
    ///
    /// Each foreground job's baseline runs alone, work-conserving
    /// (reservations are irrelevant without contention) and without the
    /// fault plan: it measures the undisturbed job.
    pub fn run_instrumented(
        &self,
        sink: Option<Box<dyn ssr_trace::TraceSink>>,
        profiler: Option<Box<SpanProfiler>>,
        trace_baselines: bool,
    ) -> InstrumentedOutcome {
        let mut jobs = self.foreground.clone();
        jobs.extend(self.background.iter().cloned());
        let mut sim =
            Simulation::new(self.sim_config.clone(), self.policy.clone(), self.order, jobs);
        if let Some(sink) = sink {
            sim = sim.with_trace_sink(sink);
        }
        if let Some(profiler) = profiler {
            sim = sim.with_span_profiler(profiler);
        }
        if let Some(every) = self.progress_every {
            sim = sim.with_progress_heartbeat(every);
        }
        let (contended, sink, profiler) = sim.run_instrumented();
        let alone_runs: Vec<(SimReport, Option<AloneTrace>)> = crate::runner::par_map(
            crate::runner::worker_count(),
            &self.foreground,
            |job| {
                let alone = Simulation::new(
                    self.sim_config.clone().without_faults(),
                    PolicyConfig::WorkConserving,
                    self.order,
                    vec![job.clone()],
                );
                if !trace_baselines {
                    return (alone.run(), None);
                }
                let (report, sink) =
                    alone.with_trace_sink(Box::new(ssr_trace::JsonlSink::new())).run_traced();
                let jsonl = sink
                    .expect("sink attached above")
                    .into_any()
                    .downcast::<ssr_trace::JsonlSink>()
                    .expect("JsonlSink recovered")
                    .finish();
                (report, Some(AloneTrace { job: job.name().to_owned(), jsonl }))
            },
        );
        let (alone_reports, alone_traces): (Vec<SimReport>, Vec<Option<AloneTrace>>) =
            alone_runs.into_iter().unzip();
        let alone_traces: Vec<AloneTrace> = alone_traces.into_iter().flatten().collect();
        let mut events_processed = contended.events_processed;
        let counters = contended.counters.clone();
        let foreground = self
            .foreground
            .iter()
            .zip(alone_reports)
            .map(|(job, alone_report)| {
                events_processed += alone_report.events_processed;
                counters.merge(&alone_report.counters);
                let alone = alone_report
                    .jct_secs(job.name())
                    .unwrap_or_else(|| panic!("job {} did not finish alone", job.name()));
                let in_contention = contended.jct_secs(job.name()).unwrap_or_else(|| {
                    panic!("foreground job {} did not finish in contention", job.name())
                });
                SlowdownRow {
                    name: job.name().to_owned(),
                    alone_jct_secs: alone,
                    contended_jct_secs: in_contention,
                    slowdown: in_contention / alone,
                }
            })
            .collect();
        let outcome = ExperimentOutcome {
            policy: self.policy.label(),
            foreground,
            contended,
            events_processed,
            counters,
        };
        (outcome, sink, alone_traces, profiler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_simcore::dist::constant;
    use ssr_simcore::SimTime;
    use ssr_workload::synthetic::{map_only, pipeline_of};
    use ssr_simcore::dist::uniform;

    fn sim_config() -> SimConfig {
        SimConfig::new(ClusterSpec::new(1, 4).unwrap())
            .with_locality(
                ssr_cluster::LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            )
            .with_seed(3)
    }

    fn foreground() -> JobSpec {
        // Bounded skew: every barrier opens a give-up window of a few
        // seconds without letting a single straggler dominate the JCT.
        pipeline_of(
            "fg",
            &[
                (4, uniform(1.0, 4.0)),
                (4, uniform(1.0, 4.0)),
                (4, uniform(1.0, 4.0)),
            ],
            Priority::new(10),
            SimTime::ZERO,
        )
        .unwrap()
    }

    fn background() -> JobSpec {
        map_only("bg", 24, constant(30.0), Priority::new(0)).unwrap()
    }

    #[test]
    fn slowdown_is_one_without_contention() {
        let outcome = Experiment::new(sim_config(), PolicyConfig::WorkConserving, OrderConfig::FifoPriority)
            .foreground([foreground()])
            .run();
        let row = outcome.slowdown_of("fg").unwrap();
        assert!((row.slowdown - 1.0).abs() < 1e-9);
        assert_eq!(outcome.mean_slowdown(), row.slowdown);
    }

    #[test]
    fn ssr_beats_work_conserving_under_contention() {
        let run = |policy: PolicyConfig| {
            Experiment::new(sim_config(), policy, OrderConfig::FifoPriority)
                .foreground([foreground()])
                .background([background()])
                .run()
        };
        let wc = run(PolicyConfig::WorkConserving);
        let ssr = run(PolicyConfig::ssr_strict());
        assert!(
            wc.mean_slowdown() > 1.5,
            "work conserving should suffer: {}",
            wc.mean_slowdown()
        );
        assert!(
            ssr.mean_slowdown() < 1.2,
            "SSR should isolate: {}",
            ssr.mean_slowdown()
        );
        assert!(ssr.mean_slowdown() < wc.mean_slowdown());
    }

    #[test]
    fn policy_labels() {
        assert_eq!(PolicyConfig::WorkConserving.label(), "work-conserving");
        assert!(PolicyConfig::Timeout(SimDuration::from_secs(5)).label().contains("timeout"));
        assert!(
            PolicyConfig::Static { count: 3, class: Priority::new(1) }.label().contains("static(3)")
        );
        assert!(PolicyConfig::ssr_strict().label().contains("P=1"));
        assert!(PolicyConfig::ssr_strict_with_stragglers().label().contains("strag"));
        assert!(PolicyConfig::ssr_with_isolation(0.4).label().contains("P=0.4"));
        assert!(PolicyConfig::ssr_with_prereserve_threshold(0.2).label().contains("R=0.2"));
    }

    #[test]
    fn order_configs_build() {
        assert_eq!(OrderConfig::FifoPriority.build().name(), "fifo-priority");
        assert_eq!(OrderConfig::Fair.build().name(), "fair");
        assert_eq!(OrderConfig::Fifo.build().name(), "fifo");
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn invalid_isolation_target_panics() {
        let _ = PolicyConfig::ssr_with_isolation(3.0);
    }

    #[test]
    fn disabled_counters_change_nothing() {
        // Counters are always on and `#[serde(skip)]`ed: the serialized
        // outcome — the bytes `--json` runs and figure artifacts commit —
        // is byte-identical whether or not anyone reads the counters, and
        // never carries a counter key.
        let run = || {
            Experiment::new(sim_config(), PolicyConfig::ssr_strict(), OrderConfig::FifoPriority)
                .foreground([foreground()])
                .background([background()])
                .run()
        };
        let silent = run();
        let observed = run();
        assert!(!observed.counters.is_zero(), "the engine must count work");
        let _ = observed.counters.render_json();
        let _ = observed.counters.render_text();
        let a = serde_json::to_string_pretty(&silent).expect("serializes");
        let b = serde_json::to_string_pretty(&observed).expect("serializes");
        assert_eq!(a, b, "reading counters must not move a byte of output");
        assert!(!a.contains("counters"), "counters must stay out of committed artifacts");
    }

    #[test]
    fn traced_baselines_match_untraced_run() {
        let build = || {
            Experiment::new(sim_config(), PolicyConfig::ssr_strict(), OrderConfig::FifoPriority)
                .foreground([foreground()])
                .background([background()])
        };
        let plain = build().run();
        let (traced, sink, alone) =
            build().run_traced_with_baselines(Some(Box::new(ssr_trace::JsonlSink::new())));
        // The contended trace sink must not perturb the outcome, and the
        // alone baselines must agree whether or not they carry a sink.
        assert_eq!(plain.foreground.len(), traced.foreground.len());
        for (a, b) in plain.foreground.iter().zip(&traced.foreground) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.alone_jct_secs.to_bits(), b.alone_jct_secs.to_bits());
            assert_eq!(a.contended_jct_secs.to_bits(), b.contended_jct_secs.to_bits());
        }
        assert!(sink.is_some());
        assert_eq!(alone.len(), 1);
        assert_eq!(alone[0].job, "fg");
        assert!(alone[0].jsonl.starts_with(
            r#"{"event":"trace-start","fields":{"schema_version":3}"#
        ));
        assert!(alone[0].jsonl.contains(r#""event":"job-completed""#));
    }

    #[test]
    fn experiment_reports_background_jobs_too() {
        let outcome = Experiment::new(sim_config(), PolicyConfig::ssr_strict(), OrderConfig::FifoPriority)
            .foreground([foreground()])
            .background([background()])
            .run();
        assert!(outcome.contended.job("bg").is_some());
        assert_eq!(outcome.foreground.len(), 1);
        let _ = SimTime::ZERO;
    }
}
