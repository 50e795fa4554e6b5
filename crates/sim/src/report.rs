//! Metrics collected by a simulation run.

use serde::{Deserialize, Serialize};
use ssr_dag::{JobId, Priority};
use ssr_perf::WorkCounters;
use ssr_simcore::{SimDuration, SimTime};

/// The outcome of one job in a simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job's name (as given by the workload generator).
    pub name: String,
    /// The id it ran under (raw, for cross-referencing).
    pub job_id: u64,
    /// Its scheduling priority level.
    pub priority: i32,
    /// Submission time (seconds).
    pub arrival_secs: f64,
    /// Completion time (seconds), if the job finished.
    pub completed_secs: Option<f64>,
    /// Job completion time = completion − arrival.
    #[serde(skip)]
    pub jct: SimDuration,
}

impl JobResult {
    /// JCT in seconds (0 if the job never finished).
    pub fn jct_secs(&self) -> f64 {
        self.jct.as_secs_f64()
    }
}

/// One sample of the running-task time series (recorded at every event
/// when tracking is enabled) — the data behind Figs. 5 and 13.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSample {
    /// Sample time (seconds).
    pub time_secs: f64,
    /// `(job name, running task count)` for each tracked job.
    pub running: Vec<(String, usize)>,
}

/// One task-instance execution record (enabled via
/// [`SimConfig::record_trace`]): everything needed to draw a Gantt chart
/// or audit placements.
///
/// [`SimConfig::record_trace`]: crate::SimConfig::record_trace
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTraceRecord {
    /// Owning job's name.
    pub job: String,
    /// Phase index within the job.
    pub stage: u32,
    /// Partition index within the phase.
    pub partition: u32,
    /// Attempt number (0 = original, >= 1 = copy).
    pub attempt: u32,
    /// Slot the instance ran on.
    pub slot: u32,
    /// Placement time (seconds).
    pub start_secs: f64,
    /// Finish or kill time (seconds).
    pub end_secs: f64,
    /// Locality level of the placement.
    pub level: String,
    /// `true` for straggler-mitigation / speculation copies.
    pub speculative: bool,
    /// `"finished"` or `"killed"`.
    pub outcome: String,
}

/// The full report of one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// The reservation policy that ran.
    pub policy: String,
    /// The job-ordering policy that ran.
    pub order: String,
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobResult>,
    /// `true` if every submitted job completed before the horizon.
    pub completed: bool,
    /// Time of the last job completion (seconds).
    pub makespan_secs: f64,
    /// Slot-seconds spent running tasks.
    pub busy_slot_secs: f64,
    /// Slot-seconds spent reserved but idle — the §IV utilization loss.
    pub reserved_idle_slot_secs: f64,
    /// Slot-seconds spent free.
    pub free_slot_secs: f64,
    /// Straggler copies launched (§IV-C).
    pub speculative_copies: u64,
    /// Task instances killed because a sibling finished first.
    pub kills: u64,
    /// Task placements per locality level
    /// `[PROCESS_LOCAL, NODE_LOCAL, RACK_LOCAL, ANY]`.
    pub locality_counts: [u64; 4],
    /// Running-task time series for tracked jobs.
    pub timeseries: Vec<TimeSample>,
    /// Per-instance execution trace (empty unless enabled).
    pub trace: Vec<TaskTraceRecord>,
    /// Events processed by the run loop. Deterministic per seed, so it is
    /// serialized and pinned by the determinism regression tests.
    pub events_processed: u64,
    /// Deterministic work counters accumulated by the scheduler and the
    /// event queue over the run. Excluded from serialization — counters
    /// carry their own sorted-key report
    /// ([`WorkCounters::render_json`]), and keeping them out of
    /// `SimReport` JSON preserves the byte-pinned figure artifacts.
    #[serde(skip)]
    pub counters: WorkCounters,
}

impl SimReport {
    /// Fraction of slot time spent busy over the makespan.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_slot_secs + self.reserved_idle_slot_secs + self.free_slot_secs;
        if total <= 0.0 {
            0.0
        } else {
            self.busy_slot_secs / total
        }
    }

    /// The result of the first job with the given name.
    pub fn job(&self, name: &str) -> Option<&JobResult> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// JCT (seconds) of the first job with the given name, if it finished.
    pub fn jct_secs(&self, name: &str) -> Option<f64> {
        let j = self.job(name)?;
        j.completed_secs?;
        Some(j.jct_secs())
    }

    /// Mean JCT (seconds) over jobs whose priority equals `priority`.
    pub fn mean_jct_at_priority(&self, priority: Priority) -> Option<f64> {
        let jcts: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.priority == priority.level() && j.completed_secs.is_some())
            .map(JobResult::jct_secs)
            .collect();
        if jcts.is_empty() {
            None
        } else {
            Some(jcts.iter().sum::<f64>() / jcts.len() as f64)
        }
    }
}

/// Internal collector the simulation writes into.
#[derive(Debug)]
pub(crate) struct Collector {
    pub(crate) results: Vec<(JobId, JobResult)>,
    pub(crate) busy_slot_secs: f64,
    pub(crate) reserved_idle_slot_secs: f64,
    pub(crate) free_slot_secs: f64,
    pub(crate) speculative_copies: u64,
    pub(crate) kills: u64,
    pub(crate) locality_counts: [u64; 4],
    pub(crate) timeseries: Vec<TimeSample>,
    pub(crate) trace: Vec<TaskTraceRecord>,
    pub(crate) makespan: SimTime,
    pub(crate) events_processed: u64,
}

impl Collector {
    pub(crate) fn new() -> Self {
        Collector {
            results: Vec::new(),
            busy_slot_secs: 0.0,
            reserved_idle_slot_secs: 0.0,
            free_slot_secs: 0.0,
            speculative_copies: 0,
            kills: 0,
            locality_counts: [0; 4],
            timeseries: Vec::new(),
            trace: Vec::new(),
            makespan: SimTime::ZERO,
            events_processed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            policy: "p".into(),
            order: "o".into(),
            jobs: vec![
                JobResult {
                    name: "a".into(),
                    job_id: 0,
                    priority: 10,
                    arrival_secs: 0.0,
                    completed_secs: Some(5.0),
                    jct: SimDuration::from_secs(5),
                },
                JobResult {
                    name: "b".into(),
                    job_id: 1,
                    priority: 0,
                    arrival_secs: 1.0,
                    completed_secs: Some(11.0),
                    jct: SimDuration::from_secs(10),
                },
                JobResult {
                    name: "c".into(),
                    job_id: 2,
                    priority: 0,
                    arrival_secs: 2.0,
                    completed_secs: None,
                    jct: SimDuration::ZERO,
                },
            ],
            completed: false,
            makespan_secs: 11.0,
            busy_slot_secs: 30.0,
            reserved_idle_slot_secs: 10.0,
            free_slot_secs: 4.0,
            speculative_copies: 2,
            kills: 1,
            locality_counts: [5, 1, 0, 2],
            timeseries: vec![],
            trace: vec![],
            events_processed: 12,
            counters: WorkCounters::default(),
        }
    }

    #[test]
    fn utilization_from_integrals() {
        let r = report();
        assert!((r.utilization() - 30.0 / 44.0).abs() < 1e-12);
    }

    #[test]
    fn job_lookup() {
        let r = report();
        assert_eq!(r.jct_secs("a"), Some(5.0));
        assert_eq!(r.jct_secs("c"), None, "unfinished job has no JCT");
        assert_eq!(r.jct_secs("nope"), None);
    }

    #[test]
    fn mean_jct_by_priority() {
        let r = report();
        assert_eq!(r.mean_jct_at_priority(Priority::new(10)), Some(5.0));
        assert_eq!(r.mean_jct_at_priority(Priority::new(0)), Some(10.0));
        assert_eq!(r.mean_jct_at_priority(Priority::new(7)), None);
    }

    #[test]
    fn zero_total_utilization() {
        let mut r = report();
        r.busy_slot_secs = 0.0;
        r.reserved_idle_slot_secs = 0.0;
        r.free_slot_secs = 0.0;
        assert_eq!(r.utilization(), 0.0);
    }
}
