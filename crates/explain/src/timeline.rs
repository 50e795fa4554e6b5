//! Timeline reconstruction: turning a flat decision-event stream back into
//! per-slot occupancy, per-job activity intervals and per-stage lifecycle
//! marks.
//!
//! Slot lifecycles come from `ssr-trace`'s [`SlotReplay`], the state
//! machine the invariant checker and `MetricsSink` read too. The timeline
//! draws each slot's replayed state as a run of [`Segment`]s and derives
//! interval sets from the drawn segments:
//!
//! - **running** — union of times the job had at least one instance on a
//!   slot (speculative copies included);
//! - **reserved-idle** — union of times at least one slot sat reserved for
//!   the job without running anything;
//! - **waiting** — the job's lifetime minus its running union: time it was
//!   submitted but made no forward progress anywhere.
//!
//! **Out-of-service slots draw Free.** At `slot-offline` the timeline ends
//! whatever was drawn on the slot, so a partition survivor's instance ends
//! there, and the close event that follows adds nothing; at the horizon
//! only slots still drawn busy are closed. The checker and the metrics, by
//! contrast, count the survivor as running until its `task-finished`.
//! The pinned explain digests depend on this rule, so aligning the
//! timeline with the other two is left to a change that may re-record
//! them. (If the partition heals before the survivor finishes, the slot
//! draws as running again from `slot-online`.)
//!
//! [`Timeline::render_gantt`] draws the slot matrix as fixed-width ASCII
//! (the shape of Fig. 5's sawtooth is directly visible in the per-job
//! lanes); everything renders byte-identically for a given trace.

use std::collections::BTreeMap;

use ssr_dag::{JobId, StageId};
use ssr_simcore::SimTime;
use ssr_trace::{SlotReplay, SlotState, SlotTable, Trace, TraceEvent, TraceEventKind};

/// A half-open time interval `[start, end)` in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

impl Interval {
    /// The interval's length in seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_since(self.start).as_secs_f64()
    }
}

/// Sums interval lengths in seconds.
pub fn total_secs(intervals: &[Interval]) -> f64 {
    // fold, not sum(): f64::sum's identity is -0.0, which would leak a
    // "-0.000" into reports for empty interval sets.
    intervals.iter().map(Interval::secs).fold(0.0, |a, b| a + b)
}

/// Merges possibly-overlapping intervals into a disjoint sorted union.
pub fn union(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.sort_by_key(|iv| (iv.start, iv.end));
    let mut merged: Vec<Interval> = Vec::with_capacity(intervals.len());
    for iv in intervals {
        if iv.end <= iv.start {
            continue;
        }
        match merged.last_mut() {
            Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
            _ => merged.push(iv),
        }
    }
    merged
}

/// Subtracts a disjoint sorted union `b` from the single interval `a`.
fn subtract(a: Interval, b: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut cursor = a.start;
    for iv in b {
        if iv.end <= cursor {
            continue;
        }
        if iv.start >= a.end {
            break;
        }
        if iv.start > cursor {
            out.push(Interval { start: cursor, end: iv.start.min(a.end) });
        }
        cursor = cursor.max(iv.end);
        if cursor >= a.end {
            break;
        }
    }
    if cursor < a.end {
        out.push(Interval { start: cursor, end: a.end });
    }
    out
}

/// A state change on one slot; the segment lasts until the next change (or
/// the trace horizon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// When the slot entered this state.
    pub start: SimTime,
    /// The state itself.
    pub state: SlotState,
}

/// Lifecycle marks of one stage, reconstructed from the trace.
#[derive(Debug, Clone)]
pub struct StageTimeline {
    /// The stage.
    pub stage: StageId,
    /// Partition count (0 when read from a schema-v1 trace).
    pub tasks: u32,
    /// Upstream stages (empty for roots or v1 traces).
    pub parents: Vec<StageId>,
    /// When the stage became schedulable: the job's submit time for root
    /// stages, the `barrier-cleared` time otherwise.
    pub runnable: SimTime,
    /// First task launch, if any was observed.
    pub first_launch: Option<SimTime>,
    /// `stage-completed` time, if the trace reaches it.
    pub completed: Option<SimTime>,
}

/// One hop of a job's critical path.
#[derive(Debug, Clone, Copy)]
pub struct CriticalHop {
    /// The stage on the path.
    pub stage: StageId,
    /// When it became schedulable.
    pub runnable: SimTime,
    /// When it completed.
    pub completed: SimTime,
}

/// Reconstructed activity of one job.
#[derive(Debug, Clone)]
pub struct JobTimeline {
    /// The job.
    pub job: JobId,
    /// Job name from `job-submitted`.
    pub name: String,
    /// Submission priority level.
    pub priority: i32,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time, if the trace reaches it.
    pub completed: Option<SimTime>,
    /// Per-stage lifecycle marks, ordered by stage id.
    pub stages: Vec<StageTimeline>,
    /// Every task instance's occupancy interval (one entry per launch),
    /// with its speculative flag.
    pub instances: Vec<(Interval, bool)>,
    /// Disjoint union of times ≥1 instance of the job was running.
    pub running: Vec<Interval>,
    /// Disjoint union of times ≥1 slot sat reserved-idle for the job.
    pub reserved_idle: Vec<Interval>,
    /// The job's lifetime minus `running`: no instance anywhere.
    pub waiting: Vec<Interval>,
}

impl JobTimeline {
    /// Job completion time minus submission, in seconds (`None` until the
    /// trace reaches `job-completed`).
    pub fn jct_secs(&self) -> Option<f64> {
        self.completed.map(|c| c.saturating_since(self.submitted).as_secs_f64())
    }

    /// Number of instances running at time `t`.
    pub fn running_count(&self, t: SimTime) -> usize {
        self.instances.iter().filter(|(iv, _)| iv.start <= t && t < iv.end).count()
    }

    /// Extracts the job's stage critical path: starting from the completed
    /// stage that finished last (ties broken toward the lowest stage id),
    /// repeatedly steps to the parent that completed last until reaching a
    /// root. Returns `None` when the trace carries no stage DAG metadata
    /// (schema v1) or the final stage never completed.
    pub fn critical_path(&self) -> Option<Vec<CriticalHop>> {
        let by_id: BTreeMap<StageId, &StageTimeline> =
            self.stages.iter().map(|s| (s.stage, s)).collect();
        let last = self
            .stages
            .iter()
            .filter_map(|s| s.completed.map(|c| (c, s)))
            // max_by_key returns the *last* max; reversing the id keeps the
            // lowest stage id on completion-time ties.
            .max_by_key(|(c, s)| (*c, std::cmp::Reverse(s.stage)))?
            .1;
        let mut path = vec![CriticalHop {
            stage: last.stage,
            runnable: last.runnable,
            completed: last.completed.expect("filtered above"),
        }];
        let mut cursor = last;
        while let Some((completed, parent)) = cursor
            .parents
            .iter()
            .filter_map(|p| by_id.get(p))
            .filter_map(|s| s.completed.map(|c| (c, *s)))
            .max_by_key(|(c, s)| (*c, std::cmp::Reverse(s.stage)))
        {
            path.push(CriticalHop {
                stage: parent.stage,
                runnable: parent.runnable,
                completed,
            });
            cursor = parent;
        }
        path.reverse();
        Some(path)
    }
}

/// The reconstructed run: slot occupancy plus per-job activity.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Number of slots in the cluster (from the first offer round's pool
    /// counts, or the highest slot index seen if the trace has no rounds).
    pub slots: usize,
    /// Timestamp of the last event in the trace.
    pub horizon: SimTime,
    /// Per-job activity, ordered by job id.
    pub jobs: Vec<JobTimeline>,
    /// Per-slot state segments, ordered by start time. A slot that was
    /// never drawn reserved or running has none.
    pub slot_segments: SlotTable<Vec<Segment>>,
    /// The largest pool an `offer-round-started` event reported (0 if
    /// none): the gantt draws these slots even when they stay free.
    pool_slots: usize,
}

impl Timeline {
    /// Replays a parsed trace into a timeline.
    pub fn reconstruct(trace: &Trace) -> Timeline {
        Builder::default().replay(&trace.events)
    }

    /// The slot's state at time `t` (last transition at or before `t`).
    pub fn slot_state(&self, slot: usize, t: SimTime) -> SlotState {
        let segments = match u32::try_from(slot).ok().and_then(|s| self.slot_segments.get(s)) {
            Some(s) if !s.is_empty() => s,
            _ => return SlotState::Free,
        };
        match segments.partition_point(|seg| seg.start <= t) {
            0 => SlotState::Free,
            n => segments[n - 1].state,
        }
    }

    /// Cluster-wide pool counts `(free, reserved, running)` at time `t`.
    pub fn occupancy(&self, t: SimTime) -> (usize, usize, usize) {
        // Slots without segments are free throughout.
        let mut counts = (self.slots, 0, 0);
        for (slot, _) in self.slot_segments.iter() {
            match self.slot_state(slot as usize, t) {
                SlotState::Free => continue,
                SlotState::Reserved { .. } => counts.1 += 1,
                SlotState::Running { .. } => counts.2 += 1,
            }
            counts.0 -= 1;
        }
        counts
    }

    /// The single-letter gantt key for the job at `index` in submission-id
    /// order (`A`, `B`, …, wrapping after 26 jobs).
    pub fn job_letter(index: usize) -> char {
        (b'A' + (index % 26) as u8) as char
    }

    /// Renders the run as fixed-width ASCII: one row per slot of the
    /// largest offer-round pool, and per slot drawn beyond it, sampling the
    /// slot state at each column's midpoint (`.` free, `=` reserved-idle,
    /// job letter running — lowercase for speculative copies), followed by
    /// one lane per job showing its running-instance count over time (`.`
    /// idle, digits, `#` for ≥10). Output is byte-identical for a given
    /// trace and width.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(8);
        let horizon_secs = self.horizon.as_secs_f64();
        let mut out = String::new();
        if self.slots == 0 || horizon_secs <= 0.0 {
            out.push_str("(empty trace: nothing to draw)\n");
            return out;
        }
        let letter_of: BTreeMap<JobId, char> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.job, Self::job_letter(i)))
            .collect();
        let col_mid = |i: usize| {
            SimTime::from_secs_f64(horizon_secs * (i as f64 + 0.5) / width as f64)
        };
        out.push_str(&format!(
            "time 0.000s .. {horizon_secs:.3}s   ({width} cols, {:.3}s/col)\n",
            horizon_secs / width as f64
        ));
        for (i, job) in self.jobs.iter().enumerate() {
            out.push_str(&format!(
                "  {} = {} (job {}, prio {})\n",
                Self::job_letter(i),
                job.name,
                job.job.as_u64(),
                job.priority
            ));
        }
        out.push_str("  lowercase = speculative copy, '=' = reserved-idle, '.' = free\n");
        // One row per slot of the largest offer-round pool, plus each slot
        // drawn beyond it: a trace naming slot 4294967295 costs one row.
        let drawn = self.slot_segments.iter().filter(|(_, segments)| !segments.is_empty());
        let beyond = drawn.map(|(slot, _)| slot as usize).filter(|&s| s >= self.pool_slots);
        for slot in (0..self.pool_slots).chain(beyond) {
            let mut row = String::with_capacity(width);
            for i in 0..width {
                row.push(match self.slot_state(slot, col_mid(i)) {
                    SlotState::Free => '.',
                    SlotState::Reserved { .. } => '=',
                    SlotState::Running { job, speculative, .. } => {
                        let c = letter_of.get(&job).copied().unwrap_or('?');
                        if speculative {
                            c.to_ascii_lowercase()
                        } else {
                            c
                        }
                    }
                });
            }
            out.push_str(&format!("slot {slot:>3} |{row}|\n"));
        }
        for (i, job) in self.jobs.iter().enumerate() {
            let mut row = String::with_capacity(width);
            for c in 0..width {
                let n = job.running_count(col_mid(c));
                row.push(match n {
                    0 => '.',
                    1..=9 => char::from_digit(n as u32, 10).expect("single digit"),
                    _ => '#',
                });
            }
            out.push_str(&format!("run  {:>3} |{row}|\n", Self::job_letter(i)));
        }
        out
    }
}

/// Per-job scratch state while replaying.
#[derive(Debug, Default)]
struct JobScratch {
    name: String,
    priority: i32,
    submitted: SimTime,
    completed: Option<SimTime>,
    stages: BTreeMap<StageId, StageTimeline>,
    instances: Vec<(Interval, bool)>,
    reserved: Vec<Interval>,
}

/// Trace replay state machine.
#[derive(Debug, Default)]
struct Builder {
    slots: usize,
    pool_slots: usize,
    jobs: BTreeMap<JobId, JobScratch>,
    replay: SlotReplay,
    /// Drawn segments per slot; the last one is what the slot shows now.
    segments: SlotTable<Vec<Segment>>,
}

impl Builder {
    /// Counts `slot` in the cluster size.
    fn ensure_slot(&mut self, slot: usize) {
        self.slots = self.slots.max(slot + 1);
    }

    /// Redraws `slot` from the replay at `at`. When what the slot shows
    /// changes, the drawn run or reservation it showed becomes an instance
    /// or reserved-idle interval of its job.
    fn draw(&mut self, slot: u32, at: SimTime) {
        let idx = slot as usize;
        self.ensure_slot(idx);
        let now = self.replay.slot(slot);
        let state = if now.offline { SlotState::Free } else { now.state };
        let shown = self.segments.get(slot).and_then(|segments| segments.last()).copied();
        if shown.map_or(SlotState::Free, |s| s.state) == state {
            return;
        }
        let segments = self.segments.entry(slot);
        match segments.last_mut() {
            // Same-timestamp transitions collapse (e.g. task-finished then
            // reservation-granted on the same slot in one scheduler step):
            // the last state at a timestamp wins, matching the pool state
            // the scheduler leaves behind.
            Some(last) if last.start == at => last.state = state,
            _ => segments.push(Segment { start: at, state }),
        }
        if let Some(shown) = shown {
            self.close(shown, at);
        }
    }

    /// Ends a drawn segment at `end`, recording its job's interval.
    fn close(&mut self, shown: Segment, end: SimTime) {
        let iv = Interval { start: shown.start, end };
        match shown.state {
            SlotState::Free => {}
            SlotState::Reserved { job, .. } => {
                if let Some(scratch) = self.jobs.get_mut(&job) {
                    scratch.reserved.push(iv);
                }
            }
            SlotState::Running { job, speculative, .. } => {
                if let Some(scratch) = self.jobs.get_mut(&job) {
                    scratch.instances.push((iv, speculative));
                }
            }
        }
    }

    fn replay(mut self, events: &[TraceEvent]) -> Timeline {
        use TraceEventKind as K;
        let horizon = events.last().map(|e| e.time).unwrap_or(SimTime::ZERO);
        for event in events {
            let t = event.time;
            if let Some((slot, _)) = self.replay.apply(event) {
                self.draw(slot, t);
            }
            match &event.kind {
                K::JobSubmitted { job, name, priority, stages } => {
                    let scratch = self.jobs.entry(*job).or_default();
                    scratch.name = name.clone();
                    scratch.priority = priority.level();
                    scratch.submitted = t;
                    for (idx, meta) in stages.iter().enumerate() {
                        let stage = StageId::new(idx as u32);
                        scratch.stages.insert(
                            stage,
                            StageTimeline {
                                stage,
                                tasks: meta.tasks,
                                parents: meta.parents.clone(),
                                // Root stages are runnable at submit; others
                                // get their true time from barrier-cleared.
                                runnable: t,
                                first_launch: None,
                                completed: None,
                            },
                        );
                    }
                }
                K::OfferRoundStarted { free, running, reserved } => {
                    let pool = free.saturating_add(*running).saturating_add(*reserved);
                    self.pool_slots = self.pool_slots.max(pool);
                    if pool > self.slots {
                        self.ensure_slot(pool - 1);
                    }
                }
                K::TaskLaunched { job, stage, .. } => {
                    let scratch = self.jobs.entry(*job).or_default();
                    let entry = scratch.stages.entry(*stage).or_insert_with(|| StageTimeline {
                        stage: *stage,
                        tasks: 0,
                        parents: Vec::new(),
                        runnable: t,
                        first_launch: None,
                        completed: None,
                    });
                    if entry.first_launch.is_none() {
                        entry.first_launch = Some(t);
                    }
                }
                K::BarrierCleared { job, stage } => {
                    if let Some(s) = self.jobs.get_mut(job).and_then(|j| j.stages.get_mut(stage)) {
                        s.runnable = t;
                    }
                }
                K::StageCompleted { job, stage } => {
                    if let Some(s) = self.jobs.get_mut(job).and_then(|j| j.stages.get_mut(stage)) {
                        s.completed = Some(t);
                    }
                }
                K::JobCompleted { job } => {
                    if let Some(j) = self.jobs.get_mut(job) {
                        j.completed = Some(t);
                    }
                }
                // Slot events were drawn above; the rest carry no
                // timeline marks.
                _ => {}
            }
        }
        // Close whatever is still drawn busy at the horizon (truncated
        // traces, e.g. --stop-after runs).
        let shown: Vec<Segment> =
            self.segments.iter().filter_map(|(_, segments)| segments.last().copied()).collect();
        for shown in shown {
            self.close(shown, horizon);
        }

        let jobs = std::mem::take(&mut self.jobs)
            .into_iter()
            .map(|(job, scratch)| {
                let running = union(scratch.instances.iter().map(|(iv, _)| *iv).collect());
                let lifetime = Interval {
                    start: scratch.submitted,
                    end: scratch.completed.unwrap_or(horizon),
                };
                let waiting = subtract(lifetime, &running);
                JobTimeline {
                    job,
                    name: scratch.name,
                    priority: scratch.priority,
                    submitted: scratch.submitted,
                    completed: scratch.completed,
                    stages: scratch.stages.into_values().collect(),
                    instances: scratch.instances,
                    running,
                    reserved_idle: union(scratch.reserved),
                    waiting,
                }
            })
            .collect();
        Timeline {
            slots: self.slots,
            horizon,
            jobs,
            slot_segments: self.segments,
            pool_slots: self.pool_slots,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ssr_dag::Priority;
    use ssr_trace::StageMeta;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn iv(a: f64, b: f64) -> Interval {
        Interval { start: t(a), end: t(b) }
    }

    /// A hand-written two-stage run on a 2-slot cluster: stage 0 (2 tasks)
    /// runs 0..2 on both slots, slot 1 is then reserved until stage 1's
    /// single task consumes it at t=3 and finishes at t=5.
    pub(crate) fn two_stage_trace() -> Trace {
        use TraceEventKind as K;
        let job = JobId::new(0);
        let s0 = StageId::new(0);
        let s1 = StageId::new(1);
        let events = vec![
            TraceEvent::new(
                t(0.0),
                K::JobSubmitted {
                    job,
                    name: "fg".into(),
                    priority: Priority::new(10),
                    stages: vec![
                        StageMeta { tasks: 2, parents: vec![] },
                        StageMeta { tasks: 1, parents: vec![s0] },
                    ],
                },
            ),
            TraceEvent::new(t(0.0), K::OfferRoundStarted { free: 2, running: 0, reserved: 0 }),
            TraceEvent::new(
                t(0.0),
                K::TaskLaunched { slot: 0, job, stage: s0, partition: 0, attempt: 0, level: "ANY", speculative: false, warm: false },
            ),
            TraceEvent::new(
                t(0.0),
                K::TaskLaunched { slot: 1, job, stage: s0, partition: 1, attempt: 0, level: "ANY", speculative: false, warm: false },
            ),
            TraceEvent::new(t(0.0), K::OfferRoundEnded { assignments: 2 }),
            TraceEvent::new(
                t(2.0),
                K::TaskFinished { slot: 1, job, stage: s0, partition: 1, attempt: 0, duration_secs: 2.0 },
            ),
            TraceEvent::new(
                t(2.0),
                K::ReservationGranted { slot: 1, job, priority: Priority::new(10), stage: Some(s1), deadline_secs: None },
            ),
            TraceEvent::new(
                t(2.5),
                K::TaskFinished { slot: 0, job, stage: s0, partition: 0, attempt: 0, duration_secs: 2.5 },
            ),
            TraceEvent::new(t(2.5), K::StageCompleted { job, stage: s0 }),
            TraceEvent::new(t(2.5), K::BarrierCleared { job, stage: s1 }),
            TraceEvent::new(
                t(3.0),
                K::TaskLaunched { slot: 1, job, stage: s1, partition: 0, attempt: 0, level: "ANY", speculative: false, warm: false },
            ),
            TraceEvent::new(
                t(5.0),
                K::TaskFinished { slot: 1, job, stage: s1, partition: 0, attempt: 0, duration_secs: 2.0 },
            ),
            TraceEvent::new(t(5.0), K::StageCompleted { job, stage: s1 }),
            TraceEvent::new(t(5.0), K::JobCompleted { job }),
        ];
        Trace { schema_version: 2, events }
    }

    #[test]
    fn interval_union_and_subtract() {
        let u = union(vec![iv(3.0, 4.0), iv(0.0, 2.0), iv(1.0, 2.5), iv(4.0, 4.0)]);
        assert_eq!(u, vec![iv(0.0, 2.5), iv(3.0, 4.0)]);
        assert_eq!(subtract(iv(0.0, 5.0), &u), vec![iv(2.5, 3.0), iv(4.0, 5.0)]);
        assert_eq!(subtract(iv(1.0, 2.0), &u), vec![]);
    }

    #[test]
    fn reconstructs_two_stage_run() {
        let tl = Timeline::reconstruct(&two_stage_trace());
        assert_eq!(tl.slots, 2);
        assert_eq!(tl.horizon, t(5.0));
        assert_eq!(tl.jobs.len(), 1);
        let job = &tl.jobs[0];
        assert_eq!(job.name, "fg");
        assert_eq!(job.jct_secs(), Some(5.0));
        // Running: both slots 0..2.5 merged with slot 1's 3..5.
        assert_eq!(job.running, vec![iv(0.0, 2.5), iv(3.0, 5.0)]);
        // Reserved-idle: slot 1 from the grant at 2.0 until consumed at 3.0.
        assert_eq!(job.reserved_idle, vec![iv(2.0, 3.0)]);
        // Waiting: the barrier gap.
        assert_eq!(job.waiting, vec![iv(2.5, 3.0)]);
        assert!((total_secs(&job.running) - 4.5).abs() < 1e-9);
        // Slot states at probe points.
        assert_eq!(
            tl.slot_state(1, t(1.0)),
            SlotState::Running { job: job.job, since: t(0.0), speculative: false }
        );
        assert_eq!(tl.slot_state(1, t(2.2)), SlotState::Reserved { job: job.job, since: t(2.0) });
        assert_eq!(tl.slot_state(0, t(3.0)), SlotState::Free);
        assert_eq!(tl.occupancy(t(2.2)), (0, 1, 1));
        // Stage marks.
        assert_eq!(job.stages.len(), 2);
        assert_eq!(job.stages[0].first_launch, Some(t(0.0)));
        assert_eq!(job.stages[0].completed, Some(t(2.5)));
        assert_eq!(job.stages[1].runnable, t(2.5));
        assert_eq!(job.stages[1].first_launch, Some(t(3.0)));
    }

    #[test]
    fn critical_path_walks_latest_parents() {
        let tl = Timeline::reconstruct(&two_stage_trace());
        let path = tl.jobs[0].critical_path().expect("v2 trace has a path");
        let stages: Vec<u32> = path.iter().map(|h| h.stage.as_u32()).collect();
        assert_eq!(stages, vec![0, 1]);
        assert_eq!(path[1].completed, t(5.0));
    }

    #[test]
    fn gantt_is_fixed_width_and_stable() {
        let tl = Timeline::reconstruct(&two_stage_trace());
        let a = tl.render_gantt(20);
        let b = tl.render_gantt(20);
        assert_eq!(a, b);
        let slot_rows: Vec<&str> = a.lines().filter(|l| l.starts_with("slot")).collect();
        assert_eq!(slot_rows.len(), 2);
        for row in &slot_rows {
            let body = row.split('|').nth(1).expect("framed row");
            assert_eq!(body.chars().count(), 20);
        }
        // Slot 1 shows run, reserved-idle, then the stage-1 task.
        assert!(slot_rows[1].contains('A'));
        assert!(slot_rows[1].contains('='));
        // The per-job lane shows parallelism 2 during stage 0.
        let lane = a.lines().find(|l| l.starts_with("run ")).expect("job lane");
        assert!(lane.contains('2'), "{lane}");
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let tl = Timeline::reconstruct(&Trace { schema_version: 2, events: vec![] });
        assert_eq!(tl.slots, 0);
        assert!(tl.render_gantt(40).contains("empty trace"));
    }

    /// A partition survivor: slot 0 runs a task, goes offline at t=1 and
    /// finishes out of service at t=3. The timeline ends the instance and
    /// draws the slot Free at `slot-offline`; the checker and the metrics
    /// keep it running until `task-finished`. The pinned explain digests
    /// hold the timeline to this rule.
    #[test]
    fn partition_survivor_draws_free_from_slot_offline() {
        use ssr_trace::{MetricsSink, TraceSink};
        use TraceEventKind as K;
        let job = JobId::new(0);
        let s0 = StageId::new(0);
        let at = |s: f64, kind: TraceEventKind| TraceEvent::new(t(s), kind);
        let events = vec![
            at(0.0, K::JobSubmitted {
                job,
                name: "fg".into(),
                priority: Priority::new(10),
                stages: vec![StageMeta { tasks: 1, parents: vec![] }],
            }),
            at(0.0, K::TaskLaunched { slot: 0, job, stage: s0, partition: 0, attempt: 0, level: "ANY", speculative: false, warm: false }),
            at(1.0, K::SlotOffline { slot: 0, cause: "partition" }),
            at(3.0, K::TaskFinished { slot: 0, job, stage: s0, partition: 0, attempt: 0, duration_secs: 3.0 }),
            at(3.0, K::StageCompleted { job, stage: s0 }),
            at(3.0, K::JobCompleted { job }),
            at(4.0, K::SlotOnline { slot: 0 }),
        ];
        let tl = Timeline::reconstruct(&Trace { schema_version: 3, events: events.clone() });
        let fg = &tl.jobs[0];
        assert_eq!(fg.instances, vec![(iv(0.0, 1.0), false)]);
        assert_eq!(fg.running, vec![iv(0.0, 1.0)]);
        assert_eq!(fg.waiting, vec![iv(1.0, 3.0)]);
        assert_eq!(tl.slot_state(0, t(0.5)), SlotState::Running { job, since: t(0.0), speculative: false });
        assert_eq!(tl.slot_state(0, t(2.0)), SlotState::Free);
        assert_eq!(tl.slot_state(0, t(4.0)), SlotState::Free);

        let check = ssr_check::InvariantChecker::new().check_all(&events);
        assert!(check.is_clean(), "{}", check.render_text());

        let mut metrics = MetricsSink::new();
        for e in &events {
            metrics.record(e);
        }
        assert_eq!(metrics.report().slot_seconds_per_job[&0], 3.0);
    }
}
