//! Counters/histograms aggregated from the decision-event stream.
//!
//! [`MetricsSink`] folds events into a [`MetricsReport`] without retaining
//! the stream, so it is cheap enough to leave on for large runs where a full
//! JSONL trace would be unwieldy.

use std::any::Any;
use std::collections::BTreeMap;

use crate::event::{TraceEvent, TraceEventKind};
use crate::replay::{SlotReplay, SlotState};
use crate::sink::TraceSink;

/// Bucket upper bounds (seconds) for the reservation hold-time histogram.
/// Log2-spaced from sub-second holds to multi-minute leases; anything above
/// the last bound lands in the overflow bucket.
pub const HOLD_TIME_BOUNDS_SECS: [f64; 10] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Fixed-bucket histogram over non-negative seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Count per bucket; `buckets[i]` covers values `<= HOLD_TIME_BOUNDS_SECS[i]`
    /// (and above the previous bound). The final slot counts overflow.
    pub buckets: [u64; HOLD_TIME_BOUNDS_SECS.len() + 1],
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, value: f64) {
        let mut idx = HOLD_TIME_BOUNDS_SECS.len();
        for (i, bound) in HOLD_TIME_BOUNDS_SECS.iter().enumerate() {
            if value <= *bound {
                idx = i;
                break;
            }
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Mean of recorded values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the bucket counts by
    /// linear interpolation within the containing bucket, the same estimator
    /// Prometheus' `histogram_quantile` uses.
    ///
    /// Edge cases are pinned rather than left to the interpolation:
    ///
    /// - Empty histogram: `None` — there is no data to estimate from.
    /// - Exactly one occupied bucket: every quantile returns the mean,
    ///   clamped to the bucket's range. Interpolating would fabricate a
    ///   q-dependent spread out of a distribution the buckets know nothing
    ///   about; the mean is the one statistic the histogram tracks exactly
    ///   (and equals the recorded value when `count == 1`).
    /// - Values in the overflow bucket clamp to the largest bound, including
    ///   the single-occupied-bucket mean.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let last_bound = HOLD_TIME_BOUNDS_SECS[HOLD_TIME_BOUNDS_SECS.len() - 1];
        if let Some(i) = self.single_occupied_bucket() {
            let hi = HOLD_TIME_BOUNDS_SECS.get(i).copied().unwrap_or(last_bound);
            let lo = if i == 0 { 0.0 } else { HOLD_TIME_BOUNDS_SECS[i - 1] };
            return Some(self.mean().clamp(lo, hi));
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (below + n) as f64 >= target {
                let Some(&hi) = HOLD_TIME_BOUNDS_SECS.get(i) else {
                    return Some(last_bound); // overflow bucket
                };
                let lo = if i == 0 { 0.0 } else { HOLD_TIME_BOUNDS_SECS[i - 1] };
                let frac = ((target - below as f64) / n as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
            below += n;
        }
        Some(last_bound)
    }

    /// Index of the only non-empty bucket, or `None` when zero or more than
    /// one bucket holds samples.
    fn single_occupied_bucket(&self) -> Option<usize> {
        let mut occupied = None;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                if occupied.is_some() {
                    return None;
                }
                occupied = Some(i);
            }
        }
        occupied
    }
}

/// Aggregated view of one traced run.
///
/// Produced by [`MetricsSink::into_report`]; rendered for humans by
/// [`MetricsReport::render_text`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Jobs submitted to the scheduler.
    pub jobs_submitted: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Offer rounds executed.
    pub offer_rounds: u64,
    /// Tasks launched (including speculative copies).
    pub tasks_launched: u64,
    /// Speculative copies among `tasks_launched`.
    pub speculative_launched: u64,
    /// Speculative races won by the copy (a non-zero attempt finished first).
    pub copy_wins: u64,
    /// Losing duplicates killed after a race resolved.
    pub copy_kills: u64,
    /// Offer declines, keyed by kebab-case [`DenyReason`](crate::DenyReason).
    pub offers_declined: BTreeMap<String, u64>,
    /// Reservations granted by the policy on task completion.
    pub reservations_granted: u64,
    /// Free slots claimed by pending pre-reservations.
    pub prereserves_filled: u64,
    /// Reservations that hit their lease deadline.
    pub reservations_expired: u64,
    /// Reservations released on job completion.
    pub reservations_released: u64,
    /// Stage-earmarked reservations released after their stage completed.
    pub stale_reservations_released: u64,
    /// Running instances lost to injected faults.
    pub tasks_crashed: u64,
    /// Reservations forcibly released because their slot was lost to a fault.
    pub reservations_revoked: u64,
    /// Barrier clears (stages becoming runnable).
    pub barriers_cleared: u64,
    /// Delay-scheduling locality unlock wakeups.
    pub locality_unlocks: u64,
    /// Time from reservation grant/fill to consumption, expiry, or release.
    pub reservation_hold_secs: Histogram,
    /// Busy slot-seconds per job id (sum over that job's task instances).
    pub slot_seconds_per_job: BTreeMap<u64, f64>,
}

impl MetricsReport {
    /// Fraction of speculative launches whose copy won the race, or `None`
    /// when no copy was launched.
    pub fn speculation_win_rate(&self) -> Option<f64> {
        if self.speculative_launched == 0 {
            None
        } else {
            Some(self.copy_wins as f64 / self.speculative_launched as f64)
        }
    }

    /// Renders the report as indented plain text for terminal output.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line("metrics report".into());
        line(format!("  jobs: {} submitted, {} completed", self.jobs_submitted, self.jobs_completed));
        line(format!(
            "  offer rounds: {} ({} tasks launched, {} speculative)",
            self.offer_rounds, self.tasks_launched, self.speculative_launched
        ));
        if self.offers_declined.is_empty() {
            line("  offers declined: none".into());
        } else {
            line("  offers declined:".into());
            for (reason, n) in &self.offers_declined {
                line(format!("    {reason}: {n}"));
            }
        }
        line(format!(
            "  reservations: {} granted, {} prereserve-filled, {} expired, {} released, {} stale-released",
            self.reservations_granted,
            self.prereserves_filled,
            self.reservations_expired,
            self.reservations_released,
            self.stale_reservations_released
        ));
        if self.tasks_crashed > 0 || self.reservations_revoked > 0 {
            line(format!(
                "  faults: {} tasks crashed, {} reservations revoked",
                self.tasks_crashed, self.reservations_revoked
            ));
        }
        let h = &self.reservation_hold_secs;
        line(format!("  reservation hold time: {} closed, mean {:.3}s", h.count, h.mean()));
        for (i, n) in h.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            match HOLD_TIME_BOUNDS_SECS.get(i) {
                Some(bound) => line(format!("    <= {bound}s: {n}")),
                None => line(format!("    > {}s: {n}", HOLD_TIME_BOUNDS_SECS[HOLD_TIME_BOUNDS_SECS.len() - 1])),
            }
        }
        match self.speculation_win_rate() {
            Some(rate) => line(format!(
                "  speculation: {} copies, {} wins, {} kills (win rate {:.2})",
                self.speculative_launched, self.copy_wins, self.copy_kills, rate
            )),
            None => line("  speculation: no copies launched".into()),
        }
        line(format!("  barriers cleared: {}, locality unlocks: {}", self.barriers_cleared, self.locality_unlocks));
        if !self.slot_seconds_per_job.is_empty() {
            line("  slot occupancy (busy slot-seconds per job):".into());
            for (job, secs) in &self.slot_seconds_per_job {
                line(format!("    job-{job}: {secs:.1}"));
            }
        }
        out
    }

    /// Renders the report as pretty-printed JSON with keys in sorted
    /// (ASCII) order at every nesting level — the same byte-stability
    /// contract as the JSONL trace — including p50/p90/p99 summaries of
    /// the reservation hold-time histogram.
    pub fn render_json(&self) -> String {
        use serde::Value;
        let obj =
            |entries: Vec<(&str, Value)>| Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
        let uint = Value::UInt;
        let opt = |v: Option<f64>| v.map(Value::Float).unwrap_or(Value::Null);

        let h = &self.reservation_hold_secs;
        let hold = obj(vec![
            ("bounds_secs", Value::Array(HOLD_TIME_BOUNDS_SECS.iter().copied().map(Value::Float).collect())),
            ("buckets", Value::Array(h.buckets.iter().copied().map(Value::UInt).collect())),
            ("count", uint(h.count)),
            ("mean_secs", Value::Float(h.mean())),
            ("p50_secs", opt(h.quantile(0.50))),
            ("p90_secs", opt(h.quantile(0.90))),
            ("p99_secs", opt(h.quantile(0.99))),
            ("sum_secs", Value::Float(h.sum)),
        ]);
        let declined = Value::Object(self.offers_declined.iter().map(|(k, &n)| (k.clone(), uint(n))).collect());
        // Job-id keys must re-sort as strings: numeric order "9" < "10"
        // violates the ASCII-sorted-keys contract.
        let mut per_job: Vec<(String, Value)> =
            self.slot_seconds_per_job.iter().map(|(job, &secs)| (job.to_string(), Value::Float(secs))).collect();
        per_job.sort_by(|a, b| a.0.cmp(&b.0));

        let root = obj(vec![
            ("barriers_cleared", uint(self.barriers_cleared)),
            ("copy_kills", uint(self.copy_kills)),
            ("copy_wins", uint(self.copy_wins)),
            ("jobs_completed", uint(self.jobs_completed)),
            ("jobs_submitted", uint(self.jobs_submitted)),
            ("locality_unlocks", uint(self.locality_unlocks)),
            ("offer_rounds", uint(self.offer_rounds)),
            ("offers_declined", declined),
            ("prereserves_filled", uint(self.prereserves_filled)),
            ("reservation_hold_secs", hold),
            ("reservations_expired", uint(self.reservations_expired)),
            ("reservations_granted", uint(self.reservations_granted)),
            ("reservations_released", uint(self.reservations_released)),
            ("reservations_revoked", uint(self.reservations_revoked)),
            ("slot_seconds_per_job", Value::Object(per_job)),
            ("speculation_win_rate", opt(self.speculation_win_rate())),
            ("speculative_launched", uint(self.speculative_launched)),
            ("stale_reservations_released", uint(self.stale_reservations_released)),
            ("tasks_crashed", uint(self.tasks_crashed)),
            ("tasks_launched", uint(self.tasks_launched)),
        ]);
        debug_assert!(sorted_keys(&root), "metrics JSON keys must be sorted");
        serde_json::to_string_pretty(&root).expect("serializer is total")
    }
}

/// Checks that an object tree's keys are in sorted order (debug builds only).
fn sorted_keys(v: &serde::Value) -> bool {
    use serde::Value;
    match v {
        Value::Object(entries) => {
            entries.windows(2).all(|w| w[0].0 < w[1].0) && entries.iter().all(|(_, v)| sorted_keys(v))
        }
        Value::Array(items) => items.iter().all(sorted_keys),
        _ => true,
    }
}

/// Sink that folds the event stream into a [`MetricsReport`].
#[derive(Debug, Default)]
pub struct MetricsSink {
    report: MetricsReport,
    /// Who holds each slot, for hold times and busy slot-seconds.
    replay: SlotReplay,
}

impl MetricsSink {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, returning the aggregated report.
    pub fn into_report(self) -> MetricsReport {
        self.report
    }

    /// The report aggregated so far.
    pub fn report(&self) -> &MetricsReport {
        &self.report
    }
}

impl TraceSink for MetricsSink {
    fn record(&mut self, event: &TraceEvent) {
        use TraceEventKind as K;
        let r = &mut self.report;
        match &event.kind {
            K::JobSubmitted { .. } => r.jobs_submitted += 1,
            K::JobCompleted { .. } => r.jobs_completed += 1,
            K::OfferRoundStarted { .. } => r.offer_rounds += 1,
            K::OfferDeclined { reason, .. } => {
                *r.offers_declined.entry(reason.as_str().to_owned()).or_insert(0) += 1;
            }
            K::TaskLaunched { speculative, .. } => {
                r.tasks_launched += 1;
                if *speculative {
                    r.speculative_launched += 1;
                }
            }
            K::TaskFinished { attempt, .. } => {
                if *attempt > 0 {
                    r.copy_wins += 1;
                }
            }
            K::CopyKilled { .. } => r.copy_kills += 1,
            K::ReservationGranted { .. } => r.reservations_granted += 1,
            K::PrereserveFilled { .. } => r.prereserves_filled += 1,
            K::ReservationExpired { .. } => r.reservations_expired += 1,
            K::ReservationReleased { .. } => r.reservations_released += 1,
            K::StaleReservationReleased { .. } => r.stale_reservations_released += 1,
            K::BarrierCleared { .. } => r.barriers_cleared += 1,
            K::LocalityUnlocked => r.locality_unlocks += 1,
            K::TaskCrashed { .. } => r.tasks_crashed += 1,
            K::ReservationRevoked { .. } => r.reservations_revoked += 1,
            K::OfferRoundEnded { .. } | K::StageCompleted { .. } | K::SlotOffline { .. } | K::SlotOnline { .. } => {}
        }
        // An occupancy change ends whatever the slot held (a launch
        // consumes a reservation). Going offline changes nothing: a
        // partition survivor stays busy until it finishes.
        let Some((slot, before)) = self.replay.apply(event) else { return };
        if self.replay.slot(slot).state == before.state {
            return;
        }
        let now = event.time.as_secs_f64();
        match before.state {
            SlotState::Free => {}
            SlotState::Reserved { since, .. } => {
                r.reservation_hold_secs.record(now - since.as_secs_f64());
            }
            SlotState::Running { job, since, .. } => {
                *r.slot_seconds_per_job.entry(job.as_u64()).or_insert(0.0) += now - since.as_secs_f64();
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}
