//! Wall-clock helpers: call timers, clock calibration, the reference
//! speed probe and order statistics.

use std::cell::Cell;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Measures what timing an empty call costs, in nanoseconds: the mean
/// interval between two back-to-back `Instant::now()` reads.
///
/// Per-layer times subtract this once per timed call, so they estimate
/// the time spent in the call itself.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let mut best = f64::INFINITY;
    // Best of a few batches, so a descheduling blip does not inflate it.
    for _ in 0..5 {
        let mut total_ns = 0u128;
        for _ in 0..READS {
            let start = Instant::now();
            total_ns += black_box(start.elapsed()).as_nanos();
        }
        best = best.min(total_ns as f64 / f64::from(READS));
    }
    best
}

/// Seconds [`reference_secs`] takes on an uncontended host: the fastest
/// of many repeats on the 2-vCPU Xeon VM the baseline was recorded on.
pub const REFERENCE_SECS: f64 = 0.0095;

/// Times a fixed piece of reference work shaped like the simulator's own
/// (a binary heap, an ordered map and short array scans; about 10 ms).
///
/// On a shared host the speed of the CPU changes from second to second
/// and from minute to minute. Operation times are scaled by
/// `REFERENCE_SECS / reference_secs()` measured around them, which keeps
/// a run's figures comparable with another's while leaving the work's
/// own cost in them.
pub fn reference_secs() -> f64 {
    let started = Instant::now();
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    let mut slots: Vec<u64> = (0..4096).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(x % 100_000);
        if i % 2 == 1 {
            acc ^= heap.pop().unwrap_or(0);
        }
        map.insert(x % 50_000, i);
        if i % 3 == 0 {
            map.pop_first();
        }
        let j = (x % 4096) as usize;
        slots[j] = slots[j].wrapping_add(acc);
        if i % 64 == 0 {
            acc ^= slots.iter().take(512).fold(0, |a, b| a ^ b);
        }
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Times every call through it and, optionally, keeps each call's
/// duration for percentiles.
#[derive(Debug, Default)]
pub struct CallTimer {
    calls: u64,
    total_ns: u64,
    per_call_ns: Option<Vec<u32>>,
}

impl CallTimer {
    /// A timer that keeps totals only.
    pub fn new() -> CallTimer {
        CallTimer::default()
    }

    /// A timer that also keeps every call's duration.
    pub fn with_percentiles() -> CallTimer {
        CallTimer {
            per_call_ns: Some(Vec::new()),
            ..CallTimer::default()
        }
    }

    /// Runs `f`, charging its duration to this timer.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.total_ns += ns;
        if let Some(samples) = self.per_call_ns.as_mut() {
            samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
        out
    }

    /// Calls timed so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Total milliseconds, less one clock read per call.
    pub fn corrected_ms(&self, clock_ns: f64) -> f64 {
        (self.total_ns as f64 - self.calls as f64 * clock_ns).max(0.0) / 1e6
    }

    /// The `q`-quantile of per-call durations in microseconds, less one
    /// clock read (0 if no per-call durations were kept).
    pub fn quantile_us(&mut self, q: f64, clock_ns: f64) -> f64 {
        let Some(samples) = self.per_call_ns.as_mut() else {
            return 0.0;
        };
        if samples.is_empty() {
            return 0.0;
        }
        let rank = ((samples.len() - 1) as f64 * q).round() as usize;
        let (_, v, _) = samples.select_nth_unstable(rank);
        (f64::from(*v) - clock_ns).max(0.0) / 1e3
    }
}

/// Counts every call but times only one in `every`, for calls too short
/// to time individually without the clock dominating. Interior-mutable,
/// so `&self` trait methods can use it.
#[derive(Debug)]
pub struct SampledTimer {
    every: u64,
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
}

impl SampledTimer {
    /// Times one call in `every`.
    pub fn new(every: u64) -> SampledTimer {
        SampledTimer {
            every: every.max(1),
            calls: Cell::new(0),
            sampled: Cell::new(0),
            sampled_ns: Cell::new(0),
        }
    }

    /// Runs `f`, counting it and timing it if its turn has come.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if !n.is_multiple_of(self.every) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.sampled_ns
            .set(self.sampled_ns.get() + start.elapsed().as_nanos() as u64);
        self.sampled.set(self.sampled.get() + 1);
        out
    }

    /// Calls counted so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Estimated total milliseconds: the mean sampled call, less one
    /// clock read, times the call count.
    pub fn estimated_ms(&self, clock_ns: f64) -> f64 {
        let sampled = self.sampled.get();
        if sampled == 0 {
            return 0.0;
        }
        let mean = self.sampled_ns.get() as f64 / sampled as f64;
        (mean - clock_ns).max(0.0) * self.calls.get() as f64 / 1e6
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn sampled_timer_counts_every_call() {
        let t = SampledTimer::new(4);
        for _ in 0..10 {
            t.time(|| black_box(1 + 1));
        }
        assert_eq!(t.calls(), 10);
        assert_eq!(t.sampled.get(), 3, "calls 0, 4 and 8 are timed");
    }

    #[test]
    fn call_timer_quantiles() {
        let mut t = CallTimer::with_percentiles();
        for _ in 0..5 {
            t.time(|| black_box(0));
        }
        assert_eq!(t.calls(), 5);
        assert!(t.quantile_us(0.5, 0.0) >= 0.0);
        assert_eq!(CallTimer::new().quantile_us(0.5, 0.0), 0.0);
    }
}
