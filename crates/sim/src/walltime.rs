//! The workspace's single sanctioned wall-clock access point.
//!
//! `crates/clippy.toml` disallows `Instant`/`SystemTime` everywhere
//! except this module: real time must never influence simulated results,
//! so every wall-clock read in the workspace funnels through
//! [`Stopwatch`], whose readings only ever reach *stderr* (`--timing`,
//! `--progress`, `--profile`) — never a report.
//!
//! If you need timing somewhere new, take a [`Stopwatch`] here rather
//! than opting another module out of the ban.

#![expect(clippy::disallowed_types, reason = "the wall-clock barrier: readings reach stderr only")]

use std::time::Instant;

/// A started wall-clock timer.
///
/// # Example
///
/// ```
/// use ssr_sim::walltime::Stopwatch;
///
/// let sw = Stopwatch::start();
/// assert!(sw.elapsed_secs() >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch { started: Instant::now() }
    }

    /// Seconds elapsed since [`start`](Stopwatch::start).
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// The real-time [`SpanClock`](ssr_perf::SpanClock) behind `--profile`
/// span reports: a [`Stopwatch`] started at construction, read on demand.
///
/// This is the *only* real-time implementation of the trait in the
/// workspace; everything else injects scripted clocks. Keeping it here
/// means span profiling inherits the barrier's guarantee — wall-clock
/// readings reach stderr and explicitly wall-clock-plane reports only.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Stopwatch,
}

impl WallClock {
    /// Starts the clock's origin now.
    pub fn start() -> WallClock {
        WallClock { origin: Stopwatch::start() }
    }
}

impl ssr_perf::SpanClock for WallClock {
    fn now_secs(&self) -> f64 {
        self.origin.elapsed_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_perf::SpanClock;

    #[test]
    fn elapsed_is_monotonic_nonnegative() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(a >= 0.0);
        assert!(b >= a);
    }

    #[test]
    fn wall_clock_reads_are_monotonic() {
        let clock = WallClock::start();
        let a = clock.now_secs();
        let b = clock.now_secs();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
