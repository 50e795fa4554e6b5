//! Deterministic parallel trial execution.
//!
//! Experiments in this crate are pure functions of their configuration
//! and seed, so independent trials can run on any number of worker
//! threads without changing a single output bit. This module provides the
//! two pieces that make that safe and convenient:
//!
//! * [`par_map`] — an order-preserving parallel map over a slice: workers
//!   claim items through an atomic cursor, but results are merged back in
//!   input order, so the output is identical to a sequential map at every
//!   worker count. Callers give each trial its own seed (the figures use
//!   `root_seed ^ trial index`, so every trial reads an independent,
//!   individually reproducible RNG stream).
//! * worker-count resolution ([`worker_count`] / [`resolve_workers`]) with
//!   the precedence *explicit `--jobs` flag > `SSR_JOBS` environment
//!   variable > available hardware parallelism*.

#![expect(
    clippy::disallowed_methods,
    reason = "the threading barrier: results merge in input order, so worker count and timing never reach output"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker-count override (0 = none); set by binaries from
/// their `--jobs` flag so library code never parses CLI arguments.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or, with `None`, clears) the explicit worker-count override.
///
/// `Some(0)` is treated as `Some(1)`: the pool always has at least one
/// worker.
pub fn set_worker_override(workers: Option<usize>) {
    WORKER_OVERRIDE.store(workers.map_or(0, |w| w.max(1)), Ordering::Relaxed);
}

/// The number of workers trial execution uses right now: the explicit
/// override if set, else `SSR_JOBS`, else the machine's available
/// parallelism.
pub fn worker_count() -> usize {
    let flag = match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    };
    let env = std::env::var("SSR_JOBS").ok().and_then(|v| v.trim().parse().ok());
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    resolve_workers(flag, env, available)
}

/// Resolves the worker count from its three sources, in precedence order:
/// explicit flag, then environment, then available parallelism. Never
/// returns 0.
pub fn resolve_workers(flag: Option<usize>, env: Option<usize>, available: usize) -> usize {
    flag.or(env).unwrap_or(available).max(1)
}

/// Maps `f` over `items` on up to `workers` threads, returning results in
/// input order.
///
/// Workers claim items through a shared atomic cursor, so the schedule is
/// nondeterministic — but each result lands in its item's slot and the
/// merge happens in input order, making the output byte-identical to
/// `items.iter().map(f).collect()` regardless of worker count or thread
/// timing. With one worker (or at most one item) no threads are spawned.
///
/// # Panics
///
/// Propagates a panic from `f` once all workers have stopped.
pub fn par_map<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot is filled once the scope joins")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, OrderConfig, PolicyConfig};
    use crate::simulation::SimConfig;
    use ssr_cluster::ClusterSpec;
    use ssr_dag::Priority;
    use ssr_simcore::dist::uniform;
    use ssr_workload::synthetic::map_only;

    fn tiny_experiment(tasks: u32) -> Experiment {
        let config = SimConfig::new(ClusterSpec::new(1, 2).unwrap()).with_seed(0);
        Experiment::new(config, PolicyConfig::WorkConserving, OrderConfig::FifoPriority)
            .foreground([map_only("fg", tasks, uniform(1.0, 2.0), Priority::new(10)).unwrap()])
    }

    #[test]
    fn resolve_workers_precedence() {
        // Explicit flag beats everything.
        assert_eq!(resolve_workers(Some(3), Some(5), 8), 3);
        // Environment beats the hardware default.
        assert_eq!(resolve_workers(None, Some(5), 8), 5);
        // Hardware default otherwise.
        assert_eq!(resolve_workers(None, None, 8), 8);
        // Never zero workers.
        assert_eq!(resolve_workers(None, None, 0), 1);
        assert_eq!(resolve_workers(Some(0), Some(5), 8), 1);
    }

    #[test]
    fn override_takes_precedence_until_cleared() {
        // Serialized against other tests touching the global by running
        // set + read + clear in one test.
        set_worker_override(Some(2));
        let flag = match WORKER_OVERRIDE.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        };
        assert_eq!(flag, Some(2));
        assert_eq!(resolve_workers(flag, Some(7), 8), 2);
        set_worker_override(Some(0));
        assert_eq!(WORKER_OVERRIDE.load(Ordering::Relaxed), 1, "Some(0) clamps to 1");
        set_worker_override(None);
        assert_eq!(WORKER_OVERRIDE.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 200] {
            assert_eq!(par_map(workers, &items, |x| x * x), expected);
        }
    }

    #[test]
    fn par_map_on_empty_slice() {
        let out: Vec<u64> = par_map(4, &[], |x: &u64| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_grid_runs_to_no_results() {
        assert!(par_map(4, &[], Experiment::run).is_empty());
    }

    #[test]
    fn grid_results_are_identical_across_worker_counts() {
        // Two experiments at two seeds each, seeded `root ^ i` for trial i.
        let trials: Vec<Experiment> = [4, 4, 6, 6]
            .into_iter()
            .enumerate()
            .map(|(i, tasks)| tiny_experiment(tasks).with_seed(99 ^ i as u64))
            .collect();
        let sequential = par_map(1, &trials, Experiment::run);
        let parallel = par_map(4, &trials, Experiment::run);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.policy, p.policy);
            assert_eq!(s.foreground, p.foreground);
            assert_eq!(s.events_processed, p.events_processed);
        }
    }

    #[test]
    fn par_map_overlaps_independent_work() {
        // Wait-bound items: four 100 ms waits on 4 workers must complete
        // well under the 400 ms a sequential map needs. Holds even on a
        // single hardware core, since blocked threads overlap.
        let items = [0u8; 4];
        let started = std::time::Instant::now();
        par_map(4, &items, |_| std::thread::sleep(std::time::Duration::from_millis(100)));
        assert!(
            started.elapsed() < std::time::Duration::from_millis(350),
            "4 workers took {:?} for 4 x 100ms of independent waiting",
            started.elapsed()
        );
    }
}
