//! Data-locality levels, the delay-scheduling wait, and locality slowdown.
//!
//! Spark's locality levels are reproduced: a task prefers the slot holding
//! its input (`PROCESS_LOCAL`), then the same node, the same rack, and
//! finally anywhere (`ANY`). A task that cannot get its preferred level
//! waits (`spark.locality.wait`, 3 s in the paper's simulation) before
//! accepting the next level down. Running below `PROCESS_LOCAL` multiplies
//! the task duration by a level-dependent slowdown factor — remote reads
//! plus the "cold JVM" penalty of §II-B, which the paper measured at up to
//! two orders of magnitude (Fig. 6) and modelled as a conservative 5× (10×
//! in the amplified setting) in simulation (§VI-B).

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use ssr_simcore::dist::{constant, DynDistribution};
use ssr_simcore::rng::SimRng;
use ssr_simcore::SimDuration;

use crate::topology::{ClusterSpec, SlotId};

/// A Spark-style locality level, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalityLevel {
    /// The slot holds the task's input data (and a warm JVM).
    ProcessLocal,
    /// Another slot on the node holding the input.
    NodeLocal,
    /// A slot in the rack holding the input.
    RackLocal,
    /// Anywhere in the cluster.
    Any,
}

impl LocalityLevel {
    /// All levels, best first.
    pub const ALL: [LocalityLevel; 4] = [
        LocalityLevel::ProcessLocal,
        LocalityLevel::NodeLocal,
        LocalityLevel::RackLocal,
        LocalityLevel::Any,
    ];

    /// The level's position in [`ALL`](Self::ALL), from 0 for
    /// `ProcessLocal` to 3 for `Any`: the index of per-level arrays, and
    /// the number of wait periods that must elapse before the level is
    /// acceptable under delay scheduling.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Spark's name for the level (`PROCESS_LOCAL` … `ANY`), as `Display`
    /// writes it and decision traces record it.
    pub const fn as_str(self) -> &'static str {
        match self {
            LocalityLevel::ProcessLocal => "PROCESS_LOCAL",
            LocalityLevel::NodeLocal => "NODE_LOCAL",
            LocalityLevel::RackLocal => "RACK_LOCAL",
            LocalityLevel::Any => "ANY",
        }
    }
}

impl fmt::Display for LocalityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialOrd for LocalityLevel {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LocalityLevel {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.index().cmp(&other.index())
    }
}

/// Locality configuration: the delay-scheduling wait and per-level task
/// slowdown distributions.
///
/// # Example
///
/// ```
/// use ssr_cluster::{LocalityModel, LocalityLevel};
/// use ssr_simcore::{SimDuration, rng::SimRng};
///
/// let model = LocalityModel::paper_simulation();
/// assert_eq!(model.wait(), SimDuration::from_secs(3));
/// let mut rng = SimRng::seed_from_u64(1);
/// assert_eq!(model.sample_slowdown(LocalityLevel::ProcessLocal, &mut rng), 1.0);
/// assert_eq!(model.sample_slowdown(LocalityLevel::Any, &mut rng), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct LocalityModel {
    wait: SimDuration,
    slowdown: [DynDistribution; 4],
}

impl LocalityModel {
    /// Creates a model with fixed slowdown factors per level.
    ///
    /// # Panics
    ///
    /// Panics if any factor is negative or non-finite.
    pub fn fixed(
        wait: SimDuration,
        process: f64,
        node: f64,
        rack: f64,
        any: f64,
    ) -> Self {
        LocalityModel {
            wait,
            slowdown: [constant(process), constant(node), constant(rack), constant(any)],
        }
    }

    /// The paper's simulation setting (§VI-B): 3 s locality wait and a
    /// conservative 5× runtime penalty without data locality.
    pub fn paper_simulation() -> Self {
        LocalityModel::fixed(SimDuration::from_secs(3), 1.0, 1.2, 1.8, 5.0)
    }

    /// The amplified setting of Fig. 15(c): 10× penalty at `ANY`.
    pub fn paper_simulation_amplified() -> Self {
        LocalityModel::fixed(SimDuration::from_secs(3), 1.0, 1.2, 1.8, 10.0)
    }

    /// Scales every slowdown factor above `PROCESS_LOCAL`; `amplified()` of
    /// the paper doubles the `ANY` factor, which this generalises.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn with_any_slowdown(mut self, factor: f64) -> Self {
        self.slowdown[LocalityLevel::Any.index()] = constant(factor);
        self
    }

    /// Overrides the slowdown distribution of one level — used by the
    /// Fig. 6 harness, which draws heavy-tailed `ANY` penalties mirroring
    /// the measured cold-JVM/remote-read slowdowns (up to two orders of
    /// magnitude).
    pub fn with_slowdown_dist(mut self, level: LocalityLevel, dist: DynDistribution) -> Self {
        self.slowdown[level.index()] = dist;
        self
    }

    /// Sets the delay-scheduling wait per level downgrade.
    pub fn with_wait(mut self, wait: SimDuration) -> Self {
        self.wait = wait;
        self
    }

    /// The delay-scheduling wait (`spark.locality.wait`).
    pub fn wait(&self) -> SimDuration {
        self.wait
    }

    /// Draws a task slowdown factor for running at `level`.
    pub fn sample_slowdown(&self, level: LocalityLevel, rng: &mut SimRng) -> f64 {
        self.slowdown[level.index()].sample(rng)
    }

    /// The mean slowdown factor at `level`, if known in closed form.
    pub fn mean_slowdown(&self, level: LocalityLevel) -> Option<f64> {
        self.slowdown[level.index()].mean()
    }

    /// The most relaxed level a task may accept after waiting `elapsed`
    /// since it became schedulable (delay scheduling: one level per wait
    /// period).
    ///
    /// A zero wait disables delay scheduling (everything allowed at once).
    pub fn max_allowed_level(&self, elapsed: SimDuration) -> LocalityLevel {
        match self.periods(elapsed) {
            Some(periods) => LocalityLevel::ALL[periods],
            None => LocalityLevel::Any,
        }
    }

    /// The next elapsed time (strictly greater than `elapsed`) at which a
    /// waiting task unlocks a more relaxed level, or `None` if `ANY` is
    /// already allowed.
    ///
    /// Simulators use this to schedule re-offer events under delay
    /// scheduling.
    pub fn next_unlock_after(&self, elapsed: SimDuration) -> Option<SimDuration> {
        let periods = self.periods(elapsed)?;
        (periods < LocalityLevel::Any.index()).then(|| self.wait * (periods as u64 + 1))
    }

    /// The whole wait periods in `elapsed`, capped at `Any`'s
    /// [`index`](LocalityLevel::index) — the number it takes to unlock
    /// every level; `None` under a zero wait.
    fn periods(&self, elapsed: SimDuration) -> Option<usize> {
        let waits = elapsed.as_micros().checked_div(self.wait.as_micros())?;
        let last = LocalityLevel::Any.index();
        Some(usize::try_from(waits).map_or(last, |p| p.min(last)))
    }
}

impl Default for LocalityModel {
    /// The paper's simulation configuration.
    fn default() -> Self {
        LocalityModel::paper_simulation()
    }
}

/// Computes the best locality level `candidate` can offer for a task that
/// prefers `preferred` slots (the slots holding its upstream outputs).
///
/// The preference set is ordered (`BTreeSet`) so that every scan over it
/// is deterministic; the membership tests below are order-independent
/// either way, but the ordered type keeps the whole preference path
/// inside the replay contract.
///
/// An empty preference means the task has no data affinity (e.g. a root
/// phase reading evenly from a distributed store) and runs at
/// `PROCESS_LOCAL` anywhere.
pub fn level_for(
    spec: &ClusterSpec,
    preferred: &BTreeSet<SlotId>,
    candidate: SlotId,
) -> LocalityLevel {
    if preferred.is_empty() || preferred.contains(&candidate) {
        return LocalityLevel::ProcessLocal;
    }
    let node = spec.node_of(candidate);
    if preferred.iter().any(|&s| spec.node_of(s) == node) {
        return LocalityLevel::NodeLocal;
    }
    let rack = spec.rack_of(node);
    if preferred.iter().any(|&s| spec.rack_of(spec.node_of(s)) == rack) {
        return LocalityLevel::RackLocal;
    }
    LocalityLevel::Any
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_best_first() {
        assert!(LocalityLevel::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    fn spec() -> ClusterSpec {
        // 4 nodes x 2 slots, racks of 2 nodes: slots 0-3 rack 0, 4-7 rack 1.
        ClusterSpec::with_racks(4, 2, 2).unwrap()
    }

    #[test]
    fn level_ordering_best_first() {
        assert!(LocalityLevel::ProcessLocal < LocalityLevel::NodeLocal);
        assert!(LocalityLevel::NodeLocal < LocalityLevel::RackLocal);
        assert!(LocalityLevel::RackLocal < LocalityLevel::Any);
    }

    #[test]
    fn level_for_each_distance() {
        let spec = spec();
        let preferred: BTreeSet<SlotId> = [SlotId::new(0)].into_iter().collect();
        assert_eq!(level_for(&spec, &preferred, SlotId::new(0)), LocalityLevel::ProcessLocal);
        assert_eq!(level_for(&spec, &preferred, SlotId::new(1)), LocalityLevel::NodeLocal);
        assert_eq!(level_for(&spec, &preferred, SlotId::new(2)), LocalityLevel::RackLocal);
        assert_eq!(level_for(&spec, &preferred, SlotId::new(4)), LocalityLevel::Any);
    }

    #[test]
    fn empty_preference_is_process_local() {
        let spec = spec();
        assert_eq!(
            level_for(&spec, &BTreeSet::new(), SlotId::new(5)),
            LocalityLevel::ProcessLocal
        );
    }

    #[test]
    fn delay_scheduling_unlocks_levels() {
        let m = LocalityModel::paper_simulation();
        let w = SimDuration::from_secs(3);
        assert_eq!(m.max_allowed_level(SimDuration::ZERO), LocalityLevel::ProcessLocal);
        assert_eq!(m.max_allowed_level(w - SimDuration::from_micros(1)), LocalityLevel::ProcessLocal);
        assert_eq!(m.max_allowed_level(w), LocalityLevel::NodeLocal);
        assert_eq!(m.max_allowed_level(w * 2), LocalityLevel::RackLocal);
        assert_eq!(m.max_allowed_level(w * 3), LocalityLevel::Any);
    }

    #[test]
    fn next_unlock_progression() {
        let m = LocalityModel::paper_simulation();
        assert_eq!(m.next_unlock_after(SimDuration::ZERO), Some(SimDuration::from_secs(3)));
        assert_eq!(
            m.next_unlock_after(SimDuration::from_secs(3)),
            Some(SimDuration::from_secs(6))
        );
        assert_eq!(
            m.next_unlock_after(SimDuration::from_secs(8)),
            Some(SimDuration::from_secs(9))
        );
        assert_eq!(m.next_unlock_after(SimDuration::from_secs(9)), None);
        let zero = LocalityModel::paper_simulation().with_wait(SimDuration::ZERO);
        assert_eq!(zero.next_unlock_after(SimDuration::ZERO), None);
    }

    #[test]
    fn zero_wait_disables_delay_scheduling() {
        let m = LocalityModel::paper_simulation().with_wait(SimDuration::ZERO);
        assert_eq!(m.max_allowed_level(SimDuration::ZERO), LocalityLevel::Any);
    }

    #[test]
    fn paper_models_have_expected_factors() {
        let m = LocalityModel::paper_simulation();
        assert_eq!(m.mean_slowdown(LocalityLevel::ProcessLocal), Some(1.0));
        assert_eq!(m.mean_slowdown(LocalityLevel::Any), Some(5.0));
        let amp = LocalityModel::paper_simulation_amplified();
        assert_eq!(amp.mean_slowdown(LocalityLevel::Any), Some(10.0));
        let doubled = LocalityModel::paper_simulation().with_any_slowdown(10.0);
        assert_eq!(doubled.mean_slowdown(LocalityLevel::Any), Some(10.0));
    }

    #[test]
    fn custom_slowdown_distribution() {
        use ssr_simcore::dist::uniform;
        let m = LocalityModel::paper_simulation()
            .with_slowdown_dist(LocalityLevel::Any, uniform(2.0, 100.0));
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..100 {
            let f = m.sample_slowdown(LocalityLevel::Any, &mut rng);
            assert!((2.0..=100.0).contains(&f));
        }
    }

    #[test]
    fn display_matches_spark_names() {
        assert_eq!(format!("{}", LocalityLevel::ProcessLocal), "PROCESS_LOCAL");
        assert_eq!(format!("{}", LocalityLevel::Any), "ANY");
    }
}
