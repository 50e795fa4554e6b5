//! Bounded-exhaustive interleaving explorer over the real scheduler.
//!
//! The explorer drives an actual [`TaskScheduler`] — the same `engine.rs`
//! state machine the simulator uses — through **every** interleaving of
//! offer rounds, task finishes and fault strikes reachable on a small
//! configuration, with the [`InvariantChecker`] attached as the trace
//! sink of every replay. It is a stateright-style bounded model check:
//! states are canonical fingerprints of the scheduler (slot occupancy,
//! remaining reservation deadlines, per-stage task accounting — absolute
//! time excluded), deduplicated in a `BTreeSet`, and the search is
//! breadth-first with a depth bound.
//!
//! `TaskScheduler` is not `Clone`, so each frontier state is materialised
//! by replaying its action sequence from the root — cheap at the depths
//! involved (every replay is at most `max_steps` engine calls).
//!
//! Determinism: the action enumeration order is fixed, all collections
//! are ordered, and replays are pure, so the explored state count is a
//! stable artifact that CI pins byte-for-byte.

use std::cmp::Ordering;
use std::collections::{BTreeSet, VecDeque};

use ssr_cluster::{ClusterSpec, LocalityModel, NodeId, SlotId};
use ssr_core::{SpeculativeReservation, SsrConfig};
use ssr_dag::Priority;
use ssr_scheduler::{FifoPriority, TaskScheduler};
use ssr_simcore::{dist::constant, SimDuration, SimTime};
use ssr_workload::synthetic::{map_only, pipeline_of};

use crate::invariants::{InvariantChecker, Violation};

/// One atomic step the explorer can take against the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Run one resource-offer round.
    Offer,
    /// Finish the task currently running on the slot.
    Finish(u32),
    /// Crash the node: kill its running tasks, take its slots offline.
    Crash(u32),
    /// Bring a crashed node's slots back into service.
    Restore(u32),
}

impl Action {
    /// The order key: the variant in declaration order, then its operand.
    fn key(self) -> (u8, u32) {
        match self {
            Action::Offer => (0, 0),
            Action::Finish(slot) => (1, slot),
            Action::Crash(node) => (2, node),
            Action::Restore(node) => (3, node),
        }
    }
}

impl PartialOrd for Action {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Action {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The small configuration the explorer enumerates.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Cluster width.
    pub nodes: u32,
    /// Slots per node.
    pub slots_per_node: u32,
    /// Tasks per stage of the two-stage foreground pipeline (exercises
    /// barriers and therefore pre-reservation).
    pub fg_tasks: u32,
    /// Tasks of the single-stage background job.
    pub bg_tasks: u32,
    /// How many `Crash` actions one interleaving may contain.
    pub crash_budget: u32,
    /// Depth bound: interleavings longer than this are truncated (counted
    /// in [`ExploreReport::truncated`], never silently dropped).
    pub max_steps: usize,
}

impl ExploreConfig {
    /// The pinned CI configuration: 2 nodes x 1 slot, a 2-stage
    /// foreground vs a background job, one crash — small enough to close
    /// the frontier in well under a second.
    pub fn small() -> Self {
        ExploreConfig {
            nodes: 2,
            slots_per_node: 1,
            fg_tasks: 1,
            bg_tasks: 2,
            crash_budget: 1,
            max_steps: 12,
        }
    }
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig::small()
    }
}

/// The explorer's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Distinct canonical states visited.
    pub states: u64,
    /// States in which every job had completed.
    pub terminal_states: u64,
    /// Frontier states abandoned at the depth bound.
    pub truncated: u64,
    /// Deepest action sequence materialised.
    pub max_depth: usize,
    /// Distinct invariant violations found across all replays
    /// (deduplicated by invariant and message).
    pub violations: Vec<Violation>,
}

impl ExploreReport {
    /// Whether every explored interleaving satisfied every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders a human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "ssr-check explore: {} states ({} terminal, {} truncated at depth bound), max depth {}\n",
            self.states, self.terminal_states, self.truncated, self.max_depth
        );
        if self.violations.is_empty() {
            out.push_str("  all invariants hold on every interleaving\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("  {}: {}\n", v.invariant, v.message));
            }
        }
        out
    }

    /// Renders pretty-printed JSON with sorted keys (byte-stable across
    /// invocations — CI diffs two runs).
    pub fn render_json(&self) -> String {
        use serde::Value;
        let obj = |entries: Vec<(&str, Value)>| {
            debug_assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "explore JSON keys must be sorted"
            );
            Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        let violations = Value::Array(
            self.violations
                .iter()
                .map(|v| {
                    obj(vec![
                        ("invariant", Value::Str(v.invariant.to_owned())),
                        ("message", Value::Str(v.message.clone())),
                    ])
                })
                .collect(),
        );
        let root = obj(vec![
            ("clean", Value::Bool(self.is_clean())),
            ("max_depth", Value::UInt(self.max_depth as u64)),
            ("states", Value::UInt(self.states)),
            ("terminal_states", Value::UInt(self.terminal_states)),
            ("truncated", Value::UInt(self.truncated)),
            ("violations", violations),
        ]);
        let mut out = serde_json::to_string_pretty(&root).expect("serializer is total");
        out.push('\n');
        out
    }
}

/// Materialises one frontier state: replays `actions` from the root on a
/// fresh scheduler with the invariant checker attached.
fn replay(cfg: &ExploreConfig, actions: &[Action]) -> (TaskScheduler, Vec<Violation>) {
    let cluster = ClusterSpec::new(cfg.nodes, cfg.slots_per_node).expect("valid explore cluster");
    let locality = LocalityModel::paper_simulation().with_wait(SimDuration::ZERO);
    let mut sched = TaskScheduler::new(
        cluster,
        locality,
        Box::new(SpeculativeReservation::with_config(SsrConfig::default())),
        Box::new(FifoPriority),
    )
    .with_trace_sink(Box::new(InvariantChecker::new()));
    let fg = pipeline_of(
        "fg",
        &[(cfg.fg_tasks, constant(1.0)), (cfg.fg_tasks, constant(1.0))],
        Priority::new(10),
        SimTime::ZERO,
    )
    .expect("valid fg spec");
    let bg =
        map_only("bg", cfg.bg_tasks, constant(1.0), Priority::new(0)).expect("valid bg spec");
    sched.submit(fg, SimTime::ZERO);
    sched.submit(bg, SimTime::ZERO);
    for (step, action) in actions.iter().enumerate() {
        // One logical second per step: reservations age deterministically.
        let t = SimTime::from_secs((step + 1) as u64);
        sched.expire_reservations(t);
        match action {
            Action::Offer => {
                sched.resource_offers(t);
            }
            Action::Finish(slot) => {
                sched.task_finished(SlotId::new(*slot), t);
            }
            Action::Crash(node) => {
                let slots = node_slots(&sched, *node);
                sched.fail_slots(&slots, t, true, "crash");
            }
            Action::Restore(node) => {
                let slots = node_slots(&sched, *node);
                sched.restore_slots(&slots, t);
            }
        }
    }
    let violations = match sched.take_trace_sink() {
        Some(sink) => match sink.into_any().downcast::<InvariantChecker>() {
            Ok(checker) => checker.finish().violations,
            Err(_) => Vec::new(),
        },
        None => Vec::new(),
    };
    (sched, violations)
}

fn node_slots(sched: &TaskScheduler, node: u32) -> Vec<SlotId> {
    sched.cluster_spec().slots_of(NodeId::new(node)).collect()
}

/// Canonical state fingerprint, excluding absolute time: per-slot
/// occupancy (+ owner task / reservation owner with *remaining* deadline)
/// and offline bit, plus per-job completion and per-stage task accounting
/// (including observed-duration history, which feeds deadline prediction).
fn fingerprint(sched: &TaskScheduler, now: SimTime) -> String {
    use std::fmt::Write;
    let mut fp = String::new();
    let pool = sched.slot_pool();
    for (slot, state) in pool.iter() {
        let offline = if pool.is_offline(slot) == Ok(true) { "!" } else { "" };
        if let Some(task) = state.task() {
            let _ = write!(
                fp,
                "B{}.{}.{}{offline};",
                task.job.as_u64(),
                task.stage.as_u32(),
                task.partition
            );
        } else if let Some(r) = state.reservation() {
            let remaining = r
                .deadline()
                .map(|d| ((d.as_secs_f64() - now.as_secs_f64()) * 1e3).round() as i64)
                .unwrap_or(-1);
            let _ = write!(fp, "R{}d{remaining}{offline};", r.job().as_u64());
        } else {
            let _ = write!(fp, "F{offline};");
        }
    }
    fp.push('|');
    for job in sched.jobs().iter() {
        let _ = write!(fp, "j{}c{}", job.id().as_u64(), u8::from(job.is_complete()));
        for ts in job.active_tasksets() {
            let _ = write!(
                fp,
                "s{}p{}o{}f{}",
                ts.stage().as_u32(),
                ts.pending_count(),
                ts.ongoing_count(),
                ts.finished_count()
            );
        }
        for (stage, stats) in job.iter_stage_stats() {
            if !stats.durations().is_empty() {
                let _ = write!(fp, "d{}n{}", stage.as_u32(), stats.durations().len());
            }
        }
        fp.push(';');
    }
    fp
}

/// Enumerates the actions applicable in the replayed state, in a fixed
/// deterministic order: Offer, then Finish by ascending slot, then Crash
/// and Restore by ascending node.
fn applicable(sched: &TaskScheduler, crashes_used: u32, cfg: &ExploreConfig) -> Vec<Action> {
    let mut actions = vec![Action::Offer];
    let pool = sched.slot_pool();
    for (slot, state) in pool.iter() {
        if state.is_running() {
            actions.push(Action::Finish(slot.as_u32()));
        }
    }
    let spec = sched.cluster_spec();
    for node in 0..cfg.nodes {
        let slots: Vec<SlotId> = spec
            .iter_slots()
            .filter(|&s| spec.node_of(s).as_u32() == node)
            .collect();
        let any_online = slots.iter().any(|&s| pool.is_offline(s) == Ok(false));
        if any_online && crashes_used < cfg.crash_budget {
            actions.push(Action::Crash(node));
        }
        if slots.iter().any(|&s| pool.is_offline(s) == Ok(true)) {
            actions.push(Action::Restore(node));
        }
    }
    actions
}

/// Runs the bounded-exhaustive search and returns the verdict.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    let mut visited: BTreeSet<String> = BTreeSet::new();
    let mut seen_violations: BTreeSet<(&'static str, String)> = BTreeSet::new();
    let mut report = ExploreReport {
        states: 0,
        terminal_states: 0,
        truncated: 0,
        max_depth: 0,
        violations: Vec::new(),
    };
    let mut frontier: VecDeque<Vec<Action>> = VecDeque::new();
    frontier.push_back(Vec::new());
    while let Some(seq) = frontier.pop_front() {
        let (sched, violations) = replay(cfg, &seq);
        let now = SimTime::from_secs(seq.len() as u64);
        let fp = fingerprint(&sched, now);
        if !visited.insert(fp) {
            continue;
        }
        report.states += 1;
        report.max_depth = report.max_depth.max(seq.len());
        for v in violations {
            if seen_violations.insert((v.invariant, v.message.clone())) {
                report.violations.push(v);
            }
        }
        if !sched.has_unfinished_jobs() {
            report.terminal_states += 1;
            continue;
        }
        if seq.len() >= cfg.max_steps {
            report.truncated += 1;
            continue;
        }
        let crashes_used = seq.iter().filter(|a| matches!(a, Action::Crash(_))).count() as u32;
        for action in applicable(&sched, crashes_used, cfg) {
            let mut next = seq.clone();
            next.push(action);
            frontier.push_back(next);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_order_by_variant_then_operand() {
        use Action::{Crash, Finish, Offer, Restore};
        let actions = [Offer, Finish(0), Finish(1), Crash(0), Restore(0)];
        assert!(actions.windows(2).all(|w| w[0] < w[1]), "{actions:?}");
    }

    #[test]
    fn small_config_closes_with_deterministic_state_count() {
        let a = explore(&ExploreConfig::small());
        let b = explore(&ExploreConfig::small());
        assert_eq!(a, b, "exploration must be deterministic");
        // The pinned artifact: the frontier closes (nothing truncated)
        // after exactly these many canonical states. A change here means
        // the engine's reachable state space changed — intended or not,
        // it deserves review.
        assert_eq!(a.states, 91, "{}", a.render_text());
        assert_eq!(a.terminal_states, 3);
        assert_eq!(a.truncated, 0, "the small frontier must close below the depth bound");
        assert_eq!(a.max_depth, 8);
        assert!(a.is_clean(), "{}", a.render_text());
    }

    #[test]
    fn crash_free_exploration_is_clean_too() {
        let cfg = ExploreConfig { crash_budget: 0, ..ExploreConfig::small() };
        let report = explore(&cfg);
        assert!(report.is_clean(), "{}", report.render_text());
        assert!(report.terminal_states > 0);
    }

    #[test]
    fn json_is_byte_stable() {
        let cfg = ExploreConfig { max_steps: 6, ..ExploreConfig::small() };
        assert_eq!(explore(&cfg).render_json(), explore(&cfg).render_json());
    }
}
