//! Deterministic fault plans for the SSR simulator.
//!
//! A [`FaultPlan`] is a fixed, explicit list of timestamped [`FaultEvent`]s
//! that the simulation injects into a run: node crashes, single-slot
//! revocations, offer-delaying network partitions, cluster-wide straggler
//! storms, and executor restarts with a cold ramp-up window. The plan is
//! data, not randomness: it draws nothing from the trial RNG stream, so a
//! run with an **empty** plan is byte-identical to a run built before this
//! crate existed, and a run with a non-empty plan is still a pure function
//! of (workload, seed, plan).
//!
//! Fault semantics (enforced by `ssr-sim` / the scheduler recovery paths):
//!
//! - [`FaultKind::NodeCrash`] — every slot on the node goes offline; running
//!   instances are killed (`task-crashed`) and their partitions re-queued,
//!   reservations are forcibly released (`reservation-revoked`). With a
//!   `down` duration the node later rejoins (`slot-online`).
//! - [`FaultKind::SlotRevocation`] — one slot is permanently taken away
//!   (e.g. preempted by another tenant); same kill/revoke semantics.
//! - [`FaultKind::NetworkPartition`] — the node stops receiving offers and
//!   pre-reservation fills for `secs`; running instances keep running and
//!   may finish during the partition, but their slots stay out of service
//!   until it heals. Idle reservations on the node are revoked (the master
//!   cannot refresh their leases).
//! - [`FaultKind::StragglerStorm`] — every task *dispatched* during the
//!   window runs `factor`× longer than its sampled duration.
//! - [`FaultKind::ExecutorRestart`] — crash semantics, then the node
//!   rejoins after `down` seconds; tasks dispatched onto it within the
//!   `rampup` window after rejoin run `cold_factor`× slower (cold caches).
//!
//! The plan's invariant surface is checked by `ssr-check`: no double-grant,
//! no reservation outliving its owner, fill-order preserved across
//! recovery, and per-job running-count conservation.

#![warn(missing_docs)]

use ssr_simcore::{SimDuration, SimTime};

/// What goes wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A whole node drops out of the cluster, killing its running tasks.
    NodeCrash {
        /// The node (index into the cluster spec) that crashes.
        node: u32,
        /// How long the node stays down; `None` means it never returns.
        down: Option<SimDuration>,
    },
    /// A single slot is permanently revoked (external preemption).
    SlotRevocation {
        /// The revoked slot index.
        slot: u32,
    },
    /// A node is unreachable for offers for a bounded window; running tasks
    /// survive but the node's slots stay out of service until it heals.
    NetworkPartition {
        /// The partitioned node.
        node: u32,
        /// Partition length.
        secs: SimDuration,
    },
    /// Cluster-wide slowdown: tasks dispatched during the window take
    /// `factor`× their sampled duration.
    StragglerStorm {
        /// Duration multiplier (> 1 slows tasks down).
        factor: f64,
        /// Storm length.
        secs: SimDuration,
    },
    /// A node's executor restarts: crash, rejoin after `down`, and run cold
    /// for a ramp-up window.
    ExecutorRestart {
        /// The restarting node.
        node: u32,
        /// Outage length before the node rejoins.
        down: SimDuration,
        /// Window after rejoin during which dispatches run cold.
        rampup: SimDuration,
        /// Duration multiplier for cold dispatches.
        cold_factor: f64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Simulated time at which the fault strikes.
    pub at: SimTime,
    /// The fault itself.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults for one run.
///
/// The default plan is empty; an empty plan injects no events and leaves
/// simulation output byte-identical to a fault-free build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scheduled faults, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a fault to the plan (builder style).
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.push(at, kind);
        self
    }

    /// Adds a fault to the plan.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
    }

    /// Parses the `--faults` CLI spec: `;`-separated fault clauses, each
    /// `kind:key=value,...`. Recognised clauses:
    ///
    /// ```text
    /// crash:node=N,at=SECS[,down=SECS]
    /// revoke:slot=N,at=SECS
    /// partition:node=N,at=SECS,secs=SECS
    /// storm:at=SECS,secs=SECS,factor=F
    /// restart:node=N,at=SECS,down=SECS,rampup=SECS,cold=F
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, rest) = clause
                .split_once(':')
                .ok_or_else(|| format!("fault clause `{clause}` missing `kind:`"))?;
            let mut at = None;
            let mut node = None;
            let mut slot = None;
            let mut secs = None;
            let mut down = None;
            let mut rampup = None;
            let mut factor = None;
            let mut cold = None;
            for pair in rest.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("fault arg `{pair}` is not key=value"))?;
                match key {
                    "node" => node = Some(index_arg(pair, value)?),
                    "slot" => slot = Some(index_arg(pair, value)?),
                    "at" => at = Some(non_negative_arg(pair, value)?),
                    "secs" => secs = Some(non_negative_arg(pair, value)?),
                    "down" => down = Some(non_negative_arg(pair, value)?),
                    "rampup" => rampup = Some(non_negative_arg(pair, value)?),
                    "factor" => factor = Some(non_negative_arg(pair, value)?),
                    "cold" => cold = Some(non_negative_arg(pair, value)?),
                    other => return Err(format!("unknown fault arg `{other}` in `{clause}`")),
                }
            }
            let missing = |name: &str| format!("fault clause `{clause}` missing {name}=");
            let at = SimTime::from_secs_f64(at.ok_or_else(|| missing("at"))?);
            let secs_of = |opt: Option<f64>, name: &str| {
                opt.map(SimDuration::from_secs_f64).ok_or_else(|| missing(name))
            };
            let kind = match kind {
                "crash" => FaultKind::NodeCrash {
                    node: node.ok_or_else(|| missing("node"))?,
                    down: down.map(SimDuration::from_secs_f64),
                },
                "revoke" => {
                    FaultKind::SlotRevocation { slot: slot.ok_or_else(|| missing("slot"))? }
                }
                "partition" => FaultKind::NetworkPartition {
                    node: node.ok_or_else(|| missing("node"))?,
                    secs: secs_of(secs, "secs")?,
                },
                "storm" => FaultKind::StragglerStorm {
                    factor: factor.ok_or_else(|| missing("factor"))?,
                    secs: secs_of(secs, "secs")?,
                },
                "restart" => FaultKind::ExecutorRestart {
                    node: node.ok_or_else(|| missing("node"))?,
                    down: secs_of(down, "down")?,
                    rampup: secs_of(rampup, "rampup")?,
                    cold_factor: cold.ok_or_else(|| missing("cold"))?,
                },
                other => {
                    return Err(format!(
                        "unknown fault kind `{other}` (expected crash|revoke|partition|storm|restart)"
                    ))
                }
            };
            plan.push(at, kind);
        }
        Ok(plan)
    }
}

/// A node or slot index: a non-negative integer that fits in `u32`.
fn index_arg(pair: &str, value: &str) -> Result<u32, String> {
    value
        .parse()
        .map_err(|_| format!("fault arg `{pair}`: `{value}` is not a non-negative integer index"))
}

/// A time in seconds or a duration multiplier: finite and non-negative.
fn non_negative_arg(pair: &str, value: &str) -> Result<f64, String> {
    let num: f64 = value
        .parse()
        .map_err(|_| format!("fault arg `{pair}`: `{value}` is not a number"))?;
    if num.is_finite() && num >= 0.0 {
        Ok(num)
    } else {
        Err(format!("fault arg `{pair}`: `{value}` must be finite and non-negative"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_default() {
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::new(), FaultPlan::default());
        assert!(FaultPlan::parse("").expect("empty spec parses").is_empty());
        assert!(FaultPlan::parse(" ; ").expect("blank clauses parse").is_empty());
    }

    #[test]
    fn parses_every_kind() {
        let plan = FaultPlan::parse(
            "crash:node=1,at=30;revoke:slot=3,at=10;partition:node=0,at=20,secs=15;\
             storm:at=40,secs=20,factor=3;restart:node=1,at=50,down=10,rampup=5,cold=2.5",
        )
        .expect("full spec parses");
        assert_eq!(plan.events().len(), 5);
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at: SimTime::from_secs_f64(30.0),
                kind: FaultKind::NodeCrash { node: 1, down: None },
            }
        );
        assert_eq!(
            plan.events()[4].kind,
            FaultKind::ExecutorRestart {
                node: 1,
                down: SimDuration::from_secs_f64(10.0),
                rampup: SimDuration::from_secs_f64(5.0),
                cold_factor: 2.5,
            }
        );
    }

    #[test]
    fn crash_with_down_heals() {
        let plan = FaultPlan::parse("crash:node=0,at=5,down=7").expect("parses");
        assert_eq!(
            plan.events()[0].kind,
            FaultKind::NodeCrash { node: 0, down: Some(SimDuration::from_secs_f64(7.0)) }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "crash",                      // no args
            "crash:node=0",               // missing at
            "crash:at=5",                 // missing node
            "meteor:at=1",                // unknown kind
            "crash:node=0,at=x",          // non-numeric
            "crash:node=0,at=5,flux=1",   // unknown key
            "storm:at=1,secs=2",          // missing factor
            "restart:node=0,at=1,down=2", // missing rampup/cold
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    fn rejection(spec: &str) -> String {
        FaultPlan::parse(spec).expect_err("spec must be rejected")
    }

    #[test]
    fn negative_crash_time_is_rejected() {
        assert!(rejection("crash:node=0,at=-5").contains("`at=-5`"));
    }

    #[test]
    fn negative_down_is_rejected() {
        assert!(rejection("crash:node=0,at=5,down=-2").contains("`down=-2`"));
    }

    #[test]
    fn negative_partition_secs_is_rejected() {
        assert!(rejection("partition:node=0,at=5,secs=-3").contains("`secs=-3`"));
    }

    #[test]
    fn negative_rampup_is_rejected() {
        let e = rejection("restart:node=0,at=5,down=1,rampup=-1,cold=2");
        assert!(e.contains("`rampup=-1`"), "{e}");
    }

    #[test]
    fn non_finite_times_are_rejected() {
        for spec in ["crash:node=0,at=nan", "crash:node=0,at=inf", "crash:node=0,at=1,down=inf"] {
            assert!(rejection(spec).contains("finite and non-negative"), "{spec}");
        }
    }

    #[test]
    fn negative_node_is_rejected() {
        assert!(rejection("crash:node=-1,at=5").contains("`node=-1`"));
    }

    #[test]
    fn fractional_node_is_rejected() {
        assert!(rejection("crash:node=1.5,at=5").contains("`node=1.5`"));
        assert!(rejection("revoke:slot=0.5,at=5").contains("`slot=0.5`"));
    }

    #[test]
    fn builder_and_parse_agree() {
        let built = FaultPlan::new()
            .with(SimTime::from_secs_f64(10.0), FaultKind::SlotRevocation { slot: 2 });
        let parsed = FaultPlan::parse("revoke:slot=2,at=10").expect("parses");
        assert_eq!(built, parsed);
    }
}
