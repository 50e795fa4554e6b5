//! Command-line option parsing for `ssr-cli run` (dependency-free).

use std::fmt;

use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_dag::Priority;
use ssr_scheduler::SpeculationConfig;
use ssr_sim::{FaultKind, FaultPlan, OrderConfig, PolicyConfig};
use ssr_simcore::SimDuration;

/// Error produced when command-line options cannot be parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct OptError(pub String);

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid option: {}", self.0)
    }
}

impl std::error::Error for OptError {}

fn err(msg: impl Into<String>) -> OptError {
    OptError(msg.into())
}

/// Parsed options of the `run` subcommand.
#[derive(Debug)]
pub struct RunOptions {
    /// The cluster topology.
    pub cluster: ClusterSpec,
    /// Locality model (wait + ANY slowdown).
    pub locality: LocalityModel,
    /// Reservation policy.
    pub policy: PolicyConfig,
    /// Job order.
    pub order: OrderConfig,
    /// RNG seed.
    pub seed: u64,
    /// Foreground workload specs (measured; get run-alone baselines).
    pub foreground: Vec<String>,
    /// Background workload specs (load only).
    pub background: Vec<String>,
    /// Enable status-quo progress-based speculation.
    pub speculation: Option<SpeculationConfig>,
    /// Deterministic fault schedule injected into the contended run
    /// (run-alone baselines always run fault-free).
    pub faults: FaultPlan,
    /// Emit the full report as JSON instead of tables.
    pub json: bool,
    /// Worker threads for the parallel trial runner (`None` = `SSR_JOBS`
    /// or the machine's available parallelism).
    pub jobs: Option<usize>,
    /// Write a JSONL decision trace of the contended run to this path.
    pub trace: Option<String>,
    /// Also trace each foreground job's run-alone baseline, writing one
    /// `PREFIX-<job>.jsonl` per job (for `ssr-cli explain --alone`).
    pub trace_alone: Option<String>,
    /// Print an aggregated scheduling-metrics report after the run.
    pub metrics: bool,
    /// Print the deterministic work-counter report after the run (text,
    /// or sorted-key JSON under `--json`). Counters are always collected;
    /// the flag only controls the extra output.
    pub counters: bool,
    /// Attach a wall-clock span profiler to the contended run and print
    /// the flamegraph-style span tree to stderr (non-deterministic
    /// plane).
    pub profile: bool,
    /// Emit a stderr progress heartbeat during the run (non-deterministic
    /// plane).
    pub progress: bool,
}

impl RunOptions {
    /// Parses the arguments following `run`.
    ///
    /// # Errors
    ///
    /// Returns [`OptError`] on unknown flags, missing values or malformed
    /// parameters.
    pub fn parse(args: &[String]) -> Result<RunOptions, OptError> {
        let mut cluster_str = "4x2".to_owned();
        let mut sizing: Option<(u32, u32, u32)> = None;
        let mut racks: Option<u32> = None;
        let mut wait = 3.0f64;
        let mut any_slowdown = 5.0f64;
        let mut policy_str = "ssr".to_owned();
        let mut isolation = 1.0f64;
        let mut prereserve = 0.5f64;
        let mut stragglers = false;
        let mut order = OrderConfig::FifoPriority;
        let mut seed = 0u64;
        let mut foreground = Vec::new();
        let mut background = Vec::new();
        let mut speculation = None;
        let mut faults = FaultPlan::new();
        let mut json = false;
        let mut jobs = None;
        let mut trace = None;
        let mut trace_alone = None;
        let mut metrics = false;
        let mut counters = false;
        let mut profile = false;
        let mut progress = false;

        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| -> Result<String, OptError> {
                it.next().cloned().ok_or_else(|| err(format!("{name} requires a value")))
            };
            match arg.as_str() {
                "--cluster" => cluster_str = value("--cluster")?,
                "--racks" => {
                    racks =
                        Some(value("--racks")?.parse().map_err(|_| err("--racks wants a number"))?)
                }
                "--sizing" => {
                    let v = value("--sizing")?;
                    let parts: Vec<u32> = v
                        .split(',')
                        .map(|p| p.parse().map_err(|_| err(format!("bad --sizing: {v}"))))
                        .collect::<Result<_, _>>()?;
                    if parts.len() != 3 {
                        return Err(err("--sizing wants small,large,every"));
                    }
                    sizing = Some((parts[0], parts[1], parts[2]));
                }
                "--locality-wait" => {
                    wait =
                        non_negative(&value("--locality-wait")?, "--locality-wait wants seconds")?
                }
                "--any-slowdown" => {
                    any_slowdown =
                        non_negative(&value("--any-slowdown")?, "--any-slowdown wants a factor")?
                }
                "--policy" => policy_str = value("--policy")?,
                "--isolation" => {
                    isolation = value("--isolation")?
                        .parse()
                        .map_err(|_| err("--isolation wants a probability"))?
                }
                "--prereserve" => {
                    prereserve = value("--prereserve")?
                        .parse()
                        .map_err(|_| err("--prereserve wants a fraction"))?
                }
                "--stragglers" => stragglers = true,
                "--order" => {
                    order = match value("--order")?.as_str() {
                        "fifo-priority" => OrderConfig::FifoPriority,
                        "fair" => OrderConfig::Fair,
                        "fifo" => OrderConfig::Fifo,
                        other => return Err(err(format!("unknown --order {other}"))),
                    }
                }
                "--seed" => {
                    seed = value("--seed")?.parse().map_err(|_| err("--seed wants a number"))?
                }
                "--fg" => foreground.push(value("--fg")?),
                "--bg" => background.push(value("--bg")?),
                "--speculation" => speculation = Some(SpeculationConfig::spark_defaults()),
                "--faults" => faults = FaultPlan::parse(&value("--faults")?).map_err(err)?,
                "--json" => json = true,
                "--jobs" => {
                    jobs = Some(
                        value("--jobs")?.parse().map_err(|_| err("--jobs wants a thread count"))?,
                    )
                }
                "--trace" => trace = Some(value("--trace")?),
                "--trace-alone" => trace_alone = Some(value("--trace-alone")?),
                "--metrics" => metrics = true,
                "--counters" => counters = true,
                "--profile" => profile = true,
                "--progress" => progress = true,
                other => return Err(err(format!("unknown flag {other}"))),
            }
        }

        let (nodes, slots) = cluster_str
            .split_once('x')
            .ok_or_else(|| err(format!("--cluster wants NxS, got {cluster_str}")))?;
        let nodes: u32 = nodes.parse().map_err(|_| err("bad node count"))?;
        let slots: u32 = slots.parse().map_err(|_| err("bad slots-per-node"))?;
        let mut cluster = match racks {
            Some(r) => ClusterSpec::with_racks(nodes, slots, r),
            None => ClusterSpec::new(nodes, slots),
        }
        .map_err(|e| err(format!("bad cluster: {e}")))?;
        if let Some((small, large, every)) = sizing {
            if !(small >= 1 && large >= small && every >= 1) {
                return Err(err("--sizing wants 1 <= small <= large and every >= 1"));
            }
            cluster = cluster.with_slot_sizing(small, large, every);
        }
        for event in faults.events() {
            let (what, index, bound) = match event.kind {
                FaultKind::NodeCrash { node, .. }
                | FaultKind::NetworkPartition { node, .. }
                | FaultKind::ExecutorRestart { node, .. } => ("node", node, cluster.nodes()),
                FaultKind::SlotRevocation { slot } => ("slot", slot, cluster.total_slots()),
                FaultKind::StragglerStorm { .. } => continue,
            };
            if index >= bound {
                let msg = format!("--faults {what}={index} is outside the {bound}-{what} cluster");
                return Err(err(msg));
            }
        }

        let locality = LocalityModel::paper_simulation()
            .with_wait(SimDuration::from_secs_f64(wait))
            .with_any_slowdown(any_slowdown);

        let policy = match policy_str.as_str() {
            "work-conserving" | "wc" => PolicyConfig::WorkConserving,
            "ssr" => {
                let config = ssr_core::SsrConfig::builder()
                    .isolation_target(isolation)
                    .prereserve_threshold(prereserve)
                    .mitigate_stragglers(stragglers)
                    .build()
                    .map_err(|e| err(format!("bad SSR parameters: {e}")))?;
                PolicyConfig::Ssr(config)
            }
            s if s.starts_with("timeout:") => {
                let secs = non_negative(&s["timeout:".len()..], "timeout:SECS wants seconds")?;
                PolicyConfig::Timeout(SimDuration::from_secs_f64(secs))
            }
            s if s.starts_with("static:") => {
                let rest = &s["static:".len()..];
                let (count, class) = rest
                    .split_once(',')
                    .ok_or_else(|| err("static:COUNT,PRIO wanted"))?;
                PolicyConfig::Static {
                    count: count.parse().map_err(|_| err("bad static count"))?,
                    class: Priority::new(class.parse().map_err(|_| err("bad static prio"))?),
                }
            }
            other => {
                return Err(err(format!(
                    "unknown --policy {other}; known: work-conserving ssr timeout:SECS static:COUNT,PRIO"
                )))
            }
        };

        Ok(RunOptions {
            cluster,
            locality,
            policy,
            order,
            seed,
            foreground,
            background,
            speculation,
            faults,
            json,
            jobs,
            trace,
            trace_alone,
            metrics,
            counters,
            profile,
            progress,
        })
    }
}

/// Parses a finite, non-negative real; `what` names the expectation.
fn non_negative(value: &str, what: &str) -> Result<f64, OptError> {
    match value.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err(err(format!("{what} (finite, non-negative), got {value}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOptions, OptError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        RunOptions::parse(&owned)
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.cluster.total_slots(), 8);
        assert_eq!(o.policy, PolicyConfig::ssr_strict());
        assert_eq!(o.order, OrderConfig::FifoPriority);
        assert_eq!(o.seed, 0);
        assert!(!o.json);
        assert!(o.speculation.is_none());
        assert!(o.faults.is_empty());
        assert_eq!(o.jobs, None);
        assert_eq!(o.trace, None);
        assert_eq!(o.trace_alone, None);
        assert!(!o.metrics);
        assert!(!o.counters);
        assert!(!o.profile);
        assert!(!o.progress);
    }

    #[test]
    fn negative_or_non_finite_reals_are_rejected() {
        for args in [
            ["--locality-wait", "-1"],
            ["--locality-wait", "nan"],
            ["--any-slowdown", "-2"],
            ["--any-slowdown", "inf"],
            ["--policy", "timeout:-1"],
            ["--policy", "timeout:nan"],
        ] {
            let e = parse(&args).expect_err("must be rejected");
            assert!(e.to_string().contains("finite, non-negative"), "{args:?}: {e}");
        }
    }

    #[test]
    fn faults_outside_the_cluster_are_rejected() {
        for spec in ["crash:node=2,at=1", "revoke:slot=4,at=1", "partition:node=9,at=1,secs=1"] {
            let e = parse(&["--cluster", "2x2", "--faults", spec]).expect_err(spec);
            assert!(e.to_string().contains("outside the"), "{spec}: {e}");
        }
        assert!(parse(&["--cluster", "2x2", "--faults", "crash:node=1,at=1;revoke:slot=3,at=1"])
            .is_ok());
    }

    #[test]
    fn perf_flags() {
        let o = parse(&["--counters", "--profile", "--progress"]).unwrap();
        assert!(o.counters);
        assert!(o.profile);
        assert!(o.progress);
    }

    #[test]
    fn trace_and_metrics_flags() {
        let o = parse(&["--trace", "out.jsonl", "--metrics", "--trace-alone", "alone"]).unwrap();
        assert_eq!(o.trace.as_deref(), Some("out.jsonl"));
        assert_eq!(o.trace_alone.as_deref(), Some("alone"));
        assert!(o.metrics);
        assert!(parse(&["--trace"]).is_err(), "missing value");
        assert!(parse(&["--trace-alone"]).is_err(), "missing value");
    }

    #[test]
    fn jobs_flag() {
        assert_eq!(parse(&["--jobs", "4"]).unwrap().jobs, Some(4));
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--jobs"]).is_err(), "missing value");
    }

    #[test]
    fn cluster_and_sizing() {
        let o = parse(&["--cluster", "10x4", "--racks", "5", "--sizing", "1,4,4"]).unwrap();
        assert_eq!(o.cluster.total_slots(), 40);
        assert_eq!(o.cluster.racks(), 2);
        assert_eq!(o.cluster.max_slot_size(), 4);
        assert!(parse(&["--cluster", "bad"]).is_err());
        assert!(parse(&["--sizing", "4,1,1"]).is_err());
        assert!(parse(&["--sizing", "1,2"]).is_err());
    }

    #[test]
    fn policies() {
        assert_eq!(parse(&["--policy", "wc"]).unwrap().policy, PolicyConfig::WorkConserving);
        let t = parse(&["--policy", "timeout:30"]).unwrap().policy;
        assert_eq!(t, PolicyConfig::Timeout(SimDuration::from_secs(30)));
        let s = parse(&["--policy", "static:8,10"]).unwrap().policy;
        assert_eq!(s, PolicyConfig::Static { count: 8, class: Priority::new(10) });
        let ssr = parse(&["--policy", "ssr", "--isolation", "0.4", "--stragglers"])
            .unwrap()
            .policy;
        match ssr {
            PolicyConfig::Ssr(c) => {
                assert_eq!(c.isolation_target(), 0.4);
                assert!(c.mitigate_stragglers());
            }
            other => panic!("expected ssr, got {other:?}"),
        }
        assert!(parse(&["--policy", "nope"]).is_err());
        assert!(parse(&["--isolation", "7"]).is_err());
    }

    #[test]
    fn workloads_and_flags() {
        let o = parse(&[
            "--fg",
            "kmeans:par=8",
            "--fg",
            "svm",
            "--bg",
            "google:jobs=10",
            "--order",
            "fair",
            "--seed",
            "42",
            "--json",
            "--speculation",
        ])
        .unwrap();
        assert_eq!(o.foreground.len(), 2);
        assert_eq!(o.background.len(), 1);
        assert_eq!(o.order, OrderConfig::Fair);
        assert_eq!(o.seed, 42);
        assert!(o.json);
        assert!(o.speculation.is_some());
    }

    #[test]
    fn faults_flag() {
        let o = parse(&["--faults", "crash:node=0,at=30,down=10;revoke:slot=2,at=5"]).unwrap();
        assert_eq!(o.faults.events().len(), 2);
        assert!(parse(&["--faults"]).is_err(), "missing value");
        let e = parse(&["--faults", "meteor:at=1"]).unwrap_err();
        assert!(e.0.contains("unknown fault kind"), "{e}");
    }

    #[test]
    fn unknown_flag_rejected() {
        let e = parse(&["--bogus"]).unwrap_err();
        assert!(e.0.contains("unknown flag"));
        assert!(parse(&["--seed"]).is_err(), "missing value");
    }

    #[test]
    fn locality_flags() {
        let o = parse(&["--locality-wait", "0", "--any-slowdown", "10"]).unwrap();
        assert_eq!(o.locality.wait(), SimDuration::ZERO);
        assert_eq!(
            o.locality.mean_slowdown(ssr_cluster::LocalityLevel::Any),
            Some(10.0)
        );
    }
}
