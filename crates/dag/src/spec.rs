//! Immutable job specifications: validated workflow DAGs of phases.

use std::fmt;
use std::sync::Arc;

use ssr_simcore::dist::DynDistribution;
use ssr_simcore::SimTime;

use crate::ids::{Priority, StageId};

/// Error produced when a job specification fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The job declares no phases.
    Empty,
    /// A phase declares zero tasks.
    ZeroParallelism {
        /// The offending phase.
        stage: StageId,
    },
    /// An edge references a phase index that does not exist.
    EdgeOutOfRange {
        /// The out-of-range endpoint.
        stage: u32,
        /// Number of declared phases.
        stages: usize,
    },
    /// An edge connects a phase to itself.
    SelfLoop {
        /// The offending phase.
        stage: StageId,
    },
    /// The dependency graph contains a cycle.
    Cycle,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "job must declare at least one phase"),
            DagError::ZeroParallelism { stage } => {
                write!(f, "{stage} declares zero tasks; parallelism must be at least 1")
            }
            DagError::EdgeOutOfRange { stage, stages } => {
                write!(f, "edge references stage index {stage}, but only {stages} stages exist")
            }
            DagError::SelfLoop { stage } => write!(f, "{stage} depends on itself"),
            DagError::Cycle => write!(f, "phase dependencies form a cycle"),
        }
    }
}

impl std::error::Error for DagError {}

/// One phase of a workflow job: a set of parallel tasks separated from its
/// downstream phases by a barrier.
#[derive(Debug, Clone)]
pub struct StageSpec {
    name: String,
    parallelism: u32,
    duration: DynDistribution,
    parallelism_known: bool,
    demand: u32,
}

impl StageSpec {
    /// Creates a phase with `parallelism` tasks whose intrinsic durations
    /// (in seconds, at best locality) are drawn from `duration`.
    ///
    /// By default the parallelism is *known a priori* to the scheduler
    /// (Algorithm 1, Case-2); see [`StageSpec::with_hidden_parallelism`].
    pub fn new(name: impl Into<String>, parallelism: u32, duration: DynDistribution) -> Self {
        StageSpec {
            name: name.into(),
            parallelism,
            duration,
            parallelism_known: true,
            demand: 1,
        }
    }

    /// Sets the per-task resource demand (§III-C): a task only fits slots
    /// of at least this size. Defaults to 1 (every slot fits).
    pub fn with_demand(mut self, demand: u32) -> Self {
        self.demand = demand;
        self
    }

    /// The per-task resource demand.
    pub fn demand(&self) -> u32 {
        self.demand
    }

    /// Marks the phase's degree of parallelism as *not* known to the
    /// scheduler ahead of time (Algorithm 1, Case-1: frameworks that decide
    /// parallelism at runtime). The simulator still knows the true value;
    /// only the reservation policy is blinded.
    pub fn with_hidden_parallelism(mut self) -> Self {
        self.parallelism_known = false;
        self
    }

    /// The phase name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parallel tasks in the phase.
    pub fn parallelism(&self) -> u32 {
        self.parallelism
    }

    /// The intrinsic task-duration distribution (seconds at best locality).
    pub fn duration(&self) -> &DynDistribution {
        &self.duration
    }

    /// Whether the scheduler may read this phase's parallelism before it
    /// starts (paper §III-B, Case-2).
    pub fn parallelism_known(&self) -> bool {
        self.parallelism_known
    }
}

/// A validated, immutable workflow job specification.
///
/// Construct with [`JobSpecBuilder`]. Cheap to clone (stage table and
/// adjacency are shared).
#[derive(Debug, Clone)]
pub struct JobSpec {
    name: String,
    priority: Priority,
    arrival: SimTime,
    stages: Arc<[StageSpec]>,
    children: Arc<[Vec<StageId>]>,
    parents: Arc<[Vec<StageId>]>,
    topo: Arc<[StageId]>,
}

impl JobSpec {
    /// The job name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scheduling priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The submission time of the job.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// All phases, indexed by [`StageId::index`].
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// The phase with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range for this job.
    pub fn stage(&self, stage: StageId) -> &StageSpec {
        &self.stages[stage.index()]
    }

    /// Immediate downstream phases of `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range for this job.
    pub fn children(&self, stage: StageId) -> &[StageId] {
        &self.children[stage.index()]
    }

    /// Immediate upstream phases of `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range for this job.
    pub fn parents(&self, stage: StageId) -> &[StageId] {
        &self.parents[stage.index()]
    }

    /// Phases with no upstream dependencies (runnable at submission).
    pub fn roots(&self) -> Vec<StageId> {
        self.iter_stage_ids().filter(|&s| self.parents(s).is_empty()).collect()
    }

    /// `true` if `stage` has no downstream phases — Algorithm 1 releases
    /// slots of final phases unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range for this job.
    pub fn is_final(&self, stage: StageId) -> bool {
        self.children(stage).is_empty()
    }

    /// Phases in a topological (execution-plan) order.
    ///
    /// The paper's `DAGScheduler` constructs this plan by backward DFS from
    /// the final vertex; any topological order is equivalent for
    /// scheduling, and ours is deterministic (stable by declaration index).
    pub fn execution_plan(&self) -> &[StageId] {
        &self.topo
    }

    /// Iterator over all stage ids in declaration order.
    pub fn iter_stage_ids(&self) -> impl Iterator<Item = StageId> + '_ {
        (0..self.stages.len() as u32).map(StageId::new)
    }

    /// Total number of tasks across all phases.
    pub fn total_tasks(&self) -> u64 {
        self.stages.iter().map(|s| s.parallelism() as u64).sum()
    }

    /// The combined parallelism of the phases immediately downstream of
    /// `stage` — the `n` of Algorithm 1 — or `None` if any of them hides
    /// its parallelism (Case-1) or if the stage is final.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range for this job.
    pub fn downstream_parallelism(&self, stage: StageId) -> Option<u64> {
        let children = self.children(stage);
        if children.is_empty() {
            return None;
        }
        let mut total = 0u64;
        for &c in children {
            let spec = self.stage(c);
            if !spec.parallelism_known() {
                return None;
            }
            total += spec.parallelism() as u64;
        }
        Some(total)
    }

    /// The largest per-task resource demand among the phases immediately
    /// downstream of `stage` — the "right size" of §III-C — or `None` if
    /// the stage is final.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range for this job.
    pub fn downstream_demand(&self, stage: StageId) -> Option<u32> {
        self.children(stage).iter().map(|&c| self.stage(c).demand()).max()
    }

    /// The length (in phases) of the longest dependency chain.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.stages.len()];
        for &s in self.topo.iter() {
            let d = self
                .parents(s)
                .iter()
                .map(|p| depth[p.index()] + 1)
                .max()
                .unwrap_or(1);
            depth[s.index()] = d.max(1);
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// Builder for [`JobSpec`] that validates the DAG at
/// [`build`](JobSpecBuilder::build) time.
///
/// # Example
///
/// ```
/// use ssr_dag::{JobSpecBuilder, StageId};
/// use ssr_simcore::dist::constant;
///
/// // A diamond: scan fans out to two filters that join.
/// let spec = JobSpecBuilder::new("diamond")
///     .stage("scan", 8, constant(1.0))    // stage 0
///     .stage("filter-a", 4, constant(1.0)) // stage 1
///     .stage("filter-b", 4, constant(1.0)) // stage 2
///     .stage("join", 8, constant(2.0))     // stage 3
///     .edge(0, 1)
///     .edge(0, 2)
///     .edge(1, 3)
///     .edge(2, 3)
///     .build()?;
/// assert_eq!(spec.downstream_parallelism(StageId::new(0)), Some(8));
/// assert!(spec.is_final(StageId::new(3)));
/// # Ok::<(), ssr_dag::DagError>(())
/// ```
#[derive(Debug)]
pub struct JobSpecBuilder {
    name: String,
    priority: Priority,
    arrival: SimTime,
    stages: Vec<StageSpec>,
    edges: Vec<(u32, u32)>,
}

impl JobSpecBuilder {
    /// Starts building a job with the given name, default priority 0 and
    /// arrival at time zero.
    pub fn new(name: impl Into<String>) -> Self {
        JobSpecBuilder {
            name: name.into(),
            priority: Priority::default(),
            arrival: SimTime::ZERO,
            stages: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Sets the scheduling priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the submission time.
    pub fn arrival(mut self, arrival: SimTime) -> Self {
        self.arrival = arrival;
        self
    }

    /// Appends a phase; phases are numbered in declaration order.
    pub fn stage(
        mut self,
        name: impl Into<String>,
        parallelism: u32,
        duration: DynDistribution,
    ) -> Self {
        self.stages.push(StageSpec::new(name, parallelism, duration));
        self
    }

    /// Appends a pre-built phase specification.
    pub fn stage_spec(mut self, stage: StageSpec) -> Self {
        self.stages.push(stage);
        self
    }

    /// Adds a dependency edge: `downstream` may only start after every task
    /// of `upstream` has completed (the barrier).
    pub fn edge(mut self, upstream: u32, downstream: u32) -> Self {
        self.edges.push((upstream, downstream));
        self
    }

    /// Connects all declared phases in a linear pipeline
    /// (`0 -> 1 -> … -> last`), the dominant shape in the paper's
    /// workloads.
    pub fn chain(mut self) -> Self {
        for i in 1..self.stages.len() as u32 {
            self.edges.push((i - 1, i));
        }
        self
    }

    /// Hides the parallelism of every declared phase from the scheduler
    /// (forces Algorithm 1 into Case-1 for the whole job).
    pub fn hide_parallelism(mut self) -> Self {
        for s in &mut self.stages {
            *s = s.clone().with_hidden_parallelism();
        }
        self
    }

    /// Validates and builds the [`JobSpec`].
    ///
    /// # Errors
    ///
    /// Returns a [`DagError`] if the job has no phases, a phase has zero
    /// parallelism, an edge is out of range or a self-loop, or the graph is
    /// cyclic. Duplicate edges are tolerated and deduplicated.
    pub fn build(self) -> Result<JobSpec, DagError> {
        if self.stages.is_empty() {
            return Err(DagError::Empty);
        }
        let n = self.stages.len();
        for (i, s) in self.stages.iter().enumerate() {
            if s.parallelism() == 0 {
                return Err(DagError::ZeroParallelism { stage: StageId::new(i as u32) });
            }
        }
        let mut children: Vec<Vec<StageId>> = vec![Vec::new(); n];
        let mut parents: Vec<Vec<StageId>> = vec![Vec::new(); n];
        for &(u, d) in &self.edges {
            if u as usize >= n {
                return Err(DagError::EdgeOutOfRange { stage: u, stages: n });
            }
            if d as usize >= n {
                return Err(DagError::EdgeOutOfRange { stage: d, stages: n });
            }
            if u == d {
                return Err(DagError::SelfLoop { stage: StageId::new(u) });
            }
            let (us, ds) = (StageId::new(u), StageId::new(d));
            if !children[u as usize].contains(&ds) {
                children[u as usize].push(ds);
                parents[d as usize].push(us);
            }
        }
        for list in children.iter_mut().chain(parents.iter_mut()) {
            list.sort_unstable();
        }

        // Kahn's algorithm, visiting lowest stage index first so the plan is
        // deterministic.
        let mut indegree: Vec<usize> = parents.iter().map(Vec::len).collect();
        let mut queue: Vec<StageId> = (0..n as u32)
            .map(StageId::new)
            .filter(|s| indegree[s.index()] == 0)
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(&s) = queue.iter().min() {
            let pos = queue.iter().position(|&x| x == s).expect("s taken from queue");
            queue.swap_remove(pos);
            topo.push(s);
            for &c in &children[s.index()] {
                indegree[c.index()] -= 1;
                if indegree[c.index()] == 0 {
                    queue.push(c);
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cycle);
        }

        Ok(JobSpec {
            name: self.name,
            priority: self.priority,
            arrival: self.arrival,
            stages: self.stages.into(),
            children: children.into(),
            parents: parents.into(),
            topo: topo.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_simcore::dist::constant;

    fn pipeline(n: usize) -> JobSpec {
        let mut b = JobSpecBuilder::new("p");
        for i in 0..n {
            b = b.stage(format!("s{i}"), 4, constant(1.0));
        }
        b.chain().build().unwrap()
    }

    #[test]
    fn empty_job_rejected() {
        assert_eq!(JobSpecBuilder::new("e").build().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn zero_parallelism_rejected() {
        let err = JobSpecBuilder::new("z").stage("s", 0, constant(1.0)).build().unwrap_err();
        assert_eq!(err, DagError::ZeroParallelism { stage: StageId::new(0) });
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let err = JobSpecBuilder::new("o")
            .stage("s", 1, constant(1.0))
            .edge(0, 5)
            .build()
            .unwrap_err();
        assert_eq!(err, DagError::EdgeOutOfRange { stage: 5, stages: 1 });
    }

    #[test]
    fn self_loop_rejected() {
        let err = JobSpecBuilder::new("l")
            .stage("s", 1, constant(1.0))
            .edge(0, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, DagError::SelfLoop { stage: StageId::new(0) });
    }

    #[test]
    fn cycle_rejected() {
        let err = JobSpecBuilder::new("c")
            .stage("a", 1, constant(1.0))
            .stage("b", 1, constant(1.0))
            .edge(0, 1)
            .edge(1, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, DagError::Cycle);
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let spec = JobSpecBuilder::new("d")
            .stage("a", 2, constant(1.0))
            .stage("b", 2, constant(1.0))
            .edge(0, 1)
            .edge(0, 1)
            .build()
            .unwrap();
        assert_eq!(spec.children(StageId::new(0)).len(), 1);
        assert_eq!(spec.parents(StageId::new(1)).len(), 1);
    }

    #[test]
    fn chain_builds_linear_pipeline() {
        let spec = pipeline(4);
        assert_eq!(spec.roots(), vec![StageId::new(0)]);
        assert!(spec.is_final(StageId::new(3)));
        assert!(!spec.is_final(StageId::new(0)));
        assert_eq!(spec.depth(), 4);
        assert_eq!(spec.total_tasks(), 16);
    }

    #[test]
    fn execution_plan_is_topological() {
        let spec = JobSpecBuilder::new("d")
            .stage("scan", 4, constant(1.0))
            .stage("fa", 2, constant(1.0))
            .stage("fb", 2, constant(1.0))
            .stage("join", 4, constant(1.0))
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 3)
            .edge(2, 3)
            .build()
            .unwrap();
        let plan = spec.execution_plan();
        let pos = |s: StageId| plan.iter().position(|&x| x == s).unwrap();
        for s in spec.iter_stage_ids() {
            for &c in spec.children(s) {
                assert!(pos(s) < pos(c), "{s} must precede {c}");
            }
        }
    }

    #[test]
    fn downstream_parallelism_sums_children() {
        let spec = JobSpecBuilder::new("d")
            .stage("a", 4, constant(1.0))
            .stage("b", 3, constant(1.0))
            .stage("c", 5, constant(1.0))
            .edge(0, 1)
            .edge(0, 2)
            .build()
            .unwrap();
        assert_eq!(spec.downstream_parallelism(StageId::new(0)), Some(8));
        assert_eq!(spec.downstream_parallelism(StageId::new(1)), None); // final
    }

    #[test]
    fn hidden_parallelism_yields_unknown_downstream() {
        let spec = JobSpecBuilder::new("h")
            .stage("a", 4, constant(1.0))
            .stage_spec(StageSpec::new("b", 4, constant(1.0)).with_hidden_parallelism())
            .chain()
            .build()
            .unwrap();
        assert_eq!(spec.downstream_parallelism(StageId::new(0)), None);
        assert!(!spec.stage(StageId::new(1)).parallelism_known());
    }

    #[test]
    fn hide_parallelism_blinds_all_stages() {
        let spec = JobSpecBuilder::new("h")
            .stage("a", 2, constant(1.0))
            .stage("b", 2, constant(1.0))
            .chain()
            .hide_parallelism()
            .build()
            .unwrap();
        assert!(spec.stages().iter().all(|s| !s.parallelism_known()));
    }

    #[test]
    fn multi_root_dag() {
        let spec = JobSpecBuilder::new("m")
            .stage("a", 1, constant(1.0))
            .stage("b", 1, constant(1.0))
            .stage("join", 1, constant(1.0))
            .edge(0, 2)
            .edge(1, 2)
            .build()
            .unwrap();
        assert_eq!(spec.roots(), vec![StageId::new(0), StageId::new(1)]);
        assert_eq!(spec.depth(), 2);
        assert_eq!(spec.parents(StageId::new(2)).len(), 2);
    }

    #[test]
    fn demands_default_and_propagate() {
        let spec = JobSpecBuilder::new("d")
            .stage("small", 4, constant(1.0))
            .stage_spec(StageSpec::new("big", 2, constant(1.0)).with_demand(4))
            .chain()
            .build()
            .unwrap();
        assert_eq!(spec.stage(StageId::new(0)).demand(), 1);
        assert_eq!(spec.stage(StageId::new(1)).demand(), 4);
        assert_eq!(spec.downstream_demand(StageId::new(0)), Some(4));
        assert_eq!(spec.downstream_demand(StageId::new(1)), None);
    }

    #[test]
    fn downstream_demand_takes_max_over_children() {
        let spec = JobSpecBuilder::new("d")
            .stage("root", 2, constant(1.0))
            .stage_spec(StageSpec::new("a", 1, constant(1.0)).with_demand(2))
            .stage_spec(StageSpec::new("b", 1, constant(1.0)).with_demand(5))
            .edge(0, 1)
            .edge(0, 2)
            .build()
            .unwrap();
        assert_eq!(spec.downstream_demand(StageId::new(0)), Some(5));
    }

    #[test]
    fn error_display_messages() {
        assert!(format!("{}", DagError::Empty).contains("at least one"));
        assert!(format!("{}", DagError::Cycle).contains("cycle"));
        assert!(
            format!("{}", DagError::ZeroParallelism { stage: StageId::new(1) }).contains("stage-1")
        );
    }

    #[test]
    fn builder_metadata_propagates() {
        let spec = JobSpecBuilder::new("meta")
            .priority(Priority::new(7))
            .arrival(SimTime::from_secs(30))
            .stage("only", 2, constant(1.0))
            .build()
            .unwrap();
        assert_eq!(spec.name(), "meta");
        assert_eq!(spec.priority(), Priority::new(7));
        assert_eq!(spec.arrival(), SimTime::from_secs(30));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use ssr_simcore::dist::constant;

    proptest! {
        /// Random forward-only edge sets always validate, and the plan is a
        /// topological order.
        #[test]
        fn forward_edges_always_acyclic(
            n in 1usize..12,
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
        ) {
            let mut b = JobSpecBuilder::new("prop");
            for i in 0..n {
                b = b.stage(format!("s{i}"), 1, constant(1.0));
            }
            // Orient every in-range pair low -> high: guaranteed acyclic.
            for (a, d) in edges {
                let (a, d) = (a % n as u32, d % n as u32);
                if a < d {
                    b = b.edge(a, d);
                }
            }
            let spec = b.build().expect("forward-only DAG must validate");
            let plan = spec.execution_plan();
            prop_assert_eq!(plan.len(), n);
            let pos = |s: StageId| plan.iter().position(|&x| x == s).unwrap();
            for s in spec.iter_stage_ids() {
                for &c in spec.children(s) {
                    prop_assert!(pos(s) < pos(c));
                }
            }
        }

        /// children/parents are mutually consistent on random DAGs.
        #[test]
        fn adjacency_is_symmetric(
            n in 1usize..10,
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..30),
        ) {
            let mut b = JobSpecBuilder::new("sym");
            for i in 0..n {
                b = b.stage(format!("s{i}"), 1, constant(1.0));
            }
            for (a, d) in edges {
                let (a, d) = (a % n as u32, d % n as u32);
                if a < d {
                    b = b.edge(a, d);
                }
            }
            let spec = b.build().unwrap();
            for s in spec.iter_stage_ids() {
                for &c in spec.children(s) {
                    prop_assert!(spec.parents(c).contains(&s));
                }
                for &p in spec.parents(s) {
                    prop_assert!(spec.children(p).contains(&s));
                }
            }
        }
    }
}
