//! The benchmark's workloads and the loop that measures them.
//!
//! Every workload has the same shape: inputs are generated once from the
//! workload seed (set-up), then whole *passes* over those inputs run
//! until the run's time budget is spent. An untraced pass calls the
//! engine's own entry points and gives the end-to-end numbers; a traced
//! pass re-runs the same simulations through the replica loop with
//! timing decorators attached and gives the per-layer numbers.

pub mod fig15;
pub mod paper_scale;
pub mod traced_faults;

use std::collections::BTreeMap;
use std::time::Instant;

use crate::layers::{Layers, Metric};
use crate::ledger::{Ledger, OpTime};
use crate::measure::{clock_read_ns, median, ratio, reference_secs, REFERENCE_SECS};

/// One benchmark workload.
pub trait Workload {
    /// Inputs generated from the seed.
    type Input;
    /// What the traced pass checks the replica against: the outputs of
    /// one untraced pass.
    type Reference;

    /// Set-up repeats per run: enough for about 0.1 s of set-up, so the
    /// fastest repeat is steady.
    const SETUP_REPEATS: usize;

    /// Generates the inputs for `seed`.
    fn generate(seed: u64) -> Self::Input;

    /// Runs one untraced pass, recording each operation in `ledger`, and
    /// returns the number of task assignments it made (plus the outputs,
    /// if `keep`).
    fn untraced(
        input: &Self::Input,
        ledger: &mut Ledger,
        keep: bool,
    ) -> (u64, Option<Self::Reference>);

    /// Runs one traced pass, timing each layer into `layers` and checking
    /// the replica against `reference`.
    fn traced(
        input: &Self::Input,
        reference: &Self::Reference,
        ledger: &mut Ledger,
        layers: &mut Layers,
    );
}

/// The options of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Time budget of the measured phase, in seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Collect output digests instead of checking them.
    pub record_pins: bool,
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct RunResult {
    /// Operation accounting, and the pin file if recording.
    pub ledger: Ledger,
    /// The reported metrics: end-to-end without tracing, per-layer with.
    pub metrics: Vec<Metric>,
    /// Wall seconds of each untraced pass, then of each traced pass.
    pub pass_walls: (Vec<f64>, Vec<f64>),
    /// Cost of one clock read, in nanoseconds.
    pub clock_ns: f64,
}

/// Sets up `W` and measures it as `opts` asks.
pub fn drive<W: Workload>(opts: RunOptions) -> RunResult {
    let mut ledger = Ledger::new(opts.seed, opts.record_pins);
    let clock_ns = clock_read_ns();

    let mut setup_secs = Vec::with_capacity(W::SETUP_REPEATS);
    let mut input = None;
    let reference_before = reference_secs();
    for _ in 0..W::SETUP_REPEATS {
        // Drop the previous inputs first, so every repeat allocates alike.
        drop(input.take());
        let started = Instant::now();
        input = Some(W::generate(opts.seed));
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");
    let speed = REFERENCE_SECS * 2.0 / (reference_before + reference_secs());
    let setup_s = setup_secs.iter().copied().fold(f64::INFINITY, f64::min) * speed;

    let started = Instant::now();
    let mut untraced = Passes::default();
    let mut traced = Passes::default();
    let mut assignments;
    let mut samples: Vec<Vec<Metric>> = Vec::new();
    let mut reference = None;
    loop {
        let (assigned, kept) = W::untraced(&input, &mut ledger, opts.trace && reference.is_none());
        assignments = assigned;
        untraced.add(ledger.take_pass());
        if kept.is_some() {
            reference = kept;
        }
        if opts.trace {
            if let Some(reference) = reference.as_ref() {
                let mut layers = Layers::default();
                W::traced(&input, reference, &mut ledger, &mut layers);
                traced.add(ledger.take_pass());
                samples.push(layers.metrics(clock_ns));
            }
        }
        // Untraced runs take at least two passes, so every operation has
        // a fastest time to choose from even when a pass outlasts the
        // budget.
        let enough = opts.trace || untraced.walls.len() >= 2;
        if enough && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let wall_s = untraced.best_wall();
    let metrics = if opts.trace {
        let mut metrics = median_metrics(&samples);
        metrics.push(("workload.generate.ms", setup_s * 1e3, "ms"));
        metrics.push((
            "traced_overhead_ratio",
            ratio(traced.best_wall(), wall_s),
            "ratio",
        ));
        metrics.push(("clock.read_ns", clock_ns, "ns"));
        metrics
    } else {
        vec![
            ("wall_s", wall_s, "s"),
            (
                "assignments_per_s",
                ratio(assignments as f64, wall_s),
                "1/s",
            ),
            ("setup_s", setup_s, "s"),
            (
                "peak_heap_mib",
                crate::peak_heap_bytes() as f64 / (1024.0 * 1024.0),
                "MiB",
            ),
        ]
    };
    RunResult {
        ledger,
        metrics,
        pass_walls: (untraced.walls, traced.walls),
        clock_ns,
    }
}

/// Operation times over a run's passes.
#[derive(Debug, Default)]
struct Passes {
    /// Each pass's wall seconds (the sum of its operations).
    walls: Vec<f64>,
    /// Each operation's fastest scaled seconds so far.
    best: BTreeMap<String, f64>,
}

impl Passes {
    fn add(&mut self, ops: Vec<OpTime>) {
        self.walls.push(ops.iter().map(|op| op.secs).sum());
        for op in ops {
            let best = self.best.entry(op.key).or_insert(f64::INFINITY);
            *best = best.min(op.scaled_secs);
        }
    }

    /// A pass's wall seconds at the reference host speed, with each
    /// operation at its fastest scaled time over the run's passes.
    /// Scaling removes most of the host's speed changes; the minimum
    /// removes what is left, as interference only ever adds time.
    fn best_wall(&self) -> f64 {
        self.best.values().sum()
    }
}

/// Per-metric medians over the traced passes' samples, which all list
/// the same metrics in the same order.
fn median_metrics(samples: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].1).collect();
            (name, median(&values), unit)
        })
        .collect()
}

/// A report's byte-stable JSON (wall-clock and counter fields are not
/// serialized).
pub fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("reports serialize")
}
