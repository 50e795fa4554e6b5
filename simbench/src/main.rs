//! `simbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints each metric by name and unit, then, as the last line of
//! standard output, one JSON object:
//! `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
//! `--record-pins` prints the run's output digests instead of checking
//! them (for regenerating `pins.txt` at the pinned seed).

use std::process::ExitCode;

use simbench::ledger::{HELD_OUT_SEED, PINNED_SEED};
use simbench::workloads::fig15::Fig15;
use simbench::workloads::paper_scale::PaperScale;
use simbench::workloads::traced_faults::TracedFaults;
use simbench::workloads::{drive, RunOptions, RunResult};

fn usage() -> String {
    format!(
        "usage: simbench --workload fig15|paper_scale|traced_faults \
         [--seed N] [--seconds S] [--trace 0|1] [--record-pins]\n\
         outputs are pinned at seed {PINNED_SEED}; seed {HELD_OUT_SEED} is held out for \
         validating claims"
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // One simulation worker: the figure grid and the experiments'
    // alone baselines run sequentially on this thread.
    ssr_sim::runner::set_worker_override(Some(1));
    let result = match workload.as_str() {
        "fig15" => drive::<Fig15>(opts),
        "paper_scale" => drive::<PaperScale>(opts),
        "traced_faults" => drive::<TracedFaults>(opts),
        other => {
            eprintln!("error: unknown workload {other}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(pins) = result.ledger.pin_file() {
        print!("{pins}");
        return ExitCode::SUCCESS;
    }
    report(&workload, &opts, &result);
    ExitCode::SUCCESS
}

fn parse(args: &[String]) -> Result<(String, RunOptions), String> {
    let mut workload = None;
    let mut opts = RunOptions {
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
        record_pins: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--record-pins" => opts.record_pins = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn report(workload: &str, opts: &RunOptions, r: &RunResult) {
    let l = &r.ledger;
    let mode = if opts.trace { "traced" } else { "untraced" };
    let (untraced, traced) = &r.pass_walls;
    println!(
        "simbench {workload} seed {} ({mode}): {} untraced + {} traced passes, clock read {:.1} ns",
        opts.seed,
        untraced.len(),
        traced.len(),
        r.clock_ns
    );
    let walls = |w: &[f64]| {
        w.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  untraced pass walls (s): {}", walls(untraced));
    if !traced.is_empty() {
        println!("  traced pass walls (s):   {}", walls(traced));
    }
    for (name, value, unit) in &r.metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    println!(
        "  operations: {} attempted, {} failed (failed_ratio {})",
        l.attempted,
        l.failed,
        if l.attempted == 0 {
            0.0
        } else {
            l.failed as f64 / l.attempted as f64
        }
    );
    for e in l.errors.iter().take(10) {
        eprintln!("  failed: {e}");
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        l.failed == 0 && l.attempted > 0,
        l.attempted.max(1),
        l.failed,
        metrics.join(", ")
    );
}
