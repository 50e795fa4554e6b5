//! Regenerates the paper's evaluation figures as text tables.
//!
//! Usage:
//!
//! ```text
//! figures all                # every figure, in paper order
//! figures fig08 fig10        # selected figures
//! figures --list             # available ids
//! figures all --jobs 4       # run on exactly 4 worker threads
//! figures all --timing       # per-figure wall-clock stats on stderr
//! ```
//!
//! Figures driven by the simulator run at a scaled-down default; set
//! `SSR_FULL=1` for paper-scale runs (slower).
//!
//! Independent simulations fan out across a worker pool sized by `--jobs`,
//! the `SSR_JOBS` environment variable, or the machine's available
//! parallelism (in that precedence order). Results are merged
//! deterministically: stdout is byte-identical at every worker count.
//! Timing output goes to stderr only, so it never perturbs that guarantee.

use std::process::ExitCode;

use ssr_bench::figures;
use ssr_sim::walltime::Stopwatch;

struct Args {
    ids: Vec<String>,
    list: bool,
    timing: bool,
    trace: Option<String>,
    explain: Option<String>,
    counters: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut ids = Vec::new();
    let mut list = false;
    let mut timing = false;
    let mut jobs: Option<usize> = None;
    let mut trace = None;
    let mut explain = None;
    let mut counters = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--timing" => timing = true,
            "--jobs" => {
                let v = it.next().ok_or("--jobs requires a value")?;
                jobs = Some(v.parse().map_err(|_| format!("bad --jobs value: {v}"))?);
            }
            "--trace" => {
                trace = Some(it.next().ok_or("--trace requires a path")?.to_owned());
            }
            "--explain" => {
                explain = Some(it.next().ok_or("--explain requires a path")?.to_owned());
            }
            "--counters" => {
                counters = Some(it.next().ok_or("--counters requires a path")?.to_owned());
            }
            other => ids.push(other.to_owned()),
        }
    }
    ssr_sim::runner::set_worker_override(jobs);
    Ok(Args { ids, list, timing, trace, explain, counters })
}

fn main() -> ExitCode {
    #[expect(clippy::disallowed_methods, reason = "the command line picks the figures to print")]
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: figures <all | --list | fig-id...> [--jobs N] [--timing] [--trace PATH] [--explain PATH] [--counters PATH]"
        );
        eprintln!("known ids: {}", figures::ALL.join(" "));
        return ExitCode::from(2);
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for id in figures::ALL {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.trace {
        // The canonical contended-SSR decision trace; byte-stable per seed,
        // diffed by CI across invocations.
        if let Err(e) = std::fs::write(path, figures::decision_trace_jsonl(11)) {
            eprintln!("cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.explain {
        // The canonical scenario pushed through the whole ssr-explain
        // pipeline (trace → parse → timeline → attribution → render);
        // byte-stable per seed, diffed by CI across invocations.
        if let Err(e) = std::fs::write(path, figures::explain_report(11)) {
            eprintln!("cannot write explain report {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.counters {
        // The canonical scenario's deterministic work counters as
        // sorted-key JSON; byte-stable per seed, diffed by CI across
        // invocations to pin the whole counter plane.
        if let Err(e) = std::fs::write(path, figures::counters_report(11)) {
            eprintln!("cannot write counters report {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let ids: Vec<&str> = if args.ids.iter().any(|a| a == "all") {
        figures::ALL.to_vec()
    } else {
        args.ids.iter().map(String::as_str).collect()
    };
    // Figures are independent of one another: run them all on the worker
    // pool, then print in request order.
    let started = Stopwatch::start();
    let rendered = ssr_sim::par_map(ssr_sim::worker_count(), &ids, |id| {
        let figure_started = Stopwatch::start();
        (figures::run(id), figure_started.elapsed_secs())
    });
    for (id, (output, wall)) in ids.iter().zip(&rendered) {
        match output {
            Some(output) => {
                println!("==================================================================");
                println!("{output}");
                if args.timing {
                    eprintln!("[timing] {id}: {wall:.2}s");
                }
            }
            None => {
                eprintln!("unknown figure id: {id} (known: {})", figures::ALL.join(" "));
                return ExitCode::FAILURE;
            }
        }
    }
    if args.timing {
        eprintln!(
            "[timing] total {:.2}s on {} worker(s)",
            started.elapsed_secs(),
            ssr_sim::worker_count()
        );
    }
    ExitCode::SUCCESS
}
