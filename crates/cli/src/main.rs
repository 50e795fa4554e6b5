//! `ssr-cli` — run speculative-slot-reservation experiments from the
//! command line.
//!
//! ```text
//! ssr-cli run --cluster 4x2 --policy ssr --isolation 0.9 \
//!     --fg kmeans:par=8,prio=10 --bg google:jobs=100 --seed 42
//! ssr-cli run --policy work-conserving --fg pipeline:phases=3,par=8,prio=10 \
//!     --bg maponly:tasks=64,secs=60 --json
//! ssr-cli tradeoff --alpha 1.6 --n 20
//! ssr-cli deadline --p 0.9 --tm 2 --alpha 1.6 --n 20
//! ssr-cli run --fg kmeans --bg google:jobs=20 \
//!     --faults "crash:node=1,at=30,down=15" --trace faulted.jsonl
//! ssr-cli explain trace.jsonl --alone alone-kmeans.jsonl
//! ssr-cli check faulted.jsonl
//! ssr-cli check --explore --json
//! ```

mod bench;
mod opts;
#[cfg(test)]
mod parse_fuzz;
mod spec;

use std::process::ExitCode;

use ssr_perf::{SpanProfiler, WorkCounters};
use ssr_sim::walltime::WallClock;
use ssr_sim::{Experiment, SimConfig, Simulation};
use ssr_trace::{JsonlSink, MetricsSink, SplitSink, TraceSink};

use crate::opts::RunOptions;

fn main() -> ExitCode {
    #[expect(clippy::disallowed_methods, reason = "the command line is the cli's input")]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage();
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "run" => cmd_run(rest),
        "tradeoff" => cmd_tradeoff(rest),
        "deadline" => cmd_deadline(rest),
        "explain" => cmd_explain(rest),
        "check" => cmd_check(rest),
        "bench" => cmd_bench(rest),
        "--help" | "-h" | "help" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "ssr-cli — speculative slot reservation experiments\n\
         \n\
         commands:\n\
         \x20 run       simulate a workload mix (see flags below)\n\
         \x20 tradeoff  print the Eq. 4 isolation/utilization curve\n\
         \x20 deadline  print the Eq. 2 reservation deadline for a target P\n\
         \x20 explain   analyze a JSONL decision trace (timeline, critical\n\
         \x20           paths, slowdown attribution)\n\
         \x20 check     verify the reservation protocol: replay a trace\n\
         \x20           through the invariant checker, or model-check the\n\
         \x20           scheduler exhaustively with --explore\n\
         \x20 bench     diff BENCH_*.json snapshots with a regression\n\
         \x20           gate: bench diff OLD.json NEW.json [NEW.json...]\n\
         \x20           [--threshold PCT] [--only SUBSTR]; several NEW\n\
         \x20           runs are judged by each row's fastest\n\
         \n\
         run flags:\n\
         \x20 --cluster NxS        nodes x slots-per-node (default 4x2)\n\
         \x20 --racks K            nodes per rack (default: single rack)\n\
         \x20 --sizing s,l,e       every e-th slot has size l, others s\n\
         \x20 --policy P           work-conserving | ssr | timeout:SECS | static:COUNT,PRIO\n\
         \x20 --isolation P        SSR isolation target (default 1.0)\n\
         \x20 --prereserve R       SSR pre-reservation threshold (default 0.5)\n\
         \x20 --stragglers         SSR: run copies on reserved slots (IV-C)\n\
         \x20 --speculation        status-quo progress-based speculation\n\
         \x20 --faults SPEC        inject deterministic faults; `;`-separated clauses:\n\
         \x20                      crash:node=N,at=S[,down=S] | revoke:slot=N,at=S\n\
         \x20                      | partition:node=N,at=S,secs=S\n\
         \x20                      | storm:at=S,secs=S,factor=F\n\
         \x20                      | restart:node=N,at=S,down=S,rampup=S,cold=F\n\
         \x20 --order O            fifo-priority | fair | fifo\n\
         \x20 --locality-wait S    delay-scheduling wait seconds (default 3)\n\
         \x20 --any-slowdown F     ANY-level task slowdown factor (default 5)\n\
         \x20 --fg SPEC            foreground workload (repeatable, measured)\n\
         \x20 --bg SPEC            background workload (repeatable)\n\
         \x20 --seed N             RNG seed (default 0)\n\
         \x20 --jobs N             worker threads for independent runs\n\
         \x20                      (default: SSR_JOBS env var, then all cores)\n\
         \x20 --json               emit the report as JSON\n\
         \x20 --trace PATH         write a JSONL decision trace of the contended run\n\
         \x20 --trace-alone PREFIX also trace each foreground job's run-alone\n\
         \x20                      baseline to PREFIX-<job>.jsonl\n\
         \x20 --metrics            print aggregated scheduling metrics after the run\n\
         \x20                      (sorted-key JSON with hold-time percentiles under --json)\n\
         \x20 --counters           print the deterministic work-counter report after\n\
         \x20                      the run (sorted-key JSON under --json)\n\
         \x20 --profile            time scheduler phases and print the wall-clock\n\
         \x20                      span tree to stderr\n\
         \x20 --progress           stderr progress heartbeat during the run\n\
         \n\
         explain flags:\n\
         \x20 TRACE                the contended-run JSONL trace to analyze\n\
         \x20 --alone PATH         a run-alone baseline trace (repeatable); adds\n\
         \x20                      slowdown attribution for that job\n\
         \x20 --json               emit the report as sorted-key JSON\n\
         \x20 --width N            gantt width in columns (default 72)\n\
         \n\
         check flags:\n\
         \x20 TRACE                a JSONL decision trace to replay through the\n\
         \x20                      invariant checker (exit 1 on violations)\n\
         \x20 --explore            instead, exhaustively explore every offer/\n\
         \x20                      finish/crash/restore interleaving of a small\n\
         \x20                      configuration against the real scheduler\n\
         \x20 --nodes N            explore: node count (default 2)\n\
         \x20 --slots N            explore: slots per node (default 1)\n\
         \x20 --fg-tasks N         explore: foreground tasks per stage (default 1)\n\
         \x20 --bg-tasks N         explore: background tasks (default 2)\n\
         \x20 --crashes N          explore: crash budget (default 1)\n\
         \x20 --max-steps N        explore: depth bound (default 12)\n\
         \x20 --json               emit the report as sorted-key JSON\n\
         \n\
         SPEC: kmeans|svm|pagerank[:par=8,iters=4,prio=10,...]\n\
         \x20     sql[:q=3|all,par=32,prio=10] | pipeline[:phases=3,par=8,alpha=1.6]\n\
         \x20     maponly[:tasks=64,secs=30] | google[:jobs=100,factor=1,seed=7]"
    );
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let options = RunOptions::parse(args).map_err(|e| e.to_string())?;
    ssr_sim::runner::set_worker_override(options.jobs);
    let mut foreground = Vec::new();
    for s in &options.foreground {
        foreground.extend(spec::parse(s).map_err(|e| e.to_string())?);
    }
    let mut background = Vec::new();
    for s in &options.background {
        background.extend(spec::parse(s).map_err(|e| e.to_string())?);
    }
    if foreground.is_empty() && background.is_empty() {
        return Err("nothing to run: give at least one --fg or --bg".to_owned());
    }

    let mut sim_config = SimConfig::new(options.cluster)
        .with_locality(options.locality.clone())
        .with_seed(options.seed)
        .with_faults(options.faults.clone());
    if let Some(s) = options.speculation {
        sim_config = sim_config.with_speculation(s);
    }

    if foreground.is_empty() {
        // No measured jobs: run the mix once and print the report.
        let mut sim = Simulation::new(
            sim_config,
            options.policy.clone(),
            options.order,
            background,
        );
        if let Some(sink) = make_sink(&options) {
            sim = sim.with_trace_sink(sink);
        }
        if let Some(profiler) = make_profiler(&options) {
            sim = sim.with_span_profiler(profiler);
        }
        if options.progress {
            sim = sim.with_progress_heartbeat(PROGRESS_EVERY_EVENTS);
        }
        let (report, sink, profiler) = sim.run_instrumented();
        print_report_summary(&report, options.json)?;
        emit_trace_outputs(&options, sink)?;
        emit_perf_outputs(&options, &report.counters, profiler);
        return Ok(());
    }

    let mut experiment = Experiment::new(sim_config, options.policy.clone(), options.order)
        .foreground(foreground)
        .background(background);
    if options.progress {
        experiment = experiment.with_progress_heartbeat(PROGRESS_EVERY_EVENTS);
    }
    let (outcome, sink, alone_traces, profiler) = experiment.run_instrumented(
        make_sink(&options),
        make_profiler(&options),
        options.trace_alone.is_some(),
    );
    if let Some(prefix) = &options.trace_alone {
        for alone in &alone_traces {
            let path = format!("{prefix}-{}.jsonl", alone.job);
            std::fs::write(&path, &alone.jsonl)
                .map_err(|e| format!("cannot write alone trace {path}: {e}"))?;
        }
    }
    if options.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string())?
        );
        emit_trace_outputs(&options, sink)?;
        emit_perf_outputs(&options, &outcome.counters, profiler);
        return Ok(());
    }
    println!("policy: {}   order: {:?}   seed: {}", outcome.policy, options.order, options.seed);
    println!("{:<24} {:>12} {:>14} {:>10}", "foreground job", "alone (s)", "contended (s)", "slowdown");
    for row in &outcome.foreground {
        println!(
            "{:<24} {:>12.2} {:>14.2} {:>9.2}x",
            row.name, row.alone_jct_secs, row.contended_jct_secs, row.slowdown
        );
    }
    println!(
        "\nmean slowdown {:.3}x   utilization {:.1}%   reserved-idle {:.0} slot-s   \
         copies {}   kills {}",
        outcome.mean_slowdown(),
        outcome.contended.utilization() * 100.0,
        outcome.contended.reserved_idle_slot_secs,
        outcome.contended.speculative_copies,
        outcome.contended.kills,
    );
    emit_trace_outputs(&options, sink)?;
    emit_perf_outputs(&options, &outcome.counters, profiler);
    Ok(())
}

/// Heartbeat period for `--progress`, in processed events.
const PROGRESS_EVERY_EVENTS: u64 = 10_000;

/// `ssr-cli bench <subcommand>`: benchmark-snapshot tooling.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("bench needs a subcommand: diff (see ssr-cli --help)".to_owned());
    };
    match sub.as_str() {
        "diff" => bench::cmd_diff(rest),
        other => Err(format!("unknown bench subcommand {other}; known: diff")),
    }
}

/// Builds the wall-clock span profiler requested by `--profile`, if any.
fn make_profiler(options: &RunOptions) -> Option<Box<SpanProfiler>> {
    options.profile.then(|| Box::new(SpanProfiler::new(Box::new(WallClock::start()))))
}

/// Prints the work-counter report (stdout) and the span tree (stderr),
/// as requested. Counters are the deterministic plane and may join
/// byte-compared stdout; spans are wall-clock and never touch stdout.
fn emit_perf_outputs(
    options: &RunOptions,
    counters: &WorkCounters,
    profiler: Option<Box<SpanProfiler>>,
) {
    if options.counters {
        if options.json {
            println!("{}", counters.render_json());
        } else {
            print!("{}", counters.render_text());
        }
    }
    if let Some(profiler) = profiler {
        eprint!("{}", profiler.report().render_text());
    }
}

/// `ssr-cli explain TRACE [--alone PATH]... [--json] [--width N]`:
/// reconstructs a traced run and, given alone baselines, attributes each
/// foreground job's slowdown. Output is byte-identical across invocations.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let mut trace_path: Option<&String> = None;
    let mut alone_paths: Vec<&String> = Vec::new();
    let mut json = false;
    let mut width = 72usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--alone" => {
                alone_paths.push(it.next().ok_or("--alone requires a path")?);
            }
            "--json" => json = true,
            "--width" => {
                width = it
                    .next()
                    .ok_or("--width requires a value")?
                    .parse()
                    .map_err(|_| "--width wants a column count".to_owned())?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown explain flag {other}"));
            }
            _ if trace_path.is_none() => trace_path = Some(arg),
            other => return Err(format!("unexpected extra argument {other}")),
        }
    }
    let trace_path = trace_path.ok_or("explain needs a trace file (see ssr-cli --help)")?;
    let read = |path: &String| -> Result<ssr_explain::Trace, String> {
        #[expect(clippy::disallowed_methods, reason = "explain reads the traces it is given")]
        let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        ssr_explain::parse_trace(&doc).map_err(|e| format!("{path}: {e}"))
    };
    let contended = read(trace_path)?;
    let alone = alone_paths.iter().map(|p| read(p)).collect::<Result<Vec<_>, _>>()?;
    let report = ssr_explain::explain(&contended, &alone).map_err(|e| e.to_string())?;
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text(width));
    }
    Ok(())
}

/// `ssr-cli check TRACE [--json]` replays a JSONL decision trace through
/// the reservation-protocol invariant checker; `ssr-cli check --explore`
/// model-checks the real scheduler over every offer/finish/crash/restore
/// interleaving of a small configuration. Both render byte-identical
/// output across invocations and exit nonzero on violations.
fn cmd_check(args: &[String]) -> Result<(), String> {
    let mut trace_path: Option<&String> = None;
    let mut explore = false;
    let mut json = false;
    let mut cfg = ssr_check::ExploreConfig::small();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> Result<u32, String> {
            let v = it.next().ok_or_else(|| format!("{name} requires a value"))?;
            v.parse().map_err(|_| format!("{name} wants a count, got {v}"))
        };
        match arg.as_str() {
            "--explore" => explore = true,
            "--json" => json = true,
            "--nodes" => cfg.nodes = num("--nodes")?,
            "--slots" => cfg.slots_per_node = num("--slots")?,
            "--fg-tasks" => cfg.fg_tasks = num("--fg-tasks")?,
            "--bg-tasks" => cfg.bg_tasks = num("--bg-tasks")?,
            "--crashes" => cfg.crash_budget = num("--crashes")?,
            "--max-steps" => cfg.max_steps = num("--max-steps")? as usize,
            other if other.starts_with('-') => {
                return Err(format!("unknown check flag {other}"));
            }
            _ if trace_path.is_none() => trace_path = Some(arg),
            other => return Err(format!("unexpected extra argument {other}")),
        }
    }
    if explore {
        if trace_path.is_some() {
            return Err("check --explore takes no trace file".to_owned());
        }
        let report = ssr_check::explore(&cfg);
        if json {
            print!("{}", report.render_json());
        } else {
            print!("{}", report.render_text());
        }
        if !report.is_clean() {
            return Err(format!(
                "{} invariant violation(s) found by exploration",
                report.violations.len()
            ));
        }
        return Ok(());
    }
    let path = trace_path.ok_or("check needs a trace file or --explore (see ssr-cli --help)")?;
    #[expect(clippy::disallowed_methods, reason = "check reads the trace it is given")]
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = ssr_explain::parse_trace(&doc).map_err(|e| format!("{path}: {e}"))?;
    let report = ssr_check::InvariantChecker::new().check_all(&trace.events);
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if !report.is_clean() {
        return Err(format!("{} invariant violation(s) in {path}", report.violations.len()));
    }
    Ok(())
}

/// Builds the trace sink requested by `--trace` / `--metrics`, if any.
fn make_sink(options: &RunOptions) -> Option<Box<dyn TraceSink>> {
    if options.trace.is_none() && !options.metrics {
        return None;
    }
    Some(Box::new(SplitSink {
        jsonl: options.trace.as_ref().map(|_| JsonlSink::new()),
        metrics: options.metrics.then(MetricsSink::new),
    }))
}

/// Writes the JSONL trace to disk and prints the metrics report, as
/// requested. No-op when tracing was not enabled.
fn emit_trace_outputs(
    options: &RunOptions,
    sink: Option<Box<dyn TraceSink>>,
) -> Result<(), String> {
    let Some(sink) = sink else { return Ok(()) };
    let split = sink
        .into_any()
        .downcast::<SplitSink>()
        .map_err(|_| "internal: trace sink is not a SplitSink".to_owned())?;
    if let (Some(path), Some(jsonl)) = (&options.trace, split.jsonl) {
        std::fs::write(path, jsonl.finish())
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
    }
    if let Some(metrics) = split.metrics {
        let report = metrics.into_report();
        if options.json {
            println!("{}", report.render_json());
        } else {
            println!("{}", report.render_text());
        }
    }
    Ok(())
}

fn print_report_summary(report: &ssr_sim::SimReport, json: bool) -> Result<(), String> {
    if json {
        println!("{}", serde_json::to_string_pretty(report).map_err(|e| e.to_string())?);
        return Ok(());
    }
    println!(
        "{} jobs, completed: {}, makespan {:.1}s, utilization {:.1}%",
        report.jobs.len(),
        report.completed,
        report.makespan_secs,
        report.utilization() * 100.0
    );
    Ok(())
}

fn take_flag(args: &[String], name: &str) -> Result<Option<f64>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            let v = it.next().ok_or_else(|| format!("{name} requires a value"))?;
            return v.parse().map(Some).map_err(|_| format!("bad value for {name}: {v}"));
        }
    }
    Ok(None)
}

fn cmd_tradeoff(args: &[String]) -> Result<(), String> {
    let alpha = take_flag(args, "--alpha")?.unwrap_or(1.6);
    let n = take_flag(args, "--n")?.unwrap_or(20.0) as u32;
    let points = take_flag(args, "--points")?.unwrap_or(11.0) as usize;
    let curve = ssr_analytics::tradeoff::tradeoff_curve(alpha, n, points)
        .map_err(|e| e.to_string())?;
    println!("P        E[U] lower bound   (alpha={alpha}, N={n})");
    for p in curve {
        println!("{:<8.3} {:.4}", p.isolation, p.utilization);
    }
    Ok(())
}

fn cmd_deadline(args: &[String]) -> Result<(), String> {
    let p = take_flag(args, "--p")?.ok_or("--p required")?;
    let tm = take_flag(args, "--tm")?.ok_or("--tm required")?;
    let alpha = take_flag(args, "--alpha")?.unwrap_or(1.6);
    let n = take_flag(args, "--n")?.ok_or("--n required")? as u32;
    let d = ssr_analytics::tradeoff::deadline_for_isolation(p, tm, alpha, n)
        .map_err(|e| e.to_string())?;
    let u = ssr_analytics::tradeoff::utilization_bound_for_isolation(p, alpha, n)
        .map_err(|e| e.to_string())?;
    println!(
        "isolation P={p}: reserve each slot for D = {d:.3}s after phase start \
         (t_m={tm}, alpha={alpha}, N={n}); utilization lower bound {u:.3}"
    );
    Ok(())
}
