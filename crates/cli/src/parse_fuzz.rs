//! The user-facing spec parsers (`--faults`, `--fg`/`--bg`, and the
//! `run` flags including `--cluster`) return errors, never panics, on
//! generated input that mixes valid kinds and keys with negative, NaN,
//! infinite, huge and non-numeric values.

use proptest::prelude::*;
use ssr_sim::FaultPlan;

use crate::opts::RunOptions;
use crate::spec;

/// Values for every key: valid small numbers mixed with every hostile
/// class. The huge ones overflow `u32`, so no generated spec can ask for
/// billions of tasks.
const VALUES: &[&str] = &[
    "0", "1", "2", "3", "7", "0.5", "1.5", "-1", "-5", "-0.5", "nan", "NaN", "inf", "-inf",
    "1e300", "-1e300", "99999999999999999999", "abc", "", "1x", "0x0", "4x2",
];

/// Values no key accepts: a spec holding one must be rejected.
const HOSTILE: &[&str] = &["nan", "NaN", "inf", "-inf", "abc", "", "1x"];

fn has_hostile_value(spec: &str) -> bool {
    spec.split([',', ';']).filter_map(|kv| kv.split_once('=')).any(|(_, v)| HOSTILE.contains(&v))
}

const SPEC_TEMPLATES: &[&str] =
    &["kmeans", "svm", "pagerank", "sql", "pipeline", "maponly", "google", "bogus"];

const SPEC_KEYS: &[&str] = &[
    "par", "iters", "prio", "mean", "cv", "factor", "arrival", "q", "phases", "tm", "alpha",
    "tasks", "secs", "jobs", "seed", "horizon", "bogus",
];

const FAULT_KINDS: &[&str] = &["crash", "revoke", "partition", "storm", "restart", "meteor"];

const FAULT_KEYS: &[&str] =
    &["node", "slot", "at", "secs", "down", "rampup", "factor", "cold", "flux"];

const RUN_FLAGS: &[&str] = &[
    "--cluster", "--racks", "--sizing", "--locality-wait", "--any-slowdown", "--policy",
    "--isolation", "--prereserve", "--order", "--seed", "--jobs", "--faults", "--stragglers",
];

const POLICIES: &[&str] = &["ssr", "wc", "timeout:", "static:", "static:2,", "bogus"];

fn pick(options: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..options.len()).prop_map(move |i| options[i])
}

/// `kind:key=value,…` drawn from the given kinds and keys.
fn clause(
    kinds: &'static [&'static str],
    keys: &'static [&'static str],
) -> impl Strategy<Value = String> {
    (pick(kinds), proptest::collection::vec((pick(keys), pick(VALUES)), 0..6)).prop_map(
        |(kind, pairs)| {
            let args: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{kind}:{}", args.join(","))
        },
    )
}

fn fault_spec() -> impl Strategy<Value = String> {
    proptest::collection::vec(clause(FAULT_KINDS, FAULT_KEYS), 0..3).prop_map(|c| c.join(";"))
}

fn run_args() -> impl Strategy<Value = Vec<String>> {
    let flag_value = (pick(RUN_FLAGS), pick(VALUES), pick(VALUES), pick(POLICIES), fault_spec())
        .prop_map(|(flag, a, b, policy, faults)| match flag {
            "--stragglers" => vec![flag.to_owned()],
            "--cluster" => vec![flag.to_owned(), format!("{a}x{b}")],
            "--sizing" => vec![flag.to_owned(), format!("{a},{b},{a}")],
            "--policy" => vec![flag.to_owned(), format!("{policy}{a}")],
            "--faults" => vec![flag.to_owned(), faults],
            _ => vec![flag.to_owned(), a.to_owned()],
        });
    proptest::collection::vec(flag_value, 0..5).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fault_plan_parse_never_panics(spec in fault_spec()) {
        let parsed = FaultPlan::parse(&spec);
        prop_assert!(parsed.is_err() || !has_hostile_value(&spec), "accepted {spec}");
    }

    #[test]
    fn workload_spec_parse_never_panics(spec in clause(SPEC_TEMPLATES, SPEC_KEYS)) {
        let parsed = spec::parse(&spec);
        prop_assert!(parsed.is_err() || !has_hostile_value(&spec), "accepted {spec}");
    }

    #[test]
    fn run_options_parse_never_panics(args in run_args()) {
        let _ = RunOptions::parse(&args);
    }
}
