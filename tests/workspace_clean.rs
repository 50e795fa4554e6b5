//! The workspace-level regression: every determinism opt-out must be a
//! reasoned attribute at a sanctioned site, and recovery code must deny
//! panics.

mod clippy_fixture;
mod common;

use clippy_fixture::assert_rejected;
use common::workspace_root;

#[test]
fn baseline_has_no_stale_entries() {
    // Paid-down debt must leave the code: an `#[expect]` whose lint no
    // longer fires is itself an error under `-D warnings`.
    assert_rejected("p001_stale");
}

/// The lints fault-recovery code denies, as each function outside
/// `cluster/src/pool.rs` spells them (the pool denies them module-wide).
const RECOVERY_DENY: [&str; 2] = [
    "#[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]",
    "#[deny(clippy::panic, clippy::unreachable)]",
];

/// The recovery reach set outside `cluster/src/pool.rs`: every function
/// reached from `fail_slots`, `restore_slots`, `instance_crashed`,
/// `instance_killed`, `take_offline`, `bring_online` and
/// `expire_reservations` (first listed from the retired P001 call graph),
/// by file. `Type::name` picks one of several
/// functions called `name`.
const RECOVERY_FNS: &[(&str, &[&str])] = &[
    ("cluster/src/slot.rs", &["deadline", "expired_at", "reservation", "expire_reservations"]),
    ("cluster/src/topology.rs", &["SlotId::new"]),
    ("dag/src/ids.rs", &["as_u64"]),
    ("perf/src/span.rs", &["enter", "exit"]),
    ("scheduler/src/engine.rs", &["advance_clock", "trace_enabled", "span_enter", "span_exit"]),
    ("scheduler/src/engine.rs", &["emit", "stop_instance", "expire_reservations"]),
    ("scheduler/src/engine.rs", &["fail_slots", "restore_slots"]),
    ("scheduler/src/jobs.rs", &["taskset_mut", "instance_crashed", "JobState::is_pending"]),
    ("scheduler/src/jobs.rs", &["index", "entry_mut", "PendingIndex::key_of"]),
    ("scheduler/src/jobs.rs", &["PendingIndex::touch"]),
    ("scheduler/src/taskset.rs", &["instance_crashed", "instance_killed", "take_live"]),
    ("trace/src/event.rs", &["new"]),
];

/// The attribute lines directly above function `entry` in `text`.
fn attributes_of<'a>(text: &'a str, entry: &str) -> Vec<&'a str> {
    let (from, name) = match entry.split_once("::") {
        Some((ty, name)) => (text.find(&format!("impl {ty} {{")).expect("impl present"), name),
        None => (0, entry),
    };
    let at = from + text[from..].find(&format!("fn {name}(")).expect("function present");
    let above = &text[..text[..at].rfind('\n').expect("not on the first line")];
    above.lines().rev().map(str::trim).take_while(|l| l.starts_with("#[")).collect()
}

#[test]
fn recovery_functions_deny_panics() {
    let crates = workspace_root().join("crates");
    let read = |file: &str| std::fs::read_to_string(crates.join(file)).expect("source exists");
    for &(file, names) in RECOVERY_FNS {
        let text = read(file);
        for name in names {
            let attrs = attributes_of(&text, name);
            assert!(RECOVERY_DENY.iter().all(|d| attrs.contains(d)), "{file}: `{name}`: {attrs:?}");
            assert!(
                !attrs.iter().any(|a| a.starts_with("#[allow(") || a.starts_with("#[expect(")),
                "{file}: `{name}` opts out of a lint: {attrs:?}"
            );
        }
    }
    // The pool denies the same lints module-wide; its only exceptions are
    // the two queries that index with a documented `# Panics` contract
    // (`node_of`/`rack_of` document theirs but defer to `ClusterSpec`).
    let pool = read("cluster/src/pool.rs");
    let shipped = &pool[..pool.find("#[cfg(test)]").expect("pool has tests")];
    for deny in RECOVERY_DENY {
        assert!(shipped.contains(&deny.replacen("#[", "#![", 1)), "pool.rs lacks {deny}");
    }
    let expect = "#[expect(clippy::indexing_slicing, reason = \"documented # Panics contract\")]";
    for name in ["size", "get"] {
        let attrs = attributes_of(shipped, name);
        assert!(attrs.contains(&expect), "pool.rs: `{name}` documents its panic with {expect}");
    }
    assert_eq!(shipped.matches("#[expect(").count() + shipped.matches("#[allow(").count(), 2);
}

#[test]
fn every_suppression_carries_a_reason() {
    // Clippy rejects reasonless opt-outs; this pins *where* they may sit:
    // the three barrier modules and the six reads of argv, the environment
    // and files in the non-deterministic bench and cli crates.
    let sites = common::opt_out_sites();
    for (file, attr) in &sites {
        assert!(attr.contains("reason = \""), "{file}: opt-out without a reason: {attr}");
    }
    let files: Vec<&str> = sites.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(
        files,
        [
            "crates/bench/src/bin/figures.rs",
            "crates/bench/src/figures/common.rs",
            "crates/cli/src/bench.rs",
            "crates/cli/src/main.rs",
            "crates/cli/src/main.rs",
            "crates/cli/src/main.rs",
            "crates/sim/src/runner.rs",
            "crates/sim/src/walltime.rs",
            "crates/simcore/src/rng.rs",
        ]
    );
}
