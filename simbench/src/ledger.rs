//! Operation accounting and output pins.
//!
//! An operation is one simulation or one analysis step. It fails if it
//! panics, if its output breaks an invariant (a run that does not
//! complete, a checker violation, an attribution that does not conserve
//! the gap, a replica that differs from the engine), or, at the pinned
//! seed, if the digest of its output differs from the pin in
//! `pins.txt`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::measure::{reference_secs, REFERENCE_SECS};

/// The seed the pins were recorded at (Fig. 15's own default seed).
pub const PINNED_SEED: u64 = 81;

/// The seed of the Google-trace background load in `fig15` and
/// `traced_faults`, whatever the workload seed: the workload seed drives
/// the simulation, so the amount of work stays comparable across seeds.
pub const TRACE_SEED: u64 = PINNED_SEED;

/// The held-out seed for validating claims: never used while tuning.
pub const HELD_OUT_SEED: u64 = 2017;

const PINS: &str = include_str!("../pins.txt");

/// FNV-1a over `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The timing of one operation.
#[derive(Debug, Clone)]
pub struct OpTime {
    /// The operation's key.
    pub key: String,
    /// Seconds it took.
    pub secs: f64,
    /// Seconds scaled to the reference host speed.
    pub scaled_secs: f64,
}

/// Counts operations and failures for one benchmark run.
#[derive(Debug)]
pub struct Ledger {
    check_pins: bool,
    pins: BTreeMap<String, String>,
    recorded: Option<BTreeMap<String, String>>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// `(key, seconds, reference seconds just before)` of each operation
    /// since the last [`take_pass`](Ledger::take_pass); checks are not
    /// timed.
    pass: Vec<(String, f64, f64)>,
}

impl Ledger {
    /// A ledger for a run at `seed`. Pins are checked only at
    /// [`PINNED_SEED`]; with `record`, digests are collected instead so
    /// they can be written out as a new pin file.
    pub fn new(seed: u64, record: bool) -> Ledger {
        let pins = PINS
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .map(|(k, d)| (k.to_owned(), d.trim().to_owned()))
            .collect();
        Ledger {
            check_pins: seed == PINNED_SEED && !record,
            pins,
            recorded: record.then(BTreeMap::new),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            pass: Vec::new(),
        }
    }

    /// Runs one operation: `work` is timed, then `verify` judges its
    /// output, returning the digest to hold against the pin at `key` (or
    /// `None` for outputs checked by invariants alone). Returns the
    /// output unless the work panicked.
    pub fn op<T>(
        &mut self,
        key: &str,
        work: impl FnOnce() -> T,
        verify: impl FnOnce(&T) -> Result<Option<String>, String>,
    ) -> Option<T> {
        self.attempted += 1;
        let reference = reference_secs();
        let started = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(work));
        self.pass
            .push((key.to_owned(), started.elapsed().as_secs_f64(), reference));
        let out = match out {
            Ok(out) => out,
            Err(_) => {
                self.fail(key, "panicked".to_owned());
                return None;
            }
        };
        match catch_unwind(AssertUnwindSafe(|| verify(&out))) {
            Ok(Ok(Some(d))) => self.pin(key, d),
            Ok(Ok(None)) => {}
            Ok(Err(e)) => self.fail(key, e),
            Err(_) => self.fail(key, "check panicked".to_owned()),
        }
        Some(out)
    }

    fn pin(&mut self, key: &str, d: String) {
        if let Some(recorded) = self.recorded.as_mut() {
            recorded.insert(key.to_owned(), d);
            return;
        }
        if !self.check_pins {
            return;
        }
        match self.pins.get(key) {
            Some(p) if *p == d => {}
            Some(p) => self.fail(key, format!("output digest {d} differs from pin {p}")),
            None => self.fail(key, format!("no pin for output digest {d}")),
        }
    }

    fn fail(&mut self, key: &str, why: String) {
        self.failed += 1;
        self.errors.push(format!("{key}: {why}"));
    }

    /// The operations run since the last call: each one's key, its
    /// seconds, and its seconds scaled to the reference host speed (by
    /// the mean of the reference timings just before and just after it).
    pub fn take_pass(&mut self) -> Vec<OpTime> {
        let pass = std::mem::take(&mut self.pass);
        let mut after: Vec<f64> = pass.iter().skip(1).map(|op| op.2).collect();
        after.push(reference_secs());
        pass.into_iter()
            .zip(after)
            .map(|((key, secs, before), after)| OpTime {
                key,
                secs,
                scaled_secs: secs * REFERENCE_SECS * 2.0 / (before + after),
            })
            .collect()
    }

    /// The collected digests as pin-file lines, if recording.
    pub fn pin_file(&self) -> Option<String> {
        let recorded = self.recorded.as_ref()?;
        Some(recorded.iter().map(|(k, d)| format!("{k} {d}\n")).collect())
    }
}
