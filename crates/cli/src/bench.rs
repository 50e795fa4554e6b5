//! `ssr-cli bench diff` — compare a `BENCH_*.json` reference with one or
//! more current snapshots.
//!
//! The comparator reads the benchmark harness's JSON output format
//! (`{"results": [{"name", "per_iter_ns", "iters"}, ...]}`). Given
//! several current snapshots, it keeps each row's fastest run: a busy
//! host only ever adds time, so the minimum is the run nearest the
//! code's own cost. It joins the reference and that row set by name, and
//! renders one verdict per row:
//!
//! * `ok` — |delta| within the threshold,
//! * `REGRESSION` — new slower than old beyond the threshold,
//! * `improvement` — new faster than old beyond the threshold,
//! * `added` / `removed` — the row exists in only one snapshot.
//!
//! The rendered table is a pure function of the two inputs (rows sorted
//! by name), so CI can diff it too. Regressions make the command exit
//! nonzero; added/removed rows do not — baselines legitimately grow.

use serde::Value;

/// One benchmark measurement parsed from a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// The benchmark's full name (e.g. `scheduler/offer_round/4000`).
    pub name: String,
    /// Nanoseconds per iteration.
    pub per_iter_ns: f64,
}

/// The verdict for one joined row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the threshold.
    Ok,
    /// Slower beyond the threshold — fails the gate.
    Regression,
    /// Faster beyond the threshold.
    Improvement,
    /// Present only in the new snapshot.
    Added,
    /// Present only in the old snapshot.
    Removed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Improvement => "improvement",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

/// One row of the rendered diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Benchmark name.
    pub name: String,
    /// Old nanoseconds per iteration, if the row existed before.
    pub old_ns: Option<f64>,
    /// New nanoseconds per iteration, if the row still exists.
    pub new_ns: Option<f64>,
    /// `(new - old) / old` in percent, when both sides exist.
    pub delta_pct: Option<f64>,
    /// The row's verdict at the configured threshold.
    pub verdict: Verdict,
}

/// Parses one `BENCH_*.json` document into rows.
///
/// # Errors
///
/// Returns a message naming `label` when the document is not valid JSON
/// or misses the expected `results[].name/per_iter_ns` shape.
pub fn parse_snapshot(doc: &str, label: &str) -> Result<Vec<BenchRow>, String> {
    let root = serde_json::from_str(doc).map_err(|e| format!("{label}: {e}"))?;
    let Value::Object(fields) = &root else {
        return Err(format!("{label}: expected a JSON object at the top level"));
    };
    let results = fields
        .iter()
        .find(|(k, _)| k == "results")
        .map(|(_, v)| v)
        .ok_or_else(|| format!("{label}: missing \"results\" array"))?;
    let Value::Array(items) = results else {
        return Err(format!("{label}: \"results\" is not an array"));
    };
    let mut rows = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let Value::Object(entry) = item else {
            return Err(format!("{label}: results[{i}] is not an object"));
        };
        let get = |key: &str| entry.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let name = match get("name") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(format!("{label}: results[{i}] misses a string \"name\"")),
        };
        let per_iter_ns = match get("per_iter_ns") {
            Some(Value::Float(f)) => *f,
            Some(Value::UInt(u)) => *u as f64,
            Some(Value::Int(v)) => *v as f64,
            _ => return Err(format!("{label}: results[{i}] misses a numeric \"per_iter_ns\"")),
        };
        rows.push(BenchRow { name, per_iter_ns });
    }
    Ok(rows)
}

/// Each row's fastest run across `runs`, in first-seen order: the
/// lowest `per_iter_ns` any snapshot reports under its name.
pub fn fastest_rows(runs: &[Vec<BenchRow>]) -> Vec<BenchRow> {
    let mut fastest: Vec<BenchRow> = Vec::new();
    for row in runs.iter().flatten() {
        match fastest.iter_mut().find(|r| r.name == row.name) {
            Some(kept) => kept.per_iter_ns = kept.per_iter_ns.min(row.per_iter_ns),
            None => fastest.push(row.clone()),
        }
    }
    fastest
}

/// Joins two snapshots by name and classifies every row at
/// `threshold_pct`. Rows are returned sorted by name; `only` restricts
/// the join to names containing that substring.
pub fn diff_rows(
    old: &[BenchRow],
    new: &[BenchRow],
    threshold_pct: f64,
    only: Option<&str>,
) -> Vec<DiffRow> {
    let keep = |name: &str| only.is_none_or(|o| name.contains(o));
    let mut names: Vec<&str> = old
        .iter()
        .chain(new)
        .map(|r| r.name.as_str())
        .filter(|n| keep(n))
        .collect();
    names.sort_unstable();
    names.dedup();
    let find = |rows: &[BenchRow], name: &str| {
        rows.iter().find(|r| r.name == name).map(|r| r.per_iter_ns)
    };
    names
        .into_iter()
        .map(|name| {
            let old_ns = find(old, name);
            let new_ns = find(new, name);
            let (delta_pct, verdict) = match (old_ns, new_ns) {
                (Some(o), Some(n)) if o > 0.0 => {
                    let delta = (n - o) / o * 100.0;
                    let verdict = if delta > threshold_pct {
                        Verdict::Regression
                    } else if delta < -threshold_pct {
                        Verdict::Improvement
                    } else {
                        Verdict::Ok
                    };
                    (Some(delta), verdict)
                }
                (Some(_), Some(_)) => (None, Verdict::Ok),
                (None, Some(_)) => (None, Verdict::Added),
                (Some(_), None) => (None, Verdict::Removed),
                (None, None) => unreachable!("name came from one of the snapshots"),
            };
            DiffRow { name: name.to_owned(), old_ns, new_ns, delta_pct, verdict }
        })
        .collect()
}

/// Renders the diff as an aligned text table.
pub fn render(rows: &[DiffRow], threshold_pct: f64) -> String {
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max(4);
    let mut out = format!("bench diff (threshold +/-{threshold_pct}%)\n");
    out.push_str(&format!(
        "  {:<width$} {:>14} {:>14} {:>9}  verdict\n",
        "name", "old(ns)", "new(ns)", "delta"
    ));
    let ns = |v: Option<f64>| v.map_or("-".to_owned(), |x| format!("{x:.1}"));
    for r in rows {
        let delta = r.delta_pct.map_or("-".to_owned(), |d| format!("{d:+.1}%"));
        out.push_str(&format!(
            "  {:<width$} {:>14} {:>14} {:>9}  {}\n",
            r.name,
            ns(r.old_ns),
            ns(r.new_ns),
            delta,
            r.verdict.label(),
        ));
    }
    out
}

/// `ssr-cli bench diff OLD.json NEW.json [NEW.json...] [--threshold PCT]
/// [--only SUBSTR]`.
///
/// Prints the verdict table of `OLD.json` against the fastest run of
/// each row across the `NEW.json` snapshots ([`fastest_rows`]), and
/// errors (exit 1) when any row regressed beyond the threshold.
///
/// # Errors
///
/// Returns a message on unreadable or malformed snapshots, bad flags, or
/// when the gate fails.
pub fn cmd_diff(args: &[String]) -> Result<(), String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold = 20.0f64;
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = it.next().ok_or("--threshold requires a value")?;
                threshold =
                    v.parse().map_err(|_| format!("--threshold wants a percentage, got {v}"))?;
                if threshold.is_nan() || threshold < 0.0 {
                    return Err("--threshold wants a non-negative percentage".to_owned());
                }
            }
            "--only" => {
                only = Some(it.next().ok_or("--only requires a substring")?.clone());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown bench diff flag {other}"));
            }
            _ => paths.push(arg),
        }
    }
    let [old_path, new_paths @ ..] = paths.as_slice() else {
        return Err("bench diff wants snapshots: OLD.json NEW.json [NEW.json...]".to_owned());
    };
    if new_paths.is_empty() {
        return Err("bench diff wants snapshots: OLD.json NEW.json [NEW.json...]".to_owned());
    }
    #[expect(clippy::disallowed_methods, reason = "bench diff reads the snapshots it is given")]
    let read = |path: &String| {
        let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_snapshot(&doc, path)
    };
    let old = read(old_path)?;
    let runs = new_paths.iter().map(|p| read(p)).collect::<Result<Vec<_>, _>>()?;
    let rows = diff_rows(&old, &fastest_rows(&runs), threshold, only.as_deref());
    print!("{}", render(&rows, threshold));
    let regressions = rows.iter().filter(|r| r.verdict == Verdict::Regression).count();
    if regressions > 0 {
        let new_paths: Vec<&str> = new_paths.iter().map(|p| p.as_str()).collect();
        return Err(format!(
            "{regressions} benchmark(s) regressed beyond {threshold}% ({old_path} -> {})",
            new_paths.join(", ")
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(rows: &[(&str, f64)]) -> Vec<BenchRow> {
        rows.iter().map(|(n, ns)| BenchRow { name: (*n).to_owned(), per_iter_ns: *ns }).collect()
    }

    #[test]
    fn parses_the_checked_in_format() {
        let doc = r#"{
  "results": [
    {"name": "scheduler/offer_round/100", "per_iter_ns": 39001.9, "iters": 5203},
    {"name": "event_queue/push_pop_10k_fresh", "per_iter_ns": 1908233.9, "iters": 105, "before_ns": 2.5e6}
  ]
}"#;
        let rows = parse_snapshot(doc, "test").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "scheduler/offer_round/100");
        assert!((rows[0].per_iter_ns - 39001.9).abs() < 1e-9);
    }

    #[test]
    fn malformed_snapshots_are_named_in_the_error() {
        assert!(parse_snapshot("[]", "x.json").unwrap_err().contains("x.json"));
        assert!(parse_snapshot("{}", "x.json").unwrap_err().contains("results"));
        let bad = r#"{"results": [{"per_iter_ns": 1.0}]}"#;
        assert!(parse_snapshot(bad, "x.json").unwrap_err().contains("name"));
    }

    #[test]
    fn classifies_by_threshold() {
        let old = snapshot(&[("a", 100.0), ("b", 100.0), ("c", 100.0), ("gone", 5.0)]);
        let new = snapshot(&[("a", 110.0), ("b", 130.0), ("c", 60.0), ("fresh", 5.0)]);
        let rows = diff_rows(&old, &new, 20.0, None);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(by_name("a").verdict, Verdict::Ok);
        assert_eq!(by_name("b").verdict, Verdict::Regression);
        assert_eq!(by_name("c").verdict, Verdict::Improvement);
        assert_eq!(by_name("fresh").verdict, Verdict::Added);
        assert_eq!(by_name("gone").verdict, Verdict::Removed);
        assert!((by_name("b").delta_pct.unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn only_filter_restricts_the_join() {
        let old = snapshot(&[("scheduler/offer_round/100", 1.0), ("sim/grid", 1.0)]);
        let new = snapshot(&[("scheduler/offer_round/100", 1.0), ("sim/grid", 99.0)]);
        let rows = diff_rows(&old, &new, 20.0, Some("offer_round"));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "scheduler/offer_round/100");
    }

    #[test]
    fn rows_come_out_sorted_and_render_is_stable() {
        let old = snapshot(&[("z", 10.0), ("a", 10.0)]);
        let new = snapshot(&[("m", 10.0), ("a", 10.0)]);
        let rows = diff_rows(&old, &new, 20.0, None);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "m", "z"]);
        let text = render(&rows, 20.0);
        assert_eq!(text, render(&diff_rows(&old, &new, 20.0, None), 20.0));
        assert!(text.contains("bench diff (threshold +/-20%)"), "{text}");
        assert!(text.lines().count() == 2 + rows.len());
    }

    #[test]
    fn several_runs_are_judged_by_each_rows_fastest() {
        let old = snapshot(&[("a", 100.0), ("b", 100.0), ("c", 100.0)]);
        // `a` is slow in one run and `b` in another, as host load would
        // make them; `c` regressed in every run; `d` is new in the last.
        let runs = [
            snapshot(&[("a", 150.0), ("b", 105.0), ("c", 140.0)]),
            snapshot(&[("a", 101.0), ("b", 160.0), ("c", 130.0)]),
            snapshot(&[("c", 135.0), ("a", 170.0), ("b", 180.0), ("d", 7.0)]),
        ];
        let fastest = fastest_rows(&runs);
        assert_eq!(fastest, snapshot(&[("a", 101.0), ("b", 105.0), ("c", 130.0), ("d", 7.0)]));
        let rows = diff_rows(&old, &fastest, 20.0, None);
        let verdicts: Vec<Verdict> = rows.iter().map(|r| r.verdict).collect();
        assert_eq!(verdicts, [Verdict::Ok, Verdict::Ok, Verdict::Regression, Verdict::Added]);
        // One run is judged as it stands.
        assert_eq!(fastest_rows(&runs[..1]), runs[0]);
    }

    #[test]
    fn zero_old_time_never_divides() {
        let old = snapshot(&[("a", 0.0)]);
        let new = snapshot(&[("a", 5.0)]);
        let rows = diff_rows(&old, &new, 20.0, None);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[0].delta_pct, None);
    }
}
