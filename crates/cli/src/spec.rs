//! Workload specification strings: `template[:key=value,...]`.
//!
//! Grammar accepted by `--fg` / `--bg`:
//!
//! ```text
//! kmeans[:par=8,iters=4,prio=10,mean=4,cv=0.35,factor=1,arrival=0]
//! svm[:...]            same keys as kmeans
//! pagerank[:...]       same keys as kmeans
//! sql[:q=3,par=32,prio=10,factor=1]       one TPC-DS-like query (q in 1..=20)
//! sql[:all,par=32,prio=10]                all 20 queries
//! pipeline[:phases=3,par=8,tm=1,alpha=1.6,prio=10]   Pareto pipeline
//! maponly[:tasks=64,secs=30,prio=0]       single-phase batch job
//! google[:jobs=100,factor=1,seed=7,prio=0,horizon=3600]   background trace mix
//! ```
//!
//! Unknown keys are errors. Times (`arrival`, `secs`, `horizon`) and `cv`
//! must be finite and non-negative; means, factors, `tm` and `alpha` must
//! be positive. No real-valued key may exceed [`MAX_REAL`].

use std::collections::BTreeMap;
use std::fmt;

use ssr_dag::{JobSpec, Priority};
use ssr_simcore::rng::SimRng;
use ssr_simcore::{SimDuration, SimTime};
use ssr_workload::google::GoogleTraceGenerator;
use ssr_workload::{mllib, sql, synthetic, GoogleTraceConfig, MllibParams, SqlParams};

/// Error produced when a workload specification string cannot be parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid workload spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// The largest value a real-valued key accepts (about 31.7 years in
/// seconds), so products of means and factors stay finite.
const MAX_REAL: f64 = 1e9;

/// Key/value options after the template name.
#[derive(Debug, Default)]
struct Options {
    kv: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Options {
    fn parse(rest: Option<&str>) -> Result<Options, SpecError> {
        let mut options = Options::default();
        let Some(rest) = rest else { return Ok(options) };
        for part in rest.split(',').filter(|p| !p.is_empty()) {
            match part.split_once('=') {
                Some((k, v)) => {
                    options.kv.insert(k.trim().to_owned(), v.trim().to_owned());
                }
                None => options.flags.push(part.trim().to_owned()),
            }
        }
        Ok(options)
    }

    /// Rejects keys and flags outside the template's grammar.
    fn only(&self, template: &str, keys: &[&str], flags: &[&str]) -> Result<(), SpecError> {
        let unknown = self.kv.keys().find(|k| !keys.contains(&k.as_str()));
        match unknown.or_else(|| self.flags.iter().find(|f| !flags.contains(&f.as_str()))) {
            Some(bad) => {
                Err(err(format!("unknown key {bad} for {template}; known: {}", keys.join(" "))))
            }
            None => Ok(()),
        }
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, SpecError> {
        match self.kv.get(key) {
            Some(v) => v.parse().map_err(|_| err(format!("bad value for {key}: {v}"))),
            None => Ok(default),
        }
    }

    /// A real in `[0, MAX_REAL]`.
    fn non_negative(&self, key: &str, default: f64) -> Result<f64, SpecError> {
        let v = self.num(key, default)?;
        if (0.0..=MAX_REAL).contains(&v) {
            Ok(v)
        } else {
            Err(err(format!("{key}={v} must be finite, non-negative and at most {MAX_REAL}")))
        }
    }

    /// A real in `(0, MAX_REAL]`.
    fn positive(&self, key: &str, default: f64) -> Result<f64, SpecError> {
        let v = self.non_negative(key, default)?;
        if v > 0.0 {
            Ok(v)
        } else {
            Err(err(format!("{key}={v} must be positive")))
        }
    }

    fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

/// Parses one workload spec into job specifications (one job for most
/// templates; many for `sql:all` and `google`).
pub fn parse(spec: &str) -> Result<Vec<JobSpec>, SpecError> {
    let (template, rest) = match spec.split_once(':') {
        Some((t, r)) => (t, Some(r)),
        None => (spec, None),
    };
    let o = Options::parse(rest)?;
    match template {
        "kmeans" | "svm" | "pagerank" => {
            o.only(template, &["par", "iters", "prio", "mean", "cv", "factor", "arrival"], &[])?;
            let mut params = MllibParams::small()
                .with_parallelism(o.num("par", 8u32)?)
                .with_iterations(o.num("iters", 4u32)?)
                .with_priority(Priority::new(o.num("prio", 0i32)?))
                .with_mean_task_secs(o.positive("mean", 4.0)?)
                .with_runtime_factor(o.positive("factor", 1.0)?)
                .with_arrival(SimTime::from_secs_f64(o.non_negative("arrival", 0.0)?));
            params.cv = o.non_negative("cv", params.cv)?;
            let job = match template {
                "kmeans" => mllib::kmeans(&params),
                "svm" => mllib::svm(&params),
                _ => mllib::pagerank(&params),
            }
            .map_err(|e| err(format!("{template}: {e}")))?;
            Ok(vec![job])
        }
        "sql" => {
            o.only(template, &["q", "par", "prio", "factor"], &["all"])?;
            let params = SqlParams::medium()
                .with_base_parallelism(o.num("par", 32u32)?)
                .with_priority(Priority::new(o.num("prio", 0i32)?))
                .with_runtime_factor(o.positive("factor", 1.0)?);
            if o.has_flag("all") {
                sql::all_queries(&params).map_err(|e| err(format!("sql: {e}")))
            } else {
                let q: usize = o.num("q", 1usize)?;
                if !(1..=sql::QUERY_COUNT).contains(&q) {
                    return Err(err(format!("sql query q={q} out of 1..={}", sql::QUERY_COUNT)));
                }
                Ok(vec![sql::query(q - 1, &params).map_err(|e| err(format!("sql: {e}")))?])
            }
        }
        "pipeline" => {
            o.only(template, &["phases", "par", "tm", "alpha", "prio"], &[])?;
            let job = synthetic::pareto_pipeline(
                "pipeline",
                o.num("phases", 3u32)?,
                o.num("par", 8u32)?,
                o.positive("tm", 1.0)?,
                o.positive("alpha", 1.6)?,
                Priority::new(o.num("prio", 0i32)?),
            )
            .map_err(|e| err(format!("pipeline: {e}")))?;
            Ok(vec![job])
        }
        "maponly" => {
            o.only(template, &["tasks", "secs", "prio"], &[])?;
            let job = synthetic::map_only(
                "maponly",
                o.num("tasks", 64u32)?,
                ssr_simcore::dist::constant(o.non_negative("secs", 30.0)?),
                Priority::new(o.num("prio", 0i32)?),
            )
            .map_err(|e| err(format!("maponly: {e}")))?;
            Ok(vec![job])
        }
        "google" => {
            o.only(template, &["jobs", "factor", "seed", "prio", "horizon"], &[])?;
            let mut config = GoogleTraceConfig::cluster_hour()
                .with_jobs(o.num("jobs", 100u32)?)
                .with_priority(Priority::new(o.num("prio", 0i32)?))
                .with_runtime_factor(o.positive("factor", 1.0)?);
            config.horizon = SimDuration::from_secs_f64(o.non_negative("horizon", 3600.0)?);
            let mut rng = SimRng::stream(o.num("seed", 7u64)?, 0);
            GoogleTraceGenerator::new(config)
                .generate(&mut rng)
                .map_err(|e| err(format!("google: {e}")))
        }
        other => Err(err(format!(
            "unknown template {other}; known: kmeans svm pagerank sql pipeline maponly google"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mllib_templates_with_defaults() {
        let jobs = parse("kmeans").unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].name(), "kmeans");
        assert_eq!(jobs[0].stages()[0].parallelism(), 8);
        assert!(parse("svm").is_ok());
        assert!(parse("pagerank").is_ok());
    }

    #[test]
    fn mllib_options_apply() {
        let jobs = parse("kmeans:par=16,iters=2,prio=10,arrival=5").unwrap();
        let j = &jobs[0];
        assert_eq!(j.stages().len(), 5); // load + 2x2
        assert_eq!(j.stages()[0].parallelism(), 16);
        assert_eq!(j.priority(), Priority::new(10));
        assert_eq!(j.arrival(), SimTime::from_secs(5));
    }

    #[test]
    fn sql_single_and_all() {
        let one = parse("sql:q=3,par=16").unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].name(), "tpcds-q03");
        let all = parse("sql:all").unwrap();
        assert_eq!(all.len(), 20);
        assert!(parse("sql:q=21").is_err());
        assert!(parse("sql:q=0").is_err());
    }

    #[test]
    fn pipeline_and_maponly() {
        let p = parse("pipeline:phases=4,par=2,alpha=1.3").unwrap();
        assert_eq!(p[0].stages().len(), 4);
        let m = parse("maponly:tasks=5,secs=2").unwrap();
        assert_eq!(m[0].total_tasks(), 5);
    }

    #[test]
    fn google_trace_generates_jobs() {
        let jobs = parse("google:jobs=12,seed=3").unwrap();
        assert_eq!(jobs.len(), 12);
        // Deterministic per seed.
        let again = parse("google:jobs=12,seed=3").unwrap();
        assert_eq!(jobs[0].arrival(), again[0].arrival());
    }

    #[test]
    fn errors_are_informative() {
        let e = parse("nosuch").unwrap_err();
        assert!(e.0.contains("unknown template"));
        let e = parse("kmeans:par=abc").unwrap_err();
        assert!(e.0.contains("bad value for par"));
        assert!(format!("{}", parse("nosuch").unwrap_err()).contains("invalid workload spec"));
    }

    fn rejection(spec: &str) -> String {
        parse(spec).expect_err("spec must be rejected").0
    }

    #[test]
    fn maponly_negative_secs_is_rejected() {
        assert!(rejection("maponly:secs=-1").contains("secs=-1"));
    }

    #[test]
    fn maponly_non_finite_secs_is_rejected() {
        assert!(rejection("maponly:secs=nan").contains("finite"));
        assert!(rejection("maponly:secs=inf").contains("finite"));
    }

    #[test]
    fn kmeans_negative_mean_is_rejected() {
        assert!(rejection("kmeans:mean=-1").contains("mean=-1"));
    }

    #[test]
    fn kmeans_negative_arrival_is_rejected() {
        assert!(rejection("kmeans:arrival=-1").contains("arrival=-1"));
    }

    #[test]
    fn google_negative_or_nan_horizon_is_rejected() {
        assert!(rejection("google:horizon=-1").contains("horizon=-1"));
        assert!(rejection("google:horizon=nan").contains("horizon=NaN"));
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let e = rejection("maponly:tasks=2,bogus=3");
        assert!(e.contains("unknown key bogus for maponly"), "{e}");
        assert!(rejection("kmeans:fast").contains("unknown key fast"));
    }

    #[test]
    fn kmeans_cv_is_honoured() {
        let skewed = parse("kmeans:cv=2").unwrap();
        let even = parse("kmeans:cv=0").unwrap();
        assert_ne!(format!("{skewed:?}"), format!("{even:?}"));
    }

    #[test]
    fn empty_option_segments_tolerated() {
        assert!(parse("kmeans:").is_ok());
        assert!(parse("kmeans:par=4,,iters=1").is_ok());
    }
}
