//! The crate-graph half of the determinism contract, read from
//! `crates/*/Cargo.toml`. Clippy bans every nondeterministic source
//! outside the three barrier modules and the bench and cli crates;
//! if no deterministic crate depends on those crates, nondeterminism can
//! reach deterministic code only through a barrier module. That is the
//! guarantee the retired D101–D106 taint pass gave.

mod common;

use common::{workspace_root, DETERMINISTIC_CRATES};

/// Crates that may read clocks, files, argv and the environment.
const NONDETERMINISTIC_CRATES: &[&str] = &["bench", "cli"];

/// Vendored stand-ins a deterministic crate may depend on: plain
/// serialization, outside clippy's reach but free of I/O and clocks.
const VENDORED_DEPENDENCIES: &[&str] = &["serde", "serde_json"];

/// What the rules need from one manifest.
#[derive(Debug, Default)]
struct Manifest {
    /// Directory name under `crates/`.
    dir: String,
    /// `[dependencies]` and `[build-dependencies]` keys.
    dependencies: Vec<String>,
    /// `[lints] workspace = true` is set.
    workspace_lints: bool,
}

impl Manifest {
    fn parse(dir: &str, toml: &str) -> Manifest {
        let mut m = Manifest { dir: dir.to_owned(), ..Manifest::default() };
        let mut section = "";
        for line in toml.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            match section {
                "[dependencies]" | "[build-dependencies]" => {
                    m.dependencies.push(key.split('.').next().unwrap_or(key).to_owned());
                }
                "[lints]" => m.workspace_lints |= key == "workspace" && value.trim() == "true",
                _ => {}
            }
        }
        m
    }
}

/// Every rule violation in `manifests`, one line each.
fn violations(manifests: &[Manifest]) -> Vec<String> {
    let mut out = Vec::new();
    for m in manifests {
        let deterministic = DETERMINISTIC_CRATES.contains(&m.dir.as_str());
        if !deterministic && !NONDETERMINISTIC_CRATES.contains(&m.dir.as_str()) {
            out.push(format!(
                "{}: crate is in neither the deterministic nor the opt-out set",
                m.dir
            ));
        }
        if !m.workspace_lints {
            out.push(format!("{}: missing `[lints] workspace = true`", m.dir));
        }
        if !deterministic {
            continue;
        }
        for dep in &m.dependencies {
            let allowed = match dep.strip_prefix("ssr-") {
                Some(krate) => DETERMINISTIC_CRATES.contains(&krate),
                None => VENDORED_DEPENDENCIES.contains(&dep.as_str()),
            };
            if !allowed {
                out.push(format!("{}: deterministic crate depends on `{dep}`", m.dir));
            }
        }
    }
    out
}

fn workspace_manifests() -> Vec<Manifest> {
    let crates = workspace_root().join("crates");
    let mut dirs: Vec<_> = std::fs::read_dir(&crates)
        .expect("crates/ is listable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").exists())
        .collect();
    dirs.sort();
    dirs.iter()
        .map(|d| {
            let name = d.file_name().expect("crate dir").to_string_lossy();
            Manifest::parse(
                &name,
                &std::fs::read_to_string(d.join("Cargo.toml")).expect("manifest"),
            )
        })
        .collect()
}

/// The non-blank lines of a manifest's `[workspace.lints.*]` tables.
fn workspace_lints(toml: &str) -> Vec<&str> {
    let mut inside = false;
    toml.lines()
        .filter(|line| {
            if line.starts_with('[') {
                inside = line.starts_with("[workspace.lints");
            }
            inside && !line.trim().is_empty()
        })
        .collect()
}

#[test]
fn deterministic_crates_depend_only_on_deterministic_crates() {
    let manifests = workspace_manifests();
    assert_eq!(manifests.len(), DETERMINISTIC_CRATES.len() + NONDETERMINISTIC_CRATES.len());
    let found = violations(&manifests);
    assert!(found.is_empty(), "crate-graph violations:\n{}", found.join("\n"));
}

#[test]
fn root_package_and_fixture_crate_share_the_workspace_lints() {
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        Manifest::parse("ssr", &manifest).workspace_lints,
        "root package must inherit the lints"
    );
    let lints = workspace_lints(&manifest);
    assert!(lints.contains(&"unsafe_code = \"forbid\""), "{lints:?}");
    assert!(lints.contains(&"allow_attributes_without_reason = \"warn\""), "{lints:?}");
    let fixture =
        std::fs::read_to_string(root.join("tests/fixtures/determinism/Cargo.toml"))
            .expect("fixture manifest");
    assert_eq!(workspace_lints(&fixture), lints, "the clippy fixture must lint like the workspace");
}

#[test]
fn a_deterministic_crate_reaching_a_clock_through_a_helper_is_rejected() {
    // The retired D101 fixture: scheduler -> util -> Instant::now. The
    // helper crate may not join the deterministic set (clippy would ban
    // its clock read), and outside it the dependency edge is the finding.
    let scheduler = Manifest::parse(
        "scheduler",
        "[package]\nname = \"ssr-scheduler\"\n\n[lints]\nworkspace = true\n\n\
         [dependencies]\nssr-simcore.workspace = true\nssr-bench.workspace = true\n\
         rand = \"0.8\"\n",
    );
    let util = Manifest::parse("util", "[package]\nname = \"ssr-util\"\n");
    assert_eq!(
        violations(&[scheduler, util]),
        [
            "scheduler: deterministic crate depends on `ssr-bench`",
            "scheduler: deterministic crate depends on `rand`",
            "util: crate is in neither the deterministic nor the opt-out set",
            "util: missing `[lints] workspace = true`",
        ]
    );
}

#[test]
fn dev_dependencies_stay_exempt_like_test_code() {
    let check = Manifest::parse(
        "check",
        "[lints]\nworkspace = true\n\n[dependencies]\nssr-trace.workspace = true\n\n\
         [dev-dependencies]\nssr-bench.workspace = true\n",
    );
    assert_eq!(check.dependencies, ["ssr-trace"]);
    assert!(violations(&[check]).is_empty());
}
