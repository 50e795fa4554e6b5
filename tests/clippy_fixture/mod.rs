//! Lints the `tests/fixtures/determinism` crate exactly as ci.sh's
//! determinism pass lints the workspace, and checks its `//~`
//! annotations: a fixture line ending in `//~ LINT` must be rejected by
//! LINT, and no other line may be. The crate sits outside `crates/`, so
//! clippy finds `crates/clippy.toml` through `CLIPPY_CONF_DIR`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use serde_json::Value;

pub fn fixture_crate() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/determinism")
}

/// The source of the fixture module `src/<module>.rs`.
pub fn fixture_source(module: &str) -> String {
    std::fs::read_to_string(fixture_crate().join(format!("src/{module}.rs")))
        .expect("fixture exists")
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn text(value: Option<&Value>) -> Option<&str> {
    match value {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// `(file, line, lint)` for every diagnostic clippy reports on the
/// fixture crate, run once per test binary.
fn clippy_findings() -> &'static BTreeSet<(String, u64, String)> {
    static FINDINGS: OnceLock<BTreeSet<(String, u64, String)>> = OnceLock::new();
    FINDINGS.get_or_init(|| {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let output = Command::new(cargo)
            .env("CLIPPY_CONF_DIR", Path::new(env!("CARGO_MANIFEST_DIR")).join("crates"))
            .args(["clippy", "--offline", "--quiet", "--message-format=json", "--manifest-path"])
            .arg(fixture_crate().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism-fixtures"))
            .args(["--", "-D", "warnings"])
            .args(["-D", "clippy::disallowed_types", "-D", "clippy::disallowed_methods"])
            .output()
            .expect("cargo clippy runs");
        let stdout = String::from_utf8(output.stdout).expect("cargo emits UTF-8");
        let mut findings = BTreeSet::new();
        for line in stdout.lines() {
            let msg = serde_json::from_str(line).expect("cargo emits one JSON message per line");
            if text(field(&msg, "reason")) != Some("compiler-message") {
                continue;
            }
            let message = field(&msg, "message").expect("compiler message");
            let Some(lint) = field(message, "code").and_then(|c| text(field(c, "code"))) else {
                continue; // summaries such as "could not compile"
            };
            let Some(Value::Array(spans)) = field(message, "spans") else {
                continue;
            };
            for span in spans {
                if field(span, "is_primary") == Some(&Value::Bool(true)) {
                    let file = text(field(span, "file_name")).expect("span file").to_owned();
                    let Some(Value::UInt(line)) = field(span, "line_start") else {
                        continue;
                    };
                    findings.insert((file, *line, lint.to_owned()));
                }
            }
        }
        assert!(
            !findings.is_empty(),
            "clippy reported nothing:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        findings
    })
}

/// Asserts that clippy rejects exactly the `//~`-annotated lines of
/// `src/<module>.rs`, each with its named lint.
pub fn assert_rejected(module: &str) {
    let file = format!("src/{module}.rs");
    let expected: BTreeSet<(u64, String)> = (1..)
        .zip(fixture_source(module).lines())
        .filter_map(|(n, line)| {
            line.split_once("//~ ").map(|(_, lint)| (n, lint.trim().to_owned()))
        })
        .collect();
    let actual: BTreeSet<(u64, String)> = clippy_findings()
        .iter()
        .filter(|(f, _, _)| *f == file)
        .map(|(_, line, lint)| (*line, lint.clone()))
        .collect();
    assert_eq!(actual, expected, "{file}: clippy findings vs `//~` annotations");
}
