//! The `ssr-lint` binary: walk the workspace, report D004 findings, exit
//! nonzero on any.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "non-deterministic crate: reads argv"
)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ssr_lint::run_cli(&args)
}
