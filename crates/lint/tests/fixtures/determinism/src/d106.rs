//! Environment, filesystem and process input.

use std::io::Read;

pub fn jobs() -> Option<String> {
    std::env::var("SSR_JOBS").ok() //~ clippy::disallowed_methods
}

pub fn config(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default() //~ clippy::disallowed_methods
}

pub fn first_byte(path: &str) -> Option<u8> {
    let mut f = std::fs::File::open(path).ok()?; //~ clippy::disallowed_methods
    let mut b = [0u8; 1];
    f.read_exact(&mut b).ok().map(|()| b[0])
}

pub fn piped() -> usize {
    std::io::stdin().lines().count() //~ clippy::disallowed_methods
}
