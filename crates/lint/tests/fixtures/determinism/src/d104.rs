//! Randomized hashers differ per process.

use std::hash::{BuildHasher, Hasher};

pub fn bucket(key: u64) -> u64 {
    let state = std::collections::hash_map::RandomState::new(); //~ clippy::disallowed_types
    state.hash_one(key)
}

pub fn digest(key: u64) -> u64 {
    let mut h = std::hash::DefaultHasher::new(); //~ clippy::disallowed_types
    h.write_u64(key);
    h.finish()
}
