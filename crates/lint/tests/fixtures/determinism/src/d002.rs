//! Wall-clock reads outside the timing barrier.

pub fn seconds_since_start() -> f64 {
    let started = std::time::Instant::now(); //~ clippy::disallowed_types
    started.elapsed().as_secs_f64()
}

pub fn stamp() -> std::time::SystemTime { //~ clippy::disallowed_types
    std::time::SystemTime::now() //~ clippy::disallowed_types
}
