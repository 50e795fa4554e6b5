//! Panic sites in recovery code, which denies the five lints that
//! replaced the retired P001 call-graph audit (cluster/src/pool.rs and
//! every recovery-path function carry the same list).

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "fault recovery must not panic"
)]

pub fn first_failed(failed: &[u32]) -> u32 {
    failed[0] //~ clippy::indexing_slicing
}

pub fn owner(reservation: Option<u64>) -> u64 {
    reservation.unwrap() //~ clippy::unwrap_used
}

pub fn deadline(deadline: Option<u64>) -> u64 {
    deadline.expect("bounded reservation") //~ clippy::expect_used
}

pub fn restore(online: bool) {
    if online {
        panic!("slot already online"); //~ clippy::panic
    }
}

pub fn kill(running: bool) {
    if !running {
        unreachable!("killed an idle slot"); //~ clippy::unreachable
    }
}
