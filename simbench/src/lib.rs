//! End-to-end and per-layer benchmark of the SSR simulator.
//!
//! Three workloads (`fig15`, `paper_scale`, `traced_faults`) run against
//! the workspace crates' public API. Without tracing, a run measures
//! whole untraced passes for the time budget and reports the end-to-end
//! metrics; with tracing, each untraced pass is followed by a traced pass
//! that re-runs the same simulations through a replica of the engine's
//! event loop, with timing decorators on the `ReservationPolicy`,
//! `JobOrder` and `TraceSink` seams, and reports per-layer metrics. See
//! `README.md` for the metrics, the workloads and the recorded baseline.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod heap;
pub mod layers;
pub mod ledger;
pub mod measure;
pub mod probes;
pub mod replica;
pub mod runspec;
pub mod workloads;

#[global_allocator]
static HEAP: heap::CountingAlloc = heap::CountingAlloc::new();

/// Highest number of heap bytes live at once in this process so far.
pub fn peak_heap_bytes() -> usize {
    HEAP.peak_bytes()
}
