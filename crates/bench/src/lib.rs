//! # ssr-bench
//!
//! The paper-reproduction harness: one module per evaluation figure of the
//! ICDCS 2017 paper (see `DESIGN.md` §3 for the index), a text-table
//! renderer, and the Criterion micro-benchmarks under `benches/`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p ssr-bench --release --bin figures -- all
//! cargo run -p ssr-bench --release --bin figures -- fig08 fig10
//! ```

#![deny(missing_docs)]

pub mod figures;
pub mod table;

pub use table::Table;
