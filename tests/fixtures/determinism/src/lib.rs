//! Each module holds the fixture of one determinism code (the
//! `p001*` modules: the clippy lints recovery code denies). A line
//! ending in `//~ LINT` must be rejected by LINT; every other line must
//! be clean.

pub mod clean;
pub mod d001;
pub mod d002;
pub mod d003;
pub mod d004;
pub mod d005;
pub mod d104;
pub mod d105;
pub mod d106;
pub mod l001;
pub mod l001_malformed;
pub mod l002;
pub mod p001;
pub mod p001_expect;
pub mod p001_stale;
pub mod s001;
