//! An opt-out that names no lint silences nothing and is rejected.

#[allow(reason = "names no lint")] //~ unused_attributes
pub fn nothing() {}
