//! A reasonless opt-out still silences its target, but is itself
//! rejected.

#[allow(clippy::disallowed_types)] //~ clippy::allow_attributes_without_reason
pub fn count(m: &std::collections::HashMap<u32, u32>) -> usize {
    m.len()
}

#[expect(clippy::disallowed_methods)] //~ clippy::allow_attributes_without_reason
pub fn home() -> Option<std::ffi::OsString> {
    std::env::var_os("HOME")
}
