//! Pointer addresses are ASLR artefacts.

pub fn slice_addr(v: &[u8]) -> usize {
    v.as_ptr() as usize //~ clippy::disallowed_methods
}

pub fn str_addr(s: &str) -> usize {
    s.as_ptr() as usize //~ clippy::disallowed_methods
}

pub fn ref_addr(r: &u64) -> usize {
    r as *const u64 as usize //~ clippy::ref_as_ptr
}

pub fn borrow_addr(x: u64) -> usize {
    &x as *const u64 as usize //~ clippy::borrow_as_ptr
}
