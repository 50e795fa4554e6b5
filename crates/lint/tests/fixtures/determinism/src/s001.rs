//! Unsafe code, forbidden workspace-wide.

/// # Safety
///
/// Never unsafe to call; the declaration alone is the violation.
pub unsafe fn raw() {} //~ unsafe_code
