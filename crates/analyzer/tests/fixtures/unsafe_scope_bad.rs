//! A documented `unsafe` block. rustc and clippy pass it unless the
//! crate's manifest inherits the workspace's `unsafe_code = "forbid"`.

pub fn first(xs: &[u8]) -> u8 {
    assert!(!xs.is_empty());
    // SAFETY: the assert above makes index 0 in bounds.
    unsafe { *xs.get_unchecked(0) }
}
