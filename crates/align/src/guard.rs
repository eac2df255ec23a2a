//! Test-only: inputs placed against unreadable pages.
//!
//! The vector bodies of this crate, and of `psc-index` (which includes
//! this file by path), read their inputs through raw pointers, a
//! register at a time, and their contracts say how far past a window or
//! a sequence such a load may reach. There is no Miri or
//! sanitizer on this toolchain, so [`Guarded`] makes the contracts
//! faults: a copy of the input whose last byte is the last readable one
//! before a `PROT_NONE` page (or whose first byte is the first readable
//! one after it). A body that reads further takes a SIGSEGV in the test
//! that lent it the input. Outputs owned by `Vec`s are not covered.

use std::ffi::c_void;
use std::ops::Deref;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

/// Guard and rounding unit: a multiple of every page size Linux runs
/// with on the targets this crate has vector bodies for.
const PAGE: usize = 64 << 10;

/// Bytes between two unreadable pages, flush against one of them.
pub struct Guarded {
    base: *mut u8,
    mapped: usize,
    at: usize,
    len: usize,
}

impl Guarded {
    /// A copy of `bytes` that ends where an unreadable page begins.
    pub fn before_a_guard(bytes: &[u8]) -> Guarded {
        Guarded::place(bytes, true)
    }

    /// A copy of `bytes` that begins where an unreadable page ends.
    pub fn after_a_guard(bytes: &[u8]) -> Guarded {
        Guarded::place(bytes, false)
    }

    fn place(bytes: &[u8], at_the_end: bool) -> Guarded {
        let room = bytes.len().next_multiple_of(PAGE).max(PAGE);
        let mapped = PAGE + room + PAGE;
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                mapped,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(base as isize != -1, "mmap of {mapped} bytes failed");
        let base = base.cast::<u8>();
        let at = PAGE + if at_the_end { room - bytes.len() } else { 0 };
        // SAFETY: `at + bytes.len() <= PAGE + room`, inside the mapping,
        // which is writable and which nothing else refers to yet; the
        // two guards are whole pages of it, at page-aligned offsets.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), base.add(at), bytes.len());
            let front = mprotect(base.cast(), PAGE, PROT_NONE);
            let back = mprotect(base.add(PAGE + room).cast(), PAGE, PROT_NONE);
            assert_eq!((front, back), (0, 0), "mprotect failed");
        }
        Guarded {
            base,
            mapped,
            at,
            len: bytes.len(),
        }
    }
}

impl Deref for Guarded {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `place` initialised these `len` bytes inside the
        // readable part of a mapping that lives as long as `self`.
        unsafe { std::slice::from_raw_parts(self.base.add(self.at), self.len) }
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        // SAFETY: the mapping `place` made, whole; no borrow of it
        // outlives `self`.
        unsafe { munmap(self.base.cast(), self.mapped) };
    }
}

#[test]
fn the_bytes_are_there_and_flush_against_their_guard() {
    // What the kernel says of the mapping holding `addr`: "rw-p", "---p".
    let permissions = |addr: usize| -> Option<String> {
        let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
        maps.lines().find_map(|line| {
            let (range, rest) = line.split_once(' ')?;
            let (lo, hi) = range.split_once('-')?;
            let inside = usize::from_str_radix(lo, 16).ok()? <= addr
                && addr < usize::from_str_radix(hi, 16).ok()?;
            inside.then(|| rest[..4].to_string())
        })
    };
    let bytes: Vec<u8> = (0..=255).cycle().take(70_000).collect();
    for n in [1, 59, 4096, 65_536, 70_000] {
        let end = Guarded::before_a_guard(&bytes[..n]);
        let start = Guarded::after_a_guard(&bytes[..n]);
        assert_eq!((&*end, &*start), (&bytes[..n], &bytes[..n]));
        let (past, last) = (end.as_ptr_range().end as usize, start.as_ptr() as usize - 1);
        assert_eq!(permissions(past).as_deref(), Some("---p"), "n={n}");
        assert_eq!(permissions(past - 1).as_deref(), Some("rw-p"), "n={n}");
        assert_eq!(permissions(last).as_deref(), Some("---p"), "n={n}");
        assert_eq!(permissions(last + 1).as_deref(), Some("rw-p"), "n={n}");
    }
}
