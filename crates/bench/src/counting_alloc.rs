//! Counting global allocator for the `scale` and `wire` benches, which
//! each include this file with `#[path]` and install [`CountingAlloc`] as
//! their own `#[global_allocator]`. It stays out of the library, which
//! forbids `unsafe` and would otherwise hook every test and example that
//! links `omni-bench`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation (and reallocation) the process makes.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations and reallocations so far; diff two readings to count a
/// window's.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is an atomic
// and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
