//! Counting global allocator for the `*.allocs_per_change` layer metrics.
//!
//! Counting is off unless [`counted`] is running: the end-to-end passes pay
//! one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

// Relaxed throughout: the flag and the counter are statistics that publish
// no other data.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter updates touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` with counting on; returns its result and the number of
/// allocator calls (`alloc` + `realloc`) made by *any* thread meanwhile.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let r = f();
    ON.store(false, Ordering::Relaxed);
    (r, CALLS.load(Ordering::Relaxed) - before)
}
