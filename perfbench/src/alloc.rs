//! A counting global allocator. The binary installs it; counting stays off
//! (one relaxed load per allocation) except around the traced passes that
//! read `alloc.count_per_round` and `alloc.bytes_per_round`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, plus allocation and byte counts while counting is
/// on. Reallocations count as one allocation of the new size.
pub struct CountingAlloc;

fn note(bytes: usize) {
    if COUNTING.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` correctly; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off. Counts accumulate across on-periods.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// `(allocations, bytes)` counted so far, over every thread.
pub fn counts() -> (u64, u64) {
    (COUNT.load(Relaxed), BYTES.load(Relaxed))
}
