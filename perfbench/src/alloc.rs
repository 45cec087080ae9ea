//! A counting wrapper around the system allocator, armed only while a
//! traced arm runs.
//!
//! The counter is process-global and the benchmark is single-threaded, so a
//! delta between two [`allocations`] reads is the traced section's own
//! allocation count. Disarmed, each allocation pays one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter that counts while armed.
pub struct CountingAllocator;

#[inline]
fn count() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; the counter has no allocator-visible side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc may move, i.e. allocate; count it as one.
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Starts or stops counting.
fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Allocations counted so far while armed.
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `f` with counting armed and returns its result and the number of
/// allocations it made.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    arm(true);
    let out = f();
    arm(false);
    (out, allocations() - before)
}
