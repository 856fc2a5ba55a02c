//! A counting global allocator, confined to this benchmark binary.
//!
//! Counting is off by default (one relaxed load per allocation) and is
//! switched on only around the step loops whose allocations per round the
//! traced run reports. Every call is forwarded unchanged to the system
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocated memory.
// lint:allow(unsafe-code): a global allocator can only be written with unsafe; this one only counts and forwards to System
unsafe impl GlobalAlloc for CountingAlloc {
    // lint:allow(unsafe-code): GlobalAlloc::alloc is an unsafe trait method; the caller's layout is passed through unchanged
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller guarantees `layout` has non-zero size, as System requires.
        // lint:allow(unsafe-code): forwarding the caller's request to the system allocator
        unsafe { System.alloc(layout) }
    }

    // lint:allow(unsafe-code): GlobalAlloc::dealloc is an unsafe trait method; pointer and layout pass through unchanged
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from System, with this `layout`.
        // lint:allow(unsafe-code): forwarding the caller's release to the system allocator
        unsafe { System.dealloc(ptr, layout) }
    }

    // lint:allow(unsafe-code): GlobalAlloc::realloc is an unsafe trait method; arguments pass through unchanged
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` came from System via this allocator, and the
        // caller guarantees `new_size` is non-zero and fits `isize`.
        // lint:allow(unsafe-code): forwarding the caller's resize to the system allocator
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting on and returns its result with the number of
/// allocations (including reallocations) made meanwhile on any thread.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}
