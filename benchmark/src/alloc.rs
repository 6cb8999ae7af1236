//! A counting `#[global_allocator]` wrapper around the system allocator.
//!
//! Counting is off except inside [`counted`], which the separate, untimed
//! allocation pass uses; with counting off the wrapper costs one relaxed
//! load per call, so the timed passes run on what is in effect the system
//! allocator. The counters are process-wide atomics (not thread-local):
//! the executor's rank threads and the TCP I/O threads are spawned by the
//! program, not by the benchmark, and their allocations must count too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The wrapper installed as the benchmark binary's global allocator.
pub struct CountingAlloc;

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout` (this
        // wrapper never substitutes pointers).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `body` with counting on and returns its result plus the
/// (allocations, bytes requested) made by every thread meanwhile.
pub fn counted<R>(body: impl FnOnce() -> R) -> (R, u64, u64) {
    let (c0, b0) = (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    COUNTING.store(true, Ordering::SeqCst);
    let r = body();
    COUNTING.store(false, Ordering::SeqCst);
    (
        r,
        COUNT.load(Ordering::Relaxed) - c0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}
