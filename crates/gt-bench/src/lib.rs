//! Performance guard tests for the givetake workspace.
//!
//! The crate's `tests/` directory holds the guards (warm-store speedup,
//! scam/benign recording cost ratio and allocation count, one QR scan
//! per overlay in the monitor, URL extractor against its reference,
//! chat path against copying into a set, monitor cost per sample
//! against ended streams, tweet snapshot decode allocations, QR encode
//! against a frame scan). The end-to-end and per-layer timings live in
//! the `givebench` benchmark. The library holds only the allocation
//! counter the allocation guards share: a guard installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: gt_bench::CountingAlloc = gt_bench::CountingAlloc;
//! ```
//!
//! and reads its counts with [`counted`]. The counts are per calling
//! thread, so they are exact and the same in debug and release builds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations this thread made since the last reset.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting each thread's allocations.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the count touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `f`'s result and the allocations it made on this thread, counted
/// when [`CountingAlloc`] is the global allocator.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    let out = f();
    (out, ALLOCS.with(Cell::get))
}
