//! A corrupt sequence count must not reserve memory the input could
//! never fill: `Vec<T>`'s decode reserves at most one element per byte
//! left, however large the count it reads.

use gt_store::{decode_from_slice, encode_to_vec, DecodeError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest allocation this thread asked for since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

/// The system allocator, recording each thread's largest request.
struct LargestAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the record touches no allocator state.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

#[test]
fn a_corrupt_count_reserves_no_more_than_the_input_holds() {
    // One string, behind a sequence header that claims a million.
    let mut bytes = encode_to_vec(&vec![String::from("x")]);
    bytes[1..9].copy_from_slice(&1_000_000u64.to_le_bytes());
    LARGEST.with(|largest| largest.set(0));
    let decoded = decode_from_slice::<Vec<String>>(&bytes);
    let largest = LARGEST.with(Cell::get);
    assert!(matches!(decoded, Err(DecodeError::UnexpectedEof { .. })));
    let bound = bytes.len() * std::mem::size_of::<String>();
    assert!(
        largest <= bound,
        "reserved {largest} bytes for a {}-byte input (bound {bound})",
        bytes.len()
    );
}
