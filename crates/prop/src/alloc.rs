//! A counting global allocator for tests that pin what code allocates.
//!
//! A test binary installs it once —
//! `#[global_allocator] static GLOBAL: lc_prop::alloc::Counting = lc_prop::alloc::Counting;`
//! — and reads [`allocs`] / [`largest`] around the code under test. The
//! counters are thread-local, so the libtest harness thread and other
//! tests' threads cannot leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

/// Allocator calls made on this thread so far (a grow counts: it asked
/// the allocator for memory, and `lcperf` counts alike).
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Largest single request on this thread since [`reset_largest`], bytes.
pub fn largest() -> usize {
    LARGEST.with(Cell::get)
}

/// Start a new [`largest`] measurement.
pub fn reset_largest() {
    LARGEST.with(|c| c.set(0));
}

/// The system allocator, counted.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are const-initialised thread-local `Cell`s with
// no destructor, so touching them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}
