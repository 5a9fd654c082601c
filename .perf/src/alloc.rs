//! Counting global allocator: allocation and byte counts per operation.
//!
//! The counters are bumped with a plain load + store, not an atomic
//! read-modify-write: the harness is one thread by construction, and two
//! `lock xadd` per allocation would cost several per cent of a workload
//! that allocates ~400 times per op.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

#[inline]
fn note(size: usize) {
    ALLOCS.store(ALLOCS.load(Relaxed) + 1, Relaxed);
    BYTES.store(BYTES.load(Relaxed) + size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics that publish no other data.
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
        // A grow-in-place still asked the allocator for memory: count it
        // as one allocation of the new size.
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// `(allocations, bytes requested)` since process start.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}
