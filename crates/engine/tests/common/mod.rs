//! Thread-local counting allocator shared by the allocation-count tests.
//! A test binary installs it with `#[global_allocator] static ALLOC: Counting
//! = Counting;` and reads [`calls`] before and after the window it measures;
//! each test runs on its own thread, so tests do not see each other's or the
//! harness's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) this thread has made.
pub fn calls() -> u64 {
    CALLS.with(Cell::get)
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator with `layout`,
        // and the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

