//! A counting global allocator for the allocation-budget suites
//! (`replica_allocs`, `sim_allocs`, `control_allocs`). Each suite
//! installs it with
//! `#[global_allocator] static GLOBAL: common::Counting = common::Counting;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread: per thread, so parallel tests do not see each other.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated minus those it has freed. A block
    /// freed by another thread than the one that allocated it moves the
    /// count of both, so read it as a difference over code that stays on
    /// one thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting calls and live bytes per thread.
pub struct Counting;

/// Count one allocation call that moved the live bytes by `delta`.
fn note(delta: i64) {
    // `try_with`: the allocator also runs while a thread's locals are
    // torn down; those calls are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    moved(delta);
}

fn moved(delta: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// `const`-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations this thread made while `f` ran.
pub fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Bytes this thread has allocated and not freed: compare two readings
/// to see what the code between them kept.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}
