//! Counting global allocator: heap allocations and bytes per operation.
//!
//! Wall-clock numbers on a shared 2-core sandbox are noisy; the number of
//! heap allocations a fixed piece of work makes is not. The counters are
//! per thread and off by default, so the timed pass pays one thread-local
//! flag read per allocation and nothing else, and parallel unit tests do
//! not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations and bytes requested while counting was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl std::ops::AddAssign for AllocCount {
    fn add_assign(&mut self, other: Self) {
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The allocator installed by `main.rs`: forwards to [`System`] and
/// counts the calling thread's requests while [`counted`] runs.
pub struct Counting;

fn note(size: usize) {
    // `try_with`: the allocator can run while a thread's locals are
    // being torn down; those allocations are simply not counted.
    let _ = ON.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// `const`-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
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
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` with counting on for this thread and return what it allocated.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let before = snapshot();
    let was_on = ON.with(|on| on.replace(true));
    let r = f();
    ON.with(|on| on.set(was_on));
    let after = snapshot();
    (
        r,
        AllocCount {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
        },
    )
}

fn snapshot() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_on() {
        let off_before = snapshot();
        let v: Vec<u64> = Vec::with_capacity(100);
        drop(v);
        assert_eq!(snapshot(), off_before, "counting is off by default");

        let (v, c) = counted(|| Vec::<u64>::with_capacity(100));
        assert_eq!(c.allocs, 1);
        assert_eq!(c.bytes, 800);
        drop(v);

        let after = snapshot();
        let w: Vec<u8> = Vec::with_capacity(10);
        drop(w);
        assert_eq!(snapshot(), after, "counting is off again after `counted`");
    }

    #[test]
    fn realloc_counts_as_an_allocation() {
        let (_, c) = counted(|| {
            let mut v: Vec<u8> = Vec::with_capacity(8);
            v.extend_from_slice(&[0; 64]);
            v
        });
        assert!(c.allocs >= 2);
        assert!(c.bytes >= 8 + 64);
    }
}
