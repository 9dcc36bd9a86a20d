//! The counting allocator: every request is forwarded to [`System`] and
//! tallied per thread in calls (`alloc` + `realloc`; `alloc_zeroed` goes
//! through `alloc`), bytes requested, and bytes live with their peak. A
//! test binary installs it with one line,
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rq_testkit::alloc::Counting = rq_testkit::alloc::Counting;
//! ```
//!
//! and reads it through [`requested_by`] and [`peak_live_during`]. The
//! readings are machine-independent and equal in debug and release
//! builds; a binary that does not install it reads zeros.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    /// (calls, bytes requested) by this thread. Const-initialised and
    /// without a destructor, so the allocator can read it at any time.
    static REQUESTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// (bytes live, their peak) on this thread since the last reset;
    /// signed, because a window may free what was allocated before it.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let (calls, total) = REQUESTED.get();
    REQUESTED.set((calls + 1, total + bytes as u64));
}

fn hold(bytes: i64) {
    let (live, peak) = LIVE.get();
    LIVE.set((live + bytes, peak.max(live + bytes)));
}

/// The global allocator that counts; see the module documentation.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain thread-local integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        hold(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// (calls, bytes) `f` asked of the allocator on this thread; its result
/// is dropped after the reading.
pub fn requested_by<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let before = REQUESTED.get();
    let out = black_box(f());
    let after = REQUESTED.get();
    drop(out);
    (after.0 - before.0, after.1 - before.1)
}

/// The most bytes `f` held at once on this thread beyond what was live
/// when it began, and its result.
pub fn peak_live_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    LIVE.set((0, 0));
    let out = f();
    (LIVE.get().1 as u64, out)
}
