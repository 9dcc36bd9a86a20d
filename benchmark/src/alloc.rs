//! Counting global allocator: the machine-independent cost proxy.
//!
//! Both benchmark binaries install [`CountingAlloc`] as their
//! `#[global_allocator]`. It forwards to [`System`] and tallies
//! allocation calls (`alloc` + `realloc`), bytes requested, live bytes
//! and the peak of live bytes. The harness reads a [`Snapshot`]
//! immediately before and after a timed pass, so the counting window is
//! exactly that pass: result files, span storage and fingerprint vectors
//! are allocated outside it.
//!
//! The tallies are sharded by thread. With one shared set of counters
//! `matrix_par2` measured 1.47x over `handshake_matrix` at two workers
//! (each making 2 M allocations a second, all bouncing one cache line);
//! sharded it measures 1.98x. That is exactly the cross-thread
//! contention the workload exists to detect in the stack, so the probe
//! must not add it. Calls and bytes are exact. Live bytes
//! reach the shared total (where the peak is taken) once a shard has
//! [`SYNC_BYTES`] of unreported change, so the peak can read low by at
//! most that much per thread; with one thread the sync points are a
//! function of the allocation sequence, and the peak repeats exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

const SHARDS: usize = 16;
/// Unreported live-byte change a shard may hold back.
const SYNC_BYTES: i64 = 4096;

// Statistics only: no other data is published through these, so
// `Relaxed` is enough (and keeps the probe to a few cycles).
#[repr(align(128))]
struct Shard {
    calls: AtomicU64,
    bytes: AtomicU64,
    /// Live-byte change not yet folded into [`LIVE`].
    pending: AtomicI64,
}

static SHARD_TABLE: [Shard; SHARDS] = [const {
    Shard {
        calls: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        pending: AtomicI64::new(0),
    }
}; SHARDS];
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and stays valid while a thread is being torn down.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard() -> &'static Shard {
    let i = MY_SHARD.with(|slot| {
        if slot.get() == usize::MAX {
            slot.set(NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS);
        }
        slot.get()
    });
    &SHARD_TABLE[i]
}

fn live_changed(shard: &Shard, by: i64) {
    let pending = shard.pending.fetch_add(by, Relaxed) + by;
    if pending.abs() >= SYNC_BYTES {
        let moved = shard.pending.swap(0, Relaxed);
        let live = LIVE.fetch_add(moved, Relaxed) + moved;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn grew(size: usize, freed: usize) {
    let shard = shard();
    shard.calls.fetch_add(1, Relaxed);
    shard.bytes.fetch_add(size as u64, Relaxed);
    live_changed(shard, size as i64 - freed as i64);
}

/// The allocator to install with `#[global_allocator]`.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        live_changed(shard(), -(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A realloc requests `new_size` bytes (the copy it may imply
            // is what `alloc_kib_per_op` is a proxy for).
            grew(new_size, layout.size());
        }
        p
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Reads the counters. All zero unless the binary installed
/// [`CountingAlloc`].
pub fn snapshot() -> Snapshot {
    Snapshot {
        calls: SHARD_TABLE.iter().map(|s| s.calls.load(Relaxed)).sum(),
        bytes: SHARD_TABLE.iter().map(|s| s.bytes.load(Relaxed)).sum(),
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Peak live bytes since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}
