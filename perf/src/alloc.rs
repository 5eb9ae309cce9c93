//! Counting global allocator: counts allocation calls (alloc, zeroed
//! alloc, realloc) only while [`count_during`] runs, so untraced runs pay
//! one relaxed load per allocation and nothing else.
//!
//! The count is sharded by thread: amplification allocates tens of
//! millions of times on two threads, and with one shared counter the
//! cache line bouncing between cores made it 1.5× slower.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard(AtomicU64);

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];

thread_local! {
    // Const-initialized and without a destructor: reading it never
    // allocates, which an allocator must not do.
    static ANCHOR: Cell<u8> = const { Cell::new(0) };
}

/// This thread's shard: a hash of its thread-local block's address.
fn shard() -> usize {
    let addr = ANCHOR
        .try_with(|a| a as *const Cell<u8> as usize)
        .unwrap_or(0);
    ((addr as u64 >> 12).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60) as usize % SHARDS
}

pub struct Counting;

fn note() {
    // Relaxed: the counters publish no other data; `count_during` reads
    // them after the measured closure's threads have been joined.
    if ENABLED.load(Ordering::Relaxed) {
        COUNTS[shard()].0.fetch_add(1, Ordering::Relaxed);
    }
}

fn total() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter updates
// touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`, as `GlobalAlloc::dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract, and
        // `ptr` was allocated by `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` and return its result with the allocations it made (on any
/// thread). Not reentrant: callers measure one phase at a time.
pub fn count_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = total();
    ENABLED.store(true, Ordering::Relaxed);
    let result = f();
    ENABLED.store(false, Ordering::Relaxed);
    (result, total() - before)
}
