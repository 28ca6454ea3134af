//! A counting global allocator for allocation-regression benchmarks.
//!
//! The zero-allocation serving claim (`rp-kvcache`'s `wire_allocs` and
//! `engine_allocs` tests) needs an *objective* measure of allocator
//! traffic — on a 1-CPU container, throughput deltas are noisy, but "the
//! steady-state GET path performed N heap allocations" is exact.
//! [`CountingAllocator`] wraps the system allocator and counts every
//! allocation event (alloc / realloc / alloc_zeroed; frees are not
//! counted — the metric is *allocations per operation*) into a fixed table
//! of cache-padded per-thread slots, so the counting adds one relaxed
//! `fetch_add` per event and never allocates itself.
//!
//! Install it in a binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rp_workload::alloc::CountingAllocator =
//!     rp_workload::alloc::CountingAllocator;
//! ```
//!
//! Threads are *tagged*: a benchmark labels its driver threads
//! ([`set_thread_tag`]) and can then split the process-wide count into
//! "my client threads" versus "everything else (the server under test)"
//! ([`tagged_allocations`]). Library code never needs the allocator
//! installed — all counters simply read zero without it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Fixed number of per-thread counter slots. Threads beyond this share the
/// last slot (counts stay correct in aggregate; per-thread attribution
/// degrades gracefully).
const SLOTS: usize = 256;

/// The default tag every thread starts with.
pub const TAG_UNTAGGED: u64 = 0;

#[repr(align(64))]
struct Slot {
    events: AtomicU64,
    tag: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const SLOT_INIT: Slot = Slot {
    events: AtomicU64::new(0),
    tag: AtomicU64::new(TAG_UNTAGGED),
};

static SLOT_TABLE: [Slot; SLOTS] = [SLOT_INIT; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot index; `usize::MAX` until claimed. Const-init so
    /// first access performs no lazy-initialisation allocation.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot_index() -> usize {
    // `try_with`: the allocator may run during thread teardown, after this
    // thread's TLS has been destroyed — fall back to the shared last slot.
    MY_SLOT
        .try_with(|slot| {
            let mut idx = slot.get();
            if idx == usize::MAX {
                idx = NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SLOTS - 1);
                slot.set(idx);
            }
            idx
        })
        .unwrap_or(SLOTS - 1)
}

#[inline]
fn count_event() {
    SLOT_TABLE[slot_index()]
        .events
        .fetch_add(1, Ordering::Relaxed);
}

/// A [`GlobalAlloc`] that counts allocation events per thread and
/// delegates the actual work to [`System`].
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counting side uses only
// `Cell`/atomic operations and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        // SAFETY: forwarded caller contract: `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract: `ptr` came from this allocator,
        // which is `System`'s, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_event();
        // SAFETY: forwarded caller contract: `layout` has a non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        // SAFETY: forwarded caller contract: `ptr` came from `System` with
        // `layout`, and `new_size` is non-zero and fits `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocation events across every thread since process start
/// (0 when the counting allocator is not installed).
pub fn total_allocations() -> u64 {
    SLOT_TABLE
        .iter()
        .map(|slot| slot.events.load(Ordering::Relaxed))
        .sum()
}

/// Allocation events attributed to the calling thread.
pub fn thread_allocations() -> u64 {
    SLOT_TABLE[slot_index()].events.load(Ordering::Relaxed)
}

/// Tags the calling thread's counter slot so its events can be aggregated
/// with [`tagged_allocations`]. Benchmarks tag their driver threads to
/// separate client-side allocations from the server under test.
pub fn set_thread_tag(tag: u64) {
    SLOT_TABLE[slot_index()].tag.store(tag, Ordering::Relaxed);
}

/// Sum of allocation events over every slot carrying `tag`.
pub fn tagged_allocations(tag: u64) -> u64 {
    SLOT_TABLE
        .iter()
        .filter(|slot| slot.tag.load(Ordering::Relaxed) == tag)
        .map(|slot| slot.events.load(Ordering::Relaxed))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    // These unit tests run *without* the allocator installed (installing a
    // global allocator for one #[cfg(test)] module would hijack the whole
    // test binary); the integration test `alloc_counter.rs` installs it
    // for real. Here we verify the passive behaviour.
    #[test]
    fn without_installation_counters_read_zero() {
        std::hint::black_box(Box::new(0xA5_u8));
        assert_eq!(total_allocations(), 0);
        assert_eq!(thread_allocations(), 0);
        assert_eq!(tagged_allocations(42), 0);
    }

    #[test]
    fn tagging_is_per_thread_and_idempotent() {
        set_thread_tag(7);
        set_thread_tag(7);
        // No events counted (allocator not installed), but the tag landed
        // on exactly one slot.
        let tagged: usize = SLOT_TABLE
            .iter()
            .filter(|slot| slot.tag.load(Ordering::Relaxed) == 7)
            .count();
        assert_eq!(tagged, 1);
        set_thread_tag(TAG_UNTAGGED);
    }
}
