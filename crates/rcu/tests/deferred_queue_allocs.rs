//! The deferred-free queue keeps its storage across reclamation passes:
//! after the first pass has grown it, queueing and reclaiming the same
//! number of callbacks allocates nothing. Counted with the counting
//! allocator, which must be the binary's global allocator — hence an
//! integration test of its own.

use rp_rcu::{GraceSync, RcuDomain};
use rp_workload::alloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A funnel with a queue of its own, so each test counts its own passes.
fn private() -> (std::sync::Arc<RcuDomain>, GraceSync) {
    let ebr = RcuDomain::new();
    let sync = GraceSync::new(std::sync::Arc::clone(&ebr));
    (ebr, sync)
}

/// Queues `n` capture-free callbacks (a boxed zero-sized closure allocates
/// nothing, so every allocation counted is the queue's own).
fn queue(sync: &GraceSync, n: usize) {
    for _ in 0..n {
        sync.defer(|| {});
    }
}

#[test]
fn second_and_later_passes_allocate_no_queue_storage() {
    let (ebr, sync) = private();
    let before = thread_allocations();
    queue(&sync, 256);
    sync.synchronize_and_reclaim();
    assert!(
        thread_allocations() > before,
        "the first pass grows the queue (or the allocator is not counting)"
    );
    for pass in 2..=5 {
        let before = thread_allocations();
        queue(&sync, 256);
        sync.synchronize_and_reclaim();
        assert_eq!(thread_allocations(), before, "pass {pass}");
    }
    assert_eq!(ebr.stats().callbacks_executed, 5 * 256);
}

/// A dropper that frees nothing, so any address will do.
unsafe fn keep(_: *mut ()) {}

/// The way a map's node slab queues its batch: 64 pointers in one push.
#[test]
fn slice_pushes_into_a_grown_queue_allocate_nothing() {
    let (ebr, sync) = private();
    let batch = [std::ptr::null_mut::<()>(); 64];
    let push = |sync: &GraceSync| {
        for _ in 0..4 {
            // SAFETY: `keep` is sound for any pointer and frees nothing;
            // the private domain has no readers.
            unsafe { sync.defer_drop(&batch, keep) };
        }
    };
    let before = thread_allocations();
    push(&sync);
    sync.synchronize_and_reclaim();
    assert!(
        thread_allocations() > before,
        "the first pass grows the queue"
    );
    for pass in 2..=5 {
        let before = thread_allocations();
        push(&sync);
        sync.synchronize_and_reclaim();
        assert_eq!(thread_allocations(), before, "pass {pass}");
    }
    let stats = ebr.stats();
    assert_eq!(stats.callbacks_queued, 5 * 256, "one count per pointer");
    assert_eq!(stats.callbacks_executed, 5 * 256);
}

#[test]
fn a_bursts_queue_is_freed_not_kept() {
    let (_ebr, sync) = private();
    queue(&sync, 10_000);
    sync.synchronize_and_reclaim();
    let before = thread_allocations();
    queue(&sync, 256);
    assert!(
        thread_allocations() > before,
        "a queue grown past the cap must not be pinned for reuse"
    );
    sync.synchronize_and_reclaim();
}

#[test]
fn the_global_funnel_reuses_its_queue_too() {
    // The queue every data structure retires into. Other tests of this
    // binary use private funnels, so this thread is its only user here.
    // Batches of 255 stay below the 256 callbacks whose crossing starts
    // the global funnel's reclaim thread: with no thread, no pass can take
    // the queue (and leave an empty one) in the middle of the counted
    // pushes, so only these barriers empty it.
    let sync = GraceSync::global();
    queue(sync, 255);
    sync.synchronize_and_reclaim();
    queue(sync, 255);
    sync.synchronize_and_reclaim();
    let before = thread_allocations();
    queue(sync, 255);
    let queued = thread_allocations();
    sync.synchronize_and_reclaim();
    assert_eq!(queued, before, "queueing into the recycled storage");
}
