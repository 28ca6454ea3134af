//! The deferred-free queue keeps its storage across reclamation passes:
//! after the first pass has grown it, queueing and reclaiming the same
//! number of callbacks allocates nothing. Counted with the counting
//! allocator, which must be the binary's global allocator — hence an
//! integration test of its own.

use rp_rcu::{GraceSync, RcuDomain};
use rp_workload::alloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Queues `n` capture-free callbacks (a boxed zero-sized closure allocates
/// nothing, so every allocation counted is the queue's own).
fn queue(domain: &RcuDomain, n: usize) {
    for _ in 0..n {
        domain.defer(|| {});
    }
}

#[test]
fn second_and_later_passes_allocate_no_queue_storage() {
    let domain = RcuDomain::new();
    let before = thread_allocations();
    queue(&domain, 256);
    domain.synchronize_and_reclaim();
    assert!(
        thread_allocations() > before,
        "the first pass grows the queue (or the allocator is not counting)"
    );
    for pass in 2..=5 {
        let before = thread_allocations();
        queue(&domain, 256);
        domain.synchronize_and_reclaim();
        assert_eq!(thread_allocations(), before, "pass {pass}");
    }
    assert_eq!(domain.stats().callbacks_executed, 5 * 256);
}

#[test]
fn a_bursts_queue_is_freed_not_kept() {
    let domain = RcuDomain::new();
    queue(&domain, 10_000);
    domain.synchronize_and_reclaim();
    let before = thread_allocations();
    queue(&domain, 256);
    assert!(
        thread_allocations() > before,
        "a queue grown past the cap must not be pinned for reuse"
    );
    domain.synchronize_and_reclaim();
}

#[test]
fn the_flavor_covering_reclaimer_reuses_the_queue_too() {
    // `GraceSync` reclaims the global domain's queue through the same
    // take/execute pair. Other tests of this binary use private domains,
    // so this thread is the global queue's only user here.
    let sync = GraceSync::global();
    queue(RcuDomain::global(), 256);
    sync.synchronize_and_reclaim();
    queue(RcuDomain::global(), 256);
    sync.synchronize_and_reclaim();
    let before = thread_allocations();
    queue(RcuDomain::global(), 256);
    let queued = thread_allocations();
    sync.synchronize_and_reclaim();
    assert_eq!(queued, before, "queueing into the recycled storage");
}
