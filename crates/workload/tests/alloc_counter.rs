//! Integration test that actually installs [`CountingAllocator`] as the
//! global allocator (possible only per binary, hence not a unit test) and
//! verifies the counting, attribution and tagging behaviour end to end.

use rp_workload::alloc::{
    set_thread_tag, tagged_allocations, thread_allocations, total_allocations, CountingAllocator,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const TAG_WORKER: u64 = 0xBEEF;

#[test]
fn counts_allocations_per_thread_and_per_tag() {
    // Allocations on this thread are observed by the thread counter.
    let thread_before = thread_allocations();
    let total_before = total_allocations();
    let mut boxes = Vec::new();
    for i in 0..100_u64 {
        boxes.push(std::hint::black_box(Box::new(i)));
    }
    assert!(
        thread_allocations() >= thread_before + 100,
        "100 boxed values must count at least 100 events"
    );
    assert!(total_allocations() >= total_before + 100);
    drop(boxes);

    // A tagged worker thread's allocations aggregate under its tag.
    let tagged_before = tagged_allocations(TAG_WORKER);
    std::thread::spawn(|| {
        set_thread_tag(TAG_WORKER);
        let mut held = Vec::new();
        for i in 0..50_u64 {
            held.push(std::hint::black_box(Box::new(i)));
        }
    })
    .join()
    .unwrap();
    assert!(
        tagged_allocations(TAG_WORKER) >= tagged_before + 50,
        "worker-thread allocations must land under its tag"
    );
}

#[test]
fn an_allocation_free_loop_counts_zero() {
    // The property the allocation gates rely on: a loop that reuses its
    // buffers adds nothing to this thread's counter.
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let before = thread_allocations();
    let mut acc = 0_u64;
    for i in 0..10_000_u64 {
        buf.clear();
        buf.extend_from_slice(&i.to_le_bytes());
        acc = acc.wrapping_add(u64::from(buf[0]));
    }
    std::hint::black_box(acc);
    assert_eq!(
        thread_allocations(),
        before,
        "a buffer-reusing loop must perform zero allocations"
    );
}
