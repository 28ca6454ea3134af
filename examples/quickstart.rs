//! Quickstart: the resizable relativistic hash map in a dozen lines.
//!
//! Run with: `cargo run --release --example quickstart`

use relativist::hash::{ResizePolicy, RpHashMap};
use relativist::rcu::GraceSync;

fn main() {
    // A map with automatic resizing, like the Linux kernel's rhashtable
    // (the descendant of the paper's algorithm).
    let map: RpHashMap<String, u64> = RpHashMap::with_buckets_hasher_and_policy(
        16,
        Default::default(),
        ResizePolicy::automatic(),
    );

    // Writers: plain method calls; they serialise on an internal mutex.
    for i in 0..10_000_u64 {
        map.insert(format!("key-{i}"), i);
    }
    println!(
        "inserted {} entries; the table grew to {} buckets on its own",
        map.len(),
        map.num_buckets()
    );

    // Readers: pin a guard (enter a read-side critical section), then look
    // things up with zero locking. References stay valid while the guard
    // lives, even if the entry is concurrently removed or the table resized.
    {
        let guard = map.pin();
        let v = map.get("key-4242", &guard).expect("present");
        println!("key-4242 -> {v}");
    }

    // Explicit resizing is also available; readers on other threads keep
    // running at full speed while this happens.
    map.resize_to(64);
    println!("resized down to {} buckets", map.num_buckets());
    map.resize_to(4096);
    println!("resized up to {} buckets", map.num_buckets());

    // All entries survived both resizes.
    let guard = map.pin();
    assert!((0..10_000_u64).all(|i| map.get(&format!("key-{i}"), &guard) == Some(&i)));
    println!("all {} entries still present after resizing", map.len());
    drop(guard);

    // Removals retire nodes into `GraceSync`'s queue; a grace period of
    // every read-side flavor later they are actually freed.
    for i in 0..5_000_u64 {
        map.remove(&format!("key-{i}"));
    }
    GraceSync::global().synchronize_and_reclaim();
    println!(
        "removed half the entries; {} remain, resize stats: {:?}",
        map.len(),
        map.stats()
    );
}
