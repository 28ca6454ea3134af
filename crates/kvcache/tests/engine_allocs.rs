//! Exact allocation counts of the RCU engines' SET and GET paths, taken on
//! the calling thread with the counting allocator installed: the cached
//! item is one index node (key, item and a value of up to 70 bytes by
//! value). An `RpHashMap` index takes its nodes from its own slab, not the
//! heap, so a SET of a short key and a small value allocates nothing on
//! `RpEngine` and `ShardedRpEngine`, even with the value handed over in a
//! fresh `Vec`; a split-ordered index allocates the node and the value's
//! cell. A key past the inline limit adds its `Box<str>`, a value past it
//! its shared buffer, and a GET allocates nothing. A SET past capacity
//! allocates per *scan* for eviction candidates, not per SET: the queue and
//! the bounded heap behind it, plus a `Box<str>` for each long key queued.
//! The `Vec`s a SET hands over are built before the count starts.

use rp_kvcache::{
    CacheEngine, EngineReadCtx, Item, ReadSide, RpEngine, ShardedRpEngine, SplitOrderEngine,
};
use rp_workload::alloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const OPS: usize = 4096;

/// Allocations per call of `op` on this thread, over `OPS` calls that
/// follow as many uncounted ones.
fn allocs_per_op(mut op: impl FnMut(usize)) -> f64 {
    (0..OPS).for_each(&mut op);
    let before = thread_allocations();
    (0..OPS).for_each(&mut op);
    (thread_allocations() - before) as f64 / OPS as f64
}

/// `per_set` allocations exactly, but for the deferred-free queue growing
/// back after each reclamation batch, for SETs that each hand over a fresh
/// `Vec` of `value_len` bytes.
fn assert_set_allocs(engine: &dyn CacheEngine, keys: &[String], value_len: usize, per_set: f64) {
    let mut values: Vec<Vec<u8>> = (0..2 * OPS).map(|_| vec![7_u8; value_len]).collect();
    let measured = allocs_per_op(|i| {
        let value = values.pop().expect("a value per SET");
        engine.set(&keys[i % keys.len()], Item::new(0, value));
    });
    assert!(
        (per_set..per_set + 0.05).contains(&measured),
        "{}: {measured:.3} allocations per SET of a {}-byte key and a {value_len}-byte value, \
         expected {per_set}",
        engine.name(),
        keys[0].len(),
    );
}

/// An evicting SET of a fresh key, amortised over the scans `OPS` of them
/// need: `per_set` and under a tenth of an allocation more.
fn assert_evicting_set_allocs(engine: &dyn CacheEngine, keys: &[String], per_set: f64) {
    let value = [7_u8; 64];
    let mut fresh = keys.iter();
    let mut set_next = |_| {
        engine.set(fresh.next().unwrap(), Item::new(0, &value[..]));
    };
    // Fill to capacity first, so that every counted SET evicts, and go on
    // until a split-ordered index has initialised its buckets (it
    // allocates each one's sentinel node on first use).
    (0..5 * OPS).for_each(&mut set_next);
    let evicted = engine.stats().evicted();
    let measured = allocs_per_op(&mut set_next);
    assert_eq!(engine.stats().evicted() - evicted, 2 * OPS as u64);
    assert!(
        (per_set..per_set + 0.1).contains(&measured),
        "{}: {measured:.3} allocations per evicting SET of a {}-byte key, expected {per_set}",
        engine.name(),
        keys[0].len(),
    );
}

fn assert_gets_do_not_allocate(engine: &dyn CacheEngine, keys: &[String]) {
    for read_side in [ReadSide::Ebr, ReadSide::Qsbr] {
        let mut ctx = EngineReadCtx::new(read_side);
        let measured = allocs_per_op(|i| {
            let hit = engine.get_ref(keys[i % keys.len()].as_bytes(), &mut ctx);
            assert!(hit.is_some());
            if i % 64 == 63 {
                ctx.quiescent();
            }
        });
        assert_eq!(measured, 0.0, "{} via {read_side:?}", engine.name());
    }
}

/// `node_allocs` is what the index allocates from the heap per entry
/// besides the key and the value.
fn check(engine: &dyn CacheEngine, node_allocs: f64) {
    let short: Vec<String> = (0..64).map(|i| format!("key:{i:08}")).collect();
    let long: Vec<String> = (0..64).map(|i| format!("key:{i:019}")).collect();
    assert_eq!((short[0].len(), long[0].len()), (12, 23));
    // 64 bytes, the benchmark's value, and the longest held inline.
    assert_set_allocs(engine, &short, 64, node_allocs);
    assert_set_allocs(engine, &short, 70, node_allocs);
    assert_set_allocs(engine, &long, 64, node_allocs + 1.0);
    // One byte more: the value's shared buffer.
    assert_set_allocs(engine, &short, 71, node_allocs + 1.0);
    assert_gets_do_not_allocate(engine, &short);
    assert_gets_do_not_allocate(engine, &long);
}

/// As [`check`], for SETs past a capacity of `OPS` items.
fn check_evicting(make: fn() -> Box<dyn CacheEngine>, node_allocs: f64) {
    let short: Vec<String> = (0..7 * OPS).map(|i| format!("key:{i:08}")).collect();
    let long: Vec<String> = (0..7 * OPS).map(|i| format!("key:{i:019}")).collect();
    assert_evicting_set_allocs(&*make(), &short, node_allocs);
    // The new key's `Box<str>`, and the victim's when the scan queued it.
    assert_evicting_set_allocs(&*make(), &long, node_allocs + 2.0);
}

#[test]
fn a_set_allocates_only_what_its_index_takes_from_the_heap_and_a_get_nothing() {
    // One test, so nothing else allocates on this thread meanwhile. The
    // relativistic indexes' nodes come from their slabs.
    check(&RpEngine::with_capacity(1 << 16), 0.0);
    check(&ShardedRpEngine::with_shards_and_capacity(4, 1 << 16), 0.0);
    // Split-order keeps the value in a cell of its own beside the node.
    check(&SplitOrderEngine::with_capacity(1 << 16), 2.0);

    check_evicting(|| Box::new(RpEngine::with_capacity(OPS)), 0.0);
    check_evicting(
        || Box::new(ShardedRpEngine::with_shards_and_capacity(4, OPS)),
        0.0,
    );
    check_evicting(|| Box::new(SplitOrderEngine::with_capacity(OPS)), 2.0);
}
