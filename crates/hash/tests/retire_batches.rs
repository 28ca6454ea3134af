//! A map gathers what it retires in an open batch of 64 nodes, under the
//! writer lock, and queues the batch on the global funnel whole: 63
//! overwrites queue nothing, the 64th queues all 64, and what is left open
//! is queued by the map's `flush_retired` or its drop, once.
//!
//! A binary of its own, so no other test feeds the global queue, and the
//! tests take turns: they count the callbacks queued on it and the slab
//! chunks mapped in the whole process.
//! `cargo test --release -p rp-hash --test retire_batches`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rp_hash::{slab_chunks_mapped, FnvBuildHasher, RpHashMap};
use rp_rcu::{GraceSync, RcuDomain};

/// Retires a map gathers before it queues them.
const BATCH: usize = 64;

/// One drop count per value a test makes.
struct Ledger(Vec<AtomicUsize>);

impl Ledger {
    fn new(values: usize) -> Arc<Self> {
        Arc::new(Ledger((0..values).map(|_| AtomicUsize::new(0)).collect()))
    }

    fn value(self: &Arc<Self>, id: usize) -> Counted {
        Counted {
            id,
            ledger: Arc::clone(self),
        }
    }

    fn drops(&self, id: usize) -> usize {
        self.0[id].load(Ordering::SeqCst)
    }

    fn dropped(&self) -> usize {
        (0..self.0.len()).map(|id| self.drops(id)).sum()
    }

    fn assert_dropped_once(&self, ids: impl IntoIterator<Item = usize>) {
        for id in ids {
            assert_eq!(self.drops(id), 1, "value {id}");
        }
    }
}

/// A value that counts its drops in its ledger.
struct Counted {
    id: usize,
    ledger: Arc<Ledger>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.ledger.0[self.id].fetch_add(1, Ordering::SeqCst);
    }
}

/// The default policy never resizes, so an overwrite retires its node and
/// queues nothing else.
type Map = RpHashMap<u64, Counted, FnvBuildHasher>;

fn map() -> Map {
    Map::with_buckets_and_hasher(16, FnvBuildHasher)
}

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Callbacks queued on the global funnel so far.
fn queued() -> u64 {
    RcuDomain::global().stats().callbacks_queued
}

fn barrier() {
    GraceSync::global().synchronize_and_reclaim();
}

#[test]
fn the_64th_overwrite_queues_the_batch_and_63_queue_nothing() {
    let _serial = serial();
    let ledger = Ledger::new(BATCH + 1);
    let map = map();
    map.insert(0, ledger.value(0));
    let before = queued();
    for id in 1..BATCH {
        map.insert(0, ledger.value(id));
    }
    assert_eq!(queued(), before, "63 retires wait in the map's batch");
    barrier();
    assert_eq!(ledger.dropped(), 0, "a barrier frees only what is queued");

    map.insert(0, ledger.value(BATCH));
    assert_eq!(
        queued() - before,
        BATCH as u64,
        "one push of the whole batch"
    );
    barrier();
    ledger.assert_dropped_once(0..BATCH);
    assert_eq!(ledger.drops(BATCH), 0, "the live value");
    drop(map);
    ledger.assert_dropped_once(0..=BATCH);
}

#[test]
fn flush_retired_drops_a_partial_batch_exactly_once() {
    const RETIRED: usize = 10;
    let _serial = serial();
    let ledger = Ledger::new(RETIRED + BATCH);
    let map = map();
    map.insert(0, ledger.value(0));
    for id in 1..=RETIRED {
        map.insert(0, ledger.value(id));
    }
    map.flush_retired();
    ledger.assert_dropped_once(0..RETIRED);
    map.flush_retired();
    barrier();
    ledger.assert_dropped_once(0..RETIRED);
    assert_eq!(ledger.dropped(), RETIRED, "only the retired values");

    // The flush emptied the batch: the next 63 retires fill it afresh.
    let before = queued();
    for id in RETIRED + 1..RETIRED + BATCH {
        map.insert(0, ledger.value(id));
    }
    assert_eq!(queued(), before);
    map.flush_retired();
    ledger.assert_dropped_once(0..RETIRED + BATCH - 1);
    drop(map);
    ledger.assert_dropped_once(0..RETIRED + BATCH);
}

#[test]
fn a_dropped_map_queues_its_partial_batch_before_its_slab_release() {
    const KEYS: usize = 200;
    const OVERWRITES: usize = 25;
    const REMOVES: usize = 12;
    let _serial = serial();
    // Maps the other tests dropped have their releases queued: run them.
    barrier();
    let chunks_before = slab_chunks_mapped();
    let ledger = Ledger::new(KEYS + OVERWRITES);
    let map = map();
    for id in 0..KEYS {
        map.insert(id as u64, ledger.value(id));
    }
    for id in KEYS..KEYS + OVERWRITES {
        map.insert((id - KEYS) as u64, ledger.value(id));
    }
    for key in KEYS - REMOVES..KEYS {
        assert!(map.remove(&(key as u64)));
    }
    // 37 retires, all in the open batch.
    const { assert!(OVERWRITES + REMOVES < BATCH) };
    barrier();
    assert_eq!(ledger.dropped(), 0);
    assert_eq!(slab_chunks_mapped(), chunks_before + 1);

    drop(map);
    barrier();
    ledger.assert_dropped_once(0..KEYS + OVERWRITES);
    assert_eq!(slab_chunks_mapped(), chunks_before, "the slab is released");
}
