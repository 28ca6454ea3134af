//! Cross-crate reclamation stress: values removed from relativistic data
//! structures must be dropped exactly once, and never while any reader could
//! still hold a reference to them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use relativist::baselines::DddsTable;
use relativist::hash::{FnvBuildHasher, QsbrReadHandle, RpHashMap};
use relativist::rcu::{pin, thread_synchronize_count, GraceSync, RcuDomain};

/// A value that tracks how many times it has been dropped and poisons its
/// payload on drop, so a use-after-free shows up as a data mismatch.
struct Tracked {
    payload: u64,
    check: u64,
    drops: Arc<AtomicUsize>,
}

impl Tracked {
    fn new(payload: u64, drops: Arc<AtomicUsize>) -> Self {
        Tracked {
            payload,
            check: payload ^ 0xDEAD_BEEF_DEAD_BEEF,
            drops,
        }
    }

    fn verify(&self) {
        assert_eq!(
            self.check,
            self.payload ^ 0xDEAD_BEEF_DEAD_BEEF,
            "value observed after poisoning (use after free?)"
        );
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.verify();
        // Poison so that any later read through a dangling reference fails
        // the `verify` assertion above (in practice the allocator would also
        // likely scribble over it, but this makes the check deterministic).
        self.check = 0;
        self.payload = 1;
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// Retires an `RpHashMap` gathers in its open batch before it queues them
/// on the global funnel: until then only its `flush_retired` or its drop
/// queues them, and a bare barrier does not free them.
const BATCH: u64 = 64;

/// Waits (bounded) for a condition that may be completed by a reclamation
/// pass running in another test of this binary — the deferred-free queue is
/// shared, so another test's `synchronize_and_reclaim` may be the one that
/// executes our deferred frees.
fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if cond() {
            return true;
        }
        GraceSync::global().synchronize_and_reclaim();
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn map_values_dropped_exactly_once_and_never_early() {
    const KEYS: u64 = 512;
    const ROUNDS: u64 = 40;

    let drops = Arc::new(AtomicUsize::new(0));
    let map: Arc<RpHashMap<u64, Tracked, FnvBuildHasher>> =
        Arc::new(RpHashMap::with_buckets_and_hasher(64, FnvBuildHasher));

    for k in 0..KEYS {
        map.insert(k, Tracked::new(k, Arc::clone(&drops)));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|seed| {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = seed as u64;
                while !stop.load(Ordering::Relaxed) {
                    k = (k * 48271 + 1) % KEYS;
                    let guard = map.pin();
                    if let Some(t) = map.get(&k, &guard) {
                        t.verify();
                    }
                }
            })
        })
        .collect();

    // Writer: replace every key repeatedly (each replacement retires the old
    // node) and resize now and then.
    for round in 1..=ROUNDS {
        for k in 0..KEYS {
            map.insert(
                k,
                Tracked::new(k.wrapping_add(round << 32), Arc::clone(&drops)),
            );
        }
        if round % 8 == 0 {
            map.expand();
        } else if round % 8 == 4 {
            map.shrink();
        }
    }

    stop.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().unwrap();
    }

    // Flush all deferred frees, then drop the map itself.
    map.flush_retired();
    assert!(
        wait_until(|| drops.load(Ordering::SeqCst) as u64 == KEYS * ROUNDS),
        "every replaced value must be dropped exactly once after reclamation \
         (dropped {} of {})",
        drops.load(Ordering::SeqCst),
        KEYS * ROUNDS
    );
    drop(map);
    assert!(
        wait_until(|| drops.load(Ordering::SeqCst) as u64 == KEYS * (ROUNDS + 1)),
        "the final generation must be dropped by the map's Drop (dropped {} of {})",
        drops.load(Ordering::SeqCst),
        KEYS * (ROUNDS + 1)
    );
}

#[test]
fn map_reader_keeps_removed_value_alive_until_guard_drop() {
    let drops = Arc::new(AtomicUsize::new(0));
    let map: Arc<RpHashMap<u64, Tracked, FnvBuildHasher>> =
        Arc::new(RpHashMap::with_buckets_and_hasher(16, FnvBuildHasher));
    map.insert(7, Tracked::new(7, Arc::clone(&drops)));

    let guard = pin();
    let value = map.get(&7, &guard).expect("present");
    assert!(map.remove(&7));

    // The node is retired but must not be reclaimed while `guard` lives,
    // even if another thread drives grace periods.
    let reclaimer = std::thread::spawn({
        let map = Arc::clone(&map);
        // The flush queues the map's open batch, which holds the node, and
        // its grace period must wait for the guard above to drop.
        move || map.flush_retired()
    });
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        drops.load(Ordering::SeqCst),
        0,
        "freed while still referenced"
    );
    value.verify();

    drop(guard);
    reclaimer.join().unwrap();
    assert!(
        wait_until(|| drops.load(Ordering::SeqCst) == 1),
        "dropped exactly once"
    );
}

type TrackedMap = RpHashMap<u64, Tracked, FnvBuildHasher>;

/// The QSBR sibling of `map_reader_keeps_removed_value_alive_until_guard_drop`:
/// an online `QsbrReadHandle` holds a looked-up value, the entry is removed
/// with `removed - 1` others, and `pass` — one of the ways the deferred-free
/// queue is emptied — runs on another thread. It must neither finish nor
/// free the value before the reader announces a quiescent state, and must
/// do both afterwards. `removed` is [`BATCH`] for a pass that empties only
/// the global queue (the map queues its full batch there), and 1 for
/// `flush_retired`, which queues the map's open batch itself.
///
/// `pass` returns only once a reclamation pass that ran its own callbacks
/// has completed (the queue is shared with the other tests of this binary,
/// whose barriers may run them first).
fn pass_waits_for_qsbr_reader(removed: u64, pass: impl FnOnce(&TrackedMap) + Send) {
    let drops = Arc::new(AtomicUsize::new(0));
    let map: TrackedMap = RpHashMap::with_buckets_and_hasher(16, FnvBuildHasher);
    for k in 0..BATCH {
        map.insert(k, Tracked::new(k, Arc::clone(&drops)));
    }

    let finished = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Registered in here so that it goes offline before the scope joins
        // the pass — on the way out and if an assertion below unwinds — and
        // a failure is reported instead of hanging the pass it left blocked.
        let mut handle = QsbrReadHandle::register();
        let value = map.get(&0, &handle).expect("present");
        for k in 0..removed {
            assert!(map.remove(&k));
        }
        s.spawn(|| {
            pass(&map);
            finished.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "freed while still referenced"
        );
        value.verify();
        assert!(
            !finished.load(Ordering::SeqCst),
            "a reclamation pass completed without waiting for an online QSBR reader"
        );
        // `value` is dead from here on: the borrow checker would not let
        // the announcement compile otherwise.
        handle.quiescent_state();
    });
    assert!(finished.load(Ordering::SeqCst));
    assert!(
        wait_until(|| drops.load(Ordering::SeqCst) as u64 == removed),
        "dropped exactly once"
    );
}

#[test]
fn qsbr_reader_outlasts_synchronize_and_reclaim() {
    pass_waits_for_qsbr_reader(BATCH, |_| GraceSync::global().synchronize_and_reclaim());
}

#[test]
fn qsbr_reader_outlasts_flush_retired() {
    pass_waits_for_qsbr_reader(1, |map| map.flush_retired());
}

/// The pass nobody calls: retiring 256 callbacks wakes the global funnel's
/// reclaim thread, and the retiring thread itself never waits.
#[test]
fn qsbr_reader_outlasts_the_reclaim_thread() {
    pass_waits_for_qsbr_reader(BATCH, |_| {
        let waits = thread_synchronize_count();
        let ran = Arc::new(AtomicBool::new(false));
        let marker = Arc::clone(&ran);
        GraceSync::global().defer(move || marker.store(true, Ordering::SeqCst));
        for _ in 0..256 {
            GraceSync::global().defer(|| {});
        }
        while !ran.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            thread_synchronize_count(),
            waits,
            "the retiring thread waited"
        );
    });
}

/// A baseline's retirements: `DddsTable::resize` retires the whole old
/// table (5 000 nodes here), which wakes the reclaim thread; the resizing
/// thread itself never waits. Every old node holds a clone of `shared`, so
/// its count falls back once the thread has freed them.
#[test]
fn qsbr_reader_outlasts_a_ddds_resize() {
    pass_waits_for_qsbr_reader(BATCH, |_| {
        let shared = Arc::new(());
        let table: DddsTable<u64, Arc<()>> = DddsTable::with_buckets(64);
        for k in 0..5_000 {
            table.insert_kv(k, Arc::clone(&shared));
        }
        let waits = thread_synchronize_count();
        table.resize(128);
        assert_eq!(
            thread_synchronize_count(),
            waits,
            "the resizing thread waited"
        );
        while Arc::strong_count(&shared) > 1 + 5_000 {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
}

#[test]
fn domain_stats_reflect_reclamation_work() {
    let before = RcuDomain::global().stats();
    let map: RpHashMap<u64, u64, FnvBuildHasher> =
        RpHashMap::with_buckets_and_hasher(16, FnvBuildHasher);
    for k in 0..128 {
        map.insert(k, k);
    }
    for k in 0..128 {
        map.remove(&k);
    }
    assert!(
        wait_until(|| {
            let after = RcuDomain::global().stats();
            after.grace_periods > before.grace_periods
                && after.callbacks_executed >= before.callbacks_executed + 128
        }),
        "grace periods and callback executions must advance after 128 removals: {:?} -> {:?}",
        before,
        RcuDomain::global().stats()
    );
}
