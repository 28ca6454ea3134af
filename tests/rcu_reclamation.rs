//! Cross-crate reclamation stress: values removed from relativistic data
//! structures must be dropped exactly once, and never while any reader could
//! still hold a reference to them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use relativist::hash::{FnvBuildHasher, RpHashMap};
use relativist::rcu::{pin, RcuDomain};

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

/// Waits (bounded) for a condition that may be completed by a reclamation
/// pass running in another test of this binary — the global RCU domain is
/// shared, so another test's `synchronize_and_reclaim` may be the one that
/// executes our deferred frees.
fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if cond() {
            return true;
        }
        RcuDomain::global().synchronize_and_reclaim();
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
    let map: RpHashMap<u64, Tracked, FnvBuildHasher> =
        RpHashMap::with_buckets_and_hasher(16, FnvBuildHasher);
    map.insert(7, Tracked::new(7, Arc::clone(&drops)));

    let guard = pin();
    let value = map.get(&7, &guard).expect("present");
    assert!(map.remove(&7));

    // The node is retired but must not be reclaimed while `guard` lives,
    // even if another thread drives grace periods.
    let reclaimer = std::thread::spawn(|| {
        // This grace period must wait for the guard above to drop.
        RcuDomain::global().synchronize_and_reclaim();
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
