//! The paper's central guarantee, tested end to end across crates: while the
//! table is being resized continuously and concurrently mutated, a reader
//! traversing a hash bucket always observes every element that belongs to
//! it — no lookup of a stable key ever misses.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use relativist::hash::{FnvBuildHasher, RpHashMap};

const STABLE_KEYS: u64 = 4096;

fn stable_value(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

#[test]
fn lookups_never_miss_during_continuous_resizing() {
    let map: Arc<RpHashMap<u64, u64, FnvBuildHasher>> =
        Arc::new(RpHashMap::with_buckets_and_hasher(64, FnvBuildHasher));
    for key in 0..STABLE_KEYS {
        map.insert(key, stable_value(key));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let lookups_done = Arc::new(AtomicU64::new(0));
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let reader_threads = (cpus - 1).clamp(2, 6);

    let readers: Vec<_> = (0..reader_threads)
        .map(|seed| {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            let lookups_done = Arc::clone(&lookups_done);
            std::thread::spawn(move || {
                let mut key = seed as u64;
                let mut local = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    key = (key
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407))
                        % STABLE_KEYS;
                    let guard = map.pin();
                    let value = map.get(&key, &guard).copied();
                    assert_eq!(
                        value,
                        Some(stable_value(key)),
                        "lookup of stable key {key} failed during resizing"
                    );
                    local += 1;
                }
                lookups_done.fetch_add(local, Ordering::Relaxed);
            })
        })
        .collect();

    // A resizer thread toggles the table between two sizes as fast as it
    // can, and a writer thread churns a disjoint range of volatile keys.
    let rounds = Arc::new(AtomicU64::new(0));
    let resizer = {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        let rounds = Arc::clone(&rounds);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let round = rounds.load(Ordering::Relaxed);
                map.resize_to(if round.is_multiple_of(2) { 2048 } else { 64 });
                rounds.store(round + 1, Ordering::Relaxed);
            }
        })
    };
    let writer = {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0_u64;
            while !stop.load(Ordering::Relaxed) {
                let key = STABLE_KEYS + (i % 1024);
                map.insert(key, i);
                map.remove(&key);
                i += 1;
            }
        })
    };

    // At least 1.5 s, and at least one full toggle: with more busy threads
    // than CPUs, a reader preempted inside its critical section stretches
    // every grace period the first, long-chained expansions wait for, and
    // the writer, which never waits for readers, keeps its CPU busy.
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(1500)
        || (rounds.load(Ordering::Relaxed) < 2 && started.elapsed() < Duration::from_secs(30))
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().unwrap();
    }
    resizer.join().unwrap();
    writer.join().unwrap();
    let resize_rounds = rounds.load(Ordering::Relaxed);

    assert!(
        resize_rounds >= 2,
        "the resizer should have completed at least one full toggle (did {resize_rounds})"
    );
    assert!(lookups_done.load(Ordering::Relaxed) > 10_000);

    // After the dust settles the table must be structurally sound and the
    // stable keys all present exactly once.
    map.check_invariants().expect("invariants after stress");
    assert_eq!(map.len() as u64, STABLE_KEYS);
    let guard = map.pin();
    assert_eq!(map.iter(&guard).count() as u64, STABLE_KEYS);
    drop(guard);
    map.flush_retired();
}

#[test]
fn shrink_and_expand_interleaved_with_updates() {
    let map: RpHashMap<u64, String, FnvBuildHasher> =
        RpHashMap::with_buckets_and_hasher(1, FnvBuildHasher);
    for round in 0..6_u64 {
        for key in (round * 500)..((round + 1) * 500) {
            map.insert(key, format!("value-{key}"));
        }
        map.expand();
        for key in (round * 500)..(round * 500 + 250) {
            assert!(map.remove(&key));
        }
        if round % 2 == 0 {
            map.shrink();
        }
        map.check_invariants().expect("invariants each round");
    }
    assert_eq!(map.len(), 6 * 250);
    let guard = map.pin();
    for round in 0..6_u64 {
        for key in (round * 500 + 250)..((round + 1) * 500) {
            assert_eq!(
                map.get(&key, &guard).map(String::as_str),
                Some(format!("value-{key}").as_str())
            );
        }
    }
}
