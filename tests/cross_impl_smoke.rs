//! Cross-implementation concurrent smoke test: every table implementation
//! must survive the same mixed concurrent workload with correct results for
//! a stable key set (the deterministic sequential equivalence is covered by
//! the proptest suites; this adds multi-threaded execution).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use relativist::baselines::{
    BucketLockTable, ConcurrentMap, DddsTable, MutexTable, RwLockTable, XuTable,
};
use relativist::hash::{FnvBuildHasher, RpHashMap};
use relativist::shard::ShardedRpMap;
use relativist::splitorder::SplitOrderMap;

const STABLE: u64 = 1024;

fn hammer(map: Arc<dyn ConcurrentMap<u64, u64>>) {
    let name = map.name();
    for k in 0..STABLE {
        map.insert(k, k + 1);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    // Readers check the stable keys.
    for seed in 0..3_u64 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut k = seed;
            while !stop.load(Ordering::Relaxed) {
                k = (k * 25214903917 + 11) % STABLE;
                assert_eq!(
                    map.lookup(&k),
                    Some(k + 1),
                    "{name}: stable key {k} missing"
                );
            }
        }));
    }

    // A writer churns volatile keys above the stable range.
    {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0_u64;
            while !stop.load(Ordering::Relaxed) {
                let k = STABLE + (i % 256);
                map.insert(k, i);
                if i % 2 == 1 {
                    map.remove(&k);
                }
                i += 1;
            }
        }));
    }

    // A resizer toggles the table size if the implementation supports it.
    if map.supports_resize() {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut round = 0_u64;
            while !stop.load(Ordering::Relaxed) {
                map.resize_to(if round.is_multiple_of(2) { 4096 } else { 256 });
                round += 1;
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().unwrap();
    }

    for k in 0..STABLE {
        assert_eq!(
            map.lookup(&k),
            Some(k + 1),
            "{name}: stable key {k} after stress"
        );
    }
    relativist::rcu::GraceSync::global().synchronize_and_reclaim();
}

/// The relativistic maps again, with the reader population split across
/// both read-side flavors: EBR guards *and* QSBR handles verify the stable
/// keys while a writer churns and a resizer toggles the table — the
/// map-level counterpart of running the server matrix under both
/// `--read-side` flavors.
fn hammer_with_qsbr_readers<L, R>(lookup_ebr: L, lookup_qsbr: R, resize: impl Fn(u64) + Send + Sync)
where
    L: Fn(u64) -> Option<u64> + Send + Sync,
    R: Fn(u64, &relativist::hash::QsbrReadHandle) -> Option<u64> + Send + Sync,
{
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for seed in 0..2_u64 {
            let lookup = &lookup_ebr;
            let stop = &stop;
            s.spawn(move || {
                let mut k = seed;
                while !stop.load(Ordering::Relaxed) {
                    k = (k * 25214903917 + 11) % STABLE;
                    assert_eq!(lookup(k), Some(k + 1), "EBR: stable key {k} missing");
                }
            });
        }
        for seed in 0..2_u64 {
            let lookup = &lookup_qsbr;
            let stop = &stop;
            s.spawn(move || {
                let mut handle = relativist::hash::QsbrReadHandle::register();
                let mut k = seed.wrapping_mul(77);
                let mut ops = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    k = k
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407)
                        % STABLE;
                    assert_eq!(
                        lookup(k, &handle),
                        Some(k + 1),
                        "QSBR: stable key {k} missing"
                    );
                    ops += 1;
                    if ops.is_multiple_of(64) {
                        handle.quiescent_state();
                    }
                }
            });
        }
        {
            let resize = &resize;
            let stop = &stop;
            s.spawn(move || {
                let mut round = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    resize(round);
                    round += 1;
                }
            });
        }
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::SeqCst);
    });
    relativist::rcu::GraceSync::global().synchronize_and_reclaim();
}

#[test]
fn rp_hash_map_qsbr_and_ebr_readers_survive_resizes() {
    let map = RpHashMap::<u64, u64, FnvBuildHasher>::with_buckets_and_hasher(256, FnvBuildHasher);
    for k in 0..STABLE {
        map.insert(k, k + 1);
    }
    hammer_with_qsbr_readers(
        |k| {
            let guard = map.pin();
            map.get(&k, &guard).copied()
        },
        |k, handle| map.get(&k, handle).copied(),
        |round| map.resize_to(if round.is_multiple_of(2) { 4096 } else { 256 }),
    );
    map.check_invariants().unwrap();
}

#[test]
fn sharded_rp_map_qsbr_and_ebr_readers_survive_resizes() {
    let map = ShardedRpMap::<u64, u64>::with_shards(8);
    for k in 0..STABLE {
        map.insert(k, k + 1);
    }
    hammer_with_qsbr_readers(
        |k| map.get_cloned(&k),
        |k, handle| map.get(&k, handle).copied(),
        |round| map.resize_total_to(if round.is_multiple_of(2) { 4096 } else { 256 }),
    );
    map.check_invariants().unwrap();
}

#[test]
fn split_order_map_qsbr_and_ebr_readers_survive_resizes() {
    let map = SplitOrderMap::<u64, u64>::with_buckets(256);
    for k in 0..STABLE {
        map.insert(k, k + 1);
    }
    hammer_with_qsbr_readers(
        |k| {
            let guard = map.pin();
            map.get(&k, &guard).copied()
        },
        |k, handle| map.get(&k, handle).copied(),
        |round| map.resize_to(if round.is_multiple_of(2) { 4096 } else { 256 }),
    );
    map.check_invariants().unwrap();
}

#[test]
fn rp_hash_map_survives_concurrent_mixed_workload() {
    hammer(Arc::new(
        RpHashMap::<u64, u64, FnvBuildHasher>::with_buckets_and_hasher(256, FnvBuildHasher),
    ));
}

#[test]
fn sharded_rp_map_survives_concurrent_mixed_workload() {
    hammer(Arc::new(ShardedRpMap::<u64, u64>::with_shards(8)));
}

#[test]
fn split_order_map_survives_concurrent_mixed_workload() {
    hammer(Arc::new(SplitOrderMap::<u64, u64>::with_buckets(256)));
}

#[test]
fn ddds_survives_concurrent_mixed_workload() {
    hammer(Arc::new(DddsTable::<u64, u64>::with_buckets(256)));
}

#[test]
fn rwlock_table_survives_concurrent_mixed_workload() {
    hammer(Arc::new(RwLockTable::<u64, u64>::with_buckets(256)));
}

#[test]
fn mutex_table_survives_concurrent_mixed_workload() {
    hammer(Arc::new(MutexTable::<u64, u64>::with_buckets(256)));
}

#[test]
fn bucket_lock_table_survives_concurrent_mixed_workload() {
    hammer(Arc::new(BucketLockTable::<u64, u64>::with_buckets(256)));
}

#[test]
fn xu_table_survives_concurrent_mixed_workload() {
    hammer(Arc::new(XuTable::<u64, u64>::with_buckets(256)));
}
