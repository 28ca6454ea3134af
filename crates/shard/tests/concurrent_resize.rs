//! Concurrent correctness: readers iterate and look up a stable key set at
//! full speed while multiple shards resize continuously and writers churn
//! other shards — two shards resizing while readers iterate, and a broader
//! mixed-workload hammer — plus the writers' own resizes, which wait for
//! nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rp_hash::{ResizePolicy, RpHashMap};
use rp_rcu::{thread_synchronize_count, GraceSync};
use rp_shard::{ShardPolicy, ShardedRpMap};

const STABLE: u64 = 2048;

fn stable_map(shards: usize) -> Arc<ShardedRpMap<u64, u64>> {
    let map = Arc::new(ShardedRpMap::with_policy(ShardPolicy {
        shards,
        initial_buckets_per_shard: 64,
        ..ShardPolicy::default()
    }));
    for k in 0..STABLE {
        map.insert(k, k + 1);
    }
    map
}

#[test]
fn readers_iterate_while_two_shards_resize() {
    let map = stable_map(8);
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    // Two resizer threads each continuously toggle a different shard
    // between a small and a large bucket count.
    for shard_idx in [1_usize, 6] {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut round = 0_u64;
            while !stop.load(Ordering::Relaxed) {
                let target = if round.is_multiple_of(2) { 512 } else { 16 };
                map.shard(shard_idx).resize_to(target);
                round += 1;
            }
            round
        }));
    }

    // Readers iterate the whole map (crossing the resizing shards) and
    // verify the stable key set is always complete.
    for _ in 0..3 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut sweeps = 0_u64;
            while !stop.load(Ordering::Relaxed) {
                let guard = map.pin();
                let count = map.iter(&guard).count();
                // Iteration must never observe a torn table: every stable
                // key is present throughout, so the count is exactly STABLE
                // (no concurrent writers in this test).
                assert_eq!(count as u64, STABLE, "iteration dropped entries mid-resize");
                drop(guard);
                sweeps += 1;
            }
            sweeps
        }));
    }

    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::SeqCst);
    let mut background_progress = Vec::new();
    for h in handles {
        background_progress.push(h.join().unwrap());
    }
    assert!(
        background_progress.iter().all(|&p| p > 0),
        "every resizer and reader must make progress: {background_progress:?}"
    );

    map.check_invariants().unwrap();
    let resized = map.stats().shards_resized();
    assert!(
        resized >= 2,
        "expected ≥2 shards to have resized, got {resized}"
    );
    map.flush_retired();
}

#[test]
fn mixed_workload_with_batches_and_per_shard_resizes() {
    let map = stable_map(16);
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    // Point readers verify stable keys.
    for seed in 0..2_u64 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut k = seed;
            while !stop.load(Ordering::Relaxed) {
                k = (k * 25214903917 + 11) % STABLE;
                assert_eq!(map.get_cloned(&k), Some(k + 1), "stable key {k} missing");
            }
        }));
    }

    // A batch reader looks a whole group of keys up under one guard: the
    // guard covers every shard the group touches.
    {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut base = 0_u64;
            while !stop.load(Ordering::Relaxed) {
                let guard = map.pin();
                for key in (0..64).map(|i| (base + i * 31) % STABLE) {
                    let got = map.get(&key, &guard);
                    assert_eq!(got, Some(&(key + 1)), "stable key {key} missing");
                }
                drop(guard);
                base = base.wrapping_add(7);
            }
        }));
    }

    // A batch writer churns volatile keys above the stable range.
    {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0_u64;
            while !stop.load(Ordering::Relaxed) {
                let keys = (0..32).map(|j| STABLE + ((i + j) % 512));
                for key in keys.clone() {
                    map.insert(key, i);
                }
                if i % 2 == 1 {
                    for key in keys {
                        map.remove(&key);
                    }
                }
                i += 1;
            }
        }));
    }

    // A resizer walks across every shard.
    {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut round = 0_usize;
            while !stop.load(Ordering::Relaxed) {
                let shard = round % map.shard_count();
                let target = if round.is_multiple_of(2) { 256 } else { 32 };
                map.shard(shard).resize_to(target);
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
            map.get_cloned(&k),
            Some(k + 1),
            "stable key {k} after stress"
        );
    }
    map.check_invariants().unwrap();
    map.flush_retired();
}

/// Writers resize their shards and never wait for readers: the write that
/// takes a shard over a load-factor trigger begins the resize, and once
/// its grace period has elapsed the next write to the shard finishes it.
/// Settled — a grace period covers each resize's cookie, then removals of
/// keys never stored reach every shard — no shard is mid-resize or outside
/// its policy's bounds, after the inserts and after a bulk removal.
#[test]
fn writers_resize_their_shards_without_waiting() {
    let policy = ResizePolicy {
        min_buckets: 8,
        ..ResizePolicy::automatic()
    };
    let map = ShardedRpMap::with_policy(ShardPolicy {
        shards: 2,
        initial_buckets_per_shard: 8,
        per_shard: policy,
    });
    let settle = |map: &ShardedRpMap<u64, u64>| {
        while map.shards().iter().any(RpHashMap::resize_in_progress) {
            GraceSync::global().synchronize();
            (1 << 40..(1 << 40) + 64).for_each(|absent| assert!(!map.remove(&absent)));
        }
        for shard in map.shards() {
            assert!(!policy.should_expand(shard.len(), shard.num_buckets()));
            assert!(!policy.should_shrink(shard.len(), shard.num_buckets()));
        }
    };
    let waits = thread_synchronize_count();
    for k in 0..4000_u64 {
        map.insert(k, k);
    }
    assert_eq!(thread_synchronize_count(), waits, "an insert waited");
    settle(&map);
    assert!(map.num_buckets() >= 2048);
    let waits = thread_synchronize_count();
    assert_eq!(map.retain(|k, _| *k < 8), 3992);
    assert_eq!(thread_synchronize_count(), waits, "the removal waited");
    settle(&map);
    map.check_invariants().unwrap();
}
