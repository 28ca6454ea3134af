//! Integration tests for background resize maintenance: the acceptance
//! property is that on the maintained path **writer threads never wait for
//! readers** — no `synchronize` runs inside `insert`/`remove` — while the
//! maintenance thread resizes storming shards under iterating readers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rp_hash::{QsbrReadHandle, ResizePolicy};
use rp_shard::{ShardPolicy, ShardedRpMap};

fn policy(shards: usize) -> ShardPolicy {
    ShardPolicy {
        shards,
        initial_buckets_per_shard: 8,
        per_shard: ResizePolicy {
            auto_expand: true,
            auto_shrink: true,
            max_load_factor: 2.0,
            min_load_factor: 0.25,
            min_buckets: 8,
            ..ResizePolicy::default()
        },
    }
}

fn maintained_map(shards: usize) -> ShardedRpMap<u64, u64> {
    ShardedRpMap::with_maintenance(policy(shards))
}

/// No shard is mid-resize or outside its policy's load-factor bounds.
fn at_rest_inside_bounds(map: &ShardedRpMap<u64, u64>) -> bool {
    map.shards().iter().all(|shard| {
        let (len, buckets) = (shard.len(), shard.num_buckets());
        !shard.resize_in_progress()
            && !shard.policy().should_expand(len, buckets)
            && !shard.policy().should_shrink(len, buckets)
    })
}

/// Keys that route to shard 0 of `map`, so a storm can target one shard.
fn shard0_keys(map: &ShardedRpMap<u64, u64>, n: usize) -> Vec<u64> {
    (0_u64..)
        .filter(|k| map.shard_for_key(k) == 0)
        .take(n)
        .collect()
}

#[test]
fn writer_storm_never_synchronizes() {
    let map = Arc::new(maintained_map(4));
    let keys = Arc::new(shard0_keys(&map, 3000));

    // Seed a stable prefix so iterating readers always see entries.
    for &k in &keys[..200] {
        map.insert(k, k);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..2 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let guard = map.pin();
                let mut seen = 0_usize;
                for _ in map.iter(&guard) {
                    seen += 1;
                }
                assert!(seen >= 1, "seeded entries must stay visible");
            }
        }));
    }

    // Two writers storm shard 0 far past the expand trigger (8 buckets,
    // load factor 2.0 → the trigger fires from entry 17 on and keeps
    // firing), then churn with removes to exercise the shrink direction.
    // Each writer asserts it never waited for a grace period.
    let mut writers = Vec::new();
    for w in 0..2_usize {
        let map = Arc::clone(&map);
        let keys = Arc::clone(&keys);
        writers.push(std::thread::spawn(move || {
            let before = rp_rcu::thread_synchronize_count();
            let mine: Vec<u64> = keys[200..].iter().copied().skip(w).step_by(2).collect();
            for &k in &mine {
                map.insert(k, k * 2);
            }
            for &k in mine.iter().rev().take(mine.len() / 2) {
                assert!(map.remove(&k));
            }
            rp_rcu::thread_synchronize_count() - before
        }));
    }
    let grace_waits: Vec<u64> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(
        grace_waits,
        vec![0, 0],
        "writers on the maintained path must never call synchronize"
    );

    // The maintenance thread must have resized shard 0 in the background.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = map.stats();
        if stats.per_shard[0].expands >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "maintenance thread never expanded the stormed shard: {:?} / {:?}",
            stats.per_shard[0],
            stats.maint
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    stop.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().unwrap();
    }

    let maint = map.maint_stats().expect("maintained map exposes stats");
    assert!(maint.requests >= 1, "writers must have requested resizes");
    assert!(maint.turns >= 1, "the maintainer took them");
    assert!(
        map.stats().per_shard[0].resize_grace_periods >= 1,
        "the maintainer absorbs grace waits"
    );
    assert!(map.stats().maint.is_some(), "ShardStats carries MaintStats");

    // Every surviving key is intact and the table is structurally sound
    // (check_invariants completes any still-running resize first).
    map.check_invariants().unwrap();
    let guard = map.pin();
    for &k in &keys[..200] {
        assert_eq!(map.get(&k, &guard), Some(&k));
    }
}

#[test]
fn shutdown_leaves_no_half_published_resize() {
    let mut map = maintained_map(2);
    // Storm both shards so resizes are requested and (very likely) still in
    // flight when we shut down; wait until at least one has begun.
    for k in 0..2000_u64 {
        map.insert(k, k);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while !map.shards().iter().any(|s| s.resize_in_progress()) && map.stats().total().resizes() == 0
    {
        assert!(
            Instant::now() < deadline,
            "no resize ever began: {:?}",
            map.maint_stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The shutdown handshake must drain any in-progress resize; nothing may
    // be left half-published.
    map.stop_maintenance();
    assert!(!map.maintained());
    for (i, shard) in map.shards().iter().enumerate() {
        assert!(
            !shard.resize_in_progress(),
            "shard {i} left mid-resize after MaintHandle drop"
        );
    }
    map.check_invariants().unwrap();
    let guard = map.pin();
    for k in 0..2000_u64 {
        assert_eq!(map.get(&k, &guard), Some(&k), "key {k} lost");
    }
}

#[test]
fn drop_mid_storm_is_clean() {
    // Dropping the whole map while the maintainer is mid-resize exercises
    // the MaintHandle-drop handshake plus RpHashMap::drop; miri-style
    // double-free/leak bugs would crash or trip the allocator here.
    for _ in 0..5 {
        let map = maintained_map(2);
        for k in 0..1500_u64 {
            map.insert(k, k);
        }
        drop(map);
    }
}

#[test]
fn maintained_writes_match_plain_semantics() {
    let maintained = maintained_map(4);
    let plain: ShardedRpMap<u64, u64> = ShardedRpMap::with_shards(4);

    // Every key twice: a new insert, then a replacement.
    for k in (0..1024_u64).chain(0..1024) {
        assert_eq!(maintained.insert(k, k * 3), plain.insert(k, k * 3));
    }
    for k in 0..1200_u64 {
        assert_eq!(maintained.get_cloned(&k), plain.get_cloned(&k));
    }
    // Every third key twice: a removal, then a miss.
    for k in (0..1024_u64).step_by(3).chain((0..1024).step_by(3)) {
        assert_eq!(maintained.remove(&k), plain.remove(&k));
    }
    assert_eq!(maintained.len(), plain.len());
    maintained.check_invariants().unwrap();
    maintained.flush_retired();
}

#[test]
fn a_stopped_map_resizes_inline_again() {
    let mut map = maintained_map(2);
    for k in 0..500_u64 {
        map.insert(k, k);
    }
    map.stop_maintenance();
    assert!(!map.maintained());
    // Whatever the maintainer had not got to is this thread's to do now,
    // and it is done before the insert that found it returns.
    let before = map.stats().total().expands;
    for k in 500..4000_u64 {
        map.insert(k, k);
        assert!(at_rest_inside_bounds(&map), "after inserting {k}");
    }
    assert!(map.stats().total().expands > before);
    assert!(map.num_buckets() >= 2048);
    assert_eq!(map.retain(|k, _| *k < 8), 3992);
    assert!(at_rest_inside_bounds(&map), "bulk removal shrinks inline");
    map.check_invariants().unwrap();
}

/// What the maintainer's pending flag is cleared *before* the turn for: when
/// the writers stop, whatever bounds their last writes crossed get acted on,
/// however the requests raced the turns.
#[test]
fn every_shard_is_inside_its_bounds_soon_after_a_storm_stops() {
    let map = Arc::new(maintained_map(2));
    for round in 0..50_u64 {
        // Each round grows the map by a different amount, then takes a
        // different share of it away again — every fifth round all of it.
        let len = 150 + (round * 137) % 1100;
        let removed = len * (round % 5) / 4;
        let writers: Vec<_> = (0..2_u64)
            .map(|w| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for k in 0..len {
                        map.insert(2 * k + w, round);
                    }
                    for k in 0..removed {
                        map.remove(&(2 * k + w));
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !at_rest_inside_bounds(&map) {
            assert!(
                Instant::now() < deadline,
                "round {round}: a shard stayed outside its bounds: {map:?}, {:?}",
                map.maint_stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    map.check_invariants().unwrap();
}

/// The unmaintained map for writers that cannot wait for readers: a
/// QSBR-online thread postpones the growth its inserts make due, and
/// `ShardedRpMap::maintain` catches up from its offline window.
#[test]
fn maintain_catches_up_growth_postponed_by_a_qsbr_online_writer() {
    // On a dedicated thread so the handle's thread-local online state cannot
    // leak into other tests.
    std::thread::spawn(|| {
        let map: ShardedRpMap<u64, u64> = ShardedRpMap::with_policy(policy(4));
        let mut handle = QsbrReadHandle::register();
        let before = map.num_buckets();
        for k in 0..4096 {
            map.insert(k, k);
        }
        assert_eq!(map.num_buckets(), before, "postponed while QSBR-online");
        assert!(!map.maintain(), "still online: a mistimed call is a no-op");
        handle.quiescent_state();
        assert!(handle.offline_scope(|| map.maintain()));
        assert!(at_rest_inside_bounds(&map));
        assert!(map.stats().shards_resized() == 4, "every shard caught up");
        assert_eq!(map.get(&7, &handle), Some(&7));
        handle.offline();
        drop(handle);
        map.check_invariants().unwrap();
    })
    .join()
    .unwrap();
}
