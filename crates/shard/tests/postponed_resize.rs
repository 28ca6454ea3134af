//! Postponed resizes and the turn that catches up on them: a writer that
//! cannot wait for readers (an online QSBR worker) never waits for a grace
//! period, and `ShardedRpMap::maintain`, called from a quiescent point,
//! brings every shard it left due back inside its bounds.

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

/// No shard is mid-resize or outside its policy's load-factor bounds.
fn at_rest_inside_bounds(map: &ShardedRpMap<u64, u64>) -> bool {
    map.shards().iter().all(|shard| {
        let (len, buckets) = (shard.len(), shard.num_buckets());
        !shard.resize_in_progress()
            && !shard.policy().should_expand(len, buckets)
            && !shard.policy().should_shrink(len, buckets)
    })
}

/// What the flag is taken *before* the shards are looked at for, and why a
/// write sets it with an RMW: however a worker's writes race the other
/// worker's turns, whatever bounds the last writes crossed are acted on by
/// the next turn. Each worker is QSBR-online while it writes, and runs a
/// turn with its handle offline after every batch, as a reactor worker
/// does; none of its writes waits for a grace period.
#[test]
fn after_a_storm_one_maintain_leaves_every_shard_inside_its_bounds() {
    let map = ShardedRpMap::with_policy(policy(2));
    for round in 0..50_u64 {
        // Each round grows the map by a different amount, then takes a
        // different share of it away again — every fifth round all of it.
        let len = 150 + (round * 137) % 1100;
        let removed = len * (round % 5) / 4;
        let waits: Vec<u64> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2_u64)
                .map(|w| {
                    let map = &map;
                    s.spawn(move || {
                        let mut handle = QsbrReadHandle::register();
                        let mut waits = 0;
                        let inserts = (0..len).map(|k| (2 * k + w, true));
                        let removes = (0..removed).map(|k| (2 * k + w, false));
                        let writes: Vec<_> = inserts.chain(removes).collect();
                        for batch in writes.chunks(32) {
                            let before = rp_rcu::thread_synchronize_count();
                            for &(key, insert) in batch {
                                if insert {
                                    map.insert(key, round);
                                } else {
                                    map.remove(&key);
                                }
                            }
                            waits += rp_rcu::thread_synchronize_count() - before;
                            handle.quiescent_state();
                            handle.offline_scope(|| map.maintain());
                        }
                        waits
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(waits, [0, 0], "round {round}: a QSBR worker's write waited");
        map.maintain();
        assert!(
            at_rest_inside_bounds(&map),
            "round {round}: a shard stayed outside its bounds: {map:?}"
        );
    }
    map.check_invariants().unwrap();
}

/// A QSBR-online thread postpones the growth its inserts make due, and
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
        assert!(!handle.offline_scope(|| map.maintain()), "nothing left due");
        assert_eq!(map.get(&7, &handle), Some(&7));
        handle.offline();
        drop(handle);
        map.check_invariants().unwrap();
    })
    .join()
    .unwrap();
}

/// A writer that may wait for readers resizes its shard before the write
/// returns, and leaves nothing for a turn to do.
#[test]
fn a_writer_that_may_wait_resizes_inline() {
    let map = ShardedRpMap::with_policy(policy(2));
    for k in 0..4000_u64 {
        map.insert(k, k);
        assert!(at_rest_inside_bounds(&map), "after inserting {k}");
    }
    assert!(map.num_buckets() >= 2048);
    assert!(!map.maintain(), "the writers left nothing due");
    assert_eq!(map.retain(|k, _| *k < 8), 3992);
    assert!(at_rest_inside_bounds(&map), "bulk removal shrinks inline");
    map.check_invariants().unwrap();
}
