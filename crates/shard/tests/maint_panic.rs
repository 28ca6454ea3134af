//! Maintainer × resize state machine under an injected panic: the real
//! `MaintTarget` (a maintained `ShardedRpMap`), the real failpoint.
//!
//! Alone in its test binary: the `rp_fault` plan registry and the `rp-obs`
//! counters it reads are process-global.

use std::time::{Duration, Instant};

use rp_hash::ResizePolicy;
use rp_shard::{ShardPolicy, ShardedRpMap};

#[test]
fn a_panic_mid_resize_is_contained_and_the_retry_finishes_the_resize() {
    // Quiet for the injected panic only.
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected panic at failpoint"));
        if !injected {
            default(info);
        }
    }));

    let map: ShardedRpMap<u64, u64> = ShardedRpMap::with_maintenance(ShardPolicy {
        shards: 2,
        initial_buckets_per_shard: 8,
        per_shard: ResizePolicy {
            max_load_factor: 2.0,
            ..ResizePolicy::automatic()
        },
    });
    let panics_before = rp_obs::global().maint.worker_panics_total.get();

    // The first step of the first resize the maintainer begins unwinds: the
    // doubled table is published and the zippers are still closed.
    let _armed = rp_fault::ArmGuard::new("hash.resize.step=panic*1", 7);
    for k in 0..2000_u64 {
        map.insert(k, k * 3);
    }

    // The maintainer survived, and its one retry found the half-done resize
    // and finished it (`lock_at_rest`) before growing the shard further.
    let deadline = Instant::now() + Duration::from_secs(10);
    let settled = || {
        map.shards().iter().all(|shard| {
            !shard.resize_in_progress()
                && !shard
                    .policy()
                    .should_expand(shard.len(), shard.num_buckets())
        })
    };
    while rp_fault::injected("hash.resize.step") == 0 || !settled() {
        assert!(
            Instant::now() < deadline,
            "the maintainer did not recover: {map:?}, {:?}",
            map.maint_stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(rp_fault::injected("hash.resize.step"), 1);
    assert_eq!(map.maint_stats().expect("maintained").worker_panics, 1);
    assert_eq!(
        rp_obs::global().maint.worker_panics_total.get() - panics_before,
        1
    );

    map.check_invariants().unwrap();
    let guard = map.pin();
    for k in 0..2000_u64 {
        assert_eq!(map.get(&k, &guard), Some(&(k * 3)), "key {k}");
    }
}
