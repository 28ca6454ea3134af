//! The shared rcutorture-style storm, run against every resizable RCU map
//! in the workspace: the plain relativistic table, the sharded table, and
//! the split-ordered list. One harness, one contract — no freed or torn
//! value observed, no stable key absent mid-resize, invariants intact
//! after the storm. Duration per map is `RP_TORTURE_SECS` (default 2).
//!
//! Every grace-period scan reports its own stall (threshold and escalation
//! from `RP_RCU_STALL_THRESHOLD_MS` / `RP_RCU_STALL_PANIC`): a healthy
//! storm — readers announcing quiescence, writers synchronizing constantly
//! — must produce **zero** stall reports. The positive cases (a stall that
//! *should* fire, with the right flavor named) live in `rp-rcu`'s
//! `stall_detector` integration test.

use rp_hash::RpHashMap;
use rp_shard::ShardedRpMap;
use rp_splitorder::SplitOrderMap;
use rp_workload::torture::{torture_storm, Payload, TortureConfig};

/// Runs `storm` and asserts no grace period of it reported a stall.
fn assert_no_stalls(storm: impl FnOnce()) {
    let stalls_before = rp_obs::global().rcu.grace_stalls_total.get();
    storm();
    assert_eq!(
        rp_obs::global().rcu.grace_stalls_total.get(),
        stalls_before,
        "the storm's grace periods are healthy; any stall report is a false positive"
    );
}

#[test]
fn rp_hash_map_survives_the_storm() {
    assert_no_stalls(|| {
        let map: RpHashMap<u64, Payload> = RpHashMap::with_buckets(64);
        let outcome = torture_storm(&map, &TortureConfig::default());
        assert!(outcome.resize_transitions >= 1);
    });
}

#[test]
fn sharded_rp_map_survives_the_storm() {
    assert_no_stalls(|| {
        let map: ShardedRpMap<u64, Payload> = ShardedRpMap::with_shards(4);
        let outcome = torture_storm(&map, &TortureConfig::default());
        assert!(outcome.resize_transitions >= 1);
    });
}

#[test]
fn split_order_map_survives_the_storm() {
    assert_no_stalls(|| {
        let map: SplitOrderMap<u64, Payload> = SplitOrderMap::with_buckets(64);
        let outcome = torture_storm(&map, &TortureConfig::default());
        assert!(outcome.resize_transitions >= 1);
    });
}
