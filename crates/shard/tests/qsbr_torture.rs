//! rcutorture-style stress for the QSBR read path, on the *maintained*
//! sharded map.
//!
//! The storm itself lives in `rp_workload::torture` and runs against every
//! resizable map in the workspace (see `rp-workload`'s `torture_suite`);
//! this test keeps the sharded-specific configuration — a background
//! maintenance thread whose resizes race the harness's inline resize
//! cycler — plus the grace-period-latency assertion that needs a stalled
//! reader, which only makes sense once per process.
//!
//! Duration is controlled by `RP_TORTURE_SECS` (default 2 — fast enough
//! for tier-1; CI runs a longer mode explicitly).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use rp_hash::QsbrReadHandle;
use rp_rcu::GraceSync;
use rp_shard::{ShardPolicy, ShardedRpMap};
use rp_workload::torture::{torture_storm, Payload, TortureConfig};

/// The maintained storm map: auto-expand and auto-shrink enabled so the
/// harness's volatile churn crosses both thresholds, with resizes executed
/// by the background `rp-maint` thread (racing the harness's inline resize
/// cycler — both paths must be invisible to readers).
fn storm_map() -> ShardedRpMap<u64, Payload> {
    ShardedRpMap::with_maintenance(ShardPolicy {
        shards: 4,
        initial_buckets_per_shard: 16,
        per_shard: rp_hash::ResizePolicy {
            auto_expand: true,
            auto_shrink: true,
            max_load_factor: 2.0,
            min_load_factor: 0.25,
            min_buckets: 16,
            ..rp_hash::ResizePolicy::default()
        },
    })
}

#[test]
fn qsbr_torture() {
    let map = storm_map();
    let outcome = torture_storm(&map, &TortureConfig::default());
    assert!(outcome.resize_transitions >= 1);
    // Inline (the harness's cycler) and background resizes are counted in
    // one place; together they must have finished at least one.
    assert!(
        map.stats().total().resizes() >= 1,
        "the storm never completed a resize — the torture tested nothing"
    );
}

#[test]
fn stalled_reader_blocks_synchronize_for_its_stall() {
    const STALL: Duration = Duration::from_millis(120);
    const MINIMUM_OBSERVED: Duration = Duration::from_millis(100);

    let (ready_tx, ready_rx) = mpsc::channel();
    let stalled = std::thread::spawn(move || {
        let mut handle = QsbrReadHandle::register();
        // Online, with a (conceptual) reference in hand, and *no* quiescent
        // state for the whole stall: writers must wait out the full window.
        ready_tx.send(()).unwrap();
        std::thread::sleep(STALL);
        handle.quiescent_state();
        drop(handle);
    });

    ready_rx.recv().unwrap();
    let started = Instant::now();
    GraceSync::global().synchronize();
    let waited = started.elapsed();
    stalled.join().unwrap();
    assert!(
        waited >= MINIMUM_OBSERVED,
        "synchronize returned after {waited:?} despite a reader stalled for {STALL:?} — \
         the grace period is vacuous"
    );
}
