//! Cross-implementation concurrent smoke test: every table of
//! `rp_baselines::tables` must survive the same mixed concurrent workload
//! with correct results for a stable key set (the deterministic sequential
//! equivalence is covered by the proptest suites; this adds multi-threaded
//! execution). Every thread drives the table through a handle of its own;
//! a table with a QSBR read path has one QSBR reader among the three.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use relativist::baselines::tables;
use relativist::hash::ReadSide;

const STABLE: u64 = 1024;

fn hammer(name: &str) {
    let (_, build) = tables::<u64, u64>()
        .into_iter()
        .find(|(table, _)| *table == name)
        .unwrap_or_else(|| panic!("no table named {name}"));
    let map = build(256);
    let mut loader = map.handle(ReadSide::Ebr).unwrap();
    for k in 0..STABLE {
        loader.insert(k, k + 1);
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Readers check the stable keys.
        for (seed, read_side) in [ReadSide::Ebr, ReadSide::Qsbr, ReadSide::Ebr]
            .into_iter()
            .enumerate()
        {
            let (map, stop) = (&map, &stop);
            s.spawn(move || {
                let mut reader = map
                    .handle(read_side)
                    .unwrap_or_else(|| map.handle(ReadSide::Ebr).unwrap());
                let mut k = seed as u64;
                while !stop.load(Ordering::Relaxed) {
                    k = (k * 25214903917 + 11) % STABLE;
                    assert_eq!(
                        reader.lookup(&k),
                        Some(k + 1),
                        "{name}: stable key {k} missing"
                    );
                }
            });
        }

        // A writer churns volatile keys above the stable range.
        {
            let (map, stop) = (&map, &stop);
            s.spawn(move || {
                let mut writer = map.handle(ReadSide::Ebr).unwrap();
                let mut i = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = STABLE + (i % 256);
                    writer.insert(k, i);
                    if i % 2 == 1 {
                        writer.remove(&k);
                    }
                    i += 1;
                }
            });
        }

        // A resizer toggles the table size if the table resizes online.
        if let Some(resizable) = map.resizable() {
            let stop = &stop;
            s.spawn(move || {
                let mut round = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    resizable.resize_to(if round.is_multiple_of(2) { 4096 } else { 256 });
                    round += 1;
                }
            });
        }

        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::SeqCst);
    });

    for k in 0..STABLE {
        assert_eq!(
            loader.lookup(&k),
            Some(k + 1),
            "{name}: stable key {k} after stress"
        );
    }
    match map.checked() {
        Some(checked) => {
            checked.check_invariants().unwrap();
            // Through the table: an `RpHashMap` frees its open batch of
            // retired nodes only once its own flush has queued it.
            checked.flush_retired();
        }
        None => relativist::rcu::GraceSync::global().synchronize_and_reclaim(),
    }
}

/// One test per table of the list, and a test that the list has no table
/// without one.
macro_rules! hammer_each {
    ($($test:ident => $name:literal,)*) => {
        $(
            #[test]
            fn $test() {
                hammer($name);
            }
        )*

        #[test]
        fn every_table_of_the_list_is_hammered() {
            let listed: Vec<&str> = tables::<u64, u64>().iter().map(|(name, _)| *name).collect();
            assert_eq!(listed, [$($name),*]);
        }
    };
}

hammer_each! {
    rp_hash_map_survives_concurrent_mixed_workload => "rp",
    sharded_rp_map_survives_concurrent_mixed_workload => "rp-shard",
    split_order_map_survives_concurrent_mixed_workload => "splitorder",
    ddds_survives_concurrent_mixed_workload => "ddds",
    xu_table_survives_concurrent_mixed_workload => "xu-dual-chain",
    rwlock_table_survives_concurrent_mixed_workload => "rwlock",
    bucket_lock_table_survives_concurrent_mixed_workload => "bucket-lock",
    mutex_table_survives_concurrent_mixed_workload => "mutex",
}
