//! `num_buckets()` is safe to call while another thread resizes: it reads
//! the bucket array under a pin, so a resize cannot free the array between
//! the pointer load and the read. Two threads ask for the bucket count
//! while a third halves and doubles a 1 Ki-bucket table. A build with
//! `-Zsanitizer=address` reports a heap-use-after-free here if the read is
//! unguarded; a normal build only checks that every answer is one the table
//! has had.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rp_baselines::{DddsTable, Table, XuTable};
use rp_hash::ReadSide;

/// Runs the race on `map` for about a second; returns how many resizes the
/// resizing thread made.
fn race(name: &str, map: &dyn Table<u64, u64>) -> u64 {
    let mut handle = map.handle(ReadSide::Ebr).unwrap();
    for key in 0..1024 {
        handle.insert(key, key);
    }
    let resizable = map.resizable().unwrap();
    resizable.resize_to(1 << 10);
    let stop = AtomicBool::new(false);
    let resizes = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let buckets = map.num_buckets();
                    assert!(
                        buckets == 1 << 9 || buckets == 1 << 10,
                        "{name} reported {buckets} buckets"
                    );
                }
            });
        }
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut resizes = 0_u64;
        while Instant::now() < deadline && resizes < 20_000 {
            resizable.resize_to(1 << 9);
            resizable.resize_to(1 << 10);
            resizes += 2;
        }
        stop.store(true, Ordering::Relaxed);
        resizes
    });
    assert_eq!(map.num_buckets(), 1 << 10);
    assert_eq!(map.len(), 1024);
    resizes
}

#[test]
fn ddds_num_buckets_reads_no_freed_array_while_the_table_resizes() {
    let map: DddsTable<u64, u64> = DddsTable::with_buckets(1 << 10);
    assert!(race("ddds", &map) > 0);
}

#[test]
fn xu_num_buckets_reads_no_freed_array_while_the_table_resizes() {
    let map: XuTable<u64, u64> = XuTable::with_buckets(1 << 10);
    assert!(race("xu-dual-chain", &map) > 0);
}
