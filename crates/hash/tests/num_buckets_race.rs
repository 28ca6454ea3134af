//! `num_buckets()` takes no witness, so it must not read through the table
//! pointer: a resize may free the array between that load and the read.
//! Two threads ask for the bucket count while a third halves and doubles a
//! 1 Ki-bucket table. A build with `-Zsanitizer=address` reports a
//! heap-use-after-free here within a second if the count is read from the
//! array; a normal build only checks that every answer is one the table
//! has had.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rp_hash::{FnvBuildHasher, RpHashMap};

#[test]
fn num_buckets_reads_no_freed_array_while_the_table_resizes() {
    let map: RpHashMap<u64, u64, FnvBuildHasher> =
        RpHashMap::with_buckets_and_hasher(1 << 10, FnvBuildHasher);
    for key in 0..4096 {
        map.insert(key, key);
    }
    let stop = AtomicBool::new(false);
    let resizes = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let buckets = map.num_buckets();
                    assert!(buckets == 1 << 9 || buckets == 1 << 10, "{buckets} buckets");
                    assert!(map.load_factor() > 0.0);
                }
            });
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut resizes = 0_u64;
        while Instant::now() < deadline && resizes < 20_000 {
            map.shrink();
            map.expand();
            resizes += 2;
        }
        stop.store(true, Ordering::Relaxed);
        resizes
    });
    assert!(resizes > 0);
    assert_eq!(map.num_buckets(), 1 << 10);
    map.check_invariants().unwrap();
}
