//! One EBR writer and one QSBR-online writer on one bare `RpHashMap`.
//!
//! The QSBR writer is what an event-loop worker is: online for the length
//! of its batch, announcing a quiescent state only between batches. Every
//! grace period — a reclamation pass, the one an automatic resize's cookie
//! names — waits for that announcement. A writer that waited for one while
//! holding the writer lock would leave the QSBR writer, queueing for that
//! lock in the middle of its batch, unable to announce, and both would stop
//! for good.
//! So no write waits at all: the EBR writer's grace waits are counted, and
//! must be none; this is the test that stalls (within a second) when a
//! write waits under the lock.
//!
//! Two variants: the default policy, where the writers' only grace-period
//! work is freeing what they retire (the reclaim thread's), and automatic
//! resizing at load factor 1, where the writers' unsynchronised fill/drain
//! phases take the table across its expand and shrink triggers over and
//! over (the writers begin and finish the resizes, the reclaim thread sees
//! their grace periods out).
//!
//! A stall is a failure, not a hang: the test thread watches both writers'
//! progress counters and gives up on a deadline, and with
//! `RP_RCU_STALL_PANIC=1` the stalled grace period is reported by flavor.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rp_hash::{FnvBuildHasher, QsbrReadHandle, ResizePolicy, RpHashMap};
use rp_rcu::stall::{spawn_watchdog, StallConfig};

type Map = RpHashMap<u64, u64, FnvBuildHasher>;

/// Keys per fill/drain phase of one writer.
const SPAN: u64 = 256;
/// Updates between two quiescent announcements of the QSBR writer.
const BATCH: u64 = 64;
const RUN: Duration = Duration::from_secs(3);
/// A writer whose counter stands still this long is stuck.
const STALL: Duration = Duration::from_secs(10);

/// Inserts its own `SPAN` keys, removes them again, counts the pairs; calls
/// `between` after every update.
fn writer(map: &Map, id: u64, pairs: &AtomicU64, stop: &AtomicBool, mut between: impl FnMut()) {
    let keys = id * SPAN..(id + 1) * SPAN;
    while !stop.load(Ordering::Relaxed) {
        for key in keys.clone() {
            assert!(map.insert(key, key), "key {key} is this writer's alone");
            between();
        }
        for key in keys.clone() {
            assert!(map.remove(&key), "key {key} is this writer's alone");
            pairs.fetch_add(1, Ordering::Relaxed);
            between();
        }
    }
}

/// Runs the storm, in which the EBR writer must wait for no grace period;
/// returns the map.
fn storm(name: &str, policy: ResizePolicy) -> Arc<Map> {
    let watchdog = spawn_watchdog(StallConfig::from_env());
    let map: Arc<Map> = Arc::new(RpHashMap::with_buckets_hasher_and_policy(
        16,
        FnvBuildHasher,
        policy,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let pairs = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];

    // Spawned, not scoped: a deadlocked writer must not hang the join that
    // ends a scope.
    let ebr = {
        let (map, stop, pairs) = (Arc::clone(&map), Arc::clone(&stop), Arc::clone(&pairs[0]));
        std::thread::spawn(move || {
            writer(&map, 0, &pairs, &stop, || {});
            rp_rcu::thread_synchronize_count()
        })
    };
    let qsbr = {
        let (map, stop, pairs) = (Arc::clone(&map), Arc::clone(&stop), Arc::clone(&pairs[1]));
        std::thread::spawn(move || {
            let mut handle = QsbrReadHandle::register();
            let mut updates = 0;
            writer(&map, 1, &pairs, &stop, || {
                updates += 1;
                if updates % BATCH == 0 {
                    handle.quiescent_state();
                }
            });
            handle.offline();
            rp_rcu::thread_synchronize_count()
        })
    };
    let writers = [("EBR", ebr), ("QSBR-online", qsbr)];

    let started = Instant::now();
    let mut seen = [(0, started); 2];
    while !writers.iter().all(|(_, thread)| thread.is_finished()) {
        std::thread::sleep(Duration::from_millis(20));
        if started.elapsed() >= RUN {
            stop.store(true, Ordering::Relaxed);
        }
        for (writer, (count, at)) in seen.iter_mut().enumerate() {
            let now = pairs[writer].load(Ordering::Relaxed);
            if now != *count {
                (*count, *at) = (now, Instant::now());
            }
            assert!(
                writers[writer].1.is_finished() || at.elapsed() < STALL,
                "{name}: the {} writer is stuck at {now} pairs (the other at {})",
                writers[writer].0,
                pairs[1 - writer].load(Ordering::Relaxed),
            );
        }
    }
    let [ebr_waits, _] = writers.map(|(flavor, thread)| {
        thread
            .join()
            .unwrap_or_else(|_| panic!("{name}: the {flavor} writer panicked"))
    });
    watchdog.stop().expect("no grace period stalled");

    let secs = started.elapsed().as_secs_f64();
    let rate = |writer: usize| pairs[writer].load(Ordering::Relaxed) as f64 / secs / 1e3;
    let stats = map.stats();
    eprintln!(
        "{name}: EBR {:.0}k pairs/s, QSBR-online {:.0}k pairs/s, {} expands, {} shrinks, \
         {ebr_waits} EBR-writer grace waits",
        rate(0),
        rate(1),
        stats.expands,
        stats.shrinks
    );
    assert!(rate(0) > 0.0 && rate(1) > 0.0, "{name}: a writer never ran");
    assert_eq!(ebr_waits, 0, "{name}: a write waited for readers");
    assert!(map.is_empty());
    map.check_invariants().unwrap();
    map.flush_retired();
    map
}

#[test]
fn reclaiming_writers_of_both_flavors_share_a_map() {
    let map = storm("default policy", ResizePolicy::default());
    assert_eq!(map.num_buckets(), 16);
}

#[test]
fn resizing_writers_of_both_flavors_share_a_map() {
    let map = storm(
        "auto-resize at load factor 1",
        ResizePolicy {
            auto_expand: true,
            auto_shrink: true,
            max_load_factor: 1.0,
            min_load_factor: 0.5,
            min_buckets: 4,
            ..ResizePolicy::default()
        },
    );
    let stats = map.stats();
    assert!(
        stats.expands > 2 && stats.shrinks > 2,
        "the triggers were crossed {} + {} times only",
        stats.expands,
        stats.shrinks
    );
}
