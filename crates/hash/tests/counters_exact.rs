//! The map's counters are exact under concurrent writers and resizes:
//! `len()` and every `stats()` field equal what the calls that moved them
//! returned.
//!
//! Every counter is stored to only under the writer lock, so a bump is a
//! plain load and store, not an atomic read-modify-write. That is exact
//! only while every bump stays inside the lock: one moved outside loses
//! increments to a racing writer, and this test counts them.
//! `cargo test --release -p rp-hash --test counters_exact`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

use rp_hash::{FnvBuildHasher, RpHashMap};

const WRITERS: u64 = 4;
/// Operations per writer thread.
const OPS: u64 = 400_000;
/// Keys every writer touches.
const SHARED_KEYS: u64 = 64;
/// Keys only one writer touches, per writer.
const OWN_KEYS: u64 = 256;
const BUCKETS: usize = 64;

/// What one writer's calls returned.
#[derive(Default)]
struct Tally {
    inserts: u64,
    replaces: u64,
    removes: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn write(map: &RpHashMap<u64, u64, FnvBuildHasher>, writer: u64) -> Tally {
    let mut tally = Tally::default();
    let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (writer + 1);
    for i in 0..OPS {
        let r = xorshift(&mut rng);
        let key = if r & 1 == 0 {
            r >> 8 & (SHARED_KEYS - 1)
        } else {
            SHARED_KEYS + writer * OWN_KEYS + (r >> 8 & (OWN_KEYS - 1))
        };
        match (r >> 1) % 3 {
            0 => match map.insert(key, i) {
                true => tally.inserts += 1,
                false => tally.replaces += 1,
            },
            1 => match map.insert_replacing(key, i) {
                None => tally.inserts += 1,
                Some(_) => tally.replaces += 1,
            },
            _ => tally.removes += u64::from(map.remove(&key)),
        }
    }
    tally
}

#[test]
fn len_and_stats_equal_what_the_calls_returned() {
    // The default policy never resizes on its own, so the toggling thread
    // makes every resize, and each of its calls makes exactly one.
    let map = RpHashMap::with_buckets_and_hasher(BUCKETS, FnvBuildHasher);
    let start = Barrier::new(WRITERS as usize + 1);
    let writing = AtomicBool::new(true);
    let (tallies, (expands, shrinks)) = thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (map, start) = (&map, &start);
                s.spawn(move || {
                    start.wait();
                    write(map, w)
                })
            })
            .collect();
        let resizer = s.spawn(|| {
            start.wait();
            let (mut expands, mut shrinks) = (0_u64, 0_u64);
            while writing.load(Ordering::Relaxed) || expands == 0 {
                map.expand();
                assert_eq!(map.num_buckets(), 2 * BUCKETS);
                map.shrink();
                assert_eq!(map.num_buckets(), BUCKETS);
                expands += 1;
                shrinks += 1;
            }
            (expands, shrinks)
        });
        let tallies: Vec<Tally> = writers.into_iter().map(|h| h.join().unwrap()).collect();
        writing.store(false, Ordering::Relaxed);
        (tallies, resizer.join().unwrap())
    });

    let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
    let (inserts, replaces, removes) =
        (sum(|t| t.inserts), sum(|t| t.replaces), sum(|t| t.removes));
    let stats = map.stats();
    println!(
        "{} writes: {inserts} inserts, {replaces} replaces, {removes} removes returned; \
         {expands} expands and {shrinks} shrinks made; stats {stats:?}, len {}",
        WRITERS * OPS,
        map.len()
    );
    assert_eq!(
        (stats.inserts, stats.replaces, stats.removes),
        (inserts, replaces, removes),
        "stats against the calls' returns"
    );
    assert_eq!(map.len() as u64, inserts - removes, "len against the calls");
    assert_eq!(map.to_vec().len(), map.len(), "len against the entries");
    assert_eq!((stats.expands, stats.shrinks), (expands, shrinks));
    map.check_invariants().unwrap();
}
