//! An overwrite returns the value it replaced, and a `remove_cloned` the
//! value it removed: of all the writers racing on one key, each value
//! written comes back exactly once, or is the value left stored.
//!
//! This holds only if the lookup, the clone and the unlink are one step
//! under the writer lock. A clone taken by a read-side lookup before the
//! lock is a snapshot another writer can overtake: two overwrites then
//! return the same previous value, and the value actually replaced is lost.
//! The race window is widest in an optimised build:
//! `cargo test --release -p rp-hash --test replace_once -- --nocapture`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;

use rp_hash::RpHashMap;

const KEY: u64 = 7;
/// Writes per writer thread.
const WRITES: u64 = 20_000;

/// The value writer `writer` stores on its `i`-th write; all distinct.
fn value(writer: u64, i: u64) -> u64 {
    writer * WRITES + i + 1
}

/// Asserts that every value `writers` threads wrote was returned exactly
/// once or is `stored`, and that nothing else was returned.
fn assert_accounted(name: &str, writers: u64, returned: &[u64], stored: Option<u64>) {
    let mut times: HashMap<u64, usize> = HashMap::new();
    for &v in returned.iter().chain(stored.as_ref()) {
        *times.entry(v).or_default() += 1;
    }
    let written = (0..writers).flat_map(|w| (0..WRITES).map(move |i| value(w, i)));
    let (mut missing, mut duplicated) = (0, 0);
    for v in written {
        match times.remove(&v) {
            None => missing += 1,
            Some(1) => {}
            Some(_) => duplicated += 1,
        }
    }
    let invented = times.len();
    println!(
        "{name}: {} values written, {} returned, stored {stored:?}: \
         {duplicated} returned twice or more, {missing} lost, {invented} never written",
        writers * WRITES,
        returned.len(),
    );
    assert_eq!((duplicated, missing, invented), (0, 0, 0), "{name}");
}

#[test]
fn concurrent_overwrites_each_return_a_different_previous_value() {
    const WRITERS: u64 = 4;
    let map: RpHashMap<u64, u64> = RpHashMap::new();
    let start = Barrier::new(WRITERS as usize);
    let results: Vec<Vec<Option<u64>>> = thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (map, start) = (&map, &start);
                s.spawn(move || {
                    start.wait();
                    (0..WRITES)
                        .map(|i| map.insert_replacing(KEY, value(w, i)))
                        .collect()
                })
            })
            .collect();
        writers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let fresh = results.iter().flatten().filter(|r| r.is_none()).count();
    let returned: Vec<u64> = results.into_iter().flatten().flatten().collect();
    assert_accounted("overwrites", WRITERS, &returned, map.get_cloned(&KEY));
    assert_eq!(fresh, 1, "only the first write finds the key absent");
}

#[test]
fn removes_racing_overwrites_account_for_every_value_once() {
    const WRITERS: u64 = 2;
    const REMOVERS: usize = 2;
    let map: RpHashMap<u64, u64> = RpHashMap::new();
    let start = Barrier::new(WRITERS as usize + REMOVERS);
    let writing = AtomicBool::new(true);
    let hits = AtomicUsize::new(0);
    let (overwrites, removes) = thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (map, start, hits) = (&map, &start, &hits);
                s.spawn(move || {
                    start.wait();
                    // A write after a remove finds the key absent and
                    // inserts it again. The last write waits for a remove
                    // to have hit, so the race runs on any schedule.
                    (0..WRITES)
                        .map(|i| {
                            while i + 1 == WRITES && hits.load(Ordering::Relaxed) == 0 {
                                thread::yield_now();
                            }
                            map.insert_replacing(KEY, value(w, i))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let removers: Vec<_> = (0..REMOVERS)
            .map(|_| {
                let (map, start, writing, hits) = (&map, &start, &writing, &hits);
                s.spawn(move || {
                    start.wait();
                    let mut removed = Vec::new();
                    while writing.load(Ordering::Relaxed) {
                        if let Some(value) = map.remove_cloned(&KEY) {
                            hits.fetch_add(1, Ordering::Relaxed);
                            removed.push(value);
                        }
                    }
                    removed
                })
            })
            .collect();
        let overwrites: Vec<Option<u64>> = writers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        writing.store(false, Ordering::Relaxed);
        let removes: Vec<u64> = removers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        (overwrites, removes)
    });
    let stored = map.get_cloned(&KEY);
    // Each write that found the key absent created it, each remove that
    // returned a value deleted it, and the key is there at the end or not.
    let fresh = overwrites.iter().filter(|r| r.is_none()).count();
    let hits = hits.into_inner();
    let returned: Vec<u64> = overwrites.into_iter().flatten().chain(removes).collect();
    assert_accounted("overwrites and removes", WRITERS, &returned, stored);
    assert_eq!(
        fresh,
        hits + usize::from(stored.is_some()),
        "inserts of an absent key against removes that hit"
    );
}
