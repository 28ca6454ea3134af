//! Fault-injected resize chaos: panics between a resize's begin and its
//! finish — reached through `finish_resize` or from inside an inline
//! `expand()` — must leave the table consistent, readable, and writable.
//!
//! These tests arm the **process-global** `rp_fault` registry, so every
//! armed section runs under one serial mutex (the harness runs tests in
//! this binary on separate threads) and disarms before releasing it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use rp_hash::RpHashMap;

/// Serializes armed sections; `rp_fault`'s plan registry is process-global.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // A panicking armed test must not wedge the others.
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Installs a panic hook that stays quiet for injected-failpoint panics.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains("injected panic at failpoint"))
            .unwrap_or(false);
        if !expected {
            default(info);
        }
    }));
}

fn filled_map(keys: usize) -> RpHashMap<usize, usize> {
    let map = RpHashMap::with_buckets(4);
    for k in 0..keys {
        map.insert(k, k * 10);
    }
    map
}

fn assert_all_readable(map: &RpHashMap<usize, usize>, keys: usize) {
    let guard = map.pin();
    for k in 0..keys {
        assert_eq!(
            map.get(&k, &guard),
            Some(&(k * 10)),
            "key {k} lost while the resize was mid-flight"
        );
    }
}

#[test]
fn panic_at_a_step_boundary_leaves_the_resize_resumable() {
    let _serial = serial();
    quiet_injected_panics();
    const KEYS: usize = 256;
    let map = filled_map(KEYS);

    assert!(map.begin_expand(), "incremental expansion must start");
    {
        let _arm = rp_fault::ArmGuard::new("hash.resize.step=panic*1", 7);
        let unwound = catch_unwind(AssertUnwindSafe(|| map.finish_resize()));
        assert!(unwound.is_err(), "the armed failpoint must panic");
        assert_eq!(rp_fault::injected("hash.resize.step"), 1);
    }

    // The panic landed before any mutation: readers still see every key
    // and the next call finishes the resize.
    assert!(map.resize_in_progress());
    assert_all_readable(&map, KEYS);

    assert!(map.finish_resize(), "the resize stayed in flight");
    assert!(!map.resize_in_progress());
    map.check_invariants()
        .expect("table invariants must hold after a mid-resize panic");
    assert_all_readable(&map, KEYS);

    // Writers are unaffected too.
    assert!(map.insert(KEYS + 1, (KEYS + 1) * 10));
    assert_eq!(map.get_cloned(&(KEYS + 1)), Some((KEYS + 1) * 10));
}

#[test]
fn panic_inside_an_inline_expand_leaves_the_resize_resumable() {
    let _serial = serial();
    quiet_injected_panics();
    const KEYS: usize = 256;
    let map = filled_map(KEYS);

    {
        // `expand()` finishes its resize through `finish_resize` like any
        // other driver, so the panic lands after `begin` published the
        // doubled table and before the cut, under the writer lock.
        let _arm = rp_fault::ArmGuard::new("hash.resize.step=panic*1", 13);
        let unwound = catch_unwind(AssertUnwindSafe(|| map.expand()));
        assert!(unwound.is_err(), "the armed failpoint must panic");
        assert_eq!(rp_fault::injected("hash.resize.step"), 1);
    }
    assert!(map.resize_in_progress());
    assert_eq!(map.num_buckets(), 8);
    assert_all_readable(&map, KEYS);
    assert!(map.insert(KEYS, KEYS * 10), "writers are not wedged");

    // The next inline resize finishes the interrupted one, then does its
    // own: 4 -> 8 -> 16.
    map.expand();
    assert!(!map.resize_in_progress());
    assert_eq!(map.num_buckets(), 16);
    assert_eq!(map.stats().expands, 2);
    map.check_invariants()
        .expect("table invariants must hold after a panic inside expand()");
    assert_all_readable(&map, KEYS + 1);
}

#[test]
fn dropping_a_table_mid_resize_after_a_panic_is_clean() {
    let _serial = serial();
    quiet_injected_panics();
    let map = filled_map(64);
    assert!(map.begin_expand());
    {
        let _arm = rp_fault::ArmGuard::new("hash.resize.step=panic*1", 11);
        let unwound = catch_unwind(AssertUnwindSafe(|| map.finish_resize()));
        assert!(unwound.is_err());
    }
    // Drop with the resize still mid-flight: the chains are still
    // interleaved, and each node must be dropped once, from its home
    // bucket, neither twice nor never.
    drop(map);
}

#[test]
fn panic_while_holding_the_writer_lock_does_not_wedge_later_writers() {
    let _serial = serial();
    quiet_injected_panics();
    const KEYS: usize = 128;
    let map = filled_map(KEYS);

    {
        let _arm = rp_fault::ArmGuard::new("hash.resize.begin=panic*1", 3);
        // `begin_expand` panics *inside* the writer-lock critical section,
        // before any table mutation.
        let unwound = catch_unwind(AssertUnwindSafe(|| map.begin_expand()));
        assert!(unwound.is_err(), "the armed failpoint must panic");
        assert_eq!(rp_fault::injected("hash.resize.begin"), 1);
    }

    // Documented semantics: the writer lock **recovers**. The workspace's
    // `parking_lot` shim strips std poisoning (`into_inner`), so the next
    // writer acquires the lock normally instead of deadlocking or
    // propagating a poison error — safe here because the panic fired
    // before any mutation, and every locked section in `resize.rs` keeps
    // the table structurally consistent at unwind boundaries.
    assert!(
        map.insert(KEYS + 1, (KEYS + 1) * 10),
        "a writer after the lock-holding panic must make progress"
    );
    assert!(
        !map.resize_in_progress(),
        "the aborted begin published nothing"
    );
    map.expand();
    map.check_invariants()
        .expect("table invariants must hold after a poisoned-lock recovery");
    assert_all_readable(&map, KEYS);
    assert_eq!(map.get_cloned(&(KEYS + 1)), Some((KEYS + 1) * 10));
}
