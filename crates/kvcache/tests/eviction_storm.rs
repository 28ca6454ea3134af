//! An eviction storm with the seam between a refill scan and its first pop
//! stretched: writers push a small cache far past its capacity while
//! readers keep a hot set hot, and `rp-fault` delays one refill in eight at
//! `kv.evict.refilled`, so queued candidates age — are touched, deleted,
//! expired, stored again — before they are popped. The relativistic engine
//! takes the storm from two EBR and two QSBR-online writers **at once**, with a
//! reader of each flavor beside them: a QSBR-online worker announces its
//! quiescent state only between batches, so every grace period an EBR
//! writer's SET waits for (a reclamation pass, an automatic resize) ends
//! only if nothing that worker needs in the middle of its batch — the
//! index's writer lock, the victim queue — is held across the wait.
//!
//! On trial: the storm finishes (the queue lock is
//! never held across a removal or a grace wait; with `RP_RCU_STALL_PANIC=1`
//! a stalled grace period is a panic, not a hang); the cache is within its
//! capacity once it is over; every removal was counted exactly once
//! (`sets − evictions − expirations − deletes == len`); and the hot set
//! survived, which an eviction of anything but the oldest would not allow.
//!
//! Every key is stored by one thread only, and stored again only after
//! that thread saw it missing, so every SET here is an insert and the
//! count is exact.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rp_kvcache::{CacheEngine, EngineReadCtx, Item, ReadSide, RpEngine};
use rp_rcu::stall::{spawn_watchdog, StallConfig};

const CAPACITY: usize = 1024;
const SETS_PER_WRITER: usize = 50_000;
const HOT_PER_READER: usize = 128;

/// What a reactor worker does between event batches.
fn batch_end(engine: &dyn CacheEngine, ctx: &mut EngineReadCtx) {
    ctx.quiescent();
    ctx.with_offline(|| engine.housekeeping());
}

fn present(engine: &dyn CacheEngine, key: &str, ctx: &mut EngineReadCtx) -> bool {
    engine.get_ref(key.as_bytes(), ctx).is_some()
}

/// Stores `SETS_PER_WRITER` keys no one else stores, one in sixteen
/// already past its deadline; every eighth step it goes back to a key of
/// its own that may sit in the victim queue by now and touches it, stores
/// it again if it is gone, or deletes it.
fn writer(engine: &dyn CacheEngine, id: usize, read_side: ReadSide) {
    let mut ctx = EngineReadCtx::new(read_side);
    for i in 0..SETS_PER_WRITER {
        let item = if i % 16 == 3 {
            Item::expired(0, "cold")
        } else {
            Item::new(0, "cold")
        };
        engine.set(&format!("w{id}:{i}"), item);
        if i % 8 == 7 {
            let back = [32, 128, 256][(i / 8) % 3];
            let key = format!("w{id}:{}", i.saturating_sub(back));
            if !present(engine, &key, &mut ctx) {
                engine.set(&key, Item::new(0, "again"));
            } else if i % 64 == 63 {
                // Counted only if an eviction did not get there first.
                engine.delete(&key);
            }
        }
        if i % 64 == 63 {
            batch_end(engine, &mut ctx);
        }
    }
}

fn hot_keys(reader: usize) -> Vec<String> {
    (0..HOT_PER_READER)
        .map(|i| format!("hot{reader}:{i}"))
        .collect()
}

/// Cache-aside over its own hot keys, pass after pass, until told to stop.
fn reader(engine: &dyn CacheEngine, id: usize, read_side: ReadSide, stop: &AtomicBool) {
    let mut ctx = EngineReadCtx::new(read_side);
    let keys = hot_keys(id);
    loop {
        let done = stop.load(Ordering::SeqCst);
        for key in &keys {
            if !present(engine, key, &mut ctx) {
                engine.set(key, Item::new(0, "hot"));
            }
        }
        batch_end(engine, &mut ctx);
        if done {
            break;
        }
    }
}

/// Writers 0 and 1 and reader 0 hold EBR guards; writers 2 and 3 and
/// reader 1 are QSBR-online between batch ends, as a server's workers are.
fn storm(engine: Arc<dyn CacheEngine>) {
    let name = engine.name();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = [ReadSide::Ebr, ReadSide::Qsbr]
        .into_iter()
        .enumerate()
        .map(|(id, read_side)| {
            let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
            std::thread::spawn(move || reader(&*engine, id, read_side, &stop))
        })
        .collect();
    let writers: Vec<_> = [ReadSide::Ebr, ReadSide::Ebr, ReadSide::Qsbr, ReadSide::Qsbr]
        .into_iter()
        .enumerate()
        .map(|(id, read_side)| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || writer(&*engine, id, read_side))
        })
        .collect();

    // A deadlock must fail the test, not hang it.
    let deadline = Instant::now() + Duration::from_secs(120);
    while !writers.iter().all(|writer| writer.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "{name}: the writers are stuck at {} items",
            engine.len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::SeqCst);
    for thread in writers.into_iter().chain(readers) {
        thread
            .join()
            .unwrap_or_else(|_| panic!("{name}: a storm thread panicked"));
    }

    let stats = engine.stats();
    let (sets, deletes) = (stats.sets.get(), stats.deletes.get());
    let (evictions, expirations) = (stats.evicted(), stats.expirations.get());
    let (scans, stale) = (stats.evict_scans.get(), stats.evict_stale.get());
    eprintln!(
        "{name}: {sets} sets, {evictions} evictions in {scans} scans ({stale} stale), \
         {expirations} expirations, {deletes} deletes, {} delayed refills",
        rp_fault::injected("kv.evict.refilled")
    );
    assert!(engine.len() <= CAPACITY, "{name}: {} items", engine.len());
    assert_eq!(
        sets - evictions - expirations - deletes,
        engine.len() as u64,
        "{name}: a removal was lost or counted twice"
    );
    assert!(sets >= 4 * SETS_PER_WRITER as u64 && deletes > 0 && expirations > 0);
    assert!(evictions > scans && stale > 0, "{name}");

    let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
    let resident = (0..2)
        .flat_map(hot_keys)
        .filter(|key| present(&*engine, key, &mut ctx))
        .count();
    assert!(
        resident * 100 >= 2 * HOT_PER_READER * 95,
        "{name}: {resident} of the hot keys left"
    );
}

#[test]
fn eviction_storm_with_delayed_refills() {
    let stalls_before = rp_obs::global().rcu.grace_stalls_total.get();
    let watchdog = spawn_watchdog(StallConfig::from_env());
    // The failpoint registry is process-global: one test, one storm at a time.
    let seed = std::env::var("RP_FAULT_SEED")
        .ok()
        .and_then(|seed| seed.parse().ok())
        .unwrap_or(0xE71C7);
    let _armed = rp_fault::ArmGuard::new("kv.evict.refilled=delay:1ms@0.125", seed);
    storm(Arc::new(RpEngine::with_capacity(CAPACITY)));
    assert!(rp_fault::injected("kv.evict.refilled") > 0);
    watchdog.stop().expect("no grace period stalled");
    assert_eq!(rp_obs::global().rcu.grace_stalls_total.get(), stalls_before);
}
