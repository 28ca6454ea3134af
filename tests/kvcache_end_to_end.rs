//! End-to-end tests of the memcached-style cache: many TCP clients against
//! both engines, expiry behaviour, and the paper's qualitative claim that
//! the relativistic engine's GET path does not serialise readers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use relativist::kvcache::client::CacheClient;
use relativist::kvcache::{
    CacheEngine, EngineReadCtx, EventServer, Item, LockEngine, ReadSide, RpEngine, ServerConfig,
};

/// An in-process lookup, the way `fig_memcached`'s clients issue them.
fn get(engine: &dyn CacheEngine, key: &str) -> Option<Item> {
    engine.get_ref(key.as_bytes(), &mut EngineReadCtx::new(ReadSide::Ebr))
}

fn exercise_over_tcp(engine: Arc<dyn CacheEngine>) {
    let name = engine.name();
    let mut server = EventServer::start(engine, &ServerConfig::default()).expect("bind server");
    let addr = server.addr();

    let clients = 6;
    let per_client_keys = 200;
    let hits = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let hits = Arc::clone(&hits);
            std::thread::spawn(move || {
                let mut client = CacheClient::connect(addr).expect("connect");
                for i in 0..per_client_keys {
                    let key = format!("c{c}-k{i}");
                    assert!(client
                        .set(&key, c, 0, format!("{c}:{i}").as_bytes())
                        .unwrap());
                }
                for i in 0..per_client_keys {
                    let key = format!("c{c}-k{i}");
                    let value = client.get(&key).unwrap().expect("own key present");
                    assert_eq!(value, format!("{c}:{i}").into_bytes());
                    hits.fetch_add(1, Ordering::Relaxed);
                }
                // Cross-client visibility: client 0's keys are visible to all.
                if c != 0 {
                    assert!(client.get("c0-k0").unwrap().is_some());
                }
                client.quit().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        hits.load(Ordering::Relaxed),
        (clients * per_client_keys) as u64,
        "every client must read back every key it wrote ({name})"
    );

    assert_eq!(server.engine().len(), (clients * per_client_keys) as usize);
    server.shutdown();
}

#[test]
fn tcp_end_to_end_with_lock_engine() {
    exercise_over_tcp(Arc::new(LockEngine::new()));
}

#[test]
fn tcp_end_to_end_with_rp_engine() {
    exercise_over_tcp(Arc::new(RpEngine::new()));
}

#[test]
fn expired_entries_disappear_from_both_engines() {
    let engines: Vec<Arc<dyn CacheEngine>> =
        vec![Arc::new(LockEngine::new()), Arc::new(RpEngine::new())];
    // Deadlines are whole seconds, rounded up: a 1 s TTL ends within 2 s.
    let mut last = Instant::now();
    for engine in &engines {
        let soon = Item::with_ttl(0, "transient", Duration::from_secs(1));
        last = last.max(soon.expires_at.unwrap().instant());
        engine.set("transient", soon);
        engine.set("durable", Item::new(0, "stays"));
        assert!(get(&**engine, "transient").is_some(), "{}", engine.name());
    }
    std::thread::sleep(last.saturating_duration_since(Instant::now()));
    for engine in engines {
        assert!(get(&*engine, "transient").is_none(), "{}", engine.name());
        assert!(get(&*engine, "durable").is_some(), "{}", engine.name());
        assert_eq!(engine.purge_expired(), 0, "lazy expiry already removed it");
    }
}

/// Both engines must produce the same hit/miss behaviour for the same
/// operation sequence (the engines differ only in synchronisation).
#[test]
fn engines_agree_on_cache_semantics() {
    let lock = LockEngine::new();
    let rp = RpEngine::new();
    for i in 0..500_u32 {
        let key = format!("k{}", i % 100);
        match i % 5 {
            0 | 1 => {
                lock.set(&key, Item::new(i, format!("v{i}")));
                rp.set(&key, Item::new(i, format!("v{i}")));
            }
            2 => {
                assert_eq!(
                    lock.delete(&key),
                    rp.delete(&key),
                    "delete({key}) diverged at step {i}"
                );
            }
            _ => {
                let a = get(&lock, &key).map(|item| (item.flags, item.data));
                let b = get(&rp, &key).map(|item| (item.flags, item.data));
                assert_eq!(a, b, "get({key}) diverged at step {i}");
            }
        }
    }
    assert_eq!(lock.len(), rp.len());
}

/// Qualitative scaling check behind the memcached figure: with several
/// threads issuing GETs, the relativistic engine must not be slower than the
/// global-lock engine (on most hosts it is substantially faster). This is a
/// coarse guard against regressions in the fast path, not a benchmark.
#[test]
fn rp_gets_are_not_slower_than_global_lock_gets() {
    fn get_throughput(engine: Arc<dyn CacheEngine>, threads: usize) -> f64 {
        for i in 0..1024_u32 {
            engine.set(&format!("key{i}"), Item::new(0, "value"));
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let ops = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let ops = Arc::clone(&ops);
                std::thread::spawn(move || {
                    let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
                    let mut k = t as u32;
                    let mut local = 0_u64;
                    while !stop.load(Ordering::Relaxed) {
                        k = (k.wrapping_mul(1103515245).wrapping_add(12345)) % 1024;
                        let _ = engine.get_ref(format!("key{k}").as_bytes(), &mut ctx);
                        local += 1;
                    }
                    ops.fetch_add(local, Ordering::Relaxed);
                })
            })
            .collect();
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
        ops.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
    }

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let threads = cpus.clamp(2, 8);
    let rp = get_throughput(Arc::new(RpEngine::new()), threads);
    let lock = get_throughput(Arc::new(LockEngine::new()), threads);
    eprintln!("GET throughput with {threads} threads: rp={rp:.0}/s, global-lock={lock:.0}/s");
    if cpus < 4 {
        // With fewer than a handful of cores there is no reader parallelism
        // for the global lock to destroy, so the comparison is not
        // meaningful; the throughput numbers above are still recorded.
        return;
    }
    assert!(
        rp > lock * 0.8,
        "relativistic GETs ({rp:.0}/s) should not be slower than global-lock GETs ({lock:.0}/s) \
         with {threads} threads"
    );
}
