//! End-to-end memcached-style demo: start the cache server, talk to it over
//! TCP with the bundled client, and print the engine's statistics — the
//! miniature version of the paper's memcached experiment.
//!
//! Run with: `cargo run --release --example kv_server`
//!
//! Environment:
//!
//! * `RP_KV_ENGINE` — `rp` (default; single relativistic table), `rp-shard`
//!   (sharded relativistic index), or `lock` (global-lock baseline).
//! * `RP_KV_PORT` — TCP port (default 0 = pick a free one).
//! * `RP_KV_STAY` — set to keep serving until the process is killed instead
//!   of exiting after the demo workload.
//!
//! For the full flag set (worker counts, read-side flavor, admission
//! limits, …) use the real daemon: `cargo run -p rp-kvcache --bin kvcached
//! -- --help`.

use std::sync::Arc;

use relativist::kvcache::client::CacheClient;
use relativist::kvcache::{
    CacheEngine, EventServer, LockEngine, RpEngine, ServerConfig, ShardedRpEngine,
};

fn main() -> std::io::Result<()> {
    let engine_name = std::env::var("RP_KV_ENGINE").unwrap_or_else(|_| "rp".to_string());
    let engine: Arc<dyn CacheEngine> = match engine_name.as_str() {
        // GETs are wait-free lookups in an RpHashMap, SETs go through the
        // single writer lock, the index resizes itself.
        "rp" => Arc::new(RpEngine::with_capacity(100_000)),
        // Same read side, but the index is sharded: SETs and resizes only
        // contend within one shard.
        "rp-shard" => Arc::new(ShardedRpEngine::with_shards_and_capacity(16, 100_000)),
        "lock" => Arc::new(LockEngine::with_capacity(100_000)),
        other => {
            eprintln!("unknown RP_KV_ENGINE {other:?} (expected rp | rp-shard | lock)");
            std::process::exit(2);
        }
    };
    let port = std::env::var("RP_KV_PORT")
        .ok()
        .and_then(|p| p.parse().ok())
        .unwrap_or(0_u16);
    let config = ServerConfig {
        port,
        ..ServerConfig::default()
    };
    let mut server = EventServer::start(Arc::clone(&engine), &config)?;
    println!(
        "cache server ({}) listening on {}",
        engine.name(),
        server.addr()
    );

    // A few clients hammer the server concurrently.
    let addr = server.addr();
    let mut workers = Vec::new();
    for worker in 0..4 {
        workers.push(std::thread::spawn(
            move || -> std::io::Result<(u64, u64)> {
                let mut client = CacheClient::connect(addr)?;
                let mut sets = 0_u64;
                let mut hits = 0_u64;
                for i in 0..2_000_u64 {
                    let key = format!("user:{worker}:{i}");
                    if client.set(&key, 0, 0, format!("profile-data-{i}").as_bytes())? {
                        sets += 1;
                    }
                    if client.get(&key)?.is_some() {
                        hits += 1;
                    }
                }
                Ok((sets, hits))
            },
        ));
    }

    let mut total_sets = 0;
    let mut total_hits = 0;
    for w in workers {
        let (sets, hits) = w.join().expect("worker thread")?;
        total_sets += sets;
        total_hits += hits;
    }
    println!("clients performed {total_sets} SETs and got {total_hits} GET hits over TCP");

    // Inspect the server-side statistics through the protocol.
    let mut client = CacheClient::connect(addr)?;
    println!("server version: {}", client.version()?);
    for (name, value) in client.stats()? {
        println!("  STAT {name} {value}");
    }
    println!("engine holds {} items", engine.len());

    if std::env::var("RP_KV_STAY").is_ok() {
        println!("RP_KV_STAY set: serving until killed");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }

    server.shutdown();
    Ok(())
}
