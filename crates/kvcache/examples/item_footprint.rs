//! What one cached item costs in resident memory, by value length.
//!
//! Stores 512 Ki items under 12-byte keys (`key:NNNNNNNN`, the benchmark's
//! wire keys) with values of the given length, the way a SET hands them
//! over, and prints the process's resident-set growth per item. Run one
//! value length per process, since freed memory is not given back:
//!
//! ```sh
//! cargo run --release -p rp-kvcache --example item_footprint -- 200
//! cargo run --release -p rp-kvcache --example item_footprint -- 64 lock
//! ```
//!
//! The second argument names the engine: `rp` (the server's default) or
//! `lock`.

use rp_kvcache::{CacheEngine, Item, LockEngine, RpEngine};

const ITEMS: u32 = 512 * 1024;

fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("a VmRSS line")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let value_len: usize = args
        .next()
        .and_then(|arg| arg.parse().ok())
        .expect("usage: item_footprint VALUE_LEN [rp|lock]");
    let engine_name = args.next().unwrap_or_else(|| "rp".into());

    let before = vm_rss_kb();
    let engine: Box<dyn CacheEngine> = match engine_name.as_str() {
        "rp" => Box::new(RpEngine::new()),
        "lock" => Box::new(LockEngine::new()),
        other => panic!("unknown engine {other:?}: rp or lock"),
    };
    let value = vec![b'v'; value_len];
    for id in 0..ITEMS {
        engine.set(&format!("key:{id:08}"), Item::new(0, value.clone()));
    }
    assert_eq!(engine.len(), ITEMS as usize);

    let grown = vm_rss_kb().saturating_sub(before);
    println!(
        "{engine_name}: {ITEMS} items of {value_len}-byte values: VmRSS +{:.1} MiB, {:.0} B per item",
        grown as f64 / 1024.0,
        grown as f64 * 1024.0 / f64::from(ITEMS),
    );
}
