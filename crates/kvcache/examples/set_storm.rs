//! The SET-storm probe: how long a SET waits while the index grows from
//! empty under a two-worker server.
//!
//! Starts an in-process server from `kvcached`'s own flags (`--port 0
//! --workers 2 --engine E`), then runs two client threads, each on its own
//! connection, that SET 262 144 new keys with 64-byte values, one round
//! trip at a time. Prints the SET count, the p50, p99, p99.9 and slowest
//! SET round trip, and the engine's item count at the end; then how many
//! SETs each worker served (which worker each connection landed on), the
//! resizes begun and finished, and the slowest automatic resize step
//! (`maint_slice_ns`):
//!
//! ```sh
//! cargo run --release -p rp-kvcache --example set_storm          # rp
//! cargo run --release -p rp-kvcache --example set_storm -- lock
//! ```
//!
//! Every SET of a run lands while the index is growing, so the tail shows
//! what a resize costs the requests that wait behind it. Run a side
//! several times: one run's maximum is a single request.

use std::sync::Arc;
use std::time::Instant;

use rp_kvcache::cli::ServerOptions;
use rp_kvcache::client::CacheClient;
use rp_kvcache::EventServer;

const CLIENTS: usize = 2;
const SETS_PER_CLIENT: usize = 262_144;
const VALUE_LEN: usize = 64;

fn main() {
    let engine_name = std::env::args().nth(1).unwrap_or_else(|| "rp".into());
    let flags = ["--port", "0", "--workers", "2", "--engine", &engine_name].map(String::from);
    let options = ServerOptions::parse(&flags, &|_| None).unwrap_or_else(|usage| panic!("{usage}"));
    let engine = options.build_engine();
    let mut server =
        EventServer::start(Arc::clone(&engine), &options.server).expect("server starts");
    let addr = server.addr();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let mut conn = CacheClient::connect(addr).expect("connect");
                let value = [b'v'; VALUE_LEN];
                let mut ns = Vec::with_capacity(SETS_PER_CLIENT);
                for i in 0..SETS_PER_CLIENT {
                    let key = format!("storm:{client}:{i:08}");
                    let start = Instant::now();
                    assert!(conn.set(&key, 0, 0, &value).expect("set"), "{key}");
                    ns.push(start.elapsed().as_nanos() as u64);
                }
                ns
            })
        })
        .collect();
    let mut ns: Vec<u64> = clients
        .into_iter()
        .flat_map(|client| client.join().expect("client thread"))
        .collect();
    server.shutdown();

    ns.sort_unstable();
    let us = |q: f64| ns[((ns.len() - 1) as f64 * q) as usize] as f64 / 1000.0;
    let obs = rp_obs::global();
    let served: Vec<u64> = (0..2)
        .map(|worker| obs.kv.shards.for_worker(worker).requests.get())
        .collect();
    println!(
        "{}: n={} p50={:.1}us p99={:.1}us p99.9={:.1}us max={:.1}us len={} \
         sets_per_worker={served:?} resizes_begun={} resizes_finished={} \
         slice_max={:.1}us",
        engine.name(),
        ns.len(),
        us(0.5),
        us(0.99),
        us(0.999),
        us(1.0),
        engine.len(),
        obs.resize.begun_total.get(),
        obs.resize.finished_total.get(),
        obs.maint.slice_ns.snapshot().max() as f64 / 1000.0,
    );
}
