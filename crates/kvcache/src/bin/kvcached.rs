//! `kvcached` — the relativist cache server as a standalone daemon.
//!
//! See `kvcached --help` (or [`rp_kvcache::cli`]) for every flag and its
//! `RP_KV_*` environment fallback. Two extra operational flags live here:
//!
//! * `--smoke` — instead of serving forever, drive a mixed workload
//!   (SET / GET / multi-GET / expiry / DELETE) through the bundled client,
//!   shut down gracefully, verify nothing was shed, print stats and exit
//!   non-zero on any failure. CI uses this as the end-to-end server test.
//! * `--smoke-ops N` — operations for the smoke workload (default 2000).

#![deny(unsafe_op_in_unsafe_fn)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rp_kvcache::cli::ServerOptions;
use rp_kvcache::client::CacheClient;
use rp_kvcache::EventServer;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = take_flag(&mut args, "--smoke");
    let smoke_ops: usize = take_value(&mut args, "--smoke-ops")
        .map(|v| v.parse().expect("--smoke-ops needs a number"))
        .unwrap_or(2000);

    let mut opts = match ServerOptions::parse(&args, &|name| std::env::var(name).ok()) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if smoke {
        // The smoke run must not collide with a real daemon's port.
        opts.port = 0;
    }
    rp_obs::set_enabled(opts.stats);

    let engine = opts.build_engine();
    let mut server = match EventServer::start(Arc::clone(&engine), &opts.server_config()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("kvcached: cannot start: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "kvcached ({} engine, {} worker(s)) listening on {}",
        engine.name(),
        opts.workers,
        server.addr()
    );

    if smoke {
        let addr = server.addr();
        if let Err(e) = smoke_workload(addr, smoke_ops) {
            eprintln!("kvcached --smoke FAILED: {e}");
            std::process::exit(1);
        }
        server.shutdown();
        let stats = engine.stats();
        println!(
            "smoke ok: {} ops; hits={} misses={} sets={} expirations={}",
            smoke_ops,
            stats.hits(),
            stats.misses(),
            stats.sets.get(),
            stats.expirations.get(),
        );
        return;
    }

    // Serve until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(idx) => {
            args.remove(idx);
            true
        }
        None => false,
    }
}

fn take_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let idx = args.iter().position(|a| a == name)?;
    args.remove(idx);
    if idx < args.len() {
        Some(args.remove(idx))
    } else {
        eprintln!("flag {name} requires a value");
        std::process::exit(2);
    }
}

/// The CI end-to-end check: mixed SET / GET / multi-GET / expiry / DELETE
/// traffic from several connections, then a clean drain.
fn smoke_workload(addr: std::net::SocketAddr, ops: usize) -> std::io::Result<()> {
    let err = |msg: String| std::io::Error::other(msg);

    let mut client = CacheClient::connect(addr)?;
    for i in 0..ops {
        let key = format!("smoke:{}", i % 257);
        let value = format!("value-{i}");
        if !client.set(&key, 0, 0, value.as_bytes())? {
            return Err(err(format!("SET {key} not stored")));
        }
        match client.get(&key)? {
            Some(got) if got == value.as_bytes() => {}
            other => return Err(err(format!("GET {key} returned {other:?}"))),
        }
    }

    // Multi-GET across present and missing keys.
    let hits = client.get_many(&["smoke:0", "definitely-missing", "smoke:1"])?;
    if hits.len() != 2 {
        return Err(err(format!("multi-GET expected 2 hits, got {hits:?}")));
    }

    // A key of memcached's maximum length: the relativistic engine holds
    // keys past 22 bytes behind a pointer instead of inline in the index
    // node.
    let long_key = "k".repeat(250);
    client.set(&long_key, 0, 0, b"long-keyed")?;
    if client.get(&long_key)?.as_deref() != Some(&b"long-keyed"[..]) {
        return Err(err("GET of a 250-byte key missed its SET".to_string()));
    }

    // Expiry: a 1-second TTL item disappears, within 2 s: deadlines are
    // whole seconds, rounded up.
    client.set("smoke:ttl", 0, 1, b"short-lived")?;
    if client.get("smoke:ttl")?.is_none() {
        return Err(err("TTL item vanished immediately".to_string()));
    }
    std::thread::sleep(Duration::from_secs(2));
    if client.get("smoke:ttl")?.is_some() {
        return Err(err("TTL item survived its expiry".to_string()));
    }

    if !client.delete("smoke:0")? {
        return Err(err("DELETE smoke:0 failed".to_string()));
    }

    // One pipelined burst in a single write (the client type above sends
    // one request at a time): 16 SETs, 16 GETs and one 16-key GET, answered
    // in order — the grouped decode-ahead path, whose prefetch hints the
    // relativistic engine acts on and the lock engine ignores.
    let (mut burst, mut expected) = (Vec::new(), Vec::new());
    let mut values = Vec::new();
    for i in 0..16 {
        burst.extend_from_slice(format!("set burst:{i} 0 0 2\r\n{i:02}\r\n").as_bytes());
        expected.extend_from_slice(b"STORED\r\n");
        values.push(format!("VALUE burst:{i} 0 2\r\n{i:02}\r\n"));
    }
    for (i, value) in values.iter().enumerate() {
        burst.extend_from_slice(format!("get burst:{i}\r\n").as_bytes());
        expected.extend_from_slice(format!("{value}END\r\n").as_bytes());
    }
    let keys: Vec<String> = (0..16).map(|i| format!("burst:{i}")).collect();
    burst.extend_from_slice(format!("get {}\r\n", keys.join(" ")).as_bytes());
    expected.extend_from_slice(format!("{}END\r\n", values.concat()).as_bytes());
    let mut pipeline = TcpStream::connect(addr)?;
    pipeline.write_all(&burst)?;
    let mut replies = vec![0; expected.len()];
    pipeline.read_exact(&mut replies)?;
    if replies != expected {
        return Err(err(format!(
            "pipelined burst answered {:?}",
            String::from_utf8_lossy(&replies)
        )));
    }

    // A second connection must see the same data.
    let mut other = CacheClient::connect(addr)?;
    if other.get("smoke:1")?.is_none() {
        return Err(err("second connection missed smoke:1".to_string()));
    }
    if !other.version()?.contains("relativist") {
        return Err(err("unexpected version string".to_string()));
    }

    // The live telemetry endpoint must answer with sane counters: every
    // request above went through the server, and none of them misparsed.
    let text = other.stats_text("")?;
    let requests = metric_value(&text, "kv_requests_total")
        .ok_or_else(|| err(format!("STATS missing kv_requests_total:\n{text}")))?;
    if requests == 0 {
        return Err(err("STATS reports zero requests served".to_string()));
    }
    let decode_errors = metric_value(&text, "kv_decode_errors_total")
        .ok_or_else(|| err(format!("STATS missing kv_decode_errors_total:\n{text}")))?;
    if decode_errors != 0 {
        return Err(err(format!("STATS reports {decode_errors} decode errors")));
    }
    for family in [
        "engine_get_hits_total",
        "net_connections",
        "maint_slices_total",
    ] {
        if !text.contains(family) {
            return Err(err(format!("STATS output missing {family}")));
        }
    }
    // The burst above was decoded as groups of 16 keyed requests.
    let group_keys = metric_value(&text, "kv_group_keys_max")
        .ok_or_else(|| err(format!("STATS missing kv_group_keys_max:\n{text}")))?;
    if group_keys < 16 {
        return Err(err(format!(
            "the pipelined burst's largest group held {group_keys} keys, expected 16"
        )));
    }
    println!(
        "smoke STATS ok: kv_requests_total={requests} kv_decode_errors_total=0 \
         kv_group_keys_max={group_keys}"
    );

    other.quit()?;
    client.quit()?;
    Ok(())
}

/// Pulls a plain `name value` sample line out of Prometheus exposition
/// text (skipping `# HELP` / `# TYPE` comments and `name{...}` series with
/// labels, such as histogram buckets).
fn metric_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}
