//! `rpstat` — a vmstat-style live console for a running `kvcached`.
//!
//! Polls the server's `STATS JSON` endpoint at a fixed interval and prints
//! one line per sample with **per-second deltas** of the rate counters
//! (requests by opcode, evictions, grace-period waits, connection sheds
//! and reaps)
//! next to the point-in-time values (GET latency quantiles, cumulative
//! stall count). Counters the server keeps cumulative
//! become rates here, so "the cache got slow at 14:03" is visible as a
//! dip in `get/s` and a spike in `p99` on one line — no Prometheus stack
//! required.
//!
//! Flags:
//!
//! * `--addr HOST:PORT` — server to poll (default `127.0.0.1:11211`).
//! * `--interval-ms N` — sampling interval (default 1000).
//! * `--count N` — samples to print, 0 = forever (default 0).
//! * `--csv` — machine-readable output: one CSV header, one row per
//!   sample, rates scaled to per-second.
//! * `--no-reconnect` — exit on the first poll error instead of retrying
//!   through the bounded-backoff reconnect policy. By default a dropped
//!   server connection (restart, chaos run, transient reset) is retried a
//!   few times with seeded exponential backoff before rpstat gives up.
//! * `--smoke` — self-contained CI mode: starts an embedded event-loop
//!   server, drives pipelined GET traffic at it from a background thread,
//!   polls itself a few times (default `--count 5`, `--interval-ms 200`)
//!   and exits non-zero unless every sample parsed and traffic showed up.

#![deny(unsafe_op_in_unsafe_fn)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rp_kvcache::client::{CacheClient, RetryClient, RetryPolicy};
use rp_kvcache::{EventServer, RpEngine, ServerConfig};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let csv = take_flag(&mut args, "--csv");
    let smoke = take_flag(&mut args, "--smoke");
    let no_reconnect = take_flag(&mut args, "--no-reconnect");
    let interval_ms: u64 = take_value(&mut args, "--interval-ms")
        .map(|v| v.parse().expect("--interval-ms needs a number"))
        .unwrap_or(if smoke { 200 } else { 1000 })
        .max(10);
    let count: u64 = take_value(&mut args, "--count")
        .map(|v| v.parse().expect("--count needs a number"))
        .unwrap_or(if smoke { 5 } else { 0 });
    let addr: Option<SocketAddr> =
        take_value(&mut args, "--addr").map(|v| v.parse().expect("--addr needs HOST:PORT"));
    if !args.is_empty() {
        eprintln!("rpstat: unknown arguments: {args:?}");
        std::process::exit(2);
    }

    let policy = if no_reconnect {
        RetryPolicy::no_reconnect()
    } else {
        RetryPolicy::default()
    };
    let outcome = if smoke {
        run_smoke(interval_ms, count.max(1), csv, policy)
    } else {
        let addr = addr.unwrap_or_else(|| "127.0.0.1:11211".parse().unwrap());
        run(addr, interval_ms, count, csv, policy).map(|_| ())
    };
    if let Err(e) = outcome {
        eprintln!("rpstat: {e}");
        std::process::exit(1);
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

/// One polled sample: the counters rpstat tracks, straight out of
/// `STATS JSON`. Cumulative counters stay cumulative here; [`Row`] turns
/// consecutive samples into rates.
#[derive(Debug, Default, Clone, Copy)]
struct Sample {
    gets: u64,
    sets: u64,
    deletes: u64,
    evictions: u64,
    get_p50_ns: u64,
    get_p99_ns: u64,
    graces: u64,
    stalls: u64,
    trips: u64,
    sheds: u64,
    reaps: u64,
}

impl Sample {
    /// Extracts a sample from one `STATS JSON` line.
    fn parse(json: &str) -> Option<Sample> {
        Some(Sample {
            gets: field(json, "engine_get_hits_total")? + field(json, "engine_get_misses_total")?,
            sets: field(json, "engine_sets_total")?,
            deletes: field(json, "engine_deletes_total")?,
            evictions: field(json, "engine_evictions_total")?,
            get_p50_ns: summary_field(json, "kv_get_latency_ns", "p50")?,
            get_p99_ns: summary_field(json, "kv_get_latency_ns", "p99")?,
            graces: summary_field(json, "rcu_sync_ns", "count")?,
            stalls: field(json, "rcu_grace_stalls_total")?,
            trips: field(json, "net_watermark_trips_total")?,
            sheds: field(json, "net_conns_shed_total")?,
            reaps: field(json, "net_idle_reaped_total")?,
        })
    }
}

/// Finds `"name":<digits>` in single-line JSON. Metric names are globally
/// unique in the `STATS JSON` object, so no path walking is needed.
fn field(json: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)? + needle.len();
    parse_digits(&json[at..])
}

/// Finds `"q":<digits>` inside the summary object `"name":{...}`.
fn summary_field(json: &str, name: &str, q: &str) -> Option<u64> {
    let needle = format!("\"{name}\":{{");
    let at = json.find(&needle)? + needle.len();
    let object = &json[at..at + json[at..].find('}')?];
    field(object, q)
}

fn parse_digits(text: &str) -> Option<u64> {
    let end = text
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit())
        .map(|(i, _)| i)
        .unwrap_or(text.len());
    text[..end].parse().ok()
}

/// One output line: per-second rates between two samples plus the levels
/// of the newer one.
struct Row {
    elapsed_ms: u64,
    get_s: u64,
    set_s: u64,
    del_s: u64,
    evict_s: u64,
    grace_s: u64,
    trips_s: u64,
    sheds_s: u64,
    reaps_s: u64,
    now: Sample,
}

impl Row {
    fn between(prev: &Sample, now: &Sample, elapsed_ms: u64, interval_ms: u64) -> Row {
        let rate =
            |later: u64, earlier: u64| later.saturating_sub(earlier) * 1000 / interval_ms.max(1);
        Row {
            elapsed_ms,
            get_s: rate(now.gets, prev.gets),
            set_s: rate(now.sets, prev.sets),
            del_s: rate(now.deletes, prev.deletes),
            evict_s: rate(now.evictions, prev.evictions),
            grace_s: rate(now.graces, prev.graces),
            trips_s: rate(now.trips, prev.trips),
            sheds_s: rate(now.sheds, prev.sheds),
            reaps_s: rate(now.reaps, prev.reaps),
            now: *now,
        }
    }
}

const CSV_HEADER: &str =
    "elapsed_ms,get_s,set_s,del_s,evict_s,get_p50_ns,get_p99_ns,grace_s,stalls,trips_s,sheds_s,reaps_s";

fn print_header() {
    println!(
        "{:>8} {:>9} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8} {:>6} {:>7} {:>7} {:>7}",
        "ms",
        "get/s",
        "set/s",
        "del/s",
        "evict/s",
        "p50(ns)",
        "p99(ns)",
        "grace/s",
        "stalls",
        "trips/s",
        "shed/s",
        "reap/s"
    );
}

fn print_row(row: &Row, csv: bool) {
    if csv {
        println!(
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            row.elapsed_ms,
            row.get_s,
            row.set_s,
            row.del_s,
            row.evict_s,
            row.now.get_p50_ns,
            row.now.get_p99_ns,
            row.grace_s,
            row.now.stalls,
            row.trips_s,
            row.sheds_s,
            row.reaps_s,
        );
    } else {
        println!(
            "{:>8} {:>9} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8} {:>6} {:>7} {:>7} {:>7}",
            row.elapsed_ms,
            row.get_s,
            row.set_s,
            row.del_s,
            row.evict_s,
            row.now.get_p50_ns,
            row.now.get_p99_ns,
            row.grace_s,
            row.now.stalls,
            row.trips_s,
            row.sheds_s,
            row.reaps_s,
        );
    }
}

/// The polling loop: sample, diff, print, sleep. Returns the rows printed
/// so `--smoke` can assert on them.
///
/// Polling goes through a [`RetryClient`], so a dropped connection is
/// re-established under `policy` (bounded attempts with seeded backoff);
/// only an error that outlives the whole retry budget ends the loop.
fn run(
    addr: SocketAddr,
    interval_ms: u64,
    count: u64,
    csv: bool,
    policy: RetryPolicy,
) -> std::io::Result<Vec<Row>> {
    let mut client = RetryClient::new(addr, policy);
    let parse_err =
        |json: &str| std::io::Error::other(format!("unparsable STATS JSON reply: {json}"));
    let started = std::time::Instant::now();
    let first = client.stats_text("JSON")?;
    let mut prev = Sample::parse(&first).ok_or_else(|| parse_err(&first))?;

    if csv {
        println!("{CSV_HEADER}");
    } else {
        print_header();
    }
    let mut rows = Vec::new();
    let mut printed = 0_u64;
    while count == 0 || printed < count {
        std::thread::sleep(Duration::from_millis(interval_ms));
        let json = client.stats_text("JSON")?;
        let now = Sample::parse(&json).ok_or_else(|| parse_err(&json))?;
        let row = Row::between(
            &prev,
            &now,
            started.elapsed().as_millis() as u64,
            interval_ms,
        );
        print_row(&row, csv);
        rows.push(row);
        prev = now;
        printed += 1;
        if !csv && printed.is_multiple_of(20) {
            print_header();
        }
    }
    Ok(rows)
}

/// `--smoke`: an embedded server plus a pipelined GET loader, polled by
/// the ordinary loop. Fails unless every sample parsed and the loader's
/// traffic showed up as a nonzero GET rate.
fn run_smoke(interval_ms: u64, count: u64, csv: bool, policy: RetryPolicy) -> std::io::Result<()> {
    let engine = Arc::new(RpEngine::new());
    let mut server = EventServer::start(engine, &ServerConfig::event_loop(2))
        .map_err(|e| std::io::Error::other(format!("embedded server: {e}")))?;
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let loader = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("rpstat-loader".to_string())
            .spawn(move || pipelined_get_loader(addr, &stop))
            .expect("spawn loader")
    };

    let outcome = run(addr, interval_ms, count, csv, policy);
    stop.store(true, Ordering::SeqCst);
    let served = loader.join().expect("loader thread panicked")?;
    server.shutdown();

    let rows = outcome?;
    if rows.is_empty() {
        return Err(std::io::Error::other("no samples collected"));
    }
    if served == 0 || !rows.iter().any(|row| row.get_s > 0) {
        return Err(std::io::Error::other(format!(
            "loader served {served} GETs but no sample saw a nonzero GET rate"
        )));
    }
    eprintln!(
        "rpstat --smoke ok: {} samples, loader pipelined {served} GETs",
        rows.len()
    );
    Ok(())
}

/// Drives windows of pipelined GETs (32 requests per write, responses
/// drained in bulk) until told to stop. Returns the number of GETs served.
fn pipelined_get_loader(addr: SocketAddr, stop: &AtomicBool) -> std::io::Result<u64> {
    const WINDOW: usize = 32;
    let mut seed = CacheClient::connect(addr)?;
    if !seed.set("hot", 0, 0, b"value")? {
        return Err(std::io::Error::other("seed SET not stored"));
    }
    seed.quit()?;

    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let batch: Vec<u8> = b"get hot\r\n".repeat(WINDOW);
    let mut served = 0_u64;
    let mut line = String::new();
    while !stop.load(Ordering::SeqCst) {
        stream.write_all(&batch)?;
        let mut ends = 0;
        while ends < WINDOW {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("server closed mid-window"));
            }
            if line.trim_end() == "END" {
                ends += 1;
            }
        }
        served += WINDOW as u64;
    }
    stream.write_all(b"quit\r\n")?;
    Ok(served)
}
