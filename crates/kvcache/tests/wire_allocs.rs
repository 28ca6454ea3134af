//! Allocations per request **over the wire**: a steady-state GET served by
//! the event loop allocates nothing anywhere in the process — reactor
//! buffers, decoder, engine and reply path included — nor does a SET of a
//! short key and a value of up to 70 bytes (its index node, which holds
//! both, comes from the map's slab). A SET of a longer value
//! allocates that value's shared buffer only.
//!
//! The count is the process-wide total of the counting allocator, so this
//! test is alone in its binary (`engine_allocs.rs` counts per thread and
//! cannot tell what a reactor worker allocated).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use rp_kvcache::{CacheEngine, EventServer, Item, RpEngine, ServerConfig};
use rp_workload::alloc::{total_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Requests measured per command, after as many of warm-up (which lets
/// every buffer on both sides reach its steady capacity).
const OPS: u64 = 4000;

/// Allocations-per-GET ceiling. The expected value is exactly 0; the
/// epsilon only forgives a stray background allocation (the reclaim
/// thread waking inside the window) without letting a real per-request
/// allocation (1.0/op) anywhere near passing.
const GET_ALLOC_EPSILON: f64 = 0.005;

/// What the reclaim thread allocates while a SET window is open, per SET:
/// a pass per 256 replaced nodes, each a reader snapshot per flavor (the
/// deferred-free queue keeps its storage from pass to pass, see
/// `GraceSync::take_deferred`), 2/256 ≈ 0.008/op.
const RECLAIM_ALLOWANCE: f64 = 0.05;

/// Allocations per SET of a small value: none — the index node, which
/// holds the key and the value by value, comes from the shard map's slab.
const SMALL_SET_ALLOCS: f64 = 0.0;

/// Allocations per SET of a value too long to inline: its shared buffer.
/// A second per-SET allocation (2.0/op) is nowhere near passing.
const LARGE_SET_ALLOCS: f64 = 1.0;

/// The value length of the large SETs: past the 70 bytes held inline.
const LARGE_VALUE_LEN: usize = 200;

/// Sends `requests` round-robin, one at a time, reading each reply up to
/// `terminator`; returns the process-wide allocations per request over the
/// second `OPS` of `2 * OPS`.
fn allocs_per_request(
    stream: &mut TcpStream,
    requests: &[Vec<u8>],
    terminator: &[u8],
    reply: &mut Vec<u8>,
) -> f64 {
    let mut before = 0;
    for i in 0..2 * OPS {
        if i == OPS {
            before = total_allocations();
        }
        stream
            .write_all(&requests[i as usize % requests.len()])
            .expect("write request");
        reply.clear();
        let mut chunk = [0_u8; 4096];
        while !reply.ends_with(terminator) {
            let n = stream.read(&mut chunk).expect("read reply");
            assert!(n > 0, "server closed mid-reply");
            reply.extend_from_slice(&chunk[..n]);
        }
    }
    (total_allocations() - before) as f64 / OPS as f64
}

/// SETs of `memtier-0` … `memtier-63`, each with a value of `len` bytes.
fn sets_of(len: usize) -> Vec<Vec<u8>> {
    (0..64)
        .map(|k| {
            let mut set = format!("set memtier-{k} 0 0 {len}\r\n").into_bytes();
            set.resize(set.len() + len, b'u');
            set.extend_from_slice(b"\r\n");
            set
        })
        .collect()
}

#[test]
fn a_get_over_the_wire_allocates_nothing_and_a_set_its_shared_value_only() {
    let engine = Arc::new(RpEngine::with_capacity(16384));
    for k in 0..8192 {
        engine.set(&format!("memtier-{k}"), Item::new(0, format!("value-{k}")));
    }
    let mut server =
        EventServer::start(engine, &ServerConfig::event_loop(2)).expect("start cache server");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Everything the measured loops touch is built up front, so the client
    // side of the exchange allocates nothing either and the process-wide
    // delta is the serving path's alone.
    let gets: Vec<Vec<u8>> = (0..64)
        .map(|k| format!("get memtier-{k}\r\n").into_bytes())
        .collect();
    let small_sets = sets_of(13);
    let large_sets = sets_of(LARGE_VALUE_LEN);
    let mut reply = Vec::with_capacity(16 * 1024);

    let per_get = allocs_per_request(&mut stream, &gets, b"END\r\n", &mut reply);
    let per_small_set = allocs_per_request(&mut stream, &small_sets, b"STORED\r\n", &mut reply);
    let per_large_set = allocs_per_request(&mut stream, &large_sets, b"STORED\r\n", &mut reply);
    eprintln!(
        "wire allocs over {OPS} ops: GET {per_get:.4}/op, SET of 13 B {per_small_set:.4}/op, \
         SET of {LARGE_VALUE_LEN} B {per_large_set:.4}/op"
    );
    drop(stream);
    server.shutdown();

    assert!(
        per_get <= GET_ALLOC_EPSILON,
        "steady-state event-loop GETs must not allocate: {per_get:.4}/op over {OPS} \
         (gate {GET_ALLOC_EPSILON})"
    );
    assert!(
        per_small_set <= SMALL_SET_ALLOCS + RECLAIM_ALLOWANCE,
        "a steady-state SET of a short key and a 13-byte value allocates nothing: \
         {per_small_set:.4}/op over {OPS} (gate {})",
        SMALL_SET_ALLOCS + RECLAIM_ALLOWANCE
    );
    // The lower bound is the instrument itself: a large SET does allocate,
    // so a count under one would mean the counting allocator is not this
    // binary's.
    assert!(
        (LARGE_SET_ALLOCS..=LARGE_SET_ALLOCS + RECLAIM_ALLOWANCE).contains(&per_large_set),
        "a steady-state SET of a short key and a {LARGE_VALUE_LEN}-byte value allocates \
         that value's buffer only: {per_large_set:.4}/op over {OPS} (gate {LARGE_SET_ALLOCS}..={})",
        LARGE_SET_ALLOCS + RECLAIM_ALLOWANCE
    );
}
