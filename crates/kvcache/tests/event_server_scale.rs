//! The scaling claim behind the event loop: 1000 concurrent connections
//! served by a fixed worker pool, with the process thread count staying
//! flat (≤ workers + 2 threads for the whole server) — and, with all of
//! them live, the admission wall holding: pipelined windows are still
//! served whole and a connection past the wall is told why it is refused.
//!
//! This test lives in its own integration-test binary so the `/proc`
//! thread-count measurement is not disturbed by sibling tests' threads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rp_kvcache::{EventServer, Item, RpEngine, ServerConfig};

const CONNECTIONS: usize = 1000;
const WORKERS: usize = 2;

/// Connections that drive pipelined GETs beside the thousand; together
/// they fill the admission wall exactly.
const DRIVERS: usize = 8;
/// Value size of the pipelined GETs: above the reply-coalescing threshold,
/// so every reply is a buffered segment of its own.
const VALUE_LEN: usize = 4096;
/// GETs per pipelined window.
const DEPTH: usize = 16;

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn a_thousand_connections_on_a_fixed_worker_pool() {
    let engine = Arc::new(RpEngine::with_capacity(1 << 20));
    let config = ServerConfig {
        drain_timeout: Duration::from_secs(10),
        max_connections: CONNECTIONS + DRIVERS,
        ..ServerConfig::event_loop(WORKERS)
    };
    let mut server = EventServer::start(engine, &config).expect("start server");
    assert_eq!(server.worker_count(), WORKERS);

    // Baseline AFTER the server is up: its entire thread budget is already
    // spent.
    let threads_before = process_threads();

    let mut clients: Vec<BufReader<TcpStream>> = Vec::with_capacity(CONNECTIONS);
    for i in 0..CONNECTIONS {
        let mut stream = TcpStream::connect(server.addr())
            .unwrap_or_else(|e| panic!("connect #{i} failed: {e}"));
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // Every connection stores its own key immediately, so all 1000 are
        // live protocol sessions, not just idle sockets.
        let payload = format!("n{i}");
        stream
            .write_all(format!("set conn:{i} 0 0 {}\r\n{payload}\r\n", payload.len()).as_bytes())
            .unwrap();
        clients.push(BufReader::new(stream));
    }

    // All sockets open and written: the server must not have grown a thread
    // per connection. Allow a little slack for runtime/test helper threads.
    let threads_during = process_threads();
    assert!(
        threads_during <= threads_before + 2,
        "thread count grew with connections: {threads_before} -> {threads_during} \
         for {CONNECTIONS} connections (event loop must stay at {WORKERS} workers)"
    );

    // Every connection gets its answer...
    for (i, client) in clients.iter_mut().enumerate() {
        let mut line = String::new();
        client.read_line(&mut line).unwrap();
        assert_eq!(line, "STORED\r\n", "connection {i}");
    }
    // ...and can read back through any other connection's shard.
    for step in [0_usize, 1, 499, 999] {
        let stream = clients[step].get_mut();
        stream
            .write_all(format!("get conn:{step}\r\n").as_bytes())
            .unwrap();
        let mut line = String::new();
        clients[step].read_line(&mut line).unwrap();
        assert!(
            line.starts_with(&format!("VALUE conn:{step} 0 ")),
            "{line:?}"
        );
        let mut rest = String::new();
        clients[step].read_line(&mut rest).unwrap(); // payload
        rest.clear();
        clients[step].read_line(&mut rest).unwrap(); // END
        assert_eq!(rest, "END\r\n");
    }

    assert_eq!(server.engine().len(), CONNECTIONS);

    // Admission control with the thousand sockets live (`rp-net` tests the
    // wall and the byte ledger against an echo service; this is the cache
    // server's half): the drivers fill the wall and keep it under traffic.
    server
        .engine()
        .set("big", Item::new(0, vec![0x42_u8; VALUE_LEN]));
    let window = b"get big\r\n".repeat(DEPTH);
    let header = format!("VALUE big 0 {VALUE_LEN}\r\n");
    let reply_len = header.len() + VALUE_LEN + b"\r\nEND\r\n".len();
    let mut replies = vec![0_u8; DEPTH * reply_len];
    let mut drivers: Vec<TcpStream> = (0..DRIVERS)
        .map(|_| TcpStream::connect(server.addr()).expect("driver connects under the wall"))
        .collect();
    for _round in 0..32 {
        for driver in &mut drivers {
            driver.write_all(&window).unwrap();
        }
        for driver in &mut drivers {
            driver.read_exact(&mut replies).unwrap();
            assert!(replies.ends_with(b"\r\nEND\r\n"));
        }
    }
    // The wall is full: the next connection hears why it is turned away
    // (it sends nothing first, so its bytes cannot race the server's close
    // into an ECONNRESET).
    assert_eq!(
        server.net_stats().current_connections,
        CONNECTIONS + DRIVERS
    );
    let mut shed = Vec::new();
    TcpStream::connect(server.addr())
        .unwrap()
        .read_to_end(&mut shed)
        .unwrap();
    assert_eq!(shed, b"SERVER_ERROR busy\r\n");
    assert!(server.net_stats().refused >= 1);
    drop(drivers);

    // Half the clients stay connected through shutdown; their pending
    // requests (sent but unread) must still be answered.
    let mut parting: Vec<BufReader<TcpStream>> = clients.drain(..500).collect();
    for (i, client) in parting.iter_mut().enumerate() {
        client
            .get_mut()
            .write_all(format!("get conn:{i}\r\n").as_bytes())
            .unwrap();
    }
    server.shutdown();
    for (i, client) in parting.iter_mut().enumerate() {
        let mut line = String::new();
        client.read_line(&mut line).unwrap();
        assert!(
            line.starts_with(&format!("VALUE conn:{i} 0 ")),
            "request shed on shutdown for connection {i}: {line:?}"
        );
    }
}
