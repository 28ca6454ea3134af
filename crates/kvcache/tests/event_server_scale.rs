//! The scaling claim behind the event loop: 1000 concurrent connections
//! served by a fixed worker pool, with the process thread count staying
//! flat (≤ workers + 2 threads for the whole server).
//!
//! This test lives in its own integration-test binary so the `/proc`
//! thread-count measurement is not disturbed by sibling tests' threads.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rp_kvcache::{EventServer, ServerConfig, ShardedRpEngine};

const CONNECTIONS: usize = 1000;
const WORKERS: usize = 2;

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
    let engine = Arc::new(ShardedRpEngine::with_shards_and_capacity(16, 1 << 20));
    let config = ServerConfig {
        drain_timeout: Duration::from_secs(10),
        ..ServerConfig::event_loop(WORKERS)
    };
    let mut server = EventServer::start(engine, &config).expect("start server");
    assert_eq!(server.worker_count(), WORKERS);

    // Baseline AFTER the server is up: its entire thread budget is already
    // spent (the engine's maintenance thread included).
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
