//! From flag to socket: each server is built the way `kvcached` builds
//! one — `ServerOptions::parse`, `build_engine`, `EventServer::start` with
//! the parsed `server` — and each test checks one flag on the wire.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rp_kvcache::cli::ServerOptions;
use rp_kvcache::{EventServer, ReadSide};

/// Starts a server on a free port from `flags`, as `kvcached` would.
fn start(flags: &[&str]) -> EventServer {
    let args: Vec<String> = ["--port", "0"]
        .iter()
        .chain(flags)
        .map(|flag| flag.to_string())
        .collect();
    let opts = ServerOptions::parse(&args, &|_| None).expect("flags parse");
    EventServer::start(opts.build_engine(), &opts.server).expect("server starts")
}

/// Connects with a read timeout, so a broken server fails the test
/// instead of hanging it.
fn connect(server: &EventServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads until the server closes; a reset counts as a close.
fn read_to_close(stream: &mut TcpStream) -> Vec<u8> {
    let mut got = Vec::new();
    match stream.read_to_end(&mut got) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("reading until the server closes: {e}"),
    }
    got
}

#[test]
fn max_conns_sheds_the_second_connection_with_busy() {
    let mut server = start(&["--max-conns", "1", "--workers", "1"]);
    let mut first = connect(&server);
    first.write_all(b"version\r\n").unwrap();
    let mut reply = [0_u8; 8];
    first.read_exact(&mut reply).unwrap();
    assert_eq!(&reply, b"VERSION ", "the first connection is served");

    let mut second = connect(&server);
    assert_eq!(read_to_close(&mut second), b"SERVER_ERROR busy\r\n");
    assert_eq!(server.net_stats().refused, 1);
    server.shutdown();
}

#[test]
fn max_requests_per_conn_closes_after_that_many_replies() {
    let mut server = start(&["--max-requests-per-conn", "3"]);
    let mut client = connect(&server);
    client
        .write_all(b"set k 0 0 1\r\nv\r\nget k\r\nget k\r\nget k\r\nget k\r\n")
        .unwrap();
    assert_eq!(
        read_to_close(&mut client),
        b"STORED\r\nVALUE k 0 1\r\nv\r\nEND\r\nVALUE k 0 1\r\nv\r\nEND\r\n"
    );
    server.shutdown();
}

#[test]
fn idle_timeout_reaps_a_silent_connection() {
    let mut server = start(&["--idle-timeout-ms", "200"]);
    let started = Instant::now();
    let mut idle = connect(&server);
    assert_eq!(read_to_close(&mut idle), b"");
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(200),
        "reaped after {waited:?}"
    );
    assert_eq!(server.net_stats().idle_reaped, 1);
    server.shutdown();
}

#[test]
fn workers_and_read_side_reach_the_server() {
    let mut server = start(&["--workers", "3", "--read-side", "ebr"]);
    assert_eq!(server.worker_count(), 3);
    assert_eq!(server.read_side(), ReadSide::Ebr);
    server.shutdown();
}
