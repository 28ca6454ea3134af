//! End-to-end tests for the server: the same protocol session on every
//! engine and read side, pipelining, incremental framing, graceful
//! shutdown that sheds no requests, and `stats` counts that are exact
//! across connections.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rp_kvcache::client::CacheClient;
use rp_kvcache::protocol::RequestRef;
use rp_kvcache::server::{execute_ref, SERVER_VERSION};
use rp_kvcache::{
    CacheEngine, EngineReadCtx, EventServer, Item, LockEngine, ReadSide, RpEngine, ServerConfig,
};

/// One whole session: miss, set, hit, multi-get, delete, double delete,
/// version, stats, quit.
fn full_session(server: &EventServer) {
    let mut client = CacheClient::connect(server.addr()).expect("connect");
    assert!(client.get("missing").unwrap().is_none());
    assert!(client.set("key", 5, 0, b"payload").unwrap());
    assert_eq!(client.get("key").unwrap().as_deref(), Some(&b"payload"[..]));
    let hits = client.get_many(&["key", "nope", "key"]).unwrap();
    assert_eq!(hits.len(), 2);
    assert!(hits.iter().all(|(k, v)| k == "key" && v == b"payload"));
    assert!(client.delete("key").unwrap());
    assert!(!client.delete("key").unwrap());
    assert!(client.version().unwrap().contains("relativist"));
    let stats = client.stats().unwrap();
    assert!(stats.iter().any(|(k, _)| k == "get_hits"));
    client.quit().unwrap();
}

/// A wire stream of mixed pipelined requests beside the reply bytes it must
/// draw — long enough to span several decoded groups, with a key set and
/// read back inside one group, a malformed line, keys either side of the
/// inline boundary, and a `quit` with requests behind it. It assumes none
/// of its keys is stored and deletes every key it stores, so it can be
/// replayed against the same server.
struct Script {
    wire: Vec<u8>,
    replies: Vec<u8>,
    requests: usize,
}

impl Script {
    fn push(&mut self, request: &str, reply: &str) {
        self.wire.extend_from_slice(request.as_bytes());
        self.replies.extend_from_slice(reply.as_bytes());
        self.requests += 1;
    }

    fn grouped() -> (Script, Vec<u8>) {
        let mut s = Script {
            wire: Vec::new(),
            replies: Vec::new(),
            requests: 0,
        };
        // Had the tail behind an earlier replay's `quit` run, `z` would hit.
        s.push("get z\r\n", "END\r\n");
        s.push("set a 1 0 2\r\nAA\r\n", "STORED\r\n");
        s.push("get a\r\n", "VALUE a 1 2\r\nAA\r\nEND\r\n");
        s.push("get b\r\n", "END\r\n");
        s.push("set b 0 0 1\r\nB\r\n", "STORED\r\n");
        s.push("get b\r\n", "VALUE b 0 1\r\nB\r\nEND\r\n");
        s.push("delete b\r\n", "DELETED\r\n");
        s.push("get b\r\n", "END\r\n");
        s.push("delete b\r\n", "NOT_FOUND\r\n");
        for i in 0..20 {
            s.push(&format!("set m{i} {i} 0 3\r\nv{i:02}\r\n"), "STORED\r\n");
        }
        let all: Vec<String> = (0..20).map(|i| format!("m{i}")).collect();
        let values: String = (0..20)
            .map(|i| format!("VALUE m{i} {i} 3\r\nv{i:02}\r\n"))
            .collect();
        s.push(
            &format!("get {}\r\n", all.join(" ")),
            &format!("{values}END\r\n"),
        );
        s.push("bogus nonsense\r\n", "CLIENT_ERROR unknown command\r\n");
        s.push(
            "get m19 nope m0\r\n",
            "VALUE m19 19 3\r\nv19\r\nVALUE m0 0 3\r\nv00\r\nEND\r\n",
        );
        for key in ["k".repeat(23), "K".repeat(250)] {
            s.push(&format!("set {key} 7 0 4\r\nlong\r\n"), "STORED\r\n");
            s.push(
                &format!("get {key}\r\n"),
                &format!("VALUE {key} 7 4\r\nlong\r\nEND\r\n"),
            );
            s.push(&format!("delete {key}\r\n"), "DELETED\r\n");
            s.push(&format!("get {key}\r\n"), "END\r\n");
        }
        s.push("set a 2 0 3 noreply\r\nAAA\r\n", "");
        s.push("get a\r\n", "VALUE a 2 3\r\nAAA\r\nEND\r\n");
        s.push("delete m7 noreply\r\n", "");
        s.push("delete m7\r\n", "NOT_FOUND\r\n");
        for i in (0..20).filter(|&i| i != 7) {
            s.push(&format!("delete m{i}\r\n"), "DELETED\r\n");
        }
        s.push("delete a\r\n", "DELETED\r\n");
        assert!(s.requests >= 40);
        // The tail: `quit`, and requests behind it that must not run.
        let tail = b"quit\r\nset z 0 0 1\r\nZ\r\nget z\r\n".to_vec();
        (s, tail)
    }

    /// Plays the script to `server` in writes of `chunk` bytes (the tail in
    /// one write of its own: what follows a `quit` has to be in hand when
    /// the `quit` is decoded to show that it does not run) and returns
    /// every byte the server sent before it closed.
    fn play(&self, tail: &[u8], server: &EventServer, chunk: usize) -> Vec<u8> {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_nodelay(true).unwrap();
        for piece in self.wire.chunks(chunk) {
            stream.write_all(piece).unwrap();
        }
        stream.write_all(tail).unwrap();
        let mut got = Vec::new();
        stream.read_to_end(&mut got).unwrap();
        got
    }
}

#[test]
fn every_engine_and_read_side_serves_the_same_session() {
    // The full matrix: every engine with each read-side flavor. Engines
    // without a QSBR read path (LockEngine) fall back to their ordinary
    // lookups, so the protocol-visible behaviour must be identical
    // everywhere.
    let engines: Vec<Arc<dyn CacheEngine>> =
        vec![Arc::new(LockEngine::new()), Arc::new(RpEngine::new())];
    for engine in engines {
        for config in [
            ServerConfig::event_loop(2).with_read_side(ReadSide::Ebr),
            ServerConfig::event_loop(2).with_read_side(ReadSide::Qsbr),
        ] {
            let mut server = EventServer::start(Arc::clone(&engine), &config).expect("start");
            full_session(&server);
            // The same replies, byte for byte, however the stream is cut
            // into reads — and so however its requests fall into groups.
            let (script, tail) = Script::grouped();
            for chunk in [script.wire.len(), 7, 1] {
                let got = script.play(&tail, &server, chunk);
                assert!(
                    got == script.replies,
                    "{} via {:?}, {chunk}-byte writes:\n{}",
                    engine.name(),
                    config.read_side,
                    String::from_utf8_lossy(&got)
                );
            }
            server.shutdown();
        }
    }
}

#[test]
fn explicit_read_side_flavors_serve_expiry_and_batches() {
    // The expiry slow path (a write from the serving worker) and the
    // multi-GET batch path, explicitly under each flavor, for both engines.
    let engines: [fn() -> Arc<dyn CacheEngine>; 2] =
        [|| Arc::new(RpEngine::new()), || Arc::new(LockEngine::new())];
    for make_engine in engines {
        for read_side in [ReadSide::Ebr, ReadSide::Qsbr] {
            let config = ServerConfig::event_loop(2).with_read_side(read_side);
            let mut server = EventServer::start(make_engine(), &config).expect("start");
            let mut client = CacheClient::connect(server.addr()).unwrap();
            assert!(client.set("ttl", 0, 1, b"fleeting").unwrap());
            for i in 0..32 {
                assert!(client.set(&format!("b{i}"), 0, 0, b"v").unwrap());
            }
            let hits = client.get_many(&["b0", "b31", "missing", "b7"]).unwrap();
            assert_eq!(hits.len(), 3, "{read_side:?}");
            // Deadlines are whole seconds, rounded up: gone within 2 s.
            std::thread::sleep(Duration::from_secs(2));
            assert!(
                client.get("ttl").unwrap().is_none(),
                "{read_side:?}: item must expire through the worker's slow path"
            );
            client.quit().unwrap();
            server.shutdown();
        }
    }
}

#[test]
fn stats_worker_serves_one_shard_over_the_wire() {
    let mut server =
        EventServer::start(Arc::new(RpEngine::new()), &ServerConfig::event_loop(2)).unwrap();
    let mut client = CacheClient::connect(server.addr()).unwrap();
    assert!(client.set("k", 0, 0, b"v").unwrap());
    assert!(client.get("k").unwrap().is_some());

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"STATS WORKER 0\r\nquit\r\n").unwrap();
    let mut got = Vec::new();
    BufReader::new(stream).read_to_end(&mut got).unwrap();
    let text = String::from_utf8(got).unwrap();
    assert!(text.contains("kv_worker 0\n"), "{text}");
    assert!(text.contains("kv_worker_requests_total"), "{text}");
    assert!(text.contains("net_worker_batch_size_count"), "{text}");
    assert!(text.ends_with("END\r\n"), "{text}");
    // The per-worker view must stay distinct from the merged scrape: no
    // aggregated families leak in.
    assert!(!text.contains("kv_requests_total"), "{text}");

    // A malformed ordinal is rejected like any other unknown command.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"STATS WORKER nope\r\nquit\r\n").unwrap();
    let mut got = Vec::new();
    BufReader::new(stream).read_to_end(&mut got).unwrap();
    assert!(String::from_utf8(got).unwrap().starts_with("CLIENT_ERROR"));
    server.shutdown();
}

#[test]
fn stats_telemetry_views_serve_over_the_wire() {
    // STATS TRACE <n>, STATS SLOW and STATS JSON round-trip end to end:
    // headers document the rings, frames close with END, and the JSON view
    // is one parsable object carrying the engine and registry sections.
    let mut server =
        EventServer::start(Arc::new(RpEngine::new()), &ServerConfig::event_loop(2)).unwrap();
    let mut client = CacheClient::connect(server.addr()).unwrap();
    assert!(client.set("k", 0, 0, b"v").unwrap());
    for _ in 0..40 {
        assert!(client.get("k").unwrap().is_some());
    }

    let trace = client.stats_text("TRACE 3").unwrap();
    let mut lines = trace.lines();
    let header = lines.next().unwrap();
    assert!(
        header.starts_with("TRACE-RING capacity=") && header.contains(" recorded="),
        "{header}"
    );
    assert!(
        lines.filter(|l| l.starts_with("TRACE ")).count() <= 3,
        "{trace}"
    );

    let slow = client.stats_text("SLOW").unwrap();
    assert!(
        slow.lines()
            .next()
            .unwrap()
            .starts_with("SLOW-LOG capacity="),
        "{slow}"
    );

    let json = client.stats_text("JSON").unwrap();
    let line = json.lines().next().unwrap();
    assert!(line.starts_with("{\"engine\":{\"engine_items\":"), "{json}");
    assert!(line.ends_with("}}"), "{json}");
    for section in [
        "\"kv\":",
        "\"net\":",
        "\"maint\":",
        "\"resize\":",
        "\"rcu\":",
    ] {
        assert!(line.contains(section), "missing {section} in {json}");
    }
    assert!(line.contains("\"rcu_grace_stalls_total\":"), "{json}");
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn pipelined_requests_get_ordered_responses() {
    let mut server =
        EventServer::start(Arc::new(RpEngine::new()), &ServerConfig::event_loop(1)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // Many commands in a single write; responses must come back complete
    // and in order.
    let mut batch = Vec::new();
    for i in 0..50 {
        batch.extend_from_slice(format!("set k{i} 0 0 4\r\nv{i:03}\r\n").as_bytes());
    }
    for i in 0..50 {
        batch.extend_from_slice(format!("get k{i}\r\n").as_bytes());
    }
    stream.write_all(&batch).unwrap();

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for _ in 0..50 {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "STORED\r\n");
    }
    for i in 0..50 {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, format!("VALUE k{i} 0 4\r\n"));
        let mut value = [0_u8; 6];
        reader.read_exact(&mut value).unwrap();
        assert_eq!(&value, format!("v{i:03}\r\n").as_bytes());
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "END\r\n");
    }
    server.shutdown();
}

#[test]
fn frames_arriving_one_byte_at_a_time_are_served() {
    let mut server =
        EventServer::start(Arc::new(RpEngine::new()), &ServerConfig::event_loop(2)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    for &b in b"set trickle 0 0 5\r\ndrip!\r\n" {
        stream.write_all(&[b]).unwrap();
        stream.flush().unwrap();
    }
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "STORED\r\n");

    for &b in b"get trickle\r\n" {
        stream.write_all(&[b]).unwrap();
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "VALUE trickle 0 5\r\n");
    server.shutdown();
}

#[test]
fn malformed_lines_get_client_error_and_the_stream_recovers() {
    let mut server =
        EventServer::start(Arc::new(RpEngine::new()), &ServerConfig::event_loop(1)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"bogus nonsense\r\nversion\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("CLIENT_ERROR"), "got {line:?}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("VERSION"), "got {line:?}");
    server.shutdown();
}

#[test]
fn expiry_works_through_the_event_loop() {
    let mut server =
        EventServer::start(Arc::new(RpEngine::new()), &ServerConfig::event_loop(2)).unwrap();
    let mut client = CacheClient::connect(server.addr()).unwrap();
    assert!(client.set("ttl", 0, 1, b"fleeting").unwrap());
    assert!(client.get("ttl").unwrap().is_some());
    // Deadlines are whole seconds, rounded up: gone within 2 s.
    std::thread::sleep(Duration::from_secs(2));
    assert!(client.get("ttl").unwrap().is_none(), "item must expire");
    server.shutdown();
}

#[test]
fn binary_values_survive_the_event_loop() {
    let mut server =
        EventServer::start(Arc::new(RpEngine::new()), &ServerConfig::event_loop(2)).unwrap();
    let mut client = CacheClient::connect(server.addr()).unwrap();
    let payload: Vec<u8> = (0_u32..100_000).map(|b| (b % 251) as u8).collect();
    assert!(client.set("big-binary", 0, 0, &payload).unwrap());
    assert_eq!(client.get("big-binary").unwrap().unwrap(), payload);
    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_every_received_request() {
    let mut server =
        EventServer::start(Arc::new(RpEngine::new()), &ServerConfig::event_loop(2)).unwrap();
    {
        let mut seed = CacheClient::connect(server.addr()).unwrap();
        assert!(seed.set("drain-key", 0, 0, b"present").unwrap());
    }

    // 32 clients send a GET each; none reads its response before the
    // server is told to shut down. Every response must still arrive.
    let mut clients: Vec<TcpStream> = (0..32)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    for c in &mut clients {
        c.write_all(b"get drain-key\r\n").unwrap();
    }
    server.shutdown();

    for (i, c) in clients.into_iter().enumerate() {
        let mut got = Vec::new();
        let mut reader = BufReader::new(c);
        reader.read_to_end(&mut got).unwrap();
        let text = String::from_utf8_lossy(&got);
        assert!(
            text.contains("VALUE drain-key 0 7\r\npresent\r\nEND\r\n"),
            "client {i} was shed: {text:?}"
        );
    }
}

#[test]
fn idle_connections_are_reaped_while_live_ones_are_served() {
    let config = ServerConfig {
        // Generous timeout-to-ping ratio (16:1) so a scheduler stall on a
        // loaded CI runner cannot reap the live connection and flake the
        // test.
        idle_timeout: Some(Duration::from_millis(800)),
        ..ServerConfig::event_loop(2)
    };
    let mut server = EventServer::start(Arc::new(RpEngine::new()), &config).unwrap();

    let mut idle = TcpStream::connect(server.addr()).unwrap();
    let mut live = CacheClient::connect(server.addr()).unwrap();
    assert!(live.set("k", 0, 0, b"v").unwrap());

    // The live client keeps issuing GETs well past the idle timeout; the
    // idle connection never sends a byte.
    for _ in 0..30 {
        assert!(live.get("k").unwrap().is_some());
        std::thread::sleep(Duration::from_millis(50));
    }

    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut got = Vec::new();
    match idle.read_to_end(&mut got) {
        Ok(_) => assert!(got.is_empty(), "idle connection received data: {got:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    assert!(live.get("k").unwrap().is_some(), "live connection survives");
    server.shutdown();
}

#[test]
fn request_budget_answers_exactly_n_then_closes() {
    // Five pipelined requests against a budget of three; then 32 against
    // 20, which falls inside the second decoded group. The budget's worth
    // is answered, already answered requests still flush, then the server
    // closes.
    for (budget, pipelined) in [(3, 5), (20, 32)] {
        let config = ServerConfig {
            max_requests_per_conn: Some(budget),
            ..ServerConfig::event_loop(1)
        };
        let mut server = EventServer::start(Arc::new(RpEngine::new()), &config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(&b"get nothing\r\n".repeat(pipelined))
            .unwrap();
        let mut got = Vec::new();
        let mut reader = BufReader::new(stream);
        reader.read_to_end(&mut got).unwrap();
        let text = String::from_utf8(got).unwrap();
        assert_eq!(
            text.matches("END").count() as u64,
            budget,
            "exactly the budget is served: {text:?}"
        );
        // A fresh connection gets a fresh budget.
        let mut fresh = CacheClient::connect(server.addr()).unwrap();
        assert!(fresh.version().unwrap().contains("relativist"));
        server.shutdown();
    }
}

#[test]
fn shutdown_is_idempotent_and_drop_is_safe() {
    let engine: Arc<dyn CacheEngine> = Arc::new(RpEngine::new());
    let mut server = EventServer::start(Arc::clone(&engine), &ServerConfig::event_loop(2)).unwrap();
    full_session(&server);
    server.shutdown();
    server.shutdown();
    drop(server);
    // A fresh server on the same engine still works.
    let mut server = EventServer::start(engine, &ServerConfig::event_loop(1)).unwrap();
    full_session(&server);
    server.shutdown();
}

/// `(get_hits, get_misses)` from a classic `stats` reply.
fn get_counts(client: &mut CacheClient) -> (u64, u64) {
    let stats = client.stats().unwrap();
    let stat = |name: &str| -> u64 {
        let (_, value) = stats
            .iter()
            .find(|(stat, _)| stat == name)
            .unwrap_or_else(|| panic!("no {name} in {stats:?}"));
        value.parse().unwrap()
    };
    (stat("get_hits"), stat("get_misses"))
}

#[test]
fn stats_counts_every_get_a_client_has_read_on_any_connection() {
    // A worker counts its GETs privately and folds them into the engine's
    // counters once per batch, before the batch's replies are flushed. So a
    // client that has read a GET's reply sees it in the next `stats` —
    // whichever connection, and so whichever of the two workers, serves it.
    // Sixteen connections, and a GET on each with `stats` on each other one
    // in turn. A worker busy serving gets no accepts (the listener wakes an
    // idle one), so the connections are made while a seventeenth keeps one
    // worker or the other busy with `version` bursts — requests that count
    // no GET — and land on both.
    let mut server =
        EventServer::start(Arc::new(RpEngine::new()), &ServerConfig::event_loop(2)).unwrap();
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        let mut stream = TcpStream::connect(addr).unwrap();
        std::thread::spawn(move || {
            let burst = b"version\r\n".repeat(1024);
            let mut replies = vec![0; format!("VERSION {SERVER_VERSION}\r\n").len() * 1024];
            while !stop.load(Ordering::Relaxed) {
                stream.write_all(&burst).unwrap();
                stream.read_exact(&mut replies).unwrap();
            }
        })
    };
    let mut clients: Vec<CacheClient> = (0..16)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(1));
            CacheClient::connect(addr).unwrap()
        })
        .collect();
    stop.store(true, Ordering::Relaxed);
    hammer.join().unwrap();
    assert!(clients[0].set("k", 0, 0, b"v").unwrap());
    let pairs = (0..16).flat_map(|a| (0..16).filter(move |&b| b != a).map(move |b| (a, b)));
    for (round, (a, b)) in pairs.enumerate() {
        let before = get_counts(&mut clients[b]);
        let hit = round % 2 == 0;
        let key = if hit { "k" } else { "absent" };
        assert_eq!(clients[a].get(key).unwrap().is_some(), hit);
        let after = get_counts(&mut clients[b]);
        let expected = if hit {
            (before.0 + 1, before.1)
        } else {
            (before.0, before.1 + 1)
        };
        assert_eq!(after, expected, "round {round}: GET on {a}, stats on {b}");
    }
    server.shutdown();
}

#[test]
fn a_bare_execute_ref_counts_every_get() {
    // The single-request entry point folds before it returns, so a caller
    // with a fresh context per request loses no count.
    let engine = RpEngine::new();
    engine.set("k", Item::new(0, "v"));
    let mut out = Vec::new();
    for key in [&b"k"[..], b"absent", b"k", b"k"] {
        let mut ctx = EngineReadCtx::new(ReadSide::Qsbr);
        assert!(!execute_ref(
            &engine,
            &RequestRef::Get { key },
            &mut ctx,
            &mut out
        ));
    }
    let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
    assert!(!execute_ref(
        &engine,
        &RequestRef::Stats,
        &mut ctx,
        &mut out
    ));
    let text = String::from_utf8(out).unwrap();
    assert!(
        text.contains("STAT get_hits 3\r\nSTAT get_misses 1\r\n"),
        "{text}"
    );
    assert_eq!((engine.stats().hits(), engine.stats().misses()), (3, 1));
}
