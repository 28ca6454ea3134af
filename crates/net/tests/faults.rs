//! Fault-injected reactor tests: connection-handler panics are contained,
//! injected socket errors shed only the affected connection, short writes
//! still deliver complete responses, and fd exhaustion backs the listener
//! off instead of hot-spinning.
//!
//! `rp_fault`'s registry is process-global, so every test takes one serial
//! mutex and keeps its plan inside an [`rp_fault::ArmGuard`] scope.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rp_net::{Action, BufWrite, ConnIo, EventLoop, NetConfig, Service};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Echoes complete `\n`-terminated lines; `quit\n` closes.
struct LineEcho;

impl Service for LineEcho {
    type Conn = ();
    type Worker = ();
    const PANIC_REPLY: &'static [u8] = b"SERVER_ERROR internal panic\r\n";
    fn on_worker_start(&self, _worker: usize) {}
    fn on_connect(&self, _peer: SocketAddr) {}
    fn on_data(&self, _worker: &mut (), _conn: &mut (), io: &mut ConnIo<'_>) -> Action {
        let mut consumed = 0;
        while io.requests < io.request_quota {
            let Some(pos) = io.input[consumed..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let line = &io.input[consumed..consumed + pos + 1];
            io.requests += 1;
            if line == b"quit\n" {
                io.input.drain(..consumed + pos + 1);
                return Action::Close;
            }
            io.out.put(line);
            consumed += pos + 1;
        }
        io.input.drain(..consumed);
        Action::Continue
    }
}

fn start(config: NetConfig) -> EventLoop {
    EventLoop::bind(
        "127.0.0.1:0".parse().unwrap(),
        std::sync::Arc::new(LineEcho),
        config,
    )
    .expect("bind event loop")
}

/// Installs a panic hook that stays quiet for injected-failpoint panics.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains("injected panic at failpoint"))
            .unwrap_or(false);
        if !expected {
            default(info);
        }
    }));
}

#[test]
fn injected_handler_panic_is_contained_and_counted() {
    let _serial = serial();
    quiet_injected_panics();
    let mut server = start(NetConfig {
        workers: 1,
        ..NetConfig::default()
    });
    let panics_before = rp_obs::global().net.conn_panics_total.get();

    {
        let _arm = rp_fault::ArmGuard::new("net.on_data=panic*1", 1);
        // The panicked connection gets the courtesy reply, then EOF.
        let mut victim = TcpStream::connect(server.addr()).unwrap();
        victim.write_all(b"boom\n").unwrap();
        victim
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut got = Vec::new();
        // The peer may see a clean EOF or a reset depending on close
        // timing; either way the reply must arrive first.
        match victim.read_to_end(&mut got) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("reading from panicked connection: {e}"),
        }
        assert_eq!(got, b"SERVER_ERROR internal panic\r\n");
        assert_eq!(rp_fault::injected("net.on_data"), 1);
    }

    assert_eq!(
        rp_obs::global().net.conn_panics_total.get(),
        panics_before + 1,
        "the contained panic must be counted"
    );

    // The worker survived: a fresh connection is served normally.
    let mut fresh = TcpStream::connect(server.addr()).unwrap();
    fresh.write_all(b"hello\n").unwrap();
    let mut buf = [0_u8; 6];
    fresh.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"hello\n");
    server.shutdown();
}

#[test]
fn injected_read_error_sheds_only_the_hit_connection() {
    let _serial = serial();
    let mut server = start(NetConfig {
        workers: 1,
        ..NetConfig::default()
    });

    {
        let _arm = rp_fault::ArmGuard::new("net.read=econnreset*1", 1);
        let mut victim = TcpStream::connect(server.addr()).unwrap();
        victim.write_all(b"doomed\n").unwrap();
        victim
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut got = Vec::new();
        // The injected ECONNRESET closes the connection server-side.
        match victim.read_to_end(&mut got) {
            Ok(_) => assert!(got.is_empty(), "no echo from a reset read"),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("reading from reset connection: {e}"),
        }
        assert_eq!(rp_fault::injected("net.read"), 1);
    }

    let mut fresh = TcpStream::connect(server.addr()).unwrap();
    fresh.write_all(b"alive\n").unwrap();
    let mut buf = [0_u8; 6];
    fresh.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"alive\n");
    server.shutdown();
}

#[test]
fn a_drained_socket_is_not_asked_twice() {
    let _serial = serial();
    let mut server = start(NetConfig {
        workers: 1,
        ..NetConfig::default()
    });
    // A zero-length delay changes nothing about a read — the real,
    // unclamped call still runs — but every `read` the reactor issues
    // passes the failpoint, so its injection count is the syscall count.
    let _arm = rp_fault::ArmGuard::new("net.read=delay:0ms", 1);
    let mut client = TcpStream::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let line = b"one segment, far smaller than the read chunk\n";
    client.write_all(line).unwrap();
    let mut buf = vec![0_u8; line.len()];
    client.read_exact(&mut buf).unwrap();
    assert_eq!(&buf[..], &line[..]);
    assert_eq!(
        rp_fault::injected("net.read"),
        1,
        "a read that came back short has emptied the socket"
    );

    // A peer that sends and then closes is still answered, and its EOF is
    // still seen — by the read of the next readiness event.
    client.write_all(b"last words\n").unwrap();
    client.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    client.read_to_end(&mut rest).unwrap();
    assert_eq!(rest, b"last words\n");
    assert_eq!(rp_fault::injected("net.read"), 3, "the line, then the EOF");
    server.shutdown();
}

#[test]
fn short_writes_still_deliver_complete_responses() {
    let _serial = serial();
    let mut server = start(NetConfig {
        workers: 1,
        ..NetConfig::default()
    });
    // Every writev for a while is clamped to 3 bytes; the flush cursor
    // must resume where the truncated write stopped, so the client still
    // receives the full, uncorrupted response.
    let _arm = rp_fault::ArmGuard::new("net.writev=short:3*64", 1);
    let mut client = TcpStream::connect(server.addr()).unwrap();
    let line = b"the whole line must survive short writes\n";
    client.write_all(line).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = vec![0_u8; line.len()];
    client.read_exact(&mut buf).unwrap();
    assert_eq!(&buf[..], &line[..]);
    assert!(rp_fault::injected("net.writev") >= 1);
    server.shutdown();
}

#[test]
fn emfile_on_accept_backs_the_listener_off_and_recovers() {
    let _serial = serial();
    let mut server = start(NetConfig {
        workers: 1,
        ..NetConfig::default()
    });
    let backoffs_before = rp_obs::global().net.accept_backoffs_total.get();

    let _arm = rp_fault::ArmGuard::new("net.accept=emfile*2", 1);
    // The TCP handshake completes in the kernel backlog regardless of the
    // failing accept(2), so connect() succeeds; the server-side accept is
    // what the failpoint poisons. After the backoff the listener re-arms
    // and drains the backlog.
    let mut client = TcpStream::connect(server.addr()).unwrap();
    client.write_all(b"patient\n").unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0_u8; 8];
    client.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"patient\n");

    assert!(
        rp_fault::injected("net.accept") >= 1,
        "the accept failpoint must have fired"
    );
    let stats = server.stats();
    assert!(
        stats.accept_backoffs >= 1,
        "EMFILE must pause the listener, not spin it: {stats:?}"
    );
    assert!(
        rp_obs::global().net.accept_backoffs_total.get() > backoffs_before,
        "backoffs are observable"
    );
    server.shutdown();
}

/// Answers each `x` it reads with 64 KiB and closes at a `q`: a request
/// of a few bytes queues megabytes of response in one `on_data` call.
struct Amplify;

impl Service for Amplify {
    type Conn = ();
    type Worker = ();
    fn on_worker_start(&self, _worker: usize) {}
    fn on_connect(&self, _peer: SocketAddr) {}
    fn on_data(&self, _worker: &mut (), _conn: &mut (), io: &mut ConnIo<'_>) -> Action {
        let reply = vec![b'y'; 64 << 10];
        for byte in std::mem::take(io.input) {
            io.requests += 1;
            match byte {
                b'x' => io.out.put(&reply),
                b'q' => return Action::Close,
                _ => {}
            }
        }
        Action::Continue
    }
}

#[test]
fn stuck_peer_is_force_closed_at_the_drain_deadline() {
    // No failpoints needed: a peer that sends `quit` behind a large
    // request and then never reads leaves the connection Draining with a
    // flush that cannot complete. `drain_timeout` must bound that state.
    let _serial = serial();
    let mut server = EventLoop::bind(
        "127.0.0.1:0".parse().unwrap(),
        std::sync::Arc::new(Amplify),
        NetConfig {
            workers: 1,
            drain_timeout: Duration::from_millis(300),
            idle_timeout: None,
            ..NetConfig::default()
        },
    )
    .expect("bind event loop");
    let expired_before = rp_obs::global().net.drains_expired_total.get();

    let mut stuck = TcpStream::connect(server.addr()).unwrap();
    // 128 `x` and the `q` in one 129-byte segment: one read hands all of
    // it to the service, which queues 8 MiB — far more than loopback
    // socket buffers can absorb — and closes. The high watermark pauses
    // only reads, and nothing is left to read, so the connection goes
    // Draining with most of its response queued server-side forever (we
    // never read).
    let mut request = vec![b'x'; 128];
    request.push(b'q');
    stuck.write_all(&request).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if stats.drains_expired >= 1 && stats.current_connections == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stuck drain was never force-closed: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(rp_obs::global().net.drains_expired_total.get() > expired_before);
    server.shutdown();
}
