//! # rp-net
//!
//! A dependency-free epoll event-loop server for the kvcache front end.
//!
//! A thread-per-connection server caps the connection count long before
//! the relativistic hash table does: ten thousand mostly idle clients cost
//! ten thousand stacks and scheduler entries. This crate replaces that
//! model with a classic readiness-driven reactor:
//!
//! * [`sys`] — raw `extern "C"` declarations of `epoll_create1` /
//!   `epoll_ctl` / `epoll_wait` / `fcntl` / `eventfd` / `writev` against
//!   the system libc (the build environment has no crates.io access, so no
//!   `libc` or `mio` dependency).
//! * [`Poller`] — one epoll instance; [`Waker`] — an eventfd that
//!   interrupts a blocked wait from another thread.
//! * [`WriteBuf`] — the per-connection output queue: partial writes resume
//!   at a cursor, small pipelined replies coalesce, and every flush
//!   submits all queued segments as one `writev(2)` iovec batch (one
//!   syscall per readiness event, not one per reply). A high watermark
//!   signals backpressure (the reactor stops *reading* from a peer that is
//!   not draining its responses).
//! * [`ByteBudget`] — process-wide admission control: one ledger of
//!   buffered bytes shared by every worker. Accepts are refused while it
//!   is exhausted, and open connections get their reads paused until it
//!   recovers, so total buffer memory is bounded no matter how many slow
//!   readers connect.
//! * [`BufWrite`] + [`BufPool`] — the zero-allocation response path:
//!   services serialise replies *directly* into the connection's output
//!   queue through a pooled sink, and finished segment buffers recycle
//!   through a per-worker free list (bounded, so idle connections pin no
//!   warm buffers).
//! * A per-connection state machine (`Open → Draining → Closed`) driving
//!   incremental reads, pipelined writes, graceful shutdown, and the
//!   defensive limits a public-facing deployment needs ([`NetConfig`]'s
//!   `idle_timeout` and `max_requests_per_conn`).
//! * [`EventLoop`] — N worker threads, each with its own poller and
//!   connection table. All workers register the *single* listening socket
//!   with `EPOLLEXCLUSIVE`, so the kernel shards accepts across workers
//!   (`SO_REUSEPORT`-style without the extra sockets). The server never
//!   spawns another thread, no matter how many connections arrive.
//!
//! Applications plug in with the [`Service`] trait; each accepted
//! connection gets a `Service::Conn` value for protocol state (e.g. an
//! incremental request decoder), and `Service::on_data` consumes raw bytes
//! from [`ConnIo::input`] — borrowing slices straight out of the read
//! buffer — and writes response bytes into [`ConnIo::out`]:
//!
//! ```
//! use std::sync::Arc;
//! use rp_net::{Action, BufWrite, ConnIo, EventLoop, NetConfig, Service};
//!
//! /// Upper-cases every line it receives.
//! struct Shout;
//! impl Service for Shout {
//!     type Conn = ();
//!     type Worker = ();
//!     fn on_worker_start(&self, _worker: usize) {}
//!     fn on_connect(&self, _peer: std::net::SocketAddr) {}
//!     fn on_data(&self, _worker: &mut (), _conn: &mut (), io: &mut ConnIo<'_>) -> Action {
//!         let shouted: Vec<u8> = io.input.iter().map(u8::to_ascii_uppercase).collect();
//!         io.input.clear();
//!         io.out.put(&shouted);
//!         io.requests += 1;
//!         Action::Continue
//!     }
//! }
//!
//! let mut server = EventLoop::bind(
//!     "127.0.0.1:0".parse().unwrap(),
//!     Arc::new(Shout),
//!     NetConfig::default(),
//! ).unwrap();
//!
//! use std::io::{Read, Write};
//! let mut client = std::net::TcpStream::connect(server.addr()).unwrap();
//! client.write_all(b"hello\n").unwrap();
//! let mut reply = [0_u8; 6];
//! client.read_exact(&mut reply).unwrap();
//! assert_eq!(&reply, b"HELLO\n");
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod budget;
mod buffer;
mod conn;
mod poller;
mod pool;
mod server;
pub mod sys;

pub use budget::ByteBudget;
pub use buffer::{BufWrite, FlushState, PooledBuf, VectoredWrite, WriteBuf, COALESCE_LIMIT};
pub use poller::{waker_pair, Event, Poller, WakeReceiver, Waker};
pub use pool::BufPool;
pub use server::{EventLoop, NetStats};

use std::net::SocketAddr;
use std::time::Duration;

/// What the service wants done with a connection after handling input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep the connection open.
    Continue,
    /// Flush any queued responses, then close (e.g. the client sent
    /// `quit`, or the protocol was violated beyond recovery). Input the
    /// service left unconsumed is discarded, never handed back to it.
    Close,
}

/// The I/O view a service gets for one [`Service::on_data`] call.
///
/// The fields are deliberately public and disjoint so a service can hold a
/// borrow *into* `input` (a request parsed in place, keys as sub-slices of
/// the read buffer) while simultaneously writing the response through
/// `out` and bumping `requests` — the borrow checker verifies the
/// zero-copy discipline field by field.
pub struct ConnIo<'a> {
    /// Everything received but not yet consumed. The service removes the
    /// bytes it used (a frame may arrive across many reads — unconsumed
    /// bytes are presented again, extended, after the next read).
    pub input: &'a mut Vec<u8>,
    /// The response sink: writes go straight into the connection's
    /// [`WriteBuf`] with segment buffers recycled through the worker's
    /// [`BufPool`].
    pub out: PooledBuf<'a>,
    /// Complete requests the service consumed in this call. The reactor
    /// accumulates this into the connection's served-request count, which
    /// drives [`NetConfig::max_requests_per_conn`].
    pub requests: u64,
    /// How many more requests this connection may be served before its
    /// budget ([`NetConfig::max_requests_per_conn`]) is exhausted
    /// (`u64::MAX` when unlimited). A well-behaved service stops consuming
    /// once `requests` reaches this quota — anything already answered when
    /// the budget trips is still flushed, but a pipelining peer cannot
    /// overdraw the budget within a single batch.
    pub request_quota: u64,
}

/// A protocol handler driven by the event loop.
///
/// One `Service` value is shared by every worker thread (it must be cheap
/// to call concurrently); per-connection state lives in `Service::Conn`,
/// and per-*worker* state — created on the worker thread itself — lives in
/// `Service::Worker`.
///
/// The worker lifecycle hooks exist because reactor workers are pinned
/// threads with a natural rhythm: wake from `epoll_wait`, service a batch
/// of events, park again. Protocol handlers can attach per-thread resources
/// to that rhythm — the kvcache server registers a QSBR read handle per
/// worker ([`Service::on_worker_start`]), announces a quiescent state once
/// per event batch ([`Service::on_batch_end`]), and goes offline while
/// parked ([`Service::on_park`] / [`Service::on_unpark`]), which is the
/// textbook quiescent-state-based RCU deployment.
pub trait Service: Send + Sync + 'static {
    /// Per-connection protocol state (parser position, session flags, …).
    type Conn: Send + 'static;

    /// Per-worker state. Created by [`Service::on_worker_start`] **on the
    /// worker thread**, so it may hold thread-pinned (`!Send`) resources
    /// such as read-side registration handles; it never leaves the worker.
    type Worker: 'static;

    /// Called once on each worker thread before its event loop starts.
    fn on_worker_start(&self, worker: usize) -> Self::Worker;

    /// Called once per accepted connection.
    fn on_connect(&self, peer: SocketAddr) -> Self::Conn;

    /// Called whenever new bytes arrive, with the connection's I/O view
    /// ([`ConnIo`]): consume complete frames from `io.input` (borrowing
    /// from the buffer is encouraged — decode in place, drain afterwards),
    /// write responses into `io.out`, and report consumed requests in
    /// `io.requests`. Responses may cover several pipelined requests.
    fn on_data(
        &self,
        worker: &mut Self::Worker,
        conn: &mut Self::Conn,
        io: &mut ConnIo<'_>,
    ) -> Action;

    /// Called after each batch of readiness events has been fully serviced
    /// (all responses queued and flushed as far as the sockets allow). The
    /// worker holds no connection state across this call.
    fn on_batch_end(&self, _worker: &mut Self::Worker) {}

    /// Called immediately before the worker blocks in `epoll_wait`.
    fn on_park(&self, _worker: &mut Self::Worker) {}

    /// Called immediately after the worker wakes from `epoll_wait`.
    fn on_unpark(&self, _worker: &mut Self::Worker) {}
}

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Worker threads (and epoll instances). The server's entire thread
    /// budget — connections never get their own.
    pub workers: usize,
    /// Per-`epoll_wait` event batch size.
    pub events_per_wait: usize,
    /// Bytes read per `read(2)` call.
    pub read_chunk: usize,
    /// Max bytes read from one connection per readiness event before other
    /// connections get a turn (level-triggered epoll re-arms the rest).
    pub read_budget: usize,
    /// Output-queue size above which the reactor stops reading from the
    /// connection until the peer drains its responses.
    pub high_watermark: usize,
    /// Maximum concurrent connections; accepts beyond it are shed (the
    /// peer gets [`NetConfig::shed_reply`], then a close).
    pub max_connections: usize,
    /// Process-wide cap on bytes buffered across *all* connections (input
    /// plus queued responses). At the cap, new accepts are shed and open
    /// connections stop reading until the ledger drains below ⅞ of the
    /// cap. `usize::MAX` (the default) disables the budget.
    pub max_total_bytes: usize,
    /// Best-effort bytes written to a connection shed at admission before
    /// it is closed, so the peer sees *why* instead of a bare reset (e.g.
    /// `SERVER_ERROR busy\r\n` for a memcache-flavored service). Empty
    /// (the default) sheds silently.
    pub shed_reply: Vec<u8>,
    /// Queued toward a connection whose handler panicked, before the
    /// connection is shed (the panic is contained: the worker keeps
    /// serving its other connections). Empty (the default) sheds silently.
    pub panic_reply: Vec<u8>,
    /// How long graceful shutdown keeps flushing queued responses before
    /// force-closing stragglers. Also the deadline for a *single*
    /// connection stuck in its drain during normal operation: a peer that
    /// never reads its final responses is force-closed once the flush has
    /// been pending this long.
    pub drain_timeout: Duration,
    /// How long the listener stays disarmed after `accept()` returns
    /// EMFILE/ENFILE (fd-table exhaustion). Without the backoff a
    /// level-triggered listener would re-fire instantly and spin the
    /// worker at 100% while accepting nothing.
    pub accept_backoff: Duration,
    /// Close a connection that has made no progress (no bytes read from
    /// it, no response bytes flushed to it) for this long. `None` (the
    /// default) never reaps.
    pub idle_timeout: Option<Duration>,
    /// Close a connection after it has been served this many requests
    /// (queued responses still flush first) — a per-connection budget that
    /// bounds what any single peer can extract from one accept, like
    /// HTTP's max keep-alive requests. `None` (the default) is unlimited.
    pub max_requests_per_conn: Option<u64>,
    /// Per-worker buffer pool: at most this many recycled buffers are
    /// retained (the cap that keeps thousands of idle connections from
    /// pinning thousands of warm buffers).
    pub pool_buffers: usize,
    /// Per-buffer capacity cap for the pool; a buffer that grew beyond
    /// this (one huge response) is dropped instead of pooled.
    pub pool_buffer_capacity: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 2,
            events_per_wait: 256,
            read_chunk: 16 * 1024,
            read_budget: 256 * 1024,
            high_watermark: 1024 * 1024,
            max_connections: usize::MAX,
            max_total_bytes: usize::MAX,
            shed_reply: Vec::new(),
            panic_reply: Vec::new(),
            drain_timeout: Duration::from_secs(5),
            accept_backoff: Duration::from_millis(50),
            idle_timeout: None,
            max_requests_per_conn: None,
            pool_buffers: 64,
            pool_buffer_capacity: 256 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Echoes complete `\n`-terminated lines; `quit\n` closes.
    struct LineEcho {
        connects: AtomicUsize,
    }

    impl Service for LineEcho {
        type Conn = ();
        type Worker = ();
        fn on_worker_start(&self, _worker: usize) {}
        fn on_connect(&self, _peer: SocketAddr) {
            self.connects.fetch_add(1, Ordering::Relaxed);
        }
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

    fn echo_service() -> Arc<LineEcho> {
        Arc::new(LineEcho {
            connects: AtomicUsize::new(0),
        })
    }

    fn start_echo(workers: usize) -> EventLoop {
        EventLoop::bind(
            "127.0.0.1:0".parse().unwrap(),
            echo_service(),
            NetConfig {
                workers,
                ..NetConfig::default()
            },
        )
        .expect("bind event loop")
    }

    #[test]
    fn echoes_lines_and_closes_on_quit() {
        let mut server = start_echo(1);
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client.write_all(b"one\ntwo\n").unwrap();
        let mut buf = [0_u8; 8];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"one\ntwo\n");

        // A line pipelined behind the `quit` is discarded with the rest of
        // the input, not handed to the service on a later pass.
        client.write_all(b"quit\nunheard\n").unwrap();
        let mut rest = Vec::new();
        client.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "quit closes without echoing: {rest:?}");
        server.shutdown();
    }

    #[test]
    fn frames_split_across_many_writes_reassemble() {
        let mut server = start_echo(2);
        let mut client = TcpStream::connect(server.addr()).unwrap();
        for &b in b"spread over many tiny writes\n" {
            client.write_all(&[b]).unwrap();
            client.flush().unwrap();
        }
        let mut buf = [0_u8; 29];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf[..], b"spread over many tiny writes\n");
        server.shutdown();
    }

    #[test]
    fn many_connections_share_two_workers() {
        let mut server = start_echo(2);
        assert_eq!(server.worker_count(), 2);
        let mut clients: Vec<TcpStream> = (0..64)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.write_all(format!("client-{i}\n").as_bytes()).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let want = format!("client-{i}\n");
            let mut buf = vec![0_u8; want.len()];
            c.read_exact(&mut buf).unwrap();
            assert_eq!(buf, want.into_bytes());
        }
        let stats = server.stats();
        assert_eq!(stats.accepted, 64);
        assert_eq!(stats.current_connections, 64);
        drop(clients);
        server.shutdown();
    }

    #[test]
    fn worker_lifecycle_hooks_fire_on_worker_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;

        struct Hooked {
            started: Mutex<HashSet<(usize, std::thread::ThreadId)>>,
            batches: AtomicUsize,
            parks: AtomicUsize,
            unparks: AtomicUsize,
        }

        impl Service for Hooked {
            type Conn = ();
            /// Worker state deliberately `!Send` to prove the reactor never
            /// moves it off its thread.
            type Worker = std::rc::Rc<std::thread::ThreadId>;

            fn on_worker_start(&self, worker: usize) -> Self::Worker {
                let id = std::thread::current().id();
                self.started.lock().unwrap().insert((worker, id));
                std::rc::Rc::new(id)
            }
            fn on_connect(&self, _peer: SocketAddr) {}
            fn on_data(
                &self,
                worker: &mut Self::Worker,
                _conn: &mut (),
                io: &mut ConnIo<'_>,
            ) -> Action {
                assert_eq!(**worker, std::thread::current().id());
                let bytes = std::mem::take(io.input);
                io.out.put(&bytes);
                Action::Continue
            }
            fn on_batch_end(&self, worker: &mut Self::Worker) {
                assert_eq!(**worker, std::thread::current().id());
                self.batches.fetch_add(1, Ordering::Relaxed);
            }
            fn on_park(&self, _worker: &mut Self::Worker) {
                self.parks.fetch_add(1, Ordering::Relaxed);
            }
            fn on_unpark(&self, _worker: &mut Self::Worker) {
                self.unparks.fetch_add(1, Ordering::Relaxed);
            }
        }

        let service = Arc::new(Hooked {
            started: Mutex::new(HashSet::new()),
            batches: AtomicUsize::new(0),
            parks: AtomicUsize::new(0),
            unparks: AtomicUsize::new(0),
        });
        let mut server = EventLoop::bind(
            "127.0.0.1:0".parse().unwrap(),
            Arc::clone(&service),
            NetConfig {
                workers: 2,
                ..NetConfig::default()
            },
        )
        .unwrap();

        let mut client = TcpStream::connect(server.addr()).unwrap();
        client.write_all(b"ping").unwrap();
        let mut buf = [0_u8; 4];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        drop(client);
        server.shutdown();

        let started = service.started.lock().unwrap();
        let workers: HashSet<usize> = started.iter().map(|(w, _)| *w).collect();
        assert_eq!(workers, HashSet::from([0, 1]), "one start per worker");
        let threads: HashSet<std::thread::ThreadId> = started.iter().map(|(_, t)| *t).collect();
        assert_eq!(threads.len(), 2, "each worker started on its own thread");
        assert!(service.batches.load(Ordering::Relaxed) >= 1);
        // Every wait is bracketed by park/unpark.
        assert!(service.parks.load(Ordering::Relaxed) >= 2);
        assert!(service.unparks.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn graceful_shutdown_flushes_pending_responses() {
        let mut server = start_echo(2);
        let mut clients: Vec<TcpStream> = (0..16)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        // Every client sends a request; none has read its response yet.
        for (i, c) in clients.iter_mut().enumerate() {
            c.write_all(format!("drain-{i}\n").as_bytes()).unwrap();
        }
        server.shutdown();
        // All responses must still arrive, then EOF.
        for (i, c) in clients.iter_mut().enumerate() {
            let mut got = Vec::new();
            c.read_to_end(&mut got).unwrap();
            assert_eq!(got, format!("drain-{i}\n").into_bytes(), "client {i}");
        }
    }

    #[test]
    fn max_connections_sheds_excess_accepts_with_a_reply() {
        let mut server = EventLoop::bind(
            "127.0.0.1:0".parse().unwrap(),
            echo_service(),
            NetConfig {
                workers: 1,
                max_connections: 2,
                shed_reply: b"BUSY\n".to_vec(),
                ..NetConfig::default()
            },
        )
        .unwrap();
        let mut keep: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        for (i, c) in keep.iter_mut().enumerate() {
            c.write_all(format!("keep-{i}\n").as_bytes()).unwrap();
            let mut buf = vec![0_u8; 7];
            c.read_exact(&mut buf).unwrap();
        }
        // The third connection is shed at accept: the configured reply
        // arrives, then EOF — never a served request. The client sends
        // nothing first, so its bytes cannot race the server's close into
        // an ECONNRESET.
        let mut extra = TcpStream::connect(server.addr()).unwrap();
        let mut buf = Vec::new();
        extra.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"BUSY\n", "shed connection gets the courtesy reply");
        assert!(server.stats().refused >= 1);
        server.shutdown();
    }

    #[test]
    fn exhausted_byte_budget_sheds_accepts_until_it_recovers() {
        // A tiny byte budget and a client that refuses to read: the echoed
        // responses pile up in the server's write buffer, exhausting the
        // ledger, so the next accept is shed. Draining the pile recovers
        // the budget and accepts resume.
        let mut server = EventLoop::bind(
            "127.0.0.1:0".parse().unwrap(),
            echo_service(),
            NetConfig {
                workers: 1,
                max_total_bytes: 8 * 1024,
                shed_reply: b"BUSY\n".to_vec(),
                // A watermark above the byte budget so the *global* ledger,
                // not the per-connection limit, is what trips.
                high_watermark: 1024 * 1024,
                ..NetConfig::default()
            },
        )
        .unwrap();

        let mut hog = TcpStream::connect(server.addr()).unwrap();
        // Push newline-framed filler the client never reads until the
        // echoed responses pile past the 8 KiB budget (kernel socket
        // buffers absorb an unpredictable amount first). A plain
        // `write_all` can wedge forever here: the server throttles this
        // connection the instant the ledger trips, which may land *inside*
        // a blocking write — so use a write timeout and partial writes,
        // resuming mid-line so every 4096th byte is still a newline the
        // echo service can frame on. Exit only once the ledger is over
        // budget AND the hog's writes are blocked: with the client not
        // reading, nothing can flush, so that state cannot un-exhaust
        // behind our back.
        hog.set_write_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let line = {
            let mut l = vec![b'x'; 4095];
            l.push(b'\n');
            l
        };
        let mut sent = 0_usize;
        let mut offset = 0_usize;
        let mut write_blocked = false;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.stats().bytes_buffered < 8 * 1024 || !write_blocked {
            assert!(
                std::time::Instant::now() < deadline,
                "budget never exhausted (buffered {} after {} bytes sent)",
                server.stats().bytes_buffered,
                sent
            );
            match hog.write(&line[offset..]) {
                Ok(n) => {
                    sent += n;
                    offset = (offset + n) % line.len();
                    write_blocked = false;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    write_blocked = true;
                }
                Err(e) => panic!("pushing into hog: {e}"),
            }
        }

        // With the ledger pinned over its ceiling, a fresh accept is shed.
        // Retry with a read timeout in case a transiently admitted
        // connection slips through a recovery blip — an admitted echo
        // connection that was sent nothing would otherwise block forever.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let shed = loop {
            assert!(
                std::time::Instant::now() < deadline,
                "never saw a shed accept"
            );
            let mut refused = TcpStream::connect(server.addr()).unwrap();
            refused
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut buf = Vec::new();
            match refused.read_to_end(&mut buf) {
                Ok(_) => break buf, // reply then EOF: the shed path
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue; // admitted and idle — drop it, try again
                }
                Err(e) => panic!("probing the admission wall: {e}"),
            }
        };
        assert_eq!(shed, b"BUSY\n", "byte-pressure shed gets the reply too");
        assert!(server.stats().refused >= 1);

        // Drain everything the server buffered; the ledger recovers and a
        // new connection is admitted and served.
        hog.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut sink = vec![0_u8; 64 * 1024];
        let mut drain_hog = |hog: &mut TcpStream| loop {
            match hog.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break
                }
                Err(e) => panic!("draining hog: {e}"),
            }
        };
        drain_hog(&mut hog);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let mut fresh = TcpStream::connect(server.addr()).unwrap();
            fresh.write_all(b"hello\n").unwrap();
            let mut first = [0_u8; 1];
            fresh.read_exact(&mut first).unwrap();
            if first[0] == b'h' {
                let mut rest = [0_u8; 5];
                fresh.read_exact(&mut rest).unwrap();
                assert_eq!(&rest, b"ello\n");
                break;
            }
            // Still shedding ("BUSY\n"): the ledger has not recovered yet.
            // The server may also still be echoing previously pushed
            // filler, so keep draining the hog between probes.
            assert!(
                std::time::Instant::now() < deadline,
                "budget never recovered"
            );
            drain_hog(&mut hog);
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_but_live_ones_survive() {
        let mut server = EventLoop::bind(
            "127.0.0.1:0".parse().unwrap(),
            echo_service(),
            NetConfig {
                workers: 2,
                // Generous timeout-to-ping ratio (16:1) so a scheduler
                // stall on a loaded CI runner cannot reap the live
                // connection and flake the test.
                idle_timeout: Some(Duration::from_millis(800)),
                ..NetConfig::default()
            },
        )
        .unwrap();

        let mut idle = TcpStream::connect(server.addr()).unwrap();
        let mut live = TcpStream::connect(server.addr()).unwrap();

        // The live connection keeps making requests well past the idle
        // timeout; the idle one never sends a byte.
        for i in 0..30 {
            live.write_all(format!("tick-{i}\n").as_bytes()).unwrap();
            let mut buf = vec![0_u8; format!("tick-{i}\n").len()];
            live.read_exact(&mut buf).unwrap();
            std::thread::sleep(Duration::from_millis(50));
        }

        // The idle connection must have been reaped: EOF (or a reset).
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut got = Vec::new();
        match idle.read_to_end(&mut got) {
            Ok(_) => assert!(got.is_empty(), "idle connection received data"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
        }

        // The live connection still works after the reap.
        live.write_all(b"still-here\n").unwrap();
        let mut buf = [0_u8; 11];
        live.read_exact(&mut buf).unwrap();
        assert_eq!(&buf[..], b"still-here\n");
        assert_eq!(server.stats().current_connections, 1);
        server.shutdown();
    }

    #[test]
    fn request_budget_closes_the_connection_after_n_requests() {
        let mut server = EventLoop::bind(
            "127.0.0.1:0".parse().unwrap(),
            echo_service(),
            NetConfig {
                workers: 1,
                max_requests_per_conn: Some(3),
                ..NetConfig::default()
            },
        )
        .unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        // Five pipelined requests in one write: exactly the budget's worth
        // of responses come back, then the server closes.
        client.write_all(b"one\ntwo\nthree\nfour\nfive\n").unwrap();
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"one\ntwo\nthree\n", "exactly the budget is served");

        // A fresh connection starts with a fresh budget.
        let mut fresh = TcpStream::connect(server.addr()).unwrap();
        fresh.write_all(b"hello\n").unwrap();
        let mut buf = [0_u8; 6];
        fresh.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello\n");
        server.shutdown();
    }
}
