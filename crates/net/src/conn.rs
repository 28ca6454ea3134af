//! The per-connection readiness-driven state machine.

use std::io::{self, Read};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::budget::ByteBudget;
use crate::buffer::{FdSink, FlushState, WriteBuf};
use crate::poller::{EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::pool::BufPool;
use crate::{Action, ConnIo, NetConfig, Service, HIGH_WATERMARK};
use rp_obs::FlushObs;

/// Bytes read from one connection per readiness event, so no peer starves the rest.
const READ_BUDGET: usize = 256 * 1024;

/// Connection lifecycle.
///
/// ```text
///        reads enabled            service said Close, peer EOF,
///        (unless backpressured)   request budget spent, idle reap,
///   Open ──────────────────────── or server shutdown ─▶ Draining
///     │                                                   │ flush
///     │ io error                                          ▼
///     └─────────────────────────────────────────────▶  Closed
/// ```
///
/// *Open*: request bytes are read as they arrive, complete frames are
/// handed to the service, responses queue in the write buffer. *Draining*:
/// no more reads; queued responses still flush. *Closed*: the worker
/// deregisters and drops the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    Open,
    Draining,
    Closed,
}

/// The worker's resources a readiness event is served with.
pub(crate) struct Turn<'a> {
    pub(crate) config: &'a NetConfig,
    /// The worker's buffer free list: the input buffer and response
    /// segments cycle through it, so a steady-state request allocates
    /// nothing.
    pub(crate) pool: &'a mut BufPool,
    pub(crate) bytes: &'a ByteBudget,
    /// The worker's shard of the flush counters.
    pub(crate) flushes: &'a FlushObs,
    /// The worker's shared read scratch buffer — allocating per readiness
    /// event would put an alloc+memset on the hottest path.
    pub(crate) chunk: &'a mut [u8],
    /// The worker's clock reading for this event, taken after its
    /// `epoll_wait` returned: reads and flushes stamp activity with it
    /// instead of reading the clock.
    pub(crate) now: Instant,
}

pub(crate) struct Connection<S: Service> {
    stream: TcpStream,
    state: S::Conn,
    input: Vec<u8>,
    out: WriteBuf,
    phase: ConnState,
    /// The interest mask currently registered with the poller.
    registered: u32,
    /// Requests served over the connection's lifetime (the budget meter).
    served: u64,
    /// Last moment the connection made progress (bytes read from the peer
    /// or response bytes flushed to it); drives the idle reaper.
    last_activity: Instant,
    /// Bytes currently charged against the global [`ByteBudget`] (the
    /// input + output buffer level as of the last settle).
    charged: usize,
    /// Reads paused because the global byte budget was exhausted; cleared
    /// by the worker once the budget recovers.
    throttled: bool,
    /// When the connection entered `Draining`. A peer that never drains
    /// its final flush (zero window, absent reader) is force-closed once
    /// this is older than the drain timeout — a drain must not hang on
    /// one unflushable socket.
    draining_since: Option<Instant>,
}

impl<S: Service> Connection<S> {
    pub(crate) fn new(stream: TcpStream, state: S::Conn) -> Self {
        Connection {
            stream,
            state,
            input: Vec::new(),
            out: WriteBuf::new(HIGH_WATERMARK),
            phase: ConnState::Open,
            registered: EPOLLIN | EPOLLRDHUP,
            served: 0,
            last_activity: Instant::now(),
            charged: 0,
            throttled: false,
            draining_since: None,
        }
    }

    /// Open → Draining, stamping the drain clock exactly once.
    fn start_draining(&mut self) {
        if self.phase == ConnState::Open {
            self.phase = ConnState::Draining;
        }
        if self.draining_since.is_none() {
            self.draining_since = Some(Instant::now());
        }
    }

    /// `true` when the connection has sat in `Draining` with bytes still
    /// queued for at least `timeout` — the signal to stop waiting for a
    /// peer that is never going to read its final responses.
    pub(crate) fn drain_expired(&self, now: Instant, timeout: Duration) -> bool {
        self.phase == ConnState::Draining
            && self
                .draining_since
                .is_some_and(|since| now.saturating_duration_since(since) >= timeout)
    }

    /// Bytes still queued toward the peer (trace payload for an expired
    /// drain).
    pub(crate) fn queued_bytes(&self) -> usize {
        self.out.len()
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// The interest mask this connection wants right now: reads while open
    /// and under the backpressure watermark, writes while bytes are queued.
    pub(crate) fn desired_interest(&self) -> u32 {
        let mut mask = EPOLLRDHUP;
        if self.phase == ConnState::Open && !self.out.over_watermark() && !self.throttled {
            mask |= EPOLLIN;
        }
        if !self.out.is_empty() {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// The mask registered with the poller (tracked to skip no-op MODs).
    pub(crate) fn registered_interest(&self) -> u32 {
        self.registered
    }

    pub(crate) fn set_registered_interest(&mut self, mask: u32) {
        self.registered = mask;
    }

    pub(crate) fn finished(&self) -> bool {
        matches!(self.phase, ConnState::Closed)
    }

    pub(crate) fn is_draining(&self) -> bool {
        matches!(self.phase, ConnState::Draining)
    }

    /// `true` when the connection has made no progress for `now -
    /// last_activity >= idle_timeout`.
    pub(crate) fn idle_since(&self, now: Instant) -> std::time::Duration {
        now.saturating_duration_since(self.last_activity)
    }

    /// Reads until the socket is empty (a short read or `EWOULDBLOCK`), EOF,
    /// or the per-turn budget is exhausted (level-triggered epoll re-arms
    /// if bytes remain), then processes and flushes. Any I/O error closes
    /// the connection.
    pub(crate) fn on_readable(&mut self, service: &S, worker: &mut S::Worker, turn: &mut Turn<'_>) {
        let (config, bytes, flushes, now) = (turn.config, turn.bytes, turn.flushes, turn.now);
        let (pool, chunk) = (&mut *turn.pool, &mut *turn.chunk);
        if self.phase != ConnState::Open {
            // Late readiness after Close/Drain: nothing to read any more.
            self.flush(pool, flushes, now);
            return self.settle(bytes);
        }
        let mut budget = READ_BUDGET;
        while budget > 0 {
            if bytes.exhausted() {
                // Global byte budget spent: pause this connection's reads
                // (stopping it producing more buffered responses) until
                // the worker sees the ledger recover.
                self.throttled = true;
                let obs = rp_obs::global();
                obs.net.backpressure_stalls_total.inc();
                obs.trace
                    .record(rp_obs::TraceKind::Backpressure, bytes.used() as u64);
                break;
            }
            let mut asked = chunk.len();
            let read_result = match rp_fault::point("net.read") {
                Some(rp_fault::IoFault::Error(e)) => Err(e),
                // A scripted short read still reads real bytes — it only
                // clamps how many arrive per call.
                Some(rp_fault::IoFault::Short(n)) => {
                    asked = n.clamp(1, chunk.len());
                    self.stream.read(&mut chunk[..asked])
                }
                None => self.stream.read(chunk),
            };
            match read_result {
                Ok(0) => {
                    // Peer finished sending. Answer what it already sent,
                    // flush, close.
                    self.start_draining();
                    break;
                }
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    self.last_activity = now;
                    if self.input.capacity() == 0 {
                        // First bytes since the buffer was recycled: start
                        // from the worker's pool, not the allocator.
                        self.input = pool.take();
                    }
                    self.input.extend_from_slice(&chunk[..n]);
                    // Hand frames to the service between reads so one
                    // pipelining-heavy peer cannot queue unbounded input.
                    self.process(service, worker, config, pool);
                    if self.out.over_watermark() {
                        // Backpressure trip: reads pause until the queued
                        // bytes drain below the watermark.
                        let obs = rp_obs::global();
                        obs.net.watermark_trips_total.inc();
                        obs.trace
                            .record(rp_obs::TraceKind::Backpressure, self.out.len() as u64);
                        break;
                    }
                    if self.phase != ConnState::Open {
                        break;
                    }
                    if n < asked {
                        // The socket had less than was asked for, so it is
                        // empty now: asking again would only buy an
                        // `EWOULDBLOCK`. Whatever arrives later — the
                        // peer's EOF included — raises readiness again
                        // (epoll is level-triggered).
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.phase = ConnState::Closed;
                    return;
                }
            }
        }
        self.process(service, worker, config, pool);
        self.flush(pool, flushes, now);
        if self.input.is_empty() && self.input.capacity() > 0 {
            // Fully consumed: hand the warm buffer back so an idle
            // connection pins nothing.
            pool.give(std::mem::take(&mut self.input));
        }
        self.settle(bytes);
    }

    pub(crate) fn on_writable(
        &mut self,
        pool: &mut BufPool,
        bytes: &ByteBudget,
        flushes: &FlushObs,
        now: Instant,
    ) {
        self.flush(pool, flushes, now);
        self.settle(bytes);
    }

    /// Reconciles this connection's buffered-byte charge with the global
    /// ledger (called after every readiness event that may have changed
    /// the buffer levels).
    fn settle(&mut self, bytes: &ByteBudget) {
        let now = self.input.len() + self.out.len();
        if now > self.charged {
            bytes.charge(now - self.charged);
        } else {
            bytes.release(self.charged - now);
        }
        self.charged = now;
    }

    /// `true` while reads are paused on the global byte budget.
    pub(crate) fn is_throttled(&self) -> bool {
        self.throttled
    }

    /// Resumes reads after the global byte budget recovered (the caller
    /// reconciles the poller interest).
    pub(crate) fn clear_throttle(&mut self) {
        self.throttled = false;
    }

    /// Server shutdown: one final opportunistic read (requests the kernel
    /// has already buffered get answered), then stop reading and drain.
    pub(crate) fn begin_drain(&mut self, service: &S, worker: &mut S::Worker, turn: &mut Turn<'_>) {
        if self.phase == ConnState::Open {
            self.on_readable(service, worker, turn);
        }
        self.start_draining();
        self.flush(turn.pool, turn.flushes, turn.now);
        self.settle(turn.bytes);
    }

    /// Idle reap: the peer made no progress for the configured timeout.
    /// Whatever is queued is abandoned — an idle peer is by definition not
    /// reading — and the connection closes on the next reconcile.
    pub(crate) fn close_idle(&mut self) {
        self.phase = ConnState::Closed;
    }

    /// Forwards buffered input to the service and queues its responses.
    fn process(
        &mut self,
        service: &S,
        worker: &mut S::Worker,
        config: &NetConfig,
        pool: &mut BufPool,
    ) {
        if self.input.is_empty() || self.phase == ConnState::Closed {
            return;
        }
        let quota = match config.max_requests_per_conn {
            Some(max) => max.saturating_sub(self.served),
            None => u64::MAX,
        };
        // A panicking service must not take the worker (and every other
        // connection it serves) down with it. The connection's own state is
        // what the unwind may have torn — connection state and buffers are
        // poisoned-and-shed below, and the worker/service state is required
        // to stay consistent across an unwinding `on_data` (the kv service
        // keeps per-worker state in plain counters and a read-side handle,
        // both fine to reuse), which is what the `AssertUnwindSafe` asserts.
        let outcome = {
            let input = &mut self.input;
            let out = &mut self.out;
            let state = &mut self.state;
            catch_unwind(AssertUnwindSafe(move || {
                // Lets a chaos plan inject a handler panic without needing a
                // deliberately-broken service.
                let _ = rp_fault::point("net.on_data");
                let mut io = ConnIo {
                    input,
                    out: out.with_pool(pool),
                    requests: 0,
                    request_quota: quota,
                };
                let action = service.on_data(worker, state, &mut io);
                (action, io.requests)
            }))
        };
        let (action, requests) = match outcome {
            Ok(pair) => pair,
            Err(_) => {
                // Poisoned connection: the decoder may have died mid-frame,
                // so nothing buffered can be trusted. Drop the input, tell
                // the peer in protocol terms, and shed the connection —
                // the worker keeps serving everyone else.
                self.input.clear();
                self.out.push(S::PANIC_REPLY.to_vec());
                self.start_draining();
                let obs = rp_obs::global();
                obs.net.conn_panics_total.inc();
                obs.trace
                    .record(rp_obs::TraceKind::ConnPanic, self.fd() as u64);
                return;
            }
        };
        self.served = self.served.saturating_add(requests);
        match action {
            Action::Continue => {}
            Action::Close => {
                // Whatever the peer pipelined behind its last request must
                // not reach the service on a later `process` of this event.
                self.input.clear();
                self.start_draining();
            }
        }
        if let Some(max) = config.max_requests_per_conn {
            if self.served >= max {
                // Budget spent: everything answered so far still flushes,
                // then the connection closes.
                self.start_draining();
            }
        }
    }

    /// Flushes what the socket accepts; progress stamps the connection
    /// active as of `now`, the worker's clock reading for this event.
    fn flush(&mut self, pool: &mut BufPool, flushes: &FlushObs, now: Instant) {
        let before = self.out.len();
        // Scatter-gather: every queued segment (header, shared payload,
        // trailer, the next pipelined reply...) goes out in one `writev`
        // batch instead of one `write` each.
        let mut sink = FdSink {
            fd: self.stream.as_raw_fd(),
        };
        match self.out.flush_vectored(&mut sink, pool, flushes) {
            Ok(FlushState::Drained) => {
                if self.phase == ConnState::Draining {
                    self.phase = ConnState::Closed;
                }
            }
            Ok(FlushState::Blocked) => {}
            Err(_) => self.phase = ConnState::Closed,
        }
        if self.out.len() < before {
            // The peer accepted bytes: that is progress too (a client
            // slowly streaming a large response down is not idle).
            self.last_activity = now;
        }
    }

    /// Abandons the connection regardless of queued data (drain deadline).
    pub(crate) fn force_close(&mut self) {
        self.phase = ConnState::Closed;
    }

    /// Returns the connection's warm buffers to the worker's pool and
    /// releases its byte-budget charge (called once, as the worker
    /// deregisters a finished connection).
    pub(crate) fn recycle(&mut self, pool: &mut BufPool, bytes: &ByteBudget) {
        if self.input.capacity() > 0 {
            pool.give(std::mem::take(&mut self.input));
        }
        self.out.recycle_into(pool);
        self.settle(bytes);
    }
}
