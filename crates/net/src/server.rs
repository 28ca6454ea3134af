//! The N-worker event loop: one nonblocking listener shared by every
//! worker's epoll instance (`EPOLLEXCLUSIVE`, so the kernel hands each
//! ready accept to exactly one worker — `SO_REUSEPORT`-style sharding with
//! a single socket), plus per-worker connection tables, buffer pools and
//! wakeup eventfds.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::budget::ByteBudget;
use crate::conn::{Connection, Turn};
use crate::poller::{waker_pair, Event, Poller, WakeReceiver, Waker, EPOLLIN};
use crate::pool::BufPool;
use crate::sys::sys_set_nonblocking;
use crate::{NetConfig, Service};
use rp_obs::FlushObs;

/// Token for the shared listener in every worker's poller.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token for a worker's wakeup eventfd.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// `ENFILE`: the system-wide file table is full.
const ENFILE: i32 = 23;
/// `EMFILE`: the process's fd table is full.
const EMFILE: i32 = 24;

/// Events per `epoll_wait`: one wait sees a busy worker's whole ready set.
const EVENTS_PER_WAIT: usize = 256;
/// Bytes per `read(2)`, a worker's one scratch buffer: a deep pipeline in one call.
const READ_CHUNK: usize = 16 * 1024;
/// Buffers a worker's pool keeps, so idle connections pin no warm buffers.
const POOL_BUFFERS: usize = 64;
/// Largest buffer the pool takes back; one grown past it by a huge reply is freed.
const POOL_BUFFER_CAPACITY: usize = 256 * 1024;
/// Listener pause after EMFILE/ENFILE, or the level-triggered listener spins the worker.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

fn min_timeout(current: Option<Duration>, candidate: Duration) -> Option<Duration> {
    Some(current.map_or(candidate, |c| c.min(candidate)))
}

/// Counters aggregated across workers.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Connections accepted since the server started.
    pub accepted: u64,
    /// Connections currently open.
    pub current_connections: usize,
    /// Connections refused at admission (the `max_connections` limit or
    /// an exhausted byte budget).
    pub refused: u64,
    /// Accepted connections lost to OS-level setup failures (nonblocking
    /// toggle, epoll registration).
    pub accept_errors: u64,
    /// Connections closed by the idle reaper.
    pub idle_reaped: u64,
    /// Draining connections force-closed at the drain deadline because
    /// the peer never drained the final flush.
    pub drains_expired: u64,
    /// Times the listener was backed off after `accept()` returned
    /// EMFILE/ENFILE (fd-table exhaustion).
    pub accept_backoffs: u64,
    /// Bytes currently buffered across all connections (the level the
    /// global byte budget bounds).
    pub bytes_buffered: usize,
}

struct Shared {
    listener: TcpListener,
    /// Loaded by every worker on every loop turn, so it sits on a line
    /// pair of its own: `bytes` beside it is written on every settle.
    shutdown: OwnLine<AtomicBool>,
    accepted: AtomicU64,
    refused: AtomicU64,
    accept_errors: AtomicU64,
    idle_reaped: AtomicU64,
    drains_expired: AtomicU64,
    accept_backoffs: AtomicU64,
    current: AtomicUsize,
    /// The process-wide buffered-byte ledger (admission control).
    bytes: ByteBudget,
}

/// A value on 128 bytes of its own: an x86_64 core prefetches lines in
/// pairs, so no other field shares either line.
#[repr(align(128))]
struct OwnLine<T>(T);

/// A running epoll event-loop server.
///
/// Thousands of idle connections cost two buffers each, not a thread: the
/// server spawns exactly [`NetConfig::workers`] threads, ever.
pub struct EventLoop {
    addr: SocketAddr,
    shared: Arc<Shared>,
    wakers: Vec<Waker>,
    workers: Vec<JoinHandle<()>>,
}

impl EventLoop {
    /// Binds `addr` and starts `config.workers` worker threads serving
    /// `service`.
    pub fn bind<S: Service>(
        addr: SocketAddr,
        service: Arc<S>,
        config: NetConfig,
    ) -> io::Result<EventLoop> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            listener,
            shutdown: OwnLine(AtomicBool::new(false)),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            idle_reaped: AtomicU64::new(0),
            drains_expired: AtomicU64::new(0),
            accept_backoffs: AtomicU64::new(0),
            current: AtomicUsize::new(0),
            bytes: ByteBudget::new(config.max_total_bytes),
        });

        let workers_wanted = config.workers.max(1);
        let mut wakers = Vec::with_capacity(workers_wanted);
        let mut workers = Vec::with_capacity(workers_wanted);
        for idx in 0..workers_wanted {
            let (waker, receiver) = waker_pair()?;
            let worker = Worker::new(
                idx,
                Arc::clone(&shared),
                Arc::clone(&service),
                config.clone(),
                receiver,
            )?;
            wakers.push(waker);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rp-net-worker-{idx}"))
                    .spawn(move || worker.run())?,
            );
        }

        Ok(EventLoop {
            addr,
            shared,
            wakers,
            workers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of worker threads (the server's entire thread budget).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Aggregated connection counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            refused: self.shared.refused.load(Ordering::Relaxed),
            accept_errors: self.shared.accept_errors.load(Ordering::Relaxed),
            idle_reaped: self.shared.idle_reaped.load(Ordering::Relaxed),
            drains_expired: self.shared.drains_expired.load(Ordering::Relaxed),
            accept_backoffs: self.shared.accept_backoffs.load(Ordering::Relaxed),
            current_connections: self.shared.current.load(Ordering::Relaxed),
            bytes_buffered: self.shared.bytes.used(),
        }
    }

    /// Graceful shutdown: stop accepting, answer every request already
    /// received, flush every queued response (bounded by
    /// [`NetConfig::drain_timeout`]), close, and join the workers.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.0.store(true, Ordering::SeqCst);
        // Drain the wakers: joining a worker closes its eventfd, so a
        // repeat shutdown (Drop always issues one) must not write to the
        // stale — possibly kernel-reused — fd numbers.
        for waker in self.wakers.drain(..) {
            let _ = waker.wake();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct Worker<S: Service> {
    idx: usize,
    shared: Arc<Shared>,
    service: Arc<S>,
    config: NetConfig,
    poller: Poller,
    wake: WakeReceiver,
    conns: HashMap<u64, Connection<S>>,
    /// Shared read scratch buffer (one per worker, not per event).
    scratch: Vec<u8>,
    /// The worker's buffer free list: connection input buffers and
    /// response segments cycle through here instead of the allocator.
    pool: BufPool,
    /// This worker's shard of the flush counters.
    flushes: &'static FlushObs,
    /// Set when a dispatch left at least one connection throttled on the
    /// global byte budget. While set, the worker polls on a short leash —
    /// the budget may be freed by *another* worker's flushes, which cannot
    /// wake this one's epoll.
    throttled_reads: bool,
    /// Listener backed off after `accept()` hit EMFILE/ENFILE: EPOLLIN on
    /// the (level-triggered) listener is disarmed until this deadline, or
    /// the worker would spin re-accepting into an exhausted fd table.
    listener_paused_until: Option<Instant>,
    /// Connections currently in `Draining` during normal operation. The
    /// drain-deadline sweep only visits these, and their presence puts the
    /// poll timeout on a leash (an absent peer generates no events, so the
    /// deadline needs a timer).
    draining_conns: HashSet<u64>,
}

impl<S: Service> Worker<S> {
    fn new(
        idx: usize,
        shared: Arc<Shared>,
        service: Arc<S>,
        config: NetConfig,
        wake: WakeReceiver,
    ) -> io::Result<Self> {
        let poller = Poller::new(EVENTS_PER_WAIT)?;
        poller.add(wake.raw_fd(), EPOLLIN, TOKEN_WAKER)?;
        poller.add_exclusive(shared.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        let scratch = vec![0_u8; READ_CHUNK];
        let pool = BufPool::new(POOL_BUFFERS, POOL_BUFFER_CAPACITY);
        Ok(Worker {
            idx,
            shared,
            service,
            config,
            poller,
            wake,
            conns: HashMap::new(),
            scratch,
            pool,
            flushes: rp_obs::global().net.flushes.for_worker(idx),
            throttled_reads: false,
            listener_paused_until: None,
            draining_conns: HashSet::new(),
        })
    }

    fn run(mut self) {
        let mut pending: Vec<Event> = Vec::new();
        let mut draining = false;
        let mut drain_deadline = Instant::now();
        // Idle reaping needs periodic wakeups even when no fd is ready; a
        // quarter of the timeout keeps reap latency within ~1.25x of the
        // configured value without busy-waking.
        let sweep_every = self
            .config
            .idle_timeout
            .map(|t| (t / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)));
        let mut next_sweep = sweep_every.map(|every| Instant::now() + every);
        // Created here — on the worker thread — so services can pin
        // thread-local resources (e.g. a QSBR read handle) to this worker.
        let mut wstate = self.service.on_worker_start(self.idx);

        // Draining connections need a timer (an absent peer generates no
        // readiness), but the deadline does not need to be sharp.
        let drain_leash = (self.config.drain_timeout / 4)
            .clamp(Duration::from_millis(10), Duration::from_secs(1));

        // One clock reading per iteration, taken as `epoll_wait` returns:
        // it stamps the batch's reads and flushes, drives the sweeps after
        // it, and sizes the next wait. Never one from before a wait — a
        // connection stamped with it would look idle for the whole wait.
        let mut now = Instant::now();
        loop {
            if let Some(at) = self.listener_paused_until {
                if now >= at && !draining {
                    // The backoff elapsed: re-arm the listener. Accept
                    // sharding survives because the other workers kept
                    // their EPOLLEXCLUSIVE registrations all along.
                    let _ = self.poller.add_exclusive(
                        self.shared.listener.as_raw_fd(),
                        EPOLLIN,
                        TOKEN_LISTENER,
                    );
                    self.listener_paused_until = None;
                }
            }
            let mut timeout = if draining || self.throttled_reads {
                // Draining: poll fast for the deadline. Throttled: the byte
                // budget may recover via another worker's flushes, which
                // cannot wake this epoll — check on a short leash.
                Some(Duration::from_millis(10))
            } else {
                // Wake in time for the next idle sweep; with no sweeps
                // configured, block indefinitely (shutdown arrives via the
                // waker).
                next_sweep.map(|at| at.saturating_duration_since(now))
            };
            if let Some(at) = self.listener_paused_until {
                timeout = min_timeout(timeout, at.saturating_duration_since(now));
            }
            if !self.draining_conns.is_empty() {
                timeout = min_timeout(timeout, drain_leash);
            }
            self.service.on_park(&mut wstate);
            let waited = self.poller.wait(timeout, |ev| pending.push(ev));
            now = Instant::now();
            self.service.on_unpark(&mut wstate);
            if waited.is_err() {
                // epoll itself failed; nothing useful left to drive.
                break;
            }
            if !pending.is_empty() {
                rp_obs::global()
                    .net
                    .batch_size
                    .for_worker(self.idx)
                    .record(pending.len() as u64);
            }

            for ev in pending.drain(..) {
                match ev.token {
                    TOKEN_WAKER => self.wake.drain(),
                    TOKEN_LISTENER => {
                        if !draining {
                            self.accept_ready();
                        }
                    }
                    fd => self.connection_event(fd, ev, &mut wstate, now),
                }
            }
            // The batch is fully serviced: every response queued and
            // flushed as far as the sockets allow, no borrowed state held.
            self.service.on_batch_end(&mut wstate);

            if self.throttled_reads && self.shared.bytes.recovered() {
                self.unthrottle_all();
            }

            if let (Some(every), Some(at)) = (sweep_every, next_sweep) {
                if now >= at && !draining {
                    self.reap_idle(now);
                    next_sweep = Some(now + every);
                }
            }

            if !draining {
                self.expire_drains(now);
            }

            if !draining && self.shared.shutdown.0.load(Ordering::SeqCst) {
                draining = true;
                drain_deadline = now + self.config.drain_timeout;
                let _ = self.poller.delete(self.shared.listener.as_raw_fd());
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        let mut turn = Turn {
                            config: &self.config,
                            pool: &mut self.pool,
                            bytes: &self.shared.bytes,
                            flushes: self.flushes,
                            chunk: &mut self.scratch,
                            now,
                        };
                        conn.begin_drain(&self.service, &mut wstate, &mut turn);
                    }
                    self.reconcile(token);
                }
                self.service.on_batch_end(&mut wstate);
            }

            if draining {
                if self.conns.is_empty() {
                    break;
                }
                if now >= drain_deadline {
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.force_close();
                        }
                        self.reconcile(token);
                    }
                    break;
                }
            }
        }
        let live = self
            .shared
            .current
            .fetch_sub(self.conns.len(), Ordering::Relaxed);
        rp_obs::global()
            .net
            .connections
            .set(live.saturating_sub(self.conns.len()) as u64);
    }

    /// Accepts until the backlog is empty (`EWOULDBLOCK`). Admission is
    /// checked here, before the connection costs anything: over the
    /// connection limit or with the global byte budget exhausted, the peer
    /// gets a best-effort shed reply and an immediate close instead of a
    /// silent hang.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match rp_fault::point("net.accept") {
                Some(rp_fault::IoFault::Error(e)) => Err(e),
                // A "short" accept has no meaning; fall through.
                Some(rp_fault::IoFault::Short(_)) | None => self.shared.listener.accept(),
            };
            match accepted {
                Ok((mut stream, peer)) => {
                    let live = self.shared.current.load(Ordering::Relaxed);
                    if live >= self.config.max_connections || self.shared.bytes.exhausted() {
                        self.shared.refused.fetch_add(1, Ordering::Relaxed);
                        let obs = rp_obs::global();
                        obs.net.conns_shed_total.inc();
                        // The payload is the *live* connection count at the
                        // moment of the shed, not the configured limit: a
                        // trace reader can tell "shed at the connection
                        // wall" from "shed under byte pressure" (live well
                        // below the limit) at a glance.
                        obs.trace.record(rp_obs::TraceKind::ConnShed, live as u64);
                        // Courtesy reply so the peer sees *why* instead of a
                        // bare RST. The just-accepted socket is still in
                        // blocking mode with an empty send buffer, so this
                        // small write cannot block; failures (peer already
                        // gone) are ignored.
                        if !S::SHED_REPLY.is_empty() {
                            use std::io::Write;
                            let _ = stream.write_all(S::SHED_REPLY);
                        }
                        drop(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    // The reactor's contract is nonblocking I/O everywhere;
                    // the raw fcntl mirrors what std's set_nonblocking does.
                    if let Err(e) = sys_set_nonblocking(stream.as_raw_fd()) {
                        self.lost_at_setup(e);
                        continue;
                    }
                    let state = self.service.on_connect(peer);
                    let conn = Connection::<S>::new(stream, state);
                    let token = conn.fd() as u64;
                    if let Err(e) = self
                        .poller
                        .add(conn.fd(), conn.registered_interest(), token)
                    {
                        self.lost_at_setup(e);
                        continue;
                    }
                    self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                    let live = self.shared.current.fetch_add(1, Ordering::Relaxed) + 1;
                    let obs = rp_obs::global();
                    obs.net.accepts_total.inc();
                    obs.net.connections.set(live as u64);
                    self.conns.insert(token, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE)) => {
                    // The fd table is exhausted. The listener is
                    // level-triggered, so breaking would re-fire its
                    // readiness instantly and spin the worker at 100% while
                    // accepting nothing — disarm EPOLLIN on it and come
                    // back after a backoff instead. The pending peer waits
                    // in the accept queue (or gets picked up by a worker
                    // that still has fds).
                    self.pause_listener(e);
                    break;
                }
                // Transient accept errors (ECONNABORTED etc.): keep going.
                Err(_) => break,
            }
        }
    }

    /// Disarms the listener until a short backoff elapses (see
    /// `listener_paused_until`): `accept()` said the process is out of
    /// file descriptors, and retrying in a tight loop cannot fix that.
    fn pause_listener(&mut self, error: io::Error) {
        let _ = self.poller.delete(self.shared.listener.as_raw_fd());
        self.listener_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
        self.shared.accept_backoffs.fetch_add(1, Ordering::Relaxed);
        let obs = rp_obs::global();
        obs.net.accept_backoffs_total.inc();
        obs.trace.record(
            rp_obs::TraceKind::AcceptBackoff,
            error.raw_os_error().unwrap_or(0) as u64,
        );
    }

    /// Accounts for an accepted connection that died during OS-level setup
    /// (nonblocking toggle or epoll registration). Without this the socket
    /// just evaporated: no counter moved, no trace event fired, and a
    /// `rpstat` watcher saw the kernel's accept queue shrink with nothing
    /// to show for it.
    fn lost_at_setup(&self, error: io::Error) {
        self.shared.accept_errors.fetch_add(1, Ordering::Relaxed);
        let obs = rp_obs::global();
        obs.net.accept_errors_total.inc();
        obs.trace.record(
            rp_obs::TraceKind::AcceptError,
            error.raw_os_error().unwrap_or(0) as u64,
        );
    }

    /// Serves one readiness event; `now` is the iteration's clock reading.
    fn connection_event(&mut self, token: u64, ev: Event, wstate: &mut S::Worker, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if ev.writable() {
            conn.on_writable(&mut self.pool, &self.shared.bytes, self.flushes, now);
        }
        if ev.readable() || ev.closed() {
            let mut turn = Turn {
                config: &self.config,
                pool: &mut self.pool,
                bytes: &self.shared.bytes,
                flushes: self.flushes,
                chunk: &mut self.scratch,
                now,
            };
            conn.on_readable(&self.service, wstate, &mut turn);
        }
        if conn.is_throttled() {
            self.throttled_reads = true;
        }
        self.reconcile(token);
    }

    /// Resumes reads on every budget-throttled connection once the global
    /// byte ledger has recovered (hysteresis lives in
    /// [`ByteBudget::recovered`]). Level-triggered epoll re-fires readiness
    /// for bytes that arrived while reads were paused, so nothing is lost.
    fn unthrottle_all(&mut self) {
        let throttled: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.is_throttled())
            .map(|(token, _)| *token)
            .collect();
        for token in throttled {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.clear_throttle();
            }
            self.reconcile(token);
        }
        self.throttled_reads = false;
    }

    /// Closes every connection that has made no progress for the configured
    /// idle timeout.
    fn reap_idle(&mut self, now: Instant) {
        let Some(timeout) = self.config.idle_timeout else {
            return;
        };
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.idle_since(now) >= timeout)
            .map(|(token, _)| *token)
            .collect();
        for token in expired {
            if let Some(conn) = self.conns.get_mut(&token) {
                let idle_us = conn.idle_since(now).as_micros() as u64;
                conn.close_idle();
                self.shared.idle_reaped.fetch_add(1, Ordering::Relaxed);
                let obs = rp_obs::global();
                obs.net.idle_reaped_total.inc();
                obs.trace.record(rp_obs::TraceKind::IdleReap, idle_us);
            }
            self.reconcile(token);
        }
    }

    /// Force-closes every normal-operation draining connection whose peer
    /// has not drained the final flush within the drain timeout. Without
    /// this, one zero-window/absent reader with `idle_timeout: None` (the
    /// default) holds its buffers and fd forever: its flush stays Blocked
    /// and no further event ever fires for it.
    fn expire_drains(&mut self, now: Instant) {
        if self.draining_conns.is_empty() {
            return;
        }
        let timeout = self.config.drain_timeout;
        let expired: Vec<u64> = self
            .draining_conns
            .iter()
            .copied()
            .filter(|token| {
                self.conns
                    .get(token)
                    .is_some_and(|conn| conn.drain_expired(now, timeout))
            })
            .collect();
        for token in expired {
            if let Some(conn) = self.conns.get_mut(&token) {
                let queued = conn.queued_bytes() as u64;
                conn.force_close();
                self.shared.drains_expired.fetch_add(1, Ordering::Relaxed);
                let obs = rp_obs::global();
                obs.net.drains_expired_total.inc();
                obs.trace.record(rp_obs::TraceKind::DrainExpired, queued);
            }
            self.reconcile(token);
        }
    }

    /// Applies a connection's post-event state to the poller: deregisters
    /// finished connections, updates changed interest masks.
    fn reconcile(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.finished() {
            self.drop_connection(token);
            return;
        }
        if conn.is_draining() {
            // Draining is terminal (never back to Open); membership is
            // cleared when the connection drops.
            self.draining_conns.insert(token);
        }
        let want = conn.desired_interest();
        if want != conn.registered_interest() {
            if self.poller.modify(conn.fd(), want, token).is_ok() {
                conn.set_registered_interest(want);
            } else {
                self.drop_connection(token);
            }
        }
    }

    /// Deregisters and drops one connection, recycling its warm buffers
    /// into the worker's pool.
    fn drop_connection(&mut self, token: u64) {
        self.draining_conns.remove(&token);
        if let Some(mut conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.fd());
            conn.recycle(&mut self.pool, &self.shared.bytes);
            let live = self.shared.current.fetch_sub(1, Ordering::Relaxed);
            rp_obs::global()
                .net
                .connections
                .set(live.saturating_sub(1) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::{align_of, offset_of, size_of};

    #[test]
    fn shutdown_shares_no_line_with_the_byte_ledger() {
        assert_eq!(align_of::<Shared>() % 128, 0);
        let flag = offset_of!(Shared, shutdown) / 128;
        let bytes = offset_of!(Shared, bytes);
        assert_ne!(flag, bytes / 128);
        assert_ne!(flag, (bytes + size_of::<ByteBudget>() - 1) / 128);
    }
}
