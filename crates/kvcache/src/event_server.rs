//! The cache server on the `rp-net` epoll reactor.
//!
//! [`EventServer`] serves every connection from a fixed pool of reactor
//! workers: requests are framed incrementally (a command may arrive
//! one byte at a time), responses to pipelined requests are batched into
//! single writes, a slow reader that stops draining its responses gets its
//! *reads* paused instead of ballooning server memory, and graceful
//! shutdown answers everything already received before closing.
//!
//! # The QSBR read path
//!
//! By default the reactor workers serve GETs through the QSBR read-side
//! flavor ([`ReadSide::Qsbr`]): each worker registers a
//! [`rp_hash::QsbrReadHandle`] at startup ([`rp_net::Service`]'s
//! `on_worker_start` hook runs on the worker thread), lookups inside a
//! batch pay **no locks, no fences, no atomic RMW at all**, one quiescent
//! state is announced per event batch (`on_batch_end`), and the handle goes
//! offline while the worker parks in `epoll_wait` (`on_park`/`on_unpark`)
//! so an idle worker never stalls writers. Because the serving threads are
//! QSBR readers, they postpone all grace-period work; a background
//! [`Reclaimer`] (plus the engine's maintenance thread, when enabled)
//! absorbs deferred frees instead. `--read-side ebr` restores the guard
//! path for A/B comparisons — that flavor difference is what
//! `benchmark/`'s `rcu.pin_ns` and `rcu.qsbr_quiescent_ns` rungs measure.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

use rp_net::{Action, ConnIo, EventLoop, NetConfig, NetStats, Service};
use rp_rcu::Reclaimer;

use crate::engine::{CacheEngine, EngineReadCtx, ReadSide};
use crate::protocol::{Decoded, RefDecoder};
use crate::server::{execute_ref_observed, ServerConfig};

/// The memcached text protocol as an [`rp_net::Service`].
///
/// Per-connection state is exactly one [`RefDecoder`] (two words of
/// defensive skip state — the bytes themselves stay in the reactor's
/// per-connection input buffer); per-worker state is the read-side context
/// ([`EngineReadCtx`] — a registered QSBR handle, or nothing for EBR);
/// everything else (the engine, statistics) is shared.
///
/// `on_data` is the repo's hottest loop, and it is **allocation-free in
/// steady state**: requests are decoded *in place* (keys and payloads
/// borrow from [`ConnIo::input`]), executed through the engines'
/// byte-keyed [`CacheEngine::get_ref`] lookups, and their replies
/// serialised straight into the connection's pooled output queue
/// ([`ConnIo::out`]) — no owned request, no intermediate `Vec<u8>`, no
/// copy of a cached value smaller than the coalescing threshold. N
/// pipelined requests arriving in one read still produce N replies in one
/// write.
pub struct KvService {
    engine: Arc<dyn CacheEngine>,
    read_side: ReadSide,
}

impl KvService {
    /// Wraps `engine` for the reactor, serving GETs through `read_side`.
    pub fn new(engine: Arc<dyn CacheEngine>, read_side: ReadSide) -> KvService {
        KvService { engine, read_side }
    }
}

/// A reactor worker's serving state: the read-side context plus the
/// worker's private `rp-obs` metric shard (requests, decode errors,
/// per-opcode latency histograms). Keeping a `&'static` shard reference
/// here means the hot path never touches the shard-selection mask.
pub struct KvWorker {
    ctx: EngineReadCtx,
    kv: &'static rp_obs::KvWorkerObs,
    /// Reactor ordinal, stamped into slow-log spans as the serving worker.
    ordinal: u64,
}

impl Service for KvService {
    type Conn = RefDecoder;
    type Worker = KvWorker;

    fn on_worker_start(&self, worker: usize) -> KvWorker {
        // Runs on the worker thread, so the QSBR registration (when chosen)
        // is pinned to the thread that will serve the lookups.
        KvWorker {
            ctx: EngineReadCtx::new(self.read_side),
            kv: rp_obs::global().kv.shards.for_worker(worker),
            ordinal: worker as u64,
        }
    }

    fn on_connect(&self, _peer: SocketAddr) -> RefDecoder {
        RefDecoder::new()
    }

    fn on_data(
        &self,
        worker: &mut KvWorker,
        decoder: &mut RefDecoder,
        io: &mut ConnIo<'_>,
    ) -> Action {
        let mut offset = 0;
        let action = loop {
            if io.requests >= io.request_quota {
                // Per-connection budget spent; the reactor drains what has
                // been answered and closes.
                break Action::Continue;
            }
            // Predict whether the request this step may complete will be
            // the sampled 1-in-N one (the shard counter is effectively
            // single-writer, so the prediction is exact unless workers
            // outnumber metric shards) and time the decode step only then
            // — the unsampled path keeps zero clock reads.
            let decode_timer = if rp_obs::sample_latency(worker.kv.requests.get() + 1) {
                rp_obs::timer()
            } else {
                None
            };
            let (used, decoded) = decoder.step(&io.input[offset..]);
            offset += used;
            match decoded {
                Decoded::Request(request) => {
                    io.requests += 1;
                    let decode_ns = rp_obs::elapsed_ns(decode_timer).unwrap_or(0);
                    if execute_ref_observed(
                        &*self.engine,
                        &request,
                        &mut worker.ctx,
                        &mut io.out,
                        worker.kv,
                        worker.ordinal,
                        decode_ns,
                    ) {
                        break Action::Close;
                    }
                }
                Decoded::Bad(error) => {
                    io.requests += 1;
                    worker.kv.decode_errors.inc();
                    error.write_wire(&mut io.out);
                }
                Decoded::NeedMore => break Action::Continue,
            }
        };
        io.input.drain(..offset);
        action
    }

    fn on_batch_end(&self, worker: &mut KvWorker) {
        // Every response of the batch has been copied out; the worker holds
        // no references into the engine's index. One announcement per
        // batch, amortised over every lookup the batch served.
        worker.ctx.quiescent();
        // QSBR workers postpone writer-side grace work (auto-resize); if
        // every writer is a QSBR worker, someone must catch up or the
        // index never resizes. This is that someone: between batches, with
        // the handle offline so grace waits cannot deadlock on this
        // thread. A cheap threshold no-op when the index is maintained or
        // inside its load-factor bounds.
        if matches!(self.read_side, ReadSide::Qsbr) {
            let engine = &self.engine;
            worker.ctx.with_offline(|| engine.housekeeping());
        }
    }

    fn on_park(&self, worker: &mut KvWorker) {
        worker.ctx.park();
    }

    fn on_unpark(&self, worker: &mut KvWorker) {
        worker.ctx.unpark();
    }
}

/// A running cache server.
pub struct EventServer {
    inner: EventLoop,
    engine: Arc<dyn CacheEngine>,
    read_side: ReadSide,
    /// Absorbs deferred frees while the workers are QSBR readers (QSBR
    /// workers postpone all grace-period work; without maintenance or this
    /// thread, retired nodes would accumulate unboundedly).
    _reclaimer: Option<Reclaimer>,
}

impl EventServer {
    /// Binds `127.0.0.1:<config.port>` (0 picks a free port) and serves
    /// `engine` exactly as `config` describes.
    pub fn start(engine: Arc<dyn CacheEngine>, config: &ServerConfig) -> io::Result<EventServer> {
        // A serving process watches its own grace periods (see
        // `rp_rcu::stall`): a wedged reader surfaces in STATS TRACE and
        // `rcu_grace_stalls_total` instead of as a silent writer hang.
        rp_rcu::stall::ensure_global_watchdog();
        // Arm scripted fault injection when RP_FAULT_PLAN is set (no-op —
        // one relaxed load per failpoint — otherwise). Every serving binary
        // starts its server here, so chaos runs need no code changes.
        rp_fault::arm_from_env();
        let read_side = config.read_side;
        let net = NetConfig {
            workers: config.workers.max(1),
            drain_timeout: config.drain_timeout,
            idle_timeout: config.idle_timeout,
            max_requests_per_conn: config.max_requests_per_conn,
            max_connections: config.max_connections,
            max_total_bytes: config.max_total_bytes,
            // A peer shed at admission hears why, in protocol terms,
            // instead of a bare close.
            shed_reply: b"SERVER_ERROR busy\r\n".to_vec(),
            // A connection whose handler panicked hears why too; the panic
            // itself is contained by the reactor (the worker keeps
            // serving) and only the poisoned connection is shed.
            panic_reply: b"SERVER_ERROR internal panic\r\n".to_vec(),
            ..NetConfig::default()
        };
        let service = Arc::new(KvService::new(Arc::clone(&engine), read_side));
        let addr: SocketAddr = ([127, 0, 0, 1], config.port).into();
        let inner = EventLoop::bind(addr, service, net)?;
        let reclaimer = match read_side {
            ReadSide::Ebr => None,
            ReadSide::Qsbr => Some(Reclaimer::spawn_global()),
        };
        Ok(EventServer {
            inner,
            engine,
            read_side,
            _reclaimer: reclaimer,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &Arc<dyn CacheEngine> {
        &self.engine
    }

    /// The read-side flavor serving this server's GETs.
    pub fn read_side(&self) -> ReadSide {
        self.read_side
    }

    /// Number of reactor worker threads — the server's entire thread
    /// budget, independent of the connection count.
    pub fn worker_count(&self) -> usize {
        self.inner.worker_count()
    }

    /// Reactor connection counters.
    pub fn net_stats(&self) -> NetStats {
        self.inner.stats()
    }

    /// Graceful shutdown: stop accepting, answer every request already
    /// received, flush, close, join the workers. Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}
