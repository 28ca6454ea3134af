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
//! so an idle worker never stalls writers. The serving threads' SETs and
//! DELETEs never wait for readers: an index resize is begun by the write
//! that makes it due and finished by the first write after its grace
//! period, and what they retire is freed by `rp_rcu::GraceSync`'s reclaim
//! thread, which serves every read side alike. `--read-side ebr` restores the guard
//! path for A/B comparisons — that flavor difference is what
//! `benchmark/`'s `rcu.pin_ns` and `rcu.qsbr_quiescent_ns` rungs measure.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

use rp_net::{Action, ConnIo, EventLoop, NetStats, Service};

use crate::engine::{CacheEngine, EngineReadCtx, ReadSide, GROUP};
use crate::protocol::{Decoded, RefDecoder, RequestRef};
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
/// byte-keyed [`CacheEngine::get_with`] lookups, and each GET hit's reply
/// copied straight into the connection's pooled output queue
/// ([`ConnIo::out`]) from inside the lookup — no owned request, no
/// intermediate `Vec<u8>`, no reference count taken on a cached value
/// smaller than the coalescing threshold. N pipelined requests arriving in
/// one read still produce N replies in one write. The GET hits and misses
/// of a call are counted in the worker's context and folded into the
/// engine's [`CacheStats`](crate::CacheStats) once, as the call ends —
/// before the reactor flushes any of its replies, so a client that has
/// read a reply sees its GET in any later `stats`, on any connection.
///
/// Pipelined requests are served a *group* at a time: up to
/// [`GROUP`] of them are decoded ahead, their keys handed to
/// [`CacheEngine::prefetch`] so the index's cache misses for all of them
/// are in flight together, and then they are executed in stream order —
/// a group of one is the plain decode-execute step.
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
    // A peer shed at admission hears why, in protocol terms, instead of a
    // bare close.
    const SHED_REPLY: &'static [u8] = b"SERVER_ERROR busy\r\n";
    // A connection whose handler panicked hears why too; the panic itself
    // is contained by the reactor (the worker keeps serving) and only the
    // poisoned connection is shed.
    const PANIC_REPLY: &'static [u8] = b"SERVER_ERROR internal panic\r\n";

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
        let action = 'serve: loop {
            // Decode a group ahead: up to `GROUP` complete requests, never
            // past the per-connection budget (once it is spent the reactor
            // drains what has been answered and closes). The requests
            // borrow the input buffer, not the decoder, so the group is a
            // stack array of slices: nothing is copied, nothing allocates.
            let room = (io.request_quota - io.requests).min(GROUP as u64) as usize;
            let mut group = [(Decoded::NeedMore, 0_u64); GROUP];
            let mut decoded = 0;
            let mut keys: [&[u8]; GROUP] = [&[]; GROUP];
            let mut hinted = 0;
            let mut ordinal = worker.kv.requests.get();
            let mut more = true;
            while more && decoded < room {
                // Predict whether the request this step may complete will
                // be the sampled 1-in-N one (the shard counter is
                // effectively single-writer, so the prediction is exact
                // unless workers outnumber metric shards) and time the
                // decode step only then — the unsampled path keeps zero
                // clock reads.
                let decode_timer = if rp_obs::sample_latency(ordinal + 1) {
                    rp_obs::timer()
                } else {
                    None
                };
                let (used, step) = decoder.step(&io.input[offset..]);
                offset += used;
                let mut hint = |key| {
                    if hinted < GROUP {
                        keys[hinted] = key;
                        hinted += 1;
                    }
                };
                match step {
                    Decoded::Request(request) => {
                        ordinal += 1;
                        group[decoded].1 = rp_obs::elapsed_ns(decode_timer).unwrap_or(0);
                        match request {
                            RequestRef::Get { key }
                            | RequestRef::Set { key, .. }
                            | RequestRef::Delete { key, .. } => hint(key),
                            RequestRef::GetMulti(multi) => multi.iter().for_each(hint),
                            // Nothing after a `quit` runs, so nothing
                            // after it is decoded.
                            RequestRef::Quit => more = false,
                            _ => {}
                        }
                    }
                    Decoded::Bad(_) => {}
                    Decoded::NeedMore => {
                        more = false;
                        break;
                    }
                }
                group[decoded].0 = step;
                decoded += 1;
            }
            if decoded == 0 {
                break Action::Continue;
            }

            // Warm: the group's lookups are independent — a relativistic
            // reader takes no lock and announces nothing, so it may walk
            // all their buckets before serving any — and this starts their
            // cache misses together. A group of one key has nothing to
            // overlap with.
            if hinted < 2 {
                hinted = 0;
            }
            worker.kv.group_keys.record(hinted as u64);
            if hinted > 0 {
                self.engine.prefetch(&keys[..hinted], &worker.ctx);
            }

            // Execute, in stream order.
            for &(step, decode_ns) in &group[..decoded] {
                io.requests += 1;
                match step {
                    Decoded::Request(request) => {
                        if execute_ref_observed(
                            &*self.engine,
                            &request,
                            &mut worker.ctx,
                            &mut io.out,
                            worker.kv,
                            worker.ordinal,
                            decode_ns,
                        ) {
                            break 'serve Action::Close;
                        }
                    }
                    Decoded::Bad(error) => {
                        worker.kv.decode_errors.inc();
                        error.write_wire(&mut io.out);
                    }
                    Decoded::NeedMore => unreachable!("only decoded steps join a group"),
                }
            }
            if !more {
                break Action::Continue;
            }
        };
        io.input.drain(..offset);
        worker.ctx.fold(self.engine.stats());
        action
    }

    fn on_batch_end(&self, worker: &mut KvWorker) {
        // Every response of the batch has been copied out; the worker holds
        // no references into the engine's index. One announcement per
        // batch, amortised over every lookup the batch served.
        worker.ctx.quiescent();
        // Nothing is left to fold unless an `on_data` call unwound (the
        // reactor contains a panicking handler and keeps serving).
        worker.ctx.fold(self.engine.stats());
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
}

impl EventServer {
    /// Binds `127.0.0.1:<config.port>` (0 picks a free port) and serves
    /// `engine` exactly as `config` describes.
    pub fn start(engine: Arc<dyn CacheEngine>, config: &ServerConfig) -> io::Result<EventServer> {
        // Arm scripted fault injection when RP_FAULT_PLAN is set (no-op —
        // one relaxed load per failpoint — otherwise). Every serving binary
        // starts its server here, so chaos runs need no code changes.
        rp_fault::arm_from_env();
        let read_side = config.read_side;
        let service = Arc::new(KvService::new(Arc::clone(&engine), read_side));
        let addr: SocketAddr = ([127, 0, 0, 1], config.port).into();
        let inner = EventLoop::bind(addr, service, config.net.clone())?;
        Ok(EventServer {
            inner,
            engine,
            read_side,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RpEngine;
    use rp_net::{BufPool, VectoredWrite, WriteBuf, HIGH_WATERMARK};

    /// Collects what a flush writes.
    struct Wire(Vec<u8>);

    impl VectoredWrite for Wire {
        fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
            bufs.iter().for_each(|buf| self.0.extend_from_slice(buf));
            Ok(bufs.iter().map(|buf| buf.len()).sum())
        }
    }

    /// One `on_data` call on `input` as the reactor makes it, on a worker
    /// with a metric shard of its own: the action, the requests counted,
    /// the reply bytes, and that shard.
    fn serve(
        input: &mut Vec<u8>,
        quota: u64,
    ) -> (Action, u64, Vec<u8>, &'static rp_obs::KvWorkerObs) {
        let service = KvService::new(Arc::new(RpEngine::new()), ReadSide::Ebr);
        let mut worker = KvWorker {
            ctx: EngineReadCtx::new(ReadSide::Ebr),
            kv: Box::leak(Box::default()),
            ordinal: 0,
        };
        let (mut out, mut pool) = (WriteBuf::new(HIGH_WATERMARK), BufPool::new(4, 1 << 16));
        let mut io = ConnIo {
            input,
            out: out.with_pool(&mut pool),
            requests: 0,
            request_quota: quota,
        };
        let action = service.on_data(&mut worker, &mut RefDecoder::new(), &mut io);
        let requests = io.requests;
        let mut wire = Wire(Vec::new());
        let counts = rp_obs::global().net.flushes.for_worker(0);
        out.flush_vectored(&mut wire, &mut pool, counts).unwrap();
        (action, requests, wire.0, worker.kv)
    }

    /// The group histogram as `(groups, keys hinted in all, largest group)`
    /// — exact, the values being small.
    fn groups(kv: &rp_obs::KvWorkerObs) -> (u64, u64, u64) {
        let snapshot = kv.group_keys.snapshot();
        (snapshot.count(), snapshot.sum_approx(), snapshot.max())
    }

    #[test]
    fn a_read_is_served_in_groups_and_each_group_is_recorded_once() {
        // Forty pipelined GETs: two full groups and one of eight; the
        // half-received request behind them stays buffered.
        let mut input = b"get k\r\n".repeat(40);
        input.extend_from_slice(b"get k");
        let (action, requests, replies, kv) = serve(&mut input, u64::MAX);
        assert_eq!((action, requests), (Action::Continue, 40));
        assert_eq!(replies, b"END\r\n".repeat(40));
        assert_eq!(input, b"get k");
        assert_eq!(groups(kv), (3, 40, 16));
        assert_eq!(kv.requests.get(), 40);
        // Ordinals 1, 17 and 33 were the sampled ones.
        assert_eq!(kv.get_ns.snapshot().count(), 3);

        // A lone request, and a group whose only key is one `get`'s: no
        // hint call, recorded as 0. A 20-key `get` hands over what fits.
        let (_, _, _, kv) = serve(&mut b"get k\r\n".to_vec(), u64::MAX);
        assert_eq!(groups(kv), (1, 0, 0));
        let (_, requests, _, kv) = serve(&mut b"version\r\nget k\r\nbogus\r\n".to_vec(), u64::MAX);
        assert_eq!((requests, groups(kv)), (3, (1, 0, 0)));
        assert_eq!(kv.decode_errors.get(), 1);
        let many = format!("get {}\r\n", "k ".repeat(20));
        let (_, _, _, kv) = serve(&mut many.into_bytes(), u64::MAX);
        assert_eq!(groups(kv), (1, 16, 16));
    }

    #[test]
    fn a_group_stops_at_the_budget_and_at_quit() {
        // The budget falls inside the second group: 20 answered, the rest
        // left in the buffer undecoded.
        let mut input = b"get k\r\n".repeat(32);
        let (action, requests, replies, kv) = serve(&mut input, 20);
        assert_eq!((action, requests), (Action::Continue, 20));
        assert_eq!(replies, b"END\r\n".repeat(20));
        assert_eq!(input, b"get k\r\n".repeat(12));
        assert_eq!(groups(kv), (2, 20, 16));

        // Nothing behind a `quit` is decoded, hinted or run.
        let mut input = b"get a\r\nget b\r\nquit\r\nget c\r\nget d\r\n".to_vec();
        let (action, requests, replies, kv) = serve(&mut input, u64::MAX);
        assert_eq!((action, requests), (Action::Close, 3));
        assert_eq!(replies, b"END\r\nEND\r\n");
        assert_eq!(input, b"get c\r\nget d\r\n");
        assert_eq!(groups(kv), (1, 2, 2));
    }
}
