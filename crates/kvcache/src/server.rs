//! The cache server's configuration and its request-execution path.
//!
//! [`ServerConfig`] describes a server ([`EventServer`](crate::EventServer)
//! runs it on the `rp-net` epoll reactor); [`execute_ref`] turns one decoded
//! request into reply bytes.

use rp_net::{BufWrite, NetConfig, COALESCE_LIMIT};

use crate::audit::{self, SharedWrite};
use crate::engine::{CacheEngine, EngineReadCtx, ReadSide, StoreOutcome};
use crate::protocol::{put_decimal, write_value, RequestRef, StatsSub};
use crate::telemetry;
use crate::{Deadline, Item, Payload};

/// Version string reported by the `version` command.
pub const SERVER_VERSION: &str = "relativist-kvcache 0.1.0";

/// How to run a cache server, read by
/// [`EventServer::start`](crate::EventServer::start): it binds `port`,
/// serves GETs through `read_side` and hands `net` to the reactor.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// TCP port on 127.0.0.1 (0, the default, picks a free port).
    pub port: u16,
    /// Read-side RCU flavor serving GETs. Defaults to QSBR: the pinned
    /// reactor workers announce a quiescent state per event batch and go
    /// offline while parked, making lookups entirely barrier-free.
    pub read_side: ReadSide,
    /// The reactor's settings: worker threads, the drain and idle
    /// timeouts, the per-connection request budget and the admission
    /// limits. A connection shed at admission hears `SERVER_ERROR busy`.
    pub net: NetConfig,
}

impl ServerConfig {
    /// The defaults with `workers` reactor threads.
    pub fn event_loop(workers: usize) -> ServerConfig {
        let mut config = ServerConfig::default();
        config.net.workers = workers;
        config
    }

    /// Sets the read-side flavor.
    pub fn with_read_side(mut self, read_side: ReadSide) -> ServerConfig {
        self.read_side = read_side;
        self
    }
}

/// Executes a **borrowed** request against the engine, serialising the
/// reply straight into `out`. Returns `true` when the connection should
/// close (`quit`).
///
/// This is the zero-allocation request pipeline the server runs: keys stay
/// `&[u8]` slices into the connection's read buffer
/// ([`CacheEngine::get_with`] hashes them once and probes the index with no
/// copy), and a GET hit's whole reply — `VALUE` header, payload, trailer —
/// is copied into the connection's pooled output queue in one write while
/// the lookup's read-side section still protects the item; only a payload
/// too large to coalesce is queued by reference instead.
/// A steady-state GET or miss performs no heap allocation at all; SETs
/// allocate only the key and payload that go *into* the table.
///
/// The request's GET hit or miss is folded into the engine's
/// [`CacheStats`](crate::CacheStats) before this returns. The server
/// itself runs the unfolded body and folds once per batch of requests.
pub fn execute_ref(
    engine: &dyn CacheEngine,
    request: &RequestRef<'_>,
    ctx: &mut EngineReadCtx,
    out: &mut impl BufWrite,
) -> bool {
    let quit = execute(engine, request, ctx, out, None);
    ctx.fold(engine.stats());
    quit
}

/// The span of a sampled request; empty for the unsampled rest, which then
/// read no clock.
struct Phases<'a>(Option<&'a mut rp_obs::SlowSpan>);

impl Phases<'_> {
    /// Records the opcode and the key's fingerprint.
    fn tag(&mut self, op: u64, key: Option<&[u8]>) {
        if let Some(span) = self.0.as_deref_mut() {
            span.op = op;
            span.key_hash = key.map(hash_key).unwrap_or(0);
        }
    }

    /// Runs the engine call `f`, timed as the span's *index* phase.
    fn index<R>(&mut self, f: impl FnOnce() -> R) -> R {
        timed(self.0.as_deref_mut().map(|span| &mut span.index_ns), f)
    }

    /// Runs the reply writer `f`, timed as the span's *serialize* phase.
    fn serialize<R>(&mut self, f: impl FnOnce() -> R) -> R {
        timed(self.0.as_deref_mut().map(|span| &mut span.serialize_ns), f)
    }

    /// Looks `key` up and, on a hit, writes its `VALUE` block followed by
    /// `tail` from inside the lookup; `true` on a hit. The copy is timed
    /// as the *serialize* phase and the rest of the lookup as *index*.
    fn get(
        &mut self,
        engine: &dyn CacheEngine,
        key: &[u8],
        ctx: &mut EngineReadCtx,
        out: &mut impl BufWrite,
        tail: &[u8],
    ) -> bool {
        let Some(span) = self.0.as_deref_mut() else {
            return engine.get_with(key, ctx, &mut |item| put_value(out, key, item, tail));
        };
        let mut serialize_ns = 0;
        let mut lookup_ns = 0;
        let hit = timed(Some(&mut lookup_ns), || {
            engine.get_with(key, ctx, &mut |item| {
                timed(Some(&mut serialize_ns), || put_value(out, key, item, tail));
            })
        });
        span.serialize_ns += serialize_ns;
        span.index_ns += lookup_ns.saturating_sub(serialize_ns);
        hit
    }
}

/// Runs `f`, adding the time it took to `ns` if there is one.
fn timed<R>(ns: Option<&mut u64>, f: impl FnOnce() -> R) -> R {
    let Some(ns) = ns else { return f() };
    let timer = rp_obs::timer();
    let result = f();
    *ns += rp_obs::elapsed_ns(timer).unwrap_or(0);
    result
}

/// FNV-1a over the request key — a stable fingerprint for the slow log
/// (which must not hold on to borrowed key bytes).
fn hash_key(key: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in key {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Writes one `VALUE` block for `item`, then `tail` (`\r\n`, or
/// `\r\nEND\r\n` closing a single-key GET). A payload of at most
/// [`COALESCE_LIMIT`] bytes goes out in the same single write as its header
/// and tail — copied, from the node itself when it is inline, so no
/// reference count is touched; a larger one is queued by reference, one
/// `Bytes` clone taken while the caller's read-side section still protects
/// the item.
fn put_value(out: &mut impl BufWrite, key: &[u8], item: &Item, tail: &[u8]) {
    let len = item.data.len();
    match item.data.shared() {
        Some(shared) if len > COALESCE_LIMIT => {
            write_value(out, key, item.flags, len, &[], &[]);
            audit::count(SharedWrite::PayloadClone);
            out.put_shared(shared.clone());
            out.put(tail);
        }
        _ => write_value(out, key, item.flags, len, &item.data, tail),
    }
}

/// Writes one `STAT <name> <value>` line of the `stats` reply.
fn put_stat(out: &mut impl BufWrite, name: &str, value: u64) {
    out.put(b"STAT ");
    out.put(name.as_bytes());
    out.put(b" ");
    put_decimal(out, value);
    out.put(b"\r\n");
}

/// The body of [`execute_ref`]. A sampled request brings its `span`: GET,
/// SET and DELETE fill in the opcode and key fingerprint and time the
/// engine call as the *index* phase and reply serialisation as the
/// *serialize* phase; the cold opcodes run unphased.
fn execute(
    engine: &dyn CacheEngine,
    request: &RequestRef<'_>,
    ctx: &mut EngineReadCtx,
    out: &mut impl BufWrite,
    span: Option<&mut rp_obs::SlowSpan>,
) -> bool {
    let mut span = Phases(span);
    match request {
        RequestRef::Get { key } => {
            span.tag(rp_obs::slow::OP_GET, Some(key));
            if !span.get(engine, key, ctx, out, b"\r\nEND\r\n") {
                span.serialize(|| out.put(b"END\r\n"));
            }
        }
        RequestRef::GetMulti(keys) => {
            span.tag(rp_obs::slow::OP_GET, keys.iter().next());
            for key in keys.iter() {
                span.get(engine, key, ctx, out, b"\r\n");
            }
            span.serialize(|| out.put(b"END\r\n"));
        }
        RequestRef::Set {
            key,
            flags,
            exptime,
            data,
            noreply,
        } => {
            span.tag(rp_obs::slow::OP_SET, Some(key));
            // Keys are sub-slices of a validated UTF-8 line; the engine API
            // takes &str, so re-view (a scan on this cold-enough write
            // path, never a copy).
            let outcome = span.index(|| match std::str::from_utf8(key) {
                Ok(key) => engine.set(
                    key,
                    Item {
                        expires_at: Deadline::from_exptime(*exptime),
                        flags: *flags,
                        data: Payload::copy_from_slice(data),
                    },
                ),
                Err(_) => StoreOutcome::NotStored,
            });
            span.serialize(|| {
                if !noreply {
                    out.put(match outcome {
                        StoreOutcome::Stored => &b"STORED\r\n"[..],
                        StoreOutcome::NotStored => &b"NOT_STORED\r\n"[..],
                    });
                }
            });
        }
        RequestRef::Delete { key, noreply } => {
            span.tag(rp_obs::slow::OP_DELETE, Some(key));
            let deleted =
                span.index(|| std::str::from_utf8(key).is_ok_and(|key| engine.delete(key)));
            span.serialize(|| {
                if !noreply {
                    out.put(if deleted {
                        &b"DELETED\r\n"[..]
                    } else {
                        &b"NOT_FOUND\r\n"[..]
                    });
                }
            });
        }
        // Both views first fold what this context counted, so every GET it
        // served shows in them.
        RequestRef::Stats => {
            let stats = engine.stats();
            ctx.fold(stats);
            out.put(b"STAT engine ");
            out.put(engine.name().as_bytes());
            out.put(b"\r\n");
            put_stat(out, "curr_items", engine.len() as u64);
            put_stat(out, "get_hits", stats.hits());
            put_stat(out, "get_misses", stats.misses());
            put_stat(out, "evictions", stats.evicted());
            out.put(b"END\r\n");
        }
        RequestRef::StatsProm(sub) => {
            ctx.fold(engine.stats());
            match sub {
                StatsSub::Render => telemetry::render_prometheus(engine, out),
                StatsSub::Reset => telemetry::reset(engine, out),
                StatsSub::Trace(limit) => telemetry::render_trace(*limit, out),
                StatsSub::Slow => telemetry::render_slow(out),
                StatsSub::Json => telemetry::render_json(engine, out),
                StatsSub::Worker(n) => telemetry::render_worker(*n, out),
            }
        }
        RequestRef::Version => {
            out.put(b"VERSION ");
            out.put(SERVER_VERSION.as_bytes());
            out.put(b"\r\n");
        }
        RequestRef::Quit => return true,
    }
    false
}

/// [`execute_ref`] wrapped in the per-opcode `rp-obs` accounting: bumps the
/// worker shard's request counter (exact, one relaxed `fetch_add` — the
/// whole telemetry cost for most requests), and gives every
/// [`rp_obs::LATENCY_SAMPLE`]-th request a span: its service time feeds the
/// opcode's latency histogram, and if it clears the slow threshold the
/// whole span (worker, request id, opcode, key hash, phase breakdown) lands
/// in the slow-request log served by `STATS SLOW`. Unsampled requests run
/// the same body with no span — no clock reads — so the sampling tick
/// bounds the entire telemetry cost; `--stats off` skips the clock reads
/// even when sampled.
///
/// `worker` names the serving reactor worker in slow-log entries;
/// `decode_ns` is the measured cost of the final protocol-decode step when
/// the caller sampled it, 0 otherwise.
pub(crate) fn execute_ref_observed(
    engine: &dyn CacheEngine,
    request: &RequestRef<'_>,
    ctx: &mut EngineReadCtx,
    out: &mut impl BufWrite,
    kv: &rp_obs::KvWorkerObs,
    worker: u64,
    decode_ns: u64,
) -> bool {
    let ordinal = kv.requests.inc_and_get();
    if !rp_obs::sample_latency(ordinal) {
        return execute(engine, request, ctx, out, None);
    }
    let timer = rp_obs::timer();
    let mut span = rp_obs::SlowSpan {
        worker,
        request_id: ordinal,
        op: rp_obs::slow::OP_OTHER,
        decode_ns,
        ..Default::default()
    };
    let quit = execute(engine, request, ctx, out, Some(&mut span));
    if let Some(ns) = rp_obs::elapsed_ns(timer) {
        let hist = match request {
            RequestRef::Get { .. } | RequestRef::GetMulti(_) => &kv.get_ns,
            RequestRef::Set { .. } => &kv.set_ns,
            RequestRef::Delete { .. } => &kv.delete_ns,
            _ => &kv.other_ns,
        };
        hist.record(ns);
        span.total_ns = ns + decode_ns;
        rp_obs::global().kv.slow.record(&span);
    }
    quit
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use crate::protocol::{Decoded, RefDecoder};
    use crate::{LockEngine, RpEngine};

    /// Decodes and executes every request of `wire` against `engine`,
    /// returning the reply bytes.
    fn serve(engine: &dyn CacheEngine, wire: &[u8]) -> Vec<u8> {
        let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
        let mut decoder = RefDecoder::new();
        let mut out = Vec::new();
        let mut offset = 0;
        while offset < wire.len() {
            let (used, decoded) = decoder.step(&wire[offset..]);
            offset += used;
            match decoded {
                Decoded::Request(request) => {
                    if execute_ref(engine, &request, &mut ctx, &mut out) {
                        out.extend_from_slice(b"<quit>");
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        out
    }

    #[test]
    fn get_set_delete_replies_are_exact() {
        for engine in [&LockEngine::new() as &dyn CacheEngine, &RpEngine::new()] {
            assert_eq!(serve(engine, b"set k 2 0 1\r\nv\r\n"), b"STORED\r\n");
            assert_eq!(
                serve(engine, b"get k missing\r\nget k\r\nget missing\r\n"),
                b"VALUE k 2 1\r\nv\r\nEND\r\nVALUE k 2 1\r\nv\r\nEND\r\nEND\r\n"
            );
            assert_eq!(
                serve(engine, b"delete k\r\ndelete k\r\n"),
                b"DELETED\r\nNOT_FOUND\r\n"
            );
            let huge = vec![b'x'; crate::engine::MAX_ITEM_SIZE + 1];
            let mut oversized = format!("set big 0 0 {}\r\n", huge.len()).into_bytes();
            oversized.extend_from_slice(&huge);
            oversized.extend_from_slice(b"\r\n");
            assert_eq!(serve(engine, &oversized), b"NOT_STORED\r\n");
        }
    }

    #[test]
    fn noreply_commands_write_nothing() {
        let engine = RpEngine::new();
        assert_eq!(serve(&engine, b"set a 0 0 1 noreply\r\n1\r\n"), b"");
        assert_eq!(serve(&engine, b"get a\r\n"), b"VALUE a 0 1\r\n1\r\nEND\r\n");
        assert_eq!(serve(&engine, b"delete a noreply\r\n"), b"");
        assert_eq!(serve(&engine, b"get a\r\n"), b"END\r\n");
    }

    /// SETs `key` with `exptime` and returns how long the stored item has
    /// left, `Ok(None)` if it never expires, or `Err` if a GET missed.
    fn ttl_after_set(
        engine: &dyn CacheEngine,
        key: &str,
        exptime: impl std::fmt::Display,
    ) -> Result<Option<Duration>, ()> {
        let set = format!("set {key} 9 {exptime} 2\r\nhi\r\n");
        assert_eq!(
            serve(engine, set.as_bytes()),
            b"STORED\r\n",
            "exptime {exptime}"
        );
        let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
        let item = engine.get_ref(key.as_bytes(), &mut ctx).ok_or(())?;
        assert_eq!((item.flags, &item.data[..]), (9, &b"hi"[..]));
        let now = std::time::Instant::now();
        Ok(item.expires_at.map(|deadline| deadline.instant() - now))
    }

    #[test]
    fn set_exptime_is_read_as_memcached_reads_it() {
        // A deadline is `expected` away to the whole second, rounded up.
        let within = |left: Option<Duration>, expected: Duration| {
            let left = left.expect("a deadline");
            expected < left + Duration::from_secs(1) && left <= expected + Duration::from_secs(1)
        };
        let minute = Duration::from_secs(60);
        let month = Duration::from_secs(2_592_000);
        for engine in [&LockEngine::new() as &dyn CacheEngine, &RpEngine::new()] {
            let name = engine.name();
            assert_eq!(ttl_after_set(engine, "forever", 0), Ok(None), "{name}");
            assert!(
                within(ttl_after_set(engine, "minute", 60).unwrap(), minute),
                "{name}"
            );
            // 30 days is still a TTL; a second more is a Unix time, long gone.
            assert!(
                within(ttl_after_set(engine, "month", 2_592_000).unwrap(), month),
                "{name}"
            );
            assert_eq!(ttl_after_set(engine, "1970", 2_592_001), Err(()), "{name}");
            // A Unix time a minute ahead, to the second.
            let unix_now = std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .unwrap();
            let at = unix_now.as_secs() + 60;
            let left = ttl_after_set(engine, "unix", at).unwrap();
            assert!(
                within(left, Duration::from_secs(at) - unix_now),
                "{name}: {left:?}"
            );
            // Past the expiry clock's range: saturated, not a panic.
            assert!(
                ttl_after_set(engine, "huge", u64::MAX).unwrap().is_some(),
                "{name}"
            );
            // Negative: stored already expired, its data block swallowed,
            // and the request behind it answered.
            assert_eq!(ttl_after_set(engine, "negative", -1), Err(()), "{name}");
            assert_eq!(
                serve(engine, b"set negative 0 -1 1\r\nv\r\nget negative\r\n"),
                b"STORED\r\nEND\r\n",
                "{name}"
            );
        }
    }

    #[test]
    fn stats_version_and_quit_replies() {
        let engine = RpEngine::new();
        serve(&engine, b"set x 0 0 1\r\ny\r\nget x\r\nget nope\r\n");
        assert_eq!(
            serve(&engine, b"stats\r\n"),
            b"STAT engine rp\r\nSTAT curr_items 1\r\nSTAT get_hits 1\r\n\
              STAT get_misses 1\r\nSTAT evictions 0\r\nEND\r\n"
        );
        assert_eq!(
            serve(&engine, b"version\r\nquit\r\n"),
            format!("VERSION {SERVER_VERSION}\r\n<quit>").as_bytes()
        );
    }

    #[test]
    fn a_sampled_request_fills_its_span_and_writes_the_same_reply() {
        let engine = RpEngine::new();
        serve(&engine, b"set k 0 0 1\r\nv\r\n");
        let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
        let mut span = rp_obs::SlowSpan::default();
        let mut out = Vec::new();
        let request = RequestRef::Get { key: b"k" };
        assert!(!execute(
            &engine,
            &request,
            &mut ctx,
            &mut out,
            Some(&mut span)
        ));
        ctx.fold(engine.stats());
        assert_eq!(out, serve(&engine, b"get k\r\n"));
        assert_eq!(span.op, rp_obs::slow::OP_GET);
        assert_eq!(span.key_hash, hash_key(b"k"));
    }

    #[test]
    fn one_request_in_sixteen_is_timed_and_the_rest_read_no_clock() {
        // What telemetry costs a GET rests on this count. A clock is read
        // only for a request that has a span (`Phases`, `timed`), a span is
        // made only where the latency histogram is then fed, and the
        // histogram is fed once per span: its count is the number of
        // requests that read a clock at all.
        let engine = RpEngine::new();
        serve(&engine, b"set k 0 0 1\r\nv\r\n");
        let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
        let kv = rp_obs::KvWorkerObs::default();
        let request = RequestRef::Get { key: b"k" };
        let mut out = Vec::new();
        for requests in [1_u64, 16, 17, 1000] {
            while kv.requests.get() < requests {
                assert!(!execute_ref_observed(
                    &engine, &request, &mut ctx, &mut out, &kv, 0, 0
                ));
            }
            assert_eq!(
                kv.get_ns.snapshot().count(),
                requests.div_ceil(rp_obs::LATENCY_SAMPLE),
                "after {requests} GETs"
            );
        }
        ctx.fold(engine.stats());
        assert_eq!(out, b"VALUE k 0 1\r\nv\r\nEND\r\n".repeat(1000));
        let others = [&kv.set_ns, &kv.delete_ns, &kv.other_ns];
        assert!(others.iter().all(|hist| hist.snapshot().count() == 0));
    }
}
