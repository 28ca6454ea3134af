//! The live `STATS` telemetry endpoint.
//!
//! Every metric `STATS` serves is named once, in a walk: the `engine`
//! group here (`walk_engine`: the item count and the engine's
//! [`CacheStats`](crate::CacheStats)), then the `rp-obs` registry's five
//! groups ([`rp_obs::Obs::walk`]: per-opcode latency histograms, reactor
//! counters, maintenance and resize timings, grace-period latencies). The
//! walk has two writers and one other visitor:
//!
//! * `STATS` — [`rp_obs::Prometheus`] exposition text;
//! * `STATS JSON` — [`rp_obs::Json`], the same metrics in the same order
//!   as one single-line object;
//! * `STATS RESET` — [`rp_obs::Reset`] zeroes every counter and histogram
//!   the walk names (level gauges keep their value — their owners
//!   re-assert them), and the trace ring restarts with one marker.
//!
//! Output is written straight through the server's [`BufWrite`] path (the
//! same zero-copy queue responses use), framed by a trailing `END\r\n` so
//! clients can read it off a shared connection without special casing.
//! `STATS TRACE` dumps the timestamped event ring, `STATS SLOW` the
//! slow-request log and `STATS WORKER <n>` one worker's shard. The
//! lowercase memcached `stats` command is untouched.

use rp_net::BufWrite;
use rp_obs::{Json, Metric, MetricSink, Obs, Prometheus, Reset, Visitor};

use crate::engine::CacheEngine;

/// Bridges the server's [`BufWrite`] response queue to the dependency-free
/// [`MetricSink`] the `rp-obs` renderer writes into.
struct SinkAdapter<'a, W: BufWrite>(&'a mut W);

impl<W: BufWrite> MetricSink for SinkAdapter<'_, W> {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.0.put(bytes);
    }
}

/// The engine group of the walk, which `STATS` serves ahead of the
/// registry's groups.
fn walk_engine(engine: &dyn CacheEngine, v: &mut impl Visitor) {
    use Metric::{Counter, Gauge};
    let stats = engine.stats();
    let mut group = |name, help, metric: Metric<'_>| v.metric("engine", name, help, metric);
    group(
        "engine_items",
        "Items currently stored",
        Gauge(engine.len() as u64),
    );
    group(
        "engine_get_hits_total",
        "GETs that found a live item",
        Counter(&stats.get_hits),
    );
    group(
        "engine_get_misses_total",
        "GETs that found nothing live",
        Counter(&stats.get_misses),
    );
    group("engine_sets_total", "Successful SETs", Counter(&stats.sets));
    group(
        "engine_deletes_total",
        "Successful DELETEs",
        Counter(&stats.deletes),
    );
    group(
        "engine_evictions_total",
        "Items evicted to stay under capacity",
        Counter(&stats.evictions),
    );
    group(
        "engine_evict_scans_total",
        "Index scans for eviction candidates",
        Counter(&stats.evict_scans),
    );
    group(
        "engine_evict_stale_total",
        "Eviction candidates skipped because they were touched after the scan",
        Counter(&stats.evict_stale),
    );
    group(
        "engine_expirations_total",
        "Items dropped because they were expired",
        Counter(&stats.expirations),
    );
}

/// The whole walk: the engine group, then the registry's.
fn walk(registry: &Obs, engine: &dyn CacheEngine, v: &mut impl Visitor) {
    walk_engine(engine, v);
    registry.walk(v);
}

/// Serves `STATS`: the walk as Prometheus text, closed by the `END\r\n`
/// frame marker.
pub fn render_prometheus(engine: &dyn CacheEngine, out: &mut impl BufWrite) {
    walk(
        rp_obs::global(),
        engine,
        &mut Prometheus(&mut SinkAdapter(out)),
    );
    out.put(b"END\r\n");
}

/// Serves `STATS RESET` against `registry`: zeroes every counter and
/// histogram the walk names, engine group included (level gauges keep
/// their value), restarts the trace ring with its `stats_reset` marker,
/// then acknowledges.
pub fn reset_from(registry: &Obs, engine: &dyn CacheEngine, out: &mut impl BufWrite) {
    walk_engine(engine, &mut Reset);
    registry.reset();
    out.put(b"RESET\r\n");
}

/// Serves `STATS RESET` against the process-global registry.
pub fn reset(engine: &dyn CacheEngine, out: &mut impl BufWrite) {
    reset_from(rp_obs::global(), engine, out);
}

/// Serves `STATS TRACE` / `STATS TRACE <n>` against `registry`: a
/// `TRACE-RING` header documenting the ring's capacity and lifetime event
/// count, then the retained events (all of them, or only the most recent
/// `n`) as `TRACE` lines, closed by `END\r\n`.
pub fn render_trace_from(registry: &Obs, limit: Option<usize>, out: &mut impl BufWrite) {
    let mut sink = SinkAdapter(out);
    sink.put_bytes(b"TRACE-RING capacity=");
    rp_obs::render::put_u64(&mut sink, registry.trace.capacity() as u64);
    sink.put_bytes(b" recorded=");
    rp_obs::render::put_u64(&mut sink, registry.trace.recorded());
    sink.put_bytes(b"\r\n");
    registry.render_trace_recent(limit, &mut sink);
    out.put(b"END\r\n");
}

/// Serves `STATS TRACE` / `STATS TRACE <n>` against the process-global
/// registry.
pub fn render_trace(limit: Option<usize>, out: &mut impl BufWrite) {
    render_trace_from(rp_obs::global(), limit, out);
}

/// Serves `STATS SLOW` against `registry`: a `SLOW-LOG` header documenting
/// the log's capacity, threshold, and lifetime count, then one
/// `SLOW <seq> <t_us> <worker> <request_id> <op> <key_hash> <total_ns>
/// <decode_ns> <index_ns> <serialize_ns>` line per retained span, oldest
/// first, closed by `END\r\n`.
pub fn render_slow_from(registry: &Obs, out: &mut impl BufWrite) {
    let mut sink = SinkAdapter(out);
    let log = &registry.kv.slow;
    sink.put_bytes(b"SLOW-LOG capacity=");
    rp_obs::render::put_u64(&mut sink, log.capacity() as u64);
    sink.put_bytes(b" threshold_ns=");
    rp_obs::render::put_u64(&mut sink, log.threshold_ns());
    sink.put_bytes(b" logged=");
    rp_obs::render::put_u64(&mut sink, log.recorded());
    sink.put_bytes(b"\r\n");
    for entry in log.entries() {
        sink.put_bytes(b"SLOW ");
        for value in [
            entry.seq,
            entry.at_us,
            entry.span.worker,
            entry.span.request_id,
        ] {
            rp_obs::render::put_u64(&mut sink, value);
            sink.put_bytes(b" ");
        }
        sink.put_bytes(rp_obs::slow::op_label(entry.span.op).as_bytes());
        for value in [
            entry.span.key_hash,
            entry.span.total_ns,
            entry.span.decode_ns,
            entry.span.index_ns,
            entry.span.serialize_ns,
        ] {
            sink.put_bytes(b" ");
            rp_obs::render::put_u64(&mut sink, value);
        }
        sink.put_bytes(b"\r\n");
    }
    out.put(b"END\r\n");
}

/// Serves `STATS SLOW` against the process-global registry.
pub fn render_slow(out: &mut impl BufWrite) {
    render_slow_from(rp_obs::global(), out);
}

/// Serves `STATS JSON` against `registry`: the walk as one JSON object on
/// a single line — the same metrics, names and order as the text form —
/// closed by `END\r\n`.
pub fn render_json_from(registry: &Obs, engine: &dyn CacheEngine, out: &mut impl BufWrite) {
    let mut sink = SinkAdapter(out);
    let mut json = Json::begin(&mut sink);
    walk(registry, engine, &mut json);
    json.end();
    out.put(b"\r\nEND\r\n");
}

/// Serves `STATS JSON` against the process-global registry.
pub fn render_json(engine: &dyn CacheEngine, out: &mut impl BufWrite) {
    render_json_from(rp_obs::global(), engine, out);
}

/// Serves `STATS WORKER <n>` against `registry`: one worker's per-shard
/// metrics rendered verbatim (requests, decode errors, per-opcode latency
/// and epoll batch-size summaries), closed by the `END\r\n` frame marker.
/// The merged `STATS` scrape aggregates shards, which averages accept-shard
/// imbalance away; this view exposes one shard as recorded. Split from
/// [`render_worker`] so its output — a pure function of the registry — can
/// be pinned byte-for-byte by tests against a private registry.
pub fn render_worker_from(registry: &Obs, worker: usize, out: &mut impl BufWrite) {
    registry.render_worker(worker, &mut SinkAdapter(out));
    out.put(b"END\r\n");
}

/// Serves `STATS WORKER <n>` against the process-global registry.
pub fn render_worker(worker: usize, out: &mut impl BufWrite) {
    render_worker_from(rp_obs::global(), worker, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineReadCtx, Item, LockEngine, ReadSide};

    /// The engine-level section is a pure function of the engine's state:
    /// pin its exact wire bytes (satellite of the exposition-format
    /// contract; the shared-registry sections are covered structurally in
    /// the server tests, since parallel tests write to the same registry).
    #[test]
    fn engine_metrics_exact_bytes() {
        let engine = LockEngine::new();
        engine.set("k", Item::new(0, "v"));
        let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
        engine.get_ref(b"k", &mut ctx);
        engine.get_ref(b"missing", &mut ctx);
        engine.delete("k");
        let mut out = Vec::new();
        walk_engine(&engine, &mut Prometheus(&mut out));
        let expected = "\
# HELP engine_items Items currently stored\n\
# TYPE engine_items gauge\n\
engine_items 0\n\
# HELP engine_get_hits_total GETs that found a live item\n\
# TYPE engine_get_hits_total counter\n\
engine_get_hits_total 1\n\
# HELP engine_get_misses_total GETs that found nothing live\n\
# TYPE engine_get_misses_total counter\n\
engine_get_misses_total 1\n\
# HELP engine_sets_total Successful SETs\n\
# TYPE engine_sets_total counter\n\
engine_sets_total 1\n\
# HELP engine_deletes_total Successful DELETEs\n\
# TYPE engine_deletes_total counter\n\
engine_deletes_total 1\n\
# HELP engine_evictions_total Items evicted to stay under capacity\n\
# TYPE engine_evictions_total counter\n\
engine_evictions_total 0\n\
# HELP engine_evict_scans_total Index scans for eviction candidates\n\
# TYPE engine_evict_scans_total counter\n\
engine_evict_scans_total 0\n\
# HELP engine_evict_stale_total Eviction candidates skipped because they were touched after the scan\n\
# TYPE engine_evict_stale_total counter\n\
engine_evict_stale_total 0\n\
# HELP engine_expirations_total Items dropped because they were expired\n\
# TYPE engine_expirations_total counter\n\
engine_expirations_total 0\n";
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    /// Evictions per scan is a live number: sixteen SETs past a capacity
    /// of four are sixteen evictions in four scans (a scan of so small a
    /// cache queues all five items), and `STATS RESET` zeroes all three.
    #[test]
    fn eviction_counters_render_and_reset() {
        let engine = crate::RpEngine::with_capacity(4);
        for i in 0..20 {
            engine.set(&format!("k{i}"), Item::new(0, "v"));
        }
        let render = || {
            let mut out = Vec::new();
            render_json_from(&rp_obs::Obs::default(), &engine, &mut out);
            String::from_utf8(out).unwrap()
        };
        let counted = concat!(
            "\"engine_evictions_total\":16,\"engine_evict_scans_total\":4,",
            "\"engine_evict_stale_total\":0,"
        );
        assert!(render().contains(counted), "{}", render());
        reset_from(&rp_obs::Obs::default(), &engine, &mut Vec::new());
        let zeroed = concat!(
            "\"engine_evictions_total\":0,\"engine_evict_scans_total\":0,",
            "\"engine_evict_stale_total\":0,"
        );
        assert!(render().contains(zeroed), "{}", render());
    }

    /// The per-worker view is a pure function of one shard's recordings:
    /// pin its exact wire bytes. Values below 16 land in the histogram's
    /// exact buckets, so every summary sample is deterministic. A private
    /// registry keeps parallel tests (which write the global one) out.
    #[test]
    fn worker_render_exact_bytes() {
        let registry = rp_obs::Obs::default();
        let shard = registry.kv.shards.for_worker(3);
        shard.requests.add(7);
        for _ in 0..3 {
            shard.get_ns.record(7);
        }
        shard.set_ns.record(2);
        registry.net.batch_size.for_worker(3).record(4);
        shard.group_keys.record(0);
        shard.group_keys.record(16);
        shard.group_keys.record(16);
        let mut out = Vec::new();
        render_worker_from(&registry, 3, &mut out);
        let expected = "\
# HELP kv_worker Worker shard this view covers (ordinals wrap at the shard count).\n\
# TYPE kv_worker gauge\n\
kv_worker 3\n\
# HELP kv_worker_requests_total Requests served by this worker.\n\
# TYPE kv_worker_requests_total counter\n\
kv_worker_requests_total 7\n\
# HELP kv_worker_decode_errors_total Protocol decode errors on this worker's connections.\n\
# TYPE kv_worker_decode_errors_total counter\n\
kv_worker_decode_errors_total 0\n\
# HELP kv_worker_get_latency_ns GET service latency on this worker.\n\
# TYPE kv_worker_get_latency_ns summary\n\
kv_worker_get_latency_ns{quantile=\"0.5\"} 7\n\
kv_worker_get_latency_ns{quantile=\"0.9\"} 7\n\
kv_worker_get_latency_ns{quantile=\"0.99\"} 7\n\
kv_worker_get_latency_ns{quantile=\"0.999\"} 7\n\
kv_worker_get_latency_ns_sum 21\n\
kv_worker_get_latency_ns_count 3\n\
kv_worker_get_latency_ns_max 7\n\
# HELP kv_worker_set_latency_ns SET service latency on this worker.\n\
# TYPE kv_worker_set_latency_ns summary\n\
kv_worker_set_latency_ns{quantile=\"0.5\"} 2\n\
kv_worker_set_latency_ns{quantile=\"0.9\"} 2\n\
kv_worker_set_latency_ns{quantile=\"0.99\"} 2\n\
kv_worker_set_latency_ns{quantile=\"0.999\"} 2\n\
kv_worker_set_latency_ns_sum 2\n\
kv_worker_set_latency_ns_count 1\n\
kv_worker_set_latency_ns_max 2\n\
# HELP kv_worker_delete_latency_ns DELETE service latency on this worker.\n\
# TYPE kv_worker_delete_latency_ns summary\n\
kv_worker_delete_latency_ns{quantile=\"0.5\"} 0\n\
kv_worker_delete_latency_ns{quantile=\"0.9\"} 0\n\
kv_worker_delete_latency_ns{quantile=\"0.99\"} 0\n\
kv_worker_delete_latency_ns{quantile=\"0.999\"} 0\n\
kv_worker_delete_latency_ns_sum 0\n\
kv_worker_delete_latency_ns_count 0\n\
kv_worker_delete_latency_ns_max 0\n\
# HELP kv_worker_other_latency_ns Service latency of remaining opcodes on this worker.\n\
# TYPE kv_worker_other_latency_ns summary\n\
kv_worker_other_latency_ns{quantile=\"0.5\"} 0\n\
kv_worker_other_latency_ns{quantile=\"0.9\"} 0\n\
kv_worker_other_latency_ns{quantile=\"0.99\"} 0\n\
kv_worker_other_latency_ns{quantile=\"0.999\"} 0\n\
kv_worker_other_latency_ns_sum 0\n\
kv_worker_other_latency_ns_count 0\n\
kv_worker_other_latency_ns_max 0\n\
# HELP kv_worker_group_keys Keys prefetched per group of pipelined requests on this worker.\n\
# TYPE kv_worker_group_keys summary\n\
kv_worker_group_keys{quantile=\"0.5\"} 16\n\
kv_worker_group_keys{quantile=\"0.9\"} 16\n\
kv_worker_group_keys{quantile=\"0.99\"} 16\n\
kv_worker_group_keys{quantile=\"0.999\"} 16\n\
kv_worker_group_keys_sum 32\n\
kv_worker_group_keys_count 3\n\
kv_worker_group_keys_max 16\n\
# HELP net_worker_batch_size Readiness events per epoll_wait wake on this worker.\n\
# TYPE net_worker_batch_size summary\n\
net_worker_batch_size{quantile=\"0.5\"} 4\n\
net_worker_batch_size{quantile=\"0.9\"} 4\n\
net_worker_batch_size{quantile=\"0.99\"} 4\n\
net_worker_batch_size{quantile=\"0.999\"} 4\n\
net_worker_batch_size_sum 4\n\
net_worker_batch_size_count 1\n\
net_worker_batch_size_max 4\n\
END\r\n";
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    #[test]
    fn prometheus_render_is_framed_and_covers_every_layer() {
        let engine = LockEngine::new();
        engine.set("k", Item::new(0, "v"));
        let mut out = Vec::new();
        render_prometheus(&engine, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("# HELP engine_items"), "{text}");
        assert!(text.ends_with("END\r\n"), "{text}");
        for family in [
            "kv_requests_total",
            "kv_get_latency_ns",
            "kv_group_keys",
            "net_accepts_total",
            "maint_slice_ns",
            "resize_step_ns",
            "rcu_sync_ns",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn trace_render_is_framed() {
        let mut out = Vec::new();
        render_trace(None, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.ends_with("END\r\n"));
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(
            header.starts_with("TRACE-RING capacity=") && header.contains(" recorded="),
            "unexpected header {header:?}"
        );
        for line in lines {
            if line != "END" {
                assert!(line.starts_with("TRACE "), "unexpected line {line:?}");
            }
        }
    }

    /// `STATS TRACE <n>` keeps only the newest `n` events; the header still
    /// documents the full ring. A private registry keeps parallel tests out.
    #[test]
    fn trace_render_honors_the_count() {
        let registry = rp_obs::Obs::default();
        for i in 0..5 {
            registry
                .trace
                .record(rp_obs::TraceKind::ResizeBegin, 100 + i);
        }
        let mut out = Vec::new();
        render_trace_from(&registry, Some(2), &mut out);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("TRACE-RING capacity="));
        assert!(lines[0].ends_with(" recorded=5"), "{:?}", lines[0]);
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[1].starts_with("TRACE 4 "), "{:?}", lines[1]);
        assert!(lines[2].starts_with("TRACE 5 "), "{:?}", lines[2]);
        assert_eq!(lines[3], "END");
    }

    /// `STATS SLOW` is a pure function of the registry's slow log except
    /// for each entry's wall-clock stamp: pin the header and every other
    /// field of the one recorded span.
    #[test]
    fn slow_render_reports_the_span_fields() {
        let registry = rp_obs::Obs::default();
        registry.kv.slow.set_threshold_ns(100);
        registry.kv.slow.record(&rp_obs::SlowSpan {
            worker: 3,
            request_id: 9,
            op: rp_obs::slow::OP_GET,
            key_hash: 7,
            total_ns: 500,
            decode_ns: 100,
            index_ns: 200,
            serialize_ns: 150,
        });
        let mut out = Vec::new();
        render_slow_from(&registry, &mut out);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "SLOW-LOG capacity=64 threshold_ns=100 logged=1");
        let fields: Vec<&str> = lines[1].split(' ').collect();
        assert_eq!(fields[0], "SLOW");
        assert_eq!(fields[1], "1", "first span gets seq 1");
        // fields[2] is the wall-clock stamp; everything after is pinned.
        assert_eq!(
            &fields[3..],
            ["3", "9", "get", "7", "500", "100", "200", "150"]
        );
        assert_eq!(lines[2], "END");
    }

    /// `STATS JSON` carries the same data as the Prometheus text form in
    /// one line scrapers can parse without a JSON library: pin its exact
    /// wire bytes against a private registry.
    #[test]
    fn json_render_exact_bytes() {
        let engine = LockEngine::new();
        engine.set("k", Item::new(0, "v"));
        let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
        engine.get_ref(b"k", &mut ctx);
        engine.get_ref(b"missing", &mut ctx);
        engine.delete("k");
        let registry = rp_obs::Obs::default();
        registry.net.accepts_total.inc();
        let mut out = Vec::new();
        render_json_from(&registry, &engine, &mut out);
        let zero = "{\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"sum\":0,\"count\":0,\"max\":0}";
        let expected = concat!(
            "{\"engine\":{\"engine_items\":0,\"engine_get_hits_total\":1,",
            "\"engine_get_misses_total\":1,\"engine_sets_total\":1,",
            "\"engine_deletes_total\":1,\"engine_evictions_total\":0,",
            "\"engine_evict_scans_total\":0,\"engine_evict_stale_total\":0,",
            "\"engine_expirations_total\":0},",
            "\"kv\":{\"kv_requests_total\":0,\"kv_decode_errors_total\":0,",
            "\"kv_get_latency_ns\":Z,\"kv_set_latency_ns\":Z,",
            "\"kv_delete_latency_ns\":Z,\"kv_other_latency_ns\":Z,",
            "\"kv_group_keys\":Z,\"engine_evict_scan_ns\":Z,",
            "\"kv_slow_logged_total\":0},",
            "\"net\":{\"net_accepts_total\":1,\"net_conns_shed_total\":0,",
            "\"net_accept_errors_total\":0,",
            "\"net_idle_reaped_total\":0,\"net_conn_panics_total\":0,",
            "\"net_accept_backoffs_total\":0,\"net_drains_expired_total\":0,",
            "\"net_watermark_trips_total\":0,",
            "\"net_backpressure_stalls_total\":0,",
            "\"net_flush_syscalls_total\":0,\"net_flush_segments_total\":0,",
            "\"net_connections\":0,\"net_bytes_buffered\":0,",
            "\"net_batch_size\":Z},",
            "\"maint\":{\"maint_slice_ns\":Z,",
            "\"maint_slices_total\":0},",
            "\"resize\":{\"resize_step_ns\":Z,",
            "\"resize_begun_total\":0,\"resize_finished_total\":0},",
            "\"rcu\":{\"rcu_sync_ns\":Z,",
            "\"rcu_reclaim_pending\":0,\"rcu_reclaim_executed_total\":0,",
            "\"rcu_reclaim_passes_total\":0,\"rcu_reclaim_panics_total\":0,",
            "\"rcu_grace_stalls_total\":0}}\r\nEND\r\n",
        )
        .replace('Z', zero);
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    /// The names of the metric families of a `STATS` text scrape, in order.
    fn text_names(text: &str) -> Vec<String> {
        text.lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .map(|family| family.split(' ').next().unwrap().to_string())
            .collect()
    }

    /// The keys of every group's fields in a `STATS JSON` object, in order
    /// (the groups are depth 1, a summary's samples depth 3).
    fn json_names(json: &str) -> Vec<String> {
        let (mut names, mut depth, mut at) = (Vec::new(), 0, 0);
        while at < json.len() {
            match json.as_bytes()[at] {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                b'"' => {
                    let end = at + 1 + json[at + 1..].find('"').unwrap();
                    if depth == 2 {
                        names.push(json[at + 1..end].to_string());
                    }
                    at = end;
                }
                _ => {}
            }
            at += 1;
        }
        names
    }

    /// `STATS` and `STATS JSON` serve the same metrics in the same order:
    /// one walk writes both.
    #[test]
    fn text_and_json_name_the_same_metrics_in_the_same_order() {
        let engine = LockEngine::new();
        let mut text = Vec::new();
        render_prometheus(&engine, &mut text);
        let mut json = Vec::new();
        render_json_from(&Obs::default(), &engine, &mut json);
        let text = text_names(&String::from_utf8(text).unwrap());
        let json = json_names(&String::from_utf8(json).unwrap());
        assert!(
            text.contains(&"kv_slow_logged_total".to_string()),
            "{text:?}"
        );
        assert!(text.len() > 40, "{text:?}");
        assert_eq!(text, json);
    }

    /// Each metric of the walk as a scrape reads it: a counter's count, a
    /// gauge's level, a summary's sample count.
    #[derive(Default)]
    struct Readings(Vec<(String, &'static str, u64)>);

    impl Visitor for Readings {
        fn metric(&mut self, _: &'static str, name: &str, _: &str, metric: Metric<'_>) {
            let (kind, value) = match metric {
                Metric::Counter(cells) => ("counter", cells.read()),
                Metric::Gauge(level) => ("gauge", level),
                Metric::Summary(cells) => ("summary", cells.read().count()),
            };
            self.0.push((name.to_string(), kind, value));
        }
    }

    /// `STATS RESET` zeroes every counter and histogram the walk names,
    /// engine group included, keeps every gauge, empties the slow log and
    /// leaves one `stats_reset` marker in the trace ring.
    #[test]
    fn reset_zeroes_every_counter_and_histogram_and_keeps_every_gauge() {
        let engine = LockEngine::new();
        engine.set("k", Item::new(0, "v"));
        let stats = engine.stats();
        for counter in [
            &stats.get_hits,
            &stats.get_misses,
            &stats.sets,
            &stats.deletes,
            &stats.evictions,
            &stats.expirations,
            &stats.evict_scans,
            &stats.evict_stale,
        ] {
            counter.inc();
        }
        let registry = Obs::default();
        let (kv, net) = (registry.kv.shards.for_worker(5), &registry.net);
        let flushes = net.flushes.for_worker(5);
        for counter in [
            &kv.requests,
            &kv.decode_errors,
            &net.accepts_total,
            &net.conns_shed_total,
            &net.accept_errors_total,
            &net.idle_reaped_total,
            &net.conn_panics_total,
            &net.accept_backoffs_total,
            &net.drains_expired_total,
            &net.watermark_trips_total,
            &net.backpressure_stalls_total,
            &flushes.syscalls_total,
            &flushes.segments_total,
            &registry.maint.slices_total,
            &registry.resize.begun_total,
            &registry.resize.finished_total,
            &registry.rcu.reclaim_executed_total,
            &registry.rcu.reclaim_passes_total,
            &registry.rcu.reclaim_panics_total,
            &registry.rcu.grace_stalls_total,
        ] {
            counter.add(3);
        }
        for histogram in [
            &kv.get_ns,
            &kv.set_ns,
            &kv.delete_ns,
            &kv.other_ns,
            &kv.group_keys,
            &registry.kv.evict_scan_ns,
            net.batch_size.for_worker(5),
            &registry.maint.slice_ns,
            &registry.resize.step_ns,
            &registry.rcu.sync_ns,
        ] {
            histogram.record(40);
        }
        for gauge in [
            &net.connections,
            &net.bytes_buffered,
            &registry.rcu.reclaim_pending,
        ] {
            gauge.set(7);
        }
        registry.kv.slow.set_threshold_ns(0);
        registry.kv.slow.record(&rp_obs::SlowSpan::default());
        registry.trace.record(rp_obs::TraceKind::ConnShed, 1);

        let read = || {
            let mut readings = Readings::default();
            walk(&registry, &engine, &mut readings);
            readings.0
        };
        let before = read();
        for (name, _, value) in &before {
            assert_ne!(*value, 0, "{name} was not recorded into before the reset");
        }
        let mut out = Vec::new();
        reset_from(&registry, &engine, &mut out);
        assert_eq!(out, b"RESET\r\n");
        for ((name, kind, was), (_, _, now)) in before.iter().zip(read()) {
            let want = if *kind == "gauge" { *was } else { 0 };
            assert_eq!(now, want, "{kind} {name} after STATS RESET");
        }
        let events = registry.trace.events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].kind, rp_obs::TraceKind::StatsReset);
        assert!(registry.kv.slow.entries().is_empty());
    }
}
