//! # rp-obs
//!
//! An allocation-free telemetry layer for the relativistic serving stack.
//!
//! The paper's central costs are *invisible* ones — grace-period waits,
//! resize phases overlapping readers, maintenance work absorbed off the
//! writer path. This crate makes them observable without perturbing them:
//!
//! * **Hot-path recording is one relaxed atomic.** A [`Counter`] bump, a
//!   [`Gauge`] store, and a [`Histogram`] sample are each a single relaxed
//!   atomic operation; histograms have no total or max on the write side —
//!   everything derived is computed lazily at scrape time.
//! * **Zero heap allocations in steady state.** Every metric is allocated
//!   once, when the global schema is first touched (process start-up).
//!   Recording, including trace-ring writes, never allocates — the serving
//!   stack's 0-allocations-per-GET audit holds with telemetry enabled.
//! * **Per-worker shards.** The hottest metrics (per-opcode latency,
//!   event-batch sizes) are [`Sharded`]: each event-loop worker records
//!   into its own cache line and a scrape merges all shards lazily.
//! * **A trace ring for discrete events.** Resize phase transitions,
//!   grace periods with their wait durations, maintenance slices,
//!   backpressure trips, idle reaps, and connection sheds go into a
//!   fixed-capacity [`TraceRing`] read back by `STATS TRACE`.
//! * **Each metric is named once.** [`Obs::walk`] hands every metric to a
//!   [`Visitor`] as its group, name, help text and storage ([`Metric`]).
//!   The walk has two writers, [`Prometheus`] text and [`Json`], and
//!   `STATS RESET` is the [`Reset`] visitor, so a new metric is one walk
//!   entry and the forms cannot drift apart.
//!
//! The crate is dependency-free and sits at the bottom of the workspace:
//! `rp-rcu`, `rp-hash`, `rp-net`, and `rp-kvcache` all record
//! into the shared [`Obs`] schema ([`global`]), and the kvcache server
//! renders it live through its `STATS` protocol command (its engine group
//! walked first, the writers writing into a [`MetricSink`]).
//!
//! Telemetry defaults to **on**; [`set_enabled`]`(false)` (the server's
//! `--stats off` / `RP_KV_STATS=off`) short-circuits the timed
//! instrumentation points to a single relaxed load.
//!
//! ```
//! use rp_obs::TraceKind;
//!
//! let obs = rp_obs::global();
//! let t = rp_obs::timer();
//! // ... the work being measured ...
//! if let Some(ns) = rp_obs::elapsed_ns(t) {
//!     obs.rcu.sync_ns.record(ns);
//!     obs.trace.record(TraceKind::Grace, ns);
//! }
//! let mut text = Vec::new();
//! obs.walk(&mut rp_obs::Prometheus(&mut text));
//! assert!(text.starts_with(b"# HELP"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod histogram;
mod metric;
pub mod render;
mod ring;
pub mod slow;
mod walk;

pub use histogram::{Histogram, Snapshot};
pub use metric::{CachePadded, Counter, Gauge, Sharded, DEFAULT_SHARDS};
pub use render::{Json, MetricSink, Prometheus};
pub use ring::{TraceEvent, TraceKind, TraceRing, DEFAULT_RING_CAPACITY};
pub use slow::{SlowEntry, SlowLog, SlowSpan};
pub use walk::{Cells, Metric, PerShard, Reset, Visitor};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Global on/off switch, default on. Checked (one relaxed load) by every
/// timed instrumentation point.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is telemetry recording enabled?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables telemetry recording process-wide. Untimed counters
/// keep counting either way (they cost the same as the check would);
/// disabling short-circuits the clock reads around timed sections.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Starts a timing measurement: `Some(now)` when telemetry is enabled,
/// `None` (no clock read) when disabled.
#[inline]
pub fn timer() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Finishes a [`timer`] measurement, returning the elapsed nanoseconds
/// (saturating) — or `None` when the timer was disabled at the start.
#[inline]
pub fn elapsed_ns(start: Option<Instant>) -> Option<u64> {
    start.map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Per-request latency sampling rate: the serving hot path times one in
/// this many requests (a request whose post-increment ordinal is divisible
/// by it). Two clock reads per *timed* request are the dominant telemetry
/// cost — at ~1 µs/request they are a few percent of the request itself —
/// so quantiles are estimated from a 1-in-16 sample while every *counter*
/// stays exact. Slow-path timers (grace periods, resize steps, maintenance
/// slices) are rare and remain unsampled.
pub const LATENCY_SAMPLE: u64 = 16;

/// `true` when the request with post-increment ordinal `ordinal` should be
/// timed: the first request and every [`LATENCY_SAMPLE`]-th thereafter
/// (anchoring on 1 means a freshly started server has latency data after
/// its very first request). The compiler folds this to a mask test.
#[inline]
pub fn sample_latency(ordinal: u64) -> bool {
    ordinal % LATENCY_SAMPLE == 1
}

/// Telemetry epoch: the instant the schema (or a timestamp) was first
/// touched.
static START: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the telemetry epoch (trace-event timestamps).
pub fn now_us() -> u64 {
    let start = START.get_or_init(Instant::now);
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Grace-period and reclamation metrics (`rp-rcu`).
#[derive(Debug, Default)]
pub struct RcuObs {
    /// Grace-period wait latency through a `GraceSync` funnel,
    /// nanoseconds.
    pub sync_ns: Histogram,
    /// Deferred callbacks awaiting a grace period (set when the funnel
    /// queues or reclaims).
    pub reclaim_pending: Gauge,
    /// Deferred callbacks executed after their grace period.
    pub reclaim_executed_total: Counter,
    /// Reclamation passes run (the reclaim thread's and barriers').
    pub reclaim_passes_total: Counter,
    /// Deferred callbacks that panicked; each was contained and the rest of
    /// its batch ran.
    pub reclaim_panics_total: Counter,
    /// Grace periods flagged by the stall detector as exceeding the
    /// configured threshold.
    pub grace_stalls_total: Counter,
}

/// Incremental-resize metrics (`rp-hash`, aggregated across shards).
#[derive(Debug, Default)]
pub struct ResizeObs {
    /// Duration of each grace-period wait a resize absorbed, nanoseconds.
    pub grace_wait_ns: Histogram,
    /// Duration of each bounded restructuring step (the finishing step, an
    /// expand's cut included, under the writer lock), nanoseconds.
    pub step_ns: Histogram,
    /// Resizes started (expand or shrink).
    pub begun_total: Counter,
    /// Resizes driven to completion.
    pub finished_total: Counter,
}

/// Automatic-resize metrics: the steps writers take to keep a table inside
/// its load-factor bounds (`rp-hash`'s automatic resize step, which
/// finishes a resize whose grace period has elapsed and begins the next).
#[derive(Debug, Default)]
pub struct MaintObs {
    /// Duration of each work slice — one write's automatic step, finishing
    /// a resize, beginning one, or both — in nanoseconds.
    pub slice_ns: Histogram,
    /// Work slices executed.
    pub slices_total: Counter,
}

/// Reactor metrics (`rp-net`).
#[derive(Debug, Default)]
pub struct NetObs {
    /// Connections accepted.
    pub accepts_total: Counter,
    /// Connections shed at admission (the `max_connections` limit or an
    /// exhausted global byte budget).
    pub conns_shed_total: Counter,
    /// Accepted connections lost to OS-level setup failures (nonblocking
    /// toggle, epoll registration).
    pub accept_errors_total: Counter,
    /// Idle connections reaped.
    pub idle_reaped_total: Counter,
    /// Connection handlers that panicked; the connection was shed with a
    /// protocol error reply and the worker kept serving.
    pub conn_panics_total: Counter,
    /// Times the listener was backed off because `accept()` returned
    /// EMFILE/ENFILE (fd-table exhaustion).
    pub accept_backoffs_total: Counter,
    /// Draining connections force-closed at the drain deadline because
    /// the peer never drained the final flush.
    pub drains_expired_total: Counter,
    /// Times a connection's output queue crossed the backpressure
    /// watermark (reads paused until the peer drained).
    pub watermark_trips_total: Counter,
    /// Times a connection's reads were paused because the global byte
    /// budget was exhausted (admission-control backpressure).
    pub backpressure_stalls_total: Counter,
    /// Flush counts, one shard per worker, so a flush bumps its own
    /// worker's line; `STATS` serves their sums.
    pub flushes: Sharded<FlushObs>,
    /// Currently open connections.
    pub connections: Gauge,
    /// Bytes currently held in per-connection buffers process-wide (the
    /// level the global byte budget bounds).
    pub bytes_buffered: Gauge,
    /// Readiness events delivered per `epoll_wait` wake (per-worker
    /// shards; epoll occupancy).
    pub batch_size: Sharded<Histogram>,
}

/// One event-loop worker's flush counts (a shard of [`NetObs::flushes`]).
#[derive(Debug, Default)]
pub struct FlushObs {
    /// Flush syscalls issued (`writev` batches; one per vectored submit).
    pub syscalls_total: Counter,
    /// Output segments fully flushed. With scatter-gather this exceeds
    /// [`FlushObs::syscalls_total`] on pipelined workloads — the whole
    /// point of `writev`.
    pub segments_total: Counter,
}

/// One event-loop worker's cache-serving metrics (a shard of
/// [`KvObs::shards`]).
#[derive(Debug, Default)]
pub struct KvWorkerObs {
    /// GET (single- and multi-key) service latency, nanoseconds.
    pub get_ns: Histogram,
    /// SET service latency, nanoseconds.
    pub set_ns: Histogram,
    /// DELETE service latency, nanoseconds.
    pub delete_ns: Histogram,
    /// Everything else (stats, version, …), nanoseconds.
    pub other_ns: Histogram,
    /// Keys handed to the engine's prefetch hint per decoded group of
    /// pipelined requests; 0 for a group that made no call (fewer than two
    /// keys). The share of traffic whose cache misses can be overlapped.
    pub group_keys: Histogram,
    /// Requests served by this worker.
    pub requests: Counter,
    /// Protocol decode errors on this worker's connections.
    pub decode_errors: Counter,
}

/// Cache-protocol metrics (`rp-kvcache`), sharded per worker.
#[derive(Debug, Default)]
pub struct KvObs {
    /// Per-worker shards, merged lazily at scrape time.
    pub shards: Sharded<KvWorkerObs>,
    /// Duration of each scan of the index for eviction candidates,
    /// nanoseconds (the engine's cold path: one scan serves a batch of
    /// evictions).
    pub evict_scan_ns: Histogram,
    /// The slow-request log (sampled spans over the threshold),
    /// read back by `STATS SLOW`.
    pub slow: SlowLog,
}

/// The workspace-wide telemetry schema: one group per layer plus the
/// trace ring. Allocated once by [`global`].
#[derive(Debug, Default)]
pub struct Obs {
    /// `rp-rcu` metrics.
    pub rcu: RcuObs,
    /// `rp-hash` resize metrics.
    pub resize: ResizeObs,
    /// Automatic-resize metrics (the steps writers take).
    pub maint: MaintObs,
    /// `rp-net` metrics.
    pub net: NetObs,
    /// `rp-kvcache` metrics.
    pub kv: KvObs,
    /// The discrete-event trace ring.
    pub trace: TraceRing,
}

static GLOBAL: OnceLock<Obs> = OnceLock::new();

/// The process-wide telemetry schema. First call allocates every metric;
/// later calls are a single atomic load.
pub fn global() -> &'static Obs {
    GLOBAL.get_or_init(Obs::default)
}

impl Obs {
    /// The registry's walk: hands every metric of the five groups (`kv`,
    /// `net`, `maint`, `resize`, `rcu`) to `v`, in the order `STATS` and
    /// `STATS JSON` serve them. This is the one place a registry metric is
    /// named.
    pub fn walk(&self, v: &mut impl Visitor) {
        use Metric::{Counter, Gauge, Summary};
        let (shards, net) = (&self.kv.shards, &self.net);
        let mut group = |name, help, metric: Metric<'_>| v.metric("kv", name, help, metric);
        group(
            "kv_requests_total",
            "Cache protocol requests served.",
            Counter(&PerShard(shards, |s| &s.requests)),
        );
        group(
            "kv_decode_errors_total",
            "Protocol decode errors.",
            Counter(&PerShard(shards, |s| &s.decode_errors)),
        );
        group(
            "kv_get_latency_ns",
            "GET service latency.",
            Summary(&PerShard(shards, |s| &s.get_ns)),
        );
        group(
            "kv_set_latency_ns",
            "SET service latency.",
            Summary(&PerShard(shards, |s| &s.set_ns)),
        );
        group(
            "kv_delete_latency_ns",
            "DELETE service latency.",
            Summary(&PerShard(shards, |s| &s.delete_ns)),
        );
        group(
            "kv_other_latency_ns",
            "Service latency of remaining opcodes.",
            Summary(&PerShard(shards, |s| &s.other_ns)),
        );
        group(
            "kv_group_keys",
            "Keys prefetched per group of pipelined requests (0: no call).",
            Summary(&PerShard(shards, |s| &s.group_keys)),
        );
        group(
            "engine_evict_scan_ns",
            "Index scans for eviction candidates (one serves a batch of evictions).",
            Summary(&self.kv.evict_scan_ns),
        );
        group(
            "kv_slow_logged_total",
            "Requests logged as slow (see STATS SLOW).",
            Counter(&self.kv.slow),
        );

        let mut group = |name, help, metric: Metric<'_>| v.metric("net", name, help, metric);
        group(
            "net_accepts_total",
            "Connections accepted.",
            Counter(&net.accepts_total),
        );
        group(
            "net_conns_shed_total",
            "Connections shed at admission (connection or byte budget).",
            Counter(&net.conns_shed_total),
        );
        group(
            "net_accept_errors_total",
            "Accepted connections lost to OS-level setup failures.",
            Counter(&net.accept_errors_total),
        );
        group(
            "net_idle_reaped_total",
            "Idle connections reaped.",
            Counter(&net.idle_reaped_total),
        );
        group(
            "net_conn_panics_total",
            "Connection handlers that panicked (connection shed, worker kept).",
            Counter(&net.conn_panics_total),
        );
        group(
            "net_accept_backoffs_total",
            "Listener backoffs after accept() hit EMFILE/ENFILE.",
            Counter(&net.accept_backoffs_total),
        );
        group(
            "net_drains_expired_total",
            "Draining connections force-closed at the drain deadline.",
            Counter(&net.drains_expired_total),
        );
        group(
            "net_watermark_trips_total",
            "Output queues that crossed the backpressure watermark.",
            Counter(&net.watermark_trips_total),
        );
        group(
            "net_backpressure_stalls_total",
            "Reads paused because the global byte budget was exhausted.",
            Counter(&net.backpressure_stalls_total),
        );
        group(
            "net_flush_syscalls_total",
            "Flush syscalls issued (writev batches).",
            Counter(&PerShard(&net.flushes, |f| &f.syscalls_total)),
        );
        group(
            "net_flush_segments_total",
            "Output segments fully flushed.",
            Counter(&PerShard(&net.flushes, |f| &f.segments_total)),
        );
        group(
            "net_connections",
            "Currently open connections.",
            Gauge(net.connections.get()),
        );
        group(
            "net_bytes_buffered",
            "Bytes held in per-connection buffers process-wide.",
            Gauge(net.bytes_buffered.get()),
        );
        group(
            "net_batch_size",
            "Readiness events per epoll_wait wake.",
            Summary(&PerShard(&net.batch_size, |h| h)),
        );

        let maint = &self.maint;
        let mut group = |name, help, metric: Metric<'_>| v.metric("maint", name, help, metric);
        group(
            "maint_slice_ns",
            "Automatic resize step duration.",
            Summary(&maint.slice_ns),
        );
        group(
            "maint_slices_total",
            "Automatic resize steps writers took.",
            Counter(&maint.slices_total),
        );

        let resize = &self.resize;
        let mut group = |name, help, metric: Metric<'_>| v.metric("resize", name, help, metric);
        group(
            "resize_grace_wait_ns",
            "Grace-period waits absorbed by resizes.",
            Summary(&resize.grace_wait_ns),
        );
        group(
            "resize_step_ns",
            "Bounded resize restructuring steps.",
            Summary(&resize.step_ns),
        );
        group(
            "resize_begun_total",
            "Incremental resizes started.",
            Counter(&resize.begun_total),
        );
        group(
            "resize_finished_total",
            "Incremental resizes completed.",
            Counter(&resize.finished_total),
        );

        let rcu = &self.rcu;
        let mut group = |name, help, metric: Metric<'_>| v.metric("rcu", name, help, metric);
        group(
            "rcu_sync_ns",
            "Grace-period wait latency.",
            Summary(&rcu.sync_ns),
        );
        group(
            "rcu_reclaim_pending",
            "Deferred callbacks awaiting a grace period.",
            Gauge(rcu.reclaim_pending.get()),
        );
        group(
            "rcu_reclaim_executed_total",
            "Deferred callbacks executed.",
            Counter(&rcu.reclaim_executed_total),
        );
        group(
            "rcu_reclaim_passes_total",
            "Deferred-reclamation passes run.",
            Counter(&rcu.reclaim_passes_total),
        );
        group(
            "rcu_reclaim_panics_total",
            "Deferred callbacks that panicked (contained).",
            Counter(&rcu.reclaim_panics_total),
        );
        group(
            "rcu_grace_stalls_total",
            "Grace periods flagged as stalled past the threshold.",
            Counter(&rcu.grace_stalls_total),
        );
    }

    /// Renders one worker's shard of the per-worker metrics (the kvcache
    /// server's `STATS WORKER <n>` view): the worker's request and
    /// decode-error counters, its per-opcode latency summaries, and its
    /// epoll batch-size summary. The merged scrape
    /// ([`Obs::walk`]) aggregates these across workers, which
    /// averages accept-shard imbalance away; this view exposes one shard
    /// verbatim. Worker ordinals beyond the shard count wrap, exactly as
    /// recording does ([`Sharded::for_worker`]).
    pub fn render_worker(&self, worker: usize, sink: &mut impl MetricSink) {
        use Metric::{Counter, Gauge, Summary};
        let shard = self.kv.shards.for_worker(worker);
        let mut text = Prometheus(sink);
        let mut group = |name, help, metric: Metric<'_>| text.metric("worker", name, help, metric);
        group(
            "kv_worker",
            "Worker shard this view covers (ordinals wrap at the shard count).",
            Gauge((worker & (self.kv.shards.len() - 1)) as u64),
        );
        group(
            "kv_worker_requests_total",
            "Requests served by this worker.",
            Counter(&shard.requests),
        );
        group(
            "kv_worker_decode_errors_total",
            "Protocol decode errors on this worker's connections.",
            Counter(&shard.decode_errors),
        );
        group(
            "kv_worker_get_latency_ns",
            "GET service latency on this worker.",
            Summary(&shard.get_ns),
        );
        group(
            "kv_worker_set_latency_ns",
            "SET service latency on this worker.",
            Summary(&shard.set_ns),
        );
        group(
            "kv_worker_delete_latency_ns",
            "DELETE service latency on this worker.",
            Summary(&shard.delete_ns),
        );
        group(
            "kv_worker_other_latency_ns",
            "Service latency of remaining opcodes on this worker.",
            Summary(&shard.other_ns),
        );
        group(
            "kv_worker_group_keys",
            "Keys prefetched per group of pipelined requests on this worker.",
            Summary(&shard.group_keys),
        );
        group(
            "net_worker_batch_size",
            "Readiness events per epoll_wait wake on this worker.",
            Summary(self.net.batch_size.for_worker(worker)),
        );
    }

    /// Renders the retained trace events, oldest first — all of them, or
    /// only the most recent `limit` when one is given (`STATS TRACE <n>`) —
    /// one `TRACE <seq> <t_us> <label> <value>` line each (CRLF-terminated:
    /// this output goes straight onto the cache protocol's wire).
    pub fn render_trace_recent(&self, limit: Option<usize>, sink: &mut impl MetricSink) {
        let events = self.trace.events();
        let skip = limit.map_or(0, |n| events.len().saturating_sub(n));
        for event in &events[skip..] {
            sink.put_bytes(b"TRACE ");
            render::put_u64(sink, event.seq);
            sink.put_bytes(b" ");
            render::put_u64(sink, event.at_us);
            sink.put_bytes(b" ");
            sink.put_bytes(event.kind.label().as_bytes());
            sink.put_bytes(b" ");
            render::put_u64(sink, event.value);
            sink.put_bytes(b"\r\n");
        }
    }

    /// `STATS RESET`: zeroes every counter and histogram the walk names
    /// (the slow log is `kv_slow_logged_total`'s storage, so it empties),
    /// leaves the gauges alone, and restarts the trace ring with one
    /// `stats_reset` marker.
    pub fn reset(&self) {
        self.walk(&mut Reset);
        self.trace.reset();
        self.trace.record(TraceKind::StatsReset, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_respects_the_enabled_flag() {
        // Tests share the process-global flag; restore it on exit.
        assert!(enabled(), "telemetry defaults to on");
        let t = timer();
        assert!(t.is_some());
        assert!(elapsed_ns(t).is_some());
        set_enabled(false);
        assert!(timer().is_none());
        assert_eq!(elapsed_ns(timer()), None);
        set_enabled(true);
    }

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn render_covers_every_group() {
        let obs = Obs::default();
        obs.kv.shards.for_worker(0).requests.add(5);
        obs.net.accepts_total.add(2);
        obs.maint.slices_total.inc();
        obs.resize.begun_total.inc();
        obs.rcu.sync_ns.record(1234);
        let mut out = Vec::new();
        obs.walk(&mut Prometheus(&mut out));
        let text = String::from_utf8(out).unwrap();
        for needle in [
            "kv_requests_total 5",
            "kv_get_latency_ns_count 0",
            "net_accepts_total 2",
            "net_batch_size_count 0",
            "maint_slices_total 1",
            "resize_begun_total 1",
            "rcu_sync_ns_count 1",
            "rcu_reclaim_pending 0",
            "rcu_reclaim_passes_total 0",
            "rcu_reclaim_panics_total 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn worker_render_reads_exactly_one_shard() {
        let obs = Obs::default();
        obs.kv.shards.for_worker(3).requests.add(7);
        obs.kv.shards.for_worker(4).requests.add(100);
        obs.net.batch_size.for_worker(3).record(2);
        let mut out = Vec::new();
        obs.render_worker(3, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("kv_worker 3\n"), "{text}");
        assert!(
            text.contains("kv_worker_requests_total 7\n"),
            "worker 4's count must not leak in:\n{text}"
        );
        assert!(text.contains("net_worker_batch_size_count 1\n"), "{text}");
        // Ordinals wrap at the shard count, mirroring recording.
        let mut wrapped = Vec::new();
        obs.render_worker(3 + obs.kv.shards.len(), &mut wrapped);
        assert_eq!(wrapped, text.as_bytes());
    }

    #[test]
    fn reset_zeroes_and_leaves_a_trace_marker() {
        let obs = Obs::default();
        obs.kv.shards.for_worker(1).requests.add(9);
        obs.trace.record(TraceKind::ConnShed, 7);
        obs.reset();
        assert_eq!(PerShard(&obs.kv.shards, |s| &s.requests).read(), 0);
        let events = obs.trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, TraceKind::StatsReset);
    }

    #[test]
    fn trace_renders_crlf_lines() {
        let obs = Obs::default();
        obs.trace.record(TraceKind::MaintSlice, 42);
        let mut out = Vec::new();
        obs.render_trace_recent(None, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("TRACE 1 "));
        assert!(text.ends_with(" maint_slice 42\r\n"));
    }

    #[test]
    fn trace_render_labels_a_stall_with_its_elapsed_nanoseconds() {
        let obs = Obs::default();
        obs.trace.record(TraceKind::GraceStall, 777);
        obs.trace.record(TraceKind::Grace, 888);
        let mut out = Vec::new();
        obs.render_trace_recent(None, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(" grace_stall 777\r\n"), "{text}");
        assert!(text.contains(" grace 888\r\n"), "{text}");
    }

    #[test]
    fn trace_render_recent_keeps_only_the_newest_n() {
        let obs = Obs::default();
        for i in 0..5 {
            obs.trace.record(TraceKind::MaintSlice, i);
        }
        let mut out = Vec::new();
        obs.render_trace_recent(Some(2), &mut out);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("TRACE ").count(), 2);
        assert!(text.starts_with("TRACE 4 "), "{text}");
        assert!(text.ends_with(" maint_slice 4\r\n"), "{text}");
        // A limit beyond the retained count degrades to everything.
        let mut all = Vec::new();
        obs.render_trace_recent(Some(100), &mut all);
        assert_eq!(String::from_utf8(all).unwrap().matches("TRACE ").count(), 5);
    }

    #[test]
    fn json_render_is_one_object_with_every_group() {
        let obs = Obs::default();
        obs.kv.shards.for_worker(0).requests.add(5);
        obs.rcu.reclaim_passes_total.add(3);
        obs.rcu.reclaim_panics_total.inc();
        obs.rcu.grace_stalls_total.add(2);
        let mut out = Vec::new();
        let mut json = Json::begin(&mut out);
        obs.walk(&mut json);
        json.end();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("{\"kv\":{\"kv_requests_total\":5,"),
            "{text}"
        );
        assert!(
            text.ends_with(concat!(
                "\"rcu_reclaim_pending\":0,\"rcu_reclaim_executed_total\":0,",
                "\"rcu_reclaim_passes_total\":3,\"rcu_reclaim_panics_total\":1,",
                "\"rcu_grace_stalls_total\":2}}"
            )),
            "{text}"
        );
        for needle in [
            "\"net\":{",
            "\"maint\":{",
            "\"resize\":{",
            "\"rcu\":{",
            "\"kv_get_latency_ns\":{\"p50\":",
            "\"net_connections\":0",
            "\"resize_begun_total\":0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains('\n'), "single-line output");
    }

    #[test]
    fn reset_clears_the_slow_log_and_stall_counter() {
        let obs = Obs::default();
        obs.kv.slow.set_threshold_ns(0);
        obs.kv.slow.record(&SlowSpan::default());
        obs.rcu.grace_stalls_total.inc();
        obs.kv.evict_scan_ns.record(500_000);
        obs.reset();
        assert_eq!(obs.kv.evict_scan_ns.snapshot().count(), 0);
        assert_eq!(obs.kv.slow.recorded(), 0);
        assert_eq!(obs.rcu.grace_stalls_total.get(), 0);
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global() as *const Obs;
        let b = global() as *const Obs;
        assert_eq!(a, b);
    }
}
