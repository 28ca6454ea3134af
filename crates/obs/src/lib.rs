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
//!
//! The crate is dependency-free and sits at the bottom of the workspace:
//! `rp-rcu`, `rp-hash`, `rp-maint`, `rp-net`, and `rp-kvcache` all record
//! into the shared [`Obs`] schema ([`global`]), and the kvcache server
//! renders it live through its `STATS` protocol command
//! ([`Obs::render_prometheus`] via the [`render::MetricSink`] seam).
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
//! obs.render_prometheus(&mut text);
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

pub use histogram::{Histogram, Snapshot};
pub use metric::{CachePadded, Counter, Gauge, Sharded, DEFAULT_SHARDS};
pub use render::MetricSink;
pub use ring::{TraceEvent, TraceKind, TraceRing, DEFAULT_RING_CAPACITY};
pub use slow::{SlowEntry, SlowLog, SlowSpan};

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
    /// Fullest-shard / mean-shard occupancy ×1000, refreshed at scrape
    /// time (1000 = perfectly balanced).
    pub imbalance_milli: Gauge,
}

/// Background-maintenance metrics (`rp-maint`).
#[derive(Debug, Default)]
pub struct MaintObs {
    /// Duration of each work slice — one unit's turn, however many resizes
    /// it took to bring the unit back inside its bounds — in nanoseconds.
    pub slice_ns: Histogram,
    /// Resize-work queue depth as last observed by a requester or the
    /// maintenance loop.
    pub queue_depth: Gauge,
    /// Work slices executed.
    pub slices_total: Counter,
    /// Panics the maintenance thread contained (a unit whose turn unwound
    /// is retried once; see `rp-maint`).
    pub worker_panics_total: Counter,
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
    /// Flush syscalls issued (`writev` batches; one per vectored submit).
    pub flush_syscalls_total: Counter,
    /// Output segments fully flushed. With scatter-gather this exceeds
    /// [`NetObs::flush_syscalls_total`] on pipelined workloads — the
    /// whole point of `writev`.
    pub flush_segments_total: Counter,
    /// Currently open connections.
    pub connections: Gauge,
    /// Bytes currently held in per-connection buffers process-wide (the
    /// level the global byte budget bounds).
    pub bytes_buffered: Gauge,
    /// Readiness events delivered per `epoll_wait` wake (per-worker
    /// shards; epoll occupancy).
    pub batch_size: Sharded<Histogram>,
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

impl KvObs {
    /// Total requests served across workers.
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests.get()).sum()
    }

    /// Total decode errors across workers.
    pub fn decode_errors(&self) -> u64 {
        self.shards.iter().map(|s| s.decode_errors.get()).sum()
    }
}

/// The workspace-wide telemetry schema: one group per layer plus the
/// trace ring. Allocated once by [`global`].
#[derive(Debug, Default)]
pub struct Obs {
    /// `rp-rcu` metrics.
    pub rcu: RcuObs,
    /// `rp-hash` resize metrics.
    pub resize: ResizeObs,
    /// `rp-maint` metrics.
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
    /// Renders every metric group as Prometheus exposition text. The
    /// caller appends its own engine-level metrics and framing.
    pub fn render_prometheus(&self, sink: &mut impl MetricSink) {
        self.render_kv(sink);
        self.render_net(sink);
        self.render_maint(sink);
        self.render_resize(sink);
        self.render_rcu(sink);
    }

    fn render_kv(&self, sink: &mut impl MetricSink) {
        let mut get = Snapshot::default();
        let mut set = Snapshot::default();
        let mut delete = Snapshot::default();
        let mut other = Snapshot::default();
        let mut group = Snapshot::default();
        for shard in self.kv.shards.iter() {
            get.merge(&shard.get_ns.snapshot());
            set.merge(&shard.set_ns.snapshot());
            delete.merge(&shard.delete_ns.snapshot());
            other.merge(&shard.other_ns.snapshot());
            group.merge(&shard.group_keys.snapshot());
        }
        render::counter(
            sink,
            "kv_requests_total",
            "Cache protocol requests served.",
            self.kv.requests(),
        );
        render::counter(
            sink,
            "kv_decode_errors_total",
            "Protocol decode errors.",
            self.kv.decode_errors(),
        );
        render::summary(sink, "kv_get_latency_ns", "GET service latency.", &get);
        render::summary(sink, "kv_set_latency_ns", "SET service latency.", &set);
        render::summary(
            sink,
            "kv_delete_latency_ns",
            "DELETE service latency.",
            &delete,
        );
        render::summary(
            sink,
            "kv_other_latency_ns",
            "Service latency of remaining opcodes.",
            &other,
        );
        render::summary(
            sink,
            "kv_group_keys",
            "Keys prefetched per group of pipelined requests (0: no call).",
            &group,
        );
        render::summary(
            sink,
            "engine_evict_scan_ns",
            "Index scans for eviction candidates (one serves a batch of evictions).",
            &self.kv.evict_scan_ns.snapshot(),
        );
    }

    fn render_net(&self, sink: &mut impl MetricSink) {
        render::counter(
            sink,
            "net_accepts_total",
            "Connections accepted.",
            self.net.accepts_total.get(),
        );
        render::counter(
            sink,
            "net_conns_shed_total",
            "Connections shed at admission (connection or byte budget).",
            self.net.conns_shed_total.get(),
        );
        render::counter(
            sink,
            "net_accept_errors_total",
            "Accepted connections lost to OS-level setup failures.",
            self.net.accept_errors_total.get(),
        );
        render::counter(
            sink,
            "net_idle_reaped_total",
            "Idle connections reaped.",
            self.net.idle_reaped_total.get(),
        );
        render::counter(
            sink,
            "net_conn_panics_total",
            "Connection handlers that panicked (connection shed, worker kept).",
            self.net.conn_panics_total.get(),
        );
        render::counter(
            sink,
            "net_accept_backoffs_total",
            "Listener backoffs after accept() hit EMFILE/ENFILE.",
            self.net.accept_backoffs_total.get(),
        );
        render::counter(
            sink,
            "net_drains_expired_total",
            "Draining connections force-closed at the drain deadline.",
            self.net.drains_expired_total.get(),
        );
        render::counter(
            sink,
            "net_watermark_trips_total",
            "Output queues that crossed the backpressure watermark.",
            self.net.watermark_trips_total.get(),
        );
        render::counter(
            sink,
            "net_backpressure_stalls_total",
            "Reads paused because the global byte budget was exhausted.",
            self.net.backpressure_stalls_total.get(),
        );
        render::counter(
            sink,
            "net_flush_syscalls_total",
            "Flush syscalls issued (writev batches).",
            self.net.flush_syscalls_total.get(),
        );
        render::counter(
            sink,
            "net_flush_segments_total",
            "Output segments fully flushed.",
            self.net.flush_segments_total.get(),
        );
        render::gauge(
            sink,
            "net_connections",
            "Currently open connections.",
            self.net.connections.get(),
        );
        render::gauge(
            sink,
            "net_bytes_buffered",
            "Bytes held in per-connection buffers process-wide.",
            self.net.bytes_buffered.get(),
        );
        let mut batch = Snapshot::default();
        for shard in self.net.batch_size.iter() {
            batch.merge(&shard.snapshot());
        }
        render::summary(
            sink,
            "net_batch_size",
            "Readiness events per epoll_wait wake.",
            &batch,
        );
    }

    fn render_maint(&self, sink: &mut impl MetricSink) {
        render::summary(
            sink,
            "maint_slice_ns",
            "Maintenance work-slice duration.",
            &self.maint.slice_ns.snapshot(),
        );
        render::gauge(
            sink,
            "maint_queue_depth",
            "Resize-work queue depth last observed.",
            self.maint.queue_depth.get(),
        );
        render::counter(
            sink,
            "maint_slices_total",
            "Maintenance work slices executed.",
            self.maint.slices_total.get(),
        );
        render::counter(
            sink,
            "maint_worker_panics_total",
            "Maintenance workers recovered after a mid-slice panic.",
            self.maint.worker_panics_total.get(),
        );
    }

    fn render_resize(&self, sink: &mut impl MetricSink) {
        render::summary(
            sink,
            "resize_grace_wait_ns",
            "Grace-period waits absorbed by resizes.",
            &self.resize.grace_wait_ns.snapshot(),
        );
        render::summary(
            sink,
            "resize_step_ns",
            "Bounded resize restructuring steps.",
            &self.resize.step_ns.snapshot(),
        );
        render::counter(
            sink,
            "resize_begun_total",
            "Incremental resizes started.",
            self.resize.begun_total.get(),
        );
        render::counter(
            sink,
            "resize_finished_total",
            "Incremental resizes completed.",
            self.resize.finished_total.get(),
        );
        render::gauge(
            sink,
            "shard_imbalance_milli",
            "Fullest/mean shard occupancy x1000 at scrape time.",
            self.resize.imbalance_milli.get(),
        );
    }

    fn render_rcu(&self, sink: &mut impl MetricSink) {
        render::summary(
            sink,
            "rcu_sync_ns",
            "Grace-period wait latency.",
            &self.rcu.sync_ns.snapshot(),
        );
        render::gauge(
            sink,
            "rcu_reclaim_pending",
            "Deferred callbacks awaiting a grace period.",
            self.rcu.reclaim_pending.get(),
        );
        render::counter(
            sink,
            "rcu_reclaim_executed_total",
            "Deferred callbacks executed.",
            self.rcu.reclaim_executed_total.get(),
        );
        render::counter(
            sink,
            "rcu_reclaim_passes_total",
            "Deferred-reclamation passes run.",
            self.rcu.reclaim_passes_total.get(),
        );
        render::counter(
            sink,
            "rcu_reclaim_panics_total",
            "Deferred callbacks that panicked (contained).",
            self.rcu.reclaim_panics_total.get(),
        );
        render::counter(
            sink,
            "rcu_grace_stalls_total",
            "Grace periods flagged as stalled past the threshold.",
            self.rcu.grace_stalls_total.get(),
        );
    }

    /// Renders one worker's shard of the per-worker metrics (the kvcache
    /// server's `STATS WORKER <n>` view): the worker's request and
    /// decode-error counters, its per-opcode latency summaries, and its
    /// epoll batch-size summary. The merged scrape
    /// ([`Obs::render_prometheus`]) aggregates these across workers, which
    /// averages accept-shard imbalance away; this view exposes one shard
    /// verbatim. Worker ordinals beyond the shard count wrap, exactly as
    /// recording does ([`Sharded::for_worker`]).
    pub fn render_worker(&self, worker: usize, sink: &mut impl MetricSink) {
        let shard = self.kv.shards.for_worker(worker);
        render::gauge(
            sink,
            "kv_worker",
            "Worker shard this view covers (ordinals wrap at the shard count).",
            (worker & (self.kv.shards.len() - 1)) as u64,
        );
        render::counter(
            sink,
            "kv_worker_requests_total",
            "Requests served by this worker.",
            shard.requests.get(),
        );
        render::counter(
            sink,
            "kv_worker_decode_errors_total",
            "Protocol decode errors on this worker's connections.",
            shard.decode_errors.get(),
        );
        render::summary(
            sink,
            "kv_worker_get_latency_ns",
            "GET service latency on this worker.",
            &shard.get_ns.snapshot(),
        );
        render::summary(
            sink,
            "kv_worker_set_latency_ns",
            "SET service latency on this worker.",
            &shard.set_ns.snapshot(),
        );
        render::summary(
            sink,
            "kv_worker_delete_latency_ns",
            "DELETE service latency on this worker.",
            &shard.delete_ns.snapshot(),
        );
        render::summary(
            sink,
            "kv_worker_other_latency_ns",
            "Service latency of remaining opcodes on this worker.",
            &shard.other_ns.snapshot(),
        );
        render::summary(
            sink,
            "kv_worker_group_keys",
            "Keys prefetched per group of pipelined requests on this worker.",
            &shard.group_keys.snapshot(),
        );
        render::summary(
            sink,
            "net_worker_batch_size",
            "Readiness events per epoll_wait wake on this worker.",
            &self.net.batch_size.for_worker(worker).snapshot(),
        );
    }

    /// Renders the retained trace events, oldest first, one
    /// `TRACE <seq> <t_us> <label> <value>` line each (CRLF-terminated —
    /// this output goes straight onto the cache protocol's wire).
    pub fn render_trace(&self, sink: &mut impl MetricSink) {
        self.render_trace_recent(None, sink);
    }

    /// Like [`Obs::render_trace`], but keeping only the most recent
    /// `limit` events when one is given (`STATS TRACE <n>`).
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

    /// Renders every metric group as one JSON object — the same data as
    /// [`Obs::render_prometheus`] under the same metric names, grouped per
    /// layer, every value an unsigned integer. The caller appends its own
    /// engine-level fields by writing into a root [`render::JsonObject`]
    /// and calling [`Obs::render_json_groups`]; this convenience wraps a
    /// complete object around just the registry.
    pub fn render_json(&self, sink: &mut impl MetricSink) {
        let mut root = render::JsonObject::begin(sink);
        self.render_json_groups(&mut root);
        root.end();
    }

    /// Writes the five metric groups as nested objects of `root`
    /// (`"kv"`, `"net"`, `"maint"`, `"resize"`, `"rcu"` — same order and
    /// metric names as the Prometheus text form).
    pub fn render_json_groups<S: MetricSink>(&self, root: &mut render::JsonObject<'_, S>) {
        let mut get = Snapshot::default();
        let mut set = Snapshot::default();
        let mut delete = Snapshot::default();
        let mut other = Snapshot::default();
        let mut group = Snapshot::default();
        for shard in self.kv.shards.iter() {
            get.merge(&shard.get_ns.snapshot());
            set.merge(&shard.set_ns.snapshot());
            delete.merge(&shard.delete_ns.snapshot());
            other.merge(&shard.other_ns.snapshot());
            group.merge(&shard.group_keys.snapshot());
        }
        let mut kv = root.nested("kv");
        kv.field("kv_requests_total", self.kv.requests());
        kv.field("kv_decode_errors_total", self.kv.decode_errors());
        kv.summary("kv_get_latency_ns", &get);
        kv.summary("kv_set_latency_ns", &set);
        kv.summary("kv_delete_latency_ns", &delete);
        kv.summary("kv_other_latency_ns", &other);
        kv.summary("kv_group_keys", &group);
        kv.summary("engine_evict_scan_ns", &self.kv.evict_scan_ns.snapshot());
        kv.field("kv_slow_logged_total", self.kv.slow.recorded());
        kv.end();

        let mut batch = Snapshot::default();
        for shard in self.net.batch_size.iter() {
            batch.merge(&shard.snapshot());
        }
        let mut net = root.nested("net");
        net.field("net_accepts_total", self.net.accepts_total.get());
        net.field("net_conns_shed_total", self.net.conns_shed_total.get());
        net.field(
            "net_accept_errors_total",
            self.net.accept_errors_total.get(),
        );
        net.field("net_idle_reaped_total", self.net.idle_reaped_total.get());
        net.field("net_conn_panics_total", self.net.conn_panics_total.get());
        net.field(
            "net_accept_backoffs_total",
            self.net.accept_backoffs_total.get(),
        );
        net.field(
            "net_drains_expired_total",
            self.net.drains_expired_total.get(),
        );
        net.field(
            "net_watermark_trips_total",
            self.net.watermark_trips_total.get(),
        );
        net.field(
            "net_backpressure_stalls_total",
            self.net.backpressure_stalls_total.get(),
        );
        net.field(
            "net_flush_syscalls_total",
            self.net.flush_syscalls_total.get(),
        );
        net.field(
            "net_flush_segments_total",
            self.net.flush_segments_total.get(),
        );
        net.field("net_connections", self.net.connections.get());
        net.field("net_bytes_buffered", self.net.bytes_buffered.get());
        net.summary("net_batch_size", &batch);
        net.end();

        let mut maint = root.nested("maint");
        maint.summary("maint_slice_ns", &self.maint.slice_ns.snapshot());
        maint.field("maint_queue_depth", self.maint.queue_depth.get());
        maint.field("maint_slices_total", self.maint.slices_total.get());
        maint.field(
            "maint_worker_panics_total",
            self.maint.worker_panics_total.get(),
        );
        maint.end();

        let mut resize = root.nested("resize");
        resize.summary(
            "resize_grace_wait_ns",
            &self.resize.grace_wait_ns.snapshot(),
        );
        resize.summary("resize_step_ns", &self.resize.step_ns.snapshot());
        resize.field("resize_begun_total", self.resize.begun_total.get());
        resize.field("resize_finished_total", self.resize.finished_total.get());
        resize.field("shard_imbalance_milli", self.resize.imbalance_milli.get());
        resize.end();

        let mut rcu = root.nested("rcu");
        rcu.summary("rcu_sync_ns", &self.rcu.sync_ns.snapshot());
        rcu.field("rcu_reclaim_pending", self.rcu.reclaim_pending.get());
        rcu.field(
            "rcu_reclaim_executed_total",
            self.rcu.reclaim_executed_total.get(),
        );
        rcu.field(
            "rcu_reclaim_passes_total",
            self.rcu.reclaim_passes_total.get(),
        );
        rcu.field(
            "rcu_reclaim_panics_total",
            self.rcu.reclaim_panics_total.get(),
        );
        rcu.field("rcu_grace_stalls_total", self.rcu.grace_stalls_total.get());
        rcu.end();
    }

    /// Zeroes every counter, gauge, histogram, and the trace ring
    /// (`STATS RESET`). Concurrent recording is safe; racing samples land
    /// in whichever era their atomic write hits.
    pub fn reset(&self) {
        for shard in self.kv.shards.iter() {
            shard.get_ns.reset();
            shard.set_ns.reset();
            shard.delete_ns.reset();
            shard.other_ns.reset();
            shard.group_keys.reset();
            shard.requests.reset();
            shard.decode_errors.reset();
        }
        self.net.accepts_total.reset();
        self.net.conns_shed_total.reset();
        self.net.accept_errors_total.reset();
        self.net.idle_reaped_total.reset();
        self.net.conn_panics_total.reset();
        self.net.accept_backoffs_total.reset();
        self.net.drains_expired_total.reset();
        self.net.watermark_trips_total.reset();
        self.net.backpressure_stalls_total.reset();
        self.net.flush_syscalls_total.reset();
        self.net.flush_segments_total.reset();
        for shard in self.net.batch_size.iter() {
            shard.reset();
        }
        self.maint.slice_ns.reset();
        self.maint.slices_total.reset();
        self.maint.worker_panics_total.reset();
        self.resize.grace_wait_ns.reset();
        self.resize.step_ns.reset();
        self.resize.begun_total.reset();
        self.resize.finished_total.reset();
        self.rcu.sync_ns.reset();
        self.rcu.reclaim_executed_total.reset();
        self.rcu.reclaim_passes_total.reset();
        self.rcu.reclaim_panics_total.reset();
        self.rcu.grace_stalls_total.reset();
        self.kv.evict_scan_ns.reset();
        self.kv.slow.reset();
        // Level gauges (connections, queue depth, pending, imbalance) are
        // left alone: their owners re-assert the level, and a transient 0
        // would simply be wrong.
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
        obs.render_prometheus(&mut out);
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
        assert_eq!(obs.kv.requests(), 0);
        let events = obs.trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, TraceKind::StatsReset);
    }

    #[test]
    fn trace_renders_crlf_lines() {
        let obs = Obs::default();
        obs.trace.record(TraceKind::MaintSlice, 42);
        let mut out = Vec::new();
        obs.render_trace(&mut out);
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
        obs.render_trace(&mut out);
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
        obs.render_json(&mut out);
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
            "\"maint_queue_depth\":0",
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
