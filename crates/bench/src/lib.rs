//! Benchmark harnesses that regenerate every figure in the paper's
//! evaluation.
//!
//! Each figure is produced by a library function returning a
//! [`rp_workload::Report`]; the `fig_*` binaries are thin wrappers, and the
//! `run_all` binary regenerates everything and writes CSV + markdown under
//! `results/`.
//!
//! | Binary | Paper figure |
//! |---|---|
//! | `fig_baseline` | "Results: fixed-size table baseline" — lookups/s vs reader threads, RP vs DDDS vs rwlock, no resizing |
//! | `fig_resize` | "Results – continuous resizing" — RP vs DDDS while a resizer thread toggles the bucket count continuously |
//! | `fig_rp_vs_fixed` | "Results – our resize versus fixed" — RP at 8k fixed, 16k fixed, and continuously resizing |
//! | `fig_ddds_vs_fixed` | "Results – DDDS resize versus fixed" — same three series for DDDS |
//! | `fig_memcached` | "memcached results" — requests/s vs client count for GET and SET against the default (global-lock) and RP engines |
//! | `fig_shard` | (repo addition) sharded write throughput — Zipf-keyed inserts/s vs writer threads at 1/4/16/64 shards |
//! | `fig_maint` | (repo addition) resize maintenance — p99 insert latency under a Zipfian write storm, inline vs background-maintained resizes |
//! | `fig_qsbr` | (repo addition) read-side flavors — lookups/s and p99 vs reader threads, EBR guard vs barrier-free QSBR, with and without continuous resizing |
//! | `fig_hotpath` | (repo addition) zero-allocation serving — allocations/op for steady-state event-loop GETs (counting allocator; gated at 0) and pipelined GET throughput vs pipeline depth |
//! | `fig_obs` | (repo addition) telemetry overhead — pipelined GET throughput with `rp-obs` timers on vs off (gated ≤2%), plus a QSBR-vs-EBR server comparison measured from the server's own `STATS` per-opcode histograms |
//! | `fig_tournament` | (repo addition) engine tournament — every map implementation (lock, rp, rp-shard, splitorder) × EBR/QSBR × four workloads (read-heavy, write-heavy, resize-storm, hot-key), plus the grow-path synchronize-call probe (split-ordered must be 0) |
//! | `fig_c100k` | (repo addition) connection ladder — live idle connections (held by child processes) vs pipelined 4 KiB GET throughput under the global admission budget, gating buffered bytes ≤ `--max-bytes`, `SERVER_ERROR busy` sheds past `--max-conns`, and fewer `writev` syscalls than flushed segments |
//! | `fig_chaos` | (repo addition) fault burst — GET throughput before, during and after a scripted `rp-fault` burst (connection resets, short writes, handler panics, grace delays), gating recovery to ≥90% of the pre-burst baseline within 10 s of disarm |
//!
//! Parameters are read from environment variables so CI and the
//! EXPERIMENTS.md runs can trade accuracy for time:
//!
//! * `RP_BENCH_ENTRIES` — number of entries pre-loaded into the table
//!   (default 8192).
//! * `RP_BENCH_SMALL_BUCKETS` / `RP_BENCH_LARGE_BUCKETS` — the two table
//!   sizes the resize figures toggle between (defaults 8192 / 16384, the
//!   paper's values).
//! * `RP_BENCH_DURATION_MS` — measurement window per data point (default
//!   500).
//! * `RP_BENCH_MAX_THREADS` — cap on the reader-thread ladder (default 16).
//! * `RP_BENCH_CLIENTS` — maximum client count for the memcached figure
//!   (default 12).
//! * `RP_BENCH_WRITE_THREADS` — top of the writer ladder for `fig_shard`,
//!   and (clamped to 4) the writer count for `fig_maint`.
//! * `RP_BENCH_SERVER_CONNECTIONS` — connection count for `fig_obs`'s
//!   read-flavor comparison (default 256).
//! * `RP_BENCH_SERVER_WORKERS` — reactor worker threads of every server
//!   figure (default 2).
//! * `RP_BENCH_HOTPATH_CONNECTIONS` — connection count for `fig_hotpath`'s
//!   pipeline-depth ladder (default 16).
//! * `RP_BENCH_HOTPATH_AUDIT_OPS` — operations measured (after as many of
//!   warmup) by `fig_hotpath`'s allocation audit (default 4000).
//! * `RP_BENCH_C100K_CONNS` — top of `fig_c100k`'s live-connection ladder
//!   (default 10000).
//! * `RP_BENCH_OUT_DIR` — output directory (default `results/`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rp_baselines::{ConcurrentMap, DddsTable, MutexTable, RwLockTable};
use rp_hash::{FnvBuildHasher, QsbrReadHandle, RpHashMap};
use rp_kvcache::client::CacheClient;
use rp_kvcache::{
    CacheEngine, EngineReadCtx, EventServer, Item, LockEngine, ReadSide, RpEngine, ServerConfig,
    ShardedRpEngine,
};
use rp_shard::{ShardPolicy, ShardedRpMap};
use rp_splitorder::SplitOrderMap;
use rp_workload::driver::BackgroundHandle;
use rp_workload::sysinfo::HostInfo;
use rp_workload::{measure, measure_thread_local, KeyDist, KeyGen, Report, Series};

/// Zipf exponent used by the sharded-write figure (a cache-like skew).
pub const SHARD_ZIPF_EXPONENT: f64 = 0.99;

/// Benchmark parameters (see the crate docs for the environment variables).
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Entries pre-loaded into every table.
    pub entries: u64,
    /// The smaller bucket count (baseline tables and the resize lower bound).
    pub small_buckets: usize,
    /// The larger bucket count (the resize upper bound).
    pub large_buckets: usize,
    /// Measurement window per data point.
    pub duration: Duration,
    /// Reader-thread counts to sweep.
    pub threads: Vec<usize>,
    /// Writer-thread counts for the sharded-write figure (may exceed the
    /// CPU count; see `RP_BENCH_WRITE_THREADS`).
    pub write_threads: Vec<usize>,
    /// Client counts for the memcached figure.
    pub clients: Vec<usize>,
    /// Connection count for `fig_obs`'s read-flavor comparison.
    pub server_connections: usize,
    /// Reactor worker threads for the server figures.
    pub server_workers: usize,
    /// Connection count for the hot-path figure (`fig_hotpath`).
    pub hotpath_connections: usize,
    /// GETs measured (after as many of warmup) by the `fig_hotpath`
    /// allocation audit.
    pub hotpath_audit_ops: u64,
    /// Top of the live-connection ladder for `fig_c100k`.
    pub c100k_connections: usize,
    /// Where CSV/markdown results are written.
    pub out_dir: PathBuf,
    /// Host description (recorded in the summary).
    pub host: HostInfo,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

fn env_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl BenchConfig {
    /// Builds a configuration from environment variables and host
    /// introspection.
    pub fn from_env() -> Self {
        let host = HostInfo::collect();
        let max_threads = env_num("RP_BENCH_MAX_THREADS", 16_usize);
        let max_clients = env_num("RP_BENCH_CLIENTS", 12_usize);
        let clients_cap = host.logical_cpus.min(max_clients).max(1);
        BenchConfig {
            entries: env_num("RP_BENCH_ENTRIES", 8192_u64),
            small_buckets: env_num("RP_BENCH_SMALL_BUCKETS", 8192_usize),
            large_buckets: env_num("RP_BENCH_LARGE_BUCKETS", 16384_usize),
            duration: Duration::from_millis(env_num("RP_BENCH_DURATION_MS", 500_u64)),
            threads: host.thread_ladder(max_threads),
            write_threads: host
                .oversubscribed_ladder(env_num("RP_BENCH_WRITE_THREADS", host.logical_cpus.max(8))),
            clients: (1..=clients_cap).collect(),
            server_connections: env_num("RP_BENCH_SERVER_CONNECTIONS", 256_usize).max(1),
            server_workers: env_num("RP_BENCH_SERVER_WORKERS", 2_usize).max(1),
            hotpath_connections: env_num("RP_BENCH_HOTPATH_CONNECTIONS", 16_usize).max(1),
            hotpath_audit_ops: env_num("RP_BENCH_HOTPATH_AUDIT_OPS", 4000_u64).max(100),
            c100k_connections: env_num("RP_BENCH_C100K_CONNS", 10_000_usize).max(8),
            out_dir: PathBuf::from(
                std::env::var("RP_BENCH_OUT_DIR").unwrap_or_else(|_| "results".to_string()),
            ),
            host,
        }
    }

    /// A tiny configuration for tests (milliseconds per point, few threads).
    pub fn smoke_test() -> Self {
        BenchConfig {
            entries: 512,
            small_buckets: 128,
            large_buckets: 256,
            duration: Duration::from_millis(30),
            threads: vec![1, 2],
            write_threads: vec![1, 2],
            clients: vec![1, 2],
            server_connections: 4,
            server_workers: 2,
            hotpath_connections: 4,
            hotpath_audit_ops: 500,
            c100k_connections: 64,
            out_dir: std::env::temp_dir().join("rp-bench-smoke"),
            host: HostInfo::collect(),
        }
    }
}

/// Pre-loads `entries` keys (`0..entries`, value = key) into a table.
pub fn fill(map: &dyn ConcurrentMap<u64, u64>, entries: u64) {
    for key in 0..entries {
        map.insert(key, key);
    }
}

/// Measures lookup throughput for one table at each reader-thread count,
/// optionally with a background thread resizing the table continuously
/// between `resize_between.0` and `resize_between.1` buckets.
///
/// Returns a [`Series`] of (reader threads, millions of lookups per second)
/// — the exact axes of the paper's microbenchmark figures.
pub fn lookup_scalability(
    name: &str,
    map: Arc<dyn ConcurrentMap<u64, u64>>,
    cfg: &BenchConfig,
    resize_between: Option<(usize, usize)>,
) -> Series {
    let mut series = Series::new(name);
    for &threads in &cfg.threads {
        let map_ref: &dyn ConcurrentMap<u64, u64> = &*map;
        let entries = cfg.entries;
        let background = match resize_between {
            Some((small, large)) => vec![BackgroundHandle::new("resizer", move |iteration| {
                // Toggle between the two sizes as fast as the algorithm
                // allows — the paper's "continuous resizing" worst case.
                let target = if iteration % 2 == 0 { large } else { small };
                map_ref.resize_to(target);
            })],
            None => Vec::new(),
        };
        let result = measure(
            threads,
            cfg.duration,
            |idx| {
                let mut keys = KeyGen::new(KeyDist::Uniform, entries, 0xC0FFEE + idx as u64);
                let map = Arc::clone(&map);
                move || {
                    let key = keys.next_key();
                    black_box(map.lookup(black_box(&key)));
                }
            },
            background,
        );
        eprintln!(
            "  {name}: {threads} reader(s) -> {:.2} Mlookups/s (resizes: {:?})",
            result.mops_per_sec(),
            result.background_iterations
        );
        series.push(threads as f64, result.mops_per_sec());
    }
    series
}

/// Figure "Results: fixed-size table baseline" — RP vs DDDS vs rwlock,
/// lookups only, no resizing, at the smaller table size.
pub fn fig_baseline(cfg: &BenchConfig) -> Report {
    let mut report = Report::new(
        "Fixed-size table baseline (no resizing)",
        "reader threads",
        "lookups/second (millions)",
    );

    let rp: Arc<RpHashMap<u64, u64, FnvBuildHasher>> = Arc::new(
        RpHashMap::with_buckets_and_hasher(cfg.small_buckets, FnvBuildHasher),
    );
    fill(&*rp, cfg.entries);
    report.add_series(lookup_scalability("RP", rp, cfg, None));

    let ddds: Arc<DddsTable<u64, u64>> = Arc::new(DddsTable::with_buckets(cfg.small_buckets));
    fill(&*ddds, cfg.entries);
    report.add_series(lookup_scalability("DDDS", ddds, cfg, None));

    let rwlock: Arc<RwLockTable<u64, u64>> = Arc::new(RwLockTable::with_buckets(cfg.small_buckets));
    fill(&*rwlock, cfg.entries);
    report.add_series(lookup_scalability("rwlock", rwlock, cfg, None));

    report
}

/// Figure "Results – continuous resizing" — RP vs DDDS while a background
/// thread resizes the table between the small and large bucket counts.
pub fn fig_resize(cfg: &BenchConfig) -> Report {
    let mut report = Report::new(
        "Lookups during continuous resizing",
        "reader threads",
        "lookups/second (millions)",
    );
    let toggle = Some((cfg.small_buckets, cfg.large_buckets));

    let rp: Arc<RpHashMap<u64, u64, FnvBuildHasher>> = Arc::new(
        RpHashMap::with_buckets_and_hasher(cfg.small_buckets, FnvBuildHasher),
    );
    fill(&*rp, cfg.entries);
    report.add_series(lookup_scalability("RP", rp, cfg, toggle));

    let ddds: Arc<DddsTable<u64, u64>> = Arc::new(DddsTable::with_buckets(cfg.small_buckets));
    fill(&*ddds, cfg.entries);
    report.add_series(lookup_scalability("DDDS", ddds, cfg, toggle));

    report
}

/// Figure "Results – our resize versus fixed" — RP at the small size, the
/// large size, and continuously resizing between the two.
pub fn fig_rp_vs_fixed(cfg: &BenchConfig) -> Report {
    resize_vs_fixed_report(
        cfg,
        "RP: resize overhead versus fixed-size tables",
        |buckets| {
            let map: Arc<RpHashMap<u64, u64, FnvBuildHasher>> =
                Arc::new(RpHashMap::with_buckets_and_hasher(buckets, FnvBuildHasher));
            map
        },
    )
}

/// Figure "Results – DDDS resize versus fixed" — the same three series for
/// DDDS.
pub fn fig_ddds_vs_fixed(cfg: &BenchConfig) -> Report {
    resize_vs_fixed_report(
        cfg,
        "DDDS: resize overhead versus fixed-size tables",
        |buckets| {
            let map: Arc<DddsTable<u64, u64>> = Arc::new(DddsTable::with_buckets(buckets));
            map
        },
    )
}

fn resize_vs_fixed_report<M, F>(cfg: &BenchConfig, title: &str, make: F) -> Report
where
    M: ConcurrentMap<u64, u64> + 'static,
    F: Fn(usize) -> Arc<M>,
{
    let mut report = Report::new(title, "reader threads", "lookups/second (millions)");

    let small = make(cfg.small_buckets);
    fill(&*small, cfg.entries);
    report.add_series(lookup_scalability(
        &format!("fixed {}k buckets", cfg.small_buckets / 1024),
        small,
        cfg,
        None,
    ));

    let large = make(cfg.large_buckets);
    fill(&*large, cfg.entries);
    report.add_series(lookup_scalability(
        &format!("fixed {}k buckets", cfg.large_buckets / 1024),
        large,
        cfg,
        None,
    ));

    let resizing = make(cfg.small_buckets);
    fill(&*resizing, cfg.entries);
    report.add_series(lookup_scalability(
        "continuous resize",
        resizing,
        cfg,
        Some((cfg.small_buckets, cfg.large_buckets)),
    ));

    report
}

/// Measures *write* throughput for one table at each thread count: every
/// thread performs Zipf-distributed insert-or-replace operations (the
/// workload where a single writer mutex is the wall and shard-local locks
/// win).
pub fn write_scalability(
    name: &str,
    map: Arc<dyn ConcurrentMap<u64, u64>>,
    cfg: &BenchConfig,
) -> Series {
    let mut series = Series::new(name);
    for &threads in &cfg.write_threads {
        let entries = cfg.entries;
        let result = measure(
            threads,
            cfg.duration,
            |idx| {
                let mut keys = KeyGen::new(
                    KeyDist::Zipf(SHARD_ZIPF_EXPONENT),
                    entries,
                    0x5EED + idx as u64,
                );
                let map = Arc::clone(&map);
                move || {
                    let key = keys.next_key();
                    black_box(map.insert(black_box(key), key));
                }
            },
            Vec::new(),
        );
        eprintln!(
            "  {name}: {threads} writer(s) -> {:.2} Minserts/s",
            result.mops_per_sec()
        );
        series.push(threads as f64, result.mops_per_sec());
    }
    series
}

/// Builds a [`ShardedRpMap`] whose *total* initial bucket count matches the
/// single-table configurations, split evenly across `shards`.
pub fn sharded_map(shards: usize, total_buckets: usize) -> ShardedRpMap<u64, u64> {
    ShardedRpMap::with_policy(ShardPolicy {
        shards,
        initial_buckets_per_shard: (total_buckets / shards.max(1)).max(1),
        ..ShardPolicy::default()
    })
}

/// Figure "sharded writes" — insert throughput versus writer threads for
/// the single-table relativistic map and `rp-shard` at 1/4/16/64 shards,
/// under the Zipfian workload driver. Every configuration starts with the
/// same total bucket count, so the only variable is write-side contention.
pub fn fig_shard(cfg: &BenchConfig) -> Report {
    let mut report = Report::new(
        "Sharded write throughput (Zipfian keys)",
        "writer threads",
        "inserts/second (millions)",
    );

    let single: Arc<RpHashMap<u64, u64, FnvBuildHasher>> = Arc::new(
        RpHashMap::with_buckets_and_hasher(cfg.small_buckets, FnvBuildHasher),
    );
    fill(&*single, cfg.entries);
    report.add_series(write_scalability("RP single-table", single, cfg));

    for shards in [1_usize, 4, 16, 64] {
        let map = Arc::new(sharded_map(shards, cfg.small_buckets));
        fill(&*map, cfg.entries);
        report.add_series(write_scalability(
            &format!("rp-shard ({shards} shards)"),
            map,
            cfg,
        ));
    }

    report
}

/// Per-shard policy used by the maintenance-latency figure: small initial
/// tables with automatic expansion, so a write storm forces many unzip
/// resizes during the measurement window.
fn maint_storm_policy(shards: usize) -> ShardPolicy {
    ShardPolicy {
        shards,
        initial_buckets_per_shard: 16,
        per_shard: rp_hash::ResizePolicy {
            auto_expand: true,
            max_load_factor: 2.0,
            min_buckets: 16,
            ..rp_hash::ResizePolicy::default()
        },
    }
}

/// Runs a Zipfian write storm against `map` and returns the merged
/// per-insert latency histogram plus the total number of grace periods the
/// *writer threads themselves* waited for (0 on the maintained path — the
/// claim `fig_maint` exists to demonstrate).
///
/// Every writer alternates between a fresh key (monotonic growth that keeps
/// crossing the expand trigger) and a Zipf-distributed replace; one reader
/// thread iterates continuously so grace periods have real cost.
pub fn maint_write_storm(
    map: &Arc<ShardedRpMap<u64, u64>>,
    writers: usize,
    duration: Duration,
) -> (rp_workload::LatencyHistogram, u64) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    let stop = Arc::new(AtomicBool::new(false));
    let mut merged = rp_workload::LatencyHistogram::new();
    let mut writer_grace_waits = 0_u64;
    std::thread::scope(|s| {
        let reader = {
            let map = Arc::clone(map);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let guard = map.pin();
                    let mut seen = 0_usize;
                    for _ in map.iter(&guard) {
                        seen += 1;
                    }
                    black_box(seen);
                }
            })
        };
        let handles: Vec<_> = (0..writers.max(1))
            .map(|w| {
                let map = Arc::clone(map);
                s.spawn(move || {
                    let waits_before = rp_rcu::thread_synchronize_count();
                    let mut hist = rp_workload::LatencyHistogram::new();
                    let mut zipf = KeyGen::new(
                        KeyDist::Zipf(SHARD_ZIPF_EXPONENT),
                        1 << 20,
                        0xC0FFEE + w as u64,
                    );
                    let mut fresh = w as u64;
                    let deadline = Instant::now() + duration;
                    let mut i = 0_u64;
                    loop {
                        let key = if i.is_multiple_of(2) {
                            fresh += writers as u64;
                            (1 << 40) | fresh
                        } else {
                            zipf.next_key()
                        };
                        let started = Instant::now();
                        map.insert(key, i);
                        hist.record(started.elapsed());
                        i += 1;
                        if started >= deadline {
                            break;
                        }
                    }
                    (hist, rp_rcu::thread_synchronize_count() - waits_before)
                })
            })
            .collect();
        for handle in handles {
            let (hist, waits) = handle.join().unwrap();
            merged.merge(&hist);
            writer_grace_waits += waits;
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().unwrap();
    });
    (merged, writer_grace_waits)
}

/// Figure "maintained resize latency" — p99 insert latency under a Zipfian
/// write storm, with resizes driven **inline by the triggering writer**
/// versus **in the background by the `rp-maint` thread**, at 4 and 16
/// shards.
///
/// This is the latency counterpart of `fig_shard`'s throughput story: the
/// paper makes resizes invisible to *readers*; the maintenance subsystem
/// additionally makes their grace-period waits invisible to *writers*. The
/// run also reports how many grace periods the writers themselves waited
/// for — by construction 0 on the maintained path.
pub fn fig_maint(cfg: &BenchConfig) -> Report {
    let mut report = Report::new(
        "Resize maintenance: p99 insert latency (Zipfian write storm)",
        "shards",
        "p99 insert latency (µs)",
    );
    let writers = cfg
        .write_threads
        .iter()
        .copied()
        .max()
        .unwrap_or(2)
        .clamp(1, 4);
    let mut inline_series = Series::new("inline resize");
    let mut maintained_series = Series::new("maintained resize");
    for shards in [4_usize, 16] {
        for maintained in [false, true] {
            let map: Arc<ShardedRpMap<u64, u64>> = Arc::new(if maintained {
                ShardedRpMap::with_maintenance(
                    maint_storm_policy(shards),
                    rp_maint::MaintConfig::default(),
                )
            } else {
                ShardedRpMap::with_policy(maint_storm_policy(shards))
            });
            let (hist, writer_waits) = maint_write_storm(&map, writers, cfg.duration);
            let p99 = hist.percentile_us(0.99);
            let label = if maintained { "maintained" } else { "inline" };
            eprintln!(
                "  {shards} shards / {label}: p99 {:.1} µs, p50 {:.1} µs, max {:.1} µs, \
                 {} inserts, writer grace waits: {writer_waits}, resizes: {}",
                p99,
                hist.percentile_us(0.50),
                hist.max_ns() as f64 / 1e3,
                hist.count(),
                map.stats().total().resizes(),
            );
            if maintained {
                maintained_series.push(shards as f64, p99);
            } else {
                inline_series.push(shards as f64, p99);
            }
        }
    }
    report.add_series(inline_series);
    report.add_series(maintained_series);
    report
}

/// How many lookups a QSBR reader performs between quiescent-state
/// announcements in `fig_qsbr` (mirrors the event-loop server's
/// once-per-batch rhythm).
pub const QSBR_QUIESCENT_EVERY: u64 = 256;

/// Latency sampling stride for `fig_qsbr` (every Nth lookup is timed, so
/// the `Instant::now` overhead stays off the throughput path).
const QSBR_SAMPLE_EVERY: u64 = 64;

/// Measures lookup throughput and sampled p99 latency for one read-side
/// flavor, at each reader-thread count, optionally under a continuously
/// resizing table.
///
/// * `EBR` readers pin a guard per lookup (two thread-private stores + two
///   full fences), exactly as the cache engines' GET paths do.
/// * `QSBR` readers register a [`QsbrReadHandle`] on their worker thread
///   (via [`measure_thread_local`] — the handle is `!Send`), perform
///   entirely barrier-free lookups, and announce one quiescent state every
///   [`QSBR_QUIESCENT_EVERY`] lookups.
///
/// Returns `(throughput series, p99 series)` in (Mlookups/s, µs).
pub fn read_flavor_scalability(
    name: &str,
    map: Arc<RpHashMap<u64, u64, FnvBuildHasher>>,
    cfg: &BenchConfig,
    qsbr: bool,
    resize_between: Option<(usize, usize)>,
) -> (Series, Series) {
    let mut throughput = Series::new(name);
    let mut p99 = Series::new(format!("{name} p99 µs"));
    for &threads in &cfg.threads {
        let entries = cfg.entries;
        let map_ref = &*map;
        let background = match resize_between {
            Some((small, large)) => vec![BackgroundHandle::new("resizer", move |iteration| {
                let target = if iteration % 2 == 0 { large } else { small };
                map_ref.resize_to(target);
            })],
            None => Vec::new(),
        };
        let (result, hist) = measure_thread_local(
            threads,
            cfg.duration,
            QSBR_SAMPLE_EVERY,
            |idx| {
                let mut keys = KeyGen::new(KeyDist::Uniform, entries, 0xC0FFEE + idx as u64);
                let map = Arc::clone(&map);
                // One registration per reader thread, pinned to it; `None`
                // for the EBR flavor.
                let mut handle = qsbr.then(QsbrReadHandle::register);
                let mut since_quiescent = 0_u64;
                move || {
                    let key = keys.next_key();
                    match handle.as_mut() {
                        Some(handle) => {
                            black_box(map.get_qsbr(black_box(&key), handle));
                            since_quiescent += 1;
                            if since_quiescent >= QSBR_QUIESCENT_EVERY {
                                handle.quiescent_state();
                                since_quiescent = 0;
                            }
                        }
                        None => {
                            let guard = rp_rcu::pin();
                            black_box(map.get(black_box(&key), &guard));
                        }
                    }
                }
            },
            background,
        );
        let p99_us = hist.percentile_us(0.99);
        eprintln!(
            "  {name}: {threads} reader(s) -> {:.2} Mlookups/s, sampled p99 {:.2} µs (resizes: {:?})",
            result.mops_per_sec(),
            p99_us,
            result.background_iterations
        );
        throughput.push(threads as f64, result.mops_per_sec());
        p99.push(threads as f64, p99_us);
    }
    (throughput, p99)
}

/// Figure "read-side flavors" — lookup throughput and sampled p99 for EBR
/// (per-lookup guard) versus QSBR (barrier-free lookups, one quiescent
/// announcement per [`QSBR_QUIESCENT_EVERY`] lookups), with and without a
/// background thread continuously resizing the table.
///
/// This quantifies the paper's central read-side claim at its cheapest
/// realization: QSBR lookups pay *nothing* — the exact cost model kernel
/// RCU gives the original authors — and keep paying nothing while the
/// table resizes under them. The same flavor split is selectable end to
/// end in the cache server (`kvcached --read-side qsbr|ebr`).
pub fn fig_qsbr(cfg: &BenchConfig) -> Report {
    let mut report = Report::new(
        "Read-side flavors: EBR guard vs QSBR (barrier-free) lookups",
        "reader threads",
        "lookups/second (millions) and sampled p99 (µs)",
    );
    let toggle = Some((cfg.small_buckets, cfg.large_buckets));
    let mut flavor_summary: Vec<(String, f64)> = Vec::new();
    for (suffix, resize) in [("", None), (" +resize", toggle)] {
        for (flavor, qsbr) in [("EBR", false), ("QSBR", true)] {
            let map: Arc<RpHashMap<u64, u64, FnvBuildHasher>> = Arc::new(
                RpHashMap::with_buckets_and_hasher(cfg.small_buckets, FnvBuildHasher),
            );
            fill(&*map, cfg.entries);
            let name = format!("{flavor}{suffix}");
            let (throughput, p99) = read_flavor_scalability(&name, map, cfg, qsbr, resize);
            let total: f64 = throughput.points.iter().map(|(_, m)| m).sum();
            flavor_summary.push((name, total));
            report.add_series(throughput);
            report.add_series(p99);
        }
    }
    // The acceptance signal for the uncontended ladder, spelled out in the
    // log: QSBR total across the ladder vs EBR total.
    if let [(_, ebr), (_, qsbr), ..] = &flavor_summary[..] {
        eprintln!(
            "  uncontended ladder totals: QSBR {qsbr:.2} vs EBR {ebr:.2} Mlookups/s ({:.2}x)",
            qsbr / ebr.max(1e-9)
        );
    }
    report
}

/// Verifies the batched read path end to end: for a Zipf-keyed population,
/// `multi_get` must return exactly what per-key `get` returns. Returns the
/// number of keys checked.
pub fn verify_shard_multi_get(cfg: &BenchConfig) -> Result<usize, String> {
    let map = sharded_map(16, cfg.small_buckets);
    let mut keys = KeyGen::new(KeyDist::Zipf(SHARD_ZIPF_EXPONENT), cfg.entries, 0xABBA);
    for _ in 0..cfg.entries {
        let k = keys.next_key();
        map.insert(k, k.wrapping_mul(7));
    }
    // Probe present and absent keys alike.
    let probes: Vec<u64> = (0..cfg.entries * 2).collect();
    let batched = map.multi_get(&probes);
    let mut checked = 0;
    for (key, got) in probes.iter().zip(batched) {
        let per_key = map.get_cloned(key);
        if got != per_key {
            return Err(format!(
                "multi_get({key}) = {got:?} but get({key}) = {per_key:?}"
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Pre-loads a cache engine with `entries` small values.
pub fn fill_cache(engine: &dyn CacheEngine, entries: u64) {
    for key in 0..entries {
        engine.set(&cache_key(key), Item::new(0, format!("value-{key}")));
    }
}

fn cache_key(key: u64) -> String {
    format!("memtier-{key}")
}

/// Measures one memcached-style series: requests/second versus client count
/// for either GETs or SETs against `engine`.
pub fn cache_throughput(
    name: &str,
    engine: Arc<dyn CacheEngine>,
    cfg: &BenchConfig,
    sets: bool,
) -> Series {
    let mut series = Series::new(name);
    for &clients in &cfg.clients {
        let entries = cfg.entries;
        // The paper's patch reads under delimited (EBR-style) sections; the
        // context is pinned to its thread, so each client builds its own.
        let (result, _) = measure_thread_local(
            clients,
            cfg.duration,
            u64::MAX,
            |idx| {
                let mut keys = KeyGen::new(KeyDist::Uniform, entries, 0xFEED + idx as u64);
                let engine = Arc::clone(&engine);
                let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
                move || {
                    let key = cache_key(keys.next_key());
                    if sets {
                        black_box(engine.set(&key, Item::new(0, "updated-value")));
                    } else {
                        black_box(engine.get_ref(key.as_bytes(), &mut ctx));
                    }
                }
            },
            Vec::new(),
        );
        eprintln!(
            "  {name}: {clients} client(s) -> {:.0} kreq/s",
            result.ops_per_sec() / 1e3
        );
        series.push(clients as f64, result.ops_per_sec() / 1e3);
    }
    series
}

/// Figure "memcached results" — GET and SET requests/second versus client
/// count for the default (global-lock) engine and the relativistic engine.
///
/// The clients run in-process (closed loop, one thread per client) so the
/// comparison isolates the engine's synchronisation — the quantity the paper
/// varies — from network-stack noise. The TCP server in `rp-kvcache` speaks
/// the same protocol for end-to-end runs.
pub fn fig_memcached(cfg: &BenchConfig) -> Report {
    let mut report = Report::new(
        "memcached-style cache throughput",
        "client threads",
        "requests/second (thousands)",
    );

    let rp = Arc::new(RpEngine::new());
    fill_cache(&*rp, cfg.entries);
    report.add_series(cache_throughput("RP GET", rp.clone(), cfg, false));

    let default_engine = Arc::new(LockEngine::new());
    fill_cache(&*default_engine, cfg.entries);
    report.add_series(cache_throughput(
        "default GET",
        default_engine.clone(),
        cfg,
        false,
    ));

    report.add_series(cache_throughput("default SET", default_engine, cfg, true));
    report.add_series(cache_throughput("RP SET", rp, cfg, true));

    report
}

/// Pipeline depths the hot-path figure sweeps (depth 1 *is* the
/// closed-loop driver: one request per window).
pub const HOTPATH_DEPTHS: [usize; 3] = [1, 8, 32];

/// Allocations-per-GET ceiling `fig_hotpath` enforces when the counting
/// allocator is installed. The expected value is exactly 0; the epsilon
/// only forgives a stray background allocation (e.g. a maintenance-thread
/// wakeup racing the measurement window) without letting a real
/// per-request allocation (1.0/op) anywhere near passing.
pub const HOTPATH_ALLOC_EPSILON: f64 = 0.005;

/// Allocations-per-SET ceiling `fig_hotpath` enforces beside the GET gate,
/// for the audit's short keys: two per SET — the index node, which holds
/// the key and the item by value, and the payload — plus the deferred-free
/// queue regrowing after each reclamation batch (about 0.01/op amortised).
/// A third per-SET allocation (3.0/op) is nowhere near passing.
pub const HOTPATH_SET_ALLOC_CEILING: f64 = 2.05;

/// Allocation audit result: exact allocation-event deltas over the audited
/// window, process-wide (the audit runs against an otherwise idle server,
/// so the delta *is* the serving path's traffic plus this client's — and
/// the client loop below is itself allocation-free).
#[derive(Debug, Clone, Copy)]
pub struct HotpathAllocs {
    /// Operations audited per command.
    pub ops: u64,
    /// Allocation events during the GET window.
    pub get_allocs: u64,
    /// Allocation events during the SET window.
    pub set_allocs: u64,
}

impl HotpathAllocs {
    /// Allocations per steady-state GET.
    pub fn get_allocs_per_op(&self) -> f64 {
        self.get_allocs as f64 / self.ops as f64
    }

    /// Allocations per steady-state SET.
    pub fn set_allocs_per_op(&self) -> f64 {
        self.set_allocs as f64 / self.ops as f64
    }
}

fn read_until_suffix(
    stream: &mut std::net::TcpStream,
    buf: &mut Vec<u8>,
    suffix: &[u8],
) -> std::io::Result<()> {
    use std::io::Read;
    buf.clear();
    let mut chunk = [0_u8; 4096];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.ends_with(suffix) {
            return Ok(());
        }
    }
}

/// Measures allocations-per-operation for steady-state GETs and SETs
/// against the event-loop server at `addr`, using the process-wide
/// counting-allocator delta over `ops` operations (after an equal warmup
/// that lets every buffer on both sides reach its steady capacity).
///
/// Returns `None` when [`rp_workload::alloc::CountingAllocator`] is not
/// this process's global allocator (e.g. under `run_all`) — the audit is
/// only meaningful from the `fig_hotpath` binary, which installs it.
pub fn hotpath_alloc_audit(addr: std::net::SocketAddr, ops: u64) -> Option<HotpathAllocs> {
    use std::io::Write;

    if !rp_workload::alloc::counting_installed() {
        return None;
    }
    let mut stream = std::net::TcpStream::connect(addr).expect("connect audit client");
    stream.set_nodelay(true).expect("nodelay");

    // Pre-build everything the measured loops touch, so the client side of
    // the exchange is allocation-free too: the measured delta then isolates
    // the serving path (plus literally nothing else — the process is
    // otherwise idle).
    let keys: Vec<String> = (0..64).map(cache_key).collect();
    let get_reqs: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| format!("get {k}\r\n").into_bytes())
        .collect();
    let set_reqs: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| format!("set {k} 0 0 13\r\nupdated-value\r\n").into_bytes())
        .collect();
    let mut rbuf: Vec<u8> = Vec::with_capacity(16 * 1024);

    let mut run_gets = |count: u64, rbuf: &mut Vec<u8>| {
        for i in 0..count {
            let req = &get_reqs[(i % get_reqs.len() as u64) as usize];
            stream.write_all(req).expect("write get");
            read_until_suffix(&mut stream, rbuf, b"END\r\n").expect("read get reply");
        }
    };
    // Warmup: both sides reach steady buffer capacity (the server's
    // per-connection input buffer, pooled response segments, and this
    // client's read buffer all stop growing).
    run_gets(ops, &mut rbuf);
    let before = rp_workload::alloc::total_allocations();
    run_gets(ops, &mut rbuf);
    let get_allocs = rp_workload::alloc::total_allocations() - before;

    let mut run_sets = |count: u64, rbuf: &mut Vec<u8>| {
        for i in 0..count {
            let req = &set_reqs[(i % set_reqs.len() as u64) as usize];
            stream.write_all(req).expect("write set");
            read_until_suffix(&mut stream, rbuf, b"STORED\r\n").expect("read set reply");
        }
    };
    run_sets(ops, &mut rbuf);
    let before = rp_workload::alloc::total_allocations();
    run_sets(ops, &mut rbuf);
    let set_allocs = rp_workload::alloc::total_allocations() - before;

    Some(HotpathAllocs {
        ops,
        get_allocs,
        set_allocs,
    })
}

/// A pipelining raw client connection for the hot-path figure.
struct PipeConn {
    stream: std::net::TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

/// Runs one window of `depth` pipelined GETs: one `write(2)` carrying all
/// the requests, then reads until `depth` `END\r\n` terminators arrived.
fn pipelined_get_window(
    conn: &mut PipeConn,
    get_reqs: &[Vec<u8>],
    depth: usize,
    window_ordinal: u64,
) -> std::io::Result<u64> {
    use std::io::{Read, Write};

    conn.wbuf.clear();
    let base = window_ordinal.wrapping_mul(depth as u64);
    for i in 0..depth {
        let req = &get_reqs[((base + i as u64) % get_reqs.len() as u64) as usize];
        conn.wbuf.extend_from_slice(req);
    }
    conn.stream.write_all(&conn.wbuf)?;

    conn.rbuf.clear();
    let mut terminators = 0_usize;
    let mut chunk = [0_u8; 16 * 1024];
    while terminators < depth {
        let n = conn.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-window",
            ));
        }
        // Rescan only the suffix that could contain new (possibly
        // boundary-spanning) terminators.
        let scan_from = conn.rbuf.len().saturating_sub(4);
        conn.rbuf.extend_from_slice(&chunk[..n]);
        terminators += conn.rbuf[scan_from..]
            .windows(5)
            .filter(|w| w == b"END\r\n")
            .count();
    }
    Ok(depth as u64)
}

/// Throughput + p99 of GET traffic at one pipeline depth (`depth == 1` is
/// the closed-loop regime) against the server at `addr`.
pub fn hotpath_throughput(
    addr: std::net::SocketAddr,
    connections: usize,
    depth: usize,
    duration: Duration,
    entries: u64,
) -> (f64, f64) {
    let keyspace = entries.clamp(1, 1024);
    let get_reqs: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..keyspace)
            .map(|k| format!("get {}\r\n", cache_key(k)).into_bytes())
            .collect(),
    );
    let result = rp_workload::drive_connections_windowed(
        connections,
        connections.min(4),
        duration,
        |_idx| {
            let stream = std::net::TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(PipeConn {
                stream,
                wbuf: Vec::with_capacity(depth * 32),
                rbuf: Vec::with_capacity(depth * 64),
            })
        },
        |_thread| {
            let get_reqs = Arc::clone(&get_reqs);
            move |conn: &mut PipeConn, ordinal: u64| {
                pipelined_get_window(conn, &get_reqs, depth, ordinal)
            }
        },
    )
    .expect("drive hotpath workload");
    assert_eq!(result.errors, 0, "server dropped connections mid-run");
    (result.ops_per_sec(), result.latency.percentile_us(0.99))
}

/// Figure "hot path" — the zero-allocation serving pipeline, measured two
/// ways:
///
/// 1. **Allocations per operation** (exact, via the counting global
///    allocator the `fig_hotpath` binary installs): steady-state
///    event-loop GETs must perform **0** heap allocations end to end —
///    borrowed request decoding, byte-keyed index probe, in-place response
///    serialisation, pooled buffers. Enforced against
///    [`HOTPATH_ALLOC_EPSILON`]; a SET of a short key may make two (the
///    node and the payload that go *into* the table), enforced against
///    [`HOTPATH_SET_ALLOC_CEILING`].
/// 2. **Pipelined throughput**: GET requests/second and p99 at pipeline
///    depths [`HOTPATH_DEPTHS`] on the same connection count. Depth ≥ 8
///    must beat the closed-loop depth-1 driver — the ceiling the
///    allocation-free path exists to serve.
pub fn fig_hotpath(cfg: &BenchConfig) -> Report {
    let mut report = Report::new(
        "hot path: allocations/op and pipelined GET throughput (event loop)",
        "pipeline depth",
        "kreq/s and p99 (µs)",
    );
    let engine: Arc<dyn CacheEngine> = Arc::new(ShardedRpEngine::with_shards_and_capacity(
        16,
        (cfg.entries as usize).max(1024) * 2,
    ));
    fill_cache(&*engine, cfg.entries);
    let config = ServerConfig::event_loop(cfg.server_workers);
    let mut server = EventServer::start(engine, &config).expect("start cache server");
    let addr = server.addr();

    match hotpath_alloc_audit(addr, cfg.hotpath_audit_ops) {
        Some(audit) => {
            eprintln!(
                "  alloc audit over {} ops: GET {} allocs ({:.4}/op), SET {} allocs ({:.2}/op)",
                audit.ops,
                audit.get_allocs,
                audit.get_allocs_per_op(),
                audit.set_allocs,
                audit.set_allocs_per_op(),
            );
            for (name, per_op) in [
                ("GET allocs/op", audit.get_allocs_per_op()),
                ("SET allocs/op", audit.set_allocs_per_op()),
            ] {
                let mut allocs = Series::new(name);
                allocs.push(1.0, per_op);
                report.add_series(allocs);
            }
            assert!(
                audit.get_allocs_per_op() <= HOTPATH_ALLOC_EPSILON,
                "steady-state event-loop GETs must not allocate: {} allocations over {} ops \
                 ({:.4}/op, gate {})",
                audit.get_allocs,
                audit.ops,
                audit.get_allocs_per_op(),
                HOTPATH_ALLOC_EPSILON,
            );
            assert!(
                audit.set_allocs_per_op() <= HOTPATH_SET_ALLOC_CEILING,
                "a steady-state SET of a short key allocates its node and its payload only: {} \
                 allocations over {} ops ({:.2}/op, gate {})",
                audit.set_allocs,
                audit.ops,
                audit.set_allocs_per_op(),
                HOTPATH_SET_ALLOC_CEILING,
            );
        }
        None => eprintln!(
            "  alloc audit unavailable (counting allocator not installed in this binary; \
             run the fig_hotpath binary for the gate)"
        ),
    }

    let mut throughput = Series::new("GET kreq/s");
    let mut p99_series = Series::new("GET p99 µs");
    let mut by_depth = Vec::new();
    for depth in HOTPATH_DEPTHS {
        let (ops_per_sec, p99_us) = hotpath_throughput(
            addr,
            cfg.hotpath_connections,
            depth,
            cfg.duration,
            cfg.entries,
        );
        eprintln!(
            "  depth {depth}: {} conn(s) -> {:.0} kreq/s, p99 {:.0} µs",
            cfg.hotpath_connections,
            ops_per_sec / 1e3,
            p99_us
        );
        throughput.push(depth as f64, ops_per_sec / 1e3);
        p99_series.push(depth as f64, p99_us);
        by_depth.push((depth, ops_per_sec));
    }
    report.add_series(throughput);
    report.add_series(p99_series);
    server.shutdown();

    let closed_loop = by_depth[0].1;
    for &(depth, ops_per_sec) in &by_depth[1..] {
        assert!(
            ops_per_sec > closed_loop,
            "pipelining at depth {depth} ({ops_per_sec:.0} req/s) must beat the closed loop \
             ({closed_loop:.0} req/s) on the same {} connections",
            cfg.hotpath_connections,
        );
    }
    report
}

/// Telemetry-overhead ceiling (percent) `fig_obs` enforces on the GET hot
/// path: with `rp-obs` latency timers enabled, best-case pipelined GET
/// throughput must stay within this fraction of the timers-off run. Only
/// gated when the measurement window is ≥ [`OBS_GATE_MIN_WINDOW`] — below
/// that, scheduler noise swamps a 2% signal and the figure just reports.
pub const OBS_OVERHEAD_GATE_PCT: f64 = 2.0;

/// Minimum per-point window for the [`OBS_OVERHEAD_GATE_PCT`] assertion.
pub const OBS_GATE_MIN_WINDOW: Duration = Duration::from_millis(200);

/// Pulls one `prefix<value>` sample out of Prometheus exposition text.
/// `prefix` must include the trailing space (or label block) so
/// `kv_get_latency_ns_count ` does not match `kv_get_latency_ns_sum`.
fn scrape_u64(text: &str, prefix: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(prefix)?.trim().parse().ok())
}

/// Figure "telemetry overhead" — what the always-on `rp-obs` layer costs,
/// and what it can see:
///
/// 1. **Enabled-vs-disabled A/B** (the subsystem's acceptance gate):
///    best-of-N pipelined GET throughput against the event-loop server
///    with telemetry timers on versus off (`rp_obs::set_enabled`). The
///    hot-path delta is two `Instant::now` reads plus one relaxed
///    `fetch_add` per request; the gate asserts the best-case cost stays
///    ≤ [`OBS_OVERHEAD_GATE_PCT`] on windows ≥ [`OBS_GATE_MIN_WINDOW`].
/// 2. **QSBR vs EBR, measured by the server itself**: the same GET
///    workload against each read-side flavor at the figure's top
///    connection count, with per-opcode latency quantiles scraped from the
///    live `STATS` endpoint — the flavor gap of `fig_qsbr`, re-observed at
///    the server level through the new histograms instead of client-side
///    timing.
pub fn fig_obs(cfg: &BenchConfig) -> Report {
    let mut report = Report::new(
        "telemetry: rp-obs overhead (timers on vs off) and STATS-measured read flavors",
        "trial / connections",
        "kreq/s, overhead %, and server-side GET latency (µs)",
    );
    let depth = 8;
    let trials = 5;

    // Part 1: A/B the telemetry timers over one server, interleaved so
    // drift hits both sides equally, keeping the best window of each.
    let engine: Arc<dyn CacheEngine> = Arc::new(ShardedRpEngine::with_shards_and_capacity(
        16,
        (cfg.entries as usize).max(1024) * 2,
    ));
    fill_cache(&*engine, cfg.entries);
    let config = ServerConfig::event_loop(cfg.server_workers);
    let mut server = EventServer::start(engine, &config).expect("start cache server");
    let addr = server.addr();

    let mut on_series = Series::new("stats-on kreq/s");
    let mut off_series = Series::new("stats-off kreq/s");
    let (mut best_on, mut best_off) = (0.0_f64, 0.0_f64);
    for trial in 0..trials {
        for enabled in [true, false] {
            rp_obs::set_enabled(enabled);
            let (ops_per_sec, _) = hotpath_throughput(
                addr,
                cfg.hotpath_connections,
                depth,
                cfg.duration,
                cfg.entries,
            );
            if enabled {
                best_on = best_on.max(ops_per_sec);
                on_series.push(trial as f64, ops_per_sec / 1e3);
            } else {
                best_off = best_off.max(ops_per_sec);
                off_series.push(trial as f64, ops_per_sec / 1e3);
            }
        }
    }
    rp_obs::set_enabled(true);
    server.shutdown();
    let overhead_pct = (1.0 - best_on / best_off) * 100.0;
    eprintln!(
        "  timers on: {:.0} kreq/s best, off: {:.0} kreq/s best -> overhead {overhead_pct:.2}%",
        best_on / 1e3,
        best_off / 1e3,
    );
    report.add_series(on_series);
    report.add_series(off_series);
    let mut overhead = Series::new("overhead %");
    overhead.push(0.0, overhead_pct);
    report.add_series(overhead);
    if cfg.duration >= OBS_GATE_MIN_WINDOW {
        assert!(
            overhead_pct <= OBS_OVERHEAD_GATE_PCT,
            "telemetry timers cost {overhead_pct:.2}% of GET throughput \
             (gate {OBS_OVERHEAD_GATE_PCT}%: on {best_on:.0} req/s vs off {best_off:.0} req/s)",
        );
    }

    // Part 2: the read-flavor gap, measured by the server's own histograms.
    let connections = cfg.server_connections;
    for read_side in [ReadSide::Qsbr, ReadSide::Ebr] {
        let engine: Arc<dyn CacheEngine> = Arc::new(ShardedRpEngine::with_shards_and_capacity(
            16,
            (cfg.entries as usize).max(1024) * 2,
        ));
        fill_cache(&*engine, cfg.entries);
        let config = ServerConfig::event_loop(cfg.server_workers).with_read_side(read_side);
        let mut server = EventServer::start(engine, &config).expect("start cache server");
        let addr = server.addr();

        // The registry is process-global: zero it so this run's scrape
        // reflects only this flavor's traffic.
        let mut scraper = CacheClient::connect(addr).expect("connect scraper");
        scraper.stats_text("RESET").expect("STATS RESET");
        let (ops_per_sec, client_p99_us) =
            hotpath_throughput(addr, connections, depth, cfg.duration, cfg.entries);
        let text = scraper.stats_text("").expect("scrape STATS");
        server.shutdown();

        let count = scrape_u64(&text, "kv_get_latency_ns_count ").unwrap_or(0);
        let p50_ns = scrape_u64(&text, "kv_get_latency_ns{quantile=\"0.5\"} ").unwrap_or(0);
        let p99_ns = scrape_u64(&text, "kv_get_latency_ns{quantile=\"0.99\"} ").unwrap_or(0);
        assert!(
            count > 0,
            "STATS scrape saw no GETs for {read_side:?}; endpoint broken?\n{text}"
        );
        let label = match read_side {
            ReadSide::Qsbr => "qsbr",
            ReadSide::Ebr => "ebr",
        };
        eprintln!(
            "  {label}: {connections} conn(s) -> {:.0} kreq/s client-side; server-side GET \
             p50 {p50_ns} ns, p99 {p99_ns} ns over {count} GETs (client p99 {client_p99_us:.0} µs)",
            ops_per_sec / 1e3,
        );
        let mut throughput = Series::new(format!("{label} kreq/s"));
        throughput.push(connections as f64, ops_per_sec / 1e3);
        report.add_series(throughput);
        let mut server_p99 = Series::new(format!("{label} server GET p99 µs"));
        server_p99.push(connections as f64, p99_ns as f64 / 1e3);
        report.add_series(server_p99);
        let mut server_p50 = Series::new(format!("{label} server GET p50 µs"));
        server_p50.push(connections as f64, p50_ns as f64 / 1e3);
        report.add_series(server_p50);
    }
    report
}

/// One workload in the engine tournament.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TournamentWorkload {
    /// 95% lookups / 5% writes, uniform keys.
    ReadHeavy,
    /// 50% lookups / 50% writes, uniform keys.
    WriteHeavy,
    /// 95/5 uniform while a background thread toggles the bucket count.
    ResizeStorm,
    /// 95/5 with Zipf(0.99)-skewed keys.
    HotKey,
}

impl TournamentWorkload {
    /// All four workloads, in figure order.
    pub const ALL: [TournamentWorkload; 4] = [
        TournamentWorkload::ReadHeavy,
        TournamentWorkload::WriteHeavy,
        TournamentWorkload::ResizeStorm,
        TournamentWorkload::HotKey,
    ];

    fn write_percent(self) -> u64 {
        match self {
            TournamentWorkload::WriteHeavy => 50,
            _ => 5,
        }
    }

    fn dist(self) -> KeyDist {
        match self {
            TournamentWorkload::HotKey => KeyDist::Zipf(SHARD_ZIPF_EXPONENT),
            _ => KeyDist::Uniform,
        }
    }

    fn resizes(self) -> bool {
        self == TournamentWorkload::ResizeStorm
    }
}

/// What the tournament drives: any [`ConcurrentMap`] plus a QSBR lookup.
/// Maps without a barrier-free path fall back to their ordinary lookup,
/// mirroring the cache server's `LockEngine` fallback.
pub trait TournamentMap: ConcurrentMap<u64, u64> {
    /// Barrier-free lookup through a QSBR handle where supported.
    fn lookup_qsbr(&self, key: &u64, handle: &QsbrReadHandle) -> Option<u64>;
}

impl<S: std::hash::BuildHasher + Send + Sync> TournamentMap for RpHashMap<u64, u64, S> {
    fn lookup_qsbr(&self, key: &u64, handle: &QsbrReadHandle) -> Option<u64> {
        self.get(key, handle).copied()
    }
}

impl<S: std::hash::BuildHasher + Send + Sync> TournamentMap for ShardedRpMap<u64, u64, S> {
    fn lookup_qsbr(&self, key: &u64, handle: &QsbrReadHandle) -> Option<u64> {
        self.get_qsbr(key, handle).copied()
    }
}

impl<S: std::hash::BuildHasher + Send + Sync> TournamentMap for SplitOrderMap<u64, u64, S> {
    fn lookup_qsbr(&self, key: &u64, handle: &QsbrReadHandle) -> Option<u64> {
        self.get(key, handle).copied()
    }
}

impl TournamentMap for MutexTable<u64, u64> {
    fn lookup_qsbr(&self, key: &u64, _handle: &QsbrReadHandle) -> Option<u64> {
        self.lookup(key)
    }
}

/// Measures one tournament cell: `threads` mixed readers/writers against a
/// freshly loaded `map`, under one read-side flavor and one workload.
/// Returns millions of operations per second.
pub fn tournament_point(
    map: Arc<dyn TournamentMap>,
    cfg: &BenchConfig,
    threads: usize,
    qsbr: bool,
    workload: TournamentWorkload,
) -> f64 {
    fill(&*map, cfg.entries);
    let map_ref = &*map;
    let background = if workload.resizes() && map.supports_resize() {
        let (small, large) = (cfg.small_buckets, cfg.large_buckets);
        vec![BackgroundHandle::new("resizer", move |iteration| {
            let target = if iteration % 2 == 0 { large } else { small };
            map_ref.resize_to(target);
        })]
    } else {
        Vec::new()
    };
    let entries = cfg.entries;
    let write_percent = workload.write_percent();
    let (result, _hist) = measure_thread_local(
        threads,
        cfg.duration,
        QSBR_SAMPLE_EVERY,
        |idx| {
            let mut keys = KeyGen::new(workload.dist(), entries, 0x70AD ^ idx as u64);
            let map = Arc::clone(&map);
            let mut handle = qsbr.then(QsbrReadHandle::register);
            let mut since_quiescent = 0_u64;
            let mut op = 0_u64;
            move || {
                let key = keys.next_key();
                op = op.wrapping_add(1);
                if op % 100 < write_percent {
                    // Writes alternate insert/remove from the same
                    // distribution so the population hovers around its
                    // preloaded size. A QSBR thread goes offline for the
                    // write, exactly like the event-loop server's slow
                    // path: a writer blocked on the table's writer lock
                    // while its handle is online and silent would deadlock
                    // any resize waiting out the grace period.
                    let write = || {
                        if op.is_multiple_of(2) {
                            black_box(map.insert(key, key));
                        } else {
                            black_box(map.remove(&key));
                        }
                    };
                    match handle.as_mut() {
                        Some(handle) => handle.offline_scope(write),
                        None => write(),
                    }
                } else {
                    match handle.as_mut() {
                        Some(handle) => {
                            black_box(map.lookup_qsbr(black_box(&key), handle));
                            since_quiescent += 1;
                            if since_quiescent >= QSBR_QUIESCENT_EVERY {
                                handle.quiescent_state();
                                since_quiescent = 0;
                            }
                        }
                        None => {
                            black_box(map.lookup(black_box(&key)));
                        }
                    }
                }
            }
        },
        background,
    );
    result.mops_per_sec()
}

/// Grow-path probe: inserts enough keys into a fresh map to force growth
/// on the writer thread, then reports how many `synchronize` calls that
/// thread issued. Split-ordered growth is a pointer publication — the
/// count must be zero; the relativistic table's inline zip/unzip resize
/// waits out grace periods — the count is positive. Run on a spawned
/// thread so the counter only sees this probe.
pub fn grow_synchronize_calls(splitorder: bool, inserts: u64) -> u64 {
    std::thread::spawn(move || {
        let before = rp_rcu::thread_synchronize_count();
        if splitorder {
            let map: SplitOrderMap<u64, u64> = SplitOrderMap::with_buckets(8);
            for k in 0..inserts {
                map.insert(k, k);
            }
            assert!(map.num_buckets() > 8, "probe never grew the table");
        } else {
            let map: RpHashMap<u64, u64, FnvBuildHasher> =
                RpHashMap::with_buckets_and_hasher(8, FnvBuildHasher);
            for k in 0..inserts {
                map.insert(k, k);
            }
            map.resize_to((inserts as usize).next_power_of_two());
            assert!(map.num_buckets() > 8, "probe never grew the table");
        }
        rp_rcu::thread_synchronize_count() - before
    })
    .join()
    .expect("grow probe panicked")
}

/// Figure "engine tournament" (repo addition) — every map implementation ×
/// read-side flavor × workload, one throughput cell each, plus the
/// grow-path probe: synchronize calls issued by a writer growing each
/// resizable design (split-ordered must be zero).
pub fn fig_tournament(cfg: &BenchConfig) -> Report {
    let mut report = Report::new(
        "Engine tournament: every map × EBR/QSBR × workload \
         (1=read-heavy, 2=write-heavy, 3=resize-storm, 4=hot-key)",
        "workload",
        "operations/second (millions)",
    );
    let threads = cfg.threads.last().copied().unwrap_or(2);

    #[allow(clippy::type_complexity)]
    let engines: Vec<(&str, Box<dyn Fn() -> Arc<dyn TournamentMap> + Sync>)> = vec![
        (
            "lock",
            Box::new(|| Arc::new(MutexTable::with_buckets(8192))),
        ),
        (
            "rp",
            Box::new(|| {
                Arc::new(
                    RpHashMap::<u64, u64, FnvBuildHasher>::with_buckets_and_hasher(
                        8192,
                        FnvBuildHasher,
                    ),
                )
            }),
        ),
        (
            "rp-shard",
            Box::new(|| Arc::new(ShardedRpMap::<u64, u64>::with_shards(8))),
        ),
        (
            "splitorder",
            Box::new(|| Arc::new(SplitOrderMap::<u64, u64>::with_buckets(8192))),
        ),
    ];

    for (name, make) in &engines {
        for (flavor, qsbr) in [("ebr", false), ("qsbr", true)] {
            let mut series = Series::new(format!("{name}/{flavor}"));
            for (ordinal, workload) in TournamentWorkload::ALL.iter().enumerate() {
                // A fresh map per cell so earlier workloads cannot skew
                // later ones (write-heavy churn, resize-storm end states).
                let mops = tournament_point(make(), cfg, threads, qsbr, *workload);
                eprintln!(
                    "  {name}/{flavor} {workload:?}: {threads} thread(s) -> {mops:.2} Mops/s"
                );
                series.push((ordinal + 1) as f64, mops);
            }
            report.add_series(series);
        }
    }

    // The resize-philosophy headline, as data: grow-path synchronize calls
    // per design. Split-ordered growth must be free of grace waits.
    let mut grow = Series::new("grow-path synchronize calls");
    let so_syncs = grow_synchronize_calls(true, 20_000);
    let rp_syncs = grow_synchronize_calls(false, 20_000);
    assert_eq!(
        so_syncs, 0,
        "split-ordered growth must never synchronize on the writer"
    );
    eprintln!("  grow probe: splitorder {so_syncs} synchronize calls, rp {rp_syncs}");
    grow.push(1.0, so_syncs as f64);
    grow.push(2.0, rp_syncs as f64);
    report.add_series(grow);

    report
}

/// Env var that flips a bench binary into `fig_c100k` connection-holder
/// mode: `"<addr> <count>"`. The ladder's client sockets live in child
/// processes so the serving process spends its `RLIMIT_NOFILE` budget on
/// *its* side of each connection only — both ends in one process would
/// halve the reachable ladder.
pub const C100K_HOLDER_ENV: &str = "RP_BENCH_C100K_HOLD";

/// Byte budget `fig_c100k` grants the server (`--max-bytes` equivalent) —
/// the bound the figure asserts buffered response memory stays under at
/// every rung of the ladder.
pub const C100K_MAX_BYTES: usize = 64 * 1024 * 1024;

/// Value size for `fig_c100k`'s GET traffic: above the reply-coalescing
/// threshold, so every pipelined response batch flushes as a genuinely
/// multi-segment `writev` and the scatter-gather gate measures real
/// batching, not one coalesced buffer.
const C100K_VALUE_LEN: usize = 4096;

/// Runs connection-holder mode when [`C100K_HOLDER_ENV`] is set: connect
/// and hold that many sockets against the given address until stdin hits
/// EOF, then drop them all and exit. Returns `true` when it ran — the
/// binary's `main` must return immediately. Every bench binary that can
/// invoke [`fig_c100k`] calls this first thing.
pub fn c100k_holder_main() -> bool {
    use std::io::{BufRead, Write};
    let Ok(spec) = std::env::var(C100K_HOLDER_ENV) else {
        return false;
    };
    let mut parts = spec.split_whitespace();
    let addr: std::net::SocketAddr = parts
        .next()
        .and_then(|v| v.parse().ok())
        .expect("holder spec is \"<addr> <count>\"");
    let count: usize = parts
        .next()
        .and_then(|v| v.parse().ok())
        .expect("holder spec is \"<addr> <count>\"");
    let mut conns = Vec::with_capacity(count);
    let mut retries = 0_usize;
    while conns.len() < count {
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => conns.push(stream),
            Err(error) => {
                // A connect burst can overflow the accept backlog; back
                // off briefly and retry.
                retries += 1;
                assert!(
                    retries < count * 10 + 1_000,
                    "holder cannot reach {addr}: {error}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    let mut stdout = std::io::stdout();
    writeln!(stdout, "HELD {count}").expect("holder stdout");
    stdout.flush().expect("holder stdout");
    // Hold everything until the parent closes our stdin.
    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);
    drop(conns);
    true
}

/// Spawns this same binary as a connection holder and waits for its
/// readiness line, so rung accounting is deterministic.
fn spawn_c100k_holder(addr: std::net::SocketAddr, count: usize) -> std::process::Child {
    use std::io::BufRead;
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .env(C100K_HOLDER_ENV, format!("{addr} {count}"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn connection holder");
    let stdout = child.stdout.take().expect("holder stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("holder readiness line");
    assert!(
        line.starts_with("HELD"),
        "connection holder said {line:?} instead of HELD"
    );
    child
}

/// Figure "c100k" — how many live connections the event-loop server holds
/// while the global admission budget keeps memory bounded:
///
/// 1. **Connection ladder**: holder child processes pile live idle
///    connections onto the server (up to `RP_BENCH_C100K_CONNS`, default
///    10000). At every rung the figure waits until the server reports the
///    rung live, drives pipelined 4 KiB GETs over a handful of driver
///    connections, and scrapes the live `STATS` endpoint — asserting
///    `net_bytes_buffered` stays ≤ the byte budget throughout while
///    recording `net_backpressure_stalls_total` and `net_conns_shed_total`.
/// 2. **Admission wall**: connections pushed past `max_connections` must
///    hear `SERVER_ERROR busy` (and bump `net_conns_shed_total`) instead
///    of hanging or silently dropping.
/// 3. **Scatter-gather gate**: across the rung measurements the flush
///    layer must have issued fewer `writev` syscalls than it submitted
///    segments (`net_flush_syscalls_total` < `net_flush_segments_total`).
pub fn fig_c100k(cfg: &BenchConfig) -> Report {
    let mut report = Report::new(
        "c100k: live-connection ladder under global admission control",
        "live connections",
        "kreq/s over 8 driver conns (4 KiB values), buffered KiB, shed/stall counters",
    );
    let target = cfg.c100k_connections.max(8);
    // Headroom above the ladder top for the driver and scraper
    // connections; the admission-wall probe then pushes past it.
    let headroom = 64_usize;

    let engine: Arc<dyn CacheEngine> =
        Arc::new(ShardedRpEngine::with_shards_and_capacity(16, 4096));
    let keys: Vec<String> = (0..64).map(|k| format!("c100k-{k}")).collect();
    for key in &keys {
        engine.set(key, Item::new(0, vec![0x42_u8; C100K_VALUE_LEN]));
    }
    let get_reqs: Arc<Vec<Vec<u8>>> = Arc::new(
        keys.iter()
            .map(|k| format!("get {k}\r\n").into_bytes())
            .collect(),
    );
    let config = ServerConfig {
        max_connections: target + headroom,
        max_total_bytes: C100K_MAX_BYTES,
        ..ServerConfig::event_loop(cfg.server_workers)
    };
    let mut server = EventServer::start(engine, &config).expect("start event server");
    let addr = server.addr();
    let mut scraper = CacheClient::connect(addr).expect("connect scraper");
    scraper.stats_text("RESET").expect("STATS RESET");
    let baseline = scraper.stats_text("").expect("scrape STATS baseline");
    let syscalls_before = scrape_u64(&baseline, "net_flush_syscalls_total ").unwrap_or(0);
    let segments_before = scrape_u64(&baseline, "net_flush_segments_total ").unwrap_or(0);

    // The ladder: spread below the target, ending exactly on it.
    let mut ladder = vec![target / 100, target / 10, target / 4, target / 2, target];
    ladder.retain(|&rung| rung > 0);
    ladder.dedup();

    let depth = 16_usize;
    let driver_conns = 8_usize;
    let mut kreq = Series::new("kreq/s");
    let mut buffered = Series::new("buffered KiB");
    let mut stalls_series = Series::new("backpressure stalls");
    let mut holders: Vec<std::process::Child> = Vec::new();
    let mut held = 0_usize;
    for rung in ladder {
        if rung > held {
            holders.push(spawn_c100k_holder(addr, rung - held));
            held = rung;
        }
        // Acceptance gate: the server actually holds the rung live.
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        loop {
            let live = server.net_stats().current_connections;
            if live >= rung {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "only {live} of {rung} ladder connections came up"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let result = rp_workload::drive_connections_windowed(
            driver_conns,
            driver_conns.min(4),
            cfg.duration,
            |_idx| {
                let stream = std::net::TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(PipeConn {
                    stream,
                    wbuf: Vec::with_capacity(depth * 32),
                    rbuf: Vec::with_capacity(depth * (C100K_VALUE_LEN + 64)),
                })
            },
            |_thread| {
                let get_reqs = Arc::clone(&get_reqs);
                move |conn: &mut PipeConn, ordinal: u64| {
                    pipelined_get_window(conn, &get_reqs, depth, ordinal)
                }
            },
        )
        .expect("drive c100k driver connections");
        assert_eq!(result.errors, 0, "driver connections failed at rung {rung}");
        let stats = server.net_stats();
        // Acceptance gate: buffer memory stays bounded by the byte budget.
        assert!(
            stats.bytes_buffered <= C100K_MAX_BYTES,
            "buffered bytes {} exceed the {C100K_MAX_BYTES}-byte budget at rung {rung}",
            stats.bytes_buffered,
        );
        let text = scraper.stats_text("").expect("scrape STATS");
        let stalls = scrape_u64(&text, "net_backpressure_stalls_total ").unwrap_or(0);
        let shed = scrape_u64(&text, "net_conns_shed_total ").unwrap_or(0);
        eprintln!(
            "  {rung} live ({} open) -> {:.0} kreq/s, {} KiB buffered, \
             {stalls} backpressure stalls, {shed} shed",
            stats.current_connections,
            result.ops_per_sec() / 1e3,
            stats.bytes_buffered / 1024,
        );
        kreq.push(rung as f64, result.ops_per_sec() / 1e3);
        buffered.push(rung as f64, stats.bytes_buffered as f64 / 1024.0);
        stalls_series.push(rung as f64, stalls as f64);
    }
    report.add_series(kreq);
    report.add_series(buffered);
    report.add_series(stalls_series);

    // Part 2: the admission wall. Push past max_connections; the overflow
    // must hear `SERVER_ERROR busy`, not hang or silently vanish.
    use std::io::Read;
    let mut overflow: Vec<std::net::TcpStream> = Vec::new();
    for _ in 0..(headroom + 32) {
        if let Ok(stream) = std::net::TcpStream::connect(addr) {
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .expect("read timeout");
            overflow.push(stream);
        }
    }
    let mut shed_replies = 0_usize;
    let mut reply = [0_u8; 64];
    // Later connections are the likeliest to have been shed; one reply is
    // proof enough (admitted ones would each block out the read timeout).
    for stream in overflow.iter_mut().rev() {
        if let Ok(n) = stream.read(&mut reply) {
            if reply[..n].starts_with(b"SERVER_ERROR") {
                shed_replies += 1;
                break;
            }
        }
    }
    drop(overflow);
    let text = scraper.stats_text("").expect("scrape STATS");
    let shed_total = scrape_u64(&text, "net_conns_shed_total ").unwrap_or(0);
    eprintln!("  admission wall: SERVER_ERROR busy heard, {shed_total} total sheds");
    assert!(
        shed_replies > 0 && shed_total > 0,
        "pushing past max_connections shed nothing \
         ({shed_replies} busy replies, {shed_total} counted)"
    );
    let mut shed_series = Series::new("conns shed at the wall");
    shed_series.push(target as f64, shed_total as f64);
    report.add_series(shed_series);

    // Acceptance gate: scatter-gather flushing batched segments into fewer
    // syscalls over the pipelined rung traffic.
    let syscalls = scrape_u64(&text, "net_flush_syscalls_total ").unwrap_or(0) - syscalls_before;
    let segments = scrape_u64(&text, "net_flush_segments_total ").unwrap_or(0) - segments_before;
    eprintln!("  flush: {syscalls} writev syscalls for {segments} segments");
    assert!(segments > 0, "no flushed segments recorded");
    assert!(
        syscalls < segments,
        "scatter-gather flush must batch: {syscalls} syscalls for {segments} segments"
    );
    let mut flush_series = Series::new("segments per writev");
    flush_series.push(target as f64, segments as f64 / syscalls.max(1) as f64);
    report.add_series(flush_series);

    // Teardown: release the holders first so shutdown drains quickly.
    for mut holder in holders {
        drop(holder.stdin.take());
        let _ = holder.wait();
    }
    drop(scraper);
    server.shutdown();
    report
}

/// The scripted plan `fig_chaos` arms during its burst window: peer
/// resets and short writes on the wire, handler panics in the service,
/// and grace-period delays underneath — every fault class the stack
/// claims to contain, firing probabilistically for the whole window.
pub const CHAOS_BURST_PLAN: &str = "net.read=econnreset@0.002;net.on_data=panic@0.001;\
                                    net.writev=short:7@0.01;rcu.grace=delay:1ms@0.1";

/// Fraction of pre-burst throughput the server must regain after the
/// faults disarm — the figure's acceptance gate.
pub const CHAOS_RECOVERY_FLOOR: f64 = 0.90;

/// Wall-clock budget for regaining [`CHAOS_RECOVERY_FLOOR`].
pub const CHAOS_RECOVERY_DEADLINE: Duration = Duration::from_secs(10);

/// Quiets the default panic hook for the panics `fig_chaos` injects on
/// purpose (each one is caught by the reactor and would otherwise print a
/// full backtrace into the figure's output); real panics still print.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let original = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected panic at failpoint"));
            if !expected {
                original(info);
            }
        }));
    });
}

/// Figure "chaos" — GET throughput through a scripted fault burst:
///
/// 1. **Pre-burst**: closed-loop GETs over reconnecting driver
///    connections establish the healthy baseline (mean of two windows
///    after one warmup window).
/// 2. **Burst**: [`CHAOS_BURST_PLAN`] arms — probabilistic connection
///    resets, short writes, handler panics and grace-period delays, all
///    inside the serving process — while the driver keeps measuring and
///    replacing killed connections.
/// 3. **Recovery**: the plan disarms and windows keep running until
///    throughput regains [`CHAOS_RECOVERY_FLOOR`] of the baseline.
///
/// Acceptance gates: the burst actually injected faults, and recovery
/// lands within [`CHAOS_RECOVERY_DEADLINE`].
pub fn fig_chaos(cfg: &BenchConfig) -> Report {
    quiet_injected_panics();
    let mut report = Report::new(
        "chaos: GET throughput through a scripted fault burst and back",
        "elapsed seconds (window end)",
        "kreq/s per window; faults armed only during the burst windows",
    );
    let engine: Arc<dyn CacheEngine> = Arc::new(RpEngine::with_capacity(4096));
    let keys: Arc<Vec<String>> = Arc::new((0..64).map(|k| format!("chaos-{k}")).collect());
    for key in keys.iter() {
        engine.set(key, Item::new(0, vec![0x42_u8; 256]));
    }
    let mut server = EventServer::start(engine, &ServerConfig::event_loop(cfg.server_workers))
        .expect("start event server");
    let addr = server.addr();
    let obs = rp_obs::global();
    let panics_before = obs.net.conn_panics_total.get();

    // Short smoke windows still need enough room for reconnect backoff
    // inside the burst to amortise.
    let window = cfg.duration.max(Duration::from_millis(100));
    let started = std::time::Instant::now();
    let mut throughput = Series::new("kreq/s");
    let mut reconnects = Series::new("driver reconnects");
    let drive_window = |throughput: &mut Series, reconnects: &mut Series, label: &str| {
        let result = rp_workload::drive_connections_reconnecting(
            8,
            4,
            window,
            |_idx| CacheClient::connect(addr),
            |_thread| {
                let keys = Arc::clone(&keys);
                move |conn: &mut CacheClient, ordinal: u64| {
                    conn.get(&keys[(ordinal % keys.len() as u64) as usize])
                        .map(|_| 1)
                }
            },
            4096,
        )
        .expect("drive chaos window");
        let at = started.elapsed().as_secs_f64();
        eprintln!(
            "  {label}: {:.0} kreq/s ({} errors, {} reconnects)",
            result.ops_per_sec() / 1e3,
            result.errors,
            result.reconnects,
        );
        throughput.push(at, result.ops_per_sec() / 1e3);
        reconnects.push(at, result.reconnects as f64);
        result.ops_per_sec()
    };

    // Phase 1: warmup (recorded but excluded from the baseline), then the
    // baseline itself.
    drive_window(&mut throughput, &mut reconnects, "warmup");
    let pre = (drive_window(&mut throughput, &mut reconnects, "pre-burst")
        + drive_window(&mut throughput, &mut reconnects, "pre-burst"))
        / 2.0;

    // Phase 2: the burst. The guard keeps the plan armed for exactly
    // these windows.
    let injected_during_burst = {
        let _arm = rp_fault::ArmGuard::new(CHAOS_BURST_PLAN, 0xC4405);
        let before = rp_fault::injected_total();
        drive_window(&mut throughput, &mut reconnects, "burst");
        drive_window(&mut throughput, &mut reconnects, "burst");
        rp_fault::injected_total() - before
    };
    let handler_panics = obs.net.conn_panics_total.get() - panics_before;
    eprintln!("  burst: {injected_during_burst} faults injected, {handler_panics} handler panics contained");
    assert!(
        injected_during_burst > 0,
        "the burst window never hit an armed failpoint"
    );

    // Phase 3: recovery — windows keep running until the gate is met.
    let disarmed = std::time::Instant::now();
    let floor = pre * CHAOS_RECOVERY_FLOOR;
    let recovery_secs = loop {
        let ops = drive_window(&mut throughput, &mut reconnects, "recovery");
        let elapsed = disarmed.elapsed();
        if ops >= floor {
            break elapsed.as_secs_f64();
        }
        assert!(
            elapsed < CHAOS_RECOVERY_DEADLINE,
            "throughput stuck at {:.0}/s, below {:.0}% of the {pre:.0}/s baseline \
             {:?} after the faults disarmed",
            ops,
            CHAOS_RECOVERY_FLOOR * 100.0,
            CHAOS_RECOVERY_DEADLINE,
        );
    };
    eprintln!(
        "  recovered to >= {:.0}% of baseline {recovery_secs:.2}s after disarm",
        CHAOS_RECOVERY_FLOOR * 100.0
    );
    report.add_series(throughput);
    report.add_series(reconnects);
    let mut burst_series = Series::new("faults injected during the burst");
    burst_series.push(0.0, injected_during_burst as f64);
    report.add_series(burst_series);
    let mut panic_series = Series::new("handler panics contained");
    panic_series.push(0.0, handler_panics as f64);
    report.add_series(panic_series);
    let mut recovery_series = Series::new("seconds to regain 90% of baseline");
    recovery_series.push(0.0, recovery_secs);
    report.add_series(recovery_series);
    server.shutdown();
    report
}

/// Runs every figure and writes CSV + markdown into `cfg.out_dir`, plus a
/// combined `summary.md`. Returns the reports in figure order.
pub fn run_all(cfg: &BenchConfig) -> std::io::Result<Vec<Report>> {
    #[allow(clippy::type_complexity)]
    let figures: Vec<(&str, fn(&BenchConfig) -> Report)> = vec![
        ("fig_baseline", fig_baseline),
        ("fig_resize", fig_resize),
        ("fig_rp_vs_fixed", fig_rp_vs_fixed),
        ("fig_ddds_vs_fixed", fig_ddds_vs_fixed),
        ("fig_memcached", fig_memcached),
        ("fig_shard", fig_shard),
        ("fig_maint", fig_maint),
        ("fig_qsbr", fig_qsbr),
        ("fig_hotpath", fig_hotpath),
        ("fig_obs", fig_obs),
        ("fig_tournament", fig_tournament),
        ("fig_c100k", fig_c100k),
        ("fig_chaos", fig_chaos),
    ];
    let mut reports = Vec::new();
    let mut summary = String::new();
    summary.push_str("# Relativist benchmark summary\n\n");
    summary.push_str(&format!(
        "Host: {}. Entries: {}. Buckets: {} / {}. Window: {:?} per point.\n\n",
        cfg.host, cfg.entries, cfg.small_buckets, cfg.large_buckets, cfg.duration
    ));
    for (stem, f) in figures {
        eprintln!("== {stem} ==");
        let report = f(cfg);
        report.write_files(&cfg.out_dir, stem)?;
        summary.push_str(&report.to_markdown());
        reports.push(report);
    }
    std::fs::create_dir_all(&cfg.out_dir)?;
    std::fs::write(cfg.out_dir.join("summary.md"), summary)?;
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maint_storm_measures_latency_for_both_variants() {
        let cfg = BenchConfig::smoke_test();
        for maintained in [false, true] {
            let map: Arc<ShardedRpMap<u64, u64>> = Arc::new(if maintained {
                ShardedRpMap::with_maintenance(
                    maint_storm_policy(4),
                    rp_maint::MaintConfig::default(),
                )
            } else {
                ShardedRpMap::with_policy(maint_storm_policy(4))
            });
            let (hist, writer_waits) = maint_write_storm(&map, 2, cfg.duration);
            assert!(hist.count() > 0, "storm recorded no inserts");
            assert!(hist.percentile_ns(0.99) >= hist.percentile_ns(0.50));
            if maintained {
                assert_eq!(
                    writer_waits, 0,
                    "maintained writers must never wait for a grace period"
                );
            }
            map.check_invariants().unwrap();
        }
    }

    #[test]
    fn config_from_env_has_sane_defaults() {
        let cfg = BenchConfig::from_env();
        assert!(cfg.entries > 0);
        assert!(cfg.small_buckets < cfg.large_buckets);
        assert!(!cfg.threads.is_empty());
        assert!(!cfg.clients.is_empty());
    }

    #[test]
    fn fill_populates_the_table() {
        let map: RpHashMap<u64, u64, FnvBuildHasher> =
            RpHashMap::with_buckets_and_hasher(64, FnvBuildHasher);
        fill(&map, 100);
        assert_eq!(ConcurrentMap::len(&map), 100);
        assert_eq!(map.lookup(&42), Some(42));
    }

    #[test]
    fn lookup_scalability_produces_one_point_per_thread_count() {
        let cfg = BenchConfig::smoke_test();
        let map: Arc<RpHashMap<u64, u64, FnvBuildHasher>> = Arc::new(
            RpHashMap::with_buckets_and_hasher(cfg.small_buckets, FnvBuildHasher),
        );
        fill(&*map, cfg.entries);
        let series = lookup_scalability("RP", map, &cfg, None);
        assert_eq!(series.points.len(), cfg.threads.len());
        assert!(series.points.iter().all(|(_, mops)| *mops > 0.0));
    }

    #[test]
    fn resize_series_keeps_readers_running() {
        let cfg = BenchConfig::smoke_test();
        let map: Arc<RpHashMap<u64, u64, FnvBuildHasher>> = Arc::new(
            RpHashMap::with_buckets_and_hasher(cfg.small_buckets, FnvBuildHasher),
        );
        fill(&*map, cfg.entries);
        let series = lookup_scalability(
            "RP resize",
            map,
            &cfg,
            Some((cfg.small_buckets, cfg.large_buckets)),
        );
        assert!(series.points.iter().all(|(_, mops)| *mops > 0.0));
    }

    #[test]
    fn fig_obs_reports_overhead_and_scrapes_server_histograms() {
        let cfg = BenchConfig::smoke_test();
        let report = fig_obs(&cfg);
        // The smoke window is far below OBS_GATE_MIN_WINDOW, so the ≤2%
        // gate does not apply — but the A/B and both STATS-scraped flavor
        // runs must all have produced data.
        for name in [
            "stats-on kreq/s",
            "stats-off kreq/s",
            "overhead %",
            "qsbr kreq/s",
            "ebr kreq/s",
            "qsbr server GET p99 µs",
            "ebr server GET p99 µs",
        ] {
            let series = report
                .series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing series {name}"));
            assert!(!series.points.is_empty(), "empty series {name}");
        }
        assert!(rp_obs::enabled(), "fig_obs must re-enable telemetry");
    }

    #[test]
    fn fig_tournament_covers_every_engine_flavor_and_workload() {
        let cfg = BenchConfig::smoke_test();
        let report = fig_tournament(&cfg);
        for engine in ["lock", "rp", "rp-shard", "splitorder"] {
            for flavor in ["ebr", "qsbr"] {
                let name = format!("{engine}/{flavor}");
                let series = report
                    .series
                    .iter()
                    .find(|s| s.name == name)
                    .unwrap_or_else(|| panic!("missing series {name}"));
                assert_eq!(
                    series.points.len(),
                    TournamentWorkload::ALL.len(),
                    "series {name} must have one point per workload"
                );
                assert!(series.points.iter().all(|(_, mops)| *mops > 0.0));
            }
        }
        let grow = report
            .series
            .iter()
            .find(|s| s.name == "grow-path synchronize calls")
            .expect("missing grow-path probe series");
        assert_eq!(grow.points[0].1, 0.0, "split-ordered growth synchronized");
        assert!(grow.points[1].1 > 0.0, "rp resize should synchronize");
    }

    #[test]
    fn cache_throughput_measures_gets_and_sets() {
        let cfg = BenchConfig::smoke_test();
        let engine = Arc::new(RpEngine::new());
        fill_cache(&*engine, cfg.entries);
        let gets = cache_throughput("RP GET", engine.clone(), &cfg, false);
        let sets = cache_throughput("RP SET", engine, &cfg, true);
        assert_eq!(gets.points.len(), cfg.clients.len());
        assert_eq!(sets.points.len(), cfg.clients.len());
        assert!(gets.points.iter().all(|(_, kops)| *kops > 0.0));
        assert!(sets.points.iter().all(|(_, kops)| *kops > 0.0));
    }
}
