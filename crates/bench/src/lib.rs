//! The harness that regenerates the five figures of the paper's
//! evaluation.
//!
//! Each figure is a library function returning a [`rp_workload::Report`];
//! the one binary, `paper_figs [figure …]`, runs the named figures (all
//! five without an argument) and writes `<figure>.csv` and `<figure>.md`
//! into the output directory. Everything else the repo measures — the cost
//! of one request, layer by layer — is `benchmark/`'s job
//! (`bash benchmark/run.sh`).
//!
//! | Figure | Paper figure |
//! |---|---|
//! | `fig_baseline` | "Results: fixed-size table baseline" — lookups/s vs reader threads with no resizing, for every table in [`TABLES`] |
//! | `fig_resize` | "Results – continuous resizing" — the same while a resizer thread toggles the bucket count continuously, for every table that resizes |
//! | `fig_rp_vs_fixed` | "Results – our resize versus fixed" — RP at 8k fixed, 16k fixed, and continuously resizing |
//! | `fig_ddds_vs_fixed` | "Results – DDDS resize versus fixed" — same three series for DDDS |
//! | `fig_memcached` | "memcached results" — requests/s vs client count for GET and SET against the default (global-lock) and RP engines |
//!
//! Parameters are read from environment variables so CI can trade accuracy
//! for time:
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
//! * `RP_BENCH_OUT_DIR` — output directory (default `results/`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rp_baselines::{BucketLockTable, ConcurrentMap, DddsTable, MutexTable, RwLockTable, XuTable};
use rp_hash::{FnvBuildHasher, RpHashMap};
use rp_kvcache::{CacheEngine, EngineReadCtx, Item, LockEngine, ReadSide, RpEngine};
use rp_shard::{ShardPolicy, ShardedRpMap};
use rp_splitorder::SplitOrderMap;
use rp_workload::driver::BackgroundHandle;
use rp_workload::sysinfo::HostInfo;
use rp_workload::{measure_thread_local, KeyDist, KeyGen, Report, Series};

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
    /// Client counts for the memcached figure.
    pub clients: Vec<usize>,
    /// Where CSV/markdown results are written.
    pub out_dir: PathBuf,
    /// Host description (recorded at the top of every result file).
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
            clients: (1..=clients_cap).collect(),
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
            clients: vec![1, 2],
            out_dir: std::env::temp_dir().join("rp-bench-smoke"),
            host: HostInfo::collect(),
        }
    }

    /// The line every result file opens with: where and how its numbers
    /// were taken, so a table is never read without its CPU count.
    pub fn provenance(&self, commit: &str) -> String {
        format!(
            "Host: {}. Entries: {}. Buckets: {} / {}. Window: {:?} per point. Commit: {commit}.",
            self.host, self.entries, self.small_buckets, self.large_buckets, self.duration
        )
    }
}

/// A table under measurement, behind the one adapter every design is driven
/// through.
pub type Table = Arc<dyn ConcurrentMap<u64, u64>>;

fn rp_table(buckets: usize) -> Table {
    Arc::new(RpHashMap::<u64, u64, _>::with_buckets_and_hasher(
        buckets,
        FnvBuildHasher,
    ))
}

fn ddds_table(buckets: usize) -> Table {
    Arc::new(DddsTable::<u64, u64>::with_buckets(buckets))
}

/// Every [`ConcurrentMap`] implementor in the workspace, each built with
/// (about) the given total bucket count and the same FNV hasher. The
/// figures name their series after [`ConcurrentMap::name`].
pub const TABLES: [fn(usize) -> Table; 8] = [
    rp_table,
    |buckets| {
        let policy = ShardPolicy::default();
        Arc::new(ShardedRpMap::<u64, u64>::with_policy(ShardPolicy {
            initial_buckets_per_shard: (buckets / policy.shards).max(1),
            ..policy
        }))
    },
    |buckets| Arc::new(SplitOrderMap::<u64, u64>::with_buckets(buckets)),
    ddds_table,
    |buckets| Arc::new(XuTable::<u64, u64>::with_buckets(buckets)),
    |buckets| Arc::new(RwLockTable::<u64, u64>::with_buckets(buckets)),
    |buckets| Arc::new(BucketLockTable::<u64, u64>::with_buckets(buckets)),
    |buckets| Arc::new(MutexTable::<u64, u64>::with_buckets(buckets)),
];

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
    map: Table,
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
        let (result, _) = measure_thread_local(
            threads,
            cfg.duration,
            u64::MAX,
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

/// One lookup-scalability series per table of [`TABLES`] (only those that
/// resize online when `resize_between` asks for a resizer), each freshly
/// built at the smaller size and pre-loaded.
fn every_table_report(
    cfg: &BenchConfig,
    title: &str,
    resize_between: Option<(usize, usize)>,
) -> Report {
    let mut report = Report::new(title, "reader threads", "lookups/second (millions)");
    for make in TABLES {
        let map = make(cfg.small_buckets);
        if resize_between.is_some() && !map.supports_resize() {
            continue;
        }
        fill(&*map, cfg.entries);
        report.add_series(lookup_scalability(map.name(), map, cfg, resize_between));
    }
    report
}

/// Figure "Results: fixed-size table baseline" — lookups only, no
/// resizing, at the smaller table size, for every table in the workspace
/// (the paper plots RP, DDDS and rwlock).
pub fn fig_baseline(cfg: &BenchConfig) -> Report {
    every_table_report(cfg, "Fixed-size table baseline (no resizing)", None)
}

/// Figure "Results – continuous resizing" — lookups while a background
/// thread resizes the table between the small and large bucket counts, for
/// every table that resizes online (the paper plots RP and DDDS).
pub fn fig_resize(cfg: &BenchConfig) -> Report {
    every_table_report(
        cfg,
        "Lookups during continuous resizing",
        Some((cfg.small_buckets, cfg.large_buckets)),
    )
}

/// Figure "Results – our resize versus fixed" — RP at the small size, the
/// large size, and continuously resizing between the two.
pub fn fig_rp_vs_fixed(cfg: &BenchConfig) -> Report {
    resize_vs_fixed_report(
        cfg,
        "RP: resize overhead versus fixed-size tables",
        rp_table,
    )
}

/// Figure "Results – DDDS resize versus fixed" — the same three series for
/// DDDS.
pub fn fig_ddds_vs_fixed(cfg: &BenchConfig) -> Report {
    resize_vs_fixed_report(
        cfg,
        "DDDS: resize overhead versus fixed-size tables",
        ddds_table,
    )
}

fn resize_vs_fixed_report(cfg: &BenchConfig, title: &str, make: fn(usize) -> Table) -> Report {
    let mut report = Report::new(title, "reader threads", "lookups/second (millions)");
    let toggle = Some((cfg.small_buckets, cfg.large_buckets));
    for (name, buckets, resize_between) in [
        (
            format!("fixed {} buckets", cfg.small_buckets),
            cfg.small_buckets,
            None,
        ),
        (
            format!("fixed {} buckets", cfg.large_buckets),
            cfg.large_buckets,
            None,
        ),
        ("continuous resize".to_string(), cfg.small_buckets, toggle),
    ] {
        let map = make(buckets);
        fill(&*map, cfg.entries);
        report.add_series(lookup_scalability(&name, map, cfg, resize_between));
    }
    report
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

/// A figure: runs its measurements under a configuration.
pub type Figure = fn(&BenchConfig) -> Report;

/// The paper's figures, by the stem of the files they are written to.
pub const FIGURES: [(&str, Figure); 5] = [
    ("fig_baseline", fig_baseline),
    ("fig_resize", fig_resize),
    ("fig_rp_vs_fixed", fig_rp_vs_fixed),
    ("fig_ddds_vs_fixed", fig_ddds_vs_fixed),
    ("fig_memcached", fig_memcached),
];

#[cfg(test)]
mod tests {
    use super::*;

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
        let map = rp_table(64);
        fill(&*map, 100);
        assert_eq!(map.len(), 100);
        assert_eq!(map.lookup(&42), Some(42));
    }

    #[test]
    fn lookup_scalability_produces_one_point_per_thread_count() {
        let cfg = BenchConfig::smoke_test();
        let map = rp_table(cfg.small_buckets);
        fill(&*map, cfg.entries);
        let series = lookup_scalability("RP", map, &cfg, None);
        assert_eq!(series.points.len(), cfg.threads.len());
        assert!(series.points.iter().all(|(_, mops)| *mops > 0.0));
    }

    #[test]
    fn resize_series_keeps_readers_running() {
        let cfg = BenchConfig::smoke_test();
        let map = rp_table(cfg.small_buckets);
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
    fn every_table_has_a_series_in_the_figures_it_belongs_to() {
        let cfg = BenchConfig::smoke_test();
        let baseline = fig_baseline(&cfg);
        let resize = fig_resize(&cfg);
        for make in TABLES {
            let table = make(cfg.small_buckets);
            let mut figures = vec![("fig_baseline", &baseline)];
            if table.supports_resize() {
                figures.push(("fig_resize", &resize));
            }
            for (figure, report) in figures {
                let series = report
                    .series
                    .iter()
                    .find(|s| s.name == table.name())
                    .unwrap_or_else(|| panic!("{figure} has no series for {}", table.name()));
                assert_eq!(series.points.len(), cfg.threads.len());
                // A reader that shares the resizer's lock (`rwlock`) can
                // finish a short resize window with no lookup done.
                let may_starve = figure == "fig_resize";
                assert!(
                    series.points.iter().all(|&(_, mops)| mops.is_finite()
                        && (mops > 0.0 || (may_starve && mops == 0.0))),
                    "{figure}: {series:?}"
                );
            }
        }
        assert_eq!(baseline.series.len(), TABLES.len());
        assert_eq!(resize.series.len(), 6, "six of the eight tables resize");
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
