//! # relativist
//!
//! A Rust reproduction of *Resizable, Scalable, Concurrent Hash Tables via
//! Relativistic Programming* (Triplett, McKenney & Walpole, USENIX ATC'11).
//!
//! This facade crate re-exports the workspace crates so applications can
//! depend on a single package:
//!
//! * [`rcu`] — userspace relativistic-programming (RCU) primitives:
//!   delimited readers, pointer publication, one grace-period detector for
//!   both read-side flavors, and [`rcu::GraceSync`] — the one deferred-free
//!   queue and the one wait that empties it.
//! * [`hash`] — the paper's contribution: [`hash::RpHashMap`], a hash table
//!   with wait-free lookups that can be grown and shrunk while readers run
//!   at full speed.
//! * [`shard`] — [`shard::ShardedRpMap`], a power-of-two array of
//!   independent relativistic tables: shard-local writer locks and resizes
//!   for parallel updates, one guard (or QSBR handle) covering lookups in
//!   every shard.
//! * [`maint`] — [`maint::MaintThread`], the background resize maintenance
//!   thread: with [`shard::ShardedRpMap::with_maintenance`], writers that
//!   hit a load-factor trigger only *request* a resize and the thread runs
//!   the shard's own resize driver ([`hash::RpHashMap::maintain`]),
//!   absorbing every grace-period wait off the writer path.
//! * [`splitorder`] — [`splitorder::SplitOrderMap`], the main *competing*
//!   resize philosophy: a lock-free split-ordered list (Shalev & Shavit)
//!   whose resizes move no data and never wait for a grace period, sharing
//!   the workspace's `ReadProtect` lookup witnesses and `GraceSync`
//!   reclamation funnel.
//! * [`baselines`] — the designs the paper compares against (DDDS,
//!   reader-writer locking, per-bucket locking, Herbert Xu's dual-chain
//!   tables).
//! * [`net`] — [`net::EventLoop`], a dependency-free epoll reactor:
//!   N worker threads, one shared listener (`EPOLLEXCLUSIVE` sharded
//!   accepts), per-connection read/write buffering with backpressure, and
//!   graceful drain — the kvcache server's event-loop front end.
//! * [`kvcache`] — a memcached-style key-value cache with a global-lock
//!   engine and a relativistic GET fast-path engine, served by the `rp-net`
//!   event loop ([`kvcache::EventServer`]).
//! * [`workload`] — key-distribution generators and the multi-threaded
//!   measurement harness used by the benchmarks.
//!
//! # Quick start
//!
//! ```
//! use relativist::hash::RpHashMap;
//!
//! let map: RpHashMap<u64, String> = RpHashMap::new();
//! map.insert(1, "one".to_string());
//! map.insert(2, "two".to_string());
//!
//! // Readers pin a guard (enter a read-side critical section); lookups
//! // never block, even while another thread resizes the table.
//! {
//!     let guard = map.pin();
//!     assert_eq!(map.get(&1, &guard).map(String::as_str), Some("one"));
//! }
//!
//! // Resize; the data stays reachable for readers the whole time.
//! map.resize_to(1024);
//! let guard = map.pin();
//! assert_eq!(map.get(&2, &guard).map(String::as_str), Some("two"));
//! ```

pub use rp_baselines as baselines;
pub use rp_hash as hash;
pub use rp_kvcache as kvcache;
pub use rp_maint as maint;
pub use rp_net as net;
pub use rp_rcu as rcu;
pub use rp_shard as shard;
pub use rp_splitorder as splitorder;
pub use rp_workload as workload;
