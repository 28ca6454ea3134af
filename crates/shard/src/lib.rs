//! A sharded relativistic hash map: parallel writes and resizes on top of
//! wait-free relativistic readers.
//!
//! [`rp_hash::RpHashMap`] gives readers wait-free, resize-transparent
//! lookups, but serialises every update and resize on a single writer mutex
//! — the first scalability wall on a many-core write-heavy workload.
//! `rp-shard` removes it by partitioning the key space across a power-of-two
//! array of independent `RpHashMap` shards:
//!
//! * **Shard routing** uses the *high* bits of the same 64-bit hash the
//!   table's buckets use the *low* bits of, so one hashing pass serves both
//!   decisions (the shards receive the hash pre-computed and never rehash).
//! * **Writes and resizes are shard-local.** Each shard has its own writer
//!   mutex, its own [`rp_hash::ResizePolicy`] and its own deferred-
//!   reclamation threshold, so updates to different shards — including
//!   grow/shrink operations — proceed fully in parallel (the per-partition
//!   resize idea from Malakhov's concurrent rehashing, applied to the
//!   paper's unzip/zip algorithms).
//! * **Readers are oblivious to sharding.** All shards share the
//!   process-wide RCU read domain, so a single [`ShardedRpMap::pin`] guard
//!   (or one online QSBR handle) covers lookups in *any* shard: a caller
//!   with a batch of keys pins once and calls [`ShardedRpMap::get`] per key.
//! * **Postponed resizes.** A writer that cannot wait for readers (an
//!   online QSBR reader, or a thread that holds a guard) postpones the
//!   resize its write made due, as [`rp_hash::RpHashMap`] does. To catch
//!   up, call [`rp_hash::RpHashMap::maintain`] on each of
//!   [`ShardedRpMap::shards`] from a quiescent point, with the QSBR handle
//!   offline; a shard with nothing due answers from a few loads.
//!
//! It is one of the tables the figures and the torture suites compare
//! (`rp_baselines::tables()`); the cache server does not use it: its
//! relativistic engine is one `RpHashMap`, as in the paper.
//!
//! A note on domains: per-shard *grace-period domains* would not buy
//! anything here — readers enter through the global [`rp_rcu::pin`], so any
//! domain's grace period must wait for the same set of reader threads.
//! Sharding instead isolates everything that actually contends: writer
//! locks, resize decisions, and reclamation batching.
//!
//! # Example
//!
//! ```
//! use rp_shard::ShardedRpMap;
//!
//! let map: ShardedRpMap<u64, &'static str> = ShardedRpMap::with_shards(4);
//! map.insert(1, "one");
//! map.insert(2, "two");
//!
//! let guard = map.pin();
//! assert_eq!(map.get(&1, &guard), Some(&"one"));
//! // One guard covers every shard.
//! assert_eq!(map.get(&2, &guard), Some(&"two"));
//! assert_eq!(map.get(&3, &guard), None);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod map;
mod policy;
mod stats;

pub use map::ShardedRpMap;
pub use policy::ShardPolicy;
pub use stats::ShardStats;

/// Re-export of the guard type readers use to delimit lookups.
pub use rp_rcu::RcuGuard;
