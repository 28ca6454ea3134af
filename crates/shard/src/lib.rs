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
//! * **Background resize maintenance**
//!   ([`ShardedRpMap::with_maintenance`]): writers that cross a load-factor
//!   threshold only *request* a resize; an `rp-maint` thread runs the
//!   shard's own resize driver ([`rp_hash::RpHashMap::maintain`]) and
//!   absorbs every grace-period wait, so maintained writers never wait for
//!   readers.
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

mod map;
mod policy;
mod stats;

pub use map::ShardedRpMap;
pub use policy::ShardPolicy;
pub use stats::ShardStats;

/// Re-export of the guard type readers use to delimit lookups.
pub use rp_rcu::RcuGuard;

/// Re-export of the maintenance thread's counters (see
/// [`ShardedRpMap::maint_stats`]).
pub use rp_maint::MaintStats;
