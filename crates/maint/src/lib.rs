//! An empty package, kept only for the lock file of `benchmark/`.
//!
//! It held the background resize-maintenance thread that `rp-shard`'s
//! maintained maps handed their resizes to. That job is now done where
//! `rp-hash` does it for a single map: a writer that cannot wait for
//! readers postpones the resize, and `rp_hash::RpHashMap::maintain`,
//! called from the event-loop worker's housekeeping turn with its QSBR
//! handle offline, catches up.
//!
//! Nothing names this crate in source. The package, its dependencies and
//! the `rp-shard` and `rp-kvcache` edges to it stay listed because
//! `benchmark/Cargo.lock`, which changes only together with the benchmark,
//! records all of them; the package goes when that lock file is next
//! rewritten.

#![warn(missing_docs)]
