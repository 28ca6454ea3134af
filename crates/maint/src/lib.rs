//! An empty package, kept only for the lock file of `benchmark/`.
//!
//! It held the background resize-maintenance thread that `rp-shard`'s
//! maintained maps handed their resizes to. That job is now the writers':
//! in `rp-hash`, the write that makes a resize due begins it, and the
//! first write after its grace period finishes it, with no write waiting
//! for readers.
//!
//! Nothing names this crate in source. The package, its dependencies and
//! the `rp-shard` and `rp-kvcache` edges to it stay listed because
//! `benchmark/Cargo.lock`, which changes only together with the benchmark,
//! records all of them; the package goes when that lock file is next
//! rewritten.

#![warn(missing_docs)]
