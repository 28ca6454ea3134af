//! A memcached-style key-value cache with a global-lock engine and a
//! relativistic one.
//!
//! The paper's real-world evaluation patches memcached: stock memcached 1.4
//! protects its item hash table with a single global lock (`cache_lock`),
//! while the patched version adds a **relativistic GET fast path** — lookups
//! run inside an RCU read-side critical section, copy the value out, and
//! never take the lock; SETs, deletions, expiry and eviction still use the
//! lock. This crate rebuilds that experiment end to end in Rust:
//!
//! * [`protocol`] — a subset of the memcached **text protocol** (GET / SET /
//!   DELETE plus a few diagnostics) with an incremental parser suitable for
//!   a streaming socket.
//! * [`Item`] — a stored value: flags, optional expiry and a [`Payload`]
//!   (up to 70 bytes inline, longer values a shared `Bytes`) — and
//!   [`ItemKey`], the 24-byte key the relativistic engine stores it under
//!   (up to 22 bytes inline, longer keys behind a `Box<str>`).
//! * [`CacheEngine`] — the storage-engine trait the server dispatches to.
//! * [`LockEngine`] — the **baseline** engine (its `name()` is `default`,
//!   stock memcached's): one global mutex around a hash map plus
//!   eviction bookkeeping, the `cache_lock` architecture.
//! * [`RpEngine`] — the **relativistic** engine, the paper's patch: one
//!   [`rp_hash::RpHashMap`] indexes the cache. GETs are wait-free lookups
//!   that copy the value inside the read-side critical section; SETs and
//!   DELETEs serialise on the map's writer lock; expiry is lazy and
//!   eviction is exact segmented LRU from two queues that one scan of the
//!   index fills for many evictions, both on the slow path (both engines
//!   evict by the same policy). The item is flat: key, flags, deadline,
//!   access stamp with its segment bit and a small value sit by value in the
//!   index node, so a hit of a value of up to 70 bytes is two dependent
//!   loads (bucket slot, node) and a SET of a short key and such a value
//!   allocates nothing: the node comes from the map's slab. It is
//!   `kvcached`'s default engine.
//! * [`server`] / [`EventServer`] / [`client`] — the TCP server on the
//!   `rp-net` epoll event loop (any number of connections from a fixed
//!   worker pool, incremental request framing, pipelined responses, write
//!   backpressure) and a small blocking client speaking the protocol, used
//!   by the end-to-end tests, the `kv_server` example and the figure
//!   harnesses. Workers serve GETs through the **QSBR read path** by
//!   default ([`ReadSide`]): each worker registers a
//!   `rp_hash::QsbrReadHandle` at startup, lookups are entirely
//!   barrier-free, one quiescent state is announced per event batch, and
//!   workers go offline while parked in `epoll_wait`; `--read-side ebr`
//!   restores the guard path. No SET waits for a grace period: the SET
//!   that makes an index resize due begins it, and the first SET after its
//!   grace period finishes it.
//! * [`cli`] — flag/env parsing for the `kvcached` binary.
//!
//! The `fig_memcached` benchmark in `rp-bench` drives both engines with an
//! mc-benchmark-style closed-loop workload and reports requests/second for
//! GETs and SETs separately, reproducing the paper's memcached figure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod audit;
mod engine;
mod item;
mod lock_engine;
pub mod protocol;
mod rp_engine;

pub mod cli;
pub mod client;
pub mod event_server;
pub mod server;
pub mod telemetry;

pub use client::{CacheClient, RetryClient, RetryPolicy};
pub use engine::{CacheEngine, CacheStats, EngineReadCtx, ReadSide, StoreOutcome, GROUP};
pub use event_server::{EventServer, KvService};
pub use item::{Deadline, Item, ItemKey, Payload};
pub use lock_engine::LockEngine;
pub use rp_engine::RpEngine;
pub use server::ServerConfig;
