//! Workload generation and throughput measurement for the relativist
//! benchmarks.
//!
//! The paper's microbenchmark (a Linux kernel module called `rcuhashbash`)
//! spawns a configurable number of reader threads that perform hash-table
//! lookups for a fixed duration, optionally while a resizer thread resizes
//! the table continuously, and reports lookups per second. This crate is the
//! userspace equivalent:
//!
//! * [`keys`] — key-space generators (uniform, Zipfian, sequential).
//! * [`driver`] — the measurement harness: spawns reader threads, each
//!   building its own operation closure, optional background threads
//!   (writers, resizers), runs for a fixed duration and aggregates
//!   throughput and sampled latency.
//! * [`latency`] — a fixed-size log-linear histogram for per-operation
//!   latency percentiles.
//! * [`netdriver`] — a multi-connection *client* driver: N connections
//!   shared across M driver threads with per-request latency recording
//!   and reconnect-on-error ([`drive_connections_reconnecting`]); the
//!   chaos suite drives the cache server through a fault burst with it.
//! * [`alloc`] — an installable counting global allocator with per-thread
//!   tagged counters, the objective instrument behind the
//!   allocations-per-operation gates (`rp-kvcache`'s `engine_allocs` and
//!   `wire_allocs` tests, `benchmark/`'s `kvcache.*_allocs` rungs).
//! * [`report`] — turns measured series into CSV and markdown tables so the
//!   benchmark binaries can print exactly the rows the paper's figures plot.
//! * [`sysinfo`] — records the host configuration alongside results.
//! * [`torture`] — a reusable rcutorture-style stress harness: checksummed
//!   payloads, QSBR + EBR reader populations, generation-tagged writers and
//!   a resize cycler, generic over every resizable map in the workspace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod driver;
pub mod keys;
pub mod latency;
pub mod netdriver;
pub mod report;
pub mod sysinfo;
pub mod torture;
mod zipf;

pub use driver::{measure_thread_local, BackgroundHandle, MeasureResult};
pub use keys::{KeyDist, KeyGen};
pub use latency::LatencyHistogram;
pub use netdriver::{drive_connections_reconnecting, NetDriveResult};
pub use report::{Report, Series};
pub use zipf::Zipf;
