//! Baseline concurrent hash tables the paper compares against.
//!
//! The paper's evaluation pits the relativistic resizable hash table against
//! two alternative designs (plus, in related work, a third):
//!
//! * [`DddsTable`] — "Dynamic Dynamic Data Structures": a resizable table
//!   whose readers must consult both the old and the new bucket array while
//!   a resize is in progress and retry when a resize transition races with
//!   them. Fast when idle, markedly slower during resizes.
//! * [`RwLockTable`] — a single global reader-writer lock around a plain
//!   bucket array. Readers serialise on the lock's cache line, so lookup
//!   throughput does not scale with reader threads.
//! * [`XuTable`] — Herbert Xu's dual-chain design: every node carries two
//!   sets of chain pointers so that two bucket arrays can share nodes; a
//!   resize builds the second linkage and flips which one readers follow.
//!   Resizes need only one grace period, at the cost of doubling the
//!   per-node pointer overhead.
//!
//! Two further baselines round out the comparison space used by the
//! memcached experiment and the ablation benches:
//!
//! * [`MutexTable`] — a single global mutex (memcached's `cache_lock`).
//! * [`BucketLockTable`] — per-bucket reader-writer locks (fine-grained
//!   locking without RCU).
//!
//! All of them implement the [`ConcurrentMap`] trait so the benchmark
//! harness and the equivalence tests can drive them interchangeably.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod bucket_lock;
mod ddds;
mod mutex_table;
mod rwlock_table;
mod traits;
mod xu_table;

pub use bucket_lock::BucketLockTable;
pub use ddds::DddsTable;
pub use mutex_table::MutexTable;
pub use rwlock_table::RwLockTable;
pub use traits::ConcurrentMap;
pub use xu_table::XuTable;
