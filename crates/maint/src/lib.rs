//! Background resize maintenance: take grace-period waits off the writer
//! path.
//!
//! The paper's zip/unzip resizes proceed concurrently with lock-free
//! readers, but a resize still *waits* — one grace period after it publishes
//! the new bucket array — and historically the writer whose insert crossed
//! the load-factor threshold paid that wait inline. On a
//! write-heavy workload that is exactly the latency spike resizable tables
//! are blamed for (Maier & Sanders, "Concurrent Hash Tables: Fast and
//! General?(!)", make the same observation: decoupling migration work from
//! the writer fast path is what keeps resizable tables competitive).
//!
//! `rp-maint` provides the decoupling, and nothing else — it knows no resize
//! algorithm and steps no state machine:
//!
//! * A [`MaintTarget`] owns a set of *units* (shards), each of which can be
//!   brought back inside its own bounds by one call,
//!   [`MaintTarget::maintain`]. `rp_shard::ShardedRpMap`'s shard set
//!   implements it as `rp_hash::RpHashMap::maintain` — the map's one resize
//!   driver, which waits for every grace period with nothing held.
//! * A [`MaintThread`] owns one thread, a queue of unit indices and a
//!   pending flag per unit. A writer that crosses a trigger *requests*
//!   maintenance ([`MaintHandle::request`]: one atomic swap, and a queue
//!   push and a wakeup if the unit was not already waiting) and continues;
//!   the thread pops a unit, clears its flag and only then calls `maintain`.
//!   A write that crosses a trigger after the clear requests again; one that
//!   crossed before it is visible to the check `maintain` makes — so no
//!   request is lost and none is queued twice.
//! * **Resizes only.** Freeing what writers retire is not this thread's
//!   job: `rp_rcu::GraceSync::global`'s reclaim thread does it for every
//!   structure, maintained or not.
//! * **Shutdown:** dropping the [`MaintHandle`] (or calling
//!   [`MaintHandle::shutdown`]) stops intake, serves what is queued, gives
//!   every unit one last `maintain` — which finishes a resize a panicked
//!   turn left in flight — and joins the thread.
//! * **Panic containment:** a `maintain` that unwinds is counted
//!   ([`MaintStats::worker_panics`], `maint_worker_panics_total`), traced
//!   and retried once; a second consecutive panic drops the unit until
//!   someone requests it again, and a clean turn earns the retry back. The
//!   thread survives either way: the other units still need it.
//! * **Cross-flavor grace waits:** every wait the thread absorbs goes
//!   through [`rp_rcu::GraceSync`], so it covers registered QSBR readers
//!   (`rp_hash::QsbrReadHandle`) as well as EBR guards. Maintenance is what
//!   lets QSBR-serving worker threads never synchronize at all.
//!
//! The observable guarantee, asserted by `rp-shard`'s maintenance tests via
//! [`rp_rcu::thread_synchronize_count`]: **on the maintained path, writer
//! threads never call `synchronize`**.
//!
//! # Example
//!
//! A toy target whose single unit owes three units of work:
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//! use rp_maint::{MaintTarget, MaintThread};
//!
//! struct Toy(AtomicUsize);
//! impl MaintTarget for Toy {
//!     fn units(&self) -> usize {
//!         1
//!     }
//!     fn maintain(&self, _unit: usize) -> bool {
//!         self.0.swap(0, Ordering::SeqCst) > 0
//!     }
//! }
//!
//! let toy = Arc::new(Toy(AtomicUsize::new(3)));
//! let handle = MaintThread::spawn(Arc::clone(&toy) as Arc<dyn MaintTarget>);
//! handle.request(0);
//! handle.shutdown(); // serves the queue before returning
//! assert_eq!(toy.0.load(Ordering::SeqCst), 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod stats;
mod thread;

pub use stats::MaintStats;
pub use thread::{MaintHandle, MaintThread};

/// A set of maintenance units (shards) that a [`MaintThread`] keeps inside
/// their bounds.
///
/// `maintain` runs on the maintenance thread, concurrently with the target's
/// own writers and readers. That thread never holds a read-side critical
/// section, so `maintain` may wait for grace periods — absorbing those waits
/// is what it is for.
pub trait MaintTarget: Send + Sync + 'static {
    /// Number of units; [`MaintHandle::request`] takes `0..units()`.
    fn units(&self) -> usize;

    /// Brings `unit` back inside its bounds, however many resizes that
    /// takes, finishing first whatever resize it finds in flight. Returns
    /// `true` if it did any work.
    fn maintain(&self, unit: usize) -> bool;
}
