//! Userspace relativistic-programming (RCU) primitives.
//!
//! This crate provides the synchronization substrate required by the
//! relativistic data structures in this workspace, mirroring the primitives
//! the paper maps onto Linux-kernel RCU / liburcu:
//!
//! * **Delimited readers** — [`pin`] / [`LocalHandle::read_lock`] enter a
//!   read-side critical section and return an [`RcuGuard`]. Readers never
//!   block, never retry, and never execute atomic read-modify-write
//!   instructions; the only cost is a store to a thread-private word and
//!   a memory fence (the "memory barrier" flavor of userspace RCU).
//!   [`qsbr::QsbrHandle`] is the quiescent-state based flavor: its lookups
//!   cost nothing, and the thread announces quiescent states instead.
//! * **Pointer publication** — [`RcuCell`] pairs release-ordered stores
//!   (`rcu_assign_pointer`) with acquire-ordered loads (`rcu_dereference`),
//!   so a reader that observes a new pointer also observes the pointee's
//!   initialisation.
//! * **One grace-period detector for both flavors** — readers of either
//!   flavor register with an [`RcuDomain`], one word each, holding the
//!   domain's 64-bit counter from the start of the critical section in
//!   progress (0 when idle or offline). [`RcuDomain::synchronize`] bumps
//!   the counter and scans the registry once, blocking the caller until
//!   every critical section that was in progress when the call began has
//!   completed (a *grace period*). [`RcuDomain::global`] is the
//!   process-wide domain behind [`pin`] and `rp_hash`'s QSBR lookup path.
//!   A domain detects; it frees nothing.
//! * **Waiting for readers and deferred reclamation** — [`GraceSync`] is
//!   the writer side. [`GraceSync::synchronize`] waits for a grace period
//!   through the failpoint, the stall stamp and the telemetry;
//!   [`GraceSync::defer`] /
//!   [`GraceSync::defer_free`] queue destruction work (the userspace
//!   `call_rcu`) and never wait. The process-wide funnel's own thread,
//!   `rcu-reclaimer`, runs the queue after such a wait, so memory retired
//!   by any structure is freed only once readers of both flavors have
//!   moved on, and no writer waits to free.
//!   [`GraceSync::synchronize_and_reclaim`] is the barrier: it returns once
//!   everything queued before it has run. [`may_wait_for_readers`] says
//!   whether the calling thread can take part in a wait at all, and
//!   [`NoGraceWait`] marks the locks it must not hold while it does (a
//!   debug assertion in the funnel).
//! * **Stall detection** — [`stall`] watches every funnel wait and flags
//!   (or, configured via `RP_RCU_STALL_PANIC`, panics on) grace periods
//!   that exceed a threshold, naming every blocking reader, of either
//!   flavor, by ordinal and thread name.
//!
//! # Example
//!
//! ```
//! use rp_rcu::{pin, GraceSync, RcuCell};
//!
//! let cell = RcuCell::new(Box::new(41_u32));
//!
//! // Reader side: wait-free, no locks, no RMW.
//! {
//!     let guard = pin();
//!     assert_eq!(cell.load(&guard).copied(), Some(41));
//! }
//!
//! // Writer side: publish a new value and retire the old one. Retiring
//! // never waits: the old value is freed after a grace period of every
//! // read-side flavor, by the funnel's reclaim thread — or, as here, by a
//! // barrier that returns once it has been.
//! if let Some(old) = cell.set(Box::new(42)) {
//!     old.retire_global();
//! }
//! GraceSync::global().synchronize_and_reclaim();
//!
//! let guard = pin();
//! assert_eq!(cell.load(&guard).copied(), Some(42));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod cell;
mod deferred;
mod domain;
mod guard;
mod local;
pub mod qsbr;
pub mod stall;
mod stats;
mod sync;

pub use cell::{RcuCell, RetiredPtr};
pub use domain::RcuDomain;
pub use guard::RcuGuard;
pub use local::{global_read_nesting, pin, thread_synchronize_count, LocalHandle};
pub use stats::DomainStats;
pub use sync::{may_wait_for_readers, GraceSync, NoGraceWait};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn guard_nesting_is_reentrant() {
        let _outer = pin();
        let _inner = pin();
        let _innermost = pin();
        // Dropping in reverse order must leave the thread outside any
        // read-side critical section; a subsequent synchronize() from this
        // same thread would self-deadlock otherwise (checked below in
        // `synchronize_from_quiescent_thread`).
    }

    #[test]
    fn synchronize_from_quiescent_thread() {
        // A thread with no active guard must be able to complete a grace
        // period immediately, even though it is itself registered.
        {
            let _g = pin();
        }
        RcuDomain::global().synchronize();
    }

    #[test]
    fn synchronize_waits_for_active_reader() {
        let domain = RcuDomain::global();
        let reader_in_cs = Arc::new(AtomicBool::new(false));
        let release_reader = Arc::new(AtomicBool::new(false));
        let gp_done = Arc::new(AtomicBool::new(false));

        let reader = {
            let reader_in_cs = Arc::clone(&reader_in_cs);
            let release_reader = Arc::clone(&release_reader);
            thread::spawn(move || {
                let _guard = pin();
                reader_in_cs.store(true, Ordering::SeqCst);
                while !release_reader.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            })
        };

        while !reader_in_cs.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }

        let waiter = {
            let gp_done = Arc::clone(&gp_done);
            thread::spawn(move || {
                domain.synchronize();
                gp_done.store(true, Ordering::SeqCst);
            })
        };

        // The grace period must not complete while the reader holds a guard.
        thread::sleep(Duration::from_millis(50));
        assert!(
            !gp_done.load(Ordering::SeqCst),
            "grace period completed while a reader was inside a critical section"
        );

        release_reader.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        waiter.join().unwrap();
        assert!(gp_done.load(Ordering::SeqCst));
    }

    #[test]
    fn deferred_callbacks_run_after_reclaim() {
        let ran = GraceSync::global().defer_counting(10);
        assert!(ran.load(Ordering::SeqCst) <= 10);
        GraceSync::global().synchronize_and_reclaim();
        assert_eq!(ran.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn publish_then_reclaim_stress() {
        // Writers repeatedly replace a published value and retire the old
        // one; readers must always observe a fully-initialised value.
        const READERS: usize = 4;
        const UPDATES: usize = 300;

        #[derive(Debug)]
        struct Payload {
            a: u64,
            b: u64,
        }

        let domain = GraceSync::global();
        let cell = Arc::new(RcuCell::new(Box::new(Payload { a: 0, b: 0 })));
        let stop = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut observed = 0_u64;
                    while !stop.load(Ordering::Relaxed) {
                        let guard = pin();
                        if let Some(p) = cell.load(&guard) {
                            // The invariant a == b must hold for every
                            // published payload; a torn or reclaimed payload
                            // would violate it.
                            assert_eq!(p.a, p.b, "reader observed a torn/reclaimed payload");
                            observed = observed.max(p.a);
                        }
                    }
                    observed
                })
            })
            .collect();

        for i in 1..=UPDATES as u64 {
            let old = cell.replace(Some(Box::new(Payload { a: i, b: i })));
            let old = old.expect("cell always holds a payload");
            // Readers of this cell pin the global domain, which the global
            // funnel's passes wait for.
            old.retire_global();
            if i % 32 == 0 {
                domain.synchronize_and_reclaim();
            }
        }
        domain.synchronize_and_reclaim();

        stop.store(true, Ordering::SeqCst);
        for r in readers {
            let max = r.join().unwrap();
            assert!(max <= UPDATES as u64);
        }
    }
}
