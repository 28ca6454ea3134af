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
//! * **One grace-period detector for both flavors** — readers of either
//!   flavor register with an [`RcuDomain`], one word each, holding the
//!   domain's 64-bit counter from the start of the critical section in
//!   progress (0 when idle or offline). [`RcuDomain::synchronize`] bumps
//!   the counter and scans the registry once, blocking the caller until
//!   every critical section that was in progress when the call began has
//!   completed (a *grace period*). [`RcuDomain::global`] is the
//!   process-wide domain behind [`pin`] and `rp_hash`'s QSBR lookup path.
//!   A domain detects; it frees nothing. A grace period is also a number:
//!   [`RcuDomain::cookie`] names the one that covers what the caller has
//!   unpublished, [`RcuDomain::poll`] says whether it has passed, and
//!   [`RcuDomain::synchronize_until`] waits only if it has not.
//! * **Waiting for readers and deferred reclamation** — [`GraceSync`] is
//!   the writer side. [`GraceSync::synchronize`] waits for a grace period
//!   through the failpoint and the telemetry;
//!   [`GraceSync::defer`] /
//!   [`GraceSync::defer_free`] queue destruction work (the userspace
//!   `call_rcu`) and never wait. The process-wide funnel's own thread,
//!   `rcu-reclaimer`, runs the queue after such a wait, so memory retired
//!   by any structure is freed only once readers of both flavors have
//!   moved on, and no writer waits to free.
//!   [`GraceSync::synchronize_and_reclaim`] is the barrier: it returns once
//!   everything queued before it has run. [`NoGraceWait`] marks the
//!   locks a waiting thread must not hold (a debug assertion in the
//!   funnel).
//! * **Stall detection** — the scan in [`RcuDomain::synchronize`] reports
//!   its own grace period once it exceeds a threshold ([`stall`]), naming
//!   every reader of its domain that blocks it, of either flavor, by
//!   ordinal and thread name; with `RP_RCU_STALL_PANIC` it then aborts the
//!   process.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod deferred;
mod domain;
mod guard;
mod local;
pub mod qsbr;
pub mod stall;
mod stats;
mod sync;

pub use domain::RcuDomain;
pub use guard::RcuGuard;
pub use local::{pin, thread_synchronize_count, LocalHandle};
pub use stats::DomainStats;
pub use sync::{GraceSync, NoGraceWait};

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
}
