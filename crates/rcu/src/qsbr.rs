//! Quiescent-state-based reclamation (QSBR): the reader flavor whose
//! lookups cost nothing.
//!
//! A QSBR reader enters and leaves a lookup without a store or a fence,
//! which matches the read-side cost of kernel RCU more closely than the
//! guards of [`crate::pin`]. The price is that the owning thread must
//! announce a *quiescent state* (a point at which it holds no RCU-protected
//! references) regularly, or go offline; a grace period ends only once
//! every online handle has done so.
//!
//! A [`QsbrHandle`] is one more reader of an [`RcuDomain`], in the same
//! registry as the EBR readers and waited for by the same
//! [`RcuDomain::synchronize`]. Its critical section runs from one
//! announcement to the next: going online and every quiescent state write
//! the domain's counter into its word, going offline writes 0.

use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam_utils::CachePadded;

use crate::domain::{RcuDomain, Reader};

/// A thread's QSBR registration with an [`RcuDomain`].
///
/// The owning thread must call [`QsbrHandle::quiescent_state`] regularly (or
/// go [`QsbrHandle::offline`]) — otherwise writers calling
/// [`RcuDomain::synchronize`] will wait forever.
///
/// Handles are `!Send`: QSBR bookkeeping is per-thread (the whole point is
/// that the *owning thread* announces its own quiescent states), and
/// pinning the handle to its thread is what lets a `synchronize` on that
/// thread panic instead of waiting for its own online handle.
pub struct QsbrHandle {
    domain: Arc<RcuDomain>,
    reader: Arc<CachePadded<Reader>>,
    /// `!Send + !Sync`: quiescent bookkeeping is thread-private.
    _not_send: PhantomData<*mut ()>,
}

impl QsbrHandle {
    /// Registers the calling thread with `domain`; the handle starts
    /// *online* and quiescent.
    pub fn new(domain: &Arc<RcuDomain>) -> QsbrHandle {
        let handle = QsbrHandle {
            domain: Arc::clone(domain),
            reader: domain.register(),
            _not_send: PhantomData,
        };
        handle.online();
        handle
    }

    /// Announces a quiescent state: the thread holds no references to
    /// RCU-protected data at this instant.
    pub fn quiescent_state(&self) {
        // Order all reads of protected data before the announcement...
        std::sync::atomic::fence(Ordering::SeqCst);
        self.reader
            .word
            .store(self.domain.counter(), Ordering::SeqCst);
        // ...and the announcement before any subsequent reads.
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Marks the thread offline: it promises not to access RCU-protected
    /// data until [`QsbrHandle::online`] is called, and writers stop waiting
    /// for it.
    pub fn offline(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
        self.reader.word.store(0, Ordering::SeqCst);
    }

    /// Marks the thread online again (implies a quiescent state).
    pub fn online(&self) {
        self.reader
            .word
            .store(self.domain.counter(), Ordering::SeqCst);
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Returns `true` if the thread is currently online.
    pub fn is_online(&self) -> bool {
        self.reader.word.load(Ordering::Relaxed) != 0
    }
}

impl Drop for QsbrHandle {
    fn drop(&mut self) {
        // Go offline before unregistering: a `synchronize` that snapshotted
        // the registry while this handle was still listed keeps polling the
        // snapshot's `Arc`. Offline is sound here — dropping the handle
        // proves the thread holds no references obtained through it (they
        // borrow the handle).
        self.offline();
        self.domain.unregister(&self.reader);
    }
}

impl std::fmt::Debug for QsbrHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QsbrHandle")
            .field("online", &self.is_online())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn register_and_drop() {
        let d = RcuDomain::new();
        let h = QsbrHandle::new(&d);
        assert_eq!(d.registered_readers(), 1);
        assert!(h.is_online());
        drop(h);
        assert_eq!(d.registered_readers(), 0);
    }

    #[test]
    fn synchronize_completes_with_quiescent_readers() {
        let d = RcuDomain::new();
        let h = QsbrHandle::new(&d);
        h.quiescent_state();
        // The registered thread is the caller itself; go offline so the
        // grace period does not wait on us.
        h.offline();
        d.synchronize();
        h.online();
        assert_eq!(d.stats().grace_periods, 1);
    }

    #[test]
    fn synchronize_waits_for_online_reader() {
        let d = RcuDomain::new();
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));

        let reader = {
            let d = Arc::clone(&d);
            let started = Arc::clone(&started);
            let release = Arc::clone(&release);
            thread::spawn(move || {
                let h = QsbrHandle::new(&d);
                started.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                h.quiescent_state();
            })
        };

        while !started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }

        let waiter = {
            let d = Arc::clone(&d);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                d.synchronize();
                done.store(true, Ordering::SeqCst);
            })
        };

        thread::sleep(Duration::from_millis(50));
        assert!(
            !done.load(Ordering::SeqCst),
            "grace period completed before the online reader passed a quiescent state"
        );

        release.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        waiter.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn offline_readers_do_not_block_grace_periods() {
        let d = RcuDomain::new();
        let h = QsbrHandle::new(&d);
        h.offline();
        assert!(!h.is_online());
        d.synchronize();
        d.synchronize();
        assert_eq!(d.stats().grace_periods, 2);
    }

    #[test]
    fn dropping_an_online_handle_does_not_stall_synchronize() {
        // Regression: `synchronize` snapshots the registry; a handle
        // dropped *while online* after the snapshot must not leave a stale
        // word the grace period spins on forever. Drop goes offline first,
        // so the snapshot entry resolves.
        let d = RcuDomain::new();
        let registered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let reader = {
            let d = Arc::clone(&d);
            let registered = Arc::clone(&registered);
            let release = Arc::clone(&release);
            thread::spawn(move || {
                let h = QsbrHandle::new(&d);
                assert!(h.is_online());
                registered.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                // Exit without ever announcing quiescence or going offline
                // explicitly: Drop must handle it.
                drop(h);
            })
        };
        while !registered.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let waiter = {
            let d = Arc::clone(&d);
            thread::spawn(move || d.synchronize())
        };
        thread::sleep(Duration::from_millis(20));
        release.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        waiter.join().unwrap();
        assert_eq!(d.stats().grace_periods, 1);
    }

    #[test]
    fn thread_online_tracking_follows_handle_state() {
        // Run on a dedicated thread so other tests' handles cannot
        // interfere with the thread-local bookkeeping.
        thread::spawn(|| {
            let d = RcuDomain::new();
            assert!(!d.read_by_this_thread());
            let h = QsbrHandle::new(&d);
            assert!(d.read_by_this_thread());
            h.offline();
            assert!(!d.read_by_this_thread());
            h.online();
            assert!(d.read_by_this_thread());
            drop(h);
            assert!(!d.read_by_this_thread());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn online_state_is_per_domain() {
        thread::spawn(|| {
            let d1 = RcuDomain::new();
            let d2 = RcuDomain::new();
            let _h = QsbrHandle::new(&d1);
            assert!(d1.read_by_this_thread());
            assert!(!d2.read_by_this_thread());
            // A reader of d1 must not stop this thread synchronizing d2.
            d2.synchronize();
        })
        .join()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "own QSBR handle")]
    fn synchronize_while_online_panics_instead_of_deadlocking() {
        let d = RcuDomain::new();
        let _h = QsbrHandle::new(&d);
        d.synchronize();
    }

    #[test]
    fn synchronize_after_going_offline_succeeds() {
        thread::spawn(|| {
            let d = RcuDomain::new();
            let h = QsbrHandle::new(&d);
            h.offline();
            d.synchronize();
            assert_eq!(d.stats().grace_periods, 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn concurrent_quiescence_stress() {
        let d = RcuDomain::new();
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let h = QsbrHandle::new(&d);
                    while !stop.load(Ordering::Relaxed) {
                        h.quiescent_state();
                    }
                })
            })
            .collect();

        for _ in 0..50 {
            d.synchronize();
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(d.stats().grace_periods, 50);
    }
}
