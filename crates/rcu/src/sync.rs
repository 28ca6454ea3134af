//! [`GraceSync`]: one grace-period wait covering every read-side flavor.
//!
//! The workspace's data structures historically had exactly one kind of
//! reader — threads pinning the global EBR domain ([`crate::pin`]) — so
//! every writer-side wait was a plain [`RcuDomain::synchronize`]. With the
//! QSBR read path ([`crate::qsbr`]) a second population of readers exists,
//! registered with [`QsbrDomain::global`], and a node (or bucket array) is
//! only safe to free once **both** populations have passed a grace period.
//!
//! `GraceSync` is the funnel: resize and reclamation code calls
//! [`GraceSync::synchronize`] (or the reclaiming variants) instead of
//! touching a single domain, and the funnel waits on whichever global
//! domains currently have registered readers. When no QSBR reader is
//! registered — the common case for programs that never opt into the QSBR
//! path — the extra wait costs one atomic load and nothing else, keeping
//! the EBR-only fast path unchanged.
//!
//! The funnel is also where the workspace's one locking rule is checked:
//! **no grace-period wait while holding a lock a reader may need**. A
//! QSBR-online thread announces its quiescent state only after its current
//! operation, so a thread that waits for it while holding a lock that
//! operation takes waits forever. Such locks hand out their guards wrapped
//! in [`NoGraceWait`], and [`GraceSync::synchronize`] asserts, in debug
//! builds, that the calling thread holds none.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use crate::domain::RcuDomain;
use crate::qsbr::QsbrDomain;

std::thread_local! {
    /// How many [`NoGraceWait`] guards the calling thread holds. Touched in
    /// debug builds only.
    static NO_WAIT_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Returns `true` if the calling thread may wait for a grace period of the
/// global domains without waiting for itself: it holds no EBR guard
/// ([`crate::global_read_nesting`] is zero) and is not an online QSBR
/// reader ([`crate::qsbr::global_qsbr_online`]).
///
/// Data structures ask this before *optional* grace-period work (deferred
/// reclamation, automatic resizing) and postpone the work when the answer
/// is no; a later writer, or the thread itself from its offline window,
/// catches up.
pub fn may_wait_for_readers() -> bool {
    crate::global_read_nesting() == 0 && !crate::qsbr::global_qsbr_online()
}

/// A lock guard under which the holder must not wait for a grace period:
/// the lock is one that read-side threads take as writers (a map's writer
/// lock, a cache's victim queue), so a wait under it can wait for a thread
/// that is queueing for it.
///
/// Dereferences to the wrapped guard. In debug builds the wrapper counts
/// itself in a thread-local for [`GraceSync::synchronize`] to assert on;
/// in release builds it is the wrapped guard and nothing else.
#[derive(Debug)]
pub struct NoGraceWait<G> {
    guard: G,
    /// The count is per thread, so the guard stays on the thread that
    /// took it.
    _not_send: PhantomData<*const ()>,
}

impl<G> NoGraceWait<G> {
    /// Wraps `guard`, a lock guard the caller has just acquired.
    pub fn holding(guard: G) -> Self {
        if cfg!(debug_assertions) {
            NO_WAIT_DEPTH.with(|depth| depth.set(depth.get() + 1));
        }
        NoGraceWait {
            guard,
            _not_send: PhantomData,
        }
    }
}

impl<G> Drop for NoGraceWait<G> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            // `try_with`: a guard may be dropped during thread teardown.
            let _ = NO_WAIT_DEPTH.try_with(|depth| depth.set(depth.get() - 1));
        }
    }
}

impl<G> Deref for NoGraceWait<G> {
    type Target = G;

    fn deref(&self) -> &G {
        &self.guard
    }
}

impl<G> DerefMut for NoGraceWait<G> {
    fn deref_mut(&mut self) -> &mut G {
        &mut self.guard
    }
}

/// Synchronizes writers against every global read-side flavor at once.
///
/// See the module docs for motivation. All methods operate on the
/// process-wide global domains ([`RcuDomain::global`] and
/// [`QsbrDomain::global`]); deferred callbacks live in the EBR domain's
/// queue, as before — only the *wait* is widened.
///
/// # Panics
///
/// Every method that waits inherits the self-deadlock checks of the
/// underlying domains: it panics if the calling thread is inside an EBR
/// read-side critical section of the global domain, or has an online QSBR
/// handle registered with the global QSBR domain. In debug builds it also
/// panics if the calling thread holds a [`NoGraceWait`] guard.
#[derive(Debug)]
pub struct GraceSync {
    ebr: &'static Arc<RcuDomain>,
    qsbr: &'static Arc<QsbrDomain>,
}

impl GraceSync {
    /// Returns the process-wide funnel.
    pub fn global() -> &'static GraceSync {
        static GLOBAL: OnceLock<GraceSync> = OnceLock::new();
        GLOBAL.get_or_init(|| GraceSync {
            ebr: RcuDomain::global(),
            qsbr: QsbrDomain::global(),
        })
    }

    /// The EBR side of the funnel (where deferred callbacks queue).
    pub fn ebr(&self) -> &Arc<RcuDomain> {
        self.ebr
    }

    /// The QSBR side of the funnel.
    pub fn qsbr(&self) -> &Arc<QsbrDomain> {
        self.qsbr
    }

    /// Waits for a grace period of every flavor that has registered
    /// readers.
    ///
    /// The EBR domain is always synchronized (its registry is maintained
    /// lazily by [`crate::pin`], so "has readers" is the steady state); the
    /// QSBR domain is synchronized only when at least one handle is
    /// registered, so programs that never use the QSBR path pay one atomic
    /// load here and nothing more.
    pub fn synchronize(&self) {
        debug_assert!(
            NO_WAIT_DEPTH.with(Cell::get) == 0,
            "grace-period wait while holding a NoGraceWait lock: a reader \
             queueing for that lock would never reach its quiescent state"
        );
        // Chaos hook: a `rcu.grace=delay:..` plan stretches every grace
        // period, magnifying the window in which readers observe
        // mid-resize states (errors/panics make no sense for a wait that
        // cannot fail, so only the injected delay is honored).
        let _ = rp_fault::point("rcu.grace");
        // Telemetry: one relaxed load when disabled; a clock pair, a
        // histogram bump, and a trace-ring entry per flavor when enabled.
        // Each flavor's wait is also stamped into the stall detector so an
        // uncooperative reader turns into an attributed report instead of
        // a silent hang (the stamp guard clears on completion).
        let obs = rp_obs::global();
        let detector = crate::stall::detector();
        let ebr_timer = rp_obs::timer();
        let stamp = detector.stamp_begin(crate::stall::StallFlavor::Ebr);
        self.ebr.synchronize();
        drop(stamp);
        if let Some(ns) = rp_obs::elapsed_ns(ebr_timer) {
            obs.rcu.sync_ebr_ns.record(ns);
            obs.trace.record(rp_obs::TraceKind::GraceEbr, ns);
        }
        if self.qsbr.registered_readers() > 0 {
            let qsbr_timer = rp_obs::timer();
            let stamp = detector.stamp_begin(crate::stall::StallFlavor::Qsbr);
            self.qsbr.synchronize();
            drop(stamp);
            if let Some(ns) = rp_obs::elapsed_ns(qsbr_timer) {
                obs.rcu.sync_qsbr_ns.record(ns);
                obs.trace.record(rp_obs::TraceKind::GraceQsbr, ns);
            }
        }
    }

    /// Number of deferred callbacks currently queued (in the EBR domain).
    pub fn deferred_pending(&self) -> usize {
        self.ebr.deferred_pending()
    }

    /// Waits for a grace period of every flavor with registered readers,
    /// then executes every callback that was queued *before* this call
    /// began — the flavor-covering version of
    /// [`RcuDomain::synchronize_and_reclaim`].
    pub fn synchronize_and_reclaim(&self) {
        let batch = self.ebr.take_deferred();
        let executed = batch.len() as u64;
        self.synchronize();
        self.ebr.execute_deferred(batch);
        let obs = rp_obs::global();
        obs.rcu.reclaim_executed_total.add(executed);
        obs.rcu
            .reclaim_pending
            .set(self.ebr.deferred_pending() as u64);
    }

    /// Runs [`GraceSync::synchronize_and_reclaim`] only if at least
    /// `threshold` callbacks are pending. Returns `true` if a reclamation
    /// pass ran.
    pub fn reclaim_if_pending(&self, threshold: usize) -> bool {
        if self.ebr.deferred_pending() >= threshold {
            self.synchronize_and_reclaim();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn reclaim_runs_queued_callbacks() {
        let sync = GraceSync::global();
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let ran = Arc::clone(&ran);
            RcuDomain::global().defer(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        sync.synchronize_and_reclaim();
        assert_eq!(ran.load(Ordering::SeqCst), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NoGraceWait")]
    fn a_grace_wait_under_a_no_wait_lock_is_caught() {
        let lock = parking_lot::Mutex::new(());
        let _held = NoGraceWait::holding(lock.lock());
        GraceSync::global().synchronize();
    }

    #[test]
    fn a_released_no_wait_lock_leaves_the_thread_free_to_wait() {
        let lock = parking_lot::Mutex::new(0_u32);
        {
            let mut held = NoGraceWait::holding(lock.lock());
            **held += 1;
        }
        assert_eq!(*lock.lock(), 1);
        GraceSync::global().synchronize();
    }

    #[test]
    fn reclaim_if_pending_respects_threshold() {
        let sync = GraceSync::global();
        // Flush whatever other tests queued so the threshold check below is
        // about *our* callbacks.
        sync.synchronize_and_reclaim();
        RcuDomain::global().defer(|| {});
        assert!(!sync.reclaim_if_pending(1_000_000));
        assert!(sync.reclaim_if_pending(1));
    }

    #[test]
    fn synchronize_waits_for_online_qsbr_reader() {
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));

        let reader = {
            let started = Arc::clone(&started);
            let release = Arc::clone(&release);
            thread::spawn(move || {
                let h = QsbrDomain::global().register();
                started.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                h.quiescent_state();
                h.offline();
            })
        };
        while !started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }

        let waiter = {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                GraceSync::global().synchronize();
                done.store(true, Ordering::SeqCst);
            })
        };
        thread::sleep(Duration::from_millis(50));
        assert!(
            !done.load(Ordering::SeqCst),
            "GraceSync completed while a QSBR reader had not passed a quiescent state"
        );
        release.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        waiter.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn without_qsbr_readers_only_the_ebr_domain_is_synchronized() {
        // The global QSBR domain may transiently have readers from other
        // tests; use the counters to check the skip logic indirectly: a
        // fresh wait with no registered readers must not bump the QSBR
        // grace-period counter.
        let sync = GraceSync::global();
        if sync.qsbr().registered_readers() > 0 {
            return; // another test is using the global domain right now
        }
        let before = sync.qsbr().stats().grace_periods;
        sync.synchronize();
        // Readers may have registered concurrently (making a wait
        // legitimate); only assert when the domain stayed empty.
        if sync.qsbr().registered_readers() == 0 {
            assert_eq!(sync.qsbr().stats().grace_periods, before);
        }
    }
}
