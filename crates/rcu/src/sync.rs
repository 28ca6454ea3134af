//! [`GraceSync`]: the deferred-free queue and the one way to empty it.
//!
//! The paper's writer does one thing before it frees memory: it waits for
//! readers — all of them. This workspace has two populations of readers,
//! threads pinning the global EBR domain ([`crate::pin`]) and threads
//! registered with [`QsbrDomain::global`] ([`crate::qsbr`]), and a node (or
//! bucket array) is only safe to free once **both** have passed a grace
//! period. *Which readers a reclamation pass waits for* is therefore a
//! decision, and this module is the only place it is made.
//!
//! `GraceSync` owns the process-wide queue of retired memory
//! ([`GraceSync::defer_free`], [`GraceSync::defer`]) and the only passes
//! that empty it ([`GraceSync::synchronize_and_reclaim`],
//! [`GraceSync::reclaim_if_pending`]): take the batch, wait for every
//! flavor with registered readers ([`GraceSync::synchronize`]), run the
//! batch. The two domains underneath are grace-period detectors and cannot
//! free anything, so a node retired by any structure can only be freed by a
//! pass that waited for QSBR readers too — by construction, not by which
//! method a caller happened to pick. When no QSBR reader is registered —
//! the common case for programs that never opt into the QSBR path — the
//! second wait costs one atomic load and nothing else.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::deferred::Deferred;
use crate::domain::RcuDomain;
use crate::qsbr::QsbrDomain;

/// Largest emptied deferred queue, in callbacks of three words each, that
/// the funnel keeps for reuse (96 KiB). Reclaimers run at a few hundred
/// pending callbacks, so every steady-state queue fits; a burst's does not
/// and is freed.
const SPARE_QUEUE_CAP: usize = 4096;

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

/// The deferred-free queue, and the grace-period wait — over every
/// read-side flavor — that stands between retiring memory and freeing it.
///
/// See the module docs for motivation. Data structures use the process-wide
/// funnel, [`GraceSync::global`], built over [`RcuDomain::global`] and
/// [`QsbrDomain::global`]; [`GraceSync::new`] builds an isolated one over
/// private domains, for tests of the machinery itself.
///
/// Dropping a funnel leaks whatever is still queued: its domains, and
/// readers registered with them, may outlive it.
///
/// # Panics
///
/// Every method that waits inherits the self-deadlock checks of the
/// underlying domains: it panics if the calling thread is inside an EBR
/// read-side critical section of the global domain, or has an online QSBR
/// handle registered with the funnel's QSBR domain. In debug builds it also
/// panics if the calling thread holds a [`NoGraceWait`] guard.
#[derive(Debug)]
pub struct GraceSync {
    ebr: Arc<RcuDomain>,
    qsbr: Arc<QsbrDomain>,
    /// Deferred reclamation queue (`call_rcu` equivalent).
    deferred: Mutex<Vec<Deferred>>,
    /// Cheap length mirror of `deferred` so writers can poll without locking.
    deferred_len: AtomicUsize,
    /// The emptied storage of the last executed batch, which the next
    /// [`GraceSync::take_deferred`] leaves behind as the queue: steady
    /// reclamation allocates no queue storage after its first pass.
    spare: Mutex<Vec<Deferred>>,
}

impl GraceSync {
    /// Builds a funnel over `ebr` and `qsbr`, with an empty queue of its
    /// own: its passes wait for the readers of exactly these two domains.
    pub fn new(ebr: Arc<RcuDomain>, qsbr: Arc<QsbrDomain>) -> Self {
        GraceSync {
            ebr,
            qsbr,
            deferred: Mutex::new(Vec::new()),
            deferred_len: AtomicUsize::new(0),
            spare: Mutex::new(Vec::new()),
        }
    }

    /// Returns the process-wide funnel, the one every relativistic data
    /// structure in this workspace retires into and reclaims through.
    pub fn global() -> &'static GraceSync {
        static GLOBAL: OnceLock<GraceSync> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            GraceSync::new(
                Arc::clone(RcuDomain::global()),
                Arc::clone(QsbrDomain::global()),
            )
        })
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

    /// Queues a closure to run after a subsequent grace period.
    ///
    /// This is the `call_rcu` equivalent. The closure is *not* run
    /// immediately and is not guaranteed to run until a later
    /// [`GraceSync::synchronize_and_reclaim`]; writers in this workspace
    /// call that at natural flush points.
    pub fn defer(&self, f: impl FnOnce() + Send + 'static) {
        self.push_deferred(Deferred::new(f));
    }

    /// Queues `ptr` to be freed (as a `Box<T>`) after a subsequent grace
    /// period of every flavor.
    ///
    /// # Safety
    ///
    /// * `ptr` must have been produced by [`Box::into_raw`] and must not be
    ///   freed through any other path.
    /// * `ptr` must already be unreachable to new readers (unpublished), so
    ///   that after one grace period no reader can reference it.
    /// * Readers that may still reference `ptr` must be readers of one of
    ///   *this* funnel's two domains.
    pub unsafe fn defer_free<T: Send>(&self, ptr: *mut T) {
        // SAFETY: forwarded caller contract.
        self.push_deferred(unsafe { Deferred::free(ptr) });
    }

    fn push_deferred(&self, d: Deferred) {
        self.deferred.lock().push(d);
        self.deferred_len.fetch_add(1, Ordering::Relaxed);
        self.ebr
            .counters()
            .callbacks_queued
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Number of deferred callbacks currently queued.
    pub fn deferred_pending(&self) -> usize {
        self.deferred_len.load(Ordering::Relaxed)
    }

    /// Takes the current deferred batch, leaving later arrivals queued.
    ///
    /// A grace period only covers callbacks whose unpublish happened before
    /// the grace period started, so a pass takes the batch *first*, waits,
    /// then runs it with [`GraceSync::execute_deferred`].
    fn take_deferred(&self) -> Vec<Deferred> {
        let spare = std::mem::take(&mut *self.spare.lock());
        let mut queue = self.deferred.lock();
        let batch = std::mem::replace(&mut *queue, spare);
        self.deferred_len.store(queue.len(), Ordering::Relaxed);
        batch
    }

    /// Runs a batch previously taken with [`GraceSync::take_deferred`],
    /// after [`GraceSync::synchronize`] has returned in between.
    fn execute_deferred(&self, mut batch: Vec<Deferred>) {
        let executed = batch.len() as u64;
        for d in batch.drain(..) {
            d.call();
        }
        self.ebr
            .counters()
            .callbacks_executed
            .fetch_add(executed, Ordering::Relaxed);
        // Hand the storage back, unless a burst grew it past what steady
        // reclamation needs (that much is not pinned): to the live queue
        // while that is still empty and smaller, else as the replacement
        // the next `take_deferred` leaves behind.
        if batch.capacity() > SPARE_QUEUE_CAP {
            return;
        }
        {
            let mut queue = self.deferred.lock();
            if queue.is_empty() && queue.capacity() < batch.capacity() {
                std::mem::swap(&mut *queue, &mut batch);
            }
        }
        let mut spare = self.spare.lock();
        if spare.capacity() < batch.capacity() {
            *spare = batch;
        }
    }

    /// Waits for a grace period of every flavor with registered readers,
    /// then executes every callback that was queued *before* this call
    /// began.
    ///
    /// Callbacks queued concurrently with the grace period are left for the
    /// next reclamation pass (they may not yet be covered by it).
    pub fn synchronize_and_reclaim(&self) {
        let batch = self.take_deferred();
        let executed = batch.len() as u64;
        self.synchronize();
        self.execute_deferred(batch);
        let obs = rp_obs::global();
        obs.rcu.reclaim_executed_total.add(executed);
        obs.rcu.reclaim_pending.set(self.deferred_pending() as u64);
    }

    /// Runs [`GraceSync::synchronize_and_reclaim`] only if at least
    /// `threshold` callbacks are pending. Returns `true` if a reclamation
    /// pass ran.
    pub fn reclaim_if_pending(&self, threshold: usize) -> bool {
        if self.deferred_pending() >= threshold {
            self.synchronize_and_reclaim();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
impl GraceSync {
    /// Queues `n` callbacks that each bump the returned counter.
    pub(crate) fn defer_counting(&self, n: usize) -> Arc<AtomicUsize> {
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..n {
            let ran = Arc::clone(&ran);
            self.defer(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;
    use std::time::Duration;

    /// A funnel over private domains: its queue and its waits are this
    /// test's alone.
    fn private() -> GraceSync {
        GraceSync::new(RcuDomain::new(), QsbrDomain::new())
    }

    #[test]
    fn deferred_batch_taken_before_grace_period() {
        let sync = private();
        let ran = sync.defer_counting(5);
        assert_eq!(sync.deferred_pending(), 5);
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        sync.synchronize_and_reclaim();
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        assert_eq!(sync.deferred_pending(), 0);
        let stats = sync.ebr.stats();
        assert_eq!(stats.callbacks_queued, 5);
        assert_eq!(stats.callbacks_executed, 5);
        assert_eq!(stats.grace_periods, 1);
    }

    #[test]
    fn the_global_funnel_runs_queued_callbacks() {
        let ran = GraceSync::global().defer_counting(4);
        GraceSync::global().synchronize_and_reclaim();
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
        let sync = private();
        sync.defer(|| {});
        assert!(!sync.reclaim_if_pending(2));
        sync.defer(|| {});
        assert!(sync.reclaim_if_pending(2));
        assert_eq!(sync.deferred_pending(), 0);
    }

    /// The funnel's reason to exist: a pass frees nothing while a QSBR
    /// reader that could hold a retired pointer has not announced a
    /// quiescent state, and there is no narrower pass to call instead.
    #[test]
    fn a_reclaim_pass_waits_for_an_online_qsbr_reader() {
        let sync = Arc::new(private());
        let online = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));

        let reader = {
            let qsbr = Arc::clone(&sync.qsbr);
            let online = Arc::clone(&online);
            let release = Arc::clone(&release);
            thread::spawn(move || {
                let h = qsbr.register();
                online.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                h.quiescent_state();
                h.offline();
            })
        };
        while !online.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }

        let ran = sync.defer_counting(3);
        let pass = {
            let sync = Arc::clone(&sync);
            thread::spawn(move || sync.synchronize_and_reclaim())
        };
        thread::sleep(Duration::from_millis(50));
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "callbacks ran while a QSBR reader had not passed a quiescent state"
        );
        release.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        pass.join().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn without_qsbr_readers_only_the_ebr_domain_is_synchronized() {
        let sync = private();
        sync.synchronize();
        assert_eq!(sync.ebr.stats().grace_periods, 1);
        assert_eq!(sync.qsbr.stats().grace_periods, 0);
        let handle = sync.qsbr.register();
        handle.offline();
        sync.synchronize();
        assert_eq!(sync.qsbr.stats().grace_periods, 1);
    }
}
