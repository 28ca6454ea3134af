//! [`GraceSync`]: the deferred-free queue and the one way to empty it.
//!
//! The paper's writer does one thing before it frees memory: it waits for
//! readers — all of them. Readers of both flavors, threads pinning the
//! global domain ([`crate::pin`]) and threads with a QSBR handle on it
//! ([`crate::qsbr`]), register with the one [`RcuDomain`], so one grace
//! period of that domain covers them all.
//!
//! `GraceSync` owns the process-wide queue of retired memory
//! ([`GraceSync::defer_free`], [`GraceSync::defer_drop`],
//! [`GraceSync::defer`]) and the one pass that
//! empties it ([`GraceSync::synchronize_and_reclaim`]): take the batch,
//! wait for a grace period ([`GraceSync::synchronize`]), run the batch. The
//! domain underneath is a grace-period detector and cannot free anything,
//! so a node retired by any structure can only be freed by a pass that
//! waited for every reader. [`GraceSync::synchronize`] is also the funnel
//! every grace wait outside this crate goes through: it carries the
//! `rcu.grace` failpoint and the `rcu_sync_ns` telemetry, and so does
//! [`GraceSync::synchronize_until`]. The stall report comes from the
//! domain's own scan ([`crate::stall`]), so it covers every wait, direct
//! [`RcuDomain::synchronize`] calls included.
//!
//! **Who frees.** Retiring never waits: the process-wide funnel runs its
//! passes on one thread of its own, `rcu-reclaimer` (the userspace
//! `call_rcu` helper thread), started by the first push that takes the
//! queue to 256 callbacks or past it, and woken by every later one. A queue
//! left below that is emptied 50 ms after the thread last found it
//! non-empty; an empty one costs the thread nothing, and what is queued
//! after it sleeps there waits for the push that crosses 256, or for a
//! caller that wakes it ([`GraceSync::wake_reclaimer`]): one that queued a
//! large release, or one whose cookie ([`GraceSync::cookie`]) a later
//! write polls (`rp-hash`'s resizes). A wake is never lost, and leads to a
//! grace period even with the queue empty. Writers therefore wait for
//! readers only when they ask to: an explicit resize, or
//! [`GraceSync::synchronize_and_reclaim`], which is a *barrier*. Passes
//! are serialized, so it returns once every callback queued before it has
//! run, on whichever thread ran it. A stalled reader stops frees, not
//! writers; the stalled scan names the reader ([`crate::stall`]).
//!
//! A caller may gather its retires before it queues them, and `rp-hash`'s
//! maps do: each holds up to 63 retired nodes in an open batch of its own,
//! under the writer lock it already holds, and queues 64 with one
//! [`GraceSync::defer_drop`]. A map that stops writing keeps its open
//! batch until its next write, its `flush_retired` or its drop. A barrier
//! frees only what has been queued, and [`GraceSync::deferred_pending`]
//! does not count open batches.
//!
//! **In what order.** A pass runs its batch in the order it was queued, and
//! passes run one at a time, so every callback runs after every callback
//! queued before it. That is a rule callers rely on: a structure may queue
//! the release of memory that its earlier callbacks still reach (`rp-hash`
//! queues a map's node slab behind every node the map retired, and a
//! dropped map queues its open batch before its slab's release).
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Once, OnceLock};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::deferred::{drop_box, Deferred};
use crate::domain::RcuDomain;

/// Queue length whose crossing by a push wakes the reclaim thread.
const WAKE_AT: usize = 256;

/// How long the reclaim thread leaves a non-empty queue shorter than
/// [`WAKE_AT`] before it empties it anyway.
const RECHECK: Duration = Duration::from_millis(50);

/// Largest emptied deferred queue, in callbacks of three words each, that
/// the funnel keeps for reuse (96 KiB). Passes run at a few hundred
/// pending callbacks, so every steady-state queue fits; a burst's does not
/// and is freed.
const SPARE_QUEUE_CAP: usize = 4096;

std::thread_local! {
    /// How many [`NoGraceWait`] guards the calling thread holds. Touched in
    /// debug builds only.
    static NO_WAIT_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// In debug builds, panics if the calling thread holds a [`NoGraceWait`]
/// guard: it is about to wait for a grace period.
fn debug_assert_no_wait_lock() {
    debug_assert!(
        NO_WAIT_DEPTH.with(Cell::get) == 0,
        "grace-period wait while holding a NoGraceWait lock: a reader \
         queueing for that lock would never reach its quiescent state"
    );
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

/// The deferred-free queue, and the grace-period wait that stands between
/// retiring memory and freeing it.
///
/// See the module docs for motivation. Data structures use the process-wide
/// funnel, [`GraceSync::global`], built over [`RcuDomain::global`], whose
/// reclaim thread frees what they retire; [`GraceSync::new`] builds an
/// isolated one over a private domain, with no thread, for tests of the
/// machinery itself.
///
/// The funnel frees what has been queued on it, nothing else: an
/// `RpHashMap` that stops writing holds up to 63 retired nodes in its open
/// batch until its next write, its `flush_retired` or its drop.
///
/// Dropping a funnel leaks whatever is still queued: its domain, and
/// readers registered with it, may outlive it.
///
/// # Panics
///
/// Every method that waits inherits the domain's self-deadlock check: it
/// panics if the calling thread reads the funnel's domain (holds a guard,
/// or has an online QSBR handle). In debug builds it also panics if the
/// calling thread holds a [`NoGraceWait`] guard.
#[derive(Debug)]
pub struct GraceSync {
    domain: Arc<RcuDomain>,
    /// Deferred reclamation queue (`call_rcu` equivalent).
    deferred: Mutex<Queue>,
    /// The emptied storage of the last executed batch, which the next
    /// [`GraceSync::take_deferred`] leaves behind as the queue: steady
    /// reclamation allocates no queue storage after its first pass.
    spare: Mutex<Vec<Deferred>>,
    /// Held for the whole of a pass, so passes run one at a time and a
    /// barrier cannot return while an earlier batch is still waiting.
    pass: Mutex<()>,
    /// Paired with `deferred`: the reclaim thread waits on it,
    /// [`GraceSync::wake_reclaimer`] signals it.
    wakeup: Condvar,
    /// Starts the reclaim thread, once; `None` for a funnel with none.
    reclaimer: Option<Once>,
}

#[derive(Debug, Default)]
struct Queue {
    callbacks: Vec<Deferred>,
    /// A wake the reclaim thread has not acted on: one that lands while it
    /// is mid-pass, or not started yet, is kept, not lost.
    wake: bool,
}

impl GraceSync {
    /// Builds a funnel over `domain`, with an empty queue of its own: its
    /// passes wait for the readers of exactly this domain. It has no reclaim
    /// thread; only its callers' barriers empty it.
    pub fn new(domain: Arc<RcuDomain>) -> Self {
        GraceSync {
            domain,
            deferred: Mutex::default(),
            spare: Mutex::new(Vec::new()),
            pass: Mutex::new(()),
            wakeup: Condvar::new(),
            reclaimer: None,
        }
    }

    /// Returns the process-wide funnel, the one every relativistic data
    /// structure in this workspace retires into, emptied by its reclaim
    /// thread.
    pub fn global() -> &'static GraceSync {
        static GLOBAL: OnceLock<GraceSync> = OnceLock::new();
        GLOBAL.get_or_init(|| GraceSync {
            reclaimer: Some(Once::new()),
            ..GraceSync::new(Arc::clone(RcuDomain::global()))
        })
    }

    /// Waits for a grace period of the funnel's domain: every reader, of
    /// either flavor, that was inside a critical section when the call
    /// began has left it.
    pub fn synchronize(&self) {
        debug_assert_no_wait_lock();
        // Chaos hook: a `rcu.grace=delay:..` plan stretches every grace
        // period, magnifying the window in which readers observe
        // mid-resize states (errors/panics make no sense for a wait that
        // cannot fail, so only the injected delay is honored).
        let _ = rp_fault::point("rcu.grace");
        // Telemetry: one relaxed load when disabled; a clock pair, a
        // histogram bump and a trace-ring entry when enabled.
        let timer = rp_obs::timer();
        self.domain.synchronize();
        if let Some(ns) = rp_obs::elapsed_ns(timer) {
            let obs = rp_obs::global();
            obs.rcu.sync_ns.record(ns);
            obs.trace.record(rp_obs::TraceKind::Grace, ns);
        }
    }

    /// [`RcuDomain::cookie`] of the funnel's domain.
    pub fn cookie(&self) -> u64 {
        self.domain.cookie()
    }

    /// [`RcuDomain::poll`] of the funnel's domain.
    pub fn poll(&self, cookie: u64) -> bool {
        self.domain.poll(cookie)
    }

    /// [`RcuDomain::synchronize_until`], waiting through
    /// [`GraceSync::synchronize`].
    pub fn synchronize_until(&self, cookie: u64) {
        debug_assert_no_wait_lock();
        if !self.poll(cookie) {
            self.synchronize();
        }
    }

    /// Queues a closure to run after a subsequent grace period.
    ///
    /// This is the `call_rcu` equivalent: the closure runs on the funnel's
    /// reclaim thread, or in a [`GraceSync::synchronize_and_reclaim`]
    /// barrier, whichever comes first, and after every callback queued
    /// before it. Queueing never waits. A closure that panics is counted
    /// (`rcu_reclaim_panics_total`) and the rest of its batch still runs.
    pub fn defer(&self, f: impl FnOnce() + Send + 'static) {
        self.push_deferred(std::iter::once(Deferred::new(f)));
    }

    /// Queues `ptr` to be freed (as a `Box<T>`) after a subsequent grace
    /// period.
    ///
    /// # Safety
    ///
    /// * `ptr` must have been produced by [`Box::into_raw`] and must not be
    ///   freed through any other path.
    /// * `ptr` must already be unreachable to new readers (unpublished), so
    ///   that after one grace period no reader can reference it.
    /// * Readers that may still reference `ptr` must be readers of *this*
    ///   funnel's domain.
    pub unsafe fn defer_free<T: Send>(&self, ptr: *mut T) {
        // SAFETY: forwarded caller contract; `T: Send`, so `drop_box::<T>`
        // may drop it on the reclaim thread.
        unsafe { self.defer_drop(&[ptr.cast()], drop_box::<T>) }
    }

    /// Queues `dropper(ptr)` for every `ptr` of `ptrs`, in slice order, to
    /// run after a subsequent grace period: [`GraceSync::defer_free`] for
    /// memory its owner frees its own way (a node slab taking slots back),
    /// with no closure to box. The whole slice costs one lock acquisition
    /// and one `callbacks_queued` add, so a caller that gathers its retires
    /// (a map's batch of 64) pays for the queue once per batch.
    ///
    /// # Safety
    ///
    /// For every `ptr` of `ptrs`:
    ///
    /// * Calling `dropper(ptr)` once, on whichever thread runs the pass,
    ///   must be sound, and nothing else may free `ptr`. Whatever `dropper`
    ///   reaches through `ptr` must still exist when it runs; callbacks run
    ///   in the order they were queued, so queueing that memory's own
    ///   release after this call is enough.
    /// * `ptr` must already be unreachable to new readers (unpublished), so
    ///   that after one grace period no reader can reference it.
    /// * Readers that may still reference `ptr` must be readers of *this*
    ///   funnel's domain.
    pub unsafe fn defer_drop(&self, ptrs: &[*mut ()], dropper: unsafe fn(*mut ())) {
        self.push_deferred(ptrs.iter().map(|&ptr| {
            // SAFETY: forwarded caller contract, for this pointer.
            unsafe { Deferred::drop_with(ptr, dropper) }
        }));
    }

    fn push_deferred(&self, callbacks: impl ExactSizeIterator<Item = Deferred>) {
        let pushed = callbacks.len();
        let pending = {
            let queue = &mut self.deferred.lock().callbacks;
            queue.extend(callbacks);
            queue.len()
        };
        self.domain
            .counters()
            .callbacks_queued
            .fetch_add(pushed as u64, Ordering::Relaxed);
        // The push that crosses the mark wakes the thread: a slice can
        // jump over it.
        if pending >= WAKE_AT && pending - pushed < WAKE_AT {
            self.wake_reclaimer();
        }
    }

    /// Asks the reclaim thread for a pass now, starting it on first use;
    /// with nothing queued the pass is a grace period alone, which covers
    /// every cookie taken before the wake. Pushes wake it as the queue
    /// crosses 256 callbacks; a caller that has just queued one that gives
    /// back much memory (a dropped map's node slab), or whose cookie a
    /// later write polls (a resize's), wakes it sooner, and no wake is
    /// lost. A no-op on a funnel built with [`GraceSync::new`].
    pub fn wake_reclaimer(&self) {
        let Some(started) = &self.reclaimer else {
            return;
        };
        self.deferred.lock().wake = true;
        // Only the global funnel has a `reclaimer`, so the thread's funnel
        // is `self`.
        started.call_once(|| {
            std::thread::Builder::new()
                .name("rcu-reclaimer".to_string())
                .spawn(|| GraceSync::global().reclaim_forever())
                .expect("spawn the rcu-reclaimer thread");
        });
        self.wakeup.notify_one();
    }

    /// The reclaim thread: a pass whenever it is woken ([`WAKE_AT`]
    /// callbacks queued, or a caller asked), or [`RECHECK`] after it found
    /// fewer; no timer while the queue is empty, and a grace period alone
    /// when woken with nothing to free. It holds no guard and no lock
    /// across a pass, so it may wait for any reader.
    fn reclaim_forever(&self) -> ! {
        loop {
            let mut queue = self.deferred.lock();
            if !queue.wake {
                if queue.callbacks.is_empty() {
                    self.wakeup.wait(&mut queue);
                } else if queue.callbacks.len() < WAKE_AT {
                    self.wakeup.wait_for(&mut queue, RECHECK);
                }
            }
            let woken = std::mem::take(&mut queue.wake);
            let pending = !queue.callbacks.is_empty();
            drop(queue);
            if pending {
                self.synchronize_and_reclaim();
            } else if woken {
                self.synchronize();
            }
        }
    }

    /// Number of deferred callbacks currently queued. Retires a caller
    /// still holds in a batch of its own (a map's open batch) are not
    /// queued yet, and not counted.
    pub fn deferred_pending(&self) -> usize {
        self.deferred.lock().callbacks.len()
    }

    /// Takes the current deferred batch, leaving later arrivals queued.
    ///
    /// A grace period only covers callbacks whose unpublish happened before
    /// the grace period started, so a pass takes the batch *first*, waits,
    /// then runs it with [`GraceSync::execute_deferred`].
    fn take_deferred(&self) -> Vec<Deferred> {
        let queue = &mut self.deferred.lock().callbacks;
        if queue.is_empty() {
            return Vec::new();
        }
        let spare = std::mem::take(&mut *self.spare.lock());
        std::mem::replace(queue, spare)
    }

    /// Runs a batch previously taken with [`GraceSync::take_deferred`],
    /// after [`GraceSync::synchronize`] has returned in between. A callback
    /// that panics is contained and counted; the rest of the batch runs.
    fn execute_deferred(&self, mut batch: Vec<Deferred>) {
        let executed = batch.len() as u64;
        let mut panics = 0;
        for d in batch.drain(..) {
            panics += u64::from(catch_unwind(AssertUnwindSafe(|| d.call())).is_err());
        }
        rp_obs::global().rcu.reclaim_panics_total.add(panics);
        self.domain
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
            let queue = &mut self.deferred.lock().callbacks;
            if queue.is_empty() && queue.capacity() < batch.capacity() {
                std::mem::swap(queue, &mut batch);
            }
        }
        let mut spare = self.spare.lock();
        if spare.capacity() < batch.capacity() {
            *spare = batch;
        }
    }

    /// The barrier: returns once every callback queued before this call
    /// began has run — by this call's own pass (wait for a grace period,
    /// then execute), or by a pass
    /// already in flight on another thread, which this one waits out first.
    /// With nothing left to run after that, it waits for no grace period.
    ///
    /// Callbacks queued concurrently with the grace period are left for the
    /// next pass (they may not yet be covered by it).
    pub fn synchronize_and_reclaim(&self) {
        // The checks `synchronize` makes, before the pass lock: a caller
        // that may not wait must panic, not queue behind a pass that is
        // waiting for it.
        debug_assert_no_wait_lock();
        self.domain.assert_not_reading();
        let _pass = self.pass.lock();
        let batch = self.take_deferred();
        if batch.is_empty() {
            return;
        }
        let executed = batch.len() as u64;
        self.synchronize();
        self.execute_deferred(batch);
        let obs = rp_obs::global();
        obs.rcu.reclaim_executed_total.add(executed);
        obs.rcu.reclaim_passes_total.inc();
        obs.rcu.reclaim_pending.set(self.deferred_pending() as u64);
    }
}

#[cfg(test)]
impl GraceSync {
    /// Queues `n` callbacks that each bump the returned counter.
    pub(crate) fn defer_counting(&self, n: usize) -> Arc<std::sync::atomic::AtomicUsize> {
        let ran = Arc::new(std::sync::atomic::AtomicUsize::new(0));
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

    /// A funnel over a private domain: its queue and its waits are this
    /// test's alone.
    fn private() -> GraceSync {
        GraceSync::new(RcuDomain::new())
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
        let stats = sync.domain.stats();
        assert_eq!(stats.callbacks_queued, 5);
        assert_eq!(stats.callbacks_executed, 5);
        assert_eq!(stats.grace_periods, 1);
    }

    #[test]
    fn callbacks_run_in_the_order_they_were_queued() {
        let sync = private();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..64 {
            let order = Arc::clone(&order);
            sync.defer(move || order.lock().push(i));
        }
        sync.synchronize_and_reclaim();
        assert_eq!(*order.lock(), (0..64).collect::<Vec<_>>());
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
    fn a_private_funnel_has_no_reclaim_thread() {
        let sync = private();
        let ran = sync.defer_counting(2 * WAKE_AT);
        thread::sleep(2 * RECHECK);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "only a barrier empties it");
        assert_eq!(sync.deferred_pending(), 2 * WAKE_AT);
        sync.synchronize_and_reclaim();
        assert_eq!(ran.load(Ordering::SeqCst), 2 * WAKE_AT);
    }

    #[test]
    fn a_panicking_callback_is_contained_and_the_batch_runs_on() {
        let sync = private();
        let before = rp_obs::global().rcu.reclaim_panics_total.get();
        let first = sync.defer_counting(3);
        sync.defer(|| panic!("a deferred destructor panicked"));
        let last = sync.defer_counting(3);
        sync.synchronize_and_reclaim();
        assert_eq!(first.load(Ordering::SeqCst), 3);
        assert_eq!(last.load(Ordering::SeqCst), 3);
        assert!(rp_obs::global().rcu.reclaim_panics_total.get() > before);
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
            let domain = Arc::clone(&sync.domain);
            let online = Arc::clone(&online);
            let release = Arc::clone(&release);
            thread::spawn(move || {
                let h = crate::qsbr::QsbrHandle::new(&domain);
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
}
