//! Quiescent-state-based reclamation (QSBR): the barrier-free reader flavor.
//!
//! In the QSBR flavor, entering and leaving a read-side critical section
//! costs *nothing at all* — not even a memory fence — which matches the
//! read-side cost of kernel RCU more closely than the memory-barrier flavor
//! in [`crate`]. The price is that every registered thread must periodically
//! announce a *quiescent state* (a point at which it holds no RCU-protected
//! references) or declare itself offline; a grace period completes only once
//! every online thread has done so.
//!
//! The benchmark harness uses this flavor to quantify the gap between the
//! two read-side costs (see the `rcu_primitives` Criterion bench).

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::stats::{AtomicStats, DomainStats};

/// Sentinel counter value meaning "this thread is offline".
const OFFLINE: u64 = 0;

std::thread_local! {
    /// The calling thread's registered QSBR readers, keyed by domain
    /// address. [`QsbrHandle`] is `!Send`, so every handle a thread creates
    /// stays on that thread and this registry is exact. It powers two
    /// safety nets:
    ///
    /// * [`QsbrDomain::synchronize`] panics instead of self-deadlocking when
    ///   the calling thread's own handle is still online.
    /// * [`global_qsbr_online`] lets data structures postpone optional
    ///   grace-period work (reclamation, automatic resizing) on threads that
    ///   are currently QSBR readers, exactly as they already do for a held
    ///   EBR guard.
    static THREAD_READERS: RefCell<Vec<(usize, Arc<CachePadded<QsbrReader>>)>> =
        const { RefCell::new(Vec::new()) };
}

fn domain_key(domain: &QsbrDomain) -> usize {
    domain as *const QsbrDomain as usize
}

/// Returns `true` if the calling thread has an **online** [`QsbrHandle`]
/// registered with `domain`.
///
/// A thread's own online handle would make any `synchronize` it performs on
/// that domain wait for itself; callers use this to postpone or refuse such
/// waits.
pub fn thread_is_online_reader(domain: &QsbrDomain) -> bool {
    let key = domain_key(domain);
    THREAD_READERS
        .try_with(|readers| {
            readers
                .borrow()
                .iter()
                .any(|(d, state)| *d == key && state.ctr.load(Ordering::Relaxed) != OFFLINE)
        })
        .unwrap_or(false)
}

/// Returns `true` if the calling thread is currently an online reader of the
/// **global** QSBR domain ([`QsbrDomain::global`]).
///
/// This is the QSBR analogue of [`crate::global_read_nesting`]` > 0`: data
/// structures check it before optional grace-period work (automatic
/// resizing) so that a thread serving QSBR reads never waits for — or
/// deadlocks on — its own read-side activity.
pub fn global_qsbr_online() -> bool {
    thread_is_online_reader(QsbrDomain::global())
}

/// Per-thread QSBR state.
#[derive(Debug)]
struct QsbrReader {
    /// Last grace-period value this thread has passed through, or
    /// [`OFFLINE`].
    ctr: AtomicU64,
    /// Registration ordinal, unique within the domain for its lifetime —
    /// the identity stall reports attribute lagging readers by.
    ordinal: u64,
}

/// A QSBR domain: registered threads plus the grace-period counter.
#[derive(Debug)]
pub struct QsbrDomain {
    gp_ctr: AtomicU64,
    gp_lock: Mutex<()>,
    registry: Mutex<Vec<Arc<CachePadded<QsbrReader>>>>,
    next_ordinal: AtomicU64,
    stats: AtomicStats,
}

impl Default for QsbrDomain {
    fn default() -> Self {
        QsbrDomain {
            // Start at 1 so that 0 can mean "offline".
            gp_ctr: AtomicU64::new(1),
            gp_lock: Mutex::new(()),
            registry: Mutex::new(Vec::new()),
            next_ordinal: AtomicU64::new(1),
            stats: AtomicStats::default(),
        }
    }
}

impl QsbrDomain {
    /// Creates a fresh QSBR domain.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Returns the process-wide global QSBR domain.
    ///
    /// This is the domain behind `rp_hash`'s QSBR read path; writers of the
    /// global data structures synchronize it (through
    /// [`crate::GraceSync`]) whenever it has registered readers.
    pub fn global() -> &'static Arc<QsbrDomain> {
        static GLOBAL: OnceLock<Arc<QsbrDomain>> = OnceLock::new();
        GLOBAL.get_or_init(QsbrDomain::new)
    }

    /// Registers the calling thread; it starts *online* and quiescent.
    ///
    /// The returned handle is `!Send`: QSBR bookkeeping is inherently
    /// per-thread (the whole point is that the *owning thread* announces its
    /// own quiescent states), and pinning the handle to its thread is what
    /// makes [`thread_is_online_reader`] exact.
    pub fn register(self: &Arc<Self>) -> QsbrHandle {
        let state = Arc::new(CachePadded::new(QsbrReader {
            ctr: AtomicU64::new(self.gp_ctr.load(Ordering::SeqCst)),
            ordinal: self.next_ordinal.fetch_add(1, Ordering::Relaxed),
        }));
        self.registry.lock().push(Arc::clone(&state));
        let _ = THREAD_READERS.try_with(|readers| {
            readers
                .borrow_mut()
                .push((domain_key(self), Arc::clone(&state)));
        });
        if self.is_global() {
            // The stall detector attributes lagging readers by ordinal;
            // give it the thread name while we still know it.
            let name = std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string();
            crate::stall::detector().track_thread(state.ordinal, name);
        }
        self.stats
            .readers_registered
            .fetch_add(1, Ordering::Relaxed);
        QsbrHandle {
            domain: Arc::clone(self),
            state,
            _not_send: PhantomData,
        }
    }

    fn is_global(&self) -> bool {
        std::ptr::eq(self, Arc::as_ptr(Self::global()))
    }

    /// Waits until every online registered thread has passed through a
    /// quiescent state after this call began.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread itself has an online [`QsbrHandle`]
    /// registered with this domain — the grace period could never complete
    /// while the caller counts as a reader (announce a quiescent state won't
    /// help: a *new* grace period needs a *new* announcement, which the
    /// caller, busy waiting, would never make). Go
    /// [`QsbrHandle::offline`] first.
    pub fn synchronize(&self) {
        self.assert_not_reading();
        let _gp = self.gp_lock.lock();
        self.stats.synchronize_calls.fetch_add(1, Ordering::Relaxed);
        crate::local::note_synchronize();
        std::sync::atomic::fence(Ordering::SeqCst);

        // Advance the grace-period counter; readers must observe a value at
        // least this large (or be offline) before the grace period ends.
        let target = self.gp_ctr.load(Ordering::Relaxed) + 1;
        self.gp_ctr.store(target, Ordering::SeqCst);
        std::sync::atomic::fence(Ordering::SeqCst);

        let snapshot: Vec<Arc<CachePadded<QsbrReader>>> = self.registry.lock().clone();
        for reader in &snapshot {
            let mut spins = 0_u32;
            loop {
                let c = reader.ctr.load(Ordering::SeqCst);
                if c == OFFLINE || c >= target {
                    break;
                }
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else if spins < 256 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }

        std::sync::atomic::fence(Ordering::SeqCst);
        self.stats.grace_periods.fetch_add(1, Ordering::Relaxed);
    }

    /// The panic [`QsbrDomain::synchronize`] opens with: the calling
    /// thread's own handle on this domain is online.
    pub(crate) fn assert_not_reading(&self) {
        if thread_is_online_reader(self) {
            panic!(
                "QsbrDomain::synchronize called while the calling thread's own QSBR handle \
                 is online; go offline first (this would otherwise deadlock)"
            );
        }
    }

    /// Returns a snapshot of this domain's counters.
    pub fn stats(&self) -> DomainStats {
        self.stats.snapshot()
    }

    /// Number of threads currently registered.
    pub fn registered_readers(&self) -> usize {
        self.registry.lock().len()
    }

    /// Ordinals of registered readers that are online but have not yet
    /// observed the current grace-period counter — the readers a pending
    /// QSBR grace period is waiting on. The stall detector
    /// ([`crate::stall`]) uses this to attribute an overdue grace period;
    /// outside a pending `synchronize` it is normally empty (the last
    /// grace period ended only once everyone caught up or went offline).
    pub fn lagging_ordinals(&self) -> Vec<u64> {
        let target = self.gp_ctr.load(Ordering::SeqCst);
        self.registry
            .lock()
            .iter()
            .filter(|reader| {
                let c = reader.ctr.load(Ordering::SeqCst);
                c != OFFLINE && c < target
            })
            .map(|reader| reader.ordinal)
            .collect()
    }

    fn unregister(&self, state: &Arc<CachePadded<QsbrReader>>) {
        let mut registry = self.registry.lock();
        if let Some(pos) = registry.iter().position(|s| Arc::ptr_eq(s, state)) {
            registry.swap_remove(pos);
            self.stats
                .readers_unregistered
                .fetch_add(1, Ordering::Relaxed);
        }
        drop(registry);
        if self.is_global() {
            // Symmetric with `register`: the detector must never keep a
            // slot for a dead ordinal, even for a handle that was never
            // used between registration and drop.
            crate::stall::detector().untrack_thread(state.ordinal);
        }
    }
}

/// A thread's registration with a [`QsbrDomain`].
///
/// The owning thread must call [`QsbrHandle::quiescent_state`] regularly (or
/// go [`QsbrHandle::offline`]) — otherwise writers calling
/// [`QsbrDomain::synchronize`] will wait forever.
///
/// Handles are `!Send`: the registration belongs to the thread that created
/// it (see [`QsbrDomain::register`]).
pub struct QsbrHandle {
    domain: Arc<QsbrDomain>,
    state: Arc<CachePadded<QsbrReader>>,
    /// `!Send + !Sync`: quiescent bookkeeping is thread-private.
    _not_send: PhantomData<*mut ()>,
}

impl QsbrHandle {
    /// Announces a quiescent state: the thread holds no references to
    /// RCU-protected data at this instant.
    pub fn quiescent_state(&self) {
        // Order all reads of protected data before the announcement...
        std::sync::atomic::fence(Ordering::SeqCst);
        self.state
            .ctr
            .store(self.domain.gp_ctr.load(Ordering::SeqCst), Ordering::SeqCst);
        // ...and the announcement before any subsequent reads.
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Marks the thread offline: it promises not to access RCU-protected
    /// data until [`QsbrHandle::online`] is called, and writers stop waiting
    /// for it.
    pub fn offline(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
        self.state.ctr.store(OFFLINE, Ordering::SeqCst);
    }

    /// Marks the thread online again (implies a quiescent state).
    pub fn online(&self) {
        self.state
            .ctr
            .store(self.domain.gp_ctr.load(Ordering::SeqCst), Ordering::SeqCst);
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Returns `true` if the thread is currently online.
    pub fn is_online(&self) -> bool {
        self.state.ctr.load(Ordering::Relaxed) != OFFLINE
    }

    /// Enters a read-side critical section.
    ///
    /// In QSBR this is free — the guard exists only to delimit the region in
    /// the source and to assert (in debug builds) that the thread is online.
    pub fn read_lock(&self) -> QsbrReadGuard<'_> {
        debug_assert!(
            self.is_online(),
            "QSBR read-side critical section entered while offline"
        );
        QsbrReadGuard { _handle: self }
    }

    /// The domain this handle is registered with.
    pub fn domain(&self) -> &Arc<QsbrDomain> {
        &self.domain
    }

    /// This registration's ordinal, unique within its domain — the
    /// identity stall reports use for attribution.
    pub fn ordinal(&self) -> u64 {
        self.state.ordinal
    }

    /// Runs `f` with the thread marked offline, restoring the online state
    /// afterwards. Useful around blocking operations.
    pub fn offline_scope<R>(&self, f: impl FnOnce() -> R) -> R {
        self.offline();
        let r = f();
        self.online();
        r
    }
}

impl Drop for QsbrHandle {
    fn drop(&mut self) {
        // Go offline before unregistering: a `synchronize` that snapshotted
        // the registry while this handle was still listed keeps polling the
        // snapshot's `Arc` even after `unregister` removes it, and an
        // online-but-gone reader would stall that grace period forever.
        // Offline is sound here — dropping the handle proves the thread
        // holds no references obtained through it (they borrow the handle).
        self.offline();
        let _ = THREAD_READERS.try_with(|readers| {
            let mut readers = readers.borrow_mut();
            if let Some(pos) = readers
                .iter()
                .position(|(_, s)| Arc::ptr_eq(s, &self.state))
            {
                readers.swap_remove(pos);
            }
        });
        self.domain.unregister(&self.state);
    }
}

impl std::fmt::Debug for QsbrHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QsbrHandle")
            .field("online", &self.is_online())
            .finish()
    }
}

/// A QSBR read-side critical section (zero-cost marker).
pub struct QsbrReadGuard<'a> {
    _handle: &'a QsbrHandle,
}

impl std::fmt::Debug for QsbrReadGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("QsbrReadGuard")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn register_and_drop() {
        let d = QsbrDomain::new();
        let h = d.register();
        assert_eq!(d.registered_readers(), 1);
        assert!(h.is_online());
        drop(h);
        assert_eq!(d.registered_readers(), 0);
    }

    #[test]
    fn synchronize_completes_with_quiescent_readers() {
        let d = QsbrDomain::new();
        let h = d.register();
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
        let d = QsbrDomain::new();
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));

        let reader = {
            let d = Arc::clone(&d);
            let started = Arc::clone(&started);
            let release = Arc::clone(&release);
            thread::spawn(move || {
                let h = d.register();
                let _g = h.read_lock();
                started.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                #[allow(clippy::drop_non_drop)] // explicit end of the read section
                drop(_g);
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
        let d = QsbrDomain::new();
        let h = d.register();
        h.offline();
        assert!(!h.is_online());
        d.synchronize();
        d.synchronize();
        assert_eq!(d.stats().grace_periods, 2);
    }

    #[test]
    fn offline_scope_restores_online_state() {
        let d = QsbrDomain::new();
        let h = d.register();
        let x = h.offline_scope(|| {
            assert!(!h.is_online());
            5
        });
        assert_eq!(x, 5);
        assert!(h.is_online());
    }

    #[test]
    fn dropping_an_online_handle_does_not_stall_synchronize() {
        // Regression: `synchronize` snapshots the registry; a handle
        // dropped *while online* after the snapshot must not leave a stale
        // counter the grace period spins on forever. Drop goes offline
        // first, so the snapshot entry resolves.
        let d = QsbrDomain::new();
        let registered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let reader = {
            let d = Arc::clone(&d);
            let registered = Arc::clone(&registered);
            let release = Arc::clone(&release);
            thread::spawn(move || {
                let h = d.register();
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
    fn dropping_a_never_used_handle_clears_its_stall_tracking_slot() {
        // Regression (alongside the stale-counter Drop test above): a
        // handle registered on the *global* domain but never used — no
        // quiescent state, no read lock — must not leave the stall
        // detector's per-thread slot pointing at a dead ordinal.
        thread::Builder::new()
            .name("never-used-reader".into())
            .spawn(|| {
                let h = QsbrDomain::global().register();
                let ordinal = h.ordinal();
                assert!(
                    crate::stall::detector()
                        .tracked_ordinals()
                        .contains(&ordinal),
                    "registration tracks the ordinal"
                );
                drop(h);
                assert!(
                    !crate::stall::detector()
                        .tracked_ordinals()
                        .contains(&ordinal),
                    "drop must untrack the ordinal"
                );
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn lagging_ordinals_names_the_reader_that_has_not_announced() {
        let d = QsbrDomain::new();
        let registered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let laggard = {
            let d = Arc::clone(&d);
            let registered = Arc::clone(&registered);
            let release = Arc::clone(&release);
            thread::spawn(move || {
                let h = d.register();
                let ordinal = h.ordinal();
                registered.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                h.quiescent_state();
                ordinal
            })
        };
        while !registered.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        // No grace period pending yet: nobody lags.
        assert!(d.lagging_ordinals().is_empty());
        let waiter = {
            let d = Arc::clone(&d);
            thread::spawn(move || d.synchronize())
        };
        // The synchronize advanced gp_ctr; until the reader announces, it
        // is the (only) laggard.
        let mut lagging = d.lagging_ordinals();
        while lagging.is_empty() {
            std::hint::spin_loop();
            lagging = d.lagging_ordinals();
        }
        release.store(true, Ordering::SeqCst);
        let ordinal = laggard.join().unwrap();
        waiter.join().unwrap();
        assert_eq!(lagging, vec![ordinal]);
        assert!(d.lagging_ordinals().is_empty(), "resolved after the GP");
    }

    #[test]
    fn global_domain_is_a_singleton() {
        let a = Arc::as_ptr(QsbrDomain::global());
        let b = Arc::as_ptr(QsbrDomain::global());
        assert_eq!(a, b);
    }

    #[test]
    fn thread_online_tracking_follows_handle_state() {
        // Run on a dedicated thread so other tests' handles cannot
        // interfere with the thread-local bookkeeping.
        thread::spawn(|| {
            let d = QsbrDomain::new();
            assert!(!thread_is_online_reader(&d));
            let h = d.register();
            assert!(thread_is_online_reader(&d));
            h.offline();
            assert!(!thread_is_online_reader(&d));
            h.online();
            assert!(thread_is_online_reader(&d));
            drop(h);
            assert!(!thread_is_online_reader(&d));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn online_state_is_per_domain() {
        thread::spawn(|| {
            let d1 = QsbrDomain::new();
            let d2 = QsbrDomain::new();
            let _h = d1.register();
            assert!(thread_is_online_reader(&d1));
            assert!(!thread_is_online_reader(&d2));
            // A reader of d1 must not stop this thread synchronizing d2.
            d2.synchronize();
        })
        .join()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "own QSBR handle")]
    fn synchronize_while_online_panics_instead_of_deadlocking() {
        let d = QsbrDomain::new();
        let _h = d.register();
        d.synchronize();
    }

    #[test]
    fn synchronize_after_going_offline_succeeds() {
        thread::spawn(|| {
            let d = QsbrDomain::new();
            let h = d.register();
            h.offline();
            d.synchronize();
            assert_eq!(d.stats().grace_periods, 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn concurrent_quiescence_stress() {
        let d = QsbrDomain::new();
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let h = d.register();
                    while !stop.load(Ordering::Relaxed) {
                        {
                            let _g = h.read_lock();
                        }
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
