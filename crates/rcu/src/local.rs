//! Per-thread reader registration.

use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam_utils::CachePadded;

use crate::domain::{RcuDomain, Reader};
use crate::guard::RcuGuard;

/// A thread's EBR registration with an [`RcuDomain`].
///
/// Creating a `LocalHandle` registers the calling thread as a reader of the
/// domain; dropping it unregisters the thread. Read-side critical sections
/// are entered with [`LocalHandle::read_lock`]. The handle is `!Send`: it
/// is the registration of the thread that created it.
///
/// For the global domain, [`pin`] manages a thread-local handle
/// automatically; explicit handles are only needed for custom domains.
pub struct LocalHandle {
    domain: Arc<RcuDomain>,
    reader: Arc<CachePadded<Reader>>,
    _not_send: PhantomData<*mut ()>,
}

impl LocalHandle {
    /// Registers the calling thread with `domain`.
    pub fn new(domain: &Arc<RcuDomain>) -> Self {
        LocalHandle {
            domain: Arc::clone(domain),
            reader: domain.register(),
            _not_send: PhantomData,
        }
    }

    /// Enters a read-side critical section.
    pub fn read_lock(&self) -> RcuGuard<'_> {
        RcuGuard::enter(&self.reader, &self.domain)
    }

    /// The domain this handle is registered with.
    pub fn domain(&self) -> &Arc<RcuDomain> {
        &self.domain
    }

    /// Returns `true` if the owning thread is currently inside a read-side
    /// critical section entered through this handle.
    pub fn in_critical_section(&self) -> bool {
        self.reader.nesting.load(Ordering::Relaxed) != 0
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        if self.in_critical_section() {
            // A guard created from this handle is still alive (this can only
            // happen through unusual TLS-destructor interleavings). The
            // reader record must stay both allocated and registered so that
            // (a) the outstanding guard's accesses remain valid and (b)
            // writers keep waiting for the still-open critical section.
            // Leak one reference to keep it alive forever.
            std::mem::forget(Arc::clone(&self.reader));
            return;
        }
        self.domain.unregister(&self.reader);
    }
}

impl std::fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHandle")
            .field("in_critical_section", &self.in_critical_section())
            .finish()
    }
}

std::thread_local! {
    /// The calling thread's registration with the global domain, created
    /// lazily on first use of [`pin`].
    static GLOBAL_HANDLE: LocalHandle = LocalHandle::new(RcuDomain::global());

    /// Grace periods this thread has waited for (see
    /// [`thread_synchronize_count`]).
    static SYNCHRONIZE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Records that the calling thread performed a `synchronize` (called by
/// [`RcuDomain::synchronize`]).
pub(crate) fn note_synchronize() {
    let _ = SYNCHRONIZE_CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Number of grace periods the *calling thread* has waited for (via
/// [`RcuDomain::synchronize`] on any domain, including the waits inside
/// `synchronize_and_reclaim`) since the thread started.
///
/// This is the observable side of the "no write waits for readers"
/// property: a writer thread (QSBR-online, holding a guard, or neither) can
/// snapshot this counter, perform its updates, and assert the counter did
/// not move — every automatic resize it began or finished waited for
/// nothing. The counter is thread-local, so readings are exact and
/// race-free.
pub fn thread_synchronize_count() -> u64 {
    SYNCHRONIZE_CALLS.try_with(|c| c.get()).unwrap_or(0)
}

/// Enters a read-side critical section of the global domain.
///
/// The calling thread is registered with [`RcuDomain::global`] on first use.
/// The returned guard keeps the critical section open until it is dropped;
/// nesting is allowed and cheap.
///
/// # Panics
///
/// Panics if called while the thread's local storage is being destroyed
/// (i.e. from another thread-local's destructor after the handle has been
/// torn down).
pub fn pin() -> RcuGuard<'static> {
    GLOBAL_HANDLE.with(|handle| {
        let guard = handle.read_lock();
        // SAFETY: extending the guard's lifetime to `'static` is sound
        // because (a) the guard is `!Send`, so it stays on this thread, and
        // (b) the thread-local `LocalHandle` outlives any guard created on
        // this thread: it is destroyed only at thread exit, and if a guard
        // is somehow still active at that point the handle leaks its reader
        // record rather than freeing it (see `LocalHandle::drop`).
        unsafe { std::mem::transmute::<RcuGuard<'_>, RcuGuard<'static>>(guard) }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn handle_registers_and_unregisters() {
        let domain = RcuDomain::new();
        assert_eq!(domain.registered_readers(), 0);
        {
            let _h = LocalHandle::new(&domain);
            assert_eq!(domain.registered_readers(), 1);
        }
        assert_eq!(domain.registered_readers(), 0);
    }

    #[test]
    fn read_lock_tracks_critical_section() {
        let domain = RcuDomain::new();
        let handle = LocalHandle::new(&domain);
        assert!(!handle.in_critical_section());
        {
            let _g = handle.read_lock();
            assert!(handle.in_critical_section());
        }
        assert!(!handle.in_critical_section());
    }

    #[test]
    #[should_panic(expected = "reads the domain")]
    fn synchronize_under_a_custom_domain_guard_panics_instead_of_deadlocking() {
        let domain = RcuDomain::new();
        let handle = LocalHandle::new(&domain);
        let _g = handle.read_lock();
        domain.synchronize();
    }

    #[test]
    fn pin_registers_thread_with_global_domain() {
        // Tests running in parallel register and unregister readers of the
        // same domain, so only the monotonic totals can be compared.
        let before = RcuDomain::global().stats();
        let t = thread::spawn(|| {
            let _g = pin();
            RcuDomain::global().stats().readers_registered
        });
        let registered = t.join().unwrap();
        assert!(registered > before.readers_registered);
        // The thread's handle unregisters at thread exit, before `join`
        // returns.
        let after = RcuDomain::global().stats();
        assert!(after.readers_unregistered > before.readers_unregistered);
    }

    #[test]
    fn thread_synchronize_count_tracks_waits() {
        thread::spawn(|| {
            assert_eq!(thread_synchronize_count(), 0);
            RcuDomain::global().synchronize();
            // A pass of a funnel with a queue (and domain) of its own: the
            // global one's may already have been run by its reclaim thread.
            let sync = crate::GraceSync::new(RcuDomain::new());
            sync.defer(|| {});
            sync.synchronize_and_reclaim();
            assert_eq!(thread_synchronize_count(), 2);
            // Reads never bump the counter.
            let g = pin();
            drop(g);
            assert_eq!(thread_synchronize_count(), 2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn many_threads_pin_concurrently() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                thread::spawn(|| {
                    for _ in 0..100 {
                        let g1 = pin();
                        let g2 = pin();
                        assert!(g2.nesting() >= 2);
                        drop(g2);
                        drop(g1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        RcuDomain::global().synchronize();
    }
}
