//! Read-side critical-section guards (delimited readers).

use std::marker::PhantomData;
use std::sync::atomic::Ordering;

use crossbeam_utils::CachePadded;

use crate::domain::{RcuDomain, Reader};

/// A read-side critical section.
///
/// While an `RcuGuard` is alive, grace periods of its domain cannot
/// complete, so any pointer published before the guard was created — and any
/// pointer observed through it — remains valid until the guard is dropped.
///
/// Guards are re-entrant: nesting them on the same thread is cheap and the
/// outermost guard defines the critical section observed by writers. Guards
/// are neither `Send` nor `Sync`; they delimit a section of a *thread's*
/// execution.
///
/// Entering and leaving the outermost critical section costs one store to
/// the thread's reader word plus one full memory fence; a nested guard
/// touches only the thread's nesting count. There are no locks, no waiting
/// and no atomic read-modify-write instructions, which is what gives
/// relativistic readers their linear scalability.
pub struct RcuGuard<'scope> {
    reader: *const CachePadded<Reader>,
    /// `!Send + !Sync`: the guard manipulates a thread-private counter.
    _not_send: PhantomData<*mut ()>,
    _scope: PhantomData<&'scope ()>,
}

impl<'scope> RcuGuard<'scope> {
    /// Enters a (possibly nested) read-side critical section for `reader`,
    /// a reader of `domain`.
    pub(crate) fn enter(reader: &'scope CachePadded<Reader>, domain: &RcuDomain) -> Self {
        let depth = reader.nesting.load(Ordering::Relaxed);
        if depth == 0 {
            // Outermost critical section: publish the counter snapshot and
            // fence so the store is ordered before every read performed
            // inside the critical section.
            reader.word.store(domain.counter(), Ordering::SeqCst);
            std::sync::atomic::fence(Ordering::SeqCst);
        }
        // Only the thread itself reads the nesting count.
        reader.nesting.store(depth + 1, Ordering::Relaxed);
        RcuGuard {
            reader,
            _not_send: PhantomData,
            _scope: PhantomData,
        }
    }

    /// Creates a guard that performs no reader registration at all.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no writer can concurrently retire or
    /// free any object this guard will be used to access — typically because
    /// the caller has exclusive (`&mut`/owned) access to the data structure,
    /// e.g. inside `Drop`.
    pub unsafe fn unprotected() -> RcuGuard<'static> {
        RcuGuard {
            reader: std::ptr::null(),
            _not_send: PhantomData,
            _scope: PhantomData,
        }
    }

    /// Returns `true` if this guard was created with
    /// [`RcuGuard::unprotected`].
    pub fn is_unprotected(&self) -> bool {
        self.reader.is_null()
    }

    /// Current nesting depth of the owning thread's critical section, for
    /// diagnostics and tests.
    pub fn nesting(&self) -> usize {
        if self.reader.is_null() {
            return 0;
        }
        // SAFETY: `reader` points to the creating thread's reader record,
        // which outlives the guard (see `LocalHandle`'s leak-on-active-guard
        // policy), and the guard is not `Send`, so we are on that thread.
        let reader = unsafe { &*self.reader };
        reader.nesting.load(Ordering::Relaxed)
    }
}

impl Drop for RcuGuard<'_> {
    fn drop(&mut self) {
        if self.reader.is_null() {
            return;
        }
        // SAFETY: as in `nesting` — the pointee outlives the guard and is
        // only mutated by the owning thread.
        let reader = unsafe { &*self.reader };
        let depth = reader.nesting.load(Ordering::Relaxed);
        debug_assert!(depth > 0, "unbalanced RcuGuard drop");
        reader.nesting.store(depth - 1, Ordering::Relaxed);
        if depth == 1 {
            // Leaving the outermost critical section: fence so every read
            // performed inside it is ordered before the store that lets
            // grace periods complete.
            std::sync::atomic::fence(Ordering::SeqCst);
            reader.word.store(0, Ordering::SeqCst);
        }
    }
}

impl std::fmt::Debug for RcuGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcuGuard")
            .field("unprotected", &self.is_unprotected())
            .field("nesting", &self.nesting())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pin, LocalHandle, RcuDomain};

    #[test]
    fn nesting_depth_tracks_guard_stack() {
        let domain = RcuDomain::new();
        let handle = LocalHandle::new(&domain);
        let g1 = handle.read_lock();
        assert_eq!(g1.nesting(), 1);
        {
            let g2 = handle.read_lock();
            assert_eq!(g2.nesting(), 2);
            let g3 = handle.read_lock();
            assert_eq!(g3.nesting(), 3);
        }
        assert_eq!(g1.nesting(), 1);
    }

    #[test]
    fn unprotected_guard_reports_itself() {
        // SAFETY: nothing is accessed through the guard in this test.
        let g = unsafe { RcuGuard::unprotected() };
        assert!(g.is_unprotected());
        assert_eq!(g.nesting(), 0);
    }

    #[test]
    fn global_pin_is_not_unprotected() {
        let g = pin();
        assert!(!g.is_unprotected());
        assert!(g.nesting() >= 1);
    }

    #[test]
    fn debug_output_mentions_nesting() {
        let g = pin();
        let s = format!("{g:?}");
        assert!(s.contains("nesting"));
    }
}
