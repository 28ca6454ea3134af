//! Pointer publication: the `rcu_assign_pointer` / `rcu_dereference` pair.

use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::guard::RcuGuard;
use crate::sync::GraceSync;

/// A shared, heap-allocated slot readable by relativistic readers.
///
/// Writers publish a new value with a release-ordered store
/// (`rcu_assign_pointer`); readers load it with an acquire-ordered load
/// (`rcu_dereference`) under an [`RcuGuard`], which guarantees they observe
/// the pointee fully initialised and that the pointee outlives the guard
/// provided writers retire replaced values instead of freeing them.
///
/// `RcuCell` owns its *current* value: dropping the cell drops the value it
/// points to at that moment. Values that have been replaced are returned to
/// the writer as [`RetiredPtr`]s, which must be retired
/// ([`RetiredPtr::retire_global`]) or reclaimed manually after a grace
/// period.
pub struct RcuCell<T> {
    ptr: AtomicPtr<T>,
    /// The cell logically owns a `Box<T>`.
    _marker: PhantomData<Box<T>>,
}

// SAFETY: an `RcuCell` hands out `&T` to multiple threads concurrently and
// moves `Box<T>` between threads (publication on one thread, reclamation on
// another), so it is `Send`/`Sync` exactly when `T` is both `Send` and
// `Sync`.
unsafe impl<T: Send + Sync> Send for RcuCell<T> {}
// SAFETY: see above.
unsafe impl<T: Send + Sync> Sync for RcuCell<T> {}

impl<T> RcuCell<T> {
    /// Creates an empty (null) cell.
    pub const fn empty() -> Self {
        RcuCell {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            _marker: PhantomData,
        }
    }

    /// Creates a cell holding `value`.
    pub fn new(value: Box<T>) -> Self {
        RcuCell {
            ptr: AtomicPtr::new(Box::into_raw(value)),
            _marker: PhantomData,
        }
    }

    /// Returns `true` if the cell currently holds no value.
    pub fn is_empty(&self) -> bool {
        self.ptr.load(Ordering::Acquire).is_null()
    }

    /// `rcu_dereference`: loads the current value under a read-side critical
    /// section.
    ///
    /// The returned reference is valid for the lifetime of the guard borrow,
    /// provided writers follow the retire-after-grace-period protocol (all
    /// writers in this crate and workspace do).
    pub fn load<'g>(&'g self, _guard: &'g RcuGuard<'_>) -> Option<&'g T> {
        let p = self.ptr.load(Ordering::Acquire);
        // SAFETY: `p` was published by `rcu_assign_pointer` (release store)
        // and we loaded it with acquire ordering, so the pointee is fully
        // initialised. The pointee cannot be freed while the guard is alive:
        // writers only free replaced values after a grace period, and the
        // guard prevents grace periods that started after its creation from
        // completing. Tying the result to `'g` (which also borrows `self`)
        // prevents use after either the guard or the cell is gone.
        unsafe { p.as_ref() }
    }

    /// Loads the raw pointer with acquire ordering.
    ///
    /// Useful for identity comparisons; dereferencing the result requires
    /// the same guarantees as [`RcuCell::load`].
    pub fn load_raw(&self) -> *mut T {
        self.ptr.load(Ordering::Acquire)
    }

    /// `rcu_assign_pointer`: publishes `new` (or clears the cell) and
    /// returns the previous value for retirement.
    ///
    /// The previous value is *not* freed: readers may still hold references
    /// to it. Retire it via [`RetiredPtr::retire_global`] (deferred) or
    /// reclaim it manually after [`GraceSync::synchronize`].
    pub fn replace(&self, new: Option<Box<T>>) -> Option<RetiredPtr<T>> {
        let new_ptr = match new {
            Some(b) => Box::into_raw(b),
            None => std::ptr::null_mut(),
        };
        let old = self.ptr.swap(new_ptr, Ordering::AcqRel);
        NonNull::new(old).map(|ptr| RetiredPtr { ptr })
    }

    /// Publishes `new`, returning the previous value for retirement.
    pub fn set(&self, new: Box<T>) -> Option<RetiredPtr<T>> {
        self.replace(Some(new))
    }

    /// Clears the cell, returning the previous value for retirement.
    pub fn clear(&self) -> Option<RetiredPtr<T>> {
        self.replace(None)
    }

    /// Takes the value out of the cell through exclusive access.
    ///
    /// Because `&mut self` proves no concurrent readers exist, the value can
    /// be returned as an owned `Box` immediately.
    pub fn take_mut(&mut self) -> Option<Box<T>> {
        let old = std::mem::replace(self.ptr.get_mut(), std::ptr::null_mut());
        if old.is_null() {
            None
        } else {
            // SAFETY: the pointer was produced by `Box::into_raw` (all
            // stores into the cell go through `Box`), and `&mut self`
            // guarantees no reader or other writer can observe it anymore.
            Some(unsafe { Box::from_raw(old) })
        }
    }

    /// Returns a mutable reference to the current value through exclusive
    /// access, if any.
    pub fn get_mut(&mut self) -> Option<&mut T> {
        let p = *self.ptr.get_mut();
        // SAFETY: `&mut self` guarantees exclusive access; the pointer, if
        // non-null, is a live `Box` allocation owned by the cell.
        unsafe { p.as_mut() }
    }
}

impl<T> Default for RcuCell<T> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<T> Drop for RcuCell<T> {
    fn drop(&mut self) {
        let p = *self.ptr.get_mut();
        if !p.is_null() {
            // SAFETY: dropping the cell implies exclusive access (no reader
            // can hold a reference derived from `load`, because `load` ties
            // its result to a borrow of the cell). The pointer is a live
            // `Box` allocation owned by the cell.
            unsafe { drop(Box::from_raw(p)) }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RcuCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RcuCell({:p})", self.ptr.load(Ordering::Relaxed))
    }
}

/// An unpublished value awaiting reclamation.
///
/// Returned by [`RcuCell::replace`] and friends. The value is no longer
/// reachable by new readers, but existing readers may still hold references
/// to it, so it must not be freed until a grace period has elapsed.
///
/// Dropping a `RetiredPtr` without retiring it **leaks** the value (leaking
/// is safe; freeing early would not be).
#[must_use = "dropping a RetiredPtr leaks the value; retire it with retire_global"]
pub struct RetiredPtr<T> {
    ptr: NonNull<T>,
}

// SAFETY: a `RetiredPtr` uniquely owns the right to reclaim its allocation;
// moving that right to another thread requires the pointee to be `Send`.
unsafe impl<T: Send> Send for RetiredPtr<T> {}

impl<T> RetiredPtr<T> {
    /// The raw pointer, for identity comparisons and diagnostics.
    pub fn as_ptr(&self) -> *mut T {
        self.ptr.as_ptr()
    }

    /// Queues the value to be freed by the next reclamation pass of
    /// [`GraceSync::global`], which waits for every reader of the global
    /// domain first.
    ///
    /// This is safe because [`crate::pin`] guards — the only guards handed
    /// out without an explicit domain — always belong to the global domain,
    /// and the only passes that can empty the queue wait for it. A cell read
    /// under guards of a *private*
    /// domain is outside that cover: reclaim its values with
    /// [`RetiredPtr::into_box`] after that domain's own `synchronize`.
    pub fn retire_global(self)
    where
        T: Send,
    {
        // SAFETY: the pointer came from `Box::into_raw` (all cell stores go
        // through `Box`) and is unpublished; see the doc comment for why the
        // global funnel covers every reader that might still reference it.
        unsafe { GraceSync::global().defer_free(self.ptr.as_ptr()) }
    }

    /// Converts back into an owned `Box`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that a grace period covering every reader
    /// that could have observed this value has elapsed since it was
    /// unpublished (e.g. by calling [`GraceSync::synchronize`]), or that no
    /// such reader can exist (exclusive access).
    pub unsafe fn into_box(self) -> Box<T> {
        // SAFETY: pointer originates from `Box::into_raw`; exclusive access
        // per the caller contract.
        unsafe { Box::from_raw(self.ptr.as_ptr()) }
    }
}

impl<T> std::fmt::Debug for RetiredPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RetiredPtr({:p})", self.ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin;

    #[test]
    fn empty_cell_loads_none() {
        let cell: RcuCell<u32> = RcuCell::empty();
        assert!(cell.is_empty());
        let guard = pin();
        assert!(cell.load(&guard).is_none());
    }

    #[test]
    fn publish_and_load() {
        let cell = RcuCell::new(Box::new(7_u32));
        let guard = pin();
        assert_eq!(cell.load(&guard).copied(), Some(7));
        assert!(!cell.is_empty());
    }

    #[test]
    fn replace_returns_old_value_for_retirement() {
        let cell = RcuCell::new(Box::new(1_u32));
        let old = cell.set(Box::new(2)).expect("had a value");
        {
            let guard = pin();
            assert_eq!(cell.load(&guard).copied(), Some(2));
        }
        old.retire_global();
        GraceSync::global().synchronize_and_reclaim();
    }

    #[test]
    fn clear_empties_the_cell() {
        let cell = RcuCell::new(Box::new(5_u32));
        let old = cell.clear().expect("had a value");
        assert!(cell.is_empty());
        old.retire_global();
        GraceSync::global().synchronize_and_reclaim();
    }

    #[test]
    fn take_mut_returns_owned_box() {
        let mut cell = RcuCell::new(Box::new(String::from("hello")));
        let owned = cell.take_mut().expect("had a value");
        assert_eq!(*owned, "hello");
        assert!(cell.is_empty());
        assert!(cell.take_mut().is_none());
    }

    #[test]
    fn get_mut_allows_in_place_update() {
        let mut cell = RcuCell::new(Box::new(10_u32));
        *cell.get_mut().unwrap() += 1;
        let guard = pin();
        assert_eq!(cell.load(&guard).copied(), Some(11));
    }

    #[test]
    fn drop_frees_current_value() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct CountsDrop(Arc<AtomicUsize>);
        impl Drop for CountsDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let _cell = RcuCell::new(Box::new(CountsDrop(Arc::clone(&drops))));
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn into_box_after_synchronize() {
        let cell = RcuCell::new(Box::new(3_u32));
        let old = cell.set(Box::new(4)).unwrap();
        GraceSync::global().synchronize();
        // SAFETY: a grace period has elapsed since the value was replaced.
        let old = unsafe { old.into_box() };
        assert_eq!(*old, 3);
    }

    #[test]
    fn retired_ptr_identity_is_stable() {
        let cell = RcuCell::new(Box::new(9_u8));
        let before = cell.load_raw();
        let old = cell.clear().unwrap();
        assert_eq!(old.as_ptr(), before);
        // SAFETY: no concurrent readers in this test (value never shared).
        drop(unsafe { old.into_box() });
    }
}
