//! Deferred work executed after a grace period (the `call_rcu` equivalent).

/// A unit of deferred reclamation work.
///
/// A `Deferred` is queued on a [`crate::GraceSync`] and executed only after
/// a subsequent grace period of every flavor, at which point no reader can
/// still hold a reference to the memory it reclaims.
pub(crate) struct Deferred {
    inner: Inner,
}

enum Inner {
    /// An arbitrary boxed closure.
    Closure(Box<dyn FnOnce() + Send>),
    /// A raw pointer plus its type-erased dropper (avoids double boxing for
    /// the common "free this node" case).
    Free {
        ptr: *mut (),
        dropper: unsafe fn(*mut ()),
    },
}

// SAFETY: the `Closure` variant is `Send` by construction. The `Free`
// variant is only constructed by `Deferred::free`, which requires `T: Send`,
// so dropping the pointee on another thread is sound; the raw pointer itself
// is just an address.
unsafe impl Send for Deferred {}

impl Deferred {
    /// Creates a deferred unit from a closure.
    pub(crate) fn new(f: impl FnOnce() + Send + 'static) -> Self {
        Deferred {
            inner: Inner::Closure(Box::new(f)),
        }
    }

    /// Creates a deferred unit that frees `ptr` as a [`Box<T>`].
    ///
    /// # Safety
    ///
    /// `ptr` must have been produced by [`Box::into_raw`] and must not be
    /// freed by any other path. The caller must guarantee the pointer is no
    /// longer reachable by *new* readers (it has been unpublished).
    pub(crate) unsafe fn free<T: Send>(ptr: *mut T) -> Self {
        unsafe fn drop_box<T>(ptr: *mut ()) {
            // SAFETY: `ptr` was produced by `Box::into_raw::<T>` in
            // `Deferred::free` and is dropped exactly once, per the caller
            // contract of `Deferred::free`.
            unsafe { drop(Box::from_raw(ptr.cast::<T>())) }
        }
        Deferred {
            inner: Inner::Free {
                ptr: ptr.cast(),
                dropper: drop_box::<T>,
            },
        }
    }

    /// Executes the deferred work, consuming it.
    pub(crate) fn call(self) {
        match self.inner {
            Inner::Closure(f) => f(),
            Inner::Free { ptr, dropper } => {
                // SAFETY: `dropper` was paired with `ptr` at construction
                // time and the grace-period machinery guarantees exclusive
                // access at this point.
                unsafe { dropper(ptr) }
            }
        }
    }
}

impl std::fmt::Debug for Deferred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Inner::Closure(_) => f.write_str("Deferred::Closure"),
            Inner::Free { ptr, .. } => write!(f, "Deferred::Free({ptr:p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn closure_runs_on_call() {
        let ran = Arc::new(AtomicBool::new(false));
        let d = Deferred::new({
            let ran = Arc::clone(&ran);
            move || ran.store(true, Ordering::SeqCst)
        });
        assert!(!ran.load(Ordering::SeqCst));
        d.call();
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn free_drops_the_box_exactly_once() {
        struct DropFlag(Arc<AtomicBool>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                assert!(
                    !self.0.swap(true, Ordering::SeqCst),
                    "value dropped more than once"
                );
            }
        }

        let dropped = Arc::new(AtomicBool::new(false));
        let raw = Box::into_raw(Box::new(DropFlag(Arc::clone(&dropped))));
        // SAFETY: `raw` comes from `Box::into_raw` and is never freed
        // elsewhere; there are no readers in this test.
        let d = unsafe { Deferred::free(raw) };
        assert!(!dropped.load(Ordering::SeqCst));
        d.call();
        assert!(dropped.load(Ordering::SeqCst));
    }

    #[test]
    fn debug_formatting_distinguishes_variants() {
        let c = Deferred::new(|| {});
        assert!(format!("{c:?}").contains("Closure"));
        let raw = Box::into_raw(Box::new(0_u8));
        // SAFETY: freshly allocated, freed exactly once by `call` below.
        let f = unsafe { Deferred::free(raw) };
        assert!(format!("{f:?}").contains("Free"));
        f.call();
        c.call();
    }
}
