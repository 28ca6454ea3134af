//! Deferred work executed after a grace period (the `call_rcu` equivalent).

/// A unit of deferred reclamation work.
///
/// A `Deferred` is queued on a [`crate::GraceSync`] and executed only after
/// a subsequent grace period, at which point no reader of either flavor can
/// still hold a reference to the memory it reclaims.
pub(crate) struct Deferred {
    inner: Inner,
}

enum Inner {
    /// An arbitrary boxed closure.
    Closure(Box<dyn FnOnce() + Send>),
    /// A raw pointer plus its type-erased dropper (avoids boxing a closure
    /// for the common "free this node" case).
    Drop {
        ptr: *mut (),
        dropper: unsafe fn(*mut ()),
    },
}

// SAFETY: the `Closure` variant is `Send` by construction. The `Drop`
// variant is only constructed by `Deferred::drop_with`, whose contract
// requires `dropper(ptr)` to be sound on any thread; the raw pointer itself
// is just an address.
unsafe impl Send for Deferred {}

/// The dropper of a `Box<T>` handed over as a raw pointer.
///
/// # Safety
///
/// `ptr` was produced by `Box::into_raw::<T>` and is dropped exactly once.
pub(crate) unsafe fn drop_box<T>(ptr: *mut ()) {
    // SAFETY: per the contract, `ptr` is a leaked `Box<T>` owned by the
    // caller and nothing else frees it.
    unsafe { drop(Box::from_raw(ptr.cast::<T>())) }
}

impl Deferred {
    /// Creates a deferred unit from a closure.
    pub(crate) fn new(f: impl FnOnce() + Send + 'static) -> Self {
        Deferred {
            inner: Inner::Closure(Box::new(f)),
        }
    }

    /// Creates a deferred unit that calls `dropper(ptr)`.
    ///
    /// # Safety
    ///
    /// Calling `dropper(ptr)` once, on any thread, must be sound, and
    /// nothing else may free `ptr`. The caller must guarantee the pointer
    /// is no longer reachable by *new* readers (it has been unpublished).
    pub(crate) unsafe fn drop_with(ptr: *mut (), dropper: unsafe fn(*mut ())) -> Self {
        Deferred {
            inner: Inner::Drop { ptr, dropper },
        }
    }

    /// Executes the deferred work, consuming it.
    pub(crate) fn call(self) {
        match self.inner {
            Inner::Closure(f) => f(),
            Inner::Drop { ptr, dropper } => {
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
            Inner::Drop { ptr, .. } => write!(f, "Deferred::Drop({ptr:p})"),
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
    fn drop_with_drop_box_drops_the_box_exactly_once() {
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
        // elsewhere; `DropFlag` is `Send`; there are no readers in this test.
        let d = unsafe { Deferred::drop_with(raw.cast(), drop_box::<DropFlag>) };
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
        let f = unsafe { Deferred::drop_with(raw.cast(), drop_box::<u8>) };
        assert!(format!("{f:?}").contains("Drop"));
        f.call();
        c.call();
    }
}
