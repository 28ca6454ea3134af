//! The QSBR read path: barrier-free lookups for threads that announce
//! quiescent states.
//!
//! The EBR guard path ([`RpHashMap::pin`](crate::RpHashMap::pin) /
//! [`rp_rcu::pin`]) costs two thread-private stores and two full fences per
//! lookup section. The QSBR path costs **nothing at all** on the lookup
//! itself — no store, no fence, no atomic RMW — which is the read-side cost
//! the paper assumes for its relativistic lookups. The price moves
//! elsewhere: the thread must register a [`QsbrReadHandle`] and periodically
//! announce a *quiescent state* (a point where it holds no references into
//! any relativistic structure), or declare itself offline while blocked.
//!
//! This is the textbook deployment for event-loop workers: register at
//! startup, serve lookups all batch long, announce one quiescent state per
//! event batch, go offline while parked in `epoll_wait`.
//!
//! # Why the API is `&mut`-shaped
//!
//! A reference returned by a QSBR lookup is only valid until the owning
//! thread's *next* quiescent announcement — after that, writers may free
//! the node. The handle encodes this in the borrow checker:
//! lookups borrow the handle **shared** (`&QsbrReadHandle` is the
//! [`ReadProtect`] witness and returned references hold that borrow), while
//! [`QsbrReadHandle::quiescent_state`], [`QsbrReadHandle::offline`] and
//! [`QsbrReadHandle::online`] take `&mut self`. Holding a looked-up
//! reference across a quiescent announcement therefore fails to compile:
//!
//! ```compile_fail,E0502
//! use rp_hash::{QsbrReadHandle, RpHashMap};
//!
//! let map: RpHashMap<u64, u64> = RpHashMap::new();
//! map.insert(1, 10);
//! let mut handle = QsbrReadHandle::register();
//! let v = map.get(&1, &handle);
//! handle.quiescent_state(); // ERROR: `handle` is still borrowed by `v`
//! assert_eq!(v, Some(&10));
//! ```
//!
//! Drop (or clone out of) every reference first, then announce:
//!
//! ```
//! use rp_hash::{QsbrReadHandle, RpHashMap};
//!
//! let map: RpHashMap<u64, u64> = RpHashMap::new();
//! map.insert(1, 10);
//! let mut handle = QsbrReadHandle::register();
//! let copied = map.get(&1, &handle).copied();
//! handle.quiescent_state(); // fine: no borrow outstanding
//! assert_eq!(copied, Some(10));
//! ```

use rp_rcu::qsbr::QsbrHandle;
use rp_rcu::{RcuDomain, RcuGuard};

/// Witness that the calling thread is inside a read-side protection scope
/// covering a map's nodes: either an EBR guard is held, or the thread is an
/// online QSBR reader that will not announce a quiescent state while
/// references obtained under this witness are alive.
///
/// Lookup methods ([`crate::RpHashMap::get`] and friends) are generic over
/// this trait, so one lookup core serves both flavors; the returned
/// references borrow the witness, which is what makes the protection
/// contract hold structurally.
///
/// # Safety
///
/// Implementors must guarantee that, for as long as a shared borrow of the
/// witness exists, no node of a global-domain relativistic structure that
/// was reachable at any point during the borrow can be freed. `RcuGuard`
/// guarantees it by keeping the EBR grace period open; `QsbrReadHandle`
/// guarantees it by being online and requiring `&mut self` (i.e. no
/// outstanding borrows) to announce quiescence or go offline.
pub unsafe trait ReadProtect {
    /// Debug-checks that the witness is actually protecting right now
    /// (e.g. the QSBR handle is online). Called by lookups in debug builds.
    fn assert_protecting(&self) {}
}

// SAFETY: an `RcuGuard` holds the global domain's grace period open for
// its whole lifetime; nodes unlinked before or during the guard cannot be
// freed until it drops.
unsafe impl ReadProtect for RcuGuard<'_> {}

/// Which read-side flavor a thread reads through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadSide {
    /// Epoch-style delimited readers ([`rp_rcu::pin`]): two thread-private
    /// stores and two fences per lookup section, no registration duties.
    Ebr,
    /// Quiescent-state-based readers ([`QsbrReadHandle`]): the lookup
    /// itself is entirely free — no store, no fence — but the reading
    /// thread must announce quiescent states between batches and go
    /// offline while blocked. The default: a pinned event-loop worker has
    /// natural quiescent points between `epoll_wait` batches.
    #[default]
    Qsbr,
}

impl ReadSide {
    /// Parses `ebr` / `qsbr` (case-insensitive).
    pub fn parse(value: &str) -> Result<ReadSide, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "ebr" => Ok(ReadSide::Ebr),
            "qsbr" => Ok(ReadSide::Qsbr),
            other => Err(format!("bad read side {other:?} (ebr | qsbr)")),
        }
    }

    /// The flag/env spelling of this flavor.
    pub fn as_str(self) -> &'static str {
        match self {
            ReadSide::Ebr => "ebr",
            ReadSide::Qsbr => "qsbr",
        }
    }
}

/// A thread's QSBR registration with the global domain, packaged for use
/// as a lookup witness (see the [module docs](self)).
///
/// The handle is `!Send` — quiescent bookkeeping belongs to the thread that
/// registered — and deregisters on drop. While the handle is *online*
/// (the initial state), writers waiting for readers will wait for this
/// thread's next [`QsbrReadHandle::quiescent_state`] announcement; while
/// *offline*, the thread promises not to perform QSBR lookups and writers
/// skip it.
pub struct QsbrReadHandle {
    inner: QsbrHandle,
}

impl QsbrReadHandle {
    /// Registers the calling thread with the global domain. The handle
    /// starts online and quiescent.
    pub fn register() -> QsbrReadHandle {
        QsbrReadHandle {
            inner: QsbrHandle::new(RcuDomain::global()),
        }
    }

    /// Announces a quiescent state: at this instant the thread holds no
    /// references into any relativistic structure.
    ///
    /// Taking `&mut self` is deliberate: any reference returned by a lookup
    /// under this handle still borrows it shared, so the compiler rejects
    /// announcements made while such a reference is alive (see the
    /// [module docs](self) for the `compile_fail` demonstration).
    pub fn quiescent_state(&mut self) {
        self.inner.quiescent_state();
    }

    /// Marks the thread offline: it promises not to perform QSBR lookups
    /// until [`QsbrReadHandle::online`], and writers stop waiting for it.
    /// Use this around blocking calls (`epoll_wait`, channel receives).
    pub fn offline(&mut self) {
        self.inner.offline();
    }

    /// Marks the thread online again (implies a quiescent state).
    pub fn online(&mut self) {
        self.inner.online();
    }

    /// Returns `true` if the thread is currently online.
    pub fn is_online(&self) -> bool {
        self.inner.is_online()
    }

    /// Runs `f` with the thread marked offline, restoring the online state
    /// afterwards — for blocking sections in the middle of a read loop.
    pub fn offline_scope<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.offline();
        let r = f();
        self.online();
        r
    }
}

// SAFETY: while a shared borrow of an *online* handle exists, the owning
// thread cannot call `quiescent_state`/`offline` (they need `&mut self`),
// so the thread's reader word stays put and no grace period of the global
// domain that began after it can complete; the only queue writers can
// retire into is `rp_rcu::GraceSync`'s, and the only passes that empty it
// wait for a grace period of that domain. Using an offline handle for
// lookups is a caller bug caught by `assert_protecting` in debug builds.
unsafe impl ReadProtect for QsbrReadHandle {
    fn assert_protecting(&self) {
        debug_assert!(
            self.is_online(),
            "QSBR lookup attempted while the handle is offline"
        );
    }
}

impl std::fmt::Debug for QsbrReadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QsbrReadHandle")
            .field("online", &self.is_online())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnvBuildHasher, RpHashMap};

    #[test]
    fn handle_registers_with_the_global_domain() {
        let before = RcuDomain::global().stats().readers_registered;
        let handle = QsbrReadHandle::register();
        assert!(handle.is_online());
        assert!(RcuDomain::global().stats().readers_registered > before);
        drop(handle);
    }

    #[test]
    fn qsbr_lookup_round_trip() {
        let map: RpHashMap<u64, u64, FnvBuildHasher> =
            RpHashMap::with_buckets_and_hasher(8, FnvBuildHasher);
        for i in 0..64 {
            map.insert(i, i * 3);
        }
        let mut handle = QsbrReadHandle::register();
        for i in 0..64 {
            assert_eq!(map.get(&i, &handle), Some(&(i * 3)));
            if i % 16 == 0 {
                handle.quiescent_state();
            }
        }
        assert_eq!(map.get(&1000, &handle), None);
    }

    #[test]
    fn offline_scope_restores_online() {
        let mut handle = QsbrReadHandle::register();
        let x = handle.offline_scope(|| 41 + 1);
        assert_eq!(x, 42);
        assert!(handle.is_online());
    }
}
