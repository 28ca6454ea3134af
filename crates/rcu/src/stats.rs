//! Grace-period and reclamation statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters of a domain. The two callback counters are
/// bumped by the [`crate::GraceSync`] built over an [`crate::RcuDomain`].
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    pub(crate) grace_periods: AtomicU64,
    pub(crate) synchronize_calls: AtomicU64,
    pub(crate) callbacks_queued: AtomicU64,
    pub(crate) callbacks_executed: AtomicU64,
    pub(crate) readers_registered: AtomicU64,
    pub(crate) readers_unregistered: AtomicU64,
}

impl AtomicStats {
    pub(crate) fn snapshot(&self) -> DomainStats {
        DomainStats {
            grace_periods: self.grace_periods.load(Ordering::Relaxed),
            synchronize_calls: self.synchronize_calls.load(Ordering::Relaxed),
            callbacks_queued: self.callbacks_queued.load(Ordering::Relaxed),
            callbacks_executed: self.callbacks_executed.load(Ordering::Relaxed),
            readers_registered: self.readers_registered.load(Ordering::Relaxed),
            readers_unregistered: self.readers_unregistered.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of an [`crate::RcuDomain`]'s counters.
///
/// Returned by [`crate::RcuDomain::stats`]. Counters are monotonically
/// increasing over the lifetime of the domain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// Number of grace periods that have completed.
    pub grace_periods: u64,
    /// Number of calls to `synchronize` (each performs one grace period).
    pub synchronize_calls: u64,
    /// Number of deferred callbacks queued via [`crate::GraceSync::defer`] /
    /// `defer_free` on the funnel built over this domain.
    pub callbacks_queued: u64,
    /// Number of those callbacks that have been executed.
    pub callbacks_executed: u64,
    /// Number of reader registrations, of either flavor, over the domain's
    /// lifetime; the latest one's ordinal.
    pub readers_registered: u64,
    /// Number of reader unregistrations over the domain's lifetime.
    pub readers_unregistered: u64,
}

impl DomainStats {
    /// Number of deferred callbacks still waiting for a grace period.
    pub fn callbacks_pending(&self) -> u64 {
        self.callbacks_queued
            .saturating_sub(self.callbacks_executed)
    }

    /// Number of readers currently registered with the domain.
    pub fn readers_current(&self) -> u64 {
        self.readers_registered
            .saturating_sub(self.readers_unregistered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let stats = AtomicStats::default();
        stats.grace_periods.store(3, Ordering::Relaxed);
        stats.callbacks_queued.store(7, Ordering::Relaxed);
        stats.callbacks_executed.store(5, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.grace_periods, 3);
        assert_eq!(snap.callbacks_pending(), 2);
    }

    #[test]
    fn pending_and_current_saturate() {
        let snap = DomainStats {
            callbacks_queued: 1,
            callbacks_executed: 2,
            readers_registered: 0,
            readers_unregistered: 1,
            ..DomainStats::default()
        };
        assert_eq!(snap.callbacks_pending(), 0);
        assert_eq!(snap.readers_current(), 0);
    }
}
