//! Maintenance counters: what only the maintainer knows. What a turn did to
//! a unit — resizes, grace periods — is the unit's to count (`MapStats`, the
//! `rp-obs` `resize_*` group).

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters kept by the maintenance machinery.
#[derive(Debug, Default)]
pub(crate) struct AtomicMaintStats {
    pub(crate) requests: AtomicU64,
    pub(crate) turns: AtomicU64,
    pub(crate) worker_panics: AtomicU64,
    pub(crate) max_debt: AtomicU64,
}

impl AtomicMaintStats {
    pub(crate) fn snapshot(&self) -> MaintStats {
        MaintStats {
            requests: self.requests.load(Ordering::Relaxed),
            turns: self.turns.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            max_debt: self.max_debt.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of a maintenance thread's counters.
///
/// Exposed through `MaintHandle::stats` and, for maintained sharded maps,
/// through `rp_shard::ShardStats::maint`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Requests that put a unit on the work queue (one already waiting
    /// there is not queued again, and not counted).
    pub requests: u64,
    /// `MaintTarget::maintain` calls made, whether or not they found work.
    pub turns: u64,
    /// Panics contained: a `maintain` unwound, the thread kept serving and
    /// the unit was retried at most once.
    pub worker_panics: u64,
    /// Maximum work-queue depth observed by a requesting writer — the
    /// worst resize debt any writer has seen the maintainer carrying.
    pub max_debt: u64,
}
