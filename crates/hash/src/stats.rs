//! Per-map operation and resize statistics.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::map::WriterGuard;

/// A counter that only writer-lock holders store to (or `Drop`, through
/// `&mut`). The lock already serialises every store, so a bump is a relaxed
/// load and a relaxed store: a `lock xadd` would be a full barrier the writer
/// pays under its lock for nothing. The lock's release/acquire pair orders
/// one holder's store before the next holder's load. Every bump takes the
/// held guard, so a bump outside the lock does not compile. Readers load
/// without the lock and see some recent value.
#[derive(Debug, Default)]
pub(crate) struct LockedCount(AtomicU64);

impl LockedCount {
    /// Adds `n` and returns the new value.
    pub(crate) fn add(&self, n: u64, _held: &WriterGuard<'_>) -> u64 {
        let value = self.0.load(Ordering::Relaxed) + n;
        self.0.store(value, Ordering::Relaxed);
        value
    }

    /// Subtracts `n` and returns the new value.
    pub(crate) fn sub(&self, n: u64, _held: &WriterGuard<'_>) -> u64 {
        let value = self.0.load(Ordering::Relaxed) - n;
        self.0.store(value, Ordering::Relaxed);
        value
    }

    /// A lock-free snapshot.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// The value, for a holder of `&mut` (no lock needed).
    pub(crate) fn get_mut(&mut self) -> &mut u64 {
        self.0.get_mut()
    }
}

/// Internal counters, each stored to only under the map's writer lock.
#[derive(Debug, Default)]
pub(crate) struct AtomicMapStats {
    pub(crate) expands: LockedCount,
    pub(crate) shrinks: LockedCount,
    pub(crate) unzip_rounds: LockedCount,
    pub(crate) unzip_splices: LockedCount,
    pub(crate) resize_grace_periods: LockedCount,
    pub(crate) inserts: LockedCount,
    pub(crate) replaces: LockedCount,
    pub(crate) removes: LockedCount,
}

impl AtomicMapStats {
    /// Every field but the two the map's slab counts.
    pub(crate) fn snapshot(&self) -> MapStats {
        MapStats {
            slab_chunks: 0,
            slab_huge_chunks: 0,
            expands: self.expands.get(),
            shrinks: self.shrinks.get(),
            unzip_rounds: self.unzip_rounds.get(),
            unzip_splices: self.unzip_splices.get(),
            resize_grace_periods: self.resize_grace_periods.get(),
            inserts: self.inserts.get(),
            replaces: self.replaces.get(),
            removes: self.removes.get(),
        }
    }
}

/// A point-in-time snapshot of an [`crate::RpHashMap`]'s counters.
///
/// Useful for the benchmark harness (e.g. reporting how many grace periods a
/// continuous-resize run waited for) and for the ablation experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Completed expand (doubling) steps.
    pub expands: u64,
    /// Completed shrink (halving) steps.
    pub shrinks: u64,
    /// Unzip rounds performed across all expands (each round ends with one
    /// grace period).
    pub unzip_rounds: u64,
    /// Individual cross-link splices performed by unzip rounds.
    pub unzip_splices: u64,
    /// Grace periods waited for by resize operations.
    pub resize_grace_periods: u64,
    /// Keys newly inserted.
    pub inserts: u64,
    /// Values replaced for an existing key.
    pub replaces: u64,
    /// Keys removed.
    pub removes: u64,
    /// 2 MiB chunks the map's node slab has mapped. A map keeps them until
    /// it is dropped.
    pub slab_chunks: u64,
    /// Full slab chunks collapsed onto one 2 MiB page each: every chunk but
    /// the newest, unless the kernel refused (no THP, no huge page to
    /// spare), which leaves a chunk on 4 KiB pages.
    pub slab_huge_chunks: u64,
}

impl MapStats {
    /// Total resize steps (expands + shrinks).
    pub fn resizes(&self) -> u64 {
        self.expands + self.shrinks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use rp_rcu::NoGraceWait;

    #[test]
    fn snapshot_round_trips() {
        let lock = Mutex::new(());
        let held = NoGraceWait::holding(lock.lock());
        let mut s = AtomicMapStats::default();
        s.expands.add(1, &held);
        assert_eq!(s.expands.add(1, &held), 2);
        s.shrinks.add(1, &held);
        s.inserts.add(3, &held);
        assert_eq!(s.inserts.sub(2, &held), 1);
        drop(held);
        *s.unzip_splices.get_mut() += 5;
        let snap = s.snapshot();
        assert_eq!(snap.expands, 2);
        assert_eq!(snap.shrinks, 1);
        assert_eq!(snap.inserts, 1);
        assert_eq!(snap.unzip_splices, 5);
        assert_eq!(snap.resizes(), 3);
    }
}
