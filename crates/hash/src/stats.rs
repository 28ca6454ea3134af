//! Per-map operation and resize statistics.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::map::WriterGuard;

/// A counter that only writer-lock holders store to. The lock already serialises every store, so a bump is a relaxed
/// load and a relaxed store: a `lock xadd` would be a full barrier the writer
/// pays under its lock for nothing. The lock's release/acquire pair orders
/// one holder's store before the next holder's load. Every bump takes the
/// held guard, so a bump outside the lock does not compile. Readers load
/// without the lock and see some recent value.
#[derive(Debug, Default)]
pub(crate) struct LockedCount(AtomicU64);

impl LockedCount {
    /// Adds `n` and returns the new value.
    pub(crate) fn add<K, V>(&self, n: u64, _held: &WriterGuard<'_, K, V>) -> u64 {
        let value = self.0.load(Ordering::Relaxed) + n;
        self.0.store(value, Ordering::Relaxed);
        value
    }

    /// Subtracts `n` and returns the new value.
    pub(crate) fn sub<K, V>(&self, n: u64, _held: &WriterGuard<'_, K, V>) -> u64 {
        let value = self.0.load(Ordering::Relaxed) - n;
        self.0.store(value, Ordering::Relaxed);
        value
    }

    /// A lock-free snapshot.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Internal counters, each stored to only under the map's writer lock.
#[derive(Debug, Default)]
pub(crate) struct AtomicMapStats {
    pub(crate) expands: LockedCount,
    pub(crate) shrinks: LockedCount,
    pub(crate) unzip_rounds: LockedCount,
    pub(crate) unzip_splices: LockedCount,
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
            inserts: self.inserts.get(),
            replaces: self.replaces.get(),
            removes: self.removes.get(),
        }
    }
}

/// A point-in-time snapshot of an [`crate::RpHashMap`]'s counters.
///
/// Useful for the benchmark harness (e.g. reporting how many resizes and
/// cuts a continuous-resize run made) and for the ablation experiments. A
/// resize's grace period is counted by the thread that waits for it
/// ([`rp_rcu::thread_synchronize_count`]), if any does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Completed expand (doubling) steps.
    pub expands: u64,
    /// Completed shrink (halving) steps.
    pub shrinks: u64,
    /// Expands whose finishing step cut at least one chain apart: an
    /// expand cuts every chain in one step, after its one grace period.
    pub unzip_rounds: u64,
    /// Chains cut apart by expands: one per bucket pair that still held
    /// nodes of both new buckets.
    pub unzip_splices: u64,
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
    use crate::map::WriterLock;
    use rp_rcu::NoGraceWait;

    #[test]
    fn snapshot_round_trips() {
        let lock = WriterLock::<u64, u64>::default();
        let held = NoGraceWait::holding(lock.lock());
        let s = AtomicMapStats::default();
        s.expands.add(1, &held);
        assert_eq!(s.expands.add(1, &held), 2);
        s.shrinks.add(1, &held);
        s.inserts.add(3, &held);
        assert_eq!(s.inserts.sub(2, &held), 1);
        s.unzip_splices.add(5, &held);
        let snap = s.snapshot();
        assert_eq!(snap.expands, 2);
        assert_eq!(snap.shrinks, 1);
        assert_eq!(snap.inserts, 1);
        assert_eq!(snap.unzip_splices, 5);
        assert_eq!(snap.resizes(), 3);
    }
}
