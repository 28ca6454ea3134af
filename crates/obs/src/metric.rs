//! Scalar metric primitives: counters, gauges, and per-worker shard sets.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter. Recording is one relaxed
/// `fetch_add`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one and returns the post-increment value — the counter doubles
    /// as a sampling tick (e.g. "time every 16th request") at no cost
    /// beyond the `fetch_add` the increment already pays.
    #[inline]
    pub fn inc_and_get(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (`STATS RESET`).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins level metric. Recording is one relaxed store.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current level. `STATS RESET` leaves it alone: the owner re-asserts
    /// the level, and a transient 0 would simply be wrong.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Pads a metric to its own cache line so per-worker shards never false
/// share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// A fixed set of per-worker metric shards.
///
/// Each event-loop worker records into its own shard (indexed by worker
/// ordinal, wrapped to the shard count) with zero cross-worker contention;
/// a scrape walks all shards and merges. The shard array is allocated once
/// at construction — steady-state recording touches only the worker's own
/// cache line.
#[derive(Debug)]
pub struct Sharded<T> {
    shards: Box<[CachePadded<T>]>,
}

/// Default shard count: comfortably above the worker counts the server
/// runs with, small enough that scrapes stay cheap.
pub const DEFAULT_SHARDS: usize = 16;

impl<T: Default> Sharded<T> {
    /// Creates `shards` shards (rounded up to a power of two, minimum 1).
    pub fn new(shards: usize) -> Sharded<T> {
        let n = shards.max(1).next_power_of_two();
        Sharded {
            shards: (0..n).map(|_| CachePadded::<T>::default()).collect(),
        }
    }
}

impl<T: Default> Default for Sharded<T> {
    fn default() -> Self {
        Sharded::new(DEFAULT_SHARDS)
    }
}

impl<T> Sharded<T> {
    /// The shard for `worker` (worker ordinals beyond the shard count
    /// wrap — they share a shard, still correctly, just with contention).
    #[inline]
    pub fn for_worker(&self, worker: usize) -> &T {
        &self.shards[worker & (self.shards.len() - 1)].0
    }

    /// Iterates every shard (scrape-time aggregation).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.shards.iter().map(|padded| &padded.0)
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always `false`: a shard set holds at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.inc_and_get(), 6);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::default();
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn shards_isolate_workers_and_wrap() {
        let sharded: Sharded<Counter> = Sharded::new(4);
        assert_eq!(sharded.len(), 4);
        sharded.for_worker(0).inc();
        sharded.for_worker(1).add(2);
        sharded.for_worker(4).inc(); // wraps onto shard 0
        let total: u64 = sharded.iter().map(Counter::get).sum();
        assert_eq!(total, 4);
        assert_eq!(sharded.for_worker(0).get(), 2);
        assert!(!sharded.is_empty());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let sharded: Sharded<Counter> = Sharded::new(3);
        assert_eq!(sharded.len(), 4);
        let sharded: Sharded<Counter> = Sharded::new(0);
        assert_eq!(sharded.len(), 1);
    }
}
