//! The sharded relativistic engine: [`Engine`] over a [`ShardedRpMap`]
//! index, so SETs and automatic resizes of the index only contend within
//! one shard.

use rp_shard::{ShardPolicy, ShardedRpMap};

use crate::item::ItemKey;
use crate::rp_engine::{impl_byte_key_index, index_resize_policy, Engine, StoredItem};

impl_byte_key_index!(
    relativistic ShardedRpMap<ItemKey, StoredItem>,
    "rp-shard",
    fn observe_gauges(&self) {
        // Shard balance as max/mean occupancy, in thousandths (1000 =
        // perfectly balanced).
        let imbalance = self.stats().imbalance();
        rp_obs::global()
            .resize
            .imbalance_milli
            .set((imbalance * 1000.0) as u64);
    }
);

/// A cache engine whose index is a [`ShardedRpMap`].
///
/// GETs are the same wait-free relativistic lookups as
/// [`RpEngine`](crate::RpEngine). SETs, deletes and index resizes serialise
/// only within the target key's shard, so write throughput scales with the
/// shard count.
///
/// Index resizes run on an `rp-maint` maintenance thread
/// ([`ShardedRpMap::with_maintenance`]), so a SET that pushes a shard past
/// its load-factor threshold only *requests* the resize and never waits for
/// a grace period.
pub type ShardedRpEngine = Engine<ShardedRpMap<ItemKey, StoredItem>>;

impl ShardedRpEngine {
    /// Creates an engine with 16 shards and a large default capacity.
    pub fn new() -> Self {
        Self::with_shards_and_capacity(16, 1 << 20)
    }

    /// Creates an engine with `shards` index shards holding at most
    /// `capacity` items, its index resized by a background maintenance
    /// thread.
    pub fn with_shards_and_capacity(shards: usize, capacity: usize) -> Self {
        // The initial size only (see `RpEngine::with_capacity`).
        let buckets = (capacity / shards.max(1))
            .clamp(16, 1024)
            .next_power_of_two();
        let policy = ShardPolicy {
            shards,
            initial_buckets_per_shard: buckets,
            per_shard: index_resize_policy(buckets),
        };
        Engine::over(ShardedRpMap::with_maintenance(policy), capacity)
    }
}

impl Default for ShardedRpEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheEngine, EngineReadCtx, Item, ReadSide};
    use std::time::Duration;

    #[test]
    fn maintained_sets_never_wait_and_index_grows_in_background() {
        let engine = ShardedRpEngine::with_shards_and_capacity(4, 100_000);
        assert!(engine.index.maintained());
        let before_buckets = engine.index.num_buckets();
        let before_waits = rp_rcu::thread_synchronize_count();
        for i in 0..16_384 {
            engine.set(&format!("key-{i}"), Item::new(0, "v"));
        }
        assert_eq!(
            rp_rcu::thread_synchronize_count(),
            before_waits,
            "maintained SETs must never wait for readers"
        );
        // The maintenance thread grows the index asynchronously. Poll for a
        // *completed* resize (buckets grow at begin, before any grace wait
        // has been recorded, so polling on bucket count alone would race).
        let index_stats = || engine.index.stats().total();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while index_stats().expands == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "index never grew in the background: {:?}",
                engine.index.maint_stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(engine.index.num_buckets() > before_buckets);
        assert!(index_stats().resize_grace_periods >= 1);
        assert_eq!(engine.len(), 16_384);
        let lens = engine.index.stats().shard_lens;
        assert!(lens.iter().all(|&l| l > 0), "unbalanced shards: {lens:?}");
        let hit = engine.get_ref(b"key-7", &mut EngineReadCtx::new(ReadSide::Ebr));
        assert_eq!(hit.map(|i| i.data.to_vec()), Some(b"v".to_vec()));
    }

    /// The index starts at its policy's floor, so a prefill only ever
    /// doubles: no shard halves first and doubles back.
    #[test]
    fn a_prefill_never_shrinks_the_index() {
        let engine = ShardedRpEngine::with_shards_and_capacity(16, 1 << 20);
        for i in 0..512 * 1024 {
            engine.set(&format!("key:{i}"), Item::new(0, "v"));
        }
        let stats = engine.index.stats().total();
        assert!(stats.expands > 0, "{stats:?}");
        assert_eq!(stats.shrinks, 0, "{stats:?}");
    }
}
