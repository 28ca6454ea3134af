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
/// Index resizes run as [`RpEngine`](crate::RpEngine)'s do: a SET from a
/// QSBR-online worker that pushes a shard past its load-factor threshold
/// postpones the resize and never waits for a grace period, and the
/// worker's [`CacheEngine::housekeeping`](crate::CacheEngine::housekeeping)
/// turn ([`ShardedRpMap::maintain`]) runs it between batches.
pub type ShardedRpEngine = Engine<ShardedRpMap<ItemKey, StoredItem>>;

impl ShardedRpEngine {
    /// Creates an engine with 16 shards and a large default capacity.
    pub fn new() -> Self {
        Self::with_shards_and_capacity(16, 1 << 20)
    }

    /// Creates an engine with `shards` index shards holding at most
    /// `capacity` items.
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
        Engine::over(ShardedRpMap::with_policy(policy), capacity)
    }

    /// The index's structural check ([`ShardedRpMap::check_invariants`]),
    /// for a test that drove the engine through a server.
    pub fn check_index(&self) -> Result<(), String> {
        self.index.check_invariants()
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
    use crate::{CacheEngine, Item};

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
