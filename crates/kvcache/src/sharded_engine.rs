//! The sharded relativistic engine: [`Engine`] over a [`ShardedRpMap`]
//! index, so SETs and automatic resizes of the index only contend within
//! one shard.

use rp_maint::MaintConfig;
use rp_shard::{ShardPolicy, ShardedRpMap};

use crate::item::ItemKey;
use crate::rp_engine::{impl_byte_key_index, index_resize_policy, Engine, StoredItem};

impl_byte_key_index!(
    hinting ShardedRpMap<ItemKey, StoredItem>,
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
/// **Background resizes are on by default**: index resizes are driven by an
/// `rp-maint` maintenance thread, so a SET that pushes a shard past its
/// load-factor threshold only *requests* the resize and never waits for a
/// grace period. [`ShardedRpEngine::with_options`] with `None` falls back
/// to inline resizing in the triggering SET.
pub type ShardedRpEngine = Engine<ShardedRpMap<ItemKey, StoredItem>>;

impl ShardedRpEngine {
    /// Creates an engine with 16 shards and a large default capacity.
    pub fn new() -> Self {
        Self::with_shards_and_capacity(16, 1 << 20)
    }

    /// Creates an engine with `shards` index shards holding at most
    /// `capacity` items, its index resized by a background maintenance
    /// thread with the default tuning.
    pub fn with_shards_and_capacity(shards: usize, capacity: usize) -> Self {
        Self::with_options(shards, capacity, Some(MaintConfig::default()))
    }

    /// The fully explicit constructor: `maint` carries the maintenance
    /// thread's tuning ([`MaintConfig`]), or `None` for inline resizing.
    /// This is what the `kvcached` command line (`--maint-*` flags) feeds.
    pub fn with_options(shards: usize, capacity: usize, maint: Option<MaintConfig>) -> Self {
        let policy = ShardPolicy {
            shards,
            initial_buckets_per_shard: (capacity / shards.max(1)).clamp(16, 1024),
            per_shard: index_resize_policy(),
        };
        let index = match maint {
            Some(config) => ShardedRpMap::with_maintenance(policy, config),
            None => ShardedRpMap::with_policy(policy),
        };
        Engine::over(index, capacity)
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
    use crate::rp_engine::tests::qsbr_worker_growth;
    use crate::{CacheEngine, EngineReadCtx, Item, ReadSide};
    use std::time::Duration;

    #[test]
    fn index_shards_resize_independently_under_load() {
        // Inline-resize flavor: growth is synchronous with the SETs.
        let engine = ShardedRpEngine::with_options(4, 100_000, None);
        let before = engine.index.num_buckets();
        for i in 0..16_384 {
            engine.set(&format!("key-{i}"), Item::new(0, "v"));
        }
        assert!(
            engine.index.num_buckets() > before,
            "expected sharded index auto-expansion ({} -> {})",
            before,
            engine.index.num_buckets()
        );
        assert_eq!(engine.len(), 16_384);
        let lens = engine.index.stats().shard_lens;
        assert!(lens.iter().all(|&l| l > 0), "unbalanced shards: {lens:?}");
    }

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
        let maint_stats = || engine.index.maint_stats().expect("maintained index");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while maint_stats().resizes_finished == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "index never grew in the background: {:?}",
                maint_stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(engine.index.num_buckets() > before_buckets);
        assert!(maint_stats().grace_waits >= 1);
        assert_eq!(engine.len(), 16_384);
        let hit = engine.get_ref(b"key-7", &mut EngineReadCtx::new(ReadSide::Ebr));
        assert_eq!(hit.map(|i| i.data.to_vec()), Some(b"v".to_vec()));
    }

    #[test]
    fn qsbr_worker_housekeeping_grows_unmaintained_shards() {
        // `--maint off` + QSBR workers: without housekeeping nothing would
        // ever resize the shards.
        qsbr_worker_growth(
            ShardedRpEngine::with_options(4, 100_000, None),
            |index| index.num_buckets(),
            16_384,
            true,
        );
    }
}
