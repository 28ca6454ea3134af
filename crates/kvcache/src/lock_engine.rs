//! The default engine: a single global lock (memcached's `cache_lock`).

use std::collections::HashMap;
use std::time::Instant;

use parking_lot::Mutex;

use crate::engine::{CacheEngine, CacheStats, EngineReadCtx, StoreOutcome};
use crate::item::Item;

/// Configuration shared by every engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineConfig {
    /// Maximum number of items before eviction kicks in.
    pub(crate) capacity: usize,
    /// Maximum payload size accepted for a single item.
    pub(crate) max_item_size: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            capacity: 1 << 20,
            max_item_size: 1 << 20,
        }
    }
}

struct Slot {
    item: Item,
    /// Monotonic access stamp used for LRU eviction.
    last_access: u64,
}

struct Inner {
    map: HashMap<String, Slot>,
    clock: u64,
}

/// The stock-memcached-shaped engine: **every** operation — including GET —
/// acquires one global mutex.
///
/// This is the configuration whose GET throughput stops scaling once a
/// handful of client threads contend on the lock, which is precisely the
/// effect the paper's memcached figure demonstrates.
pub struct LockEngine {
    inner: Mutex<Inner>,
    config: EngineConfig,
    stats: CacheStats,
}

impl Default for LockEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl LockEngine {
    /// Creates an engine with a large default capacity.
    pub fn new() -> Self {
        Self::with_capacity(1 << 20)
    }

    /// Creates an engine that holds at most `capacity` items, evicting the
    /// least recently used item beyond that.
    pub fn with_capacity(capacity: usize) -> Self {
        LockEngine {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            config: EngineConfig {
                capacity: capacity.max(1),
                ..EngineConfig::default()
            },
            stats: CacheStats::default(),
        }
    }

    /// Looks `key` up under the global lock, running `found` on a live
    /// item before the lock is released; `true` on a hit.
    fn get(&self, key: &str, found: &mut dyn FnMut(&Item)) -> bool {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(slot) if !slot.item.is_expired(now) => {
                slot.last_access = clock;
                found(&slot.item);
                true
            }
            Some(_) => {
                inner.map.remove(key);
                self.stats.expirations.inc();
                false
            }
            None => false,
        }
    }

    fn evict_if_needed(&self, inner: &mut Inner) {
        while inner.map.len() > self.config.capacity {
            // Exact LRU under the global lock: find the slot with the oldest
            // access stamp. (memcached keeps an intrusive list; a scan keeps
            // this reproduction simple and happens only beyond capacity.)
            self.stats.evict_scans.inc();
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_access)
                .map(|(k, _)| k.clone());
            match victim {
                Some(key) => {
                    inner.map.remove(&key);
                    self.stats.evictions.inc();
                }
                None => break,
            }
        }
    }
}

impl CacheEngine for LockEngine {
    fn name(&self) -> &'static str {
        "default"
    }

    fn get_with(&self, key: &[u8], ctx: &mut EngineReadCtx, found: &mut dyn FnMut(&Item)) -> bool {
        // The baseline has no relativistic read path — a lookup takes the
        // global lock whichever flavor the server picked. What it must
        // still honor is the QSBR discipline: a blocking lock acquisition
        // from an online QSBR thread would stall every writer's grace
        // period behind the lock queue, so the wait happens offline.
        let hit =
            std::str::from_utf8(key).is_ok_and(|key| ctx.with_offline(|| self.get(key, found)));
        ctx.count_get(hit);
        hit
    }

    fn set(&self, key: &str, item: Item) -> StoreOutcome {
        if item.len() > self.config.max_item_size {
            return StoreOutcome::NotStored;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.insert(
            key.to_string(),
            Slot {
                item,
                last_access: clock,
            },
        );
        self.evict_if_needed(&mut inner);
        self.stats.sets.inc();
        StoreOutcome::Stored
    }

    fn delete(&self, key: &str) -> bool {
        let removed = self.inner.lock().map.remove(key).is_some();
        if removed {
            self.stats.deletes.inc();
        }
        removed
    }

    fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn purge_expired(&self) -> usize {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let before = inner.map.len();
        inner.map.retain(|_, slot| !slot.item.is_expired(now));
        let purged = before - inner.map.len();
        for _ in 0..purged {
            self.stats.expirations.inc();
        }
        purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReadSide;

    #[test]
    fn capacity_triggers_exact_lru_eviction() {
        let engine = LockEngine::with_capacity(3);
        let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
        let mut get = |key: &str| engine.get_ref(key.as_bytes(), &mut ctx);
        engine.set("a", Item::new(0, "1"));
        engine.set("b", Item::new(0, "2"));
        engine.set("c", Item::new(0, "3"));
        // Touch "a" so "b" becomes the LRU victim.
        get("a");
        engine.set("d", Item::new(0, "4"));
        assert_eq!(engine.len(), 3);
        assert!(get("a").is_some());
        assert!(get("b").is_none());
        assert!(get("d").is_some());
        assert_eq!(engine.stats().evicted(), 1);
    }
}
