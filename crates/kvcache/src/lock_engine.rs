//! The default engine: a single global lock (memcached's `cache_lock`).

use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use parking_lot::Mutex;

use crate::engine::{
    keep_smallest, CacheEngine, CacheStats, EngineReadCtx, StoreOutcome, MAX_ITEM_SIZE,
};
use crate::item::Item;

/// Configuration shared by every engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineConfig {
    /// Maximum number of items before eviction kicks in.
    pub(crate) capacity: usize,
}

impl EngineConfig {
    /// The most items the protected segment keeps once the cache is full:
    /// ⌊4 · capacity / 5⌋. A constant share, not a knob: a larger one fits
    /// a fixed hot set better and re-adapts more slowly when it moves.
    pub(crate) fn protected_quota(&self) -> usize {
        self.capacity * 4 / 5
    }
}

struct Slot {
    item: Item,
    /// Monotonic access stamp that orders the slot within its segment.
    last_access: u64,
    /// Whether the slot is in the protected segment (else in probation).
    protected: bool,
}

struct Inner {
    map: HashMap<String, Slot>,
    clock: u64,
}

impl Inner {
    fn stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// The stock-memcached-shaped engine: **every** operation — including GET —
/// acquires one global mutex.
///
/// This is the configuration whose GET throughput stops scaling once a
/// handful of client threads contend on the lock, which is precisely the
/// effect the paper's memcached figure demonstrates.
///
/// It evicts by the same exact segmented LRU as
/// [`RpEngine`](crate::RpEngine), found by a scan of the whole map under
/// the lock: a SET stores probation, a GET hit protects, and a SET past
/// capacity demotes the oldest protected slots while more than 80 % of the
/// capacity is protected, then evicts an expired slot or else the oldest
/// probation slot.
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

    /// Creates an engine that holds at most `capacity` items, evicting by
    /// segmented LRU beyond that.
    pub fn with_capacity(capacity: usize) -> Self {
        LockEngine {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            config: EngineConfig {
                capacity: capacity.max(1),
            },
            stats: CacheStats::default(),
        }
    }

    /// Looks `key` up under the global lock, running `found` on a live
    /// item before the lock is released; `true` on a hit.
    fn get(&self, key: &str, found: &mut dyn FnMut(&Item)) -> bool {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let Inner { map, clock } = &mut *inner;
        match map.get_mut(key) {
            Some(slot) if !slot.item.is_expired(now) => {
                *clock += 1;
                slot.last_access = *clock;
                if !std::mem::replace(&mut slot.protected, true) {
                    self.stats.add_protected(1);
                }
                found(&slot.item);
                true
            }
            Some(_) => {
                self.remove(&mut inner, key);
                self.stats.expirations.inc();
                false
            }
            None => false,
        }
    }

    /// Removes `key`'s slot, taking a protected one off the protected
    /// count; `true` if there was one.
    fn remove(&self, inner: &mut Inner, key: &str) -> bool {
        let removed = inner.map.remove(key);
        if removed.as_ref().is_some_and(|slot| slot.protected) {
            self.stats.add_protected(-1);
        }
        removed.is_some()
    }

    fn evict_if_needed(&self, inner: &mut Inner) {
        while inner.map.len() > self.config.capacity {
            // One scan of the map under the global lock finds the slots
            // to demote and the victim. (memcached keeps intrusive lists;
            // a scan keeps this reproduction simple and happens only
            // beyond capacity.) Demoted slots take stamps newer than every
            // probation slot's, so the victim found beside them stands.
            self.stats.evict_scans.inc();
            let over = self.stats.protected_items() as usize;
            let over = over.saturating_sub(self.config.protected_quota());
            let mut now = None;
            let mut demote = BinaryHeap::new();
            let mut victim = None;
            for (key, slot) in &inner.map {
                let expired = slot.item.has_expired_by(&mut now);
                if slot.protected && !expired {
                    keep_smallest(&mut demote, over, (slot.last_access, key));
                } else {
                    let candidate = (!expired, slot.last_access, key);
                    victim = Some(victim.map_or(candidate, |victim| candidate.min(victim)));
                }
            }
            let demote: Vec<String> = demote
                .into_sorted_vec()
                .into_iter()
                .map(|(_, key)| key.clone())
                .collect();
            let victim = victim.map(|(live, _, key)| (live, key.clone()));
            for key in demote {
                let stamp = inner.stamp();
                let slot = inner.map.get_mut(&key).expect("a slot the scan saw");
                (slot.protected, slot.last_access) = (false, stamp);
                self.stats.add_protected(-1);
                self.stats.demotions.inc();
            }
            let Some((live, key)) = victim else {
                break;
            };
            self.remove(inner, &key);
            if live {
                self.stats.evictions.inc();
            } else {
                self.stats.expirations.inc();
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
        if item.len() > MAX_ITEM_SIZE {
            return StoreOutcome::NotStored;
        }
        let mut inner = self.inner.lock();
        // In probation, whatever segment a slot it replaces was in.
        let slot = Slot {
            item,
            last_access: inner.stamp(),
            protected: false,
        };
        if inner
            .map
            .insert(key.to_string(), slot)
            .is_some_and(|old| old.protected)
        {
            self.stats.add_protected(-1);
        }
        self.evict_if_needed(&mut inner);
        self.stats.sets.inc();
        StoreOutcome::Stored
    }

    fn delete(&self, key: &str) -> bool {
        let removed = self.remove(&mut self.inner.lock(), key);
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
        let (mut purged, mut protected) = (0, 0);
        inner.map.retain(|_, slot| {
            let expired = slot.item.is_expired(now);
            purged += usize::from(expired);
            protected += i64::from(expired && slot.protected);
            !expired
        });
        self.stats.add_protected(-protected);
        self.stats.expirations.add(purged as u64);
        purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReadSide;

    #[test]
    fn capacity_evicts_the_oldest_probation_slot() {
        let engine = LockEngine::with_capacity(3);
        let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
        let mut get = |key: &str| engine.get_ref(key.as_bytes(), &mut ctx);
        engine.set("a", Item::new(0, "1"));
        engine.set("b", Item::new(0, "2"));
        engine.set("c", Item::new(0, "3"));
        // Hit "a" (protected) so "b" is the oldest slot in probation.
        get("a");
        engine.set("d", Item::new(0, "4"));
        assert_eq!(engine.len(), 3);
        assert!(get("a").is_some());
        assert!(get("b").is_none());
        assert!(get("d").is_some());
        assert_eq!(engine.stats().evicted(), 1);
    }
}
