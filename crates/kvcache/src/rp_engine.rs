//! The RCU-indexed engines: wait-free GETs over a concurrent index.
//!
//! [`Engine`] is the one engine struct; [`RpEngine`], and the
//! [`ShardedRpEngine`](crate::ShardedRpEngine) and
//! [`SplitOrderEngine`](crate::SplitOrderEngine) aliases beside it, differ
//! only in the index type they plug in ([`ByteKeyIndex`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rp_hash::{FnvBuildHasher, ResizePolicy, RpHashMap};

use crate::engine::{CacheEngine, CacheStats, EngineReadCtx, StoreOutcome};
use crate::item::Item;
use crate::lock_engine::EngineConfig;

/// Hashes raw key bytes exactly as the engines' `String`-keyed indexes
/// hash their keys (std's `str` hashing feeds the bytes then a `0xff`
/// terminator into the hasher), so a `&[u8]` borrowed from a connection's
/// read buffer can probe the index through the raw
/// `get_matching_prehashed` lookups: hash once, compare bytes, allocate
/// nothing. A unit test pins this against `FnvBuildHasher`'s `str` output
/// in case std's `str` hashing scheme ever changes.
fn str_bytes_hash(bytes: &[u8]) -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut hasher = FnvBuildHasher.build_hasher();
    hasher.write(bytes);
    hasher.write_u8(0xff);
    hasher.finish()
}

/// A stored item plus its approximate-LRU access stamp.
///
/// The payload is immutable after publication; only the access stamp is
/// updated by readers, with a relaxed store (the relativistic equivalent of
/// memcached's "don't bump the LRU on every GET" optimisation — readers
/// never take a lock or move list nodes).
pub struct StoredItem {
    item: Item,
    last_access: AtomicU64,
}

/// What an [`Engine`] needs from its index: a raw byte-keyed probe under
/// either read-side witness, plus the handful of writer-side calls. The
/// three index types share no trait of their own, so
/// [`impl_byte_key_index`] forwards each of these to the inherent method
/// of the same meaning.
pub trait ByteKeyIndex: Send + Sync {
    /// Engine name used in `stats` and benchmark output.
    const NAME: &'static str;

    /// Raw lookup: `hash` must be [`str_bytes_hash`] of `key`.
    fn probe<'g, P: rp_hash::ReadProtect>(
        &'g self,
        hash: u64,
        key: &[u8],
        protect: &'g P,
    ) -> Option<&'g Arc<StoredItem>>;

    /// Pins an EBR guard for the fallback flavor.
    fn pin_guard(&self) -> rp_rcu::RcuGuard<'static>;

    /// Stores `item` under `key`, replacing any previous value.
    fn insert(&self, key: String, item: Arc<StoredItem>);

    /// Removes `key` through the writer side; `true` if it was present.
    fn remove(&self, key: &str) -> bool;

    /// Number of entries.
    fn len(&self) -> usize;

    /// Catches up on resizes and reclamation the writer paths postponed.
    fn maintain(&self);

    /// Removes every entry for which `keep` returns `false`.
    fn retain(&self, keep: impl FnMut(&StoredItem) -> bool);

    /// Every key with its access stamp: the eviction-candidate scan.
    fn access_stamps(&self) -> Vec<(String, u64)>;

    /// Scrape-time level gauges this index can report (none by default).
    fn observe_gauges(&self) {}
}

/// Implements [`ByteKeyIndex`] for a map type by forwarding to its inherent
/// methods; trailing items override the trait's defaults.
macro_rules! impl_byte_key_index {
    ($index:ty, $name:literal $(, $extra:item)*) => {
        impl $crate::rp_engine::ByteKeyIndex for $index {
            const NAME: &'static str = $name;

            fn probe<'g, P: rp_hash::ReadProtect>(
                &'g self,
                hash: u64,
                key: &[u8],
                protect: &'g P,
            ) -> Option<&'g std::sync::Arc<$crate::rp_engine::StoredItem>> {
                self.get_matching_prehashed(hash, |k| k.as_bytes() == key, protect)
            }

            fn pin_guard(&self) -> rp_rcu::RcuGuard<'static> {
                self.pin()
            }

            fn insert(&self, key: String, item: std::sync::Arc<$crate::rp_engine::StoredItem>) {
                self.insert(key, item);
            }

            fn remove(&self, key: &str) -> bool {
                self.remove(key)
            }

            fn len(&self) -> usize {
                self.len()
            }

            fn maintain(&self) {
                self.maintain();
            }

            fn retain(&self, mut keep: impl FnMut(&$crate::rp_engine::StoredItem) -> bool) {
                self.retain(|_, stored| keep(stored));
            }

            fn access_stamps(&self) -> Vec<(String, u64)> {
                let guard = self.pin();
                self.iter(&guard)
                    .map(|(key, stored)| (key.clone(), stored.access_stamp()))
                    .collect()
            }

            $($extra)*
        }
    };
}
pub(crate) use impl_byte_key_index;

impl StoredItem {
    pub(crate) fn access_stamp(&self) -> u64 {
        self.last_access.load(Ordering::Relaxed)
    }
}

impl_byte_key_index!(RpHashMap<String, Arc<StoredItem>, FnvBuildHasher>, "rp");

/// What an index probe found, with the LRU stamp already applied to a live
/// hit.
enum Probe {
    /// A live item, copied out inside the read-side window.
    Live(Item),
    /// Present but expired: removed on the writer-side slow path.
    Expired,
    /// Not present.
    Miss,
}

fn classify_probe(stored: Option<&Arc<StoredItem>>, now: Instant, stamp: u64) -> Probe {
    match stored {
        Some(stored) if !stored.item.is_expired(now) => {
            stored.last_access.store(stamp, Ordering::Relaxed);
            Probe::Live(stored.item.clone())
        }
        Some(_) => Probe::Expired,
        None => Probe::Miss,
    }
}

/// A cache engine over a concurrent index `I`, mirroring the paper's
/// memcached patch:
///
/// * **GET** enters a read-side section (a pinned EBR guard, or the
///   worker's barrier-free QSBR handle), looks the key up in the index,
///   checks expiry and copies the (reference-counted) value out — all
///   without taking any lock. Expired entries fall back to the slow path
///   (a writer-side remove) exactly as the patch "falls back to the slow
///   path for expiry, eviction".
/// * **SET / DELETE** go through the index's writer side and retire
///   replaced items through the RCU domain.
/// * **Eviction** is approximate LRU: when the cache exceeds its capacity,
///   the writer scans the index and evicts the stalest entries it saw.
pub struct Engine<I> {
    pub(crate) index: I,
    config: EngineConfig,
    clock: AtomicU64,
    stats: CacheStats,
}

impl<I: ByteKeyIndex> Engine<I> {
    /// Wraps `index`, holding at most `capacity` items.
    pub(crate) fn over(index: I, capacity: usize) -> Self {
        Engine {
            index,
            config: EngineConfig {
                capacity: capacity.max(1),
                ..EngineConfig::default()
            },
            clock: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    /// Next approximate-LRU access stamp.
    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Approximate LRU: collect `(key, stamp)` pairs, evict the stalest
    /// entries until the cache is back under capacity. Runs on the writer
    /// (SET) path only.
    fn evict_if_needed(&self) {
        while self.index.len() > self.config.capacity {
            let over = self.index.len() - self.config.capacity;
            let mut candidates = self.index.access_stamps();
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by_key(|(_, stamp)| *stamp);
            for (key, _) in candidates.into_iter().take(over.max(1)) {
                if self.index.remove(&key) {
                    self.stats.bump(&self.stats.evictions);
                }
            }
        }
    }
}

impl<I: ByteKeyIndex> CacheEngine for Engine<I> {
    fn name(&self) -> &'static str {
        I::NAME
    }

    fn get_ref(&self, key: &[u8], ctx: &mut EngineReadCtx) -> Option<Item> {
        // One hashing pass over the borrowed key bytes serves the whole
        // lookup (shard routing included); the key is never copied and
        // never re-validated.
        let hash = str_bytes_hash(key);
        let now = Instant::now();
        let stamp = self.stamp();
        // No locks, no waiting; the value is copied (cheaply — the payload
        // is reference counted) while still inside the read-side section.
        let probe = match ctx.qsbr_handle() {
            Some(handle) => classify_probe(self.index.probe(hash, key, handle), now, stamp),
            None => {
                let guard = self.index.pin_guard();
                classify_probe(self.index.probe(hash, key, &guard), now, stamp)
            }
        };
        match probe {
            Probe::Live(item) => {
                self.stats.bump(&self.stats.get_hits);
                Some(item)
            }
            Probe::Miss => {
                self.stats.bump(&self.stats.get_misses);
                None
            }
            Probe::Expired => {
                // Cold path. Stored keys are always valid UTF-8, so the
                // view cannot fail for a key that was found. Grace-period
                // work the removal triggers is postponed while this thread
                // is a QSBR reader.
                if std::str::from_utf8(key).is_ok_and(|key| self.index.remove(key)) {
                    self.stats.bump(&self.stats.expirations);
                }
                self.stats.bump(&self.stats.get_misses);
                None
            }
        }
    }

    fn set(&self, key: &str, item: Item) -> StoreOutcome {
        if item.len() > self.config.max_item_size {
            return StoreOutcome::NotStored;
        }
        let stored = Arc::new(StoredItem {
            item,
            last_access: AtomicU64::new(self.stamp()),
        });
        self.index.insert(key.to_string(), stored);
        self.evict_if_needed();
        self.stats.bump(&self.stats.sets);
        StoreOutcome::Stored
    }

    fn delete(&self, key: &str) -> bool {
        let removed = self.index.remove(key);
        if removed {
            self.stats.bump(&self.stats.deletes);
        }
        removed
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn housekeeping(&self) {
        // Cheap when the index is maintained in the background or inside
        // its load-factor bounds.
        self.index.maintain();
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn purge_expired(&self) -> usize {
        let now = Instant::now();
        let before = self.index.len();
        self.index.retain(|stored| !stored.item.is_expired(now));
        let purged = before.saturating_sub(self.index.len());
        for _ in 0..purged {
            self.stats.bump(&self.stats.expirations);
        }
        purged
    }

    fn observe_gauges(&self) {
        self.index.observe_gauges();
    }
}

/// The relativistic engine: the index is one [`RpHashMap`]. GETs are
/// wait-free lookups; SETs and DELETEs serialise on the map's writer lock;
/// the index resizes itself under load.
pub type RpEngine = Engine<RpHashMap<String, Arc<StoredItem>, FnvBuildHasher>>;

/// The resize policy of the relativistic indexes.
pub(crate) fn index_resize_policy() -> ResizePolicy {
    ResizePolicy {
        auto_expand: true,
        auto_shrink: true,
        max_load_factor: 2.0,
        min_load_factor: 0.125,
        min_buckets: 16,
        ..ResizePolicy::default()
    }
}

impl RpEngine {
    /// Creates an engine with a large default capacity.
    pub fn new() -> Self {
        Self::with_capacity(1 << 20)
    }

    /// Creates an engine that holds at most `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity.max(16)).next_power_of_two().min(1 << 16);
        Engine::over(
            RpHashMap::with_buckets_hasher_and_policy(
                buckets.min(1024),
                FnvBuildHasher,
                index_resize_policy(),
            ),
            capacity,
        )
    }
}

impl Default for RpEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::ReadSide;

    #[test]
    fn str_bytes_hash_matches_the_index_hasher() {
        use std::hash::BuildHasher;
        // The byte-keyed hot path relies on hashing raw bytes exactly as
        // the String-keyed index hashes its keys. If std's str hashing
        // scheme ever changes, this test fails before any lookup can miss.
        for key in ["", "k", "memtier-12345", "a:b:c_d-e", "日本語"] {
            assert_eq!(
                str_bytes_hash(key.as_bytes()),
                FnvBuildHasher.hash_one(key),
                "{key:?}"
            );
        }
    }

    #[test]
    fn index_resizes_itself_under_insert_load() {
        let engine = RpEngine::with_capacity(100_000);
        let before = engine.index.num_buckets();
        for i in 0..8192 {
            engine.set(&format!("key-{i}"), Item::new(0, "v"));
        }
        assert!(
            engine.index.num_buckets() > before,
            "expected the relativistic index to auto-expand ({} -> {})",
            before,
            engine.index.num_buckets()
        );
        assert_eq!(engine.len(), 8192);
    }

    /// Simulates an event-loop worker: QSBR-online while serving `sets`
    /// SETs, then `housekeeping` from the offline window between batches.
    /// An index that waits for grace periods to resize must postpone the
    /// resize while the worker is online and catch up in housekeeping —
    /// without it the index would never grow when every writer is a QSBR
    /// worker; a non-blocking index (`postpones == false`) grows mid-batch.
    pub(crate) fn qsbr_worker_growth<I: ByteKeyIndex + 'static>(
        engine: Engine<I>,
        buckets: fn(&I) -> usize,
        sets: usize,
        postpones: bool,
    ) {
        std::thread::spawn(move || {
            let mut ctx = EngineReadCtx::new(ReadSide::Qsbr);
            let before = buckets(&engine.index);
            for i in 0..sets {
                engine.set(&format!("key-{i}"), Item::new(0, "v"));
            }
            assert_eq!(
                buckets(&engine.index) == before,
                postpones,
                "{}: {before} -> {} buckets while QSBR-online",
                engine.name(),
                buckets(&engine.index)
            );
            ctx.quiescent();
            ctx.with_offline(|| engine.housekeeping());
            assert!(
                buckets(&engine.index) > before,
                "{}: housekeeping must leave the index grown ({before} -> {})",
                engine.name(),
                buckets(&engine.index)
            );
            assert!(engine.get_ref(b"key-7", &mut ctx).is_some());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn qsbr_worker_housekeeping_grows_the_index() {
        qsbr_worker_growth(
            RpEngine::with_capacity(100_000),
            |index| index.num_buckets(),
            8192,
            true,
        );
    }
}
