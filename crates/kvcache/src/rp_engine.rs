//! The RCU-indexed engines: wait-free GETs over a concurrent index.
//!
//! [`Engine`] is the one engine struct; [`RpEngine`], and the
//! [`ShardedRpEngine`](crate::ShardedRpEngine) and
//! [`SplitOrderEngine`](crate::SplitOrderEngine) aliases beside it, differ
//! only in the index type they plug in ([`ByteKeyIndex`]).

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rp_hash::{FnvBuildHasher, ResizePolicy, RpHashMap};

use crate::engine::{CacheEngine, CacheStats, EngineReadCtx, StoreOutcome, GROUP};
use crate::item::{Item, ItemKey};
use crate::lock_engine::EngineConfig;

/// Hashes raw key bytes exactly as the engines' [`ItemKey`]-keyed indexes
/// hash their keys — as the `str` the key holds: the bytes, then a `0xff`
/// terminator — so a `&[u8]` borrowed from a connection's read buffer can
/// probe the index through the raw `get_matching_prehashed` lookups: hash
/// once, compare bytes, allocate nothing. A unit test pins this against
/// `FnvBuildHasher`'s `str` output in case std's `str` hashing scheme ever
/// changes.
fn str_bytes_hash(bytes: &[u8]) -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut hasher = FnvBuildHasher.build_hasher();
    hasher.write(bytes);
    hasher.write_u8(0xff);
    hasher.finish()
}

/// A stored item plus its approximate-LRU access stamp, held by value in
/// the index node: a GET hit reads key, flags, deadline, stamp and payload
/// pointer from the node the chain walk already loaded.
///
/// The payload is immutable after publication; only the access stamp is
/// updated by readers, with a relaxed store (the relativistic equivalent of
/// memcached's "don't bump the LRU on every GET" optimisation — readers
/// never take a lock or move list nodes).
pub struct StoredItem {
    item: Item,
    last_access: AtomicU64,
}

// With the 24-byte key, an `RpHashMap` node is 88 bytes.
const _: () = assert!(std::mem::size_of::<StoredItem>() <= 48);

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
    ) -> Option<&'g StoredItem>;

    /// Read-side hint for a lookup of `hash` that is `depth` passes away
    /// (see [`RpHashMap::prefetch_prehashed`]): may return the item that
    /// lookup will probably find, so the caller can hint its payload too.
    /// An index that cannot walk ahead hints nothing.
    fn prefetch<'g, P: rp_hash::ReadProtect>(
        &'g self,
        _hash: u64,
        _depth: usize,
        _protect: &'g P,
    ) -> Option<&'g StoredItem> {
        None
    }

    /// Pins an EBR guard for the fallback flavor.
    fn pin_guard(&self) -> rp_rcu::RcuGuard<'static>;

    /// Stores `item` under `key`, replacing any previous value.
    fn insert(&self, key: ItemKey, item: StoredItem);

    /// Removes `key` through the writer side if `condemn` accepts the item
    /// stored under it at that moment; `true` if it was removed. `hash`
    /// must be [`str_bytes_hash`] of `key`.
    fn remove_if(&self, hash: u64, key: &str, condemn: impl Fn(&StoredItem) -> bool) -> bool;

    /// Number of entries.
    fn len(&self) -> usize;

    /// Catches up on resizes and reclamation the writer paths postponed.
    fn maintain(&self);

    /// Removes every entry for which `keep` returns `false`; returns how
    /// many it removed.
    fn retain(&self, keep: impl FnMut(&StoredItem) -> bool) -> usize;

    /// Every key with its access stamp: the eviction-candidate scan.
    fn access_stamps(&self) -> Vec<(ItemKey, u64)>;

    /// Scrape-time level gauges this index can report (none by default).
    fn observe_gauges(&self) {}
}

/// Implements [`ByteKeyIndex`] for a map type by forwarding to its inherent
/// methods; trailing items override the trait's defaults, and a leading
/// `hinting` forwards [`ByteKeyIndex::prefetch`] to the map's
/// `prefetch_prehashed`.
macro_rules! impl_byte_key_index {
    (hinting $index:ty, $name:literal $(, $extra:item)*) => {
        $crate::rp_engine::impl_byte_key_index!(
            $index,
            $name,
            fn prefetch<'g, P: rp_hash::ReadProtect>(
                &'g self,
                hash: u64,
                depth: usize,
                protect: &'g P,
            ) -> Option<&'g $crate::rp_engine::StoredItem> {
                self.prefetch_prehashed(hash, depth, protect)
            }
            $(, $extra)*
        );
    };
    ($index:ty, $name:literal $(, $extra:item)*) => {
        impl $crate::rp_engine::ByteKeyIndex for $index {
            const NAME: &'static str = $name;

            fn probe<'g, P: rp_hash::ReadProtect>(
                &'g self,
                hash: u64,
                key: &[u8],
                protect: &'g P,
            ) -> Option<&'g $crate::rp_engine::StoredItem> {
                self.get_matching_prehashed(hash, |k| k.as_bytes() == key, protect)
            }

            fn pin_guard(&self) -> rp_rcu::RcuGuard<'static> {
                self.pin()
            }

            fn insert(&self, key: $crate::item::ItemKey, item: $crate::rp_engine::StoredItem) {
                self.insert(key, item);
            }

            fn remove_if(
                &self,
                hash: u64,
                key: &str,
                condemn: impl Fn(&$crate::rp_engine::StoredItem) -> bool,
            ) -> bool {
                self.remove_if_prehashed(hash, key, condemn)
            }

            fn len(&self) -> usize {
                self.len()
            }

            fn maintain(&self) {
                self.maintain();
            }

            fn retain(
                &self,
                mut keep: impl FnMut(&$crate::rp_engine::StoredItem) -> bool,
            ) -> usize {
                self.retain(|_, stored| keep(stored))
            }

            fn access_stamps(&self) -> Vec<($crate::item::ItemKey, u64)> {
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

    /// Hints the payload's first two lines: its `Arc` header (two counters,
    /// just below the data), which is what cloning the item out of the
    /// index writes to, and what follows.
    fn prefetch_payload(&self) {
        let counters = std::mem::size_of::<[usize; 2]>();
        let header = self.item.data.as_ptr().wrapping_sub(counters);
        rp_hash::prefetch_line(header);
        rp_hash::prefetch_line(header.wrapping_add(64));
    }

    /// Whether the item is past its deadline. The clock is read only for
    /// an item that has one.
    pub(crate) fn is_expired_now(&self) -> bool {
        self.item.expires_at.is_some() && self.item.is_expired(Instant::now())
    }
}

impl_byte_key_index!(hinting RpHashMap<ItemKey, StoredItem, FnvBuildHasher>, "rp");

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

fn classify_probe(stored: Option<&StoredItem>, stamp: u64) -> Probe {
    match stored {
        Some(stored) if stored.is_expired_now() => Probe::Expired,
        Some(stored) => {
            stored.last_access.store(stamp, Ordering::Relaxed);
            Probe::Live(stored.item.clone())
        }
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

    /// The hint passes over one group of keys, under one witness: hash
    /// every key once and touch its bucket slot; then, a chain step per
    /// pass, hint the head node, the second node, the third — and at the
    /// node whose cached hash matches, the payload instead. Each pass
    /// reads only what the pass before asked for, so the group's misses
    /// are in flight together.
    fn hint_group<P: rp_hash::ReadProtect>(&self, keys: &[&[u8]], protect: &P) {
        let mut hashes = [0_u64; GROUP];
        for (hash, key) in hashes.iter_mut().zip(keys) {
            *hash = str_bytes_hash(key);
            self.index.prefetch(*hash, 0, protect);
        }
        for depth in 1..=3 {
            for &hash in &hashes[..keys.len()] {
                if let Some(stored) = self.index.prefetch(hash, depth, protect) {
                    stored.prefetch_payload();
                }
            }
        }
    }

    /// Removes `key` unconditionally; `true` if it was present.
    fn remove(&self, key: &str) -> bool {
        self.index
            .remove_if(str_bytes_hash(key.as_bytes()), key, |_| true)
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
                if self.remove(key.borrow()) {
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
        let stamp = self.stamp();
        // No locks, no waiting; the value is copied (cheaply — the payload
        // is reference counted) while still inside the read-side section.
        let probe = match ctx.qsbr_handle() {
            Some(handle) => classify_probe(self.index.probe(hash, key, handle), stamp),
            None => {
                let guard = self.index.pin_guard();
                classify_probe(self.index.probe(hash, key, &guard), stamp)
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
                // Cold path. The read-side section is over, so another
                // worker may have acknowledged a SET of this key since the
                // probe: remove only an item that is expired *now*. Stored
                // keys are always valid UTF-8, so the view cannot fail for
                // a key that was found. Grace-period work the removal
                // triggers is postponed while this thread is a QSBR reader.
                if std::str::from_utf8(key)
                    .is_ok_and(|key| self.index.remove_if(hash, key, StoredItem::is_expired_now))
                {
                    self.stats.bump(&self.stats.expirations);
                }
                self.stats.bump(&self.stats.get_misses);
                None
            }
        }
    }

    fn prefetch(&self, keys: &[&[u8]], ctx: &EngineReadCtx) {
        for group in keys.chunks(GROUP) {
            match ctx.qsbr_handle() {
                Some(handle) => self.hint_group(group, handle),
                None => self.hint_group(group, &self.index.pin_guard()),
            }
        }
    }

    fn set(&self, key: &str, item: Item) -> StoreOutcome {
        if item.len() > self.config.max_item_size {
            return StoreOutcome::NotStored;
        }
        let stored = StoredItem {
            item,
            last_access: AtomicU64::new(self.stamp()),
        };
        self.index.insert(ItemKey::from(key), stored);
        self.evict_if_needed();
        self.stats.bump(&self.stats.sets);
        StoreOutcome::Stored
    }

    fn delete(&self, key: &str) -> bool {
        let removed = self.remove(key);
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
        // The index counts what it removed: its length also moves under
        // concurrent SETs and DELETEs, and a lock-free index may spare an
        // entry it had condemned because a fresh SET replaced it meanwhile.
        let purged = self.index.retain(|stored| !stored.item.is_expired(now));
        self.stats
            .expirations
            .fetch_add(purged as u64, Ordering::Relaxed);
        purged
    }

    fn observe_gauges(&self) {
        self.index.observe_gauges();
    }
}

/// The relativistic engine: the index is one [`RpHashMap`]. GETs are
/// wait-free lookups; SETs and DELETEs serialise on the map's writer lock;
/// the index resizes itself under load.
pub type RpEngine = Engine<RpHashMap<ItemKey, StoredItem, FnvBuildHasher>>;

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
        // The initial size only, capped at 1024 buckets: the index grows
        // itself under load (`index_resize_policy`), so a large capacity
        // does not pay for a large table up front.
        let buckets = capacity.clamp(16, 1024).next_power_of_two();
        Engine::over(
            RpHashMap::with_buckets_hasher_and_policy(
                buckets,
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
        // the index hashes its keys: as a `str` (`ItemKey`'s own tests pin
        // that half). If std's str hashing scheme ever changes, this test
        // fails before any lookup can miss.
        for key in ["", "k", "memtier-12345", "a:b:c_d-e", "日本語"] {
            assert_eq!(
                str_bytes_hash(key.as_bytes()),
                FnvBuildHasher.hash_one(key),
                "{key:?}"
            );
        }
    }

    #[test]
    fn the_relativistic_indexes_hint_and_the_split_ordered_one_does_not() {
        fn hinted<I: ByteKeyIndex>(engine: Engine<I>) -> bool {
            engine.set("k", Item::new(0, "v"));
            let keys: [&[u8]; 2] = [b"k", b"missing"];
            engine.prefetch(&keys, &EngineReadCtx::new(ReadSide::Ebr));
            let guard = engine.index.pin_guard();
            let deep = engine.index.prefetch(str_bytes_hash(b"k"), 64, &guard);
            deep.is_some_and(|stored| &stored.item.data[..] == b"v")
        }
        assert!(hinted(RpEngine::with_capacity(1024)));
        assert!(hinted(crate::ShardedRpEngine::with_shards_and_capacity(
            4, 1024
        )));
        assert!(!hinted(crate::SplitOrderEngine::with_capacity(1024)));
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

    /// `get_ref`'s expired arm taken apart, with another worker's SET of
    /// the same key acknowledged between the probe and the removal: the
    /// verdict "expired" was about the old item and must not take the new.
    fn expired_verdict_spares_a_fresh_set<I: ByteKeyIndex>(engine: Engine<I>) {
        let stale = || {
            let mut item = Item::new(0, "stale");
            item.expires_at = Some(Instant::now() - std::time::Duration::from_millis(1));
            item
        };
        let hash = str_bytes_hash(b"k");
        engine.set("k", stale());
        {
            let guard = engine.index.pin_guard();
            let probe = classify_probe(engine.index.probe(hash, b"k", &guard), 0);
            assert!(matches!(probe, Probe::Expired), "{}", engine.name());
        }
        engine.set("k", Item::new(0, "fresh"));
        assert!(
            !engine
                .index
                .remove_if(hash, "k", StoredItem::is_expired_now),
            "{}: an acknowledged SET was removed as expired",
            engine.name()
        );
        let hit = engine.get_ref(b"k", &mut EngineReadCtx::new(ReadSide::Ebr));
        assert_eq!(hit.map(|item| item.data.to_vec()), Some(b"fresh".to_vec()));
        // An item that is still expired when the slow path gets there goes.
        engine.set("k", stale());
        assert!(engine
            .index
            .remove_if(hash, "k", StoredItem::is_expired_now));
        assert_eq!(engine.len(), 0);
    }

    #[test]
    fn an_expired_get_spares_a_fresh_set() {
        expired_verdict_spares_a_fresh_set(RpEngine::with_capacity(1024));
        expired_verdict_spares_a_fresh_set(crate::ShardedRpEngine::with_shards_and_capacity(
            4, 1024,
        ));
        expired_verdict_spares_a_fresh_set(crate::SplitOrderEngine::with_capacity(1024));
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
