//! The relativistic engine: wait-free GETs over one [`RpHashMap`].

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use rp_hash::{FnvBuildHasher, ReadProtect, ResizePolicy, RpHashMap};
use rp_rcu::NoGraceWait;

use crate::audit::{self, SharedWrite};
use crate::engine::{CacheEngine, CacheStats, EngineReadCtx, StoreOutcome, GROUP};
use crate::item::{Item, ItemKey, Payload};
use crate::lock_engine::EngineConfig;

/// Hashes raw key bytes exactly as the engine's [`ItemKey`]-keyed index
/// hashes its keys — as the `str` the key holds: the bytes, then a `0xff`
/// terminator — so a `&[u8]` borrowed from a connection's read buffer can
/// probe the index through the raw `get_matching_prehashed` lookup: hash
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

/// A stored item plus its LRU access stamp, held by value in
/// the index node: a GET hit reads key, flags, deadline, stamp and a value
/// of up to `INLINE_VALUE_LEN` bytes from the two lines of the node the
/// chain walk already loaded.
///
/// The payload is immutable after publication; only the access stamp is
/// updated by readers, with a relaxed store (the relativistic equivalent of
/// memcached's "don't bump the LRU on every GET" optimisation — readers
/// never take a lock or move list nodes).
///
/// The stamp comes first (`repr(C)`), then the item, whose deadline and
/// flags lead it: in an `RpHashMap` node, which opens with its link, cached
/// hash and key, the eviction scan reads the node's first line and nothing
/// of the payload behind it.
#[repr(C)]
pub struct StoredItem {
    last_access: AtomicU64,
    item: Item,
}

// The payload holds 70 bytes inline in 9 words, the deadline and flags take
// one more, and the stamp one more: with the 24-byte key and the node's
// link and cached hash an `RpHashMap` node is 128 bytes, two cache lines
// of a slab slot that starts on a line.
const _: () = assert!(std::mem::size_of::<Payload>() == 72);
const _: () = assert!(std::mem::size_of::<Item>() == 80);
const _: () = assert!(std::mem::size_of::<StoredItem>() == 88);

/// The engine's index: items by key, hashed with FNV so that
/// [`str_bytes_hash`] can hash a borrowed key the same way.
type Index = RpHashMap<ItemKey, StoredItem, FnvBuildHasher>;

impl StoredItem {
    pub(crate) fn access_stamp(&self) -> u64 {
        self.last_access.load(Ordering::Relaxed)
    }

    /// Whether the item is past its deadline. The clock is read only for
    /// an item that has one.
    pub(crate) fn is_expired_now(&self) -> bool {
        self.item.expires_at.is_some() && self.item.is_expired(Instant::now())
    }
}

/// Hints a shared payload's first two lines: its `Arc` header (two
/// counters, just below the data), which a large value's reply clones, and
/// the data that follows.
fn prefetch_payload(shared: &bytes::Bytes) {
    let counters = std::mem::size_of::<[usize; 2]>();
    let header = shared.as_ptr().wrapping_sub(counters);
    rp_hash::prefetch_line(header);
    rp_hash::prefetch_line(header.wrapping_add(64));
}

/// The eviction-candidate scan: the `count` entries of `index` to evict
/// first — those already past their deadline (memcached checks its LRU
/// tail for them the same way), then the least recently used — each with
/// the access stamp it carried when seen, the first victim **last** so
/// that `pop` yields it.
///
/// One pass with a bounded max-heap of `(live, stamp, key)` that borrows
/// its keys: only the `count` that remain at the end are cloned, so the
/// scan's memory is `count` entries whatever the index holds. The clock is
/// read once, and only if some entry has a deadline.
fn stalest(index: &Index, count: usize) -> Vec<(ItemKey, u64)> {
    let guard = index.pin();
    let mut now = None;
    let mut heap = BinaryHeap::with_capacity(count);
    for (key, stored) in index.iter(&guard) {
        let expired = stored
            .item
            .expires_at
            .is_some_and(|deadline| deadline.has_passed(*now.get_or_insert_with(Instant::now)));
        let candidate = (!expired, stored.access_stamp(), key);
        if heap.len() < count {
            heap.push(candidate);
        } else if let Some(mut newest) = heap.peek_mut() {
            if candidate < *newest {
                *newest = candidate;
            }
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .rev()
        .map(|(_, stamp, key)| (key.clone(), stamp))
        .collect()
}

/// What an index probe found, with the LRU stamp already applied to a live
/// hit.
enum Probe {
    /// A live item, handed to the caller inside the read-side window.
    Live,
    /// Present but expired: removed on the writer-side slow path.
    Expired,
    /// Not present.
    Miss,
}

fn classify_probe(stored: Option<&StoredItem>, stamp: u64, found: &mut dyn FnMut(&Item)) -> Probe {
    match stored {
        Some(stored) if stored.is_expired_now() => Probe::Expired,
        Some(stored) => {
            audit::count(SharedWrite::LastAccess);
            stored.last_access.store(stamp, Ordering::Relaxed);
            found(&stored.item);
            Probe::Live
        }
        None => Probe::Miss,
    }
}

/// The relativistic engine, mirroring the paper's memcached patch: the
/// index is one [`RpHashMap`].
///
/// * **GET** enters a read-side section (a pinned EBR guard, or the
///   worker's barrier-free QSBR handle), looks the key up in the index,
///   checks expiry and hands the item to the caller's reply writer while
///   still inside the section — all without taking any lock. Expired
///   entries fall back to the slow path (a writer-side remove) exactly as
///   the patch "falls back to the slow path for expiry, eviction".
/// * **SET / DELETE** serialise on the map's writer lock and retire
///   replaced items through the RCU domain. The index resizes itself under
///   load, and no SET waits for readers: the SET that makes a resize due
///   begins it, and the first SET after its grace period finishes it.
/// * **Eviction** is exact LRU at a fraction of a scan per victim: a SET
///   past capacity pops the oldest entry of a queue that one scan of the
///   index filled and removes it only if its access stamp has not moved
///   since (DESIGN.md, *Eviction*).
pub struct RpEngine {
    index: Index,
    config: EngineConfig,
    clock: AtomicU64,
    stats: CacheStats,
    /// Eviction candidates of the last scan with the stamps they carried,
    /// next victim last. Held for the pop and the refill scan only: never
    /// across a removal, and nothing under it waits for a grace period
    /// (locked through [`NoGraceWait`], which asserts as much in debug
    /// builds).
    victims: Mutex<Vec<(ItemKey, u64)>>,
}

impl RpEngine {
    /// Creates an engine with a large default capacity.
    pub fn new() -> Self {
        Self::with_capacity(1 << 20)
    }

    /// Creates an engine that holds at most `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        // The initial size only, capped at 1024 buckets: the index grows
        // itself under load, so a large capacity does not pay for a large
        // table up front. It never halves below its initial size, which
        // already sits under its shrink trigger, so a prefill does not open
        // with halvings it has to double back.
        let buckets = capacity.clamp(16, 1024).next_power_of_two();
        let policy = ResizePolicy {
            auto_expand: true,
            auto_shrink: true,
            max_load_factor: 2.0,
            min_load_factor: 0.125,
            min_buckets: buckets,
            ..ResizePolicy::default()
        };
        RpEngine {
            index: RpHashMap::with_buckets_hasher_and_policy(buckets, FnvBuildHasher, policy),
            config: EngineConfig {
                capacity: capacity.max(1),
                ..EngineConfig::default()
            },
            clock: AtomicU64::new(0),
            stats: CacheStats::default(),
            victims: Mutex::new(Vec::new()),
        }
    }

    /// The index's structural check ([`RpHashMap::check_invariants`]), for
    /// a test that drove the engine through a server.
    pub fn check_index(&self) -> Result<(), String> {
        self.index.check_invariants()
    }

    /// Raw lookup: `hash` must be [`str_bytes_hash`] of `key`.
    fn probe<'g, P: ReadProtect>(
        &'g self,
        hash: u64,
        key: &[u8],
        protect: &'g P,
    ) -> Option<&'g StoredItem> {
        self.index
            .get_matching_prehashed(hash, |k| k.as_bytes() == key, protect)
    }

    /// Next LRU access stamp.
    fn stamp(&self) -> u64 {
        audit::count(SharedWrite::Stamp);
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The hint passes over one group of keys, under one witness: hash
    /// every key once and touch its bucket slot; then, a chain step per
    /// pass, hint the head node, the second node, the third (both lines of
    /// each, so an inline value comes with its node) — and at the node
    /// whose cached hash matches, a shared value's buffer instead. Each
    /// pass reads only what the pass before asked for, so the group's
    /// misses are in flight together.
    fn hint_group<P: ReadProtect>(&self, keys: &[&[u8]], protect: &P) {
        let mut hashes = [0_u64; GROUP];
        for (hash, key) in hashes.iter_mut().zip(keys) {
            *hash = str_bytes_hash(key);
            self.index.prefetch_prehashed(*hash, 0, protect);
        }
        for depth in 1..=3 {
            for &hash in &hashes[..keys.len()] {
                let found = self.index.prefetch_prehashed(hash, depth, protect);
                if let Some(shared) = found.and_then(|stored| stored.item.data.shared()) {
                    prefetch_payload(shared);
                }
            }
        }
    }

    /// Removes `key` unconditionally; `true` if it was present.
    fn remove(&self, key: &str) -> bool {
        self.index
            .remove_prehashed(str_bytes_hash(key.as_bytes()), key)
    }

    /// All a SET that stays within capacity pays for eviction.
    #[inline]
    fn evict_if_needed(&self) {
        if self.index.len() > self.config.capacity {
            self.evict();
        }
    }

    /// Exact LRU, one scan per batch of evictions. Every entry a scan left
    /// out carried a newer stamp than every entry it took, and whatever is
    /// touched, replaced or stored afterwards takes a newer stamp still: so
    /// the oldest queued entry whose stamp has not moved is the oldest
    /// entry of the cache, and one whose stamp moved (or that was deleted)
    /// fails the removal test and is skipped.
    #[cold]
    #[inline(never)]
    fn evict(&self) {
        while self.index.len() > self.config.capacity {
            let Some((key, stamp)) = self.next_victim() else {
                break;
            };
            let key: &str = key.borrow();
            let expired = Cell::new(false);
            let removed =
                self.index
                    .remove_if_prehashed(str_bytes_hash(key.as_bytes()), key, |stored| {
                        expired.set(stored.is_expired_now());
                        stored.access_stamp() == stamp
                    });
            match (removed, expired.get()) {
                (false, _) => &self.stats.evict_stale,
                (true, false) => &self.stats.evictions,
                (true, true) => &self.stats.expirations,
            }
            .inc();
        }
    }

    /// Pops the next eviction candidate, refilling the queue by one scan
    /// when it is empty; `None` only if a scan found the index empty.
    fn next_victim(&self) -> Option<(ItemKey, u64)> {
        loop {
            let mut victims = NoGraceWait::holding(self.victims.lock());
            if let Some(victim) = victims.pop() {
                return Some(victim);
            }
            let start = rp_obs::timer();
            // 64 nodes scanned per eviction at any capacity; the floor
            // keeps a small cache from scanning for every one.
            **victims = stalest(&self.index, (self.config.capacity / 64).max(16));
            self.stats.evict_scans.inc();
            if let Some(ns) = rp_obs::elapsed_ns(start) {
                rp_obs::global().kv.evict_scan_ns.record(ns);
            }
            if victims.is_empty() {
                return None;
            }
            // The seam `tests/eviction_storm.rs` stretches: the batch ages
            // between its scan and its first pop, and other workers may
            // drain it meanwhile. Not under the lock.
            drop(victims);
            let _ = rp_fault::point("kv.evict.refilled");
        }
    }
}

impl CacheEngine for RpEngine {
    fn name(&self) -> &'static str {
        "rp"
    }

    fn get_with(&self, key: &[u8], ctx: &mut EngineReadCtx, found: &mut dyn FnMut(&Item)) -> bool {
        // One hashing pass over the borrowed key bytes serves the whole
        // lookup; the key is never copied and never re-validated.
        let hash = str_bytes_hash(key);
        let stamp = self.stamp();
        // No locks, no waiting; `found` reads the item while still inside
        // the read-side section.
        let probe = match ctx.qsbr_handle() {
            Some(handle) => classify_probe(self.probe(hash, key, handle), stamp, found),
            None => {
                let guard = self.index.pin();
                classify_probe(self.probe(hash, key, &guard), stamp, found)
            }
        };
        if let Probe::Expired = probe {
            // Cold path. The read-side section is over, so another worker
            // may have acknowledged a SET of this key since the probe:
            // remove only an item that is expired *now*. Stored keys are
            // always valid UTF-8, so the view cannot fail for a key that
            // was found. The removal waits for no grace period, so it is
            // safe while this thread is a QSBR reader.
            if std::str::from_utf8(key).is_ok_and(|key| {
                self.index
                    .remove_if_prehashed(hash, key, StoredItem::is_expired_now)
            }) {
                self.stats.expirations.inc();
            }
        }
        let hit = matches!(probe, Probe::Live);
        ctx.count_get(hit);
        hit
    }

    fn prefetch(&self, keys: &[&[u8]], ctx: &EngineReadCtx) {
        for group in keys.chunks(GROUP) {
            match ctx.qsbr_handle() {
                Some(handle) => self.hint_group(group, handle),
                None => self.hint_group(group, &self.index.pin()),
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
        self.stats.sets.inc();
        StoreOutcome::Stored
    }

    fn delete(&self, key: &str) -> bool {
        let removed = self.remove(key);
        if removed {
            self.stats.deletes.inc();
        }
        removed
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn purge_expired(&self) -> usize {
        let now = Instant::now();
        // The index counts what it removed: its length also moves under
        // concurrent SETs and DELETEs.
        let purged = self.index.retain(|_, stored| !stored.item.is_expired(now));
        self.stats.expirations.add(purged as u64);
        purged
    }
}

impl Default for RpEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReadSide;
    use std::time::Duration;

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
    fn the_index_hints_the_item_a_lookup_will_find() {
        let engine = RpEngine::with_capacity(1024);
        engine.set("k", Item::new(0, "v"));
        let keys: [&[u8]; 2] = [b"k", b"missing"];
        engine.prefetch(&keys, &EngineReadCtx::new(ReadSide::Ebr));
        let guard = engine.index.pin();
        let deep = engine
            .index
            .prefetch_prehashed(str_bytes_hash(b"k"), 64, &guard);
        assert!(deep.is_some_and(|stored| &stored.item.data[..] == b"v"));
    }

    /// An index holding `stamps` under the keys `a`, `b`, `c`, …; a
    /// `Some(true)` deadline has passed, a `Some(false)` one has not.
    fn index_of(stamps: &[(u64, Option<bool>)]) -> Index {
        let index = RpHashMap::with_buckets_and_hasher(16, FnvBuildHasher);
        for (i, &(stamp, deadline)) in stamps.iter().enumerate() {
            let item = match deadline {
                None => Item::new(0, "v"),
                Some(true) => Item::expired(0, "v"),
                Some(false) => Item::with_ttl(0, "v", Duration::from_secs(3600)),
            };
            let key = char::from(b'a' + i as u8).to_string();
            index.insert(
                ItemKey::from(key.as_str()),
                StoredItem {
                    item,
                    last_access: AtomicU64::new(stamp),
                },
            );
        }
        index
    }

    /// The order `pop` drains `victims` in, as `(key, stamp)`.
    fn popped(mut victims: Vec<(ItemKey, u64)>) -> Vec<(String, u64)> {
        let mut order = Vec::new();
        while let Some((key, stamp)) = victims.pop() {
            order.push((Borrow::<str>::borrow(&key).to_string(), stamp));
        }
        order
    }

    #[test]
    fn stalest_pops_the_oldest_first() {
        let index = index_of(&[(40, None), (10, None), (30, None), (20, None), (50, None)]);
        let oldest_three = [("b", 10), ("d", 20), ("c", 30)].map(|(k, s)| (k.to_string(), s));
        assert_eq!(popped(stalest(&index, 3)), oldest_three);
        // Asked for more than there is: everything, still oldest first.
        let all = popped(stalest(&index, 64));
        assert_eq!(all.len(), 5);
        assert_eq!(all[..3], oldest_three);
        assert_eq!(all[4], ("e".to_string(), 50));
        assert!(stalest(&index, 0).is_empty());
        assert!(stalest(&index_of(&[]), 16).is_empty());
    }

    #[test]
    fn stalest_keeps_its_count_among_equal_stamps() {
        let index = index_of(&[(7, None), (7, None), (3, None), (7, None), (7, None)]);
        let order = popped(stalest(&index, 3));
        assert_eq!(order[0], ("c".to_string(), 3));
        assert_eq!((order.len(), order[1].1, order[2].1), (3, 7, 7));
        assert_ne!(order[1].0, order[2].0);
    }

    #[test]
    fn stalest_puts_expired_entries_ahead_of_live_ones() {
        // `c` is the newest entry and the first to go; it keeps its real
        // stamp, which is what the removal tests. A deadline still ahead
        // is no reason to go.
        let index = index_of(&[(1, None), (2, Some(false)), (9, Some(true)), (4, None)]);
        let first_three = [("c", 9), ("a", 1), ("b", 2)].map(|(k, s)| (k.to_string(), s));
        assert_eq!(popped(stalest(&index, 3)), first_three);
    }

    /// A full cache holding items past their deadline gives those up
    /// before its least recently used live item, as expirations.
    #[test]
    fn a_full_cache_drops_expired_items_first() {
        let engine = RpEngine::with_capacity(4);
        let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
        engine.set("live-0", Item::new(0, "v"));
        engine.set("live-1", Item::new(0, "v"));
        engine.set("stale-0", Item::expired(0, "v"));
        engine.set("stale-1", Item::expired(0, "v"));
        engine.set("fifth", Item::new(0, "v"));
        assert_eq!(engine.len(), 4);
        assert_eq!(engine.stats.expirations.get(), 1);
        assert_eq!(engine.stats.evictions.get(), 0);
        for key in ["live-0", "live-1", "fifth"] {
            assert!(engine.get_ref(key.as_bytes(), &mut ctx).is_some());
        }
        // The other expired item is next, whatever was touched meanwhile.
        engine.set("sixth", Item::new(0, "v"));
        assert_eq!(engine.stats.expirations.get(), 2);
        assert_eq!(engine.stats.evictions.get(), 0);
        // With none left the least recently used live item goes.
        engine.set("seventh", Item::new(0, "v"));
        assert_eq!(engine.stats.evictions.get(), 1);
        assert!(engine.get_ref(b"live-0", &mut ctx).is_none());
        assert_eq!(engine.len(), 4);
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

    /// The index starts at its policy's floor, so a prefill only ever
    /// doubles: it never halves first and doubles back.
    #[test]
    fn a_prefill_never_shrinks_the_index() {
        let engine = RpEngine::with_capacity(1 << 20);
        for i in 0..512 * 1024 {
            engine.set(&format!("key:{i}"), Item::new(0, "v"));
        }
        let stats = engine.index.stats();
        assert!(stats.expands > 0, "{stats:?}");
        assert_eq!(stats.shrinks, 0, "{stats:?}");
    }

    /// `get_with`'s expired arm taken apart, with another worker's SET of
    /// the same key acknowledged between the probe and the removal: the
    /// verdict "expired" was about the old item and must not take the new.
    #[test]
    fn an_expired_get_spares_a_fresh_set() {
        let engine = RpEngine::with_capacity(1024);
        let stale = || Item::expired(0, "stale");
        let hash = str_bytes_hash(b"k");
        engine.set("k", stale());
        {
            let guard = engine.index.pin();
            let probe = classify_probe(engine.probe(hash, b"k", &guard), 0, &mut |_| {
                panic!("an expired item reached the reply writer")
            });
            assert!(matches!(probe, Probe::Expired));
        }
        engine.set("k", Item::new(0, "fresh"));
        assert!(
            !engine
                .index
                .remove_if_prehashed(hash, "k", StoredItem::is_expired_now),
            "an acknowledged SET was removed as expired"
        );
        let hit = engine.get_ref(b"k", &mut EngineReadCtx::new(ReadSide::Ebr));
        assert_eq!(hit.map(|item| item.data.to_vec()), Some(b"fresh".to_vec()));
        // An item that is still expired when the slow path gets there goes.
        engine.set("k", stale());
        assert!(engine
            .index
            .remove_if_prehashed(hash, "k", StoredItem::is_expired_now));
        assert_eq!(engine.len(), 0);
    }

    /// Simulates an event-loop worker: QSBR-online while serving SETs, one
    /// quiescent state per batch. The SETs never wait for a grace period,
    /// yet they grow the index themselves: each resize is begun by the SET
    /// that makes it due and finished by one after its grace period.
    #[test]
    fn a_qsbr_worker_grows_the_index_without_waiting() {
        let engine = RpEngine::with_capacity(100_000);
        std::thread::spawn(move || {
            let mut ctx = EngineReadCtx::new(ReadSide::Qsbr);
            let (before, waits) = (
                engine.index.num_buckets(),
                rp_rcu::thread_synchronize_count(),
            );
            // On until a SET has finished a resize, after its grace period.
            let mut batch = 0;
            while batch < 64 || engine.index.stats().expands == 0 {
                for i in 0..128 {
                    engine.set(&format!("key-{batch}-{i}"), Item::new(0, "v"));
                }
                ctx.quiescent();
                batch += 1;
            }
            let waited = rp_rcu::thread_synchronize_count() - waits;
            assert_eq!(waited, 0, "a QSBR worker's SETs waited for readers");
            assert!(engine.index.num_buckets() > before);
            assert!(engine.get_ref(b"key-7-7", &mut ctx).is_some());
        })
        .join()
        .unwrap();
    }
}
