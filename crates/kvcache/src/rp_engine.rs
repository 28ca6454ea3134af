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
use crate::engine::{
    keep_smallest, CacheEngine, CacheStats, EngineReadCtx, StoreOutcome, GROUP, MAX_ITEM_SIZE,
};
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

/// A stored item plus its eviction word, held by value in the index node:
/// a GET hit reads key, flags, deadline, word and a value of up to
/// `INLINE_VALUE_LEN` bytes from the two lines of the node the chain walk
/// already loaded.
///
/// The payload is immutable after publication; only the word is updated
/// by readers, with a relaxed store (the relativistic equivalent of
/// memcached's "don't bump the LRU on every GET" optimisation — readers
/// never take a lock or move list nodes). The word is the item's access
/// stamp with its segment in the top bit ([`PROTECTED`]), so the segment
/// costs the item no byte.
///
/// The word comes first (`repr(C)`), then the item, whose deadline and
/// flags lead it: in an `RpHashMap` node, which opens with its link, cached
/// hash and key, the eviction scan reads the node's first line and nothing
/// of the payload behind it.
#[repr(C)]
pub struct StoredItem {
    last_access: AtomicU64,
    item: Item,
}

// The payload holds 70 bytes inline in 9 words, the deadline and flags take
// one more, and the word one more: with the 24-byte key and the node's
// link and cached hash an `RpHashMap` node is 128 bytes, two cache lines
// of a slab slot that starts on a line.
const _: () = assert!(std::mem::size_of::<Payload>() == 72);
const _: () = assert!(std::mem::size_of::<Item>() == 80);
const _: () = assert!(std::mem::size_of::<StoredItem>() == 88);

/// The bit of a `last_access` word that puts its item in the protected
/// segment; the other 63 bits are the access stamp.
const PROTECTED: u64 = 1 << 63;

/// The engine's index: items by key, hashed with FNV so that
/// [`str_bytes_hash`] can hash a borrowed key the same way.
type Index = RpHashMap<ItemKey, StoredItem, FnvBuildHasher>;

impl StoredItem {
    /// The access stamp and segment bit, as one word.
    pub(crate) fn access_word(&self) -> u64 {
        self.last_access.load(Ordering::Relaxed)
    }

    fn is_protected(&self) -> bool {
        self.access_word() & PROTECTED != 0
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

/// What one eviction scan queued, each entry with the word it carried when
/// seen, the next to pop **last**.
#[derive(Default)]
struct Queues {
    /// Items to evict: those already past their deadline (memcached checks
    /// its LRU tail for them the same way), then the oldest probation items.
    victims: Vec<(ItemKey, u64)>,
    /// Items to demote while the protected segment is over its quota: the
    /// oldest live protected items.
    demotions: Vec<(ItemKey, u64)>,
}

/// Appends `heap`'s entries to `queue`, largest first, so that `pop`
/// yields the smallest; only these keys are cloned.
fn refill(queue: &mut Vec<(ItemKey, u64)>, heap: BinaryHeap<(bool, u64, &ItemKey)>) {
    let sorted = heap.into_sorted_vec().into_iter().rev();
    queue.extend(sorted.map(|(_, word, key)| (key.clone(), word)));
}

/// The eviction scan: one pass over `index` that refills each of `queues`
/// that is empty with up to `count` entries, and returns how many
/// protected items it saw.
///
/// A queue that still holds entries keeps them: its oldest entry whose
/// word stands is still the oldest item of its segment, however many scans
/// ago it was queued (DESIGN.md, *Eviction*). So the demotion queue, which
/// runs dry only by demoting, is refilled about once per seventeen victim
/// scans on `server-evict`, and the other scans feed one heap.
///
/// Each queue it refills has a bounded max-heap of `(live, word, key)`
/// that borrows its keys: only the entries that remain at the end are
/// cloned, so the scan's memory is `2 · count` entries whatever the index
/// holds. An expired item is a victim whatever its segment. The clock is
/// read once, and only if some entry has a deadline.
fn stalest(index: &Index, count: usize, queues: &mut Queues) -> usize {
    let guard = index.pin();
    let mut now = None;
    let wanted = |queue: &Vec<_>| if queue.is_empty() { count } else { 0 };
    let (victim_count, demotion_count) = (wanted(&queues.victims), wanted(&queues.demotions));
    let (mut victims, mut demotions) = (BinaryHeap::new(), BinaryHeap::new());
    let mut protected = 0;
    for (key, stored) in index.iter(&guard) {
        let word = stored.access_word();
        let expired = stored.item.has_expired_by(&mut now);
        let is_protected = word & PROTECTED != 0;
        protected += usize::from(is_protected);
        if !is_protected || expired {
            keep_smallest(&mut victims, victim_count, (!expired, word, key));
        } else if demotion_count > 0 {
            keep_smallest(&mut demotions, demotion_count, (true, word, key));
        }
    }
    refill(&mut queues.victims, victims);
    refill(&mut queues.demotions, demotions);
    protected
}

/// What an index probe found; a live hit is already stamped and protected.
enum Probe {
    /// A live item, handed to the caller inside the read-side window;
    /// `promoted` if the hit moved it from probation to the protected
    /// segment.
    Live { promoted: bool },
    /// Present but expired: removed on the writer-side slow path.
    Expired,
    /// Not present.
    Miss,
}

/// The relativistic engine, mirroring the paper's memcached patch: the
/// index is one [`RpHashMap`].
///
/// * **GET** enters a read-side section (a pinned EBR guard, or the
///   worker's barrier-free QSBR handle), looks the key up in the index,
///   checks expiry and hands the item to the caller's reply writer while
///   still inside the section — all without taking any lock. A hit takes
///   a stamp and stores it, with the protected bit, into the item's word;
///   a miss writes nothing shared. Expired entries fall back to the slow
///   path (a writer-side remove) exactly as the patch "falls back to the
///   slow path for expiry, eviction".
/// * **SET / DELETE** serialise on the map's writer lock and retire
///   replaced items through the RCU domain. The index resizes itself under
///   load, and no SET waits for readers: the SET that makes a resize due
///   begins it, and the first SET after its grace period finishes it.
/// * **Eviction** is exact segmented LRU (SLRU) at a fraction of a scan per
///   victim. A SET stores its item in probation; a GET hit protects it. A
///   SET past capacity first demotes the oldest protected items to
///   probation, with fresh stamps, while more than 80 % of the capacity is
///   protected, then evicts an expired item or else the oldest probation
///   item. Both come from queues one scan of the index filled, and each
///   acts only if the item's word has not moved since (DESIGN.md,
///   *Eviction*).
pub struct RpEngine {
    index: Index,
    config: EngineConfig,
    clock: AtomicU64,
    stats: CacheStats,
    /// Eviction and demotion candidates of the last scan. Held for a pop
    /// and the refill scan only: never across a removal or a demotion, and
    /// nothing under it waits for a grace period (locked through
    /// [`NoGraceWait`], which asserts as much in debug builds).
    queues: Mutex<Queues>,
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
            },
            clock: AtomicU64::new(0),
            stats: CacheStats::default(),
            queues: Mutex::new(Queues::default()),
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

    /// Judges what a probe found and, for a live hit only, stamps and
    /// protects the item and runs `found` on it.
    fn classify(&self, stored: Option<&StoredItem>, found: &mut dyn FnMut(&Item)) -> Probe {
        match stored {
            Some(stored) if stored.is_expired_now() => Probe::Expired,
            Some(stored) => {
                let promoted = !stored.is_protected();
                audit::count(SharedWrite::LastAccess);
                stored
                    .last_access
                    .store(self.stamp() | PROTECTED, Ordering::Relaxed);
                found(&stored.item);
                Probe::Live { promoted }
            }
            None => Probe::Miss,
        }
    }

    /// Next access stamp.
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

    /// Removes `key`'s item if `condemn` accepts it (see
    /// [`RpHashMap::remove_if_prehashed`]), taking a protected one off the
    /// protected count; `true` if it removed one.
    fn remove_if(&self, hash: u64, key: &str, condemn: impl FnOnce(&StoredItem) -> bool) -> bool {
        let protected = Cell::new(false);
        let removed = self.index.remove_if_prehashed(hash, key, |stored| {
            protected.set(stored.is_protected());
            condemn(stored)
        });
        if removed && protected.get() {
            self.stats.add_protected(-1);
        }
        removed
    }

    /// All a SET that stays within capacity pays for eviction.
    #[inline]
    fn evict_if_needed(&self) {
        if self.index.len() > self.config.capacity {
            self.evict();
        }
    }

    /// Exact SLRU, one scan per batch of evictions and demotions. Every
    /// entry a scan left out of a queue carried a newer stamp than every
    /// entry it put in (or sits in the other segment), and whatever is
    /// touched, replaced, stored or demoted afterwards takes a newer stamp
    /// still: so the oldest queued entry whose word has not moved is the
    /// oldest entry of its segment, and one whose word moved (or that was
    /// deleted) fails the word test and is skipped.
    #[cold]
    #[inline(never)]
    fn evict(&self) {
        let quota = self.config.protected_quota() as u64;
        while self.index.len() > self.config.capacity {
            while self.stats.protected_items() > quota {
                let Some((key, word)) = self.next_in(|queues| &mut queues.demotions) else {
                    break;
                };
                if self.demote(key.borrow(), word) {
                    self.stats.add_protected(-1);
                    self.stats.demotions.inc();
                } else {
                    self.stats.evict_stale.inc();
                }
            }
            let Some((key, word)) = self.next_in(|queues| &mut queues.victims) else {
                break;
            };
            let key: &str = key.borrow();
            let expired = Cell::new(false);
            let removed = self.remove_if(str_bytes_hash(key.as_bytes()), key, |stored| {
                expired.set(stored.is_expired_now());
                stored.access_word() == word
            });
            match (removed, expired.get()) {
                (false, _) => &self.stats.evict_stale,
                (true, false) => &self.stats.evictions,
                (true, true) => &self.stats.expirations,
            }
            .inc();
        }
    }

    /// Moves `key`'s item to probation with a fresh stamp if its word is
    /// still `word`: a compare-and-swap, so a hit, an overwrite or a
    /// removal since the scan wins and the candidate is skipped.
    fn demote(&self, key: &str, word: u64) -> bool {
        let guard = self.index.pin();
        let stored = self
            .index
            .get_prehashed(str_bytes_hash(key.as_bytes()), key, &guard);
        stored.is_some_and(|stored| {
            stored.access_word() == word
                && stored
                    .last_access
                    .compare_exchange(word, self.stamp(), Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
        })
    }

    /// Pops the next entry of the queue `pick` names, refilling it (and the
    /// other queue, if that is empty too) by one scan when it is empty;
    /// `None` only if a scan left it empty. The scan also stores its
    /// recount of the protected segment.
    fn next_in(&self, pick: fn(&mut Queues) -> &mut Vec<(ItemKey, u64)>) -> Option<(ItemKey, u64)> {
        loop {
            let mut queues = NoGraceWait::holding(self.queues.lock());
            if let Some(next) = pick(&mut queues).pop() {
                return Some(next);
            }
            let start = rp_obs::timer();
            // 64 nodes scanned per eviction at any capacity; the floor
            // keeps a small cache from scanning for every one.
            let count = (self.config.capacity / 64).max(16);
            let protected = stalest(&self.index, count, &mut queues);
            self.stats
                .protected
                .store(protected as i64, Ordering::Relaxed);
            self.stats.evict_scans.inc();
            if let Some(ns) = rp_obs::elapsed_ns(start) {
                rp_obs::global().kv.evict_scan_ns.record(ns);
            }
            if pick(&mut queues).is_empty() {
                return None;
            }
            // The seam `tests/eviction_storm.rs` stretches: the batch ages
            // between its scan and its first pop, and other workers may
            // drain it meanwhile. Not under the lock.
            drop(queues);
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
        // No locks, no waiting; `found` reads the item while still inside
        // the read-side section.
        let probe = match ctx.qsbr_handle() {
            Some(handle) => self.classify(self.probe(hash, key, handle), found),
            None => {
                let guard = self.index.pin();
                self.classify(self.probe(hash, key, &guard), found)
            }
        };
        match probe {
            Probe::Live { promoted } => {
                if promoted {
                    ctx.count_promotion();
                }
            }
            // Cold path. The read-side section is over, so another worker
            // may have acknowledged a SET of this key since the probe:
            // remove only an item that is expired *now*. Stored keys are
            // always valid UTF-8, so the view cannot fail for a key that
            // was found. The removal waits for no grace period, so it is
            // safe while this thread is a QSBR reader.
            Probe::Expired => {
                if std::str::from_utf8(key)
                    .is_ok_and(|key| self.remove_if(hash, key, StoredItem::is_expired_now))
                {
                    self.stats.expirations.inc();
                }
            }
            Probe::Miss => {}
        }
        let hit = matches!(probe, Probe::Live { .. });
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
        if item.len() > MAX_ITEM_SIZE {
            return StoreOutcome::NotStored;
        }
        // In probation, whatever segment an item it replaces was in.
        let stored = StoredItem {
            item,
            last_access: AtomicU64::new(self.stamp()),
        };
        let replaced = self
            .index
            .insert_with(ItemKey::from(key), stored, StoredItem::is_protected);
        if replaced == Some(true) {
            self.stats.add_protected(-1);
        }
        self.evict_if_needed();
        self.stats.sets.inc();
        StoreOutcome::Stored
    }

    fn delete(&self, key: &str) -> bool {
        let removed = self.remove_if(str_bytes_hash(key.as_bytes()), key, |_| true);
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
        let mut protected = 0;
        let purged = self.index.retain(|_, stored| {
            let expired = stored.item.is_expired(now);
            protected += i64::from(expired && stored.is_protected());
            !expired
        });
        self.stats.add_protected(-protected);
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

    /// An index holding items with the `last_access` words `words` under
    /// the keys `a`, `b`, `c`, …; a `Some(true)` deadline has passed, a
    /// `Some(false)` one has not.
    fn index_of(words: &[(u64, Option<bool>)]) -> Index {
        let index = RpHashMap::with_buckets_and_hasher(16, FnvBuildHasher);
        for (i, &(word, deadline)) in words.iter().enumerate() {
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
                    last_access: AtomicU64::new(word),
                },
            );
        }
        index
    }

    /// The order `pop` drains `queue` in, as `(key, word)`.
    fn popped(queue: &[(ItemKey, u64)]) -> Vec<(String, u64)> {
        let mut order = Vec::new();
        for (key, word) in queue.iter().rev() {
            order.push((Borrow::<str>::borrow(key).to_string(), *word));
        }
        order
    }

    /// The victims and the demotion candidates in the order they pop, and
    /// the protected count.
    type Scanned = (Vec<(String, u64)>, Vec<(String, u64)>, usize);

    /// One scan of `index` into empty queues, for `count` entries each.
    fn scan(index: &Index, count: usize) -> Scanned {
        let mut queues = Queues::default();
        let protected = stalest(index, count, &mut queues);
        (
            popped(&queues.victims),
            popped(&queues.demotions),
            protected,
        )
    }

    fn owned(entries: &[(&str, u64)]) -> Vec<(String, u64)> {
        entries.iter().map(|&(k, w)| (k.to_string(), w)).collect()
    }

    #[test]
    fn stalest_pops_the_oldest_first() {
        let index = index_of(&[(40, None), (10, None), (30, None), (20, None), (50, None)]);
        let oldest_three = owned(&[("b", 10), ("d", 20), ("c", 30)]);
        assert_eq!(scan(&index, 3), (oldest_three.clone(), vec![], 0));
        // Asked for more than there is: everything, still oldest first.
        let (all, demotions, _) = scan(&index, 64);
        assert_eq!(all.len(), 5);
        assert_eq!(all[..3], oldest_three);
        assert_eq!(all[4], ("e".to_string(), 50));
        assert!(demotions.is_empty());
        assert_eq!(scan(&index, 0), (vec![], vec![], 0));
        assert_eq!(scan(&index_of(&[]), 16), (vec![], vec![], 0));
    }

    #[test]
    fn stalest_keeps_its_count_among_equal_stamps() {
        let index = index_of(&[(7, None), (7, None), (3, None), (7, None), (7, None)]);
        let (order, _, _) = scan(&index, 3);
        assert_eq!(order[0], ("c".to_string(), 3));
        assert_eq!((order.len(), order[1].1, order[2].1), (3, 7, 7));
        assert_ne!(order[1].0, order[2].0);
    }

    #[test]
    fn stalest_puts_expired_entries_ahead_of_live_ones() {
        // `c` is the newest entry and the first to go; it keeps its real
        // word, which is what the removal tests. A deadline still ahead is
        // no reason to go. An expired item is a victim in either segment,
        // never a demotion candidate, and still counts as protected.
        let p = PROTECTED;
        let index = index_of(&[
            (1, None),
            (2, Some(false)),
            (9, Some(true)),
            (4, None),
            (p | 5, Some(true)),
            (p | 6, None),
        ]);
        let first_three = owned(&[("c", 9), ("e", p | 5), ("a", 1)]);
        assert_eq!(scan(&index, 3), (first_three, owned(&[("f", p | 6)]), 2));
    }

    #[test]
    fn stalest_fills_a_queue_per_segment() {
        let p = PROTECTED;
        let index = index_of(&[
            (p | 40, None),
            (10, None),
            (p | 30, None),
            (20, None),
            (p | 50, Some(false)),
            (5, None),
        ]);
        let two = (
            owned(&[("f", 5), ("b", 10)]),
            owned(&[("c", p | 30), ("a", p | 40)]),
            3,
        );
        assert_eq!(scan(&index, 2), two);
        let all = (
            owned(&[("f", 5), ("b", 10), ("d", 20)]),
            owned(&[("c", p | 30), ("a", p | 40), ("e", p | 50)]),
            3,
        );
        assert_eq!(scan(&index, 16), all);
        // A scan refills only a queue that is empty: the other keeps what an
        // earlier scan queued.
        let mut queues = Queues::default();
        stalest(&index, 2, &mut queues);
        queues.victims.clear();
        let other = index_of(&[(1, None), (p | 2, None)]);
        assert_eq!(stalest(&other, 2, &mut queues), 1);
        assert_eq!(popped(&queues.victims), owned(&[("a", 1)]));
        assert_eq!(popped(&queues.demotions), two.1);
    }

    /// A demotion is a compare-and-swap on the word the scan saw: a hit
    /// since then wins, and a successful one leaves the item in probation
    /// with a stamp newer than any taken before.
    #[test]
    fn a_demotion_yields_to_a_hit_since_the_scan() {
        let engine = RpEngine::with_capacity(1024);
        let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
        engine.set("k", Item::new(0, "v"));
        engine.set("other", Item::new(0, "v"));
        engine.get_ref(b"k", &mut ctx);
        let word = || {
            let guard = engine.index.pin();
            engine.index.get("k", &guard).unwrap().access_word()
        };
        let seen = word();
        assert_ne!(seen & PROTECTED, 0);
        assert_eq!(engine.stats.protected_items(), 1);
        engine.get_ref(b"k", &mut ctx);
        assert_eq!(
            engine.stats.protected_items(),
            1,
            "a second hit promotes nothing"
        );
        assert!(!engine.demote("k", seen));
        let now = word();
        assert!(engine.demote("k", now));
        assert_eq!(word() & PROTECTED, 0);
        assert!(word() > now & !PROTECTED);
        assert!(!engine.demote("missing", now));
    }

    /// A full cache holding items past their deadline gives those up
    /// before its oldest probation item, as expirations.
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
        // With none left the oldest probation item goes: `sixth`, not the
        // three that were hit, which are protected (three is the quota of
        // four).
        engine.set("seventh", Item::new(0, "v"));
        assert_eq!(engine.stats.evictions.get(), 1);
        assert_eq!(engine.stats.protected_items(), 3);
        assert!(engine.get_ref(b"sixth", &mut ctx).is_none());
        for key in ["live-0", "live-1", "fifth", "seventh"] {
            assert!(engine.get_ref(key.as_bytes(), &mut ctx).is_some(), "{key}");
        }
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
            let probe = engine.classify(engine.probe(hash, b"k", &guard), &mut |_| {
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
