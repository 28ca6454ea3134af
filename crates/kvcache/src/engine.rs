//! The storage-engine abstraction.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicI64, Ordering};

use rp_hash::QsbrReadHandle;
pub use rp_hash::ReadSide;
use rp_obs::Counter;

use crate::audit::{self, SharedWrite};
use crate::item::Item;

/// A serving thread's read-side context, passed down to the engine's GET
/// path.
///
/// For [`ReadSide::Ebr`] this is empty — the engine pins a guard per lookup
/// as it always did. For [`ReadSide::Qsbr`] it owns the thread's
/// [`QsbrReadHandle`]; engines with a QSBR read path route lookups through
/// it, and the owner (an event-loop worker) drives the quiescent rhythm via
/// [`EngineReadCtx::quiescent`] / [`EngineReadCtx::park`] /
/// [`EngineReadCtx::unpark`].
///
/// The context also counts the GET hits and misses served through it, and
/// the hits that moved an item into the protected segment of the engine's
/// eviction order, in plain thread-private integers:
/// [`EngineReadCtx::fold`] adds them to the engine's [`CacheStats`] with
/// one `fetch_add` per counter, so a batch of GETs writes the shared
/// counters once, not once per request. Whoever
/// serves GETs through [`CacheEngine::get_with`] folds before anyone can
/// have seen the replies; [`CacheEngine::get_ref`] folds itself. Dropping
/// a context with counts left unfolded is a bug (a debug assertion).
///
/// The context is `!Send` in its QSBR form (the handle is pinned to its
/// thread); the event loop creates one per worker, on the worker.
#[derive(Debug)]
pub struct EngineReadCtx {
    qsbr: Option<QsbrReadHandle>,
    /// GET hits counted here and not yet folded into `CacheStats`.
    hits: u64,
    /// GET misses counted here and not yet folded into `CacheStats`.
    misses: u64,
    /// Promotions to the protected segment counted here and not yet folded
    /// into `CacheStats`.
    promotions: u64,
}

impl EngineReadCtx {
    /// Creates the context for `read_side`, registering a QSBR handle for
    /// the calling thread if that flavor was chosen.
    pub fn new(read_side: ReadSide) -> EngineReadCtx {
        EngineReadCtx {
            qsbr: match read_side {
                ReadSide::Ebr => None,
                ReadSide::Qsbr => Some(QsbrReadHandle::register()),
            },
            hits: 0,
            misses: 0,
            promotions: 0,
        }
    }

    /// Counts one GET served through this context.
    pub(crate) fn count_get(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Counts one GET hit that moved its item into the protected segment.
    pub(crate) fn count_promotion(&mut self) {
        self.promotions += 1;
    }

    /// Adds the GET hits, misses and promotions counted since the last fold
    /// to `stats` — one relaxed `fetch_add` per counter that moved — and
    /// zeroes them here.
    pub fn fold(&mut self, stats: &CacheStats) {
        if self.hits > 0 {
            audit::count(SharedWrite::HitFold);
            let hits = std::mem::take(&mut self.hits);
            stats.get_hits.add(hits);
        }
        if self.misses > 0 {
            audit::count(SharedWrite::MissFold);
            let misses = std::mem::take(&mut self.misses);
            stats.get_misses.add(misses);
        }
        if self.promotions > 0 {
            audit::count(SharedWrite::PromotionFold);
            let promotions = std::mem::take(&mut self.promotions);
            stats.add_protected(promotions as i64);
        }
    }

    /// The flavor this context serves.
    pub fn read_side(&self) -> ReadSide {
        if self.qsbr.is_some() {
            ReadSide::Qsbr
        } else {
            ReadSide::Ebr
        }
    }

    /// The QSBR handle, when this context serves the QSBR flavor.
    ///
    /// Returned as a shared borrow of `self`: references the engine obtains
    /// through the handle keep `self` borrowed, so the quiescent-rhythm
    /// methods (`&mut self`) cannot be called while any lookup result is
    /// alive — the same compile-time guarantee [`QsbrReadHandle`] itself
    /// provides.
    pub fn qsbr_handle(&self) -> Option<&QsbrReadHandle> {
        self.qsbr.as_ref()
    }

    /// Announces a quiescent state (no-op for EBR). Event-loop workers call
    /// this once per event batch.
    pub fn quiescent(&mut self) {
        if let Some(handle) = self.qsbr.as_mut() {
            handle.quiescent_state();
        }
    }

    /// Marks the thread offline before blocking (no-op for EBR), so a long
    /// `epoll_wait` park never stalls writers waiting for readers.
    pub fn park(&mut self) {
        if let Some(handle) = self.qsbr.as_mut() {
            handle.offline();
        }
    }

    /// Marks the thread online again after waking (no-op for EBR).
    pub fn unpark(&mut self) {
        if let Some(handle) = self.qsbr.as_mut() {
            handle.online();
        }
    }

    /// Runs `f` with the QSBR handle offline (directly for EBR), so `f`
    /// may wait for grace periods (a barrier, an explicit resize) without
    /// deadlocking on this thread's own read-side state.
    pub fn with_offline<R>(&mut self, f: impl FnOnce() -> R) -> R {
        match self.qsbr.as_mut() {
            Some(handle) => handle.offline_scope(f),
            None => f(),
        }
    }
}

impl Drop for EngineReadCtx {
    fn drop(&mut self) {
        debug_assert!(
            std::thread::panicking() || (self.hits, self.misses, self.promotions) == (0, 0, 0),
            "an EngineReadCtx dropped with {} hits, {} misses and {} promotions never folded",
            self.hits,
            self.misses,
            self.promotions
        );
    }
}

/// Outcome of a store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The item was stored.
    Stored,
    /// The item was not stored (e.g. the payload exceeds the per-item limit).
    NotStored,
}

/// Operation counters an engine maintains (mirrors the subset of memcached's
/// `stats` output the experiment cares about). `STATS` serves each as an
/// `engine_*` counter, and `STATS RESET` zeroes them through the same walk.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// GET requests that found a live item.
    pub get_hits: Counter,
    /// GET requests that found nothing (or only an expired item).
    pub get_misses: Counter,
    /// Successful SETs.
    pub sets: Counter,
    /// Successful DELETEs.
    pub deletes: Counter,
    /// Items evicted to stay under the capacity limit.
    pub evictions: Counter,
    /// Items dropped because they were found expired.
    pub expirations: Counter,
    /// Scans of the index for eviction candidates.
    pub evict_scans: Counter,
    /// Eviction or demotion candidates skipped because they were touched,
    /// replaced or deleted after the scan that queued them.
    pub evict_stale: Counter,
    /// Items moved from the protected segment back to probation.
    pub demotions: Counter,
    /// Items in the protected segment. Exact in the lock engine; in the
    /// relativistic engine GET promotions arrive with a context's fold,
    /// writers subtract what they demote or remove, and every eviction
    /// scan stores its recount, so between scans concurrent traffic can
    /// leave it a few items off.
    pub(crate) protected: AtomicI64,
}

impl CacheStats {
    /// GET hit count.
    pub fn hits(&self) -> u64 {
        self.get_hits.get()
    }

    /// GET miss count.
    pub fn misses(&self) -> u64 {
        self.get_misses.get()
    }

    /// Eviction count.
    pub fn evicted(&self) -> u64 {
        self.evictions.get()
    }

    /// Items in the protected segment (never negative, whatever a race
    /// left in the count).
    pub fn protected_items(&self) -> u64 {
        self.protected.load(Ordering::Relaxed).max(0) as u64
    }

    /// Adds `n` (negative: subtracts) to the protected count.
    pub(crate) fn add_protected(&self, n: i64) {
        self.protected.fetch_add(n, Ordering::Relaxed);
    }
}

/// Keeps `candidate` in `heap`, a max-heap, if it is among the `count`
/// smallest offered so far: the bounded heap of an eviction scan. The heap
/// allocates on its first push, once.
pub(crate) fn keep_smallest<T: Ord>(heap: &mut BinaryHeap<T>, count: usize, candidate: T) {
    if heap.len() < count {
        if heap.capacity() == 0 {
            heap.reserve_exact(count);
        }
        heap.push(candidate);
    } else if let Some(mut newest) = heap.peek_mut() {
        if candidate < *newest {
            *newest = candidate;
        }
    }
}

/// How many pipelined requests the server decodes ahead, and so how many
/// keys at most it hands to [`CacheEngine::prefetch`] at once. Sixteen
/// lookups' worth of hint passes outlast a DRAM miss, so the first line
/// asked for has arrived by the time the last pass is done; past that the
/// earliest lines only risk eviction before their request runs.
pub const GROUP: usize = 16;

/// The largest value either engine stores; a larger SET answers
/// `NOT_STORED`. Memcached's default item size limit (its `-I 1m`).
pub(crate) const MAX_ITEM_SIZE: usize = 1 << 20;

/// A cache storage engine: the component the paper swaps out between stock
/// memcached (global lock) and the relativistic patch.
pub trait CacheEngine: Send + Sync {
    /// Engine name used in benchmark output (`"default"` / `"rp"`).
    fn name(&self) -> &'static str;

    /// Looks up `key` through the serving thread's read-side context and,
    /// if a live item is stored under it, runs `found` on the item **inside
    /// the read-side window** — under the EBR guard or QSBR handle the
    /// lookup used, or under the lock engine's mutex — so the caller copies
    /// what it needs (the server: the reply) straight out of the index,
    /// without a reference count taken and dropped. Returns whether the
    /// key was found.
    ///
    /// The key is raw bytes — a slice straight out of the connection's read
    /// buffer — so the lookup allocates nothing: the relativistic engine
    /// hashes the bytes once and probes its [`ItemKey`](crate::ItemKey)-keyed
    /// index through a raw matching lookup. Keys that are not valid UTF-8
    /// cannot exist in the cache (every stored key came from a validated
    /// command line), so they simply miss.
    ///
    /// The hit or miss is counted in `ctx`, not in [`CacheEngine::stats`]:
    /// the caller folds it ([`EngineReadCtx::fold`]) before the reply can
    /// reach a client. `found` runs inside a read-side section (or a lock)
    /// and must not block.
    fn get_with(&self, key: &[u8], ctx: &mut EngineReadCtx, found: &mut dyn FnMut(&Item)) -> bool;

    /// [`CacheEngine::get_with`] returning a copy of the item (an inline
    /// payload copied, a shared one reference counted), with the count
    /// folded into [`CacheEngine::stats`] before it returns.
    fn get_ref(&self, key: &[u8], ctx: &mut EngineReadCtx) -> Option<Item> {
        let mut copy = None;
        self.get_with(key, ctx, &mut |item| {
            if item.data.shared().is_some() {
                audit::count(SharedWrite::PayloadClone);
            }
            copy = Some(item.clone());
        });
        ctx.fold(self.stats());
        copy
    }

    /// A hint that every key of `keys` is about to be looked up, stored or
    /// deleted: an engine whose index can walk ahead without a lock starts
    /// all their cache misses now, so they overlap instead of queueing one
    /// behind another. The server calls it once per group of up to
    /// [`GROUP`] pipelined requests, before executing them in order. It
    /// changes no verdict, stamp or reply — the operations still run
    /// through [`CacheEngine::get_with`], [`CacheEngine::set`] and
    /// [`CacheEngine::delete`] — and the default does nothing, which is all
    /// an engine behind a lock can do.
    fn prefetch(&self, _keys: &[&[u8]], _ctx: &EngineReadCtx) {}

    /// Does nothing, in every engine. No engine has work for a caller at a
    /// quiescent point any more: the index's writers finish its resizes,
    /// and `rp_rcu::GraceSync`'s reclaim thread runs its deferred frees.
    /// Kept only because the frozen `benchmark/` crate calls it; ROADMAP
    /// item 1b deletes it.
    fn housekeeping(&self) {}

    /// Stores `item` under `key`, replacing any previous value.
    fn set(&self, key: &str, item: Item) -> StoreOutcome;

    /// Deletes `key`. Returns `true` if it was present.
    fn delete(&self, key: &str) -> bool;

    /// Number of items currently stored (including not-yet-collected
    /// expired items).
    fn len(&self) -> usize;

    /// Returns `true` if the cache holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation counters.
    fn stats(&self) -> &CacheStats;

    /// Removes expired items eagerly (every engine also expires lazily on
    /// GET). Returns how many were removed.
    fn purge_expired(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RequestRef;
    use crate::server::execute_ref;
    use crate::{LockEngine, RpEngine};
    use std::collections::{BTreeMap, HashMap};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn stats_counters_accumulate() {
        let stats = CacheStats::default();
        stats.get_hits.inc();
        stats.get_hits.inc();
        stats.get_misses.inc();
        stats.evictions.inc();
        assert_eq!(stats.hits(), 2);
        assert_eq!(stats.misses(), 1);
        assert_eq!(stats.evicted(), 1);
    }

    /// The conformance matrix: every check below runs against each engine
    /// (built with the given capacity) under each read-side flavor, on a
    /// thread of its own so a QSBR registration never outlives its check.
    fn for_every_engine_and_read_side(
        capacity: usize,
        check: fn(&Arc<dyn CacheEngine>, &mut EngineReadCtx),
    ) {
        let engines: [fn(usize) -> Arc<dyn CacheEngine>; 2] = [
            |capacity| Arc::new(RpEngine::with_capacity(capacity)),
            |capacity| Arc::new(LockEngine::with_capacity(capacity)),
        ];
        for make in engines {
            for read_side in [ReadSide::Ebr, ReadSide::Qsbr] {
                std::thread::spawn(move || {
                    let engine = make(capacity);
                    eprintln!("conformance: {} via {read_side:?}", engine.name());
                    let mut ctx = EngineReadCtx::new(read_side);
                    check(&engine, &mut ctx);
                })
                .join()
                .unwrap_or_else(|_| panic!("conformance check failed (see engine above)"));
            }
        }
    }

    #[test]
    fn get_set_delete_round_trip() {
        for_every_engine_and_read_side(10_000, |engine, ctx| {
            assert_eq!(engine.get_ref(b"k0", ctx), None);
            for i in 0..200_u32 {
                let stored = engine.set(&format!("k{i}"), Item::new(i, format!("v{i}")));
                assert_eq!(stored, StoreOutcome::Stored);
            }
            assert_eq!(engine.len(), 200);
            for i in 0..200_u32 {
                let item = engine.get_ref(format!("k{i}").as_bytes(), ctx).unwrap();
                assert_eq!(item.flags, i);
                assert_eq!(&item.data[..], format!("v{i}").as_bytes());
            }
            ctx.quiescent();
            assert!(engine.delete("k0"));
            assert!(!engine.delete("k0"));
            assert_eq!(engine.get_ref(b"k0", ctx), None);
            assert_eq!(engine.stats().hits(), 200);
            assert_eq!(engine.stats().misses(), 2);
            assert_eq!(engine.len(), 199);
            // A key that is not UTF-8 cannot have been stored.
            assert_eq!(engine.get_ref(b"\xff\xfe not utf8", ctx), None);
        });
    }

    #[test]
    fn expired_items_fall_back_to_the_slow_path() {
        for_every_engine_and_read_side(10_000, |engine, ctx| {
            engine.set("k", Item::expired(0, "stale"));
            engine.set("live", Item::new(0, "x"));
            // `exptime 0` and a deadline still ahead: both plain hits.
            engine.set("forever", Item::with_ttl(0, "x", Duration::ZERO));
            engine.set("later", Item::with_ttl(0, "x", Duration::from_secs(3600)));
            assert_eq!(engine.len(), 4);
            assert_eq!(engine.get_ref(b"k", ctx), None);
            assert_eq!(engine.len(), 3, "expired item must be removed lazily");
            assert_eq!(engine.stats().expirations.get(), 1);
            assert_eq!(engine.stats().misses(), 1);
            for key in ["live", "forever", "later"] {
                assert!(engine.get_ref(key.as_bytes(), ctx).is_some(), "{key}");
            }
            assert_eq!(engine.len(), 3);
        });
    }

    #[test]
    fn keys_of_250_bytes_round_trip() {
        for_every_engine_and_read_side(10_000, |engine, ctx| {
            let long = "k".repeat(250);
            let other = format!("{}j", &long[..249]);
            engine.set(&long, Item::new(7, "long"));
            engine.set(&other, Item::new(8, "other"));
            assert_eq!(engine.len(), 2);
            let item = engine.get_ref(long.as_bytes(), ctx).unwrap();
            assert_eq!((item.flags, &item.data[..]), (7, &b"long"[..]));
            assert_eq!(engine.get_ref(&long.as_bytes()[..249], ctx), None);
            ctx.quiescent();
            assert!(engine.delete(&long));
            assert_eq!(engine.get_ref(long.as_bytes(), ctx), None);
            assert!(engine.get_ref(other.as_bytes(), ctx).is_some());
        });
    }

    #[test]
    fn keys_either_side_of_the_inline_boundary_are_distinct() {
        // 22 bytes is the longest key the relativistic engine stores inline; one
        // more byte of the same prefix is another key, not an overwrite.
        for_every_engine_and_read_side(10_000, |engine, ctx| {
            let (short, long) = ("k".repeat(22), "k".repeat(23));
            engine.set(&short, Item::new(0, "short"));
            engine.set(&long, Item::new(0, "long"));
            assert_eq!(engine.len(), 2);
            engine.set(&short, Item::new(0, "short again"));
            assert_eq!(engine.len(), 2);
            let data = |key: &str, ctx: &mut EngineReadCtx| {
                engine.get_ref(key.as_bytes(), ctx).map(|i| i.data.to_vec())
            };
            assert_eq!(data(&short, ctx), Some(b"short again".to_vec()));
            assert_eq!(data(&long, ctx), Some(b"long".to_vec()));
            ctx.quiescent();
            assert!(engine.delete(&long));
            assert_eq!(data(&long, ctx), None);
            assert_eq!(data(&short, ctx), Some(b"short again".to_vec()));
        });
    }

    #[test]
    fn capacity_is_enforced_by_evicting_the_oldest_probation_item() {
        for_every_engine_and_read_side(4, |engine, ctx| {
            for i in 0..4 {
                engine.set(&format!("k{i}"), Item::new(0, "x"));
            }
            // Hit k0..k2 (protected, three is the quota of four), so k3 is
            // the only item in probation.
            for i in 0..3 {
                engine.get_ref(format!("k{i}").as_bytes(), ctx);
            }
            engine.set("k4", Item::new(0, "x"));
            assert_eq!(engine.len(), 4);
            assert_eq!(engine.stats().evicted(), 1);
            assert_eq!(engine.get_ref(b"k3", ctx), None, "the coldest key goes");
            for key in ["k0", "k1", "k2", "k4"] {
                assert!(engine.get_ref(key.as_bytes(), ctx).is_some(), "{key}");
            }
        });
    }

    /// An exact LRU kept as a list of keys ordered by the tick of their
    /// last use: what the engines evicted by before segmented LRU, and the
    /// bar the Zipf test holds them above.
    #[derive(Default)]
    struct ModelLru {
        capacity: usize,
        tick: u64,
        last_use: HashMap<u32, u64>,
        by_age: BTreeMap<u64, u32>,
    }

    impl ModelLru {
        fn touch(&mut self, key: u32) {
            self.tick += 1;
            if let Some(before) = self.last_use.insert(key, self.tick) {
                self.by_age.remove(&before);
            }
            self.by_age.insert(self.tick, key);
        }

        fn get(&mut self, key: u32) -> bool {
            let hit = self.last_use.contains_key(&key);
            if hit {
                self.touch(key);
            }
            hit
        }

        fn set(&mut self, key: u32) {
            self.touch(key);
            if self.last_use.len() > self.capacity {
                let (_, oldest) = self.by_age.pop_first().unwrap();
                self.last_use.remove(&oldest);
            }
        }
    }

    /// The reference the engines are held to: segmented LRU kept as two
    /// lists of keys, probation and protected, each ordered by the tick of
    /// its keys' last use.
    #[derive(Default)]
    struct ModelSlru {
        capacity: usize,
        tick: u64,
        /// Each key's segment (`true`: protected) and tick.
        items: HashMap<u32, (bool, u64)>,
        /// Each segment's keys by tick, probation first.
        by_age: [BTreeMap<u64, u32>; 2],
        evictions: u64,
        demotions: u64,
    }

    impl ModelSlru {
        fn new(capacity: usize) -> ModelSlru {
            ModelSlru {
                capacity,
                ..ModelSlru::default()
            }
        }

        /// Puts `key` in a segment with a fresh tick.
        fn place(&mut self, key: u32, protected: bool) {
            self.tick += 1;
            if let Some((was, tick)) = self.items.insert(key, (protected, self.tick)) {
                self.by_age[usize::from(was)].remove(&tick);
            }
            self.by_age[usize::from(protected)].insert(self.tick, key);
        }

        fn get(&mut self, key: u32) -> bool {
            let hit = self.items.contains_key(&key);
            if hit {
                self.place(key, true);
            }
            hit
        }

        fn set(&mut self, key: u32) {
            self.place(key, false);
            if self.items.len() > self.capacity {
                while self.by_age[1].len() > self.capacity * 4 / 5 {
                    let (_, oldest) = self.by_age[1].pop_first().unwrap();
                    self.place(oldest, false);
                    self.demotions += 1;
                }
                let (_, oldest) = self.by_age[0].pop_first().unwrap();
                self.items.remove(&oldest);
                self.evictions += 1;
            }
        }

        fn delete(&mut self, key: u32) -> bool {
            let before = self.items.remove(&key);
            before.is_some_and(|(protected, tick)| {
                self.by_age[usize::from(protected)].remove(&tick).is_some()
            })
        }
    }

    /// A seeded xorshift64 stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// A uniform draw from `0..n`.
        fn below(&mut self, n: u64) -> u64 {
            (self.next() >> 32) % n
        }
    }

    #[test]
    fn eviction_is_exact_slru_against_a_model() {
        // Skewed cache-aside traffic with overwrites and deletes mixed in:
        // the model predicts every verdict, the eviction and demotion
        // totals and the protected count. Capacity 5 is below the smallest
        // batch a scan queues, so a queue there always holds its whole
        // segment, the key just stored included.
        fn check(engine: &dyn CacheEngine, capacity: usize) {
            let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
            let mut model = ModelSlru::new(capacity);
            let keys = 4 * capacity as u64;
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
            for op in 0..200_000 {
                // The cube of a uniform draw: low ids are the hot ones.
                let uniform = rng.below(keys);
                let id = (uniform * uniform * uniform / (keys * keys)) as u32;
                let key = format!("key:{id}");
                let at = || format!("{} capacity {capacity} op {op} {key}", engine.name());
                match rng.0 % 100 {
                    0..=4 => assert_eq!(engine.delete(&key), model.delete(id), "{}", at()),
                    5..=9 => {
                        engine.set(&key, Item::new(0, "again"));
                        model.set(id);
                    }
                    _ => {
                        let hit = engine.get_ref(key.as_bytes(), &mut ctx).is_some();
                        assert_eq!(hit, model.get(id), "{}", at());
                        if !hit {
                            engine.set(&key, Item::new(0, "filled"));
                            model.set(id);
                        }
                    }
                }
            }
            let stats = engine.stats();
            let name = engine.name();
            assert_eq!(stats.evicted(), model.evictions, "{name}");
            assert_eq!(stats.demotions.get(), model.demotions, "{name}");
            let protected = model.by_age[1].len() as u64;
            assert_eq!(stats.protected_items(), protected, "{name}");
            assert_eq!(engine.len(), model.items.len(), "{name}");
            assert!(model.evictions > 10_000, "{}", model.evictions);
            assert!(model.demotions > 1_000, "{}", model.demotions);
        }
        for capacity in [1024, 5] {
            check(&RpEngine::with_capacity(capacity), capacity);
            check(&LockEngine::with_capacity(capacity), capacity);
        }
    }

    /// Scan resistance: keys hit twice stay resident through a burst of
    /// one-time SETs four times the capacity, which under LRU would have
    /// flushed every one of them.
    #[test]
    fn keys_hit_twice_survive_a_burst_of_one_time_sets() {
        for_every_engine_and_read_side(1024, |engine, ctx| {
            for i in 0..512 {
                engine.set(&format!("hot:{i}"), Item::new(0, "x"));
            }
            for _ in 0..2 {
                for i in 0..512 {
                    let key = format!("hot:{i}");
                    assert!(engine.get_ref(key.as_bytes(), ctx).is_some());
                }
                ctx.quiescent();
            }
            for i in 0..4 * 1024 {
                engine.set(&format!("once:{i}"), Item::new(0, "x"));
            }
            assert_eq!(engine.len(), 1024);
            let gone: Vec<_> = (0..512)
                .filter(|i| engine.get_ref(format!("hot:{i}").as_bytes(), ctx).is_none())
                .collect();
            assert!(gone.is_empty(), "{} hot keys evicted: {gone:?}", gone.len());
        });
    }

    /// Shift adaptation: once a protected hot set stops being asked for,
    /// a new one that does not fit beside it takes its place within a
    /// bounded number of operations. A policy that protected hit items
    /// for good would keep a third of the new set out forever.
    #[test]
    fn a_moved_hot_set_is_resident_within_twelve_passes() {
        const HOT: u64 = 768;
        for_every_engine_and_read_side(1024, |engine, ctx| {
            let mut rng = Rng(0x2545_F491_4F6C_DD1D);
            let mut cache_aside = |prefix: &str, ctx: &mut EngineReadCtx| {
                let key = format!("{prefix}:{}", rng.below(HOT));
                if engine.get_ref(key.as_bytes(), ctx).is_none() {
                    engine.set(&key, Item::new(0, "x"));
                }
            };
            for _ in 0..20 * HOT {
                cache_aside("old", ctx);
            }
            assert!(engine.stats().protected_items() >= HOT * 99 / 100);
            for _ in 0..12 * HOT {
                cache_aside("new", ctx);
            }
            let resident = (0..HOT)
                .filter(|i| engine.get_ref(format!("new:{i}").as_bytes(), ctx).is_some())
                .count() as u64;
            assert!(
                resident * 100 >= 95 * HOT,
                "{resident} of {HOT} new hot keys resident"
            );
        });
    }

    /// Zipf 0.99 over 16 Ki keys, cache-aside at a capacity of 4 Ki: the
    /// engines' hit ratio, counted after a warm-up, beats an exact LRU's
    /// on the same stream by at least two points.
    #[test]
    fn zipf_cache_aside_beats_exact_lru_by_two_points() {
        const KEYS: usize = 16 * 1024;
        const CAPACITY: usize = 4 * 1024;
        const OPS: usize = 200_000;
        const WARM: usize = 50_000;
        let mut cdf = Vec::with_capacity(KEYS);
        let mut total = 0.0;
        for rank in 1..=KEYS {
            total += 1.0 / (rank as f64).powf(0.99);
            cdf.push(total);
        }
        let mut rng = Rng(0x5DEE_CE66_D1CE_4E5B);
        let stream: Vec<u32> = (0..OPS)
            .map(|_| {
                let draw = (rng.next() >> 11) as f64 / (1_u64 << 53) as f64 * total;
                cdf.partition_point(|&c| c <= draw).min(KEYS - 1) as u32
            })
            .collect();
        let ratio = |hits: usize| hits as f64 / (OPS - WARM) as f64;
        let mut lru = ModelLru {
            capacity: CAPACITY,
            ..ModelLru::default()
        };
        let mut lru_hits = 0;
        for (op, &id) in stream.iter().enumerate() {
            let hit = lru.get(id);
            if !hit {
                lru.set(id);
            }
            lru_hits += usize::from(hit && op >= WARM);
        }
        let lru = ratio(lru_hits);
        let engines: [Box<dyn CacheEngine>; 2] = [
            Box::new(RpEngine::with_capacity(CAPACITY)),
            Box::new(LockEngine::with_capacity(CAPACITY)),
        ];
        for engine in engines {
            let mut ctx = EngineReadCtx::new(ReadSide::Ebr);
            let mut hits = 0;
            for (op, &id) in stream.iter().enumerate() {
                let key = format!("key:{id}");
                let hit = engine.get_ref(key.as_bytes(), &mut ctx).is_some();
                if !hit {
                    engine.set(&key, Item::new(0, "x"));
                }
                hits += usize::from(hit && op >= WARM);
            }
            let slru = ratio(hits);
            eprintln!("{}: hit ratio {slru:.4}, exact LRU {lru:.4}", engine.name());
            assert!(
                slru >= lru + 0.02,
                "{}: {slru:.4} against LRU's {lru:.4}",
                engine.name()
            );
        }
    }

    #[test]
    fn purge_expired_removes_only_stale_items() {
        for_every_engine_and_read_side(10_000, |engine, _ctx| {
            for i in 0..6 {
                let item = if i % 2 == 0 {
                    Item::expired(0, "x")
                } else {
                    Item::new(0, "x")
                };
                engine.set(&format!("k{i}"), item);
            }
            assert_eq!(engine.purge_expired(), 3);
            assert_eq!(engine.len(), 3);
        });
    }

    #[test]
    fn oversized_items_are_rejected() {
        for_every_engine_and_read_side(10_000, |engine, _ctx| {
            let huge = vec![0_u8; MAX_ITEM_SIZE + 1];
            assert_eq!(engine.set("k", Item::new(0, huge)), StoreOutcome::NotStored);
            assert_eq!(engine.len(), 0);
            let largest = vec![0_u8; MAX_ITEM_SIZE];
            assert_eq!(engine.set("k", Item::new(0, largest)), StoreOutcome::Stored);
            assert_eq!(engine.len(), 1);
        });
    }

    #[test]
    fn values_either_side_of_the_inline_and_coalescing_limits_round_trip() {
        // 70 bytes is the longest value stored inline and 1024 the longest
        // copied into the reply; past them a value is shared, then queued
        // by reference. Not UTF-8, so nothing on the path may treat it as
        // text.
        for_every_engine_and_read_side(10_000, |engine, ctx| {
            for len in [0, 70, 71, 1024, 1025] {
                let value: Vec<u8> = (0..len).map(|i| 0x80 | (i % 128) as u8).collect();
                let key = format!("v{len}");
                let mut reply = Vec::new();
                let set = RequestRef::Set {
                    key: key.as_bytes(),
                    flags: 9,
                    exptime: 0,
                    data: &value,
                    noreply: false,
                };
                execute_ref(&**engine, &set, ctx, &mut reply);
                assert_eq!(reply, b"STORED\r\n", "{len} bytes");
                reply.clear();
                let get = RequestRef::Get {
                    key: key.as_bytes(),
                };
                execute_ref(&**engine, &get, ctx, &mut reply);
                let mut expected = format!("VALUE {key} 9 {len}\r\n").into_bytes();
                expected.extend_from_slice(&value);
                expected.extend_from_slice(b"\r\nEND\r\n");
                assert!(reply == expected, "{len} bytes: {reply:?}");
                ctx.quiescent();
            }
            assert_eq!(engine.stats().hits(), 5);
        });
    }

    #[test]
    fn a_qsbr_worker_serves_its_own_writes_across_batches() {
        // The reactor worker's rhythm: SETs and GETs from one thread, a
        // quiescent state between batches, and nothing else: the SETs
        // resize the index themselves. (Whether the index grew meanwhile
        // is index-specific and checked beside each index.)
        for_every_engine_and_read_side(100_000, |engine, ctx| {
            for batch in 0..8 {
                for i in 0..1024 {
                    engine.set(&format!("key-{batch}-{i}"), Item::new(0, "v"));
                }
                ctx.quiescent();
            }
            assert_eq!(engine.len(), 8192);
            for batch in 0..8 {
                let key = format!("key-{batch}-7");
                assert!(engine.get_ref(key.as_bytes(), ctx).is_some(), "{key}");
            }
        });
    }

    #[test]
    fn concurrent_gets_and_sets() {
        for_every_engine_and_read_side(100_000, |engine, ctx| {
            let read_side = ctx.read_side();
            for i in 0..256 {
                engine.set(&format!("k{i}"), Item::new(0, format!("v{i}")));
            }
            let stop = Arc::new(AtomicBool::new(false));
            let readers: Vec<_> = (0..3)
                .map(|seed| {
                    let engine = Arc::clone(engine);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut ctx = EngineReadCtx::new(read_side);
                        let mut k = seed;
                        while !stop.load(Ordering::Relaxed) {
                            k = (k * 13 + 1) % 256;
                            let item = engine
                                .get_ref(format!("k{k}").as_bytes(), &mut ctx)
                                .expect("stable key present");
                            assert!(item.data.starts_with(b"v"));
                            ctx.quiescent();
                        }
                    })
                })
                .collect();
            // This thread writes; it must not hold up its own grace periods.
            ctx.park();
            for round in 0..2000_u32 {
                let k = round % 256;
                engine.set(&format!("k{k}"), Item::new(round, format!("v{k}-{round}")));
            }
            stop.store(true, Ordering::SeqCst);
            for r in readers {
                r.join().unwrap();
            }
        });
    }
}
